"""Logical object identities and id-terms (paper §2 and §4.2).

The paper's data model refers to objects through *logical object ids*, which
are syntactic terms of the query language:

* symbolic atoms such as ``mary123`` or ``uniSQL`` (:class:`Atom`);
* literal values such as ``20`` or ``'newyork'``, whose logical id carries
  "the usual properties" of the number or string (:class:`Value`);
* applications of *id-functions* to other id-terms, such as
  ``secretary(dept77)`` or ``CompSalaries(c1, e7)`` (:class:`FuncOid`).

An *id-term* in general may also contain variables (§4.2): ``an id-term is
either an oid, a variable (class, method, or individual), or an expression of
the form f(t1, ..., tn)``.  :class:`Variable` carries one of the four sorts
used by XSQL: individual (``X``), class (``#X``), method (``"Y``), and path
(``*Y``).

All term classes are immutable and hashable so they can live in sets and
serve as dictionary keys throughout the store and the evaluators.  Every
operator memo, binding dict, extent set and path cache hashes them, so each
term is a *tagged tuple*: a ``tuple`` subclass whose first item is an
integer kind tag, followed by the payload (``Atom`` → ``(tag, name)``,
``Value`` → ``(tag, value)``, ``FuncOid`` → ``(tag, functor, args)``,
``Variable`` → ``(tag, name, sort)``).  Hashing and equality then run in C.
The tag keeps the domains apart: ``Atom('x') != Value('x')``, and a boolean
literal has its own tag, so ``Value(True) != Value(1)`` while
``Value(1) == Value(1.0)``.

Being a tuple, an oid equals a *plain* tuple with the same tag and payload
(``Atom('x') == (tag, 'x')``).  Never key one map with both oids and plain
tuples, and test for a plain tuple (a path variable's method sequence) with
``type(x) is tuple``, never ``isinstance(x, tuple)``.
"""

from __future__ import annotations

import enum
from operator import itemgetter
from typing import Iterator, Mapping, Tuple, Union

__all__ = [
    "Term",
    "Oid",
    "Atom",
    "Value",
    "FuncOid",
    "VarSort",
    "Variable",
    "NIL",
    "oid",
    "is_ground",
    "substitute",
    "variables_of",
    "term_sort_key",
]

Scalar = Union[int, float, str, bool]

# Kind tags: the first item of every term tuple.  Booleans get their own
# tag so ``true`` and ``1`` are distinct objects.
_ATOM, _VALUE, _BOOL, _FUNC, _VARIABLE = range(5)


class Term:
    """Common base class for id-terms (oids and variables)."""

    __slots__ = ()


class Oid(Term):
    """Base class for *ground* id-terms, i.e. logical object ids."""

    __slots__ = ()


class Atom(tuple, Oid):
    """A symbolic logical oid: ``mary123``, ``Person``, ``Residence`` ...

    Atoms name individuals, classes, and methods alike; which role an atom
    plays is determined by the catalogue (§2: "we do not completely isolate
    the space of attribute names from the space of other logical oids").
    """

    __slots__ = ()

    def __new__(cls, name: str) -> "Atom":
        return tuple.__new__(cls, (_ATOM, name))

    name = property(itemgetter(1))

    def __getnewargs__(self) -> Tuple[str]:
        return (self.name,)

    def __str__(self) -> str:
        return self.name

    def __repr__(self) -> str:
        return f"Atom({self.name!r})"


class Value(tuple, Oid):
    """A literal object: a number, string, or boolean.

    Per §2, ``'20'`` is "a logical id of the abstract object with the usual
    properties of the number 20"; likewise for strings.  Literal objects are
    instances of the built-in catalogue classes ``Numeral``, ``String`` and
    ``Boolean``.
    """

    __slots__ = ()

    def __new__(cls, value: Scalar) -> "Value":
        if isinstance(value, bool):
            return tuple.__new__(cls, (_BOOL, value))
        if not isinstance(value, (int, float, str)):
            raise TypeError(f"unsupported literal payload: {value!r}")
        return tuple.__new__(cls, (_VALUE, value))

    value = property(itemgetter(1))

    def __getnewargs__(self) -> Tuple[Scalar]:
        return (self.value,)

    def __str__(self) -> str:
        if isinstance(self.value, str):
            # The escapes the lexer's ``unescape_string`` undoes, so a
            # printed literal parses back to the same value.
            escaped = self.value.replace("\\", "\\\\").replace("'", "\\'")
            return f"'{escaped}'"
        return str(self.value)

    def __repr__(self) -> str:
        return f"Value({self.value!r})"


class FuncOid(tuple, Oid):
    """An id-function application ``f(t1, ..., tn)`` over ground id-terms.

    Id-functions "invent new object identifiers by applying function symbols
    to existing object identifiers" (§1, following [KW89]); they are how
    object-creating queries and views mint fresh, reproducible oids (§4).
    """

    __slots__ = ()

    def __new__(cls, functor: str, args: Tuple[Oid, ...]) -> "FuncOid":
        args = tuple(args)
        for arg in args:
            if not isinstance(arg, Oid):
                raise TypeError(f"FuncOid argument must be ground, got {arg!r}")
        return tuple.__new__(cls, (_FUNC, functor, args))

    functor = property(itemgetter(1))
    args = property(itemgetter(2))

    def __getnewargs__(self) -> Tuple[str, Tuple[Oid, ...]]:
        return (self.functor, self.args)

    def __str__(self) -> str:
        inner = ", ".join(str(a) for a in self.args)
        return f"{self.functor}({inner})"

    def __repr__(self) -> str:
        return f"FuncOid({self.functor!r}, {self.args!r})"


class VarSort(str, enum.Enum):
    """The four variable sorts of XSQL (§3.1).

    ``INDIVIDUAL`` variables range over ids of individual objects,
    ``CLASS`` variables (written ``#X``) over class-objects, ``METHOD``
    variables (written ``"Y``) over method-objects (including attributes),
    and ``PATH`` variables (written ``*Y``) over finite sequences of
    method-objects.  The ``str`` mixin makes a member hash as its value,
    in C.
    """

    INDIVIDUAL = "individual"
    CLASS = "class"
    METHOD = "method"
    PATH = "path"


_SORT_PREFIX = {
    VarSort.INDIVIDUAL: "",
    VarSort.CLASS: "#",
    VarSort.METHOD: '"',
    VarSort.PATH: "*",
}


class Variable(tuple, Term):
    """A sorted query variable."""

    __slots__ = ()

    def __new__(
        cls, name: str, sort: VarSort = VarSort.INDIVIDUAL
    ) -> "Variable":
        return tuple.__new__(cls, (_VARIABLE, name, sort))

    name = property(itemgetter(1))
    sort = property(itemgetter(2))

    def __getnewargs__(self) -> Tuple[str, VarSort]:
        return (self.name, self.sort)

    def __str__(self) -> str:
        return _SORT_PREFIX[self.sort] + self.name

    def __repr__(self) -> str:
        return f"Variable({self.name!r}, {self.sort.value})"


#: The special object returned by methods invoked purely for side effects
#: (paper §5: "Notice the special-looking object, nil").
NIL = Atom("nil")


def oid(raw: Union[Oid, Scalar]) -> Oid:
    """Coerce a Python scalar or an existing oid into an :class:`Oid`.

    Strings become :class:`Value` literals, *not* atoms: symbolic names must
    be constructed explicitly via :class:`Atom`.  This keeps ``'Ford'`` (a
    string object) distinct from ``Ford`` (a symbolic oid) exactly as the
    query syntax does.
    """
    if isinstance(raw, Oid):
        return raw
    return Value(raw)


def is_ground(term: Term) -> bool:
    """Return True iff *term* contains no variables."""
    return isinstance(term, Oid)


def variables_of(term: Term) -> Iterator[Variable]:
    """Yield the variables occurring in *term* (at most one for our terms)."""
    if isinstance(term, Variable):
        yield term


def substitute(term: Term, bindings: Mapping[Variable, Oid]) -> Term:
    """Apply *bindings* to *term*, returning a (possibly still open) term."""
    if isinstance(term, Variable):
        return bindings.get(term, term)
    return term


def term_sort_key(term: Term) -> Tuple:
    """A total order over terms, for deterministic query output.

    Literals sort first (numbers before strings, by value), then atoms by
    name, then id-function applications structurally, then variables.
    """
    if isinstance(term, Value):
        if isinstance(term.value, bool):
            return (0, 0, (2, str(term.value)))
        if isinstance(term.value, (int, float)):
            return (0, 0, (0, float(term.value)))
        return (0, 0, (1, term.value))
    if isinstance(term, Atom):
        return (1, term.name)
    if isinstance(term, FuncOid):
        return (2, term.functor, tuple(term_sort_key(a) for a in term.args))
    if isinstance(term, Variable):
        return (3, term.sort.value, term.name)
    raise TypeError(f"not a term: {term!r}")
