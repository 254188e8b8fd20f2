"""Abstract syntax of XSQL (paper §3–§5).

The grammar centre-piece is the *extended path expression* (2)/(11):

    selector.MthdEx1[selector1]. ... .MthdExm[selectorm]

where each method expression is ``Name``, a method variable ``"Y``, a path
variable ``*Y``, or ``(Name @ arg, ...)``; selectors are optional and are
id-terms (oids, variables, or id-function applications, §4.2).

All AST nodes are frozen dataclasses: hashable so the type system can key
assignments by syntactic occurrence, and safely shareable between the
evaluators.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterator, Optional, Tuple, Union

from repro.oid import Atom, Oid, Term, Variable

__all__ = [
    "App",
    "SelectorNode",
    "MethodExpr",
    "Step",
    "PathExpr",
    "Operand",
    "PathOperand",
    "AggOperand",
    "SetLitOperand",
    "SubQueryOperand",
    "SetOpOperand",
    "ArithOperand",
    "Cond",
    "PathCond",
    "Comparison",
    "SchemaCond",
    "NotCond",
    "AndCond",
    "OrCond",
    "UpdateCond",
    "SelectItem",
    "PathItem",
    "SetItem",
    "MethodItem",
    "FromDecl",
    "Query",
    "Statement",
    "CreateView",
    "CreateClass",
    "AlterClass",
    "UpdateClass",
    "QueryOp",
    "path_of_term",
    "free_variables",
]


@dataclass(frozen=True)
class App:
    """A (possibly non-ground) id-term ``f(t1, ..., tn)`` (§4.2).

    Arguments are oids, variables, or nested Apps; the parser may
    temporarily produce path-expression arguments, which normalization
    rewrites away exactly as the paper prescribes for query (10).
    """

    functor: str
    args: Tuple[object, ...]

    def __str__(self) -> str:
        return f"{self.functor}({', '.join(str(a) for a in self.args)})"


SelectorNode = Union[Oid, Variable, App]


@dataclass(frozen=True)
class MethodExpr:
    """A k-ary method expression ``(Mthd @ Arg1, ..., Argk)`` (§5).

    0-ary method expressions are attribute expressions and print without
    the ``@``.  ``method`` is an :class:`Atom`, a method variable, or a
    path variable.
    """

    method: Union[Atom, Variable]
    args: Tuple[object, ...] = ()

    def __str__(self) -> str:
        if not self.args:
            return str(self.method)
        inner = ", ".join(str(a) for a in self.args)
        return f"({self.method} @ {inner})"


@dataclass(frozen=True)
class Step:
    """One ``.MthdEx[selector]`` hop of a path expression."""

    method_expr: MethodExpr
    selector: Optional[SelectorNode] = None

    def __str__(self) -> str:
        text = str(self.method_expr)
        if self.selector is not None:
            text += f"[{self.selector}]"
        return text


@dataclass(frozen=True)
class PathExpr:
    """An extended path expression: head selector plus zero or more steps."""

    head: SelectorNode
    steps: Tuple[Step, ...] = ()

    def __str__(self) -> str:
        return ".".join([str(self.head), *(str(s) for s in self.steps)])

    @property
    def is_trivial(self) -> bool:
        """A bare selector is a (trivial) path (§3.1)."""
        return not self.steps

    def last_selector(self) -> Optional[SelectorNode]:
        if self.steps:
            return self.steps[-1].selector
        return None

    @cached_property
    def free_variables(self) -> Tuple[Variable, ...]:
        """The path's distinct variables, head to tail (computed once)."""
        return tuple(dict.fromkeys(path_variables(self)))

    @cached_property
    def chain_methods(self) -> Optional[Tuple[Atom, ...]]:
        """The methods of an atom chain ``H.M1.M2…`` — every step a
        ground 0-ary method without a selector, so the value is a plain
        attribute fetch — else None (computed once)."""
        methods = tuple(step.method_expr.method for step in self.steps)
        if all(
            isinstance(method, Atom)
            and not step.method_expr.args
            and step.selector is None
            for method, step in zip(methods, self.steps)
        ):
            return methods
        return None


def path_of_term(term: SelectorNode) -> PathExpr:
    """Wrap a selector as the trivial path it denotes."""
    return PathExpr(head=term)


# ----------------------------------------------------------------------
# operands of comparisons and SELECT-item values
# ----------------------------------------------------------------------


class Operand:
    """Anything whose evaluation yields a set of oids (§3.2)."""

    __slots__ = ()


@dataclass(frozen=True)
class PathOperand(Operand):
    path: PathExpr

    def __str__(self) -> str:
        return str(self.path)


@dataclass(frozen=True)
class AggOperand(Operand):
    """``count/sum/avg/min/max`` applied to a path expression (§3.2)."""

    fn: str
    path: PathExpr

    def __str__(self) -> str:
        return f"{self.fn}({self.path})"


@dataclass(frozen=True)
class SetLitOperand(Operand):
    """A set literal such as ``{'blue', 'red'}``."""

    values: Tuple[Oid, ...]

    def __str__(self) -> str:
        return "{" + ", ".join(str(v) for v in self.values) + "}"


@dataclass(frozen=True)
class SubQueryOperand(Operand):
    """A nested SELECT used as a set of values, as in query (13)."""

    query: "Query"

    def __str__(self) -> str:
        return f"({self.query})"


@dataclass(frozen=True)
class SetOpOperand(Operand):
    """UNION/INTERSECT/MINUS applied to operand values (§3.2)."""

    op: str  # 'union' | 'intersect' | 'minus'
    left: Operand
    right: Operand

    def __str__(self) -> str:
        return f"({self.left} {self.op.upper()} {self.right})"


@dataclass(frozen=True)
class ArithOperand(Operand):
    """Arithmetic over scalar numeral operands, e.g. ``(1 + W/100) * ...``."""

    op: str  # '+', '-', '*', '/'
    left: Operand
    right: Operand

    def __str__(self) -> str:
        return f"({self.left} {self.op} {self.right})"


# ----------------------------------------------------------------------
# conditions (the WHERE clause)
# ----------------------------------------------------------------------


class Cond:
    __slots__ = ()


@dataclass(frozen=True)
class PathCond(Cond):
    """A stand-alone path expression: true iff its value is non-empty (§3.4).

    When the head is an :class:`App` whose functor names a declared
    relation, the condition is instead relation membership — relations are
    first-class (§2).
    """

    path: PathExpr

    def __str__(self) -> str:
        return str(self.path)


@dataclass(frozen=True)
class Comparison(Cond):
    """``lhs [some|all] op [some|all] rhs`` (§3.2).

    ``lq``/``rq`` are ``'some'``, ``'all'``, or ``None`` (defaulting to
    existential, which coincides with the plain reading on singletons).
    """

    lhs: Operand
    op: str
    rhs: Operand
    lq: Optional[str] = None
    rq: Optional[str] = None

    def __str__(self) -> str:
        lq = f"{self.lq}" if self.lq else ""
        rq = f"{self.rq}" if self.rq else ""
        return f"{self.lhs} {lq}{self.op}{rq} {self.rhs}"


@dataclass(frozen=True)
class SchemaCond(Cond):
    """``A subclassOf B`` / ``A instanceOf B`` — schema browsing (§3.1).

    ``subclassOf`` is strict: ``Cl subclassOf Cl`` is always false.
    """

    kind: str  # 'subclassOf' | 'instanceOf'
    left: Term
    right: Term

    def __str__(self) -> str:
        return f"{self.left} {self.kind} {self.right}"


@dataclass(frozen=True)
class NotCond(Cond):
    item: Cond

    def __str__(self) -> str:
        return f"not ({self.item})"


@dataclass(frozen=True)
class AndCond(Cond):
    items: Tuple[Cond, ...]

    def __str__(self) -> str:
        return " and ".join(f"({c})" for c in self.items)


@dataclass(frozen=True)
class OrCond(Cond):
    items: Tuple[Cond, ...]

    def __str__(self) -> str:
        return " or ".join(f"({c})" for c in self.items)


@dataclass(frozen=True)
class UpdateCond(Cond):
    """A nested ``UPDATE CLASS`` clause used as a conjunct (§5).

    "An UPDATE clause evaluates to true if and only if the update was
    successful.  We also assume that the conjuncts in the WHERE clause are
    evaluated in the left-to-right manner."
    """

    update: "UpdateClass"

    def __str__(self) -> str:
        return f"({self.update})"


# ----------------------------------------------------------------------
# SELECT items
# ----------------------------------------------------------------------


class SelectItem:
    __slots__ = ()


@dataclass(frozen=True)
class PathItem(SelectItem):
    """``[Attr =] path`` — scalar or set-shaped projection / attribute."""

    path: PathExpr
    name: Optional[str] = None

    def __str__(self) -> str:
        if self.name:
            return f"{self.name} = {self.path}"
        return str(self.path)


@dataclass(frozen=True)
class SetItem(SelectItem):
    """``Attr = {W}`` — group the bindings of W into a set attribute (§4.1)."""

    var: Variable
    name: str

    def __str__(self) -> str:
        return f"{self.name} = {{{self.var}}}"


@dataclass(frozen=True)
class MethodItem(SelectItem):
    """``(Mthd @ args) = value`` — a query-defined method result (§5)."""

    method: Atom
    args: Tuple[object, ...]
    value: Operand

    def __str__(self) -> str:
        inner = ", ".join(str(a) for a in self.args)
        return f"({self.method} @ {inner}) = {self.value}"


@dataclass(frozen=True)
class FromDecl:
    """One ``Class Var`` (or ``#C Var``) binding of the FROM clause."""

    cls: Union[Atom, Variable]
    var: Variable

    def __str__(self) -> str:
        return f"{self.cls} {self.var}"


@dataclass(frozen=True)
class Query:
    """A full SELECT query (§3.4), possibly object-creating (§4.1)."""

    select: Tuple[SelectItem, ...]
    from_: Tuple[FromDecl, ...] = ()
    where: Optional[Cond] = None
    oid_vars: Optional[Tuple[Variable, ...]] = None  # OID FUNCTION OF ...
    oid_scope: Optional[Variable] = None  # OID X (method definitions)

    @property
    def creates_objects(self) -> bool:
        return self.oid_vars is not None

    def __str__(self) -> str:
        parts = ["SELECT " + ", ".join(str(s) for s in self.select)]
        if self.from_:
            parts.append("FROM " + ", ".join(str(f) for f in self.from_))
        if self.oid_vars is not None:
            parts.append(
                "OID FUNCTION OF " + ", ".join(str(v) for v in self.oid_vars)
            )
        if self.oid_scope is not None:
            parts.append(f"OID {self.oid_scope}")
        if self.where is not None:
            parts.append(f"WHERE {self.where}")
        return " ".join(parts)


# ----------------------------------------------------------------------
# statements
# ----------------------------------------------------------------------


class Statement:
    __slots__ = ()


@dataclass(frozen=True)
class SignatureDecl:
    """A textual signature ``M : A1, ..., Ak => R`` in DDL clauses."""

    method: str
    args: Tuple[str, ...]
    result: str
    set_valued: bool

    def __str__(self) -> str:
        arrow = "=>>" if self.set_valued else "=>"
        if self.args:
            return f"{self.method} : {', '.join(self.args)} {arrow} {self.result}"
        return f"{self.method} {arrow} {self.result}"


@dataclass(frozen=True)
class CreateView(Statement):
    """``CREATE VIEW V AS SUBCLASS OF C SIGNATURE ... SELECT ...`` (§4.2)."""

    name: str
    superclass: str
    signatures: Tuple[SignatureDecl, ...]
    query: Query

    def __str__(self) -> str:
        sigs = ", ".join(str(s) for s in self.signatures)
        return (
            f"CREATE VIEW {self.name} AS SUBCLASS OF {self.superclass} "
            f"SIGNATURE {sigs} {self.query}"
        )


@dataclass(frozen=True)
class CreateClass(Statement):
    """``CREATE CLASS C [AS SUBCLASS OF C1, ...] [SIGNATURE ...]``.

    Not spelled out in the paper (schemas there pre-exist), but required to
    build schemas in the same language; signatures follow §2 syntax.
    """

    name: str
    superclasses: Tuple[str, ...] = ()
    signatures: Tuple[SignatureDecl, ...] = ()

    def __str__(self) -> str:
        text = f"CREATE CLASS {self.name}"
        if self.superclasses:
            text += " AS SUBCLASS OF " + ", ".join(self.superclasses)
        if self.signatures:
            text += " SIGNATURE " + ", ".join(str(s) for s in self.signatures)
        return text


@dataclass(frozen=True)
class AlterClass(Statement):
    """``ALTER CLASS C ADD SIGNATURE sig SELECT ...`` (§5, query (12))."""

    cls: str
    signature: SignatureDecl
    query: Query

    def __str__(self) -> str:
        return (
            f"ALTER CLASS {self.cls} ADD SIGNATURE {self.signature} "
            f"{self.query}"
        )


@dataclass(frozen=True)
class UpdateClass(Statement):
    """``UPDATE CLASS C SET path = expr [, ...]`` (§5)."""

    cls: str
    assignments: Tuple[Tuple[PathExpr, Operand], ...]

    def __str__(self) -> str:
        sets = ", ".join(f"{p} = {e}" for p, e in self.assignments)
        return f"UPDATE CLASS {self.cls} SET {sets}"


@dataclass(frozen=True)
class CreateRelation(Statement):
    """``CREATE RELATION R (c1, ..., cn)`` — a first-class relation (§2).

    The paper argues for "having relations as first-class language
    constructs" partly for "upward compatibility with the standard,
    relational SQL"; this and :class:`InsertInto` provide the DDL/DML for
    them.
    """

    name: str
    columns: Tuple[str, ...]

    def __str__(self) -> str:
        return f"CREATE RELATION {self.name} ({', '.join(self.columns)})"


@dataclass(frozen=True)
class InsertInto(Statement):
    """``INSERT INTO R query`` or ``INSERT INTO R VALUES (...), ...``."""

    name: str
    query: Optional["Query"] = None
    rows: Tuple[Tuple[Oid, ...], ...] = ()

    def __str__(self) -> str:
        if self.query is not None:
            return f"INSERT INTO {self.name} {self.query}"
        rendered = ", ".join(
            "(" + ", ".join(str(v) for v in row) + ")" for row in self.rows
        )
        return f"INSERT INTO {self.name} VALUES {rendered}"


@dataclass(frozen=True)
class QueryOp(Statement):
    """``query UNION|MINUS|INTERSECT query`` over result relations (§3.3)."""

    op: str
    left: Union[Query, "QueryOp"]
    right: Union[Query, "QueryOp"]

    def __str__(self) -> str:
        # No parentheses: the grammar associates UNION/MINUS/INTERSECT
        # left-to-right, so the flat rendering re-parses to the same tree.
        return f"{self.left} {self.op.upper()} {self.right}"


# ----------------------------------------------------------------------
# free-variable analysis
# ----------------------------------------------------------------------


def _selector_vars(node: object) -> Iterator[Variable]:
    if isinstance(node, Variable):
        yield node
    elif isinstance(node, App):
        for arg in node.args:
            yield from _selector_vars(arg)
    elif isinstance(node, PathExpr):
        yield from path_variables(node)


def path_variables(path: PathExpr) -> Iterator[Variable]:
    """All variables of a path expression, head to tail, with repeats."""
    yield from _selector_vars(path.head)
    for step in path.steps:
        if isinstance(step.method_expr.method, Variable):
            yield step.method_expr.method
        for arg in step.method_expr.args:
            yield from _selector_vars(arg)
        if step.selector is not None:
            yield from _selector_vars(step.selector)


def operand_variables(operand: Operand) -> Iterator[Variable]:
    if isinstance(operand, PathOperand):
        yield from path_variables(operand.path)
    elif isinstance(operand, AggOperand):
        yield from path_variables(operand.path)
    elif isinstance(operand, (SetOpOperand, ArithOperand)):
        yield from operand_variables(operand.left)
        yield from operand_variables(operand.right)
    elif isinstance(operand, SubQueryOperand):
        yield from free_variables(operand.query)
    # SetLitOperand has no variables (literals only)


def compared_variables(operand: Operand) -> Iterator[Variable]:
    """The variables a comparison enumerates in *operand*: all of its
    variables except a subquery's, which are local to it (a subquery is
    correlated through the binding instead)."""
    if isinstance(operand, (PathOperand, AggOperand)):
        yield from path_variables(operand.path)
    elif isinstance(operand, (SetOpOperand, ArithOperand)):
        yield from compared_variables(operand.left)
        yield from compared_variables(operand.right)


def cond_variables(cond: Cond) -> Iterator[Variable]:
    if isinstance(cond, PathCond):
        yield from path_variables(cond.path)
    elif isinstance(cond, Comparison):
        yield from operand_variables(cond.lhs)
        yield from operand_variables(cond.rhs)
    elif isinstance(cond, SchemaCond):
        yield from _selector_vars(cond.left)
        yield from _selector_vars(cond.right)
    elif isinstance(cond, NotCond):
        yield from cond_variables(cond.item)
    elif isinstance(cond, (AndCond, OrCond)):
        for item in cond.items:
            yield from cond_variables(item)
    elif isinstance(cond, UpdateCond):
        for path, expr in cond.update.assignments:
            yield from path_variables(path)
            yield from operand_variables(expr)


def free_variables(query: Query) -> Iterator[Variable]:
    """All variables mentioned anywhere in *query* (with repeats)."""
    for item in query.select:
        if isinstance(item, PathItem):
            yield from path_variables(item.path)
        elif isinstance(item, SetItem):
            yield item.var
        elif isinstance(item, MethodItem):
            for arg in item.args:
                yield from _selector_vars(arg)
            yield from operand_variables(item.value)
    for decl in query.from_:
        if isinstance(decl.cls, Variable):
            yield decl.cls
        yield decl.var
    if query.oid_vars:
        yield from query.oid_vars
    if query.oid_scope is not None:
        yield query.oid_scope
    if query.where is not None:
        yield from cond_variables(query.where)
