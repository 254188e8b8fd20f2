"""The system catalogue, realized as ordinary classes (paper §2).

The paper stresses that the user "needs not know anything about the system
tables that store schema information": schema is queried with the same
language as data because classes and methods are themselves objects.  "In
practice, it is useful to distinguish attribute names from other objects by
placing them in a subdomain of the domain of all objects ... This can be
handily achieved by making the system catalogue part of the class
hierarchy."

This module defines the built-in classes and the sort bookkeeping that
divides the space of all objects into three subdomains: individual-objects,
class-objects, and method-objects.  The universe of class-objects is
disjoint from the other two (§2); whether individual- and method-objects are
disjoint is configurable (``strict_method_namespace``), matching the paper's
"we may or may not require the universes ... to be disjoint".
"""

from __future__ import annotations

from typing import FrozenSet, Optional, Set

from repro.datamodel.hierarchy import OBJECT_CLASS, ClassHierarchy
from repro.errors import SchemaError
from repro.oid import NIL, Atom, FuncOid, Oid, Value

__all__ = [
    "NUMERAL",
    "STRING",
    "BOOLEAN",
    "NIL_CLASS",
    "BUILTIN_CLASSES",
    "Catalogue",
]

NUMERAL = Atom("Numeral")
STRING = Atom("String")
BOOLEAN = Atom("Boolean")
NIL_CLASS = Atom("Nil")

#: Classes present in every store, all direct subclasses of ``Object``.
BUILTIN_CLASSES = (NUMERAL, STRING, BOOLEAN, NIL_CLASS)


class Catalogue:
    """Sort bookkeeping for the three object subdomains.

    The catalogue answers "is this atom a class?", "is this atom a method?"
    and classifies literal objects into the built-in classes.  It does not
    store attribute values — that is the object store's job — but it *is*
    what makes schema browsing possible: method variables range over the
    method-objects recorded here, class variables over the class-objects of
    the hierarchy.
    """

    def __init__(
        self,
        hierarchy: ClassHierarchy,
        strict_method_namespace: bool = False,
    ) -> None:
        self.hierarchy = hierarchy
        self.strict_method_namespace = strict_method_namespace
        self._methods: Set[Atom] = set()
        for builtin in BUILTIN_CLASSES:
            hierarchy.add_class(builtin, [OBJECT_CLASS])

    def clone(self, hierarchy: ClassHierarchy) -> "Catalogue":
        """An independent copy over *hierarchy* (a schema clone's)."""
        copy = Catalogue(
            hierarchy, strict_method_namespace=self.strict_method_namespace
        )
        copy._methods = set(self._methods)
        return copy

    # ------------------------------------------------------------------
    # sorts
    # ------------------------------------------------------------------

    def is_class(self, term: Oid) -> bool:
        return isinstance(term, Atom) and term in self.hierarchy

    def is_method(self, term: Oid) -> bool:
        return isinstance(term, Atom) and term in self._methods

    def register_method(self, method: Atom) -> None:
        """Place *method* in the method-object subdomain.

        With a strict namespace, a method atom may not collide with a class
        atom (class-objects are always disjoint from the rest), and gains
        "a degree of syntactic safety" by also being barred from use as an
        individual; the non-strict default gives users "added flexibility
        in choosing names" (§2).
        """
        if self.is_class(method):
            raise SchemaError(
                f"{method} names a class; class-objects are disjoint from "
                f"method-objects"
            )
        self._methods.add(method)

    def methods(self) -> FrozenSet[Atom]:
        return frozenset(self._methods)

    def check_individual(self, term: Oid) -> None:
        """Validate use of *term* as an individual object id."""
        if self.is_class(term):
            raise SchemaError(
                f"{term} is a class-object and cannot be an individual"
            )
        if self.strict_method_namespace and self.is_method(term):
            raise SchemaError(
                f"{term} is a method-object; the strict namespace forbids "
                f"using it as an individual"
            )

    # ------------------------------------------------------------------
    # literals
    # ------------------------------------------------------------------

    def literal_class(self, term: Oid) -> Optional[Atom]:
        """The built-in class a literal object belongs to, if any."""
        if isinstance(term, Value):
            if isinstance(term.value, bool):
                return BOOLEAN
            if isinstance(term.value, (int, float)):
                return NUMERAL
            return STRING
        if term == NIL:
            return NIL_CLASS
        return None

    def implicit_classes(self, term: Oid) -> FrozenSet[Atom]:
        """Classes *term* belongs to without any explicit instance-of fact.

        Every individual is an instance of ``Object`` (§6.2); literals also
        belong to their built-in class.  Id-function results carry no
        implicit class beyond ``Object`` — views assign theirs explicitly.
        """
        lit = self.literal_class(term)
        if lit is not None:
            return frozenset({lit, OBJECT_CLASS})
        if isinstance(term, (Atom, FuncOid)) and not self.is_class(term):
            return frozenset({OBJECT_CLASS})
        return frozenset()
