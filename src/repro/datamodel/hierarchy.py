"""The IS-A class hierarchy: an acyclic graph of class-objects (paper §2).

Classes are objects, so the hierarchy stores :class:`~repro.oid.Atom` nodes.
The subclass relationship is *strict* in queries (``Cl subclassOf Cl`` is
always false, §3.1), but many internal operations need the reflexive
closure, so both flavours are provided.

The hierarchy also answers the schema-level questions the type system needs
(§6.2): whether a set of classes can have a common instance (range
emptiness) and whether every member of a range must be an instance of a
given class (the subrange test).
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, Iterator, List, Set, Tuple

from repro.errors import CyclicHierarchyError, SchemaError, UnknownClassError
from repro.oid import Atom

__all__ = ["ClassHierarchy", "OBJECT_CLASS"]

#: The root class: "the class containing all individual objects as its
#: instances" (paper §3.1, footnote 15).
OBJECT_CLASS = Atom("Object")


class ClassHierarchy:
    """A mutable, always-acyclic IS-A graph over class atoms.

    Every declared class is implicitly a (possibly indirect) subclass of
    ``Object`` unless it is one of the meta-classes that organize the
    catalogue itself; those are handled by
    :mod:`repro.datamodel.catalogue`.
    """

    def __init__(self) -> None:
        self._parents: Dict[Atom, Set[Atom]] = {OBJECT_CLASS: set()}
        self._children: Dict[Atom, Set[Atom]] = {OBJECT_CLASS: set()}
        # Closure memos — membership tests run on every method invocation
        # and every FROM binding, so the transitive closures are cached
        # and invalidated whenever an edge is added.
        self._super_cache: Dict[Atom, FrozenSet[Atom]] = {}
        self._sub_cache: Dict[Atom, FrozenSet[Atom]] = {}

    # ------------------------------------------------------------------
    # declaration
    # ------------------------------------------------------------------

    def add_class(self, cls: Atom, parents: Iterable[Atom] = ()) -> None:
        """Declare *cls*, optionally as a subclass of each of *parents*.

        A class declared with no parents becomes a direct subclass of
        ``Object``.  Re-declaring an existing class only adds edges.
        """
        if not isinstance(cls, Atom):
            raise SchemaError(f"class name must be an Atom, got {cls!r}")
        if cls not in self._parents:
            self._parents[cls] = set()
            self._children[cls] = set()
        parent_list = list(parents)
        if not parent_list and cls != OBJECT_CLASS:
            parent_list = [OBJECT_CLASS]
        for parent in parent_list:
            self.add_edge(cls, parent)

    def add_edge(self, sub: Atom, sup: Atom) -> None:
        """Record that *sub* IS-A *sup*, rejecting cycles."""
        if sup in self._parents.get(sub, ()):
            return
        for cls in (sub, sup):
            if cls not in self._parents:
                self._parents[cls] = set()
                self._children[cls] = set()
                if cls != OBJECT_CLASS:
                    self._parents[cls].add(OBJECT_CLASS)
                    self._children[OBJECT_CLASS].add(cls)
        if sub == sup:
            raise CyclicHierarchyError(f"{sub} cannot be a subclass of itself")
        if self.is_subclass(sup, sub, strict=False):
            raise CyclicHierarchyError(
                f"edge {sub} IS-A {sup} would create a cycle"
            )
        self._parents[sub].add(sup)
        self._children[sup].add(sub)
        self._super_cache.clear()
        self._sub_cache.clear()

    def clone(self) -> "ClassHierarchy":
        """An independent copy of the graph, closure memos included."""
        copy = ClassHierarchy()
        copy._parents = {cls: set(sups) for cls, sups in self._parents.items()}
        copy._children = {
            cls: set(subs) for cls, subs in self._children.items()
        }
        copy._super_cache = dict(self._super_cache)
        copy._sub_cache = dict(self._sub_cache)
        return copy

    # ------------------------------------------------------------------
    # membership & traversal
    # ------------------------------------------------------------------

    def __contains__(self, cls: Atom) -> bool:
        return cls in self._parents

    def __iter__(self) -> Iterator[Atom]:
        return iter(self._parents)

    def __len__(self) -> int:
        return len(self._parents)

    def require(self, cls: Atom) -> None:
        """Raise :class:`UnknownClassError` unless *cls* is declared."""
        if cls not in self._parents:
            raise UnknownClassError(f"class {cls} is not declared")

    def classes(self) -> List[Atom]:
        """All declared classes, in a deterministic order."""
        return sorted(self._parents, key=lambda a: a.name)

    def direct_superclasses(self, cls: Atom) -> FrozenSet[Atom]:
        self.require(cls)
        return frozenset(self._parents[cls])

    def declared_parents(self, cls: Atom) -> List[Atom]:
        """The parent list that re-declares *cls* with the same edges.

        ``Object`` is left out only when it is the sole parent, which
        :meth:`add_class` implies; an ``Object`` edge beside other
        parents is kept, because re-declaring a class never drops one.
        """
        parents = self.direct_superclasses(cls)
        if parents == {OBJECT_CLASS}:
            return []
        return sorted(parents, key=lambda a: a.name)

    def direct_subclasses(self, cls: Atom) -> FrozenSet[Atom]:
        self.require(cls)
        return frozenset(self._children[cls])

    def superclasses(self, cls: Atom, strict: bool = True) -> FrozenSet[Atom]:
        """All (transitive) superclasses of *cls* (memoized)."""
        cached = self._super_cache.get(cls)
        if cached is None:
            self.require(cls)
            seen: Set[Atom] = set()
            stack = list(self._parents[cls])
            while stack:
                node = stack.pop()
                if node in seen:
                    continue
                seen.add(node)
                stack.extend(self._parents[node])
            cached = frozenset(seen)
            self._super_cache[cls] = cached
        if not strict:
            return cached | {cls}
        return cached

    def subclasses(self, cls: Atom, strict: bool = True) -> FrozenSet[Atom]:
        """All (transitive) subclasses of *cls* (memoized)."""
        cached = self._sub_cache.get(cls)
        if cached is None:
            self.require(cls)
            seen: Set[Atom] = set()
            stack = list(self._children[cls])
            while stack:
                node = stack.pop()
                if node in seen:
                    continue
                seen.add(node)
                stack.extend(self._children[node])
            cached = frozenset(seen)
            self._sub_cache[cls] = cached
        if not strict:
            return cached | {cls}
        return cached

    def is_subclass(self, sub: Atom, sup: Atom, strict: bool = True) -> bool:
        """The ``subclassOf`` predicate.

        With ``strict=True`` this is the query-level relation of §3.1
        (irreflexive); with ``strict=False`` it is the reflexive closure
        used in typing (§6.1 allows "possibly nonstrict" subclasses).
        """
        if sub == sup:
            return not strict
        if sub not in self._parents or sup not in self._parents:
            return False
        return sup in self.superclasses(sub)

    # ------------------------------------------------------------------
    # linearization for behavioral inheritance
    # ------------------------------------------------------------------

    def specificity_order(self, classes: Iterable[Atom]) -> List[Atom]:
        """Sort *classes* most-specific first (subclasses before supers).

        Incomparable classes are ordered by name for determinism; callers
        that care about genuine ambiguity (multiple inheritance of method
        definitions) must detect it themselves — see
        :mod:`repro.datamodel.inheritance`.
        """
        items = list(dict.fromkeys(classes))
        result: List[Atom] = []
        remaining = set(items)
        while remaining:
            # A class is minimal if no *other remaining* class is below it.
            layer = sorted(
                (
                    c
                    for c in remaining
                    if not any(
                        self.is_subclass(other, c)
                        for other in remaining
                        if other != c
                    )
                ),
                key=lambda a: a.name,
            )
            if not layer:  # pragma: no cover - impossible in a DAG
                layer = sorted(remaining, key=lambda a: a.name)
            result.extend(layer)
            remaining.difference_update(layer)
        return result

    # ------------------------------------------------------------------
    # range reasoning for the type system (§6.2)
    # ------------------------------------------------------------------

    def common_descendants(
        self, classes: Iterable[Atom]
    ) -> FrozenSet[Atom]:
        """Classes that are (non-strict) subclasses of every given class."""
        class_list = list(classes)
        if not class_list:
            return frozenset(self._parents)
        common = self.subclasses(class_list[0], strict=False)
        for cls in class_list[1:]:
            common &= self.subclasses(cls, strict=False)
        return common

    def potentially_joint(self, classes: Iterable[Atom]) -> bool:
        """Could *some* oid be an instance of every class in *classes*?

        The paper assumes "schema definition provides sufficient information
        for determining whether A(X) is empty" (§6.2).  Our schema-level
        criterion: a common instance is possible iff the classes share a
        common (non-strict) descendant class — e.g. ``{Person, Employee}``
        share ``Employee`` while ``{Person, Company}`` share nothing, so the
        latter range is empty.
        """
        return bool(self.common_descendants(classes))

    def topological(self) -> List[Atom]:
        """All classes, superclasses before subclasses (stable order)."""
        indegree = {c: len(self._parents[c]) for c in self._parents}
        frontier = sorted(
            (c for c, d in indegree.items() if d == 0), key=lambda a: a.name
        )
        order: List[Atom] = []
        while frontier:
            node = frontier.pop(0)
            order.append(node)
            added: List[Atom] = []
            for child in self._children[node]:
                indegree[child] -= 1
                if indegree[child] == 0:
                    added.append(child)
            frontier.extend(sorted(added, key=lambda a: a.name))
            frontier.sort(key=lambda a: a.name)
        return order

    def edges(self) -> List[Tuple[Atom, Atom]]:
        """All direct (sub, sup) edges, deterministically ordered."""
        return sorted(
            (
                (sub, sup)
                for sub, sups in self._parents.items()
                for sup in sups
            ),
            key=lambda pair: (pair[0].name, pair[1].name),
        )
