"""Behavioral inheritance with overriding and explicit conflict resolution.

Paper §2 ("Inheritance") and §6.1: method definitions and default attribute
values defined on a class are inherited by its subclasses and instances; a
redefinition in a subclass *overrides* the inherited one.  When an object
belongs to incomparable superclasses that each define the method, the paper
adapts Meyer's approach and requires "the user to resolve inheritance
conflicts explicitly (i.e., the user should state which definition of M is
inherited in C' as part of the schema definition)".

This module implements the selection of the *defining class* whose
definition an object inherits.  Structural inheritance (signatures) is
separate and handled in :mod:`repro.datamodel.store` — signatures are
"always inherited and never overwritten".
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from repro.datamodel.hierarchy import ClassHierarchy
from repro.errors import InheritanceConflictError
from repro.oid import Atom

__all__ = ["InheritanceResolver"]


class InheritanceResolver:
    """Chooses which class's definition of a method an object inherits."""

    def __init__(self, hierarchy: ClassHierarchy) -> None:
        self._hierarchy = hierarchy
        # (inheriting class, method) -> class whose definition to use
        self._resolutions: Dict[Tuple[Atom, Atom], Atom] = {}

    def clone(self, hierarchy: ClassHierarchy) -> "InheritanceResolver":
        """An independent copy over *hierarchy* (a schema clone's)."""
        copy = InheritanceResolver(hierarchy)
        copy._resolutions = dict(self._resolutions)
        return copy

    def declare_resolution(
        self, inheriting: Atom, method: Atom, use_class: Atom
    ) -> None:
        """Record that instances of *inheriting* take *method* from *use_class*.

        This is the schema-level conflict resolution of §6.1.  The chosen
        class must be a (non-strict) superclass of the inheriting class.
        """
        if not self._hierarchy.is_subclass(inheriting, use_class, strict=False):
            raise InheritanceConflictError(
                f"cannot resolve {method} for {inheriting} from "
                f"{use_class}: not a superclass"
            )
        self._resolutions[(inheriting, method)] = use_class

    def resolution_for(
        self, member_classes: Iterable[Atom], method: Atom
    ) -> Optional[Atom]:
        for cls in member_classes:
            resolved = self._resolutions.get((cls, method))
            if resolved is not None:
                return resolved
        return None

    # ------------------------------------------------------------------

    def candidate_classes(
        self,
        member_classes: Iterable[Atom],
        defining_classes: Iterable[Atom],
    ) -> List[Atom]:
        """Most-specific classes whose definition reaches the object.

        A defining class *D* reaches an object iff the object belongs to a
        class that is a (non-strict) subclass of *D*.  Among reaching
        classes, a definition in a subclass overrides one in a superclass,
        so only minimal (most specific) classes remain.
        """
        members: Set[Atom] = set(member_classes)
        reaching = [
            d
            for d in set(defining_classes)
            if any(
                self._hierarchy.is_subclass(c, d, strict=False)
                for c in members
            )
        ]
        minimal = [
            d
            for d in reaching
            if not any(
                other != d and self._hierarchy.is_subclass(other, d)
                for other in reaching
            )
        ]
        return sorted(minimal, key=lambda a: a.name)

    def select(
        self,
        obj_description: str,
        member_classes: FrozenSet[Atom],
        method: Atom,
        defining_classes: Iterable[Atom],
    ) -> Optional[Atom]:
        """Pick the single class whose definition of *method* is inherited.

        Returns ``None`` when no definition reaches the object (the method
        is simply not defined there).  Raises
        :class:`InheritanceConflictError` for an unresolved multiple-
        inheritance conflict.
        """
        candidates = self.candidate_classes(member_classes, defining_classes)
        if not candidates:
            return None
        if len(candidates) == 1:
            return candidates[0]
        resolved = self.resolution_for(member_classes, method)
        if resolved is not None and resolved in candidates:
            return resolved
        # A resolution declared on a superclass of a candidate also counts:
        # e.g. resolving workstudy's `earns` to employee picks the employee
        # definition even if the candidate list was computed from subclasses.
        if resolved is not None:
            for candidate in candidates:
                if self._hierarchy.is_subclass(candidate, resolved, strict=False):
                    return candidate
        raise InheritanceConflictError(
            f"{obj_description} inherits {method} from incomparable classes "
            f"{', '.join(str(c) for c in candidates)}; declare an explicit "
            f"resolution (Meyer-style, paper §6.1)"
        )
