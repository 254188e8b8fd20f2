"""Views: virtual classes defined by creating queries (paper §4.2).

``CREATE VIEW V AS SUBCLASS OF C SIGNATURE ... SELECT ... OID FUNCTION OF
...`` declares a new class, installs the signatures, and materializes one
object ``V(args)`` per group of the defining query.  "Views are constructed
via queries, which is simpler and more uniform than in other proposals";
because the view's objects carry id-function oids, views and non-views can
appear in one query (query (10)), and view updates can be translated to
base updates when view objects are in one-to-one correspondence with
objects of a base class.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from repro.datamodel.store import ObjectStore
from repro.errors import NonUpdatableViewError, ViewError
from repro.oid import Atom, FuncOid, Oid
from repro.views.creation import (
    CreationOutcome,
    Derivation,
    execute_creation,
    materialize_group,
)
from repro.views.id_functions import IdFunctionRegistry
from repro.views.maintenance import (
    ViewMaintenance,
    ViewState,
    derive_read_sets,
    group_support,
)
from repro.xsql import ast
from repro.xsql.evaluator import Evaluator

__all__ = ["ViewDef", "ViewManager"]


@dataclass
class ViewDef:
    """A registered view: its statement plus the latest materialization."""

    name: str
    superclass: str
    query: ast.Query
    signatures: Tuple[ast.SignatureDecl, ...]
    outcome: CreationOutcome


class ViewManager:
    """Owns view definitions, materialization, refresh, and updates."""

    def __init__(
        self, store: ObjectStore, registry: IdFunctionRegistry
    ) -> None:
        self._store = store
        self._registry = registry
        self._views: Dict[str, ViewDef] = {}
        #: Per-view incremental-maintenance bookkeeping; the observer is
        #: attached to the store's write seam on the first create_view.
        self._states: Dict[str, ViewState] = {}
        self._observer = ViewMaintenance(self)
        self._observing = False

    def views(self) -> Dict[str, ViewDef]:
        return dict(self._views)

    def get(self, name: str) -> ViewDef:
        try:
            return self._views[name]
        except KeyError:
            raise ViewError(f"view {name} is not defined")

    # ------------------------------------------------------------------

    def create_view(
        self, statement: ast.CreateView, evaluator: Evaluator
    ) -> ViewDef:
        """Execute a CREATE VIEW statement (declares class + materializes)."""
        if statement.name in self._views:
            raise ViewError(f"view {statement.name} already exists")
        if statement.query.oid_vars is None:
            raise ViewError(
                "a view query must carry an OID FUNCTION OF clause (§4.2)"
            )
        self._store.declare_class(statement.name, [statement.superclass])
        declared: Dict[str, bool] = {}
        for sig in statement.signatures:
            self._store.declare_signature(
                statement.name,
                sig.method,
                sig.result,
                args=sig.args,
                set_valued=sig.set_valued,
            )
            if not sig.args:
                declared[sig.method] = sig.set_valued
        self._observer.muted = True
        try:
            outcome = execute_creation(
                evaluator,
                statement.query,
                functor=statement.name,
                registry=self._registry,
                member_classes=[statement.name],
                declared_set_valued=declared,
            )
        finally:
            self._observer.muted = False
        view = ViewDef(
            name=statement.name,
            superclass=statement.superclass,
            query=statement.query,
            signatures=statement.signatures,
            outcome=outcome,
        )
        self._views[statement.name] = view
        if not self._observing:
            self._store.add_observer(self._observer)
            self._observing = True
        self._register(view, evaluator)
        return view

    def refresh(self, name: str, evaluator: Evaluator) -> ViewDef:
        """Re-materialize a view after base-data changes.

        Views here are materialized with explicit refresh; the paper's
        semantics is state-at-evaluation, so callers refresh after updating
        base objects that feed the view.
        """
        view = self.get(name)
        started = time.perf_counter()
        self._observer.muted = True
        try:
            for oid in self._registry.oids(name):
                self._store.purge_object(oid)
            self._registry.forget(name)
            declared = {
                sig.method: sig.set_valued
                for sig in view.signatures
                if not sig.args
            }
            view.outcome = execute_creation(
                evaluator,
                view.query,
                functor=name,
                registry=self._registry,
                member_classes=[name],
                declared_set_valued=declared,
            )
        finally:
            self._observer.muted = False
        state = self._register(view, evaluator)
        state.last_kind = "refresh"
        state.last_seconds = time.perf_counter() - started
        state.last_groups = len(view.outcome.created)
        return view

    # ------------------------------------------------------------------
    # incremental maintenance (repro.views.maintenance)
    # ------------------------------------------------------------------

    def _register(self, view: ViewDef, evaluator: Evaluator) -> ViewState:
        """(Re)derive a view's read sets and support index; stamp fresh."""
        state = ViewState(
            read=derive_read_sets(view.query, self._store),
            schema=self._store.schema,
        )
        for oid, envs in view.outcome.groups.items():
            self._update_support(
                state, oid, group_support(evaluator.walker, view.query, envs)
            )
        self._states[view.name] = state
        return state

    def pending(self) -> bool:
        """Is any materialized view stale?  Cheap enough for every query."""
        if not self._states:
            return False
        schema = self._store.schema
        return any(
            state.staleness(schema) != "fresh"
            for state in self._states.values()
        )

    def maintenance_status(self) -> Dict[str, Dict[str, object]]:
        """Per-view staleness and last-maintenance cost (REPL ``.views``)."""
        schema = self._store.schema
        return {
            name: {
                "state": state.staleness(schema),
                "objects": len(self._views[name].outcome.created),
                "pending_groups": len(state.pending_groups),
                "last_kind": state.last_kind,
                "last_seconds": state.last_seconds,
                "last_groups": state.last_groups,
            }
            for name, state in self._states.items()
        }

    def sync(self, evaluator: Evaluator) -> List[Dict[str, object]]:
        """Bring every stale view up to date; returns one event per view.

        DDL (the store's schema value is not the one the view stamped)
        rebuilds the view and re-derives its read sets; structural data
        changes re-materialize with the existing read sets; select-only
        deltas re-derive just the pending groups.
        """
        schema = self._store.schema
        events: List[Dict[str, object]] = []
        for name in list(self._views):
            state = self._states.get(name)
            if state is None:
                continue
            staleness = state.staleness(schema)
            if staleness == "fresh":
                continue
            started = time.perf_counter()
            if staleness == "rebuild-pending" or state.structural:
                kind = (
                    "rebuild" if staleness == "rebuild-pending" else "refresh"
                )
                self.refresh(name, evaluator)
                state = self._states[name]
                touched = len(self._views[name].outcome.created)
            else:
                kind = "targeted"
                touched = self._maintain_groups(name, evaluator)
            state.last_kind = kind
            state.last_seconds = time.perf_counter() - started
            state.last_groups = touched
            events.append(
                {
                    "view": name,
                    "kind": kind,
                    "groups": touched,
                    "seconds": state.last_seconds,
                }
            )
        return events

    def _maintain_groups(self, name: str, evaluator: Evaluator) -> int:
        """Re-derive only the pending groups of one view (O(delta))."""
        view = self._views[name]
        state = self._states[name]
        declared = {
            sig.method: sig.set_valued
            for sig in view.signatures
            if not sig.args
        }
        self._observer.muted = True
        try:
            for oid in sorted(state.pending_groups, key=str):
                envs = view.outcome.groups.get(oid)
                if envs is None:
                    continue
                materialize_group(
                    evaluator, view.query, oid, envs, declared, view.outcome
                )
                self._update_support(
                    state,
                    oid,
                    group_support(evaluator.walker, view.query, envs),
                )
        finally:
            self._observer.muted = False
        touched = len(state.pending_groups)
        state.pending_groups = set()
        return touched

    @staticmethod
    def _update_support(
        state: ViewState, oid: FuncOid, fresh: Set[Oid]
    ) -> None:
        """Replace one group's slice of the owner→groups support index.

        O(|old owners| + |fresh owners|) through ``group_owners``.
        """
        support = state.support
        old = state.group_owners.pop(oid, set())
        for owner in old - fresh:
            groups = support[owner]
            groups.discard(oid)
            if not groups:
                del support[owner]
        for owner in fresh - old:
            support.setdefault(owner, set()).add(oid)
        if fresh:
            state.group_owners[oid] = fresh

    # -- write-event classification (called by ViewMaintenance) ---------

    def _closure_hits(self, cls: Atom, classes: Set[Atom]) -> bool:
        hierarchy = self._store.hierarchy
        return any(
            cls == c
            or (cls in hierarchy and hierarchy.is_subclass(cls, c))
            for c in classes
        )

    def _on_cell(self, owner: Oid, method: Atom) -> None:
        for state in self._states.values():
            read = state.read
            if (
                read.method_wildcard
                or read.literal_domain
                or method in read.where_methods
            ):
                state.structural = True
            elif method in read.select_methods:
                if self._store.catalogue.is_class(owner):
                    # Class-level default cells feed instances through
                    # behavioral inheritance — owners we cannot localize.
                    state.structural = True
                else:
                    groups = state.support.get(owner)
                    if groups:
                        state.pending_groups |= groups
                    # Owners outside the support set cannot feed the
                    # view (see the module docstring's soundness note).

    def _on_membership(self, cls: Atom, obj: Oid) -> None:
        for state in self._states.values():
            if state.read.class_wildcard or self._closure_hits(
                cls, state.read.classes
            ):
                state.structural = True

    def _on_object(self, obj: Oid) -> None:
        """An object was created or purged."""
        for state in self._states.values():
            read = state.read
            if (
                read.class_wildcard
                or read.literal_domain
                or obj in state.support
            ):
                state.structural = True

    def _on_relation(self, name: str) -> None:
        """A tuple was inserted into, or a declaration replaced, *name*.

        A tuple's values also join the known set, which a literal-class
        FROM ranges over.
        """
        for state in self._states.values():
            read = state.read
            if (
                name in read.relations
                or read.class_wildcard
                or read.method_wildcard
                or read.literal_domain
            ):
                state.structural = True

    # ------------------------------------------------------------------
    # view updates (§4.2)
    # ------------------------------------------------------------------

    def base_derivation(self, name: str, oid: FuncOid, attr: str) -> Derivation:
        """The base object/method a view attribute was derived from."""
        view = self.get(name)
        derivation = view.outcome.derivations.get((oid, attr))
        if derivation is None:
            raise NonUpdatableViewError(
                f"attribute {attr} of {oid} has no unambiguous base "
                f"derivation; the §4.2 one-to-one condition fails"
            )
        return derivation

    def update_through_view(
        self,
        name: str,
        attr: str,
        new_values: Dict[FuncOid, Oid],
        evaluator: Evaluator,
        refresh: bool = True,
    ) -> int:
        """Translate view-object updates into base-database updates.

        ``new_values`` maps view oids to the new value of *attr*.  Each
        view object must have an unambiguous derivation for *attr* (the
        one-to-one correspondence of §4.2); the base attribute is updated
        and the view re-materialized.  Returns the number of base updates.
        """
        view = self.get(name)
        updates: List[Tuple[Derivation, Oid]] = []
        for oid, value in new_values.items():
            if oid not in view.outcome.created:
                raise NonUpdatableViewError(
                    f"{oid} is not an object of view {name}"
                )
            updates.append((self.base_derivation(name, oid, attr), value))
        # Detect write-write conflicts before applying anything: two view
        # objects mapping to one base cell with different values would be
        # the view-level analogue of an ill-defined query.
        seen: Dict[Tuple[Oid, Atom, Tuple[Oid, ...]], Oid] = {}
        for derivation, value in updates:
            key = (derivation.target, derivation.method, derivation.args)
            if key in seen and seen[key] != value:
                raise NonUpdatableViewError(
                    f"conflicting updates reach base attribute "
                    f"{derivation.method} of {derivation.target}"
                )
            seen[key] = value
        for derivation, value in updates:
            self._store.set_attr(
                derivation.target, derivation.method, value, derivation.args
            )
        if refresh:
            self.refresh(name, evaluator)
        return len(updates)
