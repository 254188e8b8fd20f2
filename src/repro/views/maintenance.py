"""Incremental maintenance of materialized views (§4.2 made live).

A materialized view registers what its defining query *reads*: the FROM
classes (checked against subclass closures at event time), the methods
walked by WHERE conditions, the methods walked by SELECT items, and the
relations referenced through id-term heads.  The
:class:`~repro.datamodel.store.ObjectStore` write path — the same sink
fan-out the storage journal hangs off — feeds every changed fact to a
:class:`ViewMaintenance` observer, which classifies it:

* **irrelevant** — touches nothing the view reads: ignored, the view
  stays fresh;
* **select-only delta** — a cell write to a method only SELECT items
  read, on an object in the view's *support set* (the objects actually
  dereferenced while materializing): only the affected groups are
  re-derived at the next sync, O(delta) instead of O(database);
* **structural** — a WHERE-relevant method write, a membership change
  inside a read class's subclass closure, an object created or purged
  while the view reads it (a supporting object, or any object under a
  class wildcard or a literal-class FROM), or an insert into or
  (re)declaration of a relation the view reads: group membership may
  have changed, so the view re-materializes fully at the next sync.  A
  purge arrives as its parts — one cell delete per cell, one membership
  event per class, then the object event — each classified as above;
* **DDL** — detected by comparing the store's published
  :class:`~repro.datamodel.store.Schema` value against the one stamped
  at the last (re)materialization: the view is rebuilt *and* its read
  sets re-derived.  An index toggle is not DDL: it changes no answer.

Maintenance is *lazy*: the observer only records staleness;
``Session.sync_views()`` (called by the query pipeline before every
statement) performs the actual work, muted so its own writes do not
re-trigger maintenance.  The storage journal still sees every
maintenance write — muting happens at the observer, which sits after
the journal in the sink order — so a maintained view survives
checkpoint and crash recovery.

Soundness of the support set: every object a SELECT hop dereferences is
the tail of some proper prefix of the item's path (the head binding for
the first hop), so the union of prefix-walk tails plus the env-bound
oids covers every object whose *select-only* cell writes can change the
group's derived values.  Writes that change reachability itself travel
through a prefix method — also a SELECT method — whose owner is already
in the support set, and the group's support slice is recomputed after
each targeted re-derivation.  Two deliberate over-approximations stay
conservative: method variables / computed implementations widen to
"every cell write is structural", and a FROM clause over a built-in
literal class (whose extent is the active domain) does the same.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Set

from repro.datamodel.catalogue import BUILTIN_CLASSES
from repro.datamodel.store import Schema
from repro.oid import Atom, FuncOid, Oid, Variable
from repro.xsql import ast

__all__ = [
    "ReadSets",
    "ViewState",
    "ViewMaintenance",
    "derive_read_sets",
    "group_support",
]


@dataclass
class ReadSets:
    """What one view's defining query reads from the store."""

    classes: Set[Atom] = field(default_factory=set)
    where_methods: Set[Atom] = field(default_factory=set)
    select_methods: Set[Atom] = field(default_factory=set)
    relations: Set[str] = field(default_factory=set)
    #: FROM (or ``instanceOf``) ranges over a class variable — any
    #: membership change may matter.
    class_wildcard: bool = False
    #: A method variable or a computed implementation is read — its
    #: dependencies are invisible, so any cell write may matter.
    method_wildcard: bool = False
    #: FROM ranges over a built-in literal class, whose extent is the
    #: active domain: it can grow without any membership event.
    literal_domain: bool = False


@dataclass
class ViewState:
    """Per-view maintenance bookkeeping held by the ViewManager."""

    read: ReadSets
    #: ``store.schema`` at the last (re)materialization; another value
    #: at sync time means DDL happened → full rebuild.  Data deltas
    #: since arrive through the observer as pending groups / structural
    #: flags.
    schema: Schema
    #: owner oid → view oids whose derived values read that owner.
    support: Dict[Oid, Set[FuncOid]] = field(default_factory=dict)
    #: The inverse of ``support``: view oid → the owners it reads, so
    #: re-deriving one group touches only that group's owners.
    group_owners: Dict[FuncOid, Set[Oid]] = field(default_factory=dict)
    pending_groups: Set[FuncOid] = field(default_factory=set)
    structural: bool = False
    last_kind: str = "materialize"
    last_seconds: float = 0.0
    last_groups: int = 0

    def staleness(self, current: Schema) -> str:
        """``fresh`` / ``delta-pending`` / ``rebuild-pending``."""
        if self.schema is not current:
            return "rebuild-pending"
        if self.structural or self.pending_groups:
            return "delta-pending"
        return "fresh"


class ViewMaintenance:
    """The store write observer feeding per-write deltas to the manager.

    Thin by design: every data event forwards to the ViewManager's
    classification handlers unless ``muted`` (set during maintenance
    itself, so re-materialization writes do not mark views stale
    again).  Schema events need no forwarding — the manager compares
    the store's schema value against each view's stamp at sync time
    instead.  A relation (re)declaration is data to a view: it empties
    the relation.
    """

    def __init__(self, manager) -> None:
        self._manager = manager
        self.muted = False

    # -- data events ---------------------------------------------------

    def note_cell(
        self,
        owner,
        method,
        args,
        old_values,
        new_values,
        scalar=False,
        present=True,
    ):
        if not self.muted and old_values != new_values:
            self._manager._on_cell(owner, method)

    def note_membership(self, cls, obj, added):
        if not self.muted:
            self._manager._on_membership(cls, obj)

    def note_object(self, obj, present=True):
        if not self.muted:
            self._manager._on_object(obj)

    def note_tuple(self, name, row):
        if not self.muted:
            self._manager._on_relation(name)

    def note_relation(self, name, column_names):
        if not self.muted:
            self._manager._on_relation(name)

    # -- schema events (covered by the schema stamp) and index toggles,
    # which change no answer --------------------------------------------

    def note_index(self, method, enabled):
        pass

    def note_class(self, cls, parents):
        pass

    def note_signature(self, cls, method, result, args, set_valued):
        pass

    def note_resolution(self, cls, method, use_class):
        pass


# ----------------------------------------------------------------------
# read-set derivation
# ----------------------------------------------------------------------


def derive_read_sets(query: ast.Query, store) -> ReadSets:
    """Classes, methods, and relations the defining query reads.

    Derived from the query's scans and path walks — exactly the
    information the lowered operator tree carries (its extent scans come
    from the FROM declarations, its hash/pointer joins and filters from
    the WHERE paths) — plus the store-dependent widenings: computed
    implementations and literal-class extents.
    """
    read = ReadSets()
    _scan_query(query, read)
    if not read.method_wildcard:
        for method in read.where_methods | read.select_methods:
            if store.implementation_classes(method):
                read.method_wildcard = True
                break
    return read


def _scan_query(query: ast.Query, read: ReadSets) -> None:
    for decl in query.from_:
        if isinstance(decl.cls, Variable):
            read.class_wildcard = True
        else:
            read.classes.add(decl.cls)
            if decl.cls in BUILTIN_CLASSES:
                read.literal_domain = True
    for item in query.select:
        if isinstance(item, ast.PathItem):
            _scan_path(item.path, read.select_methods, read)
        elif isinstance(item, ast.MethodItem):
            read.method_wildcard = True
    if query.where is not None:
        _scan_cond(query.where, read)


def _scan_cond(cond: ast.Cond, read: ReadSets) -> None:
    if isinstance(cond, ast.PathCond):
        _scan_path(cond.path, read.where_methods, read)
    elif isinstance(cond, ast.Comparison):
        _scan_operand(cond.lhs, read)
        _scan_operand(cond.rhs, read)
    elif isinstance(cond, ast.SchemaCond):
        if cond.kind == "instanceOf":
            read.class_wildcard = True
    elif isinstance(cond, ast.NotCond):
        _scan_cond(cond.item, read)
    elif isinstance(cond, (ast.AndCond, ast.OrCond)):
        for item in cond.items:
            _scan_cond(item, read)
    else:
        # UpdateCond or an unknown condition: fully conservative.
        read.class_wildcard = True
        read.method_wildcard = True


def _scan_operand(operand: ast.Operand, read: ReadSets) -> None:
    if isinstance(operand, (ast.PathOperand, ast.AggOperand)):
        _scan_path(operand.path, read.where_methods, read)
    elif isinstance(operand, (ast.SetOpOperand, ast.ArithOperand)):
        _scan_operand(operand.left, read)
        _scan_operand(operand.right, read)
    elif isinstance(operand, ast.SubQueryOperand):
        sub = ReadSets()
        _scan_query(operand.query, sub)
        # Everything a WHERE subquery reads is WHERE-relevant.
        read.classes |= sub.classes
        read.where_methods |= sub.where_methods | sub.select_methods
        read.relations |= sub.relations
        read.class_wildcard |= sub.class_wildcard
        read.method_wildcard |= sub.method_wildcard
        read.literal_domain |= sub.literal_domain


def _scan_path(path: ast.PathExpr, methods: Set[Atom], read: ReadSets) -> None:
    if isinstance(path.head, ast.App):
        read.relations.add(path.head.functor)
    for step in path.steps:
        method = step.method_expr.method
        if isinstance(method, Atom):
            methods.add(method)
        else:
            read.method_wildcard = True
        if isinstance(step.selector, ast.App):
            read.relations.add(step.selector.functor)


# ----------------------------------------------------------------------
# support sets
# ----------------------------------------------------------------------


def group_support(walker, query: ast.Query, envs) -> Set[Oid]:
    """Every object whose cells the group's SELECT items dereference."""
    support: Set[Oid] = set()
    for env in envs:
        for value in env.values():
            if isinstance(value, Oid):
                support.add(value)
        for item in query.select:
            if not isinstance(item, ast.PathItem):
                continue
            path = item.path
            for length in range(len(path.steps)):
                prefix = ast.PathExpr(
                    head=path.head, steps=path.steps[:length]
                )
                for hit in walker.walk(prefix, env):
                    support.add(hit.tail)
    return support
