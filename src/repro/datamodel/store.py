"""The object store: the paper's data model behind one facade (§2).

An :class:`ObjectStore` holds the class hierarchy, the catalogue, declared
signatures, instance-of memberships, explicit attribute/method value cells,
registered method implementations, and first-class relations.  Its most
important operation is :meth:`ObjectStore.invoke`, which resolves a method
invocation the way the paper prescribes:

1. an explicitly stored value on the object itself wins;
2. otherwise the value is *behaviorally inherited* from the most specific
   class that carries a default value, with Meyer-style explicit resolution
   of multiple-inheritance conflicts;
3. otherwise a registered *implementation* (native or query-defined) is
   selected by the same inheritance rules and invoked.

An empty result means the method is *undefined* for those arguments (the
OODB analogue of null); whether it is also *inapplicable* is a question for
the type system (:mod:`repro.typing`), not the store — matching the paper's
treatment of typing as a metalogical notion (§6.2).

Every write has one shape: a public mutator checks all of its inputs,
then opens one :meth:`ObjectStore._mutation` — one ticket, one journal
batch — and changes facts only through the two write primitives,
:meth:`ObjectStore._put_cell` for a cell and
:meth:`ObjectStore._put_membership` for a class membership.  Each
primitive chains the pre-image for pinned snapshots, swaps the fact,
and then tells the inverted indexes, the statistics and every sink, so
those can never disagree with the records.  A cell write that would
store the cell already stored changes nothing, so it returns after its
checks and moves nothing: no ticket, no batch, no chain entry.
"""

from __future__ import annotations

from contextlib import nullcontext
from typing import (
    AbstractSet,
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

from repro.datamodel.catalogue import BUILTIN_CLASSES, Catalogue
from repro.datamodel.hierarchy import OBJECT_CLASS, ClassHierarchy
from repro.datamodel.indexes import AttributeIndexes
from repro.datamodel.inheritance import InheritanceResolver
from repro.datamodel.methods import MethodImplementation
from repro.datamodel.objects import Cell, ObjectRecord, ScalarCell, SetCell
from repro.datamodel.relations import StoredRelation
from repro.datamodel.signatures import Signature, TypeExpr
from repro.datamodel.statistics import MethodStats, StatisticsCatalogue
from repro.errors import (
    ArityError,
    SchemaError,
    SignatureError,
    UnknownClassError,
)
from repro.oid import Atom, FuncOid, Oid, Value, oid as as_oid

__all__ = ["ObjectStore", "Schema"]

ClassLike = Union[Atom, str]
OidLike = Union[Oid, int, float, str, bool]
#: ``owner -> (values, set-valued)`` of one 0-ary method
#: (:meth:`ObjectStore.cell_reader`).
CellReader = Callable[[Oid], Tuple[FrozenSet[Oid], bool]]


def _atom(name: ClassLike) -> Atom:
    return name if isinstance(name, Atom) else Atom(name)


def _count_individuals(
    known: AbstractSet[Oid], hierarchy: ClassHierarchy
) -> int:
    """How many oids of *known* are not declared classes.

    Iterates the hierarchy, not *known*: a class atom is the only kind of
    known oid that is not an individual (``Catalogue.is_class``).
    """
    return len(known) - len(known.intersection(hierarchy))


#: The write context of a mutation on a store with no journal attached.
_NO_BATCH = nullcontext()

#: Every class ``Catalogue.implicit_classes`` can return.
_IMPLICIT_CLASSES = frozenset(BUILTIN_CLASSES) | {OBJECT_CLASS}


def _unchanged(stored: Cell, cell: Cell) -> bool:
    """Would storing *cell* over the *stored* one change nothing?

    Such a write moves nothing: no ticket, no journal batch, no chain
    entry.  Literals compare by value as oids (``Value(1) ==
    Value(1.0)``), yet storing one over the other changes the stored
    literal, so the payloads must print the same too.
    """
    if stored != cell:
        return False
    return sorted(map(repr, stored.as_set())) == sorted(
        map(repr, cell.as_set())
    )


def _has_implicit_members(
    hierarchy: ClassHierarchy, cls: Atom, direct: bool
) -> bool:
    """Can the extent of *cls* hold members no membership fact records?

    Only when *cls* is ``Object`` or a literal class, or — counting
    subclass instances — a superclass of one (§2).
    """
    if cls in _IMPLICIT_CLASSES:
        return True
    return not direct and any(
        hierarchy.is_subclass(implicit, cls) for implicit in _IMPLICIT_CLASSES
    )


class Schema:
    """The schema as one value: hierarchy, catalogue, resolver, declared
    signatures, method implementations, and the arrow-kind memo derived
    from them.

    XSQL variables range over classes and methods (§3), so the schema is
    data that queries read.  A store publishes a Schema by one assignment
    and never mutates it afterwards: DDL edits a :meth:`clone` and
    publishes the clone (:meth:`ObjectStore._ddl`).  A reference — a
    pin's, a reader's local — therefore always holds one consistent
    schema, and an edit that fails half-way leaves nothing behind.
    """

    __slots__ = (
        "hierarchy", "catalogue", "resolver", "signatures",
        "implementations", "arrow_kinds",
    )

    def __init__(self, strict_method_namespace: bool = False) -> None:
        self.hierarchy = ClassHierarchy()
        self.catalogue = Catalogue(
            self.hierarchy, strict_method_namespace=strict_method_namespace
        )
        self.resolver = InheritanceResolver(self.hierarchy)
        #: class -> method -> [Signature, ...]  (declared, pre-inheritance)
        self.signatures: Dict[Atom, Dict[Atom, List[Signature]]] = {}
        self.implementations: Dict[
            Tuple[Atom, Atom], MethodImplementation
        ] = {}
        #: (method, frozenset-of-direct-classes) -> declared arrow kinds
        #: (set of ``set_valued`` flags).  The write path consults the
        #: schema on every cell write; memoizing the visible kinds per
        #: membership set makes bulk loads (``repro.workloads.scale``)
        #: scale to millions of objects.  A clone starts it empty.
        self.arrow_kinds: Dict[
            Tuple[Atom, FrozenSet[Atom]], FrozenSet[bool]
        ] = {}

    def clone(self) -> "Schema":
        """An independent, unpublished copy for one DDL edit."""
        copy = Schema.__new__(Schema)
        copy.hierarchy = self.hierarchy.clone()
        copy.catalogue = self.catalogue.clone(copy.hierarchy)
        copy.resolver = self.resolver.clone(copy.hierarchy)
        copy.signatures = {
            cls: {method: list(sigs) for method, sigs in per.items()}
            for cls, per in self.signatures.items()
        }
        copy.implementations = dict(self.implementations)
        copy.arrow_kinds = {}
        return copy

    def declared_signatures(
        self, cls: Atom, method: Optional[Atom] = None
    ) -> List[Signature]:
        per_class = self.signatures.get(cls, {})
        if method is None:
            return [s for sigs in per_class.values() for s in sigs]
        return list(per_class.get(method, []))

    def implementation_classes(self, method: Atom) -> List[Atom]:
        return sorted(
            (cls for (cls, name) in self.implementations if name == method),
            key=lambda a: a.name,
        )

    # edits: unpublished clones only

    def add_signature(self, signature: Signature) -> None:
        expr = signature.type_expr
        for cls in (expr.scope, expr.result, *expr.args):
            self.hierarchy.require(cls)
        per_class = self.signatures.setdefault(expr.scope, {})
        existing = per_class.setdefault(signature.method, [])
        if signature not in existing:
            existing.append(signature)
        self.catalogue.register_method(signature.method)

    def add_implementation(
        self, cls: Atom, impl: MethodImplementation
    ) -> None:
        self.hierarchy.require(cls)
        self.implementations[(cls, impl.name)] = impl
        self.catalogue.register_method(impl.name)


class ObjectStore:
    """A complete object-oriented database instance."""

    def __init__(
        self,
        strict_method_namespace: bool = False,
        validate_values: bool = False,
    ) -> None:
        #: The published :class:`Schema`; DDL replaces it, never edits it.
        self.schema = Schema(strict_method_namespace)
        #: When on, stored values must be instances of some declared
        #: result class of the attribute (a conservative schema mode; the
        #: paper's default treats typing as metalogical).
        self.validate_values = validate_values
        self._records: Dict[Oid, ObjectRecord] = {}
        self._memberships: Dict[Oid, Set[Atom]] = {}
        self._direct_extents: Dict[Atom, Set[Oid]] = {}
        self._relations: Dict[str, StoredRelation] = {}
        self._known: Set[Oid] = set()
        #: Opt-in inverted attribute indexes ([BERT89]-style).  Private:
        #: go through :meth:`enable_index` / :meth:`indexed_methods` /
        #: :meth:`lookup_by_value` (or the Session-level wrappers).
        self._indexes = AttributeIndexes()
        #: Incrementally maintained cardinality statistics feeding the
        #: cost-based planner (:mod:`repro.xsql.costplan`).
        self.statistics = StatisticsCatalogue()
        #: Optional persistence listener
        #: (:class:`repro.storage.codec.StoreJournal`).  When attached,
        #: every public mutator commits its codec-encoded KV operations
        #: as one journal batch (:meth:`_mutation`); the default ``None``
        #: keeps the dict store's write path free of any storage
        #: overhead beyond one tuple iteration.
        self._journal = None
        #: Additional write observers (e.g. incremental view
        #: maintenance).  Observers duck-type the journal's ``note_*``
        #: surface; they are notified *after* the journal so durability
        #: always precedes derived-state bookkeeping.
        self._observers: Tuple = ()
        #: The fan-out tuple every mutator iterates: journal first (when
        #: attached), then observers, in registration order.
        self._sinks: Tuple = ()
        #: MVCC bookkeeping: the mutation ticket, snapshot pins, and the
        #: copy-on-write pre-image chains pinned snapshots read through
        #: (:mod:`repro.datamodel.versions`).  Imported lazily — versions
        #: subclasses this class for :class:`StoreView`.
        from repro.datamodel.versions import MvccHistory

        self._history = MvccHistory(self)

    @property
    def hierarchy(self) -> ClassHierarchy:
        return self.schema.hierarchy

    @property
    def catalogue(self) -> Catalogue:
        return self.schema.catalogue

    @property
    def resolver(self) -> InheritanceResolver:
        return self.schema.resolver

    # ------------------------------------------------------------------
    # versions and snapshots (MVCC)
    # ------------------------------------------------------------------

    @property
    def ticket(self) -> int:
        """The mutation ticket: every mutator advances it.

        With the identity of :attr:`schema` it is the store's whole
        version: compiled statements and views are stale iff the schema
        they were built against is not the published one, and cost plans
        and path caches iff the ticket moved.
        """
        return self._history.ticket

    @property
    def write_lock(self):
        """The store-level write lock (reentrant; readers never take it)."""
        return self._history.lock

    def pin(self):
        """Pin the current version; release via the returned pin."""
        return self._history.pin()

    def at(self, pin):
        """A read-only :class:`~repro.datamodel.versions.StoreView` at *pin*."""
        from repro.datamodel.versions import StoreView

        return StoreView(self, pin)

    def snapshot_view(self):
        """Pin the current version and return a view reading at it."""
        return self.at(self.pin())

    def version_status(self) -> Dict[str, int]:
        """Pin and copy-on-write chain statistics (observability)."""
        return self._history.status()

    def restore_version_ticket(self, ticket: int) -> None:
        """Adopt a recovered mutation ticket (checkpoint/WAL replay)."""
        self._history.restore(ticket)

    # ------------------------------------------------------------------
    # write sinks: the persistence journal + write observers
    # ------------------------------------------------------------------

    def _rebuild_sinks(self) -> None:
        journal = (self._journal,) if self._journal is not None else ()
        self._sinks = journal + self._observers

    @property
    def journal(self):
        """The attached persistence journal, or None (dict backend)."""
        return self._journal

    def set_journal(self, journal) -> None:
        """Attach (or with None, detach) the persistence journal.

        The journal must duck-type
        :class:`repro.storage.codec.StoreJournal`; attaching does not
        emit anything by itself — use
        :func:`repro.storage.codec.encode_store` first when the engine
        should mirror already-present state.
        """
        self._journal = journal
        self._rebuild_sinks()

    def add_observer(self, observer) -> None:
        """Attach a write observer (same ``note_*`` surface as the journal).

        Observers see every mutation after the journal does.  Attaching
        is idempotent.
        """
        if observer not in self._observers:
            self._observers = self._observers + (observer,)
            self._rebuild_sinks()

    def remove_observer(self, observer) -> None:
        """Detach a previously attached write observer (idempotent)."""
        if observer in self._observers:
            self._observers = tuple(
                o for o in self._observers if o is not observer
            )
            self._rebuild_sinks()

    def explicit_classes_of(self, oid_like: OidLike) -> FrozenSet[Atom]:
        """Explicit instance-of memberships only (no implicit classes)."""
        return frozenset(self._memberships.get(as_oid(oid_like), set()))

    def _ddl(
        self,
        edit: Callable[[Schema], None],
        known: Iterable[Atom] = (),
        note: Optional[Callable[[object, Schema], None]] = None,
    ) -> Schema:
        """Commit one DDL edit: clone, edit, publish, then advance.

        Under the write lock, *edit* mutates a clone of the published
        schema.  If it raises, the clone is dropped and nothing moves:
        the published schema, the ticket and the sinks never see the
        attempt.  Otherwise the clone is published by one assignment,
        the atoms of *known* join the known set, and
        ``note(sink, schema)`` tells each sink.
        """
        with self._history.lock:
            schema = self.schema.clone()
            edit(schema)
            with self._mutation():
                self.schema = schema
                for atom in known:
                    self._known_add(atom)
                if note is not None:
                    for sink in self._sinks:
                        note(sink, schema)
        return schema

    # ------------------------------------------------------------------
    # schema: classes and signatures
    # ------------------------------------------------------------------

    def declare_class(
        self, name: ClassLike, parents: Iterable[ClassLike] = ()
    ) -> Atom:
        """Declare a class (idempotent), returning its class atom.

        A parent not yet declared is declared with it, as a direct
        subclass of ``Object``, and the sinks see both declarations.
        """
        cls = _atom(name)
        parent_atoms = [_atom(p) for p in parents]
        with self._history.lock:
            hierarchy = self.schema.hierarchy
            declared = [
                p for p in dict.fromkeys(parent_atoms) if p not in hierarchy
            ]
            declared.append(cls)

            def note(sink, schema: Schema) -> None:
                for atom in declared:
                    sink.note_class(
                        atom, schema.hierarchy.declared_parents(atom)
                    )

            self._ddl(
                lambda schema: schema.hierarchy.add_class(cls, parent_atoms),
                known=declared,
                note=note,
            )
        return cls

    def declare_signature(
        self,
        cls: ClassLike,
        method: ClassLike,
        result: ClassLike,
        args: Sequence[ClassLike] = (),
        set_valued: bool = False,
    ) -> Signature:
        """Attach ``method : args => result`` to *cls* (paper §2 "Types").

        Declaring a signature also places the method atom in the
        method-object subdomain of the catalogue, which is what makes it
        visible to schema-browsing queries.
        """
        cls_atom = _atom(cls)
        method_atom = _atom(method)
        result_atom = _atom(result)
        arg_atoms = tuple(_atom(a) for a in args)
        signature = Signature(
            method_atom,
            TypeExpr(cls_atom, arg_atoms, result_atom, set_valued),
        )
        self._ddl(
            lambda schema: schema.add_signature(signature),
            known=(method_atom,),
            note=lambda sink, _schema: sink.note_signature(
                cls_atom, method_atom, result_atom, arg_atoms, set_valued
            ),
        )
        return signature

    def declared_signatures(
        self, cls: ClassLike, method: Optional[ClassLike] = None
    ) -> List[Signature]:
        """Signatures declared *directly* on *cls* (no inheritance)."""
        return self.schema.declared_signatures(
            _atom(cls), None if method is None else _atom(method)
        )

    def signatures_of(
        self, cls: ClassLike, method: Optional[ClassLike] = None
    ) -> List[Signature]:
        """Signatures visible on *cls* under structural inheritance (§6.1).

        "The set of signatures of M in C' consists of all signatures in the
        ancestors of C' and all signatures in the new definitions of M in
        C'" — types are always inherited and never overwritten.
        """
        cls_atom = _atom(cls)
        schema = self.schema
        schema.hierarchy.require(cls_atom)
        method_atom = None if method is None else _atom(method)
        result: List[Signature] = []
        for ancestor in sorted(
            schema.hierarchy.superclasses(cls_atom, strict=False),
            key=lambda a: a.name,
        ):
            result.extend(schema.declared_signatures(ancestor, method_atom))
        return result

    def all_type_exprs(self, method: ClassLike) -> List[TypeExpr]:
        """Every declared type expression of *method*, across all classes."""
        method_atom = _atom(method)
        found: List[TypeExpr] = []
        for per_class in self.schema.signatures.values():
            for signature in per_class.get(method_atom, []):
                if signature.type_expr not in found:
                    found.append(signature.type_expr)
        return found

    def method_names(self) -> FrozenSet[Atom]:
        """All method-objects known to the catalogue."""
        return self.schema.catalogue.methods()

    # ------------------------------------------------------------------
    # instances
    # ------------------------------------------------------------------

    def create_object(
        self, oid_like: OidLike, classes: Iterable[ClassLike] = ()
    ) -> Oid:
        """Register an object and its direct class memberships.

        Atomic: every class is checked before anything moves, so an
        unknown class leaves the ticket, the object and the sinks as
        they were.  The object and all its memberships take one ticket
        and one journal batch.
        """
        obj = as_oid(oid_like)
        cls_atoms = [_atom(cls) for cls in classes]
        with self._history.lock:
            schema = self.schema
            schema.catalogue.check_individual(obj)
            for cls_atom in cls_atoms:
                schema.hierarchy.require(cls_atom)
            with self._mutation():
                self._record(obj)
                self._known_add(obj)
                for cls_atom in cls_atoms:
                    self._put_membership(obj, cls_atom, True)
        return obj

    def add_instance(self, oid_like: OidLike, cls: ClassLike) -> None:
        obj = as_oid(oid_like)
        cls_atom = _atom(cls)
        with self._history.lock:
            schema = self.schema
            schema.hierarchy.require(cls_atom)
            schema.catalogue.check_individual(obj)
            with self._mutation():
                self._put_membership(obj, cls_atom, True)

    def remove_instance(self, oid_like: OidLike, cls: ClassLike) -> None:
        obj = as_oid(oid_like)
        cls_atom = _atom(cls)
        with self._history.lock:
            with self._mutation():
                self._put_membership(obj, cls_atom, False)

    def purge_object(self, oid_like: OidLike) -> None:
        """Remove an object entirely: record, memberships, and extents.

        Used by view refresh (§4.2) to drop stale view objects before
        re-materializing.  Every cell and every membership goes through
        its primitive, so indexes, statistics and sinks see one delete
        per fact; then the object leaves the known set.  References to
        the purged oid stored in other objects' cells are left untouched
        (the paper has no referential-integrity maintenance).
        """
        obj = as_oid(oid_like)
        with self._history.lock:
            with self._mutation():
                record = self._records.get(obj)
                if record is not None:
                    for method, args in list(record.cells):
                        self._put_cell(obj, method, args, None)
                for cls in list(self._memberships.get(obj, ())):
                    self._put_membership(obj, cls, False)
                if self._records.pop(obj, None) is not None:
                    self._history.record_record(obj, True)
                if obj in self._known:
                    self._history.record_known(obj, True)
                    self._known.discard(obj)
                for sink in self._sinks:
                    sink.note_object(obj, present=False)

    def direct_classes_of(self, oid_like: OidLike) -> FrozenSet[Atom]:
        """Explicit instance-of memberships plus implicit literal classes."""
        obj = as_oid(oid_like)
        explicit = frozenset(self._memberships.get(obj, set()))
        return explicit | self.schema.catalogue.implicit_classes(obj)

    def classes_of(self, oid_like: OidLike) -> FrozenSet[Atom]:
        """All classes *obj* belongs to, including inherited memberships.

        If C is a subclass of C', instances of C belong to C' too (§2).
        """
        hierarchy = self.schema.hierarchy
        direct = self.direct_classes_of(oid_like)
        closure: Set[Atom] = set(direct)
        for cls in direct:
            if cls in hierarchy:
                closure |= hierarchy.superclasses(cls)
        return frozenset(closure)

    def is_instance(self, oid_like: OidLike, cls: ClassLike) -> bool:
        return _atom(cls) in self.classes_of(oid_like)

    def extent(
        self, cls: ClassLike, direct: bool = False
    ) -> FrozenSet[Oid]:
        """Instances of *cls* (by default including subclass instances).

        Only ``Object`` and the built-in literal classes (and, counting
        subclass instances, their superclasses) enumerate the active
        domain — every known oid, or the literals the database has
        actually seen, which is what the naive semantics of §3.4 ranges
        over.  Every other class reads its membership facts alone, in
        O(extent) rather than O(store).
        """
        cls_atom = _atom(cls)
        schema = self.schema
        hierarchy = schema.hierarchy
        hierarchy.require(cls_atom)
        members: Set[Oid] = set(self._direct_extent(cls_atom))
        if not direct:
            for sub in hierarchy.subclasses(cls_atom):
                members |= self._direct_extent(sub)
        if _has_implicit_members(hierarchy, cls_atom, direct):
            catalogue = schema.catalogue
            for obj in self._known_oids():
                implicit = catalogue.implicit_classes(obj)
                if cls_atom in implicit or (
                    not direct
                    and any(
                        hierarchy.is_subclass(c, cls_atom) for c in implicit
                    )
                ):
                    members.add(obj)
        return frozenset(members)

    def _direct_extent(self, cls_atom: Atom) -> AbstractSet[Oid]:
        """Explicit members of *cls_atom* alone (read-only)."""
        return self._direct_extents.get(cls_atom, frozenset())

    def _known_oids(self) -> AbstractSet[Oid]:
        """Every known oid, for the active-domain scan (read-only)."""
        return self._known

    # ------------------------------------------------------------------
    # universes (for variable instantiation)
    # ------------------------------------------------------------------

    def known_objects(self) -> FrozenSet[Oid]:
        """Every oid the database has seen anywhere."""
        return frozenset(self._known)

    def individual_universe(self) -> FrozenSet[Oid]:
        """The range of individual variables: all known non-class oids."""
        is_class = self.schema.catalogue.is_class
        return frozenset(
            obj for obj in self._known_oids() if not is_class(obj)
        )

    def individual_count(self) -> int:
        """``len(individual_universe())`` in O(classes), not O(store).

        The cost model sizes the individual sort with this on every
        compile, so it must not walk the known set.
        """
        return _count_individuals(self._known, self.schema.hierarchy)

    def class_universe(self) -> FrozenSet[Atom]:
        """The range of class variables (``#X``)."""
        return frozenset(self.schema.hierarchy.classes())

    def method_universe(self) -> FrozenSet[Atom]:
        """The range of method variables (``"Y``)."""
        schema = self.schema
        names: Set[Atom] = set(schema.catalogue.methods())
        for record in self._records.values():
            names.update(record.defined_methods())
        for _cls, method in schema.implementations:
            names.add(method)
        return frozenset(names)

    # ------------------------------------------------------------------
    # explicit data cells
    # ------------------------------------------------------------------

    def _known_add(self, obj: Oid) -> None:
        """Add *obj* to the known set, chaining the pre-image when pinned.

        Mutator-side counterpart of :meth:`_note_values`: only an actual
        change records a chain entry.
        """
        if obj not in self._known:
            self._history.record_known(obj, False)
            self._known.add(obj)

    def _note_values(self, values: Iterable[Oid]) -> None:
        """Read-path oid discovery (method invocation results).

        Deliberately unchained and ticket-free: invoking a computed
        method during a query must not advance the version or perturb
        snapshot chains.  Snapshot views override this to keep their
        discoveries view-local.
        """
        for value in values:
            self._known.add(value)
            if isinstance(value, FuncOid):
                self._known.update(value.args)

    def _note_values_mutating(self, values: Iterable[Oid]) -> None:
        """Like :meth:`_note_values` but chained — for mutator call sites."""
        for value in values:
            self._known_add(value)
            if isinstance(value, FuncOid):
                for arg in value.args:
                    self._known_add(arg)

    def _check_arrow(
        self, owner: Oid, method: Atom, set_valued: bool
    ) -> None:
        """Reject storing a value whose arrow kind contradicts the schema.

        The declared kinds visible from a membership set are pure schema,
        so they are memoized per ``(method, direct classes)`` — the hot
        path of bulk loads — and only the (rare) contradicting write pays
        the full signature walk to produce its exact error message.
        """
        classes = self.direct_classes_of(owner)
        key = (method, classes)
        schema = self.schema
        kinds = schema.arrow_kinds.get(key)
        if kinds is None:
            kinds = frozenset(
                signature.set_valued
                for cls in classes
                if cls in schema.hierarchy
                for signature in self.signatures_of(cls, method)
            )
            schema.arrow_kinds[key] = kinds
        if kinds <= {set_valued}:
            return
        for cls in classes:
            if cls not in schema.hierarchy:
                continue
            for signature in self.signatures_of(cls, method):
                if signature.set_valued != set_valued:
                    kind = "set-valued" if signature.set_valued else "scalar"
                    raise SignatureError(
                        f"{method} is declared {kind} for {cls}; the stored "
                        f"value on {owner} disagrees"
                    )

    def _check_value_class(self, owner: Oid, method: Atom, value: Oid) -> None:
        """Optional conservative check: the value fits a declared result.

        Active only with ``validate_values=True`` and only when at least
        one signature for *method* is visible on the owner's classes.
        """
        if not self.validate_values:
            return
        hierarchy = self.schema.hierarchy
        results = [
            signature.result
            for cls in self.direct_classes_of(owner)
            if cls in hierarchy
            for signature in self.signatures_of(cls, method)
        ]
        if not results:
            return
        if not any(self.is_instance(value, result) for result in results):
            from repro.errors import ValueTypeError

            expected = ", ".join(sorted({r.name for r in results}))
            raise ValueTypeError(
                f"{value} is not an instance of any declared result class "
                f"of {method} ({expected})"
            )

    def _check_write(
        self,
        owner: Oid,
        method: Atom,
        args: Tuple[Oid, ...],
        set_valued: bool,
        values: Iterable[Oid],
    ) -> Optional[Cell]:
        """Check a cell write before anything moves; return the stored
        cell it replaces.

        The write must agree with the declared arrow kinds, its values
        with the declared result classes (``validate_values``), and its
        kind with the stored cell's: a scalar never overwrites a set
        cell, nor a set a scalar.
        """
        self._check_arrow(owner, method, set_valued)
        for value in values:
            self._check_value_class(owner, method, value)
        record = self._records.get(owner)
        stored = None if record is None else record.cells.get((method, args))
        if stored is not None and stored.set_valued != set_valued:
            held = "a set" if stored.set_valued else "a scalar"
            wanted = "a set" if set_valued else "a scalar"
            raise ArityError(
                f"{method} already holds {held} value on {owner}; cannot "
                f"store {wanted}"
            )
        return stored

    def set_attr(
        self,
        owner: OidLike,
        method: ClassLike,
        value: OidLike,
        args: Sequence[OidLike] = (),
    ) -> None:
        """Store a scalar attribute/method value."""
        owner_oid = as_oid(owner)
        method_atom = _atom(method)
        value_oid = as_oid(value)
        arg_oids = tuple(as_oid(a) for a in args)
        cell = ScalarCell(value_oid)
        with self._history.lock:
            stored = self._check_write(
                owner_oid, method_atom, arg_oids, False, (value_oid,)
            )
            if stored is not None and _unchanged(stored, cell):
                return
            with self._mutation():
                self._put_cell(owner_oid, method_atom, arg_oids, cell)

    def set_attr_set(
        self,
        owner: OidLike,
        method: ClassLike,
        values: Iterable[OidLike],
        args: Sequence[OidLike] = (),
    ) -> None:
        """Store (replace) a set-valued attribute/method value."""
        owner_oid = as_oid(owner)
        method_atom = _atom(method)
        value_oids = frozenset(as_oid(v) for v in values)
        arg_oids = tuple(as_oid(a) for a in args)
        cell = SetCell(value_oids)
        with self._history.lock:
            stored = self._check_write(
                owner_oid, method_atom, arg_oids, True, value_oids
            )
            if stored is not None and _unchanged(stored, cell):
                return
            with self._mutation():
                self._put_cell(owner_oid, method_atom, arg_oids, cell)

    def add_to_set(
        self,
        owner: OidLike,
        method: ClassLike,
        member: OidLike,
        args: Sequence[OidLike] = (),
    ) -> None:
        """Add one member to a set-valued cell (creating it if absent)."""
        owner_oid = as_oid(owner)
        method_atom = _atom(method)
        member_oid = as_oid(member)
        arg_oids = tuple(as_oid(a) for a in args)
        with self._history.lock:
            stored = self._check_write(
                owner_oid, method_atom, arg_oids, True, (member_oid,)
            )
            members = frozenset({member_oid})
            if stored is not None:
                members |= stored.values
            cell = SetCell(members)
            if stored is not None and _unchanged(stored, cell):
                return
            with self._mutation():
                self._put_cell(owner_oid, method_atom, arg_oids, cell)

    def unset_attr(
        self,
        owner: OidLike,
        method: ClassLike,
        args: Sequence[OidLike] = (),
    ) -> None:
        """Make a cell undefined again (the OODB analogue of null)."""
        obj = as_oid(owner)
        method_atom = _atom(method)
        arg_oids = tuple(as_oid(a) for a in args)
        with self._history.lock:
            with self._mutation():
                self._put_cell(obj, method_atom, arg_oids, None)

    # ------------------------------------------------------------------
    # the write path: every public mutator is its checks, then one
    # _mutation() around the primitives below
    # ------------------------------------------------------------------

    def _mutation(self):
        """Advance the ticket once; return the context that groups the
        mutation's sink ops into one journal batch.

        Callers hold the write lock and have checked every input, so a
        rejected write never moves the ticket or reaches a sink.
        """
        self._history.advance()
        journal = self._journal
        return _NO_BATCH if journal is None else journal.batch()

    def _put_cell(
        self,
        owner: Oid,
        method: Atom,
        args: Tuple[Oid, ...],
        cell: Optional[Cell],
    ) -> None:
        """Swap in *cell* (or with None, drop the cell): the only writer
        of record cells.

        Chains the pre-image, swaps, then tells the index, the
        statistics and every sink, and adds what a stored cell mentions
        to the known set.  Runs inside :meth:`_mutation`, after
        :meth:`_check_write` accepted the write.
        """
        key = (method, args)
        record = self._records.get(owner)
        old = None if record is None else record.cells.get(key)
        if old is None and cell is None:
            return
        self._history.record_cell(owner, key, old)
        if cell is None:
            del record.cells[key]
        elif record is None:
            self._record(owner).cells[key] = cell
        else:
            record.cells[key] = cell
        old_values = frozenset() if old is None else old.as_set()
        new_values = frozenset() if cell is None else cell.as_set()
        self._indexes.note_write(owner, method, args, old_values, new_values)
        self.statistics.note_write(
            owner, method, args, old_values, new_values
        )
        scalar = cell is not None and not cell.set_valued
        for sink in self._sinks:
            sink.note_cell(
                owner, method, args, old_values, new_values,
                scalar=scalar, present=cell is not None,
            )
        if cell is not None:
            self._known_add(owner)
            self._known_add(method)
            self._note_values_mutating((*new_values, *args))

    def _put_membership(self, obj: Oid, cls: Atom, present: bool) -> None:
        """Make *obj* a direct member of *cls* or not: the only writer of
        memberships and direct extents.

        Chains the pre-image, flips, then tells the statistics and every
        sink; joining a class also registers the object.  Runs inside
        :meth:`_mutation`.
        """
        memberships = self._memberships.get(obj)
        was_member = memberships is not None and cls in memberships
        if was_member != present:
            self._history.record_membership(obj, cls, was_member)
            if present:
                self._memberships.setdefault(obj, set()).add(cls)
                self._direct_extents.setdefault(cls, set()).add(obj)
            else:
                memberships.discard(cls)
                if not memberships:
                    del self._memberships[obj]
                self._direct_extents[cls].discard(obj)
            self.statistics.note_membership(cls, 1 if present else -1)
            for sink in self._sinks:
                sink.note_membership(cls, obj, present)
        if present:
            if obj not in self._records:
                self._record(obj)
            self._known_add(obj)

    def _record(self, obj: Oid) -> ObjectRecord:
        """The record of *obj*, created on first use: the only creator of
        records.

        A new record of an individual is announced to every sink
        (``note_object``), so the journal holds an ``("o", obj)`` marker
        for exactly the objects that have a record, however they entered.
        Class-objects hold default cells, not instances, and get none.
        """
        record = self._records.get(obj)
        if record is None:
            self._history.record_record(obj, False)
            record = self._records[obj] = ObjectRecord(obj)
            if self._sinks and not self.schema.catalogue.is_class(obj):
                for sink in self._sinks:
                    sink.note_object(obj)
        return record

    def explicit_cell(
        self,
        owner: OidLike,
        method: ClassLike,
        args: Sequence[OidLike] = (),
    ) -> Optional[Cell]:
        record = self._records.get(as_oid(owner))
        if record is None:
            return None
        return record.get(_atom(method), tuple(as_oid(a) for a in args))

    # ------------------------------------------------------------------
    # implementations
    # ------------------------------------------------------------------

    def define_method(
        self, cls: ClassLike, impl: MethodImplementation
    ) -> None:
        """Register a method implementation in the scope of *cls*."""
        cls_atom = _atom(cls)
        name = getattr(impl, "name", None)
        if not isinstance(name, Atom):
            raise SchemaError("method implementation must carry a name Atom")
        self._ddl(
            lambda schema: schema.add_implementation(cls_atom, impl),
            known=(name,),
        )

    def implementation_classes(self, method: Atom) -> List[Atom]:
        return self.schema.implementation_classes(method)

    def resolve_inheritance(
        self, cls: ClassLike, method: ClassLike, use_class: ClassLike
    ) -> None:
        """Declare which superclass's definition *cls* inherits (§6.1)."""
        cls_atom, method_atom, use_atom = (
            _atom(cls), _atom(method), _atom(use_class)
        )
        self._ddl(
            lambda schema: schema.resolver.declare_resolution(
                cls_atom, method_atom, use_atom
            ),
            note=lambda sink, _schema: sink.note_resolution(
                cls_atom, method_atom, use_atom
            ),
        )

    # ------------------------------------------------------------------
    # invocation: the heart of the data model
    # ------------------------------------------------------------------

    def invoke(
        self,
        owner: OidLike,
        method: ClassLike,
        args: Sequence[OidLike] = (),
    ) -> FrozenSet[Oid]:
        """Resolve a method invocation to its value set.

        Returns the set of result oids: a singleton for a defined scalar
        method, empty when undefined.  Resolution order: explicit cell,
        inherited default value, computed implementation.
        """
        return self.invoke_kinded(owner, method, args)[0]

    def invoke_kinded(
        self,
        owner: OidLike,
        method: ClassLike,
        args: Sequence[OidLike] = (),
    ) -> Tuple[FrozenSet[Oid], bool]:
        """Like :meth:`invoke`, also reporting whether the hop is set-valued.

        The flag distinguishes a scalar result from a set-valued result
        that happens to be a singleton — object-creating queries need the
        difference to decide between scalar and set attribute cells (§4.1).
        """
        owner_oid = as_oid(owner)
        method_atom = _atom(method)
        arg_oids = tuple(as_oid(a) for a in args)

        cell = self.explicit_cell(owner_oid, method_atom, arg_oids)
        if cell is not None:
            return cell.as_set(), cell.set_valued

        member_classes = self.direct_classes_of(owner_oid)
        schema = self.schema

        # Inherited default value (footnote 5: all attributes are default
        # attributes in the paper's scope).  Class-objects inherit from
        # their own superclasses.
        if schema.catalogue.is_class(owner_oid):
            member_classes = frozenset({owner_oid})  # type: ignore[arg-type]
        defining = [
            cls
            for cls in schema.hierarchy.classes()
            if self._has_cell(cls, method_atom, arg_oids)
        ]
        chosen = schema.resolver.select(
            str(owner_oid), member_classes, method_atom, defining
        )
        if chosen is not None and chosen != owner_oid:
            cell = self.explicit_cell(chosen, method_atom, arg_oids)
            if cell is not None:
                return cell.as_set(), cell.set_valued

        # Computed implementation with behavioral inheritance + overriding.
        impl_classes = schema.implementation_classes(method_atom)
        if impl_classes:
            chosen_impl = schema.resolver.select(
                str(owner_oid), member_classes, method_atom, impl_classes
            )
            if chosen_impl is not None:
                impl = schema.implementations[(chosen_impl, method_atom)]
                if impl.arity != len(arg_oids):
                    raise ArityError(
                        f"method {method_atom} expects {impl.arity} "
                        f"argument(s), got {len(arg_oids)}"
                    )
                result = impl.invoke(self, owner_oid, arg_oids)
                self._note_values(result)
                return result, impl.set_valued
        return frozenset(), False

    def _has_cell(
        self, cls: Atom, method: Atom, args: Tuple[Oid, ...]
    ) -> bool:
        record = self._records.get(cls)
        return record is not None and record.get(method, args) is not None

    def _cell_lookup(self, key) -> Callable[[Oid], Optional[Cell]]:
        """``owner -> explicit cell at key``, or None where none is stored."""
        records = self._records

        def lookup(owner: Oid) -> Optional[Cell]:
            record = records.get(owner)
            return None if record is None else record.cells.get(key)

        return lookup

    def cell_reader(self, method: Atom) -> CellReader:
        """``owner -> invoke_kinded(owner, method)`` for a 0-ary
        *method*, bound once for a step program.

        One ``dict.get`` on the explicit cell; the full invocation only
        where none is stored (class defaults, computed methods).  An
        :class:`ArityError` reads as undefined, as a path walk reads it.
        """
        lookup = self._cell_lookup((method, ()))
        invoke = self.invoke_kinded

        def read(owner: Oid) -> Tuple[FrozenSet[Oid], bool]:
            cell = lookup(owner)
            if cell is None:
                try:
                    return invoke(owner, method)
                except ArityError:
                    return frozenset(), False
            if type(cell) is SetCell:
                return cell.values, True
            return frozenset((cell.value,)), False

        return read

    def invoke_scalar(
        self,
        owner: OidLike,
        method: ClassLike,
        args: Sequence[OidLike] = (),
    ) -> Optional[Oid]:
        """Invoke a scalar method; None when undefined."""
        result = self.invoke(owner, method, args)
        if not result:
            return None
        if len(result) > 1:
            raise ArityError(
                f"method {method} produced {len(result)} values on "
                f"{owner}; expected a scalar"
            )
        return next(iter(result))

    def methods_defined_on(self, owner: OidLike) -> FrozenSet[Atom]:
        """Method names with some (possibly inherited/computed) definition.

        This is the candidate set a method variable ``"Y`` ranges over when
        it appears in ``X."Y`` — an over-approximation is fine because
        invocation still decides definedness, but we keep it tight:
        explicit cells on the object, default cells on reachable classes,
        and implementations on reachable classes.
        """
        owner_oid = as_oid(owner)
        schema = self.schema
        names: Set[Atom] = set()
        record = self._records.get(owner_oid)
        if record is not None:
            names.update(record.defined_methods())
        if schema.catalogue.is_class(owner_oid):
            reachable = schema.hierarchy.superclasses(
                owner_oid, strict=False  # type: ignore[arg-type]
            )
        else:
            reachable = self.classes_of(owner_oid)
        for cls in reachable:
            cls_record = self._records.get(cls)
            if cls_record is not None:
                names.update(cls_record.defined_methods())
        for (cls, name) in schema.implementations:
            if cls in reachable:
                names.add(name)
        return frozenset(names)

    # ------------------------------------------------------------------
    # inverted indexes ([BERT89]-style)
    # ------------------------------------------------------------------

    def enable_index(self, method: ClassLike) -> None:
        """Build and maintain an inverted value→owners index for *method*."""
        method_atom = _atom(method)
        with self._history.lock:
            with self._mutation():
                self._indexes.enable(method_atom, self)
                for sink in self._sinks:
                    sink.note_index(method_atom, True)

    def disable_index(self, method: ClassLike) -> None:
        method_atom = _atom(method)
        with self._history.lock:
            with self._mutation():
                self._indexes.disable(method_atom)
                for sink in self._sinks:
                    sink.note_index(method_atom, False)

    def is_indexed(self, method: ClassLike) -> bool:
        return self._indexes.is_indexed(_atom(method))

    def indexed_methods(self) -> FrozenSet[Atom]:
        """The methods currently carrying an inverted index."""
        return self._indexes.indexed_methods()

    def index_stats(self) -> Dict[str, int]:
        """Cumulative index hit/miss counters (observability)."""
        return {
            "hits": self._indexes.hits,
            "misses": self._indexes.misses,
        }

    def method_statistics(self, method: ClassLike) -> MethodStats:
        """The statistics catalogue's counters for *method*."""
        return self.statistics.method_stats(_atom(method))

    def extent_estimate(self, cls: ClassLike) -> int:
        """Estimated ``|extent(cls)|`` from the statistics catalogue.

        Sums direct membership counts over the subclass closure; implicit
        literal-class members are invisible to the catalogue, so this is a
        lower bound — fine for ranking plans, unsound for execution.
        """
        cls_atom = _atom(cls)
        hierarchy = self.schema.hierarchy
        hierarchy.require(cls_atom)
        total = self.statistics.direct_extent_count(cls_atom)
        for sub in hierarchy.subclasses(cls_atom):
            total += self.statistics.direct_extent_count(sub)
        return total

    def reverse_lookup_sound(self, method: ClassLike) -> bool:
        """Would an inverted index answer reverse lookups exactly?

        The index covers explicitly stored cells only; if any class-level
        default cell or computed implementation exists for the method,
        objects may carry values with no own cell, and reverse lookups
        must fall back to forward evaluation.  (Independent of whether an
        index is currently enabled — the cost planner asks this before
        auto-enabling one.)
        """
        method_atom = _atom(method)
        if self.implementation_classes(method_atom):
            return False
        for cls in self.schema.hierarchy.classes():
            record = self._records.get(cls)
            if record is None:
                continue
            if any(m == method_atom for m in record.defined_methods()):
                return False
        return True

    def index_is_complete_for(self, method: ClassLike) -> bool:
        """Can the index answer reverse lookups exactly for *method*?"""
        method_atom = _atom(method)
        return self._indexes.is_indexed(
            method_atom
        ) and self.reverse_lookup_sound(method_atom)

    def lookup_by_value(
        self,
        method: ClassLike,
        value: OidLike,
        args: Optional[Sequence[OidLike]] = None,
    ) -> Optional[FrozenSet[Oid]]:
        """Reverse lookup via the index; None when unavailable/incomplete."""
        method_atom = _atom(method)
        if not self.index_is_complete_for(method_atom):
            return None
        arg_oids = (
            tuple(as_oid(a) for a in args) if args is not None else None
        )
        return self._indexes.owners_of(method_atom, as_oid(value), arg_oids)

    # ------------------------------------------------------------------
    # relations (first-class, §2 "Relations")
    # ------------------------------------------------------------------

    def declare_relation(
        self, name: str, column_names: Sequence[str]
    ) -> StoredRelation:
        relation = StoredRelation(name, tuple(column_names))
        with self._history.lock:
            with self._mutation():
                self._history.record_relation(
                    name, self._relations.get(name)
                )
                self._relations[name] = relation
                for sink in self._sinks:
                    sink.note_relation(name, relation.column_names)
        return relation

    def relation(self, name: str) -> StoredRelation:
        try:
            return self._relations[name]
        except KeyError:
            raise UnknownClassError(f"relation {name} is not declared")

    def relations(self) -> Dict[str, StoredRelation]:
        return dict(self._relations)

    def insert_tuple(self, name: str, row: Sequence[OidLike]) -> None:
        with self._history.lock:
            relation = self.relation(name)
            oids = tuple(as_oid(v) for v in row)
            relation.check_row(oids)
            with self._mutation():
                self._history.record_relation(name, relation)
                relation.insert(oids)
                self._note_values_mutating(oids)
                for sink in self._sinks:
                    sink.note_tuple(name, oids)

    # ------------------------------------------------------------------
    # introspection helpers
    # ------------------------------------------------------------------

    def describe(self, oid_like: OidLike) -> str:
        """A human-readable dump of one object (debugging aid)."""
        obj = as_oid(oid_like)
        lines = [f"object {obj}"]
        classes = sorted(self.direct_classes_of(obj), key=lambda a: a.name)
        if classes:
            lines.append(
                "  instance-of: " + ", ".join(str(c) for c in classes)
            )
        record = self._records.get(obj)
        if record is not None:
            for (method, args), cell in sorted(
                record.entries(), key=lambda item: str(item[0])
            ):
                arg_str = (
                    "@" + ",".join(str(a) for a in args) if args else ""
                )
                if isinstance(cell, ScalarCell):
                    lines.append(f"  {method}{arg_str} -> {cell.value}")
                else:
                    members = ", ".join(
                        sorted(str(v) for v in cell.values)
                    )
                    lines.append(f"  {method}{arg_str} ->> {{{members}}}")
        return "\n".join(lines)

    def iter_records(self) -> Iterator[ObjectRecord]:
        return iter(self._records.values())
