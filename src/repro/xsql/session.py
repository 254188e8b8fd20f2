"""The Session: the top-level XSQL interface.

A session owns an :class:`~repro.datamodel.store.ObjectStore`, the
id-function registry, the view manager, the per-session metrics
collector, and the staged query pipeline
(:mod:`repro.xsql.pipeline`), and dispatches parsed statements:

* plain queries and ``INSERT INTO … SELECT`` → the operator tree
  (:mod:`repro.xsql.operators`);
* object-creating queries (``OID FUNCTION OF``) →
  :mod:`repro.views.creation` with a session-allocated id-function,
  grouping the binding stage of the same operator tree;
* ``CREATE VIEW`` → :class:`~repro.views.views.ViewManager`;
* ``ALTER CLASS ... ADD SIGNATURE ... SELECT`` →
  :func:`repro.xsql.ddl.install_query_method`;
* ``UPDATE CLASS`` / ``CREATE CLASS`` → direct execution.

The everyday calls::

    session.query(text)                          # parse + plan + run
    session.query(text, plan="greedy")           # untyped boundness planner
    session.query(text, plan="typed")            # Theorem 6.1 optimizer
    session.query(text, engine="naive")          # literal §3.4 semantics
    compiled = session.prepare(text)             # compile once ...
    compiled.run(); compiled.run()               # ... run many times
    session.stats()                              # pipeline metrics snapshot

Persistence is a session lifecycle (:mod:`repro.storage`)::

    session = Session.open("company.db")         # recover or create
    session.query("SELECT ...")                  # writes hit the WAL
    session.checkpoint()                         # compact + durable point
    session.close()                              # flush and release

In-memory rollback goes through the same codec: encode the store into
a :class:`~repro.storage.MemoryEngine`, later hand
``decode_store(image)`` to :meth:`Session.replace_store`.

The pre-pipeline spellings ``session.query(text, optimize=True)`` and
``session.naive(text)`` have been removed; use ``plan="greedy"`` /
``engine="naive"`` (see the migration table in ``docs/LANGUAGE.md``).

Snapshot isolation (``docs/MVCC.md``)::

    with session.snapshot_view() as snap:    # pin the current version
        snap.query("SELECT ...")             # reads at the pin, always
        session.query("UPDATE CLASS ...")    # writers never block it

``snapshot_view()`` returns a :class:`SnapshotSession` — a full Session
over a read-only :class:`~repro.datamodel.versions.StoreView`; and
:class:`ConcurrentSession` multiplexes snapshot-isolated reader threads
over one live store.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple, Union

from repro.datamodel.store import ObjectStore
from repro.errors import QueryError
from repro.metrics import SessionMetrics
from repro.oid import FuncOid, Oid, Value, Variable
from repro.views.creation import CreationOutcome, execute_creation
from repro.views.id_functions import IdFunctionRegistry
from repro.views.views import ViewDef, ViewManager
from repro.xsql import ast, operators
from repro.xsql.ddl import install_query_method
from repro.xsql.evaluator import Evaluator
from repro.xsql.lexer import split_statements
from repro.xsql.options import ExecutionOptions
from repro.xsql.paths import PathWalker
from repro.xsql.pipeline import CompiledQuery, QueryPipeline
from repro.xsql.result import QueryResult

__all__ = ["Session", "SnapshotSession", "ConcurrentSession"]

#: How many restriction-distinct session-persistent walkers to retain.
_WALKER_CACHE_SIZE = 8


class Session:
    """An XSQL session over one object store."""

    def __init__(
        self,
        store: Optional[ObjectStore] = None,
        max_path_var_length: int = 6,
        statement_cache_size: int = 128,
        storage=None,
    ) -> None:
        self.store = store if store is not None else ObjectStore()
        self.registry = IdFunctionRegistry()
        self.views = ViewManager(self.store, self.registry)
        self._max_path_var_length = max_path_var_length
        self._index_mode = "auto"
        self.metrics = SessionMetrics()
        self.pipeline = QueryPipeline(self, cache_size=statement_cache_size)
        # Session-persistent walkers, keyed by the run's restriction
        # content.  Each holds one ticket-stamped memo (path values,
        # conjunct deltas, operand values, pointer dereferences, SELECT
        # items, subquery answers) that survives across runs until the
        # next write; that is where the warm-run speedup comes from.
        self._walkers: (
            "OrderedDict[Optional[Tuple], PathWalker]"
        ) = OrderedDict()
        #: Storage lifecycle state (:meth:`open` / :meth:`checkpoint` /
        #: :meth:`close`).  ``None`` engine means the historical dict
        #: backend — the store's write path stays engine-free.
        self._storage_options = None
        self._engine = None
        if storage is not None:
            self.attach_storage(storage)

    # ------------------------------------------------------------------
    # the evaluator factory
    # ------------------------------------------------------------------

    def evaluator(
        self,
        restrictions: Optional[Dict[Variable, FrozenSet[Oid]]] = None,
    ) -> Evaluator:
        """An evaluator sharing the session-persistent walker.

        Every statement the session runs — queries, object creation,
        view maintenance, ``UPDATE CLASS`` — evaluates through one of
        these.

        Walkers are cached per restriction content (the Theorem 6.1 /
        index instantiation sets differ between plans and replanning),
        LRU-capped at :data:`_WALKER_CACHE_SIZE`.  Staleness is handled
        inside the walker: every cache it holds is stamped with the
        store's mutation ticket, so a shared walker never serves results
        from before a write.
        """
        token: Optional[Tuple] = None
        if restrictions:
            token = tuple(
                sorted(
                    (
                        ((var.name, var.sort.value), allowed)
                        for var, allowed in restrictions.items()
                    ),
                    key=lambda item: item[0],
                )
            )
        walker = self._walkers.get(token)
        if walker is None:
            walker = PathWalker(
                self.store,
                max_path_var_length=self._max_path_var_length,
                id_function_instances=self.registry.instances,
                restrictions=restrictions,
                metrics=self.metrics,
            )
            self._walkers[token] = walker
            if len(self._walkers) > _WALKER_CACHE_SIZE:
                self._walkers.popitem(last=False)
        else:
            self._walkers.move_to_end(token)
        return Evaluator(
            self.store,
            id_function_instances=self.registry.instances,
            max_path_var_length=self._max_path_var_length,
            restrictions=restrictions,
            metrics=self.metrics,
            walker=walker,
        )

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------

    def prepare(
        self,
        source: str,
        *,
        options: Optional[ExecutionOptions] = None,
        plan: Optional[str] = None,
        engine: Optional[str] = None,
        join_mode: Optional[str] = None,
        pointer_join: Optional[str] = None,
    ) -> CompiledQuery:
        """Compile one statement through the pipeline, without running it.

        Execution knobs arrive either as one
        :class:`~repro.xsql.options.ExecutionOptions` record
        (``options=``) or as the historical loose kwargs (``plan=``,
        ``engine=``, ``join_mode=``, ``pointer_join=``) —
        the kwargs are thin aliases that override fields of the record.

        The returned :class:`~repro.xsql.pipeline.CompiledQuery` is
        re-runnable (``compiled.run()``) and inspectable
        (``compiled.explain()``); re-runs skip parsing, typing, and
        planning.  Compilations are memoized in the session's LRU
        statement cache, keyed on the statement's shape (literals
        replaced by their kinds) and the frozen options tuple, and
        transparently refreshed when DDL publishes another schema value.
        A text that differs from a cached one only in literals is
        compiled by rebinding them: only planning re-runs.
        """
        resolved = ExecutionOptions.coerce(
            options,
            plan=plan,
            engine=engine,
            join_mode=join_mode,
            pointer_join=pointer_join,
        )
        self.metrics.begin_statement()
        return self.pipeline.compile(source, options=resolved)

    def query(
        self,
        source: str,
        *,
        options: Optional[ExecutionOptions] = None,
        plan: Optional[str] = None,
        engine: Optional[str] = None,
        join_mode: Optional[str] = None,
        pointer_join: Optional[str] = None,
    ) -> QueryResult:
        """Execute a SELECT query (the common case).

        ``plan`` selects the conjunct planner: ``"none"`` (source order),
        ``"greedy"`` (untyped boundness reorder), ``"typed"`` (the
        Theorem 6.1 coherent plan + extent restrictions, falling back to
        greedy outside the strictly well-typed fragment), or ``"cost"``
        (the statistics-driven optimizer).  ``engine`` selects
        ``"reference"`` (the binding-stream evaluator) or ``"naive"``
        (the literal §3.4 enumerate-all-substitutions semantics).
        ``join_mode`` and ``pointer_join`` tune the reference executor;
        pass ``options=ExecutionOptions(...)`` to set everything at once
        (see :meth:`prepare`).
        """
        resolved = ExecutionOptions.coerce(
            options,
            plan=plan,
            engine=engine,
            join_mode=join_mode,
            pointer_join=pointer_join,
        )
        self.metrics.begin_statement()
        compiled = self.pipeline.compile(source, options=resolved)
        return self.pipeline.execute(compiled)

    def execute(self, source: str) -> QueryResult:
        """Parse and execute one XSQL statement; returns a result relation.

        DDL statements return a one-row status relation so scripts can be
        executed uniformly.  Equivalent to ``query(source)``; kept as the
        statement-oriented name scripts and the REPL use.
        """
        return self.query(source)

    def execute_script(self, source: str) -> List[QueryResult]:
        """Execute a ``;``-separated script, returning all results.

        Statements are split with the lexer's token scan
        (:func:`repro.xsql.lexer.split_statements`), so semicolons inside
        string literals and ``--`` comments do not terminate a statement.
        """
        return [self.execute(chunk) for chunk in split_statements(source)]

    def stats(self) -> Dict[str, Dict]:
        """A JSON-friendly snapshot of the session's pipeline metrics."""
        return self.metrics.snapshot()

    # ------------------------------------------------------------------
    # versions and snapshots (MVCC)
    # ------------------------------------------------------------------

    @property
    def ticket(self) -> int:
        """The store's mutation ticket (a snapshot's is its pinned one)."""
        return self.store.ticket

    def version_status(self) -> Dict[str, int]:
        """Pins and copy-on-write chain statistics (REPL ``.snapshot``)."""
        return self.store.version_status()

    def snapshot_view(self) -> "SnapshotSession":
        """Pin the current version and return a read-only session at it.

        The returned :class:`SnapshotSession` keeps answering queries
        against the pinned state no matter how many mutations commit on
        this session afterwards; writers never block it.  Close it (or
        use it as a context manager) to release the pin so the store can
        garbage-collect the copy-on-write chains.
        """
        return SnapshotSession(self)

    # ------------------------------------------------------------------

    def _dispatch(self, statement: ast.Statement) -> QueryResult:
        """Run a creating query or a non-query statement.

        The pipeline executes every plain query itself; creating queries
        bind through the same lowering as ``plan="none"``.
        """
        if isinstance(statement, ast.Query) and statement.creates_objects:
            outcome = execute_creation(
                self.evaluator(),
                statement,
                functor=self.registry.fresh_functor(),
                registry=self.registry,
            )
            return self._creation_result(outcome)
        if isinstance(statement, ast.CreateView):
            view = self.views.create_view(statement, self.evaluator())
            return self._creation_result(view.outcome)
        if isinstance(statement, ast.CreateClass):
            self.store.declare_class(
                statement.name, list(statement.superclasses)
            )
            for sig in statement.signatures:
                self.store.declare_signature(
                    statement.name,
                    sig.method,
                    sig.result,
                    args=sig.args,
                    set_valued=sig.set_valued,
                )
            return _status(f"class {statement.name} created")
        if isinstance(statement, ast.AlterClass):
            install_query_method(self.store, statement, self.registry)
            return _status(
                f"method {statement.signature.method} added to "
                f"{statement.cls}"
            )
        if isinstance(statement, ast.UpdateClass):
            self.evaluator().execute_update(statement)
            return _status(f"class {statement.cls} updated")
        if isinstance(statement, ast.CreateRelation):
            self.store.declare_relation(
                statement.name, list(statement.columns)
            )
            return _status(f"relation {statement.name} created")
        if isinstance(statement, ast.InsertInto):
            return self._insert_into(statement)
        raise QueryError(f"unsupported statement {statement!r}")

    def _insert_into(self, statement: ast.InsertInto) -> QueryResult:
        """INSERT INTO a first-class relation (from VALUES or a query)."""
        relation = self.store.relation(statement.name)
        if statement.query is not None:
            result = operators.execute(
                operators.lower_statement(statement.query),
                self.evaluator(),
                self.metrics,
            )
            if len(result.columns) != relation.arity:
                raise QueryError(
                    f"relation {statement.name} has arity "
                    f"{relation.arity}; the query produces "
                    f"{len(result.columns)} columns"
                )
            rows = list(result.rows())
        else:
            rows = list(statement.rows)
        for row in rows:
            self.store.insert_tuple(statement.name, row)
        return _status(f"{len(rows)} row(s) inserted into {statement.name}")

    @staticmethod
    def _creation_result(outcome: CreationOutcome) -> QueryResult:
        return QueryResult(
            columns=["oid"],
            rows=[(oid,) for oid in outcome.created],
            created=list(outcome.created),
        )

    # ------------------------------------------------------------------
    # storage lifecycle (open / checkpoint / close)
    # ------------------------------------------------------------------

    @classmethod
    def open(
        cls,
        path: Optional[str] = None,
        *,
        engine=None,
        storage=None,
        sync: Optional[str] = None,
        **session_kwargs,
    ) -> "Session":
        """Open a session against a storage backend.

        The persistence entry point::

            Session.open()                     # dict backend, no disk
            Session.open("company.db")         # WAL-backed log engine
            Session.open(engine="memory")      # KV mirror, no disk

        ``engine`` is a backend name from
        :data:`repro.storage.BACKENDS`, an already-constructed
        :class:`~repro.storage.StorageEngine` (adopted as-is; its type
        names the backend and its own root the path, so *path* is not
        consulted), or ``None`` (``"log"`` when *path* is given, else
        ``"dict"``).  Alternatively pass a full
        :class:`~repro.storage.StorageOptions` as ``storage=``.

        If the backend already holds data (a WAL/checkpoint to recover),
        the session adopts that state; otherwise the engine is seeded
        from the fresh store.  Remaining kwargs go to the
        :class:`Session` constructor.
        """
        from repro.storage import (
            LogStructuredEngine,
            StorageEngine,
            StorageOptions,
        )

        session = cls(**session_kwargs)
        if isinstance(engine, StorageEngine):
            if isinstance(engine, LogStructuredEngine):
                options = StorageOptions(
                    backend="log",
                    path=str(engine.root),
                    sync=engine.sync_mode,
                )
            else:
                options = StorageOptions(backend="memory")
            session.attach_storage(options, engine_obj=engine)
            return session
        if storage is None:
            backend = engine if engine is not None else (
                "log" if path else "dict"
            )
            storage = StorageOptions.coerce(
                StorageOptions(backend=backend), path=path, sync=sync
            )
        session.attach_storage(storage)
        return session

    def attach_storage(self, options, engine_obj=None) -> None:
        """Attach a storage backend to this (possibly live) session.

        The workhorse behind :meth:`open` and the REPL's ``.open``: a
        previously attached engine is closed first; then, if the new
        backend already holds data, the session adopts it (replacing the
        current store), otherwise the backend is seeded from the current
        store — so ``.open`` on an empty target carries the database
        over, and on a populated one switches to it.
        """
        from repro.storage import StoreJournal, encode_store, make_engine

        options = options.validate()
        if self._engine is not None:
            self.close()
        self._storage_options = options
        engine = engine_obj if engine_obj is not None else make_engine(
            options
        )
        self._engine = engine
        if engine is None:
            return
        if len(engine):
            # The engine holds recovered state: it is the truth.
            self._adopt_engine_state()
        else:
            # Fresh engine: seed it from the (possibly pre-populated)
            # store so the mirror is complete from the first commit.
            encode_store(self.store, engine)
            self.store.set_journal(StoreJournal(engine, self.store))

    def _adopt_engine_state(self) -> None:
        """Replace the session's store with the engine's decoded state."""
        from repro.storage import StoreJournal, decode_store

        store = decode_store(self._engine)
        engine, self._engine = self._engine, None
        try:
            # replace_store must not re-seed the engine we are adopting
            # from, so it runs detached.
            self.replace_store(store)
        finally:
            self._engine = engine
        self.store.set_journal(StoreJournal(engine, self.store))

    def checkpoint(self):
        """Persist the current state at a durable point.

        * ``log`` backend — fold the WAL into a checkpoint image slot
          and rewind the log in place; returns the resulting
          :class:`~repro.storage.CommitStamp`.
        * ``memory`` backend — nothing to persist; returns the engine's
          last commit stamp.
        * ``dict`` backend (no engine attached) — returns ``None``.
        """
        if self._engine is not None:
            return self._engine.checkpoint()
        return None

    def close(self) -> None:
        """Flush and release the storage backend (idempotent).

        The session remains usable afterwards as a plain dict-backed
        session; further writes are no longer mirrored or logged.
        """
        if self._engine is not None:
            self.store.set_journal(None)
            self._engine.close()
            self._engine = None

    @property
    def storage_options(self):
        """The session's :class:`~repro.storage.StorageOptions`
        (a default dict-backend record when never opened)."""
        if self._storage_options is None:
            from repro.storage import StorageOptions

            return StorageOptions()
        return self._storage_options

    @property
    def storage_engine(self):
        """The attached :class:`~repro.storage.StorageEngine`, or None."""
        return self._engine

    def storage_status(self) -> dict:
        """A JSON-friendly snapshot of the storage backend (``.storage``)."""
        options = self.storage_options
        status = {
            "backend": options.backend,
            "path": options.path,
        }
        if self._engine is not None:
            status.update(self._engine.status())
            journal = self.store.journal
            if journal is not None:
                status["batches_committed"] = journal.batches_committed
        return status

    def replace_store(self, store: ObjectStore) -> None:
        """Swap in a different store, resetting store-derived state.

        Rebuilds the id-function registry and the view manager from the
        new store and drops every cached compilation (cached typing and
        plans refer to the old schema).  Indexes enabled on the outgoing
        store are re-enabled (back-filled) on the new one, so a
        rollback does not silently downgrade indexed lookups to scans.
        The id-function registry is rebuilt from the incoming object
        graph, so ad-hoc functor allocation resumes past every ``qfN``
        it holds instead of colliding with it.

        In-memory rollback is a codec image of the store::

            image = MemoryEngine()
            encode_store(session.store, image)
            ...
            session.replace_store(decode_store(image))

        With a storage engine attached, the engine is reset and
        re-seeded from the incoming store in one batch, and the journal
        moves over — the swap is itself a recoverable event.
        """
        carried = list(self.store.indexed_methods())
        self.store.set_journal(None)
        self.store = store
        if self._engine is not None:
            from repro.storage import StoreJournal, WriteBatch, encode_store

            reset = WriteBatch()
            reset.delete_range(b"\x00", b"\xff")
            self._engine.apply(reset)
            encode_store(store, self._engine)
            store.set_journal(StoreJournal(self._engine, store))
        for method in carried:
            if not store.is_indexed(method):
                store.enable_index(method)
        self.registry = IdFunctionRegistry.rebuild_from_store(store)
        self.views = ViewManager(self.store, self.registry)
        self.pipeline.clear()
        # Persistent walkers hold a reference to the old store.
        self._walkers.clear()

    # ------------------------------------------------------------------
    # indexes (the public API; the raw ``store.indexes`` registry
    # accessor has been removed)
    # ------------------------------------------------------------------

    @property
    def index_mode(self) -> str:
        """How the cost planner treats inverted indexes.

        ``"auto"`` (default) lets ``plan="cost"`` enable an index when
        the estimated scan savings clear its payoff threshold;
        ``"manual"`` uses only indexes enabled explicitly; ``"off"``
        forbids index probes altogether (extent scans only).
        """
        return self._index_mode

    @index_mode.setter
    def index_mode(self, mode: str) -> None:
        if mode not in ("auto", "manual", "off"):
            raise QueryError(
                f"unknown index mode {mode!r}; choose auto, manual, or off"
            )
        if mode != self._index_mode:
            self._index_mode = mode
            # Cached cost plans embed probe/auto-enable decisions made
            # under the old policy.
            self.pipeline.clear()

    def enable_index(self, method: Union[str, Oid]) -> None:
        """Build (or keep) an inverted index on *method*'s stored cells."""
        self.store.enable_index(method)

    def disable_index(self, method: Union[str, Oid]) -> None:
        """Drop the inverted index on *method*, if one exists."""
        self.store.disable_index(method)

    def indexes(self) -> List[str]:
        """The names of the currently indexed methods, sorted."""
        return sorted(m.name for m in self.store.indexed_methods())

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------

    def explain(
        self,
        source: str,
        *,
        options: Optional[ExecutionOptions] = None,
        plan: Optional[str] = None,
        join_mode: Optional[str] = None,
        pointer_join: Optional[str] = None,
        format: str = "text",
        analyze: bool = False,
    ) -> str:
        """A readable account of how a query would be type-checked and run.

        Delegates to :meth:`repro.xsql.pipeline.CompiledQuery.explain` on
        the compiled statement.  ``analyze=True`` executes the query and
        includes the instrumented physical-operator tree (per-operator
        estimated vs actual rows, batches, rows per batch, cache hits,
        wall time).
        """
        return self.prepare(
            source,
            options=options,
            plan=plan,
            join_mode=join_mode,
            pointer_join=pointer_join,
        ).explain(format=format, analyze=analyze)

    # ------------------------------------------------------------------
    # view conveniences (§4.2)
    # ------------------------------------------------------------------

    def sync_views(self) -> List[Dict[str, object]]:
        """Bring stale materialized views up to date (lazy maintenance).

        The pipeline calls this before every statement execution; it is
        a cheap no-op while no view is stale.  Returns one event dict
        per maintained view (kind, groups touched, wall seconds).
        """
        if not self.views.pending():
            return []
        return self.views.sync(self.evaluator())

    def refresh_view(self, name: str) -> ViewDef:
        return self.views.refresh(name, self.evaluator())

    def update_view(
        self, name: str, attr: str, new_values: Dict[FuncOid, Oid]
    ) -> int:
        return self.views.update_through_view(
            name, attr, new_values, self.evaluator()
        )


class SnapshotSession(Session):
    """A session pinned to one committed version of another session's store.

    Everything read-only works exactly as on the base session — queries,
    prepare/run, explain, stats — but every read sees the database as of
    the pin, even while the base session commits mutations concurrently.
    Statements that would write (UPDATE CLASS, DDL, object creation)
    raise :class:`~repro.errors.SnapshotReadOnlyError`.

    The id-function registry is shared with the base session so view
    objects (:class:`~repro.oid.FuncOid` ids minted by CREATE VIEW)
    resolve identically at the pinned state.
    """

    def __init__(self, base: Session) -> None:
        view = base.store.snapshot_view()
        super().__init__(
            store=view,
            max_path_var_length=base._max_path_var_length,
        )
        self.registry = base.registry
        self.views = ViewManager(self.store, self.registry)
        self._base = base

    def close(self) -> None:
        """Release the pin (idempotent); the snapshot must not be used after.

        Also drops the statement cache and the walkers' caches: a
        session is a reference cycle, so what they hold would otherwise
        stay allocated until the next full garbage collection.
        """
        super().close()
        self.store.release()
        self.pipeline.clear()
        self._walkers.clear()

    @property
    def pinned(self) -> bool:
        return self.store.pinned

    def __enter__(self) -> "SnapshotSession":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class ConcurrentSession:
    """Snapshot-isolated concurrent readers over one live session.

    A thin multiplexer: :meth:`snapshot` hands each reader thread its
    own pinned :class:`SnapshotSession`, and :meth:`run_concurrently`
    does the fan-out/fan-in for the common run-these-queries case.  The
    base session remains the single writer; because pinned readers take
    no locks, a writer committing thousands of mutations never blocks
    them (and vice versa — readers never delay a commit).
    """

    def __init__(self, base: Session) -> None:
        self.base = base

    def snapshot(self) -> SnapshotSession:
        """A new pinned read-only session (caller closes it)."""
        return self.base.snapshot_view()

    def run_concurrently(
        self,
        queries: Sequence[str],
        workers: int = 4,
        **query_kwargs,
    ) -> List[Tuple["object", QueryResult]]:
        """Run each query on its own snapshot across *workers* threads.

        Returns ``[(ticket, result), ...]`` in query order: the ticket
        each query was pinned at and its result.  Snapshots are pinned
        at task start, so queries submitted while the base session is
        writing observe whichever versions were current when their turn
        came — each one internally consistent.
        """
        from concurrent.futures import ThreadPoolExecutor

        def run_one(source: str):
            with self.base.snapshot_view() as snap:
                return snap.ticket, snap.query(source, **query_kwargs)

        if not queries:
            return []
        with ThreadPoolExecutor(max_workers=max(1, workers)) as pool:
            return list(pool.map(run_one, queries))


def _status(message: str) -> QueryResult:
    return QueryResult(columns=["status"], rows=[(Value(message),)])
