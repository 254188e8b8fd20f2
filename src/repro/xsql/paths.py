"""Evaluation of extended path expressions (paper §3.1 and §5).

A path expression describes the set of database paths that satisfy its
ground instances.  :class:`PathWalker.walk` enumerates, for a given partial
variable binding, every way the path can be satisfied: each yielded
``PathHit`` carries the extended bindings, the tail object, and whether any
hop along the way was set-valued (the "set-shaped" flag used by
object-creating queries, §4.1).

Variables are instantiated lazily while walking — selectors constrain,
unbound selectors bind, method variables range over the methods defined on
the current object, and path variables (``*Y``) range over method sequences
up to a configurable depth.  This realizes the naive semantics of §3.4
without materializing the full substitution space.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import (
    Callable, Dict, FrozenSet, Iterable, Iterator, List, Optional, Sequence,
    Tuple, Union,
)

from repro.datamodel.store import ObjectStore
from repro.errors import ArityError, QueryError
from repro.oid import Atom, FuncOid, Oid, Value, Variable, VarSort, term_sort_key
from repro.xsql import ast
from repro.xsql.programs import chain_fetcher, key_env

__all__ = ["Bindings", "PathHit", "PathWalker", "resolve_term"]

#: Bindings map variables to oids — except path variables, which bind to
#: tuples of method atoms.
Bindings = Dict[Variable, object]


@dataclass(frozen=True)
class PathHit:
    """One satisfying database path: bindings, tail object, shape flag."""

    env: Tuple[Tuple[Variable, object], ...]
    tail: Oid
    set_shaped: bool

    def bindings(self) -> Bindings:
        return dict(self.env)


def _freeze(env: Bindings) -> Tuple[Tuple[Variable, object], ...]:
    return tuple(sorted(env.items(), key=lambda kv: (kv[0].name, kv[0].sort.value)))


def resolve_term(node: object, env: Bindings) -> object:
    """Resolve a selector node under *env*: Oid, App, or unbound Variable."""
    if isinstance(node, Variable):
        return env.get(node, node)
    if isinstance(node, ast.App):
        args = tuple(resolve_term(a, env) for a in node.args)
        if all(isinstance(a, Oid) for a in args):
            return FuncOid(node.functor, args)  # type: ignore[arg-type]
        return ast.App(node.functor, args)
    return node


class PathWalker:
    """Enumerates the database paths satisfying a path expression."""

    def __init__(
        self,
        store: ObjectStore,
        max_path_var_length: int = 6,
        id_function_instances=None,
        restrictions: Optional[Dict[Variable, FrozenSet[Oid]]] = None,
        metrics=None,
    ) -> None:
        self._store = store
        self._max_seq = max_path_var_length
        # functor -> iterable of ground argument tuples; lets an App head
        # with unbound arguments enumerate the view objects that exist
        # (wired up by the session's view manager).
        self._id_instances = id_function_instances or (lambda functor: ())
        # The Theorem 6.1 optimization: per-variable oid restrictions.
        # "it suffices to consider only those instantiations o of X such
        # that o ∈ A(X)" — enumeration and selector-binding both prune.
        self._restrictions = restrictions or {}
        # Optional SessionMetrics: counts index probes vs universe scans.
        self._metrics = metrics
        # The memo, the one store of derived values: (token, bindings of
        # the node's own variables) -> what the node evaluates to there.
        # A token interns a (tag, frozen AST node) prefix: "path" values,
        # "cond" deltas, "operand" values, "pointer:*" dereferences,
        # "select" item values and "subquery" answers.  Structurally
        # equal nodes share entries.  One LRU, stamped with the store's
        # mutation ticket: any write drops every entry.
        self._memo_cache: "OrderedDict[Tuple, object]" = OrderedDict()
        self._memo_cache_cap = 65536
        # Interning table for the token prefixes: hashing a frozen AST
        # node walks it recursively, so a caller exchanges its prefix for
        # a small int once per call and memo keys hash int-fast.  Tokens
        # come from a counter that never restarts, so no token is reused.
        self._memo_tokens: Dict[Tuple, int] = {}
        self._next_memo_token = 0
        # Ticket-stamped sorted universes / candidate lists / extents —
        # rebuilding these per binding is the old per-tuple hot spot.
        self._universe_cache: Dict[VarSort, List[Oid]] = {}
        self._candidate_cache: Dict[Variable, List[Oid]] = {}
        self._extent_cache: Dict[Oid, List[Oid]] = {}
        self._cache_stamp: Optional[int] = None

    @property
    def store(self) -> ObjectStore:
        return self._store

    # ------------------------------------------------------------------
    # the ticket-stamped memo
    # ------------------------------------------------------------------

    def _fresh_caches(self) -> None:
        """Drop every data-derived cache if the store has moved on.

        The caches are stamped with the store's mutation ticket.  Every
        mutator advances it — data writes, relation inserts, index
        toggles and DDL alike — so a mid-query UPDATE invalidates
        memoized values before the next lookup.  A pinned
        :class:`~repro.datamodel.versions.StoreView` reports its pinned
        ticket, which never moves.
        """
        ticket = self._store.ticket
        if ticket == self._cache_stamp:
            return
        if self._cache_stamp is not None:
            if self._metrics is not None:
                self._metrics.count("cache.path.invalidated")
            self._memo_cache.clear()
            self._memo_tokens.clear()
            self._universe_cache.clear()
            self._candidate_cache.clear()
            self._extent_cache.clear()
        self._cache_stamp = ticket

    def memo_token(self, tag: str, node: object) -> int:
        """Intern a memo-key prefix: one AST hash per call, ints after.

        This is the memo's freshness check.  A write clears the table
        together with the entries keyed on it.  The table holds at most
        :attr:`memo_capacity` prefixes: past that it is dropped, and the
        entries keyed on dropped tokens age out of the LRU.  Tokens are
        never reused, so a stale entry is never reached again.
        """
        self._fresh_caches()
        key = (tag, node)
        token = self._memo_tokens.get(key)
        if token is None:
            if len(self._memo_tokens) >= self._memo_cache_cap:
                self._memo_tokens.clear()
            token = self._next_memo_token
            self._next_memo_token += 1
            self._memo_tokens[key] = token
        return token

    @property
    def memo_capacity(self) -> int:
        """How many entries the memo holds before evicting."""
        return self._memo_cache_cap

    def memo_get_fresh(self, key: Tuple) -> Optional[object]:
        """Memo lookup under a token taken in this call; ``None`` on a
        miss (nothing stored is ``None``).  No freshness check and no
        metrics: callers count hits and misses in aggregate."""
        cached = self._memo_cache.get(key)
        if cached is not None:
            self._memo_cache.move_to_end(key)
        return cached

    def memo_counts(self, hits: int, misses: int) -> None:
        """Aggregate metrics for a batch of :meth:`memo_get_fresh` calls."""
        if self._metrics is not None:
            if hits:
                self._metrics.count("cache.memo.hit", hits)
            if misses:
                self._metrics.count("cache.memo.miss", misses)

    def memo_put(self, key: Tuple, value: object) -> None:
        """Store one entry under a token taken in this call, evicting the
        least recently used entry past the capacity."""
        self._memo_cache[key] = value
        if len(self._memo_cache) > self._memo_cache_cap:
            self._memo_cache.popitem(last=False)
            if self._metrics is not None:
                self._metrics.count("cache.memo.evict")

    def memoized(
        self,
        tag: str,
        node: object,
        key_vars: Sequence[Variable],
        keys: Iterable[Tuple],
        compute: Callable[[Bindings], object],
    ) -> Dict[Tuple, object]:
        """The value of *node* under each distinct key of *keys*.

        A key holds one cell per variable of *key_vars* (None if
        unbound); *compute* gets it as a binding dict without the unbound
        cells (:meth:`memo_map`, which it runs on).
        """
        return self.memo_map(
            tag, node, keys, lambda key: compute(key_env(key_vars, key))
        )

    def memo_map(
        self,
        tag: str,
        node: object,
        keys: Iterable[Tuple],
        compute: Callable[[Tuple], object],
    ) -> Dict[Tuple, object]:
        """The value of *node* under each distinct key of *keys*;
        *compute* gets the key tuple itself and runs once per key the
        memo lacks.

        The freshness check runs once per call, so only a one-key call
        may write the store from *compute* (the next call sees the
        write); a ``None`` it returns is passed through, never stored.
        Every key is looked up and a call writes at most
        :attr:`memo_capacity` entries, so a call over more keys than the
        memo holds cannot cycle it.
        """
        token = self.memo_token(tag, node)
        budget = self._memo_cache_cap
        values: Dict[Tuple, object] = {}
        hits = misses = 0
        for key in keys:
            if key in values:
                continue
            memo_key = (token, key)
            value = self.memo_get_fresh(memo_key)
            if value is None:
                value = compute(key)
                misses += 1
                if budget and value is not None:
                    self.memo_put(memo_key, value)
                    budget -= 1
            else:
                hits += 1
            values[key] = value
        self.memo_counts(hits, misses)
        return values

    # ------------------------------------------------------------------
    # universes
    # ------------------------------------------------------------------

    def universe(self, sort: VarSort) -> List[Oid]:
        self._fresh_caches()
        cached = self._universe_cache.get(sort)
        if cached is None:
            if sort == VarSort.CLASS:
                items = self._store.class_universe()
            elif sort == VarSort.METHOD:
                items = self._store.method_universe()
            else:
                items = self._store.individual_universe()
            cached = sorted(items, key=term_sort_key)
            self._universe_cache[sort] = cached
        return cached

    def variable_candidates(self, var: Variable) -> List[Oid]:
        """The instantiation candidates of *var*, range-restricted if known."""
        allowed = self._restrictions.get(var)
        if allowed is None:
            return self.universe(var.sort)
        self._fresh_caches()
        cached = self._candidate_cache.get(var)
        if cached is None:
            cached = sorted(allowed, key=term_sort_key)
            self._candidate_cache[var] = cached
        return cached

    def extent_sorted(self, cls: Oid) -> List[Oid]:
        """The sorted extent of *cls*, memoized per ticket stamp."""
        self._fresh_caches()
        cached = self._extent_cache.get(cls)
        if cached is None:
            cached = sorted(self._store.extent(cls), key=term_sort_key)
            self._extent_cache[cls] = cached
        return cached

    def admits(self, var: Variable, value: Oid) -> bool:
        """May *var* be bound to *value* under the active restrictions?"""
        allowed = self._restrictions.get(var)
        return allowed is None or value in allowed

    def restriction_for(self, var: Variable) -> Optional[FrozenSet[Oid]]:
        """The active instantiation restriction of *var*, if any."""
        return self._restrictions.get(var)

    # ------------------------------------------------------------------
    # selector candidates
    # ------------------------------------------------------------------

    def _head_candidates(
        self, head: object, env: Bindings
    ) -> Iterator[Tuple[Bindings, Oid]]:
        resolved = resolve_term(head, env)
        if type(resolved) is tuple:
            # A bound path variable (a method-atom sequence) projected as
            # a value: reify it as an id-term so it can live in results.
            # (Oids are tuple subclasses, so the test is on the exact type.)
            yield env, FuncOid("attrpath", resolved)
            return
        if isinstance(resolved, Oid):
            yield env, resolved
            return
        if isinstance(resolved, Variable):
            for candidate in self.variable_candidates(resolved):
                new_env = dict(env)
                new_env[resolved] = candidate
                yield new_env, candidate
            return
        if isinstance(resolved, ast.App):
            # Enumerate materialized instantiations of the id-function and
            # unify the unbound argument variables against them.
            for arg_tuple in self._id_instances(resolved.functor):
                new_env = dict(env)
                if self._unify_args(resolved.args, arg_tuple, new_env):
                    yield new_env, FuncOid(resolved.functor, tuple(arg_tuple))
            return
        raise QueryError(f"cannot resolve head selector {head!r}")

    @staticmethod
    def _unify_args(
        patterns: Tuple[object, ...],
        values: Tuple[Oid, ...],
        env: Bindings,
    ) -> bool:
        if len(patterns) != len(values):
            return False
        for pattern, value in zip(patterns, values):
            if isinstance(pattern, Oid):
                if pattern != value:
                    return False
            elif isinstance(pattern, Variable):
                bound = env.get(pattern)
                if bound is None:
                    env[pattern] = value
                elif bound != value:
                    return False
            else:
                return False
        return True

    def _check_selector(
        self,
        selector: Optional[object],
        value: Oid,
        env: Bindings,
    ) -> Optional[Bindings]:
        """Match *value* against the step selector; None means mismatch."""
        if selector is None:
            return env
        resolved = resolve_term(selector, env)
        if isinstance(resolved, Oid):
            return env if resolved == value else None
        if isinstance(resolved, Variable):
            if not self.admits(resolved, value):
                return None
            new_env = dict(env)
            new_env[resolved] = value
            return new_env
        return None  # an App with unbound arguments cannot match here

    # ------------------------------------------------------------------
    # argument candidates
    # ------------------------------------------------------------------

    def _arg_candidates(
        self,
        args: Tuple[object, ...],
        env: Bindings,
        index: int = 0,
        acc: Tuple[Oid, ...] = (),
    ) -> Iterator[Tuple[Bindings, Tuple[Oid, ...]]]:
        """All ways to ground the method arguments under *env*.

        Recurses through the method rather than a nested closure: a
        self-referencing closure is a reference cycle per call, left for
        the cyclic collector.
        """
        if index == len(args):
            yield env, acc
            return
        resolved = resolve_term(args[index], env)
        if isinstance(resolved, Oid):
            yield from self._arg_candidates(
                args, env, index + 1, acc + (resolved,)
            )
        elif isinstance(resolved, Variable):
            for candidate in self.variable_candidates(resolved):
                new_env = dict(env)
                new_env[resolved] = candidate
                yield from self._arg_candidates(
                    args, new_env, index + 1, acc + (candidate,)
                )
        else:
            raise QueryError(
                f"method argument {args[index]!r} cannot be resolved"
            )

    # ------------------------------------------------------------------
    # step evaluation
    # ------------------------------------------------------------------

    def _invoke(
        self, obj: Oid, method: Atom, args: Tuple[Oid, ...]
    ) -> Tuple[FrozenSet[Oid], bool]:
        try:
            return self._store.invoke_kinded(obj, method, args)
        except ArityError:
            return frozenset(), False

    def _method_candidates(
        self, obj: Oid, method: Union[Atom, Variable], env: Bindings
    ) -> Iterator[Tuple[Bindings, Atom]]:
        if isinstance(method, Atom):
            yield env, method
            return
        bound = env.get(method)
        if bound is not None:
            if isinstance(bound, Atom):
                yield env, bound
            return
        for candidate in sorted(
            self._store.methods_defined_on(obj), key=term_sort_key
        ):
            new_env = dict(env)
            new_env[method] = candidate
            yield new_env, candidate

    def _walk_step(
        self, obj: Oid, step: ast.Step, env: Bindings, shaped: bool
    ) -> Iterator[Tuple[Bindings, Oid, bool]]:
        method = step.method_expr.method
        if isinstance(method, Variable) and method.sort == VarSort.PATH:
            yield from self._walk_path_variable(obj, step, env, shaped)
            return
        for env1, method_atom in self._method_candidates(obj, method, env):
            for env2, arg_tuple in self._arg_candidates(
                step.method_expr.args, env1
            ):
                values, set_valued = self._invoke(obj, method_atom, arg_tuple)
                for value in sorted(values, key=term_sort_key):
                    env3 = self._check_selector(step.selector, value, env2)
                    if env3 is not None:
                        yield env3, value, shaped or set_valued

    def _walk_path_variable(
        self, obj: Oid, step: ast.Step, env: Bindings, shaped: bool
    ) -> Iterator[Tuple[Bindings, Oid, bool]]:
        """Expand a ``*Y`` step into method sequences of length 0..max.

        "xY can be bound to any sequence of attributes" (§3.1) — we bind
        the variable to the tuple of method atoms actually traversed.
        """
        var = step.method_expr.method
        assert isinstance(var, Variable)
        bound = env.get(var)
        sequences: Iterator[Tuple[Bindings, Oid, Tuple[Atom, ...], bool]]
        if bound is not None:
            sequences = self._replay_sequence(obj, tuple(bound), env, shaped)
        else:
            sequences = self._explore_sequences(obj, env, shaped)
        for seq_env, tail, sequence, seq_shaped in sequences:
            final_env = dict(seq_env)
            final_env[var] = sequence
            checked = self._check_selector(step.selector, tail, final_env)
            if checked is not None:
                yield checked, tail, seq_shaped

    def _replay_sequence(
        self,
        obj: Oid,
        sequence: Tuple[Atom, ...],
        env: Bindings,
        shaped: bool,
    ) -> Iterator[Tuple[Bindings, Oid, Tuple[Atom, ...], bool]]:
        frontier = [(obj, shaped)]
        for method in sequence:
            next_frontier = []
            for node, flag in frontier:
                values, set_valued = self._invoke(node, method, ())
                next_frontier.extend(
                    (v, flag or set_valued)
                    for v in sorted(values, key=term_sort_key)
                )
            frontier = next_frontier
        for node, flag in frontier:
            yield env, node, sequence, flag

    def _explore_sequences(
        self, obj: Oid, env: Bindings, shaped: bool
    ) -> Iterator[Tuple[Bindings, Oid, Tuple[Atom, ...], bool]]:
        stack: List[Tuple[Oid, Tuple[Atom, ...], bool]] = [(obj, (), shaped)]
        while stack:
            node, sequence, flag = stack.pop()
            yield env, node, sequence, flag
            if len(sequence) >= self._max_seq:
                continue
            for method in sorted(
                self._store.methods_defined_on(node), key=term_sort_key
            ):
                values, set_valued = self._invoke(node, method, ())
                for value in sorted(values, key=term_sort_key):
                    stack.append(
                        (value, sequence + (method,), flag or set_valued)
                    )

    # ------------------------------------------------------------------
    # public walk
    # ------------------------------------------------------------------

    def _indexed_head_candidates(
        self, path: ast.PathExpr, env: Bindings
    ) -> Optional[Iterator[Tuple[Bindings, Oid]]]:
        """Reverse-lookup fast path for an unbound head ([BERT89]).

        Applicable when the head is an unbound variable and the first
        step has a ground method, ground arguments, and a ground selector
        value — then ``X.M[v]`` resolves to the indexed owners of ``v``
        instead of enumerating the whole universe.  Returns ``None`` when
        the index cannot answer exactly (no index, or inherited/computed
        sources exist for the method).
        """
        head = resolve_term(path.head, env)
        if (
            not isinstance(head, Variable)
            or head.sort != VarSort.INDIVIDUAL
            or not path.steps
        ):
            return None
        step = path.steps[0]
        method = step.method_expr.method
        if not isinstance(method, Atom) or step.selector is None:
            return None
        selector = resolve_term(step.selector, env)
        if not isinstance(selector, Oid):
            return None
        args = tuple(
            resolve_term(arg, env) for arg in step.method_expr.args
        )
        if not all(isinstance(a, Oid) for a in args):
            return None
        owners = self._store.lookup_by_value(method, selector, args)
        if owners is None:
            return None

        def generate() -> Iterator[Tuple[Bindings, Oid]]:
            for owner in sorted(owners, key=term_sort_key):
                if self._store.catalogue.is_class(owner):
                    continue  # individual variables skip class-objects
                if not self.admits(head, owner):
                    continue
                yield {**env, head: owner}, owner

        return generate()

    def walk(
        self, path: ast.PathExpr, env: Optional[Bindings] = None
    ) -> Iterator[PathHit]:
        """Yield every satisfying database path as a :class:`PathHit`."""
        env = env or {}
        head_candidates = self._indexed_head_candidates(path, env)
        if head_candidates is None:
            if self._metrics is not None and isinstance(
                resolve_term(path.head, env), Variable
            ):
                self._metrics.count("scan.universe")
            head_candidates = self._head_candidates(path.head, env)
        elif self._metrics is not None:
            self._metrics.count("index.probe")
        for head_env, head in head_candidates:
            frontier: List[Tuple[Bindings, Oid, bool]] = [
                (head_env, head, False)
            ]
            for step in path.steps:
                next_frontier: List[Tuple[Bindings, Oid, bool]] = []
                for step_env, obj, flag in frontier:
                    next_frontier.extend(self._walk_step(obj, step, step_env, flag))
                frontier = next_frontier
                if not frontier:
                    break
            for final_env, tail, flag in frontier:
                yield PathHit(_freeze(final_env), tail, flag)

    def value(
        self, path: ast.PathExpr, env: Optional[Bindings] = None
    ) -> FrozenSet[Oid]:
        """The value of a (ground-under-*env*) path: its set of tails (§3.2).

        Variables still unbound in the path are treated existentially — all
        their instantiations contribute tails, matching the §3.4 semantics
        of evaluating every ground instance.
        """
        return self.value_kinded(path, env)[0]

    def value_kinded(
        self, path: ast.PathExpr, env: Optional[Bindings] = None
    ) -> Tuple[FrozenSet[Oid], bool]:
        """Path value plus whether any satisfying walk was set-shaped.

        Memoized under a ``"path"`` token on the bindings of the path's
        free variables: only the variables the path mentions key the
        entry, so distinct outer environments that agree on those
        variables share one walk.  Counted as ``cache.path.hit/miss``.

        A miss on an atom chain under a ground head runs the chain's
        cell readers (:func:`~repro.xsql.programs.chain_fetcher`)
        instead of the generic :meth:`walk`.
        """
        token = self.memo_token("path", path)
        env = env or {}
        key = (token, tuple(env.get(var) for var in path.free_variables))
        cached = self.memo_get_fresh(key)
        if cached is not None:
            if self._metrics is not None:
                self._metrics.count("cache.path.hit")
            return cached
        methods = path.chain_methods
        head = None if methods is None else resolve_term(path.head, env)
        if isinstance(head, Oid):
            result = chain_fetcher(self._store, methods)(head)
        else:
            tails = set()
            shaped = False
            for hit in self.walk(path, env):
                tails.add(hit.tail)
                shaped = shaped or hit.set_shaped
            result = (frozenset(tails), shaped)
        if self._metrics is not None:
            self._metrics.count("cache.path.miss")
        self.memo_put(key, result)
        return result
