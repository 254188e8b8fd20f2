"""Cost-based join ordering and access-path selection (``plan="cost"``).

The paper's Theorem 6.1 says *which* extents are sound to enumerate; this
module decides *order* and *access path* with numbers.  It consumes the
statistics catalogue (:mod:`repro.datamodel.statistics`) that the store
maintains through its write path and produces a :class:`CostPlan`:

* a **join order** over the normalized conjunctive WHERE — exhaustive
  search for small conjunctions, greedy otherwise — minimizing the
  estimated size of the intermediate binding stream;
* an **access path** per FROM declaration and per conjunct: inverted
  index probe ([BERT89]), Theorem 6.1 restricted range, extent scan,
  bound walk, or plain filter;
* **probe specs** — top-level conjuncts of the shape ``X.M[v]`` with a
  ground method, ground arguments, and a ground selector, whose inverted
  index can restrict ``X``'s instantiation set *before* FROM enumeration
  (the pipeline executes them via ``store.lookup_by_value`` and falls
  back soundly when the index cannot answer exactly);
* **auto-enabled indexes** — when the model predicts an index probe beats
  the scan by :attr:`CostPlanner.payoff_threshold` and the reverse lookup
  would be exact, the planner enables the index on the spot (the Session
  ``index_mode`` knob pins this to ``"manual"`` or forbids it with
  ``"off"``).

Everything here is advisory: estimates rank alternatives, the executor
never relies on them for soundness.  Probe restrictions are derived only
from *top-level* conjuncts (never from inside OR/NOT), so restricting a
variable to the probed owners can never lose an answer.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from repro.datamodel.store import ObjectStore
from repro.oid import Atom, Oid, Variable, VarSort
from repro.xsql import ast
from repro.xsql.operators import join_strategy_of, operand_join_vars
from repro.xsql.planner import _cond_has_updates, _flatten

__all__ = ["CostModel", "CostPlan", "CostPlanner", "PlanEntry", "ProbeSpec"]

#: Conjunction sizes up to this bound are ordered by exhaustive search
#: over all permutations; larger WHERE clauses fall back to greedy.
EXHAUSTIVE_LIMIT = 6

_HUGE = 1e18


def _clip(x: float) -> float:
    return min(max(x, 0.0), _HUGE)


def _shorten(text: str, width: int = 48) -> str:
    return text if len(text) <= width else text[: width - 1] + "…"


@dataclass(frozen=True)
class ProbeSpec:
    """An index-probe opportunity: restrict *var* to owners of *value*."""

    var: Variable
    method: Atom
    value: Oid
    args: Tuple[Oid, ...]

    def render(self) -> str:
        args = (
            "@" + ",".join(str(a) for a in self.args) if self.args else ""
        )
        return f"{self.var}.{self.method}{args}[{self.value}]"


@dataclass
class PlanEntry:
    """One unit of the execution pipeline: a FROM decl or a conjunct."""

    kind: str  #: ``"from"`` or ``"cond"``
    label: str
    access_path: str
    #: Estimated binding-stream size *after* this entry.
    estimated_rows: float
    detail: str = ""
    #: For ``"cond"`` entries: how the set-at-a-time executor will run
    #: the conjunct (``"hash"``, ``"semi"``, ``"nested"``, or
    #: ``"pointer"``).
    join_strategy: str = ""
    #: For ``join_strategy == "pointer"`` entries: the range variable the
    #: PointerJoin binds (its FROM entry is re-marked
    #: ``"pointer-fused"`` and its extent scan is skipped) and the
    #: navigation direction (``"forward"`` dereferences stored cells,
    #: ``"backward"`` probes the inverted index).
    pointer_var: Optional[Variable] = None
    pointer_direction: str = ""

    def as_dict(self) -> Dict[str, object]:
        data: Dict[str, object] = {
            "kind": self.kind,
            "label": self.label,
            "access_path": self.access_path,
            "estimated_rows": round(self.estimated_rows, 1),
        }
        if self.detail:
            data["detail"] = self.detail
        if self.join_strategy:
            data["join_strategy"] = self.join_strategy
        if self.pointer_direction:
            data["direction"] = self.pointer_direction
        return data


@dataclass
class CostPlan:
    """The costed artifact: entries, probes, and provenance."""

    entries: List[PlanEntry] = field(default_factory=list)
    probes: Tuple[ProbeSpec, ...] = ()
    #: The reordered WHERE (None when the query has no WHERE clause or
    #: reordering was inapplicable — execution then uses source order).
    ordered_where: Optional[ast.Cond] = None
    #: Store mutation ticket the estimates were computed against; the
    #: pipeline re-plans once it has moved (optimality only — a drifted
    #: plan is still sound).
    ticket: int = -1
    estimated_result_rows: float = 0.0
    auto_enabled: Tuple[Atom, ...] = ()
    search: str = "none"  #: ``"exhaustive"``, ``"greedy"``, or ``"none"``

    def as_dict(self) -> Dict[str, object]:
        return {
            "search": self.search,
            "estimated_result_rows": round(self.estimated_result_rows, 1),
            "auto_enabled_indexes": sorted(
                m.name for m in self.auto_enabled
            ),
            "probes": [p.render() for p in self.probes],
            "entries": [e.as_dict() for e in self.entries],
        }


class CostModel:
    """Selectivity and cardinality estimates over the statistics catalogue.

    All numbers are estimates: the catalogue sees explicitly stored cells
    and explicit memberships only, so the model pads unknowns with mild
    defaults.  Its contract is to *rank* plans sanely, nothing more.
    It reads only the catalogue and O(classes) schema counts, never a
    store-sized collection, so compiling costs the same at any size.
    """

    #: Selectivity guess for a filtering condition the model cannot read.
    DEFAULT_FILTER = 0.5
    #: Fan-out guess for a method-variable hop.
    DEFAULT_FAN = 4.0

    def __init__(self, store: ObjectStore) -> None:
        self.store = store
        self.stats = store.statistics
        self._universe = max(1, store.individual_count())
        self._classes = max(1, len(store.hierarchy))
        self._methods = max(1, len(store.method_names()))

    # ------------------------------------------------------------------

    def universe_size(self, sort: VarSort) -> float:
        if sort == VarSort.CLASS:
            return float(self._classes)
        if sort == VarSort.METHOD:
            return float(self._methods)
        return float(self._universe)

    def extent_rows(self, cls: Atom) -> float:
        if cls not in self.store.hierarchy:
            return float(self._universe)
        return float(max(1, self.store.extent_estimate(cls)))

    def fan_out(self, method: object) -> float:
        if not isinstance(method, Atom):
            return self.DEFAULT_FAN
        stats = self.stats.method_stats(method)
        return stats.fan_out if stats.cells else 1.0

    def ground_selector_rows(self, method: Atom, value: Oid) -> float:
        """Expected owners whose *method* cell contains *value*."""
        stats = self.stats.method_stats(method)
        if not stats.cells:
            return 1.0
        return max(stats.expected_owners(value), 0.0)

    def ground_selector_fraction(self, method: Atom, value: Oid) -> float:
        """P(a walked value equals *value*) — tail-selectivity of a hop."""
        stats = self.stats.method_stats(method)
        if not stats.rows:
            return self.DEFAULT_FILTER
        return min(1.0, max(self.ground_selector_rows(method, value), 0.05)
                   / stats.rows)


class CostPlanner:
    """Orders conjuncts and picks access paths by estimated cost."""

    #: Under ``pointer_mode="auto"``, fuse only when the skipped extent
    #: scan is at least this many estimated rows — skipping a tiny scan
    #: perturbs the plan for no measurable win.
    MIN_POINTER_EXTENT = 8.0

    def __init__(
        self,
        store: ObjectStore,
        index_mode: str = "auto",
        payoff_threshold: float = 4.0,
        min_scan_rows: int = 32,
        pointer_mode: str = "auto",
    ) -> None:
        if index_mode not in ("auto", "manual", "off"):
            raise ValueError(
                f"index_mode must be auto/manual/off, got {index_mode!r}"
            )
        if pointer_mode not in ("auto", "off", "force"):
            raise ValueError(
                f"pointer_mode must be auto/off/force, got {pointer_mode!r}"
            )
        self.store = store
        self.model = CostModel(store)
        self.index_mode = index_mode
        self.pointer_mode = pointer_mode
        #: Auto-enable an index only when the estimated scan is at least
        #: this many times the estimated probe result...
        self.payoff_threshold = payoff_threshold
        #: ...and the scan is at least this large (tiny extents never pay
        #: for index maintenance).
        self.min_scan_rows = min_scan_rows

    # ------------------------------------------------------------------
    # applicability (mirrors the greedy planner's rules)
    # ------------------------------------------------------------------

    def applicable(self, query: ast.Query) -> bool:
        if query.creates_objects:
            return False
        if query.where is not None and _cond_has_updates(query.where):
            return False
        return True

    # ------------------------------------------------------------------
    # probe discovery
    # ------------------------------------------------------------------

    def find_probes(self, conjuncts: Sequence[ast.Cond]) -> List[ProbeSpec]:
        """Index-probe opportunities among the *top-level* conjuncts.

        Only a conjunct of the whole WHERE may restrict a variable: a
        disjunct or a negated condition does not have to hold in every
        answer, so nothing inside OR/NOT ever produces a probe.
        """
        probes: List[ProbeSpec] = []
        seen: Set[Tuple[Variable, Atom]] = set()
        for cond in conjuncts:
            spec = self._probe_of(cond)
            if spec is not None and (spec.var, spec.method) not in seen:
                seen.add((spec.var, spec.method))
                probes.append(spec)
        return probes

    @staticmethod
    def _probe_of(cond: ast.Cond) -> Optional[ProbeSpec]:
        if not isinstance(cond, ast.PathCond):
            return None
        path = cond.path
        head = path.head
        if (
            not isinstance(head, Variable)
            or head.sort != VarSort.INDIVIDUAL
            or not path.steps
        ):
            return None
        step = path.steps[0]
        method = step.method_expr.method
        if not isinstance(method, Atom):
            return None
        if not isinstance(step.selector, Oid):
            return None
        args = tuple(step.method_expr.args)
        if not all(isinstance(a, Oid) for a in args):
            return None
        return ProbeSpec(head, method, step.selector, args)

    def _usable_probes(
        self, probes: List[ProbeSpec], scan_rows: Dict[Variable, float]
    ) -> Tuple[List[ProbeSpec], List[Atom]]:
        """Filter probes by index availability, auto-enabling when it pays."""
        if self.index_mode == "off":
            return [], []
        usable: List[ProbeSpec] = []
        enabled: List[Atom] = []
        for spec in probes:
            if self.store.index_is_complete_for(spec.method):
                usable.append(spec)
                continue
            if self.index_mode != "auto":
                continue
            if not self.store.reverse_lookup_sound(spec.method):
                continue
            scan = scan_rows.get(
                spec.var, float(self.model.universe_size(spec.var.sort))
            )
            expected = max(
                self.model.ground_selector_rows(spec.method, spec.value), 1.0
            )
            if scan < self.min_scan_rows:
                continue
            if scan / expected < self.payoff_threshold:
                continue
            self.store.enable_index(spec.method)
            enabled.append(spec.method)
            usable.append(spec)
        return usable, enabled

    # ------------------------------------------------------------------
    # per-conjunct estimation
    # ------------------------------------------------------------------

    def _estimate(
        self,
        cond: ast.Cond,
        bound: Set[Variable],
        probed: Dict[Variable, ProbeSpec],
    ) -> Tuple[float, float, str]:
        """(stream multiplier, per-binding cost, access path) of *cond*."""
        model = self.model
        if isinstance(cond, ast.PathCond):
            return self._estimate_path(cond, bound, probed)
        unbound = [v for v in ast.cond_variables(cond) if v not in bound]
        blowup = 1.0
        for var in unbound:
            blowup *= model.universe_size(var.sort)
        if isinstance(cond, ast.SchemaCond):
            return _clip(blowup * 0.5), 1.0 + len(unbound), "filter"
        if isinstance(cond, ast.Comparison):
            if unbound and self._binds_by_membership(cond, bound):
                # `Z = <set>` binds Z from the set, not the universe.
                return model.DEFAULT_FAN, 2.0, "filter"
            return (
                _clip(blowup * model.DEFAULT_FILTER),
                1.0 + blowup,
                "filter",
            )
        if isinstance(cond, ast.NotCond):
            return (
                _clip(blowup * model.DEFAULT_FILTER),
                2.0 + blowup,
                "filter",
            )
        # OR and anything else: coarse filter-ish behaviour.
        return _clip(max(blowup, 1.0)), 2.0 + blowup, "filter"

    @staticmethod
    def _binds_by_membership(
        cond: ast.Comparison, bound: Set[Variable]
    ) -> bool:
        """Mirrors the evaluator's `Z = <set>` membership fast path."""
        if cond.op != "=":
            return False

        def bare_unbound(operand: ast.Operand) -> bool:
            return (
                isinstance(operand, ast.PathOperand)
                and operand.path.is_trivial
                and isinstance(operand.path.head, Variable)
                and operand.path.head not in bound
            )

        return (cond.rq in (None, "some") and bare_unbound(cond.lhs)) or (
            cond.lq in (None, "some") and bare_unbound(cond.rhs)
        )

    def _estimate_path(
        self,
        cond: ast.PathCond,
        bound: Set[Variable],
        probed: Dict[Variable, ProbeSpec],
    ) -> Tuple[float, float, str]:
        model = self.model
        path = cond.path
        head = path.head
        mult = 1.0
        access = "bound-walk"
        if isinstance(head, Variable) and head not in bound:
            spec = probed.get(head)
            if spec is not None:
                mult = max(
                    model.ground_selector_rows(spec.method, spec.value), 0.5
                )
                access = "index-probe"
            else:
                mult = model.universe_size(head.sort)
                access = "universe-scan"
        elif not isinstance(head, Variable) and not isinstance(head, Oid):
            access = "walk"  # App heads: id-function instance enumeration
        cost = 1.0
        first = (
            probed.get(head) is not None
            if isinstance(head, Variable)
            else False
        )
        for position, step in enumerate(path.steps):
            method = step.method_expr.method
            fan = model.fan_out(method)
            cost += mult if mult > 1.0 else 1.0
            for arg in step.method_expr.args:
                if isinstance(arg, Variable) and arg not in bound:
                    mult *= model.universe_size(arg.sort)
            selector = step.selector
            if selector is None:
                mult *= fan
            elif isinstance(selector, Oid):
                if position == 0 and first:
                    # The probe already applied this selectivity while
                    # restricting the head; do not charge it twice.
                    pass
                elif isinstance(method, Atom):
                    mult *= fan * model.ground_selector_fraction(
                        method, selector
                    )
                else:
                    mult *= fan * model.DEFAULT_FILTER
            elif isinstance(selector, Variable) and selector in bound:
                mult *= fan * model.DEFAULT_FILTER
            else:
                mult *= fan  # unbound selector variable: binds, no filter
        return _clip(mult), _clip(cost), access

    # ------------------------------------------------------------------
    # ordering
    # ------------------------------------------------------------------

    def _simulate(
        self,
        conjuncts: Sequence[ast.Cond],
        order: Sequence[int],
        seed: Set[Variable],
        rows0: float,
        probed: Dict[Variable, ProbeSpec],
    ) -> Tuple[float, float, List[Tuple[int, str, float]]]:
        """Total cost, final rows, and per-entry (index, access, rows)."""
        bound = set(seed)
        rows = rows0
        total = 0.0
        shape: List[Tuple[int, str, float]] = []
        for index in order:
            cond = conjuncts[index]
            mult, unit, access = self._estimate(cond, bound, probed)
            total = _clip(total + rows * unit)
            rows = _clip(max(rows, 1.0) * mult)
            bound |= set(ast.cond_variables(cond))
            shape.append((index, access, rows))
        return total, rows, shape

    def _order(
        self,
        conjuncts: Sequence[ast.Cond],
        seed: Set[Variable],
        rows0: float,
        probed: Dict[Variable, ProbeSpec],
    ) -> Tuple[List[int], str]:
        n = len(conjuncts)
        if n <= 1:
            return list(range(n)), "none"
        if n <= EXHAUSTIVE_LIMIT:
            best: Optional[Tuple[float, float, Tuple[int, ...]]] = None
            for perm in itertools.permutations(range(n)):
                total, rows, _shape = self._simulate(
                    conjuncts, perm, seed, rows0, probed
                )
                key = (total, rows, perm)
                if best is None or key < best:
                    best = key
            assert best is not None
            return list(best[2]), "exhaustive"
        remaining = list(range(n))
        bound = set(seed)
        rows = rows0
        order: List[int] = []
        while remaining:
            def score(i: int) -> Tuple[float, float]:
                mult, unit, _access = self._estimate(
                    conjuncts[i], bound, probed
                )
                return (max(rows, 1.0) * mult, unit)

            chosen = min(remaining, key=score)
            remaining.remove(chosen)
            mult, _unit, _access = self._estimate(
                conjuncts[chosen], bound, probed
            )
            rows = _clip(max(rows, 1.0) * mult)
            bound |= set(ast.cond_variables(conjuncts[chosen]))
            order.append(chosen)
        return order, "greedy"

    # ------------------------------------------------------------------
    # pointer-join fusion
    # ------------------------------------------------------------------

    @staticmethod
    def _bare_var(operand: ast.Operand) -> Optional[Variable]:
        if (
            isinstance(operand, ast.PathOperand)
            and operand.path.is_trivial
            and isinstance(operand.path.head, Variable)
        ):
            return operand.path.head
        return None

    @staticmethod
    def _backward_head(operand: ast.Operand) -> Optional[Variable]:
        """Head variable of a single-hop ``X.m`` path the inverted index
        on ``m`` can answer for; None when the shape does not apply."""
        if not isinstance(operand, ast.PathOperand):
            return None
        path = operand.path
        if len(path.steps) != 1 or not isinstance(path.head, Variable):
            return None
        step = path.steps[0]
        if step.selector is not None:
            return None
        if not isinstance(step.method_expr.method, Atom):
            return None
        if not all(isinstance(a, Oid) for a in step.method_expr.args):
            return None
        return path.head

    def _pointer_choice(
        self,
        cond: ast.Cond,
        from_decls: Dict[Variable, ast.FromDecl],
        occurrences: Dict[Variable, int],
        fused: Set[Variable],
    ) -> Optional[Tuple[Variable, str]]:
        """The (variable, direction) a PointerJoin would bind for *cond*.

        Soundness rules: the fused variable must be a FROM range variable
        over a constant class, must occur in no other conjunct (its scan
        is skipped, so an earlier conjunct must never see it unbound),
        and must not appear on the other side of the equality.
        """
        if not isinstance(cond, ast.Comparison) or cond.op != "=":
            return None
        if cond.lq not in (None, "some") or cond.rq not in (None, "some"):
            return None
        if not isinstance(cond.lhs, ast.PathOperand):
            return None
        if not isinstance(cond.rhs, ast.PathOperand):
            return None

        def fusable(var: Optional[Variable]) -> bool:
            return (
                var is not None
                and var.sort == VarSort.INDIVIDUAL
                and var not in fused
                and occurrences.get(var) == 1
                and var in from_decls
                and isinstance(from_decls[var].cls, Atom)
            )

        # Forward navigation: a bare range variable bound by
        # dereferencing the other side.  When both sides qualify, skip
        # the larger extent.
        forward: List[Tuple[float, str, Variable]] = []
        for mine, other in ((cond.lhs, cond.rhs), (cond.rhs, cond.lhs)):
            var = self._bare_var(mine)
            if not fusable(var) or var in operand_join_vars(other):
                continue
            forward.append(
                (self.model.extent_rows(from_decls[var].cls), str(var), var)
            )
        if forward:
            forward.sort(key=lambda item: (-item[0], item[1]))
            return forward[0][2], "forward"
        # Backward navigation: a single-hop path head bound by probing
        # the inverted index with the other side's values.  Only chosen
        # when the index answers reverse lookups exactly today —
        # otherwise the operator would fall back on every execution.
        for mine, other in ((cond.lhs, cond.rhs), (cond.rhs, cond.lhs)):
            var = self._backward_head(mine)
            if not fusable(var) or var in operand_join_vars(other):
                continue
            method = mine.path.steps[0].method_expr.method
            if not self.store.index_is_complete_for(method):
                continue
            return var, "backward"
        return None

    def _fuse_pointers(
        self,
        query: ast.Query,
        plan: CostPlan,
        conjuncts: Sequence[ast.Cond],
        order: Sequence[int],
    ) -> None:
        """Rewrite fusable equality conjuncts into pointer navigation.

        A conjunct equating an OID-valued path with a range variable can
        bind that variable by following stored references instead of
        hash-joining against the class extent.  The fused variable's
        FROM entry is re-marked ``"pointer-fused"`` (the factored
        lowering skips its scan) and the conjunct becomes a
        ``join_strategy="pointer"`` entry.  Everything stays advisory:
        the PointerJoin operator re-checks its preconditions at runtime
        and falls back to scan + merge semantics bit-identically.
        """
        if self.pointer_mode == "off" or not order:
            return
        from_decls = {decl.var: decl for decl in query.from_}
        occurrences: Dict[Variable, int] = {}
        for cond in conjuncts:
            for var in set(ast.cond_variables(cond)):
                occurrences[var] = occurrences.get(var, 0) + 1
        fused: Set[Variable] = set()
        n_from = len(query.from_)
        from_position = {decl.var: i for i, decl in enumerate(query.from_)}
        for position, index in enumerate(order):
            cond = conjuncts[index]
            entry = plan.entries[n_from + position]
            if entry.join_strategy not in ("hash", "semi"):
                continue
            choice = self._pointer_choice(
                cond, from_decls, occurrences, fused
            )
            if choice is None:
                continue
            var, direction = choice
            if (
                self.pointer_mode == "auto"
                and self.model.extent_rows(from_decls[var].cls)
                < self.MIN_POINTER_EXTENT
            ):
                continue
            fused.add(var)
            from_entry = plan.entries[from_position[var]]
            from_entry.access_path = "pointer-fused"
            from_entry.detail = f"fused into {entry.label}"
            entry.join_strategy = "pointer"
            entry.access_path = f"pointer-{direction}"
            entry.pointer_var = var
            entry.pointer_direction = direction
            entry.detail = f"{direction} navigation binds {var}"

    # ------------------------------------------------------------------
    # the public entry point
    # ------------------------------------------------------------------

    def plan(
        self,
        query: ast.Query,
        range_classes: Optional[Dict[Variable, List[Atom]]] = None,
    ) -> CostPlan:
        """Cost the query: join order, access paths, probes, estimates.

        *range_classes* carries the Theorem 6.1 range assignment (when the
        query is strictly well-typed) so restricted ranges can be costed
        as an access path; pass None outside the strict fragment.
        """
        plan = CostPlan()
        model = self.model
        conjuncts = (
            _flatten(query.where) if self.applicable(query) else []
        )
        probes = self.find_probes(conjuncts)

        # FROM stage: estimate each declaration's candidate set.
        seed: Set[Variable] = set()
        rows = 1.0
        scan_rows: Dict[Variable, float] = {}
        for decl in query.from_:
            if isinstance(decl.cls, Variable):
                scan_rows[decl.var] = float(model.universe_size(VarSort.INDIVIDUAL))
            else:
                scan_rows[decl.var] = model.extent_rows(decl.cls)

        probes, auto_enabled = self._usable_probes(probes, scan_rows)
        probed = {spec.var: spec for spec in probes}

        for decl in query.from_:
            seed.add(decl.var)
            if isinstance(decl.cls, Variable):
                seed.add(decl.cls)
            base = scan_rows[decl.var]
            access = "extent-scan"
            detail = ""
            spec = probed.get(decl.var)
            if spec is not None:
                probe_rows = max(
                    model.ground_selector_rows(spec.method, spec.value), 0.5
                )
                if probe_rows < base:
                    base = probe_rows
                access = "index-probe"
                detail = spec.render()
            elif range_classes and decl.var in range_classes:
                classes = range_classes[decl.var]
                if classes:
                    restricted = min(
                        model.extent_rows(cls) for cls in classes
                    )
                    if restricted < base:
                        base = restricted
                        access = "restricted-range"
                        detail = "Thm 6.1: " + " ∩ ".join(
                            cls.name for cls in classes
                        )
            rows = _clip(rows * max(base, 1.0))
            cls_name = str(decl.cls)
            plan.entries.append(
                PlanEntry(
                    kind="from",
                    label=f"FROM {cls_name} {decl.var}",
                    access_path=access,
                    estimated_rows=rows,
                    detail=detail,
                )
            )

        order, search = self._order(conjuncts, seed, rows, probed)
        _total, final_rows, shape = self._simulate(
            conjuncts, order, seed, rows, probed
        )
        for index, access, entry_rows in shape:
            cond = conjuncts[index]
            plan.entries.append(
                PlanEntry(
                    kind="cond",
                    label=_shorten(str(cond)),
                    access_path=access,
                    estimated_rows=entry_rows,
                    join_strategy=join_strategy_of(cond),
                )
            )
        self._fuse_pointers(query, plan, conjuncts, order)
        if conjuncts:
            ordered = [conjuncts[i] for i in order]
            plan.ordered_where = (
                ordered[0]
                if len(ordered) == 1
                else ast.AndCond(tuple(ordered))
            )
            plan.estimated_result_rows = final_rows
        else:
            plan.estimated_result_rows = rows if query.from_ else 1.0
        plan.probes = tuple(probes)
        plan.auto_enabled = tuple(auto_enabled)
        plan.search = search
        # Stamped last: auto-enabling an index above advances the
        # ticket; stamping earlier would make this very plan look stale
        # on its first run.
        plan.ticket = self.store.ticket
        return plan

    def apply(self, query: ast.Query, plan: CostPlan) -> ast.Query:
        """The query with its WHERE rewritten to the plan's join order."""
        if plan.ordered_where is None:
            return query
        return ast.Query(
            select=query.select,
            from_=query.from_,
            where=plan.ordered_where,
            oid_vars=query.oid_vars,
            oid_scope=query.oid_scope,
        )
