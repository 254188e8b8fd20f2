"""Execution options: one frozen record for every knob the engine has.

Historically ``Session.prepare()``/``query()`` grew loose keyword
arguments one at a time (``plan=``, ``engine=``, ``join_mode=``).
:class:`ExecutionOptions` gathers them — plus the ``pointer_join``
policy — into a single frozen dataclass accepted uniformly by
:meth:`Session.prepare`, :meth:`Session.query`,
:meth:`CompiledQuery.explain`, the REPL, and the difftest oracle.  The
loose kwargs remain as thin aliases that construct one, and the
statement cache is keyed on :meth:`ExecutionOptions.cache_key`, so two
calls with equivalent options share a compiled entry.  Every knob is
per call.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional, Tuple

from repro.errors import QueryError

__all__ = [
    "ENGINES",
    "JOIN_MODES",
    "PLAN_MODES",
    "POINTER_JOIN_MODES",
    "ExecutionOptions",
]

#: Planner modes, ordered by ambition (see docs/LANGUAGE.md).
PLAN_MODES = ("none", "greedy", "typed", "cost")

#: Execution engines: the operator tree vs the §3.4 naive evaluator.
ENGINES = ("reference", "naive")

#: Join strategies: ``"hash"`` (factored hash/semi joins under
#: ``plan="cost"``) or ``"nested"`` (merged, per-binding evaluation).
JOIN_MODES = ("hash", "nested")

#: Pointer-join fusion policy for ``plan="cost"`` + ``join_mode="hash"``:
#: ``"auto"`` fuses an OID-equality conjunct into direct reference
#: navigation when the cost model predicts the skipped extent scan pays,
#: ``"force"`` fuses whenever the shape applies, ``"off"`` never fuses.
POINTER_JOIN_MODES = ("auto", "off", "force")


@dataclass(frozen=True)
class ExecutionOptions:
    """Frozen bundle of execution knobs for one prepared statement.

    ``plan``
        Planner mode: one of :data:`PLAN_MODES`.
    ``engine``
        ``"reference"`` (the physical-operator tree) or ``"naive"``
        (the §3.4 substitution-space evaluator).
    ``join_mode``
        ``"hash"`` (default) runs ``plan="cost"`` through the factored
        set-at-a-time operators — equality conjuncts between disjoint
        path operands become hash, semi or pointer joins; ``"nested"``
        merges the whole stream at every operator.  Results are
        identical either way.
    ``pointer_join``
        Pointer-join fusion policy (``"auto"``/``"off"``/``"force"``).
        Under ``plan="cost"`` with the factored executor, an equality
        conjunct between an OID-valued path and a range variable can be
        fused into direct reference navigation (a :class:`PointerJoin`
        operator) that skips the joined class's extent scan.  Results
        are bit-identical in every mode.
    """

    plan: str = "none"
    engine: str = "reference"
    join_mode: str = "hash"
    pointer_join: str = "auto"

    def validate(self) -> "ExecutionOptions":
        if self.plan not in PLAN_MODES:
            raise QueryError(
                f"unknown plan mode {self.plan!r}; choose from {PLAN_MODES}"
            )
        if self.engine not in ENGINES:
            raise QueryError(
                f"unknown engine {self.engine!r}; choose from {ENGINES}"
            )
        if self.join_mode not in JOIN_MODES:
            raise QueryError(
                f"unknown join_mode {self.join_mode!r}; "
                f"choose from {JOIN_MODES}"
            )
        if self.pointer_join not in POINTER_JOIN_MODES:
            raise QueryError(
                f"unknown pointer_join {self.pointer_join!r}; "
                f"choose from {POINTER_JOIN_MODES}"
            )
        return self

    def with_overrides(self, **overrides) -> "ExecutionOptions":
        """A copy with the given fields replaced (and re-validated)."""
        return replace(self, **overrides).validate()

    def cache_key(self) -> Tuple:
        """The frozen tuple the statement cache keys compiled entries on."""
        return (
            self.plan,
            self.engine,
            self.join_mode,
            self.pointer_join,
        )

    @classmethod
    def coerce(
        cls,
        options: Optional["ExecutionOptions"] = None,
        **kwargs,
    ) -> "ExecutionOptions":
        """Build options from an explicit record and/or loose kwargs.

        The loose kwargs are the historical API (``plan="cost"``, ...);
        they act as overrides on *options* (or on the defaults).  A
        kwarg left as ``None`` keeps the base value, so callers can
        thread optional CLI flags straight through.
        """
        base = options if options is not None else cls()
        if not isinstance(base, cls):
            raise QueryError(
                f"options must be ExecutionOptions, got {type(base).__name__}"
            )
        overrides = {
            name: value for name, value in kwargs.items() if value is not None
        }
        if overrides:
            base = replace(base, **overrides)
        return base.validate()
