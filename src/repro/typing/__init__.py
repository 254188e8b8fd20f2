"""The XSQL type system (paper §6).

Implements the full spectrum of well-typing notions:

* **liberal well-typing** — some valid, complete type assignment gives
  every variable a non-empty range (§6.2);
* **strict well-typing** — additionally, an execution plan exists that is
  *coherent* with the assignment: every method's arguments are bound to
  appropriately-typed oids by the time it is evaluated;
* **well-typing with exemptions** — selected argument positions are
  excused from the coherence test, interpolating between the liberal
  (everything exempt) and conservative (nothing exempt) extremes.

:func:`analyze` produces a :class:`~repro.typing.analysis.TypingReport`
for a query; :mod:`repro.typing.optimizer` exploits a coherent pair per
Theorem 6.1 (``Session.query(text, plan="typed")``): :func:`reorder`
follows the coherent plan and :func:`extent_restrictions` restricts each
v-selector's instantiations to the extent of its range.
"""

from repro.typing.occurrences import TypedQuery, build_typed_query
from repro.typing.ranges import Range
from repro.typing.assignments import (
    TypeAssignment,
    candidate_type_exprs,
    is_valid_assignment,
)
from repro.typing.plans import ExecutionPlan, all_plans
from repro.typing.liberal import find_liberal_assignment, is_liberally_well_typed
from repro.typing.strict import (
    Exemptions,
    find_coherent_pair,
    is_coherent,
    is_strictly_well_typed,
    minimal_exemptions,
)
from repro.typing.analysis import TypingReport, analyze
from repro.typing.optimizer import extent_restrictions, range_classes, reorder
from repro.typing.inference import (
    InferredSignature,
    infer_signatures,
    install_inferred,
)

__all__ = [
    "TypedQuery",
    "build_typed_query",
    "Range",
    "TypeAssignment",
    "candidate_type_exprs",
    "is_valid_assignment",
    "ExecutionPlan",
    "all_plans",
    "find_liberal_assignment",
    "is_liberally_well_typed",
    "Exemptions",
    "find_coherent_pair",
    "is_coherent",
    "is_strictly_well_typed",
    "minimal_exemptions",
    "TypingReport",
    "analyze",
    "extent_restrictions",
    "range_classes",
    "reorder",
    "InferredSignature",
    "infer_signatures",
    "install_inferred",
]
