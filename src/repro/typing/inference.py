"""Signature inference: discovering schema from stored data.

The §6 typing framework assumes declared signatures; databases built
bottom-up (or loaded from untyped dumps) often have none.  This module
proposes signatures by inspecting a class's instances:

* for each method observed on the instances, the result class is the most
  specific class common to every observed value (``Object`` when nothing
  narrower exists);
* arrow kind is set-valued iff any instance stores a set cell;
* argument positions are typed the same way from the observed argument
  oids.

Inference is conservative and deterministic; ``install_inferred`` declares
the proposals (skipping methods that already carry a declared signature on
the class), after which the liberal/strict analyses and the Theorem 6.1
optimizer work on previously untyped data.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from repro.datamodel.hierarchy import OBJECT_CLASS
from repro.datamodel.signatures import Signature, TypeExpr
from repro.datamodel.store import ObjectStore
from repro.oid import Atom, Oid

__all__ = ["InferredSignature", "infer_signatures", "install_inferred"]


@dataclass(frozen=True)
class InferredSignature:
    """A proposed signature plus how much evidence supports it."""

    cls: Atom
    signature: Signature
    support: int  # number of instances carrying the method

    def __str__(self) -> str:
        return f"{self.cls}: {self.signature}  (support={self.support})"


def _common_class(store: ObjectStore, values: Sequence[Oid]) -> Atom:
    """The most specific class every value belongs to."""
    hierarchy = store.hierarchy
    common: Optional[FrozenSet[Atom]] = None
    for value in values:
        classes = frozenset(
            c for c in store.classes_of(value) if c in hierarchy
        )
        common = classes if common is None else common & classes
    if not common:
        return OBJECT_CLASS
    # minimal (most specific) element; name-ordered for determinism.
    minimal = [
        c
        for c in common
        if not any(
            other != c and hierarchy.is_subclass(other, c)
            for other in common
        )
    ]
    return sorted(minimal, key=lambda a: a.name)[0]


def infer_signatures(
    store: ObjectStore, cls: Atom, min_support: int = 1
) -> List[InferredSignature]:
    """Propose signatures for *cls* from its direct instances' cells."""
    store.hierarchy.require(cls)
    # (method, arity) -> (value oids, per-position arg oids, set?, support)
    observed: Dict[Tuple[Atom, int], Dict[str, object]] = {}
    records = dict(store.records())
    for obj in sorted(store.extent(cls, direct=True), key=str):
        cells = records.get(obj)
        if cells is None:
            continue
        seen_here = set()
        for (method, args), cell in cells.items():
            key = (method, len(args))
            entry = observed.setdefault(
                key,
                {"values": [], "args": [[] for _ in args], "set": False,
                 "support": 0},
            )
            entry["values"].extend(cell.as_set())
            for position, arg in enumerate(args):
                entry["args"][position].append(arg)
            entry["set"] = entry["set"] or cell.set_valued
            if key not in seen_here:
                entry["support"] += 1
                seen_here.add(key)
    proposals: List[InferredSignature] = []
    for (method, arity), entry in sorted(
        observed.items(), key=lambda item: (item[0][0].name, item[0][1])
    ):
        if entry["support"] < min_support or not entry["values"]:
            continue
        result = _common_class(store, entry["values"])
        arg_classes = tuple(
            _common_class(store, position_args) if position_args
            else OBJECT_CLASS
            for position_args in entry["args"]
        )
        signature = Signature(
            method,
            TypeExpr(cls, arg_classes, result, bool(entry["set"])),
        )
        proposals.append(
            InferredSignature(cls=cls, signature=signature,
                              support=int(entry["support"]))
        )
    return proposals


def install_inferred(
    store: ObjectStore, cls: Atom, min_support: int = 1
) -> List[InferredSignature]:
    """Declare the inferred signatures (skipping already-declared methods)."""
    installed: List[InferredSignature] = []
    for proposal in infer_signatures(store, cls, min_support):
        method = proposal.signature.method
        if store.declared_signatures(cls, method):
            continue
        type_expr = proposal.signature.type_expr
        store.declare_signature(
            cls,
            method,
            type_expr.result,
            args=list(type_expr.args),
            set_valued=type_expr.set_valued,
        )
        installed.append(proposal)
    return installed
