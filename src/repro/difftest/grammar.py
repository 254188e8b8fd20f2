"""Seeded, grammar-driven generation of random well-formed XSQL queries.

The generator is schema-directed: it introspects an
:class:`~repro.datamodel.store.ObjectStore` catalogue into a
:class:`SchemaModel` (classes, visible attribute signatures, extent sizes,
sampled literal values) and then grows queries whose paths follow declared
signatures, so most queries return non-empty answers instead of dying on
the first hop.

Design constraints, chosen so every engine of the oracle can run the
output:

* **Range restriction.**  Variables appear in a *binding* position (a
  FROM declaration or a path selector of an earlier conjunct) before any
  comparison uses them; comparison operand paths carry no fresh
  variables.  This keeps the production evaluator from enumerating sort
  universes and keeps the F-logic translation's builtin atoms ground.
* **Total operators.**  Aggregates are limited to ``count``/``sum``
  (total on the empty set); ``avg``/``min``/``max`` raise on empty sets,
  which would make the observable outcome depend on evaluation order.
* **No side effects.**  ``UPDATE`` conjuncts, object-creating queries,
  and path variables (``*Y``) are never generated; the first two mutate,
  the last is outside both the naive and the F-logic fragments.

Determinism: query *i* of seed *s* is drawn from ``random.Random(f"{s}:{i}")``,
so any query can be regenerated from ``(seed, index)`` alone.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.datamodel.store import ObjectStore
from repro.errors import XsqlError
from repro.oid import Atom, Oid, Value, Variable
from repro.xsql import ast, build

__all__ = ["AttrInfo", "SchemaModel", "GeneratorConfig", "QueryGenerator"]

_NUMERAL_CLASSES = {"Numeral", "Integer", "Real"}
_STRING_CLASSES = {"String"}


@dataclass(frozen=True)
class AttrInfo:
    """One visible 0-ary attribute of a class."""

    name: str
    result: str
    set_valued: bool

    @property
    def is_numeric(self) -> bool:
        return self.result in _NUMERAL_CLASSES

    @property
    def is_string(self) -> bool:
        return self.result in _STRING_CLASSES

    @property
    def is_scalar_literal(self) -> bool:
        return self.is_numeric or self.is_string


class SchemaModel:
    """The generator's view of a store: classes, attributes, samples."""

    def __init__(
        self,
        attrs: Dict[str, List[AttrInfo]],
        extent_sizes: Dict[str, int],
        samples: Dict[str, List[Oid]],
    ) -> None:
        #: class name -> visible (inherited) 0-ary attribute signatures
        self.attrs = attrs
        #: class name -> number of instances (incl. subclass instances)
        self.extent_sizes = extent_sizes
        #: attribute name -> sampled stored values (literals and oids)
        self.samples = samples

    @classmethod
    def from_store(cls, store: ObjectStore, max_samples: int = 12) -> "SchemaModel":
        attrs: Dict[str, List[AttrInfo]] = {}
        extent_sizes: Dict[str, int] = {}
        for class_atom in store.hierarchy.classes():
            name = class_atom.name
            if name == "Object":
                continue
            seen: Dict[str, AttrInfo] = {}
            for signature in store.signatures_of(class_atom):
                if signature.arity != 0:
                    continue
                info = AttrInfo(
                    name=signature.method.name,
                    result=signature.result.name,
                    set_valued=signature.set_valued,
                )
                # Keep the most specific declaration per attribute name.
                seen.setdefault(info.name, info)
            attrs[name] = sorted(seen.values(), key=lambda a: a.name)
            extent_sizes[name] = len(store.extent(class_atom))
        samples: Dict[str, List[Oid]] = {}
        for _owner, cells in store.records():
            for (method, args), cell in cells.items():
                if args:
                    continue
                bucket = samples.setdefault(method.name, [])
                for value in sorted(cell.as_set(), key=str):
                    if len(bucket) < max_samples and value not in bucket:
                        bucket.append(value)
        return cls(attrs, extent_sizes, samples)

    # ------------------------------------------------------------------

    def populated_classes(self) -> List[str]:
        """Classes with a non-empty extent and at least one attribute."""
        return sorted(
            name
            for name, infos in self.attrs.items()
            if infos and self.extent_sizes.get(name, 0) > 0
        )

    def class_names(self) -> List[str]:
        return sorted(self.attrs)

    def attrs_of(self, cls: str) -> List[AttrInfo]:
        return self.attrs.get(cls, [])


@dataclass(frozen=True)
class GeneratorConfig:
    """Knobs of the query grammar."""

    max_path_depth: int = 3
    max_from: int = 2
    max_conjuncts: int = 3
    max_select: int = 2
    #: probability that a generated query has a WHERE clause at all
    p_where: float = 0.9
    #: probability that a FROM-less schema-browsing query is generated
    p_schema_query: float = 0.05
    #: per-conjunct kind weights (renormalized over the applicable kinds)
    weights: Tuple[Tuple[str, float], ...] = (
        ("path", 0.30),
        ("numeric", 0.22),
        ("join", 0.12),
        ("schema", 0.10),
        ("aggregate", 0.10),
        ("membership", 0.06),
        ("quantified", 0.06),
        ("negation", 0.02),
        ("disjunction", 0.02),
    )

    def __post_init__(self) -> None:
        for knob in ("max_path_depth", "max_from", "max_conjuncts", "max_select"):
            if getattr(self, knob) < 1:
                raise XsqlError(f"GeneratorConfig.{knob} must be >= 1")

    @classmethod
    def joins(cls) -> "GeneratorConfig":
        """A preset biased toward explicit joins (examples (12)–(13)).

        Every query gets a WHERE clause, up to three FROM declarations
        feed multi-variable equality comparisons, and the conjunct mix
        leans heavily on the shapes the set-at-a-time executor turns
        into hash/semi joins — plus enough quantified/membership salt to
        keep its nested-loop fallback under fire.
        """
        return cls(
            max_from=3,
            p_where=1.0,
            p_schema_query=0.0,
            weights=(
                ("join", 0.55),
                ("path", 0.20),
                ("numeric", 0.10),
                ("quantified", 0.06),
                ("membership", 0.05),
                ("aggregate", 0.04),
            ),
        )


@dataclass
class _Scope:
    """Bound variables and their (syntactic) classes while generating."""

    classes: Dict[Variable, str] = field(default_factory=dict)
    fresh_counter: int = 0

    def bind(self, var: Variable, cls: str) -> None:
        self.classes[var] = cls

    def bound_vars(self) -> List[Variable]:
        return list(self.classes)

    def fresh_var(self) -> Variable:
        self.fresh_counter += 1
        return build.ivar(f"R{self.fresh_counter}")


class QueryGenerator:
    """Draws random well-formed queries over a :class:`SchemaModel`."""

    _FROM_VARS = ("X", "Y", "Z", "X1", "Y1")

    def __init__(
        self,
        schema: SchemaModel,
        config: GeneratorConfig = GeneratorConfig(),
        seed: int = 0,
    ) -> None:
        self.schema = schema
        self.config = config
        self.seed = seed

    # ------------------------------------------------------------------

    def generate(self, index: int) -> ast.Query:
        """The *index*-th query of this seed (deterministic)."""
        rng = random.Random(f"{self.seed}:{index}")
        if rng.random() < self.config.p_schema_query:
            return self._schema_query(rng)
        return self._data_query(rng)

    def generate_many(self, count: int, start: int = 0) -> List[ast.Query]:
        return [self.generate(start + i) for i in range(count)]

    # ------------------------------------------------------------------
    # schema-browsing queries (FROM-less, class variables)
    # ------------------------------------------------------------------

    def _schema_query(self, rng: random.Random) -> ast.Query:
        classes = self.schema.class_names()
        anchor = rng.choice(classes)
        cls_var = build.cvar("C1")
        if rng.random() < 0.5:
            cond = build.schema_cond("subclassOf", Atom(anchor), cls_var)
        else:
            cond = build.schema_cond("subclassOf", cls_var, Atom(anchor))
        return build.query(select=[cls_var], where=cond)

    # ------------------------------------------------------------------
    # data queries
    # ------------------------------------------------------------------

    def _data_query(self, rng: random.Random) -> ast.Query:
        scope = _Scope()
        populated = self.schema.populated_classes()
        n_from = rng.randint(1, self.config.max_from)
        decls = []
        for var_name in self._FROM_VARS[:n_from]:
            cls = rng.choice(populated)
            var = build.ivar(var_name)
            scope.bind(var, cls)
            decls.append(build.from_decl(cls, var))

        conjuncts: List[ast.Cond] = []
        if rng.random() < self.config.p_where:
            n_conj = rng.randint(1, self.config.max_conjuncts)
            for _ in range(n_conj):
                cond = self._condition(rng, scope)
                if cond is not None:
                    conjuncts.append(cond)

        select = self._select_items(rng, scope)
        where = build.conj(*conjuncts) if conjuncts else None
        return build.query(select=select, from_=decls, where=where)

    # ------------------------------------------------------------------
    # conditions
    # ------------------------------------------------------------------

    def _condition(
        self, rng: random.Random, scope: _Scope
    ) -> Optional[ast.Cond]:
        kinds = [k for k, _ in self.config.weights]
        weights = [w for _, w in self.config.weights]
        kind = rng.choices(kinds, weights=weights, k=1)[0]
        maker = {
            "path": self._path_cond,
            "numeric": self._numeric_comparison,
            "join": self._join_comparison,
            "schema": self._schema_cond,
            "aggregate": self._aggregate_comparison,
            "membership": self._membership_comparison,
            "quantified": self._quantified_comparison,
            "negation": self._negation,
            "disjunction": self._disjunction,
        }[kind]
        cond = maker(rng, scope)
        if cond is None:
            # Fall back to the always-applicable kind.
            cond = self._path_cond(rng, scope)
        return cond

    def _anchor(self, rng: random.Random, scope: _Scope) -> Tuple[Variable, str]:
        var = rng.choice(sorted(scope.classes, key=lambda v: v.name))
        return var, scope.classes[var]

    def _walk_attrs(
        self,
        rng: random.Random,
        cls: str,
        depth: int,
        want: Optional[str] = None,
    ) -> Optional[List[AttrInfo]]:
        """A random attribute chain from *cls*, optionally ending at a
        numeric/string/set-valued attribute (``want``)."""
        chain: List[AttrInfo] = []
        current = cls
        for hop in range(depth):
            infos = self.schema.attrs_of(current)
            if not infos:
                break
            last_hop = hop == depth - 1
            if last_hop and want == "numeric":
                candidates = [a for a in infos if a.is_numeric]
            elif last_hop and want == "string":
                candidates = [a for a in infos if a.is_string]
            elif last_hop and want == "set":
                candidates = [a for a in infos if a.set_valued]
            else:
                candidates = infos
            if not candidates:
                # Try to keep walking through an object-valued attribute.
                candidates = [
                    a for a in infos if a.result in self.schema.attrs
                ]
                if not candidates or last_hop:
                    return None
            chain.append(rng.choice(candidates))
            current = chain[-1].result
        if not chain:
            return None
        if want == "numeric" and not chain[-1].is_numeric:
            return None
        if want == "string" and not chain[-1].is_string:
            return None
        if want == "set" and not chain[-1].set_valued:
            return None
        return chain

    def _chain_path(
        self,
        var: Variable,
        chain: Sequence[AttrInfo],
        tail_selector: Optional[object] = None,
    ) -> ast.PathExpr:
        steps = [build.step(info.name) for info in chain[:-1]]
        steps.append(build.step(chain[-1].name, tail_selector))
        return ast.PathExpr(head=var, steps=tuple(steps))

    def _literal_for(
        self, rng: random.Random, attr: AttrInfo
    ) -> Optional[Oid]:
        samples = [
            v
            for v in self.schema.samples.get(attr.name, [])
            if isinstance(v, Value)
        ]
        if attr.is_numeric:
            numeric = [
                v
                for v in samples
                if isinstance(v.value, (int, float))
                and not isinstance(v.value, bool)
            ]
            if numeric and rng.random() < 0.8:
                base = rng.choice(numeric).value
                # The operand grammar has no unary minus, so keep
                # jittered literals non-negative to stay parseable.
                return Value(max(0, int(base) + rng.choice((-5, -1, 0, 0, 1, 7))))
            return Value(rng.randint(0, 100))
        if attr.is_string:
            if samples and rng.random() < 0.8:
                return rng.choice(samples)
            return Value("nosuchvalue")
        return None

    # -- condition kinds ------------------------------------------------

    def _path_cond(
        self, rng: random.Random, scope: _Scope
    ) -> Optional[ast.Cond]:
        var, cls = self._anchor(rng, scope)
        depth = rng.randint(1, self.config.max_path_depth)
        chain = self._walk_attrs(rng, cls, depth)
        if chain is None:
            return None
        tail = chain[-1]
        selector: Optional[object] = None
        roll = rng.random()
        if roll < 0.45:
            # Bind a fresh variable at the tail (available to later
            # conjuncts and SELECT — this is how joins chain).
            fresh = scope.fresh_var()
            scope.bind(fresh, tail.result)
            selector = fresh
        elif roll < 0.70 and tail.is_scalar_literal:
            selector = self._literal_for(rng, tail)
        return build.path_cond(self._chain_path(var, chain, selector))

    def _numeric_comparison(
        self, rng: random.Random, scope: _Scope
    ) -> Optional[ast.Cond]:
        var, cls = self._anchor(rng, scope)
        chain = self._walk_attrs(
            rng, cls, rng.randint(1, self.config.max_path_depth), "numeric"
        )
        if chain is None:
            return None
        op = rng.choice(("=", "!=", "<", "<=", ">", ">="))
        literal = self._literal_for(rng, chain[-1])
        return build.compare(self._chain_path(var, chain), op, literal)

    def _quantified_comparison(
        self, rng: random.Random, scope: _Scope
    ) -> Optional[ast.Cond]:
        var, cls = self._anchor(rng, scope)
        chain = self._walk_attrs(
            rng, cls, rng.randint(1, self.config.max_path_depth), "numeric"
        )
        if chain is None:
            return None
        op = rng.choice(("<", "<=", ">", ">=", "=", "!="))
        lq = rng.choice(("some", "all", None))
        rq = rng.choice(("some", "all", None)) if lq is None else None
        literal = self._literal_for(rng, chain[-1])
        return build.compare(
            self._chain_path(var, chain), op, literal, lq=lq, rq=rq
        )

    def _join_comparison(
        self, rng: random.Random, scope: _Scope
    ) -> Optional[ast.Cond]:
        """Two paths compared on equality — an explicit value join."""
        bound = sorted(scope.classes.items(), key=lambda kv: kv[0].name)
        rng.shuffle(bound)
        for (lvar, lcls) in bound:
            for (rvar, rcls) in bound:
                lchain = self._walk_attrs(rng, lcls, rng.randint(1, 2))
                rchain = self._walk_attrs(rng, rcls, rng.randint(1, 2))
                if lchain is None or rchain is None:
                    continue
                if lchain[-1].result != rchain[-1].result:
                    continue
                if (lvar, [a.name for a in lchain]) == (
                    rvar,
                    [a.name for a in rchain],
                ):
                    continue  # trivially reflexive
                op = "=" if rng.random() < 0.8 else "!="
                return build.compare(
                    self._chain_path(lvar, lchain),
                    op,
                    self._chain_path(rvar, rchain),
                    rq="some" if rng.random() < 0.5 else None,
                )
        return None

    def _schema_cond(
        self, rng: random.Random, scope: _Scope
    ) -> Optional[ast.Cond]:
        classes = self.schema.class_names()
        if rng.random() < 0.5:
            var, _cls = self._anchor(rng, scope)
            return build.schema_cond("instanceOf", var, rng.choice(classes))
        left, right = rng.choice(classes), rng.choice(classes)
        return build.schema_cond("subclassOf", Atom(left), Atom(right))

    def _aggregate_comparison(
        self, rng: random.Random, scope: _Scope
    ) -> Optional[ast.Cond]:
        var, cls = self._anchor(rng, scope)
        if rng.random() < 0.6:
            chain = self._walk_attrs(rng, cls, 1, "set")
            fn = "count"
        else:
            chain = self._walk_attrs(rng, cls, rng.randint(1, 2), "numeric")
            fn = rng.choice(("count", "sum"))
        if chain is None:
            return None
        op = rng.choice((">", ">=", "<", "<=", "="))
        bound = rng.randint(0, 4) if fn == "count" else rng.randint(0, 200000)
        return build.compare(
            build.agg(fn, self._chain_path(var, chain)), op, bound
        )

    def _membership_comparison(
        self, rng: random.Random, scope: _Scope
    ) -> Optional[ast.Cond]:
        var, cls = self._anchor(rng, scope)
        chain = self._walk_attrs(
            rng, cls, rng.randint(1, self.config.max_path_depth), "string"
        )
        if chain is None:
            return None
        pool = [
            self._literal_for(rng, chain[-1])
            for _ in range(rng.randint(1, 3))
        ]
        values = tuple(dict.fromkeys(v for v in pool if v is not None))
        if not values:
            return None
        return build.compare(
            self._chain_path(var, chain), "=", ast.SetLitOperand(values)
        )

    def _negation(
        self, rng: random.Random, scope: _Scope
    ) -> Optional[ast.Cond]:
        inner = self._numeric_comparison(rng, scope) or self._schema_cond(
            rng, scope
        )
        if inner is None:
            return None
        return build.neg(inner)

    def _disjunction(
        self, rng: random.Random, scope: _Scope
    ) -> Optional[ast.Cond]:
        left = self._numeric_comparison(rng, scope)
        right = self._numeric_comparison(rng, scope) or self._schema_cond(
            rng, scope
        )
        if left is None or right is None or left == right:
            return None
        return build.disj(left, right)

    # ------------------------------------------------------------------
    # SELECT
    # ------------------------------------------------------------------

    def _select_items(
        self, rng: random.Random, scope: _Scope
    ) -> List[ast.SelectItem]:
        items: List[ast.SelectItem] = []
        n_items = rng.randint(1, self.config.max_select)
        candidates = sorted(scope.classes, key=lambda v: v.name)
        for _ in range(n_items):
            var = rng.choice(candidates)
            if rng.random() < 0.4:
                chain = self._walk_attrs(
                    rng, scope.classes[var], rng.randint(1, 2)
                )
                if chain is not None:
                    items.append(
                        build.select_item(self._chain_path(var, chain))
                    )
                    continue
            items.append(build.select_item(var))
        # Deduplicate identical items (they add no information).
        unique = list(dict.fromkeys(items))
        return unique
