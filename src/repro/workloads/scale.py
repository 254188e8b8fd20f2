"""Deterministic million-object populations of the Figure 1 schema.

:mod:`repro.workloads.generator` builds the small, densely connected
databases the correctness suites and paper benchmarks use.  This module
is its scale-out sibling — the ROADMAP's measurement surface for
"production scale": a seeded, parameterized generator that populates the
Figure 1 schema from 10^3 to 10^6+ objects with

* a **configurable class mix** — the object budget is split between
  people, vehicles (each costing vehicle + drivetrain + engine),
  companies (each costing 1 + ``divisions_per_company``), and addresses;
* **Zipf-skewed fan-out** on the reference-valued relations — a few
  companies manufacture most vehicles (``Manufacturer``), a few
  divisions employ most employees (``Division.Employees``, the
  works-for edge), a few vehicles are owned by many people
  (``OwnedVehicles``, the drives edge), and residences cluster on a few
  addresses — so joins and path walks see realistic hot keys instead of
  uniform noise;
* **batched store writes** — set-valued relations are accumulated in
  plain dicts and written with one ``set_attr_set`` per owner, riding
  the store's memoized arrow-kind check, so generation itself runs at
  bulk-load speed (ingest throughput is one of the numbers
  ``benchmarks/bench_scale.py`` tracks).

Everything is reproducible from ``(seed, spec)``: one
:class:`random.Random` drives the whole build, oid names are dense
(``s_p0``, ``s_v17``, ...), and :meth:`ScaleSpec.as_dict` embeds the full
spec in benchmark artifacts so a run is self-describing.  Generated
populations round-trip through the storage codec
(:func:`~repro.storage.encode_store`/:func:`~repro.storage.decode_store`)
bit-identically (``tests/workloads/test_scale.py`` holds them to it).
"""

from __future__ import annotations

import random
from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate
from typing import Dict, List, Optional, Sequence

from repro.datamodel.store import ObjectStore
from repro.errors import XsqlError
from repro.oid import Atom, Oid
from repro.schema.figure1 import build_figure1_schema

__all__ = ["ScaleSpec", "SCALE_TIERS", "ScaleCounts", "generate_scaled"]

_CITIES = (
    "newyork", "austin", "sanfrancisco", "sandiego",
    "boston", "chicago", "seattle", "portland", "denver", "atlanta",
)
_COLORS = ("blue", "red", "white", "black", "green", "silver")
_ENGINE_CLASSES = (
    "TurboEngine", "DieselEngine", "FourStrokeEngine", "TwoStrokeEngine",
)
_FUNCTIONS = ("ops", "sales", "research", "support")


@dataclass(frozen=True)
class ScaleSpec:
    """Size, mix, and skew of one synthetic Figure 1 population.

    ``n_objects`` is the total object budget — people, vehicles (3
    objects each), companies (1 + ``divisions_per_company`` each), and
    addresses all draw from it, so ``n_objects=10_000`` really means ten
    thousand stored objects, whatever the mix.
    """

    n_objects: int = 1_000
    seed: int = 0
    #: Budget shares per object family (renormalized; people take the
    #: remainder, so they absorb rounding).
    vehicle_share: float = 0.30
    company_share: float = 0.02
    address_share: float = 0.03
    #: Fraction of people that are employees (with Salary, FamMembers).
    employee_fraction: float = 0.6
    divisions_per_company: int = 4
    #: Zipf exponent for the skewed fan-out relations; higher is more
    #: skewed, ``0.0`` is uniform.
    zipf_s: float = 1.2
    max_family: int = 4
    max_owned: int = 3

    def __post_init__(self) -> None:
        if self.n_objects < 20:
            raise XsqlError("ScaleSpec.n_objects must be >= 20")
        shares = (self.vehicle_share, self.company_share, self.address_share)
        if any(s < 0 for s in shares) or sum(shares) >= 1.0:
            raise XsqlError(
                "ScaleSpec shares must be non-negative and sum below 1.0 "
                "(people take the remainder)"
            )
        if not 0.0 <= self.employee_fraction <= 1.0:
            raise XsqlError("employee_fraction must be within [0, 1]")
        if self.divisions_per_company < 1:
            raise XsqlError("divisions_per_company must be >= 1")
        if self.zipf_s < 0:
            raise XsqlError("zipf_s must be >= 0")

    # ------------------------------------------------------------------

    def counts(self) -> "ScaleCounts":
        """The exact object counts this spec resolves to."""
        budget = self.n_objects
        addresses = max(4, round(budget * self.address_share))
        per_company = 1 + self.divisions_per_company
        companies = max(
            2, round(budget * self.company_share / per_company)
        )
        vehicles = max(1, round(budget * self.vehicle_share / 3))
        people = budget - addresses - companies * per_company - vehicles * 3
        if people < 1:
            raise XsqlError(
                f"ScaleSpec mix leaves no room for people at "
                f"n_objects={budget}"
            )
        return ScaleCounts(
            people=people,
            employees=int(people * self.employee_fraction),
            companies=companies,
            divisions=companies * self.divisions_per_company,
            vehicles=vehicles,
            addresses=addresses,
        )

    def as_dict(self) -> Dict[str, object]:
        """The spec as plain data (embedded in benchmark artifacts)."""
        return {
            "n_objects": self.n_objects,
            "seed": self.seed,
            "vehicle_share": self.vehicle_share,
            "company_share": self.company_share,
            "address_share": self.address_share,
            "employee_fraction": self.employee_fraction,
            "divisions_per_company": self.divisions_per_company,
            "zipf_s": self.zipf_s,
            "max_family": self.max_family,
            "max_owned": self.max_owned,
            "counts": self.counts().as_dict(),
        }


@dataclass(frozen=True)
class ScaleCounts:
    """Resolved per-family object counts of a :class:`ScaleSpec`."""

    people: int
    employees: int
    companies: int
    divisions: int
    vehicles: int
    addresses: int

    @property
    def total(self) -> int:
        # Each vehicle mints vehicle + drivetrain + engine.
        return (
            self.people
            + self.companies
            + self.divisions
            + self.vehicles * 3
            + self.addresses
        )

    def as_dict(self) -> Dict[str, int]:
        return {
            "people": self.people,
            "employees": self.employees,
            "companies": self.companies,
            "divisions": self.divisions,
            "vehicles": self.vehicles,
            "addresses": self.addresses,
            "total": self.total,
        }


#: Named population tiers the benchmarks and the difftest ``--scale``
#: option use.  ``1m`` only runs behind ``--runslow``.
SCALE_TIERS = {
    "1k": 1_000,
    "10k": 10_000,
    "100k": 100_000,
    "1m": 1_000_000,
}


class _ZipfPicker:
    """Rank-skewed choice over a population: rank 1 is the hot key."""

    def __init__(
        self, population: Sequence[Oid], s: float, rng: random.Random
    ) -> None:
        self.population = population
        self.rng = rng
        weights = [1.0 / ((rank + 1) ** s) for rank in range(len(population))]
        self.cum = list(accumulate(weights))

    def pick(self) -> Oid:
        total = self.cum[-1]
        index = bisect_right(self.cum, self.rng.random() * total)
        return self.population[min(index, len(self.population) - 1)]

    def pick_distinct(self, count: int) -> List[Oid]:
        """Up to *count* distinct skewed picks (bounded retries)."""
        chosen: Dict[Oid, None] = {}
        attempts = 0
        while len(chosen) < count and attempts < 4 * count:
            chosen.setdefault(self.pick())
            attempts += 1
        return list(chosen)


def generate_scaled(
    spec: ScaleSpec, store: Optional[ObjectStore] = None
) -> ObjectStore:
    """Build a Figure 1 population of ``spec.n_objects`` objects.

    Identical specs yield identical stores — same oids, same cells, same
    statistics — which is what makes the scale benchmarks diffable and
    the difftest ``--scale`` runs replayable.
    """
    if store is None:
        store = ObjectStore()
    build_figure1_schema(store)
    rng = random.Random(spec.seed)
    counts = spec.counts()

    addresses: List[Oid] = []
    for index in range(counts.addresses):
        addr = store.create_object(Atom(f"s_a{index}"), ["Address"])
        store.set_attr(addr, "City", _CITIES[index % len(_CITIES)])
        store.set_attr(addr, "Street", f"Street {index}")
        store.set_attr(addr, "State", f"S{index % 50}")
        addresses.append(addr)
    residence_of = _ZipfPicker(addresses, spec.zipf_s, rng)

    # People first (employees form the low prefix of the id space, which
    # makes the works-for and family wiring below cheap and stable).
    people: List[Oid] = []
    employees: List[Oid] = []
    for index in range(counts.people):
        is_employee = index < counts.employees
        cls = "Employee" if is_employee else "Person"
        person = store.create_object(Atom(f"s_p{index}"), [cls])
        store.set_attr(person, "Name", f"P{index}")
        store.set_attr(person, "Age", rng.randint(1, 90))
        store.set_attr(person, "Residence", residence_of.pick())
        people.append(person)
        if is_employee:
            store.set_attr(person, "Salary", rng.randint(15_000, 320_000))
            employees.append(person)

    companies: List[Oid] = []
    divisions: List[Oid] = []
    for cindex in range(counts.companies):
        company = store.create_object(Atom(f"s_c{cindex}"), ["Company"])
        store.set_attr(company, "Name", f"Company{cindex}")
        store.set_attr(company, "Headquarters", residence_of.pick())
        if employees:
            store.set_attr(company, "President", rng.choice(employees))
        owned_divisions: List[Oid] = []
        for dindex in range(spec.divisions_per_company):
            division = store.create_object(
                Atom(f"s_c{cindex}d{dindex}"), ["Division"]
            )
            store.set_attr(division, "Name", f"Div{cindex}_{dindex}")
            store.set_attr(
                division, "Function", _FUNCTIONS[dindex % len(_FUNCTIONS)]
            )
            store.set_attr(division, "Location", residence_of.pick())
            owned_divisions.append(division)
            divisions.append(division)
        store.set_attr_set(company, "Divisions", owned_divisions)
        companies.append(company)

    # works-for: every employee lands in one Zipf-picked division; the
    # per-division member sets are batched into single set writes.
    division_members: Dict[Oid, List[Oid]] = {}
    employer_of = _ZipfPicker(divisions, spec.zipf_s, rng)
    for employee in employees:
        division_members.setdefault(employer_of.pick(), []).append(employee)
    for division, members in division_members.items():
        store.set_attr(division, "Manager", members[0])
        store.set_attr_set(division, "Employees", members)

    # FamMembers/Dependents: small uniform samples (families are local
    # structure, not hot keys).
    for employee in employees:
        family_size = rng.randint(0, spec.max_family)
        if family_size:
            store.set_attr_set(
                employee,
                "FamMembers",
                rng.sample(people, min(family_size, len(people))),
            )
        if rng.random() < 0.3:
            store.set_attr_set(
                employee,
                "Dependents",
                rng.sample(people, min(rng.randint(1, 2), len(people))),
            )

    # Vehicles: Manufacturer is the Zipf-skewed many-to-one edge (a few
    # companies build most vehicles).
    manufacturer_of = _ZipfPicker(companies, spec.zipf_s, rng)
    vehicles: List[Oid] = []
    for vindex in range(counts.vehicles):
        engine = store.create_object(
            Atom(f"s_e{vindex}"),
            [_ENGINE_CLASSES[vindex % len(_ENGINE_CLASSES)]],
        )
        store.set_attr(engine, "HPpower", rng.randint(20, 400))
        store.set_attr(engine, "CCsize", rng.randint(100, 4000))
        store.set_attr(engine, "CylinderN", rng.randint(1, 12))
        drivetrain = store.create_object(
            Atom(f"s_dt{vindex}"), ["VehicleDrivetrain"]
        )
        store.set_attr(drivetrain, "Engine", engine)
        store.set_attr(
            drivetrain, "Transmission", "manual" if vindex % 3 else "auto"
        )
        vehicle = store.create_object(Atom(f"s_v{vindex}"), ["Automobile"])
        store.set_attr(vehicle, "Model", f"Model{vindex % 97}")
        store.set_attr(vehicle, "Color", rng.choice(_COLORS))
        store.set_attr(vehicle, "Drivetrain", drivetrain)
        store.set_attr(vehicle, "Manufacturer", manufacturer_of.pick())
        vehicles.append(vehicle)

    # drives: ownership sets are Zipf-skewed over vehicles (popular
    # models have many owners) and batched one write per person.
    owned_by = _ZipfPicker(vehicles, spec.zipf_s, rng)
    for person in people:
        count = rng.randint(0, spec.max_owned)
        if count:
            owned = owned_by.pick_distinct(count)
            if owned:
                store.set_attr_set(person, "OwnedVehicles", owned)
    return store
