"""Seeded Figure-1-shaped populations, owned by the benchmark.

The benchmark generates its own schema, objects and query constants so
that nothing under ``src/`` can change the workload it measures.  The
population is first built as a plain-Python :class:`Model` (the oracle
the correctness checks are computed from) and then loaded into a store
through the public ``ObjectStore`` API by :func:`load`.

Shape (Kifer/Kim/Sagiv Figure 1): addresses, people (a prefix of whom
are employees with a salary and family members), companies with
divisions, and automobiles each with a drivetrain and an engine.
Residences and vehicle manufacturers are Zipf-skewed, so joins and path
walks see hot keys.
"""

from __future__ import annotations

import random
from bisect import bisect_right
from dataclasses import dataclass, field
from itertools import accumulate
from typing import Dict, List, Sequence, Tuple

CITIES = (
    "newyork", "austin", "sanfrancisco", "sandiego", "boston",
    "chicago", "seattle", "portland", "denver", "atlanta",
)
COLORS = ("blue", "red", "white", "black", "green", "silver")
FUNCTIONS = ("ops", "sales", "research", "support")
ENGINE_CLASSES = (
    "TurboEngine", "DieselEngine", "FourStrokeEngine", "TwoStrokeEngine",
)

#: (class, superclasses) in declaration order.
CLASSES: Tuple[Tuple[str, Tuple[str, ...]], ...] = (
    ("Address", ()),
    ("Vehicle", ()),
    ("Automobile", ("Vehicle",)),
    ("VehicleDrivetrain", ()),
    ("PistonEngine", ()),
    ("TwoStrokeEngine", ("PistonEngine",)),
    ("FourStrokeEngine", ("PistonEngine",)),
    ("TurboEngine", ("FourStrokeEngine",)),
    ("DieselEngine", ("FourStrokeEngine",)),
    ("Person", ()),
    ("Employee", ("Person",)),
    ("Company", ()),
    ("Division", ()),
)

#: (class, method, result class, set-valued).
SIGNATURES: Tuple[Tuple[str, str, str, bool], ...] = (
    ("Address", "Street", "String", False),
    ("Address", "City", "String", False),
    ("Vehicle", "Model", "String", False),
    ("Vehicle", "Color", "String", False),
    ("Vehicle", "Manufacturer", "Company", False),
    ("Vehicle", "Drivetrain", "VehicleDrivetrain", False),
    ("VehicleDrivetrain", "Engine", "PistonEngine", False),
    ("VehicleDrivetrain", "Transmission", "String", False),
    ("PistonEngine", "HPpower", "Numeral", False),
    ("Person", "Name", "String", False),
    ("Person", "Age", "Numeral", False),
    ("Person", "Residence", "Address", False),
    ("Person", "OwnedVehicles", "Vehicle", True),
    ("Employee", "Salary", "Numeral", False),
    ("Employee", "FamMembers", "Person", True),
    ("Company", "Name", "String", False),
    ("Company", "Headquarters", "Address", False),
    ("Company", "President", "Person", False),
    ("Company", "Divisions", "Division", True),
    ("Division", "Name", "String", False),
    ("Division", "Function", "String", False),
    ("Division", "Location", "Address", False),
    ("Division", "Manager", "Employee", False),
    ("Division", "Employees", "Employee", True),
)


#: Methods whose values are object ids rather than literals.
REFERENCE_METHODS = frozenset(
    method
    for _cls, method, result, _set in SIGNATURES
    if result not in ("String", "Numeral")
)


def superclasses_of(cls: str) -> List[str]:
    """Every strict superclass of *cls* in :data:`CLASSES`."""
    parents = dict(CLASSES)
    out: List[str] = []
    stack = list(parents[cls])
    while stack:
        parent = stack.pop()
        if parent not in out:
            out.append(parent)
            stack.extend(parents[parent])
    return out


@dataclass
class Model:
    """The generated population as plain data (the checks' oracle).

    Object ids are strings (``p12``, ``a3``, ...); attribute values are
    ints or strings.  ``cells[oid][method]`` holds a scalar, or a list
    for set-valued methods.
    """

    classes: Dict[str, str] = field(default_factory=dict)
    cells: Dict[str, Dict[str, object]] = field(default_factory=dict)
    people: List[str] = field(default_factory=list)
    employees: List[str] = field(default_factory=list)
    addresses: List[str] = field(default_factory=list)
    companies: List[str] = field(default_factory=list)
    divisions: List[str] = field(default_factory=list)
    vehicles: List[str] = field(default_factory=list)

    def add(self, oid: str, cls: str, **cells: object) -> str:
        self.classes[oid] = cls
        self.cells[oid] = dict(cells)
        return oid

    def get(self, oid: str, method: str, default: object = None) -> object:
        return self.cells[oid].get(method, default)

    def __len__(self) -> int:
        return len(self.classes)


class Zipf:
    """Rank-skewed choice over a population (rank 1 is the hot key)."""

    def __init__(self, items: Sequence, s: float, rng: random.Random):
        self.items = items
        self.rng = rng
        self.cum = list(
            accumulate(1.0 / (rank + 1) ** s for rank in range(len(items)))
        )

    def pick(self):
        index = bisect_right(self.cum, self.rng.random() * self.cum[-1])
        return self.items[min(index, len(self.items) - 1)]


def generate(n_objects: int, seed: int) -> Model:
    """A population of exactly *n_objects* objects, fixed by *seed*."""
    rng = random.Random(seed)
    model = Model()
    n_addresses = max(10, n_objects * 3 // 100)
    n_companies = max(2, n_objects // 250)
    n_divisions = n_companies * 4
    n_vehicles = n_objects // 10
    n_people = (
        n_objects - n_addresses - n_companies - n_divisions - 3 * n_vehicles
    )
    n_employees = n_people * 6 // 10

    for i in range(n_addresses):
        model.addresses.append(
            model.add(
                f"a{i}", "Address",
                Street=f"Street {i}", City=CITIES[i % len(CITIES)],
            )
        )
    residence = Zipf(model.addresses, 1.1, rng)
    for i in range(n_people):
        cls = "Employee" if i < n_employees else "Person"
        cells: Dict[str, object] = {
            "Name": f"P{i}",
            "Age": rng.randint(1, 90),
            "Residence": residence.pick(),
        }
        if cls == "Employee":
            cells["Salary"] = rng.randint(15_000, 320_000)
        model.people.append(model.add(f"p{i}", cls, **cells))
    model.employees = model.people[:n_employees]
    for oid in model.employees:
        size = rng.randint(0, 4)
        if size:
            model.cells[oid]["FamMembers"] = sorted(
                rng.sample(model.people, size)
            )

    for c in range(n_companies):
        divisions = []
        for d in range(4):
            divisions.append(
                model.add(
                    f"c{c}d{d}", "Division",
                    Name=f"Div{c}_{d}", Function=FUNCTIONS[d],
                    Location=residence.pick(),
                )
            )
        model.divisions.extend(divisions)
        model.companies.append(
            model.add(
                f"c{c}", "Company",
                Name=f"Company{c}", Headquarters=residence.pick(),
                President=rng.choice(model.employees), Divisions=divisions,
            )
        )
    employer = Zipf(model.divisions, 1.1, rng)
    members: Dict[str, List[str]] = {}
    for oid in model.employees:
        members.setdefault(employer.pick(), []).append(oid)
    for division, staff in members.items():
        model.cells[division]["Manager"] = staff[0]
        model.cells[division]["Employees"] = staff

    manufacturer = Zipf(model.companies, 1.1, rng)
    for v in range(n_vehicles):
        engine = model.add(
            f"e{v}", ENGINE_CLASSES[v % len(ENGINE_CLASSES)],
            HPpower=rng.randint(20, 400),
        )
        drivetrain = model.add(
            f"dt{v}", "VehicleDrivetrain",
            Engine=engine, Transmission="manual" if v % 3 else "auto",
        )
        model.vehicles.append(
            model.add(
                f"v{v}", "Automobile",
                Model=f"Model{v % 97}", Color=rng.choice(COLORS),
                Manufacturer=manufacturer.pick(), Drivetrain=drivetrain,
            )
        )
    owners = Zipf(model.vehicles, 1.1, rng)
    for oid in model.people:
        count = rng.randint(0, 2)
        if count:
            model.cells[oid]["OwnedVehicles"] = sorted(
                {owners.pick() for _ in range(count)}
            )
    assert len(model) == n_objects, (len(model), n_objects)
    return model


def load(store, model: Model, tick=None) -> None:
    """Declare the schema and write *model* through the store API.

    *tick*, when given, is called between objects (the benchmark samples
    host speed there).
    """
    from repro import Atom

    for cls, supers in CLASSES:
        store.declare_class(cls, list(supers))
    for cls, method, result, set_valued in SIGNATURES:
        store.declare_signature(cls, method, result, set_valued=set_valued)
    for oid, cls in model.classes.items():
        store.create_object(Atom(oid), [cls])
    for oid, cells in model.cells.items():
        if tick is not None:
            tick()
        owner = Atom(oid)
        for method, value in cells.items():
            if isinstance(value, list):
                store.set_attr_set(owner, method, [Atom(v) for v in value])
            elif method in REFERENCE_METHODS:
                store.set_attr(owner, method, Atom(value))
            else:
                store.set_attr(owner, method, value)
