"""The synthetic University Information System (UIS) dataset.

The paper evaluates TANGO on the UIS dataset (TIMECENTER CD-1), which we
cannot redistribute; this module synthesizes relations matching every
distributional fact the paper states (Section 5.1 and the Query 3
discussion):

* ``EMPLOYEE``: 49,972 tuples × 31 attributes, ≈13.8 MB (≈276 B/tuple);
* ``POSITION``: 83,857 tuples × 8 attributes, ≈6.7 MB (≈80 B/tuple);
* most POSITION data is concentrated after 1992, with ≈65 % of the
  time-period starts at 1995 or later;
* the PosID values are non-uniformly distributed (the paper's Query 3 notes
  the uniform-distribution join estimate errs on this data);
* eight POSITION size variants: 8,000 … 74,000 tuples drawn from the full
  relation.

A ``scale`` factor shrinks all cardinalities proportionally, because a pure
Python DBMS is orders of magnitude slower per tuple than Oracle on 2001
hardware; the *shape* of every experiment is scale-invariant (EXPERIMENTS.md
records the scale used for each run).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.algebra.schema import Attribute, AttrType, Schema
from repro.dbms.database import MiniDB
from repro.temporal.timestamps import year_start

#: Paper cardinalities.
EMPLOYEE_CARDINALITY = 49_972
POSITION_CARDINALITY = 83_857
#: The eight POSITION size variants of Section 5.1.
POSITION_VARIANTS = (8_000, 17_000, 27_000, 36_000, 46_000, 55_000, 64_000, 74_000)

_FIRST = ("Tom", "Jane", "Ann", "Bob", "Eve", "Joe", "Kim", "Leo", "Mia", "Ned")
_LAST = ("Smith", "Lee", "Kwan", "Moss", "Hart", "Cole", "Pratt", "Shaw")
_TITLES = ("Lecturer", "Professor", "Clerk", "Analyst", "Dean", "Advisor")

POSITION_SCHEMA = Schema(
    [
        Attribute("PosID", AttrType.INT),
        Attribute("EmpID", AttrType.INT),
        Attribute("EmpName", AttrType.STR, 16),
        Attribute("PayRate", AttrType.FLOAT),
        Attribute("DeptNo", AttrType.INT),
        Attribute("JobTitle", AttrType.STR, 12),
        Attribute("T1", AttrType.DATE),
        Attribute("T2", AttrType.DATE),
    ]
)


def employee_schema() -> Schema:
    """31 attributes ≈276 bytes: ids, name, address, and filler columns."""
    attributes = [
        Attribute("EmpID", AttrType.INT),
        Attribute("EmpName", AttrType.STR, 16),
        Attribute("Address", AttrType.STR, 32),
        Attribute("City", AttrType.STR, 12),
        Attribute("Phone", AttrType.STR, 12),
        Attribute("DeptNo", AttrType.INT),
        Attribute("Salary", AttrType.FLOAT),
    ]
    for index in range(31 - len(attributes)):
        attributes.append(Attribute(f"Attr{index + 1}", AttrType.INT))
    return Schema(attributes)


EMPLOYEE_SCHEMA = employee_schema()


def _emp_name(rng: random.Random, emp_id: int) -> str:
    return f"{rng.choice(_FIRST)} {rng.choice(_LAST)}{emp_id % 97}"


def _position_start(rng: random.Random) -> int:
    """A period start matching the paper's skew: ≈10 % before 1992,
    ≈25 % in 1992-1994, ≈65 % at 1995 or later."""
    draw = rng.random()
    if draw < 0.10:
        return rng.randint(year_start(1982), year_start(1992) - 1)
    if draw < 0.35:
        return rng.randint(year_start(1992), year_start(1995) - 1)
    return rng.randint(year_start(1995), year_start(1998) - 1)


def position_rows(
    count: int = POSITION_CARDINALITY,
    seed: int = 20010521,
    employee_count: int | None = None,
) -> list[tuple]:
    """Synthesize POSITION rows (job assignments over time).

    PosIDs follow a skewed (80/20-ish) distribution: a minority of positions
    account for most assignments, defeating the uniform-distribution join
    estimate exactly as the paper's Query 3 reports.
    """
    rng = random.Random(seed)
    employees = employee_count if employee_count is not None else max(10, count * 3 // 5)
    distinct_positions = max(5, count // 8)
    hot_positions = max(1, distinct_positions // 10)
    rows: list[tuple] = []
    for _ in range(count):
        if rng.random() < 0.5:
            pos_id = rng.randrange(hot_positions)
        else:
            pos_id = rng.randrange(distinct_positions)
        emp_id = rng.randrange(employees)
        start = _position_start(rng)
        duration = rng.randint(30, 1200)
        end = min(start + duration, year_start(2000))
        if end <= start:
            end = start + 1
        rows.append(
            (
                pos_id,
                emp_id,
                _emp_name(rng, emp_id),
                round(rng.uniform(4.0, 40.0), 2),
                rng.randrange(60),
                rng.choice(_TITLES),
                start,
                end,
            )
        )
    return rows


def employee_rows(count: int = EMPLOYEE_CARDINALITY, seed: int = 19990101) -> list[tuple]:
    """Synthesize EMPLOYEE rows; ``EmpID`` is the 0-based dense key the
    POSITION generator draws from."""
    rng = random.Random(seed)
    rows: list[tuple] = []
    filler_count = len(EMPLOYEE_SCHEMA) - 7
    for emp_id in range(count):
        rows.append(
            (
                emp_id,
                _emp_name(rng, emp_id),
                f"{rng.randrange(9999)} College Ave Apt {rng.randrange(99)}",
                rng.choice(("Tucson", "Aalborg", "Tempe", "Mesa")),
                f"520-{rng.randrange(1000):03d}-{rng.randrange(10000):04d}",
                rng.randrange(60),
                round(rng.uniform(18_000, 140_000), 2),
            )
            + tuple(rng.randrange(1000) for _ in range(filler_count))
        )
    return rows


@dataclass
class UISDataset:
    """Handle to a loaded UIS instance."""

    db: MiniDB
    scale: float
    position_cardinality: int
    employee_cardinality: int
    variant_names: dict[int, str] = field(default_factory=dict)


def load_uis(
    db: MiniDB,
    scale: float = 0.05,
    with_variants: bool = True,
    with_employee: bool = True,
    analyze: bool = True,
    seed: int = 20010521,
) -> UISDataset:
    """Create and populate the UIS tables in *db*.

    ``scale`` multiplies the paper's cardinalities.  Variants named
    ``POSITION_8000`` … ``POSITION_74000`` keep the paper's nominal sizes in
    their names regardless of scale (they contain ``scale × nominal`` rows,
    drawn as prefixes of the full relation, as in the paper).
    """
    position_count = max(20, int(POSITION_CARDINALITY * scale))
    employee_count = max(20, int(EMPLOYEE_CARDINALITY * scale))

    dataset = UISDataset(db, scale, position_count, employee_count)
    full_position = position_rows(position_count, seed, employee_count)

    db.create_table("POSITION", POSITION_SCHEMA)
    db.table("POSITION").bulk_load(full_position)

    if with_employee:
        db.create_table("EMPLOYEE", EMPLOYEE_SCHEMA)
        db.table("EMPLOYEE").bulk_load(employee_rows(employee_count, seed + 1))
        # The UIS deployment indexes the employee key, which is what makes
        # Oracle's nested-loop join the winner in the paper's Query 4.
        db.create_index("EMPLOYEE_EMPID_IX", "EMPLOYEE", "EmpID", clustered=True)

    if with_variants:
        for nominal in POSITION_VARIANTS:
            name = f"POSITION_{nominal}"
            count = max(10, int(nominal * scale))
            db.create_table(name, POSITION_SCHEMA)
            db.table(name).bulk_load(full_position[:count])
            dataset.variant_names[nominal] = name

    if analyze:
        for table in db.list_tables():
            db.analyze(table)
    return dataset
