"""Golden plan choices: the guard behind "same search, done differently".

``golden_plans.json`` holds, for Queries 1–4, the paper's Query 2 Plan 1
used as an initial plan, and the 112 ad-hoc queries the ``adhoc_cold``
benchmark workload cycles through at seed 1 (rebuilt here from the same SQL
templates and :mod:`repro.workloads.queries`; ``bench/`` is not imported):

* a digest of the chosen plan's ``cache_key`` and its cost, ``repr``-exact;
* the memo's ``class_count`` and ``element_count``;
* digest and cost of each of ``Optimizer.top_plans(k=3)``.

Digests, costs, class counts and top-k lists were recorded on the commit
*before* the incremental memo exploration (PR 14) and have not moved since;
``element_count`` was re-recorded when the memo became a congruence-closed
set (PR 16: one element per distinct key, 4,542 -> 3,526 over the corpus).
Re-record with ``PYTHONPATH=src python
tests/integration/test_plan_choice_golden.py --record`` and diff the JSON.

*What* the search finds — classes, elements, the best cost — does not depend
on the order it works in (``tests/property/test_prop_explore.py`` checks that
against a naive closure).  *Which* of several equal-cost plans is chosen
does: ``_Extraction.best`` keeps the first of equal-cost candidates in a
class's element list, and that list is in insertion order — the order the
search drains its first-in-first-out queue of dirtied elements — with the
lower class id surviving a merge.  109 of this corpus's 2,208 extraction
cells have an equal-cost rival with a different plan and 19 of the 117
winners pass through one, so every number here is compared for equality.
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
from pathlib import Path

import pytest

from repro.core.tango import Tango
from repro.dbms.database import MiniDB
from repro.workloads import queries
from repro.workloads.uis import load_uis

GOLDEN_PATH = Path(__file__).with_name("golden_plans.json")

#: The benchmark's data set and seed (``bench/workloads.py``).
SCALE = 0.1
SEED = 1
ADHOC_TABLE = "POSITION_8000"
ADHOC_BLOCKS = 16


def digest(plan) -> str:
    return hashlib.sha256(repr(plan.cache_key).encode()).hexdigest()[:16]


def adhoc_queries(db: MiniDB) -> dict[str, object]:
    """The 16 blocks x 7 queries of ``adhoc_cold`` at ``SEED``: per block
    three TAGGR and three temporal self-join statements with stratified
    ``PayRate`` literals, and one Query 2 with its own window end."""
    rng = random.Random(f"bench.adhoc_cold:{SEED}")

    def stratified(low: int, step: int) -> list[int]:
        cells = []
        for _ in range(3):
            order = list(range(ADHOC_BLOCKS))
            rng.shuffle(order)
            cells.append(order)
        return [
            low + step * (third * ADHOC_BLOCKS + cells[third][block]) + rng.randrange(step)
            for block in range(ADHOC_BLOCKS)
            for third in range(3)
        ]

    taggr_rates = stratified(800, 16)
    tjoin_rates = stratified(2800, 8)
    order = list(range(ADHOC_BLOCKS))
    rng.shuffle(order)
    end_dates = []
    for cell in order:
        day = cell * 21 + rng.randrange(21)
        end_dates.append(f"1996-{day // 28 + 1:02d}-{day % 28 + 1:02d}")

    corpus: dict[str, object] = {}
    for block in range(ADHOC_BLOCKS):
        for rate in taggr_rates[3 * block: 3 * block + 3]:
            corpus[f"adhoc taggr>{rate / 100:.2f}"] = (
                f"VALIDTIME SELECT PosID, COUNT(PosID) FROM {ADHOC_TABLE} "
                f"WHERE PayRate > {rate / 100:.2f} "
                "GROUP BY PosID ORDER BY PosID"
            )
        for rate in tjoin_rates[3 * block: 3 * block + 3]:
            corpus[f"adhoc tjoin>{rate / 100:.2f}"] = (
                f"VALIDTIME SELECT P.PosID, P.EmpName, Q.EmpName "
                f"FROM {ADHOC_TABLE} P, {ADHOC_TABLE} Q WHERE P.PosID = Q.PosID "
                f"AND P.PayRate > {rate / 100:.2f} ORDER BY P.PosID"
            )
        corpus[f"adhoc Q2<{end_dates[block]}"] = queries.query2_initial_plan(
            db, end_dates[block], ADHOC_TABLE
        )
    return corpus


def corpus(db: MiniDB) -> dict[str, object]:
    named: dict[str, object] = {
        "Q1": queries.query1_initial_plan(db),
        "Q2": queries.query2_initial_plan(db, "1996-01-01"),
        "Q3": queries.query3_initial_plan(db, "1999-01-01"),
        "Q4": queries.query4_initial_plan(db),
        "Q2-P1 as initial plan": queries.query2_plans(db, "1996-01-01")[0].plan,
    }
    named.update(adhoc_queries(db))
    assert len(named) == 5 + 7 * ADHOC_BLOCKS
    return named


def measure(tango: Tango, query) -> dict:
    plan = tango.parse(query) if isinstance(query, str) else query
    result = tango.planner.optimizer.optimize(plan)
    return {
        "digest": digest(result.plan),
        "cost": repr(result.cost),
        "class_count": result.class_count,
        "element_count": result.element_count,
        "top_plans": [
            [digest(top), repr(cost)]
            for top, cost in tango.planner.optimizer.top_plans(plan, k=3)
        ],
    }


@pytest.fixture(scope="module")
def golden_tango():
    db = MiniDB()
    load_uis(db, scale=SCALE, seed=SEED)
    tango = Tango(db)
    yield tango, corpus(db)
    tango.close()


GOLDEN = json.loads(GOLDEN_PATH.read_text()) if GOLDEN_PATH.exists() else {"plans": {}}


def test_corpus_is_the_recorded_one(golden_tango):
    _, named = golden_tango
    assert list(named) == list(GOLDEN["plans"])


@pytest.mark.parametrize("name", list(GOLDEN["plans"]))
def test_plan_choice_matches_golden(golden_tango, name):
    tango, named = golden_tango
    golden = GOLDEN["plans"][name]
    measured = measure(tango, named[name])
    assert measured["digest"] == golden["digest"]
    assert measured["cost"] == golden["cost"]
    assert measured["class_count"] == golden["class_count"]
    assert measured["top_plans"] == golden["top_plans"]
    assert measured["element_count"] == golden["element_count"]


def record() -> None:
    db = MiniDB()
    load_uis(db, scale=SCALE, seed=SEED)
    tango = Tango(db)
    plans = {name: measure(tango, query) for name, query in corpus(db).items()}
    tango.close()
    GOLDEN_PATH.write_text(
        json.dumps(
            {"scale": SCALE, "seed": SEED, "table": ADHOC_TABLE, "plans": plans},
            indent=1,
        )
        + "\n"
    )
    print(f"recorded {len(plans)} plans to {GOLDEN_PATH}")


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: test_plan_choice_golden.py --record")
    record()
