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

PR 17 (one order discipline) re-recorded 18 entries — ``Q2``, ``Q2-P1 as
initial plan`` and the 16 ``adhoc Q2<date>`` — and nothing else: all 117
``class_count``/``element_count`` pairs and the other 99 entries are
byte-equal, exploration being untouched.  The extraction DP used to drop all
order at a projection that computes any column, so every Query-2-shaped plan
kept a ``Sort^M[PosID]`` over its already sorted ``TemporalJoin^M``; reading
``algebra/properties.py`` it carries the order through the bare ``PosID``
column and the sort goes (the paper's T10).  :data:`MOVED_IN_PR17` keeps each
old digest and cost, and ``test_moved_plans_only_lost_their_top_sort`` checks
that the old plan is exactly the new one under that sort, at a strictly
higher cost: Q2 and Q2-P1 54,293.8 -> 39,342.9 us, the ad-hoc sixteen by
-2.1 % to -3.0 % (e.g. 3,201.5 -> 3,134.4, 4,647.6 -> 4,506.9).  In two of
them (``adhoc Q2<1996-01-04``, ``<1996-01-27``) the third ``top_plans``
entry also moved, to a cheaper plan of the same shape with the join sides
commuted (3,495.1 -> 3,434.5 and 3,560.5 -> 3,521.5): the DP now probes a
renaming ``Project^M`` under an order requirement, and what a cell caches
depends on which cells were in progress when it was first asked (DESIGN.md
§14, "left alone").

*What* the search finds — classes, elements, the best cost — does not depend
on the order it works in (``tests/property/test_prop_explore.py`` checks that
against a naive closure).  *Which* of several equal-cost plans is chosen
does: ``_Extraction.best`` keeps the first of equal-cost candidates in a
class's element list, and that list is in insertion order — the order the
search drains its first-in-first-out queue of dirtied elements — with the
lower class id surviving a merge.  109 of this corpus's 2,208 extraction
cells have an equal-cost rival with a different plan and 19 of the 117
winners pass through one, so every number here is compared for equality.

:data:`CENSUS` pins *how* the search got there: per rule, how many
``Rule.apply`` calls the corpus makes and how many change the memo.  It was
recorded on the commit before the rule set became a table (ISSUE 20, 23
classes with 18 ``apply`` bodies) and asserted on the table unchanged.
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
from pathlib import Path

import pytest

from repro.algebra.operators import (
    Join,
    Location,
    Project,
    Scan,
    Select,
    Sort,
    TemporalJoin,
    TransferD,
    TransferM,
)
from repro.core.tango import Tango
from repro.core.translator import SQLTranslator
from repro.dbms.database import MiniDB
from repro.optimizer.rules import default_rules
from repro.optimizer.search import Optimizer
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


#: The entries PR 17 re-recorded: name -> (digest, cost) before it.
MOVED_IN_PR17 = {
    'Q2': ('a45294d00f7c666f', '54293.84131826865'),
    'Q2-P1 as initial plan': ('a45294d00f7c666f', '54293.84131826865'),
    'adhoc Q2<1996-03-14': ('c44ee38ec3f10a68', '3436.583943638653'),
    'adhoc Q2<1996-07-24': ('bf5d053b592f6e5a', '3947.5248299357195'),
    'adhoc Q2<1996-04-04': ('4200c81a21b62260', '3508.306641617681'),
    'adhoc Q2<1996-05-19': ('533062bbdd3d695f', '3665.1319942121936'),
    'adhoc Q2<1996-09-10': ('2b0dc6dc69832822', '4156.47049666208'),
    'adhoc Q2<1996-07-18': ('2906156c4a5324c3', '3920.6773687243667'),
    'adhoc Q2<1996-11-14': ('96197dff83ed0858', '4448.515443807373'),
    'adhoc Q2<1996-11-15': ('f48786e5dc890b08', '4453.091181484624'),
    'adhoc Q2<1996-06-20': ('7a28b4a705b766e8', '3786.3106440981783'),
    'adhoc Q2<1996-01-04': ('409bd0a0e2a1172c', '3201.514803376601'),
    'adhoc Q2<1996-03-04': ('7330ab4b246b6f51', '3402.756907699535'),
    'adhoc Q2<1996-12-27': ('e249c40be16790cb', '4647.56207292395'),
    'adhoc Q2<1996-05-08': ('69a7b2a543d75a65', '3626.4018623694315'),
    'adhoc Q2<1996-09-03': ('dff66ab21dbda8c3', '4125.646474100949'),
    'adhoc Q2<1996-10-20': ('4595f6f4773bb5e1', '4334.940287105024'),
    'adhoc Q2<1996-01-27': ('4cd27492991aec02', '3278.5408813188633'),
}


def test_moved_plans_only_lost_their_top_sort(golden_tango):
    tango, named = golden_tango
    for name, (old_digest, old_cost) in MOVED_IN_PR17.items():
        result = tango.planner.optimizer.optimize(named[name])
        assert digest(result.plan) == GOLDEN["plans"][name]["digest"]
        assert not isinstance(result.plan, Sort)
        with_the_sort = Sort(result.plan, Location.MIDDLEWARE, ("PosID",))
        assert digest(with_the_sort) == old_digest, name
        assert result.cost < float(old_cost), name


def test_dp_order_is_guaranteed_order_on_the_corpus(golden_tango):
    """Every ranked plan validates, and the order the DP recorded for it is
    what ``guaranteed_order`` derives from its tree (18 queries — the moved
    ones — disagreed before PR 17)."""
    from tests.property.test_prop_explore import assert_orders_agree

    tango, named = golden_tango
    checked = 0
    for query in named.values():
        plan = tango.parse(query) if isinstance(query, str) else query
        checked += assert_orders_agree(tango.planner.optimizer, plan)
    assert checked == 350  # root-class candidates over the corpus


def spj_region(region) -> bool:
    """True when the DBMS region under a ``T^M`` is select-project-join only,
    its joins left-deep — the shape that translates to one flat block."""
    stack = [region]
    while stack:
        node = stack.pop()
        if isinstance(node, (Join, TemporalJoin)):
            if any(isinstance(n, (Join, TemporalJoin)) for n in node.right.walk()):
                return False
        elif not isinstance(node, (Scan, TransferD, Select, Project, Sort)):
            return False
        if not isinstance(node, TransferD):  # what is under a T^D runs elsewhere
            stack.extend(node.inputs)
    return True


def test_chosen_plans_send_flat_sql(golden_tango):
    """On every plan shape the optimizer produces over the corpus, not on
    four queries: a select-project-join ``T^M`` region is one SELECT, no
    derived table (DESIGN.md §16)."""
    tango, named = golden_tango
    flat = nested = 0
    for query in named.values():
        plan = tango.planner.optimizer.optimize(
            tango.parse(query) if isinstance(query, str) else query
        ).plan
        for transfer in (n for n in plan.walk() if isinstance(n, TransferM)):
            temp_tables = {
                id(n): "TANGO_TMP" for n in transfer.input.walk() if isinstance(n, TransferD)
            }
            sql = SQLTranslator().translate(transfer.input, temp_tables)
            if spj_region(transfer.input):
                assert "(SELECT" not in sql and sql.count("SELECT") == 1, sql
                flat += 1
            else:
                nested += 1
    # Q1-Q4 and Q2-P1 have 1+2+2+1+2 regions, the 48 TAGGR statements and the
    # 48 self-joins one each, the 16 Query 2s two; no chosen plan keeps a
    # TAGGR^D, a Dedup or a bushy join in the DBMS.
    assert (flat, nested) == (136, 0)


class CountingRule:
    """A rule as the search sees one — ``matches`` and ``apply`` — counting
    its attempts and how many of them changed the memo."""

    def __init__(self, rule):
        self.rule, self.name, self.matches = rule, rule.name, rule.matches
        self.attempted = self.fired = 0

    def apply(self, memo, class_id, element) -> bool:
        changed = self.rule.apply(memo, class_id, element)
        self.attempted += 1
        self.fired += changed
        return changed


def counting_optimizer(tango: Tango) -> tuple[Optimizer, list[CountingRule]]:
    """The planner's optimizer over again, each rule behind a counter."""
    rules = [CountingRule(rule) for rule in default_rules()]
    return Optimizer(tango.planner.estimator, tango.planner.factors, rules=rules), rules


#: rule -> (memo-changing, attempted) ``apply`` calls over the 117 queries.
#: Twelve rules never fire here (X1-X5 are never even attempted: no query
#: coalesces or deduplicates) — they rest on ``tests/unit/test_rules.py``,
#: ``test_rule_properties.py``, ``tests/property`` and the fuzzer.
CENSUS = {
    "T1": (66, 217), "T2": (2, 7), "T3": (169, 574),
    "T4": (261, 1036), "T5": (370, 1036), "T6": (354, 1036),
    "T7": (171, 1036), "T8": (0, 391), "T9": (0, 1004),
    "T11": (354, 1062), "T12": (0, 1062),
    "E1": (146, 673), "E2": (324, 581), "E3": (0, 7), "E4": (0, 673), "E5": (0, 1004),
    "P1": (0, 673), "P2": (18, 673),
    "X1": (0, 0), "X2": (0, 0), "X3": (0, 0), "X4": (0, 0), "X5": (0, 0),
}


def test_rule_census_matches_the_hand_written_rule_classes(golden_tango):
    tango, named = golden_tango
    optimizer, rules = counting_optimizer(tango)
    attempts = firings = 0
    for query in named.values():
        result = optimizer.optimize(tango.parse(query) if isinstance(query, str) else query)
        attempts += result.rule_attempts
        firings += result.rule_firings
    assert {rule.name: (rule.fired, rule.attempted) for rule in rules} == CENSUS
    assert (attempts, firings) == (12_745, 2_235)


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
