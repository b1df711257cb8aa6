"""Unit tests for the transformation rules T1-T12 and E1-E5.

Each rule is exercised against a memo seeded with its left-hand-side
pattern; assertions check the expected right-hand-side element or merge
appears.  Soundness (result equality of rewritten plans) is covered by the
property tests in ``tests/property/test_prop_rules.py``.
"""

import pytest

from repro.algebra.expressions import BinOp, Comparison, col, lit
from repro.algebra.operators import (
    Coalesce,
    Join,
    Location,
    Project,
    Scan,
    Select,
    Sort,
    TemporalAggregate,
    TemporalJoin,
    TransferD,
    TransferM,
    AggregateSpec,
)
from repro.algebra.schema import Attribute, AttrType, Schema
from repro.optimizer.memo import Memo
from repro.optimizer.rules import RULES, Match, default_rules

SCHEMA = Schema(
    [
        Attribute("K", AttrType.INT),
        Attribute("V", AttrType.INT),
        Attribute("T1", AttrType.DATE),
        Attribute("T2", AttrType.DATE),
    ]
)

MW = Location.MIDDLEWARE
DB = Location.DBMS


def scan() -> Scan:
    return Scan("R", SCHEMA)


def apply_rule(rule, plan) -> Memo:
    """Insert *plan*, apply *rule* to every element once, return the memo."""
    memo = Memo()
    memo.insert_tree(plan)
    for eq_class in memo.classes():
        for element in list(eq_class.elements):
            rule.apply(memo, memo.find(eq_class.id), element)
    return memo


def templates(memo: Memo) -> list[str]:
    return [
        f"{type(element.template).__name__}@{element.template.location.superscript}"
        for eq_class in memo.classes()
        for element in eq_class.elements
    ]


class TestHeuristicGroup1:
    def test_t1_moves_taggr(self):
        plan = TemporalAggregate(scan(), DB, ("K",), (AggregateSpec("COUNT", "K"),))
        memo = apply_rule(RULES["T1"], plan)
        names = templates(memo)
        assert "TemporalAggregate@M" in names
        assert "TransferD@D" in names
        assert "Sort@D" in names

    def test_t1_skips_middleware_located(self):
        plan = TemporalAggregate(
            TransferM(scan()), MW, ("K",), (AggregateSpec("COUNT", "K"),)
        )
        memo = apply_rule(RULES["T1"], plan)
        assert "TransferD@D" not in templates(memo)

    def test_t2_moves_join(self):
        plan = Join(scan(), scan(), DB, "K", "K")
        memo = apply_rule(RULES["T2"], plan)
        assert "Join@M" in templates(memo)

    def test_t2_ignores_temporal_join(self):
        plan = TemporalJoin(scan(), scan(), DB, "K", "K")
        memo = apply_rule(RULES["T2"], plan)
        assert "TemporalJoin@M" not in templates(memo)

    def test_t3_moves_temporal_join(self):
        plan = TemporalJoin(scan(), scan(), DB, "K", "K")
        memo = apply_rule(RULES["T3"], plan)
        assert "TemporalJoin@M" in templates(memo)

    def test_t4_pulls_selection_into_middleware(self):
        plan = TransferM(Select(scan(), DB, Comparison("<", col("V"), lit(5))))
        memo = apply_rule(RULES["T4"], plan)
        assert "Select@M" in templates(memo)

    def test_t6_pulls_sort_into_middleware(self):
        plan = TransferM(Sort(scan(), DB, ("K",)))
        memo = apply_rule(RULES["T6"], plan)
        assert "Sort@M" in templates(memo)


class TestHeuristicGroup2:
    def test_t7_merges_transfer_pair(self):
        plan = TransferM(TransferD(TransferM(scan())))
        memo = Memo()
        root = memo.insert_tree(plan)
        inner = memo.insert_tree(TransferM(scan()))
        for eq_class in memo.classes():
            for element in list(eq_class.elements):
                RULES["T7"].apply(memo, memo.find(eq_class.id), element)
        assert memo.find(root) == memo.find(inner)

    def test_t8_merges_transfer_pair(self):
        plan = TransferD(TransferM(scan()))
        memo = Memo()
        root = memo.insert_tree(plan)
        base = memo.insert_tree(scan())
        for eq_class in memo.classes():
            for element in list(eq_class.elements):
                RULES["T8"].apply(memo, memo.find(eq_class.id), element)
        assert memo.find(root) == memo.find(base)

    def test_t9_merges_identity_projection(self):
        plan = Project.of_columns(scan(), ["K", "V", "T1", "T2"])
        memo = Memo()
        root = memo.insert_tree(plan)
        base = memo.insert_tree(scan())
        for eq_class in memo.classes():
            for element in list(eq_class.elements):
                RULES["T9"].apply(memo, memo.find(eq_class.id), element)
        assert memo.find(root) == memo.find(base)

    def test_t9_skips_reordering_projection(self):
        plan = Project.of_columns(scan(), ["V", "K", "T1", "T2"])
        memo = Memo()
        root = memo.insert_tree(plan)
        base = memo.insert_tree(scan())
        for eq_class in memo.classes():
            for element in list(eq_class.elements):
                RULES["T9"].apply(memo, memo.find(eq_class.id), element)
        assert memo.find(root) != memo.find(base)

    def test_t11_merges_sort_with_argument(self):
        plan = Sort(scan(), DB, ("K",))
        memo = Memo()
        root = memo.insert_tree(plan)
        base = memo.insert_tree(scan())
        for eq_class in memo.classes():
            for element in list(eq_class.elements):
                RULES["T11"].apply(memo, memo.find(eq_class.id), element)
        assert memo.find(root) == memo.find(base)

    def test_t12_collapses_sort_pair(self):
        plan = Sort(Sort(scan(), DB, ("K",)), DB, ("K", "T1"))
        memo = apply_rule(RULES["T12"], plan)
        # A new Sort(K,T1) element over the scan class appears.
        sort_elements = [
            element
            for eq_class in memo.classes()
            for element in eq_class.elements
            if isinstance(element.template, Sort)
            and element.template.keys == ("K", "T1")
        ]
        assert any(
            isinstance(memo.class_of(element.children[0]).representative, Scan)
            for element in sort_elements
        )

    def test_t12_requires_prefix(self):
        plan = Sort(Sort(scan(), DB, ("V",)), DB, ("K", "T1"))
        memo = Memo()
        memo.insert_tree(plan)
        before = memo.element_count
        for eq_class in memo.classes():
            for element in list(eq_class.elements):
                RULES["T12"].apply(memo, memo.find(eq_class.id), element)
        assert memo.element_count == before


class TestEquivalences:
    def test_e1_pushes_select_below_projection(self):
        plan = Select(
            Project.of_columns(scan(), ["K", "V"]),
            DB,
            Comparison("<", col("V"), lit(5)),
        )
        memo = apply_rule(RULES["E1"], plan)
        names = templates(memo)
        assert names.count("Select@D") == 2  # original + pushed-down variant

    def test_e2_commutes_join_with_projection_wrapper(self):
        plan = Join(Project.of_columns(scan(), ["K"]), scan(), DB, "K", "K")
        memo = apply_rule(RULES["E2"], plan)
        assert "Project@D" in templates(memo)

    def test_e4_pushes_select_below_sort_in_middleware(self):
        plan = Select(
            Sort(TransferM(scan()), MW, ("K",)),
            MW,
            Comparison("<", col("V"), lit(5)),
        )
        memo = apply_rule(RULES["E4"], plan)
        assert templates(memo).count("Sort@M") == 2

    def test_e4_skips_dbms(self):
        plan = Select(Sort(scan(), DB, ("K",)), DB, Comparison("<", col("V"), lit(5)))
        memo = Memo()
        memo.insert_tree(plan)
        before = memo.element_count
        for eq_class in memo.classes():
            for element in list(eq_class.elements):
                RULES["E4"].apply(memo, memo.find(eq_class.id), element)
        assert memo.element_count == before

    def test_e5_moves_sort_above_projection(self):
        plan = Project.of_columns(
            Sort(TransferM(scan()), MW, ("K",)), ["K", "V"], MW
        )
        memo = apply_rule(RULES["E5"], plan)
        assert templates(memo).count("Project@M") == 2

    def test_e5_requires_keys_survive(self):
        plan = Project.of_columns(Sort(TransferM(scan()), MW, ("T1",)), ["K"], MW)
        memo = Memo()
        memo.insert_tree(plan)
        before = memo.element_count
        for eq_class in memo.classes():
            for element in list(eq_class.elements):
                RULES["E5"].apply(memo, memo.find(eq_class.id), element)
        assert memo.element_count == before


class TestPushdowns:
    def test_p1_splits_conjuncts_by_side(self):
        predicate = Comparison("<", col("V"), lit(5)) & Comparison(
            "<", col("V_2"), lit(9)
        )
        plan = Select(Join(scan(), scan(), DB, "K", "K"), DB, predicate)
        memo = apply_rule(RULES["P1"], plan)
        assert templates(memo).count("Select@D") >= 3

    def test_p2_pushes_overlap_bounds_to_both_sides(self):
        predicate = Comparison("<", col("T1"), lit(100)) & Comparison(
            ">", col("T2"), lit(50)
        )
        plan = Select(TemporalJoin(scan(), scan(), DB, "K", "K"), DB, predicate)
        memo = apply_rule(RULES["P2"], plan)
        select_elements = [
            element
            for eq_class in memo.classes()
            for element in eq_class.elements
            if isinstance(element.template, Select)
        ]
        assert len(select_elements) >= 2

    def test_p2_keeps_non_pushable_temporal_conjuncts(self):
        predicate = Comparison("=", col("T1"), lit(100))
        plan = Select(TemporalJoin(scan(), scan(), DB, "K", "K"), DB, predicate)
        memo = Memo()
        memo.insert_tree(plan)
        before = memo.element_count
        for eq_class in memo.classes():
            for element in list(eq_class.elements):
                RULES["P2"].apply(
                    memo, memo.find(eq_class.id), element
                )
        assert memo.element_count == before


class TestDefaultRuleSet:
    def test_contains_paper_rules(self):
        names = {rule.name for rule in default_rules()}
        for expected in ("T1", "T2", "T3", "T4", "T5", "T6", "T7", "T8",
                         "T9", "T11", "T12", "E1", "E2", "E3", "E4", "E5"):
            assert expected in names

    def test_rules_carry_equivalence_types(self):
        by_name = {rule.name: rule.equivalence for rule in default_rules()}
        assert by_name["T6"] == "L"   # T^M preserves order
        assert by_name["T1"] == "M"
        assert by_name["E1"] == "L"

    def test_the_table_is_in_application_order(self):
        assert list(RULES) == [rule.name for rule in default_rules()] == (
            "T1 T2 T3 T4 T5 T6 T7 T8 T9 T11 T12 E1 E2 E3 E4 E5 P1 P2 X1 X2 X3 X4 X5"
        ).split()


# -- what the pure rewrites make cheap to test --------------------------------------------


def seed(rule, plan):
    """A memo holding *plan*, and where *rule*'s pattern sits at its root:
    ``(memo, class id, element, element matched below or None)``.  *plan*
    must have the pattern's operator types, whatever its side condition says."""
    memo = Memo()
    root = memo.insert_tree(plan)
    (element,) = memo.class_of(root).elements
    assert isinstance(element.template, rule.matches)
    below = None
    if rule.inner:
        (below,) = memo.class_of(element.children[0]).elements
        assert isinstance(below.template, rule.inner)
    return memo, root, element, below


def state(memo: Memo):
    """Everything a rule can change: the partition, each class's element
    list in order, the counts and the queue of dirtied elements."""
    return (
        {c.id: [element.key() for element in c.elements] for c in memo.classes()},
        memo.class_count,
        memo.element_count,
        list(memo.dirtied),
    )


def mw(plan=None):
    return TransferM(plan if plan is not None else scan())


V_LT_5 = Comparison("<", col("V"), lit(5))
COUNT_K = (AggregateSpec("COUNT", "K"),)
V_PLUS_1 = BinOp("+", col("V"), lit(1))
A, B, C = (
    Scan(name, Schema([Attribute(f"{name}_K", AttrType.INT), Attribute(f"{name}_V", AttrType.INT)]))
    for name in "ABC"
)
TJOIN = TemporalJoin(scan(), scan(), DB, "K", "K")

#: (rule, the side condition the plan violates — and only that one, plan).
NEAR_MISSES = [
    ("T1", "already at the middleware", TemporalAggregate(mw(), MW, ("K",), COUNT_K)),
    ("T2", "already at the middleware", Join(mw(), mw(), MW, "K", "K")),
    ("T3", "already at the middleware", TemporalJoin(mw(), mw(), MW, "K", "K")),
    ("X1", "already at the middleware", Coalesce(mw(), MW)),
    ("T4", "inner at the middleware", mw(Select(mw(), MW, V_LT_5))),
    ("T5", "inner at the middleware", mw(Project.of_columns(mw(), ["K", "V"], MW))),
    ("T6", "inner at the middleware", mw(Sort(mw(), MW, ("K",)))),
    ("T9", "reorders", Project.of_columns(scan(), ["V", "K", "T1", "T2"])),
    ("T9", "drops a column", Project.of_columns(scan(), ["K", "V", "T1"])),
    ("T9", "renames", Project(scan(), DB, (("K", col("V")), ("V", col("K")),
                                          ("T1", col("T1")), ("T2", col("T2"))))),
    ("T12", "B not a prefix of A", Sort(Sort(scan(), DB, ("V",)), DB, ("K", "T1"))),
    ("E1", "computing projection",
     Select(Project(scan(), DB, (("K", col("K")), ("V", V_PLUS_1))), DB, V_LT_5)),
    ("E1", "across locations", Select(Project.of_columns(mw(), ["K", "V"], MW), DB, V_LT_5)),
    ("E3", "colliding attribute names",
     Join(Join(A, B, DB, "A_K", "B_K"), A, DB, "B_K", "A_K")),
    ("E3", "outer attribute from r1",
     Join(Join(A, B, DB, "A_K", "B_K"), C, DB, "A_K", "C_K")),
    ("E3", "across locations",
     Join(Join(mw(A), mw(B), MW, "A_K", "B_K"), C, DB, "B_K", "C_K")),
    ("E4", "in the DBMS", Select(Sort(scan(), DB, ("K",)), DB, V_LT_5)),
    ("E4", "sort in the DBMS", Select(Sort(scan(), DB, ("K",)), MW, V_LT_5)),
    ("E5", "in the DBMS", Project.of_columns(Sort(scan(), DB, ("K",)), ["K", "V"])),
    ("E5", "sort key projected away",
     Project.of_columns(Sort(mw(), MW, ("T1",)), ["K", "V"], MW)),
    ("E5", "computing projection",
     Project(Sort(mw(), MW, ("K",)), MW, (("K", col("K")), ("V", V_PLUS_1)))),
    ("P1", "nothing pushable",
     Select(Join(scan(), scan(), DB, "K", "K"), DB, Comparison("<", col("V"), col("V_2")))),
    ("P1", "across locations",
     Select(Join(mw(), mw(), MW, "K", "K"), DB, V_LT_5)),
    ("P2", "nothing pushable", Select(TJOIN, DB, Comparison("<", col("V"), col("V_2")))),
    ("P2", "T1 > c is not overlap-shaped", Select(TJOIN, DB, Comparison(">", col("T1"), lit(100)))),
    ("P2", "T2 < c is not overlap-shaped", Select(TJOIN, DB, Comparison("<", col("T2"), lit(100)))),
]


class TestNearMisses:
    @pytest.mark.parametrize(
        "name, violated, plan", NEAR_MISSES, ids=[f"{n}-{v}" for n, v, _ in NEAR_MISSES]
    )
    def test_a_violated_side_condition_leaves_the_memo_alone(self, name, violated, plan):
        rule = RULES[name]
        memo, root, element, below = seed(rule, plan)
        before = state(memo)
        assert rule.rewrite(Match(memo, root, element, below)) is None
        assert rule.apply(memo, root, element) is False
        assert state(memo) == before

    def test_every_rule_with_a_side_condition_has_a_near_miss(self):
        # The others' rewrites are total: they return a tree for any match.
        unconditional = {"T7", "T8", "T11", "E2", "X2", "X3", "X4", "X5"}
        assert {name for name, _, _ in NEAR_MISSES} == set(RULES) - unconditional

    def test_p2_pushes_an_overlap_bound_to_both_sides_and_keeps_the_rest_above(self):
        predicate = (
            Comparison("<", col("T1"), lit(100))     # overlap-shaped: both sides
            & Comparison(">", col("T1"), lit(50))    # not: stays above the join
            & V_LT_5                                 # the left side's own column
        )
        rhs = RULES["P2"].rewrite(Match(*seed(RULES["P2"], Select(TJOIN, DB, predicate))))
        assert isinstance(rhs, Select) and rhs.predicate == Comparison(">", col("T1"), lit(50))
        left, right = rhs.input.inputs
        assert left.predicate == Comparison("<", col("T1"), lit(100)) & V_LT_5
        assert right.predicate == Comparison("<", col("T1"), lit(100))


#: The rules whose right-hand side is already in the memo, and the merge the
#: parent's hand-written bodies performed for them: the matched class with
#: the pattern's leaf (T7/T8), or with the outer operator's input class.
MERGES = {
    "T7": lambda element, below: below.children[0],
    "T8": lambda element, below: below.children[0],
    "T9": lambda element, below: element.children[0],
    "T11": lambda element, below: element.children[0],
    "X2": lambda element, below: element.children[0],
    "X4": lambda element, below: element.children[0],
    "X5": lambda element, below: element.children[0],
}


class TestMergeIsInsertion:
    @pytest.mark.parametrize("name", MERGES)
    def test_apply_leaves_the_memo_an_explicit_merge_would(self, name):
        from tests.unit.test_rule_properties import _minimal_plan

        rule, plan = RULES[name], _minimal_plan(name)
        memo, root, element, _ = seed(rule, plan)
        classes_before = memo.class_count
        assert rule.apply(memo, root, element) is True

        merged, root, element, below = seed(rule, plan)
        merged.merge(root, MERGES[name](element, below))
        assert merged.class_count == memo.class_count < classes_before
        assert state(memo)[:3] == state(merged)[:3]
        assert [e.key() for e in memo.dirtied] == [e.key() for e in merged.dirtied]


class TestRewritesArePure:
    @pytest.mark.parametrize("rule", RULES.values(), ids=list(RULES))
    def test_rewrite_changes_nothing_until_apply_inserts(self, rule):
        from tests.unit.test_rule_properties import _minimal_plan

        memo, root, element, below = seed(rule, _minimal_plan(rule.name))
        match = Match(memo, root, element, below)
        before = state(memo)
        rhs = rule.rewrite(match)
        assert rhs is not None
        assert rule.rewrite(match) == rhs  # and says the same thing twice
        assert state(memo) == before
        assert rule.apply(memo, root, element) is True
        assert state(memo) != before
