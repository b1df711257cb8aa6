"""Unit tests for the Volcano memo (equivalence classes + union-find)."""

import pytest

from repro.algebra.expressions import Comparison, col, lit
from repro.algebra.operators import Dedup, Join, Location, Scan, Select, Sort
from repro.algebra.schema import Attribute, AttrType, Schema
from repro.optimizer.memo import ClassRef, Memo

SCHEMA = Schema(
    [
        Attribute("K", AttrType.INT),
        Attribute("T1", AttrType.DATE),
        Attribute("T2", AttrType.DATE),
    ]
)


def scan() -> Scan:
    return Scan("R", SCHEMA)


def sorted_scan() -> Sort:
    return Sort(scan(), Location.DBMS, ("K",))


class TestInsertion:
    def test_single_tree_counts(self):
        memo = Memo()
        memo.insert_tree(sorted_scan())
        assert memo.class_count == 2  # scan class + sort class
        assert memo.element_count == 2

    def test_duplicate_insert_is_noop(self):
        memo = Memo()
        first = memo.insert_tree(sorted_scan())
        second = memo.insert_tree(sorted_scan())
        assert first == second
        assert memo.element_count == 2

    def test_shared_subtrees_share_classes(self):
        memo = Memo()
        memo.insert_tree(sorted_scan())
        memo.insert_tree(Sort(scan(), Location.DBMS, ("T1",)))
        assert memo.class_count == 3  # one scan class, two sort classes

    def test_insert_into_existing_class(self):
        memo = Memo()
        root = memo.insert_tree(sorted_scan())
        memo.insert_tree(Sort(scan(), Location.MIDDLEWARE, ("K",)), into=root)
        assert len(memo.class_of(root).elements) == 2

    def test_location_distinguishes_elements(self):
        memo = Memo()
        root = memo.insert_tree(sorted_scan())
        before = memo.element_count
        memo.insert_tree(Sort(scan(), Location.MIDDLEWARE, ("K",)), into=root)
        assert memo.element_count == before + 1

    def test_class_ref_leaves_resolve(self):
        memo = Memo()
        scan_class = memo.insert_tree(scan())
        rebuilt = Sort(memo.ref(scan_class), Location.DBMS, ("K",))
        sort_class = memo.insert_tree(rebuilt)
        element = memo.class_of(sort_class).elements[0]
        assert element.children == (scan_class,)

    def test_ref_carries_schema(self):
        memo = Memo()
        scan_class = memo.insert_tree(scan())
        assert memo.ref(scan_class).schema == SCHEMA


class TestRepresentatives:
    def test_representative_is_concrete(self):
        memo = Memo()
        root = memo.insert_tree(sorted_scan())
        representative = memo.class_of(root).representative
        assert isinstance(representative, Sort)
        assert isinstance(representative.input, Scan)

    def test_class_schema(self):
        memo = Memo()
        root = memo.insert_tree(sorted_scan())
        assert memo.class_of(root).schema == SCHEMA


class TestMerging:
    def test_merge_reduces_class_count(self):
        memo = Memo()
        sort_class = memo.insert_tree(sorted_scan())
        scan_class = memo.insert_tree(scan())
        before = memo.class_count
        memo.merge(sort_class, scan_class)
        assert memo.class_count == before - 1

    def test_merged_class_holds_both_elements(self):
        memo = Memo()
        sort_class = memo.insert_tree(sorted_scan())
        scan_class = memo.insert_tree(scan())
        survivor = memo.merge(sort_class, scan_class)
        assert len(memo.class_of(survivor).elements) == 2

    def test_find_resolves_after_merge(self):
        memo = Memo()
        a = memo.insert_tree(sorted_scan())
        b = memo.insert_tree(scan())
        survivor = memo.merge(a, b)
        assert memo.find(a) == memo.find(b) == survivor

    def test_merge_idempotent(self):
        memo = Memo()
        a = memo.insert_tree(sorted_scan())
        b = memo.insert_tree(scan())
        memo.merge(a, b)
        before = memo.element_count
        memo.merge(a, b)
        assert memo.element_count == before

    def test_insert_into_merged_class_dedups(self):
        memo = Memo()
        a = memo.insert_tree(sorted_scan())
        b = memo.insert_tree(scan())
        memo.merge(a, b)
        memo.insert_tree(sorted_scan(), into=b)
        keys = [element.key() for element in memo.class_of(a).elements]
        assert len(keys) == len(set(keys))

    def test_self_referential_element_after_merge(self):
        # T11 merges sort(r) with r: the sort element's child becomes its
        # own class — legal, handled by extraction's cycle guard.
        memo = Memo()
        sort_class = memo.insert_tree(sorted_scan())
        scan_class = memo.insert_tree(scan())
        survivor = memo.merge(sort_class, scan_class)
        sort_elements = [
            element
            for element in memo.class_of(survivor).elements
            if isinstance(element.template, Sort)
        ]
        assert sort_elements[0].children == (survivor,)


class TestCongruence:
    """A merge re-keys the elements over the merged-away class, so the memo
    stays a set: one element, and one class, per expression."""

    @staticmethod
    def two_scans(memo: Memo) -> tuple[int, int]:
        return memo.insert_tree(scan()), memo.insert_tree(Scan("S", SCHEMA))

    @staticmethod
    def sort_over(memo: Memo, class_id: int, into: int | None = None) -> int:
        return memo.insert_tree(Sort(memo.ref(class_id), Location.DBMS, ("K",)), into)

    def test_twins_in_one_class_collapse(self):
        memo = Memo()
        a, b = self.two_scans(memo)
        sorts = self.sort_over(memo, a)
        self.sort_over(memo, b, into=sorts)
        assert len(memo.class_of(sorts).elements) == 2
        before = memo.element_count
        memo.merge(a, b)
        assert [element.children for element in memo.class_of(sorts).elements] == [(a,)]
        assert memo.element_count == before - 1

    def test_twins_in_two_classes_merge_them_and_cascade(self):
        memo = Memo()
        a, b = self.two_scans(memo)
        sort_a, sort_b = self.sort_over(memo, a), self.sort_over(memo, b)
        dedup_a = memo.insert_tree(Dedup(memo.ref(sort_a)))
        dedup_b = memo.insert_tree(Dedup(memo.ref(sort_b)))
        assert (memo.class_count, memo.element_count) == (6, 6)
        memo.merge(a, b)
        assert memo.find(sort_b) == sort_a
        assert memo.find(dedup_b) == dedup_a  # one level further up
        assert (memo.class_count, memo.element_count) == (3, 4)  # two scans
        assert memo.class_of(dedup_a).elements[0].children == (sort_a,)

    def test_element_over_the_loser_twice_is_rekeyed_once(self):
        memo = Memo()
        a, b = self.two_scans(memo)
        join = memo.insert_tree(Join(memo.ref(b), memo.ref(b), Location.DBMS, "K", "K"))
        (element,) = memo.class_of(join).elements
        old_key = element.key()
        before = memo.element_count
        memo.merge(a, b)
        assert element.children == (a, a)
        assert memo.element_count == before
        assert old_key not in memo._index
        assert memo._index[element.key()] == join
        # Re-deriving either spelling finds the one element.
        again = Join(memo.ref(a), memo.ref(b), Location.DBMS, "K", "K")
        assert memo.insert_tree(again) == join
        assert memo.element_count == before

    def test_merging_a_self_referencing_class_terminates(self):
        memo = Memo()
        a, b = self.two_scans(memo)
        looped = memo.merge(self.sort_over(memo, b), b)  # sort(b) is b: a cycle
        survivor = memo.merge(looped, a)
        assert survivor == a
        assert {element.children for element in memo.class_of(a).elements} == {(), (a,)}
        assert memo.element_count == 3


class TestClassRef:
    def test_takes_no_inputs(self):
        ref = ClassRef(class_id=1, ref_schema=SCHEMA)
        assert ref.inputs == ()
        assert ref.with_inputs() is ref

    def test_signature_by_class(self):
        assert ClassRef(class_id=1).signature() == ("ClassRef", 1)
