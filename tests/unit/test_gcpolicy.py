"""The collector policy (``repro.core.gcpolicy``, DESIGN.md §24): an open
Tango or QueryService raises generation 0's threshold to the young limit,
and the last one closed restores whatever the caller had.

Every test compares against the thresholds it found, so it holds whether or
not another open Tango already holds the policy."""

from __future__ import annotations

import gc
import json
import threading

import pytest

from repro.core import gcpolicy
from repro.core.tango import Tango, TangoConfig
from repro.dbms.database import MiniDB
from repro.dbms.jdbc import ConnectionPool
from repro.service import QueryService, ServiceConfig


@pytest.fixture
def threshold():
    """The caller's thresholds, put back after the test whatever it did."""
    saved = gc.get_threshold()
    yield saved
    gc.set_threshold(*saved)


def held(saved):
    young, *older = saved
    return (max(gcpolicy.YOUNG_LIMIT, young) if young else 0, *older)


def test_an_open_tango_raises_generation_zero_only(threshold):
    tango = Tango(MiniDB())
    assert gc.get_threshold() == held(threshold)
    tango.close()
    assert gc.get_threshold() == threshold


@pytest.mark.parametrize("order", ["first-opened first", "first-opened last"])
def test_nested_holds_restore_the_callers_thresholds(threshold, order):
    db = MiniDB()
    first, second = Tango(db), Tango(db)
    assert gc.get_threshold() == held(threshold)
    closing = (first, second) if order == "first-opened first" else (second, first)
    closing[0].close()
    assert gc.get_threshold() == held(threshold)
    closing[1].close()
    assert gc.get_threshold() == threshold


def test_a_callers_higher_young_threshold_is_kept(threshold):
    mine = (gcpolicy.YOUNG_LIMIT * 3, 7, 9)
    gc.set_threshold(*mine)
    with Tango(MiniDB()):
        assert gc.get_threshold() == mine
    assert gc.get_threshold() == mine


def test_a_callers_disabled_collection_stays_disabled(threshold):
    gc.set_threshold(0, 10, 10)
    with Tango(MiniDB()):
        assert gc.get_threshold()[0] == 0
    assert gc.get_threshold() == (0, 10, 10)


def test_close_twice_releases_once(threshold):
    db = MiniDB()
    outer, inner = Tango(db), Tango(db)
    inner.close()
    inner.close()
    # A second release would have given back the outer instance's hold.
    assert gc.get_threshold() == held(threshold)
    outer.close()
    assert gc.get_threshold() == threshold


def test_a_standalone_service_holds_for_its_lifetime(threshold):
    service = QueryService(MiniDB(), ServiceConfig(max_concurrency=1))
    assert gc.get_threshold() == held(threshold)
    service.close()
    service.close()
    assert gc.get_threshold() == threshold


def test_release_without_hold_is_refused(monkeypatch):
    monkeypatch.setattr(gcpolicy, "_holds", 0)
    with pytest.raises(RuntimeError, match="without a hold"):
        gcpolicy.release()


def test_threads_opening_and_closing_leave_the_thresholds(threshold):
    db = MiniDB()
    start = threading.Barrier(8)
    errors = []

    def cycle():
        try:
            start.wait()
            for _ in range(20):
                Tango(db).close()
        except BaseException as error:  # noqa: BLE001 - reported below
            errors.append(error)

    threads = [threading.Thread(target=cycle) for _ in range(8)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert errors == []
    assert gc.get_threshold() == threshold


def test_a_failed_construction_gives_back_what_it_took(threshold, tmp_path):
    """A corrupt feedback store fails ``Learner.__init__`` after the pool
    lease: the lease is returned and no hold is taken."""
    path = tmp_path / "feedback.json"
    path.write_text("{not json")
    db = MiniDB()
    pool = ConnectionPool(db, size=1)
    with pytest.raises(json.JSONDecodeError):
        Tango(db, TangoConfig(feedback_path=str(path)), pool=pool)
    assert pool.in_use == 0
    assert gc.get_threshold() == threshold
    pool.close()
