"""One planner and one learner under many threads.

A service's workers share the :class:`~repro.core.planner.Planner` and the
:class:`~repro.core.learner.Learner`; this drives them from more threads
than cores with a shortened switch interval.  The invariant a lost update
would break: the epoch counts *every* eager advance, and no query ever sees
a half-replaced estimator/optimizer pair (it would raise, or answer wrong).
Re-ANALYZEs race the queries too: the epoch catches up with those lazily,
so all that is asked there is that a plan after the last one sees the
final statistics version.
"""

import sys
import threading

from repro.core.executor import Executor
from repro.core.tango import Tango, TangoConfig
from repro.dbms.jdbc import Connection
from tests.conftest import learn

SQL = "VALIDTIME SELECT PosID, COUNT(PosID) FROM POSITION GROUP BY PosID ORDER BY PosID"
ADVANCERS = 4
QUERIERS = 4
ROUNDS = 40


def race(tango, writers) -> None:
    """Run *writers* (callables) to completion while QUERIERS threads
    re-run :data:`SQL` against the first answer; raise the first error."""
    expected = tango.query(SQL).rows
    done = threading.Event()
    errors: list[BaseException] = []

    def reported(target):
        def run() -> None:
            try:
                target()
            except BaseException as error:  # noqa: BLE001 - reported below
                errors.append(error)

        return run

    def query() -> None:
        executor = Executor(
            tango.planner, tango.learner, Connection(tango.db), tango.config,
            metrics=tango.metrics,
        )
        while not done.is_set():
            assert executor.run(SQL).rows == expected

    writing = [threading.Thread(target=reported(writer)) for writer in writers]
    queriers = [threading.Thread(target=reported(query)) for _ in range(QUERIERS)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in writing + queriers:
            thread.start()
        for thread in writing:
            thread.join(60)
        done.set()
        for thread in queriers:
            thread.join(60)
    finally:
        sys.setswitchinterval(interval)
        done.set()
    assert not any(thread.is_alive() for thread in writing + queriers)
    assert errors == []


def test_concurrent_advances_and_plans_lose_nothing(figure3_db):
    with Tango(figure3_db, TangoConfig()) as tango:
        planner = tango.planner
        start = planner.epoch

        def advancer(worker: int):
            def advance() -> None:
                for round_number in range(ROUNDS):
                    planner.set_factors(planner.factors)
                    assert learn(tango, f"fp-{worker}-{round_number}", round_number)

            return advance

        race(tango, [advancer(index) for index in range(ADVANCERS)])
        # Every new factor set and every new fingerprint advanced the epoch once.
        assert planner.epoch == start + ADVANCERS * ROUNDS * 2
        assert len(tango.learner.store) == ADVANCERS * ROUNDS
        # The cache only ever answers for the current epoch.
        assert tango.optimize(SQL) is tango.optimize(SQL)


def test_concurrent_reanalyzes_reach_the_next_plan(figure3_db):
    with Tango(figure3_db, TangoConfig()) as tango:
        planner = tango.planner
        start = planner.epoch

        def analyze() -> None:
            for _ in range(ROUNDS):
                figure3_db.analyze("POSITION")

        race(tango, [analyze] * ADVANCERS)
        assert figure3_db.statistics_version >= ROUNDS
        assert tango.optimize(SQL) is tango.optimize(SQL)
        assert planner._version == figure3_db.statistics_version
        assert start < planner.epoch <= start + figure3_db.statistics_version
