"""One planner and one learner under many threads.

A service's workers share the :class:`~repro.core.planner.Planner` and the
:class:`~repro.core.learner.Learner`; this drives them from more threads
than cores with a shortened switch interval.  The invariant a lost update
would break: the epoch counts *every* advance, and no query ever sees a
half-replaced estimator/optimizer pair (it would raise, or answer wrong).
"""

import sys
import threading

from repro.core.executor import Executor
from repro.core.tango import Tango, TangoConfig
from repro.dbms.jdbc import Connection

SQL = "VALIDTIME SELECT PosID, COUNT(PosID) FROM POSITION GROUP BY PosID ORDER BY PosID"
ADVANCERS = 4
QUERIERS = 4
ROUNDS = 40


def test_concurrent_advances_and_plans_lose_nothing(figure3_db):
    with Tango(figure3_db, TangoConfig()) as tango:
        planner, learner = tango.planner, tango.learner
        expected = tango.query(SQL).rows
        start = planner.epoch
        done = threading.Event()
        errors: list[BaseException] = []

        def advance(worker: int) -> None:
            try:
                for round_number in range(ROUNDS):
                    planner.refresh([], analyze=False)
                    assert learner.learn(f"fp-{worker}-{round_number}", round_number)
            except BaseException as error:  # noqa: BLE001 - reported below
                errors.append(error)

        def query() -> None:
            executor = Executor(
                planner, learner, Connection(figure3_db), tango.config,
                metrics=tango.metrics,
            )
            try:
                while not done.is_set():
                    assert executor.run(SQL).rows == expected
            except BaseException as error:  # noqa: BLE001 - reported below
                errors.append(error)

        advancers = [
            threading.Thread(target=advance, args=(index,)) for index in range(ADVANCERS)
        ]
        queriers = [threading.Thread(target=query) for _ in range(QUERIERS)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in advancers + queriers:
                thread.start()
            for thread in advancers:
                thread.join(60)
            done.set()
            for thread in queriers:
                thread.join(60)
        finally:
            sys.setswitchinterval(interval)
            done.set()
        assert not any(thread.is_alive() for thread in advancers + queriers)
        assert errors == []
        # Every refresh and every new fingerprint advanced the epoch once.
        assert planner.epoch == start + ADVANCERS * ROUNDS * 2
        assert len(learner.store) == ADVANCERS * ROUNDS
        # The cache only ever answers for the current epoch.
        assert tango.optimize(SQL) is tango.optimize(SQL)
