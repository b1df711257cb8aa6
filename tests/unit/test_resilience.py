"""Unit tests for the resilience layer: fault injection and retry."""

import pytest

from repro.errors import (
    ConnectionDroppedError,
    DatabaseError,
    RetryExhaustedError,
    TransientError,
)
from repro.obs.metrics import MetricsRegistry
from repro.resilience import FaultInjector, FaultPolicy, RetryPolicy
from repro.resilience.retry import RetryState


def no_sleep(_seconds):
    pass


class TestFaultInjector:
    def test_deterministic_schedule(self):
        policy = FaultPolicy(transient_p=0.3)

        def schedule(seed):
            injector = FaultInjector(policy, seed=seed)
            outcomes = []
            for _ in range(50):
                try:
                    injector.before("round_trip")
                    outcomes.append(True)
                except TransientError:
                    outcomes.append(False)
            return outcomes

        assert schedule(7) == schedule(7)
        assert schedule(7) != schedule(8)

    def test_reset_replays_the_same_schedule(self):
        injector = FaultInjector(FaultPolicy(transient_p=0.5), seed=3)
        first = [self._fires(injector) for _ in range(20)]
        injector.reset()
        assert [self._fires(injector) for _ in range(20)] == first

    @staticmethod
    def _fires(injector) -> bool:
        try:
            injector.before("round_trip")
            return False
        except TransientError:
            return True

    def test_per_operation_override(self):
        injector = FaultInjector(
            FaultPolicy(transient_p=0.0, load_chunk_p=1.0), seed=0
        )
        injector.before("round_trip")  # default p=0: never faults
        with pytest.raises(TransientError):
            injector.before("load_chunk")

    def test_zero_probability_never_faults(self):
        injector = FaultInjector(FaultPolicy(), seed=0)
        for _ in range(100):
            injector.before("execute")
        assert injector.faults_injected == 0
        assert injector.calls == 100

    def test_drop_after_is_terminal(self):
        injector = FaultInjector(FaultPolicy(drop_after=3), seed=0)
        for _ in range(3):
            injector.before("execute")
        for _ in range(2):
            with pytest.raises(ConnectionDroppedError):
                injector.before("execute")
        assert injector.dropped

    def test_dropped_connection_is_not_transient(self):
        # Retry must not spin on a dropped connection.
        assert not issubclass(ConnectionDroppedError, TransientError)
        assert issubclass(ConnectionDroppedError, DatabaseError)

    def test_latency_spike_sleeps(self):
        slept = []
        injector = FaultInjector(
            FaultPolicy(latency_p=1.0, latency_seconds=0.25),
            seed=0,
            sleep=slept.append,
        )
        injector.before("round_trip")
        assert slept == [0.25]
        assert injector.latency_spikes == 1

    def test_metrics_mirroring(self):
        metrics = MetricsRegistry()
        injector = FaultInjector(FaultPolicy(transient_p=1.0), seed=0, metrics=metrics)
        with pytest.raises(TransientError):
            injector.before("round_trip")
        assert metrics.value("faults_injected") == 1


class TestRetryPolicy:
    def test_backoff_grows_and_caps(self):
        policy = RetryPolicy(
            base_delay_seconds=0.01, max_delay_seconds=0.04, jitter=0.0
        )
        delays = [policy.delay_for(attempt) for attempt in (1, 2, 3, 4, 5)]
        assert delays == [0.01, 0.02, 0.04, 0.04, 0.04]

    def test_jitter_is_deterministic_and_bounded(self):
        policy = RetryPolicy(base_delay_seconds=0.01, jitter=0.5)
        first = policy.delay_for(1, "fetch")
        assert first == policy.delay_for(1, "fetch")
        assert 0.005 <= first <= 0.01
        # Different call sites desynchronize.
        assert policy.delay_for(1, "fetch") != policy.delay_for(1, "load")

    def test_hashable_for_config_keys(self):
        assert hash(RetryPolicy()) == hash(RetryPolicy())


class TestRetryState:
    def test_returns_result_after_transient_failures(self):
        attempts = []

        def flaky():
            attempts.append(1)
            if len(attempts) < 3:
                raise TransientError("boom")
            return "ok"

        state = RetryState(RetryPolicy(max_attempts=4), sleep=no_sleep)
        assert state.run(flaky, op="test") == "ok"
        assert state.retries == 2

    def test_exhausts_attempts(self):
        state = RetryState(RetryPolicy(max_attempts=3), sleep=no_sleep)

        def always_fails():
            raise TransientError("boom")

        with pytest.raises(RetryExhaustedError) as info:
            state.run(always_fails, op="test")
        assert isinstance(info.value.__cause__, TransientError)

    def test_budget_shared_across_call_sites(self):
        state = RetryState(RetryPolicy(max_attempts=10, budget=3), sleep=no_sleep)
        calls = []

        def fails_twice():
            calls.append(1)
            if len(calls) % 3 != 0:
                raise TransientError("boom")
            return "ok"

        state.run(fails_twice, op="a")  # spends 2 retries
        assert state.budget_left == 1
        with pytest.raises(RetryExhaustedError):
            state.run(lambda: (_ for _ in ()).throw(TransientError("x")), op="b")

    def test_non_transient_errors_propagate_immediately(self):
        state = RetryState(RetryPolicy(), sleep=no_sleep)

        def fatal():
            raise DatabaseError("fatal")

        with pytest.raises(DatabaseError):
            state.run(fatal)
        assert state.retries == 0

    def test_retry_counter_in_metrics(self):
        metrics = MetricsRegistry()
        state = RetryState(RetryPolicy(), metrics=metrics, sleep=no_sleep)
        flag = []

        def once():
            if not flag:
                flag.append(1)
                raise TransientError("boom")
            return 1

        state.run(once)
        assert metrics.value("retries") == 1

    def test_on_retry_callback(self):
        ticks = []
        state = RetryState(RetryPolicy(), sleep=no_sleep)
        flag = []

        def once():
            if not flag:
                flag.append(1)
                raise TransientError("boom")
            return 1

        state.run(once, on_retry=lambda: ticks.append(1))
        assert ticks == [1]
