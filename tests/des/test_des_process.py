"""Unit tests for DES processes."""

from __future__ import annotations

import pytest

from repro.des.process import Process
from repro.errors import SimulationError


class TestProcessBasics:
    def test_process_requires_generator(self, env):
        with pytest.raises(TypeError):
            Process(env, lambda: None)  # type: ignore[arg-type]

    def test_process_is_alive_until_done(self, env):
        def worker(env):
            yield env.timeout(1.0)

        proc = env.process(worker(env))
        assert proc.is_alive
        env.run()
        assert not proc.is_alive

    def test_process_return_value(self, env):
        def worker(env):
            yield env.timeout(1.0)
            return 99

        proc = env.process(worker(env))
        env.run()
        assert proc.value == 99

    def test_process_name(self, env):
        def my_worker(env):
            yield env.timeout(1.0)

        proc = env.process(my_worker(env))
        assert proc.name == "my_worker"
        assert "my_worker" in repr(proc)

    def test_waiting_for_another_process(self, env):
        order = []

        def child(env):
            yield env.timeout(2.0)
            order.append("child")
            return "child-result"

        def parent(env):
            result = yield env.process(child(env))
            order.append(f"parent:{result}")

        env.process(parent(env))
        env.run()
        assert order == ["child", "parent:child-result"]

    def test_yielding_non_event_fails_process(self, env):
        def bad(env):
            yield 42  # not an Event  # repro: noqa REP401 -- deliberately bad

        env.process(bad(env))
        with pytest.raises(SimulationError):
            env.run()

    def test_exception_in_process_propagates_to_waiter(self, env):
        seen = []

        def failing(env):
            yield env.timeout(1.0)
            raise KeyError("inner")

        def waiter(env):
            try:
                yield env.process(failing(env))
            except KeyError as exc:
                seen.append(str(exc))

        env.process(waiter(env))
        env.run()
        assert seen == ["'inner'"]

    def test_sequential_timeouts_accumulate(self, env):
        trace = []

        def worker(env):
            for _ in range(3):
                yield env.timeout(1.5)
                trace.append(env.now)

        env.process(worker(env))
        env.run()
        assert trace == [1.5, 3.0, 4.5]

    def test_already_processed_event_resumes_immediately(self, env):
        """Yielding an event that already fired should not deadlock."""
        results = []

        def worker(env, ready):
            yield env.timeout(2.0)
            value = yield ready  # ready fired at t=0
            results.append((env.now, value))

        ready = env.event()
        ready.succeed("early")
        env.process(worker(env, ready))
        env.run()
        assert results == [(2.0, "early")]
