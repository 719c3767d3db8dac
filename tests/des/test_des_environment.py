"""Unit tests for the DES environment / scheduler.

The kernel runs no processes: tests that need events processed attach
callbacks to them and step the environment until the heap is empty.
"""

from __future__ import annotations

import pytest

from repro.des.core import EmptySchedule, Environment


def drain(env):
    """Process every scheduled event."""
    while env.queue_size:
        env.step()


class TestClock:
    def test_initial_time_default(self):
        assert Environment().now == 0.0

    def test_initial_time_custom(self):
        assert Environment(initial_time=100.0).now == 100.0

    def test_time_advances_monotonically(self, env):
        seen = []
        delays = iter((0.5, 2.0))

        def record(_event):
            seen.append(env.now)
            delay = next(delays, None)
            if delay is not None:
                env.timeout(delay).callbacks.append(record)

        env.timeout(1.0).callbacks.append(record)
        drain(env)
        assert seen == [1.0, 1.5, 3.5]
        assert seen == sorted(seen)

    def test_peek_returns_next_event_time(self, env):
        env.timeout(4.0)
        env.timeout(2.0)
        assert env.peek() == 2.0

    def test_peek_empty_is_inf(self, env):
        assert env.peek() == float("inf")


class TestStep:
    def test_step_on_empty_schedule_raises(self, env):
        with pytest.raises(EmptySchedule):
            env.step()


class TestOrdering:
    def test_same_time_fifo_order(self, env):
        order = []
        for name in ("a", "b", "c"):
            env.timeout(1.0, name).callbacks.append(lambda ev: order.append(ev.value))
        drain(env)
        assert order == ["a", "b", "c"]

    def test_queue_size_tracks_scheduled_events(self, env):
        env.timeout(1.0)
        env.timeout(2.0)
        assert env.queue_size == 2
        env.step()
        assert env.queue_size == 1

    def test_repr_contains_time(self, env):
        env.timeout(1.0)
        assert "t=0.0" in repr(env)
