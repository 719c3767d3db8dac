"""Unit tests for the DES event primitives.

The kernel runs no processes: tests that need events processed attach
callbacks to them and step the environment until the heap is empty.
"""

from __future__ import annotations

import pytest

from repro.errors import SimulationError


def drain(env):
    """Process every scheduled event."""
    while env.queue_size:
        env.step()


class TestEventLifecycle:
    def test_new_event_is_untriggered(self, env):
        event = env.event()
        assert not event.triggered
        assert not event.processed

    def test_value_unavailable_before_trigger(self, env):
        event = env.event()
        with pytest.raises(AttributeError):
            _ = event.value

    def test_succeed_sets_value(self, env):
        event = env.event()
        event.succeed(42)
        assert event.triggered
        assert event.value == 42

    def test_succeed_twice_raises(self, env):
        event = env.event()
        event.succeed(1)
        with pytest.raises(SimulationError):
            event.succeed(2)

    def test_processed_after_step(self, env):
        event = env.event()
        event.succeed("done")
        assert not event.processed
        env.step()
        assert event.processed
        assert env.queue_size == 0

    def test_callbacks_invoked_with_event(self, env):
        event = env.event()
        seen = []
        event.callbacks.append(lambda ev: seen.append((ev, ev.value)))
        event.succeed(7)
        drain(env)
        assert seen == [(event, 7)]

    def test_repr_contains_value_after_trigger(self, env):
        event = env.event()
        event.succeed("xyz")
        assert "xyz" in repr(event)


class TestTimeout:
    def test_negative_delay_rejected(self, env):
        with pytest.raises(ValueError):
            env.timeout(-1.0)

    def test_timeout_fires_at_delay(self, env):
        times = []
        env.timeout(2.5).callbacks.append(lambda ev: times.append(env.now))
        drain(env)
        assert times == [2.5]

    def test_timeout_carries_value(self, env):
        results = []
        env.timeout(1.0, value="payload").callbacks.append(
            lambda ev: results.append(ev.value)
        )
        drain(env)
        assert results == ["payload"]

    def test_zero_delay_allowed(self, env):
        timeout = env.timeout(0.0)
        drain(env)
        assert timeout.processed
        assert env.now == 0.0

    def test_delay_property(self, env):
        assert env.timeout(3.25).delay == 3.25


class TestAbsoluteTimeout:
    def test_fires_at_exact_absolute_time(self, env):
        log = []

        def schedule_absolute(_event):
            env.timeout_at(4.25).callbacks.append(lambda ev: log.append(env.now))

        env.timeout(1.5).callbacks.append(schedule_absolute)
        drain(env)
        assert log == [4.25]

    def test_scheduling_in_the_past_rejected(self, env):
        env.timeout(1.0)
        drain(env)
        with pytest.raises(ValueError):
            env.timeout_at(0.5)

    def test_exposes_target_time_and_value(self, env):
        event = env.timeout_at(3.0, value="done")
        assert event.at == 3.0
        drain(env)
        assert event.value == "done"
        assert env.now == 3.0

    def test_same_time_as_now_allowed(self, env):
        event = env.timeout_at(0.0)
        drain(env)
        assert event.processed

    def test_orders_with_timeouts_at_same_time(self, env):
        order = []
        env.timeout(2.0).callbacks.append(lambda ev: order.append("relative"))
        env.timeout_at(2.0).callbacks.append(lambda ev: order.append("absolute"))
        drain(env)
        # Same time: creation order breaks the tie.
        assert order == ["relative", "absolute"]


class TestEventSlots:
    """The event classes must not carry a per-instance ``__dict__``.

    ``Timeout.__slots__`` is only effective because every class on its MRO
    (``Event`` included) declares ``__slots__``; a single slot-less base
    would silently re-introduce a dict on each of the millions of events a
    simulation allocates.
    """

    def test_timeout_has_no_dict(self, env):
        assert not hasattr(env.timeout(1.0), "__dict__")

    def test_event_family_has_no_dict(self, env):
        assert not hasattr(env.event(), "__dict__")
        assert not hasattr(env.timeout_at(1.0), "__dict__")

    def test_message_has_no_dict(self):
        from repro.simulation.message import Message

        assert not hasattr(Message(0, (0, 0), (0, 1), 1024.0, 0.0), "__dict__")
