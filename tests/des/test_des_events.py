"""Unit tests for the DES event primitives."""

from __future__ import annotations

import pytest

from repro.des.core import Environment
from repro.des.events import ConditionValue
from repro.errors import SimulationError


class TestEventLifecycle:
    def test_new_event_is_untriggered(self, env):
        event = env.event()
        assert not event.triggered
        assert not event.processed

    def test_value_unavailable_before_trigger(self, env):
        event = env.event()
        with pytest.raises(AttributeError):
            _ = event.value

    def test_succeed_sets_value_and_ok(self, env):
        event = env.event()
        event.succeed(42)
        assert event.triggered
        assert event.ok
        assert event.value == 42

    def test_succeed_twice_raises(self, env):
        event = env.event()
        event.succeed(1)
        with pytest.raises(SimulationError):
            event.succeed(2)

    def test_fail_requires_exception(self, env):
        event = env.event()
        with pytest.raises(TypeError):
            event.fail("not an exception")

    def test_fail_sets_not_ok(self, env):
        event = env.event()
        event.fail(RuntimeError("boom"))
        assert event.triggered
        assert not event.ok
        assert isinstance(event.value, RuntimeError)

    def test_processed_after_run(self, env):
        event = env.event()
        event.succeed("done")
        env.run()
        assert event.processed

    def test_callbacks_invoked_with_event(self, env):
        event = env.event()
        seen = []
        event.callbacks.append(lambda ev: seen.append(ev.value))
        event.succeed(7)
        env.run()
        assert seen == [7]

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

        def proc(env):
            yield env.timeout(2.5)
            times.append(env.now)

        env.process(proc(env))
        env.run()
        assert times == [2.5]

    def test_timeout_carries_value(self, env):
        results = []

        def proc(env):
            value = yield env.timeout(1.0, value="payload")
            results.append(value)

        env.process(proc(env))
        env.run()
        assert results == ["payload"]

    def test_zero_delay_allowed(self, env):
        timeout = env.timeout(0.0)
        env.run()
        assert timeout.processed

    def test_delay_property(self, env):
        assert env.timeout(3.25).delay == 3.25


class TestConditions:
    def test_all_of_waits_for_all(self, env):
        order = []

        def waiter(env, t1, t2):
            result = yield env.all_of([t1, t2])
            order.append((env.now, len(result)))

        t1 = env.timeout(1.0, value="a")
        t2 = env.timeout(3.0, value="b")
        env.process(waiter(env, t1, t2))
        env.run()
        assert order == [(3.0, 2)]

    def test_any_of_fires_on_first(self, env):
        order = []

        def waiter(env, t1, t2):
            yield env.any_of([t1, t2])
            order.append(env.now)

        t1 = env.timeout(1.0)
        t2 = env.timeout(3.0)
        env.process(waiter(env, t1, t2))
        env.run()
        assert order == [1.0]

    def test_and_operator(self, env):
        reached = []

        def waiter(env):
            yield env.timeout(1.0) & env.timeout(2.0)
            reached.append(env.now)

        env.process(waiter(env))
        env.run()
        assert reached == [2.0]

    def test_or_operator(self, env):
        reached = []

        def waiter(env):
            yield env.timeout(1.0) | env.timeout(2.0)
            reached.append(env.now)

        env.process(waiter(env))
        env.run()
        assert reached == [1.0]

    def test_empty_all_of_fires_immediately(self, env):
        cond = env.all_of([])
        assert cond.triggered

    def test_condition_value_mapping(self, env):
        collected = {}

        def waiter(env, t1, t2):
            result = yield env.all_of([t1, t2])
            collected["t1"] = result[t1]
            collected["t2"] = result[t2]

        t1 = env.timeout(1.0, value=10)
        t2 = env.timeout(2.0, value=20)
        env.process(waiter(env, t1, t2))
        env.run()
        assert collected == {"t1": 10, "t2": 20}

    def test_condition_value_equality_with_dict(self, env):
        t1 = env.timeout(0.5, value=1)
        cond = env.all_of([t1])
        env.run()
        value = cond.value
        assert isinstance(value, ConditionValue)
        assert value == {t1: 1}
        assert list(value.keys()) == [t1]
        assert list(value.values()) == [1]

    def test_mixing_environments_rejected(self, env):
        other = Environment()
        t_other = other.timeout(1.0)
        with pytest.raises(ValueError):
            env.all_of([t_other])

    def test_failed_child_fails_condition(self, env):
        captured = []

        def waiter(env, bad):
            try:
                yield env.all_of([bad, env.timeout(5.0)])
            except RuntimeError as exc:
                captured.append(str(exc))

        bad = env.event()
        env.process(waiter(env, bad))
        bad.fail(RuntimeError("child failed"))
        env.run()
        assert captured == ["child failed"]


class TestAbsoluteTimeout:
    def test_fires_at_exact_absolute_time(self, env):
        log = []

        def proc(env):
            yield env.timeout(1.5)
            yield env.timeout_at(4.25)
            log.append(env.now)

        env.process(proc(env))
        env.run()
        assert log == [4.25]

    def test_scheduling_in_the_past_rejected(self, env):
        env.timeout(1.0)
        env.run()
        with pytest.raises(ValueError):
            env.timeout_at(0.5)

    def test_exposes_target_time_and_value(self, env):
        event = env.timeout_at(3.0, value="done")
        assert event.at == 3.0
        env.run()
        assert event.value == "done"

    def test_same_time_as_now_allowed(self, env):
        event = env.timeout_at(0.0)
        env.run()
        assert event.processed

    def test_orders_with_timeouts_at_same_time(self, env):
        order = []

        def a(env):
            yield env.timeout(2.0)
            order.append("relative")

        def b(env):
            yield env.timeout_at(2.0)
            order.append("absolute")

        env.process(a(env))
        env.process(b(env))
        env.run()
        # Same time, same NORMAL priority: creation order breaks the tie.
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
        from repro.des.events import Initialize

        assert not hasattr(env.event(), "__dict__")
        assert not hasattr(env.timeout_at(1.0), "__dict__")
        assert not hasattr(env.all_of([]), "__dict__")
        assert not hasattr(env.any_of([]), "__dict__")

        def proc(env):
            yield env.timeout(1.0)

        process = env.process(proc(env))
        assert not hasattr(process, "__dict__")
        # Initialize is created internally by Process; build one directly.
        assert not hasattr(Initialize(env, process), "__dict__")

    def test_message_has_no_dict(self):
        from repro.simulation.message import Message

        assert not hasattr(Message(0, (0, 0), (0, 1), 1024.0, 0.0), "__dict__")
