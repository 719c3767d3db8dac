"""Event primitives for the discrete-event simulation kernel.

The kernel follows the SimPy programming model: simulation *processes* are
Python generators that ``yield`` :class:`Event` objects and are resumed when
those events are *processed* by the environment.  This module defines the
event classes; the scheduler lives in :mod:`repro.des.core` and the process
wrapper in :mod:`repro.des.process`.

Semantics
---------
An event goes through three states:

``untriggered``
    Created but not yet scheduled.
``triggered``
    Scheduled in the environment's event queue with a value (or an
    exception), waiting for its scheduled time to be reached.
``processed``
    Popped from the queue; all callbacks have run and waiting processes have
    been resumed.

Events may *succeed* (carry a value) or *fail* (carry an exception that is
re-raised inside every waiting process).
"""

from __future__ import annotations

from heapq import heappush
from typing import TYPE_CHECKING, Any, Callable, List, Optional

from ..errors import SimulationError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .core import Environment

__all__ = [
    "PENDING",
    "URGENT",
    "NORMAL",
    "Event",
    "Timeout",
    "AbsoluteTimeout",
    "Initialize",
]


#: Sentinel marking an event whose value has not been set yet.
PENDING: object = object()

#: Scheduling priority for events that must run before same-time events.
URGENT: int = 0

#: Default scheduling priority.
NORMAL: int = 1


class Event:
    """A single outcome that simulation processes can wait for.

    Parameters
    ----------
    env:
        The :class:`~repro.des.core.Environment` the event belongs to.

    Notes
    -----
    ``Event`` instances are single-shot: once triggered they cannot be
    triggered again.  Callbacks are plain callables invoked with the event as
    their only argument after the event has been popped from the queue.
    """

    __slots__ = ("env", "callbacks", "_value", "_ok", "_defused")

    def __init__(self, env: "Environment") -> None:
        self.env = env
        #: Callables run when the event is processed; ``None`` afterwards.
        self.callbacks: Optional[List[Callable[["Event"], None]]] = []
        self._value: Any = PENDING
        self._ok: bool = True
        self._defused: bool = False

    # -- state ------------------------------------------------------------

    @property
    def triggered(self) -> bool:
        """``True`` once the event has been scheduled with a value."""
        return self._value is not PENDING

    @property
    def processed(self) -> bool:
        """``True`` once callbacks have been invoked."""
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        """``True`` if the event succeeded (only meaningful once triggered)."""
        return self._ok

    @property
    def value(self) -> Any:
        """The value (or exception) the event was triggered with."""
        if self._value is PENDING:
            raise AttributeError(f"Value of {self!r} is not yet available")
        return self._value

    # -- triggering -------------------------------------------------------

    def succeed(self, value: Any = None, priority: int = NORMAL) -> "Event":
        """Trigger the event successfully with ``value``.

        Returns the event itself so calls can be chained or yielded.
        """
        if self.triggered:
            raise SimulationError(f"{self!r} has already been triggered")
        self._ok = True
        self._value = value
        self.env.schedule(self, priority=priority)
        return self

    def fail(self, exception: BaseException, priority: int = NORMAL) -> "Event":
        """Trigger the event as *failed* with ``exception``.

        The exception is re-raised in every process waiting on the event.
        """
        if self.triggered:
            raise SimulationError(f"{self!r} has already been triggered")
        if not isinstance(exception, BaseException):
            raise TypeError(f"{exception!r} is not an exception")
        self._ok = False
        self._value = exception
        self.env.schedule(self, priority=priority)
        return self

    # -- misc -------------------------------------------------------------

    def __repr__(self) -> str:
        detail = ""
        if self.triggered:
            detail = f" value={self._value!r} ok={self._ok}"
        return f"<{type(self).__name__}{detail} at 0x{id(self):x}>"


class Timeout(Event):
    """An event that fires after a fixed simulated ``delay``.

    Timeouts are triggered at creation time; they cannot fail or be
    cancelled.
    """

    __slots__ = ("_delay",)

    def __init__(self, env: "Environment", delay: float, value: Any = None) -> None:
        # Timeouts dominate event traffic (one per arrival and per service
        # completion), so the generic Event/schedule path is inlined here:
        # one validation, one heap push, no delegation.
        delay = float(delay)
        if delay < 0:
            raise ValueError(f"Negative delay {delay!r} is not allowed")
        self.env = env
        self.callbacks = []
        self._ok = True
        self._value = value
        self._defused = False
        self._delay = delay
        heappush(env._queue, (env._now + delay, NORMAL, next(env._eid), self))

    @property
    def delay(self) -> float:
        """The delay the timeout was created with."""
        return self._delay

    def __repr__(self) -> str:
        return f"<Timeout delay={self._delay!r} at 0x{id(self):x}>"


class AbsoluteTimeout(Event):
    """An event that fires at an absolute simulated time ``at``.

    The simulation layer schedules departures at exact, precomputed times
    (``start + service_time``); expressing them as relative delays would
    re-derive the time as ``now + (at - now)``, which is not the same float.
    Like :class:`Timeout`, the event is triggered at creation and inlines
    its heap insertion.
    """

    __slots__ = ("_at",)

    def __init__(self, env: "Environment", at: float, value: Any = None) -> None:
        at = float(at)
        if at < env._now:
            raise ValueError(f"Cannot schedule at {at!r}, before current time {env._now!r}")
        self.env = env
        self.callbacks = []
        self._ok = True
        self._value = value
        self._defused = False
        self._at = at
        heappush(env._queue, (at, NORMAL, next(env._eid), self))

    @property
    def at(self) -> float:
        """The absolute time the event fires at."""
        return self._at

    def __repr__(self) -> str:
        return f"<AbsoluteTimeout at={self._at!r} at 0x{id(self):x}>"


class Initialize(Event):
    """Internal event used to start a newly created process."""

    __slots__ = ()

    def __init__(self, env: "Environment", process: "Event") -> None:
        super().__init__(env)
        self.callbacks = [process._resume]  # type: ignore[attr-defined]
        self._ok = True
        self._value = None
        env.schedule(self, priority=URGENT)
