"""Generator-based simulation processes.

A *process* wraps a Python generator.  The generator yields
:class:`~repro.des.events.Event` instances; whenever a yielded event is
processed the generator is resumed with the event's value (or the event's
exception is thrown into it).  The process itself is an event that fires when
the generator terminates, so processes can wait for one another.
"""

from __future__ import annotations

from types import GeneratorType
from typing import TYPE_CHECKING, Any, Generator

from ..errors import SimulationError
from .events import Event, Initialize, NORMAL, PENDING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .core import Environment

__all__ = ["Process", "ProcessGenerator"]

#: Type alias for generators usable as process bodies.
ProcessGenerator = Generator[Event, Any, Any]


class Process(Event):
    """Execute a generator as a simulation process.

    The process is itself an event: it succeeds with the generator's return
    value when the generator finishes, or fails with the exception the
    generator raised (unless some other process is waiting for it, in which
    case the exception is delivered there).

    Parameters
    ----------
    env:
        Owning environment.
    generator:
        The generator to execute.  It must yield :class:`Event` objects.
    """

    __slots__ = ("_generator",)

    def __init__(self, env: "Environment", generator: ProcessGenerator) -> None:
        if not isinstance(generator, GeneratorType):
            raise TypeError(f"{generator!r} is not a generator")
        super().__init__(env)
        self._generator = generator
        Initialize(env, self)

    # -- introspection ----------------------------------------------------

    @property
    def is_alive(self) -> bool:
        """``True`` while the wrapped generator has not terminated."""
        return self._value is PENDING

    @property
    def name(self) -> str:
        """Name of the wrapped generator function."""
        return self._generator.__name__

    def __repr__(self) -> str:
        return f"<Process({self.name}) object at 0x{id(self):x}>"

    # -- engine callbacks --------------------------------------------------

    def _resume(self, event: Event) -> None:
        """Resume the generator with the outcome of ``event``.

        This is registered as a callback on whatever event the process is
        waiting for and drives the generator until it yields the next
        untriggered event (or terminates).
        """
        while True:
            try:
                if event._ok:
                    next_event = self._generator.send(event._value)
                else:
                    # The waited-for event failed: re-raise inside the process.
                    event._defused = True
                    exc = event._value
                    if not isinstance(exc, BaseException):  # pragma: no cover
                        exc = SimulationError(repr(exc))
                    next_event = self._generator.throw(exc)
            except StopIteration as stop:
                # Generator finished normally.
                self._ok = True
                self._value = stop.value
                self.env.schedule(self, priority=NORMAL)
                break
            except BaseException as exc:
                # Generator raised: the process event fails.
                self._ok = False
                self._value = exc
                self.env.schedule(self, priority=NORMAL)
                break

            # The generator yielded ``next_event``.
            if not isinstance(next_event, Event):
                exc = SimulationError(
                    f"Process {self.name!r} yielded {next_event!r}, expected an Event"
                )
                event = Event(self.env)
                event._ok = False
                event._value = exc
                continue

            if next_event.callbacks is not None:
                # Event not yet processed: wait for it.
                next_event.callbacks.append(self._resume)
                break

            # Event already processed: loop immediately with its outcome.
            event = next_event
