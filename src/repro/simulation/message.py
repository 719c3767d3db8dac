"""Message records produced by the validation simulator."""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

__all__ = ["Message"]


@dataclass(slots=True)
class Message:
    """A single simulated request/reply interaction.

    Times are simulation seconds; ``None`` until the corresponding event has
    happened.  ``path`` names the service centres the message crosses, in
    order, which the integration tests use to assert correct routing.

    The dataclass is slotted: one ``Message`` is allocated per simulated
    request, so dropping the per-instance ``__dict__`` measurably shrinks
    the simulator's allocation footprint.
    """

    ident: int
    source: Tuple[int, int]
    destination: Tuple[int, int]
    size_bytes: float
    created_at: float
    completed_at: Optional[float] = None

    @property
    def path(self) -> List[str]:
        """The service centres a local or remote message crosses, in order."""
        source, destination = self.source[0], self.destination[0]
        if source == destination:
            return [f"icn1[{source}]"]
        return [f"ecn1[{source}]", "icn2", f"ecn1[{destination}]"]

    @property
    def is_remote(self) -> bool:
        """Whether source and destination are in different clusters."""
        return self.source[0] != self.destination[0]

    @property
    def latency(self) -> float:
        """End-to-end message latency (raises if not yet completed)."""
        if self.completed_at is None:
            raise ValueError(f"message {self.ident} has not completed yet")
        return self.completed_at - self.created_at

    def __repr__(self) -> str:
        status = "done" if self.completed_at is not None else "pending"
        return (
            f"<Message #{self.ident} {self.source}->{self.destination} "
            f"{self.size_bytes:g}B {status}>"
        )
