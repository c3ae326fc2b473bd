"""Three-valued decision results carrying witnesses or reasons."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

HOLDS = "holds"
FAILS = "fails"
UNKNOWN = "unknown"


@dataclass(frozen=True)
class TriBool:
    """Outcome of a decision procedure.

    A ``fails`` result carries a concrete witness (element or class) that can
    be replayed through the kernels; ``unknown`` carries the missing premise.
    ``notes`` records the justification trail (strategy labels, applied facts).
    """

    status: str
    witness: Any = None
    reason: str = ""
    notes: tuple[str, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        if self.status not in (HOLDS, FAILS, UNKNOWN):
            raise ValueError(f"bad status {self.status!r}")

    @property
    def holds(self) -> bool:
        return self.status == HOLDS

    @property
    def fails(self) -> bool:
        return self.status == FAILS

    @property
    def unknown(self) -> bool:
        return self.status == UNKNOWN

    @property
    def decided(self) -> bool:
        return self.status != UNKNOWN

    def with_notes(self, *extra: str) -> "TriBool":
        return TriBool(self.status, self.witness, self.reason, self.notes + tuple(extra))

    def __bool__(self) -> bool:
        raise TypeError("TriBool is three-valued; use .holds/.fails/.unknown")

    def __repr__(self) -> str:
        bits = [self.status]
        if self.witness is not None:
            bits.append(f"witness={self.witness!r}")
        if self.reason:
            bits.append(f"reason={self.reason!r}")
        return f"TriBool({', '.join(bits)})"


def holds(*notes: str, witness: Any = None) -> TriBool:
    return TriBool(HOLDS, witness=witness, notes=tuple(notes))


def fails(witness: Any = None, *notes: str) -> TriBool:
    return TriBool(FAILS, witness=witness, notes=tuple(notes))


def unknown(reason: str, *notes: str) -> TriBool:
    return TriBool(UNKNOWN, reason=reason, notes=tuple(notes))
