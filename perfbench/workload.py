"""What every workload provides to the runner."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from .common import Context


@dataclass
class Pass:
    """One measured pass: its timed operations and their outcomes."""

    wall_s: float
    op_s: List[float]
    attempted: int
    failed: int = 0
    data: Dict[str, object] = field(default_factory=dict)

    @property
    def busy_s(self) -> float:
        return float(sum(self.op_s))


class Workload:
    """Base: set up (several times), measure, check.

    ``setup`` is called once per set-up repetition; ``reset`` undoes a
    repetition before the next one.  ``measure(seconds)`` runs timed
    operations until ``seconds`` pass; ``measure(seconds, replay=p)``
    repeats the operations of pass ``p`` (the traced pass).
    """

    name = ""
    # Set-up repetitions per run; setup_s is their median.
    setup_reps = 3

    def __init__(self, ctx: Context):
        self.ctx = ctx

    def setup(self) -> None:
        pass

    def reset(self) -> None:
        pass

    def measure(self, seconds: float, replay: Optional[Pass] = None,
                tracer=None) -> Pass:
        raise NotImplementedError

    def check(self, p: Pass) -> int:
        """Failed operations of ``p`` found by the output checks."""
        return 0

    def mismatches(self, p0: Pass, p1: Pass) -> int:
        """Operations whose outputs differ between two passes."""
        return 0

    def end_to_end(self, p: Pass) -> Dict[str, float]:
        """``ops_per_s`` and ``op_ms`` of pass ``p``."""
        raise NotImplementedError

    def child_peak_mb(self) -> float:
        """Peak resident set of a child process still running (MiB)."""
        return 0.0

    def named(self, p: Pass) -> Dict[str, float]:
        """The workload's own headline figures, by their own names."""
        return {}

    def traced_extras(self, p0: Pass, p1: Pass, tracer
                      ) -> Dict[str, float]:
        """Per-layer figures the spans do not give (called traced)."""
        return {}

    def close(self) -> None:
        pass
