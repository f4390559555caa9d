"""Per-iteration loss tracking and convergence detection.

The paper's Figure 8 plots the Frobenius loss of Eq. (2) (tweet-feature
approximation), Eq. (3) (user-feature approximation) and the total
objective of Eq. (1) against iterations; :class:`ConvergenceHistory`
records exactly those traces so the figure can be regenerated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.core.objective import ObjectiveValue


def validate_stopping(max_iterations: int, tolerance: float, patience: int) -> None:
    """Reject settings that stop a solve early (a NaN tolerance passes
    every relative-change test) or never test convergence at all."""
    if max_iterations < 1:
        raise ValueError(f"max_iterations must be >= 1, got {max_iterations}")
    if not math.isfinite(tolerance) or tolerance < 0:
        raise ValueError(f"tolerance must be a finite number >= 0, got {tolerance}")
    if patience < 1:
        raise ValueError(f"patience must be >= 1, got {patience}")


@dataclass(frozen=True)
class IterationRecord:
    """Objective snapshot after one full update sweep."""

    iteration: int
    objective: ObjectiveValue

    @property
    def total(self) -> float:
        return self.objective.total

    @property
    def tweet_loss(self) -> float:
        return self.objective.tweet_loss

    @property
    def user_loss(self) -> float:
        return self.objective.user_loss


@dataclass
class ConvergenceHistory:
    """Loss traces over the optimization run."""

    records: list[IterationRecord] = field(default_factory=list)

    def append(self, objective: ObjectiveValue) -> None:
        self.records.append(
            IterationRecord(iteration=len(self.records), objective=objective)
        )

    def __len__(self) -> int:
        return len(self.records)

    def __bool__(self) -> bool:
        # A history object is truthy even before any record lands.
        return True

    @property
    def totals(self) -> list[float]:
        """Total-objective trace (Figure 8c)."""
        return [record.total for record in self.records]

    @property
    def tweet_losses(self) -> list[float]:
        """Eq. (2) trace (Figure 8a)."""
        return [record.tweet_loss for record in self.records]

    @property
    def user_losses(self) -> list[float]:
        """Eq. (3) trace (Figure 8b)."""
        return [record.user_loss for record in self.records]

    @property
    def final(self) -> IterationRecord:
        if not self.records:
            raise ValueError("no iterations recorded")
        return self.records[-1]

    def converged(
        self,
        tolerance: float,
        window: int = 1,
        pending: ObjectiveValue | None = None,
    ) -> bool:
        """Relative-change convergence test on the total objective.

        True when the total objective changed by less than ``tolerance``
        (relatively) over each of the last ``window`` iterations.
        ``pending`` is tested as if it had been appended (the history
        itself is left as it is).
        """
        totals = [record.total for record in self.records[-window - 1:]]
        if pending is not None:
            totals = (totals + [pending.total])[-window - 1:]
        if len(totals) < window + 1:
            return False
        for offset in range(window):
            current = totals[-1 - offset]
            previous = totals[-2 - offset]
            denom = max(abs(previous), 1e-30)
            if abs(previous - current) / denom >= tolerance:
                return False
        return True
