"""Tests for convergence tracking."""

import pytest

from repro.core.convergence import ConvergenceHistory
from repro.core.objective import ObjectiveValue


def value(total: float) -> ObjectiveValue:
    return ObjectiveValue(
        tweet_loss=total / 2,
        user_loss=total / 4,
        retweet_loss=total / 4,
        lexicon_loss=0.0,
        graph_loss=0.0,
        temporal_loss=0.0,
    )


class TestHistory:
    def test_append_and_traces(self):
        history = ConvergenceHistory()
        for total in (10.0, 8.0, 7.5):
            history.append(value(total))
        assert len(history) == 3
        assert history.totals == [10.0, 8.0, 7.5]
        assert history.tweet_losses == [5.0, 4.0, 3.75]
        assert history.user_losses == [2.5, 2.0, 1.875]
        assert history.final.total == 7.5
        assert history.records[0].iteration == 0

    def test_final_on_empty_raises(self):
        with pytest.raises(ValueError):
            ConvergenceHistory().final

    def test_truthy_when_empty(self):
        assert ConvergenceHistory()


class TestConverged:
    def test_detects_plateau(self):
        history = ConvergenceHistory()
        for total in (10.0, 5.0, 5.0001, 5.0001):
            history.append(value(total))
        assert history.converged(tolerance=1e-3, window=2)

    def test_not_converged_when_still_moving(self):
        history = ConvergenceHistory()
        for total in (10.0, 8.0, 6.0):
            history.append(value(total))
        assert not history.converged(tolerance=1e-3, window=2)

    def test_needs_enough_records(self):
        history = ConvergenceHistory()
        history.append(value(10.0))
        assert not history.converged(tolerance=1.0, window=1)

    def test_window_requires_sustained_plateau(self):
        history = ConvergenceHistory()
        for total in (10.0, 10.0, 5.0, 5.0):
            history.append(value(total))
        # last step is flat but the one before was not: window=2 fails
        assert history.converged(tolerance=1e-3, window=1)
        assert not history.converged(tolerance=1e-3, window=2)

    def test_zero_objective_plateau(self):
        history = ConvergenceHistory()
        for total in (0.0, 0.0):
            history.append(value(total))
        assert history.converged(tolerance=1e-6, window=1)

    @pytest.mark.parametrize("window", [0, 1, 2, 3])
    def test_pending_matches_appending(self, window):
        totals = (10.0, 10.0, 5.0, 5.0001, 5.0001, 5.0001)
        for count in range(len(totals)):
            history = ConvergenceHistory()
            for total in totals[:count]:
                history.append(value(total))
            appended = ConvergenceHistory(list(history.records))
            appended.append(value(totals[count]))
            assert history.converged(
                1e-3, window, pending=value(totals[count])
            ) == appended.converged(1e-3, window)
            assert len(history) == count
