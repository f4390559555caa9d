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


class TestStoppingSettings:
    """Bad stopping settings and weights fail at construction, by name."""

    @pytest.fixture(params=["offline", "online", "unified", "sharded"])
    def solver_class(self, request):
        from repro.core.offline import OfflineTriClustering
        from repro.core.online import OnlineTriClustering
        from repro.core.sharded import ShardedTriClustering
        from repro.core.unified import UnifiedTriClustering

        return {
            "offline": OfflineTriClustering,
            "online": OnlineTriClustering,
            "unified": UnifiedTriClustering,
            "sharded": ShardedTriClustering,
        }[request.param]

    @pytest.mark.parametrize("tolerance", [float("nan"), float("inf"), -1e-6])
    def test_rejects_bad_tolerance(self, solver_class, tolerance):
        with pytest.raises(ValueError, match="tolerance"):
            solver_class(tolerance=tolerance)

    def test_rejects_zero_patience(self, solver_class):
        with pytest.raises(ValueError, match="patience"):
            solver_class(patience=0)

    def test_rejects_zero_max_iterations(self, solver_class):
        with pytest.raises(ValueError, match="max_iterations"):
            solver_class(max_iterations=0)

    def test_zero_tolerance_still_allowed(self, solver_class):
        assert solver_class(tolerance=0.0).tolerance == 0.0

    @pytest.mark.parametrize("name", ["alpha", "beta", "gamma"])
    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_weights_reject_non_finite(self, name, bad):
        from repro.core.objective import ObjectiveWeights

        with pytest.raises(ValueError, match=name):
            ObjectiveWeights(**{name: bad})

    @pytest.mark.parametrize("name", ["alpha", "beta"])
    def test_solvers_reject_nan_weights(self, name):
        from repro.core.offline import OfflineTriClustering
        from repro.core.online import OnlineTriClustering

        for solver_class in (OfflineTriClustering, OnlineTriClustering):
            with pytest.raises(ValueError, match=name):
                solver_class(**{name: float("nan")})
