"""Regularizer inputs are checked: at construction, and against the
target factor when a unified fit starts."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.core.regularizers import (
    GraphSmoothness,
    GuidedLabels,
    PriorCloseness,
    Sparsity,
)
from repro.core.unified import UnifiedTriClustering


class TestConstruction:
    @pytest.mark.parametrize("weight", [float("nan"), float("inf")])
    def test_rejects_non_finite_weight(self, weight):
        with pytest.raises(ValueError, match="weight"):
            Sparsity("sp", weight)

    def test_rejects_non_finite_prior(self):
        prior = np.ones((3, 3))
        prior[1, 2] = np.nan
        with pytest.raises(ValueError, match="prior must be finite"):
            PriorCloseness("sf", prior, 1.0)

    def test_rejects_non_finite_adjacency(self):
        adjacency = sp.csr_matrix(np.array([[0.0, np.inf], [np.inf, 0.0]]))
        with pytest.raises(ValueError, match="adjacency must be finite"):
            GraphSmoothness("su", adjacency, 1.0)


def fit(graph, regularizer):
    UnifiedTriClustering(regularizers=[regularizer], max_iterations=1).fit(graph)


class TestAgainstTarget:
    def test_guided_rows_below_zero(self, graph):
        regularizer = GuidedLabels("su", [-1], [0], 3, 1.0)
        with pytest.raises(ValueError, match=r"GuidedLabels on su: rows"):
            fit(graph, regularizer)

    def test_guided_rows_past_the_end(self, graph):
        regularizer = GuidedLabels("su", [graph.num_users], [0], 3, 1.0)
        with pytest.raises(ValueError, match=r"GuidedLabels on su: rows"):
            fit(graph, regularizer)

    def test_guided_class_count(self, graph):
        regularizer = GuidedLabels("su", [0], [0], 4, 1.0)
        with pytest.raises(ValueError, match=r"GuidedLabels on su: labels"):
            fit(graph, regularizer)

    def test_masked_prior_rows(self, graph):
        regularizer = PriorCloseness(
            "sp", np.ones((1, 3)), 1.0, rows=[graph.num_tweets]
        )
        with pytest.raises(ValueError, match=r"PriorCloseness on sp: rows"):
            fit(graph, regularizer)

    def test_prior_does_not_broadcast(self, graph):
        regularizer = PriorCloseness("sf", np.ones((1, 3)), 1.0)
        with pytest.raises(ValueError, match=r"PriorCloseness on sf: prior"):
            fit(graph, regularizer)

    def test_masked_prior_columns(self, graph):
        regularizer = PriorCloseness("su", np.ones((1, 2)), 1.0, rows=[0])
        with pytest.raises(ValueError, match=r"PriorCloseness on su: prior"):
            fit(graph, regularizer)

    def test_adjacency_size(self, graph):
        regularizer = GraphSmoothness("su", sp.identity(graph.num_users + 1), 1.0)
        with pytest.raises(ValueError, match=r"GraphSmoothness on su: adjacency"):
            fit(graph, regularizer)

    def test_adjacency_of_another_target(self, graph):
        regularizer = GraphSmoothness("sp", sp.identity(graph.num_users), 1.0)
        with pytest.raises(ValueError, match=r"GraphSmoothness on sp: adjacency"):
            fit(graph, regularizer)

    def test_fitting_stack_passes(self, graph):
        rows = np.array([0, graph.num_users - 1])
        UnifiedTriClustering(
            regularizers=[
                GuidedLabels("su", rows, [0, 2], 3, 1.0),
                PriorCloseness("su", np.ones((2, 3)), 1.0, rows=rows),
                PriorCloseness("sf", graph.sf0, 0.05),
            ],
            max_iterations=1,
        ).fit(graph)


class TestSolveLoopScope:
    """The stack indexes global rows, so it runs on one in-process shard."""

    @pytest.mark.parametrize(
        ("n_shards", "backend"), [(2, "thread"), (1, "socket")]
    )
    def test_stack_needs_one_in_process_shard(
        self, graph, n_shards, backend, request
    ):
        from repro.core.sharded import ShardedTriClustering

        class RegularizedSharded(ShardedTriClustering):
            regularizers = (Sparsity("sp", 0.1),)

        workers = (
            request.getfixturevalue("socket_workers")
            if backend == "socket"
            else None
        )
        solver = RegularizedSharded(
            n_shards=n_shards, backend=backend, workers=workers,
            max_iterations=1,
        )
        with pytest.raises(ValueError, match="one-shard in-process"):
            solver.fit(graph)
