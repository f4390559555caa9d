"""Bitwise parity of the unified solver with Algorithm 1 and its oracle.

:class:`~repro.core.unified.UnifiedTriClustering` runs on the shared
solve loop.  With any stack it must equal the sequential loop it used to
run (kept in ``tests/core/reference.py``), and with an empty stack the
offline solver at ``α = β = 0`` — factors, totals, regularizer values
and iteration counts, bit for bit.  With the base stack it must equal
the offline solver's factors and stopping point bit for bit.
"""

import numpy as np
import pytest

from repro.core.offline import OfflineTriClustering
from repro.core.regularizers import (
    Diversity,
    GraphSmoothness,
    GuidedLabels,
    PriorCloseness,
    Sparsity,
)
from repro.core.unified import UnifiedTriClustering

from tests.core.reference import ReferenceUnifiedTriClustering

FACTORS = ("sf", "sp", "su", "hp", "hu")

#: ``(max_iterations, tolerance)``: fixed sweep counts, then the default
#: tolerance, which stops the solve early.
SCHEDULES = [(1, 0.0), (5, 0.0), (40, 0.0), (100, 1e-6)]


def base_stack(graph):
    return [
        PriorCloseness("sf", graph.sf0, 0.05),
        GraphSmoothness("su", graph.user_graph.adjacency, 0.8),
    ]


def extended_stacks(graph):
    labels = np.arange(graph.num_users) % 3
    guided_rows = np.arange(0, graph.num_users, 7)
    masked_rows = np.arange(1, graph.num_users, 5)
    prior = np.full((masked_rows.size, 3), 1.0 / 3.0)
    return {
        "base": [],
        "sparsity-sp": [Sparsity("sp", 0.05)],
        "diversity-sf": [Diversity("sf", 0.5)],
        "guided-su": [
            GuidedLabels("su", guided_rows, labels[guided_rows], 3, 5.0)
        ],
        "masked-prior-su": [
            PriorCloseness("su", prior, 0.3, rows=masked_rows)
        ],
    }


def assert_same_factors(left, right):
    for name in FACTORS:
        assert np.array_equal(
            getattr(left.factors, name), getattr(right.factors, name)
        ), name


@pytest.mark.parametrize(("max_iterations", "tolerance"), SCHEDULES)
def test_base_stack_is_algorithm_1(graph, max_iterations, tolerance):
    """Same factors and stopping point as Algorithm 1, bit for bit.

    The objective agrees to round-off only: ``GraphSmoothness`` evaluates
    ``tr(Sᵀ(D·S − G·S))`` where the offline objective evaluates
    ``tr(Sᵀ(L·S))``, so the graph term (and through it the total) can
    differ in the last bit.  The lexicon term is the same expression.
    """
    unified = UnifiedTriClustering(
        regularizers=base_stack(graph), max_iterations=max_iterations,
        tolerance=tolerance, seed=7,
    ).fit(graph)
    offline = OfflineTriClustering(
        alpha=0.05, beta=0.8, max_iterations=max_iterations,
        tolerance=tolerance, seed=7,
    ).fit(graph)
    assert_same_factors(unified, offline)
    assert unified.iterations == offline.iterations
    assert unified.converged == offline.converged
    records = offline.history.records
    assert [values["priorcloseness_sf_0"] for values in unified.regularizer_values] == [
        record.objective.lexicon_loss for record in records
    ]
    np.testing.assert_allclose(
        [values["graphsmoothness_su_1"] for values in unified.regularizer_values],
        [record.objective.graph_loss for record in records],
        rtol=1e-12,
    )
    np.testing.assert_allclose(
        unified.totals, offline.history.totals, rtol=1e-12, atol=0
    )


@pytest.mark.parametrize(("max_iterations", "tolerance"), [(20, 0.0), (100, 1e-6)])
def test_empty_stack_is_unregularized_algorithm_1(graph, max_iterations, tolerance):
    unified = UnifiedTriClustering(
        max_iterations=max_iterations, tolerance=tolerance, seed=3
    ).fit(graph)
    offline = OfflineTriClustering(
        alpha=0.0, beta=0.0, max_iterations=max_iterations,
        tolerance=tolerance, seed=3,
    ).fit(graph)
    assert_same_factors(unified, offline)
    assert unified.totals == offline.history.totals
    assert unified.regularizer_values == [{}] * len(offline.history)
    assert unified.iterations == offline.iterations
    assert unified.converged == offline.converged


@pytest.mark.parametrize(
    "extension", ["base", "sparsity-sp", "diversity-sf", "guided-su", "masked-prior-su"]
)
@pytest.mark.parametrize(("max_iterations", "tolerance"), SCHEDULES)
def test_extended_stack_matches_oracle(graph, extension, max_iterations, tolerance):
    regularizers = [*base_stack(graph), *extended_stacks(graph)[extension]]
    options = dict(
        regularizers=regularizers, max_iterations=max_iterations,
        tolerance=tolerance, seed=7,
    )
    unified = UnifiedTriClustering(**options).fit(graph)
    oracle = ReferenceUnifiedTriClustering(**options).fit(graph)
    assert_same_factors(unified, oracle)
    assert unified.totals == oracle.totals
    assert unified.regularizer_values == oracle.regularizer_values
    assert unified.iterations == oracle.iterations
    assert unified.converged == oracle.converged
