"""Cut-edge halo invariants: extraction, exactness, drift parity, faults.

The halo's contract has four independently checkable layers:

1. **Extraction** — ``extract_shard_blocks`` retains every
   cut ``Gu`` entry in per-shard halo structures whose ghost columns
   resolve, through ``(halo_owner, halo_source)``, to exactly the
   owner's published boundary rows, and boundary users keep their
   *full-graph* degrees (the regularizer is re-weighted otherwise).
2. **Exactness** — on identical factors, the shard-summed objective
   with the halo reproduces the full-graph ``tr(Su^T L Su)`` to float
   round-off.
3. **Drift parity** — on a heavy-cut, graph-dominated solve the
   4-shard halo run tracks the unsharded optimum, bit-identically on
   every execution backend, and convergence rollback keeps the received
   boundary rows consistent with the rolled-back factors.
4. **Faults** — a worker killed mid-halo-exchange surfaces as
   ``WorkerLost`` promptly; the exchange never hangs on a dead peer.
"""

import threading
import time

import numpy as np
import pytest

from repro.core.initialization import lexicon_seeded_factors
from repro.core.objective import ObjectiveWeights, compute_objective
from repro.core.offline import OfflineTriClustering
from repro.core.sharded import ShardedTriClustering, open_solver_pool
from repro.core.sweep import ShardedSolver
from repro.graph.partition import extract_shard_blocks, hash_partition
from repro.utils.transport import LocalWorkerFleet, WorkerLost

#: Fault paths must raise well within this, never hang.
PROMPT_SECONDS = 10.0

#: Graph-dominated regime for the drift-parity suite: the smoothness
#: term carries the objective, and 74% of its edge weight crosses the
#: 4-shard hash cut of the test graph, so every cut edge the halo
#: carries shows in the drift.
HEAVY_BETA = 8.0

FACTOR_NAMES = ("sf", "sp", "su", "hp", "hu")


def _ghost_global_ids(sharded, block):
    """Global user ids behind one block's ghost columns."""
    ids = np.empty(block.halo_owner.shape[0], dtype=np.int64)
    for j, (owner, source) in enumerate(
        zip(block.halo_owner, block.halo_source)
    ):
        owner_block = sharded.blocks[owner]
        ids[j] = owner_block.user_rows[owner_block.boundary_local[source]]
    return ids


class TestHaloExtraction:
    def test_recovers_all_cut_weight(self, graph):
        sharded = extract_shard_blocks(
            graph, hash_partition(graph.corpus.user_ids, 4)
        )
        assert sharded.gu_cut_weight > 0
        # Each cut edge sits in the halo of both its endpoints' shards.
        halo_weight = sum(float(b.gu_halo.sum()) for b in sharded.blocks)
        assert np.isclose(halo_weight / 2.0, sharded.gu_cut_weight)

    def test_halo_entries_match_full_graph(self, graph):
        """Every ghost column resolves to the right global user and the
        halo CSR carries exactly the full graph's cut entries."""
        adjacency = graph.user_graph.adjacency
        sharded = extract_shard_blocks(
            graph, hash_partition(graph.corpus.user_ids, 4)
        )
        for block in sharded.blocks:
            ghost_ids = _ghost_global_ids(sharded, block)
            expected = adjacency[block.user_rows][:, ghost_ids].toarray()
            np.testing.assert_array_equal(block.gu_halo.toarray(), expected)

    def test_boundary_rows_are_exactly_the_cut_rows(self, graph):
        adjacency = graph.user_graph.adjacency
        partition = hash_partition(graph.corpus.user_ids, 4)
        sharded = extract_shard_blocks(graph, partition)
        for block in sharded.blocks:
            remote = np.setdiff1d(
                np.arange(graph.num_users), block.user_rows
            )
            cross = adjacency[block.user_rows][:, remote]
            expected = np.flatnonzero(np.diff(cross.indptr))
            np.testing.assert_array_equal(block.boundary_local, expected)

    def test_boundary_users_keep_full_graph_degrees(self, graph):
        """The degree bugfix: with the halo on, Du comes from the full
        graph, not the mutilated block (which silently re-weights the
        regularizer for boundary users)."""
        full_degrees = np.asarray(
            graph.user_graph.adjacency.sum(axis=1)
        ).ravel()
        sharded = extract_shard_blocks(
            graph, hash_partition(graph.corpus.user_ids, 4)
        )
        for block in sharded.blocks:
            np.testing.assert_allclose(
                block.du.diagonal(),
                full_degrees[block.user_rows],
                rtol=1e-12,
            )
            # Laplacian consistency: L = Du - Gu(local block).
            np.testing.assert_array_equal(
                block.laplacian.toarray(),
                block.du.toarray() - block.gu.toarray(),
            )

    def test_one_shard_has_no_halo(self, graph):
        sharded = extract_shard_blocks(
            graph, hash_partition(graph.corpus.user_ids, 1)
        )
        (block,) = sharded.blocks
        assert sharded.gu_cut_weight == 0.0
        assert block.gu_halo is None


class TestHaloObjectiveExactness:
    def _shard_objective(self, graph):
        factors = lexicon_seeded_factors(
            graph.num_tweets, graph.num_users, graph.sf0, seed=11
        )
        weights = ObjectiveWeights(alpha=0.05, beta=0.8, gamma=0.0)
        full = compute_objective(
            factors,
            graph.xp,
            graph.xu,
            graph.xr,
            graph.user_graph.laplacian,
            weights,
            sf_prior=graph.sf0,
        )
        sharded = extract_shard_blocks(
            graph, hash_partition(graph.corpus.user_ids, 4)
        )
        with open_solver_pool(None, "serial", 4) as pool:
            solver = ShardedSolver(sharded, factors, pool)
            pool.share("sf_prior", graph.sf0)
            part = solver.objective(weights)
        return full, part

    def test_shard_sum_reproduces_full_graph_term(self, graph):
        """With the halo, the shard-summed graph penalty IS the full
        tr(Su^T L Su) — float round-off only, on identical factors.
        (The total still differs: the retweet loss's tr(Su^T Su Sp^T Sp)
        gram term is evaluated block-locally by design — that is the
        documented residual approximation, not the graph term's.)"""
        full, part = self._shard_objective(graph)
        np.testing.assert_allclose(
            part.graph_loss, full.graph_loss, rtol=1e-12
        )
        np.testing.assert_allclose(
            part.lexicon_loss, full.lexicon_loss, rtol=1e-12
        )


class TestHaloRollback:
    def test_objective_after_rollback_matches_history(self, graph):
        """Convergence rollback must restore the received boundary rows
        together with the factors: re-evaluating after the merge lands
        bit-exactly on the recorded converged objective."""
        factors = lexicon_seeded_factors(
            graph.num_tweets, graph.num_users, graph.sf0, seed=7
        )
        weights = ObjectiveWeights(alpha=0.05, beta=0.8, gamma=0.0)
        sharded = extract_shard_blocks(
            graph, hash_partition(graph.corpus.user_ids, 4)
        )
        with open_solver_pool(None, "serial", 4) as pool:
            solver = ShardedSolver(sharded, factors, pool)
            history, converged, _ = solver.solve_offline(
                weights,
                graph.sf0,
                max_iterations=60,
                tolerance=1e-4,
                patience=3,
                track_history=True,
            )
            assert converged, "fixture solve must converge to roll back"
            solver.merged_factors()  # consumes the pending rollback
            replayed = solver.objective(weights)
        assert replayed.total == history.totals[-1]


@pytest.fixture(scope="module")
def heavy_plain(graph):
    """Unsharded reference solve in the graph-dominated regime."""
    solver = OfflineTriClustering(
        seed=7, beta=HEAVY_BETA, max_iterations=40
    )
    result = solver.fit(graph)
    objective = compute_objective(
        result.factors,
        graph.xp,
        graph.xu,
        graph.xr,
        graph.user_graph.laplacian,
        solver.weights,
        sf_prior=graph.sf0,
    )
    return solver.weights, objective


def _heavy_sharded(graph, **kwargs):
    return ShardedTriClustering(
        seed=7,
        beta=HEAVY_BETA,
        max_iterations=40,
        n_shards=4,
        **kwargs,
    ).fit(graph)


def _drifts(graph, weights, reference, result):
    objective = compute_objective(
        result.factors,
        graph.xp,
        graph.xu,
        graph.xr,
        graph.user_graph.laplacian,
        weights,
        sf_prior=graph.sf0,
    )
    total = (objective.total - reference.total) / reference.total
    graph_part = (
        objective.graph_loss - reference.graph_loss
    ) / reference.total
    return total, graph_part


class TestHaloDriftParity:
    """4-shard halo solves track the unsharded optimum on a heavy-cut,
    graph-dominated problem (74% of the edge weight crosses shards),
    identically on every execution backend."""

    BACKENDS = ["serial", "thread", "socket"]

    @pytest.fixture(scope="class")
    def serial_reference(self, graph):
        return _heavy_sharded(graph, backend="serial")

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_four_shard_halo_tracks_unsharded(
        self, graph, heavy_plain, serial_reference, backend, request
    ):
        weights, reference = heavy_plain
        if backend == "socket":
            kwargs = {
                "backend": "socket",
                "workers": request.getfixturevalue("socket_workers"),
            }
        else:
            kwargs = {"backend": backend, "max_workers": 2}
        run = _heavy_sharded(graph, **kwargs)
        total, graph_part = _drifts(graph, weights, reference, run)
        assert abs(total) < 0.02, f"{backend}: total drift {total:+.3%}"
        assert abs(graph_part) < 0.01, (
            f"{backend}: graph-term drift {graph_part:+.3%}"
        )
        # Execution backends are an execution detail: bit-identical
        # factors, including the halo-fed Su rows.
        for name in FACTOR_NAMES:
            np.testing.assert_array_equal(
                getattr(run.factors, name),
                getattr(serial_reference.factors, name),
                err_msg=f"{backend}: {name}",
            )


class TestHaloFaultInjection:
    def test_worker_killed_mid_halo_exchange_raises_promptly(self, graph):
        """Terminate a socket worker while halo-carrying exchanges are
        in flight: the solve must surface WorkerLost within seconds —
        no hang waiting for boundary rows that will never arrive."""
        with LocalWorkerFleet(2) as fleet:
            solver = ShardedTriClustering(
                seed=7,
                max_iterations=5000,
                tolerance=0.0,
                track_history=False,
                n_shards=4,
                backend="socket",
                workers=fleet.addresses,
            )
            killer = threading.Timer(0.3, fleet.kill, args=(0,))
            killer.start()
            started = time.perf_counter()
            try:
                with pytest.raises(WorkerLost):
                    solver.fit(graph)
            finally:
                killer.cancel()
            assert time.perf_counter() - started < PROMPT_SECONDS
