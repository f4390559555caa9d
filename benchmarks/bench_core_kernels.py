"""Microbenchmarks of the multiplicative update kernels.

Unlike the table/figure benches (one-shot experiment regenerations),
these use pytest-benchmark's statistical timing to track the per-sweep
cost of each factor update — the quantities behind the paper's
``O(rk(nl + ml + nm + m²))`` complexity claim (Section 3.2).
"""

import pytest

from repro.core.initialization import lexicon_seeded_factors
from repro.core.updates import (
    update_hp,
    update_hu,
    update_sf,
    update_sp,
    update_su_online,
)
from repro.experiments.datasets import load_dataset


@pytest.fixture(scope="module")
def kernel_setup(config):
    bundle = load_dataset("prop30", config)
    graph = bundle.graph
    factors = lexicon_seeded_factors(
        graph.num_tweets, graph.num_users, graph.sf0, seed=7
    )
    return graph, factors


def test_bench_update_sp(benchmark, kernel_setup):
    graph, factors = kernel_setup
    benchmark(
        update_sp,
        factors.sp, factors.sf, factors.hp, factors.su, graph.xp, graph.xr,
    )


def test_bench_update_su(benchmark, kernel_setup):
    graph, factors = kernel_setup
    benchmark(
        update_su_online,
        factors.su, factors.sf, factors.hu, factors.sp,
        graph.xu, graph.xr,
        graph.user_graph.adjacency, graph.user_graph.degree_matrix,
        0.8,
    )


def test_bench_update_sf(benchmark, kernel_setup):
    graph, factors = kernel_setup
    benchmark(
        update_sf,
        factors.sf, factors.sp, factors.hp, factors.su, factors.hu,
        graph.xp, graph.xu, graph.sf0, 0.05,
    )


def test_bench_update_hp(benchmark, kernel_setup):
    graph, factors = kernel_setup
    benchmark(update_hp, factors.hp, factors.sp, factors.sf, graph.xp)


def test_bench_update_hu(benchmark, kernel_setup):
    graph, factors = kernel_setup
    benchmark(update_hu, factors.hu, factors.su, factors.sf, graph.xu)
