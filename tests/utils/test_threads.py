"""Host topology probes and the BLAS threadpool cap."""

import os

import pytest

from repro.utils.threads import (
    BLAS_ENV_VARS,
    affinity_core_count,
    blas_thread_info,
    cap_blas_threads,
    host_info,
    logical_core_count,
    physical_core_count,
)


@pytest.fixture()
def preserved_blas_env():
    """Snapshot/restore the BLAS sizing variables around a cap call."""
    saved = {name: os.environ.get(name) for name in BLAS_ENV_VARS}
    saved_threads = blas_thread_info()
    yield
    for name, value in saved.items():
        if value is None:
            os.environ.pop(name, None)
        else:
            os.environ[name] = value
    for count in set(saved_threads.values()):
        cap_blas_threads(count)


class TestTopology:
    def test_counts_are_positive(self):
        assert logical_core_count() >= 1
        assert affinity_core_count() >= 1
        physical = physical_core_count()
        assert physical is None or 1 <= physical <= logical_core_count()

    def test_host_info_shape(self):
        info = host_info()
        assert set(info) == {
            "logical_cores",
            "physical_cores",
            "affinity_cores",
            "blas_threads",
            "blas_env",
        }
        assert info["logical_cores"] >= 1
        assert isinstance(info["blas_threads"], dict)
        assert all(
            isinstance(v, int) for v in info["blas_threads"].values()
        )
        assert isinstance(info["blas_env"], dict)


class TestCapBlasThreads:
    def test_cap_sets_env_and_never_raises(self, preserved_blas_env):
        capped = cap_blas_threads(2)
        assert isinstance(capped, list)
        for name in BLAS_ENV_VARS:
            assert os.environ[name] == "2"
        # Every library the cap claims to have hit must now report it.
        info = blas_thread_info()
        for name in capped:
            assert info.get(name) == 2

    def test_cap_floors_at_one(self, preserved_blas_env):
        cap_blas_threads(0)
        for name in BLAS_ENV_VARS:
            assert os.environ[name] == "1"


class TestSpmmThreadBudget:
    @pytest.fixture(autouse=True)
    def clean_budget(self, monkeypatch):
        from repro.utils import threads

        monkeypatch.delenv(threads.SPMM_THREADS_ENV, raising=False)
        monkeypatch.delenv(threads.WORKER_SPMM_ENV, raising=False)
        monkeypatch.setattr(threads, "_spmm_default", None)

    def test_default_is_affinity_core_count(self):
        from repro.utils.threads import spmm_thread_default

        assert spmm_thread_default() == affinity_core_count()

    def test_process_default_wins_over_affinity(self):
        from repro.utils.threads import (
            set_spmm_thread_default,
            spmm_thread_default,
        )

        set_spmm_thread_default(3)
        assert spmm_thread_default() == 3
        set_spmm_thread_default(0)  # floored at 1, never 0
        assert spmm_thread_default() == 1
        set_spmm_thread_default(None)
        assert spmm_thread_default() == affinity_core_count()

    def test_env_wins_over_process_default(self, monkeypatch):
        from repro.utils import threads

        threads.set_spmm_thread_default(3)
        monkeypatch.setenv(threads.SPMM_THREADS_ENV, "5")
        assert threads.spmm_thread_default() == 5
        monkeypatch.setenv(threads.SPMM_THREADS_ENV, "junk")
        assert threads.spmm_thread_default() == 1
