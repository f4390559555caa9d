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
