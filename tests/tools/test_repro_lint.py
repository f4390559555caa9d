"""Tests for the repro-lint invariant checker.

Every REPnnn rule gets at least one positive fixture (the violation is
caught) and one negative fixture (the sanctioned pattern passes), plus
suppression, baseline, and end-to-end CLI coverage.  The final class
cross-checks the linter's hard-coded knob sets against the live
registries so the two can never drift silently.
"""

from __future__ import annotations

import json
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from tools.repro_lint.baseline import (
    load_baseline,
    split_new_findings,
    write_baseline,
)
from tools.repro_lint.cli import main
from tools.repro_lint.core import (
    Finding,
    LintError,
    ModuleContext,
    check_module,
    lint_paths,
)
from tools.repro_lint.rules import ALL_RULES, KNOB_LITERALS

REPO_ROOT = Path(__file__).resolve().parents[2]

CORE_PATH = "src/repro/core/fixture.py"
ENGINE_PATH = "src/repro/engine/fixture.py"
BASELINES_PATH = "src/repro/baselines/fixture.py"
NEUTRAL_PATH = "src/repro/eval/fixture.py"


def run_lint(path: str, source: str) -> list[Finding]:
    ctx = ModuleContext(path, textwrap.dedent(source))
    return check_module(ctx, ALL_RULES)


def codes(path: str, source: str) -> list[str]:
    return sorted(f.rule for f in run_lint(path, source))


# --------------------------------------------------------------------- #
# REP001 — raw sparse·dense products
# --------------------------------------------------------------------- #


class TestRawSparseProduct:
    def test_flags_matmul_on_sparse_annotated_param(self):
        src = """
            import numpy as np
            import scipy.sparse as sp

            def update(xp: sp.spmatrix, sf):
                return np.asarray(xp @ sf)
        """
        assert codes(CORE_PATH, src) == ["REP001"]

    def test_flags_matmul_on_matrixlike_param(self):
        src = """
            def update(xp: "MatrixLike", sf):
                return xp @ sf
        """
        assert codes(CORE_PATH, src) == ["REP001"]

    def test_flags_product_of_constructed_sparse(self):
        src = """
            import scipy.sparse as sp

            def build(dense):
                x = sp.csr_matrix(dense)
                return x @ dense
        """
        assert codes(CORE_PATH, src) == ["REP001"]

    def test_flags_dot_method_and_transpose(self):
        src = """
            import scipy.sparse as sp

            def build(dense):
                x = sp.csr_matrix(dense)
                a = x.dot(dense)
                b = x.T @ dense
                return a, b
        """
        assert codes(CORE_PATH, src) == ["REP001", "REP001"]

    def test_flags_halo_payload_attribute_product(self):
        src = """
            def sweep(block, su_halo):
                return block.gu_halo @ su_halo
        """
        assert codes(CORE_PATH, src) == ["REP001"]

    def test_flags_csr_payload_helper_product(self):
        src = """
            def rehydrate(payload, su):
                halo = _csr_from_payload(payload["gu_halo"])
                return halo @ su
        """
        assert codes(CORE_PATH, src) == ["REP001"]

    def test_halo_through_cache_dot_is_clean(self):
        src = """
            def sweep(cache, block, su_halo):
                return cache.dot(block.gu_halo, su_halo)
        """
        assert codes(CORE_PATH, src) == []

    def test_dense_su_halo_attribute_is_not_sparse(self):
        src = """
            def sweep(state, other):
                return state.su_halo @ other
        """
        assert codes(CORE_PATH, src) == []

    def test_ignores_dense_products(self):
        src = """
            def tail(s, n):
                return s @ (s.T @ n)
        """
        assert codes(CORE_PATH, src) == []

    def test_ignores_cache_dot(self):
        src = """
            import scipy.sparse as sp

            def update(cache, xp: sp.spmatrix, sf):
                return cache.dot(xp, sf)
        """
        assert codes(CORE_PATH, src) == []

    def test_spmm_module_itself_is_exempt(self):
        src = """
            import scipy.sparse as sp

            def matmul(x: sp.spmatrix, dense):
                return x @ dense
        """
        assert codes("src/repro/core/spmm.py", src) == []

    def test_out_of_scope_tree_not_scanned(self):
        src = """
            import scipy.sparse as sp

            def metric(x: sp.spmatrix, y):
                return x @ y
        """
        assert codes(NEUTRAL_PATH, src) == []

    def test_baselines_tree_is_in_scope(self):
        src = """
            import scipy.sparse as sp

            def fit(x: sp.csr_matrix, h):
                return x @ h
        """
        assert codes(BASELINES_PATH, src) == ["REP001"]


# --------------------------------------------------------------------- #
# REP002 — RNG construction outside utils/rng.py
# --------------------------------------------------------------------- #


class TestStrayRng:
    def test_flags_default_rng(self):
        src = """
            import numpy as np

            def init():
                return np.random.default_rng(7)
        """
        assert codes(CORE_PATH, src) == ["REP002"]

    def test_flags_legacy_global_seed(self):
        src = """
            import numpy as np

            def init():
                np.random.seed(0)
        """
        assert codes(CORE_PATH, src) == ["REP002"]

    def test_flags_stdlib_random(self):
        src = """
            import random

            def pick(items):
                return random.choice(items)
        """
        assert codes(NEUTRAL_PATH, src) == ["REP002"]

    def test_flags_from_imports(self):
        src = """
            from numpy.random import default_rng
            from random import shuffle
        """
        assert codes(NEUTRAL_PATH, src) == ["REP002", "REP002"]

    def test_allows_generator_type_references(self):
        src = """
            import numpy as np

            def spawnish(rng: np.random.Generator) -> np.random.Generator:
                seq = np.random.SeedSequence(3)
                return rng
        """
        assert codes(CORE_PATH, src) == []

    def test_rng_module_is_exempt(self):
        src = """
            import numpy as np

            def spawn_rng(seed):
                return np.random.default_rng(seed)
        """
        assert codes("src/repro/utils/rng.py", src) == []

    def test_spawn_rng_usage_is_clean(self):
        src = """
            from repro.utils.rng import spawn_rng

            def init(seed):
                return spawn_rng(seed)
        """
        assert codes(CORE_PATH, src) == []


# --------------------------------------------------------------------- #
# REP003 — wall-clock reads inside core/
# --------------------------------------------------------------------- #


class TestWallClockInCore:
    def test_flags_time_calls_in_core(self):
        src = """
            import time

            def sweep():
                started = time.perf_counter()
                return time.time() - started
        """
        assert codes(CORE_PATH, src) == ["REP003", "REP003"]

    def test_flags_from_import_in_core(self):
        src = """
            from time import perf_counter
        """
        assert codes(CORE_PATH, src) == ["REP003"]

    def test_flags_datetime_now(self):
        src = """
            import datetime

            def stamp():
                return datetime.datetime.now()
        """
        assert codes(CORE_PATH, src) == ["REP003"]

    def test_engine_timing_is_allowed(self):
        src = """
            import time

            def solve():
                return time.perf_counter()
        """
        assert codes("src/repro/engine/streaming.py", src) == []


# --------------------------------------------------------------------- #
# REP004 — unpickling outside the framed transport
# --------------------------------------------------------------------- #


class TestUnframedPickle:
    def test_flags_pickle_loads(self):
        src = """
            import pickle

            def read(blob):
                return pickle.loads(blob)
        """
        assert codes(NEUTRAL_PATH, src) == ["REP004"]

    def test_flags_unpickler_and_from_import(self):
        src = """
            import pickle
            from pickle import load

            def read(fh):
                return pickle.Unpickler(fh)
        """
        assert codes(NEUTRAL_PATH, src) == ["REP004", "REP004"]

    def test_flags_numpy_allow_pickle(self):
        src = """
            import numpy as np

            def read(path):
                return np.load(path, allow_pickle=True)
        """
        assert codes(NEUTRAL_PATH, src) == ["REP004"]

    def test_plain_np_load_and_dumps_are_fine(self):
        src = """
            import numpy as np
            import pickle

            def write(path, obj):
                data = np.load(path)
                return pickle.dumps(obj), data
        """
        assert codes(NEUTRAL_PATH, src) == []

    def test_transport_module_is_exempt(self):
        src = """
            import pickle

            def recv(stream, buffers):
                return pickle.loads(stream, buffers=buffers)
        """
        assert codes("src/repro/utils/transport.py", src) == []


# --------------------------------------------------------------------- #
# REP005 — shared-state writes outside the lock
# --------------------------------------------------------------------- #

ENGINE_CLASS = """
    import threading

    class Engine:
        def __init__(self):
            self._lock = threading.Lock()
            self._factors = None

        def advance(self):
            with self._lock:
                self._factors = 1
{extra}
"""


class TestUnlockedSharedWrite:
    def test_flags_lockless_write_to_shared_attr(self):
        src = ENGINE_CLASS.format(
            extra="""
        def sneaky(self):
            self._factors = 2
"""
        )
        assert codes(ENGINE_PATH, src) == ["REP005"]

    def test_init_writes_are_allowed(self):
        assert codes(ENGINE_PATH, ENGINE_CLASS.format(extra="")) == []

    def test_documented_lock_held_helper_is_allowed(self):
        src = ENGINE_CLASS.format(
            extra='''
        def helper(self):
            """Advance factors; caller holds the serve lock."""
            self._factors = 3
'''
        )
        assert codes(ENGINE_PATH, src) == []

    def test_condition_counts_as_lock(self):
        src = """
            import threading

            class Service:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._flushed = threading.Condition(self._lock)
                    self._pending = 0

                def submit(self):
                    with self._flushed:
                        self._pending += 1

                def broken(self):
                    self._pending = 0
        """
        assert codes(ENGINE_PATH, src) == ["REP005"]

    def test_unshared_attrs_are_free(self):
        src = ENGINE_CLASS.format(
            extra="""
        def note(self):
            self._last_note = "x"
"""
        )
        assert codes(ENGINE_PATH, src) == []

    def test_rule_only_scans_engine_tree(self):
        src = ENGINE_CLASS.format(
            extra="""
        def sneaky(self):
            self._factors = 2
"""
        )
        assert codes(NEUTRAL_PATH, src) == []


# --------------------------------------------------------------------- #
# REP006 — knob-literal dispatch outside the registries
# --------------------------------------------------------------------- #


class TestKnobLiteralDispatch:
    def test_flags_backend_comparison(self):
        src = """
            def open_pool(backend):
                if backend == "socket":
                    return 1
        """
        assert codes(CORE_PATH, src) == ["REP006"]

    def test_flags_membership_test(self):
        src = """
            def choose(self):
                return self.backend in ("serial", "thread")
        """
        assert codes(ENGINE_PATH, src) == ["REP006"]

    def test_flags_spmm_and_kernel_names(self):
        src = """
            def pick(kernel, spmm):
                a = kernel == "numpy"
                b = spmm != "auto"
                return a, b
        """
        assert codes(CORE_PATH, src) == ["REP006", "REP006"]

    def test_ignores_unrelated_string_comparisons(self):
        src = """
            def layout(x, mode):
                a = x.format != "csr"
                b = mode == "socket"
                return a, b
        """
        assert codes(CORE_PATH, src) == []

    def test_registry_modules_are_exempt(self):
        src = """
            def resolve(backend):
                if backend == "socket":
                    return 1
        """
        assert codes("src/repro/utils/executor.py", src) == []
        assert codes("src/repro/engine/config.py", src) == []


# --------------------------------------------------------------------- #
# Suppressions
# --------------------------------------------------------------------- #


class TestSuppressions:
    VIOLATION = """
        import numpy as np

        def init():
            return np.random.default_rng(7){comment}
    """

    def test_inline_suppression_with_reason(self):
        src = self.VIOLATION.format(
            comment="  # repro-lint: disable=REP002 -- fixture justification"
        )
        assert codes(CORE_PATH, src) == []

    def test_suppression_without_reason_is_rep000_and_keeps_finding(self):
        src = self.VIOLATION.format(
            comment="  # repro-lint: disable=REP002"
        )
        assert codes(CORE_PATH, src) == ["REP000", "REP002"]

    def test_wrong_code_does_not_suppress(self):
        src = self.VIOLATION.format(
            comment="  # repro-lint: disable=REP001 -- wrong rule"
        )
        assert codes(CORE_PATH, src) == ["REP002"]

    def test_standalone_comment_covers_next_statement(self):
        src = """
            import numpy as np

            def init():
                # repro-lint: disable=REP002 -- the reason continues over
                # a second comment line and still covers the statement.
                return np.random.default_rng(7)
        """
        assert codes(CORE_PATH, src) == []

    def test_standalone_comment_does_not_leak_past_next_statement(self):
        src = """
            import numpy as np

            def init():
                # repro-lint: disable=REP002 -- covers only the next line
                a = np.random.default_rng(7)
                b = np.random.default_rng(8)
                return a, b
        """
        assert codes(CORE_PATH, src) == ["REP002"]

    def test_unknown_code_is_rep000(self):
        src = """
            x = 1  # repro-lint: disable=BOGUS -- not a rule
        """
        assert codes(NEUTRAL_PATH, src) == ["REP000"]

    def test_directive_inside_string_is_ignored(self):
        src = """
            text = "# repro-lint: disable=REP002"
        """
        assert codes(NEUTRAL_PATH, src) == []

    def test_one_comment_may_cover_several_codes(self):
        src = """
            import time
            import numpy as np

            def init():
                # repro-lint: disable=REP002,REP003 -- shared justification
                return np.random.default_rng(int(time.time()))
        """
        assert codes(CORE_PATH, src) == []


# --------------------------------------------------------------------- #
# Baseline
# --------------------------------------------------------------------- #


def _finding(rule="REP001", path="src/repro/core/x.py", snippet="x @ y"):
    return Finding(
        rule=rule, path=path, line=3, col=1, message="m", snippet=snippet
    )


class TestBaseline:
    def test_round_trip_and_split(self, tmp_path):
        baseline_file = tmp_path / "baseline.json"
        old = [_finding(), _finding(snippet="z @ y")]
        write_baseline(baseline_file, old)
        baseline = load_baseline(baseline_file)
        new, grandfathered, stale = split_new_findings(old, baseline)
        assert new == [] and len(grandfathered) == 2 and stale == 0

    def test_new_findings_are_not_absorbed(self, tmp_path):
        baseline_file = tmp_path / "baseline.json"
        write_baseline(baseline_file, [_finding()])
        baseline = load_baseline(baseline_file)
        fresh = _finding(snippet="fresh @ product")
        new, grandfathered, stale = split_new_findings(
            [_finding(), fresh], baseline
        )
        assert new == [fresh] and len(grandfathered) == 1 and stale == 0

    def test_duplicates_count_as_slots(self, tmp_path):
        baseline_file = tmp_path / "baseline.json"
        write_baseline(baseline_file, [_finding()])
        baseline = load_baseline(baseline_file)
        # Two identical findings, one baseline slot: the second is new.
        new, grandfathered, _ = split_new_findings(
            [_finding(), _finding()], baseline
        )
        assert len(new) == 1 and len(grandfathered) == 1

    def test_stale_entries_reported(self, tmp_path):
        baseline_file = tmp_path / "baseline.json"
        write_baseline(baseline_file, [_finding(), _finding(snippet="gone")])
        baseline = load_baseline(baseline_file)
        _, _, stale = split_new_findings([_finding()], baseline)
        assert stale == 1

    def test_version_mismatch_raises(self, tmp_path):
        baseline_file = tmp_path / "baseline.json"
        baseline_file.write_text(json.dumps({"version": 99, "findings": []}))
        with pytest.raises(LintError, match="version"):
            load_baseline(baseline_file)

    def test_malformed_baseline_raises(self, tmp_path):
        baseline_file = tmp_path / "baseline.json"
        baseline_file.write_text("[]")
        with pytest.raises(LintError, match="findings"):
            load_baseline(baseline_file)


# --------------------------------------------------------------------- #
# CLI end to end
# --------------------------------------------------------------------- #

VIOLATION_MODULE = textwrap.dedent(
    """
    import numpy as np

    def update():
        return np.random.default_rng()
    """
)


@pytest.fixture
def fake_repo(tmp_path, monkeypatch):
    core = tmp_path / "src" / "repro" / "core"
    core.mkdir(parents=True)
    (core / "clean.py").write_text("def f():\n    return 1\n")
    monkeypatch.chdir(tmp_path)
    return tmp_path


class TestCli:
    def test_clean_tree_exits_zero(self, fake_repo, capsys):
        assert main(["src"]) == 0
        assert "0 new findings" in capsys.readouterr().out

    def test_violation_fails_and_json_reports_it(self, fake_repo, capsys):
        bad = fake_repo / "src" / "repro" / "core" / "bad.py"
        bad.write_text(VIOLATION_MODULE)
        assert main(["src"]) == 1
        capsys.readouterr()
        assert main(["src", "--format", "json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert [f["rule"] for f in payload["new"]] == ["REP002"]
        assert payload["new"][0]["path"] == "src/repro/core/bad.py"

    def test_write_baseline_then_clean(self, fake_repo, capsys):
        bad = fake_repo / "src" / "repro" / "core" / "bad.py"
        bad.write_text(VIOLATION_MODULE)
        baseline = fake_repo / "baseline.json"
        assert main(["src", "--baseline", str(baseline), "--write-baseline"]) == 0
        assert main(["src", "--baseline", str(baseline)]) == 0
        out = capsys.readouterr().out
        assert "grandfathered" in out
        # A second violation is still new.
        worse = fake_repo / "src" / "repro" / "core" / "worse.py"
        worse.write_text(VIOLATION_MODULE)
        assert main(["src", "--baseline", str(baseline)]) == 1

    def test_no_baseline_flag_reports_everything(self, fake_repo):
        bad = fake_repo / "src" / "repro" / "core" / "bad.py"
        bad.write_text(VIOLATION_MODULE)
        baseline = fake_repo / "baseline.json"
        assert main(["src", "--baseline", str(baseline), "--write-baseline"]) == 0
        assert main(["src", "--baseline", str(baseline), "--no-baseline"]) == 1

    def test_reasonless_suppression_cannot_be_baselined(self, fake_repo, capsys):
        bad = fake_repo / "src" / "repro" / "core" / "bad.py"
        bad.write_text(
            VIOLATION_MODULE.replace(
                "default_rng()",
                "default_rng()  # repro-lint: disable=REP002",
            )
        )
        baseline = fake_repo / "baseline.json"
        assert main(["src", "--baseline", str(baseline), "--write-baseline"]) == 2
        assert "malformed" in capsys.readouterr().err

    def test_missing_path_is_usage_error(self, fake_repo, capsys):
        assert main(["nonexistent-dir"]) == 2
        assert "error" in capsys.readouterr().err

    def test_list_rules(self, fake_repo, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for code in ("REP001", "REP002", "REP003", "REP004", "REP005", "REP006"):
            assert code in out


# --------------------------------------------------------------------- #
# The real repository
# --------------------------------------------------------------------- #


class TestAgainstRealRepo:
    def test_repo_is_clean_against_checked_in_baseline(self):
        """The acceptance criterion: the shipped tree lints clean."""
        result = subprocess.run(
            [sys.executable, "-m", "tools.repro_lint", "src", "tools", "benchmarks"],
            cwd=REPO_ROOT,
            capture_output=True,
            text=True,
            check=False,
        )
        assert result.returncode == 0, result.stdout + result.stderr

    def test_seeded_violation_fails_the_run(self, tmp_path):
        """Injecting a raw default_rng into a core module turns CI red."""
        updates = (REPO_ROOT / "src/repro/core/updates.py").read_text()
        seeded = updates + (
            "\n\ndef _seeded_violation():\n"
            "    return np.random.default_rng()\n"
        )
        target = tmp_path / "updates_seeded.py"
        target.write_text(seeded)
        findings = lint_paths([target], ALL_RULES, root=tmp_path)
        # Outside src/repro/core the RNG rule still fires (REP002 is
        # repo-wide); the suppressed REP001 fallback stays suppressed.
        assert [f.rule for f in findings] == ["REP002"]
        assert "default_rng" in findings[-1].snippet

    def test_knob_sets_match_live_registries(self):
        """KNOB_LITERALS must track the real registries, or REP006 rots."""
        sys.path.insert(0, str(REPO_ROOT / "src"))
        try:
            from repro.core.kernels import KERNELS
            from repro.core.spmm import SPMM_ENGINES
            from repro.utils.executor import BACKENDS
        finally:
            sys.path.pop(0)
        live = set(BACKENDS) | set(KERNELS) | set(SPMM_ENGINES)
        assert KNOB_LITERALS == live | {"auto"}

    def test_every_rule_has_a_distinct_code(self):
        rule_codes = [rule.code for rule in ALL_RULES]
        assert len(rule_codes) == len(set(rule_codes))
        assert all(code.startswith("REP") for code in rule_codes)
