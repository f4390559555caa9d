"""The six REPnnn rules: this repo's invariants as AST checks.

Each rule documents the invariant it encodes, why the invariant exists
(which PR paid for it), and the heuristics it uses.  The heuristics are
deliberately conservative — a static checker that cries wolf gets
deleted; one that catches the honest mistake ("I just wrote ``X @ Sf``
in a sweep") earns its CI minutes.
"""

from __future__ import annotations

import ast
import re
from collections.abc import Iterator

from tools.repro_lint.core import Finding, ModuleContext, Rule, dotted_name

# --------------------------------------------------------------------- #
# Shared: scipy-sparse type inference
# --------------------------------------------------------------------- #

#: Annotation substrings that mark a parameter/variable as possibly
#: sparse.  ``MatrixLike`` is the repo-wide ``np.ndarray | sp.spmatrix``
#: alias, so it counts.
SPARSE_ANNOTATION_HINTS = (
    "spmatrix",
    "sparse",
    "csr_matrix",
    "csc_matrix",
    "coo_matrix",
    "csr_array",
    "csc_array",
    "MatrixLike",
)

#: ``scipy.sparse`` callables whose result is a sparse matrix.
SPARSE_CONSTRUCTORS = frozenset(
    {
        "csr_matrix",
        "csc_matrix",
        "coo_matrix",
        "lil_matrix",
        "dok_matrix",
        "dia_matrix",
        "bsr_matrix",
        "csr_array",
        "csc_array",
        "coo_array",
        "diags",
        "spdiags",
        "eye",
        "identity",
        "random",
        "rand",
        "random_array",
        "vstack",
        "hstack",
        "block_diag",
        "kron",
    }
)

#: Methods that return a sparse matrix when called on one.
SPARSE_PRESERVING_METHODS = frozenset(
    {"tocsr", "tocsc", "tocoo", "tolil", "todok", "todia", "tobsr",
     "transpose", "astype", "copy", "multiply", "maximum", "minimum"}
)

#: Repo helpers whose *return value* is a scipy CSR matrix.  These are
#: plain-name calls (no ``sp.`` owner), so alias tracking can't see
#: them; naming them keeps halo/shard payload rehydration inside the
#: spmm discipline — ``_csr_from_payload(payload["gu_halo"]) @ su``
#: is exactly the product REP001 exists to catch.
SPARSE_RETURNING_HELPERS = frozenset({"_csr_payload_matrix", "_csr_from_payload"})

#: Attribute names that always hold a scipy CSR matrix (or ``None``)
#: wherever they appear — the halo payload fields of
#: ``repro.graph.partition.ShardBlock``.  ``block.gu_halo`` reads in
#: the sweep hot path must route through ``SweepCache.dot`` / the spmm
#: engines like every other sparse operand (``su_halo`` is dense and
#: deliberately absent).
SPARSE_ATTRIBUTE_HINTS = frozenset({"gu_halo"})


def _scipy_sparse_aliases(tree: ast.Module) -> set[str]:
    """Local names bound to the ``scipy.sparse`` module."""
    aliases: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for item in node.names:
                if item.name == "scipy.sparse":
                    aliases.add(item.asname or "scipy")
        elif isinstance(node, ast.ImportFrom):
            if node.module == "scipy":
                for item in node.names:
                    if item.name == "sparse":
                        aliases.add(item.asname or "sparse")
    return aliases


def _annotation_is_sparse(annotation: ast.AST | None) -> bool:
    if annotation is None:
        return False
    try:
        text = ast.unparse(annotation)
    except Exception:  # pragma: no cover - unparse of odd nodes
        return False
    return any(hint in text for hint in SPARSE_ANNOTATION_HINTS)


class _SparseEnv:
    """Names known (heuristically) to hold scipy sparse matrices."""

    def __init__(self, aliases: set[str]) -> None:
        self.aliases = aliases
        self.names: set[str] = set()

    def is_sparse(self, node: ast.AST) -> bool:
        """Whether ``node`` evaluates to a sparse matrix, best effort."""
        if isinstance(node, ast.Name):
            return node.id in self.names
        if isinstance(node, ast.Attribute):
            # ``x.T`` of a sparse name stays sparse.
            if node.attr == "T":
                return self.is_sparse(node.value)
            # block.gu_halo and friends: CSR payload fields by contract.
            return node.attr in SPARSE_ATTRIBUTE_HINTS
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Attribute):
                # sp.csr_matrix(...), sparse.vstack(...)
                owner = dotted_name(func.value)
                if owner in self.aliases and func.attr in SPARSE_CONSTRUCTORS:
                    return True
                # x.tocsr(), x.transpose(), ... of a sparse expression
                if func.attr in SPARSE_PRESERVING_METHODS:
                    return self.is_sparse(func.value)
            elif isinstance(func, ast.Name):
                # _csr_from_payload(...): repo helpers returning CSR.
                return func.id in SPARSE_RETURNING_HELPERS
            return False
        return False

    def learn(self, body: list[ast.stmt]) -> None:
        """Collect sparse-valued simple assignments from ``body``."""
        for stmt in body:
            for node in ast.walk(stmt):
                if isinstance(node, ast.Assign) and len(node.targets) == 1:
                    target = node.targets[0]
                    if isinstance(target, ast.Name) and self.is_sparse(node.value):
                        self.names.add(target.id)
                elif isinstance(node, ast.AnnAssign):
                    if isinstance(node.target, ast.Name) and (
                        _annotation_is_sparse(node.annotation)
                        or (node.value is not None and self.is_sparse(node.value))
                    ):
                        self.names.add(node.target.id)


def _function_sparse_env(
    func: ast.FunctionDef | ast.AsyncFunctionDef, aliases: set[str]
) -> _SparseEnv:
    env = _SparseEnv(aliases)
    args = func.args
    for arg in [*args.posonlyargs, *args.args, *args.kwonlyargs]:
        if _annotation_is_sparse(arg.annotation):
            env.names.add(arg.arg)
    env.learn(func.body)
    return env


# --------------------------------------------------------------------- #
# REP001 — raw sparse·dense products bypassing the spmm layer
# --------------------------------------------------------------------- #


class RawSparseProductRule(Rule):
    """Hot-path sparse·dense products must go through the spmm layer.

    Every sweep product is routed through ``SweepCache.dot`` /
    ``repro.core.spmm`` engines, so that an engine instance passed as
    ``spmm=`` (a timing probe, a benchmark baseline) sees every product
    of a solve.  A raw ``X @ dense`` (or ``X.dot(dense)``) on a scipy
    operand in the hot path silently escapes that instance *and* the
    float32 mode — it still computes the right numbers, which is
    exactly why nobody notices until a probe's counts come up short.

    Sparse operands are inferred from scipy aliases, ``MatrixLike``
    annotations, the CSR-returning payload helpers
    (:data:`SPARSE_RETURNING_HELPERS`) and the halo payload attributes
    (:data:`SPARSE_ATTRIBUTE_HINTS`), so cut-edge halo blocks obey the
    same discipline as the primary matrices.

    Scope: ``repro.core``, ``repro.engine.streaming``,
    ``repro.engine.persistence`` (the hot path), plus
    ``repro.baselines`` (deliberately scipy-reference — kept visible via
    the baseline file rather than exempted, so new baseline modules make
    a conscious choice).  The sanctioned implementations
    (``core/spmm.py``, ``core/sweepcache.py``) are exempt: they *are*
    the layer.
    """

    code = "REP001"
    name = "raw-sparse-product"
    summary = "hot-path sparse·dense product bypasses the spmm engine layer"

    SCOPES = (
        "src/repro/core/",
        "src/repro/engine/streaming.py",
        "src/repro/engine/persistence.py",
        "src/repro/baselines/",
    )
    EXEMPT = (
        "src/repro/core/spmm.py",
        "src/repro/core/sweepcache.py",
    )

    def applies(self, path: str) -> bool:
        if path in self.EXEMPT:
            return False
        return any(
            path == scope or (scope.endswith("/") and path.startswith(scope))
            for scope in self.SCOPES
        )

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        aliases = _scipy_sparse_aliases(ctx.tree)
        module_env = _SparseEnv(aliases)
        module_env.learn(ctx.tree.body)

        funcs = [
            node
            for node in ast.walk(ctx.tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        ]
        scopes: list[tuple[_SparseEnv, ast.AST]] = [(module_env, ctx.tree)]
        for func in funcs:
            env = _function_sparse_env(func, aliases)
            env.names |= module_env.names
            scopes.append((env, func))

        seen: set[tuple[int, int]] = set()
        for env, scope in scopes:
            for node in ast.walk(scope):
                if (
                    isinstance(node, ast.BinOp)
                    and isinstance(node.op, ast.MatMult)
                    and (env.is_sparse(node.left) or env.is_sparse(node.right))
                ):
                    key = (node.lineno, node.col_offset)
                    if key not in seen:
                        seen.add(key)
                        yield ctx.finding(
                            self.code,
                            node,
                            "raw sparse·dense product bypasses the spmm "
                            "engine layer; route it through SweepCache.dot "
                            "or a repro.core.spmm engine so an spmm= "
                            "instance (and float32 mode) sees it",
                        )
                elif (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "dot"
                    and env.is_sparse(node.func.value)
                ):
                    key = (node.lineno, node.col_offset)
                    if key not in seen:
                        seen.add(key)
                        yield ctx.finding(
                            self.code,
                            node,
                            "raw .dot() on a scipy sparse operand bypasses "
                            "the spmm engine layer; route it through "
                            "SweepCache.dot or a repro.core.spmm engine",
                        )


# --------------------------------------------------------------------- #
# REP002 — RNG construction outside utils/rng.py
# --------------------------------------------------------------------- #


class StrayRngRule(Rule):
    """Seeds must flow through ``repro.utils.rng``.

    The whole reproduction stands on "one top-level seed determines
    everything": ``spawn_rng``/``child_seeds`` derive independent child
    generators per subsystem via ``SeedSequence`` spawning.  A direct
    ``np.random.default_rng()`` (or legacy ``np.random.seed`` global
    state, or the stdlib ``random`` module) creates a stream CI cannot
    replay — factors stop being bit-identical across runs and the whole
    determinism test pyramid silently tests nothing.

    ``np.random.Generator``/``SeedSequence``/``BitGenerator`` *type*
    references are fine — the rule targets construction and global
    state, not annotations.
    """

    code = "REP002"
    name = "stray-rng"
    summary = "RNG constructed outside repro.utils.rng"

    EXEMPT = ("src/repro/utils/rng.py",)
    TYPE_ONLY = frozenset({"Generator", "BitGenerator", "SeedSequence", "RandomState"})

    def applies(self, path: str) -> bool:
        return path not in self.EXEMPT

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        numpy_aliases: set[str] = set()
        numpy_random_aliases: set[str] = set()
        stdlib_random_aliases: set[str] = set()
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Import):
                for item in node.names:
                    if item.name == "numpy":
                        numpy_aliases.add(item.asname or "numpy")
                    elif item.name == "numpy.random":
                        numpy_random_aliases.add(item.asname or "numpy")
                    elif item.name == "random":
                        stdlib_random_aliases.add(item.asname or "random")
            elif isinstance(node, ast.ImportFrom):
                if node.module == "numpy":
                    for item in node.names:
                        if item.name == "random":
                            numpy_random_aliases.add(item.asname or "random")
                elif node.module == "numpy.random":
                    for item in node.names:
                        if item.name not in self.TYPE_ONLY:
                            yield ctx.finding(
                                self.code,
                                node,
                                f"importing numpy.random.{item.name} here "
                                "creates an RNG stream outside "
                                "repro.utils.rng; use spawn_rng/child_seeds",
                            )
                elif node.module == "random":
                    yield ctx.finding(
                        self.code,
                        node,
                        "the stdlib random module is unseeded global state; "
                        "use repro.utils.rng.spawn_rng",
                    )

        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Attribute):
                continue
            # np.random.<attr> / numpy.random.<attr>
            value = node.value
            if (
                isinstance(value, ast.Attribute)
                and value.attr == "random"
                and isinstance(value.value, ast.Name)
                and value.value.id in numpy_aliases
            ):
                if node.attr not in self.TYPE_ONLY:
                    yield ctx.finding(
                        self.code,
                        node,
                        f"np.random.{node.attr} constructs an RNG outside "
                        "repro.utils.rng; thread a seed through "
                        "spawn_rng/child_seeds instead",
                    )
            # rnd.<attr> where rnd is the stdlib random module
            elif (
                isinstance(value, ast.Name)
                and value.id in stdlib_random_aliases
            ):
                yield ctx.finding(
                    self.code,
                    node,
                    f"random.{node.attr} uses unseeded global state; use "
                    "repro.utils.rng.spawn_rng",
                )
            # npr.<attr> where npr is numpy.random itself
            elif (
                isinstance(value, ast.Name)
                and value.id in numpy_random_aliases
                and node.attr not in self.TYPE_ONLY
            ):
                yield ctx.finding(
                    self.code,
                    node,
                    f"numpy.random.{node.attr} constructs an RNG outside "
                    "repro.utils.rng; use spawn_rng/child_seeds",
                )


# --------------------------------------------------------------------- #
# REP003 — wall-clock reads inside core/ numerics
# --------------------------------------------------------------------- #


class WallClockInCoreRule(Rule):
    """``repro.core`` never reads the wall clock.

    Bit-identical replay across hosts, backends, and shard counts (the
    regression harness PRs 3–8 built) only holds if nothing in the
    numerics branches on time.  Timing belongs to the engine/eval
    layers (``engine/streaming.py`` stamps ``perf_counter`` around the
    solve; ``eval/timing.py`` owns measurement).  A ``time.time()``
    inside ``core/`` is either dead telemetry or — worse — a
    time-dependent heuristic that breaks replay.
    """

    code = "REP003"
    name = "wall-clock-in-core"
    summary = "wall-clock read inside repro.core numerics"

    SCOPE = "src/repro/core/"
    CLOCK_ATTRS = frozenset(
        {
            "time",
            "time_ns",
            "perf_counter",
            "perf_counter_ns",
            "monotonic",
            "monotonic_ns",
            "process_time",
            "process_time_ns",
            "now",
            "utcnow",
            "today",
        }
    )

    def applies(self, path: str) -> bool:
        return path.startswith(self.SCOPE)

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        time_aliases: set[str] = set()
        datetime_aliases: set[str] = set()
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Import):
                for item in node.names:
                    if item.name == "time":
                        time_aliases.add(item.asname or "time")
                    elif item.name == "datetime":
                        datetime_aliases.add(item.asname or "datetime")
            elif isinstance(node, ast.ImportFrom):
                if node.module in ("time", "datetime"):
                    yield ctx.finding(
                        self.code,
                        node,
                        f"importing from {node.module} inside repro.core: "
                        "core numerics must be wall-clock free (timing "
                        "lives in the engine/eval layers)",
                    )

        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            name = dotted_name(node.func)
            if name is None:
                continue
            parts = name.split(".")
            root = parts[0]
            if (
                root in time_aliases or root in datetime_aliases
            ) and parts[-1] in self.CLOCK_ATTRS:
                yield ctx.finding(
                    self.code,
                    node,
                    f"{name}() reads the wall clock inside repro.core; "
                    "deterministic replay forbids time-dependent numerics "
                    "— move timing to the engine/eval layers",
                )


# --------------------------------------------------------------------- #
# REP004 — unpickling outside the framed transport
# --------------------------------------------------------------------- #


class UnframedPickleRule(Rule):
    """Unpickling happens only inside ``repro.utils.transport``.

    Unpickling executes code.  The socket backend's security posture
    (README "trusted networks only") is auditable precisely because
    every ``pickle.loads`` in the tree sits behind the framed transport
    — MAGIC + length-prefix framing, ``FrameError`` on garbage,
    protocol-version handshake.  A stray ``pickle.load`` elsewhere (a
    checkpoint loader, a cache file) silently widens the attack surface
    and dodges the framing discipline.  ``np.load(...,
    allow_pickle=True)`` is the same hole wearing a numpy hat.
    """

    code = "REP004"
    name = "unframed-pickle"
    summary = "unpickling outside repro.utils.transport"

    EXEMPT = ("src/repro/utils/transport.py",)
    LOAD_ATTRS = frozenset({"load", "loads", "Unpickler"})

    def applies(self, path: str) -> bool:
        return path not in self.EXEMPT

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        pickle_aliases: set[str] = set()
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Import):
                for item in node.names:
                    if item.name in ("pickle", "cPickle", "dill"):
                        pickle_aliases.add(item.asname or item.name)
            elif isinstance(node, ast.ImportFrom):
                if node.module in ("pickle", "cPickle", "dill"):
                    for item in node.names:
                        if item.name in self.LOAD_ATTRS:
                            yield ctx.finding(
                                self.code,
                                node,
                                f"importing {node.module}.{item.name}: "
                                "unpickling executes code and is allowed "
                                "only behind the framed protocol in "
                                "repro.utils.transport",
                            )

        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Attribute):
                if (
                    isinstance(node.value, ast.Name)
                    and node.value.id in pickle_aliases
                    and node.attr in self.LOAD_ATTRS
                ):
                    yield ctx.finding(
                        self.code,
                        node,
                        f"{node.value.id}.{node.attr} outside "
                        "repro.utils.transport: unpickling executes code; "
                        "use the framed send_frame/recv_frame path",
                    )
            elif isinstance(node, ast.Call):
                name = dotted_name(node.func)
                if name is not None and name.split(".")[-1] == "load":
                    for keyword in node.keywords:
                        if (
                            keyword.arg == "allow_pickle"
                            and isinstance(keyword.value, ast.Constant)
                            and keyword.value.value is True
                        ):
                            yield ctx.finding(
                                self.code,
                                node,
                                "np.load(allow_pickle=True) deserializes "
                                "pickled objects outside the framed "
                                "transport; store plain arrays instead",
                            )


# --------------------------------------------------------------------- #
# REP005 — engine shared-state writes outside the owning lock
# --------------------------------------------------------------------- #

_LOCK_HELD_DOC_RE = re.compile(
    r"(?i)caller[s]?\s+(?:must\s+)?hold|lock\s+(?:is\s+)?held|while\s+holding",
)


class UnlockedSharedWriteRule(Rule):
    """Engine shared state is written only under the owning lock.

    The serving engine is explicitly concurrent: ``ingest()`` enqueues
    from caller threads, a daemon drains, ``classify`` races
    ``advance_snapshot`` — PR 4's answer was the serve lock, and every
    ``engine/`` class since follows the pattern.  The rule recovers the
    discipline structurally: any attribute assigned a
    ``threading.Lock/RLock/Condition`` in a class is a *lock attribute*;
    any ``self.x`` attribute ever written inside a ``with self.<lock>:``
    block is *shared state*; writing shared state outside a lock block
    (and outside ``__init__``, where the object is still private to its
    constructor) is a finding.

    Helper methods that run with the lock already held document it —
    a docstring matching "caller holds"/"lock held" exempts the method,
    which keeps the contract greppable instead of implicit.
    """

    code = "REP005"
    name = "unlocked-shared-write"
    summary = "engine shared-state attribute written outside its lock"

    SCOPE = "src/repro/engine/"

    def applies(self, path: str) -> bool:
        return path.startswith(self.SCOPE)

    @staticmethod
    def _is_lock_ctor(node: ast.AST) -> bool:
        if not isinstance(node, ast.Call):
            return False
        name = dotted_name(node.func)
        return name is not None and name.split(".")[-1] in (
            "Lock",
            "RLock",
            "Condition",
            "Semaphore",
            "BoundedSemaphore",
        )

    @classmethod
    def _lock_attrs(cls, class_node: ast.ClassDef) -> set[str]:
        attrs: set[str] = set()
        for node in ast.walk(class_node):
            if isinstance(node, ast.Assign) and cls._is_lock_ctor(node.value):
                for target in node.targets:
                    if (
                        isinstance(target, ast.Attribute)
                        and isinstance(target.value, ast.Name)
                        and target.value.id == "self"
                    ):
                        attrs.add(target.attr)
        return attrs

    @staticmethod
    def _self_attr_writes(stmt: ast.stmt) -> list[tuple[str, ast.AST]]:
        """(attr, node) pairs for ``self.x = ...`` / ``self.x += ...``."""
        writes: list[tuple[str, ast.AST]] = []
        targets: list[ast.expr] = []
        if isinstance(stmt, ast.Assign):
            targets = list(stmt.targets)
        elif isinstance(stmt, (ast.AugAssign, ast.AnnAssign)):
            targets = [stmt.target]
        for target in targets:
            for node in ast.walk(target):
                if (
                    isinstance(node, ast.Attribute)
                    and isinstance(node.ctx, ast.Store)
                    and isinstance(node.value, ast.Name)
                    and node.value.id == "self"
                ):
                    writes.append((node.attr, node))
        return writes

    def _walk_method(
        self,
        body: list[ast.stmt],
        lock_attrs: set[str],
        guarded: bool,
        sink: list[tuple[str, ast.AST, bool]],
    ) -> None:
        for stmt in body:
            for attr, node in self._self_attr_writes(stmt):
                sink.append((attr, node, guarded))
            if isinstance(stmt, ast.With):
                holds = guarded or any(
                    isinstance(item.context_expr, ast.Attribute)
                    and isinstance(item.context_expr.value, ast.Name)
                    and item.context_expr.value.id == "self"
                    and item.context_expr.attr in lock_attrs
                    for item in stmt.items
                )
                self._walk_method(stmt.body, lock_attrs, holds, sink)
            elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                # Nested function: conservatively inherits the guard state.
                self._walk_method(stmt.body, lock_attrs, guarded, sink)
            else:
                for field_name in ("body", "orelse", "finalbody", "handlers"):
                    children = getattr(stmt, field_name, None)
                    if not children:
                        continue
                    if field_name == "handlers":
                        for handler in children:
                            self._walk_method(
                                handler.body, lock_attrs, guarded, sink
                            )
                    else:
                        self._walk_method(children, lock_attrs, guarded, sink)

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        for class_node in ast.walk(ctx.tree):
            if not isinstance(class_node, ast.ClassDef):
                continue
            lock_attrs = self._lock_attrs(class_node)
            if not lock_attrs:
                continue

            # Pass 1: every write, tagged with its guard state per method.
            writes_by_method: dict[str, list[tuple[str, ast.AST, bool]]] = {}
            for method in class_node.body:
                if not isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                sink: list[tuple[str, ast.AST, bool]] = []
                self._walk_method(method.body, lock_attrs, False, sink)
                writes_by_method[method.name] = sink

            shared = {
                attr
                for sink in writes_by_method.values()
                for attr, _, guarded in sink
                if guarded
            } - lock_attrs

            if not shared:
                continue

            # Pass 2: unguarded writes to shared attrs outside __init__
            # and outside documented lock-held helpers.
            for method in class_node.body:
                if not isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                if method.name == "__init__":
                    continue
                docstring = ast.get_docstring(method) or ""
                if _LOCK_HELD_DOC_RE.search(docstring):
                    continue
                for attr, node, guarded in writes_by_method[method.name]:
                    if guarded or attr not in shared:
                        continue
                    locks = ", ".join(f"self.{name}" for name in sorted(lock_attrs))
                    yield ctx.finding(
                        self.code,
                        node,
                        f"self.{attr} is shared engine state (written under "
                        f"{locks} elsewhere in {class_node.name}) but this "
                        "write is lockless; wrap it in the lock, or document "
                        "the helper with 'caller holds the lock' in its "
                        "docstring",
                    )


# --------------------------------------------------------------------- #
# REP006 — knob-string dispatch outside the central registries
# --------------------------------------------------------------------- #

#: The three knob namespaces, mirrored from the live registries.  A test
#: cross-checks these against repro.* so drift fails loudly.
KNOB_LITERALS = frozenset(
    {
        # utils/executor.BACKENDS
        "serial",
        "thread",
        "socket",
        # core/kernels.KERNELS
        "numpy",
        # core/spmm.SPMM_ENGINES
        "scipy",
        # shared auto-resolution token
        "auto",
    }
)

#: A comparison only counts when the non-literal side *names* a knob —
#: this is what keeps ``x.format != "csr"`` or ``mode == "socket"`` on
#: an unrelated variable out of scope.
KNOB_NAME_HINTS = ("backend", "kernel", "spmm")


class KnobLiteralDispatchRule(Rule):
    """Backend/kernel/spmm string dispatch stays central.

    The registries (``utils/executor.py``, ``core/kernels.py``,
    ``core/spmm.py``) own name validation and
    ``"auto"`` resolution; ``engine/config.py`` validates eagerly at
    construction.  Scattered ``if backend == "proces":`` elsewhere is
    how typos ship (string dispatch has no exhaustiveness check) and
    how ``"auto"`` gets resolved twice with different answers on
    heterogeneous fleets.  Dispatch that genuinely must live elsewhere
    (e.g. the engine choosing pool ownership per backend *after*
    config validation) carries an inline suppression whose reason says
    exactly that.
    """

    code = "REP006"
    name = "knob-literal-dispatch"
    summary = "knob string literal dispatched outside the central registries"

    EXEMPT = (
        "src/repro/utils/executor.py",
        "src/repro/core/kernels.py",
        "src/repro/core/spmm.py",
        "src/repro/engine/config.py",
    )

    def applies(self, path: str) -> bool:
        return path not in self.EXEMPT

    @staticmethod
    def _mentions_knob(node: ast.AST) -> bool:
        name = dotted_name(node)
        if name is None:
            return False
        lowered = name.lower()
        return any(hint in lowered for hint in KNOB_NAME_HINTS)

    @staticmethod
    def _knob_literals_in(node: ast.AST) -> list[str]:
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            return [node.value] if node.value in KNOB_LITERALS else []
        if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
            literals: list[str] = []
            for element in node.elts:
                if not (
                    isinstance(element, ast.Constant)
                    and isinstance(element.value, str)
                ):
                    return []
                if element.value in KNOB_LITERALS:
                    literals.append(element.value)
            return literals
        return []

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Compare):
                continue
            if not all(
                isinstance(op, (ast.Eq, ast.NotEq, ast.In, ast.NotIn))
                for op in node.ops
            ):
                continue
            sides = [node.left, *node.comparators]
            literal_values: list[str] = []
            knob_named = False
            for side in sides:
                values = self._knob_literals_in(side)
                if values:
                    literal_values.extend(values)
                elif self._mentions_knob(side):
                    knob_named = True
            if literal_values and knob_named:
                shown = "/".join(repr(v) for v in literal_values[:3])
                yield ctx.finding(
                    self.code,
                    node,
                    f"dispatch on knob literal {shown} outside the central "
                    "registries; validate/resolve via validate_backend, "
                    "resolve_kernel or resolve_spmm (or keep the "
                    "branch in the registry module and suppress with the "
                    "reason)",
                )


#: Registry order == documentation order.
ALL_RULES: tuple[Rule, ...] = (
    RawSparseProductRule(),
    StrayRngRule(),
    WallClockInCoreRule(),
    UnframedPickleRule(),
    UnlockedSharedWriteRule(),
    KnobLiteralDispatchRule(),
)
