"""repro-lint: AST-based invariant checker for this repository.

Eight PRs of scaling work accreted hard invariants — float64
bit-identity by IEEE-op-order, every hot-path sparse·dense product
routed through the :mod:`repro.core.spmm` engine layer, pickle only
behind the framed transport, engine shared state mutated only under
the serve lock, backend/kernel/spmm names validated centrally, and
seeds flowing through :mod:`repro.utils.rng`.  Until this package
existed they were enforced only by convention plus
after-the-fact regression tests; a single careless call site (a raw
``X @ dense`` in a sweep, an unseeded ``np.random``, a stray
``pickle.loads``) silently broke them.

``repro-lint`` turns each invariant into a static rule over the AST:

=======  =======================  ==========================================
Code     Name                     Invariant
=======  =======================  ==========================================
REP001   raw-sparse-product       hot-path sparse·dense products go through
                                  ``SweepCache.dot`` / ``repro.core.spmm``
REP002   stray-rng                RNGs are constructed only via
                                  ``repro.utils.rng`` helpers
REP003   wall-clock-in-core       ``repro.core`` numerics never read the
                                  wall clock
REP004   unframed-pickle          unpickling happens only inside
                                  ``repro.utils.transport``
REP005   unlocked-shared-write    engine shared state is written only under
                                  the owning lock
REP006   knob-literal-dispatch    backend/kernel/spmm string dispatch
                                  lives with the central registries
=======  =======================  ==========================================

Run it as ``python -m tools.repro_lint [paths] [--baseline FILE]
[--format text|json]``.  Findings can be suppressed inline with
``# repro-lint: disable=REPnnn -- reason`` (the reason is mandatory);
pre-existing, deliberate violations live in the checked-in baseline
file so CI fails only on *new* findings.  See CONTRIBUTING.md,
"Invariants & static analysis".

The package is dependency-free (stdlib ``ast`` + ``tokenize`` only) so
the CI job can run it before installing anything.
"""

from __future__ import annotations

from tools.repro_lint.core import Finding, LintError, ModuleContext, Rule, lint_paths
from tools.repro_lint.rules import ALL_RULES

__all__ = [
    "ALL_RULES",
    "Finding",
    "LintError",
    "ModuleContext",
    "Rule",
    "lint_paths",
]
