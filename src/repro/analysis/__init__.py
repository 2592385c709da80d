"""``repro.analysis`` — AST invariant linter for the reproduction.

Two passes guard the conventions the rest of the repo silently relies
on (see docs/ANALYSIS.md for the rule catalog and workflow):

* :mod:`repro.analysis.determinism` — REP2xx: no wall clocks, entropy,
  builtin ``hash()``/``id()``, or unsorted set iteration in simulator /
  sample / hashing modules (bit-identical results across worker
  fan-out).
* :mod:`repro.analysis.obsnames` — REP4xx: every literal event/metric
  name must be registered in :mod:`repro.obs.schema`.

Run it via ``repro lint``; CI gates on a clean report, and inline
``# lint: ok(RULE) reason`` markers are the only allow-list.  That
every spec field reaches the content hash is checked at runtime by
``tests/exec/test_hash_axes.py``.
"""

from repro.analysis.engine import (
    DEFAULT_SIM_PATHS,
    PASSES,
    LintContext,
    LintReport,
    run_lint,
)
from repro.analysis.findings import SEVERITIES, Finding, sort_findings
from repro.analysis.source import (
    LintError,
    SourceModule,
    iter_modules,
    load_module,
)

__all__ = [
    "DEFAULT_SIM_PATHS",
    "Finding",
    "LintContext",
    "LintError",
    "LintReport",
    "PASSES",
    "SEVERITIES",
    "SourceModule",
    "iter_modules",
    "load_module",
    "run_lint",
    "sort_findings",
]
