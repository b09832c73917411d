"""Cross-run analytics: run ledger, figure validation, sweep telemetry.

Where :mod:`repro.obs` watches a *single* run from the inside, this
package looks *across* runs:

* :class:`RunStore` (``ledger.py``) — an SQLite ledger of sweep runs,
  ingested from ``run_sweep`` JSONL files or live reports, keyed by
  content hash, code version and fault-plan label, with ``select`` /
  ``diff`` queries.
* :func:`validate` (``validation.py``) — declarative tolerance bands
  that check a run against the paper's published curves (Figures 3, 4,
  6, 7, 8; Table 4), reusing the analytical models and the exact
  tolerances of ``tests/core/test_analytical_crossval.py``.
* :class:`SweepTelemetry` / :class:`ETAEstimator` (``telemetry.py``) —
  live progress for long sweeps: done/cache/failed counters, worker
  heartbeats and a monotone ETA estimate.
* :class:`ReportBundle` (``report.py``) — terminal / Markdown / HTML
  rendering for ``repro report``.

See ``docs/analytics.md`` for the ledger schema and the validation-band
format.
"""

from repro.analytics.ledger import LedgerPoint, RunDiff, RunInfo, RunStore
from repro.analytics.report import ReportBundle, ResultRow
from repro.analytics.telemetry import ETAEstimator, SweepTelemetry, format_eta
from repro.analytics.validation import (
    BandCheck,
    BandResult,
    RunContext,
    ValidationReport,
    default_checks,
    validate,
)

__all__ = [
    "BandCheck",
    "BandResult",
    "ETAEstimator",
    "LedgerPoint",
    "ReportBundle",
    "ResultRow",
    "RunContext",
    "RunDiff",
    "RunInfo",
    "RunStore",
    "SweepTelemetry",
    "ValidationReport",
    "default_checks",
    "format_eta",
    "validate",
]
