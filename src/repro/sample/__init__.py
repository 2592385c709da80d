"""Sampled simulation engine (interpreter fast-forward + detailed windows).

See :mod:`repro.sample.engine` for the design.  The public surface:

* :class:`SamplingConfig` — the window/fast-forward rhythm;
* :class:`SampledRun` — steps through windows and fast-forward intervals;
* :func:`run_sampled` — one job spec to one extrapolated RunResult;
* :class:`ShadowUarch` — the warm structures driven during fast-forward;
* :class:`FFTraceStore` / :func:`configure_ff_trace` — shared
  fast-forward traces, recorded once per (program, scale, schedule)
  and replayed by every other composition
  (:mod:`repro.sample.trace`).
"""

from repro.sample.config import SamplingConfig
from repro.sample.engine import SampledRun, run_sampled
from repro.sample.shadow import RecordingMemory, ShadowUarch
from repro.sample.trace import (FFTraceStore, configure_ff_trace,
                                open_trace_session, reset_ff_trace,
                                trace_key)

__all__ = [
    "FFTraceStore",
    "RecordingMemory",
    "SampledRun",
    "SamplingConfig",
    "ShadowUarch",
    "configure_ff_trace",
    "open_trace_session",
    "reset_ff_trace",
    "run_sampled",
    "trace_key",
]
