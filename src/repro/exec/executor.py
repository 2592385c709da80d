"""Parallel job execution over worker processes.

The executor fans :class:`~repro.exec.spec.JobSpec` jobs out over at
most ``jobs`` concurrent workers, with:

* a consultation of the :class:`~repro.exec.store.ResultStore` first,
  so warm jobs never touch a worker;
* coalescing of equal-hash specs within the batch — one runs, every
  duplicate receives the same payload;
* a per-job wall-clock timeout enforced by a terminate→kill watchdog;
* one retry (configurable) when a worker raises, crashes, or times
  out — a bad job is *reported* failed, it never kills the sweep;
* optional live progress/ETA reporting.

With ``jobs >= 2`` the jobs run on a **warm pool**
(:mod:`repro.exec.pool`): long-lived workers that import the simulator
once and serve specs over a request/reply pipe, with longest-job-first
dispatch from learned duration estimates (:mod:`repro.exec.sched`).
``jobs=1`` runs every job in-process — the reference path the pool's
records are byte-identical to.

Results come back in input order as :class:`JobResult` records; the
parent (not the workers) persists successful payloads to the store, so
there is a single writer per store.
"""

from __future__ import annotations

import multiprocessing
import time
import warnings
from collections import deque
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import repro.obs as obs_lib
from repro.exec.pool import WorkerPool
from repro.exec.progress import ProgressReporter
from repro.exec.sched import DurationBook, order_indices
from repro.exec.spec import JobSpec, spec_hash
from repro.exec.store import ResultStore
from repro.exec.worker import execute_spec

#: Job states a sweep can end in.
STATUS_OK = "ok"             # simulated this run
STATUS_CACHED = "cached"     # satisfied from the result store
STATUS_FAILED = "failed"     # exhausted retries (raise/crash/timeout)

#: The serial (jobs=1) path runs jobs in-process, so there is no worker
#: to terminate and ``timeout=`` cannot be enforced.  Warned once per
#: process (plus an ``exec.timeout_unsupported`` metric every run) so
#: sweeps never *silently* appear bounded.
_SERIAL_TIMEOUT_WARNED = False


@dataclass
class JobResult:
    """Outcome of one job in a sweep."""

    spec: JobSpec
    status: str
    payload: Optional[dict] = None
    error: Optional[str] = None
    attempts: int = 0
    duration: float = 0.0

    @property
    def ok(self) -> bool:
        return self.status in (STATUS_OK, STATUS_CACHED)


class ParallelExecutor:
    """Runs a batch of job specs, in parallel when ``jobs > 1``."""

    poll_interval = 0.01    # seconds between scheduler sweeps
    #: Grace period for the terminate→kill escalation on unresponsive
    #: workers — a worker that ignores SIGTERM is SIGKILLed after this
    #: many seconds instead of wedging the sweep.
    grace = 5.0

    def __init__(self, jobs: int = 1, timeout: Optional[float] = None,
                 retries: int = 1, store: Optional[ResultStore] = None,
                 worker: Callable[[JobSpec], dict] = execute_spec,
                 progress: bool = False,
                 mp_context: Optional[str] = None,
                 obs: Optional[obs_lib.Observability] = None) -> None:
        self.jobs = max(1, int(jobs))
        self.timeout = timeout
        self.retries = max(0, int(retries))
        self.store = store
        self.worker = worker
        self.progress = progress
        #: Observability: per-job lifecycle events (``job.*``) plus
        #: ``exec.jobs`` counters and an ``exec.job_seconds`` histogram.
        self.obs = obs if obs is not None else obs_lib.current()
        self._ctx = multiprocessing.get_context(mp_context)

    # -- public API ----------------------------------------------------

    def run(self, specs: Sequence[JobSpec]) -> list[JobResult]:
        """Execute every spec; results are returned in input order."""
        specs = list(specs)
        results: list[Optional[JobResult]] = [None] * len(specs)
        todo: list[int] = []
        primary: dict[str, int] = {}        # spec hash -> first cold index
        coalesced: dict[int, int] = {}      # duplicate index -> primary
        for i, spec in enumerate(specs):
            payload = self.store.load(spec) if self.store is not None else None
            if payload is not None:
                results[i] = JobResult(spec=spec, status=STATUS_CACHED,
                                       payload=payload)
                if self.obs.active:
                    self.obs.emit("job.cached", bench=spec.bench,
                                  label=spec.label())
                    self.obs.metrics.inc("exec.jobs", status=STATUS_CACHED)
                continue
            key = spec_hash(spec)
            first = primary.get(key)
            if first is not None:
                # Equal-hash duplicate within the batch: run it once,
                # hand the duplicate the primary's payload afterwards.
                coalesced[i] = first
                if self.obs.active:
                    self.obs.emit("job.coalesced", bench=spec.bench,
                                  label=spec.label(), primary=first)
                    self.obs.metrics.inc("exec.coalesced")
                continue
            primary[key] = i
            todo.append(i)

        if self.jobs <= 1 and self.timeout is not None and todo:
            self._warn_serial_timeout()

        reporter = (ProgressReporter(total=len(specs))
                    if self.progress and specs else None)
        if reporter is not None:
            for r in results:
                if r is not None:
                    reporter.update(label=r.spec.bench, cached=True)
        try:
            if self.jobs <= 1:
                self._run_serial(specs, todo, results, reporter)
            else:
                self._run_pooled(specs, todo, results, reporter)
            for i, first in coalesced.items():
                outcome = results[first]
                results[i] = JobResult(
                    spec=specs[i], status=outcome.status,
                    payload=outcome.payload, error=outcome.error)
                if reporter is not None:
                    reporter.update(label=specs[i].bench,
                                    ok=outcome.ok, cached=True)
        finally:
            if reporter is not None:
                reporter.finish()
        return [r for r in results if r is not None]

    def _warn_serial_timeout(self) -> None:
        global _SERIAL_TIMEOUT_WARNED
        if self.obs.active:
            self.obs.metrics.inc("exec.timeout_unsupported")
        if not _SERIAL_TIMEOUT_WARNED:
            _SERIAL_TIMEOUT_WARNED = True
            warnings.warn(
                f"timeout={self.timeout:g} is not enforced on the serial "
                f"(jobs=1) path: jobs run in-process and cannot be "
                f"terminated — use jobs>=2 for a bounded sweep",
                RuntimeWarning, stacklevel=3)

    # -- serial path ---------------------------------------------------

    def _run_serial(self, specs, todo, results, reporter) -> None:
        # In-process execution: no per-job timeout (there is no process
        # to terminate), but the same retry-on-raise policy.
        for i in todo:
            spec = specs[i]
            started = time.monotonic()
            attempts = 0
            error = None
            payload = None
            while attempts <= self.retries:
                attempts += 1
                if self.obs.active:
                    self.obs.emit("job.start", bench=spec.bench,
                                  label=spec.label(), attempt=attempts)
                try:
                    payload = self.worker(spec)
                    error = None
                    break
                except Exception as exc:
                    error = f"{type(exc).__name__}: {exc}"
                    if attempts <= self.retries:
                        self._note_retry(spec, attempts, error,
                                         "exception", reporter)
            results[i] = self._finish(spec, payload, error, attempts,
                                      time.monotonic() - started, reporter)

    # -- warm-pool path ------------------------------------------------

    def _run_pooled(self, specs, todo, results, reporter) -> None:
        """Dispatch over a persistent :class:`WorkerPool`, longest jobs
        first when the duration book has history (FIFO when cold)."""
        book = DurationBook.for_store_root(
            self.store.root if self.store is not None else None)
        pending = deque(order_indices(specs, todo, book))
        attempts = {i: 0 for i in todo}
        started_total = {i: time.monotonic() for i in todo}
        pool = WorkerPool(size=min(self.jobs, max(1, len(todo))),
                          worker=self.worker, timeout=self.timeout,
                          grace=self.grace, mp_context=self._ctx,
                          obs=self.obs)
        try:
            while pending or pool.busy_count():
                while pending and pool.has_idle():
                    i = pending.popleft()
                    attempts[i] += 1
                    if self.obs.active:
                        self.obs.emit("job.start", bench=specs[i].bench,
                                      label=specs[i].label(),
                                      attempt=attempts[i])
                    pool.dispatch(i, specs[i])
                events = pool.poll()
                for event in events:
                    i = event.tag
                    if event.ok:
                        book.note_spec(specs[i], event.duration)
                        results[i] = self._finish(
                            specs[i], event.value, None, attempts[i],
                            time.monotonic() - started_total[i], reporter)
                        continue
                    error = event.value
                    # A broken pipe loses the worker just as a crash
                    # does: metrics keep the exception/crash/timeout
                    # vocabulary.
                    reason = "crash" if event.reason == "pipe" else event.reason
                    if self.obs.active:
                        if reason == "crash":
                            self.obs.metrics.inc("exec.crashes",
                                                 bench=specs[i].bench)
                        elif reason == "timeout":
                            self.obs.emit("job.timeout", bench=specs[i].bench,
                                          label=specs[i].label(),
                                          attempt=attempts[i])
                            self.obs.metrics.inc("exec.timeouts")
                    if attempts[i] <= self.retries:
                        self._note_retry(specs[i], attempts[i], error,
                                         reason, reporter)
                        pending.appendleft(i)    # retry before new work
                    else:
                        results[i] = self._finish(
                            specs[i], None, error, attempts[i],
                            time.monotonic() - started_total[i], reporter)
                if not events:
                    time.sleep(self.poll_interval)
        finally:
            pool.shutdown()
            book.flush()

    # -- shared completion ---------------------------------------------

    def _note_retry(self, spec: JobSpec, attempt: int, error: str,
                    reason: str,
                    reporter: Optional[ProgressReporter]) -> None:
        """One failed attempt is about to be retried: emit the retry
        metric labelled ``reason`` (``exception``, ``crash`` or
        ``timeout``) and surface it in the progress line."""
        if self.obs.active:
            self.obs.emit("job.retry", bench=spec.bench, label=spec.label(),
                          attempt=attempt, error=error, reason=reason)
            self.obs.metrics.inc("exec.retries", reason=reason,
                                 bench=spec.bench)
        if reporter is not None:
            reporter.note_retry()

    def _finish(self, spec: JobSpec, payload: Optional[dict],
                error: Optional[str], attempts: int, duration: float,
                reporter: Optional[ProgressReporter]) -> JobResult:
        if error is None and payload is not None:
            if self.store is not None:
                self.store.store(spec, payload)
            result = JobResult(spec=spec, status=STATUS_OK, payload=payload,
                               attempts=attempts, duration=duration)
        else:
            result = JobResult(spec=spec, status=STATUS_FAILED, error=error,
                               attempts=attempts, duration=duration)
        if self.obs.active:
            self.obs.emit("job.done", bench=spec.bench, label=spec.label(),
                          status=result.status, attempts=attempts,
                          duration=round(duration, 6), error=error)
            self.obs.metrics.inc("exec.jobs", status=result.status)
            self.obs.metrics.observe("exec.job_seconds", duration)
        if reporter is not None:
            reporter.update(label=spec.bench, ok=result.ok)
        return result


def run_specs(specs: Sequence[JobSpec], jobs: int = 1,
              timeout: Optional[float] = None,
              store: Optional[ResultStore] = None,
              progress: bool = False, **kwargs) -> list[JobResult]:
    """Convenience wrapper: build an executor and run one batch."""
    executor = ParallelExecutor(jobs=jobs, timeout=timeout, store=store,
                                progress=progress, **kwargs)
    return executor.run(specs)
