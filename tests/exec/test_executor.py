"""ParallelExecutor: pool semantics, retry, timeout, store integration.

Worker functions live at module level so they pickle into children.
"""

import json
import os
import pathlib
import time

import pytest

from repro.exec import JobSpec, ParallelExecutor, ResultStore, run_specs


def _specs(n, bench="conv"):
    return [JobSpec.edge(bench, ncores=2, scale=i + 1) for i in range(n)]


def _ok_worker(spec):
    return {"bench": spec.bench, "scale": spec.scale,
            "value": spec.scale * 10}


def _raise_on_scale_2(spec):
    if spec.scale == 2:
        raise ValueError("simulated bad configuration")
    return _ok_worker(spec)


def _crash_worker(spec):
    os._exit(13)


def _sleep_worker(spec):
    time.sleep(30)
    return _ok_worker(spec)


def _counting_worker(spec):
    """Leave one uniquely-named breadcrumb file per execution, so tests
    can count how many times work actually ran across processes."""
    trail = pathlib.Path(os.environ["REPRO_TEST_COUNT_DIR"])
    (trail / f"{os.getpid()}-{time.monotonic_ns()}").write_text(spec.bench)
    return _ok_worker(spec)


def _flaky_worker(spec):
    """Crash on the first attempt, succeed on the retry (state shared
    through a sentinel file named by the test via the environment)."""
    sentinel = pathlib.Path(os.environ["REPRO_TEST_FLAKY_SENTINEL"])
    if not sentinel.exists():
        sentinel.write_text("first attempt crashed")
        os._exit(13)
    return _ok_worker(spec)


@pytest.mark.parametrize("jobs", [2], ids=["warm-pool"])
class TestPoolSemantics:
    """The warm pool must be observationally identical to the serial
    path (the pool is an optimisation, never a semantic)."""

    def test_parallel_matches_serial(self, jobs):
        specs = _specs(6)
        serial = run_specs(specs, jobs=1, worker=_ok_worker)
        parallel = run_specs(specs, jobs=jobs, worker=_ok_worker)
        assert [r.payload for r in serial] == [r.payload for r in parallel]
        assert all(r.status == "ok" for r in parallel)
        # Input order is preserved regardless of completion order.
        assert [r.spec for r in parallel] == specs

    def test_byte_identical_records(self, tmp_path, jobs):
        specs = _specs(5)
        store1 = ResultStore(tmp_path / "serial")
        store2 = ResultStore(tmp_path / "parallel")
        run_specs(specs, jobs=1, worker=_ok_worker, store=store1)
        run_specs(specs, jobs=jobs, worker=_ok_worker, store=store2)
        for spec in specs:
            a = store1.path_for(store1.key(spec)).read_bytes()
            b = store2.path_for(store2.key(spec)).read_bytes()
            assert a == b

    def test_more_jobs_than_specs(self, jobs):
        results = run_specs(_specs(2), jobs=4 * jobs, worker=_ok_worker)
        assert [r.status for r in results] == ["ok", "ok"]


class TestFailureHandling:
    def test_raise_is_retried_once_then_reported(self):
        specs = _specs(4)
        results = run_specs(specs, jobs=2, worker=_raise_on_scale_2)
        by_scale = {r.spec.scale: r for r in results}
        bad = by_scale[2]
        assert bad.status == "failed"
        assert bad.attempts == 2                    # one retry
        assert "simulated bad configuration" in bad.error
        # The rest of the sweep survived.
        for scale in (1, 3, 4):
            assert by_scale[scale].status == "ok"

    def test_crash_is_retried_then_reported(self):
        results = run_specs(_specs(1), jobs=2, worker=_crash_worker)
        (r,) = results
        assert r.status == "failed"
        assert r.attempts == 2
        assert "exit code" in r.error

    def test_crash_then_success_on_retry(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_TEST_FLAKY_SENTINEL",
                           str(tmp_path / "sentinel"))
        results = run_specs(_specs(1), jobs=2, worker=_flaky_worker)
        (r,) = results
        assert r.status == "ok"
        assert r.attempts == 2
        assert r.payload == _ok_worker(_specs(1)[0])

    def test_timeout_terminates_worker(self):
        from repro.obs import Observability, RingBufferSink

        obs = Observability()
        ring = obs.bus.attach(RingBufferSink())
        executor = ParallelExecutor(jobs=2, timeout=0.25, retries=0,
                                    worker=_sleep_worker, obs=obs)
        started = time.monotonic()
        (r,) = executor.run(_specs(1))
        assert r.status == "failed"
        assert "timed out" in r.error
        assert time.monotonic() - started < 10      # not the 30s sleep
        # The documented docs/OBSERVABILITY.md fields, not a batch index.
        (event,) = ring.of_kind("job.timeout")
        assert set(event) == {"kind", "bench", "label", "attempt"}
        assert (event["bench"], event["label"], event["attempt"]) == \
            ("conv", r.spec.label(), 1)

    def test_serial_path_retries_raises(self):
        results = run_specs(_specs(4), jobs=1, worker=_raise_on_scale_2)
        by_scale = {r.spec.scale: r for r in results}
        assert by_scale[2].status == "failed"
        assert by_scale[2].attempts == 2
        assert by_scale[1].status == "ok"


@pytest.mark.parametrize("jobs", [1, 2], ids=["serial", "warm-pool"])
class TestCoalescing:
    """Equal-hash duplicates within one batch run once; every duplicate
    receives the primary's payload (regression: each used to simulate —
    or worse, race two writers onto one store record)."""

    def test_duplicates_run_once(self, tmp_path, monkeypatch, jobs):
        monkeypatch.setenv("REPRO_TEST_COUNT_DIR", str(tmp_path))
        spec = JobSpec.edge("conv", ncores=2, scale=1)
        other = JobSpec.edge("conv", ncores=2, scale=2)
        results = run_specs([spec, other, spec, spec], jobs=jobs,
                            worker=_counting_worker)
        assert [r.status for r in results] == ["ok"] * 4
        assert results[0].payload == results[2].payload == results[3].payload
        assert len(list(tmp_path.iterdir())) == 2    # two unique hashes

    def test_duplicate_shares_failure_too(self, jobs):
        bad = _specs(4)[1]                           # scale=2: raises
        results = run_specs([bad, bad], jobs=jobs, retries=0,
                            worker=_raise_on_scale_2)
        assert [r.status for r in results] == ["failed", "failed"]
        assert results[1].error == results[0].error

    def test_coalesced_metric_counts_duplicates(self, jobs):
        from repro.obs import Observability

        obs = Observability(metrics_enabled=True)
        spec = JobSpec.edge("conv", ncores=2, scale=1)
        run_specs([spec, spec, spec], jobs=jobs,
                  worker=_ok_worker, obs=obs)
        assert obs.metrics.counter("exec.coalesced") == 2
        # Only the primary counts as an executed job.
        assert obs.metrics.counter("exec.jobs", status="ok") == 1


class TestSerialTimeoutWarning:
    """jobs=1 runs in-process, so timeout= cannot be enforced — that
    must be *loud* (regression: it was silently ignored)."""

    def _fresh_warning_state(self, monkeypatch):
        from repro.exec import executor as executor_mod

        monkeypatch.setattr(executor_mod, "_SERIAL_TIMEOUT_WARNED", False)

    def test_warns_once_and_counts_metric(self, monkeypatch):
        from repro.obs import Observability

        self._fresh_warning_state(monkeypatch)
        obs = Observability(metrics_enabled=True)
        with pytest.warns(RuntimeWarning, match="jobs=1"):
            run_specs(_specs(1), jobs=1, timeout=5.0, worker=_ok_worker,
                      obs=obs)
        assert obs.metrics.counter("exec.timeout_unsupported") == 1
        # The warning fires once per process; the metric, every run.
        import warnings as warnings_mod

        with warnings_mod.catch_warnings():
            warnings_mod.simplefilter("error")
            run_specs(_specs(1), jobs=1, timeout=5.0, worker=_ok_worker,
                      obs=obs)
        assert obs.metrics.counter("exec.timeout_unsupported") == 2

    def test_no_warning_without_timeout_or_work(self, monkeypatch):
        import warnings as warnings_mod

        self._fresh_warning_state(monkeypatch)
        with warnings_mod.catch_warnings():
            warnings_mod.simplefilter("error")
            run_specs(_specs(1), jobs=1, worker=_ok_worker)      # no timeout
            run_specs([], jobs=1, timeout=1.0, worker=_ok_worker)  # no work

    def test_parallel_paths_do_not_warn(self, monkeypatch):
        import warnings as warnings_mod

        self._fresh_warning_state(monkeypatch)
        with warnings_mod.catch_warnings():
            warnings_mod.simplefilter("error")
            run_specs(_specs(1), jobs=2, timeout=30.0, worker=_ok_worker)


class TestStoreIntegration:
    def test_successes_persisted_and_replayed(self, tmp_path):
        store = ResultStore(tmp_path)
        specs = _specs(3)
        first = run_specs(specs, jobs=2, worker=_ok_worker, store=store)
        assert [r.status for r in first] == ["ok"] * 3
        assert store.writes == 3

        # Second run: everything is a store hit, no worker runs at all
        # (the crash worker would fail loudly if launched).
        replay = run_specs(specs, jobs=2, worker=_crash_worker, store=store)
        assert [r.status for r in replay] == ["cached"] * 3
        assert [r.payload for r in replay] == [r.payload for r in first]

    def test_failures_not_persisted(self, tmp_path):
        store = ResultStore(tmp_path)
        run_specs(_specs(4), jobs=2, worker=_raise_on_scale_2, store=store)
        assert store.writes == 3
        assert len(store) == 3


class TestRealWorker:
    def test_end_to_end_simulation_in_children(self, tmp_path):
        """Two real (tiny) simulation points through the default worker."""
        store = ResultStore(tmp_path)
        specs = [JobSpec.edge("dither", ncores=1),
                 JobSpec.edge("dither", ncores=2)]
        results = run_specs(specs, jobs=2, store=store)
        assert [r.status for r in results] == ["ok", "ok"]
        for r in results:
            assert r.payload["kind"] == "edge"
            assert r.payload["result"]["cycles"] > 0
        # Payloads are valid JSON all the way down.
        json.dumps([r.payload for r in results])


class TestRetryObservability:
    """Worker failures are labelled repro.obs metrics, not just log
    lines: ``exec.retries{reason,bench}`` and ``exec.crashes{bench}``."""

    def _obs(self):
        from repro.obs import Observability

        return Observability(metrics_enabled=True)

    def test_serial_retry_counts_exceptions(self):
        obs = self._obs()
        run_specs(_specs(2), jobs=1, worker=_raise_on_scale_2, obs=obs)
        # scale=2 raises on both attempts; only the retried one counts.
        assert obs.metrics.counter("exec.retries", reason="exception",
                                   bench="conv") == 1
        assert obs.metrics.counter("exec.crashes", bench="conv") == 0

    def test_parallel_crashes_labelled_per_attempt(self):
        obs = self._obs()
        results = run_specs(_specs(1), jobs=2, worker=_crash_worker, obs=obs)
        assert results[0].status == "failed"
        # Both attempts crashed; one of them was granted a retry.
        assert obs.metrics.counter("exec.crashes", bench="conv") == 2
        assert obs.metrics.counter("exec.retries", reason="crash",
                                   bench="conv") == 1

    def test_crash_then_success_counts_one_retry(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_TEST_FLAKY_SENTINEL",
                           str(tmp_path / "sentinel"))
        obs = self._obs()
        results = run_specs(_specs(1), jobs=2, worker=_flaky_worker, obs=obs)
        assert results[0].status == "ok"
        assert obs.metrics.counter("exec.crashes", bench="conv") == 1
        assert obs.metrics.counter("exec.retries", reason="crash",
                                   bench="conv") == 1

    def test_retry_event_carries_reason(self):
        from repro.obs import CallbackSink

        obs = self._obs()
        events = []
        obs.bus.attach(CallbackSink(events.append, kinds=("job.retry",)))
        run_specs(_specs(2), jobs=1, worker=_raise_on_scale_2, obs=obs)
        assert len(events) == 1
        event = events[0]
        assert event["reason"] == "exception"
        assert event["bench"] == "conv"
        assert event["attempt"] == 1
        assert "simulated bad configuration" in event["error"]
