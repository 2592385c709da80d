"""Shared fast-forward traces: schema round-trips, keying, store
hygiene, and the cross-composition differential gate.

The differential suite is the tentpole guarantee: replaying a recorded
fast-forward trace under a *different* composition must produce a
``RunResult`` byte-identical to interpreting the fast-forward region
live — across core counts, the ideal-handshake ablation arm, and
benchmarks of every category.
"""

import gzip
import json
import pathlib

import pytest
from hypothesis import given, settings, strategies as st

import repro.obs as obs_lib
from repro.exec import ResultStore
from repro.exec.spec import JobSpec
from repro.exec.worker import execute_spec
from repro.harness import clear_cache, configure_cache
from repro.obs import RingBufferSink
from repro.sample.trace import (
    TRACE_SCHEMA,
    FFTraceStore,
    RecordSession,
    ReplaySession,
    configure_ff_trace,
    decode_reg_delta,
    decode_trace,
    encode_reg_delta,
    encode_trace,
    prewarm_partition,
    reset_ff_trace,
    trace_group,
    trace_key,
)


SAMPLING = {"ff_blocks": 160, "window_blocks": 24, "warmup_blocks": 8}


@pytest.fixture(autouse=True)
def _isolated(tmp_path):
    """Each test gets a fresh in-process cache, a disabled result
    store, and its own trace-store root."""
    clear_cache()
    configure_cache(enabled=False)
    reset_ff_trace()
    configure_ff_trace(enabled=True, cache_dir=tmp_path / "traces")
    yield
    reset_ff_trace()
    clear_cache()
    configure_cache(enabled=False)
    obs_lib.reset()


def _json_roundtrip(obj):
    return json.loads(json.dumps(obj))


# ----------------------------------------------------------------------
# Schema round-trips (property-based, through JSON)
# ----------------------------------------------------------------------

_reg_values = st.one_of(st.integers(-(2 ** 63), 2 ** 63 - 1),
                        st.floats(allow_nan=False, allow_infinity=False))
_regfiles = st.lists(_reg_values, min_size=8, max_size=8)


class TestRegDelta:
    @given(_regfiles, _regfiles)
    def test_roundtrip(self, start, end):
        delta = _json_roundtrip(encode_reg_delta(start, end))
        assert decode_reg_delta(start, delta) == end

    @given(_regfiles)
    def test_identity_is_empty(self, regs):
        assert encode_reg_delta(regs, regs) == []

    def test_type_change_is_a_delta(self):
        # 1 == 1.0 in Python, but the register file distinguishes the
        # int from the float; the delta must carry it.
        assert encode_reg_delta([1], [1.0]) != []

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            encode_reg_delta([0], [0, 0])


_stores = st.lists(
    st.tuples(st.integers(0, 1 << 20),                     # address
              st.sampled_from([1, 2, 4, 8]),               # size
              st.integers(-(2 ** 31), 2 ** 31 - 1),        # value
              st.booleans()),                              # fp
    max_size=6).map(
        lambda items: [(0, a, 8 if fp else s, float(v) if fp else v, fp)
                       for a, s, v, fp in items])

_intervals = st.lists(st.tuples(
    st.integers(0, 63),                                    # block number
    st.integers(0, 7),                                     # exit id
    st.integers(0, 63),                                    # next block
    st.sampled_from(["BRO", "CALLO", "RET"]),              # branch op
    st.integers(1, 128),                                   # insts
    st.lists(st.integers(0, 1 << 20), max_size=4),         # load addrs
    _stores,
), min_size=1, max_size=8)


def _build_interval(blocks, start, finished):
    return {
        "start": start,
        "addrs": [b * 64 for b, *_ in blocks],
        "exits": [e for _, e, *_ in blocks],
        "nexts": [n * 64 for _, _, n, *_ in blocks],
        "branch_ops": [op for *_3, op, _i, _l, _s in blocks],
        "insts": [i for *_4, i, _l, _s in blocks],
        "loads": [len(l) for *_5, l, _s in blocks],
        "load_addrs": [list(l) for *_5, l, _s in blocks],
        "stores": [list(s) for *_6, s in blocks],
        "reg_delta": [[1, 42]],
        "finished": finished,
    }


class TestTraceRoundtrip:
    @settings(max_examples=25, deadline=None)
    @given(st.lists(_intervals, min_size=1, max_size=3))
    def test_encode_decode_roundtrip(self, raw_intervals):
        intervals = [
            _build_interval(blocks, start=i * 4096,
                            finished=(i == len(raw_intervals) - 1))
            for i, blocks in enumerate(raw_intervals)
        ]
        payload = _json_roundtrip(encode_trace(
            "conv", 3, SAMPLING, "fp" * 32, intervals))
        trace = decode_trace(payload)

        assert trace.bench == "conv"
        assert trace.scale == 3
        assert trace.sampling == dict(sorted(SAMPLING.items()))
        assert trace.program == "fp" * 32
        assert len(trace.intervals) == len(intervals)
        for got, want in zip(trace.intervals, intervals):
            assert got.start == want["start"]
            assert list(got.addrs) == want["addrs"]
            assert list(got.exits) == want["exits"]
            assert list(got.nexts) == want["nexts"]
            assert list(got.branch_ops) == want["branch_ops"]
            assert list(got.insts) == want["insts"]
            assert list(got.loads) == want["loads"]
            assert [list(x) for x in got.load_addrs] == want["load_addrs"]
            assert [[tuple(s) for s in blk] for blk in got.stores] \
                == [[tuple(s) for s in blk] for blk in want["stores"]]
            assert got.reg_delta == want["reg_delta"]
            assert got.finished == want["finished"]

    @settings(max_examples=25, deadline=None)
    @given(_intervals)
    def test_stores_raw_matches_flatmemory_encoding(self, blocks):
        """The pre-encoded store bytes must be exactly what
        ``FlatMemory.store`` would have written."""
        from repro.mem.flatmem import FlatMemory

        interval = _build_interval(blocks, start=0, finished=True)
        payload = _json_roundtrip(encode_trace(
            "conv", 1, SAMPLING, "fp", [interval]))
        decoded = decode_trace(payload).intervals[0]

        via_store = FlatMemory()
        via_raw = FlatMemory()
        for blk, blk_raw in zip(decoded.stores, decoded.stores_raw):
            assert len(blk) == len(blk_raw)
            for (__lsq, addr, size, value, fp), (raddr, raw) in \
                    zip(blk, blk_raw):
                assert raddr == addr
                via_store.store(addr, size, value, fp=fp)
                via_raw.write_bytes(raddr, raw)
        assert via_store._pages == via_raw._pages

    def test_unknown_schema_rejected(self):
        payload = encode_trace("conv", 1, SAMPLING, "fp", [])
        payload["schema"] = TRACE_SCHEMA + 1
        with pytest.raises(ValueError):
            decode_trace(payload)


# ----------------------------------------------------------------------
# Keying
# ----------------------------------------------------------------------

class TestTraceKey:
    def test_composition_axes_do_not_change_the_key(self):
        """Every composition of one (program, scale, schedule) shares a
        trace: ncores and the ideal-handshake ablation are invisible to
        the interpreter."""
        base = trace_key(JobSpec.edge("conv", 2, scale=2,
                                      sampling=SAMPLING))
        assert base is not None
        for spec in (
            JobSpec.edge("conv", 16, scale=2, sampling=SAMPLING),
            JobSpec.edge("conv", 32, scale=2, sampling=SAMPLING,
                         ideal_handshake=True),
            JobSpec.edge("conv", 2, scale=2, sampling=SAMPLING,
                         overrides={"lsq_size": 16}),
            JobSpec.edge("conv", 2, scale=2, sampling=SAMPLING,
                         verify=False),
        ):
            assert trace_key(spec) == base

    def test_program_and_schedule_axes_change_the_key(self):
        base = trace_key(JobSpec.edge("conv", 2, scale=2,
                                      sampling=SAMPLING))
        for spec in (
            JobSpec.edge("gzip", 2, scale=2, sampling=SAMPLING),
            JobSpec.edge("conv", 2, scale=3, sampling=SAMPLING),
            JobSpec.edge("conv", 2, scale=2,
                         sampling=dict(SAMPLING, ff_blocks=161)),
        ):
            assert trace_key(spec) != base

    def test_ineligible_specs_have_no_key(self):
        assert trace_key(JobSpec.edge("conv", 2)) is None       # no sampling
        assert trace_key(JobSpec.edge("conv", 2, trips=True,
                                      sampling=SAMPLING)) is None
        assert trace_group(JobSpec.edge("conv", 2)) is None

    def test_schema_version_salts_the_key(self, monkeypatch):
        spec = JobSpec.edge("conv", 2, scale=2, sampling=SAMPLING)
        base = trace_key(spec)
        import repro.sample.trace as trace_mod

        monkeypatch.setattr(trace_mod, "TRACE_SCHEMA", TRACE_SCHEMA + 1)
        assert trace_key(spec) != base


# ----------------------------------------------------------------------
# Store hygiene
# ----------------------------------------------------------------------

class TestStoreHygiene:
    def test_corrupt_blob_reads_as_miss(self, tmp_path):
        store = FFTraceStore(tmp_path / "t")
        key = "ab" * 32
        store.store(key, encode_trace("conv", 1, SAMPLING, "fp", []))
        assert store.load(key) is not None

        path = store.path_for(key)
        path.write_bytes(b"not gzip at all")
        assert store.load(key) is None
        path.write_bytes(gzip.compress(b'{"truncated'))
        assert store.load(key) is None

    def test_schema_bump_reads_as_miss(self, tmp_path):
        """A blob written under another schema version must miss (the
        store salt is the schema), not decode wrongly."""
        key = "cd" * 32
        old = FFTraceStore(tmp_path / "t")
        old.salt = TRACE_SCHEMA + 1
        old.store(key, {"schema": TRACE_SCHEMA + 1})
        assert FFTraceStore(tmp_path / "t").load(key) is None

    def test_key_mismatch_reads_as_miss(self, tmp_path):
        store = FFTraceStore(tmp_path / "t")
        store.store("ef" * 32, encode_trace("conv", 1, SAMPLING, "fp", []))
        moved = store.path_for("01" * 32)
        moved.parent.mkdir(parents=True, exist_ok=True)
        store.path_for("ef" * 32).rename(moved)
        assert store.load("01" * 32) is None


# ----------------------------------------------------------------------
# Cross-composition differential (the tentpole gate)
# ----------------------------------------------------------------------

DIFF_BENCHMARKS = ("conv", "gzip", "equake")     # hand / spec-int / spec-fp
DIFF_COMPOSITIONS = ((2, False), (8, False), (32, True))


def _diff_specs():
    return [JobSpec.edge(bench, ncores=n, scale=2, sampling=SAMPLING,
                         ideal_handshake=ideal)
            for bench in DIFF_BENCHMARKS
            for n, ideal in DIFF_COMPOSITIONS]


@pytest.mark.slow
def test_cross_composition_replay_is_bit_identical(tmp_path):
    """3 benchmarks x 3 compositions: stored records from the shared
    trace store must equal per-job fast-forward byte for byte."""
    perjob = ResultStore(tmp_path / "perjob")
    configure_ff_trace(enabled=False)
    for spec in _diff_specs():
        perjob.store(spec, execute_spec(spec))

    clear_cache()
    shared = ResultStore(tmp_path / "shared")
    configure_ff_trace(enabled=True, cache_dir=tmp_path / "traces2")
    for spec in _diff_specs():
        shared.store(spec, execute_spec(spec))

    for spec in _diff_specs():
        a = shared.path_for(shared.key(spec)).read_bytes()
        b = perjob.path_for(perjob.key(spec)).read_bytes()
        assert a == b, f"records diverge for {spec.label()}"
    # One trace per benchmark was recorded.
    assert len(FFTraceStore()) == len(DIFF_BENCHMARKS)


def test_mismatching_trace_falls_back_to_live_run(tmp_path):
    """A trace whose interval boundaries do not line up is abandoned
    mid-run and the result still comes out identical — the fallback
    guarantee that makes replay safe to enable by default."""
    # A dense schedule guarantees several fast-forward intervals even
    # on the small scale, so the tamper lands mid-run.
    dense = {"ff_blocks": 48, "window_blocks": 16, "warmup_blocks": 4}
    spec = JobSpec.edge("conv", 4, scale=2, sampling=dense)
    reference = execute_spec(spec)
    key = trace_key(spec)
    payload = FFTraceStore().load(key)
    assert payload is not None and len(payload["intervals"]) >= 2

    # Corrupt the second interval's start address on disk (and drop the
    # in-process parse) so replay only notices once it is under way.
    payload["intervals"][1]["start"] += 64
    FFTraceStore().store(key, payload)
    import repro.sample.trace as trace_mod

    trace_mod._PARSED.clear()

    obs = obs_lib.configure(metrics=True)
    ring = obs.bus.attach(RingBufferSink(
        kinds=("trace.mismatch", "trace.replay")))
    clear_cache()
    result = execute_spec(spec)
    assert result == reference

    assert len(ring.of_kind("trace.mismatch")) == 1
    replays = ring.of_kind("trace.replay")
    assert len(replays) == 1 and replays[0]["fell_back"]


def test_record_then_replay_events_and_metrics(tmp_path):
    """The first run of a group records; the second replays every
    interval without interpreting (sample.ff never fires)."""
    obs = obs_lib.configure(metrics=True)
    ring = obs.bus.attach(RingBufferSink(
        kinds=("trace.record", "trace.replay", "trace.mismatch",
               "sample.ff", "sample.ff_replayed")))

    spec_a = JobSpec.edge("conv", 4, scale=2, sampling=SAMPLING)
    result_a = execute_spec(spec_a)
    clear_cache()
    spec_b = JobSpec.edge("conv", 16, scale=2, sampling=SAMPLING)
    execute_spec(spec_b)

    records = ring.of_kind("trace.record")
    assert len(records) == 1
    assert records[0]["bench"] == "conv"
    assert records[0]["intervals"] >= 1
    assert records[0]["bytes"] > 0

    lives = ring.of_kind("sample.ff")
    replayed = ring.of_kind("sample.ff_replayed")
    assert lives and all(e["bench"] == "conv" for e in lives)
    assert replayed and len(replayed) == records[0]["intervals"]
    assert not ring.of_kind("trace.mismatch")
    replays = ring.of_kind("trace.replay")
    assert len(replays) == 1 and not replays[0]["fell_back"]

    # Replaying run B re-used run A's trajectory: same committed blocks.
    clear_cache()
    result_b2 = execute_spec(JobSpec.edge("conv", 4, scale=2,
                                          sampling=SAMPLING))
    assert result_b2 == result_a


def test_disabled_tracing_records_nothing(tmp_path):
    configure_ff_trace(enabled=False)
    spec = JobSpec.edge("conv", 4, scale=2, sampling=SAMPLING)
    execute_spec(spec)
    assert len(FFTraceStore(tmp_path / "traces")) == 0


# ----------------------------------------------------------------------
# Prewarm partitioning (the executor's honest-work planner)
# ----------------------------------------------------------------------

class TestPrewarmPartition:
    def test_one_recorder_per_cold_group(self):
        specs = [JobSpec.edge("conv", n, scale=2, sampling=SAMPLING)
                 for n in (2, 4, 8)]
        specs += [JobSpec.edge("gzip", n, scale=2, sampling=SAMPLING)
                  for n in (2, 4)]
        specs.append(JobSpec.edge("conv", 8, scale=2))  # unsampled
        recorders, rest = prewarm_partition(specs)
        assert [s.bench for s in recorders] == ["conv", "gzip"]
        assert len(rest) == len(specs) - 2
        assert set(map(id, recorders)).isdisjoint(map(id, rest))

    def test_singleton_groups_are_not_recorders(self):
        specs = [JobSpec.edge("conv", 2, scale=2, sampling=SAMPLING)]
        recorders, rest = prewarm_partition(specs)
        assert recorders == [] and rest == specs

    def test_already_recorded_groups_pass_through(self):
        specs = [JobSpec.edge("conv", n, scale=2, sampling=SAMPLING)
                 for n in (2, 4)]
        execute_spec(specs[0])          # records the group's trace
        recorders, rest = prewarm_partition(specs)
        assert recorders == [] and rest == specs

    def test_disabled_tracing_passes_through(self):
        configure_ff_trace(enabled=False)
        specs = [JobSpec.edge("conv", n, scale=2, sampling=SAMPLING)
                 for n in (2, 4)]
        assert prewarm_partition(specs) == ([], specs)
