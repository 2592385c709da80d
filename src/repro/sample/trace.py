"""Shared fast-forward traces: record once, replay across compositions.

A sampled run's fast-forward trajectory — the sequence of committed
blocks, their exits/branches, load/store addresses, and the
architectural register/memory deltas — depends only on the *program*
(benchmark + scale) and the *sampling schedule* (window boundaries fall
at fixed block counts), never on the composition: detailed windows
commit architecturally exactly and the interpreter is the golden model.
Every figure sweep and search rung evaluates many compositions of the
same benchmark, so the first run records its fast-forward intervals
into a content-addressed :class:`FFTraceStore` and every later
composition *replays* them: recorded outcomes are fed to that run's own
:class:`~repro.sample.shadow.ShadowUarch` (predictor/RAS/cache warm-up
interleaves by core count, so it must be re-hashed per composition),
recorded stores are applied to memory in commit order, and the interval
boundary register delta is injected directly — no interpreter
execution.  O(compositions x ff) interpretation becomes O(1) record +
O(compositions) cheap replays.

Correctness guards, layered:

* the trace key hashes the program fingerprint, scale, and the full
  sampling schedule (``TRACE_SCHEMA``-salted), so a schedule or
  workload change misses instead of colliding;
* every interval replay checks its recorded start address against the
  engine's resume address; any mismatch abandons the trace and falls
  back to live interpretation (the architectural state is exact at
  every boundary, so the fallback continues seamlessly);
* the architectural end-state verification (``verify_edge_run``) stays
  on for replayed runs, exactly as for live ones.

Replayed runs produce bit-identical ``RunResult`` payloads to direct
interpretation — enforced by the cross-composition differential suite
(``tests/sample/test_trace.py``) and the golden accuracy gates.

The store root defaults to ``<cache-dir>/traces`` (the same resolution
as the result store, hermetic under pytest); ``REPRO_FF_TRACE_DIR``
overrides it and ``REPRO_FF_TRACE=0`` disables tracing — both are
plain environment variables so executor worker processes inherit the
CLI's configuration without protocol changes.
"""

from __future__ import annotations

import hashlib
import json
import os
import pathlib
import struct
from typing import Optional, Sequence

import repro.obs as obs_lib
from repro.exec.store import BlobStore

#: Bump when the trace layout changes; old blobs then read as misses.
TRACE_SCHEMA = 1

#: Environment switches (inherited by executor workers).
TRACE_ENABLED_ENV = "REPRO_FF_TRACE"
TRACE_DIR_ENV = "REPRO_FF_TRACE_DIR"

#: Process-wide configuration (None = resolve from the environment).
_OPTIONS: dict = {"enabled": None, "dir": None}

#: key -> decoded FFTrace: one parse serves every replay in-process
#: (a serial composition sweep decodes each trace exactly once).
_PARSED: dict[str, "FFTrace"] = {}
_PARSED_CAP = 4


# ----------------------------------------------------------------------
# Configuration
# ----------------------------------------------------------------------

def configure_ff_trace(enabled: Optional[bool] = None,
                       cache_dir=None) -> dict:
    """Set process-wide trace options; returns the active options.

    ``enabled=None`` leaves the current setting; the CLI maps
    ``--ff-trace``/``--no-ff-trace`` here and mirrors the choice into
    the environment so worker processes agree.
    """
    if enabled is not None:
        _OPTIONS["enabled"] = bool(enabled)
    if cache_dir is not None:
        _OPTIONS["dir"] = pathlib.Path(cache_dir)
    return dict(_OPTIONS)


def reset_ff_trace() -> None:
    """Drop explicit configuration and the in-process parsed cache
    (tests; the on-disk store is untouched)."""
    _OPTIONS["enabled"] = None
    _OPTIONS["dir"] = None
    _PARSED.clear()


def trace_enabled() -> bool:
    """Whether sampled runs consult the trace store (default on)."""
    if _OPTIONS["enabled"] is not None:
        return _OPTIONS["enabled"]
    env = os.environ.get(TRACE_ENABLED_ENV)
    if env is not None:
        return env.strip().lower() not in ("", "0", "no", "off", "false")
    return True


def resolve_trace_dir() -> pathlib.Path:
    """Trace-store root: explicit configuration, then
    ``$REPRO_FF_TRACE_DIR``, then ``<result cache dir>/traces``."""
    if _OPTIONS["dir"] is not None:
        return _OPTIONS["dir"]
    env = os.environ.get(TRACE_DIR_ENV)
    if env:
        return pathlib.Path(env)
    from repro.harness.runner import resolve_cache_dir

    return resolve_cache_dir() / "traces"


class FFTraceStore(BlobStore):
    """Content-addressed fast-forward trace store (gzip JSON blobs
    under ``<root>/<key[:2]>/<key>.json.gz``, atomic writes,
    corruption-tolerant reads — see :class:`repro.exec.store.BlobStore`)."""

    def __init__(self, root=None) -> None:
        super().__init__(root if root is not None else resolve_trace_dir(),
                         salt=TRACE_SCHEMA)


# ----------------------------------------------------------------------
# Keying
# ----------------------------------------------------------------------

def program_fingerprint(program) -> str:
    """Structural content hash of a built program: entry, block layout
    (label/size/instruction counts), data segment, and initial
    registers.  Memoized on the program object — one hash per build.

    The fingerprint deliberately stops at structure (it does not
    disassemble every instruction): a code change that preserves the
    full block layout *and* data image is caught by the per-interval
    start-address checks and the architectural end-state verification,
    which stay on for every replayed run.
    """
    fp = getattr(program, "_ff_fingerprint", None)
    if fp is None:
        digest = hashlib.sha256()
        digest.update(repr((program.name, program.entry,
                            tuple(program.order))).encode())
        for label in program.order:
            block = program.blocks[label]
            digest.update(repr((label, block.size, len(block.reads),
                                len(block.writes))).encode())
        for addr in sorted(program.data):
            digest.update(str(addr).encode())
            digest.update(program.data[addr])
        digest.update(repr(sorted(program.reg_init.items())).encode())
        fp = digest.hexdigest()
        program._ff_fingerprint = fp
    return fp


def schedule_tag(sampling: dict) -> str:
    """Human-readable schedule label for events/metrics, e.g.
    ``ff448/w40/wu8``."""
    return (f"ff{sampling['ff_blocks']}/w{sampling['window_blocks']}"
            f"/wu{sampling['warmup_blocks']}")


def _eligible(spec) -> bool:
    """Specs whose fast-forward trajectory is composition-independent
    and routed through the sampled engine: sampled EDGE points without
    fault injection (TRIPS never samples)."""
    return (spec.kind == "edge" and bool(spec.sampling)
            and not spec.trips and not spec.faults)


def trace_group(spec) -> Optional[tuple]:
    """Cheap grouping key — every spec in a group shares one trace.
    ``None`` for specs the trace store does not apply to.

    Unlike :func:`trace_key` this never builds the program, so batch
    planners (``prewarm_specs``) can partition without paying a
    workload build per spec.
    """
    if not _eligible(spec):
        return None
    return (spec.bench, spec.scale, spec.sampling)


def trace_key(spec) -> Optional[str]:
    """Content address of the trace ``spec`` records or replays:
    sha256 over the schema version, program fingerprint, scale, and the
    full sampling schedule.  Composition axes (``ncores``, overrides,
    ``ideal_handshake``, ``verify``) are deliberately absent — the
    interpreter never reads them."""
    if not _eligible(spec):
        return None
    from repro.harness.runner import cached_program

    program, __, __ = cached_program("edge", spec.bench, spec.scale)
    payload = {
        "schema": TRACE_SCHEMA,
        "bench": spec.bench,
        "scale": spec.scale,
        "program": program_fingerprint(program),
        "sampling": dict(sorted(spec.sampling_dict().items())),
    }
    return hashlib.sha256(
        json.dumps(payload, sort_keys=True).encode()).hexdigest()


# ----------------------------------------------------------------------
# Schema: encode / decode
# ----------------------------------------------------------------------

def encode_reg_delta(start_regs: Sequence, end_regs: Sequence) -> list:
    """Sparse ``[[index, value], ...]`` delta between two register
    files of equal length (typically a handful of entries per
    interval against the 128-register file)."""
    if len(start_regs) != len(end_regs):
        raise ValueError(f"register files differ in length: "
                         f"{len(start_regs)} vs {len(end_regs)}")
    return [[i, end_regs[i]] for i in range(len(start_regs))
            if start_regs[i] != end_regs[i]
            or type(start_regs[i]) is not type(end_regs[i])]


def decode_reg_delta(start_regs: Sequence, delta: list) -> list:
    """Apply an :func:`encode_reg_delta` delta; returns the end
    register file as a new list."""
    regs = list(start_regs)
    for index, value in delta:
        regs[index] = value
    return regs


def _encode_store_raw(size: int, value, fp: bool) -> bytes:
    """The exact bytes :meth:`FlatMemory.store` would write — encoding
    is deterministic, so replay can pre-compute it once per decoded
    trace instead of once per store per composition."""
    if fp:
        return struct.pack("<d", float(value))
    return (int(value) & ((1 << (size * 8)) - 1)).to_bytes(size, "little")


class FFInterval:
    """One decoded fast-forward interval: columnar per-block arrays
    plus the boundary register delta."""

    __slots__ = ("start", "addrs", "exits", "nexts", "branch_ops",
                 "insts", "loads", "load_addrs", "stores", "stores_raw",
                 "reg_delta", "finished")

    def __init__(self, start, addrs, exits, nexts, branch_ops, insts,
                 loads, load_addrs, stores, reg_delta, finished,
                 stores_raw=None):
        self.start = start
        self.addrs = addrs
        self.exits = exits
        self.nexts = nexts
        self.branch_ops = branch_ops      # op string per block
        self.insts = insts
        self.loads = loads                # functional load count per block
        self.load_addrs = load_addrs      # D-cache load addresses per block
        self.stores = stores              # [(0, addr, size, value, fp), ...]
        # Pre-encoded [(addr, raw_bytes), ...] per block: what the
        # replay loop actually writes to memory.
        self.stores_raw = stores_raw if stores_raw is not None else [
            [(s[1], _encode_store_raw(s[2], s[3], s[4])) for s in blk]
            for blk in stores]
        self.reg_delta = reg_delta        # [[index, value], ...] at the end
        self.finished = finished

    def __len__(self) -> int:
        return len(self.addrs)


class FFTrace:
    """One decoded trace: metadata plus ordered intervals."""

    __slots__ = ("bench", "scale", "sampling", "program", "intervals")

    def __init__(self, bench, scale, sampling, program, intervals):
        self.bench = bench
        self.scale = scale
        self.sampling = sampling
        self.program = program
        self.intervals = intervals

    def blocks(self) -> int:
        return sum(len(iv) for iv in self.intervals)


class ReplayOutcome:
    """Mutable stand-in for :class:`~repro.isa.interp.BlockOutcome`
    carrying exactly the fields the shadow warm-up reads; one instance
    is reused across a whole replayed interval."""

    __slots__ = ("exit_id", "next_addr", "branch_op", "stores")

    def __init__(self):
        self.exit_id = 0
        self.next_addr = 0
        self.branch_op = None
        self.stores = ()


def _encode_interval(interval: dict, op_index: dict, ops: list) -> dict:
    """Flatten one recorded interval into the JSON wire form: branch
    opcodes interned into a shared table, stores flattened to
    ``[addr, size, value, fp01] * n`` quads."""
    brix = []
    for op in interval["branch_ops"]:
        index = op_index.get(op)
        if index is None:
            index = op_index[op] = len(ops)
            ops.append(op)
        brix.append(index)
    flat_stores = []
    for block_stores in interval["stores"]:
        flat = []
        for __lsq, addr, size, value, fp in block_stores:
            flat.extend((addr, size, value, 1 if fp else 0))
        flat_stores.append(flat)
    return {
        "start": interval["start"],
        "addrs": interval["addrs"],
        "exits": interval["exits"],
        "nexts": interval["nexts"],
        "brix": brix,
        "insts": interval["insts"],
        "loads": interval["loads"],
        "la": interval["load_addrs"],
        "st": flat_stores,
        "regs": interval["reg_delta"],
        "finished": interval["finished"],
    }


def encode_trace(bench: str, scale: int, sampling: dict, program_fp: str,
                 intervals: list) -> dict:
    """The JSON-safe payload for one recorded trace."""
    ops: list = []
    op_index: dict = {}
    encoded = [_encode_interval(iv, op_index, ops) for iv in intervals]
    return {
        "schema": TRACE_SCHEMA,
        "bench": bench,
        "scale": scale,
        "sampling": dict(sorted(sampling.items())),
        "program": program_fp,
        "branch_ops": ops,
        "intervals": encoded,
    }


def decode_trace(payload: dict) -> FFTrace:
    """Rebuild an :class:`FFTrace` from :func:`encode_trace` output;
    raises ``ValueError`` on an unknown schema or malformed payload."""
    schema = payload.get("schema")
    if schema != TRACE_SCHEMA:
        raise ValueError(f"trace schema {schema!r} != {TRACE_SCHEMA}")
    ops = payload["branch_ops"]
    intervals = []
    for raw in payload["intervals"]:
        stores = []
        stores_raw = []
        for flat in raw["st"]:
            blk = []
            blk_raw = []
            for i in range(0, len(flat), 4):
                saddr, size, value = flat[i], flat[i + 1], flat[i + 2]
                fp = bool(flat[i + 3])
                blk.append((0, saddr, size, value, fp))
                blk_raw.append((saddr, _encode_store_raw(size, value, fp)))
            stores.append(blk)
            stores_raw.append(blk_raw)
        intervals.append(FFInterval(
            start=raw["start"], addrs=raw["addrs"], exits=raw["exits"],
            nexts=raw["nexts"],
            branch_ops=[ops[i] for i in raw["brix"]],
            insts=raw["insts"], loads=raw["loads"],
            load_addrs=raw["la"], stores=stores, stores_raw=stores_raw,
            reg_delta=raw["regs"], finished=raw["finished"]))
    return FFTrace(bench=payload["bench"], scale=payload["scale"],
                   sampling=payload["sampling"],
                   program=payload["program"], intervals=intervals)


# ----------------------------------------------------------------------
# Sessions (the engine's record/replay handles)
# ----------------------------------------------------------------------

class RecordSession:
    """Accumulates one run's fast-forward intervals; persisted once the
    run finishes cleanly from the program entry."""

    mode = "record"

    def __init__(self, key: str, store: FFTraceStore, spec,
                 program_fp: str) -> None:
        self.key = key
        self.store = store
        self.spec = spec
        self.program_fp = program_fp
        self.intervals: list = []
        self.abandoned = False
        self._cur: Optional[dict] = None
        self._start_regs: Optional[list] = None

    def begin_interval(self, index: int, addr: int, regs) -> None:
        if self.abandoned:
            return
        if index != len(self.intervals):
            # Intervals were skipped (recording began on a run that
            # had already fast-forwarded): a partial recording would
            # replay wrong, so stop here.
            self.abandoned = True
            self._cur = None
            return
        self._cur = {
            "start": addr, "addrs": [], "exits": [], "nexts": [],
            "branch_ops": [], "insts": [], "loads": [],
            "load_addrs": [], "stores": [],
            "reg_delta": [], "finished": False,
        }
        self._start_regs = list(regs)

    def record_block(self, addr: int, outcome, load_addrs) -> None:
        cur = self._cur
        if cur is None:
            return
        cur["addrs"].append(addr)
        cur["exits"].append(outcome.exit_id)
        cur["nexts"].append(outcome.next_addr)
        cur["branch_ops"].append(outcome.branch_op)
        cur["insts"].append(outcome.insts_fired)
        cur["loads"].append(outcome.loads)
        cur["load_addrs"].append(list(load_addrs))
        cur["stores"].append(list(outcome.stores))

    def end_interval(self, regs, finished: bool) -> None:
        cur = self._cur
        if cur is None:
            return
        cur["reg_delta"] = encode_reg_delta(self._start_regs, regs)
        cur["finished"] = finished
        self.intervals.append(cur)
        self._cur = None
        self._start_regs = None

    def finish(self, run) -> None:
        """Persist the trace if the run completed a clean recording."""
        if self.abandoned or not run.finished or not self.intervals:
            return
        payload = encode_trace(self.spec.bench, self.spec.scale,
                               self.spec.sampling_dict(), self.program_fp,
                               self.intervals)
        path = self.store.store(self.key, payload)
        _cache_parsed(self.key, decode_trace(payload))
        obs = obs_lib.current()
        if obs.active:
            sampling = self.spec.sampling_dict()
            obs.emit("trace.record", bench=self.spec.bench, key=self.key,
                     schedule=schedule_tag(sampling),
                     intervals=len(self.intervals),
                     blocks=sum(len(iv["addrs"]) for iv in self.intervals),
                     bytes=path.stat().st_size)
            obs.metrics.inc("sample.trace_records", bench=self.spec.bench,
                            schedule=schedule_tag(sampling))


class ReplaySession:
    """Hands decoded intervals to the engine, falling back to live
    interpretation permanently on any alignment mismatch."""

    mode = "replay"

    def __init__(self, key: str, trace: FFTrace, spec) -> None:
        self.key = key
        self.trace = trace
        self.spec = spec
        self.live = False
        self.replayed = 0

    def interval_for(self, index: int, addr: int) -> Optional[FFInterval]:
        """The recorded interval the engine should replay next, or
        ``None`` (= interpret live) after any mismatch."""
        if self.live:
            return None
        intervals = self.trace.intervals
        interval = intervals[index] if 0 <= index < len(intervals) else None
        if interval is None or interval.start != addr:
            self.live = True
            obs = obs_lib.current()
            if obs.active:
                obs.emit("trace.mismatch", bench=self.spec.bench,
                         key=self.key, interval=index, resumed_at=addr,
                         recorded_start=(interval.start
                                         if interval is not None else None))
                obs.metrics.inc("sample.trace_mismatches",
                                bench=self.spec.bench)
            return None
        self.replayed += 1
        return interval

    def finish(self, run) -> None:
        obs = obs_lib.current()
        if obs.active:
            sampling = self.spec.sampling_dict()
            obs.emit("trace.replay", bench=self.spec.bench, key=self.key,
                     schedule=schedule_tag(sampling),
                     intervals=self.replayed, fell_back=self.live)
            obs.metrics.inc("sample.trace_replays", bench=self.spec.bench,
                            schedule=schedule_tag(sampling))


def _cache_parsed(key: str, trace: FFTrace) -> None:
    while len(_PARSED) >= _PARSED_CAP:
        _PARSED.pop(next(iter(_PARSED)))
    _PARSED[key] = trace


def open_trace_session(spec, store: Optional[FFTraceStore] = None):
    """The record-or-replay session for one sampled run, or ``None``
    when tracing is off or does not apply to the spec."""
    if store is None and not trace_enabled():
        return None
    key = trace_key(spec)
    if key is None:
        return None
    if store is None:
        store = FFTraceStore()
    trace = _PARSED.get(key)
    if trace is None:
        payload = store.load(key)
        if payload is not None:
            try:
                trace = decode_trace(payload)
            except (ValueError, KeyError, TypeError, IndexError):
                trace = None
        if trace is not None:
            _cache_parsed(key, trace)
    if trace is not None:
        return ReplaySession(key, trace, spec)
    from repro.harness.runner import cached_program

    program, __, __ = cached_program("edge", spec.bench, spec.scale)
    return RecordSession(key, store, spec, program_fingerprint(program))


def prewarm_partition(specs: Sequence) -> tuple[list, list]:
    """Split a cold batch into ``(recorders, rest)`` so a parallel
    fan-out interprets each fast-forward trajectory exactly once.

    One spec per trace group whose trace is not yet on disk goes into
    ``recorders`` (run first, in parallel across groups); everything
    else — ineligible specs, singleton groups, groups already traced —
    goes into ``rest`` and replays.  With tracing disabled the batch
    passes through untouched.
    """
    specs = list(specs)
    if not trace_enabled():
        return [], specs
    groups: dict[tuple, list] = {}
    order: list = []                     # (kind, payload) preserving input
    for spec in specs:
        group = trace_group(spec)
        if group is None:
            order.append(("spec", spec))
            continue
        members = groups.get(group)
        if members is None:
            members = groups[group] = []
            order.append(("group", group))
        members.append(spec)
    recorders: list = []
    rest: list = []
    store = None
    for kind, payload in order:
        if kind == "spec":
            rest.append(payload)
            continue
        members = groups[payload]
        if len(members) == 1:
            rest.extend(members)
            continue
        if store is None:
            store = FFTraceStore()
        key = trace_key(members[0])
        if key is not None and (key in _PARSED or store.contains(key)):
            rest.extend(members)
        else:
            recorders.append(members[0])
            rest.extend(members[1:])
    return recorders, rest
