"""Sampled simulation: interpreter fast-forward + detailed windows.

A sampled run executes the program's full dynamic block stream exactly
once, alternating two regimes:

* **Detailed windows** run on a real :class:`TFlexSystem` with the
  architectural state (registers, memory) and warm microarchitectural
  state (predictor, RAS, I/D caches, L2) injected at entry.  Each
  window commits ``warmup_blocks`` blocks unmeasured, then measures
  IPC over ``window_blocks`` committed blocks, then halts through the
  processor's ``commit_limit``.

* **Fast-forward intervals** execute ``ff_blocks`` blocks on the
  golden-model interpreter, warming the :class:`ShadowUarch` per
  committed block.

Because both regimes execute every block architecturally (windows
commit exactly; fast-forward *is* the golden model) the final memory
image is exact — only the cycle count is estimated, so the standard
``verify_edge_run`` check stays on for sampled runs.  The cycle
estimate pools the measured windows (SMARTS-style ratio estimator):
``cycles = total_insts / pooled_IPC``; the per-window IPC spread is
reported as a relative-error estimate in ``RunResult.sampling``.

The first window starts at the program entry with cold structures, so
a program shorter than ``warmup + window`` blocks never fast-forwards
and the result is bit-identical to an unsampled run (the ``exact``
flag in ``RunResult.sampling``).

Fidelity caveats, all timing-only: ``loads_executed`` counts functional
loads during fast-forward but executed loads (including replays) inside
windows; microarchitectural event counters (fetches, squashes, energy
events, DRAM requests) are measured in the windows and scaled by
committed-instruction coverage.  TRIPS-baseline specs are not sampled —
the runner falls back to full detail for them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import repro.obs as obs_lib
from repro.isa.interp import Interpreter
from repro.isa.program import HALT_ADDR
from repro.sample.config import SamplingConfig
from repro.sample.shadow import RecordingMemory, ShadowUarch, rebuild_directory
from repro.tflex import TFlexSystem
from repro.tflex.placement import rectangle
from repro.tflex.stats import LatencyBreakdown, ProcStats

#: Cycle budget per detailed window (matches the full-detail runner).
MAX_WINDOW_CYCLES = 30_000_000

#: ProcStats fields measured only inside windows, extrapolated by
#: committed-instruction coverage.
_SCALED_FIELDS = (
    "insts_fetched", "blocks_fetched", "blocks_squashed", "mispredictions",
    "violations", "replays", "nacks", "predictions", "predictions_correct",
    "inflight_integral",
)


@dataclass
class _Window:
    """One detailed window's raw yield."""

    stats: ProcStats
    dram_requests: int
    measured_insts: Optional[int]
    measured_cycles: Optional[int]
    #: True when the program halted inside this window (its measured
    #: interval then spans the whole window, drain included).
    terminal: bool = False
    #: True when the program halted before the warm-up mark, so the
    #: measured interval is the whole (ramp-and-drain) tail: exact for
    #: its own stratum but never representative of steady-state gaps.
    tail: bool = False


class SampledRun:
    """Driver for one sampled simulation; see the module docstring.

    ``step()`` advances one window plus the following fast-forward
    interval; ``run()`` drives to completion and builds the
    extrapolated :class:`~repro.harness.runner.RunResult`.
    """

    def __init__(self, spec, sampling: Optional[SamplingConfig] = None,
                 trace=None) -> None:
        from repro.harness.runner import build_edge_config, cached_program

        if spec.kind != "edge":
            raise ValueError(f"sampling only supports edge specs, not {spec.kind!r}")
        if spec.trips:
            raise ValueError("TRIPS-baseline specs are not sampled")
        if sampling is None:
            sampling = SamplingConfig.from_dict(spec.sampling_dict()) \
                or SamplingConfig()
        sampling.validate()
        self.spec = spec
        self.sampling = sampling
        self.cfg, self.ncores = build_edge_config(spec)
        self.program, self.expected, self.kernel = \
            cached_program("edge", spec.bench, spec.scale)
        self.mem = RecordingMemory()
        self.interp = Interpreter(self.program, memory=self.mem)
        self.shadow = ShadowUarch(self.cfg, self.ncores)
        self.addr = self.program.address_of(self.program.entry)
        self.ghist = 0
        # Functional progress (exact): committed blocks/insts/loads/stores.
        self.blocks = 0
        self.insts = 0
        self.loads = 0
        self.stores = 0
        self.windows: list[_Window] = []
        # Dependence-violation history carried between windows: entries
        # accumulate monotonically in a real run and keep re-executions
        # of a violating load deferred, so a fresh set per window would
        # bias windows fast.
        self.dependence: set[tuple[str, int]] = set()
        self.finished = False
        self.obs = obs_lib.current()
        #: Shared fast-forward trace session (repro.sample.trace):
        #: a RecordSession captures this run's intervals, a
        #: ReplaySession substitutes recorded intervals for live
        #: interpretation.  None = plain live fast-forward.
        self.trace = trace

    # ------------------------------------------------------------------
    # Driving
    # ------------------------------------------------------------------

    def step(self) -> bool:
        """One detailed window, then one fast-forward interval.

        Returns True while the program has more blocks to execute."""
        if self.finished:
            return False
        self._window()
        if not self.finished:
            self._fast_forward(self.sampling.ff_blocks)
        return not self.finished

    def run(self):
        """Drive to completion and return the extrapolated RunResult."""
        while self.step():
            pass
        return self.result()

    # ------------------------------------------------------------------
    # Detailed windows
    # ------------------------------------------------------------------

    def _window(self) -> None:
        sampling = self.sampling
        system = TFlexSystem(self.cfg)
        proc = system.compose(rectangle(self.cfg, self.ncores), self.program,
                              name=self.spec.bench)

        # Architectural injection: share the interpreter's memory (the
        # window commits into it) and copy registers in place (the
        # regfile banks alias ``proc.regs``).
        proc.memory = self.mem
        proc.regs[:] = self.interp.regs
        proc.dependence_set |= self.dependence
        self._inject(system, proc)

        # The first window starts from the true initial state (a cold
        # machine IS the real machine at the program entry), so its
        # ramp-up is representative and is measured from cycle zero.
        # Later windows run on injected state and need the warm-up
        # blocks to heal the injection error before the mark.
        warmup = sampling.warmup_blocks if self.blocks else 0
        proc.commit_limit = warmup + sampling.window_blocks
        if warmup > 0:
            proc.measure_after = warmup
        else:
            proc.measure_mark = (system.queue.now, 0)
        proc.start(self.addr, self.ghist)
        system.run(max_cycles=MAX_WINDOW_CYCLES)

        stats = proc.stats
        end_cycle = proc.start_cycle + stats.cycles
        finished = (proc.last_commit_next is None
                    or proc.last_commit_next == HALT_ADDR)
        measured_insts = measured_cycles = None
        tail = False
        if proc.measure_mark is not None:
            mark_cycle, mark_insts = proc.measure_mark
            insts = stats.insts_committed - mark_insts
            cycles = end_cycle - mark_cycle
            if insts > 0 and cycles > 0:
                measured_insts, measured_cycles = insts, cycles
        elif finished and stats.insts_committed > 0 and stats.cycles > 0:
            # The program ended before the warm-up mark: the whole
            # interval is the best measurement of these final blocks
            # (drain included) — better than extrapolating them at a
            # steady-state IPC they never reach.
            measured_insts = stats.insts_committed
            measured_cycles = stats.cycles
            tail = True
        self.windows.append(_Window(stats, system.dram.stats.requests,
                                    measured_insts, measured_cycles,
                                    terminal=finished, tail=tail))
        self.blocks += stats.blocks_committed
        self.insts += stats.insts_committed
        self.loads += stats.loads_executed
        self.stores += stats.stores_committed

        if self.obs.active:
            self.obs.emit("sample.window", bench=self.spec.bench,
                          index=len(self.windows) - 1,
                          blocks=stats.blocks_committed, cycles=stats.cycles,
                          measured_insts=measured_insts,
                          measured_cycles=measured_cycles)
            self.obs.metrics.inc("sample.windows", bench=self.spec.bench)
            self.obs.metrics.inc("sample.window_blocks",
                                 stats.blocks_committed, bench=self.spec.bench)

        self.dependence = set(proc.dependence_set)
        if finished:
            self.finished = True
            return
        self.addr = proc.last_commit_next
        self.ghist = proc.last_commit_ghist
        self._absorb(system, proc)

    def _swap_state(self, system: TFlexSystem, proc) -> None:
        """Exchange warm state between the shadow and a window system.

        Each window runs on a fresh ``TFlexSystem`` that is discarded
        after :meth:`_absorb`, and the shadow is idle while the window
        runs — so moving state by O(1) reference swaps is observably a
        copy in both directions.  Every warm structure (predictor
        banks, RAS, I/D-cache banks, L2 banks) exposes the same
        ``swap_state``."""
        shadow = self.shadow
        for i, bank in enumerate(shadow.pred_banks):
            system.cores[proc.core_of_index(i)].predictor.swap_state(bank)
        proc.ras.swap_state(shadow.ras)
        for i in range(self.ncores):
            system.cores[proc.core_of_index(i)].icache.swap_state(
                shadow.icaches[i])
        for b in range(shadow.num_dbanks):
            system.cores[proc.dbank_core(b)].dcache.swap_state(
                shadow.dcaches[b])
        for l2_bank, shadow_bank in zip(system.l2.banks, shadow.l2.banks):
            l2_bank.swap_state(shadow_bank)

    def _inject(self, system: TFlexSystem, proc) -> None:
        """Move the shadow's warm state into the real structures."""
        self._swap_state(system, proc)
        rebuild_directory(system.l2, self._l1_by_global_core(system, proc))

    def _absorb(self, system: TFlexSystem, proc) -> None:
        """Move the window's final state back into the shadow (and the
        interpreter's registers) so fast-forward continues from it."""
        self.interp.regs[:] = proc.regs
        self._swap_state(system, proc)
        self.shadow.rebuild_directory()

    def _l1_by_global_core(self, system: TFlexSystem, proc) -> dict:
        l1_by_core: dict[int, list] = {}
        for i in range(self.ncores):
            core_id = proc.core_of_index(i)
            l1_by_core.setdefault(core_id, []).append(
                system.cores[core_id].icache)
        for b in range(self.shadow.num_dbanks):
            core_id = proc.dbank_core(b)
            l1_by_core.setdefault(core_id, []).append(
                system.cores[core_id].dcache)
        return l1_by_core

    # ------------------------------------------------------------------
    # Fast-forward
    # ------------------------------------------------------------------

    def _fast_forward(self, n_blocks: int) -> None:
        trace = self.trace
        if trace is not None and trace.mode == "replay":
            # Intervals are indexed by position: the loop alternates
            # window -> fast-forward, so the interval after window k is
            # interval k.
            interval = trace.interval_for(len(self.windows) - 1, self.addr)
            if interval is not None:
                profiler = self.obs.profiler
                if profiler.enabled:
                    with profiler.phase("sample.ff_replay"):
                        executed = self._replay_interval(interval)
                else:
                    executed = self._replay_interval(interval)
                if self.obs.active:
                    self.obs.emit("sample.ff_replayed", bench=self.spec.bench,
                                  blocks=executed, resumed_at=self.addr,
                                  finished=self.finished)
                    self.obs.metrics.inc("sample.ff_replayed",
                                         bench=self.spec.bench)
                    self.obs.metrics.inc("sample.ff_replayed_blocks",
                                         executed, bench=self.spec.bench)
                return
        profiler = self.obs.profiler
        if profiler.enabled:
            with profiler.phase("sample.ff"):
                executed = self._ff_loop(n_blocks)
        else:
            executed = self._ff_loop(n_blocks)
        if self.obs.active:
            self.obs.emit("sample.ff", bench=self.spec.bench, blocks=executed,
                          resumed_at=self.addr, finished=self.finished)
            self.obs.metrics.inc("sample.ff", bench=self.spec.bench)
            self.obs.metrics.inc("sample.ff_blocks", executed,
                                 bench=self.spec.bench)

    def _ff_loop(self, n_blocks: int) -> int:
        interp = self.interp
        mem = self.mem
        shadow = self.shadow
        program = self.program
        addr = self.addr
        ghist = self.ghist
        executed = 0
        rec = self.trace if (self.trace is not None
                             and self.trace.mode == "record") else None
        if rec is not None:
            rec.begin_interval(len(self.windows) - 1, addr, interp.regs)
        for __ in range(n_blocks):
            block = program.block_at(addr)
            mem.load_addrs.clear()
            mem.recording = True
            outcome = interp.execute_block(block)
            mem.recording = False
            interp.commit(outcome)
            ghist = shadow.observe(block, addr, ghist, outcome, mem.load_addrs)
            if rec is not None:
                rec.record_block(addr, outcome, mem.load_addrs)
            self.blocks += 1
            self.insts += outcome.insts_fired
            self.loads += outcome.loads
            self.stores += len(outcome.stores)
            executed += 1
            addr = outcome.next_addr
            if addr == HALT_ADDR:
                self.finished = True
                break
        self.addr = addr
        self.ghist = ghist
        if rec is not None:
            rec.end_interval(interp.regs, self.finished)
        return executed

    def _replay_interval(self, interval) -> int:
        """Re-apply one recorded fast-forward interval: stores land on
        memory in commit order, recorded outcomes warm this
        composition's shadow structures, and the boundary register
        delta replaces per-block write application — functionally
        identical to :meth:`_ff_loop` without interpreting a single
        instruction."""
        from repro.mem.flatmem import PAGE_MASK, PAGE_SIZE
        from repro.sample.trace import ReplayOutcome

        mem = self.mem
        shadow = self.shadow
        program = self.program
        ghist = self.ghist
        addrs = interval.addrs
        exits = interval.exits
        nexts = interval.nexts
        branch_ops = interval.branch_ops
        insts = interval.insts
        loads = interval.loads
        load_addrs = interval.load_addrs
        stores = interval.stores
        stores_raw = interval.stores_raw
        outcome = ReplayOutcome()
        pages = mem._pages
        write_bytes = mem.write_bytes
        observe = shadow.observe
        block_at = program.block_at
        for i in range(len(addrs)):
            addr = addrs[i]
            block = block_at(addr)
            block_stores = stores[i]
            # Stores were pre-encoded to raw bytes at trace decode
            # (byte-identical to ``FlatMemory.store``); land them with
            # direct page writes, falling back to the generic path only
            # for the rare page-straddling store.
            for saddr, raw in stores_raw[i]:
                off = saddr & PAGE_MASK
                end = off + len(raw)
                if end <= PAGE_SIZE:
                    number = saddr >> 12
                    page = pages.get(number)
                    if page is None:
                        page = pages[number] = bytearray(PAGE_SIZE)
                    page[off:end] = raw
                else:
                    write_bytes(saddr, raw)
            outcome.exit_id = exits[i]
            outcome.next_addr = nexts[i]
            outcome.branch_op = branch_ops[i]
            outcome.stores = block_stores
            ghist = observe(block, addr, ghist, outcome, load_addrs[i])
            self.insts += insts[i]
            self.loads += loads[i]
            self.stores += len(block_stores)
        executed = len(addrs)
        self.blocks += executed
        self.ghist = ghist
        regs = self.interp.regs
        for index, value in interval.reg_delta:
            regs[index] = value
        self.addr = nexts[-1] if executed else self.addr
        if interval.finished:
            self.finished = True
        return executed

    # ------------------------------------------------------------------
    # Extrapolation
    # ------------------------------------------------------------------

    def result(self):
        """Extrapolate the measured windows into a full RunResult."""
        from repro.harness.runner import RunResult
        from repro.power import EnergyModel
        from repro.workloads import verify_edge_run

        if not self.finished:
            raise RuntimeError("sampled run has not finished")
        if self.spec.verify:
            verify_edge_run(self.kernel, self.mem, self.expected)

        window_insts = sum(w.stats.insts_committed for w in self.windows)
        total_insts = self.insts
        exact = window_insts == total_insts
        measures = [(w.measured_insts, w.measured_cycles)
                    for w in self.windows if w.measured_insts]

        if exact:
            # The whole program fit in the detailed windows: no
            # extrapolation, bit-identical to a full-detail run.
            cycles = sum(w.stats.cycles for w in self.windows)
            factor = 1.0
            ipc_estimate = total_insts / cycles if cycles else 0.0
            rel_stddev: Optional[float] = 0.0
        else:
            if not measures:
                raise RuntimeError(
                    "sampled run fast-forwarded but measured no windows")
            # Stratified estimator: each measured interval covers its
            # committed instructions exactly (the first window from the
            # true cold start, later ones after warm-up), so those
            # cycles stand as-is.  Only the unmeasured instructions —
            # fast-forward gaps plus warm-up blocks — are extrapolated,
            # at the pooled IPC of the warmed windows alone: the cold
            # first window is real but unrepresentative of the
            # steady-state gaps it would otherwise be pooled with.
            measured_insts = sum(m for m, __ in measures)
            measured_cycles = sum(c for __, c in measures)
            # The cold first window and a ramp-and-drain tail are
            # measured exactly but are unrepresentative of the
            # steady-state gaps, so they stay out of the gap estimator
            # when any warmed window exists.
            steady = [(w.measured_insts, w.measured_cycles)
                      for w in self.windows[1:]
                      if w.measured_insts and not w.tail]
            steady = steady or measures
            steady_ipc = (sum(m for m, __ in steady)
                          / sum(c for __, c in steady))
            unmeasured_insts = total_insts - measured_insts
            cycles = max(1, measured_cycles
                         + round(unmeasured_insts / steady_ipc))
            ipc_estimate = total_insts / cycles
            factor = total_insts / window_insts
            ipcs = [m / c for m, c in steady]
            if len(ipcs) >= 2:
                mean = sum(ipcs) / len(ipcs)
                var = sum((x - mean) ** 2 for x in ipcs) / len(ipcs)
                rel_stddev = math.sqrt(var) / mean if mean else None
            else:
                rel_stddev = None

        merged = ProcStats()
        merged.cycles = cycles
        merged.blocks_committed = self.blocks
        merged.insts_committed = total_insts
        merged.loads_executed = self.loads
        merged.stores_committed = self.stores
        for name in _SCALED_FIELDS:
            setattr(merged, name, round(
                sum(getattr(w.stats, name) for w in self.windows) * factor))
        merged.fetch_latency = self._merge_breakdowns(
            (w.stats.fetch_latency for w in self.windows), factor)
        merged.commit_latency = self._merge_breakdowns(
            (w.stats.commit_latency for w in self.windows), factor)
        for window in self.windows:
            merged.energy_events.update(window.stats.energy_events)
        if factor != 1.0:
            for event in merged.energy_events:
                merged.energy_events[event] = round(
                    merged.energy_events[event] * factor)
        dram_requests = round(
            sum(w.dram_requests for w in self.windows) * factor)

        power = EnergyModel().breakdown(
            merged.energy_events, merged.cycles, self.ncores,
            dram_requests=dram_requests)

        sampling_info = {
            "config": self.sampling.to_dict(),
            "exact": exact,
            "windows": len(self.windows),
            "measured_windows": len(measures),
            "total_insts": total_insts,
            "window_insts": window_insts,
            "ipc_estimate": ipc_estimate,
            "ipc_rel_stddev": rel_stddev,
        }
        return RunResult(
            bench=self.spec.bench, label=self.spec.label(),
            num_cores=self.ncores, cycles=cycles,
            insts_committed=total_insts, stats=merged, power=power,
            dram_requests=dram_requests, sampling=sampling_info)

    @staticmethod
    def _merge_breakdowns(breakdowns, factor: float) -> LatencyBreakdown:
        merged = LatencyBreakdown()
        for breakdown in breakdowns:
            merged.samples += breakdown.samples
            merged.components.update(breakdown.components)
        if factor != 1.0:
            merged.samples = round(merged.samples * factor)
            for name in merged.components:
                merged.components[name] = round(
                    merged.components[name] * factor)
        return merged


def run_sampled(spec):
    """Execute one edge job spec with sampling; returns a RunResult.

    With fast-forward tracing enabled (the default — see
    :mod:`repro.sample.trace`), the first run of a
    ``(program, scale, schedule)`` records its fast-forward intervals
    into the trace store and every later composition replays them; the
    result is bit-identical either way.
    """
    from repro.sample.trace import open_trace_session

    session = open_trace_session(spec)
    run = SampledRun(spec, trace=session)
    result = run.run()
    if session is not None:
        session.finish(run)
    return result
