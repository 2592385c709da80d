"""Lightweight shadow microarchitecture warmed during fast-forward.

While the interpreter fast-forwards between detailed windows, the
long-lived microarchitectural structures — predictor tables, RAS,
I-caches, D-cache banks, and the shared L2 — must keep learning, or
every window would start from a cold machine and bias the sampled IPC
low.  :class:`ShadowUarch` is a functional twin of those structures: it
reuses the *same* classes the cycle simulator uses (``PredictorBank``,
``CacheBank``, ``L2System``) and the same interleaving hash functions
(:mod:`repro.tflex.interleave`), driven once per committed block in
program order, ignoring all timing results.

State moves between the shadow and a real :class:`TFlexSystem` through
each structure's O(1) ``swap_state`` (the engine's
:meth:`~repro.sample.engine.SampledRun._swap_state`); the L2 directory
is rebuilt from L1 contents on every transfer (the directory's
invariant is "entry == some L1 holds the line", so it is derived
state).

Fidelity notes: the shadow trains the predictor strictly in commit
order, so wrong-path pollution from deep speculation is not modelled;
caches track presence/MSI only (as in the simulator), so this warms
*timing* state and cannot perturb architectural results.
"""

from __future__ import annotations

from repro.isa.program import BLOCK_STRIDE
from repro.mem.cache import CacheBank, LineState
from repro.mem.dram import Dram
from repro.mem.flatmem import FlatMemory
from repro.mem.l2 import L2System
from repro.noc import Topology
from repro.predictor import DistributedRas, PredictorBank
from repro.predictor.exits import GLOBAL_HISTORY_EXITS, push_history
from repro.predictor.targets import BranchKind
from repro.tflex import interleave
from repro.tflex.config import SystemConfig


class RecordingMemory(FlatMemory):
    """Flat memory that can log load addresses for cache warming.

    Recording is switched on only around fast-forward block execution;
    detailed windows share the same memory object with recording off,
    so the cycle simulator's own cache model is undisturbed.  Loads
    satisfied by in-block store forwarding never reach :meth:`load`,
    matching the LSQ-forward path that bypasses the D-cache.
    """

    def __init__(self) -> None:
        super().__init__()
        self.recording = False
        self.load_addrs: list[int] = []

    def load(self, addr: int, size: int, fp: bool = False):
        if self.recording:
            self.load_addrs.append(addr)
        return super().load(addr, size, fp=fp)


def rebuild_directory(l2: L2System, l1_by_core: dict) -> None:
    """Derive the L2 directory from L1 contents after a state transfer.

    ``l1_by_core`` maps a core ID (global for the real system,
    participating index for the shadow) to the L1 banks resident on
    that core.  A MODIFIED line makes the core its owner; anything else
    a sharer — exactly the invariant the live protocol maintains.
    """
    l2.directory.clear()
    for core_id, banks in l1_by_core.items():
        for bank in banks:
            for line in bank.iter_lines():
                entry = l2._dir_entry(line.ctx, line.line_addr)
                if line.state is LineState.MODIFIED:
                    entry.owner = core_id
                else:
                    entry.sharers.add(core_id)


class ShadowUarch:
    """Functional twins of a composition's warm structures.

    Everything is indexed by *participating core index* (0..ncores-1);
    the engine maps to global core IDs when moving state to/from a real
    system.
    """

    def __init__(self, cfg: SystemConfig, ncores: int, ctx: int = 0) -> None:
        self.cfg = cfg
        self.ncores = ncores
        self.ctx = ctx
        self.line_size = cfg.line_size
        core = cfg.core

        max_inflight = cfg.max_inflight if cfg.max_inflight is not None else ncores
        self.speculative = max(1, max_inflight) > 1

        num_pred = 1 if cfg.centralized_predictor else ncores
        self.pred_banks = [
            PredictorBank(
                local_l1=core.local_l1, local_l2=core.local_l2,
                global_entries=core.global_entries,
                choice_entries=core.choice_entries,
                btype_entries=core.btype_entries, btb_entries=core.btb_entries,
                ctb_entries=core.ctb_entries, latency=core.predictor_latency)
            for __ in range(num_pred)
        ]
        self.ras = DistributedRas(num_pred, core.ras_entries)

        self.icaches = [
            CacheBank(core.icache_bytes, core.icache_assoc, cfg.line_size,
                      name=f"shadow.i{i}")
            for i in range(ncores)
        ]
        self.num_dbanks = interleave.num_dbanks_of(ncores, cfg.dcache_banks)
        self.dcaches = [
            CacheBank(core.dcache_bytes, core.dcache_assoc, cfg.line_size,
                      name=f"shadow.d{b}")
            for b in range(self.num_dbanks)
        ]
        self._dbank_core = [
            interleave.dbank_core_index(b, ncores, self.num_dbanks)
            for b in range(self.num_dbanks)
        ]
        dmap = {core_index: self.dcaches[b]
                for b, core_index in enumerate(self._dbank_core)}
        self.l2 = L2System(
            Topology(cfg.mesh_width, cfg.mesh_height), num_banks=cfg.l2_banks,
            bank_bytes=cfg.l2_bank_bytes, assoc=cfg.l2_assoc,
            line_size=cfg.line_size, tag_latency=cfg.l2_tag_latency,
            l1_banks=dmap.get, dram=Dram())

        # Participating core index -> L1 banks there (directory rebuilds).
        self._l1_by_core: dict[int, list[CacheBank]] = {
            i: [self.icaches[i]] for i in range(ncores)}
        for b, core_index in enumerate(self._dbank_core):
            self._l1_by_core[core_index].append(self.dcaches[b])

        # Block size -> ((core_index, icache_lines), ...), the per-core
        # I-cache footprint (depends only on size and the composition).
        self._ic_lines: dict[int, tuple] = {}
        # Block size -> ((core_index, byte_offset), ...), the same
        # footprint flattened to one pair per touched line for the
        # ``observe`` hot loop.
        self._ic_flat: dict[int, tuple] = {}

    # ------------------------------------------------------------------
    # Warming
    # ------------------------------------------------------------------

    def _icache_footprint(self, size: int) -> tuple:
        cached = self._ic_lines.get(size)
        if cached is None:
            ncores = self.ncores
            line = self.line_size
            cached = tuple(
                (i, max(1, -(-chunk * 4 // line)))
                for i in range(ncores)
                if (chunk := (size - i + ncores - 1) // ncores) > 0)
            self._ic_lines[size] = cached
        return cached

    def _icache_flat(self, size: int) -> tuple:
        cached = self._ic_flat.get(size)
        if cached is None:
            line = self.line_size
            cached = tuple(
                (core_index, line_no * line)
                for core_index, lines in self._icache_footprint(size)
                for line_no in range(lines))
            self._ic_flat[size] = cached
        return cached

    def observe(self, block, addr: int, ghist: int, outcome,
                load_addrs: list[int]) -> int:
        """Warm all structures with one committed block; returns the
        global exit history after the block."""
        ctx = self.ctx
        actual_exit = outcome.exit_id
        actual_next = outcome.next_addr

        # Next-block predictor: the fused commit-order step — identical
        # table/RAS state to predict, repair-on-wrong-path (the same
        # sequence as ``ProtocolMixin._mispredict``), then train.
        if self.speculative:
            owner = 0 if self.cfg.centralized_predictor \
                else (addr // BLOCK_STRIDE) % self.ncores
            next_ghist = self.pred_banks[owner].observe_commit(
                addr, ghist, self.ras, actual_exit,
                BranchKind.of_opcode(outcome.branch_op), actual_next)
        else:
            next_ghist = push_history(ghist, actual_exit, GLOBAL_HISTORY_EXITS)

        # The cache loops below run once per committed block for the
        # whole fast-forward region — the hottest code in sampled
        # simulation.  The hit path is open-coded against CacheBank's
        # set layout (one hashed ``move_to_end`` doubling as lookup and
        # LRU touch, no per-access stats — nothing reads shadow stats,
        # and ``swap_state`` moves only resident state); misses
        # fall back to the exact protocol sequence ``CacheBank.access``
        # callers use, so warm state is bit-identical to the plain
        # path.
        l2 = self.l2
        line_size = self.line_size
        mask = ~(line_size - 1)
        modified = LineState.MODIFIED
        shared = LineState.SHARED
        num_dbanks = self.num_dbanks
        dcaches = self.dcaches
        dbank_core = self._dbank_core
        icaches = self.icaches

        # I-cache: each core's slice occupies its own lines keyed from
        # the block base address (per-core private footprint).
        for core_index, off in self._icache_flat(block.size):
            icache = icaches[core_index]
            la = (addr + off) & mask
            try:
                icache._sets[(la // line_size) % icache.num_sets] \
                    .move_to_end((ctx, la))
            except KeyError:
                l2.warm_read(ctx, la, core_index)
                icache.fill(ctx, la, shared)

        # D-cache: loads that went to memory (LSQ forwards never reach
        # the recording memory), then committed stores via the same
        # probe/upgrade/allocate sequence as the commit drain.  The
        # bank hash is ``interleave.dbank_of``, inlined.
        for laddr in load_addrs:
            line = laddr // line_size
            b = (line ^ (line >> 5) ^ (line >> 10)) % num_dbanks
            dcache = dcaches[b]
            la = laddr & mask
            try:
                dcache._sets[(la // line_size) % dcache.num_sets] \
                    .move_to_end((ctx, la))
            except KeyError:
                bank_core = dbank_core[b]
                l2.warm_read(ctx, la, bank_core)
                victim = dcache.fill(ctx, la, shared)
                if victim is not None:
                    l2.l1_evicted(victim.ctx, victim.line_addr, bank_core)
        for __lsq, saddr, __size, __value, __fp in outcome.stores:
            line = saddr // line_size
            b = (line ^ (line >> 5) ^ (line >> 10)) % num_dbanks
            dcache = dcaches[b]
            la = saddr & mask
            cache_set = dcache._sets[(la // line_size) % dcache.num_sets]
            line = cache_set.get((ctx, la))
            if line is not None and line.state is modified:
                cache_set.move_to_end((ctx, la))
                continue
            bank_core = dbank_core[b]
            l2.warm_write(ctx, la, bank_core)
            victim = dcache.fill(ctx, saddr, modified)
            if victim is not None:
                l2.l1_evicted(victim.ctx, victim.line_addr, bank_core)

        return next_ghist

    # ------------------------------------------------------------------
    # State transfer
    # ------------------------------------------------------------------

    def rebuild_directory(self) -> None:
        rebuild_directory(self.l2, self._l1_by_core)
