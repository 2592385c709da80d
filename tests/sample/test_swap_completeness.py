"""Swap completeness: ``swap_state`` moves *all* warm state.

The sampled engine moves warm state between the shadow and each
window's system only through the structures' ``swap_state``.  An
attribute a swap forgets would silently stay behind on the discarded
window system (or leak the window's state into the shadow), biasing
every later window without failing any result check.

For each warm structure, a trained instance is swapped with a fresh
same-geometry twin, and every instance attribute must fall into one of
these groups:

* exchanged — a mutable value moved by identity, or a scalar moved by
  value;
* a nested warm structure (it has ``swap_state``), checked recursively;
* ``stats``, which stays with its owner;
* immutable config that is equal in both instances and untouched.

Anything else — a new mutable attribute the swap does not move, stats
that travel, a warm scalar left behind — is reported.
"""

import enum

import pytest

from repro.isa.program import BLOCK_STRIDE
from repro.mem.cache import CacheBank, LineState
from repro.predictor import (
    BranchKind,
    DistributedRas,
    ExitPredictor,
    PredictorBank,
    TargetPredictor,
)
from repro.predictor.exits import push_history

BASE = 0x1_0000

_SCALARS = (bool, int, float, str, bytes, type(None), enum.Enum)


def _immutable(value) -> bool:
    if isinstance(value, (tuple, frozenset)):
        return all(_immutable(v) for v in value)
    return isinstance(value, _SCALARS)


def _warm(value) -> bool:
    return callable(getattr(value, "swap_state", None))


def _attrs(obj) -> dict:
    """name -> (value, nested snapshot for a warm structure or None)."""
    return {name: (value, _attrs(value) if _warm(value) else None)
            for name, value in vars(obj).items()}


def _unaccounted(a, b, before_a: dict, before_b: dict, where: str) -> list:
    problems = []
    after_a, after_b = vars(a), vars(b)
    for name in sorted(set(before_a) | set(before_b)
                       | set(after_a) | set(after_b)):
        label = f"{where}.{name}"
        if not all(name in d for d in (before_a, before_b, after_a, after_b)):
            problems.append(f"{label}: not present on both instances "
                            "before and after the swap")
            continue
        (old_a, nested_a), (old_b, nested_b) = before_a[name], before_b[name]
        new_a, new_b = after_a[name], after_b[name]
        stayed = new_a is old_a and new_b is old_b
        if name == "stats":
            if not stayed:
                problems.append(f"{label}: stats must stay with their owner")
        elif nested_a is not None and nested_b is not None and stayed:
            problems.extend(_unaccounted(new_a, new_b, nested_a, nested_b,
                                         label))
        elif _immutable(old_a) and _immutable(old_b):
            if not (new_a == old_b and new_b == old_a):
                problems.append(f"{label}: scalar neither exchanged nor "
                                "equal config")
        elif old_a is old_b or not (new_a is old_b and new_b is old_a):
            problems.append(f"{label}: mutable state not exchanged "
                            "by swap_state")
    return problems


def swap_violations(a, b) -> list:
    """Swap ``a`` with its twin ``b``; one message per attribute the
    swap did not account for (empty when the swap is complete)."""
    before_a, before_b = _attrs(a), _attrs(b)
    a.swap_state(b)
    return _unaccounted(a, b, before_a, before_b, type(a).__name__)


# ----------------------------------------------------------------------
# Training: leave every warm attribute (scalars included) different
# from a fresh twin, so a forgotten scalar cannot pass as equal config
# ----------------------------------------------------------------------


def _train_bank(bank: PredictorBank) -> None:
    ras = DistributedRas(num_cores=1)
    ghist = 0
    for i in range(40):
        addr = BASE + (i % 5) * BLOCK_STRIDE
        actual = i % 3
        kind = (BranchKind.CALL, BranchKind.BRANCH, BranchKind.RETURN)[i % 3]
        prediction = bank.predict(addr, ghist, ras)
        bank.repair(prediction, ras, actual_exit=actual)
        bank.update(prediction, actual, kind, addr + 7 * BLOCK_STRIDE)
        ghist = push_history(ghist, actual, 4)


def _train_exits(exits: ExitPredictor) -> None:
    ghist = 0
    for i in range(40):
        prediction = exits.predict(i % 5, ghist)
        exits.update(i % 5, prediction, i % 3)
        ghist = push_history(ghist, i % 3, 4)


def _train_targets(targets: TargetPredictor) -> None:
    for i, kind in enumerate((BranchKind.BRANCH, BranchKind.CALL,
                              BranchKind.RETURN) * 4):
        targets.update(BASE + i * BLOCK_STRIDE, i % 3, kind,
                       BASE + 9 * BLOCK_STRIDE)


def _train_ras(ras: DistributedRas) -> None:
    for value in (0x100, 0x200, 0x300):
        ras.push(value)


def _train_cache(bank: CacheBank) -> None:
    for i in range(6):
        bank.fill(0, 0x40 * (i + 1), LineState.MODIFIED if i % 2
                  else LineState.SHARED)
        bank.access(0, 0x40 * (i + 1))


#: Every warm structure the sampled engine swaps:
#: class -> (constructor kwargs, training).
WARM_STRUCTURES = {
    ExitPredictor: ({}, _train_exits),
    TargetPredictor: ({}, _train_targets),
    PredictorBank: ({}, _train_bank),
    DistributedRas: ({"num_cores": 2}, _train_ras),
    CacheBank: ({"size_bytes": 1024, "assoc": 2}, _train_cache),
}
CLASSES = pytest.mark.parametrize("cls", list(WARM_STRUCTURES),
                                  ids=lambda cls: cls.__name__)


class TestSwapCompleteness:
    @CLASSES
    def test_swap_accounts_for_every_attribute(self, cls):
        kwargs, train = WARM_STRUCTURES[cls]
        a, b = cls(**kwargs), cls(**kwargs)
        train(a)
        assert swap_violations(a, b) == []


class TestCheckerCatchesIncompleteSwaps:
    """Meta-tests: each fails if the completeness check is turned off."""

    @CLASSES
    def test_new_mutable_attribute_is_flagged(self, cls):
        kwargs, train = WARM_STRUCTURES[cls]

        class Leaky(cls):
            def __init__(self, **kw):
                super().__init__(**kw)
                self.recent = []      # warm state swap_state never moves

        a, b = Leaky(**kwargs), Leaky(**kwargs)
        train(a)
        assert swap_violations(a, b) == [
            "Leaky.recent: mutable state not exchanged by swap_state"]

    def test_nested_structure_is_checked_recursively(self):
        a, b = PredictorBank(), PredictorBank()
        _train_bank(a)
        for bank in (a, b):
            bank.targets.recent = []
        assert swap_violations(a, b) == [
            "PredictorBank.targets.recent: mutable state not exchanged "
            "by swap_state"]

    def test_forgotten_scalar_is_flagged(self):
        class HalfSwapRas(DistributedRas):
            def swap_state(self, other):
                self._stack, other._stack = other._stack, self._stack

        a, b = HalfSwapRas(2), HalfSwapRas(2)
        _train_ras(a)
        assert swap_violations(a, b) == [
            "HalfSwapRas._top: scalar neither exchanged nor equal config"]

    def test_travelling_stats_are_flagged(self):
        class StatsSwapBank(CacheBank):
            def swap_state(self, other):
                super().swap_state(other)
                self.stats, other.stats = other.stats, self.stats

        a = StatsSwapBank(1024, 2, 64)
        b = StatsSwapBank(1024, 2, 64)
        _train_cache(a)
        assert swap_violations(a, b) == [
            "StatsSwapBank.stats: stats must stay with their owner"]
