"""Unit tests for the recomposition building blocks: survivor-region
selection and RAS state transfer between compositions
(``DistributedRas.inherit``)."""

from hypothesis import given, settings, strategies as st

from repro.predictor.ras import DistributedRas
from repro.resil import choose_composition
from repro.tflex import tflex_config
from repro.tflex.placement import rectangle


class TestChooseComposition:
    def test_no_faults_matches_default_placement(self):
        # The fault-free path must land on the exact same rectangle the
        # plain harness composes, or golden results would drift.
        for n in (1, 2, 4, 8, 16):
            cfg = tflex_config(max(n, 4))
            assert choose_composition(cfg, n, set()) == \
                rectangle(cfg, n, (0, 0))

    def test_avoids_unavailable(self):
        cfg = tflex_config(16)
        cores = choose_composition(cfg, 16, {0})
        assert cores is not None
        assert 0 not in cores
        assert len(cores) == 8     # largest survivor rectangle

    def test_falls_back_to_smaller_sizes(self):
        cfg = tflex_config(8)      # 4x2 mesh
        # One dead core rules out the full-chip rectangle entirely.
        cores = choose_composition(cfg, 8, {0})
        assert cores == [1, 2, 5, 6]   # the 2x2 just right of the fault

    def test_single_survivor(self):
        cfg = tflex_config(4)
        cores = choose_composition(cfg, 4, {0, 1, 2})
        assert cores == [3]

    def test_none_when_everything_taken(self):
        cfg = tflex_config(4)
        assert choose_composition(cfg, 4, {0, 1, 2, 3}) is None

    def test_respects_target(self):
        cfg = tflex_config(16)
        cores = choose_composition(cfg, 4, set())
        assert len(cores) == 4

    def test_deterministic(self):
        cfg = tflex_config(16)
        assert choose_composition(cfg, 8, {5}) == \
            choose_composition(cfg, 8, {5})


class TestTransferRas:
    def _push(self, ras, values):
        for v in values:
            ras.push(v)

    def test_same_capacity_round_trip(self):
        old = DistributedRas(4, entries_per_core=4)
        new = DistributedRas(4, entries_per_core=4)
        self._push(old, [10, 20, 30])
        new.inherit(old)
        assert new.depth == 3
        assert new.pop()[0] == 30
        assert new.pop()[0] == 20
        assert new.pop()[0] == 10

    def test_shrinking_keeps_youngest(self):
        old = DistributedRas(4, entries_per_core=2)   # capacity 8
        new = DistributedRas(2, entries_per_core=2)   # capacity 4
        self._push(old, range(100, 108))              # 8 live entries
        new.inherit(old)
        assert new.depth == 4
        assert [new.pop()[0] for _ in range(4)] == [107, 106, 105, 104]

    def test_growing_keeps_everything(self):
        old = DistributedRas(1, entries_per_core=4)
        new = DistributedRas(4, entries_per_core=4)
        self._push(old, [1, 2, 3])
        new.inherit(old)
        assert new.depth == 3
        assert [new.pop()[0] for _ in range(3)] == [3, 2, 1]

    def test_overflowed_stack_clamps_to_live_window(self):
        old = DistributedRas(2, entries_per_core=2)   # capacity 4
        new = DistributedRas(2, entries_per_core=2)
        self._push(old, range(10))   # 10 pushes wrap the 4-entry stack
        new.inherit(old)
        assert new.depth == 4
        assert [new.pop()[0] for _ in range(4)] == [9, 8, 7, 6]

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.integers(1, 10**6), max_size=24),
           st.sampled_from([1, 2, 4]), st.sampled_from([1, 2, 4]))
    def test_pop_sequence_matches_suffix(self, values, old_cores, new_cores):
        old = DistributedRas(old_cores, entries_per_core=4)
        new = DistributedRas(new_cores, entries_per_core=4)
        self._push(old, values)
        new.inherit(old)
        live = min(len(values), old.capacity)
        keep = min(live, new.capacity)
        assert new.depth == keep
        expected = list(reversed(values[len(values) - keep:]))
        assert [new.pop()[0] for _ in range(keep)] == expected
