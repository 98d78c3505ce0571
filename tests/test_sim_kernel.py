"""Equivalence suite for the gate-simulation kernels.

Production evaluates netlists through one executor, the level program
(:meth:`repro.sim.program.LevelProgram.run`), over bit-packed words,
and times them with levelized passes.  Each must be *bit-for-bit*
equal to the walk it replaced, kept in ``tests/oracles/sim_kernels.py``,
on every netlist and every batch size — that equivalence is what lets
the pipeline use them with zero golden-file regeneration and zero
stage-version bumps.  Hypothesis drives random DAGs (all gate types,
shared constants, random fanins) and random batch sizes, including the
awkward non-multiple-of-64 ones where packed-word padding bugs would
live.
"""

import pickle

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import sim_kernels as oracle
from oracles.netlists import (
    AWKWARD_BATCHES,
    random_feed,
    random_netlists,
    read_output_bus,
)
from repro.cells import default_library
from repro.netlist import NetlistBuilder, build_mac_unit
from repro.netlist.gates import GateType
from repro.sim import logic as logic_mod
from repro.sim.dynamic_timing import (
    dynamic_arrival_times,
    dynamic_bus_arrivals,
    dynamic_delays,
)
from repro.sim.logic import (
    bus_inputs,
    evaluate,
    evaluate_words,
    evaluate_words_batched,
    pack_bits,
    popcount_words,
    unpack_bits,
)
from repro.sim.static_timing import (
    static_arrival_times,
    time_to_outputs,
)
from repro.sim.switching import (
    paired_toggle_rates,
    paired_toggle_rates_words,
)


def _mult_feed(batch, seed=0):
    rng = np.random.default_rng(seed)
    feed = bus_inputs("act", rng.integers(-128, 128, batch), 8)
    feed.update(bus_inputs("w", rng.integers(-128, 128, batch), 8))
    return feed


def _mult_transition(n, seed=3):
    """An activation transition of the MAC multiplier under a frozen
    weight, with the product bus nets."""
    mac = build_mac_unit()
    rng = np.random.default_rng(seed)
    weight_bus = bus_inputs("w", np.full(n, -105), 8)
    before = bus_inputs("act", rng.integers(-128, 128, n), 8)
    before.update(weight_bus)
    after = bus_inputs("act", rng.integers(-128, 128, n), 8)
    after.update(weight_bus)
    nets = np.asarray(
        mac.multiplier.output_bus("product", mac.product_bits),
        dtype=np.int64)
    return mac.multiplier.packed(), before, after, nets


def _assert_matches_oracles(netlist, feed):
    """Values equal the per-gate walk; words (padding bits included)
    equal the group walk."""
    np.testing.assert_array_equal(oracle.evaluate_reference(netlist, feed),
                                  evaluate(netlist, feed))
    words = evaluate_words(netlist, feed).words
    np.testing.assert_array_equal(oracle.regroup_words(netlist, words),
                                  words)


class TestKernelEquivalence:
    @settings(max_examples=60, deadline=None)
    @given(netlist=random_netlists(), batch=st.integers(1, 200),
           seed=st.integers(0, 2**32 - 1))
    def test_matches_reference_and_group_walk(self, netlist, batch,
                                              seed):
        _assert_matches_oracles(netlist, random_feed(netlist, batch, seed))

    @settings(max_examples=30, deadline=None)
    @given(netlist=random_netlists(), half=st.integers(1, 130),
           seed=st.integers(0, 2**32 - 1))
    def test_paired_words_match_reference(self, netlist, half, seed):
        """Word-aligned halves reproduce the stacked boolean layout."""
        feed = random_feed(netlist, 2 * half, seed)
        reference = oracle.evaluate_reference(netlist, feed)
        paired = evaluate_words(netlist, feed, pair_halves=True)
        assert paired.half_batch == half
        np.testing.assert_array_equal(reference, paired.unpack())
        np.testing.assert_array_equal(
            paired_toggle_rates(reference),
            paired_toggle_rates_words(paired))

    @pytest.mark.parametrize("batch", AWKWARD_BATCHES)
    def test_mac_multiplier_awkward_batches(self, batch):
        _assert_matches_oracles(build_mac_unit().multiplier,
                                _mult_feed(batch, seed=batch))

    @pytest.mark.parametrize("half", AWKWARD_BATCHES)
    def test_mac_paired_halves_awkward_batches(self, half):
        """The power characterization's stacked before/after layout on
        the full MAC: word-aligned halves give the reference walk's
        values and toggle rates at every word-packing corner."""
        rng = np.random.default_rng(half)
        mac = build_mac_unit()
        feed = bus_inputs("act", rng.integers(-128, 128, 2 * half), 8)
        feed.update(bus_inputs("w", np.full(2 * half, -105), 8))
        feed.update(bus_inputs(
            "psum", rng.integers(-(1 << 21), 1 << 21, 2 * half), 22))
        reference = oracle.evaluate_reference(mac.full, feed)
        paired = evaluate_words(mac.full, feed, pair_halves=True)
        np.testing.assert_array_equal(reference, paired.unpack())
        np.testing.assert_array_equal(
            paired_toggle_rates(reference),
            paired_toggle_rates_words(paired))

    def test_mux_and_const_corners(self):
        """MUX2 select polarity and shared constants survive packing,
        the XOR-select identity and the level reordering."""
        builder = NetlistBuilder()
        sel = builder.netlist.add_input("sel")
        a = builder.netlist.add_input("a")
        zero = builder.const(False)
        one = builder.const(True)
        builder.netlist.mark_output("m", builder.mux2(sel, a, one))
        builder.netlist.mark_output("n", builder.mux2(a, zero, sel))
        builder.netlist.mark_output("z", zero)
        builder.netlist.mark_output("o", one)
        netlist = builder.build()
        feed = {"sel": np.array([False, False, True, True] * 17),
                "a": np.array([False, True, False, True] * 17)}
        _assert_matches_oracles(netlist, feed)

    def test_missing_input_message_matches_reference(self):
        builder = NetlistBuilder()
        builder.netlist.add_input("a")
        builder.netlist.add_input("b")
        for run in (evaluate, oracle.evaluate_reference):
            with pytest.raises(ValueError, match="missing"):
                run(builder.build(), {"a": True})

    def test_odd_stacked_batch_rejected(self):
        builder = NetlistBuilder()
        builder.netlist.add_input("a")
        with pytest.raises(ValueError, match="before/after"):
            evaluate_words(builder.build(), {"a": np.zeros(3, bool)},
                           pair_halves=True)

    def test_program_pickles_warm(self):
        """Workers receive packed views with the schedule and the
        program already built."""
        packed = build_mac_unit().multiplier.packed()
        program = packed.program
        clone = pickle.loads(pickle.dumps(packed))
        assert clone._schedule is not None  # no rebuild in the worker
        assert clone._program is not None
        np.testing.assert_array_equal(program.dst, clone.program.dst)
        feed = _mult_feed(65, seed=7)
        np.testing.assert_array_equal(evaluate(packed, feed),
                                      evaluate(clone, feed))

    def test_batched_segments_match_group_walk(self):
        """The one-launch characterization layout (paired megabatch,
        per-segment frozen weight column) on the full MAC."""
        mac = build_mac_unit()
        rng = np.random.default_rng(9)
        n_segments, half = 5, 100
        feed = bus_inputs("act", rng.integers(-128, 128, 2 * half), 8)
        feed.update(bus_inputs(
            "w", rng.integers(-128, 128, (n_segments, 1)), 8))
        feed.update(bus_inputs(
            "psum", rng.integers(-(1 << 21), 1 << 21, 2 * half), 22))
        values = evaluate_words_batched(mac.full, feed,
                                        n_segments=n_segments,
                                        batch=2 * half, pair_halves=True)
        np.testing.assert_array_equal(
            oracle.regroup_words(mac.full, values.words), values.words)

    def test_words_out_reuse_is_exact(self):
        """A poisoned reused buffer (dirty CONST/padding rows) cannot
        leak into the evaluation."""
        packed = build_mac_unit().multiplier.packed()
        feed = _mult_feed(130, seed=2)
        fresh = evaluate_words(packed, feed)
        buf = np.full_like(fresh.words, ~np.uint64(0))  # all-ones poison
        reused = evaluate_words(packed, feed, words_out=buf)
        assert reused.words is buf
        np.testing.assert_array_equal(fresh.words, reused.words)


class TestBatchInference:
    """The batch is the length every input broadcasts to, whatever the
    order of the feed."""

    @staticmethod
    def _two_input_netlist():
        builder = NetlistBuilder()
        a = builder.netlist.add_input("a")
        b = builder.netlist.add_input("b")
        builder.netlist.mark_output("y", builder.xor2(a, b))
        return builder.build()

    def test_dynamic_timing_either_key_order(self):
        netlist = self._two_input_netlist()
        library = default_library()
        short, full = np.array([False]), np.arange(6) % 3 == 0
        after = {"a": np.array([True]), "b": False}
        forward = dynamic_arrival_times(
            netlist, library, {"a": short, "b": full}, after)
        backward = dynamic_arrival_times(
            netlist, library, {"b": full, "a": short}, after)
        assert forward[0].shape == (len(netlist), 6)
        for got, want in zip(forward, backward):
            np.testing.assert_array_equal(got, want)

    #: ``(a, b)`` values that broadcast to one row of 5 samples.
    ROW_FEEDS = {
        "scalar": (True, np.arange(5) % 2 == 0),
        "0-d": (np.array(False), np.arange(5) % 3 == 0),
        "length-1": (np.array([True]), np.arange(5) % 2 == 0),
        "list": ([False], [True, True, False, True, False]),
        "equal-rows": (np.arange(5) % 2 == 0, np.arange(5) % 3 == 0),
    }

    @pytest.mark.parametrize("case", ROW_FEEDS)
    def test_evaluate_words_either_key_order(self, case):
        """Either key order gives the words of the explicitly broadcast
        feed."""
        netlist = self._two_input_netlist()
        a, b = self.ROW_FEEDS[case]
        want = evaluate_words(
            netlist, {"a": np.broadcast_to(np.asarray(a, bool), (5,)),
                      "b": np.broadcast_to(np.asarray(b, bool), (5,))},
            batch=5)
        for feed in ({"a": a, "b": b}, {"b": b, "a": a}):
            got = evaluate_words(netlist, feed)
            assert got.batch == 5
            np.testing.assert_array_equal(got.words, want.words)

    #: ``(a, b)`` values that broadcast to 3 segments of 7 samples.
    MATRIX_FEEDS = {
        "column-and-matrix": (np.array([[True], [False], [True]]),
                              np.arange(21).reshape(3, 7) % 3 == 0),
        "column-and-row": (np.array([[True], [False], [True]]),
                           np.arange(7) % 2 == 0),
        "scalar-and-matrix": (True,
                              np.arange(21).reshape(3, 7) % 4 == 0),
        "unit-row-and-matrix": (np.arange(7)[None] % 3 == 0,
                                np.arange(21).reshape(3, 7) % 2 == 0),
    }

    @pytest.mark.parametrize("case", MATRIX_FEEDS)
    def test_evaluate_words_batched_either_key_order(self, case):
        netlist = self._two_input_netlist()
        a, b = self.MATRIX_FEEDS[case]
        want = evaluate_words_batched(
            netlist,
            {"a": np.broadcast_to(np.asarray(a, bool), (3, 7)),
             "b": np.broadcast_to(np.asarray(b, bool), (3, 7))},
            n_segments=3, batch=7)
        for feed in ({"a": a, "b": b}, {"b": b, "a": a}):
            got = evaluate_words_batched(netlist, feed)
            assert (got.n_segments, got.batch) == (3, 7)
            np.testing.assert_array_equal(got.words, want.words)

    def test_evaluate_words_rejects_unbroadcastable_rows(self):
        netlist = self._two_input_netlist()
        short, full = np.zeros(3, bool), np.zeros(5, bool)
        for feed in ({"a": short, "b": full}, {"b": full, "a": short}):
            with pytest.raises(ValueError, match="broadcast"):
                evaluate_words(netlist, feed)

    def test_evaluate_words_batched_rejects_unbroadcastable_matrices(
            self):
        netlist = self._two_input_netlist()
        two, three = np.zeros((2, 4), bool), np.zeros((3, 4), bool)
        for feed in ({"a": two, "b": three}, {"b": three, "a": two}):
            with pytest.raises(ValueError, match="broadcast"):
                evaluate_words_batched(netlist, feed)

    def test_dynamic_timing_rejects_unbroadcastable_transitions(self):
        """``before`` and ``after`` share one batch: rows of 3 and 5
        samples are an error in the dense and the streaming DTA."""
        netlist = self._two_input_netlist()
        library = default_library()
        before = {"a": np.zeros(3, bool), "b": False}
        after = {"a": np.ones(5, bool), "b": True}
        nets = np.arange(len(netlist), dtype=np.int64)
        with pytest.raises(ValueError, match="broadcast"):
            dynamic_arrival_times(netlist, library, before, after)
        with pytest.raises(ValueError, match="broadcast"):
            dynamic_bus_arrivals(netlist, library, before, after, nets)


class TestPackingPrimitives:
    @settings(max_examples=40, deadline=None)
    @given(batch=st.integers(1, 300), seed=st.integers(0, 2**32 - 1))
    def test_pack_unpack_roundtrip(self, batch, seed):
        rng = np.random.default_rng(seed)
        bits = rng.random((5, batch)) < 0.5
        words = pack_bits(bits)
        assert words.shape == (5, -(-batch // 64))
        np.testing.assert_array_equal(unpack_bits(words, batch), bits)

    def test_pack_pads_tail_with_zeros(self):
        words = pack_bits(np.ones((1, 3), dtype=bool))
        assert int(words[0, 0]) == 0b111

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=64))
    def test_popcount_fallback_matches_native(self, raw):
        words = np.asarray(raw, dtype=np.uint64).reshape(1, -1)
        expected = sum(int(w).bit_count() for w in raw)
        assert logic_mod._popcount_lookup(words)[0] == expected
        if hasattr(np, "bitwise_count"):
            assert logic_mod._popcount_native(words)[0] == expected

    def test_popcount_batch_masks_garbage_padding(self):
        """Inverting gates set padding bits; ``batch=`` masks them."""
        builder = NetlistBuilder()
        a = builder.netlist.add_input("a")
        builder.netlist.mark_output("y", builder.inv(a))
        netlist = builder.build()
        batch = 10  # 54 garbage tail bits in the INV row
        values = evaluate_words(netlist, {"a": np.zeros(batch, bool)})
        inv_row = values.words[1:2]
        assert popcount_words(inv_row)[0] > batch  # raw counts lie
        assert popcount_words(inv_row, batch=batch)[0] == batch

    @pytest.mark.parametrize("pair_halves", [False, True])
    def test_read_output_bus_accepts_packed_values(self, pair_halves):
        mac = build_mac_unit()
        rng = np.random.default_rng(21)
        batch = 130
        acts = rng.integers(-128, 128, batch)
        weights = rng.integers(-128, 128, batch)
        feed = bus_inputs("act", acts, 8)
        feed.update(bus_inputs("w", weights, 8))
        values = evaluate_words(mac.multiplier, feed,
                                pair_halves=pair_halves)
        products = read_output_bus(mac.multiplier, values, "product", 16)
        np.testing.assert_array_equal(products, acts * weights)

    def test_popcount_words_uses_active_impl(self, monkeypatch):
        calls = []

        def spy(words):
            calls.append(words.shape)
            return logic_mod._popcount_lookup(words)

        monkeypatch.setattr(logic_mod, "_popcount_impl", spy)
        words = pack_bits(np.ones((2, 70), dtype=bool))
        np.testing.assert_array_equal(popcount_words(words), [70, 70])
        assert calls

    def test_paired_rates_with_lookup_fallback(self, monkeypatch):
        """The whole toggle-rate path is popcount-impl independent."""
        monkeypatch.setattr(logic_mod, "_popcount_impl",
                            logic_mod._popcount_lookup)
        mac = build_mac_unit()
        rng = np.random.default_rng(11)
        n = 333
        feed = bus_inputs("act", rng.integers(-128, 128, 2 * n), 8)
        feed.update(bus_inputs("w", np.full(2 * n, -105), 8))
        feed.update(bus_inputs(
            "psum", rng.integers(-(1 << 21), 1 << 21, 2 * n), 22))
        reference = paired_toggle_rates(
            oracle.evaluate_reference(mac.full, feed))
        packed = paired_toggle_rates_words(
            evaluate_words(mac.full, feed, pair_halves=True))
        np.testing.assert_array_equal(reference, packed)


class TestLevelSchedule:
    @settings(max_examples=40, deadline=None)
    @given(netlist=random_netlists())
    def test_schedule_invariants(self, netlist):
        packed = netlist.packed()
        schedule = packed.schedule
        scheduled = np.concatenate(
            [g.dst for g in schedule.groups]) if schedule.groups \
            else np.array([], dtype=np.int32)
        # Every gate appears exactly once; no source is scheduled.
        gates = [net for net, __, __ in netlist.iter_gates()]
        assert sorted(scheduled.tolist()) == gates
        # Dependencies resolve strictly earlier.
        for group in schedule.groups:
            for fanins, live in ((group.f0, group.n_fanins >= 1),
                                 (group.f1, group.n_fanins >= 2),
                                 (group.f2, group.n_fanins >= 3)):
                if live:
                    assert (schedule.levels[fanins]
                            < schedule.levels[group.dst]).all()

    @settings(max_examples=40, deadline=None)
    @given(netlist=random_netlists())
    def test_fanin_groups_cover_same_gates(self, netlist):
        schedule = netlist.packed().schedule
        by_type = sorted(np.concatenate(
            [g.dst for g in schedule.groups]).tolist())
        by_arity = sorted(np.concatenate(
            [g.dst for g in schedule.fanin_groups]).tolist())
        assert by_type == by_arity
        assert all(g.gtype == -1 for g in schedule.fanin_groups)

    def test_stats_shape(self):
        stats = build_mac_unit().full.packed().schedule.stats()
        assert stats["n_gates"] == build_mac_unit().full.num_gates
        assert stats["n_levels"] > 2
        assert stats["n_groups"] >= stats["n_levels"] - 1


class TestDynamicTimingKernel:
    @settings(max_examples=40, deadline=None)
    @given(netlist=random_netlists(), batch=st.integers(1, 130),
           seed=st.integers(0, 2**32 - 1))
    def test_fused_dta_matches_reference(self, netlist, batch, seed):
        library = default_library()
        before = random_feed(netlist, batch, seed)
        after = random_feed(netlist, batch, seed + 1)
        ref_arrivals, ref_toggled = \
            oracle.dynamic_arrival_times_reference(netlist, library,
                                                   before, after)
        arrivals, toggled = dynamic_arrival_times(
            netlist, library, before, after)
        np.testing.assert_array_equal(ref_toggled, toggled)
        np.testing.assert_array_equal(ref_arrivals, arrivals)

    def test_fused_dta_multiplier_with_out_buffer(self):
        mac = build_mac_unit()
        library = default_library()
        rng = np.random.default_rng(3)
        n = 129
        weight_bus = bus_inputs("w", np.full(n, -105), 8)
        before = bus_inputs("act", rng.integers(-128, 128, n), 8)
        before.update(weight_bus)
        after = bus_inputs("act", rng.integers(-128, 128, n), 8)
        after.update(weight_bus)
        packed = mac.multiplier.packed()
        ref_arrivals, __ = oracle.dynamic_arrival_times_reference(
            packed, library, before, after)
        buf = np.full((len(packed), n), np.nan)  # poisoned
        arrivals, __ = dynamic_arrival_times(
            packed, library, before, after, out=buf)
        assert arrivals is buf
        np.testing.assert_array_equal(ref_arrivals, arrivals)

    @pytest.mark.parametrize("batch", AWKWARD_BATCHES)
    def test_mac_multiplier_awkward_batches(self, batch):
        """Dense and streaming DTA run one propagation loop; both equal
        the per-net walk on the MAC multiplier at every word-packing
        corner."""
        library = default_library()
        packed, before, after, nets = _mult_transition(batch, seed=batch)
        ref_arrivals, ref_toggled = \
            oracle.dynamic_arrival_times_reference(packed, library,
                                                   before, after)
        arrivals, toggled = dynamic_arrival_times(packed, library,
                                                  before, after)
        np.testing.assert_array_equal(ref_toggled, toggled)
        np.testing.assert_array_equal(ref_arrivals, arrivals)
        np.testing.assert_array_equal(
            ref_arrivals[nets],
            dynamic_bus_arrivals(packed, library, before, after, nets,
                                 window=64))

    @settings(max_examples=30, deadline=None)
    @given(netlist=random_netlists(), batch=st.integers(1, 130),
           seed=st.integers(0, 2**32 - 1))
    def test_dynamic_delays_match_reference(self, netlist, batch, seed):
        """The sensitized delay is the latest output event of the
        reference walk."""
        library = default_library()
        before = random_feed(netlist, batch, seed)
        after = random_feed(netlist, batch, seed + 1)
        ref_arrivals, __ = oracle.dynamic_arrival_times_reference(
            netlist, library, before, after)
        outputs = list(netlist.output_names.values())
        np.testing.assert_array_equal(
            ref_arrivals[outputs].max(axis=0),
            dynamic_delays(netlist, library, before, after))

    def test_out_buffer_validated(self):
        mac = build_mac_unit()
        library = default_library()
        feed = bus_inputs("act", np.array([1]), 8)
        feed.update(bus_inputs("w", np.array([2]), 8))
        with pytest.raises(ValueError, match="C-contiguous float64"):
            dynamic_arrival_times(mac.multiplier, library, feed, feed,
                                  out=np.zeros((3, 1)))

    def test_profiler_chunking_reuses_buffer_bit_for_bit(self):
        """Chunked profiling (buffer reuse + tail chunk) is exact."""
        from repro.timing.profile import WeightDelayProfiler

        mac = build_mac_unit()
        library = default_library()
        rng = np.random.default_rng(5)
        act_from = rng.integers(-128, 128, 230)
        act_to = rng.integers(-128, 128, 230)
        chunked = WeightDelayProfiler(mac, library, chunk=64)
        whole = WeightDelayProfiler(mac, library, chunk=4096)
        np.testing.assert_array_equal(
            chunked.delays(-105, act_from, act_to),
            whole.delays(-105, act_from, act_to))

    def test_profiler_pickles_without_buffer(self):
        from repro.timing.profile import WeightDelayProfiler

        mac = build_mac_unit()
        profiler = WeightDelayProfiler(mac, default_library(), chunk=32)
        profiler.delays(-3, np.arange(40), np.arange(40) - 7)
        assert profiler._arrivals_buf is not None
        clone = pickle.loads(pickle.dumps(profiler))
        assert clone._arrivals_buf is None
        np.testing.assert_array_equal(
            clone.delays(-3, np.arange(40), np.arange(40) - 7),
            profiler.delays(-3, np.arange(40), np.arange(40) - 7))


class TestStaticTimingEquivalence:
    """The levelized static-timing passes must be bit-for-bit equal to
    the per-net reference walks on every netlist — that equivalence is
    what let them land with zero golden regeneration and zero stage
    version bumps."""

    @settings(max_examples=60, deadline=None)
    @given(netlist=random_netlists())
    def test_static_arrival_times_bit_identical(self, netlist):
        library = default_library()
        np.testing.assert_array_equal(
            oracle.static_arrival_times_reference(netlist, library),
            static_arrival_times(netlist, library))

    @settings(max_examples=60, deadline=None)
    @given(netlist=random_netlists())
    def test_time_to_outputs_bit_identical(self, netlist):
        """Includes the -inf (output-unreachable) nets the random DAGs
        produce in abundance."""
        library = default_library()
        reference = oracle.time_to_outputs_reference(netlist, library)
        np.testing.assert_array_equal(reference,
                                      time_to_outputs(netlist, library))

    @pytest.mark.parametrize("block", ["full", "multiplier", "adder"])
    def test_mac_blocks_bit_identical(self, block):
        netlist = getattr(build_mac_unit(), block)
        library = default_library()
        np.testing.assert_array_equal(
            oracle.static_arrival_times_reference(netlist, library),
            static_arrival_times(netlist, library))
        np.testing.assert_array_equal(
            oracle.time_to_outputs_reference(netlist, library),
            time_to_outputs(netlist, library))

    def test_source_only_netlist(self):
        """No gates at all: arrivals all zero, only outputs reach."""
        builder = NetlistBuilder("sources")
        builder.netlist.add_input("a")
        b = builder.netlist.add_input("b")
        builder.netlist.mark_output("y", b)
        netlist = builder.build()
        library = default_library()
        np.testing.assert_array_equal(
            static_arrival_times(netlist, library), [0.0, 0.0])
        np.testing.assert_array_equal(
            time_to_outputs(netlist, library), [-np.inf, 0.0])


class TestLevelProgram:
    @settings(max_examples=40, deadline=None)
    @given(netlist=random_netlists())
    def test_program_invariants(self, netlist):
        packed = netlist.packed()
        schedule = packed.schedule
        program = packed.program
        # Every scheduled gate appears exactly once, sources never.
        gates = [net for net, __, __ in netlist.iter_gates()]
        assert sorted(program.dst.tolist()) == gates
        assert program.n_gates == len(gates)
        levels = schedule.levels
        for start, stop, mux_start, g0, g1, has_inv, runs \
                in program.level_plan:
            dst = program.dst[start:stop]
            # Level-major: one level per plan entry, deps strictly
            # earlier (the reordering freedom the executor relies on).
            assert np.unique(levels[dst]).size == 1
            for src in (program.src0[start:stop],
                        program.src1[start:stop],
                        program.src2[start:stop]):
                live = src >= 0
                assert (levels[src[live]] < levels[dst[live]]).all()
            # MUX2 is exactly the tail run.
            ops = program.ops[start:stop]
            assert (ops[mux_start - start:] == GateType.MUX2).all()
            assert not (ops[:mux_start - start] == GateType.MUX2).any()
            # Invert mask is all-ones exactly on the inverting types.
            inverting = np.isin(ops, (GateType.NAND2, GateType.NOR2,
                                      GateType.XNOR2, GateType.INV))
            np.testing.assert_array_equal(
                program.inv_mask[start:stop] == ~np.uint64(0), inverting)
            assert has_inv == bool(inverting.any())
            # The merged gather is [src0 | src1 (src0 if unused) |
            # mux src2].
            n = stop - start
            src0 = program.src0[start:stop]
            src1 = program.src1[start:stop]
            gather = program.gather_idx[g0:g1]
            assert g1 - g0 == 2 * n + (stop - mux_start)
            np.testing.assert_array_equal(gather[:n], src0)
            np.testing.assert_array_equal(
                gather[n:2 * n], np.where(src1 >= 0, src1, src0))
            np.testing.assert_array_equal(
                gather[2 * n:], program.src2[mux_start:stop])
            # Binop runs tile exactly the two-input non-MUX gates, with
            # the right ufunc family.
            families = {0: (GateType.AND2, GateType.NAND2),
                        1: (GateType.OR2, GateType.NOR2),
                        2: (GateType.XOR2, GateType.XNOR2)}
            covered = np.zeros(n, dtype=bool)
            for family, r0, r1 in runs:
                assert not covered[r0:r1].any()
                covered[r0:r1] = True
                assert np.isin(ops[r0:r1], families[family]).all()
            assert (covered == np.isin(ops, sum(families.values(), ())))\
                .all()

    def test_stats_shape(self):
        program = build_mac_unit().multiplier.packed().program
        assert program.n_gates > 0
        stats = program.stats()
        assert stats["n_gates"] == program.n_gates
        assert stats["n_levels"] == program.n_levels > 2
        assert stats["n_binop_runs"] > 0

    def test_source_only_netlist(self):
        builder = NetlistBuilder("sources")
        builder.netlist.add_input("a")
        b = builder.netlist.add_input("b")
        builder.netlist.mark_output("y", b)
        packed = builder.build().packed()
        program = packed.program
        assert program.n_gates == 0
        assert program.level_plan == ()
        feed = {"a": np.ones(70, bool), "b": np.zeros(70, bool)}
        _assert_matches_oracles(packed, feed)


class TestStreamingDTA:
    @settings(max_examples=40, deadline=None)
    @given(netlist=random_netlists(), batch=st.integers(1, 130),
           seed=st.integers(0, 2**32 - 1))
    def test_streaming_matches_reference(self, netlist, batch, seed):
        library = default_library()
        before = random_feed(netlist, batch, seed)
        after = random_feed(netlist, batch, seed + 1)
        ref_arrivals, __ = oracle.dynamic_arrival_times_reference(
            netlist, library, before, after)
        nets = np.arange(ref_arrivals.shape[0], dtype=np.int64)
        np.testing.assert_array_equal(
            ref_arrivals,
            dynamic_bus_arrivals(netlist, library, before, after, nets))

    @pytest.mark.parametrize("batch", (63, 64, 129, 200))
    def test_windowing_is_invisible(self, batch):
        """Slab boundaries (and a tail window) cannot perturb a bit."""
        library = default_library()
        packed, before, after, nets = _mult_transition(batch)
        whole = dynamic_bus_arrivals(packed, library, before, after,
                                     nets)
        windowed = dynamic_bus_arrivals(packed, library, before, after,
                                        nets, window=64)
        np.testing.assert_array_equal(whole, windowed)
        ref_arrivals, __ = oracle.dynamic_arrival_times_reference(
            packed, library, before, after)
        np.testing.assert_array_equal(whole, ref_arrivals[nets])

    def test_arrivals_out_reuse_is_exact(self):
        library = default_library()
        packed, before, after, nets = _mult_transition(190)
        fresh = dynamic_bus_arrivals(packed, library, before, after,
                                     nets, window=128)
        buf = np.full((len(packed), 128), np.nan)  # poisoned
        reused = dynamic_bus_arrivals(packed, library, before, after,
                                      nets, window=128,
                                      arrivals_out=buf)
        np.testing.assert_array_equal(fresh, reused)

    def test_window_and_buffer_validation(self):
        library = default_library()
        packed, before, after, nets = _mult_transition(70)
        with pytest.raises(ValueError, match="multiple of 64"):
            dynamic_bus_arrivals(packed, library, before, after, nets,
                                 window=100)
        with pytest.raises(ValueError, match="arrivals_out"):
            dynamic_bus_arrivals(packed, library, before, after, nets,
                                 window=64,
                                 arrivals_out=np.zeros((3, 64)))

    @pytest.mark.parametrize("chunk", (64, 4096))
    def test_profiler_matches_reference_walk(self, monkeypatch, chunk):
        """The full profiler path (chunking, buffer reuse, compose)
        gives the delays it gives on the per-net reference walk."""
        from repro.timing import profile as profile_mod

        mac = build_mac_unit()
        library = default_library()
        rng = np.random.default_rng(5)
        act_from = rng.integers(-128, 128, 230)
        act_to = rng.integers(-128, 128, 230)
        production = profile_mod.WeightDelayProfiler(
            mac, library, chunk=chunk).delays(-105, act_from, act_to)

        calls = []

        def reference_bus_arrivals(netlist, library, before, after, nets,
                                   **buffers):
            calls.append(len(nets))
            arrivals, __ = oracle.dynamic_arrival_times_reference(
                netlist, library, before, after)
            return arrivals[nets]

        monkeypatch.setattr(profile_mod, "dynamic_bus_arrivals",
                            reference_bus_arrivals)
        reference = profile_mod.WeightDelayProfiler(
            mac, library, chunk=chunk).delays(-105, act_from, act_to)
        assert len(calls) == -(-230 // chunk)  # one walk per chunk
        np.testing.assert_array_equal(production, reference)
