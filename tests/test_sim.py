"""Tests for the logic, switching and timing simulation engines."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles.netlists import read_output_bus
from repro.cells import default_library
from repro.netlist import NetlistBuilder, build_mac_unit
from repro.sim import (
    bits_to_int,
    dynamic_delays,
    evaluate,
    int_to_bits,
    static_arrival_times,
    static_max_delay,
    time_to_outputs,
    toggle_matrix,
    toggle_rates,
)
from repro.sim.dynamic_timing import dynamic_arrival_times
from repro.sim.logic import bus_inputs
from repro.sim.static_timing import input_bus_delays
from repro.sim.switching import stream_toggle_counts


class TestBitCodecs:
    def test_roundtrip_signed(self):
        values = np.arange(-128, 128)
        np.testing.assert_array_equal(
            bits_to_int(int_to_bits(values, 8)), values
        )

    def test_roundtrip_unsigned(self):
        values = np.arange(0, 256)
        np.testing.assert_array_equal(
            bits_to_int(int_to_bits(values, 8), signed=False), values
        )

    def test_lsb_first(self):
        bits = int_to_bits(np.array([1]), 8)
        assert bits[0, 0] and not bits[0, 1:].any()

    def test_negative_encoding(self):
        bits = int_to_bits(np.array([-1]), 4)
        assert bits.all()

    @given(st.lists(st.integers(-(1 << 21), (1 << 21) - 1), min_size=1,
                    max_size=50))
    def test_roundtrip_property(self, values):
        arr = np.asarray(values)
        np.testing.assert_array_equal(
            bits_to_int(int_to_bits(arr, 22)), arr
        )


class TestEvaluate:
    def test_missing_input_raises(self):
        builder = NetlistBuilder()
        a = builder.netlist.add_input("a")
        b = builder.netlist.add_input("b")
        builder.netlist.mark_output("y", builder.and2(a, b))
        with pytest.raises(ValueError, match="missing"):
            evaluate(builder.build(), {"a": np.array([True])})

    def test_scalar_broadcast(self):
        builder = NetlistBuilder()
        a = builder.netlist.add_input("a")
        b = builder.netlist.add_input("b")
        builder.netlist.mark_output("y", builder.or2(a, b))
        netlist = builder.build()
        values = evaluate(netlist,
                          {"a": True, "b": np.array([False, True])})
        np.testing.assert_array_equal(
            values[netlist.output_names["y"]], [True, True]
        )

    def test_constants(self):
        builder = NetlistBuilder()
        zero = builder.const(False)
        one = builder.const(True)
        builder.netlist.mark_output("z", zero)
        builder.netlist.mark_output("o", one)
        netlist = builder.build()
        values = evaluate(netlist, {}, batch=3)
        assert not values[netlist.output_names["z"]].any()
        assert values[netlist.output_names["o"]].all()


class TestSwitching:
    def test_toggle_matrix_shape_mismatch(self):
        with pytest.raises(ValueError):
            toggle_matrix(np.zeros((2, 3), bool), np.zeros((2, 4), bool))

    def test_toggle_rates(self):
        before = np.array([[False, False], [True, True]])
        after = np.array([[True, False], [True, False]])
        np.testing.assert_allclose(
            toggle_rates(before, after), [0.5, 0.5]
        )

    def test_stream_toggle_counts(self):
        stream = np.array([[False, True, True, False]])
        assert stream_toggle_counts(stream)[0] == 2

    def test_stream_too_short(self):
        stream = np.array([[True]])
        assert stream_toggle_counts(stream)[0] == 0


class TestStaticTiming:
    def _chain(self, n):
        builder = NetlistBuilder()
        a = builder.netlist.add_input("a")
        out = a
        for __ in range(n):
            out = builder.inv(out)
        builder.netlist.mark_output("y", out)
        return builder.build()

    def test_inverter_chain_delay(self):
        lib = default_library()
        netlist = self._chain(5)
        assert static_max_delay(netlist, lib) == pytest.approx(
            5 * lib.delay_ps("INV")
        )

    def test_arrival_times_monotone_along_chain(self):
        lib = default_library()
        netlist = self._chain(4)
        arrivals = static_arrival_times(netlist, lib)
        assert (np.diff(arrivals) > 0).all()

    def test_no_outputs_raises(self):
        builder = NetlistBuilder()
        builder.netlist.add_input("a")
        with pytest.raises(ValueError):
            static_max_delay(builder.build(), default_library())

    def test_time_to_outputs_matches_forward(self):
        """Input-to-output longest path agrees between both passes."""
        lib = default_library()
        mac = build_mac_unit()
        forward = static_max_delay(mac.multiplier, lib)
        remaining = time_to_outputs(mac.multiplier, lib)
        inputs = list(mac.multiplier.input_names.values())
        assert remaining[inputs].max() == pytest.approx(forward)

    def test_unconnected_net_reports_minus_inf(self):
        builder = NetlistBuilder()
        a = builder.netlist.add_input("a")
        b = builder.netlist.add_input("b")
        builder.inv(b)  # dangling
        builder.netlist.mark_output("y", builder.inv(a))
        remaining = time_to_outputs(builder.build(), default_library())
        assert remaining[b] == -np.inf

    def test_input_bus_delays_clamped_to_zero(self):
        builder = NetlistBuilder()
        bus = builder.input_bus("x", 2)
        builder.netlist.mark_output("y", builder.inv(bus[0]))
        delays = input_bus_delays(builder.build(), default_library(),
                                  "x", 2)
        assert delays[0] > 0
        assert delays[1] == 0.0


class TestDynamicTiming:
    def test_stable_inputs_give_zero_delay(self):
        lib = default_library()
        mac = build_mac_unit()
        feed = bus_inputs("act", np.array([17]), 8)
        feed.update(bus_inputs("w", np.array([23]), 8))
        delays = dynamic_delays(mac.multiplier, lib, feed, feed)
        assert delays[0] == 0.0

    def test_dynamic_never_exceeds_static(self):
        lib = default_library()
        mac = build_mac_unit()
        sta = static_max_delay(mac.multiplier, lib)
        rng = np.random.default_rng(3)
        a0 = rng.integers(-128, 128, 500)
        a1 = rng.integers(-128, 128, 500)
        w = rng.integers(-128, 128, 500)
        before = bus_inputs("act", a0, 8)
        before.update(bus_inputs("w", w, 8))
        after = bus_inputs("act", a1, 8)
        after.update(bus_inputs("w", w, 8))
        delays = dynamic_delays(mac.multiplier, lib, before, after)
        assert (delays <= sta + 1e-9).all()

    def test_weight_zero_product_never_switches(self):
        lib = default_library()
        mac = build_mac_unit()
        rng = np.random.default_rng(4)
        a0 = rng.integers(-128, 128, 300)
        a1 = rng.integers(-128, 128, 300)
        zeros = np.zeros(300, dtype=np.int64)
        before = bus_inputs("act", a0, 8)
        before.update(bus_inputs("w", zeros, 8))
        after = bus_inputs("act", a1, 8)
        after.update(bus_inputs("w", zeros, 8))
        arrivals, __ = dynamic_arrival_times(
            mac.multiplier, lib, before, after
        )
        nets = mac.multiplier.output_bus("product", 16)
        assert arrivals[nets].max() == 0.0

    def test_inverter_chain_transition(self):
        lib = default_library()
        builder = NetlistBuilder()
        a = builder.netlist.add_input("a")
        out = a
        for __ in range(3):
            out = builder.inv(out)
        builder.netlist.mark_output("y", out)
        netlist = builder.build()
        delays = dynamic_delays(
            netlist, lib, {"a": np.array([False])}, {"a": np.array([True])}
        )
        assert delays[0] == pytest.approx(3 * lib.delay_ps("INV"))

    def test_masked_transition_is_free(self):
        """A switching input masked by an AND gate costs nothing."""
        lib = default_library()
        builder = NetlistBuilder()
        a = builder.netlist.add_input("a")
        b = builder.netlist.add_input("b")
        builder.netlist.mark_output("y", builder.and2(a, b))
        netlist = builder.build()
        delays = dynamic_delays(
            netlist, lib,
            {"a": np.array([False]), "b": np.array([False])},
            {"a": np.array([True]), "b": np.array([False])},
        )
        assert delays[0] == 0.0
