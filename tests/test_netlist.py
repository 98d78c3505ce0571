"""Tests for netlist construction and the arithmetic generators."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles.netlists import read_output_bus
from repro.netlist import NetlistBuilder, build_mac_unit
from repro.netlist.adder import kogge_stone_adder, ripple_carry_adder
from repro.netlist.gates import GateType, Netlist
from repro.netlist.multiplier import booth_multiplier, signed_array_multiplier
from repro.sim.logic import bus_inputs, evaluate

int8s = st.integers(min_value=-128, max_value=127)


class TestNetlistStructure:
    def test_duplicate_input_rejected(self):
        netlist = Netlist()
        netlist.add_input("a")
        with pytest.raises(ValueError, match="duplicate"):
            netlist.add_input("a")

    def test_fanin_must_exist(self):
        netlist = Netlist()
        a = netlist.add_input("a")
        with pytest.raises(ValueError, match="out of range"):
            netlist.add_gate(GateType.INV, a + 5)

    def test_fanin_arity_checked(self):
        netlist = Netlist()
        a = netlist.add_input("a")
        with pytest.raises(ValueError, match="expects 2 fanins"):
            netlist.add_gate(GateType.AND2, a)

    def test_source_via_add_gate_rejected(self):
        netlist = Netlist()
        with pytest.raises(ValueError):
            netlist.add_gate(GateType.INPUT)

    def test_duplicate_output_rejected(self):
        netlist = Netlist()
        a = netlist.add_input("a")
        netlist.mark_output("y", a)
        with pytest.raises(ValueError, match="duplicate"):
            netlist.mark_output("y", a)

    def test_num_gates_excludes_sources(self):
        builder = NetlistBuilder()
        a, b = builder.input_bus("x", 2)
        builder.and2(a, b)
        builder.const(True)
        assert builder.build().num_gates == 1

    def test_cell_counts(self):
        builder = NetlistBuilder()
        a, b = builder.input_bus("x", 2)
        builder.and2(a, b)
        builder.xor2(a, b)
        builder.xor2(a, b)
        assert builder.build().cell_counts() == {"AND2": 1, "XOR2": 2}

    def test_shared_constants(self):
        builder = NetlistBuilder()
        assert builder.const(False) == builder.const(False)
        assert builder.const(True) == builder.const(True)
        assert builder.const(True) != builder.const(False)


class TestGateFunctions:
    @pytest.mark.parametrize("gate,function", [
        ("and2", lambda a, b: a & b),
        ("or2", lambda a, b: a | b),
        ("nand2", lambda a, b: ~(a & b)),
        ("nor2", lambda a, b: ~(a | b)),
        ("xor2", lambda a, b: a ^ b),
        ("xnor2", lambda a, b: ~(a ^ b)),
    ])
    def test_two_input_gates(self, gate, function):
        builder = NetlistBuilder()
        a, b = builder.input_bus("x", 2)
        out = getattr(builder, gate)(a, b)
        builder.netlist.mark_output("y", out)
        netlist = builder.build()
        values_a = np.array([False, False, True, True])
        values_b = np.array([False, True, False, True])
        result = evaluate(netlist, {"x[0]": values_a, "x[1]": values_b})
        expected = function(values_a, values_b)
        np.testing.assert_array_equal(
            result[netlist.output_names["y"]], expected
        )

    def test_mux(self):
        builder = NetlistBuilder()
        s = builder.netlist.add_input("s")
        a = builder.netlist.add_input("a")
        b = builder.netlist.add_input("b")
        builder.netlist.mark_output("y", builder.mux2(s, a, b))
        netlist = builder.build()
        sel = np.array([False, False, True, True])
        av = np.array([True, False, True, False])
        bv = np.array([False, True, False, True])
        result = evaluate(netlist, {"s": sel, "a": av, "b": bv})
        np.testing.assert_array_equal(
            result[netlist.output_names["y"]], np.where(sel, bv, av)
        )

    def test_full_adder_truth_table(self):
        builder = NetlistBuilder()
        a = builder.netlist.add_input("a")
        b = builder.netlist.add_input("b")
        c = builder.netlist.add_input("c")
        s, carry = builder.full_adder(a, b, c)
        builder.netlist.mark_output("s", s)
        builder.netlist.mark_output("carry", carry)
        netlist = builder.build()
        bits = np.arange(8)
        feed = {
            "a": (bits & 1).astype(bool),
            "b": ((bits >> 1) & 1).astype(bool),
            "c": ((bits >> 2) & 1).astype(bool),
        }
        values = evaluate(netlist, feed)
        total = (feed["a"].astype(int) + feed["b"].astype(int)
                 + feed["c"].astype(int))
        np.testing.assert_array_equal(
            values[netlist.output_names["s"]], (total & 1).astype(bool))
        np.testing.assert_array_equal(
            values[netlist.output_names["carry"]], total >= 2)


def _run_adder(generator, a_vals, b_vals, width=12, cin=None):
    builder = NetlistBuilder()
    a = builder.input_bus("a", width)
    b = builder.input_bus("b", width)
    kwargs = {}
    if cin is not None:
        cin_net = builder.netlist.add_input("cin")
        kwargs["cin"] = cin_net
    total = generator(builder, a, b, **kwargs)
    builder.mark_output_bus("sum", total)
    netlist = builder.build()
    feed = bus_inputs("a", a_vals, width)
    feed.update(bus_inputs("b", b_vals, width))
    if cin is not None:
        feed["cin"] = np.asarray(cin, dtype=bool)
    values = evaluate(netlist, feed)
    return read_output_bus(netlist, values, "sum", width)


class TestAdders:
    @pytest.mark.parametrize("generator", [ripple_carry_adder,
                                           kogge_stone_adder])
    def test_random_sums(self, generator):
        rng = np.random.default_rng(7)
        a = rng.integers(-2048, 2048, 500)
        b = rng.integers(-2048, 2048, 500)
        got = _run_adder(generator, a, b)
        expected = ((a + b + 2048) % 4096) - 2048
        np.testing.assert_array_equal(got, expected)

    @pytest.mark.parametrize("generator", [ripple_carry_adder,
                                           kogge_stone_adder])
    def test_carry_in(self, generator):
        rng = np.random.default_rng(8)
        a = rng.integers(-2048, 2048, 200)
        b = rng.integers(-2048, 2048, 200)
        cin = rng.integers(0, 2, 200).astype(bool)
        got = _run_adder(generator, a, b, cin=cin)
        expected = ((a + b + cin + 2048) % 4096) - 2048
        np.testing.assert_array_equal(got, expected)

    def test_width_mismatch_rejected(self):
        builder = NetlistBuilder()
        a = builder.input_bus("a", 4)
        b = builder.input_bus("b", 5)
        with pytest.raises(ValueError, match="width"):
            ripple_carry_adder(builder, a, b)
        with pytest.raises(ValueError, match="width"):
            kogge_stone_adder(builder, a, b)

    def test_kogge_stone_shallower_than_ripple(self):
        """The prefix adder must beat the ripple chain on logic depth."""
        from repro.cells import default_library
        from repro.sim.static_timing import static_max_delay

        lib = default_library()
        delays = {}
        for name, generator in (("ripple", ripple_carry_adder),
                                ("ks", kogge_stone_adder)):
            builder = NetlistBuilder()
            a = builder.input_bus("a", 22)
            b = builder.input_bus("b", 22)
            builder.mark_output_bus("sum", generator(builder, a, b))
            delays[name] = static_max_delay(builder.build(), lib)
        assert delays["ks"] < delays["ripple"] / 2


def _run_multiplier(generator, a_vals, w_vals):
    builder = NetlistBuilder()
    act = builder.input_bus("act", 8)
    weight = builder.input_bus("w", 8)
    product = generator(builder, act, weight)
    builder.mark_output_bus("product", product)
    netlist = builder.build()
    feed = bus_inputs("act", a_vals, 8)
    feed.update(bus_inputs("w", w_vals, 8))
    values = evaluate(netlist, feed)
    return read_output_bus(netlist, values, "product", 16)


class TestMultipliers:
    @pytest.mark.parametrize("generator", [booth_multiplier,
                                           signed_array_multiplier])
    def test_exhaustive_product(self, generator):
        a, w = np.meshgrid(np.arange(-128, 128), np.arange(-128, 128),
                           indexing="ij")
        a, w = a.ravel(), w.ravel()
        got = _run_multiplier(generator, a, w)
        np.testing.assert_array_equal(got, a * w)

    def test_booth_needs_even_width(self):
        builder = NetlistBuilder()
        act = builder.input_bus("act", 7)
        weight = builder.input_bus("w", 7)
        with pytest.raises(ValueError, match="even"):
            booth_multiplier(builder, act, weight)


class TestMacUnit:
    def test_default_widths(self):
        mac = build_mac_unit()
        assert mac.act_bits == 8
        assert mac.psum_bits == 22
        assert mac.style == "booth"

    def test_invalid_style(self):
        with pytest.raises(ValueError, match="style"):
            build_mac_unit(style="wallace")

    def test_narrow_product_rejected(self):
        with pytest.raises(ValueError, match="narrow"):
            build_mac_unit(product_bits=12)

    def test_narrow_psum_rejected(self):
        with pytest.raises(ValueError):
            build_mac_unit(psum_bits=8)

    @pytest.mark.parametrize("style", ["booth", "array"])
    def test_mac_arithmetic(self, style):
        mac = build_mac_unit(style=style)
        rng = np.random.default_rng(9)
        a = rng.integers(-128, 128, 1000)
        w = rng.integers(-128, 128, 1000)
        ps = rng.integers(-(1 << 21), 1 << 21, 1000)
        feed = bus_inputs("act", a, 8)
        feed.update(bus_inputs("w", w, 8))
        feed.update(bus_inputs("psum", ps, 22))
        values = evaluate(mac.full, feed)
        product = read_output_bus(mac.full, values, "product", 16)
        result = read_output_bus(mac.full, values, "result", 22)
        np.testing.assert_array_equal(product, a * w)
        expected = ((ps + a * w + (1 << 21)) % (1 << 22)) - (1 << 21)
        np.testing.assert_array_equal(result, expected)

    def test_multiplier_view_consistent_with_full(self):
        mac = build_mac_unit()
        rng = np.random.default_rng(10)
        a = rng.integers(-128, 128, 300)
        w = rng.integers(-128, 128, 300)
        feed = bus_inputs("act", a, 8)
        feed.update(bus_inputs("w", w, 8))
        values = evaluate(mac.multiplier, feed)
        product = read_output_bus(mac.multiplier, values, "product", 16)
        np.testing.assert_array_equal(product, a * w)

    def test_adder_view(self):
        mac = build_mac_unit()
        rng = np.random.default_rng(11)
        prod = rng.integers(-(1 << 15), 1 << 15, 300)
        ps = rng.integers(-(1 << 21), 1 << 21, 300)
        feed = bus_inputs("product", prod, 16)
        feed.update(bus_inputs("psum", ps, 22))
        values = evaluate(mac.adder, feed)
        result = read_output_bus(mac.adder, values, "result", 22)
        expected = ((ps + prod + (1 << 21)) % (1 << 22)) - (1 << 21)
        np.testing.assert_array_equal(result, expected)

    @settings(max_examples=30, deadline=None)
    @given(int8s, int8s, st.integers(-(1 << 21), (1 << 21) - 1))
    def test_mac_single_property(self, a, w, ps):
        mac = _CACHED_MAC
        feed = bus_inputs("act", np.array([a]), 8)
        feed.update(bus_inputs("w", np.array([w]), 8))
        feed.update(bus_inputs("psum", np.array([ps]), 22))
        values = evaluate(mac.full, feed)
        result = read_output_bus(mac.full, values, "result", 22)
        expected = ((ps + a * w + (1 << 21)) % (1 << 22)) - (1 << 21)
        assert result[0] == expected


_CACHED_MAC = build_mac_unit()
