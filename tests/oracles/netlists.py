"""Random netlists and stimuli shared by the simulation test suites,
and :func:`read_output_bus`, which the suites decode results with."""

from __future__ import annotations

from typing import Union

import numpy as np
from hypothesis import strategies as st

from repro.netlist import NetlistBuilder
from repro.netlist.gates import GateType, Netlist, PackedNetlist, \
    SOURCE_TYPES
from repro.sim.logic import PackedValues, bits_to_int

#: Batch sizes hostile to 64-bit word packing.
AWKWARD_BATCHES = (1, 3, 63, 64, 65, 127, 128, 129, 200)

_CELL_TYPES = tuple(t for t in GateType if t not in SOURCE_TYPES)


@st.composite
def random_netlists(draw):
    """A random topologically ordered DAG over all gate types."""
    builder = NetlistBuilder("random")
    n_inputs = draw(st.integers(1, 6))
    nets = [builder.netlist.add_input(f"in[{i}]")
            for i in range(n_inputs)]
    if draw(st.booleans()):
        nets.append(builder.const(False))
    if draw(st.booleans()):
        nets.append(builder.const(True))
    n_gates = draw(st.integers(1, 40))
    for __ in range(n_gates):
        gtype = draw(st.sampled_from(_CELL_TYPES))
        fanins = [nets[draw(st.integers(0, len(nets) - 1))]
                  for __ in range(
                      {GateType.INV: 1, GateType.BUF: 1,
                       GateType.MUX2: 3}.get(gtype, 2))]
        nets.append(builder.netlist.add_gate(gtype, *fanins))
    builder.netlist.mark_output("y", nets[-1])
    builder.netlist.mark_output("z", nets[len(nets) // 2])
    return builder.build()


def random_feed(netlist, batch: int, seed: int):
    """Uniform random boolean rows, one per primary input."""
    rng = np.random.default_rng(seed)
    return {name: rng.random(batch) < 0.5
            for name in netlist.input_names}


def read_output_bus(netlist: Union[Netlist, PackedNetlist],
                    values: Union[np.ndarray, PackedValues],
                    prefix: str, width: int,
                    signed: bool = True) -> np.ndarray:
    """Decode an output bus of an ``evaluate`` result to integers.

    Accepts either the boolean matrix of ``evaluate`` or the
    :class:`PackedValues` of ``evaluate_words``; packed words are
    sliced down to the bus before they are unpacked.
    """
    if isinstance(netlist, PackedNetlist):
        netlist = netlist.netlist
    nets = netlist.output_bus(prefix, width)
    if isinstance(values, PackedValues):
        bits = PackedValues(words=values.words[nets],
                            batch=values.batch,
                            half_batch=values.half_batch).unpack()
    else:
        bits = values[nets]
    return bits_to_int(bits.T, signed=signed)
