"""Random netlists and stimuli shared by the simulation test suites."""

from __future__ import annotations

import numpy as np
from hypothesis import strategies as st

from repro.netlist import NetlistBuilder
from repro.netlist.gates import GateType, SOURCE_TYPES

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
