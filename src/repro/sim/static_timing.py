"""Static timing analysis (the Design Compiler role).

Longest-path analysis over the netlist DAG.  Two directions are needed:

* *arrival times* — the classic forward pass giving the worst-case delay
  at every net, used to time the whole MAC ("post-synthesis" 180 ps).
* *time to outputs* — the backward pass giving, for every net, the longest
  remaining path to any primary output.  The paper's composition (Fig. 5)
  reads the adder's per-product-bit delays from exactly this quantity.

Both passes run levelized over the netlist's cached
:class:`~repro.netlist.gates.LevelSchedule` (the same execution plan the
logic and dynamic-timing kernels use): per level, the max-reduction over
fanins is one batched numpy gather instead of a per-net Python walk.
The results are bit-for-bit identical to the original per-net walks —
float max is exact, and every net's single ``+ delay`` happens in the
same order — which the test suite keeps as its oracles.
"""

from __future__ import annotations

from typing import Union

import numpy as np

from repro.netlist.gates import Netlist, PackedNetlist


def _packed(netlist: Union[Netlist, PackedNetlist]) -> PackedNetlist:
    return netlist if isinstance(netlist, PackedNetlist) else netlist.packed()


def static_arrival_times(netlist: Union[Netlist, PackedNetlist],
                         library) -> np.ndarray:
    """Worst-case arrival time (ps) at every net, inputs at t=0.

    Levelized forward pass: sources stay at 0, and each level's gates
    take the max over their fanins' arrivals (all on strictly earlier
    levels) plus their own delay in one batched operation per
    fanin-arity group.
    """
    packed = _packed(netlist)
    delays = packed.gate_delays(library)
    arrivals = np.zeros(len(packed), dtype=np.float64)
    for group in packed.schedule.fanin_groups:
        # Fancy indexing copies, so the in-place maxes never alias.
        latest = arrivals[group.f0]
        if group.n_fanins >= 2:
            np.maximum(latest, arrivals[group.f1], out=latest)
        if group.n_fanins >= 3:
            np.maximum(latest, arrivals[group.f2], out=latest)
        arrivals[group.dst] = latest + delays[group.dst]
    return arrivals


def static_max_delay(netlist: Union[Netlist, PackedNetlist],
                     library) -> float:
    """Critical-path delay (ps) from any input to any output."""
    packed = _packed(netlist)
    arrivals = static_arrival_times(packed, library)
    outputs = list(packed.netlist.output_names.values())
    if not outputs:
        raise ValueError("netlist has no outputs to time")
    return float(arrivals[outputs].max())


def time_to_outputs(netlist: Union[Netlist, PackedNetlist],
                    library) -> np.ndarray:
    """Longest remaining delay (ps) from every net to any primary output.

    A net that cannot reach an output gets ``-inf``; primary-output nets
    themselves get at least 0.  For a primary input, the returned value is
    the STA delay of the whole input-to-output cone — the per-bit numbers
    the paper adds on top of the multiplier's dynamic delays.

    Levelized backward pass over the schedule in reverse level order:
    a gate's own remaining time is final before its level runs (every
    fanout lives on a strictly later level, already processed), so each
    group relaxes its fanins with one unbuffered scatter-max
    (``np.maximum.at`` — duplicate fanins within a group are safe).
    Unreachable gates carry ``-inf`` through the adds and relax nothing,
    exactly like a per-net walk that skips them.
    """
    packed = _packed(netlist)
    delays = packed.gate_delays(library)
    remaining = np.full(len(packed), -np.inf, dtype=np.float64)
    for net in packed.netlist.output_names.values():
        remaining[net] = max(remaining[net], 0.0)
    for group in reversed(packed.schedule.fanin_groups):
        through = remaining[group.dst] + delays[group.dst]
        np.maximum.at(remaining, group.f0, through)
        if group.n_fanins >= 2:
            np.maximum.at(remaining, group.f1, through)
        if group.n_fanins >= 3:
            np.maximum.at(remaining, group.f2, through)
    return remaining


def input_bus_delays(netlist: Union[Netlist, PackedNetlist], library,
                     prefix: str, width: int) -> np.ndarray:
    """STA delay from each bit of an input bus to any output.

    Bits that reach no output (possible for unused wires) report 0.
    """
    packed = _packed(netlist)
    remaining = time_to_outputs(packed, library)
    nets = packed.netlist.input_bus(prefix, width)
    values = remaining[nets]
    return np.where(np.isfinite(values), values, 0.0)
