"""Oracles of the gate-simulation kernels in :mod:`repro.sim`.

Production evaluates netlists through one executor, the level program
(:meth:`repro.sim.program.LevelProgram.run`), and times them with the
levelized passes of :mod:`repro.sim.static_timing` and
:mod:`repro.sim.dynamic_timing`.  The walks here are what those
replaced; production must equal them bit for bit:

* :func:`evaluate_reference` — the per-gate interpreted walk over a
  boolean batch (values);
* :func:`run_schedule_words` — the per-(level, type) group walk over
  packed words, which must agree with the level program on every word,
  padding bits included (:func:`regroup_words`);
* :func:`static_arrival_times_reference`,
  :func:`time_to_outputs_reference` and
  :func:`dynamic_arrival_times_reference` — the per-net timing walks
  (float max is exact and each net adds its delay once, in the same
  order, so equality is exact);
* :func:`prebatch_reference_energies` — the per-weight power
  characterization whose RNG consumption defined the golden tables.
"""

from __future__ import annotations

from typing import Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from repro.netlist.gates import GateType, LevelSchedule, Netlist, PackedNetlist
from repro.power.characterization import weight_seed_sequence
from repro.power.transitions import code_to_value
from repro.sim.logic import _infer_batch, bus_inputs, evaluate_words
from repro.sim.switching import paired_toggle_rates_words


def _packed(netlist: Union[Netlist, PackedNetlist]) -> PackedNetlist:
    return netlist if isinstance(netlist, PackedNetlist) else netlist.packed()


def evaluate_reference(netlist: Union[Netlist, PackedNetlist],
                       inputs: Mapping[str, np.ndarray],
                       batch: Optional[int] = None) -> np.ndarray:
    """The original per-gate interpreted walk: ``values[net, sample]``."""
    packed = _packed(netlist)
    names = packed.netlist.input_names
    batch = _infer_batch(inputs.values(), batch)

    missing = set(names) - set(inputs)
    if missing:
        raise ValueError(f"missing values for inputs: {sorted(missing)}")

    values = np.empty((len(packed), batch), dtype=bool)
    for name, net in names.items():
        arr = np.asarray(inputs[name], dtype=bool)
        values[net] = np.broadcast_to(arr, (batch,))

    types = packed.types
    f0, f1, f2 = packed.fanin0, packed.fanin1, packed.fanin2
    for net in range(len(packed)):
        gtype = types[net]
        if gtype == GateType.INPUT:
            continue
        if gtype == GateType.CONST0:
            values[net] = False
        elif gtype == GateType.CONST1:
            values[net] = True
        elif gtype == GateType.INV:
            np.logical_not(values[f0[net]], out=values[net])
        elif gtype == GateType.BUF:
            values[net] = values[f0[net]]
        elif gtype == GateType.AND2:
            np.logical_and(values[f0[net]], values[f1[net]],
                           out=values[net])
        elif gtype == GateType.OR2:
            np.logical_or(values[f0[net]], values[f1[net]],
                          out=values[net])
        elif gtype == GateType.NAND2:
            np.logical_and(values[f0[net]], values[f1[net]],
                           out=values[net])
            np.logical_not(values[net], out=values[net])
        elif gtype == GateType.NOR2:
            np.logical_or(values[f0[net]], values[f1[net]],
                          out=values[net])
            np.logical_not(values[net], out=values[net])
        elif gtype == GateType.XOR2:
            np.logical_xor(values[f0[net]], values[f1[net]],
                           out=values[net])
        elif gtype == GateType.XNOR2:
            np.logical_xor(values[f0[net]], values[f1[net]],
                           out=values[net])
            np.logical_not(values[net], out=values[net])
        elif gtype == GateType.MUX2:
            out = values[net]
            np.copyto(out, values[f1[net]])
            np.copyto(out, values[f2[net]], where=values[f0[net]])
        else:
            raise AssertionError(f"unhandled gate type {gtype}")
    return values


def run_schedule_words(schedule: LevelSchedule, words: np.ndarray) -> None:
    """Group-by-group evaluation over packed ``uint64`` words, in place.

    Padding bits beyond the batch take whatever value the gate function
    gives them, exactly as in the level program.
    """
    for group in schedule.groups:
        gtype = group.gtype
        if gtype == GateType.INV:
            words[group.dst] = ~words[group.f0]
        elif gtype == GateType.BUF:
            words[group.dst] = words[group.f0]
        elif gtype == GateType.AND2:
            words[group.dst] = words[group.f0] & words[group.f1]
        elif gtype == GateType.OR2:
            words[group.dst] = words[group.f0] | words[group.f1]
        elif gtype == GateType.NAND2:
            words[group.dst] = ~(words[group.f0] & words[group.f1])
        elif gtype == GateType.NOR2:
            words[group.dst] = ~(words[group.f0] | words[group.f1])
        elif gtype == GateType.XOR2:
            words[group.dst] = words[group.f0] ^ words[group.f1]
        elif gtype == GateType.XNOR2:
            words[group.dst] = ~(words[group.f0] ^ words[group.f1])
        elif gtype == GateType.MUX2:
            select = words[group.f0]
            words[group.dst] = ((words[group.f2] & select)
                                | (words[group.f1] & ~select))
        else:
            raise AssertionError(f"unhandled gate type {gtype}")


def regroup_words(netlist: Union[Netlist, PackedNetlist],
                  words: np.ndarray) -> np.ndarray:
    """Recompute every gate row of an evaluated word matrix with
    :func:`run_schedule_words`.

    The source rows (inputs, constants) are kept and the gate rows are
    poisoned with all-ones first, so the result equals ``words`` only
    if the group walk rewrites every gate word exactly as the level
    program did.
    """
    packed = _packed(netlist)
    regrouped = words.copy()
    regrouped[packed.schedule.levels > 0] = ~np.uint64(0)
    run_schedule_words(packed.schedule, regrouped)
    return regrouped


def static_arrival_times_reference(
        netlist: Union[Netlist, PackedNetlist], library) -> np.ndarray:
    """The original per-net forward walk of static arrival times."""
    packed = _packed(netlist)
    delays = packed.gate_delays(library)
    arrivals = np.zeros(len(packed), dtype=np.float64)
    f0, f1, f2 = packed.fanin0, packed.fanin1, packed.fanin2
    for net in range(len(packed)):
        if delays[net] == 0.0 and f0[net] < 0:
            continue  # source node
        worst = 0.0
        for fanin in (f0[net], f1[net], f2[net]):
            if fanin >= 0 and arrivals[fanin] > worst:
                worst = arrivals[fanin]
        arrivals[net] = worst + delays[net]
    return arrivals


def time_to_outputs_reference(
        netlist: Union[Netlist, PackedNetlist], library) -> np.ndarray:
    """The original reverse-order per-net walk of time to outputs."""
    packed = _packed(netlist)
    delays = packed.gate_delays(library)
    remaining = np.full(len(packed), -np.inf, dtype=np.float64)
    for net in packed.netlist.output_names.values():
        remaining[net] = max(remaining[net], 0.0)
    f0, f1, f2 = packed.fanin0, packed.fanin1, packed.fanin2
    # Walk in reverse topological order, relaxing fanins through each gate:
    # reaching this gate's output costs the gate's own delay.
    for net in range(len(packed) - 1, -1, -1):
        if remaining[net] == -np.inf:
            continue
        through = remaining[net] + delays[net]
        for fanin in (f0[net], f1[net], f2[net]):
            if fanin >= 0 and through > remaining[fanin]:
                remaining[fanin] = through
    return remaining


def dynamic_arrival_times_reference(
        netlist: Union[Netlist, PackedNetlist], library,
        inputs_before: Mapping[str, np.ndarray],
        inputs_after: Mapping[str, np.ndarray],
        ) -> Tuple[np.ndarray, np.ndarray]:
    """The original two-pass, per-net dynamic timing walk."""
    packed = _packed(netlist)
    before = evaluate_reference(packed, inputs_before)
    after = evaluate_reference(packed, inputs_after)
    toggled = before != after
    delays = packed.gate_delays(library)

    batch = before.shape[1]
    arrivals = np.zeros((len(packed), batch), dtype=np.float64)
    f0, f1, f2 = packed.fanin0, packed.fanin1, packed.fanin2
    types = packed.types
    for net in range(len(packed)):
        if types[net] in (GateType.INPUT, GateType.CONST0, GateType.CONST1):
            continue
        latest = np.zeros(batch, dtype=np.float64)
        for fanin in (f0[net], f1[net], f2[net]):
            if fanin >= 0:
                np.maximum(latest, arrivals[fanin], out=latest)
        arrivals[net] = np.where(toggled[net], latest + delays[net], 0.0)
    return arrivals, toggled


def prebatch_reference_energies(char, weights: Sequence[int],
                           seed: int) -> np.ndarray:
    """The pre-batching per-weight power characterization, frozen.

    ``rng.choice``-based stimulus sampling, a dense per-weight weight
    bus and one packed evaluation per weight: the RNG consumption that
    defined the golden tables.  ``char`` is a
    :class:`~repro.power.characterization.WeightPowerCharacterizer`.
    """
    energies = np.empty(len(weights), dtype=np.float64)
    n = char.n_samples
    act = char.act_transitions
    bt = char.psum_transitions
    dist = bt.distribution
    for i, weight in enumerate(weights):
        rng = np.random.default_rng(
            weight_seed_sequence(seed, int(weight)))
        drawn = rng.choice(act.matrix.size, size=n, p=act.matrix.ravel())
        acts = code_to_value(
            np.concatenate([drawn // act.n_codes, drawn % act.n_codes]),
            char.mac.act_bits)
        drawn = rng.choice(dist.matrix.size, size=n,
                           p=dist.matrix.ravel())
        halves = []
        for bin_ids in (drawn // dist.n_codes, drawn % dist.n_codes):
            out = np.empty(n, dtype=np.int64)
            for b in range(bt.binner.n_bins):
                mask = bin_ids == b
                count = int(mask.sum())
                if count:
                    out[mask] = rng.choice(bt.binner._exemplars[b],
                                           size=count)
            halves.append(out)
        psums = np.concatenate(halves)

        feed = bus_inputs("act", acts, char.mac.act_bits)
        feed.update(bus_inputs(
            "w", np.full(2 * n, int(weight), dtype=np.int64),
            char.mac.weight_bits))
        feed.update(bus_inputs("psum", psums, char.mac.psum_bits))
        values = evaluate_words(char._packed, feed, pair_halves=True)
        rates = paired_toggle_rates_words(values)
        energies[i] = float(np.dot(rates, char._energies))
    return energies
