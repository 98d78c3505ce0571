"""Dynamic timing analysis: per-transition arrival-time propagation.

For a two-pattern input transition, a net carries a *switching event* when
its logic value differs between the two patterns.  The event's arrival
time is the gate delay plus the latest arrival among the fanins that
switched — exactly the path-sensitization view of Modelsim-style dynamic
simulation the paper uses to time the multiplier per weight value
(Sec. III-B, Fig. 5).  Nets that do not switch have no event and therefore
do not constrain timing.

Everything is vectorized over the batch of transitions, and the engine
leans on the same packed evaluation as :mod:`repro.sim.logic`:

* the before/after patterns are evaluated as **one** stacked, bit-packed
  pass over the netlist (half the passes of the naive two-evaluation
  approach), and the toggle matrix falls out of a word-wise XOR of the
  two halves;
* arrival times cannot be bit-packed (they are floats), but the per-net
  + per-fanin Python loops fuse into per-level vectorized max-reductions
  over the :class:`~repro.netlist.gates.LevelSchedule` — ~depth x
  gate-type batched ops instead of ~N x fanin Python iterations.

The result is bit-for-bit identical to the original two-pass, per-net
walk, which the test suite keeps as its oracle: float max is exact and
associative, and the adds happen in the same order per net.
"""

from __future__ import annotations

import itertools
from typing import Mapping, Optional, Tuple, Union

import numpy as np

from repro.netlist.gates import Netlist, PackedNetlist
from repro.sim.logic import _infer_batch, evaluate_words, unpack_bits

#: Streaming-DTA window, in samples.  Must be a multiple of 64 so
#: every window boundary is word-aligned in the packed XOR matrix.
#: 2048 samples keeps the per-window arrival slab of a MAC-sized
#: netlist (~1k nets x 2k float64 ~= 16 MB) inside the cache-friendly
#: range while amortizing the per-window level walk.
STREAM_WINDOW_SAMPLES = 2048


def _packed(netlist: Union[Netlist, PackedNetlist]) -> PackedNetlist:
    return netlist if isinstance(netlist, PackedNetlist) else netlist.packed()


def _stacked_inputs(packed: PackedNetlist,
                    inputs_before: Mapping[str, np.ndarray],
                    inputs_after: Mapping[str, np.ndarray],
                    ) -> Tuple[Mapping[str, np.ndarray], int]:
    """One ``[before..., after...]`` feed from the two assignments."""
    names = packed.netlist.input_names
    missing = (set(names) - set(inputs_before)) \
        | (set(names) - set(inputs_after))
    if missing:
        raise ValueError(f"missing values for inputs: {sorted(missing)}")
    batch = _infer_batch(itertools.chain(inputs_before.values(),
                                         inputs_after.values()))
    stacked = {}
    for name in names:
        before = np.broadcast_to(
            np.asarray(inputs_before[name], dtype=bool), (batch,))
        after = np.broadcast_to(
            np.asarray(inputs_after[name], dtype=bool), (batch,))
        stacked[name] = np.concatenate([before, after])
    return stacked, batch


def dynamic_arrival_times(netlist: Union[Netlist, PackedNetlist], library,
                          inputs_before: Mapping[str, np.ndarray],
                          inputs_after: Mapping[str, np.ndarray],
                          out: Optional[np.ndarray] = None,
                          ) -> Tuple[np.ndarray, np.ndarray]:
    """Arrival time of the switching event on every net, per transition.

    Args:
        netlist: Circuit to analyze.
        library: Cell library supplying gate delays.
        inputs_before: Input assignment before the transition.
        inputs_after: Input assignment after the transition.
        out: Optional preallocated C-contiguous ``float64`` array of
            shape ``(nets, batch)`` receiving the arrival times.  A
            fresh matrix of this size costs one page fault per written
            page; callers timing many same-sized batches (the
            per-weight characterization walks hundreds) should reuse
            one buffer.  Contents are overwritten; the returned
            ``arrivals`` *is* ``out``.

    Returns:
        ``(arrivals, toggled)`` where ``arrivals[net, sample]`` is the
        event arrival time in ps (0 for non-switching nets) and
        ``toggled[net, sample]`` flags whether the net switched at all.
    """
    packed = _packed(netlist)
    stacked, batch = _stacked_inputs(packed, inputs_before, inputs_after)
    values = evaluate_words(packed, stacked, batch=2 * batch,
                            pair_halves=True)
    before_words, after_words = values.halves()
    toggled = unpack_bits(before_words ^ after_words, batch)
    delays = packed.gate_delays(library)

    if out is None:
        arrivals = np.zeros((len(packed), batch), dtype=np.float64)
    else:
        if out.shape != (len(packed), batch) \
                or out.dtype != np.float64 \
                or not out.flags.c_contiguous:
            raise ValueError(
                f"out must be a C-contiguous float64 array of shape "
                f"({len(packed)}, {batch})")
        arrivals = out
        # Gate rows are fully overwritten by their group's scatter;
        # only source rows (never scheduled) must be cleared.
        arrivals[packed.schedule.levels == 0] = 0.0
    _propagate_window(packed, delays, arrivals, toggled)
    return arrivals, toggled


def _propagate_window(packed: PackedNetlist, delays: np.ndarray,
                      arrivals: np.ndarray,
                      toggled: np.ndarray) -> None:
    """Levelized arrival propagation over the samples of ``arrivals``.

    Gate rows of ``arrivals`` are overwritten; source rows must hold 0.
    Sample columns are independent, so running it over the whole batch
    or over windows of it gives the same values.
    """
    for group in packed.schedule.fanin_groups:
        # Latest switching-fanin arrival, fused across the whole group:
        # gather each fanin's arrival rows and max-reduce in place.
        latest = arrivals[group.f0]
        if group.n_fanins >= 2:
            np.maximum(latest, arrivals[group.f1], out=latest)
        if group.n_fanins >= 3:
            np.maximum(latest, arrivals[group.f2], out=latest)
        latest += delays[group.dst][:, None]
        # Only nets that actually switch carry an event; their event
        # lags the latest switching fanin by the gate delay.  The
        # boolean mask-multiply is bit-identical to
        # ``np.where(toggled, latest, 0.0)`` — arrivals are finite and
        # non-negative, so ``x * True == x`` and ``x * False == 0.0``
        # exactly — and avoids np.where's much slower select pass.
        latest *= toggled[group.dst]
        arrivals[group.dst] = latest


def dynamic_bus_arrivals(netlist: Union[Netlist, PackedNetlist], library,
                         inputs_before: Mapping[str, np.ndarray],
                         inputs_after: Mapping[str, np.ndarray],
                         nets: np.ndarray,
                         window: Optional[int] = None,
                         words_out: Optional[np.ndarray] = None,
                         arrivals_out: Optional[np.ndarray] = None,
                         ) -> np.ndarray:
    """Streaming DTA: arrival times of ``nets`` only.

    The dense ``(nets, batch)`` arrival matrix of
    :func:`dynamic_arrival_times` is written once and read only at the
    output bus in the hot characterization path.  This entry point runs
    the same levelized propagation over ``window``-sample slabs of a
    reused ``(all_nets, window)`` buffer and *retains* only the
    requested rows (product bits / output bus), copying them out per
    slab.  It is bit-for-bit identical to the dense engine: the per-net
    op order is unchanged and sample columns are independent.

    Args:
        netlist: Circuit to analyze.
        library: Cell library supplying gate delays.
        inputs_before / inputs_after: The transition's two assignments.
        nets: Net indices whose arrival rows to return.
        window: Slab width in samples (multiple of 64); defaults to
            :data:`STREAM_WINDOW_SAMPLES`.
        words_out: Optional reusable word matrix for the stacked value
            evaluation (see :func:`evaluate_words`).
        arrivals_out: Optional reusable C-contiguous ``float64`` buffer
            of shape ``(all_nets, min(window, batch))`` for the
            propagation.

    Returns:
        ``float64`` arrivals of shape ``(len(nets), batch)`` — equal to
        ``dynamic_arrival_times(...)[0][nets]``.
    """
    packed = _packed(netlist)
    stacked, batch = _stacked_inputs(packed, inputs_before, inputs_after)
    values = evaluate_words(packed, stacked, batch=2 * batch,
                            pair_halves=True, words_out=words_out)
    before_words, after_words = values.halves()
    xor_words = before_words ^ after_words
    delays = packed.gate_delays(library)
    nets = np.ascontiguousarray(nets, dtype=np.int64)
    out = np.empty((nets.size, batch), dtype=np.float64)

    if window is None:
        window = STREAM_WINDOW_SAMPLES
    if window <= 0 or window % 64:
        raise ValueError(
            f"window must be a positive multiple of 64, got {window}")
    slab = min(window, batch)
    if arrivals_out is None:
        arrivals = np.zeros((len(packed), slab), dtype=np.float64)
    else:
        if arrivals_out.shape != (len(packed), slab) \
                or arrivals_out.dtype != np.float64 \
                or not arrivals_out.flags.c_contiguous:
            raise ValueError(
                f"arrivals_out must be a C-contiguous float64 array of "
                f"shape ({len(packed)}, {slab})")
        arrivals = arrivals_out
        # Source rows are never scheduled; clear them once so a dirty
        # buffer cannot leak into the propagation (gate rows are fully
        # overwritten per slab).
        arrivals[packed.schedule.levels == 0] = 0.0

    for start in range(0, batch, window):
        stop = min(start + window, batch)
        n = stop - start
        # Window starts are word-aligned (window % 64 == 0), so the
        # toggle slab unpacks straight from the XOR word columns.
        toggled = unpack_bits(
            xor_words[:, start // 64:(stop + 63) // 64], n)
        slab_view = arrivals[:, :n]
        _propagate_window(packed, delays, slab_view, toggled)
        out[:, start:stop] = slab_view[nets]
    return out


def dynamic_delays(netlist: Union[Netlist, PackedNetlist], library,
                   inputs_before: Mapping[str, np.ndarray],
                   inputs_after: Mapping[str, np.ndarray]) -> np.ndarray:
    """Per-transition sensitized delay to the primary outputs.

    The delay of a transition is the latest switching event observed on
    any primary output; transitions that leave all outputs stable have
    delay 0.
    """
    packed = _packed(netlist)
    arrivals, __ = dynamic_arrival_times(packed, library, inputs_before,
                                         inputs_after)
    outputs = list(packed.netlist.output_names.values())
    if not outputs:
        raise ValueError("netlist has no outputs to time")
    return arrivals[outputs].max(axis=0)


def output_bus_arrivals(netlist: Union[Netlist, PackedNetlist],
                        arrivals: np.ndarray, prefix: str,
                        width: int) -> np.ndarray:
    """Arrival times of a named output bus, shape ``(width, batch)``."""
    packed = _packed(netlist)
    nets = packed.netlist.output_bus(prefix, width)
    return arrivals[nets]
