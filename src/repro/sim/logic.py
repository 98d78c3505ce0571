"""Batched Boolean evaluation of gate-level netlists.

Net values are evaluated over *bit-packed* batches: each net's row is
``uint64`` words holding 64 samples each, so every gate op processes
64 stimuli per machine word and memory traffic drops 8x vs ``bool``.
The gates run through the netlist's cached
:class:`~repro.sim.program.LevelProgram`, one level at a time, so a
pass is ~``depth`` x a few word-wide numpy ops instead of one Python
iteration per gate.  Toggle statistics reduce straight from packed
words via popcount (:func:`popcount_words`) without ever materializing
the boolean matrix.

Simulating the 2^16 activation transitions of the paper's timing
characterization is therefore a few hundred word-wide array ops rather
than 65536 separate simulations.  The per-gate interpreted walk these
kernels replaced is kept in the test suite as the oracle they must
equal bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterable, Mapping, Optional, Tuple, Union

import numpy as np

from repro.netlist.gates import Netlist, PackedNetlist

ArrayLike = Union[np.ndarray, int, bool]

#: Samples per machine word in the packed representation.
WORD_BITS = 64

#: Storage dtype of packed words: explicitly little-endian so the
#: byte-level pack/unpack layout is identical on every platform.
WORD_DTYPE = np.dtype("<u8")


def int_to_bits(values: np.ndarray, width: int) -> np.ndarray:
    """Two's-complement bit decomposition, LSB first.

    Args:
        values: Integer array (any signed/unsigned dtype); negative values
            are encoded in two's complement within ``width`` bits.
        width: Number of bits.

    Returns:
        Boolean array of shape ``values.shape + (width,)``.
    """
    values = np.asarray(values)
    # One C pass through np.unpackbits on the little-endian byte view
    # instead of per-bit shift/mask over int64 temporaries (~3x less
    # memory traffic; the characterization feeds megabatch-sized buses
    # through here).
    unsigned = np.mod(values, 1 << width).astype("<i8")
    raw = unsigned.reshape(unsigned.shape + (1,)).view(np.uint8)
    return np.unpackbits(raw, axis=-1, count=width,
                         bitorder="little").view(bool)


def bits_to_int(bits: np.ndarray, signed: bool = True) -> np.ndarray:
    """Inverse of :func:`int_to_bits` (LSB-first bits on the last axis)."""
    bits = np.asarray(bits, dtype=np.int64)
    width = bits.shape[-1]
    weights = 1 << np.arange(width, dtype=np.int64)
    if signed:
        weights = weights.copy()
        weights[-1] = -weights[-1]
    return (bits * weights).sum(axis=-1)


# ----------------------------------------------------------------------
# bit packing
# ----------------------------------------------------------------------
def pack_bits(bits: np.ndarray) -> np.ndarray:
    """Pack a boolean batch axis into ``uint64`` words, LSB first.

    Args:
        bits: Boolean array whose *last* axis is the sample axis.

    Returns:
        Array of :data:`WORD_DTYPE` words, last axis ``ceil(n / 64)``;
        sample ``i`` lives in bit ``i % 64`` of word ``i // 64``.  Tail
        bits beyond the batch are zero.
    """
    bits = np.ascontiguousarray(bits, dtype=bool)
    packed = np.packbits(bits, axis=-1, bitorder="little")
    pad = (-packed.shape[-1]) % (WORD_BITS // 8)
    if pad:
        pad_widths = [(0, 0)] * (packed.ndim - 1) + [(0, pad)]
        packed = np.pad(packed, pad_widths)
    return packed.view(WORD_DTYPE)


def unpack_bits(words: np.ndarray, batch: int) -> np.ndarray:
    """Inverse of :func:`pack_bits`: the first ``batch`` samples."""
    raw = np.ascontiguousarray(words).view(np.uint8)
    bits = np.unpackbits(raw, axis=-1, count=batch, bitorder="little")
    return bits.view(bool)


#: 8-bit popcount lookup table backing the portable fallback.
_POPCOUNT_TABLE = np.unpackbits(
    np.arange(256, dtype=np.uint8)[:, None], axis=1
).sum(axis=1).astype(np.uint8)

#: Once-per-process capability decision shared by every popcount
#: reduction (row-wise and per-word): probed exactly once at import,
#: never inside a hot loop.  Worker processes re-probe on their own
#: import, so a heterogeneous pool still picks the right kernel per
#: interpreter.
_HAS_NATIVE_POPCOUNT: bool = hasattr(np, "bitwise_count")


def _popcount_lookup(words: np.ndarray) -> np.ndarray:
    """Per-row set-bit counts via an 8-bit table (works on any numpy)."""
    raw = np.ascontiguousarray(words).view(np.uint8)
    return _POPCOUNT_TABLE[raw].sum(axis=-1, dtype=np.int64)


def _popcount_native(words: np.ndarray) -> np.ndarray:
    """Per-row set-bit counts via ``np.bitwise_count`` (numpy >= 2.0)."""
    return np.bitwise_count(words).sum(axis=-1, dtype=np.int64)


def _popcount_per_word_lookup(words: np.ndarray) -> np.ndarray:
    """Set bits of each individual word via the 8-bit table."""
    raw = np.ascontiguousarray(words).view(np.uint8)
    per_byte = _POPCOUNT_TABLE[raw].astype(np.int64)
    return per_byte.reshape(words.shape + (WORD_BITS // 8,)).sum(axis=-1)


def _popcount_per_word_native(words: np.ndarray) -> np.ndarray:
    """Set bits of each individual word via ``np.bitwise_count``."""
    return np.bitwise_count(words).astype(np.int64)


#: Active popcount reductions, selected once per process from the
#: cached capability probe above.  Tests monkeypatch these to cover
#: both implementations.
_popcount_impl: Callable[[np.ndarray], np.ndarray] = (
    _popcount_native if _HAS_NATIVE_POPCOUNT else _popcount_lookup
)
_popcount_per_word_impl: Callable[[np.ndarray], np.ndarray] = (
    _popcount_per_word_native if _HAS_NATIVE_POPCOUNT
    else _popcount_per_word_lookup
)


def popcount_words(words: np.ndarray,
                   batch: Optional[int] = None) -> np.ndarray:
    """Number of set bits per row, summed over the last (word) axis.

    Beware that evaluated words carry *arbitrary* values in the padding
    bits beyond the batch (inverting gates and CONST1 set them), so raw
    counts over :attr:`PackedValues.words` include that garbage.  Two
    safe ways to count:

    * XOR word matrices that computed the same function of identical
      padding (the paired toggle path) — the padding cancels;
    * pass ``batch`` for a single contiguously packed layout and the
      tail word is masked here first (do *not* pass it for the
      two-half ``pair_halves`` layout, whose tails sit mid-row).
    """
    if batch is not None:
        tail = batch % WORD_BITS
        if tail:
            words = words.copy()
            words[..., -1] &= np.uint64((1 << tail) - 1)
    return _popcount_impl(words)


def popcount_words_segmented(words: np.ndarray,
                             starts: np.ndarray) -> np.ndarray:
    """Per-segment set-bit counts along the last (word) axis.

    The segmented reduction of the weight-batched characterization
    path: one megabatch word matrix holds many contiguous per-weight
    segments, and the per-weight toggle counts fall out of a single
    per-word popcount followed by ``np.add.reduceat`` at the segment
    boundaries — no per-segment Python loop, no per-segment copies.

    Args:
        words: Packed word array; the last axis is the word axis.
        starts: Monotonically increasing segment start indices into the
            word axis (``starts[0]`` must be 0); segment ``k`` spans
            ``words[..., starts[k]:starts[k + 1]]``, the last one
            running to the end of the axis.

    Returns:
        ``int64`` counts of shape ``words.shape[:-1] + (len(starts),)``.

    The same padding caveat as :func:`popcount_words` applies: feed it
    XOR-cancelled toggle words (or otherwise padding-clean rows).
    """
    starts = np.asarray(starts, dtype=np.intp)
    per_word = _popcount_per_word_impl(words)
    return np.add.reduceat(per_word, starts, axis=-1)


@dataclass(frozen=True)
class PackedValues:
    """Bit-packed result of :func:`evaluate_words`.

    Attributes:
        words: ``(nets, n_words)`` packed values, :data:`WORD_DTYPE`.
        batch: Number of valid samples.
        half_batch: When set, the batch is two word-aligned halves of
            this many samples each (a stacked before/after pair): words
            ``[:W/2]`` hold samples ``[0, half_batch)`` and words
            ``[W/2:]`` hold samples ``[half_batch, batch)``.  The
            alignment is what lets toggle extraction XOR the halves
            word-for-word even when ``half_batch % 64 != 0``.
    """

    words: np.ndarray
    batch: int
    half_batch: Optional[int] = None

    def unpack(self) -> np.ndarray:
        """Boolean ``values[net, sample]`` matrix (drops padding)."""
        if self.half_batch is None:
            return unpack_bits(self.words, self.batch)
        half_words = self.words.shape[-1] // 2
        return np.concatenate(
            [unpack_bits(self.words[:, :half_words], self.half_batch),
             unpack_bits(self.words[:, half_words:],
                         self.batch - self.half_batch)],
            axis=-1,
        )

    def halves(self) -> "tuple[np.ndarray, np.ndarray]":
        """The (before, after) word matrices of a paired evaluation."""
        if self.half_batch is None:
            raise ValueError(
                "not a paired evaluation; call evaluate_words(..., "
                "pair_halves=True)")
        half_words = self.words.shape[-1] // 2
        return self.words[:, :half_words], self.words[:, half_words:]


@dataclass(frozen=True)
class BatchedPackedValues:
    """Bit-packed result of one :func:`evaluate_words_batched` launch.

    The megabatch stacks ``n_segments`` independent stimulus segments
    (one per characterized weight value, in the hot path) along the
    packed word axis, each laid out exactly as the matching standalone
    :func:`evaluate_words` call would lay it out:

    ``words[:, k * wps : (k + 1) * wps]`` — segment ``k``
    (``wps = words_per_segment``), itself split into word-aligned
    before/after halves when ``half_batch`` is set.

    Consumers reduce straight from the packed words through the
    per-segment *views* below — no dense per-net boolean matrix is ever
    materialized for toggle statistics.

    Attributes:
        words: ``(nets, n_segments * words_per_segment)`` packed values.
        n_segments: Number of stacked segments.
        batch: Valid samples *per segment*.
        half_batch: When set, each segment is a word-aligned stacked
            before/after pair of this many samples (see
            :class:`PackedValues`).
    """

    words: np.ndarray
    n_segments: int
    batch: int
    half_batch: Optional[int] = None

    @property
    def words_per_segment(self) -> int:
        return self.words.shape[-1] // self.n_segments

    def segment(self, k: int) -> PackedValues:
        """Zero-copy :class:`PackedValues` view of segment ``k``.

        Bit-for-bit identical (words, layout and all) to evaluating the
        segment's stimulus through a standalone :func:`evaluate_words`
        call — the equivalence the whole one-launch characterization
        path rests on.
        """
        if not 0 <= k < self.n_segments:
            raise IndexError(
                f"segment {k} out of range [0, {self.n_segments})")
        wps = self.words_per_segment
        return PackedValues(words=self.words[:, k * wps:(k + 1) * wps],
                            batch=self.batch, half_batch=self.half_batch)

    def paired_toggle_counts(self) -> np.ndarray:
        """Per-net toggle counts of every segment, shape
        ``(n_segments, nets)``.

        XORs each segment's word-aligned before/after halves (padding
        bits cancel: both halves compute the same function of identical
        padding) and reduces through the segmented popcount
        (:func:`popcount_words_segmented`) — one fused reduction over
        the whole megabatch.  Row ``k`` is C-contiguous and bit-for-bit
        equal to ``popcount_words(before ^ after)`` of the standalone
        per-segment evaluation.
        """
        if self.half_batch is None:
            raise ValueError(
                "not a paired evaluation; call evaluate_words_batched("
                "..., pair_halves=True)")
        wps = self.words_per_segment
        view = self.words.reshape(self.words.shape[0], self.n_segments,
                                  2, wps // 2)
        xor = view[:, :, 0, :] ^ view[:, :, 1, :]
        counts = popcount_words_segmented(
            xor.reshape(xor.shape[0], -1),
            np.arange(self.n_segments, dtype=np.intp) * (wps // 2))
        return np.ascontiguousarray(counts.T)


# ----------------------------------------------------------------------
# shared input plumbing
# ----------------------------------------------------------------------
def _resolve_packed(netlist: Union[Netlist, PackedNetlist]) -> PackedNetlist:
    if isinstance(netlist, PackedNetlist):
        return netlist
    return netlist.packed()


def _broadcast_shape(values: Iterable[ArrayLike]) -> Tuple[int, ...]:
    """The shape every input value broadcasts to (``()`` for scalars).

    Taken over *all* values, so the result does not depend on the
    order of the feed: a length-1 row next to a full row broadcasts
    to the full row whichever comes first.
    """
    return np.broadcast_shapes(*(np.shape(value) for value in values))


def _infer_batch(values: Iterable[ArrayLike],
                 batch: Optional[int] = None) -> int:
    """Samples per input row: ``batch`` or the broadcast row length."""
    if batch is not None:
        return batch
    shape = _broadcast_shape(values)
    return shape[-1] if shape else 1


def _input_matrix(packed: PackedNetlist,
                  inputs: Mapping[str, ArrayLike],
                  batch: int) -> "tuple[np.ndarray, np.ndarray]":
    """``(input_nets, bits)`` with one broadcast boolean row per input."""
    names = packed.netlist.input_names
    missing = set(names) - set(inputs)
    if missing:
        raise ValueError(f"missing values for inputs: {sorted(missing)}")
    nets = np.fromiter(names.values(), dtype=np.int64, count=len(names))
    bits = np.empty((len(names), batch), dtype=bool)
    for row, name in enumerate(names):
        arr = np.asarray(inputs[name], dtype=bool)
        bits[row] = np.broadcast_to(arr, (batch,))
    return nets, bits


def _input_matrix_batched(packed: PackedNetlist,
                          inputs: Mapping[str, ArrayLike],
                          n_segments: int, batch: int
                          ) -> "tuple[np.ndarray, np.ndarray]":
    """``(input_nets, bits)`` with bits shaped ``(inputs, segs, batch)``.

    Each input value broadcasts against ``(n_segments, batch)``: a
    scalar fans out everywhere, a ``(batch,)`` row is shared by every
    segment, a ``(n_segments, 1)`` column freezes one value per segment
    (the weight bus of the characterization megabatch), and a full
    ``(n_segments, batch)`` matrix varies freely.
    """
    names = packed.netlist.input_names
    missing = set(names) - set(inputs)
    if missing:
        raise ValueError(f"missing values for inputs: {sorted(missing)}")
    nets = np.fromiter(names.values(), dtype=np.int64, count=len(names))
    bits = np.empty((len(names), n_segments, batch), dtype=bool)
    for row, name in enumerate(names):
        arr = np.asarray(inputs[name], dtype=bool)
        bits[row] = np.broadcast_to(arr, (n_segments, batch))
    return nets, bits


def _prepare_words(packed: PackedNetlist, n_words: int,
                   words_out: Optional[np.ndarray]) -> np.ndarray:
    """The word matrix a packed evaluation writes into.

    With ``words_out`` the caller's buffer is reused instead of
    allocating a fresh matrix (hot chunked loops pay one page fault per
    written page otherwise).  Every row is fully rewritten *except*
    constant-0 sources, which the fresh-zeros path got for free — so
    those rows are explicitly cleared here.
    """
    if words_out is None:
        return np.zeros((len(packed), n_words), dtype=WORD_DTYPE)
    if words_out.dtype != WORD_DTYPE \
            or words_out.shape != (len(packed), n_words) \
            or not words_out.flags.c_contiguous:
        raise ValueError(
            f"words_out must be a C-contiguous {WORD_DTYPE} array of "
            f"shape ({len(packed)}, {n_words})")
    schedule = packed.schedule
    if schedule.const0.size:
        words_out[schedule.const0] = 0
    return words_out


def evaluate_words(netlist: Union[Netlist, PackedNetlist],
                   inputs: Mapping[str, ArrayLike],
                   batch: Optional[int] = None,
                   pair_halves: bool = False,
                   words_out: Optional[np.ndarray] = None
                   ) -> PackedValues:
    """Evaluate every net over bit-packed batches; stay packed.

    The packed-domain twin of :func:`evaluate` for consumers that
    reduce values to statistics (toggle rates via popcount) and never
    need the boolean matrix.

    Args:
        netlist: The circuit (or its packed view).
        inputs: Mapping from primary-input name to a boolean batch
            array or a scalar (broadcast over the batch).
        batch: Batch size; inferred from the array inputs (their
            broadcast length) when omitted.
        pair_halves: Treat the batch as a stacked before/after pair
            (``[before..., after...]``, even length) and pack each half
            word-aligned, so the halves can be XORed word-for-word (see
            :meth:`PackedValues.halves`).
        words_out: Optional preallocated C-contiguous word matrix of
            shape ``(nets, n_words)`` to evaluate into (reused across
            chunked launches); contents are overwritten and the
            returned values alias it.

    Returns:
        :class:`PackedValues` with one word row per net.
    """
    packed = _resolve_packed(netlist)
    batch = _infer_batch(inputs.values(), batch)
    input_nets, input_bits = _input_matrix(packed, inputs, batch)

    half_batch: Optional[int] = None
    if pair_halves:
        if batch % 2 != 0:
            raise ValueError(
                f"stacked batch of {batch} samples has no before/after "
                f"halves")
        half_batch = batch // 2
        packed_rows = np.concatenate(
            [pack_bits(input_bits[:, :half_batch]),
             pack_bits(input_bits[:, half_batch:])], axis=-1)
    else:
        packed_rows = pack_bits(input_bits)

    words = _prepare_words(packed, packed_rows.shape[-1], words_out)
    words[input_nets] = packed_rows
    schedule = packed.schedule
    if schedule.const1.size:
        words[schedule.const1] = ~np.uint64(0)
    packed.program.run(words)
    return PackedValues(words=words, batch=batch, half_batch=half_batch)


def evaluate_words_batched(netlist: Union[Netlist, PackedNetlist],
                           inputs: Mapping[str, ArrayLike],
                           n_segments: Optional[int] = None,
                           batch: Optional[int] = None,
                           pair_halves: bool = False
                           ) -> BatchedPackedValues:
    """Evaluate many stimulus segments in **one** kernel launch.

    The one-launch characterization primitive: ``n_segments``
    independent stimulus segments (one per frozen weight value, in the
    hot path) are packed side by side along the word axis and the level
    program walks the whole megabatch once — amortizing the per-level
    numpy dispatch overhead of :func:`evaluate_words` across every
    segment instead of paying it per segment.  The layout is flat
    contiguous ``uint64`` words per segment.

    Each segment's words are bit-for-bit identical to what a standalone
    :func:`evaluate_words` call on that segment's inputs would produce
    (word ops never mix words, so stacking segments cannot perturb
    results) — see :meth:`BatchedPackedValues.segment`.

    Args:
        netlist: The circuit (or its packed view).
        inputs: Mapping from primary-input name to anything
            broadcastable against ``(n_segments, batch)`` — scalars,
            shared ``(batch,)`` rows, per-segment ``(n_segments, 1)``
            columns, or full ``(n_segments, batch)`` matrices.
        n_segments: Number of segments; inferred from the shape all
            inputs broadcast to when omitted.
        batch: Samples per segment; inferred alongside ``n_segments``.
        pair_halves: Treat every segment as a stacked before/after pair
            and pack each half word-aligned (the toggle-extraction
            layout; see :func:`evaluate_words`).

    Returns:
        :class:`BatchedPackedValues` over the whole megabatch.
    """
    packed = _resolve_packed(netlist)
    if n_segments is None or batch is None:
        shape = _broadcast_shape(inputs.values())
        if len(shape) < 2:
            raise ValueError(
                "pass n_segments/batch explicitly when the inputs do "
                "not broadcast to an (n_segments, batch) matrix")
        n_segments = n_segments or shape[-2]
        batch = batch or shape[-1]
    input_nets, input_bits = _input_matrix_batched(
        packed, inputs, n_segments, batch)

    half_batch: Optional[int] = None
    if pair_halves:
        if batch % 2 != 0:
            raise ValueError(
                f"stacked batch of {batch} samples has no before/after "
                f"halves")
        half_batch = batch // 2
        # (inputs, segs, batch) is C-contiguous, so splitting the last
        # axis into before/after halves is a plain reshape — each half
        # then packs word-aligned in segment-major order.
        packed_rows = pack_bits(
            input_bits.reshape(len(input_bits), 2 * n_segments,
                               half_batch))
    else:
        packed_rows = pack_bits(input_bits)
    packed_rows = packed_rows.reshape(len(input_bits), -1)

    words = np.zeros((len(packed), packed_rows.shape[-1]),
                     dtype=WORD_DTYPE)
    words[input_nets] = packed_rows
    schedule = packed.schedule
    if schedule.const1.size:
        words[schedule.const1] = ~np.uint64(0)
    packed.program.run(words)
    return BatchedPackedValues(words=words, n_segments=n_segments,
                               batch=batch, half_batch=half_batch)


def evaluate(netlist: Union[Netlist, PackedNetlist],
             inputs: Mapping[str, ArrayLike],
             batch: Optional[int] = None) -> np.ndarray:
    """Evaluate every net of ``netlist`` for a batch of input patterns.

    Args:
        netlist: The circuit (or its packed view).
        inputs: Mapping from primary-input name (``"act[3]"`` style) to a
            boolean batch array or a scalar (broadcast over the batch).
        batch: Batch size; inferred from the array inputs (their
            broadcast length) when omitted.

    Returns:
        Boolean matrix ``values[net, sample]`` holding the logic value of
        every net for every pattern.
    """
    return evaluate_words(netlist, inputs, batch).unpack()


def bus_inputs(prefix: str, values: np.ndarray, width: int
               ) -> Dict[str, np.ndarray]:
    """Expand integers into per-wire input assignments for ``evaluate``.

    Example:
        >>> feed = bus_inputs("act", np.array([3, -1]), 8)
        >>> sorted(feed)[:2]
        ['act[0]', 'act[1]']
    """
    bits = int_to_bits(np.asarray(values), width)
    return {f"{prefix}[{i}]": bits[..., i] for i in range(width)}
