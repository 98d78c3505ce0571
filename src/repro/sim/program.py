"""Level program: the gate-simulation executor over packed words.

The levelized schedule (:class:`~repro.netlist.gates.LevelSchedule`) is
a tuple of per-(level, type) :class:`~repro.netlist.gates.GateGroup`
objects (~100–150 groups per netlist, most only a handful of gates
wide), so walking it group by group costs one Python dispatch per
group.  A :class:`LevelProgram` flattens that schedule into contiguous
typed arrays — per-gate opcode, fanin and output net indices — and
:meth:`LevelProgram.run` executes it one *level* at a time.

The program reorders gates *within* each level (any within-level order
is valid — levels only read strictly earlier levels) to make each level
a handful of numpy calls:

* the three binary ufunc families form contiguous runs
  (``AND2|NAND2``, ``OR2|NOR2``, ``XOR2|XNOR2``), so each level needs
  at most three batched binary ops regardless of how many (level, type)
  groups the schedule had;
* all inverting types (``NAND2``/``NOR2``/``XNOR2``/``INV``) fold into
  one per-gate ``inv_mask`` word (all-ones where the result must be
  complemented), applied as a single broadcast XOR per level — ``INV``
  and ``BUF`` never need an op of their own (``BUF`` is the bare
  gathered fanin, ``INV`` the gathered fanin XOR all-ones);
* ``MUX2`` is always the level's tail run, with its third fanin
  appended to the level's single merged gather index
  (``[src0 | src1 | mux src2]``), so one fancy-index load fetches every
  operand of the level.

``level_plan`` precomputes the per-level slice arithmetic as plain
Python ints, keeping numpy scalar extraction out of the executor loop.

The program is a pure function of the netlist; it is built once,
cached on :class:`~repro.netlist.gates.PackedNetlist` alongside the
schedule, and pickles warm to characterization workers (no per-shard
rebuild).  Its results are bit-for-bit those of the per-gate reference
walk; the equivalence suite checks that.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

from repro.netlist.gates import GateGroup, GateType, LevelSchedule

#: Within-level execution order of the program: binary ufunc families
#: first (paired with their inverting twins so each family is one
#: contiguous run), then the op-free unary types, MUX2 last.
_TYPE_PRIORITY: Dict[int, int] = {
    GateType.AND2: 0, GateType.NAND2: 1,
    GateType.OR2: 2, GateType.NOR2: 3,
    GateType.XOR2: 4, GateType.XNOR2: 5,
    GateType.INV: 6, GateType.BUF: 7,
    GateType.MUX2: 8,
}

#: Types whose result is complemented via the broadcast invert mask.
_INVERTING = frozenset({GateType.NAND2, GateType.NOR2,
                        GateType.XNOR2, GateType.INV})

#: Binary ufunc family of each two-input type (index into
#: :data:`_BINOP_UFUNCS`).
_BINOP_FAMILY: Dict[int, int] = {
    GateType.AND2: 0, GateType.NAND2: 0,
    GateType.OR2: 1, GateType.NOR2: 1,
    GateType.XOR2: 2, GateType.XNOR2: 2,
}

#: Binary ufunc family table, indexed by the program's run family ids.
_BINOP_UFUNCS = (np.bitwise_and, np.bitwise_or, np.bitwise_xor)


class LevelProgram:
    """Flattened, typed opcode-array view of a :class:`LevelSchedule`.

    All per-gate arrays are aligned, length ``n_gates``, in *program*
    order: level-major like the schedule, but within a level sorted by
    :data:`_TYPE_PRIORITY` — executing gates in array order still
    respects every data dependency.

    Attributes:
        n_nets: Number of nets (rows of the value matrix).
        n_gates: Number of scheduled gate instances.
        ops: Per-gate opcode (:class:`GateType` value), ``int32``.
        src0 / src1 / src2: Per-gate fanin net indices (-1 unused).
        dst: Per-gate output net index.
        inv_mask: Per-gate ``uint64`` complement mask (all ones for the
            inverting types, zero otherwise).
        gather_idx: Flat ``int32`` net indices of every level's merged
            operand gather ``[src0 | src1 | mux src2]``, where unary
            gates gather ``src0`` again in the ``src1`` slot (keeping
            the level-wide blind load in bounds; the value is never
            read); per-level extents live in ``level_plan``.
        level_plan: Per level, a plain-int tuple
            ``(start, stop, mux_start, g_start, g_stop, has_invert,
            binop_runs)`` where ``mux_start`` is the gate index where
            the MUX2 tail begins (``stop`` when the level has none) and
            ``binop_runs`` is a tuple of ``(family, rel_start,
            rel_stop)`` relative to ``start``.
    """

    def __init__(self, schedule: LevelSchedule) -> None:
        groups = schedule.groups
        n_gates = int(sum(g.dst.size for g in groups))
        self.n_nets = int(schedule.levels.size)
        self.n_gates = n_gates

        self.ops = np.empty(n_gates, dtype=np.int32)
        self.dst = np.empty(n_gates, dtype=np.int32)
        self.src0 = np.empty(n_gates, dtype=np.int32)
        self.src1 = np.empty(n_gates, dtype=np.int32)
        self.src2 = np.empty(n_gates, dtype=np.int32)
        self.inv_mask = np.zeros(n_gates, dtype=np.uint64)

        # Bucket the schedule's (level, type) groups by level; within a
        # level re-sort them by the executor-friendly priority.
        by_level: Dict[int, List[GateGroup]] = {}
        for group in groups:
            level = int(schedule.levels[group.dst[0]])
            by_level.setdefault(level, []).append(group)

        all_ones = ~np.uint64(0)
        gather_parts: List[np.ndarray] = []
        level_plan: List[Tuple] = []
        g_pos = 0
        pos = 0
        for level in sorted(by_level):
            ordered = sorted(by_level[level],
                             key=lambda g: _TYPE_PRIORITY[g.gtype])
            start = pos
            mux_start = None
            binop_runs: List[Tuple[int, int, int]] = []
            has_invert = False
            for group in ordered:
                size = group.dst.size
                span = slice(pos, pos + size)
                self.ops[span] = group.gtype
                self.dst[span] = group.dst
                self.src0[span] = group.f0
                self.src1[span] = group.f1
                self.src2[span] = group.f2
                if group.gtype in _INVERTING:
                    self.inv_mask[span] = all_ones
                    has_invert = True
                family = _BINOP_FAMILY.get(group.gtype)
                if family is not None:
                    if binop_runs and binop_runs[-1][0] == family \
                            and binop_runs[-1][2] == pos - start:
                        # Extend the run across the paired twin type.
                        binop_runs[-1] = (family, binop_runs[-1][1],
                                          pos - start + size)
                    else:
                        binop_runs.append((family, pos - start,
                                           pos - start + size))
                if group.gtype == GateType.MUX2 and mux_start is None:
                    mux_start = pos
                pos += size
            stop = pos
            if mux_start is None:
                mux_start = stop

            # One merged operand gather per level: every gate's first
            # and second fanin (src1 redirected to src0 for unary
            # gates, keeping the blind load in bounds), plus the MUX
            # tail's third fanin.
            src1_safe_level = np.where(self.src1[start:stop] >= 0,
                                       self.src1[start:stop],
                                       self.src0[start:stop])
            parts = [self.src0[start:stop], src1_safe_level]
            if mux_start < stop:
                parts.append(self.src2[mux_start:stop])
            gather = np.concatenate(parts).astype(np.int32)
            gather_parts.append(gather)
            level_plan.append((start, stop, mux_start,
                               g_pos, g_pos + gather.size,
                               has_invert, tuple(binop_runs)))
            g_pos += gather.size

        self.gather_idx = (np.concatenate(gather_parts)
                           if gather_parts
                           else np.empty(0, dtype=np.int32))
        self.level_plan: Tuple[Tuple, ...] = tuple(level_plan)

    @property
    def n_levels(self) -> int:
        """Number of levels that contain at least one gate."""
        return len(self.level_plan)

    def run(self, words: np.ndarray) -> None:
        """Execute the program over packed ``(nets, n_words)`` words,
        in place.

        Per level: one merged fancy-index gather loads every operand
        word, each binary family is one in-place ufunc call on its
        contiguous run, one broadcast XOR with ``inv_mask`` complements
        the NAND/NOR/XNOR/INV results (BUF rides along with a zero
        mask), the MUX2 tail evaluates ``p ^ (sel & (p ^ q))`` inside
        the gathered block, and one scatter writes the level's outputs
        back.  Padding bits beyond the batch may take arbitrary values
        (inverting gates set them); word ops never mix words, so they
        cannot reach a valid sample.
        """
        dst = self.dst
        gather_idx = self.gather_idx
        inv_mask = self.inv_mask
        for (start, stop, mux_start, g_start, g_stop,
             has_invert, binop_runs) in self.level_plan:
            n = stop - start
            block = words[gather_idx[g_start:g_stop]]
            a = block[:n]
            b = block[n:2 * n]
            for (family, r0, r1) in binop_runs:
                _BINOP_UFUNCS[family](a[r0:r1], b[r0:r1], out=a[r0:r1])
            if has_invert:
                a ^= inv_mask[start:stop, None]
            if mux_start < stop:
                # out = p ^ (sel & (p ^ q)) — p if sel==0 else q — with
                # sel in a's tail, p in b's tail, q in the gathered c
                # block; computed in place, then folded into ``a`` so
                # the level needs a single scatter.
                m = mux_start - start
                c = block[2 * n:]
                bm = b[m:]
                np.bitwise_xor(c, bm, out=c)
                np.bitwise_and(c, a[m:], out=c)
                np.bitwise_xor(c, bm, out=c)
                a[m:] = c
            words[dst[start:stop]] = a

    def stats(self) -> Dict[str, int]:
        """Program shape summary (for benchmarks and logs)."""
        return {
            "n_nets": self.n_nets,
            "n_gates": self.n_gates,
            "n_levels": self.n_levels,
            "n_binop_runs": int(sum(len(plan[6])
                                    for plan in self.level_plan)),
        }
