"""Netlist representation: typed gates over integer-indexed nets.

A :class:`Netlist` is a flat, topologically ordered list of nodes.  Each
node is either a primary input, a constant, or a gate instance driving one
net.  Nets are identified by their node index, so fanin references always
point at earlier nodes; this makes single-pass vectorized evaluation and
timing propagation possible (see :mod:`repro.sim`).

The structure intentionally mirrors what synthesis would emit: only simple
standard cells (INV/BUF/AND2/OR2/NAND2/NOR2/XOR2/XNOR2/MUX2), no buses and
no hierarchy.  Higher-level generators (:mod:`repro.netlist.adder`,
:mod:`repro.netlist.multiplier`) compose these cells into arithmetic
blocks.
"""

from __future__ import annotations

import enum
from typing import Dict, Iterator, List, NamedTuple, Optional, Sequence, \
    Tuple

import numpy as np


class GateType(enum.IntEnum):
    """Node kinds appearing in a netlist.

    ``INPUT``, ``CONST0`` and ``CONST1`` are sources; the remaining members
    are standard cells with the obvious Boolean function.  The integer
    values index dispatch tables in the simulators, so they must stay
    dense and stable.
    """

    INPUT = 0
    CONST0 = 1
    CONST1 = 2
    INV = 3
    BUF = 4
    AND2 = 5
    OR2 = 6
    NAND2 = 7
    NOR2 = 8
    XOR2 = 9
    XNOR2 = 10
    MUX2 = 11  # fanins: (select, a, b) -> b if select else a


#: Gate types that consume no fanins.
SOURCE_TYPES = frozenset(
    {GateType.INPUT, GateType.CONST0, GateType.CONST1}
)

#: Number of fanins for each gate type.
FANIN_COUNT: Dict[GateType, int] = {
    GateType.INPUT: 0,
    GateType.CONST0: 0,
    GateType.CONST1: 0,
    GateType.INV: 1,
    GateType.BUF: 1,
    GateType.AND2: 2,
    GateType.OR2: 2,
    GateType.NAND2: 2,
    GateType.NOR2: 2,
    GateType.XOR2: 2,
    GateType.XNOR2: 2,
    GateType.MUX2: 3,
}

#: Map from gate type to the library cell name carrying its physical data.
CELL_NAME: Dict[GateType, str] = {
    GateType.INV: "INV",
    GateType.BUF: "BUF",
    GateType.AND2: "AND2",
    GateType.OR2: "OR2",
    GateType.NAND2: "NAND2",
    GateType.NOR2: "NOR2",
    GateType.XOR2: "XOR2",
    GateType.XNOR2: "XNOR2",
    GateType.MUX2: "MUX2",
}


class Netlist:
    """A topologically ordered gate-level netlist.

    Nodes are appended through the ``add_*`` methods and may only reference
    already existing nodes, which guarantees topological order by
    construction.  Primary inputs and outputs carry string names; buses use
    the ``name[i]`` convention (least significant bit is index 0).
    """

    def __init__(self, name: str = "netlist") -> None:
        self.name = name
        self.types: List[GateType] = []
        # Fanins are stored padded to three entries; unused slots are -1.
        self.fanins: List[Tuple[int, int, int]] = []
        self.input_names: Dict[str, int] = {}
        self.output_names: Dict[str, int] = {}

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_input(self, name: str) -> int:
        """Append a primary input named ``name`` and return its net index."""
        if name in self.input_names:
            raise ValueError(f"duplicate input name {name!r}")
        idx = self._append(GateType.INPUT, ())
        self.input_names[name] = idx
        return idx

    def add_const(self, value: bool) -> int:
        """Append a constant-0 or constant-1 source."""
        return self._append(
            GateType.CONST1 if value else GateType.CONST0, ()
        )

    def add_gate(self, gtype: GateType, *fanins: int) -> int:
        """Append a gate of ``gtype`` driven by ``fanins``.

        Fanins must reference existing nodes (enforced), which keeps the
        list topologically sorted.
        """
        if gtype in SOURCE_TYPES:
            raise ValueError("use add_input/add_const for source nodes")
        expected = FANIN_COUNT[gtype]
        if len(fanins) != expected:
            raise ValueError(
                f"{gtype.name} expects {expected} fanins, got {len(fanins)}"
            )
        return self._append(gtype, fanins)

    def mark_output(self, name: str, net: int) -> None:
        """Expose ``net`` as a primary output called ``name``."""
        if name in self.output_names:
            raise ValueError(f"duplicate output name {name!r}")
        self._check_net(net)
        self.output_names[name] = net

    def _append(self, gtype: GateType, fanins: Sequence[int]) -> int:
        for fanin in fanins:
            self._check_net(fanin)
        padded = tuple(fanins) + (-1,) * (3 - len(fanins))
        self.types.append(gtype)
        self.fanins.append(padded)  # type: ignore[arg-type]
        return len(self.types) - 1

    def _check_net(self, net: int) -> None:
        if not 0 <= net < len(self.types):
            raise ValueError(f"net index {net} out of range")

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.types)

    @property
    def num_gates(self) -> int:
        """Number of actual cell instances (sources excluded)."""
        return sum(1 for t in self.types if t not in SOURCE_TYPES)

    def input_bus(self, prefix: str, width: int) -> List[int]:
        """Net indices of input bus ``prefix[0..width-1]``."""
        return [self.input_names[f"{prefix}[{i}]"] for i in range(width)]

    def output_bus(self, prefix: str, width: int) -> List[int]:
        """Net indices of output bus ``prefix[0..width-1]``."""
        return [self.output_names[f"{prefix}[{i}]"] for i in range(width)]

    def iter_gates(self) -> Iterator[Tuple[int, GateType, Tuple[int, ...]]]:
        """Yield ``(net, type, fanins)`` for every cell instance."""
        for net, (gtype, fanins) in enumerate(zip(self.types, self.fanins)):
            if gtype not in SOURCE_TYPES:
                yield net, gtype, tuple(
                    f for f in fanins if f >= 0
                )

    def cell_counts(self) -> Dict[str, int]:
        """Histogram of cell names used, e.g. ``{"XOR2": 112, ...}``."""
        counts: Dict[str, int] = {}
        for __, gtype, __fanins in self.iter_gates():
            cell = CELL_NAME[gtype]
            counts[cell] = counts.get(cell, 0) + 1
        return counts

    # ------------------------------------------------------------------
    # packed views for the vectorized simulators
    # ------------------------------------------------------------------
    def packed(self) -> "PackedNetlist":
        """Return numpy-packed arrays used by the simulators."""
        return PackedNetlist(self)


class GateGroup(NamedTuple):
    """One level's worth of same-type gates, ready for fancy indexing.

    All gates in a group live on the same topological level and share a
    :class:`GateType`, so one numpy expression evaluates the whole group
    (``values[dst] = values[f0] & values[f1]`` for an AND2 group).
    Unused fanin slots hold -1 and must not be indexed; ``n_fanins``
    says how many of ``f0``/``f1``/``f2`` are live for this type.
    """

    gtype: int
    n_fanins: int
    dst: np.ndarray
    f0: np.ndarray
    f1: np.ndarray
    f2: np.ndarray


class LevelSchedule:
    """Levelized, type-grouped execution plan of a netlist.

    Topologically levelizes the nodes (sources at level 0, a gate one
    past its deepest fanin) and groups each level's gates by type.  The
    vectorized engines then run ~``depth x used-gate-types`` batched
    numpy operations per pass instead of one Python iteration per gate
    — the schedule is what turns the simulators from interpreted gate
    walks into compiled-style kernels.

    Attributes:
        levels: ``int32`` per-node topological level.
        groups: :class:`GateGroup` tuple in level-major order; executing
            them in sequence respects every data dependency (groups on
            one level only read nets of strictly earlier levels).
        const0 / const1: Net indices of constant sources.
    """

    def __init__(self, packed: "PackedNetlist") -> None:
        types = packed.types
        f0, f1, f2 = packed.fanin0, packed.fanin1, packed.fanin2
        n = len(types)

        levels = np.zeros(n, dtype=np.int32)
        fanins = (f0, f1, f2)
        for net in range(n):
            deepest = -1
            for fan in fanins:
                fanin = fan[net]
                if fanin >= 0 and levels[fanin] > deepest:
                    deepest = levels[fanin]
            if deepest >= 0:
                levels[net] = deepest + 1
        self.levels = levels

        self.const0 = np.nonzero(types == GateType.CONST0)[0]
        self.const1 = np.nonzero(types == GateType.CONST1)[0]

        source_values = tuple(int(t) for t in SOURCE_TYPES)
        gate_nets = np.nonzero(~np.isin(types, source_values))[0]
        # Level-major, type-minor order keeps same-type gates of one
        # level contiguous; np.split at the (level, type) boundaries
        # yields the groups.
        order = np.lexsort((types[gate_nets], levels[gate_nets]))
        sorted_nets = gate_nets[order].astype(np.int32)
        sort_key = (levels[sorted_nets].astype(np.int64) << 8) \
            | types[sorted_nets].astype(np.int64)
        boundaries = np.nonzero(np.diff(sort_key))[0] + 1
        groups: List[GateGroup] = []
        for segment in np.split(sorted_nets, boundaries):
            if not segment.size:
                continue
            gtype = GateType(int(types[segment[0]]))
            groups.append(GateGroup(
                gtype=int(gtype),
                n_fanins=FANIN_COUNT[gtype],
                dst=segment,
                f0=f0[segment],
                f1=f1[segment],
                f2=f2[segment],
            ))
        self.groups: Tuple[GateGroup, ...] = tuple(groups)
        self._fanin_groups: Optional[Tuple[GateGroup, ...]] = None

    @property
    def fanin_groups(self) -> Tuple[GateGroup, ...]:
        """Level-major groups keyed on fanin *count* instead of type.

        Engines whose per-gate function is type-independent (dynamic
        arrival propagation maxes over fanins regardless of the cell)
        can merge all of a level's same-arity gates into one batched
        op; with ~9 gate types collapsing to <= 3 arities this roughly
        halves the number of numpy dispatches per pass.  ``gtype`` is
        ``-1`` in the merged groups (they are type-blind).
        """
        if self._fanin_groups is None:
            by_key: Dict[Tuple[int, int], List[GateGroup]] = {}
            for group in self.groups:
                level = int(self.levels[group.dst[0]])
                by_key.setdefault((level, group.n_fanins),
                                  []).append(group)
            merged = []
            for (__, n_fanins), members in sorted(by_key.items()):
                merged.append(GateGroup(
                    gtype=-1,
                    n_fanins=n_fanins,
                    dst=np.concatenate([m.dst for m in members]),
                    f0=np.concatenate([m.f0 for m in members]),
                    f1=np.concatenate([m.f1 for m in members]),
                    f2=np.concatenate([m.f2 for m in members]),
                ))
            self._fanin_groups = tuple(merged)
        return self._fanin_groups

    @property
    def n_levels(self) -> int:
        """Depth of the netlist (levels including the source level)."""
        return int(self.levels.max()) + 1 if self.levels.size else 0

    def stats(self) -> Dict[str, int]:
        """Schedule shape summary (for benchmarks and logs)."""
        return {
            "n_nets": int(self.levels.size),
            "n_gates": int(sum(g.dst.size for g in self.groups)),
            "n_levels": self.n_levels,
            "n_groups": len(self.groups),
        }


class PackedNetlist:
    """Numpy view of a :class:`Netlist` for vectorized engines.

    Attributes:
        types: ``int8`` array of :class:`GateType` values, one per node.
        fanin0/fanin1/fanin2: ``int32`` arrays of fanin net indices
            (-1 where unused).
    """

    def __init__(self, netlist: Netlist) -> None:
        self.netlist = netlist
        self.types = np.asarray(netlist.types, dtype=np.int8)
        fanins = np.asarray(netlist.fanins, dtype=np.int32)
        if fanins.size == 0:
            fanins = fanins.reshape(0, 3)
        self.fanin0 = fanins[:, 0]
        self.fanin1 = fanins[:, 1]
        self.fanin2 = fanins[:, 2]
        self._schedule: Optional[LevelSchedule] = None
        self._program = None

    def __len__(self) -> int:
        return len(self.types)

    @property
    def schedule(self) -> LevelSchedule:
        """Levelized execution plan, built once and cached.

        The cached schedule travels with the object into forked
        characterization shards and through pickling, so no shard
        rebuilds it.
        """
        if self._schedule is None:
            self._schedule = LevelSchedule(self)
        return self._schedule

    @property
    def program(self):
        """Flattened level program, built once and cached.

        :mod:`repro.sim.logic` evaluates netlists by running this
        opcode-array form of :attr:`schedule`
        (:meth:`repro.sim.program.LevelProgram.run`).  Like the
        schedule, the cached program travels into forked shards and
        through pickling warm.
        """
        if self._program is None:
            # Imported lazily: sim.program depends on this module.
            from repro.sim.program import LevelProgram
            self._program = LevelProgram(self.schedule)
        return self._program

    def _cell_table(self, per_cell) -> np.ndarray:
        """Per-:class:`GateType` lookup table from a per-cell function."""
        table = np.zeros(len(GateType), dtype=np.float64)
        for gtype, cell in CELL_NAME.items():
            table[gtype] = per_cell(cell)
        return table

    def gate_delays(self, library) -> np.ndarray:
        """Per-node delay vector (ps); sources have zero delay."""
        return self._cell_table(library.delay_ps)[self.types]

    def gate_energies(self, library) -> np.ndarray:
        """Per-node toggle energy vector (fJ); sources have zero energy."""
        return self._cell_table(library.energy_fj)[self.types]

    def total_leakage_nw(self, library) -> float:
        """Summed leakage of all cell instances in nanowatts."""
        return sum(
            library.leakage_nw(CELL_NAME[gtype])
            for __, gtype, __fanins in self.netlist.iter_gates()
        )
