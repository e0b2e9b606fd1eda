"""Fixed-radius graphs over 2-D spot coordinates and the positional kernel.

Positions are plain (n, 2) float64 arrays of slide-local coordinates.
Graph construction is a sorted-cell join without a per-node loop: points
are keyed by their cell in a grid of side equal to the radius and sorted
by cell, and each point's candidates, the points of the 3x3 cells around
its own, are found as runs of that order by binary search: expected cost
O(n log n + n * k) instead of O(n^2). Membership uses the
squared-distance comparison d2 <= radius**2.

A graph holds its own copy of the positions, its radius and one sparse
neighbour representation, the degree-blocked in-neighbour layout
(:class:`NeighbourLayout`), which every graph model uses and which is
built with the graph: the build sorts its pairs once by (destination,
source) and fills the layout's slots from them. No edge list and no
slot-to-edge map is kept. :attr:`RadiusGraph.edges` derives the (src,
dst)-sorted edge list from the layout on each access, for the tests and
the statistics; no model reads it. Every per-slot constant is computed
in slot order straight from the positions and the layout: graphpde's
kernel input from :func:`slot_attributes` (in ``models``, once per
forward, never kept by the graph), and the row mixers of the other kinds
(:class:`RowMixer`, built by :func:`row_mixer` from one weight per slot
and one self weight per node), whose weights come from
``models.symmetric_norm_weights`` and :func:`gaussian_kernel_weights`.
Within a node, slots follow ascending source, the order of the node's
in-edges in a (src, dst)-sorted edge list, so a per-node sum over slots,
with +0.0 from each pad, has the bits of the same sum over that edge
list. The mixers, built through :meth:`RadiusGraph.cached`, are
computed on first use and cached on the instance; a mixer also holds its
mix of the last Constant input it was given (see :class:`RowMixer`). A
built graph is immutable by convention; concurrent first uses may
compute a constant twice, with identical results.

A 300-spot slide at r = 0.25 (14,282 directed pairs in 14,812 slots)
holds its layout in 126 kB, where the edge list and the slot-to-edge
map took another 229 kB and 118 kB.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from .errors import ContractError, DimensionError, ParameterError


def as_positions(obj) -> np.ndarray:
    pos = np.ascontiguousarray(obj, dtype=np.float64)
    if pos.ndim != 2 or pos.shape[1] != 2:
        raise DimensionError(f"positions must be (n, 2), got {pos.shape}")
    if not np.isfinite(pos).all():
        raise ParameterError("positions contain non-finite coordinates")
    return pos


# The layout cuts the degree-sorted nodes into this many runs. On twenty
# uniform 300-spot slides (the benchmark's operator_train data, seed 1),
# padded slots per real edge (mean / worst slide) are 1.56 / 1.72 with
# one run, 1.08 / 1.09 with 8 and 1.04 / 1.04 with 16 at r = 0.25; at
# the degree-6 auto radius they are 2.32 / 3.01, 1.16 / 1.22 and
# 1.08 / 1.10. 32 runs saved no step time at r = 0.25 and cost time at
# the auto radius, where the per-run overhead dominates. Fewer runs step
# faster on small slides (ROADMAP item 14), but both sparse ops size
# every block's workspace to the largest block, and at 8 runs
# test_graphpde_step_allocates_no_slot_sized_arrays exceeds its step
# bound at h = 16, k = 64 (7,387,448 > 7,000,000 bytes) and
# test_kernel_message_mean_streams_its_memory peaks at 30.9 MB against
# its 22.9 MB bound.
DEGREE_BLOCKS = 16


class BlockPlan(NamedTuple):
    """A degree block of nonzero width: its positions of the layout's
    ``order`` and its slot rows as slices, its slots' neighbour ids (a
    view of ``neighbours``), its node count and its width."""

    nodes: slice
    slots: slice
    nbrs: np.ndarray
    size: int
    width: int


@dataclass(eq=False)
class NeighbourLayout:
    """In-edges of every node packed into degree blocks of padded slots.

    ``order`` lists the nodes by ascending in-degree (stable, so ties keep
    node order) and is cut into runs of near-equal node count; each run
    gives every one of its nodes as many slots as the run's largest
    in-degree. ``plan`` lists the runs of nonzero width in order, one
    :class:`BlockPlan` each; the runs of width 0 hold only nodes without
    in-edges, come first and have no slot and no entry. Slot rows are
    block-major, then node-major in ``order``, then by ascending source.
    Slots past a node's degree are padding: their neighbour id is n (one
    past the last node). Per-slot data are ``num_slots`` x c matrices in
    that row order.

    ``inv_degree``, ``max_block_slots`` and ``max_block_nodes``, the
    largest block's slot and node counts, are derived when the layout is
    made: both sparse ops loop over the plan and size their buffers by
    them.
    """

    order: np.ndarray       # (n,) int64 nodes in block order
    plan: tuple[BlockPlan, ...]  # the runs of nonzero width, in order
    neighbours: np.ndarray  # (num_slots,) int64 source node of each slot, n in pads
    degree: np.ndarray      # (n,) int64 in-degree
    inv_degree: np.ndarray = field(init=False, repr=False)  # (n,) 1 / max(degree, 1)
    max_block_slots: int = field(init=False, repr=False)
    max_block_nodes: int = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.inv_degree = 1.0 / np.maximum(self.degree, 1).astype(np.float64)
        self.max_block_slots = max((p.size * p.width for p in self.plan), default=0)
        self.max_block_nodes = max((p.size for p in self.plan), default=0)

    @property
    def num_nodes(self) -> int:
        return self.order.size

    @property
    def num_slots(self) -> int:
        return self.neighbours.size

    @property
    def num_edges(self) -> int:
        return int(self.degree.sum())

    @property
    def mask(self) -> np.ndarray:
        """(num_slots,) bool, True on real edges."""
        return self.neighbours < self.num_nodes

    def slot_nodes(self) -> np.ndarray:
        """(num_slots,) int64, the node that owns each slot."""
        lead = self.plan[0].nodes.start if self.plan else self.num_nodes
        widths = np.repeat(np.array([p.width for p in self.plan], dtype=np.int64),
                           [p.size for p in self.plan])
        return np.repeat(self.order[lead:], widths)


def stable_order(keys, bound: int) -> np.ndarray:
    """``np.argsort(keys, kind="stable")`` for integer keys in [0, bound].
    The keys are sorted in the narrowest unsigned type that holds
    ``bound``, where numpy sorts 8- and 16-bit keys by radix; a stable
    order is the same permutation in any type that holds the keys."""
    return np.argsort(np.asarray(keys).astype(np.min_scalar_type(bound)), kind="stable")


def neighbour_layout(num_nodes: int, src: np.ndarray, dst: np.ndarray) -> NeighbourLayout:
    """Pack the directed pairs (src[e], dst[e]), listed by (dst, src), into
    degree blocks of in-neighbours (see NeighbourLayout)."""
    n, m = num_nodes, src.size
    deg = np.bincount(dst, minlength=n)
    order = stable_order(deg, deg.max(initial=0))
    # runs of near-equal size, none empty; sorted, so a run's width is the
    # degree of its last node
    runs = min(DEGREE_BLOCKS, n)
    bounds = np.arange(runs + 1) * n // max(runs, 1)
    widths = deg[order[bounds[1:] - 1]]
    starts = np.concatenate([[0], np.cumsum(np.diff(bounds) * widths)])
    # first slot of every node: its run's start plus its offset in the run
    run = np.repeat(np.arange(widths.size), np.diff(bounds))
    first = np.empty(n, dtype=np.int64)
    first[order] = starts[run] + (np.arange(n) - bounds[run]) * widths[run]
    # listed by (dst, src), each node's in-edges are one run, the nodes
    # ascending, so a pair's slot is its node's first slot plus its place
    # in that run
    slots = np.repeat(first - (np.cumsum(deg) - deg), deg) + np.arange(m)
    neighbours = np.full(int(starts[-1]), n, dtype=np.int64)
    neighbours[slots] = src
    # one entry per run of nonzero width, in Python ints: the sparse ops
    # slice and size their buffers with them on every call
    b, s = bounds.tolist(), starts.tolist()
    plan = tuple(
        BlockPlan(slice(lo, hi), slice(start, stop), neighbours[start:stop], hi - lo, w)
        for lo, hi, start, stop, w in zip(b, b[1:], s, s[1:], widths.tolist()) if w)
    return NeighbourLayout(order=order, plan=plan, neighbours=neighbours, degree=deg)


@dataclass(eq=False, init=False)
class RadiusGraph:
    """Directed pairs of points, held as the in-neighbour layout of every
    point: all ordered pairs within ``radius`` when made by
    :func:`build_radius_graph`, or the listed ``edges``, (m, 2) (src, dst)
    pairs in any order, of a graph made by hand. ``symmetric`` records
    whether every pair's reverse is a pair too, as in every radius graph;
    the row mixers need it."""

    positions: np.ndarray  # (n, 2) float64
    radius: float
    layout: NeighbourLayout
    symmetric: bool
    _constants: dict = field(repr=False)

    def __init__(self, positions, edges, radius: float) -> None:
        pos = as_positions(positions)
        n = pos.shape[0]
        pairs = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
        if pairs.size and (pairs.min() < 0 or pairs.max() >= n):
            raise IndexError(f"edge endpoint out of range [0, {n})")
        by_dst = pairs[np.lexsort((pairs[:, 0], pairs[:, 1]))]
        by_src = pairs[np.lexsort((pairs[:, 1], pairs[:, 0]))]
        self._hold(pos, radius, neighbour_layout(n, by_dst[:, 0], by_dst[:, 1]),
                   np.array_equal(by_dst, by_src[:, ::-1]))

    @classmethod
    def _of_layout(cls, positions: np.ndarray, radius: float,
                   layout: NeighbourLayout) -> "RadiusGraph":
        """A symmetric graph from its layout, as :func:`build_radius_graph`
        makes it."""
        graph = cls.__new__(cls)
        graph._hold(positions, radius, layout, True)
        return graph

    def _hold(self, positions, radius, layout, symmetric) -> None:
        self.positions, self.radius, self.layout = positions, float(radius), layout
        self.symmetric, self._constants = bool(symmetric), {}

    @property
    def num_nodes(self) -> int:
        return self.positions.shape[0]

    @property
    def num_edges(self) -> int:
        return self.layout.num_edges

    @property
    def edges(self) -> np.ndarray:
        """(m, 2) int64 (src, dst) pairs sorted by (src, dst), derived from
        the layout on each access."""
        layout = self.layout
        real = layout.mask
        src, dst = layout.neighbours[real], layout.slot_nodes()[real]
        by_pair = np.lexsort((dst, src))
        return np.stack([src[by_pair], dst[by_pair]], axis=1)

    def cached(self, key, build: Callable[[], object]):
        """The per-graph constant ``key``, made by ``build()`` on first use."""
        held = self._constants.get(key)
        if held is None:
            held = self._constants[key] = build()
        return held


def _distinct(values: np.ndarray) -> np.ndarray:
    """The sorted distinct values of a finite float array. It ranks values
    as ``np.unique`` does, without the import of ``numpy.ma`` that
    ``np.unique``'s first call makes (12-18 ms and 1.2 MB of RSS in a
    fresh process on a 2-core Intel Xeon VM)."""
    ordered = np.sort(values)
    keep = np.empty(ordered.size, dtype=bool)
    keep[:1] = True
    np.not_equal(ordered[1:], ordered[:-1], out=keep[1:])
    return ordered[keep]


def build_radius_graph(points, radius: float) -> RadiusGraph:
    """Connect every ordered pair (i, j), i != j, with ||p_i - p_j|| <= radius;
    the graph keeps its own copy of ``points``."""
    pos = as_positions(np.array(points, dtype=np.float64))
    if not radius > 0:
        raise ParameterError(f"radius must be positive, got {radius}")
    n = pos.shape[0]
    r2 = radius * radius
    # cell keys, ranked per axis so that one int64 id per cell cannot
    # overflow however far apart the points lie; points sorted by cell id.
    # The keys stay floats: key - 1 <= key <= key + 1 holds at any magnitude
    keys = np.floor(pos / radius)
    key_x, key_y = _distinct(keys[:, 0]), _distinct(keys[:, 1])
    span = key_y.size
    cell = np.searchsorted(key_x, keys[:, 0]) * span + np.searchsorted(key_y, keys[:, 1])
    order = np.argsort(cell, kind="stable")
    sorted_cell = cell[order]
    # within one column of cells, the rows ky-1..ky+1 are one run of ids
    row_lo = np.searchsorted(key_y, keys[:, 1] - 1)
    row_hi = np.searchsorted(key_y, keys[:, 1] + 1, side="right")
    px, py = pos[:, 0].copy(), pos[:, 1].copy()
    nodes = np.arange(n)
    srcs: list[np.ndarray] = []
    dsts: list[np.ndarray] = []
    for shift in (-1, 0, 1):
        want = keys[:, 0] + shift
        col = np.searchsorted(key_x, want)
        present = key_x[np.minimum(col, key_x.size - 1)] == want
        lo = np.searchsorted(sorted_cell, col * span + row_lo)
        count = np.searchsorted(sorted_cell, col * span + row_hi) - lo
        count[~present] = 0
        # candidate j for every i: the sorted points lo[i] .. lo[i] + count[i]
        offset = np.repeat(lo - (np.cumsum(count) - count), count)
        cand = order[np.arange(offset.size) + offset]
        dx = px[cand] - np.repeat(px, count)
        dy = py[cand] - np.repeat(py, count)
        src = np.repeat(nodes, count)
        near = (dx * dx + dy * dy <= r2) & (cand != src)
        srcs.append(src[near])
        dsts.append(cand[near])
    src, dst = np.concatenate(srcs), np.concatenate(dsts)
    by_pair = np.argsort(dst * n + src)
    layout = neighbour_layout(n, np.take(src, by_pair), np.take(dst, by_pair))
    return RadiusGraph._of_layout(pos, radius, layout)


def _slot_geometry(pos: np.ndarray, layout: NeighbourLayout,
                   out: np.ndarray | None = None) -> tuple[np.ndarray, ...]:
    """Per slot (x <- y) of ``layout``: x, y, and the offset x - y and its
    length in the three columns of ``out`` (made when None), computed as
    for the edge (y, x) of an edge list. A pad stands for a loop on its own
    node, so its offset and length are +0.0. One coordinate at a time, so
    no temporary holds more than one float per slot."""
    if pos.shape[0] != layout.num_nodes:
        raise DimensionError(f"{pos.shape[0]} positions for a layout of "
                             f"{layout.num_nodes} nodes")
    dst = layout.slot_nodes()
    src = np.where(layout.mask, layout.neighbours, dst)
    geo = np.empty((dst.size, 3)) if out is None else out
    # each coordinate contiguous, where a take is a fast gather
    for c, coord in enumerate(pos.T.copy()):
        geo[:, c] = coord.take(dst)
        geo[:, c] -= coord.take(src)
    length = np.square(geo[:, 0], out=geo[:, 2])
    length += geo[:, 1] ** 2
    np.sqrt(length, out=length)
    return dst, src, geo


def slot_attributes(points, layout: NeighbourLayout,
                    out: np.ndarray | None = None) -> np.ndarray:
    """Per slot (x <- y), in the layout's slot order: the offset x - y
    (dx, dy, taken destination minus source) and its euclidean length;
    zero rows in pads. Written into ``out``, a (num_slots, 3) float64
    array or view, when given."""
    return _slot_geometry(as_positions(points), layout, out)[2]


def gaussian_kernel_weights(points, layout: NeighbourLayout,
                            bandwidth: float) -> tuple[np.ndarray, ...]:
    """Row-normalized positional weights on the slots of ``layout`` plus
    one self weight per node: w(x, y) = exp(-d(x, y)^2 / (2 bandwidth^2)),
    w(x, x) = 1, then every node's incoming weights divided by their sum
    (>= 1, from the self weight). Returns (one weight per slot, the n self
    weights, each slot's transposed weight w(y, x)), zero in pads: the
    arguments of :func:`row_mixer`.

    A node's sum runs over its slots, in ascending source and then +0.0
    per pad, and then adds its self weight. The unnormalized weight is
    symmetric bit for bit (d(x, y) squares x - y, and y - x is its exact
    negation), so the transposed weight is the slot's own unnormalized
    weight divided by its source's sum."""
    pos = as_positions(points)
    if not bandwidth > 0:
        raise ParameterError(f"bandwidth must be positive, got {bandwidth}")
    dst, src, geo = _slot_geometry(pos, layout)
    dist = geo[:, 2]
    w = np.exp(-(dist ** 2) / (2.0 * bandwidth * bandwidth))
    w[~layout.mask] = 0.0
    total = np.bincount(dst, weights=w, minlength=pos.shape[0]) + 1.0
    return w / np.take(total, dst), 1.0 / total, w / np.take(total, src)


@dataclass(eq=False)
class RowMixer:
    """Constant row-mixing weights on a graph's :class:`NeighbourLayout`:
    out_i = sum over i's slots of weights[s] x_nbr(s) + self_weights[i] x_i.
    ``transposed`` holds each slot's reverse-edge weight, for the backward
    pass; it is ``weights`` itself when the operator is symmetric.
    ``held`` is ``ad.mix_rows``'s one slot: the last Constant input array
    and its mix, a read-only Constant returned without a tape entry while
    that array object comes back. It costs one n x d array per mixer for
    as long as the mixer, cached on its graph, lives."""

    layout: NeighbourLayout
    weights: np.ndarray       # (num_slots,) w(dst, src) per slot, 0 in pads
    transposed: np.ndarray    # (num_slots,) w(src, dst) per slot, 0 in pads
    self_weights: np.ndarray  # (n,) w(i, i)
    held: tuple | None = field(default=None, init=False, repr=False)


def row_mixer(graph: RadiusGraph, weights, self_weights, transposed=None) -> RowMixer:
    """One weight per slot of ``graph.layout`` (0 in pads) and one self
    weight per node as a :class:`RowMixer`. ``transposed`` is each slot's
    reverse-edge weight, ``weights`` itself when left out (a symmetric
    operator) or equal to it. The backward pass mixes with it over the
    same in-neighbour slots, so every edge's reverse must be an edge: a
    graph that is not symmetric is refused with a ``ContractError``."""
    if not graph.symmetric:
        raise ContractError("row mixing needs a symmetric graph: an edge's "
                            "reverse is missing")
    layout = graph.layout
    forward = np.asarray(weights, dtype=np.float64)
    back = forward if transposed is None else np.asarray(transposed, dtype=np.float64)
    self_w = np.array(self_weights, dtype=np.float64)
    s, n = layout.num_slots, layout.num_nodes
    if forward.shape != (s,) or back.shape != (s,) or self_w.shape != (n,):
        raise DimensionError(f"row mixing needs ({s},) slot weights and ({n},) self "
                             f"weights, got {forward.shape}, {back.shape} and "
                             f"{self_w.shape}")
    if np.array_equal(back, forward):
        back = forward
    return RowMixer(layout=layout, weights=forward, transposed=back,
                    self_weights=self_w)
