"""Fixed-radius graphs over 2-D spot coordinates and the positional kernel.

Positions are plain (n, 2) float64 arrays of slide-local coordinates.
Graph construction is a sorted-cell join without a per-node loop: points
are keyed by their cell in a grid of side equal to the radius and sorted
by cell, and each point's candidates, the points of the 3x3 cells around
its own, are found as runs of that order by binary search: expected cost
O(n log n + n * k) instead of O(n^2). Membership uses the
squared-distance comparison d2 <= radius**2.

Edges are directed and stored both ways, sorted by (src, dst), with no
self loops and no duplicates. A graph stores only its own copy of the
positions, its edges and its radius; the rest is derived. The edge
attributes (dx, dy, distance, taken dst minus src) are recomputed on each
access. The degree-blocked in-neighbour layout (:class:`NeighbourLayout`)
is the one sparse neighbour representation every graph model uses:
graphpde's message op runs on it, with per-slot input rows that
``models`` builds through :meth:`NeighbourLayout.pad_edge_rows`, and the
row mixers of the other kinds (:class:`RowMixer`, built by
:func:`row_mixer` from one weight per edge, in edge order, and one self
weight per node) keep one weight per slot. The layout, and each
constant built through :meth:`RadiusGraph.cached`, is computed on first
use and cached on the instance; a mixer also holds its mix of the last
Constant input it was given (see :class:`RowMixer`). A built graph is
immutable by convention; concurrent first uses may compute a constant
twice, with identical results.

These per-graph constants are built in linear passes, without a search.
The layout and each mixer sort the edges stably by destination
(:func:`stable_order`, a radix sort on 8- and 16-bit node ids). Since
the edges are sorted by (src, dst) without duplicates, that order lists
them by (dst, src); it lists the reversed edges exactly when the edge
list is symmetric, and then it maps every edge to its reverse (see
:func:`row_mixer`). Gathers go through ``np.take``, several times faster
than fancy indexing with an edge array's strided column. On a 300-spot
slide at r = 0.25 (m = 14,282; 1 BLAS thread, 2-core AMD EPYC VM, timeit
best of 7) the layout takes 0.13 ms, the norm and Gaussian mixers with
their weights 0.15 and 0.26 ms, and the layout plus both mixers from a
bare graph 0.60 ms. On a 50,000-spot slide at degree 6 that last figure
is 16–26 ms.
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


@dataclass(eq=False)
class RadiusGraph:
    """All ordered point pairs within ``radius``."""

    positions: np.ndarray  # (n, 2) float64, the graph's own copy
    edges: np.ndarray      # (m, 2) int64, directed both ways, sorted
    radius: float
    _constants: dict = field(default_factory=dict, init=False, repr=False)

    @property
    def num_nodes(self) -> int:
        return self.positions.shape[0]

    @property
    def num_edges(self) -> int:
        return self.edges.shape[0]

    @property
    def edge_attr(self) -> np.ndarray:
        """(m, 3) float64 dx, dy, euclidean distance, computed on each access."""
        return edge_attributes(self.positions, self.edges)

    def cached(self, key, build: Callable[[], object]):
        """The per-graph constant ``key``, made by ``build()`` on first use."""
        held = self._constants.get(key)
        if held is None:
            held = self._constants[key] = build()
        return held

    @property
    def layout(self) -> "NeighbourLayout":
        return self.cached("layout", lambda: neighbour_layout(self))


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
    block-major, then node-major in ``order``, then in edge-list order (so
    by ascending source). Slots past a node's degree are padding: their
    neighbour id is n (one past the last node) and ``slot_edge`` is -1.
    Per-slot data are ``num_slots`` x c matrices in that row order
    (:meth:`pad_edge_rows`).

    ``max_block_slots`` and ``max_block_nodes``, the largest block's slot
    and node counts, are derived from ``plan`` when the layout is made:
    both sparse ops loop over the plan and size their buffers by them.
    """

    order: np.ndarray       # (n,) int64 nodes in block order
    plan: tuple[BlockPlan, ...]  # the runs of nonzero width, in order
    neighbours: np.ndarray  # (num_slots,) int64 source node of each slot, n in pads
    slot_edge: np.ndarray   # (num_slots,) int64 edge index of each slot, -1 in pads
    inv_degree: np.ndarray  # (n,) float64, 1 / max(in-degree, 1)
    max_block_slots: int = field(init=False, repr=False)
    max_block_nodes: int = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.max_block_slots = max((p.size * p.width for p in self.plan), default=0)
        self.max_block_nodes = max((p.size for p in self.plan), default=0)

    @property
    def num_nodes(self) -> int:
        return self.order.size

    @property
    def num_slots(self) -> int:
        return self.slot_edge.size

    @property
    def mask(self) -> np.ndarray:
        """(num_slots,) bool, True on real edges."""
        return self.slot_edge >= 0

    def pad_edge_rows(self, rows) -> np.ndarray:
        """Spread an m x c per-edge matrix over the slots, zero in pads."""
        rows = np.asarray(rows, dtype=np.float64)
        m = np.count_nonzero(self.mask)
        if rows.ndim != 2 or rows.shape[0] != m:
            raise DimensionError(f"slot rows need an ({m}, c) per-edge matrix, "
                                 f"got {rows.shape}")
        # one gather; a pad's edge index -1 picks the appended zero row
        padded = np.concatenate([rows, np.zeros((1, rows.shape[1]))])
        return np.take(padded, self.slot_edge, axis=0)


def stable_order(keys, bound: int) -> np.ndarray:
    """``np.argsort(keys, kind="stable")`` for integer keys in [0, bound].
    The keys are sorted in the narrowest unsigned type that holds
    ``bound``, where numpy sorts 8- and 16-bit keys by radix; a stable
    order is the same permutation in any type that holds the keys.
    ``stable_order(edges[:, 1], n)`` is the destination order: it lists a
    (src, dst)-sorted edge list by (dst, src)."""
    return np.argsort(np.asarray(keys).astype(np.min_scalar_type(bound)), kind="stable")


def neighbour_layout(graph: RadiusGraph) -> NeighbourLayout:
    """Pack ``graph``'s in-edges into degree blocks (see NeighbourLayout)."""
    n, m = graph.num_nodes, graph.num_edges
    src, dst = graph.edges[:, 0], graph.edges[:, 1]
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
    # in destination order each node's in-edges are one run, the nodes
    # ascending, so an edge's slot is its node's first slot plus its place
    # in that run
    edge_order = stable_order(dst, n)
    slots = np.repeat(first - (np.cumsum(deg) - deg), deg) + np.arange(m)
    slot_edge = np.full(int(starts[-1]), -1, dtype=np.int64)
    slot_edge[slots] = edge_order
    neighbours = np.full(slot_edge.size, n, dtype=np.int64)
    neighbours[slots] = np.take(src, edge_order)
    # one entry per run of nonzero width, in Python ints: the sparse ops
    # slice and size their buffers with them on every call
    b, s = bounds.tolist(), starts.tolist()
    plan = tuple(
        BlockPlan(slice(lo, hi), slice(start, stop), neighbours[start:stop], hi - lo, w)
        for lo, hi, start, stop, w in zip(b, b[1:], s, s[1:], widths.tolist()) if w)
    return NeighbourLayout(
        order=order, plan=plan, neighbours=neighbours, slot_edge=slot_edge,
        inv_degree=1.0 / np.maximum(deg, 1).astype(np.float64))


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
    key_x, key_y = np.unique(keys[:, 0]), np.unique(keys[:, 1])
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
    by_pair = np.argsort(src * n + dst)
    edges = np.stack([src[by_pair], dst[by_pair]], axis=1)
    return RadiusGraph(positions=pos, edges=edges, radius=float(radius))


def _edge_geometry(pos: np.ndarray, edges) -> tuple[np.ndarray, ...]:
    """The (m, 2) int64 edge list, checked against the n positions, and per
    edge its (m, 2) offset x_dst - x_src and its length."""
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    if edges.size and (edges.min() < 0 or edges.max() >= pos.shape[0]):
        raise IndexError(f"edge endpoint out of range [0, {pos.shape[0]})")
    offset = np.take(pos, edges[:, 1], axis=0) - np.take(pos, edges[:, 0], axis=0)
    return edges, offset, np.sqrt(offset[:, 0] ** 2 + offset[:, 1] ** 2)


def edge_attributes(points, edges) -> np.ndarray:
    """Per edge: (x_dst - x_src, y_dst - y_src, euclidean distance)."""
    _edges, offset, length = _edge_geometry(as_positions(points), edges)
    return np.column_stack([offset, length])


def gaussian_kernel_weights(points, edges,
                            bandwidth: float) -> tuple[np.ndarray, np.ndarray]:
    """Row-normalized positional weights on the edge support plus one self
    weight per node: w(i, j) = exp(-d(i, j)^2 / (2 bandwidth^2)), w(i, i) = 1,
    then every node's incoming weights divided by their sum (>= 1, from the
    self weight). Returns (one weight per edge in edge order, n self weights)."""
    pos = as_positions(points)
    if not bandwidth > 0:
        raise ParameterError(f"bandwidth must be positive, got {bandwidth}")
    n = pos.shape[0]
    edges, _offset, dist = _edge_geometry(pos, edges)
    w = np.exp(-(dist ** 2) / (2.0 * bandwidth * bandwidth))
    # each node's edge weights in edge order, then its self weight 1: the order
    # in which its COO row (the edges, then one self loop per node) sums
    total = np.bincount(edges[:, 1], weights=w, minlength=n) + 1.0
    w /= np.take(total, edges[:, 1])
    return w, 1.0 / total


@dataclass(eq=False)
class RowMixer:
    """Constant row-mixing weights on a graph's :class:`NeighbourLayout`:
    out_i = sum over i's slots of weights[s] x_nbr(s) + self_weights[i] x_i.
    ``transposed`` holds each slot's reverse-edge weight, for the backward
    pass, with the reverse map read off the destination order (see
    :func:`row_mixer`); it is ``weights`` itself when the operator is
    symmetric.
    ``held`` is ``ad.mix_rows``'s one slot: the last Constant input array
    and its mix, a read-only Constant returned without a tape entry while
    that array object comes back. It costs one n x d array per mixer for
    as long as the mixer, cached on its graph, lives."""

    layout: NeighbourLayout
    weights: np.ndarray       # (num_slots,) w(dst, src) per slot, 0 in pads
    transposed: np.ndarray    # (num_slots,) w(src, dst) per slot, 0 in pads
    self_weights: np.ndarray  # (n,) w(i, i)
    held: tuple | None = field(default=None, init=False, repr=False)


def row_mixer(graph: RadiusGraph, edge_weights, self_weights) -> RowMixer:
    """Spread one weight per edge of ``graph`` (in edge order) and one self
    weight per node over ``graph.layout``; the edge list must hold every
    edge's reverse and be sorted by (src, dst) without duplicates, as a
    radius graph's is.

    The reverse-edge map is the destination order ``order``: the edges
    sorted stably by dst are listed by (dst, src), which is the order of
    the reversed list ``edges[:, ::-1]``. So ``edges[order]`` equals the
    reversed list row for row exactly when the list is symmetric, and then
    ``order[e]`` is the index of edge e's reverse. One O(m) comparison
    checks it (a ``ContractError`` otherwise), and the two spreads are
    :meth:`NeighbourLayout.pad_edge_rows` of ``w`` and of ``w[order]``."""
    n, m = graph.num_nodes, graph.num_edges
    w = np.asarray(edge_weights, dtype=np.float64)
    self_w = np.array(self_weights, dtype=np.float64)
    if w.shape != (m,) or self_w.shape != (n,):
        raise DimensionError(f"row mixing needs ({m},) edge weights and ({n},) self "
                             f"weights, got {w.shape} and {self_w.shape}")
    order = stable_order(graph.edges[:, 1], n)
    if not np.array_equal(np.take(graph.edges, order, axis=0), graph.edges[:, ::-1]):
        raise ContractError("row mixing needs a symmetric edge list sorted by "
                            "(src, dst): an edge's reverse is missing or out of place")
    layout = graph.layout
    forward = layout.pad_edge_rows(w[:, None]).ravel()
    transposed = layout.pad_edge_rows(np.take(w, order)[:, None]).ravel()
    if np.array_equal(transposed, forward):
        transposed = forward
    return RowMixer(layout=layout, weights=forward, transposed=transposed,
                    self_weights=self_w)
