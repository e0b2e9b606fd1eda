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
access. The degree-blocked in-neighbour layout is the one sparse
neighbour representation every graph model uses: graphpde's message op
runs on it with the radius-scaled edge attributes spread over its slots
(:attr:`RadiusGraph.slot_attr`), and the row mixers of the other kinds
(:class:`RowMixer`, built from the per-edge :class:`KernelWeights`) keep
one weight per slot. The layout, the slot attributes and the mixers are
computed on first use and cached on the instance. A built graph is
immutable by convention; concurrent first uses may compute a constant
twice, with identical results.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import autodiff as ad
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

    @property
    def slot_attr(self) -> np.ndarray:
        """(num_slots, 3) the layout's edge attributes / radius, 0 in pads;
        graphpde's kernel-network input, computed on first use and cached."""
        return self.cached("slot_attr", lambda: self.layout.pad_edge_rows(
            self.edge_attr / self.radius))


# The layout cuts the degree-sorted nodes into this many runs. On twenty
# uniform 300-spot slides (the benchmark's operator_train data, seed 1),
# padded slots per real edge (mean / worst slide) are 1.56 / 1.72 with
# one run, 1.08 / 1.09 with 8 and 1.04 / 1.04 with 16 at r = 0.25; at
# the degree-6 auto radius they are 2.32 / 3.01, 1.16 / 1.22 and
# 1.08 / 1.10. 32 runs saved no step time at r = 0.25 and cost time at
# the auto radius, where the per-run overhead dominates.
DEGREE_BLOCKS = 16


@dataclass(frozen=True)
class DegreeBlock:
    """A run of nodes padded to one width: positions [lo, hi) of the
    layout's ``order`` and slot rows [start, stop), ``width`` per node."""

    lo: int
    hi: int
    start: int
    width: int

    @property
    def size(self) -> int:
        return self.hi - self.lo

    @property
    def stop(self) -> int:
        return self.start + self.size * self.width


@dataclass(eq=False)
class NeighbourLayout:
    """In-edges of every node packed into degree blocks of padded slots.

    ``order`` lists the nodes by ascending in-degree (stable, so ties keep
    node order) and is cut into runs of near-equal node count; each run
    (a :class:`DegreeBlock`) gives every one of its nodes as many slots as
    the run's largest in-degree. Slot rows are block-major, then
    node-major in ``order``, then in edge-list order (so by ascending
    source). Slots past a node's degree are padding: their neighbour id is
    n (one past the last node) and ``slot_edge`` is -1. Per-slot data are
    ``num_slots`` x c matrices in that row order (:meth:`pad_edge_rows`).
    """

    order: np.ndarray       # (n,) int64 nodes in block order
    blocks: tuple[DegreeBlock, ...]
    neighbours: np.ndarray  # (num_slots,) int64 source node of each slot, n in pads
    slot_edge: np.ndarray   # (num_slots,) int64 edge index of each slot, -1 in pads
    inv_degree: np.ndarray  # (n,) float64, 1 / max(in-degree, 1)

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
        out = np.zeros((self.num_slots, rows.shape[1]))
        out[self.mask] = rows[self.slot_edge[self.mask]]
        return out


def neighbour_layout(graph: RadiusGraph) -> NeighbourLayout:
    """Pack ``graph``'s in-edges into degree blocks (see NeighbourLayout)."""
    n, m = graph.num_nodes, graph.num_edges
    src, dst = graph.edges[:, 0], graph.edges[:, 1]
    deg = np.bincount(dst, minlength=n)
    order = np.argsort(deg, kind="stable")
    # runs of near-equal size, none empty; sorted, so a run's width is the
    # degree of its last node
    runs = min(DEGREE_BLOCKS, n)
    bounds = np.arange(runs + 1) * n // max(runs, 1)
    widths = deg[order[bounds[1:] - 1]]
    starts = np.concatenate([[0], np.cumsum(np.diff(bounds) * widths)])
    blocks = tuple(DegreeBlock(lo=int(lo), hi=int(hi), start=int(start), width=int(w))
                   for lo, hi, start, w in zip(bounds[:-1], bounds[1:], starts, widths))
    # first slot of every node: its run's start plus its offset in the run
    run = np.repeat(np.arange(widths.size), np.diff(bounds))
    first = np.empty(n, dtype=np.int64)
    first[order] = starts[run] + (np.arange(n) - bounds[run]) * widths[run]
    edge_order = np.argsort(dst, kind="stable")
    owner = dst[edge_order]
    slots = first[owner] + np.arange(m) - (np.cumsum(deg) - deg)[owner]
    slot_edge = np.full(int(starts[-1]), -1, dtype=np.int64)
    slot_edge[slots] = edge_order
    neighbours = np.full(slot_edge.size, n, dtype=np.int64)
    neighbours[slots] = src[edge_order]
    return NeighbourLayout(
        order=order, blocks=blocks, neighbours=neighbours, slot_edge=slot_edge,
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


def edge_attributes(points, edges) -> np.ndarray:
    """Per edge: (x_dst - x_src, y_dst - y_src, euclidean distance)."""
    pos = as_positions(points)
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    if edges.size and (edges.min() < 0 or edges.max() >= pos.shape[0]):
        raise IndexError(f"edge endpoint out of range [0, {pos.shape[0]})")
    delta = pos[edges[:, 1]] - pos[edges[:, 0]]
    dist = np.sqrt(delta[:, 0] ** 2 + delta[:, 1] ** 2)
    return np.column_stack([delta, dist])


@dataclass(eq=False)
class KernelWeights:
    """Sparse weights w(dst, src) aligned with an edge list (+ self entries)."""

    num_nodes: int
    src: np.ndarray
    dst: np.ndarray
    weights: np.ndarray


def gaussian_kernel_weights(points, edges, bandwidth: float) -> KernelWeights:
    """Row-normalized positional weights on the edge support plus one self
    loop per node: w(i, j) = exp(-d(i, j)^2 / (2 bandwidth^2)), w(i, i) = 1,
    then every node's incoming weights divided by their sum (>= 1, from the
    self weight)."""
    pos = as_positions(points)
    if not bandwidth > 0:
        raise ParameterError(f"bandwidth must be positive, got {bandwidth}")
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    n = pos.shape[0]
    attr = edge_attributes(pos, edges)
    loop = np.arange(n, dtype=np.int64)
    src = np.concatenate([edges[:, 0], loop])
    dst = np.concatenate([edges[:, 1], loop])
    w = np.concatenate([np.exp(-(attr[:, 2] ** 2) / (2.0 * bandwidth * bandwidth)),
                        np.ones(n)])
    w = w / np.bincount(dst, weights=w, minlength=n)[dst]
    return KernelWeights(num_nodes=n, src=src, dst=dst, weights=w)


@dataclass(eq=False)
class RowMixer:
    """Constant row-mixing weights on a graph's :class:`NeighbourLayout`:
    out_i = sum over i's slots of weights[s] x_nbr(s) + self_weights[i] x_i.
    ``transposed`` holds each slot's reverse-edge weight, for the backward
    pass; it is ``weights`` itself when the operator is symmetric."""

    layout: NeighbourLayout
    weights: np.ndarray       # (num_slots,) w(dst, src) per slot, 0 in pads
    transposed: np.ndarray    # (num_slots,) w(src, dst) per slot, 0 in pads
    self_weights: np.ndarray  # (n,) w(i, i)


def row_mixer(graph: RadiusGraph, weights: KernelWeights) -> RowMixer:
    """Spread ``weights`` over ``graph.layout``. Their support must be the
    graph's edge list in order, then one self loop per node (as
    :func:`gaussian_kernel_weights` returns it); the edge list must hold
    every edge's reverse, as a radius graph's does."""
    n, m = graph.num_nodes, graph.num_edges
    src, dst = graph.edges[:, 0], graph.edges[:, 1]
    loop = np.arange(n)
    if not (weights.num_nodes == n
            and np.array_equal(weights.src, np.concatenate([src, loop]))
            and np.array_equal(weights.dst, np.concatenate([dst, loop]))):
        raise ContractError("row-mixer weights must cover the graph's edges in order, "
                            "then one self loop per node")
    w = np.asarray(weights.weights, dtype=np.float64)
    # edges are sorted by (src, dst), so their keys are sorted too
    keys = src * n + dst
    reverse = np.searchsorted(keys, dst * n + src)
    if m and not np.array_equal(keys[np.minimum(reverse, m - 1)], dst * n + src):
        raise ContractError("row mixing needs a symmetric edge list: an edge has "
                            "no reverse")
    layout = graph.layout
    real = layout.mask
    edge_of = layout.slot_edge[real]
    forward = np.zeros(layout.num_slots)
    forward[real] = w[edge_of]
    transposed = np.zeros(layout.num_slots)
    transposed[real] = w[reverse[edge_of]]
    if np.array_equal(transposed, forward):
        transposed = forward
    return RowMixer(layout=layout, weights=forward, transposed=transposed,
                    self_weights=w[m:].copy())


def apply_kernel(tape: ad.Tape, mixer: RowMixer, node_features: ad.Value) -> ad.Value:
    """out_i = sum_j w(i, j) x_j over the mixer's support.

    Differentiable with respect to the node features; the weights are
    constants.
    """
    return ad.mix_rows(tape, node_features, mixer)
