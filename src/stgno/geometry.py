"""Fixed-radius graphs over 2-D spot coordinates and the positional kernel.

Positions are plain (n, 2) float64 arrays of slide-local coordinates.
Graph construction buckets points into a uniform grid of cell side equal
to the radius, so only the 3x3 cell neighborhood of each point is
scanned: expected cost O(n * k) instead of O(n^2). Membership uses the
squared-distance comparison d2 <= radius**2.

Edges are directed and stored both ways, sorted by (src, dst), with no
self loops and no duplicates. Edge attributes are (dx, dy, distance)
taken dst minus src. A built graph is immutable by convention. Constants
derived from it (the padded in-neighbour layout, normalization and
kernel weights) are computed on first use and cached on the instance;
concurrent first uses may compute one twice, with identical results.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import autodiff as ad
from .errors import DimensionError, NormalizationError, ParameterError


def as_positions(obj) -> np.ndarray:
    pos = np.ascontiguousarray(obj, dtype=np.float64)
    if pos.ndim != 2 or pos.shape[1] != 2:
        raise DimensionError(f"positions must be (n, 2), got {pos.shape}")
    if not np.isfinite(pos).all():
        raise ParameterError("positions contain non-finite coordinates")
    return pos


@dataclass(eq=False)
class RadiusGraph:
    """All ordered point pairs within ``radius``, plus their geometry."""

    num_nodes: int
    edges: np.ndarray      # (m, 2) int64, directed both ways, sorted
    edge_attr: np.ndarray  # (m, 3) float64: dx, dy, euclidean distance
    radius: float
    _constants: dict = field(default_factory=dict, init=False, repr=False)

    @property
    def num_edges(self) -> int:
        return self.edges.shape[0]

    def cached(self, key, build: Callable[[], object],
               reuse: Callable[[object], bool] | None = None):
        """The per-graph constant ``key``: ``build()`` makes it on first use,
        and again whenever ``reuse(held)`` says the held one is stale."""
        held = self._constants.get(key)
        if held is None or (reuse is not None and not reuse(held)):
            held = self._constants[key] = build()
        return held

    @property
    def layout(self) -> "NeighbourLayout":
        return self.cached("layout", lambda: neighbour_layout(self))


@dataclass(eq=False)
class NeighbourLayout:
    """In-edges of every node packed into D = max in-degree slots.

    Slot (i, s) holds node i's s-th in-edge, in edge-list order (so by
    ascending source). Slots past a node's degree are padding: their
    neighbour id is 0, ``mask`` is False and ``slot_edge`` is -1. Per-slot
    rows are laid out node-major, as (n * D) x c matrices.
    """

    neighbours: np.ndarray  # (n, D) int64 source node of each slot
    mask: np.ndarray        # (n, D) bool, True on real edges
    slot_edge: np.ndarray   # (n * D,) int64 edge index of each slot, -1 in pads
    inv_degree: np.ndarray  # (n,) float64, 1 / max(in-degree, 1)
    edge_attr: np.ndarray   # (n * D, 3) edge attributes / radius, 0 in pads

    @property
    def max_degree(self) -> int:
        return self.neighbours.shape[1]

    def pad_edge_rows(self, rows) -> np.ndarray:
        """Spread an m x c per-edge matrix over the slots, zero in pads."""
        return _spread_over_slots(self.slot_edge, rows)


def _spread_over_slots(slot_edge: np.ndarray, rows) -> np.ndarray:
    rows = np.asarray(rows, dtype=np.float64)
    valid = slot_edge >= 0
    out = np.zeros((slot_edge.size, rows.shape[1]))
    out[valid] = rows[slot_edge[valid]]
    return out


def neighbour_layout(graph: RadiusGraph) -> NeighbourLayout:
    """Pack ``graph``'s in-edges into its padded layout (see NeighbourLayout)."""
    n, m = graph.num_nodes, graph.num_edges
    src, dst = graph.edges[:, 0], graph.edges[:, 1]
    deg = np.bincount(dst, minlength=n)
    width = int(deg.max()) if m else 0
    order = np.argsort(dst, kind="stable")
    owner = dst[order]
    slots = owner * width + np.arange(m) - (np.cumsum(deg) - deg)[owner]
    slot_edge = np.full(n * width, -1, dtype=np.int64)
    slot_edge[slots] = order
    neighbours = np.zeros(n * width, dtype=np.int64)
    neighbours[slots] = src[order]
    return NeighbourLayout(
        neighbours=neighbours.reshape(n, width),
        mask=(slot_edge >= 0).reshape(n, width),
        slot_edge=slot_edge,
        inv_degree=1.0 / np.maximum(deg, 1).astype(np.float64),
        edge_attr=_spread_over_slots(slot_edge, graph.edge_attr / graph.radius))


def build_radius_graph(points, radius: float) -> RadiusGraph:
    """Connect every ordered pair (i, j), i != j, with ||p_i - p_j|| <= radius."""
    pos = as_positions(points)
    if not radius > 0:
        raise ParameterError(f"radius must be positive, got {radius}")
    n = pos.shape[0]
    r2 = radius * radius

    cells: dict[tuple[int, int], list[int]] = {}
    keys = np.floor(pos / radius).astype(np.int64)
    for i in range(n):
        cells.setdefault((keys[i, 0], keys[i, 1]), []).append(i)

    srcs: list[np.ndarray] = []
    dsts: list[np.ndarray] = []
    for i in range(n):
        cx, cy = keys[i]
        cand: list[int] = []
        for ox in (-1, 0, 1):
            for oy in (-1, 0, 1):
                cand.extend(cells.get((cx + ox, cy + oy), ()))
        cand_arr = np.array(cand, dtype=np.int64)
        diff = pos[cand_arr] - pos[i]
        near = cand_arr[(diff[:, 0] ** 2 + diff[:, 1] ** 2 <= r2) & (cand_arr != i)]
        near.sort()
        srcs.append(np.full(near.size, i, dtype=np.int64))
        dsts.append(near)

    if srcs:
        edges = np.stack([np.concatenate(srcs), np.concatenate(dsts)], axis=1)
    else:
        edges = np.zeros((0, 2), dtype=np.int64)
    return RadiusGraph(num_nodes=n, edges=edges,
                       edge_attr=edge_attributes(pos, edges), radius=float(radius))


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


def gaussian_kernel_weights(points, edges, bandwidth: float, *,
                            include_self: bool = True,
                            row_normalize: bool = True) -> KernelWeights:
    """Positional weights w(i, j) = exp(-d(i, j)^2 / (2 bandwidth^2)).

    Weights live on the given edge support; with ``include_self`` each
    node also gets w(i, i) = 1. With ``row_normalize`` every node's
    incoming weights are divided by their sum, which is guaranteed
    positive when the self weight is present.
    """
    pos = as_positions(points)
    if not bandwidth > 0:
        raise ParameterError(f"bandwidth must be positive, got {bandwidth}")
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    n = pos.shape[0]
    attr = edge_attributes(pos, edges)
    w = np.exp(-(attr[:, 2] ** 2) / (2.0 * bandwidth * bandwidth))
    src, dst = edges[:, 0], edges[:, 1]
    if include_self:
        loop = np.arange(n, dtype=np.int64)
        src = np.concatenate([src, loop])
        dst = np.concatenate([dst, loop])
        w = np.concatenate([w, np.ones(n)])
    if row_normalize:
        sums = np.bincount(dst, weights=w, minlength=n)
        if (sums <= 0.0).any():
            bad = int(np.nonzero(sums <= 0.0)[0][0])
            raise NormalizationError(
                f"node {bad} has zero total kernel weight; "
                "enable include_self or drop row_normalize")
        w = w / sums[dst]
    return KernelWeights(num_nodes=n, src=src, dst=dst, weights=w)


def apply_kernel(tape: ad.Tape, weights: KernelWeights, node_features: ad.Value) -> ad.Value:
    """out_i = sum_j w(i, j) x_j over the sparse support.

    Differentiable with respect to the node features; the weights are
    constants.
    """
    if node_features.data.shape[0] != weights.num_nodes:
        raise DimensionError(
            f"features have {node_features.data.shape[0]} rows for "
            f"{weights.num_nodes} nodes")
    return ad.coo_matmul(tape, node_features, weights.src, weights.dst,
                         weights.weights, weights.num_nodes)

