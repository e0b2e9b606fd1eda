import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stgno import autodiff as ad
from stgno.cli import _auto_radius
from stgno.errors import ContractError, DimensionError, ParameterError
from stgno.geometry import (KernelWeights, RadiusGraph, apply_kernel,
                            build_radius_graph, edge_attributes,
                            gaussian_kernel_weights, row_mixer)
from stgno.pipeline import SyntheticConfig, generate_synthetic

from oracles import (brute_force_radius_edges, cell_loop_radius_edges,
                     dense_gaussian_weights, dense_weight_matrix)

RNG = np.random.default_rng(777)


def test_forced_edge_set():
    g = build_radius_graph([(0.0, 0.0), (0.0, 0.5), (0.0, 2.0)], radius=1.0)
    assert set(map(tuple, g.edges)) == {(0, 1), (1, 0)}


def test_single_point_has_no_edges():
    g = build_radius_graph([(0.3, 0.7)], radius=1.0)
    assert g.num_edges == 0 and g.num_nodes == 1


def test_nonpositive_radius_rejected():
    with pytest.raises(ParameterError):
        build_radius_graph([(0.0, 0.0)], radius=0.0)


def test_radius_graph_matches_brute_force_200_points():
    pts = RNG.uniform(size=(200, 2))
    g = build_radius_graph(pts, radius=0.15)
    assert np.array_equal(g.edges, brute_force_radius_edges(pts, 0.15))


def test_no_self_edges_no_duplicates_symmetric():
    pts = RNG.uniform(size=(80, 2))
    g = build_radius_graph(pts, radius=0.25)
    pairs = list(map(tuple, g.edges))
    assert len(pairs) == len(set(pairs))
    assert all(s != d for s, d in pairs)
    assert set(pairs) == {(d, s) for s, d in pairs}
    dist = g.edge_attr[:, 2]
    assert (dist <= 0.25).all()
    recomputed = np.linalg.norm(pts[g.edges[:, 1]] - pts[g.edges[:, 0]], axis=1)
    assert np.abs(dist - recomputed).max() < 1e-12


def test_radius_graph_stores_only_positions_edges_radius_and_its_cache():
    assert [f.name for f in dataclasses.fields(RadiusGraph)] == [
        "positions", "edges", "radius", "_constants"]


def test_edge_attr_is_derived_from_positions_and_edges_on_each_access():
    pts = RNG.uniform(size=(50, 2))
    g = build_radius_graph(pts, 0.3)
    first = g.edge_attr
    assert np.array_equal(first, edge_attributes(g.positions, g.edges))
    assert np.array_equal(g.edge_attr, first) and g.edge_attr is not first
    assert first.shape == (g.num_edges, 3)


@given(st.integers(0, 2 ** 31 - 1), st.integers(1, 60),
       st.sampled_from([0.05, 0.1, 0.2, 0.4, 0.8]))
@settings(max_examples=40, deadline=None)
def test_hash_equals_brute_force(seed, n, radius):
    pts = np.random.default_rng(seed).uniform(size=(n, 2))
    g = build_radius_graph(pts, radius)
    assert np.array_equal(g.edges, brute_force_radius_edges(pts, radius))


def _cell_loop_cases():
    rng = np.random.default_rng(31)
    # a square lattice of binary fractions: every neighbour lies exactly r
    # away, and many points sit on cell boundaries
    grid = np.stack(np.meshgrid(np.arange(-6, 7), np.arange(-6, 7)), axis=-1)
    lattice = grid.reshape(-1, 2) * 0.25
    clusters = np.concatenate([rng.uniform(size=(60, 2)) * 3e-3 + corner for corner in
                               ([0.0, 0.0], [1e12, 0.0], [0.0, 1e12], [-1e12, 1e12])])
    return {
        "30k_uniform": (rng.uniform(size=(30000, 2)), math.sqrt(6 / (math.pi * 30000))),
        "clusters_1e12_apart": (clusters, 1e-3),
        "lattice_r_apart": (lattice, 0.25),
        "lattice_diagonal_r_apart": (lattice, 0.25 * math.sqrt(2.0)),
        "n0": (np.zeros((0, 2)), 1.0),
        "n1": (np.array([[0.5, -0.5]]), 1.0),
        "n2_r_apart": (np.array([[-0.5, 0.0], [0.5, 0.0]]), 1.0),
        "n2_coincident": (np.array([[0.3, 0.3], [0.3, 0.3]]), 1.0),
        "n2_beyond_r": (np.array([[0.0, 0.0], [1.0, 1.0]]), 1.0),
    }


@pytest.mark.parametrize("case", list(_cell_loop_cases()))
def test_build_equals_the_cell_loop(case):
    points, radius = _cell_loop_cases()[case]
    g = build_radius_graph(points, radius)
    want = cell_loop_radius_edges(points, radius)
    assert g.edges.dtype == want.dtype == np.int64
    assert np.array_equal(g.edges, want)
    if case.startswith("lattice"):
        assert g.num_edges >= 4 * 11 * 11


@given(st.integers(0, 2 ** 31 - 1))
@settings(max_examples=20, deadline=None)
def test_permutation_consistency(seed):
    rng = np.random.default_rng(seed)
    pts = rng.uniform(size=(30, 2))
    perm = rng.permutation(30)
    g_perm = build_radius_graph(pts[perm], 0.3)
    # relabeling points relabels the edge set identically
    inv = np.empty(30, dtype=np.int64)
    inv[perm] = np.arange(30)
    base = build_radius_graph(pts, 0.3)
    relabeled = sorted((inv[s], inv[d]) for s, d in base.edges)
    assert relabeled == sorted(map(tuple, g_perm.edges))


def test_edge_attributes_345_triangle():
    attr = edge_attributes([(0.0, 0.0), (3.0, 4.0)], [(0, 1)])
    assert np.array_equal(attr, [[3.0, 4.0, 5.0]])


def test_edge_attributes_reverse_antisymmetry():
    attr = edge_attributes([(0.0, 0.0), (3.0, 4.0)], [(1, 0)])
    assert np.array_equal(attr, [[-3.0, -4.0, 5.0]])


def test_edge_attributes_bad_index():
    with pytest.raises(IndexError):
        edge_attributes([(0.0, 0.0)], [(0, 3)])


def test_edge_attribute_distance_column_exact():
    pts = RNG.uniform(size=(40, 2))
    g = build_radius_graph(pts, 0.3)
    want = np.sqrt(((pts[g.edges[:, 1]] - pts[g.edges[:, 0]]) ** 2).sum(axis=1))
    assert np.array_equal(g.edge_attr[:, 2], want)


# ---------------------------------------------------------------------------
# gaussian kernel


def test_zero_distance_weight_is_one():
    # a coincident neighbour weighs exactly as much as the node itself
    pts = [(0.0, 0.0), (0.0, 0.0)]
    kw = gaussian_kernel_weights(pts, [(0, 1), (1, 0)], bandwidth=0.5)
    assert np.array_equal(kw.weights, [0.5, 0.5, 0.5, 0.5])
    assert np.array_equal(dense_weight_matrix(kw),
                          dense_gaussian_weights(pts, 1.0, 0.5))


def test_one_neighbor_normalization_sums_to_one():
    pts = [(0.0, 0.0), (0.3, 0.0)]
    kw = gaussian_kernel_weights(pts, [(0, 1), (1, 0)], bandwidth=0.5)
    for node in range(2):
        assert kw.weights[kw.dst == node].sum() == pytest.approx(1.0, abs=1e-15)


def test_kernel_weights_match_dense_formula():
    pts = RNG.uniform(size=(20, 2))
    radius, bandwidth = 0.4, 0.2
    g = build_radius_graph(pts, radius)
    kw = gaussian_kernel_weights(pts, g.edges, bandwidth)
    K = dense_weight_matrix(kw)
    want = dense_gaussian_weights(pts, radius, bandwidth)
    assert np.abs(K - want).max() < 1e-12


def test_kernel_symmetry_before_normalization():
    # undoing the row normalization with the oracle's row sums leaves the
    # symmetric Gaussian matrix
    pts = RNG.uniform(size=(25, 2))
    g = build_radius_graph(pts, 0.35)
    kw = gaussian_kernel_weights(pts, g.edges, 0.2)
    raw = dense_gaussian_weights(pts, 0.35, 0.2, row_normalize=False)
    assert np.array_equal(raw, raw.T)
    unnormalized = dense_weight_matrix(kw) * raw.sum(axis=1, keepdims=True)
    assert np.abs(unnormalized - unnormalized.T).max() < 1e-12


def test_isolated_node_keeps_only_its_self_weight():
    pts = [(0.0, 0.0), (0.1, 0.0), (5.0, 5.0)]
    g = build_radius_graph(pts, 0.5)
    kw = gaussian_kernel_weights(pts, g.edges, 0.5)
    K = dense_weight_matrix(kw)
    assert np.array_equal(K[2], [0.0, 0.0, 1.0])
    assert np.abs(K - dense_gaussian_weights(pts, 0.5, 0.5)).max() < 1e-15


def test_bad_bandwidth():
    with pytest.raises(ParameterError):
        gaussian_kernel_weights([(0.0, 0.0)], np.zeros((0, 2)), 0.0)


# ---------------------------------------------------------------------------
# apply_kernel


def _self_only_mixer(n):
    """Weight 1 on every node's self loop, on an edgeless graph."""
    graph = RadiusGraph(positions=np.zeros((n, 2)),
                        edges=np.zeros((0, 2), dtype=np.int64), radius=1.0)
    loop = np.arange(n, dtype=np.int64)
    return row_mixer(graph, KernelWeights(num_nodes=n, src=loop, dst=loop,
                                          weights=np.ones(n)))


def test_apply_kernel_identity_weights():
    x = RNG.uniform(-1, 1, (6, 4))
    out = apply_kernel(ad.Tape(), _self_only_mixer(6), ad.constant(x))
    assert np.array_equal(out.data, x)


def test_apply_kernel_uniform_two_nodes_averages():
    graph = RadiusGraph(positions=np.array([[0.0, 0.0], [0.5, 0.0]]),
                        edges=np.array([[0, 1], [1, 0]]), radius=1.0)
    w = KernelWeights(num_nodes=2,
                      src=np.array([0, 1, 0, 1]),
                      dst=np.array([1, 0, 0, 1]),
                      weights=np.full(4, 0.5))
    x = np.array([[2.0, 0.0], [4.0, 6.0]])
    out = apply_kernel(ad.Tape(), row_mixer(graph, w), ad.constant(x))
    assert np.allclose(out.data, [[3.0, 3.0], [3.0, 3.0]], atol=1e-15)


def test_apply_kernel_matches_dense_matmul():
    pts = RNG.uniform(size=(15, 2))
    g = build_radius_graph(pts, 0.4)
    kw = gaussian_kernel_weights(pts, g.edges, 0.2)
    x = RNG.uniform(-1, 1, (15, 5))
    out = apply_kernel(ad.Tape(), row_mixer(g, kw), ad.constant(x))
    assert np.abs(out.data - dense_weight_matrix(kw) @ x).max() < 1e-12


def test_apply_kernel_node_count_mismatch():
    with pytest.raises(DimensionError):
        apply_kernel(ad.Tape(), _self_only_mixer(4), ad.constant(np.zeros((3, 2))))


def test_row_mixer_rejects_weights_off_the_edge_support():
    g = build_radius_graph(RNG.uniform(size=(8, 2)), 0.5)
    kw = gaussian_kernel_weights(g.positions, g.edges, 0.25)
    assert g.num_edges > 0
    with pytest.raises(ContractError):
        row_mixer(g, dataclasses.replace(kw, src=kw.src[::-1].copy()))
    with pytest.raises(ContractError):
        row_mixer(g, dataclasses.replace(kw, num_nodes=9))


@given(st.integers(0, 2 ** 31 - 1))
@settings(max_examples=25, deadline=None)
def test_row_normalized_kernel_is_averaging(seed):
    rng = np.random.default_rng(seed)
    pts = rng.uniform(size=(12, 2))
    g = build_radius_graph(pts, 0.5)
    kw = gaussian_kernel_weights(pts, g.edges, 0.25)
    x = rng.uniform(-3, 3, (12, 2))
    out = apply_kernel(ad.Tape(), row_mixer(g, kw), ad.constant(x)).data
    for col in range(x.shape[1]):
        assert out[:, col].min() >= x[:, col].min() - 1e-12
        assert out[:, col].max() <= x[:, col].max() + 1e-12


# ---------------------------------------------------------------------------
# degree-blocked in-neighbour layout and cached per-graph constants


def _node_slots(layout):
    """Slot rows owned by every node: node -> range of rows in its block."""
    slots = {}
    for blk in layout.blocks:
        for j, node in enumerate(layout.order[blk.lo:blk.hi]):
            first = blk.start + j * blk.width
            slots[int(node)] = np.arange(first, first + blk.width)
    return slots


def test_layout_slots_hold_each_nodes_in_edges_in_order():
    pts = RNG.uniform(size=(25, 2))
    g = build_radius_graph(np.vstack([pts, [[5.0, 5.0]]]), 0.3)
    layout = g.layout
    n = layout.num_nodes
    deg = np.bincount(g.edges[:, 1], minlength=n)
    assert n == 26 and deg[-1] == 0
    assert np.array_equal(np.bincount(g.edges[layout.slot_edge[layout.mask], 1],
                                      minlength=n), deg)
    assert np.array_equal(layout.inv_degree, 1.0 / np.maximum(deg, 1))
    slots = _node_slots(layout)
    assert sorted(slots) == list(range(n))
    for i in range(n):
        own = layout.slot_edge[slots[i]]
        edges = own[:deg[i]]
        assert np.array_equal(edges, np.nonzero(g.edges[:, 1] == i)[0])
        assert np.array_equal(layout.neighbours[slots[i][:deg[i]]], g.edges[edges, 0])
        assert (own[deg[i]:] == -1).all()
        assert (layout.neighbours[slots[i][deg[i]:]] == n).all()
        assert not layout.mask[slots[i][deg[i]:]].any()


@pytest.mark.parametrize("n", [5, 16, 26, 300])
def test_layout_blocks_cut_the_degree_order_into_near_equal_runs(n):
    g = build_radius_graph(np.random.default_rng(n).uniform(size=(n, 2)), 0.3)
    layout = g.layout
    deg = np.bincount(g.edges[:, 1], minlength=n)
    assert np.array_equal(layout.order, np.argsort(deg, kind="stable"))
    blocks = layout.blocks
    assert len(blocks) == min(16, n)
    sizes = [blk.size for blk in blocks]
    assert min(sizes) >= 1 and max(sizes) - min(sizes) <= 1
    assert blocks[0].lo == 0 and blocks[-1].hi == n
    assert blocks[0].start == 0 and blocks[-1].stop == layout.num_slots
    for prev, blk in zip(blocks, blocks[1:]):
        assert (blk.lo, blk.start) == (prev.hi, prev.stop)
    for blk in blocks:
        assert blk.width == deg[layout.order[blk.lo:blk.hi]].max()
    assert layout.mask.sum() == g.num_edges


def test_layout_edge_attributes_are_scaled_and_zero_padded():
    g = build_radius_graph(RNG.uniform(size=(30, 2)), 0.35)
    layout, attr = g.layout, g.slot_attr
    valid = layout.mask
    assert attr.shape == (layout.num_slots, 3)
    assert np.array_equal(attr[valid], (g.edge_attr / g.radius)[layout.slot_edge[valid]])
    assert np.array_equal(attr[~valid], np.zeros(((~valid).sum(), 3)))
    assert np.array_equal(layout.pad_edge_rows(g.edge_attr / g.radius), attr)
    assert g.slot_attr is attr


def test_layout_of_edgeless_graph_has_no_slots():
    g = build_radius_graph([(0.0, 0.0), (5.0, 5.0)], 1.0)
    layout = g.layout
    assert layout.num_slots == 0
    assert [blk.width for blk in layout.blocks] == [0, 0]
    assert sorted(layout.order) == [0, 1]
    assert g.slot_attr.shape == (0, 3)
    assert np.array_equal(layout.inv_degree, np.ones(2))


@pytest.mark.parametrize("radius", [0.25, None])
def test_layout_pads_at_most_a_quarter_over_the_edge_count(radius):
    # a 300-spot synthetic slide at the acceptance radius and at the CLI's
    # degree-6 auto radius, where a single padded block needs 1.5x and 2.5x m
    table, _ = generate_synthetic(SyntheticConfig(num_samples=1, num_genes=4))
    radius = radius if radius is not None else _auto_radius(table)
    g = build_radius_graph(table.positions, radius)
    assert g.num_nodes == 300
    assert g.layout.num_slots <= 1.25 * g.num_edges


def test_graph_constants_are_built_once():
    g = build_radius_graph(RNG.uniform(size=(10, 2)), 0.4)
    assert g.layout is g.layout
    calls = []
    first = g.cached("k", lambda: calls.append(1) or "value")
    assert g.cached("k", lambda: calls.append(1) or "other") == first == "value"
    assert calls == [1]
