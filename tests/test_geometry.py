import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stgno import autodiff as ad
from stgno.cli import _auto_radius
from stgno.errors import ContractError, DimensionError, ParameterError
from stgno.geometry import (NeighbourLayout, RadiusGraph, build_radius_graph,
                            gaussian_kernel_weights, row_mixer, slot_attributes,
                            stable_order)
from stgno.models import (_kernel_input_for, init_params, make_config, model_forward,
                          symmetric_norm_weights)
from stgno.pipeline import SyntheticConfig, generate_synthetic
from stgno.train import class_weights, weighted_cross_entropy

from oracles import (brute_force_radius_edges, cell_loop_radius_edges,
                     dense_gaussian_weights, dense_weight_matrix, edge_attributes,
                     edge_gaussian_weights, edge_norm_weights, pad_edge_rows,
                     searchsorted_mixer_slots, slot_coo_weights, slot_owners, with_ones)

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
    real = g.layout.mask
    dist = slot_attributes(pts, g.layout)[real, 2]
    assert (dist <= 0.25).all()
    owners, nbrs = slot_owners(g.layout)[real], g.layout.neighbours[real]
    recomputed = np.linalg.norm(pts[owners] - pts[nbrs], axis=1)
    assert np.abs(dist - recomputed).max() < 1e-12


def test_radius_graph_stores_only_positions_radius_layout_and_its_cache():
    assert [f.name for f in dataclasses.fields(RadiusGraph)] == [
        "positions", "radius", "layout", "symmetric", "_constants"]
    assert [f.name for f in dataclasses.fields(NeighbourLayout)] == [
        "order", "plan", "neighbours", "degree", "inv_degree", "max_block_slots",
        "max_block_nodes"]
    g = build_radius_graph(RNG.uniform(size=(20, 2)), 0.3)
    assert set(vars(g)) == {f.name for f in dataclasses.fields(RadiusGraph)}
    assert g.symmetric and g._constants == {}


def test_slot_attributes_are_derived_from_positions_and_layout_on_each_call():
    pts = RNG.uniform(size=(50, 2))
    g = build_radius_graph(pts, 0.3)
    first = slot_attributes(g.positions, g.layout)
    edges = g.edges
    assert np.array_equal(first, pad_edge_rows(g.layout, edges,
                                               edge_attributes(g.positions, edges)))
    again = slot_attributes(g.positions, g.layout)
    assert np.array_equal(again, first) and again is not first
    assert first.shape == (g.layout.num_slots, 3)
    # so is the edge list, from the layout alone
    assert np.array_equal(g.edges, edges) and g.edges is not edges


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


def _hand_slot_attributes(points, edges):
    """The slot attributes of a hand-built graph on ``points``."""
    return slot_attributes(points, RadiusGraph(points, edges, 1.0).layout)


def test_edge_attributes_345_triangle():
    attr = _hand_slot_attributes([(0.0, 0.0), (3.0, 4.0)], [(0, 1)])
    assert np.array_equal(attr, [[3.0, 4.0, 5.0]])


def test_edge_attributes_reverse_antisymmetry():
    attr = _hand_slot_attributes([(0.0, 0.0), (3.0, 4.0)], [(1, 0)])
    assert np.array_equal(attr, [[-3.0, -4.0, 5.0]])


def test_edge_attributes_bad_index():
    with pytest.raises(IndexError):
        RadiusGraph([(0.0, 0.0)], [(0, 3)], 1.0)


def test_edge_attribute_distance_column_exact():
    pts = RNG.uniform(size=(40, 2))
    g = build_radius_graph(pts, 0.3)
    real = g.layout.mask
    owners, nbrs = slot_owners(g.layout)[real], g.layout.neighbours[real]
    want = np.sqrt(((pts[owners] - pts[nbrs]) ** 2).sum(axis=1))
    assert np.array_equal(slot_attributes(pts, g.layout)[real, 2], want)


# ---------------------------------------------------------------------------
# gaussian kernel


def _gaussian_coo(graph, bandwidth):
    """The library's Gaussian weights on ``graph`` as COO entries."""
    edge_w, self_w, _transposed = gaussian_kernel_weights(graph.positions, graph.layout,
                                                          bandwidth)
    return slot_coo_weights(graph.layout, edge_w, self_w)


def test_zero_distance_weight_is_one():
    # a coincident neighbour weighs exactly as much as the node itself
    pts = [(0.0, 0.0), (0.0, 0.0)]
    g = RadiusGraph(pts, [(0, 1), (1, 0)], 1.0)
    edge_w, self_w, transposed = gaussian_kernel_weights(pts, g.layout, bandwidth=0.5)
    assert np.array_equal(edge_w, [0.5, 0.5]) and np.array_equal(self_w, [0.5, 0.5])
    assert np.array_equal(transposed, edge_w)
    K = dense_weight_matrix(slot_coo_weights(g.layout, edge_w, self_w))
    assert np.array_equal(K, dense_gaussian_weights(pts, 1.0, 0.5))


def test_one_neighbor_normalization_sums_to_one():
    pts = [(0.0, 0.0), (0.3, 0.0)]
    kw = _gaussian_coo(RadiusGraph(pts, [(0, 1), (1, 0)], 1.0), 0.5)
    for node in range(2):
        assert kw.weights[kw.dst == node].sum() == pytest.approx(1.0, abs=1e-15)


def test_kernel_weights_match_dense_formula():
    pts = RNG.uniform(size=(20, 2))
    radius, bandwidth = 0.4, 0.2
    K = dense_weight_matrix(_gaussian_coo(build_radius_graph(pts, radius), bandwidth))
    want = dense_gaussian_weights(pts, radius, bandwidth)
    assert np.abs(K - want).max() < 1e-12


def test_kernel_weights_have_the_bits_of_the_edge_attribute_distances():
    pts = RNG.uniform(size=(60, 2))
    g = build_radius_graph(pts, 0.3)
    layout = g.layout
    edge_w, self_w, transposed = gaussian_kernel_weights(pts, layout, 0.15)
    real = layout.mask
    w = np.exp(-(slot_attributes(pts, layout)[:, 2] ** 2) / (2.0 * 0.15 * 0.15)) * real
    owners = slot_owners(layout)
    total = np.bincount(owners, weights=w, minlength=60) + 1.0
    assert g.num_edges > 0 and not real.all()
    assert np.array_equal(edge_w, w / total[owners])
    assert np.array_equal(self_w, 1.0 / total)
    sources = np.where(real, layout.neighbours, owners)
    assert np.array_equal(transposed, w / total[sources])


def test_kernel_symmetry_before_normalization():
    # undoing the row normalization with the oracle's row sums leaves the
    # symmetric Gaussian matrix
    pts = RNG.uniform(size=(25, 2))
    kw = _gaussian_coo(build_radius_graph(pts, 0.35), 0.2)
    raw = dense_gaussian_weights(pts, 0.35, 0.2, row_normalize=False)
    assert np.array_equal(raw, raw.T)
    unnormalized = dense_weight_matrix(kw) * raw.sum(axis=1, keepdims=True)
    assert np.abs(unnormalized - unnormalized.T).max() < 1e-12


def test_isolated_node_keeps_only_its_self_weight():
    pts = [(0.0, 0.0), (0.1, 0.0), (5.0, 5.0)]
    K = dense_weight_matrix(_gaussian_coo(build_radius_graph(pts, 0.5), 0.5))
    assert np.array_equal(K[2], [0.0, 0.0, 1.0])
    assert np.abs(K - dense_gaussian_weights(pts, 0.5, 0.5)).max() < 1e-15


def test_bad_bandwidth():
    layout = RadiusGraph([(0.0, 0.0)], np.zeros((0, 2)), 1.0).layout
    with pytest.raises(ParameterError):
        gaussian_kernel_weights([(0.0, 0.0)], layout, 0.0)


# ---------------------------------------------------------------------------
# row mixing


def _self_only_mixer(n):
    """Weight 1 on every node's self loop, on an edgeless graph."""
    graph = RadiusGraph(positions=np.zeros((n, 2)),
                        edges=np.zeros((0, 2), dtype=np.int64), radius=1.0)
    return row_mixer(graph, np.zeros(0), np.ones(n))


def test_apply_kernel_identity_weights():
    x = RNG.uniform(-1, 1, (6, 4))
    out = ad.mix_rows(ad.Tape(), ad.constant(x), _self_only_mixer(6))
    assert np.array_equal(out.data, x)


def test_apply_kernel_uniform_two_nodes_averages():
    graph = RadiusGraph(positions=np.array([[0.0, 0.0], [0.5, 0.0]]),
                        edges=np.array([[0, 1], [1, 0]]), radius=1.0)
    x = np.array([[2.0, 0.0], [4.0, 6.0]])
    out = ad.mix_rows(ad.Tape(), ad.constant(x),
                      row_mixer(graph, np.full(2, 0.5), np.full(2, 0.5)))
    assert np.allclose(out.data, [[3.0, 3.0], [3.0, 3.0]], atol=1e-15)


def test_apply_kernel_matches_dense_matmul():
    pts = RNG.uniform(size=(15, 2))
    g = build_radius_graph(pts, 0.4)
    weights = gaussian_kernel_weights(pts, g.layout, 0.2)
    x = RNG.uniform(-1, 1, (15, 5))
    out = ad.mix_rows(ad.Tape(), ad.constant(x), row_mixer(g, *weights))
    K = dense_weight_matrix(slot_coo_weights(g.layout, *weights[:2]))
    assert np.abs(out.data - K @ x).max() < 1e-12


def test_apply_kernel_node_count_mismatch():
    with pytest.raises(DimensionError):
        ad.mix_rows(ad.Tape(), ad.constant(np.zeros((3, 2))), _self_only_mixer(4))


def test_row_mixer_rejects_weights_off_the_edge_support():
    # one weight and one transposed weight per slot, and one per node: any
    # other count is refused
    g = build_radius_graph(RNG.uniform(size=(8, 2)), 0.5)
    slot_w, self_w, transposed = gaussian_kernel_weights(g.positions, g.layout, 0.25)
    s, n = g.layout.num_slots, g.num_nodes
    assert s > 0 and slot_w.shape == transposed.shape == (s,) and self_w.shape == (n,)
    for bad in ((slot_w[:-1], self_w, transposed),
                (np.append(slot_w, 0.5), self_w, transposed),
                (slot_w, np.append(self_w, 0.5), transposed),
                (slot_w, self_w, transposed[:-1]),
                (slot_w[:-1], self_w)):
        with pytest.raises(DimensionError, match=rf"\({s},\) slot weights and "
                                                 rf"\({n},\) self weights"):
            row_mixer(g, *bad)


@pytest.mark.parametrize("n", [61, 255, 256])
def test_row_mixer_slots_equal_the_searchsorted_oracle(n):
    # random radius graphs with one isolated node; 255 and 256 nodes put
    # the degree-sorted node ids on either side of the 8/16-bit edge
    rng = np.random.default_rng(n)
    g = build_radius_graph(np.vstack([rng.uniform(size=(n - 1, 2)), [[5.0, 5.0]]]), 0.2)
    assert g.num_nodes == n and not (g.edges == n - 1).any()
    for slot_weights, (edge_w, _self_w) in (
            (symmetric_norm_weights(g), edge_norm_weights(g)),
            (gaussian_kernel_weights(g.positions, g.layout, 0.1),
             edge_gaussian_weights(g.positions, g.edges, 0.1))):
        mixer = row_mixer(g, *slot_weights)
        weights, transposed = searchsorted_mixer_slots(g, edge_w)
        assert np.array_equal(mixer.weights, weights)
        assert np.array_equal(mixer.transposed, transposed)


def test_row_mixer_refuses_a_degree_balanced_directed_cycle():
    # every node has in- and out-degree 1, but no edge has its reverse
    g = RadiusGraph(positions=np.array([[0.0, 0.0], [0.5, 0.0], [0.0, 0.5]]),
                    edges=np.array([[0, 1], [1, 2], [2, 0]]), radius=1.0)
    edge_w, self_w = symmetric_norm_weights(g)
    with pytest.raises(ContractError, match="reverse"):
        row_mixer(g, edge_w, self_w)
    with pytest.raises(ContractError, match="reverse"):
        searchsorted_mixer_slots(g, edge_w)


@given(st.integers(0, 2 ** 31 - 1))
@settings(max_examples=25, deadline=None)
def test_row_normalized_kernel_is_averaging(seed):
    rng = np.random.default_rng(seed)
    pts = rng.uniform(size=(12, 2))
    g = build_radius_graph(pts, 0.5)
    mixer = row_mixer(g, *gaussian_kernel_weights(pts, g.layout, 0.25))
    x = rng.uniform(-3, 3, (12, 2))
    out = ad.mix_rows(ad.Tape(), ad.constant(x), mixer).data
    for col in range(x.shape[1]):
        assert out[:, col].min() >= x[:, col].min() - 1e-12
        assert out[:, col].max() <= x[:, col].max() + 1e-12


# ---------------------------------------------------------------------------
# degree-blocked in-neighbour layout and cached per-graph constants


def _node_slots(layout):
    """Slot rows owned by every node: node -> range of rows in its block,
    empty for the nodes of runs of width 0, which the plan skips."""
    slots = {int(node): np.arange(0) for node in layout.order}
    for p in layout.plan:
        for j, node in enumerate(layout.order[p.nodes]):
            first = p.slots.start + j * p.width
            slots[int(node)] = np.arange(first, first + p.width)
    return slots


def test_layout_slots_hold_each_nodes_in_edges_in_order():
    pts = RNG.uniform(size=(25, 2))
    g = build_radius_graph(np.vstack([pts, [[5.0, 5.0]]]), 0.3)
    layout = g.layout
    n = layout.num_nodes
    edges = brute_force_radius_edges(g.positions, 0.3)
    deg = np.bincount(edges[:, 1], minlength=n)
    assert n == 26 and deg[-1] == 0
    assert np.array_equal(layout.degree, deg) and layout.num_edges == len(edges)
    assert np.array_equal(layout.inv_degree, 1.0 / np.maximum(deg, 1))
    assert layout.mask.sum() == len(edges)
    slots = _node_slots(layout)
    assert sorted(slots) == list(range(n))
    owners = layout.slot_nodes()
    for i in range(n):
        # the node's in-edges in edge-list order, that is by ascending
        # source, then its pads
        own = layout.neighbours[slots[i]]
        assert np.array_equal(own[:deg[i]], edges[edges[:, 1] == i, 0])
        assert layout.mask[slots[i][:deg[i]]].all()
        assert (own[deg[i]:] == n).all()
        assert not layout.mask[slots[i][deg[i]:]].any()
        assert (owners[slots[i]] == i).all()
    assert np.array_equal(g.edges, edges)


def _check_plan_cuts_degree_order(g):
    """The plan is the degree order cut into min(16, n) runs of near-equal
    size, the runs of width 0 left out; returns the plan and how many runs
    it skips."""
    n, layout = g.num_nodes, g.layout
    deg = np.bincount(g.edges[:, 1], minlength=n)
    assert np.array_equal(layout.order, np.argsort(deg, kind="stable"))
    assert layout.mask.sum() == g.num_edges
    plan, runs = layout.plan, min(16, n)
    skipped = runs - len(plan)
    assert len(plan) > 0 and skipped >= 0
    # the nodes before the plan have no in-edge and fill the skipped runs
    lead = plan[0].nodes.start
    assert not deg[layout.order[:lead]].any()
    assert skipped * (n // runs) <= lead <= skipped * (n // runs + 1)
    # node ranges follow each other up to n, slot ranges tile the slots
    assert [p.nodes.start for p in plan[1:]] == [p.nodes.stop for p in plan[:-1]]
    assert plan[-1].nodes.stop == n
    assert [p.slots.start for p in plan] == [0, *(p.slots.stop for p in plan[:-1])]
    assert plan[-1].slots.stop == layout.num_slots
    for p in plan:
        assert p.size == p.nodes.stop - p.nodes.start in (n // runs, n // runs + 1)
        assert p.width == deg[layout.order[p.nodes]].max()
        assert p.slots.stop - p.slots.start == p.size * p.width
    return plan, skipped


@pytest.mark.parametrize("n", [5, 16, 26, 300])
def test_layout_blocks_cut_the_degree_order_into_near_equal_runs(n):
    g = build_radius_graph(np.random.default_rng(n).uniform(size=(n, 2)), 0.3)
    _check_plan_cuts_degree_order(g)


@pytest.mark.parametrize("n, radius", [(5, 0.3), (26, 0.3), (300, 0.25), (40, 0.05)])
def test_layout_plan_lists_the_blocks_of_nonzero_width(n, radius):
    # at r = 0.05 most of the 40 spots have no neighbour, so the first
    # runs have width 0 and the plan skips them
    g = build_radius_graph(np.random.default_rng(n).uniform(size=(n, 2)), radius)
    layout = g.layout
    plan, skipped = _check_plan_cuts_degree_order(g)
    if radius == 0.05:
        assert skipped > 0
    for p in plan:
        assert p.width > 0
        assert np.array_equal(p.nbrs, layout.neighbours[p.slots])
        assert np.shares_memory(p.nbrs, layout.neighbours)
    assert layout.max_block_slots == max(p.size * p.width for p in plan)
    assert layout.max_block_nodes == max(p.size for p in plan)


@pytest.mark.parametrize("n, width", [(255, 1), (256, 2), (65535, 2), (65536, 4)])
def test_stable_order_equals_the_int64_stable_argsort(n, width):
    # destination ids as an edge array holds them: a strided int64 column
    assert np.min_scalar_type(n).itemsize == width
    rng = np.random.default_rng(n)
    dst = rng.integers(0, n, 3 * n)
    dst[:2] = n - 1, 0
    column = np.stack([np.zeros_like(dst), dst], axis=1)[:, 1]
    assert np.array_equal(stable_order(column, n), np.argsort(dst, kind="stable"))


@pytest.mark.parametrize("n", [1, 2, 40, 300])
def test_gathers_equal_the_fancy_index_oracles(n):
    # n = 1 is a one-spot slide, m = 0; two spots in the unit square are
    # always within 1.5
    rng = np.random.default_rng(n)
    g = build_radius_graph(rng.uniform(size=(n, 2)), 0.3 if n > 2 else 1.5)
    assert (g.num_edges == 0) == (n == 1)
    # the np.take gathers of the slot attributes, on the radius graph and
    # on a hand-built graph of random distinct pairs, self loops included
    pairs = np.unique(rng.integers(0, n, (5 * n, 2)), axis=0)
    for graph in (g, RadiusGraph(g.positions, pairs, 1.0)):
        edges = graph.edges
        assert np.array_equal(slot_attributes(graph.positions, graph.layout),
                              pad_edge_rows(graph.layout, edges,
                                            edge_attributes(graph.positions, edges)))


def test_layout_of_edgeless_graph_has_no_slots():
    g = build_radius_graph([(0.0, 0.0), (5.0, 5.0)], 1.0)
    layout = g.layout
    assert layout.num_slots == 0
    assert layout.plan == () and layout.max_block_slots == layout.max_block_nodes == 0
    assert sorted(layout.order) == [0, 1]
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


def _bits_cases():
    table, _ = generate_synthetic(SyntheticConfig(num_samples=1, num_genes=4))
    rng = np.random.default_rng(17)
    return {
        "r_0.25": (rng.uniform(size=(300, 2)), 0.25),
        "auto_radius": (table.positions, _auto_radius(table)),
        "isolated_nodes": (np.vstack([rng.uniform(size=(60, 2)),
                                      [[5.0, 5.0], [9.0, 9.0], [5.0, 9.0]]]), 0.3),
        "edgeless": (np.array([[0.0, 0.0], [5.0, 5.0], [9.0, 0.0]]), 1.0),
    }


@pytest.mark.parametrize("case", list(_bits_cases()))
def test_slot_constants_have_the_bits_of_the_per_edge_path(case):
    # the kernel input and both mixers' weights, built in slot order from
    # the positions and the layout, against the per-edge path: one row or
    # weight per edge of the edge list, spread over the slots
    points, radius = _bits_cases()[case]
    g = build_radius_graph(points, radius)
    layout, edges = g.layout, g.edges
    assert (g.num_edges == 0) == (case == "edgeless")
    assert layout.mask.all() == (case == "edgeless")
    kernel_rows = with_ones(edge_attributes(g.positions, edges) / g.radius)
    assert np.array_equal(_kernel_input_for(g), pad_edge_rows(layout, edges, kernel_rows))
    norm_w, norm_self = symmetric_norm_weights(g)
    edge_w, edge_self = edge_norm_weights(g)
    assert np.array_equal(norm_w, searchsorted_mixer_slots(g, edge_w)[0])
    assert np.array_equal(norm_self, edge_self)
    gauss_w, gauss_self, gauss_t = gaussian_kernel_weights(g.positions, layout,
                                                           g.radius / 2.0)
    edge_w, edge_self = edge_gaussian_weights(g.positions, edges, g.radius / 2.0)
    want_w, want_t = searchsorted_mixer_slots(g, edge_w)
    assert np.array_equal(gauss_w, want_w)
    assert np.array_equal(gauss_t, want_t)
    assert np.array_equal(gauss_self, edge_self)


def _slide_of_3000():
    n = 3000
    pts = np.random.default_rng(n).uniform(size=(n, 2))
    return pts, build_radius_graph(pts, math.sqrt(6 / (math.pi * n)))


def _held_bytes_and_bound(g) -> tuple[int, int]:
    """The bytes of every distinct array the graph, its layout and its plan
    own, and their bound: the positions, the neighbour ids and 24 bytes
    per node (the degree order, the degrees and their inverses)."""
    layout = g.layout
    roots = {}
    for obj in (vars(g), vars(layout), *(p._asdict() for p in layout.plan)):
        for value in obj.values():
            if isinstance(value, np.ndarray):
                while value.base is not None:
                    value = value.base
                roots[id(value)] = value
    return (sum(a.nbytes for a in roots.values()),
            g.positions.nbytes + layout.neighbours.nbytes + 24 * g.num_nodes)


def test_a_graph_holds_its_positions_neighbours_and_per_node_arrays_only():
    # no edge list and no slot-to-edge map: past the positions and the
    # neighbour ids, the graph and its layout hold 24 bytes per node
    pts, g = _slide_of_3000()
    assert g._constants == {}
    held, bound = _held_bytes_and_bound(g)
    assert held <= bound, (held, bound)
    assert np.array_equal(g.edges, brute_force_radius_edges(pts, g.radius))


def test_graphpde_step_and_forward_leave_the_graph_as_built():
    # a training step and an inference forward each derive graphpde's
    # kernel input and free it with their tape: the graph caches nothing
    # and still holds only what it was built with
    _pts, g = _slide_of_3000()
    rng = np.random.default_rng(5)
    cfg = make_config("graphpde", input_dim=6, hidden_dim=8, kernel_net_hidden=(32,),
                      init_seed=1)
    params = init_params(cfg)
    x = rng.uniform(-1, 1, (g.num_nodes, 6))
    labels = rng.integers(0, 3, g.num_nodes)
    tape = ad.Tape()
    logits = model_forward(tape, cfg, params, x, graph=g)
    tape.backward(weighted_cross_entropy(tape, logits, labels, class_weights(labels, 3)))
    assert all(np.isfinite(p.grad).all() for p in params.values())
    model_forward(ad.Tape(record=False), cfg, params, x, graph=g)
    assert g._constants == {}
    held, bound = _held_bytes_and_bound(g)
    assert held <= bound, (held, bound)
