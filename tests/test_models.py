import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stgno import autodiff as ad
from stgno import geometry, models
from stgno.errors import ContractError, DimensionError, ParameterError
from stgno.geometry import (RadiusGraph, build_radius_graph, edge_attributes,
                            gaussian_kernel_weights, row_mixer)
from stgno.autodiff import Parameter
from stgno.models import (ModelConfig, graphpde_forward, graphpde_layer, init_params,
                          kernel_net_forward, make_config, model_forward,
                          parameter_shapes, symmetric_norm_weights)

from stgno.train import class_weights, weighted_cross_entropy

from oracles import (coo_apply_kernel, coo_weights, dense_graphpde_layer,
                     finite_difference_grads, kernel_net_reference,
                     reference_graphpde_forward, rel_err, single_block_layout,
                     slot_attributes, two_stage_graphpde_forward, unfused_dense,
                     with_ones)

RNG = np.random.default_rng(99)


def random_graph(n, radius=0.5, seed=0):
    pts = np.random.default_rng(seed).uniform(size=(n, 2))
    return pts, build_radius_graph(pts, radius)


def two_node_graph(dist=0.5):
    pts = np.array([[0.0, 0.0], [dist, 0.0]])
    edges = np.array([[0, 1], [1, 0]])
    return pts, RadiusGraph(positions=pts, edges=edges, radius=1.0)


def edgeless_graph(n, positions=None):
    positions = np.zeros((n, 2)) if positions is None else positions
    return RadiusGraph(positions=positions, edges=np.zeros((0, 2), dtype=np.int64),
                       radius=1.0)


def explicit_kernel_model(h, **overrides):
    """A graphpde config without kernel hidden layers and params whose one
    kernel layer is the h^2 x h^2 identity (in place of the 3 x h^2 one),
    so the rows handed to graphpde_layer are the flattened per-edge
    kernels themselves."""
    cfg = make_config("graphpde", input_dim=4, hidden_dim=h,
                      kernel_net_hidden=(), **overrides)
    params = {name: Parameter(name, np.eye(h * h))
              if name == "layer_0_kernel_0_w" else p
              for name, p in init_params(cfg).items()}
    params["layer_0_kernel_0_b"].data[:] = 0.0
    return cfg, params


def explicit_kernels(graph, kernel_rows):
    """Per-edge kernel rows, each with the ones column the message op
    reads, spread over the graph's layout slots."""
    return ad.constant(graph.layout.pad_edge_rows(with_ones(kernel_rows)))


# ---------------------------------------------------------------------------
# configs and initialization


def test_unknown_kind_rejected():
    with pytest.raises(ParameterError, match="graphpde"):
        make_config("transformer", input_dim=4)
    with pytest.raises(ParameterError, match="unknown model kind 'transformer'"):
        ModelConfig(kind="transformer", input_dim=4)
    with pytest.raises(ParameterError, match="unknown model kind 'transformer'"):
        dataclasses.replace(make_config("lr", input_dim=4), kind="transformer")


@pytest.mark.parametrize("change,match", [
    ({"num_classes": 1}, "num_classes must be >= 2"), ({"num_classes": 0}, "num_classes"),
    ({"num_classes": -1}, "num_classes"), ({"num_layers": 0}, "num_layers"),
    ({"activation": "gelu"}, "activation"), ({"kernel_net_hidden": (0,)}, "kernel network"),
    ({"bandwidth": -1.0}, "bandwidth"), ({"num_classes": 3.0}, "num_classes"),
    ({"hidden_dim": True}, "hidden_dim"), ({"hidden_dim": "16"}, "hidden_dim"),
    ({"init_seed": -1}, "init_seed"), ({"kernel_net_hidden": (64.0,)}, "kernel network"),
    ({"bandwidth": True}, "bandwidth"), ({"bandwidth": float("inf")}, "bandwidth"),
    ({"bandwidth": float("nan")}, "bandwidth")])
def test_invalid_config_cannot_be_built_or_replaced_into(change, match):
    with pytest.raises(ParameterError, match=match):
        make_config("graphpde", input_dim=4, **change)
    with pytest.raises(ParameterError, match=match):
        dataclasses.replace(make_config("graphpde", input_dim=4), **change)


def test_make_config_none_layers_is_the_kind_default():
    for kind, row in models.KINDS.items():
        depth = row.default_layers
        assert make_config(kind, input_dim=4, num_layers=None).num_layers == depth
        assert make_config(kind, input_dim=4).num_layers == depth
        assert ModelConfig(kind=kind, input_dim=4).num_layers == depth
        assert ModelConfig(kind=kind, input_dim=4, num_layers=None).num_layers == depth


@pytest.mark.parametrize("widths", [(-1,), (0,), (8, 0)])
def test_nonpositive_kernel_widths_rejected(widths):
    with pytest.raises(ParameterError, match="kernel network widths"):
        make_config("graphpde", input_dim=4, kernel_net_hidden=widths)


def test_empty_kernel_hidden_is_valid():
    cfg = make_config("graphpde", input_dim=4, kernel_net_hidden=())
    kernel = [(name, shape) for name, shape in parameter_shapes(cfg)
              if name.startswith("layer_0_kernel_")]
    assert kernel == [("layer_0_kernel_0_w", (3, cfg.hidden_dim ** 2)),
                      ("layer_0_kernel_0_b", (1, cfg.hidden_dim ** 2))]


def test_default_depths():
    assert make_config("graphpde", input_dim=4).num_layers == 6
    assert make_config("spatial_kernel", input_dim=4).num_layers == 3


def test_init_deterministic_per_seed():
    cfg = make_config("fcn", input_dim=5, hidden_dim=7, init_seed=11)
    a, b = init_params(cfg), init_params(cfg)
    assert list(a) == list(b)
    for name in a:
        assert a[name].data.tobytes() == b[name].data.tobytes()


def test_biases_start_at_zero():
    params = init_params(make_config("graphpde", input_dim=4, hidden_dim=4,
                                     kernel_net_hidden=(8,)))
    for name, p in params.items():
        if name.endswith("_b"):
            assert np.array_equal(p.data, np.zeros_like(p.data))


def test_weight_sample_mean_near_zero():
    # one big layer gives >= 1e4 entries under the stated uniform law
    cfg = make_config("fcn", input_dim=100, hidden_dim=100, num_layers=1,
                      init_seed=3)
    w = init_params(cfg)["layer_0_w"].data
    bound = np.sqrt(6.0 / 200)
    sigma = bound / np.sqrt(3.0)
    assert w.size == 10_000
    assert abs(w.mean()) < 3.0 * sigma / np.sqrt(w.size)
    assert w.min() >= -bound and w.max() <= bound


@pytest.mark.parametrize("kind,expected", [
    ("lr", lambda d, h, c, L: d * c + c),
    ("fcn", lambda d, h, c, L: (d * h + h) + (L - 1) * (h * h + h) + (h * c + c)),
    ("gcn", lambda d, h, c, L: (d * h + h) + (L - 1) * (h * h + h) + (h * c + c)),
    ("spatial_kernel", lambda d, h, c, L: d * c + c if L == 1
        else (d * h + h) + (L - 2) * (h * h + h) + (h * c + c)),
    ("spatial_gcn", lambda d, h, c, L: (d * h + h) + (L - 1) * (h * h + h) + (h * c + c)),
    ("graphpde", lambda d, h, c, L: (d * h + h)
        + L * ((h * h + h) + (3 * 8 + 8) + (8 * h * h + h * h))
        + (h * c + c)),
])
def test_param_count_matches_analytic_formula(kind, expected):
    # the kind's default depth, then 1 and 3: lr ignores num_layers, and a
    # 1-layer spatial_kernel is its readout alone
    d, h, c = 5, 4, 3
    for layers in ({}, {"num_layers": 1}, {"num_layers": 3}):
        cfg = make_config(kind, input_dim=d, hidden_dim=h, kernel_net_hidden=(8,),
                          **layers)
        count = sum(p.data.size for p in init_params(cfg).values())
        assert count == expected(d, h, c, cfg.num_layers)


# ---------------------------------------------------------------------------
# baselines


def test_lr_zero_params_give_uniform_probabilities():
    cfg = make_config("lr", input_dim=4)
    params = {"readout_w": ad.Parameter("readout_w", np.zeros((4, 3))),
              "readout_b": ad.Parameter("readout_b", np.zeros((1, 3)))}
    logits = model_forward(ad.Tape(), cfg, params, RNG.uniform(-1, 1, (5, 4)))
    assert np.array_equal(logits.data, np.zeros((5, 3)))


def test_lr_shape_single_row():
    cfg = make_config("lr", input_dim=4, init_seed=0)
    out = model_forward(ad.Tape(), cfg, init_params(cfg), RNG.uniform(-1, 1, (1, 4)))
    assert out.data.shape == (1, 3)


def test_fcn_degenerate_hidden_dim():
    cfg = make_config("fcn", input_dim=4, hidden_dim=1, init_seed=0)
    out = model_forward(ad.Tape(), cfg, init_params(cfg), RNG.uniform(-1, 1, (6, 4)))
    assert out.data.shape == (6, 3)


def test_fcn_row_permutation_equivariance():
    cfg = make_config("fcn", input_dim=5, hidden_dim=6, init_seed=1)
    params = init_params(cfg)
    x = RNG.uniform(-1, 1, (8, 5))
    perm = RNG.permutation(8)
    out = model_forward(ad.Tape(), cfg, params, x).data
    out_perm = model_forward(ad.Tape(), cfg, params, x[perm]).data
    assert np.array_equal(out[perm], out_perm)


def test_feature_width_mismatch():
    cfg = make_config("lr", input_dim=4, init_seed=0)
    with pytest.raises(DimensionError):
        model_forward(ad.Tape(), cfg, init_params(cfg), np.zeros((3, 5)))


def test_graph_models_require_graph():
    cfg = make_config("gcn", input_dim=4, init_seed=0)
    with pytest.raises(ContractError):
        model_forward(ad.Tape(), cfg, init_params(cfg), np.zeros((3, 4)))


# ---------------------------------------------------------------------------
# gcn


def test_gcn_layer_edgeless_is_linear():
    # the self-loop weight of an edgeless graph is exactly 1, so every
    # convolution block reduces to the fcn block with the same parameters
    cfg = make_config("gcn", input_dim=4, hidden_dim=4, init_seed=2)
    params = init_params(cfg)
    x = RNG.uniform(-1, 1, (5, 4))
    out = model_forward(ad.Tape(), cfg, params, x, graph=edgeless_graph(5))
    fcn = make_config("fcn", input_dim=4, hidden_dim=4, init_seed=2)
    assert parameter_shapes(fcn) == parameter_shapes(cfg)
    assert np.array_equal(out.data, model_forward(ad.Tape(), fcn, params, x).data)


def test_gcn_two_node_normalization():
    # one edge, self loops: every entry of S-hat is 1/2
    _pts, graph = two_node_graph()
    v = np.array([[2.0, 0.0], [0.0, 4.0]])
    out = ad.mix_rows(ad.Tape(), ad.constant(v),
                      row_mixer(graph, *symmetric_norm_weights(graph)))
    assert np.allclose(out.data, [[1.0, 2.0], [1.0, 2.0]], atol=1e-15)


def _permute_sample(pts, graph, x, perm):
    inv = np.empty(len(perm), dtype=np.int64)
    inv[perm] = np.arange(len(perm))
    return pts[perm], build_radius_graph(pts[perm], graph.radius), x[perm], inv


@pytest.mark.parametrize("kind", ["gcn", "spatial_kernel", "spatial_gcn", "graphpde"])
def test_graph_model_permutation_equivariance(kind):
    pts, graph = random_graph(12, radius=0.45, seed=5)
    cfg = make_config(kind, input_dim=4, hidden_dim=4, kernel_net_hidden=(8,),
                      init_seed=7)
    params = init_params(cfg)
    x = RNG.uniform(-1, 1, (12, 4))
    base = model_forward(ad.Tape(), cfg, params, x, graph=graph).data
    for seed in range(3):
        perm = np.random.default_rng(seed).permutation(12)
        p_pts, p_graph, p_x, _inv = _permute_sample(pts, graph, x, perm)
        out = model_forward(ad.Tape(), cfg, params, p_x, graph=p_graph).data
        assert np.abs(base[perm] - out).max() < 1e-9


# ---------------------------------------------------------------------------
# spatial models


def test_spatial_kernel_tiny_bandwidth_equals_fcn_with_shared_params():
    _pts, graph = random_graph(10, radius=0.5, seed=9)
    sk = make_config("spatial_kernel", input_dim=4, hidden_dim=5,
                     bandwidth=1e-8, init_seed=4)
    fcn = make_config("fcn", input_dim=4, hidden_dim=5, num_layers=2, init_seed=4)
    params = init_params(fcn)  # same name set: layer_0, layer_1, readout
    assert [name for name, _ in parameter_shapes(sk)] == \
        [name for name, _ in parameter_shapes(fcn)]
    x = RNG.uniform(-1, 1, (10, 4))
    out_sk = model_forward(ad.Tape(), sk, params, x, graph=graph).data
    out_fcn = model_forward(ad.Tape(), fcn, params, x).data
    assert np.abs(out_sk - out_fcn).max() < 1e-9


def test_spatial_kernel_single_node_equals_fcn():
    pts = np.array([[0.2, 0.8]])
    graph = build_radius_graph(pts, 0.5)
    sk = make_config("spatial_kernel", input_dim=3, hidden_dim=4, init_seed=6)
    fcn = make_config("fcn", input_dim=3, hidden_dim=4, num_layers=2, init_seed=6)
    params = init_params(fcn)
    x = RNG.uniform(-1, 1, (1, 3))
    out_sk = model_forward(ad.Tape(), sk, params, x, graph=graph).data
    out_fcn = model_forward(ad.Tape(), fcn, params, x).data
    assert np.abs(out_sk - out_fcn).max() < 1e-12


def test_spatial_gcn_double_degeneracy_reduces_to_fcn():
    # edgeless graph: S-hat = I and the self-only kernel weight is 1
    graph = edgeless_graph(6, RNG.uniform(size=(6, 2)))
    sgcn = make_config("spatial_gcn", input_dim=4, hidden_dim=5, init_seed=8)
    fcn = make_config("fcn", input_dim=4, hidden_dim=5, init_seed=8)
    params = init_params(fcn)
    x = RNG.uniform(-1, 1, (6, 4))
    out_sgcn = model_forward(ad.Tape(), sgcn, params, x, graph=graph).data
    out_fcn = model_forward(ad.Tape(), fcn, params, x).data
    assert np.array_equal(out_sgcn, out_fcn)


def test_row_mixing_weights_cached_on_graph_give_identical_outputs():
    pts, graph = random_graph(10, radius=0.5, seed=9)
    cfg = make_config("spatial_gcn", input_dim=4, hidden_dim=5, init_seed=4)
    params = init_params(cfg)
    x = RNG.uniform(-1, 1, (10, 4))

    def run(g):
        return model_forward(ad.Tape(), cfg, params, x, graph=g).data

    first = run(graph)
    assert np.array_equal(run(graph), first)
    assert np.array_equal(run(build_radius_graph(pts, 0.5)), first)


@pytest.mark.parametrize("kind", ["spatial_kernel", "spatial_gcn"])
def test_graph_keeps_its_positions_when_the_input_array_changes(kind):
    rng = np.random.default_rng(21)
    pts = rng.uniform(size=(10, 2))
    graph = build_radius_graph(pts, 0.5)
    cfg = make_config(kind, input_dim=4, hidden_dim=5, init_seed=4)
    params = init_params(cfg)
    x = rng.uniform(-1, 1, (10, 4))
    want = model_forward(ad.Tape(), cfg, params, x,
                         graph=build_radius_graph(pts.copy(), 0.5)).data
    original = pts.copy()
    pts += rng.uniform(-0.2, 0.2, pts.shape)
    assert np.array_equal(graph.positions, original)
    assert np.array_equal(model_forward(ad.Tape(), cfg, params, x, graph=graph).data,
                          want)


def test_edge_attributes_are_computed_once_per_graph_and_only_for_graphpde(
        monkeypatch):
    calls = []
    real = geometry.edge_attributes
    monkeypatch.setattr(geometry, "edge_attributes",
                        lambda *a: calls.append(1) or real(*a))
    pts = np.random.default_rng(8).uniform(size=(3, 12, 2))
    x = RNG.uniform(-1, 1, (12, 4))
    gcn = make_config("gcn", input_dim=4, hidden_dim=5, init_seed=1)
    graph = build_radius_graph(pts[0], 0.4)
    model_forward(ad.Tape(), gcn, init_params(gcn), x, graph=graph)
    assert len(calls) == 0
    pde = make_config("graphpde", input_dim=4, hidden_dim=3, num_layers=2,
                      kernel_net_hidden=(4,), init_seed=1)
    pde_params = init_params(pde)
    graphs = [graph, *(build_radius_graph(p, 0.4) for p in pts[1:])]
    for g in graphs:
        assert g.num_edges > 0
        for _ in range(2):
            model_forward(ad.Tape(), pde, pde_params, x, graph=g)
    assert len(calls) == len(graphs)


def test_kernel_input_is_scaled_attributes_with_ones_and_zero_pads():
    # graphpde's kernel input, built once per graph: the slot_attributes
    # oracle (edge attributes / radius, then a 1), zero rows in pads
    g = build_radius_graph(np.random.default_rng(3).uniform(size=(30, 2)), 0.35)
    layout, attr = g.layout, models._kernel_input_for(g)
    valid = layout.mask
    assert 0 < valid.sum() < layout.num_slots
    assert attr.shape == (layout.num_slots, 4)
    assert np.array_equal(attr, slot_attributes(g, layout))
    assert np.array_equal(attr[valid], with_ones(g.edge_attr / g.radius)[
        layout.slot_edge[valid]])
    assert np.array_equal(attr[~valid], np.zeros(((~valid).sum(), 4)))
    assert models._kernel_input_for(g) is attr
    assert models._kernel_input_for(edgeless_graph(2)).shape == (0, 4)


def test_gaussian_and_norm_weights_share_one_support():
    # one weight per edge in edge order, then one self weight per node: the
    # support that row_mixer spreads over the layout
    for graph in (random_graph(12, radius=0.4, seed=2)[1],
                  edgeless_graph(3, RNG.uniform(size=(3, 2)))):
        for edge_w, self_w in (gaussian_kernel_weights(graph.positions, graph.edges, 0.1),
                               symmetric_norm_weights(graph)):
            assert edge_w.shape == (graph.num_edges,)
            assert self_w.shape == (graph.num_nodes,)


def _mixer_graphs():
    """A radius graph with 3 isolated spots, an edgeless graph and the
    two-node graph."""
    rng = np.random.default_rng(31)
    pts = np.vstack([rng.uniform(size=(60, 2)), [[5.0, 5.0], [7.0, 5.0], [5.0, 7.0]]])
    return (build_radius_graph(pts, 0.3), edgeless_graph(4, rng.uniform(size=(4, 2))),
            two_node_graph()[1])


@pytest.mark.parametrize("d", [1, 16, 32])
@pytest.mark.parametrize("which", ["norm", "gaussian"])
@pytest.mark.parametrize("graph_index", [0, 1, 2])
def test_row_mixer_is_bit_identical_to_coo_oracle(graph_index, which, d):
    graph = _mixer_graphs()[graph_index]
    n = graph.num_nodes
    edge_w, self_w = (symmetric_norm_weights(graph) if which == "norm" else
                      gaussian_kernel_weights(graph.positions, graph.edges, 0.15))
    mixer = row_mixer(graph, edge_w, self_w)
    weights = coo_weights(graph.edges, edge_w, self_w)
    # one array when the weights are symmetric: always for the normalization,
    # and for the Gaussian only on the edgeless and two-node graphs
    assert (mixer.transposed is mixer.weights) == (which == "norm" or graph_index > 0)
    rng = np.random.default_rng(d)
    x, coeffs = rng.uniform(-1, 1, (n, d)), rng.uniform(-1, 1, (n, d))
    results = []
    for mix in (lambda t, v: ad.mix_rows(t, v, mixer),
                lambda t, v: coo_apply_kernel(t, weights, v)):
        v = ad.Value(x.copy())
        tape = ad.Tape()
        out = mix(tape, v)
        tape.backward(ad.sum_all(tape, ad.mul_const(tape, out, coeffs)))
        constant = ad.constant(x)
        tape = ad.Tape()
        tape.backward(ad.sum_all(tape, ad.mul_const(tape, mix(tape, constant), coeffs)))
        assert constant.grad is None
        results.append((out.data, v.grad))
    (out, grad), (want, want_grad) = results
    assert np.array_equal(out, want)
    assert np.array_equal(grad, want_grad)


def test_row_mixer_needs_every_reverse_edge():
    pts = np.array([[0.0, 0.0], [0.5, 0.0], [0.0, 0.5]])
    one_way = RadiusGraph(positions=pts, edges=np.array([[0, 1], [0, 2], [2, 0]]),
                          radius=1.0)
    with pytest.raises(ContractError, match="reverse"):
        row_mixer(one_way, *symmetric_norm_weights(one_way))


@pytest.mark.parametrize("kind", ["gcn", "spatial_kernel", "spatial_gcn"])
def test_stack_step_is_bit_identical_to_coo_oracle(monkeypatch, kind):
    # the whole training step, with the row mixers swapped for coo_matmul
    # over the per-edge weights
    rng = np.random.default_rng(43)
    graph, _ = _isolated_slide(0.25, 43)
    cfg = make_config(kind, input_dim=6, hidden_dim=8, init_seed=2)
    params = init_params(cfg)
    _randomize_biases(params, rng)
    x = rng.uniform(-1, 1, (303, 6))
    labels = rng.integers(0, 3, 303)
    logits = model_forward(ad.Tape(record=False), cfg, params, x, graph=graph).data
    _, loss, grads = _training_step(cfg, params, graph, x, labels)
    monkeypatch.setattr(models, "_norm_weights_for", lambda g: coo_weights(
        g.edges, *symmetric_norm_weights(g)))
    monkeypatch.setattr(models, "_gaussian_weights_for", lambda c, g: coo_weights(
        g.edges, *gaussian_kernel_weights(g.positions, g.edges, g.radius / 2.0)))
    monkeypatch.setattr(models.ad, "mix_rows", lambda t, v, w: coo_apply_kernel(t, w, v))
    fresh = build_radius_graph(graph.positions, graph.radius)
    want = model_forward(ad.Tape(record=False), cfg, params, x, graph=fresh).data
    _, want_loss, want_grads = _training_step(cfg, params, fresh, x, labels)
    assert np.array_equal(logits, want)
    assert np.array_equal(loss, want_loss)
    for name in params:
        assert np.array_equal(grads[name], want_grads[name]), name


@pytest.mark.parametrize("kind", ["gcn", "spatial_gcn"])
def test_stack_step_allocates_no_edge_sized_arrays(kind):
    # 32 genes at the CLI's hidden width on a 300-spot r = 0.25 slide
    # (13.9k edges): coo_matmul's (m + n) x d temporaries took a step to a
    # traced peak of 7.5 MB (gcn) and 7.9 MB (spatial_gcn); row mixing on
    # the layout peaked at 0.8 and 1.2 MB while each step mixed the
    # features again, and peaks at 0.58 and 0.62 MB with the first block's
    # mixes held on the mixers
    rng = np.random.default_rng(61)
    graph = build_radius_graph(rng.uniform(size=(300, 2)), 0.25)
    x = rng.uniform(-1, 1, (300, 32))
    labels = rng.integers(0, 3, 300)
    cfg = make_config(kind, input_dim=32, hidden_dim=16, init_seed=1)
    params = init_params(cfg)
    _training_step(cfg, params, graph, x, labels)  # builds the cached mixers
    assert graph.num_edges > 13000
    tracemalloc.start()
    try:
        _training_step(cfg, params, graph, x, labels)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2e6, peak


# ---------------------------------------------------------------------------
# kernel network and message passing


def test_zero_kernel_net_final_layer_zeroes_all_kernels():
    # every K_e = 0: the oracle's kernels vanish and so does the message term
    cfg = make_config("graphpde", input_dim=3, hidden_dim=4,
                      kernel_net_hidden=(8,), init_seed=5)
    params = init_params(cfg)
    params["layer_0_kernel_1_w"].data[:] = 0.0
    _pts, graph = random_graph(7, seed=3)
    assert graph.num_edges > 0
    attr = models._kernel_input_for(graph)
    assert np.array_equal(kernel_net_reference(params, 0, attr[:, :-1], "relu"),
                          np.zeros((attr.shape[0], 16)))
    v = RNG.uniform(-1, 1, (7, 4))
    out = graphpde_layer(ad.Tape(), cfg, params, 0, graph, ad.constant(attr),
                         ad.constant(v))
    want = np.maximum(v @ params["layer_0_w"].data + params["layer_0_b"].data, 0.0)
    assert np.array_equal(out.data, want)


def test_kernel_net_empty_edges_valid():
    # the kernel net runs inside the message op on zero slot rows
    cfg = make_config("graphpde", input_dim=3, hidden_dim=4,
                      kernel_net_hidden=(8,), init_seed=5)
    params = init_params(cfg)
    hidden = kernel_net_forward(cfg, params, 0)
    assert [(w.data.shape, b.data.shape) for w, b in hidden] == [((3, 8), (1, 8))]
    graph = edgeless_graph(5)
    v = RNG.uniform(-1, 1, (5, 4))
    tape = ad.Tape()
    out = ad.kernel_message_mean(tape, ad.Value(np.zeros((0, 4))), hidden,
                                 params["layer_0_kernel_1_w"],
                                 params["layer_0_kernel_1_b"], ad.constant(v),
                                 graph.layout, "relu")
    assert np.array_equal(out.data, np.zeros((5, 4)))
    tape.backward(ad.sum_all(tape, out))
    assert not any(p.grad.any() for pair in hidden for p in pair)


def test_kernel_net_output_with_final_layer_matches_oracle():
    cfg = make_config("graphpde", input_dim=3, hidden_dim=4,
                      kernel_net_hidden=(8, 6), init_seed=5)
    params = init_params(cfg)
    for name, p in params.items():
        if name.endswith("_b"):
            p.data[:] = RNG.uniform(-0.5, 0.5, p.data.shape)
    # the hidden pairs, in order, then the final layer give the oracle's
    # kernels; the fused layer applies exactly those kernels
    attr = RNG.uniform(-1, 1, (9, 3))
    hidden = attr
    for w, b in kernel_net_forward(cfg, params, 0):
        hidden = np.maximum(hidden @ w.data + b.data, 0.0)
    assert hidden.shape == (9, 6)
    kernels = (hidden @ params["layer_0_kernel_2_w"].data
               + params["layer_0_kernel_2_b"].data)
    want = kernel_net_reference(params, 0, attr, "relu")
    assert np.abs(kernels - want).max() < 1e-14
    _pts, graph = random_graph(10, radius=0.5, seed=6)
    v = RNG.uniform(-1, 1, (10, 4))
    out = graphpde_layer(ad.Tape(), cfg, params, 0, graph,
                         ad.constant(models._kernel_input_for(graph)), ad.constant(v))
    edge_kernels = kernel_net_reference(params, 0, graph.edge_attr / graph.radius,
                                        "relu")
    dense = dense_graphpde_layer(params["layer_0_w"].data, params["layer_0_b"].data,
                                 edge_kernels, graph.edges, v, "relu")
    assert np.abs(out.data - dense).max() < 1e-12


def test_kernel_net_without_hidden_layers_passes_attributes_through():
    cfg = make_config("graphpde", input_dim=3, hidden_dim=4,
                      kernel_net_hidden=(), init_seed=5)
    params = init_params(cfg)
    assert kernel_net_forward(cfg, params, 0) == ()
    # the kernels are then linear in the attributes: K_e = a_e W + b
    _pts, graph = random_graph(8, radius=0.6, seed=4)
    params["layer_0_kernel_0_b"].data[:] = RNG.uniform(-0.5, 0.5, (1, 16))
    v = RNG.uniform(-1, 1, (8, 4))
    out = graphpde_layer(ad.Tape(), cfg, params, 0, graph,
                         ad.constant(models._kernel_input_for(graph)), ad.constant(v))
    kernels = kernel_net_reference(params, 0, graph.edge_attr / graph.radius, "relu")
    dense = dense_graphpde_layer(params["layer_0_w"].data, params["layer_0_b"].data,
                                 kernels, graph.edges, v, "relu")
    assert np.abs(out.data - dense).max() < 1e-12


def test_graphpde_layer_edgeless_reduces_to_linear_update():
    cfg, params = explicit_kernel_model(4, init_seed=1)
    graph = edgeless_graph(5)
    v = RNG.uniform(-1, 1, (5, 4))
    kernels = explicit_kernels(graph, np.zeros((0, 16)))
    out = graphpde_layer(ad.Tape(), cfg, params, 0, graph, kernels,
                         ad.constant(v))
    want = np.maximum(v @ params["layer_0_w"].data + params["layer_0_b"].data, 0.0)
    assert np.array_equal(out.data, want)


def test_graphpde_layer_two_node_identity_kernel_copies_neighbor():
    # kernels fixed to I, W = 0, b = 0: update is v'_x = act(mean_y v_y) = v_other
    cfg, params = explicit_kernel_model(2, init_seed=0)
    params["layer_0_w"].data[:] = 0.0
    _pts, graph = two_node_graph()
    v = np.array([[0.25, 0.5], [0.75, 0.125]])
    kernels = explicit_kernels(graph, np.tile(np.eye(2).ravel(), (2, 1)))
    out = graphpde_layer(ad.Tape(), cfg, params, 0, graph, kernels,
                         ad.constant(v))
    assert np.array_equal(out.data, v[::-1])


def test_graphpde_layer_matches_dense_reference():
    pts, graph = random_graph(10, radius=0.5, seed=13)
    cfg, params = explicit_kernel_model(4, init_seed=21)
    v = RNG.uniform(-1, 1, (10, 4))
    kernel_rows = RNG.uniform(-1, 1, (graph.num_edges, 16))
    out = graphpde_layer(ad.Tape(), cfg, params, 0, graph,
                         explicit_kernels(graph, kernel_rows), ad.constant(v))
    want = dense_graphpde_layer(params["layer_0_w"].data,
                                params["layer_0_b"].data,
                                kernel_rows, graph.edges, v, "relu")
    assert np.abs(out.data - want).max() < 1e-10


def _randomize_biases(params, rng):
    for name, p in params.items():
        if name.endswith("_b"):
            p.data[:] = rng.uniform(-0.2, 0.2, p.data.shape)


def _isolated_nodes_sample(rng):
    pts = np.vstack([rng.uniform(0.0, 0.4, (12, 2)), [[0.9, 0.9], [0.9, 0.1]]])
    return pts, build_radius_graph(pts, 0.25)


@pytest.mark.parametrize("kernel_hidden", [(32,), (), (16, 16)])
def test_graphpde_forward_matches_explicit_kernel_reference(kernel_hidden):
    rng = np.random.default_rng(7)
    pts, graph = random_graph(300, radius=0.25, seed=7)
    cfg = make_config("graphpde", input_dim=6, hidden_dim=8,
                      kernel_net_hidden=kernel_hidden, init_seed=3)
    params = init_params(cfg)
    _randomize_biases(params, rng)
    x = rng.uniform(-1, 1, (300, 6))
    got = graphpde_forward(ad.Tape(), cfg, params, graph, ad.constant(x)).data
    want = reference_graphpde_forward(params, cfg.num_layers, "relu", graph.edges,
                                      graph.edge_attr, graph.radius, x)
    assert np.abs(got - want).max() <= 1e-12 * max(1.0, np.abs(want).max())


def test_graphpde_forward_with_isolated_nodes_matches_reference():
    rng = np.random.default_rng(8)
    pts, graph = _isolated_nodes_sample(rng)
    assert (np.bincount(graph.edges[:, 1], minlength=14) == 0).sum() == 2
    cfg = make_config("graphpde", input_dim=6, hidden_dim=8,
                      kernel_net_hidden=(32,), activation="tanh", init_seed=4)
    params = init_params(cfg)
    _randomize_biases(params, rng)
    x = rng.uniform(-1, 1, (14, 6))
    got = graphpde_forward(ad.Tape(), cfg, params, graph, ad.constant(x)).data
    want = reference_graphpde_forward(params, cfg.num_layers, "tanh", graph.edges,
                                      graph.edge_attr, graph.radius, x)
    assert np.abs(got - want).max() <= 1e-12 * max(1.0, np.abs(want).max())


def test_graphpde_shape_contract():
    for n in (1, 2, 9):
        _pts, graph = random_graph(n, radius=0.6, seed=n)
        cfg = make_config("graphpde", input_dim=3, hidden_dim=4,
                          kernel_net_hidden=(8,), init_seed=0)
        out = model_forward(ad.Tape(), cfg, init_params(cfg),
                            RNG.uniform(-1, 1, (n, 3)), graph=graph)
        assert out.data.shape == (n, 3)


def test_kernel_net_gradient_matches_finite_differences():
    # through the whole kernel: hidden layers, then the final linear that
    # the mean message applies
    cfg = make_config("graphpde", input_dim=3, hidden_dim=3,
                      kernel_net_hidden=(4,), init_seed=17)
    params = init_params(cfg)
    params["layer_0_kernel_1_b"].data[:] = RNG.uniform(-1, 1, (1, 9))
    _pts, graph = random_graph(6, radius=0.6, seed=17)
    attr = ad.constant(with_ones(RNG.uniform(-1, 1, (graph.layout.num_slots, 3))))
    v = ad.constant(RNG.uniform(-1, 1, (6, 3)))
    coeffs = RNG.uniform(-1, 1, (6, 3))
    phi = [params["layer_0_kernel_0_w"], params["layer_0_kernel_0_b"],
           params["layer_0_kernel_1_w"], params["layer_0_kernel_1_b"]]

    def build(tape):
        out = ad.kernel_message_mean(tape, attr, kernel_net_forward(cfg, params, 0),
                                     phi[2], phi[3], v, graph.layout, cfg.activation)
        return ad.sum_all(tape, ad.mul_const(tape, out, coeffs))

    def loss_value():
        return float(build(ad.Tape()).data[0, 0])

    for p in phi:
        p.zero_grad()
    tape = ad.Tape()
    tape.backward(build(tape))
    fd = finite_difference_grads(loss_value, [p.data for p in phi])
    for p, want in zip(phi, fd):
        assert rel_err(p.grad, want) < 1e-4


def _training_step(cfg, params, graph, x, labels):
    for p in params.values():
        p.zero_grad()
    tape = ad.Tape()
    logits = model_forward(tape, cfg, params, x, graph=graph)
    loss = weighted_cross_entropy(tape, logits, labels, class_weights(labels, 3))
    tape.backward(loss)
    return len(tape), loss.data.copy(), {n: p.grad.copy() for n, p in params.items()}


@pytest.mark.parametrize("kind,activation", [
    *((kind, act) for kind in ("graphpde", "fcn") for act in ad.ACTIVATIONS),
    ("lr", "relu"), ("gcn", "relu"), ("spatial_kernel", "relu"),
    ("spatial_gcn", "relu")])
def test_fused_step_is_bit_identical_to_unfused(monkeypatch, kind, activation):
    # the criterion-7 widths (h = 8, k = 32, r = 0.25) on a smaller slide;
    # the reference step runs every linear layer as matmul -> row bias ->
    # activation
    rng = np.random.default_rng(41)
    _pts, graph = random_graph(120, radius=0.25, seed=41)
    cfg = make_config(kind, input_dim=6, hidden_dim=8, kernel_net_hidden=(32,),
                      activation=activation, init_seed=2)
    params = init_params(cfg)
    _randomize_biases(params, rng)
    x = rng.uniform(-1, 1, (120, 6))
    labels = rng.integers(0, 3, 120)
    fused_entries, fused_loss, fused_grads = _training_step(cfg, params, graph, x, labels)
    with monkeypatch.context() as patch:
        patch.setattr(ad, "dense", unfused_dense)
        entries, loss, grads = _training_step(cfg, params, graph, x, labels)
    assert fused_entries < entries
    assert np.array_equal(fused_loss, loss)
    for name in params:
        assert np.array_equal(fused_grads[name], grads[name]), name


@pytest.mark.parametrize("kind", ["gcn", "spatial_kernel", "spatial_gcn"])
def test_constant_features_get_no_gradient_and_change_no_bits(kind):
    # the first row mixing of these kinds takes the node features; as a
    # Constant they get no gradient, and the loss and every parameter
    # gradient keep the bits of a step that computes one
    rng = np.random.default_rng(43)
    _pts, graph = random_graph(120, radius=0.25, seed=43)
    cfg = make_config(kind, input_dim=6, hidden_dim=8, init_seed=2)
    params = init_params(cfg)
    _randomize_biases(params, rng)
    x = rng.uniform(-1, 1, (120, 6))
    labels = rng.integers(0, 3, 120)
    skipped, computed = ad.constant(x), ad.Value(x)
    _, loss, grads = _training_step(cfg, params, graph, skipped, labels)
    _, want_loss, want_grads = _training_step(cfg, params, graph, computed, labels)
    assert skipped.grad is None and computed.grad is not None
    assert np.array_equal(loss, want_loss)
    for name in params:
        assert np.array_equal(grads[name], want_grads[name]), name


def _single_block_twin(graph):
    """A copy of ``graph`` whose cached layout is the one-block oracle."""
    twin = RadiusGraph(positions=graph.positions, edges=graph.edges, radius=graph.radius)
    twin.cached("layout", lambda: single_block_layout(twin))
    twin.cached("kernel_input", lambda: slot_attributes(twin, twin.layout))
    return twin


@pytest.mark.parametrize("radius", [0.25, 1e-4])
@pytest.mark.parametrize("kernel_hidden,activation", [
    ((32,), "relu"), ((), "relu"), ((16, 16), "tanh")])
def test_graphpde_step_on_degree_blocks_matches_single_block_oracle(
        radius, kernel_hidden, activation):
    # 120 spots plus 3 isolated ones; at r = 1e-4 no spot has a neighbour,
    # so the one-block layout has D = 0
    rng = np.random.default_rng(47)
    pts = np.vstack([rng.uniform(size=(120, 2)), [[5.0, 5.0], [7.0, 5.0], [5.0, 7.0]]])
    graph = build_radius_graph(pts, radius)
    twin = _single_block_twin(graph)
    assert (twin.layout.num_slots == 0) == (radius < 0.1)
    cfg = make_config("graphpde", input_dim=6, hidden_dim=8,
                      kernel_net_hidden=kernel_hidden, activation=activation,
                      init_seed=2)
    params = init_params(cfg)
    _randomize_biases(params, rng)
    x = rng.uniform(-1, 1, (123, 6))
    labels = rng.integers(0, 3, 123)
    logits = graphpde_forward(ad.Tape(), cfg, params, graph, ad.constant(x)).data
    want = graphpde_forward(ad.Tape(), cfg, params, twin, ad.constant(x)).data
    assert np.array_equal(logits, want)
    _, loss, grads = _training_step(cfg, params, graph, x, labels)
    _, want_loss, want_grads = _training_step(cfg, params, twin, x, labels)
    assert np.array_equal(loss, want_loss)
    for name in params:
        assert rel_err(grads[name], want_grads[name]) <= 1e-12, name


def _isolated_slide(radius, seed):
    """300 uniform spots plus 3 far-away ones with no neighbour."""
    rng = np.random.default_rng(seed)
    pts = np.vstack([rng.uniform(size=(300, 2)), [[5.0, 5.0], [7.0, 5.0], [5.0, 7.0]]])
    return build_radius_graph(pts, radius), rng


def _reference_step(cfg, params, graph, x, labels, forward):
    for p in params.values():
        p.zero_grad()
    tape = ad.Tape()
    logits = forward(tape, cfg, params, graph, ad.constant(x))
    loss = weighted_cross_entropy(tape, logits, labels, class_weights(labels, 3))
    tape.backward(loss)
    inference = forward(ad.Tape(record=False), cfg, params, graph, ad.constant(x))
    return (logits.data, inference.data, loss.data.copy(),
            {n: p.grad.copy() for n, p in params.items()})


@pytest.mark.parametrize("radius", [0.25, 1e-4])
@pytest.mark.parametrize("activation", ad.ACTIVATIONS)
@pytest.mark.parametrize("kernel_hidden", [(), (32,), (16, 16)])
def test_fused_graphpde_matches_two_stage_reference(radius, activation, kernel_hidden):
    # the kernel net inside the message op, one degree block at a time,
    # against the kernel net as dense layers over all slots first; at
    # r = 1e-4 every block has width 0
    graph, rng = _isolated_slide(radius, 53)
    degree = np.bincount(graph.edges[:, 1], minlength=303)
    assert (degree[300:] == 0).all()
    assert (graph.layout.plan == ()) == (radius < 0.1)
    cfg = make_config("graphpde", input_dim=6, hidden_dim=8,
                      kernel_net_hidden=kernel_hidden, activation=activation,
                      init_seed=5)
    params = init_params(cfg)
    _randomize_biases(params, rng)
    x = rng.uniform(-1, 1, (303, 6))
    labels = rng.integers(0, 3, 303)
    logits, inference, loss, grads = _reference_step(
        cfg, params, graph, x, labels, graphpde_forward)
    want, want_inference, want_loss, want_grads = _reference_step(
        cfg, params, graph, x, labels, two_stage_graphpde_forward)
    assert np.array_equal(logits, want)
    assert np.array_equal(inference, want_inference)
    assert np.array_equal(inference, logits)
    assert np.array_equal(loss, want_loss)
    for name in params:
        assert rel_err(grads[name], want_grads[name]) <= 1e-12, name


def test_graphpde_step_allocates_no_slot_sized_arrays():
    # a 300-spot r = 0.25 slide at the criterion-7 widths (h = 8, k = 32)
    # and at the CLI's (h = 16, k = 64). A (num_slots x k) array is ~3.7 MB
    # at k = 32; one step used to peak at ~33 MB of traced allocations, one
    # inference forward at ~7.7 MB. At the CLI widths an n x k*h S array is
    # 2.5 MB: keeping one per layer took a step to 22.7 MB and a forward to
    # 4.1 MB; streamed per degree block they peak at 5.8 and 1.3 MB
    graph, rng = _isolated_slide(0.25, 59)
    x = rng.uniform(-1, 1, (303, 32))
    labels = rng.integers(0, 3, 303)
    for hidden, kernel, step_bound, forward_bound in ((8, 32, 12e6, 3e6),
                                                      (16, 64, 7e6, 2e6)):
        cfg = make_config("graphpde", input_dim=32, hidden_dim=hidden,
                          kernel_net_hidden=(kernel,), init_seed=1)
        params = init_params(cfg)
        _training_step(cfg, params, graph, x, labels)  # builds the cached layout
        assert graph.layout.num_slots * kernel * 8 > 3e6
        tracemalloc.start()
        try:
            _training_step(cfg, params, graph, x, labels)
            step_peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            model_forward(ad.Tape(record=False), cfg, params, x, graph=graph)
            forward_peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert step_peak <= step_bound, (hidden, kernel, step_peak)
        assert forward_peak <= forward_bound, (hidden, kernel, forward_peak)


@given(st.integers(0, 2 ** 31 - 1))
@settings(max_examples=10, deadline=None)
def test_all_forwards_finite_on_finite_inputs(seed):
    rng = np.random.default_rng(seed)
    pts = rng.uniform(size=(7, 2))
    graph = build_radius_graph(pts, 0.5)
    x = rng.uniform(-100, 100, (7, 4))
    for kind in ("lr", "fcn", "gcn", "spatial_kernel", "spatial_gcn", "graphpde"):
        cfg = make_config(kind, input_dim=4, hidden_dim=4, kernel_net_hidden=(8,),
                          init_seed=seed % 1000)
        out = model_forward(ad.Tape(), cfg, init_params(cfg), x, graph=graph)
        assert np.isfinite(out.data).all()
