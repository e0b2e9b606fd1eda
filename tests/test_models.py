import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stgno import autodiff as ad
from stgno.errors import ContractError, DimensionError, ParameterError
from stgno.geometry import (RadiusGraph, build_radius_graph, edge_attributes,
                            gaussian_kernel_weights)
from stgno.models import (ModelParams, gcn_layer, graphpde_forward,
                          graphpde_layer, init_params, kernel_net_forward,
                          make_config, model_forward, parameter_shapes,
                          symmetric_norm_weights)

from oracles import (dense_graphpde_layer, finite_difference_grads,
                     kernel_net_reference, reference_graphpde_forward, rel_err)

RNG = np.random.default_rng(99)


def random_graph(n, radius=0.5, seed=0):
    pts = np.random.default_rng(seed).uniform(size=(n, 2))
    return pts, build_radius_graph(pts, radius)


def two_node_graph(dist=0.5):
    pts = np.array([[0.0, 0.0], [dist, 0.0]])
    edges = np.array([[0, 1], [1, 0]])
    return pts, RadiusGraph(num_nodes=2, edges=edges,
                            edge_attr=edge_attributes(pts, edges), radius=1.0)


def edgeless_graph(n):
    return RadiusGraph(num_nodes=n, edges=np.zeros((0, 2), dtype=np.int64),
                       edge_attr=np.zeros((0, 3)), radius=1.0)


def explicit_kernel_model(h, **overrides):
    """A graphpde config and params whose final kernel layer (h^2 -> h^2)
    is the identity, so the hidden rows handed to graphpde_layer are the
    flattened per-edge kernels themselves."""
    cfg = make_config("graphpde", input_dim=4, hidden_dim=h,
                      kernel_net_hidden=(h * h,), **overrides)
    params = init_params(cfg)
    params["layer_0_kernel_1_w"].data[:] = np.eye(h * h)
    params["layer_0_kernel_1_b"].data[:] = 0.0
    return cfg, params


def explicit_kernels(graph, kernel_rows):
    """Per-edge kernel rows spread over the graph's padded layout slots."""
    return ad.constant(graph.layout.pad_edge_rows(kernel_rows))


# ---------------------------------------------------------------------------
# configs and initialization


def test_unknown_kind_rejected():
    with pytest.raises(ParameterError, match="graphpde"):
        make_config("transformer", input_dim=4)


@pytest.mark.parametrize("widths", [(-1,), (0,), (8, 0)])
def test_nonpositive_kernel_widths_rejected(widths):
    with pytest.raises(ParameterError, match="kernel network widths"):
        make_config("graphpde", input_dim=4, kernel_net_hidden=widths)


def test_empty_kernel_hidden_is_valid():
    cfg = make_config("graphpde", input_dim=4, kernel_net_hidden=())
    assert cfg.kernel_net.widths == (3, cfg.hidden_dim ** 2)


def test_default_depths():
    assert make_config("graphpde", input_dim=4).num_layers == 6
    assert make_config("spatial_kernel", input_dim=4).num_layers == 3


def test_init_deterministic_per_seed():
    cfg = make_config("fcn", input_dim=5, hidden_dim=7, init_seed=11)
    a, b = init_params(cfg), init_params(cfg)
    assert a.names() == b.names()
    for name in a.names():
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
    ("lr", lambda d, h, c: d * c + c),
    ("fcn", lambda d, h, c: (d * h + h) + (h * h + h) + (h * c + c)),
    ("gcn", lambda d, h, c: (d * h + h) + (h * h + h) + (h * c + c)),
    ("spatial_kernel", lambda d, h, c: (d * h + h) + (h * h + h) + (h * c + c)),
    ("spatial_gcn", lambda d, h, c: (d * h + h) + (h * h + h) + (h * c + c)),
    ("graphpde", lambda d, h, c: (d * h + h)
        + 6 * ((h * h + h) + (3 * 8 + 8) + (8 * h * h + h * h))
        + (h * c + c)),
])
def test_param_count_matches_analytic_formula(kind, expected):
    d, h, c = 5, 4, 3
    cfg = make_config(kind, input_dim=d, hidden_dim=h, kernel_net_hidden=(8,))
    assert init_params(cfg).count() == expected(d, h, c)


# ---------------------------------------------------------------------------
# baselines


def test_lr_zero_params_give_uniform_probabilities():
    cfg = make_config("lr", input_dim=4)
    params = ModelParams([ad.Parameter("readout_w", np.zeros((4, 3))),
                          ad.Parameter("readout_b", np.zeros((1, 3)))])
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
    cfg = make_config("gcn", input_dim=4, hidden_dim=4, init_seed=2)
    params = init_params(cfg)
    graph = edgeless_graph(5)
    x = RNG.uniform(-1, 1, (5, 4))
    out = gcn_layer(ad.Tape(), params, 0, symmetric_norm_weights(graph),
                    ad.constant(x))
    want = x @ params["layer_0_w"].data + params["layer_0_b"].data
    assert np.array_equal(out.data, want)


def test_gcn_two_node_normalization():
    # one edge, self loops: every entry of S-hat is 1/2
    _pts, graph = two_node_graph()
    params = ModelParams([ad.Parameter("layer_0_w", np.eye(2)),
                          ad.Parameter("layer_0_b", np.zeros((1, 2)))])
    v = np.array([[2.0, 0.0], [0.0, 4.0]])
    out = gcn_layer(ad.Tape(), params, 0, symmetric_norm_weights(graph),
                    ad.constant(v))
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
    base = model_forward(ad.Tape(), cfg, params, x, graph=graph, positions=pts).data
    for seed in range(3):
        perm = np.random.default_rng(seed).permutation(12)
        p_pts, p_graph, p_x, _inv = _permute_sample(pts, graph, x, perm)
        out = model_forward(ad.Tape(), cfg, params, p_x, graph=p_graph,
                            positions=p_pts).data
        assert np.abs(base[perm] - out).max() < 1e-9


# ---------------------------------------------------------------------------
# spatial models


def test_spatial_kernel_tiny_bandwidth_equals_fcn_with_shared_params():
    pts, graph = random_graph(10, radius=0.5, seed=9)
    sk = make_config("spatial_kernel", input_dim=4, hidden_dim=5,
                     bandwidth=1e-8, init_seed=4)
    fcn = make_config("fcn", input_dim=4, hidden_dim=5, num_layers=2, init_seed=4)
    params = init_params(fcn)  # same name set: layer_0, layer_1, readout
    assert [name for name, _ in parameter_shapes(sk)] == \
        [name for name, _ in parameter_shapes(fcn)]
    x = RNG.uniform(-1, 1, (10, 4))
    out_sk = model_forward(ad.Tape(), sk, params, x, graph=graph, positions=pts).data
    out_fcn = model_forward(ad.Tape(), fcn, params, x).data
    assert np.abs(out_sk - out_fcn).max() < 1e-9


def test_spatial_kernel_single_node_equals_fcn():
    pts = np.array([[0.2, 0.8]])
    graph = build_radius_graph(pts, 0.5)
    sk = make_config("spatial_kernel", input_dim=3, hidden_dim=4, init_seed=6)
    fcn = make_config("fcn", input_dim=3, hidden_dim=4, num_layers=2, init_seed=6)
    params = init_params(fcn)
    x = RNG.uniform(-1, 1, (1, 3))
    out_sk = model_forward(ad.Tape(), sk, params, x, graph=graph, positions=pts).data
    out_fcn = model_forward(ad.Tape(), fcn, params, x).data
    assert np.abs(out_sk - out_fcn).max() < 1e-12


def test_spatial_gcn_double_degeneracy_reduces_to_fcn():
    # edgeless graph: S-hat = I and the self-only kernel weight is 1
    graph = edgeless_graph(6)
    pts = RNG.uniform(size=(6, 2))
    sgcn = make_config("spatial_gcn", input_dim=4, hidden_dim=5, init_seed=8)
    fcn = make_config("fcn", input_dim=4, hidden_dim=5, init_seed=8)
    params = init_params(fcn)
    x = RNG.uniform(-1, 1, (6, 4))
    out_sgcn = model_forward(ad.Tape(), sgcn, params, x, graph=graph,
                             positions=pts).data
    out_fcn = model_forward(ad.Tape(), fcn, params, x).data
    assert np.array_equal(out_sgcn, out_fcn)


def test_row_mixing_weights_cached_on_graph_give_identical_outputs():
    pts, graph = random_graph(10, radius=0.5, seed=9)
    cfg = make_config("spatial_gcn", input_dim=4, hidden_dim=5, init_seed=4)
    params = init_params(cfg)
    x = RNG.uniform(-1, 1, (10, 4))

    def run(g, positions):
        return model_forward(ad.Tape(), cfg, params, x, graph=g,
                             positions=positions).data

    first = run(graph, pts)
    assert np.array_equal(run(graph, pts), first)
    assert np.array_equal(run(build_radius_graph(pts, 0.5), pts), first)
    # other positions on the same graph: the Gaussian weights are rebuilt
    moved = pts + RNG.uniform(-0.01, 0.01, pts.shape)
    assert np.array_equal(run(graph, moved), run(build_radius_graph(pts, 0.5), moved))


def test_gaussian_and_norm_weights_share_one_support():
    # the cached Gaussian weights reuse the normalization weights' index arrays
    for pts, graph in (random_graph(12, radius=0.4, seed=2),
                       (RNG.uniform(size=(3, 2)), edgeless_graph(3))):
        gauss = gaussian_kernel_weights(pts, graph.edges, 0.1)
        norm = symmetric_norm_weights(graph)
        assert np.array_equal(gauss.src, norm.src)
        assert np.array_equal(gauss.dst, norm.dst)


def test_spatial_models_need_positions():
    _pts, graph = random_graph(5, seed=2)
    cfg = make_config("spatial_kernel", input_dim=3, init_seed=0)
    with pytest.raises(ContractError):
        model_forward(ad.Tape(), cfg, init_params(cfg), np.zeros((5, 3)),
                      graph=graph, positions=None)


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
    attr = graph.layout.edge_attr
    assert np.array_equal(kernel_net_reference(params, 0, attr, "relu"),
                          np.zeros((attr.shape[0], 16)))
    v = RNG.uniform(-1, 1, (7, 4))
    tape = ad.Tape()
    hidden = kernel_net_forward(tape, cfg, params, 0, ad.constant(attr))
    out = graphpde_layer(tape, cfg, params, 0, graph, hidden, ad.constant(v))
    want = np.maximum(v @ params["layer_0_w"].data + params["layer_0_b"].data, 0.0)
    assert np.array_equal(out.data, want)


def test_kernel_net_empty_edges_valid():
    cfg = make_config("graphpde", input_dim=3, hidden_dim=4,
                      kernel_net_hidden=(8,), init_seed=5)
    params = init_params(cfg)
    out = kernel_net_forward(ad.Tape(), cfg, params, 0,
                             ad.Value(np.zeros((0, 3))))
    assert out.data.shape == (0, 8)


def test_kernel_net_output_with_final_layer_matches_oracle():
    cfg = make_config("graphpde", input_dim=3, hidden_dim=4,
                      kernel_net_hidden=(8, 6), init_seed=5)
    params = init_params(cfg)
    for name, p in params.items():
        if name.endswith("_b"):
            p.data[:] = RNG.uniform(-0.5, 0.5, p.data.shape)
    attr = RNG.uniform(-1, 1, (9, 3))
    hidden = kernel_net_forward(ad.Tape(), cfg, params, 0, ad.constant(attr)).data
    assert hidden.shape == (9, 6)
    kernels = (hidden @ params["layer_0_kernel_2_w"].data
               + params["layer_0_kernel_2_b"].data)
    want = kernel_net_reference(params, 0, attr, "relu")
    assert np.abs(kernels - want).max() < 1e-14


def test_kernel_net_without_hidden_layers_passes_attributes_through():
    cfg = make_config("graphpde", input_dim=3, hidden_dim=4,
                      kernel_net_hidden=(), init_seed=5)
    attr = ad.constant(RNG.uniform(-1, 1, (5, 3)))
    assert kernel_net_forward(ad.Tape(), cfg, init_params(cfg), 0, attr) is attr


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
        pts, graph = random_graph(n, radius=0.6, seed=n)
        cfg = make_config("graphpde", input_dim=3, hidden_dim=4,
                          kernel_net_hidden=(8,), init_seed=0)
        out = model_forward(ad.Tape(), cfg, init_params(cfg),
                            RNG.uniform(-1, 1, (n, 3)), graph=graph, positions=pts)
        assert out.data.shape == (n, 3)


def test_kernel_net_gradient_matches_finite_differences():
    # through the whole kernel: hidden layers, then the final linear that
    # the mean message applies
    cfg = make_config("graphpde", input_dim=3, hidden_dim=3,
                      kernel_net_hidden=(4,), init_seed=17)
    params = init_params(cfg)
    params["layer_0_kernel_1_b"].data[:] = RNG.uniform(-1, 1, (1, 9))
    _pts, graph = random_graph(6, radius=0.6, seed=17)
    attr = ad.constant(RNG.uniform(-1, 1, graph.layout.edge_attr.shape))
    v = ad.constant(RNG.uniform(-1, 1, (6, 3)))
    coeffs = RNG.uniform(-1, 1, (6, 3))
    phi = [params["layer_0_kernel_0_w"], params["layer_0_kernel_0_b"],
           params["layer_0_kernel_1_w"], params["layer_0_kernel_1_b"]]

    def build(tape):
        hidden = kernel_net_forward(tape, cfg, params, 0, attr)
        out = ad.kernel_message_mean(tape, hidden, phi[2], phi[3], v, graph.layout)
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
        out = model_forward(ad.Tape(), cfg, init_params(cfg), x, graph=graph,
                            positions=pts)
        assert np.isfinite(out.data).all()
