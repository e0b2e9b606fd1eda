import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stgno import autodiff as ad
from stgno.errors import ContractError, DimensionError
from stgno.geometry import (RadiusGraph, build_radius_graph, gaussian_kernel_weights,
                            row_mixer)
from stgno.models import _kernel_input_for, symmetric_norm_weights

from oracles import (finite_difference_grads, mul, pad_edge_rows, rel_err,
                     single_block_layout, slot_coo_weights, slot_edges,
                     two_stage_kernel_message_mean, unfused_dense, with_ones)

RNG = np.random.default_rng(12345)


def safe_uniform(shape, rng=RNG):
    """Random values in [-1, 1] bounded away from 0 (keeps relu smooth
    under finite differencing)."""
    return rng.choice([-1.0, 1.0], size=shape) * rng.uniform(0.1, 1.0, size=shape)


def weighted_sum_loss(tape, value, coeffs):
    return ad.sum_all(tape, ad.mul_const(tape, value, coeffs))


def check_op_gradient(build, params, tol=1e-6, step=1e-6):
    """FD-check d(build())/d(p) for every Parameter in params; build runs
    the op on a fresh tape and returns the scalar loss Value."""
    for p in params:
        p.zero_grad()
    tape = ad.Tape()
    loss = build(tape)
    tape.backward(loss)
    tape_grads = [p.grad.copy() for p in params]

    def loss_value():
        return float(build(ad.Tape()).data[0, 0])

    fd_grads = finite_difference_grads(loss_value, [p.data for p in params], step)
    for got, want in zip(tape_grads, fd_grads):
        assert rel_err(got, want) < tol


# ---------------------------------------------------------------------------
# matmul


def test_matmul_identity():
    tape = ad.Tape()
    out = ad.matmul(tape, ad.constant(np.eye(2)), ad.constant([[1.0, 2.0], [3.0, 4.0]]))
    assert np.array_equal(out.data, [[1.0, 2.0], [3.0, 4.0]])


def test_matmul_hand_case():
    tape = ad.Tape()
    out = ad.matmul(tape, ad.constant([[1.0, 2.0]]), ad.constant([[3.0], [4.0]]))
    assert np.array_equal(out.data, [[11.0]])


def test_matmul_shape_error_names_both_shapes():
    with pytest.raises(DimensionError, match=r"\(2, 3\).*\(2, 2\)"):
        ad.matmul(ad.Tape(), ad.constant(np.zeros((2, 3))), ad.constant(np.zeros((2, 2))))


def test_matmul_gradient_matches_finite_differences():
    a = ad.Parameter("a", safe_uniform((3, 4)))
    b = ad.Parameter("b", safe_uniform((4, 2)))
    ones = np.ones((3, 2))
    check_op_gradient(
        lambda t: weighted_sum_loss(t, ad.matmul(t, a, b), ones), [a, b])


# ---------------------------------------------------------------------------
# add / bias


def test_add_row_broadcast_zero_bias():
    tape = ad.Tape()
    out = ad.add_row_broadcast(tape, ad.constant([[1.0, 1.0], [2.0, 2.0]]),
                               ad.constant([[0.0, 0.0]]))
    assert np.array_equal(out.data, [[1.0, 1.0], [2.0, 2.0]])


def test_add_row_broadcast_single_row():
    tape = ad.Tape()
    out = ad.add_row_broadcast(tape, ad.constant([[1.0, 1.0]]), ad.constant([[1.0, 2.0]]))
    assert np.array_equal(out.data, [[2.0, 3.0]])


def test_add_row_broadcast_shape_error():
    with pytest.raises(DimensionError):
        ad.add_row_broadcast(ad.Tape(), ad.constant(np.zeros((2, 3))),
                             ad.constant(np.zeros((1, 2))))


def test_bias_gradient_is_column_sum_of_upstream():
    upstream = RNG.uniform(-1, 1, (5, 3))
    a = ad.Parameter("a", safe_uniform((5, 3)))
    bias = ad.Parameter("bias", safe_uniform((1, 3)))
    tape = ad.Tape()
    loss = weighted_sum_loss(tape, ad.add_row_broadcast(tape, a, bias), upstream)
    tape.backward(loss)
    assert np.allclose(bias.grad, upstream.sum(axis=0, keepdims=True), atol=1e-12)
    check_op_gradient(
        lambda t: weighted_sum_loss(t, ad.add_row_broadcast(t, a, bias), upstream),
        [a, bias])


def test_add_gradient():
    a = ad.Parameter("a", safe_uniform((4, 3)))
    b = ad.Parameter("b", safe_uniform((4, 3)))
    coeffs = RNG.uniform(-1, 1, (4, 3))
    check_op_gradient(
        lambda t: weighted_sum_loss(t, ad.add(t, a, b), coeffs), [a, b])


# ---------------------------------------------------------------------------
# dense (fused linear layer)


def _dense_pass(op, x, weight, bias, activation, coeffs):
    tape = ad.Tape()
    out = op(tape, x, weight, bias, activation)
    tape.backward(weighted_sum_loss(tape, out, coeffs))
    return tape, out


@pytest.mark.parametrize("constant_x", [False, True])
@pytest.mark.parametrize("activation", [None, *ad.ACTIVATIONS])
def test_dense_is_bit_identical_to_unfused_chain(activation, constant_x):
    rng = np.random.default_rng(7)
    x_data = rng.uniform(-1, 1, (37, 5))
    w_data = rng.uniform(-1, 1, (5, 6))
    b_data = rng.uniform(-1, 1, (1, 6))
    coeffs = rng.uniform(-1, 1, (37, 6))
    runs = []
    for op in (ad.dense, unfused_dense):
        x = ad.constant(x_data) if constant_x else ad.Value(x_data)
        weight, bias = ad.Parameter("w", w_data), ad.Parameter("b", b_data)
        tape, out = _dense_pass(op, x, weight, bias, activation, coeffs)
        runs.append((tape, out, x, weight, bias))
    (tape, out, x, weight, bias), (_t, want, x_ref, weight_ref, bias_ref) = runs
    assert [entry[0] for entry in tape.entries] == ["dense", "mul_const", "sum_all"]
    if activation == "relu":
        assert 0 < (out.data > 0).sum() < out.data.size
    assert np.array_equal(out.data, want.data)
    assert np.array_equal(weight.grad, weight_ref.grad)
    assert np.array_equal(bias.grad, bias_ref.grad)
    if constant_x:
        assert isinstance(x, ad.Constant) and x.grad is None
    else:
        assert np.array_equal(x.grad, x_ref.grad)


def test_dense_shape_errors():
    x, weight, bias = (ad.constant(np.zeros(shape)) for shape in ((4, 3), (3, 2), (1, 2)))
    with pytest.raises(DimensionError, match=r"\(4, 3\).*\(2, 2\)"):
        ad.dense(ad.Tape(), x, ad.constant(np.zeros((2, 2))), bias)
    with pytest.raises(DimensionError, match="bias must be 1x2"):
        ad.dense(ad.Tape(), x, weight, ad.constant(np.zeros((1, 3))))
    with pytest.raises(DimensionError):
        ad.dense(ad.Tape(), x, weight, ad.constant(np.zeros((2, 2))))
    with pytest.raises(ContractError, match="softplus"):
        ad.dense(ad.Tape(), x, weight, bias, "softplus")


def test_dense_on_zero_rows():
    weight = ad.Parameter("w", np.ones((3, 4)))
    bias = ad.Parameter("b", np.ones((1, 4)))
    tape = ad.Tape()
    out = ad.dense(tape, ad.constant(np.zeros((0, 3))), weight, bias, "relu")
    assert out.data.shape == (0, 4)
    tape.backward(ad.sum_all(tape, out))
    assert np.array_equal(weight.grad, np.zeros((3, 4)))
    assert np.array_equal(bias.grad, np.zeros((1, 4)))


# ---------------------------------------------------------------------------
# non-recording tape


def test_non_recording_tape_keeps_nothing_and_computes_the_same():
    rng = np.random.default_rng(8)
    x = safe_uniform((6, 3), rng)
    weight = ad.Parameter("w", safe_uniform((3, 4), rng))
    bias = ad.Parameter("b", safe_uniform((1, 4), rng))

    def forward(tape):
        hidden = ad.dense(tape, ad.constant(x), weight, bias, "tanh")
        return ad.log_softmax_rows(tape, ad.relu(tape, hidden))

    tape = ad.Tape(record=False)
    out = forward(tape)
    assert len(tape) == 0 and tape.entries == ()
    assert np.array_equal(out.data, forward(ad.Tape()).data)
    with pytest.raises(ContractError, match="recording"):
        tape.backward(ad.sum_all(tape, out))
    assert np.array_equal(weight.grad, np.zeros((3, 4)))


# ---------------------------------------------------------------------------
# activations


def test_relu_values():
    out = ad.relu(ad.Tape(), ad.constant([[-1.0, 2.0]]))
    assert np.array_equal(out.data, [[0.0, 2.0]])


def test_tanh_values():
    out = ad.tanh(ad.Tape(), ad.constant([[0.0, 0.0]]))
    assert np.array_equal(out.data, [[0.0, 0.0]])


@pytest.mark.parametrize("op", ad.ACTIVATIONS.values())
def test_activation_gradients(op):
    x = ad.Parameter("x", safe_uniform((4, 4)))
    coeffs = RNG.uniform(-1, 1, (4, 4))
    check_op_gradient(lambda t: weighted_sum_loss(t, op(t, x), coeffs), [x])


def test_every_activation_has_one_rule_and_one_op():
    # the ops are the module's own functions, which the benchmark's tracer
    # swaps by identity
    assert list(ad._ACTIVATION_RULES) == list(ad.ACTIVATIONS)
    for name, op in ad.ACTIVATIONS.items():
        assert op is getattr(ad, name)


# ---------------------------------------------------------------------------
# log softmax


def test_log_softmax_symmetry():
    out = ad.log_softmax_rows(ad.Tape(), ad.constant([[0.0, 0.0, 0.0]]))
    assert np.allclose(out.data, -math.log(3.0), atol=1e-15)


def test_log_softmax_large_values_stay_finite():
    out = ad.log_softmax_rows(ad.Tape(), ad.constant([[1000.0, 0.0]]))
    assert np.isfinite(out.data).all()


def test_log_softmax_gradient():
    x = ad.Parameter("x", safe_uniform((3, 3)))
    coeffs = RNG.uniform(-1, 1, (3, 3))
    check_op_gradient(
        lambda t: weighted_sum_loss(t, ad.log_softmax_rows(t, x), coeffs), [x])


@given(st.lists(st.lists(st.floats(-50, 50), min_size=2, max_size=6),
                min_size=1, max_size=8).filter(
                    lambda rows: len({len(r) for r in rows}) == 1))
def test_log_softmax_rows_normalize(rows):
    out = ad.log_softmax_rows(ad.Tape(), ad.constant(rows))
    sums = np.exp(out.data).sum(axis=1)
    assert np.abs(sums - 1.0).max() < 1e-12


# ---------------------------------------------------------------------------
# segment mean


def test_segment_mean_basic():
    out = ad.segment_mean(ad.Tape(), ad.constant([[2.0], [4.0]]), [0, 0], 1)
    assert np.array_equal(out.data, [[3.0]])


def test_segment_mean_empty_segment_is_zero():
    out = ad.segment_mean(ad.Tape(), ad.constant([[2.0], [4.0]]), [0, 0], 2)
    assert np.array_equal(out.data[1], [0.0])


def test_segment_mean_matches_brute_force_group_by():
    values = RNG.uniform(-1, 1, (50, 4))
    ids = RNG.integers(0, 7, 50)
    out = ad.segment_mean(ad.Tape(), ad.constant(values), ids, 7)
    for s in range(7):
        rows = values[ids == s]
        want = rows.mean(axis=0) if rows.size else np.zeros(4)
        assert np.array_equal(out.data[s], want)


def test_segment_mean_out_of_range_id():
    with pytest.raises(IndexError):
        ad.segment_mean(ad.Tape(), ad.constant([[1.0]]), [2], 2)


def test_segment_mean_gradient():
    v = ad.Parameter("v", safe_uniform((10, 3)))
    ids = RNG.integers(0, 4, 10)
    coeffs = RNG.uniform(-1, 1, (4, 3))
    check_op_gradient(
        lambda t: weighted_sum_loss(t, ad.segment_mean(t, v, ids, 4), coeffs), [v])


@given(st.integers(0, 2 ** 31 - 1))
@settings(max_examples=25, deadline=None)
def test_segment_mean_backward_conserves_gradient_mass(seed):
    rng = np.random.default_rng(seed)
    n, d, segs = 12, 3, 4
    v = ad.Parameter("v", rng.uniform(-1, 1, (n, d)))
    ids = rng.integers(0, segs, n)
    upstream = rng.uniform(-1, 1, (segs, d))
    tape = ad.Tape()
    loss = weighted_sum_loss(tape, ad.segment_mean(tape, v, ids, segs), upstream)
    tape.backward(loss)
    for s in range(segs):
        scattered = v.grad[ids == s].sum(axis=0)
        want = upstream[s] if (ids == s).any() else np.zeros(d)
        assert np.allclose(scattered, want, atol=1e-12)


# ---------------------------------------------------------------------------
# gather / edge kernels / sparse mixing


def test_gather_rows_values_and_gradient():
    v = ad.Parameter("v", safe_uniform((6, 3)))
    ids = np.array([0, 2, 2, 5])
    tape = ad.Tape()
    out = ad.gather_rows(tape, v, ids)
    assert np.array_equal(out.data, v.data[ids])
    coeffs = RNG.uniform(-1, 1, (4, 3))
    check_op_gradient(
        lambda t: weighted_sum_loss(t, ad.gather_rows(t, v, ids), coeffs), [v])


def test_edge_matvec_matches_loop():
    m, h = 7, 4
    mats = RNG.uniform(-1, 1, (m, h * h))
    vecs = RNG.uniform(-1, 1, (m, h))
    out = ad.edge_matvec(ad.Tape(), ad.constant(mats), ad.constant(vecs))
    want = np.stack([mats[e].reshape(h, h) @ vecs[e] for e in range(m)])
    assert np.allclose(out.data, want, atol=1e-15)


def test_edge_matvec_gradients():
    m, h = 5, 3
    mats = ad.Parameter("mats", safe_uniform((m, h * h)))
    vecs = ad.Parameter("vecs", safe_uniform((m, h)))
    coeffs = RNG.uniform(-1, 1, (m, h))
    check_op_gradient(
        lambda t: weighted_sum_loss(t, ad.edge_matvec(t, mats, vecs), coeffs),
        [mats, vecs])


def _layout_graph(seed, n=40, radius=0.45, isolated=0):
    """A random radius graph, with ``isolated`` far-away nodes appended."""
    rng = np.random.default_rng(seed)
    pts = np.vstack([rng.uniform(size=(n, 2)),
                     10.0 + 3.0 * np.arange(2 * isolated).reshape(-1, 2)])
    return build_radius_graph(pts, radius)


def _kernel_mean_loop(hidden, weight, bias, v, graph):
    """Per-edge loop: K_e = reshape(z_e W + b), out[dst] = mean K_e v[src],
    z_e being a slot's row less its ones column."""
    n, h = v.shape
    edges = graph.edges
    out = np.zeros((n, h))
    counts = np.zeros(n)
    for slot, e in enumerate(slot_edges(graph.layout, edges)):
        if e < 0:
            continue
        src, dst = edges[e]
        kernel = (hidden[slot, :-1] @ weight + bias[0]).reshape(h, h)
        out[dst] += kernel @ v[src]
        counts[dst] += 1
    return out / np.maximum(counts, 1.0)[:, None]


def _kernel_mean_inputs(graph, k, h, rng=RNG):
    """Per-slot rows of k values and a ones column, the last layer and the
    node states."""
    rows = graph.layout.num_slots
    return (ad.Parameter("hidden", with_ones(safe_uniform((rows, k), rng))),
            ad.Parameter("weight", safe_uniform((k, h * h), rng)),
            ad.Parameter("bias", safe_uniform((1, h * h), rng)),
            ad.Parameter("v", safe_uniform((graph.num_nodes, h), rng)))


@pytest.mark.parametrize("isolated", [0, 2])
def test_kernel_message_mean_matches_edge_loop(isolated):
    graph = _layout_graph(1, isolated=isolated)
    hidden, weight, bias, v = _kernel_mean_inputs(graph, 5, 3)
    out = ad.kernel_message_mean(ad.Tape(), hidden, (), weight, bias, v, graph.layout)
    want = _kernel_mean_loop(hidden.data, weight.data, bias.data, v.data, graph)
    assert np.abs(out.data - want).max() < 1e-13
    if isolated:
        assert np.array_equal(out.data[-isolated:], np.zeros((isolated, 3)))


@pytest.mark.parametrize("isolated", [0, 2])
def test_kernel_message_mean_gradients(isolated):
    graph = _layout_graph(2, n=6, radius=0.5, isolated=isolated)
    inputs = _kernel_mean_inputs(graph, 4, 2)
    coeffs = RNG.uniform(-1, 1, (graph.num_nodes, 2))
    check_op_gradient(
        lambda t: weighted_sum_loss(
            t, ad.kernel_message_mean(t, inputs[0], (), *inputs[1:], graph.layout), coeffs),
        list(inputs))


def test_kernel_message_mean_pad_slots_get_zero_gradient():
    graph = _layout_graph(3, isolated=1)
    layout = graph.layout
    assert not layout.mask.all()
    hidden, weight, bias, v = _kernel_mean_inputs(graph, 4, 3)
    tape = ad.Tape()
    out = ad.kernel_message_mean(tape, hidden, (), weight, bias, v, layout)
    tape.backward(ad.sum_all(tape, out))
    pads = ~layout.mask
    assert np.array_equal(hidden.grad[pads], np.zeros((pads.sum(), 5)))
    assert np.abs(hidden.grad[~pads]).max() > 0.0


@pytest.mark.parametrize("n, isolated", [(40, 0), (40, 3), (0, 4)])
def test_kernel_message_mean_matches_single_block_oracle(n, isolated):
    # (0, 4): four isolated nodes and no edge at all, so D = 0
    graph = _layout_graph(7, n=n, isolated=isolated)
    k, h, m, edges = 5, 3, graph.num_edges, graph.edges
    rng = np.random.default_rng(8)
    edge_rows = with_ones(safe_uniform((m, k), rng))
    weight, bias = safe_uniform((k, h * h), rng), safe_uniform((1, h * h), rng)
    v = safe_uniform((graph.num_nodes, h), rng)
    coeffs = safe_uniform((graph.num_nodes, h), rng)

    def run(layout):
        slot_rows = pad_edge_rows(layout, edges, edge_rows)
        slot_rows[~layout.mask] = 7.0  # what pad slots hold must not matter
        leaves = [ad.Parameter(name, data.copy()) for name, data in
                  (("hidden", slot_rows), ("weight", weight), ("bias", bias), ("v", v))]
        tape = ad.Tape()
        out = ad.kernel_message_mean(tape, leaves[0], (), *leaves[1:], layout)
        tape.backward(ad.sum_all(tape, ad.mul_const(tape, out, coeffs)))
        hidden_grad = leaves[0].grad
        assert not hidden_grad[~layout.mask].any()
        per_edge = np.zeros((m, k + 1))
        per_edge[slot_edges(layout, edges)[layout.mask]] = hidden_grad[layout.mask]
        return out.data, [per_edge] + [p.grad for p in leaves[1:]]

    blocked, single = graph.layout, single_block_layout(graph)
    if n:
        # three isolated nodes make the first run (two nodes) zero-width
        assert len(blocked.plan) == 16 - (isolated > 0)
        assert blocked.num_slots < single.num_slots
    out, grads = run(blocked)
    want, want_grads = run(single)
    assert np.array_equal(out, want)
    for got, exact in zip(grads, want_grads):
        assert rel_err(got, exact) <= 1e-12


def test_kernel_message_mean_without_edges_is_exactly_zero():
    graph = RadiusGraph(positions=np.zeros((4, 2)),
                        edges=np.zeros((0, 2), dtype=np.int64), radius=1.0)
    assert graph.layout.num_slots == 0
    assert graph.layout.plan == ()
    hidden, weight, bias, v = _kernel_mean_inputs(graph, 3, 2)
    assert hidden.data.shape == (0, 4)
    tape = ad.Tape()
    out = ad.kernel_message_mean(tape, hidden, (), weight, bias, v, graph.layout)
    assert np.array_equal(out.data, np.zeros((4, 2)))
    tape.backward(ad.sum_all(tape, out))
    for p in (weight, bias, v):
        assert np.array_equal(p.grad, np.zeros_like(p.data))


def test_kernel_message_mean_on_raw_attributes():
    # kernel_net_hidden=(): the hidden rows are graphpde's kernel input, the
    # scaled attributes and a ones column, k = 3
    graph = _layout_graph(4)
    _hidden, weight, bias, v = _kernel_mean_inputs(graph, 3, 3)
    attr = ad.constant(_kernel_input_for(graph))
    out = ad.kernel_message_mean(ad.Tape(), attr, (), weight, bias, v, graph.layout)
    want = _kernel_mean_loop(attr.data, weight.data, bias.data, v.data, graph)
    assert np.abs(out.data - want).max() < 1e-13
    coeffs = RNG.uniform(-1, 1, (graph.num_nodes, 3))
    check_op_gradient(
        lambda t: weighted_sum_loss(
            t, ad.kernel_message_mean(t, attr, (), weight, bias, v, graph.layout),
            coeffs),
        [weight, bias, v])
    assert attr.grad is None  # a Constant gets no gradient


def test_kernel_message_mean_repeated_backward_accumulates():
    graph = _layout_graph(5)
    hidden, weight, bias, v = _kernel_mean_inputs(graph, 4, 2)
    leaves = (ad.Value(hidden.data), weight, bias, v)  # a non-Parameter input too

    def one_pass():
        tape = ad.Tape()
        out = ad.kernel_message_mean(tape, leaves[0], (), *leaves[1:], graph.layout)
        tape.backward(ad.sum_all(tape, ad.tanh(tape, out)))

    one_pass()
    once = [p.grad.copy() for p in leaves]
    one_pass()
    for p, first in zip(leaves, once):
        assert np.array_equal(p.grad, 2.0 * first)


def test_kernel_message_mean_shape_errors():
    graph = _layout_graph(6)
    hidden, weight, bias, v = _kernel_mean_inputs(graph, 4, 3)
    with pytest.raises(DimensionError):
        ad.kernel_message_mean(ad.Tape(), ad.constant(hidden.data[1:]), (), weight,
                               bias, v, graph.layout)
    with pytest.raises(DimensionError):
        ad.kernel_message_mean(ad.Tape(), hidden, (), ad.constant(weight.data[:, 1:]),
                               bias, v, graph.layout)


def _fused_inputs(graph, widths, h, rng):
    """Per-slot rows of a attributes and a ones column (a plain Value, so
    they get a gradient), the hidden (W_j, b_j) pairs for ``widths`` =
    (a, k_1, ..., k_L), the last layer and the node states."""
    attr = ad.Value(with_ones(safe_uniform((graph.layout.num_slots, widths[0]), rng)))
    hidden = [(ad.Parameter(f"w{j}", safe_uniform((widths[j], widths[j + 1]), rng)),
               ad.Parameter(f"b{j}", safe_uniform((1, widths[j + 1]), rng)))
              for j in range(len(widths) - 1)]
    last = (ad.Parameter("weight", safe_uniform((widths[-1], h * h), rng)),
            ad.Parameter("bias", safe_uniform((1, h * h), rng)))
    v = ad.Parameter("v", safe_uniform((graph.num_nodes, h), rng))
    return attr, hidden, last, v


@pytest.mark.parametrize("widths", [(3, 8), (3, 8, 5)])
@pytest.mark.parametrize("activation", ad.ACTIVATIONS)
@pytest.mark.parametrize("isolated", [0, 2])
def test_fused_kernel_message_mean_matches_two_stage(widths, activation, isolated):
    # the kernel net run one degree block at a time inside the op gives the
    # bits of running it over every slot first; gradients differ only in
    # summation order. The two-stage path takes the attributes without the
    # ones column and appends it after its hidden layers
    graph = _layout_graph(9, isolated=isolated)
    rng = np.random.default_rng(10)
    attr, hidden, (weight, bias), v = _fused_inputs(graph, widths, 3, rng)
    coeffs = safe_uniform((graph.num_nodes, 3), rng)
    params = [*(p for pair in hidden for p in pair), weight, bias, v]
    results = []
    for op, rows in ((ad.kernel_message_mean, attr),
                     (two_stage_kernel_message_mean, ad.Value(attr.data[:, :-1]))):
        for leaf in (rows, *params):
            leaf.grad = None
        tape = ad.Tape()
        out = op(tape, rows, hidden, weight, bias, v, graph.layout, activation)
        inference = op(ad.Tape(record=False), rows, hidden, weight, bias, v,
                       graph.layout, activation)
        assert np.array_equal(inference.data, out.data)
        tape.backward(weighted_sum_loss(tape, out, coeffs))
        results.append((out.data, [rows.grad[:, :widths[0]]]
                        + [leaf.grad for leaf in params]))
    (fused, grads), (want, want_grads) = results
    assert np.array_equal(fused, want)
    if isolated:
        assert np.array_equal(fused[-isolated:], np.zeros((isolated, 3)))
    for got, exact in zip(grads, want_grads):
        assert rel_err(got, exact) <= 1e-12


@pytest.mark.parametrize("widths", [(3, 4), (3, 4, 3)])
@pytest.mark.parametrize("activation", ad.ACTIVATIONS)
def test_fused_kernel_message_mean_gradients(widths, activation):
    # with two isolated nodes; attr is a plain Value, so it gets a gradient
    graph = _layout_graph(11, n=6, radius=0.5, isolated=2)
    rng = np.random.default_rng(12)
    attr, hidden, (weight, bias), v = _fused_inputs(graph, widths, 2, rng)
    coeffs = safe_uniform((graph.num_nodes, 2), rng)
    leaves = [attr, *(p for pair in hidden for p in pair), weight, bias, v]

    def build(tape):
        return weighted_sum_loss(tape, ad.kernel_message_mean(
            tape, attr, hidden, weight, bias, v, graph.layout, activation), coeffs)

    for leaf in leaves:
        leaf.grad = None
    tape = ad.Tape()
    tape.backward(build(tape))
    fd = finite_difference_grads(lambda: float(build(ad.Tape()).data[0, 0]),
                                 [leaf.data for leaf in leaves])
    for leaf, want in zip(leaves, fd):
        assert rel_err(leaf.grad, want) < 1e-6


def test_fused_kernel_message_mean_pad_slots_get_zero_attr_gradient():
    graph = _layout_graph(13, isolated=1)
    layout = graph.layout
    assert not layout.mask.all()
    attr, hidden, (weight, bias), v = _fused_inputs(graph, (3, 6, 4), 3,
                                                    np.random.default_rng(14))
    tape = ad.Tape()
    out = ad.kernel_message_mean(tape, attr, hidden, weight, bias, v, layout, "tanh")
    tape.backward(ad.sum_all(tape, out))
    pads = ~layout.mask
    assert np.array_equal(attr.grad[pads], np.zeros((pads.sum(), 4)))
    assert np.abs(attr.grad[~pads]).max() > 0.0


def test_fused_kernel_message_mean_constant_attr_gets_no_gradient():
    # with one hidden layer and with none, where the kernel is linear in the
    # attributes
    graph = _layout_graph(15)
    rng = np.random.default_rng(16)
    for widths in ((3, 5), (3,)):
        attr, hidden, (weight, bias), v = _fused_inputs(graph, widths, 2, rng)
        const = ad.constant(attr.data)
        tape = ad.Tape()
        out = ad.kernel_message_mean(tape, const, hidden, weight, bias, v,
                                     graph.layout, "relu")
        tape.backward(ad.sum_all(tape, out))
        assert const.grad is None
        assert all(np.abs(p.grad).max() > 0.0
                   for p in (*(p for pair in hidden for p in pair), weight, bias, v))


def test_fused_kernel_message_mean_errors():
    graph = _layout_graph(17)
    attr, hidden, (weight, bias), v = _fused_inputs(graph, (3, 5), 2,
                                                    np.random.default_rng(18))
    with pytest.raises(ContractError):
        ad.kernel_message_mean(ad.Tape(), attr, hidden, weight, bias, v, graph.layout)
    with pytest.raises(DimensionError):  # the hidden layer takes 3 inputs
        ad.kernel_message_mean(ad.Tape(), ad.Value(attr.data[:, 1:]), hidden, weight,
                               bias, v, graph.layout, "relu")
    with pytest.raises(DimensionError):  # the last layer takes the hidden width
        ad.kernel_message_mean(ad.Tape(), attr, (), weight, bias, v, graph.layout)


def test_kernel_message_mean_streams_its_memory():
    # a 3000-spot slide at r = 0.08 (median degree ~55), k = 32, h = 8, one
    # relu hidden layer: forward and backward together must peak under half
    # of one num_slots x k float64 array (44 MB here). Measured peaks: 19.1
    # MB with fresh arrays per block, 14.2 MB with one workspace per call
    rng = np.random.default_rng(19)
    graph = build_radius_graph(rng.uniform(size=(3000, 2)), 0.08)
    k, h = 32, 8
    attr = ad.constant(_kernel_input_for(graph))
    hidden = [(ad.Parameter("w0", safe_uniform((3, k), rng)),
               ad.Parameter("b0", safe_uniform((1, k), rng)))]
    weight = ad.Parameter("weight", safe_uniform((k, h * h), rng))
    bias = ad.Parameter("bias", safe_uniform((1, h * h), rng))
    v = ad.Parameter("v", safe_uniform((3000, h), rng))
    whole_layout = graph.layout.num_slots * k * 8
    assert whole_layout > 40e6
    tracemalloc.start()
    try:
        tape = ad.Tape()
        out = ad.kernel_message_mean(tape, attr, hidden, weight, bias, v,
                                     graph.layout, "relu")
        tape.backward(ad.sum_all(tape, out))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < whole_layout / 2, (peak, whole_layout)


def test_coo_matmul_matches_dense():
    n, d = 8, 3
    x = RNG.uniform(-1, 1, (n, d))
    src = RNG.integers(0, n, 20)
    dst = RNG.integers(0, n, 20)
    w = RNG.uniform(0, 1, 20)
    out = ad.coo_matmul(ad.Tape(), ad.constant(x), src, dst, w, n)
    dense = np.zeros((n, n))
    for s, t, ww in zip(src, dst, w):
        dense[t, s] += ww
    assert np.allclose(out.data, dense @ x, atol=1e-12)


def test_coo_matmul_gradient():
    n, d = 6, 2
    x = ad.Parameter("x", safe_uniform((n, d)))
    src = RNG.integers(0, n, 12)
    dst = RNG.integers(0, n, 12)
    w = RNG.uniform(0.1, 1, 12)
    coeffs = RNG.uniform(-1, 1, (n, d))
    check_op_gradient(
        lambda t: weighted_sum_loss(t, ad.coo_matmul(t, x, src, dst, w, n), coeffs),
        [x])


@pytest.mark.parametrize("which", ["gaussian", "norm"])
def test_mix_rows_of_a_constant_is_held_and_exact(which):
    rng = np.random.default_rng(71)
    graph = build_radius_graph(rng.uniform(size=(80, 2)), 0.2)
    weights = (symmetric_norm_weights(graph) if which == "norm" else
               gaussian_kernel_weights(graph.positions, graph.layout, 0.1))
    mixer = row_mixer(graph, *weights)
    coo = slot_coo_weights(graph.layout, *weights[:2])
    x, y = rng.uniform(-1, 1, (80, 5)), rng.uniform(-1, 1, (80, 5))

    def oracle(arr):
        return ad.coo_matmul(ad.Tape(), ad.constant(arr), coo.src, coo.dst,
                             coo.weights, coo.num_nodes).data

    tape = ad.Tape()
    first = ad.mix_rows(tape, ad.constant(x), mixer)
    assert isinstance(first, ad.Constant) and len(tape) == 0
    assert not first.data.flags.writeable
    # a new Constant over the same array object gets the held one back
    assert ad.mix_rows(tape, ad.constant(x), mixer) is first
    assert np.array_equal(first.data, oracle(x))
    fresh = row_mixer(graph, *weights)
    assert np.array_equal(first.data, ad.mix_rows(ad.Tape(), ad.Value(x), fresh).data)
    # any other array, even an equal copy, is mixed afresh and replaces it
    other = ad.mix_rows(tape, ad.constant(y), mixer)
    assert other is not first and np.array_equal(other.data, oracle(y))
    again = ad.mix_rows(tape, ad.constant(x), mixer)
    assert again is not first and np.array_equal(again.data, first.data)
    copied = ad.mix_rows(tape, ad.constant(x.copy()), mixer)
    assert copied is not again and np.array_equal(copied.data, first.data)
    assert len(tape) == 0
    # a differentiable input is never served from the slot
    out = ad.mix_rows(tape, ad.Value(x), mixer)
    assert len(tape) == 1 and out is not copied and np.array_equal(out.data, first.data)


def test_mix_rows_gathers_into_one_buffer_per_call():
    # d = 16 on a 300-spot r = 0.25 slide (14.9k slots; the largest block
    # has 1,330, a 170 kB gather buffer; an n x d array is 38 kB). Forward
    # plus backward peak at 443 kB with one buffer per call, 482 kB with a
    # fresh gathered array per block
    rng = np.random.default_rng(67)
    graph = build_radius_graph(rng.uniform(size=(300, 2)), 0.25)
    mixer = row_mixer(graph, *symmetric_norm_weights(graph))
    n, d = 300, 16
    x = ad.Value(rng.uniform(-1, 1, (n, d)))

    def step():
        tape = ad.Tape()
        tape.backward(ad.sum_all(tape, ad.mix_rows(tape, x, mixer)))
        x.grad = None

    step()
    tracemalloc.start()
    try:
        step()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    buffer = graph.layout.max_block_slots * d * 8
    assert buffer > 3 * n * d * 8
    assert peak <= buffer + 8 * n * d * 8, (peak, buffer)


def test_mul_elementwise_gradient():
    a = ad.Parameter("a", safe_uniform((3, 3)))
    b = ad.Parameter("b", safe_uniform((3, 3)))
    coeffs = RNG.uniform(-1, 1, (3, 3))
    check_op_gradient(
        lambda t: weighted_sum_loss(t, mul(t, a, b), coeffs), [a, b])


# ---------------------------------------------------------------------------
# backward semantics


def test_backward_sum_gives_ones():
    w = ad.Parameter("w", safe_uniform((3, 4)))
    tape = ad.Tape()
    tape.backward(ad.sum_all(tape, w))
    assert np.array_equal(w.grad, np.ones((3, 4)))


def test_backward_quadratic_matches_finite_differences():
    w = ad.Parameter("w", safe_uniform((3, 3)))
    x = ad.constant(safe_uniform((3, 2)))

    def build(tape):
        wx = ad.matmul(tape, w, x)
        return ad.sum_all(tape, mul(tape, wx, wx))

    check_op_gradient(build, [w])


def test_repeated_backward_without_zeroing_doubles_grads():
    w = ad.Parameter("w", safe_uniform((2, 2)))

    def one_pass():
        tape = ad.Tape()
        tape.backward(ad.sum_all(tape, ad.tanh(tape, w)))

    one_pass()
    once = w.grad.copy()
    one_pass()
    assert np.array_equal(w.grad, 2.0 * once)
    w.zero_grad()
    assert np.array_equal(w.grad, np.zeros((2, 2)))


def test_backward_releases_intermediate_grads_and_keeps_leaf_grads():
    rng = np.random.default_rng(9)
    w = ad.Parameter("w", safe_uniform((3, 3), rng))
    x = ad.Value(safe_uniform((3, 3), rng))
    tape = ad.Tape()
    hidden = ad.dense(tape, x, w, ad.constant(np.zeros((1, 3))), "tanh")
    loss = ad.sum_all(tape, ad.relu(tape, hidden))
    tape.backward(loss)
    assert hidden.grad is None and loss.grad is None
    assert np.abs(w.grad).max() > 0.0 and np.abs(x.grad).max() > 0.0


def test_backward_requires_scalar_loss():
    w = ad.Parameter("w", safe_uniform((2, 2)))
    tape = ad.Tape()
    out = ad.tanh(tape, w)
    with pytest.raises(ContractError):
        tape.backward(out)


def test_tape_entries_are_topologically_ordered():
    w = ad.Parameter("w", safe_uniform((3, 3)))
    x = ad.constant(safe_uniform((3, 3)))
    tape = ad.Tape()
    loss = ad.sum_all(tape, ad.relu(tape, ad.matmul(tape, w, x)))
    assert float(loss.data[0, 0]) == pytest.approx(np.maximum(w.data @ x.data, 0).sum())
    all_outputs = {id(output) for _op, _ins, output, _fn in tape.entries}
    produced: set = set()
    for _op, inputs, output, _fn in tape.entries:
        for inp in inputs:
            is_leaf = id(inp) not in all_outputs
            assert is_leaf or id(inp) in produced
        produced.add(id(output))


def test_ops_are_deterministic():
    x = safe_uniform((6, 5))
    ids = RNG.integers(0, 3, 6)

    def run():
        tape = ad.Tape()
        out = ad.segment_mean(tape, ad.log_softmax_rows(tape, ad.constant(x)), ids, 3)
        return out.data.tobytes()

    assert run() == run()


def test_finite_outputs_on_finite_inputs():
    x = RNG.uniform(-1e6, 1e6, (5, 4))
    tape = ad.Tape()
    out = ad.log_softmax_rows(tape, ad.tanh(tape, ad.relu(tape, ad.constant(x))))
    assert np.isfinite(out.data).all()
