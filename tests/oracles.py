"""Independent reference implementations the tests check the library against.

Everything here is deliberately naive (dense, quadratic, loop-based) and
shares no code with the library paths under test; :func:`unfused_dense`
chains the separate autodiff primitives that ``ad.dense`` fuses, and
:func:`two_stage_kernel_message_mean` / :func:`two_stage_graphpde_forward`
run the graphpde kernel network as ``ad.dense`` over every layout slot
before the message op, instead of inside it one degree block at a time,
and append the ones column that the op reads with :func:`append_ones`;
:func:`coo_weights` lists a row mixer's per-edge and self weights as COO
entries, the edges in order and then one self loop per node, and
:func:`coo_apply_kernel` mixes rows with ``ad.coo_matmul`` over them, the
path the models' row mixers replaced; :func:`slot_coo_weights` lists
per-slot weights the same way. The per-edge path that the library's
slot-order constants replaced lives here: :func:`edge_attributes`,
:func:`edge_norm_weights` and :func:`edge_gaussian_weights` compute one
row or weight per edge of the (src, dst)-sorted edge list, and
:func:`pad_edge_rows` spreads them over a layout's slots through
:func:`slot_edges`, the slot-to-edge map the layout no longer keeps,
found from each slot's owner (:func:`slot_owners`, a loop over the
plan).
:func:`searchsorted_mixer_slots` builds a mixer's per-slot weights with
the reverse-edge search that the library's linear pass replaced.
:func:`single_block_layout` packs a graph's in-edges into a
``geometry.NeighbourLayout`` of one padded block, by a loop over the
edges. :func:`mul` and :func:`append_ones` are tape ops that no
library path needs, kept for the gradient checks and the two-stage path;
:func:`with_ones` appends a ones column to an array.
:class:`ReferenceAdam` and :class:`ReferenceSgd` update every parameter
in its own arrays, one loop over the parameters per step, as the
library's optimizers did before they kept their state in flat arrays.
"""

from typing import NamedTuple

import numpy as np

from stgno import autodiff as ad
from stgno.errors import ContractError, DimensionError
from stgno.geometry import BlockPlan, NeighbourLayout


def finite_difference_grads(loss_fn, arrays, step=1e-6):
    """Central finite differences of ``loss_fn()`` w.r.t. each array in
    ``arrays`` (perturbed in place, restored after)."""
    grads = []
    for arr in arrays:
        g = np.zeros_like(arr)
        flat = arr.ravel()
        gflat = g.ravel()
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + step
            f_plus = loss_fn()
            flat[i] = orig - step
            f_minus = loss_fn()
            flat[i] = orig
            gflat[i] = (f_plus - f_minus) / (2.0 * step)
        grads.append(g)
    return grads


def mul(tape, a, b):
    """Elementwise product of two same-shape values, as one tape entry. No
    library path multiplies two values; the gradient checks use it."""
    assert a.data.shape == b.data.shape, (a.data.shape, b.data.shape)
    out = ad.Value(a.data * b.data)

    def bwd():
        ad._accumulate(a, out.grad * b.data)
        ad._accumulate(b, out.grad * a.data)

    tape.record("mul", (a, b), out, bwd)
    return out


def with_ones(rows):
    """``rows`` with a ones column appended, as ``ad.kernel_message_mean``
    reads its input rows."""
    rows = np.asarray(rows, dtype=np.float64)
    return np.hstack([rows, np.ones((rows.shape[0], 1))])


def append_ones(tape, x):
    """:func:`with_ones` as a tape op: the rows are copied exactly and the
    backward drops the ones column's gradient. A Constant stays a Constant,
    with no tape entry."""
    if isinstance(x, ad.Constant):
        return ad.constant(with_ones(x.data))
    out = ad.Value(with_ones(x.data))

    def bwd():
        ad._accumulate(x, out.grad[:, :-1].copy())

    tape.record("append_ones", (x,), out, bwd)
    return out


def rel_err(approx, exact):
    """Relative error between two gradient arrays, on the vector norm."""
    approx = np.asarray(approx, dtype=np.float64)
    exact = np.asarray(exact, dtype=np.float64)
    denom = max(np.linalg.norm(exact), np.linalg.norm(approx), 1e-12)
    return np.linalg.norm(approx - exact) / denom


def unfused_dense(tape, x, weight, bias, activation=None):
    """``ad.dense`` as separate tape entries: matmul, then the row bias,
    then the activation, if any."""
    out = ad.add_row_broadcast(tape, ad.matmul(tape, x, weight), bias)
    return out if activation is None else ad.ACTIVATIONS[activation](tape, out)


def two_stage_kernel_message_mean(tape, attr, hidden_layers, weight, bias, v,
                                  layout, activation=None):
    """The kernel network's hidden layers as ``ad.dense`` over the full
    num_slots-row matrix ``attr`` (the attributes, with no ones column),
    then the message op on those rows, a ones column appended, with no
    hidden layers of its own."""
    z = attr
    for w, b in hidden_layers:
        z = ad.dense(tape, z, w, b, activation)
    return ad.kernel_message_mean(tape, append_ones(tape, z), (), weight, bias, v,
                                  layout)


def two_stage_graphpde_forward(tape, config, params, graph, features):
    """graphpde logits with every kernel-network hidden layer evaluated over
    all slots of ``graph.layout`` before the message op (same parameters,
    same op order otherwise)."""
    act = ad.ACTIVATIONS[config.activation]
    edges = graph.edges
    attr = ad.constant(pad_edge_rows(graph.layout, edges,
                                     edge_attributes(graph.positions, edges) / graph.radius))
    x = ad.dense(tape, features, params["lift_w"], params["lift_b"])
    depth = len(config.kernel_net_hidden)
    for i in range(config.num_layers):
        hidden = [(params[f"layer_{i}_kernel_{j}_w"], params[f"layer_{i}_kernel_{j}_b"])
                  for j in range(depth)]
        aggregated = two_stage_kernel_message_mean(
            tape, attr, hidden, params[f"layer_{i}_kernel_{depth}_w"],
            params[f"layer_{i}_kernel_{depth}_b"], x, graph.layout, config.activation)
        x = act(tape, ad.add(tape, ad.dense(tape, x, params[f"layer_{i}_w"],
                                            params[f"layer_{i}_b"]), aggregated))
    return ad.dense(tape, x, params["readout_w"], params["readout_b"])


class CooWeights(NamedTuple):
    """Sparse weights w(dst, src), one entry per (src, dst, weight)."""

    num_nodes: int
    src: np.ndarray
    dst: np.ndarray
    weights: np.ndarray


def coo_weights(edges, edge_weights, self_weights):
    """COO entries of per-edge weights (in the edges' order) followed by one
    self loop per node, weighted by ``self_weights``."""
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    loop = np.arange(len(self_weights), dtype=np.int64)
    return CooWeights(num_nodes=loop.size, src=np.concatenate([edges[:, 0], loop]),
                      dst=np.concatenate([edges[:, 1], loop]),
                      weights=np.concatenate([edge_weights, self_weights]))


def coo_apply_kernel(tape, weights, features):
    """Row mixing as one ``ad.coo_matmul`` over :class:`CooWeights`:
    out[dst] += w * x[src], entry by entry in the weights' order."""
    return ad.coo_matmul(tape, features, weights.src, weights.dst, weights.weights,
                         weights.num_nodes)


def single_block_layout(graph):
    """The in-neighbour layout (see ``geometry.NeighbourLayout``) as one
    padded block: every node, in node order, gets D = max in-degree slots,
    filled by a loop over the edge list, and the plan is that one block,
    or empty when D = 0. The library's degree blocks must give the same
    results."""
    n, edges = graph.num_nodes, graph.edges
    deg = np.bincount(edges[:, 1], minlength=n)
    width = int(deg.max()) if edges.size else 0
    neighbours = np.full(n * width, n, dtype=np.int64)
    filled = np.zeros(n, dtype=np.int64)
    for src, dst in edges:
        neighbours[dst * width + filled[dst]] = src
        filled[dst] += 1
    plan = ((BlockPlan(slice(0, n), slice(0, n * width), neighbours, n, width),)
            if width else ())
    return NeighbourLayout(order=np.arange(n), plan=plan, neighbours=neighbours,
                           degree=deg)


def slot_owners(layout):
    """The node that owns each slot of ``layout``, by a loop over its plan."""
    owners = np.zeros(layout.num_slots, dtype=np.int64)
    for p in layout.plan:
        for j, node in enumerate(layout.order[p.nodes]):
            first = p.slots.start + j * p.width
            owners[first:first + p.width] = node
    return owners


def slot_edges(layout, edges):
    """Each slot's index in the (src, dst)-sorted ``edges``, -1 in pads: the
    slot-to-edge map that the library no longer keeps, found by a
    ``searchsorted`` of each slot's (neighbour, owner) key."""
    n = layout.num_nodes
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    real = layout.neighbours < n
    keys = edges[:, 0] * n + edges[:, 1]
    want = layout.neighbours * n + slot_owners(layout)
    out = np.full(layout.num_slots, -1, dtype=np.int64)
    out[real] = np.searchsorted(keys, want[real])
    assert np.array_equal(keys[out[real]], want[real])
    return out


def pad_edge_rows(layout, edges, rows):
    """Per-edge rows, in the order of the (src, dst)-sorted ``edges``,
    spread over ``layout``'s slots by a masked fancy assignment, zero in
    pads: the spread through which the library built every per-slot
    constant from per-edge data."""
    rows = np.asarray(rows, dtype=np.float64)
    m = len(np.asarray(edges).reshape(-1, 2))
    if rows.ndim != 2 or rows.shape[0] != m:
        raise DimensionError(f"slot rows need an ({m}, c) per-edge matrix, "
                             f"got {rows.shape}")
    of = slot_edges(layout, edges)
    out = np.zeros((layout.num_slots, rows.shape[1]))
    out[of >= 0] = rows[of[of >= 0]]
    return out


def slot_coo_weights(layout, slot_weights, self_weights):
    """:class:`CooWeights` of per-slot weights: every real slot's (neighbour,
    owner, weight), sorted by (neighbour, owner) as an edge list is, then
    one self loop per node."""
    real = layout.neighbours < layout.num_nodes
    src, dst = layout.neighbours[real], slot_owners(layout)[real]
    by_pair = np.lexsort((dst, src))
    return coo_weights(np.stack([src[by_pair], dst[by_pair]], axis=1),
                       np.asarray(slot_weights)[real][by_pair], self_weights)


def edge_attributes(points, edges):
    """(dx, dy, distance) per edge (src, dst), taken dst minus src, by fancy
    indexing of the positions."""
    pos = np.asarray(points, dtype=np.float64)
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    delta = pos[edges[:, 1]] - pos[edges[:, 0]]
    return np.column_stack([delta, np.sqrt(delta[:, 0] ** 2 + delta[:, 1] ** 2)])


def edge_norm_weights(graph):
    """The self-looped symmetric normalization per edge of ``graph.edges``,
    in edge order, then the n self weights, as the library computed it
    before it worked in slot order."""
    edges = graph.edges
    inv_sqrt = 1.0 / np.sqrt(np.bincount(edges[:, 1], minlength=graph.num_nodes) + 1.0)
    w = np.take(inv_sqrt, edges[:, 0])
    w *= np.take(inv_sqrt, edges[:, 1])
    return w, inv_sqrt ** 2


def edge_gaussian_weights(points, edges, bandwidth):
    """The row-normalized Gaussian kernel per edge of ``edges``, in edge
    order, then the n self weights, as the library computed it before it
    worked in slot order: each node's sum over its in-edges in edge order,
    then + 1 for its self weight."""
    pos = np.asarray(points, dtype=np.float64)
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    dist = edge_attributes(pos, edges)[:, 2]
    w = np.exp(-(dist ** 2) / (2.0 * bandwidth * bandwidth))
    total = np.bincount(edges[:, 1], weights=w, minlength=pos.shape[0]) + 1.0
    w /= np.take(total, edges[:, 1])
    return w, 1.0 / total


def searchsorted_mixer_slots(graph, edge_weights):
    """A row mixer's per-slot ``(weights, transposed)`` built as the library
    once did from one weight per edge of ``graph.edges``: each edge's
    reverse found by a ``searchsorted`` of the reversed (src, dst) keys in
    the sorted key list, and both spreads by masked fancy indexing. Raises
    the library's ContractError when an edge has no reverse."""
    n, edges = graph.num_nodes, graph.edges
    m = edges.shape[0]
    w = np.asarray(edge_weights, dtype=np.float64)
    src, dst = edges[:, 0], edges[:, 1]
    keys = src * n + dst
    reverse = np.searchsorted(keys, dst * n + src)
    if m and not np.array_equal(keys[np.minimum(reverse, m - 1)], dst * n + src):
        raise ContractError("row mixing needs a symmetric edge list: an edge has "
                            "no reverse")
    layout = graph.layout
    edge_of = slot_edges(layout, edges)
    real = edge_of >= 0
    forward = np.zeros(layout.num_slots)
    forward[real] = w[edge_of[real]]
    transposed = np.zeros(layout.num_slots)
    transposed[real] = w[reverse[edge_of[real]]]
    return forward, transposed


def slot_attributes(graph, layout):
    """graphpde's kernel input in ``layout``'s slot order, by a loop over
    the slots: the edge attributes / radius, then a 1; zero rows in pads."""
    edges = graph.edges
    attr = edge_attributes(graph.positions, edges)
    out = np.zeros((layout.num_slots, 4))
    for slot, e in enumerate(slot_edges(layout, edges)):
        if e >= 0:
            out[slot, :3] = attr[e] / graph.radius
            out[slot, 3] = 1.0
    return out


def cell_loop_radius_edges(points, radius):
    """Radius edges by a per-node loop over the 3x3 grid cells around each
    point (cell side = radius), the same squared-distance criterion, edges
    sorted by (src, dst): the graph build before it was vectorized."""
    pos = np.array(points, dtype=np.float64).reshape(-1, 2)
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
        return np.stack([np.concatenate(srcs), np.concatenate(dsts)], axis=1)
    return np.zeros((0, 2), dtype=np.int64)


def brute_force_radius_edges(points, radius):
    """All-pairs O(n^2) radius edges, same squared-distance criterion,
    sorted by (src, dst): every source against every point, a block of at
    most 256 sources at a time."""
    pts = np.asarray(points, dtype=np.float64).reshape(-1, 2)
    n = pts.shape[0]
    r2 = radius * radius
    pairs = [np.zeros((0, 2), dtype=np.int64)]
    for lo in range(0, n, 256):
        d = pts[lo:lo + 256, None, :] - pts[None, :, :]
        src, dst = np.nonzero(d[..., 0] * d[..., 0] + d[..., 1] * d[..., 1] <= r2)
        src += lo
        pairs.append(np.stack([src, dst], axis=1)[src != dst].astype(np.int64))
    return np.concatenate(pairs)


def dense_weight_matrix(weights):
    """Materialize :class:`CooWeights` into a dense (n, n) matrix K with
    K[dst, src] = w."""
    n = weights.num_nodes
    K = np.zeros((n, n))
    for s, d, w in zip(weights.src, weights.dst, weights.weights):
        K[d, s] += w
    return K


def dense_gaussian_weights(points, radius, bandwidth, row_normalize=True):
    """Direct dense evaluation of the Gaussian positional kernel on the
    radius support (self weights included)."""
    pts = np.asarray(points, dtype=np.float64)
    n = pts.shape[0]
    K = np.zeros((n, n))
    r2 = radius * radius
    for i in range(n):
        for j in range(n):
            d2 = ((pts[i] - pts[j]) ** 2).sum()
            if i == j:
                K[i, j] = 1.0
            elif d2 <= r2:
                K[i, j] = np.exp(-d2 / (2.0 * bandwidth * bandwidth))
    if row_normalize:
        K = K / K.sum(axis=1, keepdims=True)
    return K


def dense_graphpde_layer(W, b, kernel_rows, edges, v, activation):
    """Materialized reference for one message-passing update: builds the
    full n x n block matrix of per-edge kernels (zero off support) and the
    per-node neighbor counts, then applies
    act(v W + b + (1/|N|) sum_blocks K v)."""
    n, h = v.shape
    blocks = np.zeros((n, n, h, h))
    counts = np.zeros(n)
    for e, (src, dst) in enumerate(edges):
        blocks[dst, src] += kernel_rows[e].reshape(h, h)
        counts[dst] += 1
    agg = np.zeros((n, h))
    for x in range(n):
        if counts[x] == 0:
            continue
        total = np.zeros(h)
        for y in range(n):
            total += blocks[x, y] @ v[y]
        agg[x] = total / counts[x]
    pre = v @ W + b + agg
    if activation == "relu":
        return np.maximum(pre, 0.0)
    return np.tanh(pre)


def _activation(name):
    return (lambda a: np.maximum(a, 0.0)) if name == "relu" else np.tanh


def kernel_net_reference(params, layer, edge_attr, activation):
    """The full per-edge kernel MLP of graphpde layer ``layer``: m x 3
    (radius-scaled) attributes -> m x h^2 flattened h x h kernels."""
    act = _activation(activation)
    x = np.asarray(edge_attr, dtype=np.float64)
    j = 0
    while f"layer_{layer}_kernel_{j + 1}_w" in params:
        x = act(x @ params[f"layer_{layer}_kernel_{j}_w"].data
                + params[f"layer_{layer}_kernel_{j}_b"].data)
        j += 1
    return (x @ params[f"layer_{layer}_kernel_{j}_w"].data
            + params[f"layer_{layer}_kernel_{j}_b"].data)


def reference_graphpde_forward(params, num_layers, activation, edges, edge_attr,
                               radius, features):
    """graphpde logits with every per-edge h x h kernel built explicitly:
    lift, then per layer v <- act(v W + b + mean over in-edges of K_e v_src),
    then the readout."""
    act = _activation(activation)
    v = features @ params["lift_w"].data + params["lift_b"].data
    n, h = v.shape
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    for i in range(num_layers):
        kernels = kernel_net_reference(params, i, edge_attr / radius, activation)
        agg = np.zeros((n, h))
        counts = np.zeros(n)
        for e, (src, dst) in enumerate(edges):
            agg[dst] += kernels[e].reshape(h, h) @ v[src]
            counts[dst] += 1
        agg /= np.maximum(counts, 1.0)[:, None]
        v = act(v @ params[f"layer_{i}_w"].data + params[f"layer_{i}_b"].data + agg)
    return v @ params["readout_w"].data + params["readout_b"].data


def confusion_f1(confusion):
    """Hand computation of accuracy / per-class F1 / macro-F1."""
    conf = np.asarray(confusion, dtype=np.float64)
    k = conf.shape[0]
    acc = np.trace(conf) / conf.sum()
    f1s = []
    for c in range(k):
        tp = conf[c, c]
        fp = conf[:, c].sum() - tp
        fn = conf[c, :].sum() - tp
        p = tp / (tp + fp) if tp + fp > 0 else 0.0
        r = tp / (tp + fn) if tp + fn > 0 else 0.0
        f1s.append(2 * p * r / (p + r) if p + r > 0 else 0.0)
    return acc, f1s, sum(f1s) / k


class ReferenceAdam:
    """Adam over a dict of Parameters, each parameter's moments and update
    computed in fresh arrays of its own; grads are zeroed after a step."""

    beta1, beta2, eps = 0.9, 0.999, 1e-8

    def __init__(self, params, learning_rate):
        self.params = params
        self.lr = learning_rate
        self.t = 0
        self.m = {name: np.zeros_like(p.data) for name, p in params.items()}
        self.v = {name: np.zeros_like(p.data) for name, p in params.items()}

    def step(self):
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        for name, p in self.params.items():
            g = p.grad
            self.m[name] = b1 * self.m[name] + (1.0 - b1) * g
            self.v[name] = b2 * self.v[name] + (1.0 - b2) * g * g
            m_hat = self.m[name] / (1.0 - b1 ** self.t)
            v_hat = self.v[name] / (1.0 - b2 ** self.t)
            p.data -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)
            p.zero_grad()


class ReferenceSgd:
    """Plain gradient descent, one parameter at a time."""

    def __init__(self, params, learning_rate):
        self.params = params
        self.lr = learning_rate

    def step(self):
        for p in self.params.values():
            p.data -= self.lr * p.grad
            p.zero_grad()
