"""Independent reference implementations the tests check the library against.

Everything here is deliberately naive (dense, quadratic, loop-based) and
shares no code with the library paths under test; :func:`unfused_dense`
chains the separate autodiff primitives that ``ad.dense`` fuses, and
:func:`two_stage_kernel_message_mean` / :func:`two_stage_graphpde_forward`
run the graphpde kernel network as ``ad.dense`` over every layout slot
before the message op, instead of inside it one degree block at a time;
:func:`coo_apply_kernel` mixes rows with ``ad.coo_matmul`` over the
per-edge weights, the path the models' row mixers replaced.
"""

import numpy as np

from stgno import autodiff as ad
from stgno.geometry import DegreeBlock, NeighbourLayout


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
    num_slots-row matrix, then the message op on those rows with no hidden
    layers of its own."""
    z = attr
    for w, b in hidden_layers:
        z = ad.dense(tape, z, w, b, activation)
    return ad.kernel_message_mean(tape, z, (), weight, bias, v, layout)


def two_stage_graphpde_forward(tape, config, params, graph, features):
    """graphpde logits with every kernel-network hidden layer evaluated over
    all slots of ``graph.layout`` before the message op (same parameters,
    same op order otherwise)."""
    act = ad.ACTIVATIONS[config.activation]
    attr = ad.constant(graph.slot_attr)
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


def coo_apply_kernel(tape, weights, features):
    """Row mixing as one ``ad.coo_matmul`` over sparse KernelWeights:
    out[dst] += w * x[src], entry by entry in the weights' order."""
    return ad.coo_matmul(tape, features, weights.src, weights.dst, weights.weights,
                         weights.num_nodes)


def single_block_layout(graph):
    """The in-neighbour layout as one padded block: every node, in node
    order, gets D = max in-degree slots, filled by a loop over the edge
    list. The library's degree blocks must give the same results."""
    n, m = graph.num_nodes, graph.num_edges
    deg = np.bincount(graph.edges[:, 1], minlength=n)
    width = int(deg.max()) if m else 0
    slot_edge = np.full(n * width, -1, dtype=np.int64)
    neighbours = np.full(n * width, n, dtype=np.int64)
    filled = np.zeros(n, dtype=np.int64)
    for e, (src, dst) in enumerate(graph.edges):
        slot = dst * width + filled[dst]
        filled[dst] += 1
        slot_edge[slot], neighbours[slot] = e, src
    return NeighbourLayout(
        order=np.arange(n), blocks=(DegreeBlock(lo=0, hi=n, start=0, width=width),),
        neighbours=neighbours, slot_edge=slot_edge,
        inv_degree=1.0 / np.maximum(deg, 1))


def slot_attributes(graph, layout):
    """The edge attributes / radius in ``layout``'s slot order, zero in
    pads, by a loop over the slots."""
    attr = graph.edge_attr  # derived on each access: read once
    out = np.zeros((layout.num_slots, 3))
    for slot, e in enumerate(layout.slot_edge):
        if e >= 0:
            out[slot] = attr[e] / graph.radius
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
    """All-pairs O(n^2) radius edges, same squared-distance criterion."""
    pts = np.asarray(points, dtype=np.float64)
    n = pts.shape[0]
    r2 = radius * radius
    edges = []
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            d = pts[i] - pts[j]
            if d[0] * d[0] + d[1] * d[1] <= r2:
                edges.append((i, j))
    return np.array(sorted(edges), dtype=np.int64).reshape(-1, 2)


def dense_weight_matrix(weights):
    """Materialize sparse KernelWeights into a dense (n, n) matrix K with
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
    while f"layer_{layer}_kernel_{j + 1}_w" in params.names():
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
