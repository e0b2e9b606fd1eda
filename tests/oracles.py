"""Independent reference implementations the tests check the library against.

Everything here is deliberately naive (dense, quadratic, loop-based) and
shares no code with the library paths under test.
"""

import numpy as np


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
