"""Dense float64 matrices with tape-based reverse-mode differentiation.

Every value is a 2-D, C-ordered float64 array wrapped in a :class:`Value`.
Differentiable primitives take an explicit :class:`Tape` and append one
entry per executed op, so the tape is topologically ordered by
construction; :meth:`Tape.backward` replays it in reverse, seeding the loss
gradient with 1.0 and accumulating into each touched value's ``grad``
slot. :class:`Parameter` grads are zero-initialized and persist across
backward calls (repeated backward without zeroing doubles them); the
optimizer owns zeroing.

No broadcasting beyond the explicit row-bias op: every other shape
mismatch raises, to catch model-wiring bugs early. All ops are
deterministic and keep finite inputs finite.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .errors import ContractError, DimensionError


def as_matrix(obj) -> np.ndarray:
    """Coerce to a 2-D, C-contiguous float64 array."""
    arr = np.ascontiguousarray(obj, dtype=np.float64)
    if arr.ndim == 1:
        arr = arr.reshape(1, -1)
    if arr.ndim != 2:
        raise DimensionError(f"expected a 2-D matrix, got ndim={arr.ndim}")
    return arr


class Value:
    """One node on the tape: a float64 matrix plus a gradient slot."""

    __slots__ = ("data", "grad")

    def __init__(self, data):
        self.data = as_matrix(data)
        self.grad: np.ndarray | None = None

    @property
    def shape(self) -> tuple[int, int]:
        return self.data.shape


class Parameter(Value):
    """A named leaf with a persistent, zero-initialized gradient buffer."""

    __slots__ = ("name",)

    def __init__(self, name: str, data):
        super().__init__(data)
        self.name = name
        self.grad = np.zeros_like(self.data)

    def zero_grad(self) -> None:
        self.grad.fill(0.0)


def _accumulate(value: Value, grad: np.ndarray, owned: bool = True) -> None:
    """Add into the grad slot. ``owned`` marks an array the slot may adopt
    without copying: either freshly allocated, or an upstream grad that is
    dead after its producer's backward ran (reverse order guarantees its
    consumers already used it). At most one input may adopt a given array;
    any other taker passes ``owned=False`` and copies."""
    if value.grad is None:
        value.grad = grad if owned else grad.copy()
    else:
        value.grad += grad


def _scatter_rows(ids: np.ndarray, rows: np.ndarray, num_rows: int) -> np.ndarray:
    """Sum ``rows`` into ``num_rows`` buckets by id (one flat bincount pass,
    much faster than np.add.at)."""
    d = rows.shape[1]
    if rows.size == 0:
        return np.zeros((num_rows, d))
    flat_ids = (ids[:, None] * d + np.arange(d)).ravel()
    return np.bincount(flat_ids, weights=rows.ravel(),
                       minlength=num_rows * d).reshape(num_rows, d)


class Tape:
    """Execution-ordered record of primitive ops, replayable in reverse.

    Each entry stores the op name, its input values, the output value and
    a closure holding whatever the backward rule saved. Inputs of any
    entry were produced by earlier entries or are leaves, so a single
    reverse sweep visits every entry exactly once.
    """

    def __init__(self):
        self._entries: list[tuple[str, tuple[Value, ...], Value, Callable[[], None]]] = []

    def record(self, op: str, inputs: tuple[Value, ...], output: Value,
               backward_fn: Callable[[], None]) -> None:
        self._entries.append((op, inputs, output, backward_fn))

    @property
    def entries(self):
        return tuple(self._entries)

    def __len__(self) -> int:
        return len(self._entries)

    def backward(self, loss: Value) -> None:
        """Accumulate d(loss)/d(value) into every value reachable on the tape.

        The loss must be a 1x1 value; its seed gradient is 1.0. Entries
        whose output never received a gradient are skipped (not reachable
        from the loss). A tape is replayed once per forward pass; running
        another pass on a fresh tape accumulates further into any shared
        Parameter grads (they persist until explicitly zeroed).
        """
        if loss.data.shape != (1, 1):
            raise ContractError(f"loss must be 1x1, got {loss.data.shape}")
        _accumulate(loss, np.ones((1, 1)))
        for _op, _inputs, output, backward_fn in reversed(self._entries):
            if output.grad is not None:
                backward_fn()


def constant(data) -> Value:
    """A leaf value that is not recorded anywhere (no inputs to reach)."""
    return Value(data)


# ---------------------------------------------------------------------------
# primitive ops


def matmul(tape: Tape, a: Value, b: Value) -> Value:
    """Matrix product. Backward: dA = dC @ B^T, dB = A^T @ dC."""
    if a.data.shape[1] != b.data.shape[0]:
        raise DimensionError(
            f"matmul shape mismatch: {a.data.shape} x {b.data.shape}")
    out = Value(a.data @ b.data)

    def bwd():
        g = out.grad
        _accumulate(a, g @ b.data.T)
        _accumulate(b, a.data.T @ g)

    tape.record("matmul", (a, b), out, bwd)
    return out


def add(tape: Tape, a: Value, b: Value) -> Value:
    """Elementwise sum of two same-shape matrices."""
    if a.data.shape != b.data.shape:
        raise DimensionError(
            f"add shape mismatch: {a.data.shape} vs {b.data.shape}")
    out = Value(a.data + b.data)

    def bwd():
        g = out.grad
        _accumulate(a, g)
        _accumulate(b, g, owned=False)

    tape.record("add", (a, b), out, bwd)
    return out


def add_row_broadcast(tape: Tape, a: Value, bias: Value) -> Value:
    """Add a 1 x cols bias to every row. Bias grad gets column sums."""
    if bias.data.shape != (1, a.data.shape[1]):
        raise DimensionError(
            f"bias must be 1x{a.data.shape[1]}, got {bias.data.shape}")
    out = Value(a.data + bias.data)

    def bwd():
        g = out.grad
        _accumulate(bias, g.sum(axis=0, keepdims=True))
        _accumulate(a, g)

    tape.record("add_row_broadcast", (a, bias), out, bwd)
    return out


def relu(tape: Tape, a: Value) -> Value:
    out = Value(np.maximum(a.data, 0.0))

    def bwd():
        _accumulate(a, out.grad * (a.data > 0.0))

    tape.record("relu", (a,), out, bwd)
    return out


def tanh(tape: Tape, a: Value) -> Value:
    t = np.tanh(a.data)
    out = Value(t)

    def bwd():
        _accumulate(a, out.grad * (1.0 - t * t))

    tape.record("tanh", (a,), out, bwd)
    return out


def log_softmax_rows(tape: Tape, a: Value) -> Value:
    """Per-row log-softmax, computed with max subtraction for stability."""
    if a.data.shape[1] < 2:
        raise ContractError("log_softmax_rows needs at least 2 columns")
    shifted = a.data - a.data.max(axis=1, keepdims=True)
    logp = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    out = Value(logp)
    softmax = np.exp(logp)

    def bwd():
        g = out.grad
        _accumulate(a, g - softmax * g.sum(axis=1, keepdims=True))

    tape.record("log_softmax_rows", (a,), out, bwd)
    return out


def _check_ids(ids, upper: int, what: str) -> np.ndarray:
    ids = np.asarray(ids, dtype=np.int64)
    if ids.ndim != 1:
        raise DimensionError(f"{what} must be a 1-D index list")
    if ids.size and (ids.min() < 0 or ids.max() >= upper):
        raise IndexError(f"{what} out of range [0, {upper})")
    return ids


def segment_mean(tape: Tape, values: Value, segment_ids, num_segments: int) -> Value:
    """Row i of output = mean of rows whose segment id is i.

    Empty segments produce a zero row. Backward scatters the upstream
    gradient divided by the segment size, which conserves gradient mass
    per segment.
    """
    ids = _check_ids(segment_ids, num_segments, "segment id")
    if ids.size != values.data.shape[0]:
        raise DimensionError(
            f"{ids.size} segment ids for {values.data.shape[0]} rows")
    counts = np.bincount(ids, minlength=num_segments).astype(np.float64)
    sums = _scatter_rows(ids, values.data, num_segments)
    denom = np.maximum(counts, 1.0)[:, None]
    out = Value(sums / denom)

    def bwd():
        _accumulate(values, (out.grad / denom)[ids])

    tape.record("segment_mean", (values,), out, bwd)
    return out


def gather_rows(tape: Tape, values: Value, row_ids) -> Value:
    """Select rows by index; backward scatter-adds into the sources."""
    ids = _check_ids(row_ids, values.data.shape[0], "row id")
    out = Value(values.data[ids])

    def bwd():
        _accumulate(values, _scatter_rows(ids, out.grad, values.data.shape[0]))

    tape.record("gather_rows", (values,), out, bwd)
    return out


def edge_matvec(tape: Tape, mats: Value, vecs: Value) -> Value:
    """Row-wise matrix-vector products: out[e] = reshape(mats[e]) @ vecs[e].

    ``mats`` is m x (h*h) (each row a flattened h x h matrix), ``vecs`` is
    m x h; the output is m x h.
    """
    m, h = vecs.data.shape
    if mats.data.shape != (m, h * h):
        raise DimensionError(
            f"edge kernels must be {m}x{h * h}, got {mats.data.shape}")
    k = mats.data.reshape(m, h, h)
    out = Value(np.einsum("eij,ej->ei", k, vecs.data))

    def bwd():
        g = out.grad
        _accumulate(mats, np.einsum("ei,ej->eij", g, vecs.data).reshape(m, h * h))
        _accumulate(vecs, np.einsum("eij,ei->ej", k, g))

    tape.record("edge_matvec", (mats, vecs), out, bwd)
    return out


def kernel_message_mean(tape: Tape, hidden: Value, weight: Value, bias: Value,
                        v: Value, layout) -> Value:
    """Mean over each node's in-edges of K_e v_src, where the flattened
    h x h edge kernel is K_e = z_e W + b, without building any K_e.

    ``layout`` is a padded in-neighbour layout (``neighbours`` and ``mask``,
    n x D, and ``inv_degree``, n); ``hidden`` holds one row z_e per slot,
    (n*D) x k node-major, with any values in pad slots; ``weight`` is
    k x h^2, ``bias`` 1 x h^2 and ``v`` n x h. The last kernel layer is
    linear, so the mean reorders exactly into

        S_x   = sum_s z_(x,s) outer v_nbr(x,s)         (k x h per node)
        out_x = (vec(S_x) W~ + (sum_s v_nbr(x,s)) B^T) / deg(x)

    with W~[c*h + j, i] = W[c, i*h + j] and B[i, j] = b[i*h + j]: per-slot
    work is k*h multiply-adds instead of k*h^2. Pad slots take a zero v
    row, so they add nothing and their z gradient is exactly 0. Nodes
    without in-edges get a zero row.
    """
    nbr, mask = layout.neighbours, layout.mask
    (n, width), (rows, k) = nbr.shape, hidden.data.shape
    h = v.data.shape[1]
    if v.data.shape[0] != n or rows != n * width:
        raise DimensionError(
            f"{v.data.shape[0]} node rows and {rows} slot rows for a layout "
            f"of {n} nodes x {width} slots")
    if weight.data.shape != (k, h * h) or bias.data.shape != (1, h * h):
        raise DimensionError(
            f"kernel weight/bias must be {k}x{h * h} and 1x{h * h}, got "
            f"{weight.data.shape} and {bias.data.shape}")
    z = hidden.data.reshape(n, width, k)
    vs = v.data[nbr]
    vs *= mask[:, :, None]
    w_t = weight.data.reshape(k, h, h).transpose(0, 2, 1).reshape(k * h, h)
    b_mat = bias.data.reshape(h, h)
    inv = layout.inv_degree[:, None]
    s = np.matmul(z.transpose(0, 2, 1), vs).reshape(n, k * h)
    vsum = vs.sum(axis=1)
    out = Value(inv * (s @ w_t + vsum @ b_mat.T))

    def bwd():
        g = out.grad * inv
        _accumulate(weight, (s.T @ g).reshape(k, h, h).transpose(0, 2, 1)
                    .reshape(k, h * h))
        _accumulate(bias, (g.T @ vsum).reshape(1, h * h))
        ds = (g @ w_t.T).reshape(n, k, h)
        _accumulate(hidden, np.matmul(vs, ds.transpose(0, 2, 1)).reshape(rows, k))
        dvs = np.matmul(z, ds)
        dvs += (g @ b_mat)[:, None, :]
        dvs *= mask[:, :, None]
        _accumulate(v, _scatter_rows(nbr.ravel(), dvs.reshape(-1, h), n))

    tape.record("kernel_message_mean", (hidden, weight, bias, v), out, bwd)
    return out


def coo_matmul(tape: Tape, features: Value, src, dst, weights, num_rows: int) -> Value:
    """Apply a sparse row-mixing operator: out[dst[e]] += w[e] * x[src[e]].

    The weights are constants (not differentiated); gradients flow only to
    ``features`` via the transposed pattern.
    """
    src = _check_ids(src, features.data.shape[0], "source id")
    dst = _check_ids(dst, num_rows, "destination id")
    w = np.asarray(weights, dtype=np.float64)
    if not (src.size == dst.size == w.size):
        raise DimensionError("src, dst and weights must have equal length")
    out = Value(_scatter_rows(dst, w[:, None] * features.data[src], num_rows))

    def bwd():
        _accumulate(features, _scatter_rows(src, w[:, None] * out.grad[dst],
                                            features.data.shape[0]))

    tape.record("coo_matmul", (features,), out, bwd)
    return out


def mul(tape: Tape, a: Value, b: Value) -> Value:
    """Elementwise product of two same-shape matrices."""
    if a.data.shape != b.data.shape:
        raise DimensionError(
            f"mul shape mismatch: {a.data.shape} vs {b.data.shape}")
    out = Value(a.data * b.data)

    def bwd():
        g = out.grad
        _accumulate(a, g * b.data)
        _accumulate(b, g * a.data)

    tape.record("mul", (a, b), out, bwd)
    return out


def mul_const(tape: Tape, a: Value, const) -> Value:
    """Elementwise product with a constant scalar or same-shape array."""
    c = np.asarray(const, dtype=np.float64)
    out = Value(a.data * c)

    def bwd():
        _accumulate(a, out.grad * c)

    tape.record("mul_const", (a,), out, bwd)
    return out


def sum_all(tape: Tape, a: Value) -> Value:
    """Sum of all entries, as a 1x1 value."""
    out = Value(np.array([[a.data.sum()]]))

    def bwd():
        _accumulate(a, np.full_like(a.data, out.grad[0, 0]))

    tape.record("sum_all", (a,), out, bwd)
    return out


ACTIVATIONS: dict[str, Callable[[Tape, Value], Value]] = {
    "relu": relu,
    "tanh": tanh,
}
