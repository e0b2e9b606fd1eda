"""Dense float64 matrices with tape-based reverse-mode differentiation.

Every value is a 2-D, C-ordered float64 array wrapped in a :class:`Value`.
Differentiable primitives take an explicit :class:`Tape` and append one
entry per executed op, so the tape is topologically ordered by
construction; :meth:`Tape.backward` replays it in reverse, seeding the loss
gradient with 1.0 and accumulating into each touched value's ``grad``
slot; an op output's slot is cleared again once its backward rule has run.
:class:`Parameter` grads are zero-initialized and persist across
backward calls (repeated backward without zeroing doubles them); the
optimizer owns zeroing. :func:`constant` makes a :class:`Constant` leaf
(inputs such as node features and edge attributes); :func:`dense` skips
its gradient instead of computing one nobody reads, as do
:func:`coo_matmul` and :func:`kernel_message_mean`, while plain
:class:`Value` and :class:`Parameter` inputs always get theirs.
:func:`mix_rows` of a Constant is a Constant with no tape entry.

:func:`dense` is the one op behind every linear layer outside the graphpde
kernel network: ``act(x W + b)`` in one output buffer and one tape entry,
with the bits of the unfused ``matmul`` -> ``add_row_broadcast`` ->
activation chain. A private table states each activation's math once,
for :func:`dense`, :func:`kernel_message_mean`'s kernel network and the
:func:`relu` / :func:`tanh` ops; :data:`ACTIVATIONS` maps names to ops.
:func:`kernel_message_mean` runs the kernel network's hidden layers with
the same bits, but one degree block of slots at a time inside its own
forward and backward passes, recomputing them and the block's
contraction in the backward instead of keeping them.
Its input rows end in a ones column, built once per graph by the caller
(``models`` caches graphpde's), so a block reads its rows in place. The
column stays 1 after every hidden activation, so each hidden layer is one
product with [[W, 0], [b, 1]] and the contraction yields the neighbour
sums with it; the bias gradients come out of the same products as the
weight gradients, on one backward path for every kernel depth. Each
call works in views of one workspace of its own, sized to the largest
block of the layout's plan, so no float array spans every slot.
:func:`mix_rows` is the row mixing of the other graph models, on the
same degree-blocked neighbour layout, so every model uses one sparse
neighbour representation; the mixer holds the mix of the last Constant
it was given and hands it back while the same array comes again.
:func:`coo_matmul` over an edge list remains only as its oracle and as
a name the benchmark's tracer lists.
``Tape(record=False)`` runs ops without keeping anything for the
backward pass (inference): each intermediate is freed as soon as the
forward no longer holds it, and ``backward`` on such a tape raises.

No broadcasting beyond the explicit row bias (``add_row_broadcast`` and
``dense``): every other shape mismatch raises, to catch model-wiring
bugs early. All ops are deterministic and keep finite inputs finite.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

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


class Constant(Value):
    """A leaf that no op produced and nothing differentiates with respect
    to; ops may skip computing its gradient."""

    __slots__ = ()


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
    reverse sweep visits every entry exactly once. A tape made with
    ``record=False`` stores nothing and cannot run backward; ops compute
    the same outputs on it.
    """

    def __init__(self, record: bool = True):
        self.recording = record
        self._entries: list[tuple[str, tuple[Value, ...], Value, Callable[[], None]]] = []

    def record(self, op: str, inputs: tuple[Value, ...], output: Value,
               backward_fn: Callable[[], None]) -> None:
        if self.recording:
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
        from the loss). Each op output's gradient is released once its
        entry's backward rule has used it, so intermediate gradients do not
        pile up over the sweep; afterwards only leaves (values no entry
        produced) hold gradients. A tape is replayed once per forward pass;
        running another pass on a fresh tape accumulates further into any
        shared Parameter grads (they persist until explicitly zeroed).
        """
        if not self.recording:
            raise ContractError("backward needs a recording tape")
        if loss.data.shape != (1, 1):
            raise ContractError(f"loss must be 1x1, got {loss.data.shape}")
        _accumulate(loss, np.ones((1, 1)))
        for _op, _inputs, output, backward_fn in reversed(self._entries):
            if output.grad is not None:
                backward_fn()
                output.grad = None


def constant(data) -> Constant:
    """A leaf value that is not recorded anywhere (no inputs to reach)."""
    return Constant(data)


# ---------------------------------------------------------------------------
# primitive ops


class _Rule(NamedTuple):
    """One activation's math, in place: ``forward(y)`` turns the
    pre-activations y into activations and returns y; ``gradient(g, y)``
    scales g by the derivative, read off the activations y."""
    forward: Callable
    gradient: Callable


_ACTIVATION_RULES = {
    "relu": _Rule(lambda y: np.maximum(y, 0.0, out=y),
                  lambda g, y: np.multiply(g, y > 0.0, out=g)),
    "tanh": _Rule(lambda y: np.tanh(y, out=y),
                  lambda g, y: np.multiply(g, 1.0 - y * y, out=g)),
}


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


def dense(tape: Tape, x: Value, weight: Value, bias: Value,
          activation: str | None = None) -> Value:
    """One linear layer as one tape entry: act(x W + b), with the bias
    added and the activation (None or an :data:`ACTIVATIONS` name) applied
    in place in the product's buffer. Bit-identical to matmul ->
    add_row_broadcast -> the activation's op. Backward scales the upstream
    gradient once by the activation's derivative, then db = column sums,
    dW = x^T g and, unless x is a :class:`Constant`, dx = g W^T."""
    if x.data.shape[1] != weight.data.shape[0]:
        raise DimensionError(
            f"dense shape mismatch: {x.data.shape} x {weight.data.shape}")
    if bias.data.shape != (1, weight.data.shape[1]):
        raise DimensionError(
            f"bias must be 1x{weight.data.shape[1]}, got {bias.data.shape}")
    rule = _ACTIVATION_RULES.get(activation)
    if rule is None and activation is not None:
        raise ContractError(f"unknown activation {activation!r}")
    y = x.data @ weight.data
    y += bias.data
    if rule is not None:
        rule.forward(y)
    out = Value(y)

    def bwd():
        # the output's grad is dead once this runs (Tape.backward releases
        # it), so the derivative goes in place
        g = out.grad
        if rule is not None:
            rule.gradient(g, y)
        _accumulate(bias, g.sum(axis=0, keepdims=True))
        if not isinstance(x, Constant):
            _accumulate(x, g @ weight.data.T)
        _accumulate(weight, x.data.T @ g)

    tape.record("dense", (x, weight, bias), out, bwd)
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


def _activation(tape: Tape, a: Value, name: str) -> Value:
    rule = _ACTIVATION_RULES[name]
    out = Value(rule.forward(a.data.copy()))

    def bwd():
        g = out.grad  # dead once this runs, as in dense
        rule.gradient(g, out.data)
        _accumulate(a, g)

    tape.record(name, (a,), out, bwd)
    return out


def relu(tape: Tape, a: Value) -> Value:
    return _activation(tape, a, "relu")


def tanh(tape: Tape, a: Value) -> Value:
    return _activation(tape, a, "tanh")


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


def _kernel_chain(x: np.ndarray, layers, activation: str | None,
                  buffers) -> list[np.ndarray]:
    """The hidden kernel layers on one block's input rows ``x``, which end
    in a ones column: ``x`` itself, then every layer's output in a view of
    ``buffers``. Each layer is one product with [[W_j, 0], [b_j, 1]], so
    the bias is the last term of every sum, as in :func:`dense`'s x W then
    += b, and the ones column comes through. The activation runs on the
    whole contiguous buffer (faster than on a strided view), and the ones
    are written back after it, so every layer's ones column is exactly 1
    whatever the activation and the input's last column."""
    chain = [x]
    for layer, buf in zip(layers, buffers):
        y = np.matmul(chain[-1], layer, out=buf[:x.shape[0]])
        _ACTIVATION_RULES[activation].forward(y)[:, -1] = 1.0
        chain.append(y)
    return chain


def kernel_message_mean(tape: Tape, attr: Value, hidden_layers, weight: Value,
                        bias: Value, v: Value, layout,
                        activation: str | None = None) -> Value:
    """Mean over each node's in-edges of K_e v_src, where the flattened
    h x h edge kernel K_e = z_e W + b comes from a small network on the
    slot's attribute row, without building any K_e or any per-slot array
    for the whole layout.

    ``layout`` is a graph's ``geometry.NeighbourLayout``, read through its
    block plan; ``attr`` holds one row per slot, num_slots x (a + 1) in
    the layout's slot order: a attributes and a ones column (any values
    in pad slots), built once by the caller (see ``models``) and read in
    place, block by block.
    ``hidden_layers`` is a sequence of (W_j, b_j) pairs: z_e = act(...
    act(attr_e W_0 + b_0) ... W_j + b_j), with ``activation`` an
    :data:`ACTIVATIONS` name (z_e = attr_e when there are none).
    ``weight`` is k x h^2, ``bias`` 1 x h^2 and ``v`` n x h. The last
    kernel layer is linear, so the mean reorders exactly into

        S'_x  = sum_s [z_(x,s), 1] outer v_nbr(x,s)    ((k+1) x h per node)
        out_x = (vec(S_x) W~ + (sum_s v_nbr(x,s)) B^T) / deg(x)

    with W~[c*h + j, i] = W[c, i*h + j] and B[i, j] = b[i*h + j]: per-slot
    work is k*h multiply-adds instead of k*h^2. The ones column stays 1
    after every hidden activation, so each hidden layer is one product
    with [[W_j, 0], [b_j, 1]], and the last h columns of S' are the
    neighbour sums; the output is still the two products above, S_x being
    the first k*h columns of S'. In the backward pass the ones column
    gives the bias rows of the same products: the last rows of S'^T g and
    of each hidden layer's [z, 1]^T dz are the bias gradients, and the
    gradient with respect to S' carries g B in its last h columns. A
    non-:class:`Constant` ``attr`` gets the gradient of every column, the
    ones column included (0 when a hidden layer pins it). z, S' and the
    output rows are computed one degree block at a time, each block padded
    only to its own width, in views of one workspace that each forward
    call and each backward call allocates for its own use, sized to the
    largest block; the output is put back in node order at the end. The
    backward pass recomputes each block's z chain and S' instead of
    keeping them, so no array holds a row per slot of the whole layout
    (except the gradient of a non-Constant ``attr``, and the one scatter
    id per slot that ``neighbours * h`` gives) or k*h numbers per node.
    The same code runs on recording and non-recording tapes. Pad slots
    take a zero v row, so they add nothing and get a zero gradient.
    Nodes without in-edges get a zero row.

    The output has the bits of running the hidden layers as :func:`dense`
    over all slots first, and those of a single padded block when every
    block holds at least two nodes; a one-node block's output product is a
    matrix-vector product, which the BLAS sums in another order. Gradients
    match both up to their last bits.
    """
    n, (rows, width), h = layout.num_nodes, attr.data.shape, v.data.shape[1]
    if v.data.shape[0] != n or rows != layout.num_slots:
        raise DimensionError(
            f"{v.data.shape[0]} node rows and {rows} slot rows for a layout "
            f"of {n} nodes and {layout.num_slots} slots")
    hidden_layers = tuple(hidden_layers)
    if hidden_layers and activation not in _ACTIVATION_RULES:
        raise ContractError(f"unknown activation {activation!r}")
    widths = [width - 1]  # the attributes, less the ones column
    for j, (w_j, b_j) in enumerate(hidden_layers):
        cols = w_j.data.shape[1]
        if w_j.data.shape[0] != widths[-1] or b_j.data.shape != (1, cols):
            raise DimensionError(
                f"kernel layer {j} weight/bias must be {widths[-1]}x{cols} and "
                f"1x{cols}, got {w_j.data.shape} and {b_j.data.shape}")
        widths.append(cols)
    k = widths[-1]
    if weight.data.shape != (k, h * h) or bias.data.shape != (1, h * h):
        raise DimensionError(
            f"kernel weight/bias must be {k}x{h * h} and 1x{h * h}, got "
            f"{weight.data.shape} and {bias.data.shape}")
    layers = [np.block([[w_j.data, np.zeros((w_j.data.shape[0], 1))],
                        [b_j.data, np.ones((1, 1))]]) for w_j, b_j in hidden_layers]
    # pad slots point one past the last node, at an appended zero row
    v_pad = np.concatenate([v.data, np.zeros((1, h))])
    max_slots, max_nodes = layout.max_block_slots, layout.max_block_nodes
    # [W~; B^T]: (k+1)*h x h
    w_t = np.concatenate([weight.data.reshape(k, h, h).transpose(0, 2, 1)
                          .reshape(k * h, h), bias.data.reshape(h, h).T])
    inv = layout.inv_degree[layout.order, None]

    def workspace():
        """One call's buffers, sized to the largest block: the hidden
        activations with their ones columns (the products write them), the
        gathered neighbour rows and the S' rows."""
        return ([np.empty((max_slots, cols + 1)) for cols in widths[1:]],
                np.empty((max_slots, h)), np.empty((max_nodes, k + 1, h)))

    def block(rows_of, nbrs, b, w, work):
        """A block's z chain, its neighbour rows (b x w x h) and its S'
        rows (b x (k+1)*h), in views of ``work`` and of ``attr``."""
        chain_bufs, vb_buf, s_buf = work
        chain = _kernel_chain(attr.data[rows_of], layers, activation, chain_bufs)
        # indices are in range; "clip" lets take write into ``out`` unbuffered
        vb = v_pad.take(nbrs, axis=0, out=vb_buf[:b * w], mode="clip").reshape(b, w, h)
        s = np.matmul(chain[-1].reshape(b, w, k + 1).transpose(0, 2, 1), vb,
                      out=s_buf[:b])
        return chain, vb, s.reshape(b, (k + 1) * h)

    # rows in block order (of ``layout.order``) until the output goes back
    # to node order
    rows_out = np.zeros((n, h))
    work = workspace()
    for nodes, rows_of, nbrs, b, w in layout.plan:
        _chain, _vb, s = block(rows_of, nbrs, b, w, work)
        rows_out[nodes] = inv[nodes] * (s[:, :k * h] @ w_t[:k * h]
                                        + s[:, k * h:] @ w_t[k * h:])
    del work
    y = np.empty((n, h))
    y[layout.order] = rows_out
    out = Value(y)

    def bwd():
        g = out.grad[layout.order]
        g *= inv
        # every slot row lies in exactly one block of nonzero width
        d_attr = None if isinstance(attr, Constant) else np.empty((rows, width))
        # per hidden layer, the gradient of [[W_j, 0], [b_j, 1]]; and of
        # [W~; B^T]
        d_layers = [np.zeros_like(layer) for layer in layers]
        d_weight = np.zeros(((k + 1) * h, h))
        # pad rows land in the extra bucket n, which is dropped; a slot's
        # scatter ids are its neighbour's h flat positions in dv, each
        # neighbour id times h repeated h times plus the tiled 0..h-1
        dv = np.zeros((n + 1) * h)
        nbh = layout.neighbours * h
        tile = np.tile(np.arange(h), max_slots)
        ids_buf = np.empty(max_slots * h, dtype=np.int64)
        work = workspace()
        ds_buf, dvb_buf = np.empty((max_nodes, (k + 1) * h)), np.empty((max_slots, h))
        # the gradient of each hidden activation; its ones column is zeroed,
        # as the forward pins that column to 1
        dz_bufs = [np.empty((max_slots, cols_j + 1)) for cols_j in widths[1:]]
        for nodes, rows_of, nbrs, b, w in layout.plan:
            chain, vb, s = block(rows_of, nbrs, b, w, work)
            g_b = g[nodes]
            d_weight += s.T @ g_b
            ds = np.matmul(g_b, w_t.T, out=ds_buf[:b]).reshape(b, k + 1, h)
            dvb = np.matmul(chain[-1].reshape(b, w, k + 1), ds,
                            out=dvb_buf[:b * w].reshape(b, w, h))
            ids = np.add(np.repeat(nbh[rows_of], h), tile[:b * w * h],
                         out=ids_buf[:b * w * h])
            scattered = np.bincount(ids, weights=dvb.ravel())
            dv[:scattered.size] += scattered
            # each chain entry's gradient; the input rows' for a non-Constant attr
            dz_to = [None if d_attr is None else d_attr[rows_of],
                     *(buf[:b * w] for buf in dz_bufs)]
            if dz_to[-1] is None:  # a Constant input and no hidden layers
                continue
            dz = np.matmul(vb, ds.transpose(0, 2, 1),
                           out=dz_to[-1].reshape(b, w, k + 1)).reshape(b * w, k + 1)
            for j in reversed(range(len(layers))):
                _ACTIVATION_RULES[activation].gradient(dz, chain[j + 1])
                dz[:, -1] = 0.0
                d_layers[j] += chain[j].T @ dz
                if dz_to[j] is not None:
                    dz = np.matmul(dz, layers[j].T, out=dz_to[j])
        d_weight = d_weight.reshape(k + 1, h, h).transpose(0, 2, 1).reshape(k + 1, h * h)
        _accumulate(weight, d_weight[:k])
        _accumulate(bias, d_weight[k:])
        for (w_j, b_j), d_layer in zip(hidden_layers, d_layers):
            _accumulate(w_j, d_layer[:-1, :-1].copy())
            _accumulate(b_j, d_layer[-1:, :-1].copy())
        if d_attr is not None:
            _accumulate(attr, d_attr)
        _accumulate(v, dv.reshape(n + 1, h)[:n])

    params = tuple(p for pair in hidden_layers for p in pair)
    tape.record("kernel_message_mean", (attr, *params, weight, bias, v), out, bwd)
    return out


def _mix_blocks(x: np.ndarray, layout, slot_weights: np.ndarray,
                self_weights: np.ndarray) -> np.ndarray:
    """out_i = sum over node i's slots of w_s x_nbr(s), in slot order, then
    + self_i x_i: per block of the layout's plan, one gather into a buffer
    sized to the largest block, shared by the whole call, and one weighted
    row sum."""
    n, d = x.shape
    if d == 1:
        # einsum sums a lone column with a reordered dot loop; a zero second
        # column keeps the slot-order sum
        return _mix_blocks(np.hstack([x, np.zeros((n, 1))]), layout, slot_weights,
                           self_weights)[:, :1].copy()
    x_pad = np.concatenate([x, np.zeros((1, d))])
    buf = np.empty((layout.max_block_slots, d))
    mixed = np.zeros((n, d))  # block order
    for nodes, slots, nbrs, b, w in layout.plan:
        # indices are in range; "clip" lets take write into ``out`` unbuffered
        rows = x_pad.take(nbrs, axis=0, out=buf[:b * w], mode="clip")
        np.einsum("bw,bwd->bd", slot_weights[slots].reshape(b, w),
                  rows.reshape(b, w, d), out=mixed[nodes])
    out = np.empty((n, d))
    out[layout.order] = mixed
    out += self_weights[:, None] * x
    return out


def mix_rows(tape: Tape, features: Value, mixer) -> Value:
    """Apply a constant sparse row-mixing operator on a degree-blocked
    in-neighbour layout: out_i = sum_j w(i, j) x_j + self_i x_i.

    ``mixer`` holds the ``layout`` (see ``geometry.NeighbourLayout``), the
    per-slot ``weights`` w(i, nbr) (0 in pads), the per-slot
    ``transposed`` weights (the weight of each slot's reverse edge) and
    the n ``self_weights``; see ``geometry.RowMixer``. Each node sums its
    slots in slot order, pads reading an appended zero row, and adds its
    self term last, so the result has the bits of :func:`coo_matmul` over
    the edge list followed by one self loop per node. The backward pass
    is the same routine with the transposed weights, which needs a
    symmetric edge list; there is no scatter. The weights are constants,
    and a :class:`Constant` input gets no gradient.

    The mix of a :class:`Constant` is itself a read-only Constant, made
    without a tape entry. ``mixer`` holds it, one n x d array for as long
    as the mixer (and so its graph) lives, next to the input array it was
    made from, and returns the same object while that same array object
    comes back; any other array is mixed afresh and replaces it. So a
    slide's fixed expression is mixed once, not on every step, as long as
    nobody writes into an array after mixing it as a Constant.
    """
    layout = mixer.layout
    if features.data.shape[0] != layout.num_nodes:
        raise DimensionError(
            f"features have {features.data.shape[0]} rows for "
            f"{layout.num_nodes} nodes")
    if isinstance(features, Constant):
        held = mixer.held
        if held is None or held[0] is not features.data:
            mixed = Constant(_mix_blocks(features.data, layout, mixer.weights,
                                         mixer.self_weights))
            mixed.data.flags.writeable = False
            held = mixer.held = (features.data, mixed)
        return held[1]
    out = Value(_mix_blocks(features.data, layout, mixer.weights, mixer.self_weights))

    def bwd():
        _accumulate(features, _mix_blocks(out.grad, layout, mixer.transposed,
                                          mixer.self_weights))

    tape.record("mix_rows", (features,), out, bwd)
    return out


def coo_matmul(tape: Tape, features: Value, src, dst, weights, num_rows: int) -> Value:
    """Apply a sparse row-mixing operator: out[dst[e]] += w[e] * x[src[e]].

    The weights are constants (not differentiated); gradients flow only to
    ``features`` via the transposed pattern, and not even there when it is
    a :class:`Constant`. No model calls it: it is the oracle for
    :func:`mix_rows`.
    """
    src = _check_ids(src, features.data.shape[0], "source id")
    dst = _check_ids(dst, num_rows, "destination id")
    w = np.asarray(weights, dtype=np.float64)
    if not (src.size == dst.size == w.size):
        raise DimensionError("src, dst and weights must have equal length")
    out = Value(_scatter_rows(dst, w[:, None] * features.data[src], num_rows))

    def bwd():
        if not isinstance(features, Constant):
            _accumulate(features, _scatter_rows(src, w[:, None] * out.grad[dst],
                                                features.data.shape[0]))

    tape.record("coo_matmul", (features,), out, bwd)
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
