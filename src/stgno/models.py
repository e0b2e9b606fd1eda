"""Model definitions: baselines and the spatial / graph operator networks.

Six kinds, one :class:`Kind` row each in :data:`KINDS`, share one config,
checked when built (by ``replace`` too), and one parameter scheme. Five
are one linear stack (:func:`stack_forward`): blocks of row mixing, then
a linear layer and the activation, then a linear readout. They differ
only in the mixers each block applies, in order:

* ``lr``             none, and no blocks: logits = X W + b, graph-free.
* ``fcn``            none.
* ``gcn``            the symmetric degree-normalized adjacency (self loops
                     included).
* ``spatial_kernel`` the row-normalized Gaussian positional kernel, once
                     more before the readout; num_layers counts every
                     linear layer, so it has num_layers - 1 blocks where
                     the others have num_layers.
* ``spatial_gcn``    the Gaussian kernel, then the normalized adjacency.

Each mixer is a :class:`geometry.RowMixer`, one weight per slot of the
graph's degree-blocked in-neighbour layout (``RadiusGraph.layout``, a
:class:`geometry.NeighbourLayout`), built on first use from the per-slot
and per-node self weights of :func:`symmetric_norm_weights` or
:func:`geometry.gaussian_kernel_weights`, which compute them in slot
order from the layout and the positions, and cached on the graph; one
:func:`ad.mix_rows` tape entry applies it. All six kinds thus share one
sparse neighbour representation; ``ad.coo_matmul`` over per-edge
weights remains only as the tests' oracle and a name the benchmark's
tracer lists. The first block's mixes take the slide's constant features
(and, in spatial_gcn, the Gaussian mix of them), so they are Constants
made without a tape entry and held on the mixer, one n x d array each
for as long as the graph lives: a slide's expression is mixed once, not
on every step.

The sixth, ``graphpde``, is a linear lift to the hidden width, num_layers
message-passing updates
    v' = act(W v + b + mean_{y in N(x)} K(e(x, y)) v_y)
where K is a per-layer edge-conditioned kernel network mapping the 3 edge
attributes to an h x h matrix, then a linear readout.

The graphpde kernel network's last layer is linear, K_e = z_e W2 + b2 with
z_e its last hidden activation, so the mean message is evaluated exactly as
W~2 . mean_e(z_e outer v_e) + B2 . mean_e v_e and no per-edge h x h matrix
is ever built. The whole kernel network and that contraction are one
tape entry, :func:`ad.kernel_message_mean`, which runs on the same
layout. Its input is derived here from the graph's positions and layout
once per forward (:func:`_kernel_input_for`): per slot, the
radius-scaled attributes of its edge (:func:`geometry.slot_attributes`)
and a 1, zero rows in pads, in one num_slots x 4 buffer (474 kB on a
300-spot slide at r = 0.25). Every layer's op reads it, forward and
backward, and it is freed with the step's tape, so the graph caches only
the stack kinds' row mixers. The op runs
the hidden kernel layers (:func:`kernel_net_forward` names their
parameters) one degree block at a time on those rows in place, and
recomputes them in the backward pass, so no other per-slot array of the
whole layout is built, and none outlives the step. The ones column
carries every bias: a hidden
layer is one product with [[W, 0], [b, 1]], and the contraction with
the neighbour states gives the neighbour sums in its last h columns.
The logits keep the bits of x W then + b; gradients move in their last
bits, because the bias terms are summed per block. Every other
linear+activation pair of every kind is a single fused :func:`ad.dense`
tape entry; the constant edge attributes and node features get no
gradient.
The spatial models read the spot coordinates from ``graph.positions``
(the graph owns them) and cache their Gaussian mixer on the graph,
keyed by bandwidth alone.

A model's parameters are a plain ``{name: Parameter}`` dict (``Params``).
Parameter names are stable per config, so two inits with the same seed
are bit-identical and checkpoints can be validated by name and shape.
The fcn / spatial_kernel naming lines up on purpose: a spatial_kernel
model with L linears has exactly the parameter set of an fcn with L - 1
blocks, which makes the vanishing-bandwidth equivalence directly
checkable with shared parameters.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import autodiff as ad
from .autodiff import Parameter, Tape, Value
from .errors import ContractError, DimensionError, ParameterError
from .geometry import (RadiusGraph, RowMixer, gaussian_kernel_weights, row_mixer,
                       slot_attributes)


class Kind(NamedTuple):
    """A model kind: its name in the results table, the num_layers of a
    config that leaves it None, and the row mixers that each block of a
    stack kind applies, in order, before its linear (None for graphpde)."""
    display_name: str
    default_layers: int
    mixers: tuple[str, ...] | None


KINDS = {
    "lr": Kind("LR", 1, ()),
    "fcn": Kind("FCN", 2, ()),
    "gcn": Kind("GCN", 2, ("norm",)),
    "spatial_kernel": Kind("SpatialKernel", 3, ("gaussian",)),
    "spatial_gcn": Kind("SpatialGCN", 2, ("gaussian", "norm")),
    "graphpde": Kind("GraphPDE", 6, None),
}

# a model's parameters by name, in parameter_shapes order
Params = dict[str, Parameter]


def check_kind(kind: str) -> None:
    if kind not in KINDS:
        raise ParameterError(
            f"unknown model kind {kind!r}; valid: {', '.join(KINDS)}")


def _is_int_at_least(value, least: int) -> bool:
    return isinstance(value, int) and not isinstance(value, bool) and value >= least


def _check_counts(config, minimums) -> None:
    """Refuse the first (name, least) field of ``config`` not an int >= least."""
    for name, least in minimums:
        if not _is_int_at_least(getattr(config, name), least):
            raise ParameterError(
                f"{name} must be >= {least} (an integer), got {getattr(config, name)!r}")


def _check_positive_real(name: str, x) -> None:
    """Refuse anything but a positive finite int or float, and any bool."""
    if isinstance(x, bool) or not isinstance(x, (int, float)) or not 0 < x < math.inf:
        raise ParameterError(f"{name} must be positive and finite, got {x!r}")


@dataclass(frozen=True)
class ModelConfig:
    kind: str
    input_dim: int
    hidden_dim: int = 16
    num_classes: int = 3
    num_layers: int | None = None  # None: the kind's default_layers
    activation: str = "relu"
    kernel_net_hidden: tuple[int, ...] = (64,)
    bandwidth: float | None = None
    init_seed: int = 0

    def __post_init__(self) -> None:
        check_kind(self.kind)
        if self.num_layers is None:
            object.__setattr__(self, "num_layers", KINDS[self.kind].default_layers)
        _check_counts(self, (("input_dim", 1), ("hidden_dim", 1), ("num_classes", 2),
                             ("num_layers", 1), ("init_seed", 0)))
        if self.activation not in ad.ACTIVATIONS:
            raise ParameterError(f"unknown activation {self.activation!r}")
        if self.bandwidth is not None:
            _check_positive_real("bandwidth", self.bandwidth)
        if not all(_is_int_at_least(width, 1) for width in self.kernel_net_hidden):
            raise ParameterError("kernel network widths must be integers >= 1, "
                                 f"got {tuple(self.kernel_net_hidden)}")

    @property
    def needs_graph(self) -> bool:
        """graphpde, and every stack kind that mixes rows."""
        return KINDS[self.kind].mixers != ()


def make_config(kind: str, input_dim: int, **overrides) -> ModelConfig:
    return ModelConfig(kind=kind, input_dim=input_dim, **overrides)


def parameter_shapes(config: ModelConfig) -> list[tuple[str, tuple[int, int]]]:
    """The full (name, shape) list for a config, in init order."""
    d, h, c, layers = (config.input_dim, config.hidden_dim,
                       config.num_classes, config.num_layers)
    shapes: list[tuple[str, tuple[int, int]]] = []

    def block(name: str, rows: int, cols: int) -> None:
        shapes.append((f"{name}_w", (rows, cols)))
        shapes.append((f"{name}_b", (1, cols)))

    if config.kind == "graphpde":
        block("lift", d, h)
        widths = (3, *config.kernel_net_hidden, h * h)
        for i in range(layers):
            block(f"layer_{i}", h, h)
            for j in range(len(widths) - 1):
                block(f"layer_{i}_kernel_{j}", widths[j], widths[j + 1])
        block("readout", h, c)
    else:
        blocks = _stack_blocks(config)
        for i in range(blocks):
            block(f"layer_{i}", d if i == 0 else h, h)
        block("readout", d if blocks == 0 else h, c)
    return shapes


def init_params(config: ModelConfig) -> Params:
    """Xavier-uniform weights, zero biases, deterministic per (config, seed),
    keyed by name in :func:`parameter_shapes` order."""
    rng = np.random.default_rng(config.init_seed)
    params = {}
    for name, (rows, cols) in parameter_shapes(config):
        if name.endswith("_b"):
            data = np.zeros((rows, cols))
        else:
            bound = math.sqrt(6.0 / (rows + cols))
            data = rng.uniform(-bound, bound, size=(rows, cols))
        params[name] = Parameter(name, data)
    return params


def _linear(tape: Tape, params: Params, name: str, x: Value,
            activation: str | None = None) -> Value:
    return ad.dense(tape, x, params[f"{name}_w"], params[f"{name}_b"], activation)


def symmetric_norm_weights(graph: RadiusGraph) -> tuple[np.ndarray, np.ndarray]:
    """Self-looped symmetric normalization D^-1/2 (A + I) D^-1/2: one weight
    per slot of ``graph.layout`` (the source's factor times the
    destination's, 0 in pads), then the n self weights. The operator is
    symmetric, so the weights are their own transpose."""
    layout = graph.layout
    inv_sqrt = 1.0 / np.sqrt(layout.degree + 1.0)
    # a pad's neighbour id n picks the appended 0
    w = np.take(np.append(inv_sqrt, 0.0), layout.neighbours)
    w *= np.take(inv_sqrt, layout.slot_nodes())
    return w, inv_sqrt ** 2


def _norm_weights_for(graph: RadiusGraph) -> RowMixer:
    return graph.cached("norm", lambda: row_mixer(graph, *symmetric_norm_weights(graph)))


def _gaussian_weights_for(config: ModelConfig, graph: RadiusGraph) -> RowMixer:
    """The row-normalized Gaussian kernel over the graph's own positions,
    as a row mixer cached on the graph per bandwidth."""
    bandwidth = config.bandwidth if config.bandwidth is not None else graph.radius / 2.0
    return graph.cached(("gaussian", bandwidth), lambda: row_mixer(
        graph, *gaussian_kernel_weights(graph.positions, graph.layout, bandwidth)))


def _kernel_input_for(graph: RadiusGraph) -> np.ndarray:
    """graphpde's kernel-network input, derived anew on each call: per
    layout slot, the edge attributes scaled by the build radius (so they
    sit at O(1) regardless of slide units; the first kernel layer absorbs
    the factor), then a 1 that carries each kernel layer's bias through
    :func:`ad.kernel_message_mean`'s products; zero rows in pads. One
    (num_slots, 4) buffer, filled in place with the bits of
    ``column_stack([slot_attributes / radius, mask])``."""
    layout = graph.layout
    rows = np.empty((layout.num_slots, 4))
    slot_attributes(graph.positions, layout, out=rows[:, :3])
    for c in range(3):  # one column at a time: 3x faster than on the (s, 3) view
        rows[:, c] /= graph.radius
    rows[:, 3] = layout.mask
    return rows


def _stack_blocks(config: ModelConfig) -> int:
    """Linear+activation blocks before the readout: none for lr, and
    num_layers - 1 for spatial_kernel, whose num_layers counts the readout."""
    if config.kind == "lr":
        return 0
    return config.num_layers - 1 if config.kind == "spatial_kernel" else config.num_layers


def stack_forward(tape: Tape, config: ModelConfig, params: Params,
                  graph: RadiusGraph | None, features: Value) -> Value:
    """Every kind but graphpde: each block applies the kind's row mixers
    in order, then a linear layer and the activation; the readout is
    linear, and spatial_kernel mixes once more before it. The row mixers
    are cached on the graph and shared by every block; each holds its mix
    of a Constant input (see :func:`ad.mix_rows`)."""
    mixers = [_gaussian_weights_for(config, graph) if name == "gaussian"
              else _norm_weights_for(graph) for name in KINDS[config.kind].mixers]
    x = features
    for i in range(_stack_blocks(config)):
        for mixer in mixers:
            x = ad.mix_rows(tape, x, mixer)
        x = _linear(tape, params, f"layer_{i}", x, config.activation)
    if config.kind == "spatial_kernel":
        x = ad.mix_rows(tape, x, mixers[0])
    return _linear(tape, params, "readout", x)


def kernel_net_forward(config: ModelConfig, params: Params,
                       layer_index: int) -> tuple[tuple[Parameter, Parameter], ...]:
    """The (W, b) pairs of the hidden layers of graphpde layer
    ``layer_index``'s kernel network: every layer of the MLP from the 3
    edge attributes towards the flattened hidden_dim x hidden_dim kernel
    except the final linear. :func:`ad.kernel_message_mean` evaluates them
    one degree block at a time and folds the final linear into the mean
    message. Empty when the network has no hidden layers, so the kernel is
    linear in the attributes."""
    return tuple((params[f"layer_{layer_index}_kernel_{j}_w"],
                  params[f"layer_{layer_index}_kernel_{j}_b"])
                 for j in range(len(config.kernel_net_hidden)))


def graphpde_layer(tape: Tape, config: ModelConfig, params: Params,
                   layer_index: int, graph: RadiusGraph, attr: Value,
                   v: Value) -> Value:
    """v' = act(W v + b + mean over in-edges of K_e v_src).

    ``attr`` holds the kernel network's input row for every slot of
    ``graph.layout``, ending in a ones column (:func:`_kernel_input_for`
    on the model path); the whole kernel network, hidden layers from
    :func:`kernel_net_forward` and the final K_e = z_e W2 + b2, runs
    inside one :func:`ad.kernel_message_mean` call, exactly. Nodes with no
    in-edges get a zero mean term, so the update degenerates to
    act(W v + b).
    """
    if v.data.shape[1] != config.hidden_dim:
        raise DimensionError(
            f"node state must have width {config.hidden_dim}, got {v.data.shape[1]}")
    last = f"layer_{layer_index}_kernel_{len(config.kernel_net_hidden)}"
    aggregated = ad.kernel_message_mean(
        tape, attr, kernel_net_forward(config, params, layer_index),
        params[f"{last}_w"], params[f"{last}_b"], v, graph.layout, config.activation)
    return ad.ACTIVATIONS[config.activation](
        tape, ad.add(tape, _linear(tape, params, f"layer_{layer_index}", v), aggregated))


def graphpde_forward(tape: Tape, config: ModelConfig, params: Params,
                     graph: RadiusGraph, features: Value) -> Value:
    """Lift, num_layers :func:`graphpde_layer` updates, readout. The kernel
    input is derived once here and read by every layer, forward and
    backward; the tape holds it and frees it with the step."""
    attr = ad.constant(_kernel_input_for(graph))
    x = _linear(tape, params, "lift", features)
    for i in range(config.num_layers):
        x = graphpde_layer(tape, config, params, i, graph, attr, x)
    return _linear(tape, params, "readout", x)


def model_forward(tape: Tape, config: ModelConfig, params: Params,
                  features, graph: RadiusGraph | None = None) -> Value:
    """Dispatch one forward pass; returns n x num_classes logits."""
    x = features if isinstance(features, Value) else ad.constant(features)
    if x.data.shape[1] != config.input_dim:
        raise DimensionError(
            f"features have width {x.data.shape[1]}, config expects {config.input_dim}")
    if config.needs_graph and graph is None:
        raise ContractError(f"{config.kind} requires a graph")
    if config.kind == "graphpde":
        return graphpde_forward(tape, config, params, graph, x)
    return stack_forward(tape, config, params, graph, x)
