"""Model definitions: baselines and the spatial / graph operator networks.

Six kinds share one config and parameter scheme. Five of them are one
linear stack (:func:`stack_forward`): blocks of row mixing, then a linear
layer and the activation, then a linear readout. They differ only in the
mixers each block applies, in this order:

* ``lr``             none, and no blocks: logits = X W + b, graph-free.
* ``fcn``            none.
* ``gcn``            the symmetric degree-normalized adjacency (self loops
                     included).
* ``spatial_kernel`` the row-normalized Gaussian positional kernel, once
                     more before the readout; num_layers counts every
                     linear layer (default 3), so it has num_layers - 1
                     blocks where the others have num_layers.
* ``spatial_gcn``    the Gaussian kernel, then the normalized adjacency.

Each mixer is a :class:`geometry.RowMixer`, one weight per slot of the
graph's degree-blocked in-neighbour layout (``RadiusGraph.layout``: nodes
sorted by in-degree and cut into runs, each node's in-edges in as many
slots as its run's largest in-degree), built on first use from the
per-edge weights of :func:`symmetric_norm_weights` or
:func:`geometry.gaussian_kernel_weights` and cached on the graph; one
:func:`ad.mix_rows` tape entry applies it. All six kinds thus share one
sparse neighbour representation; ``ad.coo_matmul`` over the per-edge
weights remains only as the tests' oracle and a name the benchmark's
tracer lists.

The sixth, ``graphpde``, is a linear lift to the hidden width, num_layers
(default 6) message-passing updates
    v' = act(W v + b + mean_{y in N(x)} K(e(x, y)) v_y)
where K is a per-layer edge-conditioned kernel network mapping the 3 edge
attributes to an h x h matrix, then a linear readout.

The graphpde kernel network's last layer is linear, K_e = z_e W2 + b2 with
z_e its last hidden activation, so the mean message is evaluated exactly as
W~2 . mean_e(z_e outer v_e) + B2 . mean_e v_e and no per-edge h x h matrix
is ever built. The whole kernel network and that contraction are one
tape entry, :func:`ad.kernel_message_mean`, which runs on the same
layout and reads the radius-scaled edge attributes of its slots from
``RadiusGraph.slot_attr`` (only graphpde builds them). It evaluates the
hidden kernel layers (:func:`kernel_net_forward` names their parameters) one
degree block at a time and recomputes them in the backward pass, so no
per-slot array of the whole layout is kept or built. Every other
linear+activation pair of every kind is a single fused :func:`ad.dense`
tape entry; the constant edge attributes and node features get no
gradient.
The spatial models read the spot coordinates from ``graph.positions``
(the graph owns them) and cache their Gaussian mixer on the graph,
keyed by bandwidth alone.

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

import numpy as np

from . import autodiff as ad
from .autodiff import Parameter, Tape, Value
from .errors import ContractError, DimensionError, ParameterError
from .geometry import (KernelWeights, RadiusGraph, RowMixer, apply_kernel,
                       gaussian_kernel_weights, row_mixer)

MODEL_KINDS = ("lr", "fcn", "gcn", "spatial_kernel", "spatial_gcn", "graphpde")

DISPLAY_NAMES = {
    "lr": "LR",
    "fcn": "FCN",
    "gcn": "GCN",
    "spatial_kernel": "SpatialKernel",
    "spatial_gcn": "SpatialGCN",
    "graphpde": "GraphPDE",
}

_DEFAULT_LAYERS = {
    "lr": 1,
    "fcn": 2,
    "gcn": 2,
    "spatial_kernel": 3,
    "spatial_gcn": 2,
    "graphpde": 6,
}

# the row mixers each block of a stack kind applies, in order, before its linear
_STACK_MIXERS = {"lr": (), "fcn": (), "gcn": ("norm",), "spatial_kernel": ("gaussian",),
                 "spatial_gcn": ("gaussian", "norm")}


@dataclass(frozen=True)
class ModelConfig:
    kind: str
    input_dim: int
    hidden_dim: int = 16
    num_classes: int = 3
    num_layers: int = 2
    activation: str = "relu"
    kernel_net_hidden: tuple[int, ...] = (64,)
    bandwidth: float | None = None
    init_seed: int = 0

    def validate(self) -> None:
        if self.kind not in MODEL_KINDS:
            raise ParameterError(
                f"unknown model kind {self.kind!r}; valid: {', '.join(MODEL_KINDS)}")
        if self.num_layers < 1 or self.hidden_dim < 1 or self.input_dim < 1:
            raise ParameterError("num_layers, hidden_dim and input_dim must be >= 1")
        if self.activation not in ad.ACTIVATIONS:
            raise ParameterError(f"unknown activation {self.activation!r}")
        if self.bandwidth is not None and not self.bandwidth > 0:
            raise ParameterError("bandwidth must be positive when given")
        if any(width < 1 for width in self.kernel_net_hidden):
            raise ParameterError(
                f"kernel network widths must be >= 1, got {tuple(self.kernel_net_hidden)}")

    @property
    def needs_graph(self) -> bool:
        return self.kind == "graphpde" or bool(_STACK_MIXERS.get(self.kind))


def make_config(kind: str, input_dim: int, **overrides) -> ModelConfig:
    """Build a config with the per-kind default depth applied."""
    if kind not in MODEL_KINDS:
        raise ParameterError(
            f"unknown model kind {kind!r}; valid: {', '.join(MODEL_KINDS)}")
    overrides.setdefault("num_layers", _DEFAULT_LAYERS[kind])
    cfg = ModelConfig(kind=kind, input_dim=input_dim, **overrides)
    cfg.validate()
    return cfg


class ModelParams:
    """Ordered, name-addressed collection of Parameters."""

    def __init__(self, params: list[Parameter]):
        self._by_name: dict[str, Parameter] = {}
        for p in params:
            if p.name in self._by_name:
                raise ParameterError(f"duplicate parameter name {p.name!r}")
            self._by_name[p.name] = p

    def __getitem__(self, name: str) -> Parameter:
        return self._by_name[name]

    def names(self) -> list[str]:
        return list(self._by_name)

    def items(self):
        return self._by_name.items()

    def values(self):
        return self._by_name.values()

    def zero_grads(self) -> None:
        for p in self._by_name.values():
            p.zero_grad()

    def count(self) -> int:
        return sum(p.data.size for p in self._by_name.values())


def parameter_shapes(config: ModelConfig) -> list[tuple[str, tuple[int, int]]]:
    """The full (name, shape) list for a config, in init order."""
    config.validate()
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


def init_params(config: ModelConfig) -> ModelParams:
    """Xavier-uniform weights, zero biases, deterministic per (config, seed)."""
    rng = np.random.default_rng(config.init_seed)
    params = []
    for name, (rows, cols) in parameter_shapes(config):
        if name.endswith("_b"):
            data = np.zeros((rows, cols))
        else:
            bound = math.sqrt(6.0 / (rows + cols))
            data = rng.uniform(-bound, bound, size=(rows, cols))
        params.append(Parameter(name, data))
    return ModelParams(params)


def _linear(tape: Tape, params: ModelParams, name: str, x: Value,
            activation: str | None = None) -> Value:
    return ad.dense(tape, x, params[f"{name}_w"], params[f"{name}_b"], activation)


def symmetric_norm_weights(graph: RadiusGraph) -> KernelWeights:
    """Self-looped symmetric normalization D^-1/2 (A + I) D^-1/2 in sparse form."""
    n = graph.num_nodes
    deg = np.bincount(graph.edges[:, 1], minlength=n)
    inv_sqrt = 1.0 / np.sqrt(deg + 1.0)
    src, dst = graph.edges[:, 0], graph.edges[:, 1]
    loop = np.arange(n, dtype=np.int64)
    return KernelWeights(
        num_nodes=n,
        src=np.concatenate([src, loop]),
        dst=np.concatenate([dst, loop]),
        weights=np.concatenate([inv_sqrt[src] * inv_sqrt[dst],
                                inv_sqrt[loop] ** 2]),
    )


def _norm_weights_for(graph: RadiusGraph) -> RowMixer:
    return graph.cached("norm", lambda: row_mixer(graph, symmetric_norm_weights(graph)))


def _gaussian_weights_for(config: ModelConfig, graph: RadiusGraph) -> RowMixer:
    """The row-normalized Gaussian kernel over the graph's own positions,
    as a row mixer cached on the graph per bandwidth."""
    bandwidth = config.bandwidth if config.bandwidth is not None else graph.radius / 2.0
    return graph.cached(("gaussian", bandwidth), lambda: row_mixer(
        graph, gaussian_kernel_weights(graph.positions, graph.edges, bandwidth)))


def _stack_blocks(config: ModelConfig) -> int:
    """Linear+activation blocks before the readout: none for lr, and
    num_layers - 1 for spatial_kernel, whose num_layers counts the readout."""
    if config.kind == "lr":
        return 0
    return config.num_layers - 1 if config.kind == "spatial_kernel" else config.num_layers


def stack_forward(tape: Tape, config: ModelConfig, params: ModelParams,
                  graph: RadiusGraph | None, features: Value) -> Value:
    """Every kind but graphpde: each block applies the kind's row mixers
    in order, then a linear layer and the activation; the readout is
    linear, and spatial_kernel mixes once more before it. The row mixers
    are cached on the graph and shared by every block."""
    mixers = [_gaussian_weights_for(config, graph) if name == "gaussian"
              else _norm_weights_for(graph) for name in _STACK_MIXERS[config.kind]]
    x = features
    for i in range(_stack_blocks(config)):
        for mixer in mixers:
            x = apply_kernel(tape, mixer, x)
        x = _linear(tape, params, f"layer_{i}", x, config.activation)
    if config.kind == "spatial_kernel":
        x = apply_kernel(tape, mixers[0], x)
    return _linear(tape, params, "readout", x)


def kernel_net_forward(config: ModelConfig, params: ModelParams,
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


def graphpde_layer(tape: Tape, config: ModelConfig, params: ModelParams,
                   layer_index: int, graph: RadiusGraph, attr: Value,
                   v: Value) -> Value:
    """v' = act(W v + b + mean over in-edges of K_e v_src).

    ``attr`` holds the kernel network's input row for every slot of
    ``graph.layout`` (``graph.slot_attr``, the radius-scaled edge
    attributes, on the model path); the whole kernel network, hidden
    layers from :func:`kernel_net_forward` and the final K_e = z_e W2 + b2, runs
    inside one :func:`ad.kernel_message_mean` call, exactly. Nodes with no
    in-edges get a zero mean term, so the update degenerates to
    act(W v + b).
    """
    if v.data.shape[1] != config.hidden_dim:
        raise DimensionError(
            f"node state must have width {config.hidden_dim}, got {v.data.shape[1]}")
    act = ad.ACTIVATIONS[config.activation]
    last = f"layer_{layer_index}_kernel_{len(config.kernel_net_hidden)}"
    aggregated = ad.kernel_message_mean(
        tape, attr, kernel_net_forward(config, params, layer_index),
        params[f"{last}_w"], params[f"{last}_b"], v, graph.layout, config.activation)
    return act(tape, ad.add(tape, _linear(tape, params, f"layer_{layer_index}", v),
                            aggregated))


def graphpde_forward(tape: Tape, config: ModelConfig, params: ModelParams,
                     graph: RadiusGraph, features: Value) -> Value:
    # kernel-net inputs are the edge attributes scaled by the build radius
    # (so they sit at O(1) regardless of slide units), one row per layout
    # slot; the first kernel layer absorbs the factor
    edge_attr = ad.constant(graph.slot_attr)
    x = _linear(tape, params, "lift", features)
    for i in range(config.num_layers):
        x = graphpde_layer(tape, config, params, i, graph, edge_attr, x)
    return _linear(tape, params, "readout", x)


def model_forward(tape: Tape, config: ModelConfig, params: ModelParams,
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
    if config.kind not in _STACK_MIXERS:
        raise ParameterError(f"unknown model kind {config.kind!r}")
    return stack_forward(tape, config, params, graph, x)
