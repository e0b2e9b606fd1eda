"""Model definitions: baselines and the spatial / graph operator networks.

Six kinds share one config and parameter scheme:

* ``lr``             logits = X W + b, graph-free.
* ``fcn``            num_layers linear+activation blocks, linear readout.
* ``gcn``            blocks are symmetric degree-normalized convolutions
                     (self loops included), linear readout.
* ``spatial_kernel`` num_layers linear layers, each preceded by one
                     application of the row-normalized Gaussian positional
                     kernel; the last linear is the readout (un-activated),
                     so num_layers counts every linear layer (default 3).
* ``spatial_gcn``    like gcn with the Gaussian kernel applied before
                     every convolution block.
* ``graphpde``       linear lift to the hidden width, num_layers (default
                     6) message-passing updates
                         v' = act(W v + b + mean_{y in N(x)} K(e(x, y)) v_y)
                     where K is a per-layer edge-conditioned kernel
                     network mapping the 3 edge attributes to an h x h
                     matrix, then a linear readout.

The graphpde kernel network's last layer is linear, K_e = z_e W2 + b2 with
z_e its last hidden activation, so the mean message is evaluated exactly as
W~2 . mean_e(z_e outer v_e) + B2 . mean_e v_e (:func:`ad.kernel_message_mean`)
and no per-edge h x h matrix is ever built. The hidden kernel layers run
on the graph's padded in-neighbour layout (``RadiusGraph.layout``: every
node's in-edges in D = max in-degree slots), built on first use and
cached on the graph like the normalization and Gaussian weights.

Parameter names are stable per config, so two inits with the same seed
are bit-identical and checkpoints can be validated by name and shape.
The fcn / spatial_kernel naming lines up on purpose: a spatial_kernel
model with L linears has exactly the parameter set of an fcn with L - 1
blocks, which makes the vanishing-bandwidth equivalence directly
checkable with shared parameters.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import autodiff as ad
from .autodiff import Parameter, Tape, Value
from .errors import ContractError, DimensionError, ParameterError
from .geometry import KernelWeights, RadiusGraph, apply_kernel, gaussian_kernel_weights

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

_GRAPH_KINDS = ("gcn", "spatial_kernel", "spatial_gcn", "graphpde")
_POSITIONAL_KINDS = ("spatial_kernel", "spatial_gcn")


@dataclass(frozen=True)
class KernelNetConfig:
    """Shape of the per-edge kernel network: 3 -> hidden -> hidden_dim^2."""

    hidden: tuple[int, ...]
    hidden_dim: int

    @property
    def input_dim(self) -> int:
        return 3

    @property
    def output_dim(self) -> int:
        return self.hidden_dim * self.hidden_dim

    @property
    def widths(self) -> tuple[int, ...]:
        return (self.input_dim, *self.hidden, self.output_dim)


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
    def kernel_net(self) -> KernelNetConfig:
        return KernelNetConfig(hidden=tuple(self.kernel_net_hidden),
                               hidden_dim=self.hidden_dim)

    @property
    def needs_graph(self) -> bool:
        return self.kind in _GRAPH_KINDS

    @property
    def needs_positions(self) -> bool:
        return self.kind in _POSITIONAL_KINDS


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

    def __contains__(self, name: str) -> bool:
        return name in self._by_name

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

    def copy(self) -> "ModelParams":
        return ModelParams([Parameter(p.name, p.data.copy())
                            for p in self._by_name.values()])


def parameter_shapes(config: ModelConfig) -> list[tuple[str, tuple[int, int]]]:
    """The full (name, shape) list for a config, in init order."""
    config.validate()
    d, h, c, layers = (config.input_dim, config.hidden_dim,
                       config.num_classes, config.num_layers)
    shapes: list[tuple[str, tuple[int, int]]] = []

    def block(name: str, rows: int, cols: int) -> None:
        shapes.append((f"{name}_w", (rows, cols)))
        shapes.append((f"{name}_b", (1, cols)))

    if config.kind == "lr":
        block("readout", d, c)
    elif config.kind in ("fcn", "gcn", "spatial_gcn"):
        for i in range(layers):
            block(f"layer_{i}", d if i == 0 else h, h)
        block("readout", h, c)
    elif config.kind == "spatial_kernel":
        hidden_blocks = layers - 1
        for i in range(hidden_blocks):
            block(f"layer_{i}", d if i == 0 else h, h)
        block("readout", d if hidden_blocks == 0 else h, c)
    elif config.kind == "graphpde":
        block("lift", d, h)
        widths = config.kernel_net.widths
        for i in range(layers):
            block(f"layer_{i}", h, h)
            for j in range(len(widths) - 1):
                block(f"layer_{i}_kernel_{j}", widths[j], widths[j + 1])
        block("readout", h, c)
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


def _linear(tape: Tape, params: ModelParams, name: str, x: Value) -> Value:
    return ad.add_row_broadcast(tape, ad.matmul(tape, x, params[f"{name}_w"]),
                                params[f"{name}_b"])


def symmetric_norm_weights(graph: RadiusGraph) -> KernelWeights:
    """Self-looped symmetric normalization D^-1/2 (A + I) D^-1/2 in sparse form."""
    n = graph.num_nodes
    deg = (np.bincount(graph.edges[:, 1], minlength=n)
           if graph.num_edges else np.zeros(n, dtype=np.int64))
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


def lr_forward(tape: Tape, config: ModelConfig, params: ModelParams,
               features: Value) -> Value:
    return _linear(tape, params, "readout", features)


def fcn_forward(tape: Tape, config: ModelConfig, params: ModelParams,
                features: Value) -> Value:
    act = ad.ACTIVATIONS[config.activation]
    x = features
    for i in range(config.num_layers):
        x = act(tape, _linear(tape, params, f"layer_{i}", x))
    return _linear(tape, params, "readout", x)


def gcn_layer(tape: Tape, params: ModelParams, index: int,
              norm: KernelWeights, x: Value) -> Value:
    """One convolution block: propagate with the normalized adjacency, then
    a linear transform. An edgeless graph reduces this to a plain linear
    layer (the self-loop weight is exactly 1)."""
    return _linear(tape, params, f"layer_{index}", apply_kernel(tape, norm, x))


def _norm_weights_for(graph: RadiusGraph) -> KernelWeights:
    return graph.cached("norm", lambda: symmetric_norm_weights(graph))


def gcn_forward(tape: Tape, config: ModelConfig, params: ModelParams,
                graph: RadiusGraph, features: Value) -> Value:
    act = ad.ACTIVATIONS[config.activation]
    norm = _norm_weights_for(graph)
    x = features
    for i in range(config.num_layers):
        x = act(tape, gcn_layer(tape, params, i, norm, x))
    return _linear(tape, params, "readout", x)


def _gaussian_weights_for(config: ModelConfig, graph: RadiusGraph,
                          positions: np.ndarray) -> KernelWeights:
    """Row-normalized Gaussian weights, cached on the graph per bandwidth
    (rebuilt if called with other positions than the cached ones). They
    live on the normalization weights' support (every edge in order, then
    one self loop per node), so the cached copy shares its index arrays."""
    bandwidth = config.bandwidth if config.bandwidth is not None else graph.radius / 2.0
    norm = _norm_weights_for(graph)

    def build():
        weights = gaussian_kernel_weights(positions, graph.edges, bandwidth,
                                          include_self=True, row_normalize=True)
        return (np.array(positions, dtype=np.float64),
                replace(weights, src=norm.src, dst=norm.dst))

    _held_positions, weights = graph.cached(
        ("gaussian", bandwidth), build,
        reuse=lambda held: np.array_equal(held[0], positions))
    return weights


def spatial_kernel_forward(tape: Tape, config: ModelConfig, params: ModelParams,
                           graph: RadiusGraph, positions: np.ndarray,
                           features: Value) -> Value:
    """Kernel-averaged linear stack: X <- act(L_i(K X)) with the final
    linear un-activated. The Gaussian weights are cached on the graph and
    shared across all layers."""
    if positions is None:
        raise ContractError("spatial_kernel requires node positions")
    act = ad.ACTIVATIONS[config.activation]
    weights = _gaussian_weights_for(config, graph, positions)
    x = features
    for i in range(config.num_layers - 1):
        x = act(tape, _linear(tape, params, f"layer_{i}", apply_kernel(tape, weights, x)))
    return _linear(tape, params, "readout", apply_kernel(tape, weights, x))


def spatial_gcn_forward(tape: Tape, config: ModelConfig, params: ModelParams,
                        graph: RadiusGraph, positions: np.ndarray,
                        features: Value) -> Value:
    if positions is None:
        raise ContractError("spatial_gcn requires node positions")
    act = ad.ACTIVATIONS[config.activation]
    weights = _gaussian_weights_for(config, graph, positions)
    norm = _norm_weights_for(graph)
    x = features
    for i in range(config.num_layers):
        x = apply_kernel(tape, weights, x)
        x = act(tape, gcn_layer(tape, params, i, norm, x))
    return _linear(tape, params, "readout", x)


def kernel_net_forward(tape: Tape, config: ModelConfig, params: ModelParams,
                       layer_index: int, edge_attr: Value) -> Value:
    """The kernel network's last hidden activation z per row of edge
    attributes: every layer of the MLP from the 3 attributes towards the
    flattened hidden_dim x hidden_dim kernel except the final linear, which
    :func:`graphpde_layer` folds into the mean message. With no hidden
    layers z is the attributes themselves. Valid for zero rows."""
    if edge_attr.data.shape[1] != 3:
        raise DimensionError(
            f"edge attributes must have width 3, got {edge_attr.data.shape[1]}")
    act = ad.ACTIVATIONS[config.activation]
    x = edge_attr
    for j in range(len(config.kernel_net.widths) - 2):
        x = act(tape, _linear(tape, params, f"layer_{layer_index}_kernel_{j}", x))
    return x


def graphpde_layer(tape: Tape, config: ModelConfig, params: ModelParams,
                   layer_index: int, graph: RadiusGraph, hidden: Value,
                   v: Value) -> Value:
    """v' = act(W v + b + mean over in-edges of K_e v_src).

    ``hidden`` holds the kernel network's last hidden activation for every
    slot of ``graph.layout`` (from :func:`kernel_net_forward` on the padded
    edge attributes); the final kernel layer K_e = z_e W2 + b2 is applied
    inside the mean, exactly. Nodes with no in-edges get a zero mean term,
    so the update degenerates to act(W v + b).
    """
    if v.data.shape[1] != config.hidden_dim:
        raise DimensionError(
            f"node state must have width {config.hidden_dim}, got {v.data.shape[1]}")
    act = ad.ACTIVATIONS[config.activation]
    last = f"layer_{layer_index}_kernel_{len(config.kernel_net.widths) - 2}"
    aggregated = ad.kernel_message_mean(tape, hidden, params[f"{last}_w"],
                                        params[f"{last}_b"], v, graph.layout)
    return act(tape, ad.add(tape, _linear(tape, params, f"layer_{layer_index}", v),
                            aggregated))


def graphpde_forward(tape: Tape, config: ModelConfig, params: ModelParams,
                     graph: RadiusGraph, features: Value) -> Value:
    # kernel-net inputs are the edge attributes scaled by the build radius
    # (so they sit at O(1) regardless of slide units), one row per layout
    # slot; the first linear layer absorbs the factor
    edge_attr = ad.constant(graph.layout.edge_attr)
    x = _linear(tape, params, "lift", features)
    for i in range(config.num_layers):
        hidden = kernel_net_forward(tape, config, params, i, edge_attr)
        x = graphpde_layer(tape, config, params, i, graph, hidden, x)
    return _linear(tape, params, "readout", x)


def model_forward(tape: Tape, config: ModelConfig, params: ModelParams,
                  features, graph: RadiusGraph | None = None,
                  positions=None) -> Value:
    """Dispatch one forward pass; returns n x num_classes logits."""
    x = features if isinstance(features, Value) else ad.constant(features)
    if x.data.shape[1] != config.input_dim:
        raise DimensionError(
            f"features have width {x.data.shape[1]}, config expects {config.input_dim}")
    if config.needs_graph and graph is None:
        raise ContractError(f"{config.kind} requires a graph")
    if config.kind == "lr":
        return lr_forward(tape, config, params, x)
    if config.kind == "fcn":
        return fcn_forward(tape, config, params, x)
    if config.kind == "gcn":
        return gcn_forward(tape, config, params, graph, x)
    if config.kind == "spatial_kernel":
        return spatial_kernel_forward(tape, config, params, graph, positions, x)
    if config.kind == "spatial_gcn":
        return spatial_gcn_forward(tape, config, params, graph, positions, x)
    if config.kind == "graphpde":
        return graphpde_forward(tape, config, params, graph, x)
    raise ParameterError(f"unknown model kind {config.kind!r}")
