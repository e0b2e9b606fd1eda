"""Class-balanced training, metrics, the multi-seed runner and checkpoints."""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, replace

import numpy as np

from . import autodiff as ad
from .autodiff import Parameter, Tape
from .errors import (CheckpointError, ContractError, DataError,
                     DivergenceError, ParameterError)
from .ioutil import atomic_write_text, dump_json, read_json
from .models import (KINDS, ModelConfig, Params, _check_counts, _check_positive_real,
                     init_params, model_forward, parameter_shapes)
from .pipeline import GraphSample, check_preprocess, numeric_array

CHECKPOINT_VERSION = 1
# each F1 flavor's Metrics field
F1_KEYS = {"macro": "macro_f1", "weighted": "weighted_f1"}


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 100
    learning_rate: float = 1e-3
    optimizer: str = "adam"
    seed: int = 0
    num_runs: int = 10
    class_weighting: bool = True

    def __post_init__(self) -> None:
        _check_counts(self, (("epochs", 1), ("num_runs", 1), ("seed", 0)))
        _check_positive_real("learning_rate", self.learning_rate)
        if self.optimizer not in OPTIMIZERS:
            raise ParameterError(f"unknown optimizer {self.optimizer!r}")


@dataclass
class Metrics:
    """Evaluation of one pass: confusion rows are true classes, columns
    predicted."""

    confusion: np.ndarray
    accuracy: float
    per_class_f1: tuple[float, ...]
    macro_f1: float
    weighted_f1: float

    def to_json_dict(self) -> dict:
        return {
            "confusion": self.confusion.tolist(),
            "accuracy": self.accuracy,
            "per_class_f1": list(self.per_class_f1),
            "macro_f1": self.macro_f1,
            "weighted_f1": self.weighted_f1,
        }


def metrics_from_confusion(confusion) -> Metrics:
    """Accuracy and F1 flavors as pure functions of the confusion matrix."""
    conf = np.asarray(confusion, dtype=np.int64)
    if conf.ndim != 2 or conf.shape[0] != conf.shape[1]:
        raise ContractError(f"confusion matrix must be square, got {conf.shape}")
    total = conf.sum()
    accuracy = float(np.trace(conf) / total) if total else 0.0
    f1s = []
    for c in range(conf.shape[0]):
        tp = conf[c, c]
        predicted = conf[:, c].sum()
        actual = conf[c, :].sum()
        precision = tp / predicted if predicted else 0.0
        recall = tp / actual if actual else 0.0
        f1s.append(2.0 * precision * recall / (precision + recall)
                   if precision + recall > 0 else 0.0)
    support = conf.sum(axis=1)
    weighted = float((support / total) @ np.array(f1s)) if total else 0.0
    return Metrics(confusion=conf, accuracy=accuracy,
                   per_class_f1=tuple(float(f) for f in f1s),
                   macro_f1=float(np.mean(f1s)), weighted_f1=weighted)


def class_weights(labels, num_classes: int) -> np.ndarray:
    """Balanced weights w_c = N / (K * N_c); every class must be present."""
    labels = np.asarray(labels, dtype=np.int64)
    counts = np.bincount(labels, minlength=num_classes)
    if (counts == 0).any():
        missing = np.nonzero(counts == 0)[0].tolist()
        raise DataError(f"class(es) {missing} absent from the training labels")
    return counts.sum() / (num_classes * counts.astype(np.float64))


def weighted_cross_entropy(tape: Tape, logits: ad.Value, labels,
                           weights) -> ad.Value:
    """loss = -(sum_i w_{y_i} logsoftmax(logits_i)[y_i]) / sum_i w_{y_i}."""
    labels = np.asarray(labels, dtype=np.int64)
    n, c = logits.data.shape
    if labels.shape != (n,):
        raise ContractError(f"expected {n} labels, got shape {labels.shape}")
    if labels.size and (labels.min() < 0 or labels.max() >= c):
        raise IndexError(f"label out of range [0, {c})")
    w = np.asarray(weights, dtype=np.float64)[labels]
    pick = np.zeros((n, c))
    pick[np.arange(n), labels] = -w / w.sum()
    logp = ad.log_softmax_rows(tape, logits)
    return ad.sum_all(tape, ad.mul_const(tape, logp, pick))


class _FlatOptimizer:
    """Optimizer state in flat arrays. Every parameter's ``data`` and
    ``grad`` (grads already set are kept) are copied into one flat array
    each, and each ``Parameter.data`` and ``.grad`` is rebound to its view
    of them, so a step is a fixed sequence of whole-array ``out=`` ufuncs,
    with no loop over parameters, in two scratch arrays the optimizer
    holds: a step allocates nothing. Each formula keeps the operand order
    of its per-parameter statement, so the results keep their bits."""

    def __init__(self, params: Params, learning_rate: float):
        self.lr = learning_rate
        self.data = np.concatenate([p.data.ravel() for p in params.values()])
        self.grad = np.concatenate([p.grad.ravel() for p in params.values()])
        offset = 0
        for p in params.values():
            size, shape = p.data.size, p.data.shape
            p.data = self.data[offset:offset + size].reshape(shape)
            p.grad = self.grad[offset:offset + size].reshape(shape)
            offset += size
        self._scratch = np.empty_like(self.data), np.empty_like(self.data)


class Adam(_FlatOptimizer):
    """First/second-moment update with bias correction; eps is added to the
    square root, so the first step from zero moments is exactly
    -lr * g / (|g| + eps). Grads are zeroed after each step. The moments
    are flat arrays beside the parameters' (see ``_FlatOptimizer``)."""

    beta1, beta2, eps = 0.9, 0.999, 1e-8

    def __init__(self, params: Params, learning_rate: float):
        super().__init__(params, learning_rate)
        self.t = 0
        self.m = np.zeros_like(self.data)
        self.v = np.zeros_like(self.data)

    def step(self) -> None:
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        g, m, v, a, b = self.grad, self.m, self.v, *self._scratch
        # m = b1 m + (1 - b1) g; v = b2 v + ((1 - b2) g) g
        np.add(np.multiply(b1, m, out=m), np.multiply(1.0 - b1, g, out=a), out=m)
        np.multiply(1.0 - b2, g, out=a)
        np.add(np.multiply(b2, v, out=v), np.multiply(a, g, out=a), out=v)
        # data -= (lr m_hat) / (sqrt(v_hat) + eps)
        np.multiply(self.lr, np.divide(m, 1.0 - b1 ** self.t, out=a), out=a)
        np.sqrt(np.divide(v, 1.0 - b2 ** self.t, out=b), out=b)
        np.divide(a, np.add(b, self.eps, out=b), out=a)
        np.subtract(self.data, a, out=self.data)
        g.fill(0.0)


class Sgd(_FlatOptimizer):
    """data -= lr * g; grads are zeroed after each step."""

    def step(self) -> None:
        a = self._scratch[0]
        np.subtract(self.data, np.multiply(self.lr, self.grad, out=a), out=self.data)
        self.grad.fill(0.0)


OPTIMIZERS = {"adam": Adam, "sgd": Sgd}


def forward_sample(tape: Tape, config: ModelConfig, params: Params,
                   sample: GraphSample) -> ad.Value:
    return model_forward(tape, config, params, sample.node_features,
                         graph=sample.graph)


@np.errstate(over="ignore", invalid="ignore")
def train(model_config: ModelConfig, graphs: list[GraphSample],
          train_config: TrainConfig,
          epoch_callback=None) -> tuple[Params, list[float]]:
    """Full-graph steps in a seeded shuffled order, one optimizer step per
    graph; returns the trained parameters and the mean-loss-per-epoch
    history. Deterministic per (configs, seed). ``epoch_callback``, when
    given, is called with (epoch_index, mean_loss) after every epoch.
    numpy's overflow warnings are off: a non-finite loss raises
    DivergenceError naming the epoch and sample, and the previous step's
    loss and epoch, instead."""
    if not graphs:
        raise ContractError("training requires a non-empty graph list")
    all_labels = np.concatenate([g.labels for g in graphs])
    if train_config.class_weighting:
        weights = class_weights(all_labels, model_config.num_classes)
    else:
        weights = np.ones(model_config.num_classes)
    params = init_params(model_config)
    optimizer = OPTIMIZERS[train_config.optimizer](params, train_config.learning_rate)
    rng = np.random.default_rng(train_config.seed)
    history: list[float] = []
    last_finite = "no finite loss before it"
    for epoch in range(train_config.epochs):
        order = rng.permutation(len(graphs))
        epoch_losses = []
        for idx in order:
            sample = graphs[idx]
            tape = Tape()
            logits = forward_sample(tape, model_config, params, sample)
            loss = weighted_cross_entropy(tape, logits, sample.labels, weights)
            value = float(loss.data[0, 0])
            if not math.isfinite(value):
                raise DivergenceError(
                    f"non-finite loss at epoch {epoch}, sample {sample.sample_id!r}; "
                    f"{last_finite}")
            tape.backward(loss)
            optimizer.step()
            epoch_losses.append(value)
            last_finite = f"last finite loss {value!r} at epoch {epoch}"
        history.append(float(np.mean(epoch_losses)))
        if epoch_callback is not None:
            epoch_callback(epoch, history[-1])
    return params, history


def evaluate(params: Params, config: ModelConfig,
             graphs: list[GraphSample]) -> Metrics:
    """Argmax predictions per spot (ties go to the lowest class index),
    aggregated into one confusion matrix over all graphs. Forward only, on
    a non-recording tape."""
    if not graphs:
        raise ContractError("evaluate requires a non-empty graph list")
    c = config.num_classes
    confusion = np.zeros((c, c), dtype=np.int64)
    for sample in graphs:
        logits = forward_sample(Tape(record=False), config, params, sample)
        pred = logits.data.argmax(axis=1)
        np.add.at(confusion, (sample.labels, pred), 1)
    return metrics_from_confusion(confusion)


@dataclass
class RunReport:
    """Per-model mean and sample standard deviation over repeated runs."""

    rows: list[dict]
    base_seed: int
    num_runs: int
    f1_flavor: str = "macro"

    def to_json_dict(self) -> dict:
        return {
            "base_seed": self.base_seed,
            "num_runs": self.num_runs,
            "f1_flavor": self.f1_flavor,
            "models": self.rows,
        }

    def table(self) -> str:
        header = ["Model", "Accuracy", f"{self.f1_flavor.capitalize()}-F1", "Params"]
        lines = []
        for row in self.rows:
            lines.append([
                row["model"],
                f"{100 * row['mean_accuracy']:.2f} ± {100 * row['std_accuracy']:.2f} %",
                f"{100 * row['mean_f1']:.2f} ± {100 * row['std_f1']:.2f} %",
                str(row["param_count"]),
            ])
        widths = [max(len(header[i]), *(len(l[i]) for l in lines)) if lines
                  else len(header[i]) for i in range(4)]
        fmt = "  ".join(f"{{:<{w}}}" for w in widths)
        out = [fmt.format(*header)]
        out.extend(fmt.format(*line) for line in lines)
        return "\n".join(out) + "\n"


def _sample_std(values: list[float]) -> float:
    return float(np.std(values, ddof=1)) if len(values) > 1 else 0.0


def run_experiment(model_configs: list[ModelConfig], train_graphs,
                   holdout_graphs, train_config: TrainConfig,
                   f1_flavor: str = "macro", epoch_hook=None, run_hook=None) -> RunReport:
    """num_runs independent train+evaluate cycles per model on a fixed
    split (run r uses seed base + r for both init and shuffling).
    ``epoch_hook`` is every run's ``train`` epoch_callback; ``run_hook``
    gets (run config, run index, params, loss history, holdout Metrics)
    after each run. A divergence is re-raised prefixed with the model
    kind, run index and seed."""
    if f1_flavor not in F1_KEYS:
        raise ParameterError(f"unknown f1 flavor {f1_flavor!r}")
    rows = []
    for mc in model_configs:
        runs = []
        for r in range(train_config.num_runs):
            seed = train_config.seed + r
            mc_r = replace(mc, init_seed=seed)
            tc_r = replace(train_config, seed=seed)
            try:
                params, history = train(mc_r, train_graphs, tc_r, epoch_hook)
            except DivergenceError as exc:
                raise DivergenceError(
                    f"{mc.kind} run {r} (seed {seed}): {exc}") from None
            metrics = evaluate(params, mc_r, holdout_graphs)
            if run_hook is not None:
                run_hook(mc_r, r, params, history, metrics)
            runs.append({"seed": seed, **metrics.to_json_dict(),
                         "loss_history": history})
        accs = [run["accuracy"] for run in runs]
        f1s = [run[F1_KEYS[f1_flavor]] for run in runs]
        rows.append({
            "model": KINDS[mc.kind].display_name,
            "kind": mc.kind,
            "param_count": sum(math.prod(shape) for _name, shape in parameter_shapes(mc)),
            "mean_accuracy": float(np.mean(accs)),
            "std_accuracy": _sample_std(accs),
            "mean_f1": float(np.mean(f1s)),
            "std_f1": _sample_std(f1s),
            "single_run": train_config.num_runs == 1,
            "runs": runs,
        })
    return RunReport(rows=rows, base_seed=train_config.seed,
                     num_runs=train_config.num_runs, f1_flavor=f1_flavor)


# ---------------------------------------------------------------------------
# checkpoints


def _config_from_json(doc: dict) -> ModelConfig:
    if "kernel_net_hidden" in doc:  # an absent key takes the field's default
        doc = {**doc, "kernel_net_hidden": tuple(doc["kernel_net_hidden"])}
    return ModelConfig(**doc)


def save_checkpoint(path, params: Params, config: ModelConfig, preprocess: dict) -> None:
    """Versioned JSON: config block, the preprocess block that ``predict``
    replays (every PREPROCESS_KEYS key: gene list, radius, scaler, class
    names) and named parameter arrays."""
    doc = {
        "format_version": CHECKPOINT_VERSION,
        "config": asdict(config),
        "preprocess": preprocess,
        "params": {name: p.data.tolist() for name, p in params.items()},
    }
    atomic_write_text(path, dump_json(doc))


def load_checkpoint(path):
    """Load and validate -> (params by name, config, preprocess). Values reproduce
    the saved ones bit-for-bit. The preprocess block passes ``check_preprocess``
    and names one gene per input and one class per output. Malformed content
    raises a :class:`CheckpointError` that names the file and the key."""
    try:
        doc = read_json(path)
    except DataError as exc:  # not UTF-8, or not JSON; the message names the file
        raise CheckpointError(str(exc)) from None
    if not isinstance(doc, dict):
        raise CheckpointError(f"{path}: a checkpoint must hold a JSON object")
    version = doc.get("format_version")
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(f"{path}: unsupported checkpoint version {version!r} "
                              f"(expected {CHECKPOINT_VERSION})")
    try:
        config = _config_from_json(doc.get("config", {}))
        expected = parameter_shapes(config)
    except (TypeError, ValueError) as exc:
        raise CheckpointError(f"{path}: bad model config: {exc}") from None
    stored, preprocess = doc.get("params", {}), doc.get("preprocess", {})
    for key, block in (("params", stored), ("preprocess", preprocess)):
        if not isinstance(block, dict):
            raise CheckpointError(f"{path}: {key!r} must hold a JSON object")
    check_preprocess(preprocess, lambda key: f"{path}: preprocess.{key}", CheckpointError)
    for key, field in (("gene_names", "input_dim"), ("class_names", "num_classes")):
        if len(preprocess[key]) != getattr(config, field):
            raise CheckpointError(f"{path}: preprocess.{key} lists {len(preprocess[key])} "
                                  f"names, the config's {field} is {getattr(config, field)}")
    params = {}
    for name, shape in expected:
        if name not in stored:
            raise CheckpointError(f"{path}: checkpoint is missing parameter {name!r}")
        arr = numeric_array(stored[name], len(shape))
        if arr is None:
            raise CheckpointError(f"{path}: parameter {name!r} is not a {len(shape)}-D "
                                  "array of finite numbers (JSON numbers)")
        if arr.shape != shape:
            raise CheckpointError(
                f"{path}: parameter {name!r} has shape {arr.shape}, config implies {shape}")
        params[name] = Parameter(name, arr)
    extra = set(stored) - {name for name, _ in expected}
    if extra:
        raise CheckpointError(
            f"{path}: checkpoint has unexpected parameter(s) {sorted(extra)}")
    return params, config, preprocess
