import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stgno import autodiff as ad
from stgno.errors import (CheckpointError, ContractError, DataError,
                          DivergenceError, ParameterError)
from stgno.models import init_params, make_config, model_forward
from stgno.pipeline import (SyntheticConfig, bin_labels, generate_synthetic,
                            select_holdout, assemble_graphs)
from stgno.train import (F1_KEYS, Adam, Sgd, TrainConfig, class_weights, evaluate,
                         load_checkpoint, metrics_from_confusion,
                         run_experiment, save_checkpoint, train,
                         weighted_cross_entropy)

from oracles import (ReferenceAdam, ReferenceSgd, confusion_f1,
                     finite_difference_grads, rel_err)

RNG = np.random.default_rng(2024)


def tiny_dataset(mode="informative", **over):
    over.setdefault("num_samples", 5)
    over.setdefault("spots_per_sample", 40)
    over.setdefault("num_genes", 6)
    over.setdefault("class_separation", 2.0)
    over.setdefault("seed", 1)
    table, lm = generate_synthetic(SyntheticConfig(expression_mode=mode, **over))
    table = bin_labels(table, lm)
    split = select_holdout(table, k=1, min_classes=3, seed=0)
    train_g, hold_g, _ = assemble_graphs(table, split, radius=0.3)
    return train_g, hold_g


# ---------------------------------------------------------------------------
# class weights


def test_class_weights_balanced_counts():
    labels = [0] * 10 + [1] * 10 + [2] * 10
    assert np.array_equal(class_weights(labels, 3), [1.0, 1.0, 1.0])


def test_class_weights_formula_to_4dp():
    labels = [0] * 60 + [1] * 30 + [2] * 10
    w = class_weights(labels, 3)
    assert np.round(w, 4).tolist() == [0.5556, 1.1111, 3.3333]


def test_class_weights_identity():
    labels = RNG.integers(0, 3, 200)
    counts = np.bincount(labels, minlength=3)
    w = class_weights(labels, 3)
    assert (w * counts).sum() == pytest.approx(len(labels), abs=1e-9)


def test_class_weights_absent_class():
    with pytest.raises(DataError, match=r"\[2\]"):
        class_weights([0, 0, 1], 3)


# ---------------------------------------------------------------------------
# weighted cross entropy


def test_uniform_logits_loss_is_ln3():
    tape = ad.Tape()
    logits = ad.constant(np.zeros((7, 3)))
    loss = weighted_cross_entropy(tape, logits, RNG.integers(0, 3, 7), np.ones(3))
    assert float(loss.data[0, 0]) == pytest.approx(math.log(3.0), abs=1e-12)


def test_sharp_correct_logits_drive_loss_down():
    labels = np.array([0, 1, 2, 1])
    one_hot = np.eye(3)[labels]
    losses = []
    for scale in (1.0, 10.0, 100.0):
        tape = ad.Tape()
        loss = weighted_cross_entropy(tape, ad.constant(scale * one_hot), labels,
                                      np.ones(3))
        losses.append(float(loss.data[0, 0]))
    assert losses[0] > losses[1] > losses[2]
    assert losses[2] < 1e-6


def test_weighted_ce_gradient_matches_finite_differences():
    logits = ad.Parameter("logits", RNG.uniform(-1, 1, (6, 3)))
    labels = RNG.integers(0, 3, 6)
    weights = class_weights(np.concatenate([labels, np.arange(3)]), 3)

    def loss_value():
        tape = ad.Tape()
        return float(weighted_cross_entropy(tape, logits, labels,
                                            weights).data[0, 0])

    tape = ad.Tape()
    tape.backward(weighted_cross_entropy(tape, logits, labels, weights))
    fd = finite_difference_grads(loss_value, [logits.data])[0]
    assert rel_err(logits.grad, fd) < 1e-4


def test_weighted_ce_oracle_and_reweighting_ratio():
    logits_data = RNG.uniform(-2, 2, (30, 3))
    labels = np.array([0] * 20 + [1] * 7 + [2] * 3)
    shifted = logits_data - logits_data.max(axis=1, keepdims=True)
    logp = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    picked = logp[np.arange(30), labels]
    w = class_weights(labels, 3)

    weighted_oracle = -(w[labels] * picked).sum() / w[labels].sum()
    mean_oracle = -picked.mean()

    def loss_with(weights):
        tape = ad.Tape()
        return float(weighted_cross_entropy(tape, ad.constant(logits_data),
                                            labels, weights).data[0, 0])

    assert loss_with(w) == pytest.approx(weighted_oracle, abs=1e-12)
    assert loss_with(np.ones(3)) == pytest.approx(mean_oracle, abs=1e-12)
    assert loss_with(w) / loss_with(np.ones(3)) == pytest.approx(
        weighted_oracle / mean_oracle, abs=1e-12)


@given(st.floats(0.1, 100.0))
@settings(max_examples=20, deadline=None)
def test_weight_scaling_invariance(scale):
    logits_data = np.random.default_rng(7).uniform(-2, 2, (10, 3))
    labels = np.random.default_rng(8).integers(0, 3, 10)
    w = np.array([1.0, 2.0, 0.5])

    def loss_with(weights):
        tape = ad.Tape()
        return float(weighted_cross_entropy(tape, ad.constant(logits_data),
                                            labels, weights).data[0, 0])

    assert abs(loss_with(w) - loss_with(scale * w)) < 1e-12


def test_label_out_of_range():
    with pytest.raises(IndexError):
        weighted_cross_entropy(ad.Tape(), ad.constant(np.zeros((2, 3))),
                               [0, 3], np.ones(3))


# ---------------------------------------------------------------------------
# optimizers


def _single_param(value):
    return {"w": ad.Parameter("w", value)}


def test_adam_first_step_closed_form():
    params = _single_param(np.zeros((2, 2)))
    g = np.array([[0.5, -0.25], [1.5, -2.0]])
    params["w"].grad += g
    opt = Adam(params, learning_rate=1e-3)
    opt.step()
    want = -1e-3 * g / (np.abs(g) + 1e-8)
    assert np.allclose(params["w"].data, want, atol=1e-15)
    assert np.array_equal(params["w"].grad, np.zeros((2, 2)))


def test_adam_zero_gradient_no_move():
    params = _single_param(np.full((2, 2), 3.0))
    opt = Adam(params, learning_rate=1e-2)
    opt.step()
    assert np.array_equal(params["w"].data, np.full((2, 2), 3.0))


def test_adam_constant_gradient_asymptote():
    params = _single_param(np.zeros((1, 2)))
    g = np.array([[0.37, -1.9]])
    opt = Adam(params, learning_rate=1e-3)
    for _ in range(100):
        params["w"].grad += g
        opt.step()
    # moves ~ -lr * sign(g) per step
    want = -100 * 1e-3 * np.sign(g)
    assert np.abs(params["w"].data - want).max() < 0.1 * abs(100 * 1e-3)


def _optimizer_params(kind):
    cfg = make_config(kind, input_dim=32, hidden_dim=8, kernel_net_hidden=(32,),
                      init_seed=4)
    return init_params(cfg)


def _draw_grads(params, rng):
    for p in params.values():
        p.grad += rng.standard_normal(p.grad.shape)


@pytest.mark.parametrize("kind", ["graphpde", "gcn"])
@pytest.mark.parametrize("flat, reference", [(Adam, ReferenceAdam), (Sgd, ReferenceSgd)])
def test_flat_optimizers_match_the_per_parameter_reference(kind, flat, reference):
    params, want = _optimizer_params(kind), _optimizer_params(kind)
    rng, want_rng = np.random.default_rng(7), np.random.default_rng(7)
    _draw_grads(params, rng)  # a grad set before the optimizer is built is kept
    _draw_grads(want, want_rng)
    opt, ref = flat(params, 1e-2), reference(want, 1e-2)
    for step in range(4):
        if step:
            _draw_grads(params, rng)
            _draw_grads(want, want_rng)
        opt.step()
        ref.step()
        for name in want:
            assert np.array_equal(params[name].data, want[name].data), (step, name)
            assert not params[name].grad.any(), (step, name)
    if flat is Adam:
        assert opt.t == ref.t == 4


@pytest.mark.parametrize("flat", [Adam, Sgd])
def test_flat_optimizer_owns_every_parameter_array(flat):
    params, want = _optimizer_params("graphpde"), _optimizer_params("graphpde")
    opt = flat(params, 1e-3)
    assert opt.data.size == sum(p.data.size for p in params.values())
    for name, p in params.items():
        assert np.shares_memory(p.data, opt.data) and np.shares_memory(p.grad, opt.grad)
        assert p.data.flags.c_contiguous and p.grad.flags.c_contiguous
        assert np.array_equal(p.data, want[name].data) and not p.grad.any()


@pytest.mark.parametrize("flat", [Adam, Sgd])
def test_flat_optimizer_step_allocates_nothing(flat):
    # graphpde at the criterion-7 widths: 40 parameters, 14,163 numbers. The
    # per-parameter loop made about six temporaries per parameter; a flat
    # step's traced peak is about 100 bytes of ufunc bookkeeping
    params = _optimizer_params("graphpde")
    assert len(params) == 40
    opt = flat(params, 1e-2)
    rng = np.random.default_rng(3)
    _draw_grads(params, rng)
    opt.step()
    _draw_grads(params, rng)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        opt.step()
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert peak < 1024, peak


# ---------------------------------------------------------------------------
# training loop


def test_training_reduces_loss_on_informative_data():
    train_g, _ = tiny_dataset()
    cfg = make_config("fcn", input_dim=6, hidden_dim=8, init_seed=0)
    _params, history = train(cfg, train_g, TrainConfig(epochs=15, num_runs=1, seed=0))
    assert all(math.isfinite(h) for h in history)
    assert history[-1] < history[0]


def test_training_seed_reproducibility():
    train_g, _ = tiny_dataset()
    cfg = make_config("gcn", input_dim=6, hidden_dim=4, init_seed=3)
    tc = TrainConfig(epochs=3, num_runs=1, seed=3)
    p1, h1 = train(cfg, train_g, tc)
    p2, h2 = train(cfg, train_g, tc)
    assert h1 == h2
    for name in p1:
        assert p1[name].data.tobytes() == p2[name].data.tobytes()


def test_divergence_raises_with_context():
    train_g, _ = tiny_dataset()
    cfg = make_config("fcn", input_dim=6, hidden_dim=4, init_seed=0)
    tc = TrainConfig(epochs=3, learning_rate=1e200, optimizer="sgd", num_runs=1,
                     seed=0)
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(DivergenceError, match=r"^non-finite loss at epoch \d+, sample "
                                                 r"'s\d+'; last finite loss [\d.e+-]+ at "
                                                 r"epoch \d+$"):
        train(cfg, train_g, tc)


def test_divergence_on_the_first_step_says_no_finite_loss_came_before():
    # infinite features make the very first loss non-finite
    train_g, _ = tiny_dataset()
    huge = [dataclasses.replace(g, node_features=np.full_like(g.node_features, np.inf))
            for g in train_g]
    cfg = make_config("fcn", input_dim=6, hidden_dim=4, init_seed=0)
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(DivergenceError, match=r"^non-finite loss at epoch 0, sample "
                                                 r"'s\d+'; no finite loss before it$"):
        train(cfg, huge, TrainConfig(epochs=1, num_runs=1, seed=0))


def test_empty_train_set_rejected():
    cfg = make_config("lr", input_dim=3, init_seed=0)
    with pytest.raises(ContractError):
        train(cfg, [], TrainConfig(num_runs=1))


# ---------------------------------------------------------------------------
# evaluation


def test_perfect_predictions():
    m = metrics_from_confusion(np.diag([5, 3, 2]))
    assert m.accuracy == 1.0 and m.macro_f1 == 1.0


def test_hand_computed_confusion_fixture():
    m = metrics_from_confusion([[2, 0, 0], [1, 1, 0], [0, 0, 1]])
    assert m.accuracy == pytest.approx(0.8, abs=1e-12)
    assert m.per_class_f1[0] == pytest.approx(0.8, abs=1e-12)
    assert m.per_class_f1[1] == pytest.approx(2.0 / 3.0, abs=1e-12)
    assert m.per_class_f1[2] == pytest.approx(1.0, abs=1e-12)
    assert m.macro_f1 == pytest.approx((0.8 + 2.0 / 3.0 + 1.0) / 3.0, abs=1e-12)
    assert round(m.macro_f1, 4) == 0.8222


def test_all_one_class_predictions_match_oracle():
    conf = np.zeros((3, 3), dtype=int)
    conf[:, 0] = [4, 4, 4]  # balanced labels, everything predicted class 0
    m = metrics_from_confusion(conf)
    acc, f1s, macro = confusion_f1(conf)
    assert m.accuracy == pytest.approx(acc, abs=1e-12)
    assert list(m.per_class_f1) == pytest.approx(f1s, abs=1e-12)
    assert m.macro_f1 == pytest.approx(macro, abs=1e-12)


def test_metrics_pure_function_of_confusion():
    train_g, hold_g = tiny_dataset()
    cfg = make_config("lr", input_dim=6, init_seed=0)
    params, _ = train(cfg, train_g, TrainConfig(epochs=3, num_runs=1, seed=0))
    m = evaluate(params, cfg, hold_g)
    again = metrics_from_confusion(m.confusion)
    assert again.accuracy == m.accuracy
    assert again.macro_f1 == m.macro_f1
    assert m.confusion.sum() == sum(g.num_nodes for g in hold_g)


def test_evaluate_order_invariance():
    train_g, _ = tiny_dataset()
    cfg = make_config("lr", input_dim=6, init_seed=0)
    params, _ = train(cfg, train_g, TrainConfig(epochs=2, num_runs=1, seed=0))
    a = evaluate(params, cfg, train_g)
    b = evaluate(params, cfg, train_g[::-1])
    assert np.array_equal(a.confusion, b.confusion)


def test_evaluate_ties_break_to_lowest_class():
    from stgno.pipeline import GraphSample
    from stgno.geometry import RadiusGraph
    cfg = make_config("lr", input_dim=2, init_seed=0)
    params = {"readout_w": ad.Parameter("readout_w", np.zeros((2, 3))),
              "readout_b": ad.Parameter("readout_b", np.zeros((1, 3)))}
    sample = GraphSample(
        sample_id="t", node_features=np.ones((4, 2)),
        graph=RadiusGraph(np.zeros((4, 2)), np.zeros((0, 2), dtype=np.int64), 1.0),
        labels=np.array([0, 1, 2, 0]))
    m = evaluate(params, cfg, [sample])
    assert m.confusion[:, 0].sum() == 4  # all ties -> class 0


def test_evaluate_runs_on_non_recording_tapes(monkeypatch):
    train_g, hold_g = tiny_dataset()
    cfg = make_config("graphpde", input_dim=6, hidden_dim=4,
                      kernel_net_hidden=(8,), init_seed=0)
    params = init_params(cfg)
    want = np.zeros((3, 3), dtype=np.int64)
    for sample in hold_g:
        logits = model_forward(ad.Tape(), cfg, params, sample.node_features,
                               graph=sample.graph)
        np.add.at(want, (sample.labels, logits.data.argmax(axis=1)), 1)
    tapes = []
    init = ad.Tape.__init__

    def recorded_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        tapes.append(self)

    monkeypatch.setattr(ad.Tape, "__init__", recorded_init)
    got = evaluate(params, cfg, hold_g)
    assert np.array_equal(got.confusion, want)
    assert len(tapes) == len(hold_g)
    assert all(not tape.recording and len(tape) == 0 for tape in tapes)


def test_evaluate_empty_list():
    cfg = make_config("lr", input_dim=2, init_seed=0)
    with pytest.raises(ContractError):
        evaluate(init_params(cfg), cfg, [])


# ---------------------------------------------------------------------------
# experiment runner


def test_run_experiment_single_run_flags_and_order():
    train_g, hold_g = tiny_dataset()
    configs = [make_config("fcn", input_dim=6, hidden_dim=4),
               make_config("lr", input_dim=6)]
    trained = {}
    report = run_experiment(
        configs, train_g, hold_g, TrainConfig(epochs=2, num_runs=1, seed=0),
        run_hook=lambda mc, _r, params, *_: trained.setdefault(mc.kind, params))
    assert [row["kind"] for row in report.rows] == ["fcn", "lr"]
    for row in report.rows:
        assert row["single_run"] is True
        assert row["std_accuracy"] == 0.0 and row["std_f1"] == 0.0
        assert row["param_count"] == sum(p.data.size for p in trained[row["kind"]].values())


def test_run_experiment_means_match_per_run_logs():
    train_g, hold_g = tiny_dataset()
    report = run_experiment([make_config("lr", input_dim=6)], train_g, hold_g,
                            TrainConfig(epochs=2, num_runs=3, seed=5))
    row = report.rows[0]
    accs = [r["accuracy"] for r in row["runs"]]
    f1s = [r["macro_f1"] for r in row["runs"]]
    assert row["mean_accuracy"] == pytest.approx(np.mean(accs), abs=1e-15)
    assert row["std_accuracy"] == pytest.approx(np.std(accs, ddof=1), abs=1e-15)
    assert row["mean_f1"] == pytest.approx(np.mean(f1s), abs=1e-15)
    assert [r["seed"] for r in row["runs"]] == [5, 6, 7]


def test_run_experiment_hooks_see_every_epoch_and_run():
    train_g, hold_g = tiny_dataset()
    epochs, runs = [], []
    report = run_experiment(
        [make_config("lr", input_dim=6)], train_g, hold_g,
        TrainConfig(epochs=3, num_runs=2, seed=5),
        epoch_hook=lambda epoch, loss: epochs.append((epoch, loss)),
        run_hook=lambda *args: runs.append(args))
    rows = report.rows[0]["runs"]
    assert [e for e, _loss in epochs] == [0, 1, 2, 0, 1, 2]
    assert [loss for _e, loss in epochs] == [v for row in rows for v in row["loss_history"]]
    assert [r for _mc, r, *_rest in runs] == [0, 1]
    for (mc, r, params, history, metrics), row in zip(runs, rows):
        assert mc.init_seed == row["seed"] == 5 + r
        assert evaluate(params, mc, hold_g).to_json_dict() == metrics.to_json_dict()
        assert history == row["loss_history"]
        assert (metrics.accuracy, metrics.macro_f1) == (row["accuracy"], row["macro_f1"])


def test_run_experiment_divergence_names_model_run_and_seed():
    train_g, hold_g = tiny_dataset()
    tc = TrainConfig(epochs=2, learning_rate=1e200, optimizer="sgd", num_runs=2,
                     seed=7)
    with pytest.raises(DivergenceError, match=r"^fcn run 0 \(seed 7\): non-finite "
                                              r"loss at epoch \d+, sample 's\d+'; last "
                                              r"finite loss [\d.e+-]+ at epoch \d+$"):
        run_experiment([make_config("fcn", input_dim=6, hidden_dim=4)],
                       train_g, hold_g, tc)


@pytest.mark.parametrize("kind", ["gcn", "spatial_kernel", "spatial_gcn"])
def test_run_experiment_deterministic_report_bytes(kind):
    # the second pass runs on the same graphs, whose mixers now hold the
    # mix of each slide's features
    from stgno.ioutil import dump_json
    train_g, hold_g = tiny_dataset()
    blobs = []
    for _ in range(2):
        report = run_experiment([make_config(kind, input_dim=6, hidden_dim=4)],
                                train_g, hold_g,
                                TrainConfig(epochs=2, num_runs=2, seed=7))
        blobs.append(dump_json(report.to_json_dict()).encode())
    assert blobs[0] == blobs[1]


def test_report_table_format():
    train_g, hold_g = tiny_dataset()
    report = run_experiment([make_config("lr", input_dim=6)], train_g, hold_g,
                            TrainConfig(epochs=1, num_runs=1, seed=0))
    table = report.table()
    lines = table.strip().splitlines()
    assert lines[0].startswith("Model")
    assert "LR" in lines[1] and "%" in lines[1]


def test_weighted_f1_report_reads_the_weighted_field():
    train_g, hold_g = tiny_dataset()
    report = run_experiment([make_config("lr", input_dim=6)], train_g, hold_g,
                            TrainConfig(epochs=1, num_runs=2, seed=0),
                            f1_flavor="weighted")
    row = report.rows[0]
    assert row["mean_f1"] == np.mean([run["weighted_f1"] for run in row["runs"]])
    assert report.table().split()[:4] == ["Model", "Accuracy", "Weighted-F1", "Params"]
    with pytest.raises(ParameterError, match="f1 flavor"):
        run_experiment([make_config("lr", input_dim=6)], train_g, hold_g, TrainConfig(),
                       f1_flavor="micro")
    assert set(F1_KEYS) == {"macro", "weighted"}


@pytest.mark.parametrize("change", [{"epochs": 0}, {"num_runs": 0}, {"learning_rate": 0.0},
                                    {"learning_rate": float("nan")},
                                    {"optimizer": "rmsprop"}, {"epochs": 2.5},
                                    {"num_runs": 1.0}, {"epochs": True}, {"seed": -1},
                                    {"seed": 1.5}, {"learning_rate": float("inf")},
                                    {"learning_rate": True}, {"learning_rate": "0.1"}])
def test_train_config_checked_when_built_and_replaced(change):
    with pytest.raises(ParameterError):
        TrainConfig(**change)
    with pytest.raises(ParameterError):
        dataclasses.replace(TrainConfig(), **change)


# ---------------------------------------------------------------------------
# checkpoints


def whole_preprocess(cfg):
    """A preprocess block with every key, one name per input and per class."""
    return {"gene_names": [f"g{i}" for i in range(cfg.input_dim)], "radius": 0.25,
            "standardization": None,
            "class_names": [f"c{i}" for i in range(cfg.num_classes)]}


def test_checkpoint_round_trip_bit_identical(tmp_path):
    cfg = make_config("graphpde", input_dim=4, hidden_dim=4,
                      kernel_net_hidden=(8,), init_seed=12)
    params = init_params(cfg)
    path = tmp_path / "model.ckpt.json"
    save_checkpoint(path, params, cfg, preprocess=whole_preprocess(cfg))
    loaded, cfg2, pre = load_checkpoint(path)
    assert cfg2 == cfg
    assert pre == whole_preprocess(cfg)
    for name in params:
        assert loaded[name].data.tobytes() == params[name].data.tobytes()


def test_checkpoint_tampered_shape_names_parameter(tmp_path):
    import json
    cfg = make_config("lr", input_dim=3, init_seed=0)
    path = tmp_path / "model.ckpt.json"
    save_checkpoint(path, init_params(cfg), cfg, whole_preprocess(cfg))
    doc = json.loads(path.read_text())
    doc["params"]["readout_w"] = [[1.0, 2.0]]
    path.write_text(json.dumps(doc))
    with pytest.raises(CheckpointError, match="readout_w"):
        load_checkpoint(path)


def test_checkpoint_version_mismatch(tmp_path):
    import json
    cfg = make_config("lr", input_dim=3, init_seed=0)
    path = tmp_path / "model.ckpt.json"
    save_checkpoint(path, init_params(cfg), cfg, whole_preprocess(cfg))
    doc = json.loads(path.read_text())
    doc["format_version"] = 99
    path.write_text(json.dumps(doc))
    with pytest.raises(CheckpointError, match="version"):
        load_checkpoint(path)


def test_checkpoint_missing_parameter(tmp_path):
    import json
    cfg = make_config("lr", input_dim=3, init_seed=0)
    path = tmp_path / "model.ckpt.json"
    save_checkpoint(path, init_params(cfg), cfg, whole_preprocess(cfg))
    doc = json.loads(path.read_text())
    del doc["params"]["readout_b"]
    path.write_text(json.dumps(doc))
    with pytest.raises(CheckpointError, match="readout_b"):
        load_checkpoint(path)


def test_loaded_checkpoint_evaluates_identically(tmp_path):
    train_g, hold_g = tiny_dataset()
    cfg = make_config("fcn", input_dim=6, hidden_dim=4, init_seed=2)
    params, _ = train(cfg, train_g, TrainConfig(epochs=2, num_runs=1, seed=2))
    path = tmp_path / "model.ckpt.json"
    save_checkpoint(path, params, cfg, whole_preprocess(cfg))
    loaded, cfg2, _ = load_checkpoint(path)
    m1, m2 = evaluate(params, cfg, hold_g), evaluate(loaded, cfg2, hold_g)
    assert np.array_equal(m1.confusion, m2.confusion)
    assert m1.macro_f1 == m2.macro_f1
