"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as the
suite executes. The synthetic-separation and resolution-robustness
criteria (7 and 8) share one call of ``scripts/study.py``'s ``study()``,
with every study flag given, so the gate and the script run one
experiment and the whole module stays inside the stated runtime budgets.
"""

import time

import numpy as np
import pytest

from stgno import autodiff as ad
from stgno.cli import main as cli_main
from stgno.geometry import build_radius_graph, gaussian_kernel_weights, row_mixer
from stgno.models import init_params, make_config, model_forward
from stgno.train import class_weights, metrics_from_confusion, weighted_cross_entropy

from oracles import (dense_gaussian_weights, dense_graphpde_layer, dense_weight_matrix,
                     finite_difference_grads, mul, pad_edge_rows, rel_err,
                     slot_coo_weights, with_ones)
from test_scripts import load_script

# the noise-only study behind criteria 7 and 8; every flag is given, so no
# study default can move the gate
STUDY_ARGS = ["--kinds", "lr", "fcn", "graphpde", "--samples", "20", "--spots", "300",
              "--eval-spots", "300", "600", "--genes", "32", "--region-seeds", "1",
              "--radius", "0.25", "--hidden", "8", "--kernel-hidden", "32",
              "--lr", "0.01", "--epochs", "40", "--runs", "3", "--seed", "0"]


def gate(name, ok, detail=""):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}" + (f"  ({detail})" if detail else ""))
    assert ok, f"{name}: {detail}"


def _random_graph(n, radius, seed):
    pts = np.random.default_rng(seed).uniform(size=(n, 2))
    return pts, build_radius_graph(pts, radius)


def _fd_model_check(kind, rng, tol=1e-4):
    """Finite-difference check of the full training gradient (weighted CE)
    for one model on a 6-node graph, h=4."""
    pts, graph = _random_graph(6, radius=0.6, seed=17)
    cfg = make_config(kind, input_dim=3, hidden_dim=4, kernel_net_hidden=(8,),
                      init_seed=23)
    params = init_params(cfg)
    x = rng.uniform(-1, 1, (6, 3))
    labels = np.array([0, 1, 2, 0, 1, 2])
    weights = class_weights(labels, 3)

    def loss_value():
        tape = ad.Tape()
        logits = model_forward(tape, cfg, params, x, graph=graph)
        return float(weighted_cross_entropy(tape, logits, labels,
                                            weights).data[0, 0])

    for p in params.values():
        p.zero_grad()
    tape = ad.Tape()
    logits = model_forward(tape, cfg, params, x, graph=graph)
    tape.backward(weighted_cross_entropy(tape, logits, labels, weights))
    worst = 0.0
    for name in params:
        fd = finite_difference_grads(loss_value, [params[name].data])[0]
        worst = max(worst, rel_err(params[name].grad, fd))
    return worst


def test_criterion_01_gradient_suite():
    started = time.monotonic()
    rng = np.random.default_rng(31)
    worst = 0.0

    # primitive ops
    def op_check(build, leaves):
        nonlocal worst
        for p in leaves:
            p.zero_grad()
        tape = ad.Tape()
        tape.backward(build(tape))

        def loss_value():
            return float(build(ad.Tape()).data[0, 0])

        fd = finite_difference_grads(loss_value, [p.data for p in leaves])
        for p, want in zip(leaves, fd):
            worst = max(worst, rel_err(p.grad, want))

    def away_from_zero(shape):
        return rng.choice([-1.0, 1.0], shape) * rng.uniform(0.1, 1.0, shape)

    a = ad.Parameter("a", away_from_zero((3, 4)))
    b = ad.Parameter("b", away_from_zero((4, 2)))
    c32 = rng.uniform(-1, 1, (3, 2))
    op_check(lambda t: ad.sum_all(t, ad.mul_const(t, ad.matmul(t, a, b), c32)), [a, b])

    s = ad.Parameter("s", away_from_zero((4, 3)))
    s2 = ad.Parameter("s2", away_from_zero((4, 3)))
    c43 = rng.uniform(-1, 1, (4, 3))
    op_check(lambda t: ad.sum_all(t, ad.mul_const(t, ad.add(t, s, s2), c43)), [s, s2])
    op_check(lambda t: ad.sum_all(t, ad.mul_const(t, mul(t, s, s2), c43)), [s, s2])
    op_check(lambda t: ad.sum_all(t, ad.mul_const(t, ad.relu(t, s), c43)), [s])
    op_check(lambda t: ad.sum_all(t, ad.mul_const(t, ad.tanh(t, s), c43)), [s])
    op_check(lambda t: ad.sum_all(t, ad.mul_const(t, ad.log_softmax_rows(t, s), c43)), [s])

    bias = ad.Parameter("bias", away_from_zero((1, 3)))
    op_check(lambda t: ad.sum_all(
        t, ad.mul_const(t, ad.add_row_broadcast(t, s, bias), c43)), [s, bias])

    ids = rng.integers(0, 3, 4)
    c33 = rng.uniform(-1, 1, (3, 3))
    op_check(lambda t: ad.sum_all(
        t, ad.mul_const(t, ad.segment_mean(t, s, ids, 3), c33)), [s])

    rows = rng.integers(0, 4, 6)
    c63 = rng.uniform(-1, 1, (6, 3))
    op_check(lambda t: ad.sum_all(
        t, ad.mul_const(t, ad.gather_rows(t, s, rows), c63)), [s])

    mats = ad.Parameter("mats", away_from_zero((5, 9)))
    vecs = ad.Parameter("vecs", away_from_zero((5, 3)))
    c53 = rng.uniform(-1, 1, (5, 3))
    op_check(lambda t: ad.sum_all(
        t, ad.mul_const(t, ad.edge_matvec(t, mats, vecs), c53)), [mats, vecs])

    src = rng.integers(0, 4, 10)
    dst = rng.integers(0, 4, 10)
    w = rng.uniform(0.1, 1.0, 10)
    op_check(lambda t: ad.sum_all(
        t, ad.mul_const(t, ad.coo_matmul(t, s, src, dst, w, 4), c43)), [s])

    # full models
    for kind in ("lr", "fcn", "gcn", "spatial_kernel", "spatial_gcn", "graphpde"):
        worst = max(worst, _fd_model_check(kind, rng))

    # the fused graphpde mean-message op; its draws come after the model
    # checks so those keep their inputs
    layout = _random_graph(5, radius=0.6, seed=3)[1].layout
    slots = ad.Parameter("slots", with_ones(away_from_zero((layout.num_slots, 2))))
    kw = ad.Parameter("kw", away_from_zero((2, 9)))
    kb = ad.Parameter("kb", away_from_zero((1, 9)))
    nodes = ad.Parameter("nodes", away_from_zero((5, 3)))
    op_check(lambda t: ad.sum_all(t, ad.mul_const(
        t, ad.kernel_message_mean(t, slots, (), kw, kb, nodes, layout), c53)),
        [slots, kw, kb, nodes])

    # the fused linear layer, for every activation; drawn after the checks
    # above so they keep their inputs. A constant input gets no gradient.
    dx = ad.Parameter("dx", away_from_zero((4, 3)))
    dw = ad.Parameter("dw", away_from_zero((3, 2)))
    db = ad.Parameter("db", away_from_zero((1, 2)))
    c42 = rng.uniform(-1, 1, (4, 2))
    for activation in (None, *ad.ACTIVATIONS):
        op_check(lambda t: ad.sum_all(t, ad.mul_const(
            t, ad.dense(t, dx, dw, db, activation), c42)), [dx, dw, db])
    const_x = ad.constant(dx.data.copy())
    for activation in (None, *ad.ACTIVATIONS):
        op_check(lambda t: ad.sum_all(t, ad.mul_const(
            t, ad.dense(t, const_x, dw, db, activation), c42)), [dw, db])

    # the same op running one and two kernel hidden layers itself, with two
    # isolated nodes; the attribute rows (with their ones column) are a
    # plain Value, so they get a gradient too. Drawn after the checks above
    # so they keep their inputs.
    iso_pts = np.vstack([rng.uniform(size=(5, 2)), [[5.0, 5.0], [8.0, 5.0]]])
    iso_layout = build_radius_graph(iso_pts, 0.6).layout
    attr = ad.Value(with_ones(away_from_zero((iso_layout.num_slots, 3))))
    iso_nodes = ad.Parameter("iso_nodes", away_from_zero((7, 2)))
    c72 = rng.uniform(-1, 1, (7, 2))
    for widths in ((3, 4), (3, 4, 3)):
        hidden = [(ad.Parameter(f"hw{j}", away_from_zero(widths[j:j + 2])),
                   ad.Parameter(f"hb{j}", away_from_zero((1, widths[j + 1]))))
                  for j in range(len(widths) - 1)]
        last_w = ad.Parameter("last_w", away_from_zero((widths[-1], 4)))
        last_b = ad.Parameter("last_b", away_from_zero((1, 4)))
        leaves = [*(p for pair in hidden for p in pair), last_w, last_b, iso_nodes]
        for activation in ad.ACTIVATIONS:
            def fused(t):
                return ad.sum_all(t, ad.mul_const(t, ad.kernel_message_mean(
                    t, attr, hidden, last_w, last_b, iso_nodes, iso_layout,
                    activation), c72))
            op_check(fused, leaves)
            attr.grad = None
            tape = ad.Tape()
            tape.backward(fused(tape))
            fd_attr = finite_difference_grads(
                lambda: float(fused(ad.Tape()).data[0, 0]), [attr.data])[0]
            worst = max(worst, rel_err(attr.grad, fd_attr))

    elapsed = time.monotonic() - started
    gate("criterion 1: gradient suite (ops + all models)",
         worst < 1e-4 and elapsed < 60.0 and const_x.grad is None,
         f"worst rel err {worst:.2e}, {elapsed:.1f}s, constant input grad "
         f"{'none' if const_x.grad is None else 'set'}")


def test_criterion_02_radius_graph_oracle():
    rng = np.random.default_rng(5)
    ok = True
    for trial in range(100):
        n = int(rng.integers(2, 201))
        radius = float(rng.uniform(0.03, 0.5))
        pts = rng.uniform(size=(n, 2))
        got = build_radius_graph(pts, radius).edges
        diff = pts[:, None, :] - pts[None, :, :]
        within = (diff ** 2).sum(axis=2) <= radius * radius
        np.fill_diagonal(within, False)
        want = np.argwhere(within)
        want = want[np.lexsort((want[:, 1], want[:, 0]))]
        if not np.array_equal(got, want.reshape(-1, 2)):
            ok = False
            break
    gate("criterion 2: spatial hash equals O(n^2) brute force on 100 point sets", ok)


def test_criterion_03_sparse_vs_dense():
    rng = np.random.default_rng(11)
    worst = 0.0
    for seed in range(5):
        n = int(rng.integers(3, 13))
        pts, graph = _random_graph(n, radius=0.5, seed=seed)
        # no kernel hidden layers and an identity kernel layer (16 -> 16)
        # make the rows handed to the layer, less their ones column, the
        # explicit per-edge kernels
        cfg = make_config("graphpde", input_dim=4, hidden_dim=4,
                          kernel_net_hidden=(), init_seed=seed)
        params = {name: ad.Parameter(name, np.eye(16))
                  if name == "layer_0_kernel_0_w" else p
                  for name, p in init_params(cfg).items()}
        params["layer_0_kernel_0_b"].data[:] = 0.0
        v = rng.uniform(-1, 1, (n, 4))
        kernels = rng.uniform(-1, 1, (graph.num_edges, 16))
        from stgno.models import graphpde_layer
        got = graphpde_layer(ad.Tape(), cfg, params, 0, graph,
                             ad.constant(pad_edge_rows(graph.layout, graph.edges,
                                                       with_ones(kernels))),
                             ad.constant(v)).data
        want = dense_graphpde_layer(params["layer_0_w"].data,
                                    params["layer_0_b"].data,
                                    kernels, graph.edges, v, "relu")
        worst = max(worst, np.abs(got - want).max())

        weights = gaussian_kernel_weights(pts, graph.layout, bandwidth=0.25)
        x = rng.uniform(-1, 1, (n, 3))
        got_k = ad.mix_rows(ad.Tape(), ad.constant(x), row_mixer(graph, *weights)).data
        dense_k = dense_weight_matrix(slot_coo_weights(graph.layout, *weights[:2]))
        dense_direct = dense_gaussian_weights(pts, graph.radius, 0.25)
        worst = max(worst, np.abs(got_k - dense_k @ x).max())
        worst = max(worst, np.abs(dense_k - dense_direct).max())
    gate("criterion 3: sparse message passing equals dense reference (<= 12 nodes)",
         worst < 1e-10, f"worst abs err {worst:.2e}")


def test_criterion_04_equivariance_suite():
    rng = np.random.default_rng(13)
    worst = 0.0
    pts, graph = _random_graph(11, radius=0.45, seed=3)
    x = rng.uniform(-1, 1, (11, 4))
    for kind in ("gcn", "spatial_kernel", "spatial_gcn", "graphpde"):
        cfg = make_config(kind, input_dim=4, hidden_dim=4, kernel_net_hidden=(8,),
                          init_seed=29)
        params = init_params(cfg)
        base = model_forward(ad.Tape(), cfg, params, x, graph=graph).data
        for trial in range(20):
            perm = np.random.default_rng(trial).permutation(11)
            p_graph = build_radius_graph(pts[perm], graph.radius)
            out = model_forward(ad.Tape(), cfg, params, x[perm], graph=p_graph).data
            worst = max(worst, np.abs(base[perm] - out).max())
    gate("criterion 4: permutation equivariance, 20 permutations x 4 graph models",
         worst < 1e-9, f"worst abs err {worst:.2e}")


def test_criterion_05_degeneracy_identities():
    rng = np.random.default_rng(41)
    pts, graph = _random_graph(9, radius=0.5, seed=8)
    x = rng.uniform(-1, 1, (9, 5))

    # zero kernel nets: GraphPDE == FCN run on the lifted features, exactly
    gp = make_config("graphpde", input_dim=5, hidden_dim=4, kernel_net_hidden=(8,),
                     num_layers=6, init_seed=2)
    params = init_params(gp)
    for i in range(gp.num_layers):
        params[f"layer_{i}_kernel_1_w"].data[:] = 0.0
    got = model_forward(ad.Tape(), gp, params, x, graph=graph).data
    lifted = x @ params["lift_w"].data + params["lift_b"].data
    fcn = make_config("fcn", input_dim=4, hidden_dim=4, num_layers=6, init_seed=2)
    want = model_forward(ad.Tape(), fcn, params, lifted).data
    zero_kernel_exact = np.array_equal(got, want)

    # vanishing bandwidth: SpatialKernel == FCN with shared parameters
    sk = make_config("spatial_kernel", input_dim=5, hidden_dim=4, bandwidth=1e-9,
                     init_seed=3)
    fcn2 = make_config("fcn", input_dim=5, hidden_dim=4, num_layers=2, init_seed=3)
    shared = init_params(fcn2)
    out_sk = model_forward(ad.Tape(), sk, shared, x, graph=graph).data
    out_fcn = model_forward(ad.Tape(), fcn2, shared, x).data
    bandwidth_err = np.abs(out_sk - out_fcn).max()

    gate("criterion 5: degeneracy identities (zero kernel net; self-only bandwidth)",
         zero_kernel_exact and bandwidth_err < 1e-9,
         f"zero-kernel exact={zero_kernel_exact}, bandwidth err {bandwidth_err:.2e}")


def test_criterion_06_metrics_oracle():
    m = metrics_from_confusion([[2, 0, 0], [1, 1, 0], [0, 0, 1]])
    expected_macro = (0.8 + 2.0 / 3.0 + 1.0) / 3.0
    metrics_ok = (abs(m.accuracy - 0.8) < 1e-12
                  and abs(m.per_class_f1[0] - 0.8) < 1e-12
                  and abs(m.per_class_f1[1] - 2.0 / 3.0) < 1e-12
                  and abs(m.per_class_f1[2] - 1.0) < 1e-12
                  and abs(m.macro_f1 - expected_macro) < 1e-12
                  and round(m.macro_f1, 4) == 0.8222)
    w = class_weights([0] * 60 + [1] * 30 + [2] * 10, 3)
    weights_ok = np.allclose(w, [100 / 180, 100 / 90, 100 / 30], atol=1e-12)
    gate("criterion 6: metrics and class-weight oracles", metrics_ok and weights_ok)


# ---------------------------------------------------------------------------
# synthetic separation and resolution robustness (one shared study call)


@pytest.fixture(scope="module")
def separation_study():
    """The study's {(kind, spots): [holdout macro-F1 per seed]} and the
    wall time of the whole call."""
    study = load_script("study")
    started = time.monotonic()
    args = study.parse_args(STUDY_ARGS)
    given = {flag[2:].replace("-", "_") for flag in STUDY_ARGS if flag.startswith("--")}
    assert given == set(vars(args)), "STUDY_ARGS must give every study flag"
    f1s = study.study(args)
    return f1s, time.monotonic() - started


@pytest.mark.slow
def test_criterion_07_synthetic_spatial_separation(separation_study):
    f1s, elapsed = separation_study
    lr_f1, fcn_f1, gp_f1 = (np.mean(f1s[kind, 300]) for kind in ("lr", "fcn", "graphpde"))
    ok = lr_f1 <= 0.45 and fcn_f1 <= 0.45 and gp_f1 >= 0.85 and elapsed < 600.0
    gate("criterion 7: noise-only separation (LR/FCN <= 0.45, GraphPDE >= 0.85)",
         ok, f"LR {lr_f1:.3f}, FCN {fcn_f1:.3f}, GraphPDE {gp_f1:.3f}, "
             f"{elapsed:.0f}s")


@pytest.mark.slow
def test_criterion_08_discretization_robustness(separation_study):
    f1s, _elapsed = separation_study
    f1_300, f1_600 = (np.mean(f1s["graphpde", spots]) for spots in (300, 600))
    drop = f1_300 - f1_600
    gate("criterion 8: 300-spot -> 600-spot macro-F1 drop <= 0.10",
         drop <= 0.10, f"300-spot {f1_300:.3f}, 600-spot {f1_600:.3f}, "
                       f"drop {drop:+.3f}")


def test_criterion_09_report_determinism(tmp_path):
    synth = tmp_path / "synth"
    prep = tmp_path / "prep"
    assert cli_main(["synth", "--out", str(synth), "--samples", "6", "--spots",
                     "50", "--genes", "6", "--seed", "3"]) == 0
    assert cli_main(["prepare", "--spots", str(synth / "spots.csv"),
                     "--genes", str(synth / "genes.txt"),
                     "--labels", str(synth / "labels.tsv"),
                     "--radius", "0.3", "--holdout-k", "1", "--min-classes", "3",
                     "--seed", "0", "--out", str(prep)]) == 0
    outputs = []
    for name in ("r1", "r2"):
        out = tmp_path / name
        assert cli_main(["report", "--data", str(prep), "--models", "lr,gcn",
                         "--epochs", "2", "--runs", "2", "--seed", "1",
                         "--hidden", "4", "--out", str(out)]) == 0
        outputs.append((out / "report.json").read_bytes())
    gate("criterion 9: identical seeds give byte-identical report JSON",
         outputs[0] == outputs[1])


def test_criterion_10_end_to_end_pipeline(tmp_path):
    import json
    synth = tmp_path / "synth"
    prep = tmp_path / "prep"
    run = tmp_path / "run"
    codes = [cli_main(["synth", "--out", str(synth), "--seed", "0"])]
    codes.append(cli_main(["prepare", "--spots", str(synth / "spots.csv"),
                           "--genes", str(synth / "genes.txt"),
                           "--labels", str(synth / "labels.tsv"),
                           "--holdout-k", "2", "--min-classes", "10",
                           "--seed", "0", "--out", str(prep)]))
    codes.append(cli_main(["train", "--data", str(prep), "--model", "lr",
                           "--epochs", "3", "--runs", "1", "--seed", "0",
                           "--out", str(run)]))
    codes.append(cli_main(["eval", "--data", str(prep),
                           "--checkpoint", str(run / "best.ckpt.json")]))
    manifest = json.loads((prep / "manifest.json").read_text())
    train_ids = set(manifest["split"]["train"])
    holdout_ids = set(manifest["split"]["holdout"])
    no_leak = not (train_ids & holdout_ids) and len(holdout_ids) == 2
    gate("criterion 10: synth -> prepare -> train -> eval, exit 0, no leakage",
         codes == [0, 0, 0, 0] and no_leak,
         f"exit codes {codes}, holdout {sorted(holdout_ids)}")
