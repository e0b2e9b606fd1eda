import copy
import dataclasses
import re
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stgno.errors import ContractError, DataError, ParameterError
from stgno.geometry import build_radius_graph
from stgno.ioutil import read_json
from stgno.pipeline import (PREPARED_VERSION, DatasetSplit, LabelMap, SpotTable,
                            SyntheticConfig, assemble_graphs, bin_labels,
                            filter_genes, fit_feature_scaler,
                            generate_synthetic, graph_sample, load_gene_list,
                            load_label_map, load_prepared, load_spot_table,
                            save_prepared, select_holdout, write_label_map,
                            write_spot_table)

RNG = np.random.default_rng(4242)


def small_table():
    return SpotTable(
        sample_ids=["a", "a", "b"],
        positions=np.array([[0.0, 0.0], [1.0, 0.5], [0.25, 0.75]]),
        expression=np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]]),
        raw_labels=["x", "y", "x"],
        gene_names=["g1", "g2"],
    )


def synthetic_for_tests(**over):
    over.setdefault("num_samples", 6)
    over.setdefault("spots_per_sample", 80)
    over.setdefault("num_genes", 10)
    over.setdefault("seed", 5)
    return generate_synthetic(SyntheticConfig(**over))


# ---------------------------------------------------------------------------
# CSV ingestion


def test_csv_fixture_parses(tmp_path):
    path = tmp_path / "spots.csv"
    path.write_text("sample_id,x,y,label,g1,g2\n"
                    "a,0.0,0.0,x,1.0,2.0\n"
                    "a,1.0,0.5,y,3.0,4.0\n"
                    "b,0.25,0.75,x,5.0,6.0\n")
    table = load_spot_table(path)
    assert table.num_spots == 3
    assert table.gene_names == ["g1", "g2"]
    assert table.expression.shape == (3, 2)


def test_csv_missing_sample_id_column(tmp_path):
    path = tmp_path / "spots.csv"
    path.write_text("x,y,label,g1\n0,0,x,1\n")
    with pytest.raises(DataError, match="sample_id"):
        load_spot_table(path)


def test_csv_ragged_row_reports_line(tmp_path):
    path = tmp_path / "spots.csv"
    path.write_text("sample_id,x,y,label,g1\na,0,0,x,1\na,0,1,x\n")
    with pytest.raises(DataError, match=":3"):
        load_spot_table(path)


def test_csv_non_numeric_reports_line(tmp_path):
    path = tmp_path / "spots.csv"
    path.write_text("sample_id,x,y,label,g1\na,0,0,x,oops\n")
    with pytest.raises(DataError, match=":2"):
        load_spot_table(path)


@pytest.mark.parametrize("row", ["a,nan,0,x,1", "a,0,-inf,x,1", "a,0,0,x,inf",
                                 "a,0,0,x,NaN"])
def test_csv_non_finite_value_reports_line(tmp_path, row):
    path = tmp_path / "spots.csv"
    path.write_text(f"sample_id,x,y,label,g1\na,0,0,x,1\n{row}\na,1,1,x,2\n")
    with pytest.raises(DataError, match=r"spots\.csv:3: non-finite"):
        load_spot_table(path)


def test_csv_empty_sample_id_rejected(tmp_path):
    path = tmp_path / "spots.csv"
    path.write_text("sample_id,x,y,label,g1\n,0,0,x,1\n")
    with pytest.raises(DataError, match="empty sample_id"):
        load_spot_table(path)


def test_csv_round_trip_is_identity(tmp_path):
    table, _ = synthetic_for_tests()
    path = tmp_path / "spots.csv"
    write_spot_table(path, table)
    loaded = load_spot_table(path)
    assert loaded.sample_ids == table.sample_ids
    assert loaded.raw_labels == table.raw_labels
    assert loaded.gene_names == table.gene_names
    assert np.array_equal(loaded.positions, table.positions)
    assert np.array_equal(loaded.expression, table.expression)


def test_csv_listed_genes_parse_only_their_columns(tmp_path):
    table, _ = synthetic_for_tests()
    path = tmp_path / "spots.csv"
    write_spot_table(path, table)
    listed = [table.gene_names[3], "absent", table.gene_names[1]]
    loaded = load_spot_table(path, listed)
    assert loaded.gene_names == [table.gene_names[1], table.gene_names[3]]
    assert np.array_equal(loaded.expression, table.expression[:, [1, 3]])
    assert np.array_equal(loaded.positions, table.positions)
    assert loaded.sample_ids == table.sample_ids
    assert loaded.raw_labels == table.raw_labels
    want = filter_genes(load_spot_table(path), listed[::2])
    got = filter_genes(loaded, listed[::2])
    assert got.gene_names == want.gene_names
    assert np.array_equal(got.expression, want.expression)


@pytest.mark.parametrize("bad", ["oops", "nan", "inf"])
def test_csv_bad_value_in_an_unlisted_column_is_not_read(tmp_path, bad):
    path = tmp_path / "spots.csv"
    path.write_text(f"sample_id,x,y,label,g1,g2\na,0,0,x,1,2\na,0,1,x,{bad},3\n")
    table = load_spot_table(path, ["g2"])
    assert table.gene_names == ["g2"]
    assert np.array_equal(table.expression, [[2.0], [3.0]])
    with pytest.raises(DataError, match=r"spots\.csv:3: non-"):
        load_spot_table(path)


@pytest.mark.parametrize("bad", ["oops", "nan", "-inf"])
@pytest.mark.parametrize("column", ["x", "g2"])
def test_csv_bad_value_in_a_listed_column_names_its_line(tmp_path, bad, column):
    row = {"x": f"a,{bad},1,x,1,2", "g2": f"a,0,1,x,1,{bad}"}[column]
    path = tmp_path / "spots.csv"
    path.write_text(f"sample_id,x,y,label,g1,g2\na,0,0,x,1,2\n{row}\na,1,1,x,1,2\n")
    with pytest.raises(DataError, match=r"spots\.csv:3: non-"):
        load_spot_table(path, ["g2"])


def test_csv_listed_genes_still_need_full_rows(tmp_path):
    path = tmp_path / "spots.csv"
    path.write_text("sample_id,x,y,label,g1,g2\na,0,0,x,1,2\na,0,1,x,1\n")
    with pytest.raises(DataError, match=r"spots\.csv:3: expected 6 fields"):
        load_spot_table(path, ["g1"])


# ---------------------------------------------------------------------------
# gene filtering


def test_filter_genes_reorders_columns():
    table = SpotTable(sample_ids=["a"], positions=np.zeros((1, 2)),
                      expression=np.array([[1.0, 2.0, 3.0]]),
                      raw_labels=["x"], gene_names=["a", "b", "c"])
    out = filter_genes(table, ["c", "a"])
    assert out.gene_names == ["c", "a"]
    assert np.array_equal(out.expression, [[3.0, 1.0]])


def test_filter_genes_unknown_gene_warns_once():
    table = small_table()
    with pytest.warns(UserWarning, match="1 listed gene"):
        out = filter_genes(table, ["g2", "d"])
    assert out.gene_names == ["g2"]


def test_filter_genes_column_selection_oracle():
    table, _ = synthetic_for_tests(num_genes=100)
    wanted = [f"g{i:03d}" for i in RNG.choice(100, size=32, replace=False)]
    out = filter_genes(table, wanted)
    cols = [table.gene_names.index(g) for g in wanted]
    assert np.array_equal(out.expression, table.expression[:, cols])


def test_filter_genes_zero_overlap():
    with pytest.warns(UserWarning), pytest.raises(DataError):
        filter_genes(small_table(), ["nope"])


def test_filter_genes_empty_list():
    with pytest.raises(ParameterError):
        filter_genes(small_table(), [])


# ---------------------------------------------------------------------------
# label binning


def test_bin_labels_fifteen_to_three():
    raws = [f"r{i}" for i in range(15)]
    table = SpotTable(sample_ids=["s"] * 15, positions=np.zeros((15, 2)),
                      expression=np.zeros((15, 1)), raw_labels=raws,
                      gene_names=["g"])
    lm = LabelMap(mapping={r: i % 3 for i, r in enumerate(raws)},
                  class_names=("c0", "c1", "c2"))
    out = bin_labels(table, lm)
    assert set(out.class_ids.tolist()) == {0, 1, 2}


def test_bin_labels_identity_map_unchanged():
    table = small_table()
    lm = LabelMap(mapping={"x": 0, "y": 1}, class_names=("x", "y"))
    out = bin_labels(table, lm)
    assert out.class_ids.tolist() == [0, 1, 0]


def test_bin_labels_counts_group_by_oracle():
    table, lm = synthetic_for_tests()
    out = bin_labels(table, lm)
    raw_counts = {}
    for raw in table.raw_labels:
        raw_counts[raw] = raw_counts.get(raw, 0) + 1
    for c in range(3):
        want = sum(n for raw, n in raw_counts.items() if lm.mapping[raw] == c)
        assert int((out.class_ids == c).sum()) == want


def test_bin_labels_unmapped_label_listed():
    table = small_table()
    lm = LabelMap(mapping={"x": 0}, class_names=("x",))
    with pytest.raises(DataError, match="'y'"):
        bin_labels(table, lm)


def test_filter_then_bin_commutes_with_bin_then_filter():
    table, lm = synthetic_for_tests()
    keep = table.gene_names[::2]
    a = bin_labels(filter_genes(table, keep), lm)
    b = filter_genes(bin_labels(table, lm), keep)
    assert np.array_equal(a.expression, b.expression)
    assert np.array_equal(a.class_ids, b.class_ids)
    assert a.gene_names == b.gene_names


def test_filter_genes_and_bin_labels_share_the_arrays_they_leave_unchanged():
    table, lm = synthetic_for_tests()
    table.sample_order()  # the input's row groups are built; the outputs' are not
    before = copy.deepcopy(table)
    binned = bin_labels(table, lm)
    for shared in ("sample_ids", "positions", "expression", "raw_labels", "gene_names"):
        assert getattr(binned, shared) is getattr(table, shared), shared
    assert binned._groups is None
    kept = table.gene_names[::3]
    filtered = filter_genes(binned, kept)
    for shared in ("sample_ids", "positions", "raw_labels", "class_ids"):
        assert getattr(filtered, shared) is getattr(binned, shared), shared
    assert filtered.gene_names == kept and filtered._groups is None
    assert not np.shares_memory(filtered.expression, binned.expression)
    assert filtered.expression.flags.c_contiguous
    for name in ("sample_ids", "raw_labels", "gene_names"):
        assert getattr(table, name) == getattr(before, name), name
    for name in ("positions", "expression"):
        assert np.array_equal(getattr(table, name), getattr(before, name)), name
    assert table.class_ids is None and table._groups is not None


# ---------------------------------------------------------------------------
# holdout selection


def test_select_holdout_deterministic_per_seed():
    table, _ = synthetic_for_tests()
    a = select_holdout(table, k=2, min_classes=3, seed=9)
    b = select_holdout(table, k=2, min_classes=3, seed=9)
    assert a == b


def test_select_holdout_threshold_error_reports_count():
    table = small_table()  # both samples cover < 5 raw labels
    with pytest.raises(DataError, match="0 sample"):
        select_holdout(table, k=1, min_classes=5, seed=0)


def test_select_holdout_empty_train_guard():
    table, _ = synthetic_for_tests(num_samples=3)
    with pytest.raises(DataError, match="empty training"):
        select_holdout(table, k=3, min_classes=1, seed=0)


def test_select_holdout_no_leakage_and_union():
    table, _ = synthetic_for_tests()
    split = select_holdout(table, k=2, min_classes=3, seed=1)
    train, hold = set(split.train_sample_ids), set(split.holdout_sample_ids)
    assert not train & hold
    assert train | hold == set(table.sample_order())
    assert len(hold) == 2


def test_select_holdout_uniform_over_candidates():
    table, _ = synthetic_for_tests(num_samples=8, spots_per_sample=120)
    counts: dict[str, int] = {}
    trials, k = 50, 2
    for seed in range(trials):
        split = select_holdout(table, k=k, min_classes=3, seed=seed)
        for sid in split.holdout_sample_ids:
            counts[sid] = counts.get(sid, 0) + 1
    n_candidates = 8  # every 120-spot sample covers >= 3 raw labels
    p = k / n_candidates
    expected = trials * p
    sigma = np.sqrt(trials * p * (1 - p))
    for sid in table.sample_order():
        assert abs(counts.get(sid, 0) - expected) <= 3 * sigma


# ---------------------------------------------------------------------------
# graph assembly


def prepared_pair(standardize=False, **over):
    table, lm = synthetic_for_tests(**over)
    table = bin_labels(table, lm)
    split = select_holdout(table, k=2, min_classes=3, seed=0)
    train, hold, scaler = assemble_graphs(table, split, radius=0.25,
                                          standardize=standardize)
    return table, split, train, hold, scaler


def test_assemble_counts_and_multiplicity():
    table, split, train, hold, _ = prepared_pair()
    assert len(train) == 4 and len(hold) == 2
    assert sum(g.num_nodes for g in [*train, *hold]) == table.num_spots
    for g in [*train, *hold]:
        assert g.num_nodes == len(table.rows_for(g.sample_id))
        assert (g.labels < 3).all()


def test_assemble_standardization_contract():
    _table, _split, train, _hold, scaler = prepared_pair(standardize=True)
    feats = np.concatenate([g.node_features for g in train])
    std = feats.std(axis=0)
    nonconst = std > 1e-12
    assert np.abs(feats.mean(axis=0)).max() < 1e-9
    assert np.abs(std[nonconst] - 1.0).max() < 1e-9
    assert scaler is not None and len(scaler["mean"]) == feats.shape[1]


def test_holdout_standardization_reuses_train_stats():
    # holdout = train shifted by a constant: after train-fit scaling the
    # holdout features must sit exactly at shift / train_std
    base = RNG.normal(size=(40, 3))
    shift = 2.5
    table = SpotTable(
        sample_ids=["tr"] * 40 + ["ho"] * 40,
        positions=np.tile(RNG.uniform(size=(40, 2)), (2, 1)),
        expression=np.concatenate([base, base + shift]),
        raw_labels=["x"] * 80,
        gene_names=["g1", "g2", "g3"],
    )
    table.class_ids = np.zeros(80, dtype=np.int64)
    split = DatasetSplit(train_sample_ids=("tr",), holdout_sample_ids=("ho",))
    train, hold, _ = assemble_graphs(table, split, radius=0.2, standardize=True)
    mu, sd = base.mean(axis=0), base.std(axis=0)
    want = (base + shift - mu) / sd
    assert np.allclose(hold[0].node_features, want, atol=1e-12)
    assert np.allclose(train[0].node_features, (base - mu) / sd, atol=1e-12)


def test_assemble_requires_binned_table():
    table, _ = synthetic_for_tests()
    split = select_holdout(table, k=1, min_classes=3, seed=0)
    with pytest.raises(ContractError):
        assemble_graphs(table, split, radius=0.2)


def test_single_spot_sample_kept_with_warning():
    table = SpotTable(
        sample_ids=["a", "b", "b", "b"],
        positions=RNG.uniform(size=(4, 2)),
        expression=RNG.normal(size=(4, 2)),
        raw_labels=["x"] * 4,
        gene_names=["g1", "g2"],
    )
    table.class_ids = np.zeros(4, dtype=np.int64)
    split = DatasetSplit(train_sample_ids=("b",), holdout_sample_ids=("a",))
    with pytest.warns(UserWarning, match="edgeless"):
        _train, hold, _ = assemble_graphs(table, split, radius=0.2)
    assert hold[0].num_nodes == 1 and hold[0].graph.num_edges == 0


# ---------------------------------------------------------------------------
# synthetic generator


def test_synthetic_noise_only_features_uninformative():
    table, lm = generate_synthetic(SyntheticConfig(
        num_samples=10, spots_per_sample=200, num_genes=12,
        expression_mode="noise_only", seed=0))
    table = bin_labels(table, lm)
    worst = 0.0
    for a in range(3):
        for b in range(a + 1, 3):
            xa = table.expression[table.class_ids == a]
            xb = table.expression[table.class_ids == b]
            se = np.sqrt(xa.var(axis=0) / len(xa) + xb.var(axis=0) / len(xb))
            z = np.abs(xa.mean(axis=0) - xb.mean(axis=0)) / se
            worst = max(worst, z.max())
    assert worst < 3.0


def test_zero_separation_equals_noise_only_exactly():
    a, _ = synthetic_for_tests(expression_mode="informative", class_separation=0.0)
    b, _ = synthetic_for_tests(expression_mode="noise_only")
    assert np.array_equal(a.expression, b.expression)
    assert a.raw_labels == b.raw_labels


def test_every_sample_covers_all_classes_over_20_seeds():
    for seed in range(20):
        table, lm = generate_synthetic(SyntheticConfig(
            num_samples=2, spots_per_sample=300, num_genes=4,
            region_seeds_per_class=2, seed=seed))
        table = bin_labels(table, lm)
        for sid in table.sample_order():
            rows = table.rows_for(sid)
            assert set(table.class_ids[rows].tolist()) == {0, 1, 2}


def test_synthetic_determinism():
    a, _ = synthetic_for_tests()
    b, _ = synthetic_for_tests()
    assert np.array_equal(a.expression, b.expression)
    assert np.array_equal(a.positions, b.positions)


def test_synthetic_config_validation():
    for change in ({"expression_mode": "nope"}, {"num_samples": 0},
                   {"noise_scale": float("nan")}, {"noise_scale": float("inf")},
                   {"noise_scale": -0.5}, {"class_separation": float("nan")},
                   {"class_separation": float("-inf")}, {"num_samples": 2.5},
                   {"spots_per_sample": True}, {"num_classes": 3.0}, {"seed": -1},
                   {"seed": 1.5}, {"num_genes": "8"}, {"region_seeds_per_class": None}):
        with pytest.raises(ParameterError):
            SyntheticConfig(**change)
        # replace builds a new config, so it checks too
        with pytest.raises(ParameterError):
            dataclasses.replace(SyntheticConfig(), **change)
    SyntheticConfig(noise_scale=0.0, class_separation=-2.0)  # zero noise, negated patterns


@pytest.mark.parametrize("num_classes", [2, 4])
def test_synthetic_class_count_covers_every_class(num_classes):
    table, lm = synthetic_for_tests(num_classes=num_classes)
    assert lm.class_names == tuple(f"region_{c}" for c in "abcd"[:num_classes])
    table = bin_labels(table, lm)
    for sid in table.sample_order():
        assert set(table.class_ids[table.rows_for(sid)].tolist()) == set(range(num_classes))


@pytest.mark.parametrize("num_classes", [1, 27])
def test_synthetic_class_count_outside_2_to_26_rejected(num_classes):
    with pytest.raises(ParameterError, match="2 to 26"):
        SyntheticConfig(num_classes=num_classes)


def test_spot_table_groups_rows_once_in_file_order():
    table = SpotTable(sample_ids=["b", "a", "b", "c", "a", "b"],
                      positions=np.zeros((6, 2)),
                      expression=np.arange(12.0).reshape(6, 2),
                      raw_labels=["x"] * 6, gene_names=["g1", "g2"])
    assert table.sample_order() == ["b", "a", "c"]
    for sid in ("a", "b", "c", "missing"):
        want = [i for i, s in enumerate(table.sample_ids) if s == sid]
        assert table.rows_for(sid).tolist() == want
        assert table.rows_for(sid).dtype == np.int64
    assert table.rows_for("b") is table.rows_for("b")
    assert not table.rows_for("b").flags.writeable
    mean, std = fit_feature_scaler(table, ["c", "b", "missing"])
    rows = [0, 2, 3, 5]
    assert np.array_equal(mean, table.expression[rows].mean(axis=0))
    assert np.array_equal(std, table.expression[rows].std(axis=0))


# ---------------------------------------------------------------------------
# label map I/O and prepared dataset


def test_label_map_round_trip(tmp_path):
    _, lm = synthetic_for_tests()
    path = tmp_path / "labels.tsv"
    write_label_map(path, lm)
    loaded = load_label_map(path)
    assert loaded == lm


def test_label_map_class_order_by_first_appearance(tmp_path):
    path = tmp_path / "labels.tsv"
    path.write_text("r1\tbeta\nr2\talpha\nr3\tbeta\n")
    lm = load_label_map(path)
    assert lm.class_names == ("beta", "alpha")
    assert lm.mapping == {"r1": 0, "r2": 1, "r3": 0}


def test_label_map_with_one_class_rejected(tmp_path):
    path = tmp_path / "labels.tsv"
    path.write_text("r1\tbeta\nr2\tbeta\n")
    with pytest.raises(DataError, match=r"labels\.tsv: .*at least 2 coarse classes"):
        load_label_map(path)


@pytest.mark.parametrize("reader,text", [
    (load_spot_table, "sample_id,x,y,label,g1\n" + "s,0.5,0.5,r1,1.0\n" * 3000),
    (load_gene_list, "g1\ng2\n"), (load_label_map, "r1\ta\nr2\tb\n"),
    (read_json, '{"a": 1}')])
def test_undecodable_text_is_a_data_error_naming_the_file(tmp_path, reader, text):
    path = tmp_path / "input.txt"
    path.write_text(text)
    reader(path)  # the valid text reads
    path.write_bytes(text.encode() + b"\xff")  # past the reader's first chunk
    with pytest.raises(DataError, match=re.escape(f"{path}: not UTF-8 text")):
        reader(path)


def test_malformed_json_is_a_data_error_naming_the_file(tmp_path):
    path = tmp_path / "doc.json"
    path.write_text("{not json")
    with pytest.raises(DataError, match=re.escape(f"{path}: not JSON")):
        read_json(path)
    path.write_text("[1, 2]")
    assert read_json(path) == [1, 2]


def test_prepared_dataset_round_trip(tmp_path):
    _table, split, train, hold, _ = prepared_pair()
    manifest = {"format_version": PREPARED_VERSION, "radius": 0.25, "seed": 0,
                "split": {"train": list(split.train_sample_ids),
                          "holdout": list(split.holdout_sample_ids)},
                "standardization": None, "class_names": ["a", "b", "c"],
                "gene_names": [f"g{i:03d}" for i in range(10)], "flags": {}}
    save_prepared(tmp_path / "prep", train, hold, manifest)
    train2, hold2, manifest2 = load_prepared(tmp_path / "prep")
    assert manifest2 == manifest
    for before, after in zip([*train, *hold], [*train2, *hold2]):
        assert before.sample_id == after.sample_id
        assert np.array_equal(before.node_features, after.node_features)
        assert np.array_equal(before.graph.positions, after.graph.positions)
        assert np.array_equal(before.graph.edges, after.graph.edges)
        assert np.array_equal(before.graph.layout.neighbours, after.graph.layout.neighbours)
        assert np.array_equal(before.labels, after.labels)


def test_graph_sample_copies_inputs_and_builds_the_radius_graph():
    table, _ = synthetic_for_tests(num_samples=1, spots_per_sample=40)
    features = table.expression.copy()
    positions = table.positions.copy()
    labels = np.arange(40) % 3
    sample = graph_sample("s00", features, positions, labels, 0.3)
    want = build_radius_graph(positions, 0.3)
    assert np.array_equal(sample.graph.edges, want.edges)
    assert np.array_equal(sample.graph.layout.neighbours, want.layout.neighbours)
    assert sample.graph.radius == 0.3
    assert sample.labels.dtype == np.int64
    features[:] = 0.0
    positions[:] = 0.0
    labels[:] = 0
    assert np.array_equal(sample.node_features, table.expression)
    assert np.array_equal(sample.graph.positions, table.positions)
    assert np.array_equal(sample.labels, np.arange(40) % 3)


def test_prepared_dataset_bytes_deterministic(tmp_path):
    for name in ("one", "two"):
        _table, split, train, hold, _ = prepared_pair()
        manifest = {"split": {"train": list(split.train_sample_ids),
                              "holdout": list(split.holdout_sample_ids)}}
        save_prepared(tmp_path / name, train, hold, manifest)
    files = sorted(p.name for p in (tmp_path / "one").iterdir())
    assert files == sorted(p.name for p in (tmp_path / "two").iterdir())
    for name in files:
        assert (tmp_path / "one" / name).read_bytes() == \
            (tmp_path / "two" / name).read_bytes()


def test_save_prepared_bytes_do_not_depend_on_the_clock(tmp_path, monkeypatch):
    # zip members may carry a write time: a day later, the same samples
    # must still give the same bytes
    _table, split, train, hold, _ = prepared_pair()
    manifest = {"split": {"train": list(split.train_sample_ids),
                          "holdout": list(split.holdout_sample_ids)}}
    save_prepared(tmp_path / "now", train, hold, manifest)
    later = time.time() + 86400.0
    monkeypatch.setattr(time, "time", lambda: later)
    save_prepared(tmp_path / "later", train, hold, manifest)
    names = sorted(p.name for p in (tmp_path / "now").iterdir())
    assert names == sorted(["manifest.json", *(f"{sid}.npz" for sid in
                                               [*split.train_sample_ids,
                                                *split.holdout_sample_ids])])
    for name in names:
        assert (tmp_path / "now" / name).read_bytes() == \
            (tmp_path / "later" / name).read_bytes(), name


@given(st.integers(0, 10 ** 6))
@settings(max_examples=15, deadline=None)
def test_split_never_leaks(seed):
    table, _ = synthetic_for_tests()
    split = select_holdout(table, k=2, min_classes=1, seed=seed)
    assert not set(split.train_sample_ids) & set(split.holdout_sample_ids)
