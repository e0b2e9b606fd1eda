"""Spot ingestion, gene filtering, label binning, splitting and graph assembly.

File contracts:

* Spot CSV: header ``sample_id,x,y,label,<gene1>,<gene2>,...``, UTF-8,
  ``.`` decimal, one spot per row; x, y and expression values must be
  finite (``nan`` and ``inf`` are rejected with their line number).
* Gene list: plain text, one gene name per line.
* Label map: two-column TSV ``raw_label<TAB>coarse_class_name`` with at
  least 2 coarse classes; coarse class order is defined by first
  appearance.
* Prepared dataset (format version ``PREPARED_VERSION``): a directory
  with ``manifest.json`` plus one uncompressed ``<sample_id>.npz`` per
  sample holding ``sample_id`` (a 0-d string array), ``positions``
  (n x 2 float64), ``features`` (n x genes float64) and ``labels`` (n
  int64). No edges are stored: every graph is rebuilt on load from its
  positions and the manifest's ``radius``, which then owns them
  (``sample.graph.positions``); a caller that needs one split part only
  (``eval``: the holdout) loads and builds that part alone. Directories
  written by an earlier format version are refused; re-run ``stgno
  prepare``. A sample file that cannot be read as an npz archive, or any
  other malformed content (see :func:`load_prepared`), is a DataError
  naming the file and the key.
* Preprocess block: the manifest's ``PREPROCESS_KEYS`` (gene names,
  radius, scaler, class names), which ``train`` copies into every
  checkpoint for ``predict`` to replay. Both files hold every key;
  :func:`check_preprocess` checks them in both on load, and
  :func:`numeric_array` is the one check of an array read back from JSON
  (checkpoint parameters, scaler statistics).

Every text file is read as UTF-8; an undecodable byte is a DataError
naming the file.

The pipeline is deterministic: the same (file, flags, seed) produces a
bit-identical prepared dataset. A :class:`SyntheticConfig` is checked when
built (by ``replace`` too), as the model and training configs are.
"""

from __future__ import annotations

import array
import collections
import csv
import itertools
import operator
import re
import sys
import warnings
import zipfile
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .errors import ContractError, DataError, ParameterError
from .geometry import RadiusGraph, build_radius_graph
from .ioutil import (atomic_write_text, atomic_writer, dump_json, open_text, read_json,
                     read_text)
from .models import _check_counts, _is_int_at_least

PREPARED_VERSION = 3
# what predict replays of prepare; the manifest's are copied to each checkpoint
PREPROCESS_KEYS = ("gene_names", "radius", "standardization", "class_names")
EXPRESSION_MODES = ("informative", "noise_only")  # see generate_synthetic

_REQUIRED_COLUMNS = ("sample_id", "x", "y", "label")
_SAMPLE_ID_RE = re.compile(r"^[A-Za-z0-9_.-]+$")
# the arrays of a prepared sample file besides its id: key, dtype, ndim
_SAMPLE_ARRAYS = (("features", np.float64, 2), ("positions", np.float64, 2),
                  ("labels", np.int64, 1))


@dataclass
class SpotTable:
    """Raw ingested spots; ``class_ids`` is populated by :func:`bin_labels`.
    Rows are grouped by sample id once, on first use."""

    sample_ids: list[str]
    positions: np.ndarray        # (n, 2)
    expression: np.ndarray       # (n, num_genes)
    raw_labels: list[str]
    gene_names: list[str]
    class_ids: np.ndarray | None = None
    _groups: dict | None = field(default=None, init=False, repr=False, compare=False)

    @property
    def num_spots(self) -> int:
        return len(self.sample_ids)

    def _grouped(self) -> dict[str, np.ndarray]:
        """Sample id -> its read-only row indices, both in file order."""
        if self._groups is None:
            rows: dict[str, list[int]] = {}
            for i, sid in enumerate(self.sample_ids):
                rows.setdefault(sid, []).append(i)
            self._groups = {sid: np.array(r, dtype=np.int64) for sid, r in rows.items()}
            for r in self._groups.values():
                r.flags.writeable = False
        return self._groups

    def sample_order(self) -> list[str]:
        """Distinct sample ids in first-appearance order."""
        return list(self._grouped())

    def rows_for(self, sample_id: str) -> np.ndarray:
        return self._grouped().get(sample_id, np.zeros(0, dtype=np.int64))


@dataclass(frozen=True)
class LabelMap:
    mapping: dict[str, int]
    class_names: tuple[str, ...]

    def validate(self) -> None:
        used = set(self.mapping.values())
        if used != set(range(len(self.class_names))):
            raise DataError(
                f"label map classes are not dense 0..{len(self.class_names) - 1}: "
                f"{sorted(used)}")


@dataclass(frozen=True)
class DatasetSplit:
    train_sample_ids: tuple[str, ...]
    holdout_sample_ids: tuple[str, ...]


@dataclass(eq=False)
class GraphSample:
    """One tissue slide as a graph."""

    sample_id: str
    node_features: np.ndarray    # (n, d)
    graph: RadiusGraph           # owns the (n, 2) spot positions
    labels: np.ndarray           # (n,) class indices

    @property
    def num_nodes(self) -> int:
        return self.node_features.shape[0]


@dataclass(frozen=True)
class SyntheticConfig:
    num_samples: int = 20
    spots_per_sample: int = 300
    num_genes: int = 32
    num_classes: int = 3
    region_seeds_per_class: int = 4
    expression_mode: str = "informative"
    class_separation: float = 1.0
    noise_scale: float = 1.0
    seed: int = 0

    def __post_init__(self) -> None:
        _check_counts(self, (("num_samples", 1), ("spots_per_sample", 1), ("num_genes", 1),
                             ("region_seeds_per_class", 1), ("seed", 0)))
        if not (_is_int_at_least(self.num_classes, 2) and self.num_classes <= 26):
            raise ParameterError(
                f"synthetic class count must be 2 to 26 (one letter each), "
                f"got {self.num_classes!r}")
        if self.expression_mode not in EXPRESSION_MODES:
            raise ParameterError(
                f"expression_mode must be one of {', '.join(EXPRESSION_MODES)}, "
                f"got {self.expression_mode!r}")
        if not (np.isfinite(self.class_separation) and 0 <= self.noise_scale < np.inf):
            raise ParameterError("class_separation must be finite and noise_scale finite "
                                 f"and >= 0, got {self.class_separation}, {self.noise_scale}")


# ---------------------------------------------------------------------------
# ingestion


def load_spot_table(path, gene_names=None) -> SpotTable:
    """Parse a spot CSV; errors carry the offending 1-based line number.

    With ``gene_names``, only x, y and the columns of the listed genes that
    the header has are parsed (in header order); values in the other gene
    columns are not read, so they are not checked either. Every row must
    still have the header's field count."""
    path = Path(path)
    with open_text(path) as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"{path}: empty file") from None
        for i, col in enumerate(_REQUIRED_COLUMNS):
            if i >= len(header) or header[i] != col:
                raise DataError(
                    f"{path}:1: missing or misplaced required column {col!r} "
                    f"(header must start with {','.join(_REQUIRED_COLUMNS)})")
        columns = range(4, len(header))
        if gene_names is not None:
            # a repeated header name reads its last column, as filter_genes does
            index = {g: i for i, g in enumerate(header[4:], start=4)}
            wanted = set(gene_names)
            columns = sorted(i for g, i in index.items() if g in wanted)
        kept = [header[i] for i in columns]
        numeric = operator.itemgetter(1, 2, *columns)
        width = len(header)
        sample_ids: list[str] = []
        raw_labels: list[str] = []
        # packed doubles: a list of Python floats takes about 4x the memory
        values = array.array("d")
        for lineno, row in enumerate(reader, start=2):
            if len(row) != width:
                raise DataError(
                    f"{path}:{lineno}: expected {width} fields, got {len(row)}")
            if not row[0]:
                raise DataError(f"{path}:{lineno}: empty sample_id")
            try:
                values.extend(map(float, numeric(row)))
            except ValueError as exc:
                raise DataError(f"{path}:{lineno}: non-numeric value ({exc})") from None
            sample_ids.append(row[0])
            raw_labels.append(row[3])
    values = np.frombuffer(values, dtype=np.float64).reshape(-1, 2 + len(kept))
    finite = np.isfinite(values).all(axis=1)
    if not finite.all():
        raise DataError(f"{path}:{int(np.argmin(finite)) + 2}: non-finite value "
                        "(nan or inf) in x, y or expression")
    return SpotTable(sample_ids=sample_ids, positions=values[:, :2].copy(),
                     expression=values[:, 2:].copy(), raw_labels=raw_labels,
                     gene_names=kept)


def write_spot_table(path, table: SpotTable) -> None:
    rows = [["sample_id", "x", "y", "label", *table.gene_names]]
    for i in range(table.num_spots):
        rows.append([table.sample_ids[i],
                     repr(float(table.positions[i, 0])),
                     repr(float(table.positions[i, 1])),
                     table.raw_labels[i],
                     *[repr(float(v)) for v in table.expression[i]]])
    out = "\n".join(",".join(r) for r in rows) + "\n"
    atomic_write_text(path, out)


def load_gene_list(path) -> list[str]:
    names = [line.strip() for line in read_text(path).splitlines()]
    names = [n for n in names if n]
    if not names:
        raise DataError(f"{path}: gene list is empty")
    return names


def load_label_map(path) -> LabelMap:
    mapping: dict[str, int] = {}
    class_names: list[str] = []
    for lineno, line in enumerate(read_text(path).splitlines(), start=1):
        if not line.strip():
            continue
        parts = line.split("\t")
        if len(parts) != 2:
            raise DataError(f"{path}:{lineno}: expected 'raw_label<TAB>class_name'")
        raw, cls = parts[0].strip(), parts[1].strip()
        if cls not in class_names:
            class_names.append(cls)
        if raw in mapping:
            raise DataError(f"{path}:{lineno}: duplicate raw label {raw!r}")
        mapping[raw] = class_names.index(cls)
    if len(class_names) < 2:
        raise DataError(f"{path}: label map needs at least 2 coarse classes, "
                        f"got {len(class_names)}")
    lm = LabelMap(mapping=mapping, class_names=tuple(class_names))
    lm.validate()
    return lm


def write_label_map(path, label_map: LabelMap) -> None:
    lines = [f"{raw}\t{label_map.class_names[idx]}"
             for raw, idx in label_map.mapping.items()]
    atomic_write_text(path, "\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# pipeline operations


def filter_genes(table: SpotTable, gene_list: list[str]) -> SpotTable:
    """Restrict expression to the listed genes, in list order (the result
    shares every other field with ``table``).

    Genes missing from the table are dropped from the list with a warning;
    zero overlap is an error.
    """
    if not gene_list:
        raise ParameterError("gene list must be non-empty")
    index = {g: i for i, g in enumerate(table.gene_names)}
    kept = [g for g in gene_list if g in index]
    missing = len(gene_list) - len(kept)
    if missing:
        warnings.warn(f"{missing} listed gene(s) not present in the table; skipped",
                      stacklevel=2)
    if not kept:
        raise DataError("no listed gene is present in the table (empty feature set)")
    cols = np.array([index[g] for g in kept], dtype=np.int64)
    return replace(table, expression=table.expression.take(cols, axis=1), gene_names=kept)


def bin_labels(table: SpotTable, label_map: LabelMap) -> SpotTable:
    """Attach coarse class indices from the raw-label map (must be total),
    sharing every other field with ``table``."""
    label_map.validate()
    unmapped = sorted(set(table.raw_labels) - set(label_map.mapping))
    if unmapped:
        raise DataError(f"raw label(s) missing from the label map: {unmapped}")
    class_ids = np.array([label_map.mapping[l] for l in table.raw_labels],
                         dtype=np.int64)
    return replace(table, class_ids=class_ids)


def select_holdout(table: SpotTable, k: int, min_classes: int, seed: int) -> DatasetSplit:
    """Hold out k samples drawn uniformly from those whose spots cover at
    least ``min_classes`` distinct raw labels (thresholded pre-binning)."""
    if k < 1:
        raise ParameterError("holdout size k must be >= 1")
    order = table.sample_order()
    distinct: dict[str, set[str]] = {sid: set() for sid in order}
    for sid, raw in zip(table.sample_ids, table.raw_labels):
        distinct[sid].add(raw)
    candidates = [sid for sid in order if len(distinct[sid]) >= min_classes]
    if len(candidates) < k:
        raise DataError(
            f"only {len(candidates)} sample(s) cover >= {min_classes} raw labels; "
            f"cannot hold out {k}")
    rng = np.random.default_rng(seed)
    chosen = rng.choice(len(candidates), size=k, replace=False)
    holdout = {candidates[i] for i in chosen}
    train = [sid for sid in order if sid not in holdout]
    if not train:
        raise DataError("holdout selection leaves an empty training set")
    return DatasetSplit(train_sample_ids=tuple(sorted(train)),
                        holdout_sample_ids=tuple(sorted(holdout)))


def fit_feature_scaler(table: SpotTable, train_sample_ids) -> tuple[np.ndarray, np.ndarray]:
    """Per-gene mean/std over training spots; zero-variance genes keep std 1."""
    train = np.zeros(table.num_spots, dtype=bool)
    for sid in set(train_sample_ids):
        train[table.rows_for(sid)] = True
    rows = np.flatnonzero(train)
    if rows.size == 0:
        raise DataError("no training spots to fit the feature scaler on")
    sub = table.expression[rows]
    mean = sub.mean(axis=0)
    std = sub.std(axis=0, ddof=0)
    std = np.where(std > 0.0, std, 1.0)
    return mean, std


def graph_sample(sample_id: str, features, positions, labels,
                 radius: float) -> GraphSample:
    """One slide as a graph: copies of its arrays plus the radius graph of
    its positions, which keeps its own copy of them. Every GraphSample is
    built here."""
    return GraphSample(
        sample_id=sample_id,
        node_features=np.array(features, dtype=np.float64),
        graph=build_radius_graph(positions, radius),
        labels=np.array(labels, dtype=np.int64),
    )


def assemble_graphs(table: SpotTable, split: DatasetSplit, radius: float,
                    standardize: bool = False):
    """Build one GraphSample per sample id.

    Node order is the stable file order within each sample. When
    ``standardize`` is set, features are z-scored per gene with statistics
    fit on training spots only (holdout reuses them). Returns
    (train_graphs, holdout_graphs, scaler) where scaler is
    ``{"mean": [...], "std": [...]}`` or None.
    """
    if table.class_ids is None:
        raise ContractError("table must be binned before graph assembly")
    all_ids = set(split.train_sample_ids) | set(split.holdout_sample_ids)
    present = set(table.sample_order())
    if all_ids != present:
        raise ContractError("split sample ids do not match the table")

    features = table.expression
    scaler = None
    if standardize:
        mean, std = fit_feature_scaler(table, split.train_sample_ids)
        features = (features - mean) / std
        scaler = {"mean": mean.tolist(), "std": std.tolist()}

    def build(sample_ids) -> list[GraphSample]:
        out = []
        for sid in sample_ids:
            rows = table.rows_for(sid)
            if rows.size < 2:
                warnings.warn(f"sample {sid!r} has {rows.size} spot(s); "
                              "kept as an edgeless graph", stacklevel=2)
            out.append(graph_sample(sid, features[rows], table.positions[rows],
                                    table.class_ids[rows], radius))
        return out

    return build(split.train_sample_ids), build(split.holdout_sample_ids), scaler


# ---------------------------------------------------------------------------
# synthetic data


def synthetic_class_names(num_classes: int) -> tuple[str, ...]:
    return tuple(f"region_{chr(ord('a') + i)}" for i in range(num_classes))


def generate_synthetic(config: SyntheticConfig) -> tuple[SpotTable, LabelMap]:
    """Desk-scale synthetic slides with spatially contiguous class regions.

    One fixed layout of ``num_classes * region_seeds_per_class`` sites is
    drawn per dataset (round-robin class assignment), shared by every
    sample; each spot's raw label is its nearest site, so binning the
    site labels recovers the class regions. Positions are uniform in the
    unit square. In ``informative`` mode expression is the class pattern
    (entries +-class_separation) plus Gaussian noise; in ``noise_only``
    mode it is pure noise, so labels depend on position alone. Per-sample
    streams are split off the root seed, one generator per sample.
    """
    seeds = np.random.SeedSequence(config.seed).spawn(config.num_samples + 1)
    root = np.random.default_rng(seeds[0])
    num_sites = config.num_classes * config.region_seeds_per_class
    sites = root.uniform(size=(num_sites, 2))
    site_class = np.arange(num_sites, dtype=np.int64) % config.num_classes
    patterns = root.choice([-1.0, 1.0], size=(config.num_classes, config.num_genes))

    gene_names = [f"g{g:03d}" for g in range(config.num_genes)]
    sample_ids: list[str] = []
    raw_labels: list[str] = []
    positions = []
    expression = []
    for s in range(config.num_samples):
        rng = np.random.default_rng(seeds[s + 1])
        sid = f"s{s:02d}"
        pos = rng.uniform(size=(config.spots_per_sample, 2))
        d2 = ((pos[:, None, :] - sites[None, :, :]) ** 2).sum(axis=2)
        nearest = d2.argmin(axis=1)
        expr = rng.standard_normal((config.spots_per_sample, config.num_genes))
        expr *= config.noise_scale
        if config.expression_mode == "informative":
            expr += config.class_separation * patterns[site_class[nearest]]
        positions.append(pos)
        expression.append(expr)
        sample_ids.extend([sid] * config.spots_per_sample)
        raw_labels.extend(f"site_{i:02d}" for i in nearest)

    class_names = synthetic_class_names(config.num_classes)
    label_map = LabelMap(
        mapping={f"site_{i:02d}": int(site_class[i]) for i in range(num_sites)},
        class_names=class_names,
    )
    table = SpotTable(
        sample_ids=sample_ids,
        positions=np.concatenate(positions, axis=0),
        expression=np.concatenate(expression, axis=0),
        raw_labels=raw_labels,
        gene_names=gene_names,
    )
    return table, label_map


# ---------------------------------------------------------------------------
# prepared-dataset directory


def save_prepared(out_dir, train: list[GraphSample], holdout: list[GraphSample],
                  manifest: dict) -> None:
    """Every id is checked before the first write, so a refused dataset
    leaves ``out_dir`` as it was. The same samples give the same bytes."""
    samples = [*train, *holdout]
    for sample in samples:
        if not _SAMPLE_ID_RE.match(sample.sample_id):
            raise DataError(
                f"sample id {sample.sample_id!r} is not filesystem-safe")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for sample in samples:
        # np.savez dates every zip entry 1980-01-01, so no clock reaches the bytes
        with atomic_writer(out_dir / f"{sample.sample_id}.npz") as fh:
            np.savez(fh, sample_id=np.array(sample.sample_id),
                     positions=sample.graph.positions, features=sample.node_features,
                     labels=sample.labels)
    atomic_write_text(out_dir / "manifest.json",
                      dump_json({**manifest, "format_version": PREPARED_VERSION}))


def _is_name_list(value) -> bool:
    return isinstance(value, list) and all(isinstance(v, str) for v in value)


def numeric_array(value, ndim: int) -> np.ndarray | None:
    """Nested JSON lists (a checkpoint parameter or scaler statistic) as a
    float64 array of exactly ``ndim`` dimensions and finite values, or None
    when they are ragged or hold anything else: a string, a bool or a
    non-finite number."""
    try:
        arr = np.array(value)
    except ValueError:  # ragged nesting
        return None
    if arr.ndim != ndim or (arr.size and arr.dtype.kind not in "iuf"):
        return None
    flat = value  # numpy reads a bool among numbers as 1 or 0
    for _ in range(ndim - 1):
        flat = itertools.chain.from_iterable(flat)
    if bool in set(map(type, flat)):  # hashing each type beats comparing it to bool
        return None
    arr = arr.astype(np.float64, copy=False)
    return arr if np.isfinite(arr).all() else None


def check_preprocess(doc: dict, where, error) -> None:
    """Check that ``doc`` (a manifest or a checkpoint's preprocess block)
    holds every PREPROCESS_KEYS key: lists of strings for names (at least 1
    gene and 2 classes), a positive finite radius, a null scaler or a
    ``mean`` and a ``std`` > 0 of one finite number per gene each. A missing
    key or a fault raises ``error`` naming ``where(key)``."""
    for key in PREPROCESS_KEYS:
        if key not in doc:
            raise error(f"{where(key)} is missing")
    for key, least in (("gene_names", 1), ("class_names", 2)):
        if not (_is_name_list(doc[key]) and len(doc[key]) >= least):
            raise error(f"{where(key)} must be a list of at least {least} names (strings)")
    radius = doc["radius"]  # an int past the float range would not convert
    if isinstance(radius, bool) or not isinstance(
            radius, (int, float)) or not 0 < radius <= sys.float_info.max:
        raise error(f"{where('radius')} must be a positive finite number, got {radius!r}")
    scaler, num_genes = doc["standardization"], len(doc["gene_names"])
    for key in ("mean", "std") if scaler is not None else ():
        arr = numeric_array(scaler.get(key) if isinstance(scaler, dict) else None, 1)
        if arr is None or arr.shape != (num_genes,) or (key == "std" and not (arr > 0).all()):
            raise error(f"{where('standardization.' + key)} must hold {num_genes} finite "
                        f"numbers{' > 0' if key == 'std' else ''}, one per gene")


def _read_npz(path) -> dict[str, np.ndarray]:
    """Every array of the npz archive at ``path`` by key. A missing file is
    an OSError; any other file that does not read as a zip archive of plain
    arrays (empty, truncated, a single array, text, object data) is a
    DataError naming it."""
    with open(path, "rb") as fh:
        if fh.read(4) != b"PK\x03\x04":  # what np.load takes for a zip; else npy or pickle
            raise DataError(f"{path}: not an .npz archive")
        fh.seek(0)
        try:
            with np.load(fh, allow_pickle=False) as archive:
                # a member not named *.npy reads as bytes
                return {key: np.asarray(archive[key]) for key in archive.files}
        except (ValueError, zipfile.BadZipFile) as exc:
            raise DataError(f"{path}: not a readable .npz archive ({exc})") from None


def load_prepared(data_dir, parts=("train", "holdout")):
    """Read a prepared dataset directory -> (train, holdout, manifest),
    rebuilding each slide's graph at the manifest radius. Only the split
    parts named in ``parts`` are read and built; any other is None. The
    manifest and its split are checked in full either way. Malformed
    content raises a DataError naming the file and the key."""
    data_dir = Path(data_dir)
    manifest_path = data_dir / "manifest.json"
    if not manifest_path.exists():
        raise DataError(f"{data_dir}: not a prepared dataset (no manifest.json)")
    manifest = read_json(manifest_path)
    if not isinstance(manifest, dict):
        raise DataError(f"{manifest_path}: must hold a JSON object")
    version = manifest.get("format_version")
    if version != PREPARED_VERSION:
        raise DataError(
            f"{data_dir}: prepared format version {version!r}, expected "
            f"{PREPARED_VERSION}; re-run stgno prepare")
    check_preprocess(manifest, lambda key: f"{manifest_path}: {key!r}", DataError)
    radius, split = manifest["radius"], manifest.get("split")
    if not (isinstance(split, dict) and all(
            _is_name_list(split.get(part)) and split[part]
            and all(map(_SAMPLE_ID_RE.match, split[part])) for part in ("train", "holdout"))):
        raise DataError(f"{manifest_path}: 'split' must map 'train' and 'holdout' "
                        "to non-empty lists of sample ids")
    counts = collections.Counter([*split["train"], *split["holdout"]])
    repeated = sorted(sid for sid, count in counts.items() if count > 1)
    if repeated:
        raise DataError(f"{manifest_path}: 'split' names {repeated} more than once")
    num_genes, num_classes = len(manifest["gene_names"]), len(manifest["class_names"])

    def read_sample(sid) -> GraphSample:
        path = data_dir / f"{sid}.npz"
        arrays = _read_npz(path)
        for key in ("sample_id", "positions", "features", "labels"):
            if key not in arrays:
                raise DataError(f"{path}: no {key!r}; re-run stgno prepare")
        stored_id = arrays["sample_id"]
        if not (stored_id.dtype.kind == "U" and stored_id.shape == ()
                and stored_id.item() == sid):
            raise DataError(f"{path}: 'sample_id' is {stored_id.tolist()!r}, the "
                            f"manifest's split names {sid!r}")
        for key, dtype, ndim in _SAMPLE_ARRAYS:
            arr = arrays[key]
            if arr.dtype != dtype:
                raise DataError(f"{path}: {key!r} must be {np.dtype(dtype)}, "
                                f"got {arr.dtype}")
            if arr.ndim != ndim or not np.isfinite(arr).all():
                raise DataError(f"{path}: {key!r} must be a {ndim}-D array of finite "
                                f"{'integers' if key == 'labels' else 'numbers'}")
        features, positions, labels = (arrays[key] for key, _, _ in _SAMPLE_ARRAYS)
        n, width = features.shape
        if width != num_genes:
            raise DataError(f"{path}: 'features' has {width} columns, the manifest "
                            f"lists {num_genes} genes")
        if positions.shape != (n, 2):
            raise DataError(f"{path}: 'positions' has shape {positions.shape} for "
                            f"{n} spots")
        if labels.shape != (n,):
            raise DataError(f"{path}: 'labels' has {labels.size} entries for {n} spots")
        if n and not 0 <= labels.min() <= labels.max() < num_classes:
            raise DataError(f"{path}: 'labels' must lie in [0, {num_classes}) for "
                            f"{num_classes} classes, got {labels.min()}..{labels.max()}")
        return graph_sample(sid, features, positions, labels, radius)

    train, holdout = ([read_sample(sid) for sid in split[part]] if part in parts else None
                      for part in ("train", "holdout"))
    return train, holdout, manifest
