"""Dataset ingestion and synthetic generation.

A labeled dataset is a finite-support distribution: points within
``MAGNITUDE_LIMIT``, integer labels 0..K-1 with a point in every class, and
positive masses summing to one. Loaders produce the empirical distribution
of the file (uniform mass per row, exact duplicate rows merged), and the
Gaussian generator uses a counter-based PRNG (Philox) with a documented
sampling order so fixtures are portable.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass

import numpy as np

from .hypergraph import MAGNITUDE_LIMIT, _is_integer

__all__ = [
    "LabeledDataset",
    "from_arrays",
    "load_csv",
    "load_idx",
    "subset",
    "gen_gaussian",
    "dataset_to_json",
    "dataset_from_json",
]

_MASS_TOL = 1e-9


def _integer_labels(labels) -> np.ndarray:
    """``labels`` as an int array; a ValueError unless each one is an integer."""
    labels = np.asarray(labels)
    with np.errstate(invalid="ignore"):  # NaN and inf cast to garbage, rejected below
        ints = labels.astype(int)
    if not np.array_equal(ints, labels):
        raise ValueError("labels must be integers")
    return ints


@dataclass
class LabeledDataset:
    points: np.ndarray
    labels: np.ndarray
    masses: np.ndarray
    class_names: list[str] | None = None
    provenance: str = ""

    def __post_init__(self):
        self.points = np.atleast_2d(np.asarray(self.points, dtype=float))
        self.labels = _integer_labels(self.labels)
        self.masses = np.asarray(self.masses, dtype=float)
        n = self.points.shape[0]
        if n < 1 or self.points.shape[1] < 1:
            raise ValueError("dataset needs at least one point with at least one feature")
        if self.labels.shape != (n,) or self.masses.shape != (n,):
            raise ValueError("points, labels and masses must agree in length")
        # a NaN fails it too; min and max allocate no temporary
        if not (-MAGNITUDE_LIMIT <= self.points.min() and self.points.max() <= MAGNITUDE_LIMIT):
            raise ValueError("points must be finite and within MAGNITUDE_LIMIT = 2^200")
        # NaN would pass a "<= 0" test and the sum test alike
        if not np.all(np.isfinite(self.masses) & (self.masses > 0)):
            raise ValueError("masses must be finite and positive")
        if abs(self.masses.sum() - 1.0) > _MASS_TOL:
            raise ValueError(f"masses sum to {self.masses.sum()!r}, expected 1")
        # np.unique, not np.bincount: a label of 10**12 must not size an array
        classes = np.unique(self.labels)
        if classes[0] < 0:
            raise ValueError("labels must be nonnegative")
        missing = np.flatnonzero(classes != np.arange(classes.size))
        if missing.size:
            raise ValueError(f"labels must be 0..K-1 with a point in every class: "
                             f"class {missing[0]} has none")
        names = self.class_names
        if names is not None:
            if not (isinstance(names, list) and all(isinstance(c, str) for c in names)):
                raise ValueError(f"class_names must be a list of strings, got {names!r}")
            if len(names) != classes.size:
                raise ValueError(f"class_names has length {len(names)}, "
                                 f"labels have {classes.size} classes")

    @property
    def num_points(self) -> int:
        return self.points.shape[0]

    @property
    def dimension(self) -> int:
        return self.points.shape[1]

    @property
    def num_classes(self) -> int:
        return int(self.labels.max()) + 1

    def class_priors(self) -> np.ndarray:
        return np.bincount(self.labels, self.masses)


def from_arrays(points, labels, masses=None, class_names=None,
                provenance: str = "arrays", merge_duplicates: bool = True) -> LabeledDataset:
    """Build a dataset from raw arrays.

    With no masses given, rows get uniform mass 1/n. Exact duplicate
    (point, label) rows are merged with summed mass; identical points under
    different labels stay distinct vertices. Labels are remapped to
    0..K-1 in sorted order of the distinct raw labels, recorded in
    ``class_names`` unless explicit names are provided.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    labels = np.asarray(labels)
    n = points.shape[0]
    if n == 0 or labels.shape[0] == 0:
        raise ValueError("dataset needs at least one point")
    if masses is None:
        masses = np.full(n, 1.0 / n)

    raw_classes, labels = np.unique(labels, return_inverse=True)
    if np.any(raw_classes != raw_classes):  # np.unique merges NaNs into one class
        raise ValueError("labels must not be NaN")
    if class_names is None:
        class_names = [str(c) for c in raw_classes.tolist()]

    # checked before the merge, which stacks points and labels side by side
    dataset = LabeledDataset(points, labels, masses, class_names, provenance)
    if merge_duplicates:
        rows = np.column_stack([points, labels.astype(float)])
        _, first, inverse = np.unique(rows, axis=0, return_index=True, return_inverse=True)
        if first.shape[0] < n:
            merged_mass = np.zeros(first.shape[0])
            np.add.at(merged_mass, inverse, dataset.masses)
            order = np.argsort(first)  # keep file order
            first = first[order]
            dataset = LabeledDataset(points[first], labels[first], merged_mass[order],
                                     class_names, provenance)
    return dataset


def _from_file(source: str, normalization: str, read) -> LabeledDataset:
    """The dataset of ``read()``'s (features, labels), normalized, with the
    normalization and the features' scale after ``source`` in its provenance.
    An unknown normalization is rejected before ``read`` runs."""
    if normalization not in ("none", "divide-255"):
        raise ValueError(f"unknown normalization {normalization!r}")
    features, labels = read()
    if normalization == "divide-255":
        features = features / 255.0
    top = float(np.abs(features).max())
    scale = "unit" if top <= 1.0 + 1e-12 else f"raw(max={top:g})"
    return from_arrays(features, labels,
                       provenance=f"{source}(normalization={normalization},scale={scale})")


def load_csv(path, normalization: str = "none") -> LabeledDataset:
    """Read a numeric CSV of a label column (the first) plus feature columns.

    ``normalization`` is "none" or "divide-255". Masses are uniform over the
    file rows before duplicate merging, so a row appearing twice yields one
    vertex with twice the mass.
    """
    def read():
        try:
            with warnings.catch_warnings():
                warnings.filterwarnings("ignore", message=".*no data.*")
                table = np.loadtxt(path, delimiter=",", dtype=float, ndmin=2)
        except ValueError as exc:
            raise ValueError(f"failed to parse CSV {path}: {exc}") from exc
        if table.size == 0:
            raise ValueError(f"empty CSV file: {path}")
        if table.shape[1] < 2:
            raise ValueError("CSV needs a label column and at least one feature column")
        return table[:, 1:], _integer_labels(table[:, 0])

    return _from_file(f"csv:{path}", normalization, read)


def _read_idx(path) -> np.ndarray:
    """Parse a big-endian IDX file into a numpy array."""
    with open(path, "rb") as handle:
        raw = handle.read()
    if len(raw) < 4 or raw[0] != 0 or raw[1] != 0:
        raise ValueError(f"not an IDX file: {path}")
    dtype_code, ndim = raw[2], raw[3]
    dtypes = {0x08: np.uint8, 0x09: np.int8, 0x0B: ">i2", 0x0C: ">i4",
              0x0D: ">f4", 0x0E: ">f8"}
    if dtype_code not in dtypes:
        raise ValueError(f"unsupported IDX dtype code 0x{dtype_code:02x}")
    header = 4 + 4 * ndim
    dims = [int.from_bytes(raw[4 + 4 * i: 8 + 4 * i], "big") for i in range(ndim)]
    data = np.frombuffer(raw, dtype=dtypes[dtype_code], offset=header)
    expected = int(np.prod(dims))
    if data.size != expected:
        raise ValueError(f"IDX payload size {data.size} != header says {expected}")
    return data.reshape(dims)


def load_idx(images_path, labels_path, normalization: str = "none") -> LabeledDataset:
    """Read an IDX image/label file pair (MNIST binary layout, big-endian)."""
    def read():
        images = _read_idx(images_path).astype(float)
        labels = _read_idx(labels_path).astype(int)
        if images.shape[0] != labels.shape[0]:
            raise ValueError("image and label counts differ")
        return images.reshape(images.shape[0], -1), labels

    return _from_file(f"idx:{images_path}", normalization, read)


def subset(dataset: LabeledDataset, classes, per_class_cap: int | None = None) -> LabeledDataset:
    """Restrict to the given classes, keeping the first ``per_class_cap``
    vertices of each class in file order; masses become uniform.

    ``classes`` are integer label ids of the dataset (0..K-1), each once.
    """
    classes = list(classes)
    if not classes:
        raise ValueError("empty class list")
    if per_class_cap is not None and not _is_integer(per_class_cap):
        raise ValueError(f"per-class cap {per_class_cap!r} is not an integer")
    if per_class_cap is not None and per_class_cap < 1:
        raise ValueError(f"per-class cap must be at least 1, got {per_class_cap}")
    k = dataset.num_classes
    for i, c in enumerate(classes):
        if not _is_integer(c):
            raise ValueError(f"class {c!r} is not an integer class id")
        if c < 0 or c >= k:
            raise ValueError(f"class {c} not present (dataset has {k} classes)")
        if c in classes[:i]:
            raise ValueError(f"class {c} is listed more than once")
    keep: list[int] = []
    for c in classes:
        idx = np.nonzero(dataset.labels == c)[0]
        if per_class_cap is not None:
            if per_class_cap > idx.size:
                warnings.warn(
                    f"class {c} has only {idx.size} samples, below cap {per_class_cap}"
                )
            idx = idx[:per_class_cap]
        keep.extend(int(i) for i in idx)
    keep.sort()
    names = None
    if dataset.class_names is not None:
        names = [dataset.class_names[c] for c in sorted(classes)]
    return from_arrays(
        dataset.points[keep],
        dataset.labels[keep],
        class_names=names,
        provenance=f"{dataset.provenance}|subset(classes={classes},cap={per_class_cap})",
        merge_duplicates=False,
    )


def gen_gaussian(num_classes: int = 3, per_class: int = 1000, variance: float = 0.05,
                 mean_radius: float = 3.0, seed: int = 0) -> LabeledDataset:
    """Spherical 2-D Gaussian mixture with class means on a circle.

    Means sit at angles 2*pi*k/K on the circle of radius ``mean_radius``.
    Sampling uses a Philox counter-based generator keyed with ``seed``, below
    2**128, and draws classes sequentially, so a (num_classes, per_class, variance,
    mean_radius, seed) tuple pins the dataset exactly on any platform.
    """
    for name, count in (("num_classes", num_classes), ("per_class", per_class)):
        if not _is_integer(count) or count < 1:
            raise ValueError(f"{name} must be an integer >= 1, got {count!r}")
    if not _is_integer(seed) or not 0 <= seed < 2**128:
        raise ValueError(f"seed must be an integer in [0, 2**128), got {seed!r}")
    if not (np.isfinite(variance) and variance > 0):
        raise ValueError(f"variance must be finite and positive, got {variance!r}")
    if not np.isfinite(mean_radius):
        raise ValueError(f"mean_radius must be finite, got {mean_radius!r}")
    rng = np.random.Generator(np.random.Philox(key=seed))
    sigma = float(np.sqrt(variance))
    angles = 2.0 * np.pi * np.arange(num_classes) / num_classes
    means = mean_radius * np.column_stack([np.cos(angles), np.sin(angles)])
    blocks = [
        means[c] + sigma * rng.standard_normal((per_class, 2))
        for c in range(num_classes)
    ]
    points = np.vstack(blocks)
    labels = np.repeat(np.arange(num_classes), per_class)
    return from_arrays(
        points,
        labels,
        provenance=(
            f"gaussian(num_classes={num_classes},per_class={per_class},"
            f"variance={variance},mean_radius={mean_radius},seed={seed})"
        ),
    )


def dataset_to_json(dataset: LabeledDataset) -> str:
    doc = {
        "points": dataset.points.tolist(),
        "labels": dataset.labels.tolist(),
        "masses": dataset.masses.tolist(),
        "class_names": dataset.class_names,
        "provenance": dataset.provenance,
    }
    return json.dumps(doc)


def dataset_from_json(text: str) -> LabeledDataset:
    doc = json.loads(text)
    if not isinstance(doc, dict):
        raise ValueError(f"dataset JSON must be an object, got {type(doc).__name__}")
    for key in ("points", "labels", "masses"):
        if key not in doc:
            raise ValueError(f"dataset JSON has no {key} field")
    return LabeledDataset(doc["points"], doc["labels"], doc["masses"],
                          doc.get("class_names"), doc.get("provenance", ""))
