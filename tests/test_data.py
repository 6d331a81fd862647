"""Loaders, subsetting, Gaussian generation, serialization round trips."""

import json

import numpy as np
import pytest

from optloss.data import (
    LabeledDataset,
    dataset_from_json,
    dataset_to_json,
    from_arrays,
    gen_gaussian,
    load_csv,
    load_idx,
    subset,
)
from optloss.hypergraph import build_conflict_graph


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return path


def test_load_csv_merges_duplicates(tmp_path):
    path = write(tmp_path, "d.csv", "0,1.5,2.5\n0,1.5,2.5\n1,3.0,4.0\n")
    ds = load_csv(path)
    assert ds.num_points == 2
    assert np.allclose(sorted(ds.masses), [1 / 3, 2 / 3])
    dup = int(np.argmax(ds.masses))
    assert np.array_equal(ds.points[dup], [1.5, 2.5])
    assert ds.labels[dup] == 0


def test_load_csv_same_point_different_labels_stays_split(tmp_path):
    path = write(tmp_path, "d.csv", "0,1.0,1.0\n1,1.0,1.0\n")
    ds = load_csv(path)
    assert ds.num_points == 2
    assert set(ds.labels.tolist()) == {0, 1}
    # they conflict at any budget, including zero
    graph = build_conflict_graph(ds, 0.0)
    assert graph.edge_list() == [(0, 1)]


def test_load_csv_normalization_and_provenance(tmp_path):
    path = write(tmp_path, "d.csv", "0,0,255\n1,128,64\n")
    raw = load_csv(path)
    assert raw.points.max() == 255.0
    assert "scale=raw" in raw.provenance
    scaled = load_csv(path, normalization="divide-255")
    assert scaled.points.max() == 1.0
    assert "scale=unit" in scaled.provenance
    assert "divide-255" in scaled.provenance
    # an unknown normalization is refused before the file is opened
    with pytest.raises(ValueError, match="unknown normalization 'divide-256'"):
        load_csv(tmp_path / "missing.csv", normalization="divide-256")


def test_load_csv_rejects_bad_files(tmp_path):
    with pytest.raises(ValueError):
        load_csv(write(tmp_path, "ragged.csv", "0,1,2\n1,3\n"))
    with pytest.raises(ValueError):
        load_csv(write(tmp_path, "text.csv", "0,1,hello\n"))
    with pytest.raises(ValueError):
        load_csv(write(tmp_path, "empty.csv", ""))
    with pytest.raises(ValueError):
        load_csv(write(tmp_path, "fraclabel.csv", "0.5,1,2\n"))
    with pytest.raises(ValueError, match="CSV needs a label column and at least one feature"):
        load_csv(write(tmp_path, "labels.csv", "0\n1\n"))


def test_labels_remapped_to_contiguous_range(tmp_path):
    path = write(tmp_path, "d.csv", "7,0,0\n3,1,0\n7,2,0\n")
    ds = load_csv(path)
    assert ds.num_classes == 2
    assert ds.class_names == ["3", "7"]
    assert ds.labels.tolist() == [1, 0, 1]


def test_from_arrays_rejects_a_nan_label():
    # np.unique merges NaNs, so a NaN label would load as a class named "nan"
    with pytest.raises(ValueError, match="labels must not be NaN"):
        from_arrays([(0.0,), (1.0,)], [0.0, float("nan")])


def test_subset_cap_and_order():
    pts = np.column_stack([np.arange(10.0), np.zeros(10)])
    labels = [0, 1, 0, 1, 0, 1, 0, 1, 0, 1]
    ds = from_arrays(pts, labels)
    sub = subset(ds, [0, 1], per_class_cap=2)
    assert sub.num_points == 4
    assert np.array_equal(sub.points[:, 0], [0.0, 1.0, 2.0, 3.0])  # file order
    assert np.allclose(sub.masses, 0.25)


def test_subset_single_class_keeps_contract():
    pts = np.column_stack([np.arange(6.0), np.zeros(6)])
    ds = from_arrays(pts, [0, 0, 1, 1, 2, 2])
    sub = subset(ds, [1])
    assert sub.num_points == 2
    assert np.allclose(sub.masses.sum(), 1.0)


def test_subset_errors_and_warning():
    ds = from_arrays([(0.0, 0.0), (1.0, 0.0)], [0, 1])
    with pytest.raises(ValueError):
        subset(ds, [])
    with pytest.raises(ValueError):
        subset(ds, [5])
    # [0, 0, 1] used to list class 0's rows twice: its prior became 2/3, not 1/2
    with pytest.raises(ValueError, match="class 0 is listed more than once"):
        subset(ds, [0, 0, 1])
    with pytest.warns(UserWarning):
        sub = subset(ds, [0], per_class_cap=10)
    assert sub.num_points == 1


@pytest.mark.parametrize("names", [None, ["a", "b", "c"]], ids=["unnamed", "named"])
@pytest.mark.parametrize("bad", [1.5, 1.0, "1", True, np.True_, 2.5])
def test_subset_rejects_a_class_id_that_is_not_an_integer(names, bad):
    # unnamed, [0, 1.5] used to return class 0 alone; named, it raised a
    # TypeError; True, a subclass of int, used to select class 1
    ds = LabeledDataset(np.arange(6.0)[:, None], [0, 0, 1, 1, 2, 2], np.full(6, 1 / 6), names)
    with pytest.raises(ValueError, match=f"class {bad!r} is not an integer class id"):
        subset(ds, [0, bad])
    assert subset(ds, [0, np.int64(1)]).num_points == 4


@pytest.mark.parametrize("cap", [-1, 0])
def test_subset_rejects_a_cap_below_one(cap):
    # -1 used to slice idx[:-1], silently dropping each class's last point
    ds = from_arrays([(0.0, 0.0), (1.0, 0.0), (2.0, 0.0), (3.0, 0.0)], [0, 1, 0, 1])
    with pytest.raises(ValueError, match=f"per-class cap must be at least 1, got {cap}"):
        subset(ds, [0, 1], per_class_cap=cap)


@pytest.mark.parametrize("cap", [True, np.True_, 2.5])
def test_subset_rejects_a_cap_that_is_not_an_integer(cap):
    # True used to keep one point per class; 2.5 raised a TypeError from slicing
    ds = from_arrays([(0.0, 0.0), (1.0, 0.0), (2.0, 0.0), (3.0, 0.0)], [0, 1, 0, 1])
    with pytest.raises(ValueError, match=rf"per-class cap {cap!r} is not an integer"):
        subset(ds, [0, 1], per_class_cap=cap)


def test_gen_gaussian_reproducible_and_shaped():
    a = gen_gaussian(num_classes=3, per_class=50, variance=0.05, seed=9)
    b = gen_gaussian(num_classes=3, per_class=50, variance=0.05, seed=9)
    assert np.array_equal(a.points, b.points)
    assert a.num_points == 150
    assert a.dimension == 2
    c = gen_gaussian(num_classes=3, per_class=50, variance=0.05, seed=10)
    assert not np.array_equal(a.points, c.points)
    # class means land near the circle of radius 3
    for cls in range(3):
        mean = a.points[a.labels == cls].mean(axis=0)
        angle = 2 * np.pi * cls / 3
        assert np.linalg.norm(mean - 3 * np.array([np.cos(angle), np.sin(angle)])) < 0.15


def test_gen_gaussian_single_point_classes():
    ds = gen_gaussian(num_classes=3, per_class=1, variance=0.01, seed=4)
    assert ds.num_points == 3
    assert np.allclose(ds.masses, 1 / 3)


def test_gen_gaussian_validation():
    with pytest.raises(ValueError):
        gen_gaussian(variance=0.0)
    with pytest.raises(ValueError):
        gen_gaussian(per_class=0)


def test_json_round_trip_is_exact():
    ds = gen_gaussian(num_classes=3, per_class=20, variance=0.5, seed=77)
    restored = dataset_from_json(dataset_to_json(ds))
    assert np.array_equal(restored.points, ds.points)
    assert np.array_equal(restored.labels, ds.labels)
    assert np.array_equal(restored.masses, ds.masses)
    assert restored.class_names == ds.class_names
    assert restored.provenance == ds.provenance


def make_idx_images(path, images):
    arr = np.asarray(images, dtype=np.uint8)
    n, rows, cols = arr.shape
    header = bytes([0, 0, 0x08, 3])
    header += n.to_bytes(4, "big") + rows.to_bytes(4, "big") + cols.to_bytes(4, "big")
    path.write_bytes(header + arr.tobytes())


def make_idx_labels(path, labels):
    arr = np.asarray(labels, dtype=np.uint8)
    header = bytes([0, 0, 0x08, 1]) + len(arr).to_bytes(4, "big")
    path.write_bytes(header + arr.tobytes())


def test_idx_reader_round_trip(tmp_path):
    images = np.arange(2 * 2 * 3, dtype=np.uint8).reshape(2, 2, 3)
    labels = [4, 7]
    make_idx_images(tmp_path / "imgs", images)
    make_idx_labels(tmp_path / "labs", labels)
    ds = load_idx(tmp_path / "imgs", tmp_path / "labs")
    assert ds.num_points == 2
    assert ds.dimension == 6
    assert np.array_equal(ds.points[0], images[0].reshape(-1).astype(float))
    assert ds.class_names == ["4", "7"]
    assert ds.provenance == f"idx:{tmp_path / 'imgs'}(normalization=none,scale=raw(max=11))"
    scaled = load_idx(tmp_path / "imgs", tmp_path / "labs", normalization="divide-255")
    assert scaled.points.max() == pytest.approx(11 / 255)
    assert scaled.provenance == f"idx:{tmp_path / 'imgs'}(normalization=divide-255,scale=unit)"
    # an unknown normalization is refused before either file is opened
    with pytest.raises(ValueError, match="unknown normalization 'none '"):
        load_idx(tmp_path / "missing", tmp_path / "missing", normalization="none ")


def test_idx_reader_rejects_garbage(tmp_path):
    bad = tmp_path / "bad"
    bad.write_bytes(b"\x01\x02\x03\x04")
    with pytest.raises(ValueError):
        load_idx(bad, bad)
    make_idx_images(tmp_path / "imgs", np.zeros((2, 2, 2)))
    make_idx_labels(tmp_path / "labs", [0, 1, 1])
    with pytest.raises(ValueError, match="image and label counts differ"):
        load_idx(tmp_path / "imgs", tmp_path / "labs")
    # dtype code 0x07 is not an IDX type
    bad.write_bytes(bytes([0, 0, 0x07, 1]) + (2).to_bytes(4, "big") + bytes(2))
    with pytest.raises(ValueError, match="unsupported IDX dtype code 0x07"):
        load_idx(bad, tmp_path / "labs")
    # the header promises three labels, the payload holds two
    bad.write_bytes(bytes([0, 0, 0x08, 1]) + (3).to_bytes(4, "big") + bytes(2))
    with pytest.raises(ValueError, match="IDX payload size 2 != header says 3"):
        load_idx(tmp_path / "imgs", bad)


def test_dataset_validation():
    with pytest.raises(ValueError):
        from_arrays([(0.0, 0.0)], [0], masses=[0.5])  # masses must sum to 1
    with pytest.raises(ValueError):
        from_arrays([(np.inf, 0.0)], [0])
    with pytest.raises(ValueError):
        from_arrays(np.zeros((0, 2)), [])
    with pytest.raises(ValueError, match="at least one point with at least one feature"):
        LabeledDataset(np.zeros((2, 0)), [0, 1], [0.5, 0.5])
    with pytest.raises(ValueError, match="points, labels and masses must agree in length"):
        LabeledDataset(np.zeros((2, 1)), [0, 1], [1.0])
    # fewer labels than points used to fail inside the duplicate merge's
    # np.column_stack, with numpy's concatenation message
    with pytest.raises(ValueError, match="points, labels and masses must agree in length"):
        from_arrays([(0.0,), (1.0,), (2.0,)], [0, 1])


@pytest.mark.parametrize("field", ["points", "labels", "masses"])
def test_dataset_json_without_a_field_names_it(field):
    # a document without "masses" used to raise KeyError: 'masses'
    doc = json.loads(dataset_doc([0, 1], [0.5, 0.5]))
    del doc[field]
    with pytest.raises(ValueError, match=f"dataset JSON has no {field} field"):
        dataset_from_json(json.dumps(doc))


@pytest.mark.parametrize("text, kind", [("5", "int"), ("null", "NoneType"),
                                         ('"x"', "str"), ("[]", "list")])
def test_dataset_json_that_is_not_an_object_names_its_type(text, kind):
    # these used to raise TypeError from inside the field checks
    with pytest.raises(ValueError, match=f"dataset JSON must be an object, got {kind}"):
        dataset_from_json(text)


def dataset_doc(labels, masses):
    return json.dumps({"points": [[float(i)] for i in range(len(labels))],
                       "labels": labels, "masses": masses})


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_non_finite_masses_rejected(bad):
    # NaN passes a "<= 0" test and the sum test alike, so it used to load
    masses = [0.25, bad, 0.5, 0.25]
    with pytest.raises(ValueError, match="masses must be finite and positive"):
        LabeledDataset(np.arange(4.0)[:, None], [0, 1, 2, 0], masses)
    with pytest.raises(ValueError, match="masses must be finite and positive"):
        dataset_from_json(dataset_doc([0, 1, 2, 0], masses))


def test_non_integral_labels_rejected(tmp_path):
    # a JSON label 1.7 used to load as class 1
    with pytest.raises(ValueError, match="labels must be integers"):
        LabeledDataset(np.arange(2.0)[:, None], [0, 1.7], [0.5, 0.5])
    with pytest.raises(ValueError, match="labels must be integers"):
        dataset_from_json(dataset_doc([0, 1.7], [0.5, 0.5]))
    # 0.9999999 passed a closeness test and was truncated to class 0
    with pytest.raises(ValueError, match="labels must be integers"):
        load_csv(write(tmp_path, "near.csv", "0,1.0\n0.9999999,2.0\n"))
    # integral floats are integers
    assert dataset_from_json(dataset_doc([0, 1.0], [0.5, 0.5])).labels.tolist() == [0, 1]
    assert load_csv(write(tmp_path, "whole.csv", "0.0,1.0\n1.0,2.0\n")).num_classes == 2


def test_labels_missing_a_class_rejected():
    # [0, 2, 2] used to load as three classes with an empty class 1, whose
    # one-versus-one problems bound_report then skipped with a warning
    message = "every class: class 1 has none"
    with pytest.raises(ValueError, match=message):
        LabeledDataset(np.arange(3.0)[:, None], [0, 2, 2], [0.5, 0.25, 0.25])
    with pytest.raises(ValueError, match=message):
        dataset_from_json(dataset_doc([0, 2, 2], [0.5, 0.25, 0.25]))


@pytest.mark.parametrize("names", [["a"], ["a", "b", "c", "d"], []])
def test_class_names_must_name_every_class(names):
    # ["a"] for three classes used to load; pairwise then wrote a CSV whose
    # header named one class, and stats failed with an IndexError
    message = f"class_names has length {len(names)}, labels have 3 classes"
    with pytest.raises(ValueError, match=message):
        LabeledDataset(np.arange(3.0)[:, None], [0, 1, 2], np.full(3, 1 / 3), names)
    with pytest.raises(ValueError, match=message):
        from_arrays(np.arange(3.0)[:, None], [0, 1, 2], class_names=names)
    doc = json.loads(dataset_doc([0, 1, 2], [0.5, 0.25, 0.25]))
    with pytest.raises(ValueError, match=message):
        dataset_from_json(json.dumps({**doc, "class_names": names}))


@pytest.mark.parametrize("names", ["abc", ("a", "b", "c"), ["a", "b", 3]])
def test_class_names_must_be_a_list_of_strings(names):
    # "abc" for three classes used to load; pairwise then failed with a
    # TypeError and stats wrote "classes": "abc"
    message = "class_names must be a list of strings"
    with pytest.raises(ValueError, match=message):
        LabeledDataset(np.arange(3.0)[:, None], [0, 1, 2], np.full(3, 1 / 3), names)
    doc = json.loads(dataset_doc([0, 1, 2], [0.5, 0.25, 0.25]))
    if not isinstance(names, tuple):  # JSON writes a tuple as a list
        with pytest.raises(ValueError, match=message):
            dataset_from_json(json.dumps({**doc, "class_names": names}))


@pytest.mark.parametrize("labels, message", [
    ([0, 10**12, 0], "class 1 has none"),  # must not size an array by the label
    ([1, 2, 2], "class 0 has none"),
    ([-1, 0, 1], "labels must be nonnegative"),
])
def test_labels_must_be_zero_to_k_minus_one(labels, message):
    with pytest.raises(ValueError, match=message):
        dataset_from_json(dataset_doc(labels, [0.5, 0.25, 0.25]))


def test_class_priors():
    ds = from_arrays([(0.0, 0.0), (1.0, 0.0), (2.0, 0.0)], [0, 0, 1],
                     masses=[0.25, 0.25, 0.5], merge_duplicates=False)
    assert np.allclose(ds.class_priors(), [0.5, 0.5])
