"""The numeric domain: coordinates, queries and budgets within
``MAGNITUDE_LIMIT`` (2^200).

Values past it are refused where they enter, with a ValueError that names
the limit. Values on it, and tiny triangles far below 1, give the answers of
exact rational oracles, without a float warning (the suite makes each one
an error).
"""

import json

import numpy as np
import pytest
from oracles import exact_triangle_ball

from optloss import cli
from optloss.bounds import (
    SoftClassifierTable,
    bound_report,
    class_distance_stats,
    optimal_loss,
    pairwise_binary_losses,
)
from optloss.data import (
    LabeledDataset,
    dataset_from_json,
    from_arrays,
    gen_gaussian,
    load_csv,
    load_idx,
)
from optloss.hypergraph import (
    MAGNITUDE_LIMIT,
    _triangle_radius,
    build_conflict_graph,
    edge_witness,
    extend_hyperedges,
    vertex_graph,
)

L = MAGNITUDE_LIMIT
PAST = float(np.nextafter(L, np.inf))
EQUILATERAL = np.array([(0.0, 0.0), (1.0, 0.0), (0.5, np.sqrt(3.0) / 2.0)])


@pytest.mark.parametrize("value", [PAST, -PAST, 1e300, np.inf, np.nan])
def test_every_loader_refuses_a_coordinate_past_the_limit(tmp_path, value):
    points = [[0.0, 1.0], [value, 0.0], [1.0, 1.0]]
    with pytest.raises(ValueError, match="MAGNITUDE_LIMIT"):
        from_arrays(points, [0, 1, 2])
    with pytest.raises(ValueError, match="MAGNITUDE_LIMIT"):
        LabeledDataset(points, [0, 1, 2], np.full(3, 1 / 3))
    with pytest.raises(ValueError, match="MAGNITUDE_LIMIT"):
        dataset_from_json(json.dumps({"points": points, "labels": [0, 1, 2],
                                      "masses": [1 / 3] * 3}))
    csv = tmp_path / "far.csv"
    csv.write_text("".join(f"{label},{x!r},{y!r}\n" for label, (x, y) in enumerate(points)))
    with pytest.raises(ValueError, match="MAGNITUDE_LIMIT"):
        load_csv(csv)
    # float64 images (IDX dtype 0x0E) and byte labels
    images = np.array(points, dtype=">f8")
    (tmp_path / "imgs").write_bytes(bytes([0, 0, 0x0E, 2]) + (3).to_bytes(4, "big")
                                    + (2).to_bytes(4, "big") + images.tobytes())
    (tmp_path / "labs").write_bytes(bytes([0, 0, 0x08, 1]) + (3).to_bytes(4, "big")
                                    + bytes([0, 1, 2]))
    with pytest.raises(ValueError, match="MAGNITUDE_LIMIT"):
        load_idx(tmp_path / "imgs", tmp_path / "labs")
    with pytest.raises(ValueError, match="MAGNITUDE_LIMIT"):
        SoftClassifierTable(np.array(points), np.arange(3), 3, 1.0, np.ones(3))


@pytest.mark.parametrize("eps", [PAST, 2e60, 1e300])
def test_every_entry_point_refuses_a_budget_past_the_limit(eps):
    ds = from_arrays(EQUILATERAL, [0, 1, 2])
    for call in (lambda: vertex_graph(ds, eps), lambda: build_conflict_graph(ds, eps),
                 lambda: bound_report(ds, eps, m_max=3), lambda: optimal_loss(ds, eps, 3),
                 lambda: SoftClassifierTable(ds.points, ds.labels, 3, eps, np.ones(3))):
        with pytest.raises(ValueError, match="MAGNITUDE_LIMIT"):
            call()


def test_the_cli_refuses_a_budget_past_the_limit(tmp_path, capsys):
    path = tmp_path / "tri.csv"
    path.write_text("0,0,0\n1,1,0\n2,0.5,0.8\n")
    code = cli.main(["bound", "--data", str(path), "--epsilon", "2e60", "--out", str(tmp_path)])
    out = json.loads(capsys.readouterr().out)
    assert code == 2 and out["type"] == "ValueError" and "MAGNITUDE_LIMIT" in out["error"]
    assert not list(tmp_path.glob("bound_*"))


def test_an_equilateral_triangle_past_the_limit_is_refused():
    # at side 1e80 and eps 0.55 side, float64 once accepted it with radius 0
    with pytest.raises(ValueError, match="MAGNITUDE_LIMIT"):
        from_arrays(EQUILATERAL * 1e80, [0, 1, 2])


def corner_layout():
    """Four corners of the limit's square, classes 0 1 0 1 around it, and a
    class-2 centre, plus an equilateral triangle of circumradius ``L``."""
    corners = [(-L, -L), (L, -L), (L, L), (-L, L), (0.0, 0.0)]
    triangle = [(0.0, L), (-L * np.sqrt(3) / 2, -L / 2), (L * np.sqrt(3) / 2, -L / 2)]
    return np.array(corners), [0, 1, 0, 1, 2], np.array(triangle), [0, 1, 2]


def test_values_on_the_limit_match_exact_answers():
    corners, corner_labels, triangle, triangle_labels = corner_layout()
    # adjacent corners are 2 L apart, each corner sqrt(2) L from the centre;
    # each right triangle of two adjacent corners and the centre has radius L
    graph = extend_hyperedges(build_conflict_graph(from_arrays(corners, corner_labels), L), 3)
    assert graph.edge_list() == [(0, 1), (0, 3), (0, 4), (1, 2), (1, 4), (2, 3), (2, 4),
                                 (3, 4), (0, 1, 4), (0, 3, 4), (1, 2, 4), (2, 3, 4)]
    half_diagonal = 0.5 * np.sqrt(2.0) * L  # 0.5 sqrt(2 L^2), as a power of two is exact
    assert graph.radii[2].tolist() == [L, L, half_diagonal, L, half_diagonal, L,
                                       half_diagonal, half_diagonal]
    assert graph.radii[3].tolist() == [L] * 4
    assert edge_witness(graph.points, (0, 1, 4)).tolist() == [0.0, -L]
    report = bound_report(from_arrays(corners, corner_labels), L, m_max=3)
    assert report.edge_counts == {2: 8, 3: 4}
    # the acute triangle: its radius and centre against the exact oracle
    ds = from_arrays(triangle, triangle_labels)
    r2, centre = exact_triangle_ball(triangle)
    graph = extend_hyperedges(build_conflict_graph(ds, L), 3)
    assert graph.edge_counts() == {2: 3, 3: 1}
    assert graph.radii[3][0] == pytest.approx(float(r2) ** 0.5, rel=1e-12)
    witness = edge_witness(graph.points, (0, 1, 2))
    assert np.abs(witness - np.array(centre, dtype=float)).max() <= 1e-12 * L
    stats = class_distance_stats(ds)
    assert stats == pytest.approx(np.full(3, np.sqrt(3.0) * L), rel=1e-15)


def tiny_triangles(side):
    """The equilateral triangle and 30 random ones, acute and obtuse, in 2-D
    and 3-D, each with its longest side near ``side``, at the origin."""
    rng = np.random.default_rng(7)
    out = [EQUILATERAL * side]
    for d in (2, 3):
        for _ in range(15):
            pts = rng.normal(size=(3, d))
            longest = max(np.linalg.norm(pts[i] - pts[j]) for i, j in ((0, 1), (1, 2), (2, 0)))
            out.append(pts / longest * side)
    return out


@pytest.mark.parametrize("side", [1e-80, 1e-100, 1e-150])
def test_tiny_triangles_match_the_exact_oracle(side):
    acute = 0
    for pts in tiny_triangles(side):
        r2, centre = exact_triangle_ball(pts)
        radius = float(r2) ** 0.5
        a, b, c = (np.array([float(np.sum((pts[i] - pts[j]) ** 2))])
                   for i, j in ((1, 2), (2, 0), (0, 1)))
        assert _triangle_radius(a, b, c)[0] == pytest.approx(radius, rel=1e-12)
        ds = from_arrays(pts, [0, 1, 2], merge_duplicates=False)
        graph = extend_hyperedges(build_conflict_graph(ds, radius * (1 + 1e-6)), 3)
        assert graph.edge_counts().get(3) == 1
        assert graph.radii[3][0] == pytest.approx(radius, rel=1e-12)
        witness = edge_witness(graph.points, (0, 1, 2))
        assert np.abs(witness - np.array(centre, dtype=float)).max() <= 1e-12 * radius
        tighter = extend_hyperedges(build_conflict_graph(ds, radius * (1 - 1e-6)), 3)
        assert 3 not in tighter.edge_counts()
        a, b, c = sorted([a[0], b[0], c[0]])
        acute += c < a + b
    assert 5 < acute < 30


def test_a_tiny_triangle_at_a_unit_budget_is_one_hyperedge():
    # at side 1e-100 the area's product underflowed: the triangle was
    # rejected and L*(3) read 0.5
    report = bound_report(from_arrays(EQUILATERAL * 1e-100, [0, 1, 2]), 1.0, m_max=3)
    assert report.edge_counts == {2: 3, 3: 1}
    assert report.losses[3] == pytest.approx(2 / 3, abs=1e-15)


def test_a_zero_loss_reads_exactly_zero():
    # with no edge q is 1 everywhere; 1 - sum(p) over 15 masses of 1/15 is not 0
    ds = gen_gaussian(3, 5, seed=0)
    assert ds.masses.sum() != 1.0
    for m in (2, 3):
        assert optimal_loss(ds, 0.0, m)[0] == 0.0
    assert pairwise_binary_losses(ds, 0.0).losses.max() == 0.0
