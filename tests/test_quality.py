import json
import math

import numpy as np
import pytest

from getme import (
    DegenerateElement,
    ElementType,
    GeneratorSpec,
    QualityReport,
    distortion,
    element_qualities,
    generate,
    mesh_quality,
    quality_mean_ratio_hex,
    quality_mean_ratio_tet,
)

EQUILATERAL = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, math.sqrt(3.0) / 2.0]])

REGULAR_TET = np.array([
    [0.0, 0.0, 0.0],
    [1.0, 0.0, 0.0],
    [0.5, math.sqrt(3.0) / 2.0, 0.0],
    [0.5, math.sqrt(3.0) / 6.0, math.sqrt(2.0 / 3.0)],
])

UNIT_CUBE = np.array([
    [0, 0, 0], [1, 0, 0], [1, 1, 0], [0, 1, 0],
    [0, 0, 1], [1, 0, 1], [1, 1, 1], [0, 1, 1],
], dtype=float)


def random_isometry(rng, dim):
    a, _ = np.linalg.qr(rng.normal(size=(dim, dim)))
    if np.linalg.det(a) < 0:
        a[:, 0] = -a[:, 0]
    return a, rng.uniform(-5.0, 5.0, dim)


def test_regular_elements_score_one():
    assert abs(distortion(EQUILATERAL) - 1.0) < 1e-12
    square = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    assert abs(distortion(square) - 1.0) < 1e-12
    assert abs(quality_mean_ratio_tet(REGULAR_TET) - 1.0) < 1e-12
    assert abs(quality_mean_ratio_hex(UNIT_CUBE) - 1.0) < 1e-12


def test_edge_ratio_right_triangle():
    tri = np.array([[0.0, 0.0], [3.0, 0.0], [3.0, 4.0]])
    assert np.isclose(distortion(tri), 3.0 / 5.0)


def test_edge_ratio_degenerate_raises():
    with pytest.raises(DegenerateElement):
        distortion(np.zeros((3, 2)))


def test_inverted_tet_scores_zero():
    inverted = REGULAR_TET[[0, 2, 1, 3]]
    assert quality_mean_ratio_tet(inverted) == 0.0


def test_flat_tet_scores_zero():
    flat = REGULAR_TET.copy()
    flat[3, 2] = 0.0
    assert quality_mean_ratio_tet(flat) == 0.0


def test_inverted_hex_scores_zero():
    inverted = UNIT_CUBE[[4, 5, 6, 7, 0, 1, 2, 3]]
    assert quality_mean_ratio_hex(inverted) == 0.0


def test_tet_quality_between_zero_and_one():
    rng = np.random.default_rng(8)
    tets = rng.uniform(-1.0, 1.0, (200, 4, 3))
    q = quality_mean_ratio_tet(tets)
    assert np.all((q >= 0.0) & (q <= 1.0 + 1e-12))


def test_qualities_are_isometry_and_scale_invariant():
    rng = np.random.default_rng(9)
    for _ in range(20):
        rot2, t2 = random_isometry(rng, 2)
        rot3, t3 = random_isometry(rng, 3)
        s = rng.uniform(0.1, 10.0)

        tri = rng.uniform(-1.0, 1.0, (3, 2))
        assert np.isclose(distortion(s * tri @ rot2.T + t2),
                          distortion(tri), atol=1e-10)

        tet = rng.uniform(-1.0, 1.0, (4, 3))
        assert np.isclose(quality_mean_ratio_tet(s * tet @ rot3.T + t3),
                          quality_mean_ratio_tet(tet), atol=1e-10)

        hexa = UNIT_CUBE + rng.uniform(-0.2, 0.2, (8, 3))
        assert np.isclose(quality_mean_ratio_hex(s * hexa @ rot3.T + t3),
                          quality_mean_ratio_hex(hexa), atol=1e-10)


def test_element_qualities_dispatch():
    tris = np.array([EQUILATERAL, EQUILATERAL * 2.0])
    assert np.allclose(element_qualities(tris, ElementType.TRIANGLE), 1.0)
    assert np.allclose(
        element_qualities(REGULAR_TET[None], ElementType.TET), 1.0
    )
    assert np.allclose(
        element_qualities(UNIT_CUBE[None], ElementType.HEX), 1.0
    )


def test_quality_report_aggregates():
    q = np.array([0.0, 0.25, 0.5, 1.0])
    report = QualityReport.from_qualities(q)
    assert report.mean == pytest.approx(0.4375)
    assert report.min == 0.0
    assert len(report.histogram) == 20
    assert sum(report.histogram) == 4
    assert report.histogram[0] == 1  # the zero-quality element
    assert report.histogram[-1] == 1  # quality 1 lands in the last bin


def test_quality_report_json_schema():
    report = QualityReport.from_qualities([0.5, 0.75],
                                          iteration_trace=[(0, 0.625, 0.5)])
    data = json.loads(report.to_json())
    assert set(data) == {"mean", "min", "histogram", "trace"}
    assert data["trace"] == [{"iter": 0, "mean": 0.625, "min": 0.5}]
    # finite reports keep the bytes of plain json.dumps
    assert report.to_json(indent=2) == json.dumps(
        {"mean": 0.625, "min": 0.5, "histogram": report.histogram,
         "trace": data["trace"]}, indent=2)


def test_quality_report_json_writes_non_finite_as_null():
    report = QualityReport.from_qualities(
        [0.5, 0.75], iteration_trace=[(0, 0.625, 0.5), (1, math.nan, -math.inf)])
    report.mean = math.inf
    data = json.loads(report.to_json())
    assert data["mean"] is None and data["min"] == 0.5
    assert data["trace"] == [{"iter": 0, "mean": 0.625, "min": 0.5},
                             {"iter": 1, "mean": None, "min": None}]


def test_mesh_quality_on_generated_mesh():
    mesh = generate(GeneratorSpec("jittered-square-tri", resolution=4))
    report = mesh_quality(mesh)
    # the unjittered structured grid: every triangle is right isosceles
    assert np.allclose(report.per_element, 1.0 / math.sqrt(2.0))
    assert report.mean == pytest.approx(1.0 / math.sqrt(2.0))
