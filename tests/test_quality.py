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
)

EQUILATERAL = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, math.sqrt(3.0) / 2.0]])

UNIT_SQUARE = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])

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

REGULAR = {
    ElementType.TRIANGLE: EQUILATERAL,
    ElementType.QUAD: UNIT_SQUARE,
    ElementType.TET: REGULAR_TET,
    ElementType.HEX: UNIT_CUBE,
}


def quality(points, element_type):
    """The quality of one element."""
    return element_qualities(np.asarray(points)[None], element_type)[0]


def random_isometry(rng, dim):
    a, _ = np.linalg.qr(rng.normal(size=(dim, dim)))
    if np.linalg.det(a) < 0:
        a[:, 0] = -a[:, 0]
    return a, rng.uniform(-5.0, 5.0, dim)


def test_regular_elements_score_one():
    for etype, points in REGULAR.items():
        assert abs(quality(points, etype) - 1.0) < 1e-12, etype


def test_edge_ratio_right_triangle():
    tri = np.array([[0.0, 0.0], [3.0, 0.0], [3.0, 4.0]])
    assert np.isclose(distortion(tri), 3.0 / 5.0)


def test_edge_ratio_degenerate_raises():
    # the single-triangle measure of the paper's first part still raises
    with pytest.raises(DegenerateElement):
        distortion(np.zeros((3, 2)))


def test_triangle_quality_is_area_over_squared_edges():
    rng = np.random.default_rng(10)
    tris = rng.uniform(-1.0, 1.0, (500, 3, 2))
    u, v = tris[:, 1] - tris[:, 0], tris[:, 2] - tris[:, 0]
    area = 0.5 * (u[:, 0] * v[:, 1] - u[:, 1] * v[:, 0])
    squares = (np.roll(tris, -1, axis=1) - tris) ** 2
    expected = np.maximum(4.0 * math.sqrt(3.0) * area / squares.sum(axis=(1, 2)),
                          0.0)
    assert np.allclose(element_qualities(tris, ElementType.TRIANGLE), expected,
                       rtol=1e-12, atol=1e-15)


def test_3d_triangle_quality_is_area_over_squared_edges():
    # a surface triangle has no orientation: its area is |u x v| / 2 whatever
    # the plane, so a face standing vertical or turned clockwise in the xy
    # projection still scores its shape
    rng = np.random.default_rng(11)
    tent_faces = np.array([[[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.5, 0.5, 0.4]],
                           [[0.0, 0.0, 0.0], [0.0, 0.0, 1.0], [1.0, 0.0, 0.0]],
                           [[0.0, 0.0, 0.0], [0.0, 1.0, 0.0], [1.0, 0.0, 0.0]]])
    tris = np.concatenate([tent_faces, rng.uniform(-1.0, 1.0, (500, 3, 3))])
    area = 0.5 * np.linalg.norm(
        np.cross(tris[:, 1] - tris[:, 0], tris[:, 2] - tris[:, 0]), axis=1)
    squares = (np.roll(tris, -1, axis=1) - tris) ** 2
    expected = 4.0 * math.sqrt(3.0) * area / squares.sum(axis=(1, 2))
    q = element_qualities(tris, ElementType.TRIANGLE)
    assert np.allclose(q, expected, rtol=1e-10, atol=1e-12)
    assert q[0] == pytest.approx(0.956, abs=1e-3)
    assert np.allclose(q[1:3], math.sqrt(3.0) / 2.0, rtol=1e-12)


def test_single_element_gives_one_quality():
    for etype, regular in REGULAR.items():
        assert element_qualities(regular, etype).shape == (1,)


def test_quad_quality_is_the_mean_of_its_corner_ratios():
    # the unit square with vertex 2 pulled onto the diagonal at (0.5, 0.5):
    # corner 0 keeps 1, corner 2 is a straight angle and scores 0, and
    # corners 1 and 3 score 2 det / (|e1|^2 + |e2|^2) = 2*0.5/(0.5+1)
    quad = UNIT_SQUARE.copy()
    quad[2] = (0.5, 0.5)
    assert np.isclose(quality(quad, ElementType.QUAD),
                      (1.0 + 0.0 + 2 * (2.0 / 3.0)) / 4.0, rtol=1e-14)


@pytest.mark.parametrize("etype", list(REGULAR), ids=lambda e: e.value)
def test_coincident_vertices_score_zero(etype):
    # distinct vertex ids at one coordinate: the edge ratio raised here
    assert quality(np.zeros_like(REGULAR[etype]), etype) == 0.0


def test_zero_area_triangles_score_zero():
    collinear = np.array([[[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]],
                          [[0.0, 0.0], [2.0, 0.0], [1.0, 0.0]]])
    assert np.array_equal(
        element_qualities(collinear, ElementType.TRIANGLE), [0.0, 0.0])


def test_inverted_tet_scores_zero():
    inverted = REGULAR_TET[[0, 2, 1, 3]]
    assert quality(inverted, ElementType.TET) == 0.0


def test_flat_tet_scores_zero():
    flat = REGULAR_TET.copy()
    flat[3, 2] = 0.0
    assert quality(flat, ElementType.TET) == 0.0


def test_inverted_hex_scores_zero():
    inverted = UNIT_CUBE[[4, 5, 6, 7, 0, 1, 2, 3]]
    assert quality(inverted, ElementType.HEX) == 0.0


def test_overflowed_measures_score_nan():
    # squared edges of a triangle at 1e300 and cubed edges of a tet at 1e155
    # overflow; the score is NaN, not 0 or a huge number
    with np.errstate(all="ignore"):
        assert math.isnan(quality(EQUILATERAL * 1e300, ElementType.TRIANGLE))
        assert math.isnan(quality(REGULAR_TET * 1e155, ElementType.TET))


def test_tet_quality_between_zero_and_one():
    rng = np.random.default_rng(8)
    tets = rng.uniform(-1.0, 1.0, (200, 4, 3))
    q = element_qualities(tets, ElementType.TET)
    assert np.all((q >= 0.0) & (q <= 1.0 + 1e-12))


def test_qualities_are_isometry_and_scale_invariant():
    rng = np.random.default_rng(9)
    for _ in range(20):
        s = rng.uniform(0.1, 10.0)
        for etype, regular in REGULAR.items():
            rot, t = random_isometry(rng, regular.shape[1])
            points = regular + rng.uniform(-0.2, 0.2, regular.shape)
            assert np.isclose(quality(s * points @ rot.T + t, etype),
                              quality(points, etype), atol=1e-10), etype


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
    # the unjittered structured grid: every triangle is right isosceles,
    # 4 sqrt(3) (1/2) / (1 + 1 + 2) = sqrt(3)/2
    assert np.allclose(report.per_element, math.sqrt(3.0) / 2.0)
    assert report.mean == pytest.approx(math.sqrt(3.0) / 2.0)
