import math
import tracemalloc

import numpy as np
import pytest

from getme import (
    AdaptiveParams,
    DegenerateElement,
    HEX_FACES,
    OCTAHEDRON_FACES,
    STANDARD_PARAMS,
    centroid_ratios,
    centroids,
    distortion,
    edge_lengths,
    hex_to_octahedron,
    iterate_triangle,
    octahedron_to_hex,
    rescale_area,
    transform_triangle,
    transform_triangles,
    triangle_areas,
    vertex_radii,
)
from getme.geometry import hex_face_barycenters, rescale_areas

TRI = np.array([[0.0, 0.0], [1.0, 0.0], [0.2, 0.8]])

UNIT_CUBE = np.array([
    [0, 0, 0], [1, 0, 0], [1, 1, 0], [0, 1, 0],
    [0, 0, 1], [1, 0, 1], [1, 1, 1], [0, 1, 1],
], dtype=float)


def reference_transform(tri, alphas=(1.0, 1.0, 1.0)):
    """Literal per-vertex transcription of the transformation formula.

    The gains move with the vertex i being transformed: alpha0 weighs x_i,
    alpha1 its successor and alpha2 its predecessor.
    """
    c = tri.mean(axis=0)
    R = [np.linalg.norm(x - c) for x in tri]
    out = np.empty_like(tri)
    for i in range(3):
        terms = []
        for j, w in ((i, 2.0), ((i + 1) % 3, -1.0), ((i - 1) % 3, -1.0)):
            r_j = R[(j - 1) % 3] / R[j]
            terms.append(w * alphas[(j - i) % 3] * r_j * (tri[j] - c))
        out[i] = sum(terms) / 3.0 + c
    return out


def random_triangles(n, dim=2, seed=0):
    rng = np.random.default_rng(seed)
    tris = rng.uniform(-1.0, 1.0, (n, 3, dim))
    keep = triangle_areas(tris) > 1e-3
    return tris[keep]


def test_transform_matches_reference_formula():
    got = transform_triangle(TRI)
    expected = reference_transform(TRI)
    assert np.allclose(got, expected, atol=1e-14)


def test_transform_matches_reference_formula_adaptive():
    params = AdaptiveParams(0.4, 0.5)
    got = transform_triangle(TRI, params)
    expected = reference_transform(TRI, (0.4, 0.5, params.alpha2))
    assert np.allclose(got, expected, atol=1e-14)


def test_transform_preserves_centroid():
    tris = random_triangles(200)
    out = transform_triangles(tris)
    assert np.allclose(centroids(out), centroids(tris), atol=1e-12)


def test_transform_batch_matches_single():
    tris = random_triangles(50)
    batch = transform_triangles(tris)
    for tri, img in zip(tris, batch):
        assert np.allclose(transform_triangle(tri), img)


def test_equilateral_is_fixed_point():
    eq = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, np.sqrt(3.0) / 2.0]])
    assert np.allclose(transform_triangle(eq), eq, atol=1e-14)
    assert np.allclose(iterate_triangle(eq, n=5), eq, atol=1e-13)


def test_transform_commutes_with_isometries():
    rng = np.random.default_rng(3)
    for tri in random_triangles(100, seed=4):
        ang = rng.uniform(0.0, 2.0 * np.pi)
        rot = np.array([[np.cos(ang), -np.sin(ang)], [np.sin(ang), np.cos(ang)]])
        shift = rng.uniform(-5.0, 5.0, 2)
        scale = rng.uniform(0.1, 10.0)
        moved = scale * tri @ rot.T + shift
        expected = scale * transform_triangle(tri) @ rot.T + shift
        assert np.allclose(transform_triangle(moved), expected, atol=1e-10)


def test_transform_works_in_3d():
    tri = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.5], [0.2, 0.8, -0.3]])
    out = transform_triangle(tri)
    assert out.shape == (3, 3)
    assert np.allclose(out.mean(axis=0), tri.mean(axis=0), atol=1e-14)


def test_degenerate_triangle_raises():
    collinear = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
    # centroid is (1, 0): the middle vertex coincides with it
    with pytest.raises(DegenerateElement):
        transform_triangle(collinear)


def test_transform_triangles_degenerate_yields_nan():
    collinear = np.array([[[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]]])
    out = transform_triangles(collinear)
    assert not np.all(np.isfinite(out))


def test_centroid_ratios_telescope():
    tris = random_triangles(100, seed=5)
    assert np.allclose(centroid_ratios(tris).prod(axis=-1), 1.0, atol=1e-12)


def test_rescale_area_restores_area():
    tris = random_triangles(100, seed=6)
    shrunk = 0.3 * (tris - centroids(tris)[:, None, :]) + centroids(tris)[:, None, :]
    for orig, small in zip(tris, shrunk):
        restored = rescale_area(orig, small)
        assert np.isclose(triangle_areas(restored), triangle_areas(orig))


def test_rescale_area_degenerate_raises():
    flat = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, 0.0]])
    with pytest.raises(DegenerateElement):
        rescale_area(TRI, flat)


def test_iterate_converges_to_equilateral():
    tri = iterate_triangle(TRI, n=50)
    assert np.allclose(centroid_ratios(tri), 1.0, atol=1e-9)
    assert distortion(tri) > 1.0 - 1e-9
    # area is preserved throughout
    assert np.isclose(triangle_areas(tri), triangle_areas(TRI))


def test_adaptive_params_validation():
    p = AdaptiveParams(0.1, 0.15)
    assert np.isclose(p.alpha2, 0.05)
    with pytest.raises(ValueError):
        AdaptiveParams(-1.0, 1.0)
    for alpha0, alpha1 in ((0.0, 1.0), (math.inf, 1.0), (1.0, math.nan)):
        with pytest.raises(ValueError):
            AdaptiveParams(alpha0, alpha1)
    # alpha2 <= 0 is constructible (spectral scans) but not transformable
    bad = AdaptiveParams(1.0, 2.8)
    with pytest.raises(ValueError):
        bad.require_transform_valid()
    with pytest.raises(ValueError):
        transform_triangle(TRI, bad)


def test_adaptive_transform_converges():
    # unequal gains that satisfy alpha2 = 2 alpha0 - alpha1 drive the
    # area-rescaled iteration to the equilateral triangle, which it then keeps
    params = AdaptiveParams(0.1, 0.15)
    tri = iterate_triangle(TRI, params, n=400)
    assert distortion(tri) > 1.0 - 1e-9
    assert np.allclose(centroid_ratios(tri), 1.0, atol=1e-9)
    assert np.isclose(triangle_areas(tri), triangle_areas(TRI))


def test_adaptive_step_keeps_equilateral():
    eq = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, np.sqrt(3.0) / 2.0]])
    out = rescale_area(eq, transform_triangle(eq, AdaptiveParams(0.1, 0.15)))
    assert distortion(out) > 1.0 - 1e-12
    assert np.allclose(centroids(out), centroids(eq), atol=1e-14)


def test_adaptive_transform_near_alpha2_limit_converges():
    # alpha2 = 0.1 is valid for the transformation and must neither blow up
    # nor stall
    tri = iterate_triangle(TRI, AdaptiveParams(1.0, 1.9), n=200)
    assert np.all(np.isfinite(tri))
    assert distortion(tri) > 1.0 - 1e-9


def test_adaptive_transform_independent_of_starting_vertex():
    params = AdaptiveParams(0.1, 0.15)
    for tri in random_triangles(50, seed=8):
        rolled = transform_triangle(np.roll(tri, 1, axis=0), params)
        assert np.allclose(np.roll(rolled, -1, axis=0),
                           transform_triangle(tri, params), atol=1e-14)


def test_equal_adaptive_gains_converge_to_equilateral():
    tri = iterate_triangle(TRI, AdaptiveParams(0.5, 0.5), n=100)
    assert distortion(tri) > 1.0 - 1e-9


def test_edge_lengths_and_distortion():
    tri = np.array([[0.0, 0.0], [3.0, 0.0], [3.0, 4.0]])
    assert np.allclose(edge_lengths(tri), [3.0, 4.0, 5.0])
    assert np.isclose(distortion(tri), 0.6)


def test_hex_to_octahedron_unit_cube():
    verts, faces = hex_to_octahedron(UNIT_CUBE)
    # face barycenters of the unit cube: the regular octahedron around (.5,.5,.5)
    expected = np.array([
        [0.5, 0.5, 0.0], [0.5, 0.5, 1.0],
        [0.5, 0.0, 0.5], [1.0, 0.5, 0.5], [0.5, 1.0, 0.5], [0.0, 0.5, 0.5],
    ])
    assert np.allclose(verts, expected)
    assert np.array_equal(faces, OCTAHEDRON_FACES)
    # every face normal points away from the octahedron center
    center = verts.mean(axis=0)
    for face in faces:
        a, b, c = verts[face]
        normal = np.cross(b - a, c - a)
        assert np.dot(normal, a - center) > 0


def test_hex_face_barycenters_keep_the_bits_of_the_fancy_mean():
    rng = np.random.default_rng(11)
    hexes = rng.standard_normal((2, 40, 8, 3)) * 10.0 ** rng.integers(
        -8, 9, size=(2, 40, 8, 1))
    for given in (hexes, hexes[0], np.ascontiguousarray(hexes[0].T).T,
                  hexes[0, 0]):
        want = given[..., HEX_FACES, :].mean(axis=-2)
        got = hex_face_barycenters(given)
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()


def test_octahedron_round_trip_shrinks_cube_to_one_third():
    verts, _ = hex_to_octahedron(UNIT_CUBE)
    small = octahedron_to_hex(verts)
    # the round trip is a homothety about the cube center with factor 1/3
    center = UNIT_CUBE.mean(axis=0)
    assert np.allclose(small, center + (UNIT_CUBE - center) / 3.0, atol=1e-14)


def test_octahedron_to_hex_works_over_leading_axes():
    rng = np.random.default_rng(5)
    octahedra = rng.standard_normal((2, 3, 6, 3))
    batched = octahedron_to_hex(octahedra)
    assert batched.shape == (2, 3, 8, 3)
    for i, j in np.ndindex(2, 3):
        assert (batched[i, j].tobytes()
                == octahedron_to_hex(octahedra[i, j]).tobytes())
    with pytest.raises(ValueError):
        octahedron_to_hex(octahedra[..., :2])


def test_hex_faces_cover_all_corners():
    assert sorted(np.unique(HEX_FACES)) == list(range(8))
    assert sorted(np.unique(OCTAHEDRON_FACES)) == list(range(6))


def test_vertex_radii_shape_and_values():
    radii = vertex_radii(TRI)
    c = TRI.mean(axis=0)
    assert np.allclose(radii, np.linalg.norm(TRI - c, axis=1))


def test_standard_params_are_ones():
    assert STANDARD_PARAMS.alpha0 == STANDARD_PARAMS.alpha1 == 1.0
    assert STANDARD_PARAMS.alpha2 == 1.0


def memory_layouts(tris):
    """`tris` as a C array, a Fortran array and the (rows, 3, dim) view of a
    C array laid out (dim, 3, rows)."""
    return {"C": np.ascontiguousarray(tris), "F": np.asfortranarray(tris),
            "transposed": np.ascontiguousarray(tris.T).T}


def nan_canonical_bytes(a):
    """The bytes of `a` with every NaN made the same NaN: which NaN an
    operation on NaN returns depends on the loop numpy picks."""
    return np.where(np.isnan(a), np.nan, a).tobytes()


@pytest.mark.parametrize("params", [STANDARD_PARAMS, AdaptiveParams(0.1, 0.15)])
@pytest.mark.parametrize("dim", [2, 3])
def test_kernels_give_the_same_bytes_on_every_layout(dim, params):
    tris = np.random.default_rng(dim).uniform(-1.0, 1.0, (40, 3, dim))
    tris[0, :, 0] = -0.0   # on the plane x = -0.0
    tris[1, 1] = tris[1, 0]   # two coincident vertices
    tris[2] = 0.0   # all three at the origin
    got = set()
    for name, t in memory_layouts(tris).items():
        before = t.copy(order="K")
        with np.errstate(all="ignore"):
            new = transform_triangles(t, params)
            new_before = new.copy(order="K")
            out = rescale_areas(t, new)
        assert t.tobytes("A") == before.tobytes("A"), name
        assert new.tobytes("A") == new_before.tobytes("A"), name
        got.add(nan_canonical_bytes(new) + nan_canonical_bytes(out))
    assert len(got) == 1
    assert np.isnan(new[2]).all()
    assert np.isfinite(np.delete(new, 2, axis=0)).all()


#: The most one transform-and-rescale pass on caller buffers may allocate,
#: in bytes, at any batch size: numpy's fixed-size ufunc buffers.
KERNEL_PEAK_BOUND = 64 * 1024


@pytest.mark.parametrize("params", [STANDARD_PARAMS, AdaptiveParams(0.1, 0.15)])
@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("rows", [300, 3_000, 30_000])
def test_kernels_on_caller_buffers_allocate_no_more_with_the_batch(
        rows, dim, params):
    # the (rows, 3, dim) views of (3, dim, rows) C arrays, as the smoother's
    # workspace passes them
    tris = np.random.default_rng(rows + dim).uniform(-1.0, 1.0, (3, dim, rows))
    new, work = np.empty_like(tris), np.empty((5, dim, rows))
    t, n, w = (a.transpose(2, 0, 1) for a in (tris, new, work))

    def one_pass():
        transform_triangles(t, params, n, w)
        rescale_areas(t, n, t, w)

    one_pass()
    tracemalloc.start()   # it sees numpy's buffers
    try:
        one_pass()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < KERNEL_PEAK_BOUND
