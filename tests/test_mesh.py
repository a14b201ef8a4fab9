import copy
from fractions import Fraction

import numpy as np
import pytest

from getme import (
    KINDS,
    ElementType,
    GeneratorSpec,
    InvalidMesh,
    InvalidTopology,
    Mesh,
    detect_boundary,
    element_signed_measures,
    generate,
    validate,
)
from getme.geometry import EPS_DEGENERATE
from getme.mesh import (
    ELEMENT_EDGES,
    ELEMENT_FACES,
    _edge_neighbors,
    _element_scales,
    _facet_table,
    _group,
    _incident_elements,
    _sorted_columns,
    det3,
)

SQUARE_2TRI = Mesh(
    [[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]],
    [[0, 1, 2], [0, 2, 3]],
    ElementType.TRIANGLE,
)

UNIT_TET = Mesh(
    [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]],
    [[0, 1, 2, 3]],
    ElementType.TET,
)

UNIT_HEX = Mesh(
    [[0, 0, 0], [1, 0, 0], [1, 1, 0], [0, 1, 0],
     [0, 0, 1], [1, 0, 1], [1, 1, 1], [0, 1, 1]],
    [range(8)],
    ElementType.HEX,
)


def test_mesh_accepts_string_element_type():
    m = Mesh(SQUARE_2TRI.vertices, SQUARE_2TRI.elements, "triangle")
    assert m.element_type is ElementType.TRIANGLE


def test_mesh_is_immutable_and_copies_input():
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    m = Mesh(verts, [[0, 1, 2]], "triangle")
    verts[0] = 99.0  # the mesh keeps its own copy
    assert m.vertices[0, 0] == 0.0
    with pytest.raises(ValueError):
        m.vertices[0, 0] = 5.0


def test_mesh_validation_errors():
    with pytest.raises(InvalidMesh):
        Mesh([[0.0, 0.0]], [[0, 0, 0]], "triangle")  # repeated index
    with pytest.raises(InvalidMesh):
        Mesh([[0.0, 0.0], [1.0, 0.0]], [[0, 1, 2]], "triangle")  # out of range
    with pytest.raises(InvalidMesh):
        Mesh([[0.0, 0.0], [1.0, 0.0], [0.0, np.nan]], [[0, 1, 2]], "triangle")
    with pytest.raises(InvalidMesh):  # tets must live in 3D
        Mesh([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]],
             [[0, 1, 2, 3]], "tet")
    with pytest.raises(InvalidMesh):  # boundary index out of range
        Mesh(SQUARE_2TRI.vertices, SQUARE_2TRI.elements, "triangle",
             boundary_vertices=[99])


def test_with_vertices_keeps_flags():
    m = Mesh(SQUARE_2TRI.vertices, SQUARE_2TRI.elements, "triangle",
             boundary_vertices=[0, 2])
    moved = m.with_vertices(m.vertices + 1.0)
    assert moved.boundary_vertices == {0, 2}
    assert np.array_equal(moved.elements, m.elements)


def test_mesh_refuses_non_integral_and_boolean_indices():
    verts = [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]
    for elements in ([(0, 1, 2.7), (1, 3, 2)], [(0, 1, np.nan)],
                     [(0, 1, np.inf)], np.array([(True, False, True)])):
        with pytest.raises(InvalidMesh, match="element indices must be integers"):
            Mesh(verts, elements, "triangle")
    for boundary in ([1.5], [True, False], np.array([True, False, False, True]),
                     [np.nan], {0.5}):
        with pytest.raises(InvalidMesh,
                           match="boundary vertex indices must be integers"):
            Mesh(verts, [(0, 1, 2)], "triangle", boundary_vertices=boundary)


def test_mesh_accepts_integral_and_empty_indices():
    verts = [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]
    want = Mesh(verts, [(0, 1, 2), (1, 3, 2)], "triangle", boundary_vertices=[0, 3])
    for elements, boundary in (
            (np.array([(0, 1, 2), (1, 3, 2)], dtype=float), np.array([3.0, 0.0])),
            (np.array([(0, 1, 2), (1, 3, 2)], dtype=np.uint8), {0, 3}),
            ([(0, 1, 2), (1, 3, 2)], np.array([0, 3], dtype=np.int32))):
        got = Mesh(verts, elements, "triangle", boundary_vertices=boundary)
        assert got == want and got.elements.dtype == np.int64
    for empty in ((), [], set(), np.empty(0)):
        got = Mesh(verts, [(0, 1, 2)], "triangle", boundary_vertices=empty)
        assert not got.boundary_mask.any()
    got = Mesh(verts, np.empty((0, 3)), "triangle")
    assert got.elements.shape == (0, 3) and got.elements.dtype == np.int64


def test_with_vertices_checks_only_the_new_coordinates():
    m = Mesh(SQUARE_2TRI.vertices, SQUARE_2TRI.elements, "triangle",
             boundary_vertices=[0, 2])
    for shape in ((3, 2), (4, 3), (8,)):
        with pytest.raises(InvalidMesh, match="shape"):
            m.with_vertices(np.zeros(shape))
    for bad in (np.nan, np.inf, -np.inf):
        verts = m.vertices.copy()
        verts[1, 0] = bad
        with pytest.raises(InvalidMesh, match="finite"):
            m.with_vertices(verts)
    verts = [[0, 0], [2, 0], [2, 2], [0, 3]]   # ints, converted to float
    moved = m.with_vertices(verts)
    assert moved == Mesh(verts, m.elements, "triangle", boundary_vertices=[0, 2])
    assert moved.vertices.dtype == float and moved.boundary_vertices == {0, 2}
    assert m.vertices[3, 1] == 1.0   # the source keeps its coordinates
    for a in (moved.vertices, moved.elements, moved.boundary_mask):
        assert not a.flags.writeable
    new = m.vertices + 1.0
    moved = m.with_vertices(new)
    new[0, 0] = 99.0   # the moved mesh keeps its own copy
    assert moved.vertices[0, 0] == 1.0


def test_mesh_equality():
    a = Mesh(SQUARE_2TRI.vertices, SQUARE_2TRI.elements, "triangle")
    b = Mesh(SQUARE_2TRI.vertices, SQUARE_2TRI.elements, "triangle")
    assert a == b
    assert a != a.with_vertices(a.vertices + 1.0)


def per_vertex(grouped):
    """A `_group` result split into one array per key."""
    values, offsets = grouped
    return np.split(values, offsets[1:-1])


def test_build_adjacency():
    adj = per_vertex(_incident_elements(SQUARE_2TRI))
    assert [list(a) for a in adj] == [[0, 1], [0], [0, 1], [1]]


def test_adjacency_quad_grid_interior_valence():
    mesh = generate(GeneratorSpec("quad-grid-with-hole", resolution=4, jitter=0.0))
    adj = per_vertex(_incident_elements(mesh))
    interior = ~mesh.boundary_mask
    assert all(len(adj[v]) == 4 for v in np.flatnonzero(interior))


def test_detect_boundary_triangles():
    assert detect_boundary(SQUARE_2TRI) == {0, 1, 2, 3}


def test_detect_boundary_tet_and_hex():
    assert detect_boundary(UNIT_TET) == {0, 1, 2, 3}
    assert detect_boundary(UNIT_HEX) == set(range(8))


def test_detect_boundary_interior_vertex():
    mesh = generate(GeneratorSpec("jittered-square-tri", resolution=2))
    # 3x3 grid of vertices: only the center one is interior
    assert detect_boundary(mesh) == set(range(9)) - {4}


def test_detect_boundary_rejects_overshared_facet():
    verts = [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [-1.0, 1.0]]
    elems = [[0, 1, 2], [0, 1, 3], [0, 1, 4]]
    mesh = Mesh(verts, elems, "triangle")
    with pytest.raises(InvalidTopology,
                       match=r"^facet \(0, 1\) is shared by 3 elements$"):
        detect_boundary(mesh)


def sorted_facets(mesh, local):
    return np.sort(np.concatenate([mesh.elements[:, list(f)] for f in local]),
                   axis=1)


def row_unique_boundary(mesh):
    """`detect_boundary` through np.unique over the sorted facet rows: faces
    in 3D, edges in 2D."""
    local = ELEMENT_FACES.get(mesh.element_type,
                              ELEMENT_EDGES[mesh.element_type])
    uniq, counts = np.unique(sorted_facets(mesh, local), axis=0,
                             return_counts=True)
    return set(np.unique(uniq[counts == 1]).tolist())


def row_unique_neighbors(mesh):
    """`_edge_neighbors` through np.unique over the sorted edge rows."""
    edges = sorted_facets(mesh, ELEMENT_EDGES[mesh.element_type])
    neighbors = [set() for _ in mesh.vertices]
    for a, b in np.unique(edges, axis=0).tolist():
        neighbors[a].add(b)
        neighbors[b].add(a)
    return [sorted(n) for n in neighbors]


def padded(mesh, pad):
    """`mesh` behind `pad` unused vertices, so its vertex ids exceed `pad`."""
    verts = np.concatenate([np.zeros((pad, mesh.dimension)), mesh.vertices])
    return Mesh(verts, mesh.elements + pad, mesh.element_type)


FACET_MESHES = {
    f"{kind}-{res}": (lambda kind=kind, res=res:
                      generate(GeneratorSpec(kind, resolution=res)))
    for kind in KINDS if kind != "two-triangle-flip" for res in (2, 3, 8, 12)
}
FACET_MESHES["two-triangle-flip"] = lambda: generate(
    GeneratorSpec("two-triangle-flip"))
# past about 55,000 vertices, a hex face keyed as one int64
# ((a*n + b)*n + c)*n + d would overflow
FACET_MESHES["cube-hex-ids-above-55000"] = lambda: padded(
    generate(GeneratorSpec("cube-hex", resolution=3)), 60_000)


@pytest.mark.parametrize("name", list(FACET_MESHES))
def test_facet_table_matches_row_unique_reference(name):
    mesh = FACET_MESHES[name]()
    assert detect_boundary(mesh) == row_unique_boundary(mesh)
    got = per_vertex(_edge_neighbors(mesh))
    assert all(n.dtype == np.int64 for n in got)
    assert [n.tolist() for n in got] == row_unique_neighbors(mesh)
    etype = mesh.element_type
    for local in (ELEMENT_EDGES[etype], ELEMENT_FACES.get(etype, ((0, 1),))):
        rows, counts = _facet_table(mesh, local)
        want_rows, want_counts = np.unique(sorted_facets(mesh, local), axis=0,
                                           return_counts=True)
        assert rows.dtype == np.int64 and np.array_equal(rows, want_rows)
        assert np.array_equal(counts, want_counts)


@pytest.mark.parametrize("width", range(2, 9))
def test_sorting_network_sorts_every_zero_one_row(width):
    # a compare-exchange network that sorts every 0/1 input sorts every
    # input (the 0-1 principle)
    rows = (np.arange(2**width)[:, None] >> np.arange(width)) & 1
    got = np.stack(_sorted_columns(rows.T), axis=1)
    assert np.array_equal(got, np.sort(rows, axis=1))


def test_sorting_network_sorts_int64_rows_with_ties_and_extremes():
    rng = np.random.default_rng(17)
    big = 2**63 - 1
    pool = np.array([-big, -7, -1, 0, 0, 3, 5, big], dtype=np.int64)
    for width in range(2, 9):
        for rows in (rng.choice(pool, (2_000, width)),
                     rng.integers(-big, big, (2_000, width), endpoint=True)):
            got = np.stack(_sorted_columns(rows.T), axis=1)
            assert got.dtype == np.int64
            assert np.array_equal(got, np.sort(rows, axis=1))


def per_part_group(keys, values, n):
    """`_group` as first written: a stable sort by key, then one np.sort
    per key."""
    order = np.argsort(keys, kind="stable")
    splits = np.cumsum(np.bincount(keys, minlength=n))[:-1]
    return [np.sort(part) for part in np.split(values[order], splits)]


def same_groups(got, want):
    return len(got) == len(want) and all(
        g.dtype == w.dtype and g.tobytes() == w.tobytes()
        for g, w in zip(got, want))


@pytest.mark.parametrize("name", list(FACET_MESHES))
def test_group_matches_per_part_sort(name):
    mesh = FACET_MESHES[name]()
    n, elems = len(mesh.vertices), mesh.elements
    a, b = _facet_table(mesh, ELEMENT_EDGES[mesh.element_type])[0].T
    assert same_groups(per_vertex(_edge_neighbors(mesh)), per_part_group(
        np.concatenate([a, b]), np.concatenate([b, a]), n))
    elem_ids = np.repeat(np.arange(len(elems)), elems.shape[1])
    assert same_groups(per_vertex(_incident_elements(mesh)),
                       per_part_group(elems.ravel(), elem_ids, n))


def test_group_orders_values_within_each_key():
    rng = np.random.default_rng(5)
    keys = rng.integers(0, 30, 500)
    values = rng.integers(-50, 50, 500)   # with repeats inside a key
    grouped, offsets = _group(keys, values, 40)
    assert offsets[0] == 0 and offsets[-1] == len(keys)
    assert same_groups(np.split(grouped, offsets[1:-1]),
                       per_part_group(keys, values, 40))


def test_signed_measures():
    # one determinant per corner: one for a triangle or a tet, four for a
    # quad, eight for a hex
    tri = np.array([[[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]])
    assert np.array_equal(element_signed_measures(tri, ElementType.TRIANGLE),
                          [[1.0]])
    assert element_signed_measures(tri[:, ::-1], ElementType.TRIANGLE) < 0

    quad = np.array([[[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]])
    assert np.array_equal(element_signed_measures(quad, ElementType.QUAD),
                          np.ones((1, 4)))

    tet = UNIT_TET.element_points()
    assert np.isclose(element_signed_measures(tet, ElementType.TET), 1.0)
    assert element_signed_measures(tet, ElementType.TET).shape == (1, 1)

    hexa = UNIT_HEX.element_points()
    assert np.array_equal(element_signed_measures(hexa, ElementType.HEX),
                          np.ones((1, 8)))


def test_validate_flags_inverted():
    assert validate(SQUARE_2TRI) == []
    flipped = Mesh(SQUARE_2TRI.vertices,
                   [[0, 2, 1], [0, 2, 3]], "triangle")
    assert validate(flipped) == [0]


def test_validate_flags_degenerate():
    verts = [[0.0, 0.0], [1.0, 0.0], [0.5, 0.0], [0.5, 1.0]]
    mesh = Mesh(verts, [[0, 1, 2], [0, 1, 3]], "triangle")
    assert validate(mesh) == [0]


def test_validate_flags_a_non_convex_quad():
    # a dart of area 1 whose corner at vertex 2 is reflex; a bilinear quad is
    # valid only if all four corner determinants are positive
    dart = Mesh([[0.0, 0.0], [2.0, 0.0], [0.5, 0.5], [0.0, 2.0]],
                [[0, 1, 2, 3]], "quad")
    corners = element_signed_measures(dart.element_points(), ElementType.QUAD)
    assert np.array_equal(corners, [[4.0, 1.0, -2.0, 1.0]])
    assert corners.sum() / 4 == 1.0   # the area, positive
    assert validate(dart) == [0]


def ptp_validate(mesh):
    """`validate` with the element scale as first written, through
    `np.ptp` along the vertex axis."""
    points = mesh.element_points()
    measures = element_signed_measures(points, mesh.element_type).min(axis=1)
    power = 3 if mesh.element_type in (ElementType.TET, ElementType.HEX) else 2
    threshold = EPS_DEGENERATE * np.ptp(points, axis=1).max(axis=-1) ** power
    return np.flatnonzero(~(measures > threshold)).tolist()


def with_special_rows(mesh, rng):
    """`mesh` with jittered vertices and, past `Mesh`'s checks, NaN, inf,
    -inf, signed zeros, overflowing spans and zero-span elements."""
    verts = mesh.vertices + rng.uniform(-0.2, 0.2, mesh.vertices.shape)
    elems = mesh.elements
    verts[elems[0, 0], 0] = np.nan
    verts[elems[1, 1], -1] = np.inf
    verts[elems[2, 0], 0] = -np.inf
    verts[elems[3]] = 0.0          # zero span, mixed signs of zero
    verts[elems[3, 1:]] = -0.0
    verts[elems[4]] = -0.0         # zero span, all -0.0
    verts[elems[5, 0]] = 1e308     # finite coordinates, infinite span
    verts[elems[5, 1]] = -1e308
    verts[elems[6, 1], 0] = -0.0
    verts[elems[6, 2], -1] = 0.0
    special = copy.copy(mesh)
    special.vertices = verts
    return special


@pytest.mark.parametrize("kind", ["jittered-square-tri", "quad-grid-with-hole",
                                  "cube-tet", "cube-hex"])
def test_validate_matches_ptp_scale_reference(kind):
    rng = np.random.default_rng(29)
    mesh = generate(GeneratorSpec(kind, resolution=4))
    special = with_special_rows(mesh, rng)
    points = special.element_points()
    with np.errstate(all="ignore"):
        assert np.array_equal(_element_scales(points),
                              np.ptp(points, axis=1).max(axis=-1),
                              equal_nan=True)
        got = validate(special)
        assert got == ptp_validate(special)
        assert {0, 1, 2, 3, 4, 5} <= set(got)
        assert len(got) < len(mesh.elements)


def test_generator_meshes_are_valid():
    for kind in ("jittered-square-tri", "disk-tri", "quad-grid-with-hole",
                 "cube-tet", "cube-hex"):
        mesh = generate(GeneratorSpec(kind, resolution=3, jitter=0.3, seed=1))
        assert validate(mesh) == [], kind


def hadamard_bound(m):
    """Product of the row norms: no 3x3 determinant exceeds it."""
    return np.prod(np.linalg.norm(m, axis=-1), axis=-1)


def test_det3_matches_lapack_det():
    rng = np.random.default_rng(23)
    m = rng.standard_normal((120_000, 3, 3))
    want = np.linalg.det(m)
    assert np.all(np.abs(det3(m) - want) <= 1e-15 * hadamard_bound(m))
    # numpy's det is sign * exp(logdet), whose rounding grows with
    # |logdet| (to about 1e-14 of the bound at scale 1e8); the signs agree
    # at every scale, and the error is checked against exact values below
    scaled = m * 10.0 ** rng.uniform(-8, 8, size=(len(m), 1, 1))
    assert np.array_equal(np.sign(det3(scaled)),
                          np.sign(np.linalg.det(scaled)))


def exact_det(rows):
    (a, b, c), (d, e, f), (g, h, i) = [[Fraction(x) for x in r] for r in rows]
    return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)


def test_det3_error_against_exact_values():
    rng = np.random.default_rng(29)
    m = rng.standard_normal((1000, 3, 3)) * 10.0 ** rng.uniform(
        -8, 8, size=(1000, 3, 1))   # each row at its own scale
    got, bound = det3(m), hadamard_bound(m)
    for k, rows in enumerate(m.tolist()):
        assert abs(Fraction(got[k]) - exact_det(rows)) <= 1e-15 * bound[k]


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_det3_is_non_finite_on_non_finite_entries(bad):
    base = np.array([[2.0, 1.0, 0.5], [0.3, 3.0, 1.0], [1.0, 0.2, 4.0]])
    cases = []
    for r in range(3):
        row = base.copy()
        row[r] = bad
        cases.append(row)
        for c in range(3):
            one = base.copy()
            one[r, c] = bad
            cases.append(one)
    with np.errstate(invalid="ignore"):
        assert not np.isfinite(det3(np.array(cases))).any()
        assert not np.isfinite(np.linalg.det(np.array(cases))).any()


def test_det3_is_exactly_zero_on_integer_singular_matrices():
    singular = np.array([[[1, 2, 3], [4, 5, 6], [7, 8, 9]],
                         [[2, 4, 6], [1, 2, 3], [5, -1, 7]],
                         [[3, 0, 1], [6, 0, 2], [0, 0, 5]]])
    assert np.all(det3(singular.astype(float)) == 0.0)
