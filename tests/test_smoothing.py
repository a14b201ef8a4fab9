import math
import tracemalloc

import numpy as np
import pytest

from getme import (
    STANDARD_PARAMS,
    AdaptiveParams,
    ElementType,
    GeneratorSpec,
    InvalidMesh,
    Mesh,
    SmootherConfig,
    adaptive_config,
    element_qualities,
    element_signed_measures,
    generate,
    mesh_quality,
    smart_laplace,
    smooth,
    read_mesh,
    validate,
    write_mesh,
)
from getme import mesh as mesh_module, smoothing
from getme.cli import run
from getme.generators import FLIP_TRIANGLES, FLIP_VERTICES
from getme.geometry import (
    HEX_FACES,
    OCTAHEDRON_FACES,
    hex_face_barycenters,
    rescale_areas,
)
from getme.mesh import (
    ELEMENT_FACES,
    _edge_neighbors,
    _incident_elements,
    hex_corner_dets,
)
from getme.smoothing import (
    ELEMENT_TRIANGLES,
    GUARD_NONE,
    GUARD_RESET,
    _iterate,
    _orientation,
    _Transform,
    _vertex_sums,
)
from test_geometry import nan_canonical_bytes
from test_mesh import per_vertex


def all_boundary(mesh):
    return Mesh(mesh.vertices, mesh.elements, mesh.element_type,
                range(len(mesh.vertices)))


EQUILATERAL_MESH = all_boundary(Mesh(
    [[0.0, 0.0], [1.0, 0.0], [0.5, math.sqrt(3.0) / 2.0]],
    [[0, 1, 2]], "triangle"))

SQUARE_QUAD = all_boundary(Mesh(
    [[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]],
    [[0, 1, 2, 3]], "quad"))

REGULAR_TET = all_boundary(Mesh(
    [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0],
     [0.5, math.sqrt(3.0) / 2.0, 0.0],
     [0.5, math.sqrt(3.0) / 6.0, math.sqrt(2.0 / 3.0)]],
    [[0, 1, 2, 3]], "tet"))

UNIT_CUBE = all_boundary(Mesh(
    [[0, 0, 0], [1, 0, 0], [1, 1, 0], [0, 1, 0],
     [0, 0, 1], [1, 0, 1], [1, 1, 1], [0, 1, 1]],
    [range(8)], "hex"))


def test_config_validation():
    with pytest.raises(ValueError):
        SmootherConfig(inner_iterations=0)
    for bound in (0.0, math.nan, math.inf):
        with pytest.raises(ValueError):
            SmootherConfig(error_bound=bound)
    with pytest.raises(ValueError):
        SmootherConfig(guard="maybe")
    # the gains must be AdaptiveParams, not a pair, a string or None
    for params in ((0.1, 0.15), "x", None):
        with pytest.raises(ValueError, match="must be an AdaptiveParams"):
            SmootherConfig(params=params)
    # counts must be integers: floats and booleans are refused, not
    # truncated or counted as 1, and numpy integers are accepted
    for name in ("inner_iterations", "max_iterations"):
        for bad in (2.5, 2.0, True, np.float64(3.0)):
            with pytest.raises(ValueError):
                SmootherConfig(**{name: bad})
        cfg = SmootherConfig(**{name: np.int64(2)})
        for smoother in (smooth, smart_laplace):
            assert smoother(EQUILATERAL_MESH, cfg).iterations_run == 1
    # the gains are checked where they are used: alpha2 = 2*0.1 - 0.5 < 0
    # fails in smooth(), with or without the guard
    for guard in (GUARD_NONE, "reset"):
        cfg = SmootherConfig(params=AdaptiveParams(0.1, 0.5), guard=guard)
        with pytest.raises(ValueError):
            smooth(EQUILATERAL_MESH, cfg)
    cfg = SmootherConfig()
    assert cfg.inner_for(ElementType.TRIANGLE) == 3
    assert cfg.inner_for(ElementType.QUAD) == 10
    assert SmootherConfig(inner_iterations=5).inner_for(ElementType.QUAD) == 5


def test_adaptive_config_presets():
    assert adaptive_config("triangle").params == AdaptiveParams(0.1, 0.15)
    assert adaptive_config("tet").params == AdaptiveParams(0.6, 0.6)
    assert adaptive_config("hex").params == AdaptiveParams(1.0, 1.0)


def test_regular_elements_are_fixed_points():
    for mesh in (EQUILATERAL_MESH, SQUARE_QUAD, REGULAR_TET, UNIT_CUBE):
        result = smooth(mesh)
        assert result.iterations_run == 1
        assert np.allclose(result.mesh.vertices, mesh.vertices, atol=1e-12)


def test_smooth_dispatch_checks_type():
    assert smooth(EQUILATERAL_MESH).mesh == EQUILATERAL_MESH


def tent():
    """Four 3D triangles around an apex raised above a fixed square rim."""
    verts = [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [1.0, 1.0, 0.0],
             [0.0, 1.0, 0.0], [0.5, 0.5, 0.4]]
    tris = [[0, 1, 4], [1, 2, 4], [2, 3, 4], [3, 0, 4]]
    return Mesh(verts, tris, "triangle", boundary_vertices=range(4))


GAIN_PAIRS = [(0.1, 0.15), (1.0, 1.5), (4.0, 6.0)]


@pytest.mark.parametrize("kind, resolution, jitter", [
    ("jittered-square-tri", 20, 0.4), ("quad-grid-with-hole", 10, 0.3)])
def test_planar_smoothing_depends_on_the_gain_ratio_alone(kind, resolution,
                                                          jitter):
    # alpha0 scales each sub-triangle image, and the area rescale undoes it
    mesh = generate(GeneratorSpec(kind, resolution, jitter, 7))
    runs = [smooth(mesh, SmootherConfig(params=AdaptiveParams(*gains)))
            for gains in GAIN_PAIRS]
    assert len({r.iterations_run for r in runs}) == 1
    for r in runs[1:]:
        assert np.abs(r.mesh.vertices - runs[0].mesh.vertices).max() <= 1e-12


def test_volume_smoothing_takes_alpha0_as_a_step_length():
    # closed surfaces are averaged on every pass before any rescale
    mesh = generate(GeneratorSpec("cube-tet", 3, 0.3, 7))
    iterations = [smooth(mesh, SmootherConfig(params=AdaptiveParams(*gains)))
                  .iterations_run for gains in GAIN_PAIRS[:2]]
    assert iterations[0] != iterations[1]


def test_3d_triangle_meshes_are_rejected(tmp_path):
    # the smoothers do not project moved vertices back onto the surface,
    # and a surface triangle has no orientation to validate
    mesh = tent()
    for check in (smooth, smart_laplace, validate):
        with pytest.raises(InvalidMesh):
            check(mesh)
    src, out = tmp_path / "tent.mesh", tmp_path / "out.mesh"
    write_mesh(mesh, src)
    assert run(["quality", "--in", str(src)]) == 0   # read and scored
    for smoother in ("getme", "smart-laplace"):
        assert run(["smooth", "--in", str(src), "--out", str(out),
                    "--smoother", smoother]) == 1
        assert not out.exists()


def test_empty_mesh_is_rejected():
    # a mesh has at least one element, so no smoother meets an empty one
    with pytest.raises(InvalidMesh, match="a mesh needs at least one element"):
        Mesh(np.zeros((0, 2)), np.zeros((0, 3)), "triangle")


def fan_with_degenerate_triangle():
    """A fan around one interior vertex, plus a zero-area triangle on one
    rim edge whose third vertex is that edge's midpoint, and so its
    centroid."""
    verts = [[0.1, 0.05], [1, 0], [0, 1], [-1, 0], [0, -1], [0.5, 0.5]]
    tris = [[0, 1, 2], [0, 2, 3], [0, 3, 4], [0, 4, 1], [2, 1, 5]]
    return Mesh(verts, tris, "triangle", boundary_vertices=range(1, 5))


@pytest.mark.parametrize("guard", ["reset", GUARD_NONE])
def test_degenerate_element_is_reported_and_kept_finite(guard):
    mesh = fan_with_degenerate_triangle()
    result = smooth(mesh, SmootherConfig(guard=guard))
    # the degenerate triangle's image is reset on every iteration
    assert result.guard_resets and min(result.guard_resets) >= 1
    assert np.all(np.isfinite(result.mesh.vertices))
    # the free midpoint has only the degenerate triangle's image, which is
    # reset to its snapshot
    assert np.array_equal(result.mesh.vertices[5], mesh.vertices[5])


def test_boundary_vertices_never_move():
    mesh = generate(GeneratorSpec("jittered-square-tri", resolution=6,
                                  jitter=0.3, seed=2))
    result = smooth(mesh)
    fixed = mesh.boundary_mask
    assert np.array_equal(result.mesh.vertices[fixed], mesh.vertices[fixed])


def test_triangle_smoothing_improves_quality():
    mesh = generate(GeneratorSpec("jittered-square-tri", resolution=10,
                                  jitter=0.4, seed=3))
    result = smooth(mesh)
    assert result.report.mean > mesh_quality(mesh).mean
    assert result.report.min > mesh_quality(mesh).min
    assert validate(result.mesh) == []
    assert result.iterations_run <= 200


def test_quad_smoothing_improves_quality():
    mesh = generate(GeneratorSpec("quad-grid-with-hole", resolution=8,
                                  jitter=0.3, seed=3))
    result = smooth(mesh)
    assert result.report.mean > mesh_quality(mesh).mean
    assert validate(result.mesh) == []


def test_tet_smoothing_improves_quality():
    mesh = generate(GeneratorSpec("cube-tet", resolution=4, jitter=0.4, seed=3))
    result = smooth(mesh, adaptive_config("tet"))
    assert result.report.mean > mesh_quality(mesh).mean
    assert validate(result.mesh) == []


def test_hex_smoothing_improves_quality():
    mesh = generate(GeneratorSpec("cube-hex", resolution=4, jitter=0.4, seed=3))
    result = smooth(mesh)
    assert result.report.mean > mesh_quality(mesh).mean
    assert validate(result.mesh) == []


def test_volume_preserved_per_step_tet():
    mesh = generate(GeneratorSpec("cube-tet", resolution=3, jitter=0.3, seed=4))
    result = smooth(mesh)
    # each element transform preserves its volume; averaging redistributes
    # it, so only approximate global preservation can be expected
    v0 = element_signed_measures(mesh.element_points(), ElementType.TET).sum()
    v1 = element_signed_measures(result.mesh.element_points(),
                                 ElementType.TET).sum()
    assert np.isclose(v0, v1, rtol=0.05)


def test_flip_mesh_unguarded_inverts_one_element():
    mesh = Mesh(FLIP_VERTICES, FLIP_TRIANGLES, "triangle", boundary_vertices=())
    assert validate(mesh) == []
    cfg = SmootherConfig(guard=GUARD_NONE, max_iterations=1, inner_iterations=1)
    result = smooth(mesh, cfg)
    measures = element_signed_measures(result.mesh.element_points(),
                                       ElementType.TRIANGLE)
    assert int((measures <= 0).sum()) == 1


def pushed_mesh(kind, res, seed):
    """A mesh generated at jitter 0.2 with a random tenth of its interior
    vertices pushed by up to 1.2 cells along each axis, which inverts some
    elements or corners."""
    mesh = generate(GeneratorSpec(kind, res, 0.2, seed))
    rng = np.random.default_rng(seed)
    interior = np.flatnonzero(~mesh.boundary_mask)
    pick = rng.choice(interior, len(interior) // 10, replace=False)
    verts = mesh.vertices.copy()
    verts[pick] += rng.uniform(-1.2, 1.2, (len(pick), mesh.dimension)) / res
    return mesh.with_vertices(verts)


PUSHED_RESOLUTIONS = {"jittered-square-tri": 10, "quad-grid-with-hole": 10,
                      "cube-tet": 5, "cube-hex": 5}


@pytest.mark.parametrize("smoother", [smooth, smart_laplace])
@pytest.mark.parametrize("kind", list(PUSHED_RESOLUTIONS))
def test_smoothers_repair_tangled_elements(kind, smoother):
    # the guards forbid new inversions, not sign changes, so inverted
    # elements may be repaired while no valid one becomes invalid
    invalid_in = invalid_out = 0
    for seed in range(1, 11):
        mesh = pushed_mesh(kind, PUSHED_RESOLUTIONS[kind], seed)
        before = set(validate(mesh))
        after = set(validate(smoother(mesh).mesh))
        assert after <= before, seed
        invalid_in += len(before)
        invalid_out += len(after)
    assert invalid_out < invalid_in


def test_smoothers_turn_no_convex_quad_non_convex():
    # every corner is guarded, not the signed area alone, which lets a
    # smooth() step make a convex quad of these meshes non-convex
    for seed in range(1, 11):
        mesh = pushed_mesh("quad-grid-with-hole", 10, seed)
        before = element_signed_measures(mesh.element_points(), "quad")
        convex = np.all(before > 0, axis=1)
        assert not convex.all()
        for smoother in (smooth, smart_laplace):
            after = element_signed_measures(
                smoother(mesh).mesh.element_points(), "quad")
            assert np.all(after[convex] > 0), (seed, smoother)


def test_cli_smooth_repairs_a_tangled_file(tmp_path, capsys):
    mesh = pushed_mesh("jittered-square-tri", 10, 3)
    assert len(validate(mesh)) == 7
    src, out = tmp_path / "tangled.mesh", tmp_path / "smoothed.mesh"
    write_mesh(mesh, str(src))
    assert run(["smooth", "--in", str(src), "--out", str(out),
                "--smoother", "getme"]) == 0
    assert validate(read_mesh(str(out))) == []


def test_flip_mesh_guard_prevents_inversion():
    mesh = Mesh(FLIP_VERTICES, FLIP_TRIANGLES, "triangle", boundary_vertices=())
    cfg = SmootherConfig(max_iterations=1, inner_iterations=1)
    result = smooth(mesh, cfg)
    assert validate(result.mesh) == []
    assert sum(result.guard_resets) >= 1


SMOOTHERS = {"smooth": smooth, "smart_laplace": smart_laplace}


@pytest.mark.parametrize("smoother", sorted(SMOOTHERS))
def test_iteration_trace_recorded(smoother):
    mesh = generate(GeneratorSpec("jittered-square-tri", resolution=5,
                                  jitter=0.3, seed=5))
    result = SMOOTHERS[smoother](mesh)
    trace = result.report.iteration_trace
    assert trace[0][0] == 0
    assert trace[-1][0] == result.iterations_run
    assert trace[0][1] == pytest.approx(mesh_quality(mesh).mean)
    capped = SMOOTHERS[smoother](mesh, SmootherConfig(max_iterations=1))
    assert capped.iterations_run == 1
    assert [row[0] for row in capped.report.iteration_trace] == [0, 1]


@pytest.mark.parametrize("smoother", sorted(SMOOTHERS))
def test_stopping_rule_respects_error_bound(smoother):
    mesh = generate(GeneratorSpec("jittered-square-tri", resolution=5,
                                  jitter=0.3, seed=5))
    run_with = SMOOTHERS[smoother]
    tight = run_with(mesh, SmootherConfig(error_bound=1e-9,
                                          max_iterations=500))
    loose = run_with(mesh, SmootherConfig(error_bound=1e-2))
    assert loose.iterations_run <= tight.iterations_run


def test_invalid_alpha2_rejected_by_smoother():
    mesh = generate(GeneratorSpec("jittered-square-tri", resolution=4))
    with pytest.raises(ValueError):
        smooth(mesh, SmootherConfig(params=AdaptiveParams(1.0, 2.8)))


def test_smart_laplace_improves_and_keeps_valid():
    for kind, res in [("jittered-square-tri", 8), ("quad-grid-with-hole", 8),
                      ("cube-tet", 3), ("cube-hex", 3)]:
        mesh = generate(GeneratorSpec(kind, resolution=res, jitter=0.3, seed=6))
        result = smart_laplace(mesh)
        assert result.report.mean > mesh_quality(mesh).mean, kind
        assert validate(result.mesh) == [], kind


def concave_fan():
    """One interior vertex fanned against a non-convex boundary ring whose
    barycenter lies outside the kernel of the polygon."""
    ring = np.array([[0.0, 0.0], [4.0, 0.0], [4.0, 3.0], [2.0, 0.5], [0.0, 3.0]])
    verts = np.vstack([[2.0, 0.25], ring])
    tris = [[0, 1, 2], [0, 2, 3], [0, 3, 4], [0, 4, 5], [0, 5, 1]]
    return Mesh(verts, tris, "triangle", boundary_vertices=range(1, 6))


def test_smart_laplace_rejects_inverting_move():
    mesh = concave_fan()
    assert validate(mesh) == []
    # plain Laplace oracle: the barycenter move inverts two fan triangles
    plain = mesh.vertices.copy()
    plain[0] = mesh.vertices[1:].mean(axis=0)
    assert len(validate(mesh.with_vertices(plain))) > 0
    result = smart_laplace(mesh)
    assert validate(result.mesh) == []


def one_sided_fan(inverted_first):
    """A convex-kernel fan whose barycenter move inverts one triangle only,
    listed as the centre's first or last incident element."""
    ring = np.array([[0.0, 0.0], [4.0, 0.0], [4.0, 3.0], [3.5, 1.0], [0.0, 3.0]])
    verts = np.vstack([[3.4, 0.2], ring])
    tris = [[0, 1, 2], [0, 2, 3], [0, 4, 5], [0, 5, 1], [0, 3, 4]]
    if inverted_first:
        tris = tris[::-1]
    return Mesh(verts, tris, "triangle", boundary_vertices=range(1, 6))


@pytest.mark.parametrize("inverted_first", [True, False])
def test_smart_laplace_rejects_a_move_inverting_one_end_element(inverted_first):
    mesh = one_sided_fan(inverted_first)
    assert validate(mesh) == []
    plain = mesh.vertices.copy()
    plain[0] = mesh.vertices[1:].mean(axis=0)
    assert validate(mesh.with_vertices(plain)) == [0 if inverted_first else 4]
    result = smart_laplace(mesh)
    assert np.array_equal(result.mesh.vertices, mesh.vertices)


def test_smoothers_invert_no_positive_hex_corner():
    # an interior vertex pushed so far that seven hex corners invert;
    # SmartLaplace guarded by each hex's smallest corner alone inverted an
    # eighth
    mesh = generate(GeneratorSpec("cube-hex", 3, 0.3, 0))
    verts = mesh.vertices.copy()
    verts[21] += (-0.3, 0.3, -0.3)
    mesh = mesh.with_vertices(verts)
    before = hex_corner_dets(mesh.element_points())
    assert (before < 0).sum() == 7
    for smoother in (smart_laplace, smooth):
        after = smoother(mesh).mesh
        assert not np.array_equal(after.vertices, mesh.vertices)
        assert np.all(hex_corner_dets(after.element_points())[before > 0] > 0)


def reference_colours(mesh):
    """The movable vertices in (colour, index) order, as lists per colour:
    each vertex, in index order, takes the lowest colour that no element
    around it holds yet."""
    neighbors = per_vertex(_edge_neighbors(mesh))
    incident = per_vertex(_incident_elements(mesh))
    held = [set() for _ in mesh.elements]
    colours = {}
    for v in np.flatnonzero(~mesh.boundary_mask):
        if not len(neighbors[v]):
            continue
        taken = set().union(*(held[e] for e in incident[v]))
        colour = min(set(range(len(taken) + 1)) - taken)
        for e in incident[v]:
            held[e].add(colour)
        colours.setdefault(colour, []).append(v)
    return [colours[c] for c in sorted(colours)]


def reference_laplace_steps(mesh):
    """SmartLaplace as a per-vertex numpy sweep in (colour, index) order:
    the bits `smart_laplace` must reproduce.  A move is rejected where its
    mean is not finite or a guarded corner of an incident element ends not
    > 0; the guarded corners are measured again after each colour.  Yields
    the vertices, their element points and the number of moves the sweep
    rejected."""
    neighbors = per_vertex(_edge_neighbors(mesh))
    incident = per_vertex(_incident_elements(mesh))
    etype, elems = mesh.element_type, mesh.elements
    verts = mesh.vertices.copy()
    colours = reference_colours(mesh)
    # a corner is guarded while it is not <= 0: positive, or NaN
    guarded = ~(_orientation(verts[elems], etype) <= 0)

    while True:
        rejected = 0
        for colour in colours:
            for v in colour:
                proposal = verts[neighbors[v]].mean(axis=0)
                old = verts[v].copy()
                verts[v] = proposal
                idx = incident[v]
                m = _orientation(verts[elems[idx]], etype)
                if (not np.all(np.isfinite(proposal))
                        or np.any(guarded[idx] & ~(m > 0))):
                    verts[v] = old
                    rejected += 1
            touched = np.concatenate([incident[v] for v in colour])
            guarded[touched] = ~(_orientation(verts[elems[touched]], etype)
                                 <= 0)
        yield verts, verts[elems], rejected


def with_unused_vertex(mesh):
    """The mesh plus a free vertex that no element uses."""
    return Mesh(np.vstack([mesh.vertices, [[0.3, 0.7]]]), mesh.elements,
                mesh.element_type, np.flatnonzero(mesh.boundary_mask))


def overflowing_fan():
    """`concave_fan` with its ring's vertex 3 at (2.5, 2.5), scaled so far
    up that the reference measures are [inf, inf, nan, inf, inf]."""
    mesh = concave_fan()
    verts = mesh.vertices.copy()
    verts[4] = (2.5, 2.5)
    return Mesh(verts * 1e155, mesh.elements, "triangle", range(1, 6))


def collinear_triangles(xs, ys):
    """Zero-area triangles (0, 1, 2) and (2, 3, 4) on one line, with the
    middle vertex free."""
    return Mesh(np.column_stack([xs, ys]), [[0, 1, 2], [2, 3, 4]],
                "triangle", (0, 1, 3, 4))


def spec_mesh(kind, res, jitter, seed):
    return lambda: generate(GeneratorSpec(kind, res, jitter, seed))


def permuted(mesh, seed):
    """`mesh` with its vertex ids randomly permuted, which changes the order
    of the SmartLaplace sweep and so its wavefronts."""
    perm = np.random.default_rng(seed).permutation(len(mesh.vertices))
    verts = np.empty_like(mesh.vertices)
    verts[perm] = mesh.vertices
    return Mesh(verts, perm[mesh.elements], mesh.element_type,
                perm[np.flatnonzero(mesh.boundary_mask)])


def overflowing_tets():
    """An unjittered cube-tet mesh scaled so far up that every tet
    determinant is NaN: products of three coordinates overflow to inf and
    meet 0 * inf or inf - inf."""
    mesh = generate(GeneratorSpec("cube-tet", 3, 0.0))
    return Mesh(mesh.vertices * 1e155, mesh.elements, "tet",
                np.flatnonzero(mesh.boundary_mask))


LAPLACE_REFERENCE_MESHES = {
    "desk-tri20": spec_mesh("jittered-square-tri", 20, 0.4, 7),
    "desk-quad10": spec_mesh("quad-grid-with-hole", 10, 0.3, 7),
    "tet4": spec_mesh("cube-tet", 4, 0.4, 3),
    "hex3": spec_mesh("cube-hex", 3, 0.3, 3),
    "desk-tet8": spec_mesh("cube-tet", 8, 0.45, 7),
    "desk-hex10": spec_mesh("cube-hex", 10, 0.35, 7),
    "tet5-permuted": lambda: permuted(generate(
        GeneratorSpec("cube-tet", 5, 0.4, 3)), 13),
    # the first sweep rejects a move on each of these
    "tet5-rejects": spec_mesh("cube-tet", 5, 0.49, 4),
    "hex4-rejects": spec_mesh("cube-hex", 4, 0.49, 13),
    "overflowing-tets": overflowing_tets,
    **{f"disk8s{k}": spec_mesh("disk-tri", 8, 0.3, 7 + 1000 * k)
       for k in range(4)},
    "concave-fan": concave_fan,
    "degenerate-fan": fan_with_degenerate_triangle,
    "unused-vertex": lambda: with_unused_vertex(concave_fan()),
    "overflowing-fan": overflowing_fan,
    # the proposal's x overflows to inf; both measures start at 0, so no
    # corner is guarded and only the non-finite mean is rejected
    "overflowing-line": lambda: collinear_triangles(
        [0.0, 2.0, 1.0, 1.5e308, 1.6e308], [0.0] * 5),
    # every neighbor sits at x = -0.0, so the proposal's x is -0.0
    "negative-zero-line": lambda: collinear_triangles(
        [-0.0] * 5, [0.0, 2.0, 0.5, 3.0, 4.0]),
}


@pytest.mark.parametrize("name", list(LAPLACE_REFERENCE_MESHES))
def test_smart_laplace_matches_numpy_reference(name):
    mesh = LAPLACE_REFERENCE_MESHES[name]()
    with np.errstate(all="ignore"):
        got = smart_laplace(mesh)
        want = _iterate(mesh, SmootherConfig(), reference_laplace_steps(mesh))
    assert got.mesh.vertices.tobytes() == want.mesh.vertices.tobytes()
    assert got.iterations_run == want.iterations_run
    assert (np.array(got.report.iteration_trace).tobytes()
            == np.array(want.report.iteration_trace).tobytes())
    assert got.guard_resets == want.guard_resets


@pytest.mark.parametrize("name", ["desk-tri20", "desk-quad10", "disk8s0",
                                  "tet5-permuted", "desk-hex10",
                                  "unused-vertex"])
def test_laplace_waves_are_a_proper_colouring(name):
    mesh = LAPLACE_REFERENCE_MESHES[name]()
    incident = _incident_elements(mesh)
    colours = smoothing._colours(mesh, _edge_neighbors(mesh)[1], incident)
    moved = colours[colours >= 0]
    assert set(moved.tolist()) == set(range(moved.max() + 1))
    waves = [np.flatnonzero(colours == c) for c in range(moved.max() + 1)]
    elements = per_vertex(incident)
    for wave in waves:
        # no two vertices of a wave share an element
        touched = np.concatenate([elements[v] for v in wave])
        assert len(touched) == len(set(touched.tolist()))
    assert [wave.tolist() for wave in waves] == reference_colours(mesh)


def test_smart_laplace_rejects_every_move_on_non_finite_measures():
    mesh = overflowing_fan()
    with np.errstate(all="ignore"):
        measures = element_signed_measures(mesh.element_points(),
                                           ElementType.TRIANGLE)
        flagged = validate(mesh)
        result = smart_laplace(mesh)
    assert np.isinf(measures).sum() == 4 and np.isnan(measures[2])
    assert flagged == [0, 1, 2, 3, 4]
    assert np.array_equal(result.mesh.vertices, mesh.vertices)
    # the mean quality is NaN, so the first iteration ends the run
    assert np.isnan(result.report.mean)
    assert result.iterations_run == 1


@pytest.mark.parametrize("name", ["tet5-rejects", "hex4-rejects"])
def test_volume_reference_meshes_reject_a_move(name):
    mesh = LAPLACE_REFERENCE_MESHES[name]()
    _, _, rejected = next(reference_laplace_steps(mesh))
    assert rejected
    assert smart_laplace(mesh).guard_resets[0] == rejected


def test_smart_laplace_rejects_every_move_on_overflowing_tets():
    mesh = overflowing_tets()
    with np.errstate(all="ignore"):
        measures = element_signed_measures(mesh.element_points(),
                                           ElementType.TET)
        flagged = validate(mesh)
        _, _, rejected = next(reference_laplace_steps(mesh))
        result = smart_laplace(mesh)
    assert np.isnan(measures).all()
    assert flagged == list(range(len(mesh.elements)))
    assert rejected == (~mesh.boundary_mask).sum() == 8
    assert result.guard_resets == [8]
    assert np.array_equal(result.mesh.vertices, mesh.vertices)
    assert result.iterations_run == 1


@pytest.mark.parametrize("kind", ["jittered-square-tri", "quad-grid-with-hole",
                                  "cube-tet", "cube-hex", "disk-tri"])
def test_unguarded_smoothing_near_the_float_maximum_stays_finite(kind):
    # the averaged images of a mesh at 1.7e308 overflow; the accept step
    # keeps such a vertex where it was, with or without the guard
    mesh = generate(GeneratorSpec(kind, 4, 0.3, 7))
    mesh = mesh.with_vertices(mesh.vertices * 1.7e308)
    with np.errstate(all="ignore"):
        result = smooth(mesh, SmootherConfig(guard=GUARD_NONE))
    assert np.isfinite(result.mesh.vertices).all()
    pinned = mesh.boundary_mask
    assert (result.mesh.vertices[pinned].tobytes()
            == mesh.vertices[pinned].tobytes())


@pytest.mark.parametrize("kind", ["jittered-square-tri", "cube-tet"])
def test_overflowing_meshes_smooth_and_validate_without_warnings(kind):
    # the squared edge lengths and determinants of a mesh at 1e300 overflow;
    # NaN measures are the designed result, not a numpy RuntimeWarning,
    # which this test (under the error filter, with no errstate) refuses
    mesh = generate(GeneratorSpec(kind, 4, 0.4, 7))
    mesh = mesh.with_vertices(mesh.vertices * 1e300)
    assert validate(mesh) == list(range(len(mesh.elements)))
    adaptive = adaptive_config(mesh.element_type)
    for result in (smooth(mesh), smooth(mesh, adaptive), smart_laplace(mesh)):
        assert result.iterations_run == 1
        assert np.isnan(result.report.mean)


def rotation_3d(axis, ang):
    """Rotation by `ang` about the direction `axis` (Rodrigues' formula)."""
    k = np.asarray(axis, dtype=float) / np.linalg.norm(axis)
    cross = np.array([[0.0, -k[2], k[1]],
                      [k[2], 0.0, -k[0]],
                      [-k[1], k[0], 0.0]])
    return (np.eye(3) + math.sin(ang) * cross
            + (1 - math.cos(ang)) * cross @ cross)


RIGID_MOTION_MESHES = {
    "tri": ("jittered-square-tri", 6, 0.4),
    "quad": ("quad-grid-with-hole", 6, 0.3),
    "tet": ("cube-tet", 3, 0.4),
    "hex": ("cube-hex", 3, 0.3),
}


@pytest.mark.parametrize("preset", ["standard", "adaptive", "smart-laplace"])
@pytest.mark.parametrize("kind", list(RIGID_MOTION_MESHES))
def test_smoothing_commutes_with_rigid_motions(kind, preset):
    generator, res, jitter = RIGID_MOTION_MESHES[kind]
    mesh = generate(GeneratorSpec(generator, resolution=res, jitter=jitter,
                                  seed=8))
    if mesh.dimension == 2:
        ang = 0.7
        rot = np.array([[math.cos(ang), -math.sin(ang)],
                        [math.sin(ang), math.cos(ang)]])
        shift = np.array([3.0, -2.0])
    else:
        rot = rotation_3d((1.0, -2.0, 0.5), 0.7)
        shift = np.array([3.0, -2.0, 0.5])
    cfg = (adaptive_config(mesh.element_type) if preset == "adaptive"
           else SmootherConfig())
    smoother = smart_laplace if preset == "smart-laplace" else smooth
    moved = mesh.with_vertices(mesh.vertices @ rot.T + shift)
    a = smoother(moved, cfg)
    b = smoother(mesh, cfg)
    assert np.allclose(a.mesh.vertices, b.mesh.vertices @ rot.T + shift,
                       atol=1e-9)
    assert a.iterations_run == b.iterations_run


def test_smoothing_is_deterministic():
    mesh = generate(GeneratorSpec("jittered-square-tri", resolution=6,
                                  jitter=0.4, seed=7))
    a = smooth(mesh)
    b = smooth(mesh)
    assert np.array_equal(a.mesh.vertices, b.mesh.vertices)
    assert a.guard_resets == b.guard_resets


def test_adaptive_smoothing_independent_of_element_row_start():
    mesh = generate(GeneratorSpec("jittered-square-tri", resolution=20,
                                  jitter=0.4, seed=7))
    rolled = Mesh(mesh.vertices, np.roll(mesh.elements, 1, axis=1),
                  mesh.element_type, np.flatnonzero(mesh.boundary_mask))
    cfg = adaptive_config("triangle")
    a = smooth(mesh, cfg)
    b = smooth(rolled, cfg)
    assert np.abs(a.mesh.vertices - b.mesh.vertices).max() < 1e-12
    assert a.iterations_run == b.iterations_run


# ---------------------------------------------------------------------------
# The slot-slab layout of `_Transform` against the element-major one
# ---------------------------------------------------------------------------


def reference_transform_triangles(tris, params):
    """`transform_triangles` as first written, with np.roll and
    np.linalg.norm over element-major rows."""
    c = tris.mean(axis=-2)[..., None, :]
    d = tris - c
    radii = np.linalg.norm(d, axis=-1)
    k = (params.alpha0 - params.alpha1) / (3.0 * params.alpha0)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = np.roll(radii, 1, axis=-1) / radii
        scaled = (params.alpha0 * ratios[..., None]) * d
        out = scaled - scaled.mean(axis=-2, keepdims=True)
        if k:
            out += k * (np.roll(scaled, -1, axis=-2)
                        - np.roll(scaled, 1, axis=-2))
    return out + c


def reference_transform(points, element_type, params, inner, orientation):
    """`_Transform` on element-major (rows, 3, dim) C arrays, with images
    at flat (triangle, slot) positions: the bits the slot-slab layout
    must reproduce."""
    faces = ELEMENT_TRIANGLES[element_type]
    slots = np.argsort(faces.ravel(), kind="stable").reshape(
        faces.max() + 1, -1)
    closed = element_type in (ElementType.TET, ElementType.HEX)
    hexes = element_type is ElementType.HEX
    cur = hex_face_barycenters(points) if hexes else points
    n, dim = cur.shape[0], cur.shape[-1]

    def average_images(tris):
        return tris.reshape(n, -1, dim)[:, slots].sum(axis=2) / slots.shape[1]

    tris = cur[:, faces].reshape(-1, 3, dim)
    for _ in range(inner):
        new = reference_transform_triangles(tris, params)
        if closed:
            cur = average_images(new)
            tris = cur[:, faces].reshape(-1, 3, dim)
        else:
            tris = rescale_areas(tris, new)
    if not closed:
        return average_images(tris)

    if hexes:
        cur = cur[:, OCTAHEDRON_FACES].mean(axis=2)
    volumes = _orientation(cur, element_type).sum(axis=-1)
    with np.errstate(divide="ignore", invalid="ignore"):
        factor = np.cbrt(np.abs(orientation.sum(axis=-1) / volumes))
    c = cur.mean(axis=1, keepdims=True)
    return factor[:, None, None] * (cur - c) + c


def reference_workspace(element_type, shape):
    """A stand-in for `_Transform` that calls `reference_transform`."""
    return lambda points, params, inner, orientation: reference_transform(
        points, element_type, params, inner, orientation)


LAYOUT_MESHES = {
    ElementType.TRIANGLE: ("jittered-square-tri", 4),
    ElementType.QUAD: ("quad-grid-with-hole", 4),
    ElementType.TET: ("cube-tet", 2),
    ElementType.HEX: ("cube-hex", 2),
}

#: Per type, the local vertices of a facet: an edge in 2D, a face in 3D.
LAYOUT_FACETS = {
    ElementType.TRIANGLE: [0, 1],
    ElementType.QUAD: [0, 1],
    ElementType.TET: list(ELEMENT_FACES[ElementType.TET][0]),
    ElementType.HEX: list(HEX_FACES[5]),
}


def layout_cases(etype):
    """Element points of a jittered mesh, followed by the special rows: a
    facet on x = -0.0, every x at -0.0, and a flat element (collinear in 2D,
    in one plane in 3D)."""
    kind, res = LAYOUT_MESHES[etype]
    mesh = generate(GeneratorSpec(kind, res, 0.3, 3))
    points = mesh.vertices[mesh.elements]
    facet, all_x, flat = points[0].copy(), points[1].copy(), points[2].copy()
    facet[LAYOUT_FACETS[etype], 0] = -0.0
    all_x[:, 0] = -0.0
    flat[:, -1] = 0.5
    special = np.stack([facet, all_x, flat])
    return {"mesh": np.concatenate([points, special]),
            "one-element": points[:1], "negative-zero-facet": facet[None],
            "flat-element": flat[None]}


@pytest.mark.parametrize("inner", [1, None])
@pytest.mark.parametrize("gains", [(1.0, 1.0), (0.1, 0.15), (0.6, 0.6)])
@pytest.mark.parametrize("etype", list(LAYOUT_MESHES))
def test_transform_matches_element_major_reference(etype, gains, inner):
    params = AdaptiveParams(*gains)
    inner = inner or SmootherConfig().inner_for(etype)
    for name, points in layout_cases(etype).items():
        with np.errstate(all="ignore"):
            orientation = _orientation(points, etype)
            got = _Transform(etype, points.shape)(points, params, inner,
                                                  orientation)
            want = reference_transform(points, etype, params, inner,
                                       orientation)
        assert got.shape == want.shape, name
        assert nan_canonical_bytes(got) == nan_canonical_bytes(want), name
        if name in ("mesh", "flat-element"):
            assert np.isnan(got).any()


@pytest.mark.parametrize("guard", [GUARD_RESET, GUARD_NONE])
@pytest.mark.parametrize("preset", ["standard", "adaptive"])
@pytest.mark.parametrize("etype", list(LAYOUT_MESHES))
def test_smooth_matches_element_major_reference(monkeypatch, etype, preset,
                                                guard):
    kind, res = LAYOUT_MESHES[etype]
    mesh = generate(GeneratorSpec(kind, res + 2, 0.4, 5))
    cfg = (adaptive_config(etype, guard=guard) if preset == "adaptive"
           else SmootherConfig(guard=guard))
    got = smooth(mesh, cfg)
    monkeypatch.setattr(smoothing, "_Transform", reference_workspace)
    want = smooth(mesh, cfg)
    assert got.mesh.vertices.tobytes() == want.mesh.vertices.tobytes()
    assert got.iterations_run == want.iterations_run
    assert got.guard_resets == want.guard_resets
    assert (got.report.mean, got.report.min) == (want.report.mean,
                                                 want.report.min)


# ---------------------------------------------------------------------------
# The closed-form determinant and the bincount scatter against the forms
# they replace
# ---------------------------------------------------------------------------


def test_vertex_sums_match_add_at():
    rng = np.random.default_rng(17)
    n, dim = 50, 3
    # vertex 7 is unused, and vertex 3's only values are -0.0
    indices = rng.integers(0, n, 2000)
    indices[indices == 7] = 8
    values = rng.standard_normal((2000, dim)) * 10.0 ** rng.integers(
        -8, 9, size=(2000, 1))
    indices[:4] = 3
    values[indices == 3] = -0.0
    want = np.zeros((n, dim))
    np.add.at(want, indices, values)
    got = _vertex_sums(indices, values, n)
    assert got.tobytes() == want.tobytes()
    assert np.signbit(got[3]).sum() == 0 and not got[7].any()


DESK_MESHES = {
    "tri20": ("jittered-square-tri", 20, 0.4),
    "quad10": ("quad-grid-with-hole", 10, 0.3),
    "tet8": ("cube-tet", 8, 0.45),
    "hex10": ("cube-hex", 10, 0.35),
}


@pytest.mark.parametrize("preset", ["standard", "adaptive"])
@pytest.mark.parametrize("name", list(DESK_MESHES))
def test_smooth_matches_lapack_det_reference(monkeypatch, name, preset):
    """`det3` against LAPACK's det at every determinant site, the corner
    measures and quality, which both take it from `mesh`: volume outputs
    within 1e-12, planar ones (which take no 3x3 determinant)
    bit-identical."""
    kind, res, jitter = DESK_MESHES[name]
    mesh = generate(GeneratorSpec(kind, res, jitter, 7))
    cfg = (adaptive_config(mesh.element_type) if preset == "adaptive"
           else SmootherConfig())
    got = smooth(mesh, cfg)
    monkeypatch.setattr(mesh_module, "det3", np.linalg.det)
    want = smooth(mesh, cfg)
    assert got.iterations_run == want.iterations_run
    assert got.guard_resets == want.guard_resets
    if mesh.dimension == 2:
        assert got.mesh.vertices.tobytes() == want.mesh.vertices.tobytes()
    else:
        # the two determinants round differently, so the patch took effect
        assert got.mesh.vertices.tobytes() != want.mesh.vertices.tobytes()
        assert np.abs(got.mesh.vertices - want.mesh.vertices).max() <= 1e-12
        assert abs(got.report.mean - want.report.mean) <= 1e-12


#: The most a second call of one `_Transform` may allocate, in bytes of its
#: element points, on every type: its buffers come from the workspace.  The
#: hex volume measure peaks highest, at 5.69 on hex10 (tet8 1.34, quad10
#: 3.66, tri20 1.09), so 6.5 leaves a margin of about 14%.
TRANSFORM_PEAK_BOUND = 6.5


@pytest.mark.parametrize("name", list(DESK_MESHES))
def test_a_transform_workspace_allocates_little(name):
    kind, res, jitter = DESK_MESHES[name]
    mesh = generate(GeneratorSpec(kind, res, jitter, 7))
    etype, points = mesh.element_type, mesh.element_points()
    orientation = _orientation(points, etype)
    inner = SmootherConfig().inner_for(etype)
    transform = _Transform(etype, points.shape)
    transform(points, STANDARD_PARAMS, inner, orientation)
    tracemalloc.start()   # it sees numpy's buffers
    try:
        transform(points, STANDARD_PARAMS, inner, orientation)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < TRANSFORM_PEAK_BOUND * points.nbytes


#: The most an `element_qualities` call may allocate, in bytes of its
#: element points: one corner-edge array and the arithmetic on it.  It
#: peaks at about 5.3 on quad10, whose 84 elements leave fixed-size
#: temporaries the largest share (hex10 4.68, tri20 1.71, tet8 1.50);
#: gathering the edges and then copying them into another layout reads
#: 9.36 on quad10 and 7.26 on hex10.
QUALITY_PEAK_BOUND = 6.0


@pytest.mark.parametrize("name", list(DESK_MESHES))
def test_element_qualities_allocate_little(name):
    mesh = generate(GeneratorSpec(*DESK_MESHES[name], 7))
    etype, points = mesh.element_type, mesh.element_points()
    element_qualities(points, etype)
    tracemalloc.start()   # it sees numpy's buffers
    try:
        element_qualities(points, etype)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < QUALITY_PEAK_BOUND * points.nbytes
