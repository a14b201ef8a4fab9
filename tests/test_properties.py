"""Property tests over generated meshes of all four element types.

The profile is derandomized with a fixed example count, so every run
draws the same examples and the suite stays quick.
"""

import io
import math
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import assume, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from getme import (
    STANDARD_PARAMS,
    AdaptiveParams,
    ElementType,
    GeneratorSpec,
    Mesh,
    SmootherConfig,
    element_qualities,
    generate,
    smart_laplace,
    smooth,
    validate,
    write_mesh,
)
from getme.cli import run
from getme.io import read_medit, read_vtk, write_medit, write_vtk
from getme.smoothing import (
    ADAPTIVE_PRESETS,
    _iterate,
    _orientation,
    _Transform,
)
from test_cli import strict_json
from test_smoothing import (
    layout_cases,
    nan_canonical_bytes,
    reference_laplace_steps,
    reference_transform,
)

GENERATED_KINDS = ("jittered-square-tri", "disk-tri", "quad-grid-with-hole",
                   "cube-tet", "cube-hex")


# without the guard, jittered res 5 disks end with inverted elements, so
# the guard's property is not vacuous
@settings(derandomize=True, max_examples=60, deadline=None, database=None)
@given(kind=st.sampled_from(GENERATED_KINDS),
       resolution=st.integers(3, 5),
       jitter=st.floats(0.0, 0.45),
       seed=st.integers(0, 2**16))
def test_smoothers_keep_pinned_vertices_and_add_no_invalid_element(
        kind, resolution, jitter, seed):
    mesh = generate(GeneratorSpec(kind, resolution, jitter, seed))
    guarded, laplace = smooth(mesh), smart_laplace(mesh)
    pinned = mesh.boundary_mask
    for out in (guarded.mesh, laplace.mesh):
        assert out.vertices[pinned].tobytes() == mesh.vertices[pinned].tobytes()
    assert set(validate(guarded.mesh)) <= set(validate(mesh))
    # one guard count per iteration: reset elements for smooth(), rejected
    # moves of free vertices for SmartLaplace
    for result, most in ((guarded, len(mesh.elements)),
                         (laplace, int((~pinned).sum()))):
        assert len(result.guard_resets) == result.iterations_run
        assert all(0 <= r <= most for r in result.guard_resets)


# one interior vertex pushed up to 0.9 cell widths along each axis often
# inverts a few corners; the smoothers may repair them, but no positive
# corner may become non-positive
@settings(derandomize=True, max_examples=40, deadline=None, database=None)
@given(kind=st.sampled_from(GENERATED_KINDS),
       resolution=st.integers(3, 5),
       jitter=st.floats(0.0, 0.3),
       seed=st.integers(0, 2**16),
       pick=st.integers(0, 2**16),
       push=st.lists(st.floats(-0.9, 0.9), min_size=3, max_size=3))
def test_smoothers_invert_no_positive_corner(
        kind, resolution, jitter, seed, pick, push):
    mesh = generate(GeneratorSpec(kind, resolution, jitter, seed))
    interior = np.flatnonzero(~mesh.boundary_mask)
    assume(len(interior))   # quad grids below res 5 are all hole and rim
    verts = mesh.vertices.copy()
    verts[interior[pick % len(interior)]] += (
        np.array(push[:mesh.dimension]) / resolution)
    mesh = mesh.with_vertices(verts)
    before = _orientation(mesh.element_points(), mesh.element_type)
    for result in (smooth(mesh), smart_laplace(mesh)):
        after = _orientation(result.mesh.element_points(), mesh.element_type)
        assert np.all(after[before > 0] > 0)


# one vertex pushed by 0.5 to 1.5 cell widths along each axis inverts some
# elements, or some corners of a hex; the mirror image of the valid
# generated mesh inverts every element, and one element collapsed to a point
# has zero measure
@settings(derandomize=True, max_examples=30, deadline=None, database=None)
@given(resolution=st.integers(2, 4),
       jitter=st.floats(0.0, 0.45),
       seed=st.integers(0, 2**16),
       pick=st.integers(0, 2**16),
       push=st.lists(st.floats(0.5, 1.5), min_size=3, max_size=3),
       signs=st.lists(st.sampled_from([-1.0, 1.0]), min_size=3, max_size=3))
def test_quality_is_bounded_and_zero_on_inverted_corners(
        resolution, jitter, seed, pick, push, signs):
    for kind in GENERATED_KINDS:
        mesh = generate(GeneratorSpec(kind, resolution, jitter, seed))
        etype, dim = mesh.element_type, mesh.dimension
        verts = mesh.vertices.copy()
        verts[pick % len(verts)] += (np.multiply(push, signs)[:dim]
                                     / resolution)
        pushed = verts[mesh.elements]
        mirrored = mesh.element_points() * np.r_[-1.0, np.ones(dim - 1)]
        collapsed = pushed.copy()
        one = pick % len(collapsed)
        collapsed[one] = collapsed[one, 0]
        for points in (pushed, mirrored, collapsed):
            q = element_qualities(points, etype)
            o = _orientation(points, etype)
            assert np.all((q >= 0.0) & (q <= 1.0 + 1e-12))
            assert np.all(q[np.all(o <= 0.0, axis=1)] == 0.0)
            # the entries are the corners; a non-positive corner adds 0 to
            # the mean
            assert np.all(q <= (o > 0.0).mean(axis=1) + 1e-12)
        assert np.all(element_qualities(mirrored, etype) == 0.0)
        assert element_qualities(collapsed, etype)[one] == 0.0


# a tenth of the interior pushed by up to 1.2 cell widths along each axis
# tangles elements, so the sweeps reject moves and repair corners; quad
# grids below res 5 have an interior at res 2 only
@settings(derandomize=True, max_examples=100, deadline=None, database=None)
@given(kind=st.sampled_from(GENERATED_KINDS),
       resolution=st.integers(2, 4),
       jitter=st.floats(0.0, 0.45),
       seed=st.integers(0, 2**16))
def test_smart_laplace_matches_the_per_vertex_reference_on_pushed_meshes(
        kind, resolution, jitter, seed):
    mesh = generate(GeneratorSpec(kind, resolution, jitter, seed))
    rng = np.random.default_rng(seed)
    interior = np.flatnonzero(~mesh.boundary_mask)
    pick = rng.choice(interior, -(-len(interior) // 10), replace=False)
    verts = mesh.vertices.copy()
    push = rng.uniform(-1.2, 1.2, (len(pick), mesh.dimension))
    verts[pick] += push / resolution
    mesh = mesh.with_vertices(verts)
    got = smart_laplace(mesh)
    want = _iterate(mesh, SmootherConfig(), reference_laplace_steps(mesh))
    assert got.mesh.vertices.tobytes() == want.mesh.vertices.tobytes()
    assert got.iterations_run == want.iterations_run
    assert got.guard_resets == want.guard_resets


# every finite double, subnormals, -0.0 and the float maximum included; a
# planar mesh is 2D, since the readers drop an all-zero z column of a
# triangle or quad mesh
@settings(derandomize=True, max_examples=60, deadline=None, database=None)
@given(kind=st.sampled_from(GENERATED_KINDS), data=st.data())
def test_medit_and_vtk_round_trips_are_exact(kind, data):
    mesh = generate(GeneratorSpec(kind, 2))
    n, dim = mesh.vertices.shape
    coords = data.draw(arrays(np.float64, (n, dim), elements=st.floats(
        allow_nan=False, allow_infinity=False)))
    flags = data.draw(arrays(np.bool_, n))
    mesh = Mesh(coords, mesh.elements, mesh.element_type,
                np.flatnonzero(flags))
    for write, read in ((write_medit, read_medit), (write_vtk, read_vtk)):
        buf = io.StringIO()
        write(mesh, buf)
        back = read(buf.getvalue())
        assert back.vertices.tobytes() == mesh.vertices.tobytes()
        assert np.array_equal(back.elements, mesh.elements)
        assert back.element_type is mesh.element_type
        assert np.array_equal(back.boundary_mask, mesh.boundary_mask)


# the measures of a mesh at 1e300 overflow and those at 1e-150 underflow;
# a non-finite mean or min is written as null
@settings(derandomize=True, max_examples=20, deadline=None, database=None)
@given(kind=st.sampled_from(GENERATED_KINDS),
       jitter=st.floats(0.0, 0.45),
       seed=st.integers(0, 2**16),
       scale=st.sampled_from([1.0, 1e150, 1e-150, 1e300]))
def test_every_report_is_strict_json(kind, jitter, seed, scale):
    mesh = generate(GeneratorSpec(kind, 3, jitter, seed))
    with tempfile.TemporaryDirectory() as tmp:
        src, out = str(Path(tmp, "in.mesh")), str(Path(tmp, "out.mesh"))
        write_mesh(mesh.with_vertices(mesh.vertices * scale), src)
        reports = {name: Path(tmp, f"{name}.json")
                   for name in ("quality", "getme", "smart-laplace")}
        with np.errstate(all="ignore"):
            assert run(["quality", "--in", src,
                        "--report", str(reports["quality"])]) == 0
            for smoother in ("getme", "smart-laplace"):
                # 3: elements whose measures overflowed stay invalid
                assert run(["smooth", "--in", src, "--smoother", smoother,
                            "--out", out,
                            "--report", str(reports[smoother])]) in (0, 3)
        for report in reports.values():
            strict_json(report.read_text())


REGULAR_ELEMENTS = {
    ElementType.TRIANGLE: [[0.0, 0.0], [1.0, 0.0], [0.5, math.sqrt(3.0) / 2.0]],
    ElementType.QUAD: [[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]],
    ElementType.TET: [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0],
                      [0.5, math.sqrt(3.0) / 2.0, 0.0],
                      [0.5, math.sqrt(3.0) / 6.0, math.sqrt(2.0 / 3.0)]],
    ElementType.HEX: [[0, 0, 0], [1, 0, 0], [1, 1, 0], [0, 1, 0],
                      [0, 0, 1], [1, 0, 1], [1, 1, 1], [0, 1, 1]],
}


@settings(derandomize=True, max_examples=60, deadline=None, database=None)
@given(etype=st.sampled_from(list(REGULAR_ELEMENTS)),
       seed=st.integers(0, 2**16),
       exponent=st.integers(-60, 60))
def test_quality_is_one_on_regular_elements_under_rigid_motion_and_scaling(
        etype, seed, exponent):
    points = np.array(REGULAR_ELEMENTS[etype], dtype=float)
    dim = points.shape[1]
    rng = np.random.default_rng(seed)
    rotation, _ = np.linalg.qr(rng.normal(size=(dim, dim)))
    if np.linalg.det(rotation) < 0:
        rotation[:, 0] = -rotation[:, 0]
    moved = np.ldexp(points @ rotation.T + rng.uniform(-5.0, 5.0, dim),
                     exponent)
    assert abs(element_qualities(moved[None], etype)[0] - 1.0) <= 1e-12


def transform_input(kind, resolution, jitter, seed, special):
    """Element points of a generated mesh, its first rows replaced by the
    special rows of `layout_cases` (-0.0 facets, a flat element) if
    `special`, with their type and measures."""
    mesh = generate(GeneratorSpec(kind, resolution, jitter, seed))
    etype, points = mesh.element_type, mesh.element_points()
    if special:
        rows = layout_cases(etype)["mesh"][-3:]
        points[:len(rows)] = rows[:len(points)]
    with np.errstate(all="ignore"):
        return etype, points, _orientation(points, etype)


# One workspace runs two inputs of one shape in a row: the second result
# must not depend on the first.
@settings(derandomize=True, max_examples=40, deadline=None, database=None)
@given(kind=st.sampled_from(GENERATED_KINDS),
       resolution=st.integers(2, 4),
       draws=st.lists(st.tuples(st.floats(0.0, 0.45), st.integers(0, 2**16),
                                st.booleans(), st.booleans(),
                                st.sampled_from([1, None])),
                      min_size=2, max_size=2))
def test_a_transform_workspace_keeps_no_state_between_calls(
        kind, resolution, draws):
    transform = None
    for jitter, seed, special, adaptive, inner in draws:
        etype, points, orientation = transform_input(kind, resolution, jitter,
                                                     seed, special)
        params = (AdaptiveParams(*ADAPTIVE_PRESETS[etype]) if adaptive
                  else STANDARD_PARAMS)
        inner = inner or SmootherConfig().inner_for(etype)
        transform = transform or _Transform(etype, points.shape)
        with np.errstate(all="ignore"):
            got = transform(points, params, inner, orientation)
            fresh = _Transform(etype, points.shape)(points, params, inner,
                                                    orientation)
            want = reference_transform(points, etype, params, inner,
                                       orientation)
        assert nan_canonical_bytes(got) == nan_canonical_bytes(fresh)
        assert nan_canonical_bytes(got) == nan_canonical_bytes(want)
