"""Property tests over generated meshes of all four element types.

The profile is derandomized with a fixed example count, so every run
draws the same examples and the suite stays quick.
"""

import math

import numpy as np
from hypothesis import assume, given, settings, strategies as st

from getme import (
    ElementType,
    GeneratorSpec,
    element_qualities,
    generate,
    smart_laplace,
    smooth,
    validate,
)
from getme.smoothing import _orientation

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
