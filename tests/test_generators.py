import hashlib

import numpy as np
import pytest

from getme import (
    KINDS,
    ElementType,
    GeneratorSpec,
    InvalidSpec,
    Mesh,
    detect_boundary,
    generate,
    mesh_quality,
    validate,
)
from getme import generators
from getme.generators import _apply_jitter


def test_spec_validation():
    with pytest.raises(InvalidSpec):
        GeneratorSpec("unknown-kind")
    with pytest.raises(InvalidSpec):
        GeneratorSpec("disk-tri", jitter=0.5)
    with pytest.raises(InvalidSpec):
        GeneratorSpec("disk-tri", jitter=-0.1)
    with pytest.raises(InvalidSpec):
        GeneratorSpec("cube-tet", resolution=1)
    GeneratorSpec("two-triangle-flip")  # no resolution constraint
    # counts must be integers: floats and booleans are refused, not
    # truncated, and numpy integers are accepted
    for bad in ({"resolution": 4.5}, {"resolution": True}, {"seed": 1.5},
                {"seed": -1}, {"seed": False}, {"resolution": 4.0}):
        with pytest.raises(InvalidSpec):
            GeneratorSpec("cube-tet", **bad)
    spec = GeneratorSpec("cube-tet", resolution=np.int32(3), seed=np.int64(2))
    assert generate(spec) == generate(GeneratorSpec("cube-tet", 3, seed=2))


def test_square_tri_structure():
    mesh = generate(GeneratorSpec("jittered-square-tri", resolution=4))
    assert mesh.element_type is ElementType.TRIANGLE
    assert len(mesh.vertices) == 25
    assert len(mesh.elements) == 32
    report = mesh_quality(mesh)
    # unjittered: structured grid, all qualities equal
    assert np.ptp(report.per_element) < 1e-12
    assert mesh.boundary_vertices == detect_boundary(mesh)


def test_disk_tri_structure():
    res = 5
    mesh = generate(GeneratorSpec("disk-tri", resolution=res))
    m = 4 * res
    assert len(mesh.vertices) == 1 + res * m
    assert len(mesh.elements) == m + 2 * m * (res - 1)
    # outermost ring is the boundary, radius 1
    radii = np.linalg.norm(mesh.vertices, axis=1)
    boundary = sorted(mesh.boundary_vertices)
    assert np.allclose(radii[boundary], 1.0)
    assert validate(mesh) == []


def loop_built_disk(resolution):
    """The disk-tri mesh built vertex by vertex and triangle by triangle,
    with its outer ring listed by hand as the boundary."""
    rings = resolution
    m = 4 * resolution
    verts = [(0.0, 0.0)]
    for k in range(1, rings + 1):
        radius = k / rings
        ang = 2.0 * np.pi * np.arange(m) / m
        verts.extend(zip(radius * np.cos(ang), radius * np.sin(ang)))

    def vid(ring, j):
        return 1 + (ring - 1) * m + (j % m)

    tris = [(0, vid(1, j), vid(1, j + 1)) for j in range(m)]
    for k in range(1, rings):
        for j in range(m):
            a0, a1 = vid(k, j), vid(k, j + 1)
            b0, b1 = vid(k + 1, j), vid(k + 1, j + 1)
            tris.append((a0, b0, b1))
            tris.append((a0, b1, a1))
    boundary = [vid(rings, j) for j in range(m)]
    return Mesh(np.array(verts), np.array(tris), "triangle", boundary)


@pytest.mark.parametrize("res", range(2, 13))
def test_disk_tri_matches_loop_built_reference(res):
    assert same_bytes(generate(GeneratorSpec("disk-tri", res)),
                      loop_built_disk(res))


def test_disk_tri_quality_band():
    # about 2000 elements with a deliberately wide spread of mean ratios:
    # thin triangles near the centre, near-equilateral ones further out
    mesh = generate(GeneratorSpec("disk-tri", resolution=16))
    assert 1800 <= len(mesh.elements) <= 2200
    report = mesh_quality(mesh)
    assert report.min < 0.2 and report.per_element.max() > 0.85
    assert 0.5 < report.mean < 0.8


def test_quad_grid_with_hole():
    mesh = generate(GeneratorSpec("quad-grid-with-hole", resolution=8))
    assert mesh.element_type is ElementType.QUAD
    assert len(mesh.elements) < 64  # some cells removed for the hole
    centers = mesh.element_points().mean(axis=1)
    assert np.all(np.linalg.norm(centers - 0.5, axis=1) >= 0.25 - 1e-9)
    assert mesh.boundary_vertices == detect_boundary(mesh)


def test_cube_tet():
    mesh = generate(GeneratorSpec("cube-tet", resolution=3))
    assert mesh.element_type is ElementType.TET
    assert len(mesh.vertices) == 64
    assert len(mesh.elements) == 6 * 27
    assert validate(mesh) == []


def test_cube_hex():
    mesh = generate(GeneratorSpec("cube-hex", resolution=3))
    assert mesh.element_type is ElementType.HEX
    assert len(mesh.vertices) == 64
    assert len(mesh.elements) == 27
    assert np.allclose(mesh_quality(mesh).per_element, 1.0)


def test_two_triangle_flip():
    mesh = generate(GeneratorSpec("two-triangle-flip"))
    assert len(mesh.elements) == 2
    assert validate(mesh) == []
    assert mesh.boundary_vertices == set()


def test_jitter_moves_only_interior():
    base = generate(GeneratorSpec("jittered-square-tri", resolution=5))
    jittered = generate(GeneratorSpec("jittered-square-tri", resolution=5,
                                      jitter=0.4, seed=1))
    fixed = base.boundary_mask
    assert np.array_equal(base.vertices[fixed], jittered.vertices[fixed])
    assert not np.allclose(base.vertices[~fixed], jittered.vertices[~fixed])


def test_jitter_preserves_validity():
    for kind in ("jittered-square-tri", "quad-grid-with-hole",
                 "cube-tet", "cube-hex"):
        for seed in (0, 1, 2):
            mesh = generate(GeneratorSpec(kind, resolution=4, jitter=0.49,
                                          seed=seed))
            assert validate(mesh) == [], (kind, seed)


def test_determinism():
    a = generate(GeneratorSpec("cube-tet", resolution=3, jitter=0.4, seed=42))
    b = generate(GeneratorSpec("cube-tet", resolution=3, jitter=0.4, seed=42))
    c = generate(GeneratorSpec("cube-tet", resolution=3, jitter=0.4, seed=43))
    assert a == b
    assert a != c


#: sha256 of each structured grid's resolution-2 elements as little-endian
#: int64.  The jitter draws and the benchmark references follow this order.
GRID_ELEMENT_ORDER = {
    "jittered-square-tri":
        "72e0f97944878cb7c70fbcee67436e6a2cda5cf402675ec43cc0afaf17cb3a01",
    "quad-grid-with-hole":
        "0ec9b6daaf8d078ae664998d2f80a33892832f191901b2b92f2ea139674f1ea1",
    "cube-tet":
        "10e2d52fe140b21cbef64c4486f70a088c0ccb52819bf402b410dbd1e19438aa",
    "cube-hex":
        "8a8d1bb904565b0ff4751144becd11a630fee63ea7f2b64ec33d6e2e7f58b359",
}


@pytest.mark.parametrize("kind", sorted(GRID_ELEMENT_ORDER))
def test_grid_numbering_is_pinned(kind):
    mesh = generate(GeneratorSpec(kind, resolution=2))
    digest = hashlib.sha256(mesh.elements.astype("<i8").tobytes()).hexdigest()
    assert digest == GRID_ELEMENT_ORDER[kind]
    # vertices run x-fastest in 2D and z-fastest in 3D
    step = np.zeros(mesh.dimension)
    step[0 if mesh.dimension == 2 else 2] = 0.5
    assert np.array_equal(mesh.vertices[1] - mesh.vertices[0], step)


def full_check_jitter(mesh, amplitude, rng, max_rounds=60):
    """`_apply_jitter` as it was before it re-checked only the elements
    that touch a redrawn vertex: a full `validate` every round."""
    if amplitude <= 0:
        return mesh
    interior = np.flatnonzero(~mesh.boundary_mask)
    if not len(interior):
        return mesh
    verts = mesh.vertices.copy()
    base = verts[interior].copy()
    scale = np.full(len(interior), amplitude)
    verts[interior] = base + rng.uniform(-1, 1, base.shape) * scale[:, None]
    current = mesh.with_vertices(verts)
    for _ in range(max_rounds):
        bad = generators.validate(current)
        if not bad:
            return current
        bad_verts = np.unique(mesh.elements[bad])
        redraw = np.isin(interior, bad_verts)
        scale[redraw] *= 0.5
        verts[interior[redraw]] = (
            base[redraw]
            + rng.uniform(-1, 1, (redraw.sum(), verts.shape[1])) * scale[redraw, None]
        )
        current = mesh.with_vertices(verts)
    verts[interior[redraw]] = base[redraw]
    current = mesh.with_vertices(verts)
    return current if not generators.validate(current) else mesh


def same_bytes(a, b):
    return a.element_type is b.element_type and all(
        x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()
        for x, y in ((a.vertices, b.vertices), (a.elements, b.elements),
                     (a.boundary_mask, b.boundary_mask)))


def counting_validate(monkeypatch):
    """Count the calls `generators` makes to `validate`."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return validate(*args, **kwargs)

    monkeypatch.setattr(generators, "validate", counted)
    return calls


@pytest.mark.parametrize("kind", [k for k in KINDS if k != "two-triangle-flip"])
def test_jitter_matches_full_check_reference(kind, monkeypatch):
    calls = counting_validate(monkeypatch)
    for res in (2, 3, 5, 8, 12):
        for jitter in (0.0, 0.3, 0.45, 0.49):
            for seed in range(4):
                spec = GeneratorSpec(kind, res, jitter, seed)
                del calls[:]
                got, rounds = generate(spec), len(calls)
                with monkeypatch.context() as patched:
                    patched.setattr(generators, "_apply_jitter",
                                    full_check_jitter)
                    del calls[:]
                    want = generate(spec)
                assert same_bytes(got, want), spec
                assert rounds == len(calls), spec


@pytest.mark.parametrize("pin_fails", [False, True])
def test_jitter_last_resort_matches_full_check_reference(pin_fails,
                                                         monkeypatch):
    mesh = generate(GeneratorSpec("cube-tet", resolution=3))
    if pin_fails:   # an inverted element that no interior vertex can mend
        mesh = Mesh(mesh.vertices, np.concatenate(
            [mesh.elements, mesh.elements[:1, [1, 0, 2, 3]]]), "tet",
            mesh.boundary_vertices)
    calls = counting_validate(monkeypatch)
    got = _apply_jitter(mesh, 0.49 / 3, np.random.default_rng(4), max_rounds=1)
    rounds = len(calls)
    want = full_check_jitter(mesh, 0.49 / 3, np.random.default_rng(4),
                             max_rounds=1)
    assert rounds == len(calls) - rounds == 2   # one round, then the pin
    assert same_bytes(got, want)
    assert (got is mesh) == pin_fails
