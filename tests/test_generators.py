import hashlib

import numpy as np
import pytest

from getme import (
    ElementType,
    GeneratorSpec,
    InvalidSpec,
    detect_boundary,
    generate,
    mesh_quality,
    validate,
)


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


def test_disk_tri_quality_band():
    # about 2000 elements with a deliberately wide spread of edge ratios
    mesh = generate(GeneratorSpec("disk-tri", resolution=16))
    assert 1800 <= len(mesh.elements) <= 2200
    assert 0.2 < mesh_quality(mesh).mean < 0.6


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
