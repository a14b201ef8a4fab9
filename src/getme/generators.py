"""Parametric desk-scale test mesh generators.

Every generator is deterministic for a fixed seed.  Jitter displaces interior
vertices only, by a fraction of the local edge length; displacements that
make an element invalid (inverted, or a non-convex quad) are redrawn at half
amplitude until the mesh is valid, so generated quads are convex.
"""

from dataclasses import dataclass
from functools import partial, reduce

import numpy as np

from .errors import InvalidSpec
from .mesh import ElementType, Mesh, _is_integer, detect_boundary, validate

KINDS = (
    "jittered-square-tri",
    "disk-tri",
    "quad-grid-with-hole",
    "cube-tet",
    "cube-hex",
    "two-triangle-flip",
)


@dataclass(frozen=True)
class GeneratorSpec:
    kind: str
    resolution: int = 10
    jitter: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.kind not in KINDS:
            raise InvalidSpec(f"unknown generator kind {self.kind!r}")
        if not (0.0 <= self.jitter < 0.5):
            raise InvalidSpec("jitter must lie in [0, 0.5)")
        if not _is_integer(self.resolution):
            raise InvalidSpec("resolution must be an integer")
        if self.kind != "two-triangle-flip" and self.resolution < 2:
            raise InvalidSpec("resolution must be >= 2")
        if not (_is_integer(self.seed) and self.seed >= 0):
            raise InvalidSpec("seed must be an integer >= 0")


def _apply_jitter(mesh, amplitude, rng, max_rounds=60):
    """Displace interior vertices, redrawing any displacement that makes an
    element invalid (halving the amplitude each round).  After the
    first round only the elements that touch a redrawn vertex are checked
    again, since an element's verdict depends on its own vertices alone."""
    if amplitude <= 0:
        return mesh
    interior = np.flatnonzero(~mesh.boundary_mask)
    if not len(interior):
        return mesh
    verts = mesh.vertices.copy()
    base = verts[interior].copy()
    scale = np.full(len(interior), amplitude)
    verts[interior] = base + rng.uniform(-1, 1, base.shape) * scale[:, None]
    elems, bad = mesh.elements, np.zeros(len(mesh.elements), dtype=bool)
    touched = np.arange(len(elems))
    for _ in range(max_rounds):
        checked = Mesh(verts, elems[touched], mesh.element_type)
        bad[touched] = False
        bad[touched[validate(checked)]] = True
        if not bad.any():
            return mesh.with_vertices(verts)
        redraw = np.isin(interior, elems[bad])
        scale[redraw] *= 0.5
        verts[interior[redraw]] = (
            base[redraw]
            + rng.uniform(-1, 1, (redraw.sum(), verts.shape[1])) * scale[redraw, None]
        )
        moved = np.zeros(len(verts), dtype=bool)
        moved[interior[redraw]] = True
        touched = np.flatnonzero(reduce(np.logical_or, moved[elems.T]))
    # Last resort: pin the stubborn vertices back to the unjittered grid.
    verts[interior[redraw]] = base[redraw]
    current = mesh.with_vertices(verts)
    return current if not validate(current) else mesh


def _grid(n, corners):
    """The unit square or cube split into n cells per side.

    `corners` (m, k, dim) lists m elements per cell, each by the lattice
    offsets (x, y[, z]) of its k corners from the cell's lowest corner.
    Returns the vertices and the elements, cell by cell.  Vertices and cells
    are numbered x-fastest in 2D and z-fastest in 3D; the jitter draws
    follow the vertex order.
    """
    corners = np.asarray(corners)
    dim = corners.shape[-1]
    order = slice(None, None, -1) if dim == 2 else slice(None)

    def lattice(m):
        return np.indices((m,) * dim).reshape(dim, -1).T[:, order]

    # A lattice point's vertex id is its dot product with the strides.
    strides = ((n + 1) ** np.arange(dim)[::-1])[order]
    verts = np.linspace(0.0, 1.0, n + 1)[lattice(n + 1)]
    elements = (lattice(n)[:, None, None] + corners) @ strides
    return verts, elements.reshape(-1, corners.shape[1])


def _disk_tri(resolution):
    """`resolution` rings of 4 * resolution vertices around the center
    vertex 0, numbered ring by ring; a fan around the center, then each ring
    strip as two triangles per segment."""
    n, m = resolution, 4 * resolution
    ang = 2.0 * np.pi * np.arange(m) / m
    radius = (np.arange(1, n + 1) / n)[:, None, None]
    rings = radius * np.stack([np.cos(ang), np.sin(ang)], axis=1)
    verts = np.vstack([np.zeros((1, 2)), rings.reshape(-1, 2)])
    first = 1 + m * np.arange(n)[:, None]   # vertex id of each ring's j = 0
    a0, a1 = first + np.arange(m), first + (np.arange(m) + 1) % m
    fan = np.stack([np.zeros(m, dtype=np.int64), a0[0], a1[0]], axis=1)
    strips = np.stack([np.stack([a0[:-1], a0[1:], a1[1:]], axis=-1),
                       np.stack([a0[:-1], a1[1:], a1[:-1]], axis=-1)], axis=2)
    return verts, np.vstack([fan, strips.reshape(-1, 3)])


def _quad_grid_with_hole(resolution):
    n = resolution
    verts, quads = _grid(n, [((0, 0), (1, 0), (1, 1), (0, 1))])
    j, i = np.divmod(quads[:, 0], n + 1)  # lowest corner j (n + 1) + i
    hole_r = 0.25
    quads = quads[((i + 0.5) / n - 0.5) ** 2 + ((j + 0.5) / n - 0.5) ** 2
                  >= hole_r**2]
    used = np.unique(quads)
    remap = -np.ones(len(verts), dtype=np.int64)
    remap[used] = np.arange(len(used))
    return verts[used], remap[quads]


#: Kuhn subdivision of the unit cube into six positively oriented tetrahedra;
#: offsets are (di, dj, dk) corner displacements.
_KUHN_TETS = (
    ((0, 0, 0), (1, 0, 0), (1, 1, 0), (1, 1, 1)),
    ((0, 0, 0), (1, 1, 0), (0, 1, 0), (1, 1, 1)),
    ((0, 0, 0), (0, 1, 0), (0, 1, 1), (1, 1, 1)),
    ((0, 0, 0), (0, 1, 1), (0, 0, 1), (1, 1, 1)),
    ((0, 0, 0), (0, 0, 1), (1, 0, 1), (1, 1, 1)),
    ((0, 0, 0), (1, 0, 1), (1, 0, 0), (1, 1, 1)),
)

#: The hex cell: bottom face counter-clockwise, then the top face above it.
_CUBE_CORNERS = ((
    (0, 0, 0), (1, 0, 0), (1, 1, 0), (0, 1, 0),
    (0, 0, 1), (1, 0, 1), (1, 1, 1), (0, 1, 1),
),)

#: Each kind's element type and builder, which maps the resolution to the
#: vertices and the elements.
_BUILDERS = {
    "jittered-square-tri": (ElementType.TRIANGLE, partial(
        _grid, corners=[((0, 0), (1, 0), (1, 1)), ((0, 0), (1, 1), (0, 1))])),
    "disk-tri": (ElementType.TRIANGLE, _disk_tri),
    "quad-grid-with-hole": (ElementType.QUAD, _quad_grid_with_hole),
    "cube-tet": (ElementType.TET, partial(_grid, corners=_KUHN_TETS)),
    "cube-hex": (ElementType.HEX, partial(_grid, corners=_CUBE_CORNERS)),
}


#: Two thin triangles sharing an edge; one unguarded smoothing step reverses
#: the orientation of exactly one of them.
FLIP_VERTICES = np.array([
    (0.73, -0.5),
    (-0.64, 0.3),
    (-0.24, 0.07),
    (0.5, -0.06),
])
FLIP_TRIANGLES = np.array([(0, 2, 1), (1, 2, 3)])


def generate(spec):
    """Build the mesh described by a GeneratorSpec; its boundary is the
    vertices on facets that one element alone owns (`detect_boundary`)."""
    if spec.kind == "two-triangle-flip":
        return Mesh(FLIP_VERTICES, FLIP_TRIANGLES, ElementType.TRIANGLE,
                    boundary_vertices=())

    element_type, build = _BUILDERS[spec.kind]
    mesh = Mesh(*build(spec.resolution), element_type)
    mesh = Mesh(mesh.vertices, mesh.elements, element_type,
                detect_boundary(mesh))
    rng = np.random.default_rng(spec.seed)
    edge = 1.0 / spec.resolution
    return _apply_jitter(mesh, spec.jitter * edge, rng)
