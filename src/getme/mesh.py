"""Mesh data model: vertices, homogeneous connectivity, adjacency, boundary
detection and validity reporting."""

import copy
import enum
import numbers
from functools import reduce

import numpy as np

from .errors import InvalidMesh, InvalidTopology
from .geometry import (
    EPS_DEGENERATE,
    HEX_CORNER_TETS,
    HEX_FACES,
    corner_edges,
    signed_areas_2d,
)


class ElementType(enum.Enum):
    TRIANGLE = "triangle"
    QUAD = "quad"
    TET = "tet"
    HEX = "hex"


NODES_PER_ELEMENT = {
    ElementType.TRIANGLE: 3,
    ElementType.QUAD: 4,
    ElementType.TET: 4,
    ElementType.HEX: 8,
}

#: Edges of each element type (index pairs), used for boundary detection on
#: 2D meshes and for Laplace neighborhoods.
ELEMENT_EDGES = {
    ElementType.TRIANGLE: ((0, 1), (1, 2), (2, 0)),
    ElementType.QUAD: ((0, 1), (1, 2), (2, 3), (3, 0)),
    ElementType.TET: ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)),
    ElementType.HEX: (
        (0, 1), (1, 2), (2, 3), (3, 0),
        (4, 5), (5, 6), (6, 7), (7, 4),
        (0, 4), (1, 5), (2, 6), (3, 7),
    ),
}

#: Faces of the volume element types; boundary facets for 3D meshes.
ELEMENT_FACES = {
    ElementType.TET: ((0, 2, 1), (0, 1, 3), (1, 2, 3), (0, 3, 2)),
    ElementType.HEX: tuple(map(tuple, HEX_FACES)),
}


class Mesh:
    """Immutable mesh snapshot: vertex coordinates, one element type, and a
    set of boundary vertices that smoothers keep fixed."""

    def __init__(self, vertices, elements, element_type, boundary_vertices=None):
        self.vertices = np.array(vertices, dtype=float, order="C")
        self.elements = _indices(elements, "element")
        if isinstance(element_type, str):
            element_type = ElementType(element_type)
        self.element_type = element_type

        if self.vertices.ndim != 2 or self.vertices.shape[1] not in (2, 3):
            raise InvalidMesh("vertices must be an (N, 2) or (N, 3) array")
        if not np.all(np.isfinite(self.vertices)):
            raise InvalidMesh("vertex coordinates must be finite")
        k = NODES_PER_ELEMENT[element_type]
        if self.elements.ndim != 2 or self.elements.shape[1] != k:
            raise InvalidMesh(
                f"{element_type.value} elements need {k} vertex indices each"
            )
        if self.elements.size:
            if self.elements.min() < 0 or self.elements.max() >= len(self.vertices):
                raise InvalidMesh("element index out of range")
            cols = _sorted_columns(self.elements.T)
            if reduce(np.logical_or, map(np.equal, cols[1:], cols[:-1])).any():
                raise InvalidMesh("element repeats a vertex index")
        if element_type in (ElementType.TET, ElementType.HEX) and self.dimension != 3:
            raise InvalidMesh(f"{element_type.value} meshes must be 3D")
        if element_type is ElementType.QUAD and self.dimension != 2:
            raise InvalidMesh("quad meshes must be 2D")

        mask = np.zeros(len(self.vertices), dtype=bool)
        if boundary_vertices is not None:
            idx = _indices(list(boundary_vertices), "boundary vertex")
            if idx.size and (idx.min() < 0 or idx.max() >= len(self.vertices)):
                raise InvalidMesh("boundary vertex index out of range")
            mask[idx] = True
        self.boundary_mask = mask
        self.vertices.setflags(write=False)
        self.elements.setflags(write=False)
        self.boundary_mask.setflags(write=False)

    @property
    def dimension(self):
        return self.vertices.shape[1]

    @property
    def boundary_vertices(self):
        return set(np.flatnonzero(self.boundary_mask).tolist())

    def with_vertices(self, vertices):
        """Copy with new vertex positions, sharing the connectivity and flags
        checked at construction; the positions must keep their shape."""
        vertices = np.array(vertices, dtype=float, order="C")
        if vertices.shape != self.vertices.shape:
            raise InvalidMesh("new vertices must have the shape of the old")
        if not np.all(np.isfinite(vertices)):
            raise InvalidMesh("vertex coordinates must be finite")
        vertices.setflags(write=False)
        moved = copy.copy(self)
        moved.vertices = vertices
        return moved

    def element_points(self):
        """Vertex coordinates per element, shape (n, k, dim)."""
        return self.vertices[self.elements]

    def __eq__(self, other):
        if not isinstance(other, Mesh):
            return NotImplemented
        return (
            self.element_type is other.element_type
            and self.vertices.shape == other.vertices.shape
            and np.array_equal(self.vertices, other.vertices)
            and np.array_equal(self.elements, other.elements)
            and np.array_equal(self.boundary_mask, other.boundary_mask)
        )


def _is_integer(value):
    """Whether `value` is a Python or numpy integer; booleans are not."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _indices(values, what):
    """`values` as a C-ordered int64 array; booleans and non-integral
    numbers are refused, not truncated."""
    raw = np.asarray(values)
    if raw.size and raw.dtype.kind not in "iu" and not (
            raw.dtype.kind == "f" and np.all(np.isfinite(raw))
            and np.array_equal(raw, np.trunc(raw))):
        raise InvalidMesh(f"{what} indices must be integers")
    return np.array(raw, dtype=np.int64, order="C")


def _sorted_columns(cols):
    """The columns of a table with each row sorted ascending, by the
    odd-even transposition network: exact minima and maxima of columns."""
    cols = list(cols)
    for r in range(len(cols)):
        for i in range(r % 2, len(cols) - 1, 2):
            cols[i], cols[i + 1] = (np.minimum(cols[i], cols[i + 1]),
                                    np.maximum(cols[i], cols[i + 1]))
    return cols


def _group(keys, values, n):
    """`values` sorted by their integer key 0..n-1, then by value, and the
    offsets of each key's run: key k owns [offsets[k], offsets[k + 1])."""
    offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(keys, minlength=n), out=offsets[1:])
    return values[np.lexsort((values, keys))], offsets


def _incident_elements(mesh):
    """`_group` of the element indices incident to each vertex."""
    elem_ids = np.repeat(np.arange(len(mesh.elements)), mesh.elements.shape[1])
    return _group(mesh.elements.ravel(), elem_ids, len(mesh.vertices))


def _edge_neighbors(mesh):
    """`_group` of the vertices sharing an element edge with each vertex."""
    a, b = _facet_table(mesh, ELEMENT_EDGES[mesh.element_type])[0].T
    return _group(np.concatenate([a, b]), np.concatenate([b, a]),
                  len(mesh.vertices))


def _facet_table(mesh, local):
    """The distinct facets of `mesh`, given as tuples of local vertex
    indices, as rows of sorted vertex indices in lexicographic order, and
    how many element facets each one is."""
    cols = _sorted_columns(mesh.elements.T[np.array(local).T]
                           .reshape(len(local[0]), -1))
    order = np.lexsort(cols[::-1])
    cols = [c[order] for c in cols]
    first = np.ones(len(order), dtype=bool)
    first[1:] = reduce(np.logical_or, [c[1:] != c[:-1] for c in cols])
    starts = np.flatnonzero(first)
    return (np.stack([c[starts] for c in cols], axis=1),
            np.diff(starts, append=len(order)))


def detect_boundary(mesh):
    """Vertices on facets (edges in 2D, faces in 3D) owned by exactly one
    element.  Raises InvalidTopology if a facet is shared by more than two."""
    etype = mesh.element_type
    uniq, counts = _facet_table(mesh, ELEMENT_FACES.get(etype,
                                                        ELEMENT_EDGES[etype]))
    if np.any(counts > 2):
        bad = int(np.flatnonzero(counts > 2)[0])
        raise InvalidTopology(
            f"facet {tuple(uniq[bad].tolist())} is shared by {counts[bad]} elements"
        )
    boundary = uniq[counts == 1]
    return set(np.unique(boundary).tolist())


def _element_scales(points):
    """Characteristic length per element: the largest coordinate span,
    taken as minima and maxima of whole columns."""
    corners = points.swapaxes(0, 1)
    span = reduce(np.maximum, corners) - reduce(np.minimum, corners)
    return reduce(np.maximum, span.T)


def det3(m):
    """Determinants of the 3x3 matrices in `m`, shape (..., 3, 3), by cofactor
    expansion along the first row.  Every volume measure takes its
    determinant from here; a non-finite entry gives a non-finite result."""
    a, b, c = m[..., 0, 0], m[..., 0, 1], m[..., 0, 2]
    d, e, f = m[..., 1, 0], m[..., 1, 1], m[..., 1, 2]
    g, h, i = m[..., 2, 0], m[..., 2, 1], m[..., 2, 2]
    return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)


def element_signed_measures(points, element_type):
    """Signed size of each element, positive for valid orientation.

    Triangles: twice the signed area; 3D triangles have no orientation and
    raise InvalidMesh, which is how both smoothers refuse them.  Quads: the
    signed polygon area.  Tets: the signed volume determinant.  Hexes: the
    smallest of the eight corner-tetrahedron determinants.
    """
    points = np.asarray(points, dtype=float)
    if element_type is ElementType.TRIANGLE:
        if points.shape[-1] != 2:
            raise InvalidMesh(
                "3D triangle meshes have no orientation, and nothing "
                "projects a moved vertex back onto the surface")
        return 2.0 * signed_areas_2d(points)
    if element_type is ElementType.QUAD:
        x, y = points[..., 0], points[..., 1]
        xn, yn = np.roll(x, -1, axis=-1), np.roll(y, -1, axis=-1)
        return 0.5 * np.sum(x * yn - xn * y, axis=-1)
    if element_type is ElementType.TET:
        return det3(points[..., 1:, :] - points[..., :1, :])
    if element_type is ElementType.HEX:
        return hex_corner_dets(points).min(axis=-1)
    raise InvalidMesh(f"unsupported element type {element_type}")


def hex_corner_dets(points):
    """Determinants of the eight corner tetrahedra of each hexahedron."""
    return det3(corner_edges(points, HEX_CORNER_TETS))


def validate(mesh):
    """Indices of inverted, (near-)degenerate or unmeasurable (NaN measure,
    from overflow) elements: measure not above EPS_DEGENERATE * scale**dim.

    Reporting only; never raises for bad elements, but a 3D triangle mesh
    raises InvalidMesh.
    """
    if not len(mesh.elements):
        return []
    points = mesh.element_points()
    measures = element_signed_measures(points, mesh.element_type)
    threshold = EPS_DEGENERATE * _element_scales(points) ** mesh.dimension
    return np.flatnonzero(~(measures > threshold)).tolist()
