"""Regularizing triangle transformation and hexahedron/octahedron duality.

The central operation maps each vertex of a triangle away from or towards the
centroid so that the vertex-to-centroid distances equalize; iterating it drives
any non-degenerate triangle to an equilateral one.  All functions here are pure
and accept either a single element or a leading batch axis.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateElement

#: Relative tolerance below which a vertex-to-centroid radius or an area is
#: treated as degenerate.
EPS_DEGENERATE = 1e-12


@dataclass(frozen=True)
class AdaptiveParams:
    """Gain factors (alpha0, alpha1) with alpha2 = 2*alpha0 - alpha1.

    The gains move with the vertex being transformed: the new vertex i is
    c + (2 alpha0 s_i - alpha1 s_{i+1} - alpha2 s_{i-1}) / 3 with
    s_j = r_j (x_j - c) and r_j = R_{j-1} / R_j, so alpha0 weighs the vertex
    itself, alpha1 its successor and alpha2 its predecessor.  The
    constraint alone would also allow alpha1 to go with the predecessor;
    this module pairs it with the successor.  The weights sum to
    2 alpha0 - alpha1 - alpha2, which the constraint on alpha2 makes zero;
    the equilateral triangle is therefore a fixed point up to rotation and
    scale about its centroid.  Construction only requires alpha0 and alpha1
    to be positive and finite so that the spectral analysis can scan the whole
    quadrant; the transformation itself additionally requires alpha2 > 0.

    Only the ratio rho = alpha1 / alpha0 shapes the image: alpha0 scales
    the transformed triangle about its centroid.  Triangle and quad
    smoothing give each sub-triangle its area back after every pass, so
    they depend on rho alone, up to rounding.  Tet and hex smoothing average
    the face images of a closed surface on every pass and restore the
    volume only at the end, so there alpha0 also acts as a step length
    (README, "Gains").
    """

    alpha0: float = 1.0
    alpha1: float = 1.0

    def __post_init__(self):
        if not (0 < self.alpha0 < math.inf and 0 < self.alpha1 < math.inf):
            raise ValueError("alpha0 and alpha1 must be positive and finite")

    @property
    def alpha2(self):
        return 2.0 * self.alpha0 - self.alpha1

    def require_transform_valid(self):
        if self.alpha2 <= 0:
            raise ValueError(
                f"alpha2 = 2*alpha0 - alpha1 = {self.alpha2} must be positive "
                "for the element transformation"
            )


STANDARD_PARAMS = AdaptiveParams(1.0, 1.0)


def _as_batch(tri):
    tri = np.asarray(tri, dtype=float)
    single = tri.ndim == 2
    if single:
        tri = tri[None]
    if tri.ndim != 3 or tri.shape[1] != 3 or tri.shape[2] not in (2, 3):
        raise ValueError(f"expected (..., 3, 2|3) vertex array, got {tri.shape}")
    return tri, single


def centroids(tris):
    """Centroid (vertex mean) along the vertex axis."""
    return np.asarray(tris, dtype=float).mean(axis=-2)


def vertex_radii(tris):
    """Distances of each vertex to the element centroid, shape (..., 3)."""
    tris = np.asarray(tris, dtype=float)
    d = tris - centroids(tris)[..., None, :]
    return np.linalg.norm(d, axis=-1)


def centroid_ratios(tris):
    """Ratios r_i = R_{i-1} / R_i of consecutive vertex radii.

    Their product telescopes to 1 for every triangle.
    """
    r = vertex_radii(tris)
    return np.roll(r, 1, axis=-1) / r


def transform_triangles(tris, params=STANDARD_PARAMS):
    """Batched transformation without degeneracy checks.

    Returns NaN rows for degenerate inputs (zero radius); callers that need a
    total function mask non-finite results instead of catching exceptions.
    Takes `tris` in any memory layout and never writes to it; its reductions
    run fastest when the row index varies fastest in memory.
    """
    tris = np.asarray(tris, dtype=float)
    c = tris.mean(axis=-2, keepdims=True)
    d = tris - c
    radii = np.sqrt(np.add.reduce(d * d, axis=-1))  # np.linalg.norm's bits
    # With t_j = alpha0 r_j (x_j - c), the AdaptiveParams formula for vertex i
    # reads (1/3)(2 t_i - t_{i+1} - t_{i-1}) + k (t_{i+1} - t_{i-1})
    # = t_i - mean(t) + k (t_{i+1} - t_{i-1}),  k = (alpha0 - alpha1) / (3 alpha0).
    # The weights sum to zero, so the centroid stays fixed.  Equal gains have
    # k = 0 and skip the second term.  Index [2, 0, 1] takes each vertex's
    # predecessor and [1, 2, 0] its successor, as np.roll by 1 and -1 would.
    k = (params.alpha0 - params.alpha1) / (3.0 * params.alpha0)
    with np.errstate(divide="ignore", invalid="ignore"):
        d *= (params.alpha0 * (radii[..., [2, 0, 1]] / radii))[..., None]
        out = d - d.mean(axis=-2, keepdims=True)
        if k:
            out += k * (d[..., [1, 2, 0], :] - d[..., [2, 0, 1], :])
    out += c
    return out


def transform_triangle(tri, params=STANDARD_PARAMS):
    """Apply the regularizing transformation once, keeping the centroid fixed.

    With standard parameters each vertex offset x_i - c is rescaled by
    r_i = R_{i-1}/R_i and the result re-centered on the original centroid.
    """
    params.require_transform_valid()
    tris, single = _as_batch(tri)
    radii = vertex_radii(tris)
    if np.any(radii <= EPS_DEGENERATE * radii.max(axis=-1, keepdims=True)):
        raise DegenerateElement("vertex coincides with the centroid")
    out = transform_triangles(tris, params)
    return out[0] if single else out


def triangle_areas(tris):
    """Unsigned triangle areas; works for 2D and 3D vertices."""
    tris = np.asarray(tris, dtype=float)
    if tris.shape[-1] == 2:
        u = tris[..., 1, :] - tris[..., 0, :]
        v = tris[..., 2, :] - tris[..., 0, :]
        return np.abs(0.5 * (u[..., 0] * v[..., 1] - u[..., 1] * v[..., 0]))
    return 0.5 * np.linalg.norm(triangle_normals(tris), axis=-1)


def rescale_areas(tris_orig, tris_new):
    """Batched area restoration: scale each new triangle about its centroid."""
    a_orig = triangle_areas(tris_orig)
    a_new = triangle_areas(tris_new)
    with np.errstate(divide="ignore", invalid="ignore"):
        factor = np.sqrt(a_orig / a_new)
    c = centroids(tris_new)[..., None, :]
    return factor[..., None, None] * (np.asarray(tris_new, float) - c) + c


def rescale_area(tri_orig, tri_new):
    """Scale tri_new about its centroid so its area matches tri_orig."""
    orig_b, single = _as_batch(tri_orig)
    new_b, _ = _as_batch(tri_new)
    a_new = triangle_areas(new_b)
    edge = edge_lengths(new_b).max(axis=-1)
    if np.any(a_new <= EPS_DEGENERATE * edge**2):
        raise DegenerateElement("cannot rescale a (near-)zero-area triangle")
    out = rescale_areas(orig_b, new_b)
    return out[0] if single else out


def iterate_triangle(tri, params=STANDARD_PARAMS, n=1):
    """Apply the transformation n times, restoring the area after each step."""
    if n < 0:
        raise ValueError("iteration count must be >= 0")
    tri = np.asarray(tri, dtype=float)
    for _ in range(n):
        tri = rescale_area(tri, transform_triangle(tri, params))
    return tri


def edge_lengths(tris):
    """Lengths of the three edges (x0x1, x1x2, x2x0), shape (..., 3)."""
    tris = np.asarray(tris, dtype=float)
    return np.linalg.norm(np.roll(tris, -1, axis=-2) - tris, axis=-1)


def distortion(tri):
    """Shortest over longest edge length, in [0, 1]; 1 for equilateral.

    Works on any polygon given by its vertices in order.
    """
    lengths = edge_lengths(tri)
    lmax = lengths.max(axis=-1)
    if np.any(lmax == 0.0):
        raise DegenerateElement("element has zero maximal edge length")
    return lengths.min(axis=-1) / lmax


def triangle_normals(tris):
    """Unnormalized normals (x1-x0) x (x2-x0) of 3D triangles."""
    tris = np.asarray(tris, dtype=float)
    return np.cross(tris[..., 1, :] - tris[..., 0, :],
                    tris[..., 2, :] - tris[..., 0, :])


# ---------------------------------------------------------------------------
# Hexahedron / octahedron duality
# ---------------------------------------------------------------------------

#: Hexahedron faces in the fixed order: bottom, top, then the four sides.
HEX_FACES = np.array([
    (0, 1, 2, 3), (4, 5, 6, 7),
    (0, 1, 5, 4), (1, 2, 6, 5), (2, 3, 7, 6), (3, 0, 4, 7),
])

#: For each hexahedron corner k, the indices (into HEX_FACES order) of the
#: three face barycenters forming the matching octahedron face, ordered so the
#: face normal points outward.  Verified on the unit cube.
OCTAHEDRON_FACES = np.array([
    (0, 2, 5), (0, 3, 2), (0, 4, 3), (0, 5, 4),
    (1, 5, 2), (1, 2, 3), (1, 3, 4), (1, 4, 5),
])

#: Corner tetrahedra of the hexahedron, `mesh.CORNERS`' hex rows:
#: T_k = (x_k, and its three edge-neighbors in a right-handed order).
HEX_CORNER_TETS = np.array([
    (0, 3, 4, 1), (1, 0, 5, 2), (2, 1, 6, 3), (3, 2, 7, 0),
    (4, 7, 5, 0), (5, 4, 6, 1), (6, 5, 7, 2), (7, 6, 4, 3),
])


def corner_edges(points, corners):
    """The edges from each corner's vertex to its neighbors, for corners
    given as rows (vertex, neighbors...) of local indices: the rows of
    shape (..., corners, neighbors, dim)."""
    points = np.asarray(points, dtype=float)
    return points[..., corners[:, 1:], :] - points[..., corners[:, :1], :]


def hex_face_barycenters(hexes):
    """The six face barycenters of each hexahedron, shape (..., 6, 3)."""
    hexes = np.asarray(hexes, dtype=float)
    return hexes[..., HEX_FACES, :].mean(axis=-2)


def hex_to_octahedron(hexahedron):
    """Dual octahedron of a hexahedron.

    Returns (vertices, faces): the 6 face barycenters in the HEX_FACES order
    and the 8 outward-oriented triangular faces as index triples, one per
    hexahedron corner.
    """
    hexahedron = np.asarray(hexahedron, dtype=float)
    if hexahedron.shape != (8, 3):
        raise ValueError("expected an (8, 3) vertex array")
    verts = hex_face_barycenters(hexahedron)
    tris = verts[OCTAHEDRON_FACES]
    areas = triangle_areas(tris)
    scale = edge_lengths(tris).max()
    if np.any(areas <= EPS_DEGENERATE * scale * scale):
        raise DegenerateElement("octahedron face barycenters are collinear")
    return verts, OCTAHEDRON_FACES.copy()


def octahedron_to_hex(verts):
    """Hexahedra whose vertex k is the barycenter of octahedron face k, over
    any leading axes: (..., 6, 3) octahedron vertices in, (..., 8, 3) out."""
    verts = np.asarray(verts, dtype=float)
    if verts.shape[-2:] != (6, 3):
        raise ValueError("expected a (..., 6, 3) vertex array")
    return verts[..., OCTAHEDRON_FACES, :].mean(axis=-2)
