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


def _mean(slabs, out):
    """The mean of the equally shaped `slabs` into `out`, with the bits of
    np.mean over a short axis: the slabs added in order, then divided by
    their count."""
    if len(slabs) == 1:
        np.copyto(out, slabs[0])
    else:
        np.add(slabs[0], slabs[1], out=out)
    for i in range(2, len(slabs)):
        np.add(out, slabs[i], out=out)
    return np.divide(out, float(len(slabs)), out=out)


def _slabs(points):
    """The slab view (rows, dim, ...) of (..., rows, dim) points, given a
    batch axis of one if they have none."""
    t = np.asarray(points, dtype=float)
    t = t if t.ndim > 2 else t[None]
    return t.transpose((-2, -1) + tuple(range(t.ndim - 2)))


def _buffers(points, out, work):
    """A kernel's result `out` (the caller's, or a new C array shaped like
    `points`), its slab view, and the slab view of the scratch `work`
    (..., 5, dim), the caller's or a new one."""
    if out is None:
        out = np.empty(np.shape(points))
    o = _slabs(out)
    w = np.empty((5,) + o.shape[1:]) if work is None else _slabs(work)
    return out, o, w


def transform_triangles(tris, params=STANDARD_PARAMS, out=None, work=None):
    """Batched transformation without degeneracy checks.

    Returns NaN rows for degenerate inputs (zero radius); callers that need a
    total function mask non-finite results instead of catching exceptions.
    Takes `tris` (..., 3, dim) in any layout and writes only to `out`, which
    may be `tris`.  The arithmetic runs on slot slabs: vertex i of every
    triangle, (dim, ...) at slab view index i.  It runs fastest when each
    slab is one C block, that is when `tris`, `out` and the scratch `work`,
    shaped (..., 5, dim), are views of C arrays laid out (rows, dim, ...);
    with them a caller that transforms one batch again and again allocates
    nothing.
    """
    g = _slabs(tris)
    out, o, w = _buffers(tris, out, work)
    d, (d0, d1, d2, c, m), (o0, o1, o2) = w[:3], w, o
    _mean(g, c)
    np.subtract(g, c, out=d)
    # The radii and their ratios live in `o` until the images are written.
    radii, ratios = o[:, 0], o[:, 1]
    np.multiply(d, d, out=o)
    for j in range(1, o.shape[1]):   # np.linalg.norm's bits
        np.add(radii, o[:, j], out=radii)
    np.sqrt(radii, out=radii)
    # With t_j = alpha0 r_j (x_j - c), the AdaptiveParams formula for vertex i
    # reads (1/3)(2 t_i - t_{i+1} - t_{i-1}) + k (t_{i+1} - t_{i-1})
    # = t_i - mean(t) + k (t_{i+1} - t_{i-1}),  k = (alpha0 - alpha1) / (3 alpha0).
    # The weights sum to zero, so the centroid stays fixed.  Equal gains have
    # k = 0 and skip the second term.
    k = (params.alpha0 - params.alpha1) / (3.0 * params.alpha0)
    with np.errstate(divide="ignore", invalid="ignore"):
        np.divide(radii[2], radii[0], out=ratios[0])   # r_i = R_{i-1} / R_i
        np.divide(radii[:2], radii[1:], out=ratios[1:])
        if params.alpha0 != 1.0:
            np.multiply(ratios, params.alpha0, out=ratios)
        np.multiply(d, ratios[:, None], out=d)
        _mean(d, m)
        if k:   # (t_i - mean(t)) + k (t_{i+1} - t_{i-1}), added in that order
            np.subtract(d1, d2, out=o0)
            np.subtract(d2, d0, out=o1)
            np.subtract(d0, d1, out=o2)
            np.multiply(o, k, out=o)
            np.subtract(d, m, out=d)
            np.add(d, o, out=o)
        else:
            np.subtract(d, m, out=o)
    np.add(o, c, out=o)
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


def _areas(t, out, w):
    """Unsigned areas of the triangles whose slot slabs are `t` (3, dim,
    ...) into `out`, with `w` of t's shape as scratch; 2D or 3D."""
    u, v, p = w
    np.subtract(t[1], t[0], out=u)
    np.subtract(t[2], t[0], out=v)
    if len(u) == 2:
        np.multiply(u[0], v[1], out=out)
        np.multiply(u[1], v[0], out=p[0])
        np.subtract(out, p[0], out=out)
    else:
        # the normal u x v, then its norm, with np.cross's and norm's bits
        for i in range(3):
            a, b = (i + 1) % 3, (i + 2) % 3
            np.multiply(u[a], v[b], out=p[i])
            np.multiply(u[b], v[a], out=out)
            np.subtract(p[i], out, out=p[i])
        np.multiply(p, p, out=p)
        np.add(p[0], p[1], out=out)
        np.add(out, p[2], out=out)
        np.sqrt(out, out=out)
    np.multiply(out, 0.5, out=out)
    return np.abs(out, out=out)


def triangle_areas(tris):
    """Unsigned triangle areas; works for 2D and 3D vertices."""
    t = _slabs(tris)
    areas = _areas(t, np.empty(t.shape[2:]), np.empty(t.shape))
    return areas.reshape(np.shape(tris)[:-2])[()]


def rescale_areas(tris_orig, tris_new, out=None, work=None):
    """Batched area restoration: scale each new triangle about its centroid.
    `out` may be either input; `out` and `work` as in `transform_triangles`."""
    g, h = _slabs(tris_orig), _slabs(tris_new)
    out, o, w = _buffers(tris_new, out, work)
    (factor, a_new), c = w[3, :2], w[4]
    _areas(g, factor, w[:3])
    _areas(h, a_new, w[:3])
    with np.errstate(divide="ignore", invalid="ignore"):
        np.divide(factor, a_new, out=factor)
        np.sqrt(factor, out=factor)
    _mean(h, c)
    np.subtract(h, c, out=o)
    np.multiply(o, factor, out=o)
    np.add(o, c, out=o)
    return out


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


def det3(m):
    """Determinants of the 3x3 matrices in `m`, shape (..., 3, 3), by cofactor
    expansion along the first row.  Every volume measure takes its
    determinant from here; a non-finite entry gives a non-finite result."""
    a, b, c = m[..., 0, 0], m[..., 0, 1], m[..., 0, 2]
    d, e, f = m[..., 1, 0], m[..., 1, 1], m[..., 1, 2]
    g, h, i = m[..., 2, 0], m[..., 2, 1], m[..., 2, 2]
    return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)


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


def hex_face_barycenters(hexes):
    """The six face barycenters of each hexahedron, shape (..., 6, 3), as
    the view of a (3, 6, ...) C array: the `_mean` of the four vertex slabs
    of the faces, each one take from the (3, 8, ...) transpose of `hexes`."""
    t = np.asarray(hexes, dtype=float).T
    slabs = [np.take(t, corner, axis=1) for corner in HEX_FACES.T]
    return _mean(slabs, slabs[0]).T


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
    volumes = det3(tris - verts.mean(axis=0))
    scale = edge_lengths(tris).max()
    if not np.all(volumes > EPS_DEGENERATE * scale ** 3):
        raise DegenerateElement("an octahedron face spans no volume")
    return verts, OCTAHEDRON_FACES.copy()


def octahedron_to_hex(verts):
    """Hexahedra whose vertex k is the barycenter of octahedron face k, over
    any leading axes: (..., 6, 3) octahedron vertices in, (..., 8, 3) out."""
    verts = np.asarray(verts, dtype=float)
    if verts.shape[-2:] != (6, 3):
        raise ValueError("expected a (..., 6, 3) vertex array")
    return verts[..., OCTAHEDRON_FACES, :].mean(axis=-2)
