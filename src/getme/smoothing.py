"""Mesh smoothing driven by the regularizing triangle transformation.

One smoother, `smooth()`, for all four element types plus the SmartLaplace
baseline, both run by one outer loop that checks the preconditions, records
the quality trace and stops once the mean-quality improvement drops below
the error bound.  Each element type is described by the triangles it is
transformed through (`ELEMENT_TRIANGLES`): a triangle by itself, a quad by
its four corner triangles, a tet by its four faces and a hex by the eight
faces of its dual octahedron.  Every element is transformed independently
from a frozen vertex snapshot, and each interior vertex then moves to the
mean of its images across the incident elements.  Both smoothers pass
their moves through one accept step (`_accept`): a vertex whose proposal
is not finite stays, and an element goes back if a guarded corner (one
not <= 0 in the accepted state) ends not positive, so a guarded run adds
no inverted corner but may repair one that came in inverted.  SmartLaplace
sweeps one colour of a greedy vertex colouring at a time.  Meshes must
have elements, and triangle meshes must be planar:
`element_signed_measures` refuses 3D triangles, since nothing here
projects a moved vertex back onto a surface.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidMesh
from .geometry import (
    AdaptiveParams,
    OCTAHEDRON_FACES,
    STANDARD_PARAMS,
    _mean,
    hex_face_barycenters,
    rescale_areas,
    transform_triangles,
)
from .mesh import (
    ELEMENT_FACES,
    ElementType,
    Mesh,
    _edge_neighbors,
    _element_slabs,
    _incident_elements,
    _is_integer,
    element_signed_measures,
    hex_corner_dets,
)
from .quality import element_qualities, QualityReport

GUARD_RESET = "reset"
GUARD_NONE = "none"

#: Element-type presets for the adaptive gains, matching the parameter pairs
#: that performed best in the reference experiments; hexahedra have no
#: published preset and default to the standard transformation.
ADAPTIVE_PRESETS = {
    ElementType.TRIANGLE: (0.1, 0.15),
    ElementType.QUAD: (0.1, 0.15),
    ElementType.TET: (0.6, 0.6),
    ElementType.HEX: (1.0, 1.0),
}

DEFAULT_INNER_ITERATIONS = {
    ElementType.TRIANGLE: 3,
    ElementType.QUAD: 10,
    ElementType.TET: 3,
    ElementType.HEX: 3,
}


@dataclass(frozen=True)
class SmootherConfig:
    """Knobs shared by all smoothers.

    inner_iterations=None picks the per-type default (3, or 10 for the quad
    sub-triangles).  The guard resets images and rolls back vertex moves
    that would invert a corner, and lets inverted corners be repaired;
    guard="none" turns both off, but a move that is not finite is refused
    either way.  `smooth()` checks that the gains give a valid
    transformation (alpha2 > 0); SmartLaplace ignores gains and guard.
    """

    params: AdaptiveParams = STANDARD_PARAMS
    inner_iterations: int | None = None
    max_iterations: int = 200
    error_bound: float = 1e-4
    guard: str = GUARD_RESET

    def __post_init__(self):
        if self.inner_iterations is not None and not (
                _is_integer(self.inner_iterations)
                and self.inner_iterations >= 1):
            raise ValueError("inner_iterations must be an integer >= 1")
        if not 0 < self.error_bound < math.inf:
            raise ValueError("error_bound must be positive and finite")
        if not (_is_integer(self.max_iterations) and self.max_iterations >= 1):
            raise ValueError("max_iterations must be an integer >= 1")
        if self.guard not in (GUARD_RESET, GUARD_NONE):
            raise ValueError(f"unknown guard policy {self.guard!r}")

    def inner_for(self, element_type):
        if self.inner_iterations is not None:
            return self.inner_iterations
        return DEFAULT_INNER_ITERATIONS[element_type]


def adaptive_config(element_type, **overrides):
    """SmootherConfig with the adaptive preset for the given element type."""
    alpha0, alpha1 = ADAPTIVE_PRESETS[ElementType(element_type)]
    overrides.setdefault("params", AdaptiveParams(alpha0, alpha1))
    return SmootherConfig(**overrides)


@dataclass
class SmoothingResult:
    """`guard_resets` counts, per iteration, the elements `smooth()` reset or
    rolled back (each once), or the moves SmartLaplace rejected.  The report
    scores each accepted vertex state on the points gathered once for it."""

    mesh: Mesh
    report: QualityReport
    iterations_run: int
    guard_resets: list = field(default_factory=list)


# ---------------------------------------------------------------------------
# Per-element transformation (batched over all elements of the mesh)
# ---------------------------------------------------------------------------

#: The triangles each element type is transformed through, as indices into
#: its working points: the element's own vertices, or for a hex the six face
#: barycenters that span its dual octahedron.
ELEMENT_TRIANGLES = {
    ElementType.TRIANGLE: np.array([(0, 1, 2)]),
    ElementType.QUAD: np.array([(0, 1, 2), (1, 2, 3), (2, 3, 0), (3, 0, 1)]),
    ElementType.TET: np.array(ELEMENT_FACES[ElementType.TET]),
    ElementType.HEX: OCTAHEDRON_FACES,
}


def _image_slots(tris):
    """The slots and the triangles of the images of each working point, in
    triangle order: two arrays of shape (images, points), since every
    working point has the same number of images."""
    t, s = np.divmod(np.argsort(tris.ravel(), kind="stable"), 3)
    return (s.reshape(tris.max() + 1, -1).T, t.reshape(tris.max() + 1, -1).T)


_IMAGE_SLOTS = {e: _image_slots(t) for e, t in ELEMENT_TRIANGLES.items()}

#: Types whose triangles form a closed surface around the element.
_CLOSED_SURFACES = (ElementType.TET, ElementType.HEX)


def _orientation(points, element_type):
    """Every corner determinant of each element, shape (n, corners)."""
    if element_type is ElementType.HEX:
        return hex_corner_dets(points)
    return element_signed_measures(points, element_type)


def _inverts(guarded, orientation):
    """Per element, whether a guarded corner (one not <= 0: positive, or NaN
    from overflow) ends not > 0, the one bad step of both smoothers."""
    return (guarded & ~(orientation > 0)).any(axis=1)


def _take_mean(src, index, out, scratch):
    """Into the rows of `out` (..., n), the mean of the rows of `src` (R, n)
    that `index` (m, ...) names along its first axis, with the bits of
    src[index].mean(axis=0): one take into `scratch`, then adds in order."""
    n = out.shape[-1]
    rows = scratch.reshape(-1, n)[:index.size]
    np.take(src, index.ravel(), axis=0, out=rows, mode="clip")
    _mean(rows.reshape(index.shape + (n,)),
          out.reshape(index.shape[1:] + (n,)))


class _Transform:
    """The element transform of one `smooth()` call, with every buffer its
    passes write allocated once from the shape (n, k, dim) of the element
    points.

    Working points are laid out (dim, k, n) and the triangles (3, dim, T n),
    so that slot i of all T n triangles is the C block `tris[i]`; every
    gather is one take of rows of such a buffer seen as (rows, n).
    Sub-triangles (tri, quad) get their area back after every pass and their
    images are averaged once at the end.  Closed surfaces (tet, hex
    octahedron) are averaged on every pass; the result is scaled about its
    centroid to the volume given by `orientation`, the measures of `points`.
    A call returns the (n, k, dim) view of the workspace's own (dim, k, n)
    buffer, which the next call overwrites.
    """

    def __init__(self, element_type, shape):
        n, k, dim = shape
        triangles = ELEMENT_TRIANGLES[element_type]
        hexes = element_type is ElementType.HEX
        self.element_type = element_type
        self.elements = np.empty((dim, k, n))
        self.cur = np.empty((dim, 6, n)) if hexes else self.elements
        self.tris = np.empty((3, dim, len(triangles) * n))
        self.new = np.empty_like(self.tris)
        self.work = np.empty((5,) + self.tris.shape[1:])
        # their (T n, rows, dim) views, as geometry takes triangles
        self.rows = [a.transpose(2, 0, 1)
                     for a in (self.tris, self.new, self.work)]
        # Row indices into the (rows, n) views: coordinate j of working
        # point p is row j * working + p; of vertex i of triangle t, row
        # (i * dim + j) * T + t.
        j = np.arange(dim)[:, None]
        working = self.cur.shape[1]
        self.faces = (j * working + triangles.T[:, None]).ravel()
        s, t = _IMAGE_SLOTS[element_type]
        self.images = (s[:, None] * dim + j) * len(triangles) + t[:, None]
        if hexes:
            self.octahedron = j * working + OCTAHEDRON_FACES.T[:, None]

    def __call__(self, points, params, inner, orientation):
        element_type, cur, tris, new = (self.element_type, self.cur,
                                        self.tris, self.new)
        n = points.shape[0]
        p, gather = self.elements, tris.reshape(-1, n)
        closed = element_type in _CLOSED_SURFACES
        if element_type is ElementType.HEX:
            np.copyto(cur, hex_face_barycenters(points).T)
        else:
            np.copyto(cur, points.T)
        np.take(cur.reshape(-1, n), self.faces, axis=0, out=gather,
                mode="clip")
        tris_rows, new_rows, work_rows = self.rows
        for _ in range(inner):
            transform_triangles(tris_rows, params, new_rows, work_rows)
            if closed:
                _take_mean(new.reshape(-1, n), self.images, cur, tris)
                np.take(cur.reshape(-1, n), self.faces, axis=0, out=gather,
                        mode="clip")
            else:
                rescale_areas(tris_rows, new_rows, tris_rows, work_rows)
        if not closed:
            _take_mean(gather, self.images, cur, new)
            return cur.T

        if element_type is ElementType.HEX:
            _take_mean(cur.reshape(-1, n), self.octahedron, p, tris)
        volumes = _orientation(p.T, element_type).sum(axis=-1)
        with np.errstate(divide="ignore", invalid="ignore"):
            factor = np.cbrt(np.abs(orientation.sum(axis=-1) / volumes))
        c = _mean(p.swapaxes(0, 1), self.work[0, :, :n])[:, None]
        np.subtract(p, c, out=p)
        np.multiply(p, factor, out=p)
        np.add(p, c, out=p)
        return p.T


# ---------------------------------------------------------------------------
# Outer loop
# ---------------------------------------------------------------------------


def _iterate(mesh, cfg, steps):
    """The outer loop both smoothers share.

    `steps` yields, per iteration, the vertices, their element points and
    the guard event count; it is advanced only once the preconditions hold,
    and it may update the arrays it last yielded in place.  The loop scores
    the yielded points and stops after `cfg.max_iterations`, or once the
    mean quality gains less than `cfg.error_bound` (or NaN).
    """
    if not len(mesh.elements):
        raise InvalidMesh("cannot smooth a mesh without elements")
    etype, verts = mesh.element_type, mesh.vertices
    q = element_qualities(mesh.element_points(), etype)
    trace = [(0, float(q.mean()), float(q.min()))]
    guard_resets = []
    # An overflowed measure is NaN by design, and `steps` runs in here.
    with np.errstate(over="ignore", invalid="ignore"):
        for it in range(1, cfg.max_iterations + 1):
            verts, points, events = next(steps)
            guard_resets.append(events)
            q = element_qualities(points, etype)
            trace.append((it, float(q.mean()), float(q.min())))
            if not trace[it][1] - trace[it - 1][1] >= cfg.error_bound:
                break
    report = QualityReport.from_qualities(q, trace)
    return SmoothingResult(mesh.with_vertices(verts), report, len(trace) - 1,
                           guard_resets)


def smooth(mesh, cfg=SmootherConfig()):
    """Smooth a triangle (2D), quad, tet or hex mesh."""
    cfg.params.require_transform_valid()
    return _iterate(mesh, cfg, _getme_steps(mesh, cfg))


def _vertex_sums(indices, values, n):
    """Sums of the `values` rows (..., dim) per vertex index, each added in
    input order (C order of the leading axes) from 0.0, as np.add.at into
    zeros adds them."""
    return np.stack([np.bincount(indices, weights=values[..., j].ravel(),
                                 minlength=n)
                     for j in range(values.shape[-1])], axis=1)


def _accept(new, old, rows, conn, guarded, element_type):
    """The accept step of both smoothers, on `new` in place: `rows` moved
    from `old` and touch the elements `conn`, with corners `guarded`.  A
    row whose proposal is not finite stays where it was; then the vertices
    of every element with a guarded corner that ends not > 0 go back to
    `old` until none is left.  Returns the accepted element points, their
    `_orientation`, the elements sent back and the rows that stayed."""
    finite = np.isfinite(new[rows])
    roll = rows[:0] if finite.all() else rows[~finite.all(axis=1)]
    back = np.zeros(len(conn), dtype=bool)
    sent = np.zeros(len(new), dtype=bool)
    while True:
        new[roll] = old[roll]
        sent[roll] = True
        points = _element_slabs(new, conn)
        orientation = _orientation(points, element_type)
        hit = _inverts(guarded, orientation)
        back |= hit   # before the end check: a NaN corner stays hit
        roll = conn[hit]
        if not hit.any() or np.array_equal(new[roll], old[roll]):
            sent[roll] = True
            return points, orientation, back, sent[rows]


def _getme_steps(mesh, cfg):
    """Simultaneous transform-and-average iterations of `smooth()`; each
    accepted state's points and measures are the next snapshot's."""
    element_type = mesh.element_type
    inner = cfg.inner_for(element_type)
    guard_on = cfg.guard == GUARD_RESET
    verts, elems = mesh.vertices, mesh.elements
    counts = np.bincount(elems.ravel(), minlength=len(verts))
    pinned = ((counts == 0) | mesh.boundary_mask)[:, None]
    free = np.flatnonzero(~pinned)
    counts = np.maximum(counts, 1)[:, None]
    points = _element_slabs(verts, elems)
    orientation = _orientation(points, element_type)
    transform = _Transform(element_type, points.shape)

    while True:
        guarded = ~(orientation <= 0) & guard_on
        new = transform(points, cfg.params, inner, orientation)

        # Non-finite images are already bad, and every measure is taken row
        # by row, so the guard can measure `new` as it is.
        bad = ~np.isfinite(new).all(axis=(1, 2))
        if guard_on:
            bad |= _inverts(guarded, _orientation(new, element_type))
        np.copyto(new, points, where=bad[:, None, None])

        # Averaging valid images can still invert a corner: `_accept`
        # sends such elements back, and each reset element counts once.
        acc = _vertex_sums(elems.ravel(), new, len(verts))
        old, verts = verts, np.where(pinned, verts, acc / counts)
        points, orientation, back, _ = _accept(verts, old, free, elems,
                                               guarded, element_type)
        yield verts, points, int((bad | back).sum())


# ---------------------------------------------------------------------------
# SmartLaplace baseline
# ---------------------------------------------------------------------------


def smart_laplace(mesh, cfg=SmootherConfig()):
    """Laplacian smoothing with element-inversion rejection.

    Every interior vertex is moved to the barycenter of its edge-connected
    neighbors, through `smooth()`'s accept step: a move is refused if that
    is not finite or if it inverts a guarded corner of an incident element,
    and an inverted corner may be repaired.  Each sweep is a Gauss-Seidel
    sweep on the current positions, one colour of a greedy vertex colouring
    at a time (`_colours`), which keeps runs bit-reproducible.  No two
    vertices of a colour share an element, so moving a whole colour at once
    gives the bits of a per-vertex numpy loop in (colour, index) order.
    """
    return _iterate(mesh, cfg, _laplace_steps(mesh))


def _colours(mesh, nb_at, incident):
    """Per vertex, the colour SmartLaplace moves it in, or -1 if it is pinned
    or has no edge neighbour (`nb_at`): in index order, the lowest colour no
    `incident` element holds yet, so no two vertices of a colour share one."""
    elements, at = (a.tolist() for a in incident)
    held = [0] * len(mesh.elements)   # bitmask of the colours in each element
    colours = [-1] * len(mesh.vertices)
    movable = ~mesh.boundary_mask & (np.diff(nb_at) > 0)
    for v in np.flatnonzero(movable).tolist():
        taken = 0
        for i in range(at[v], at[v + 1]):
            taken |= held[elements[i]]
        bit = ~taken & (taken + 1)   # the lowest colour not taken
        for i in range(at[v], at[v + 1]):
            held[elements[i]] |= bit
        colours[v] = bit.bit_length() - 1
    return np.array(colours)


def _padded_runs(values, offsets, keys, pad):
    """The runs of `keys` in a `_group`'s (values, offsets) as the columns of a
    (longest run, len(keys)) table padded with `pad`."""
    starts, lengths = offsets[keys], offsets[keys + 1] - offsets[keys]
    rank = np.arange(lengths.max())[:, None]
    return np.where(rank < lengths, values.take(starts + rank, mode="clip"),
                    pad)


def _laplace_steps(mesh):
    """SmartLaplace sweeps, one colour of `_colours` at a time, each through
    `_accept` with the elements it touches; `old` follows `work` one colour
    at a time.  A colour's plan is cut from `_group`'s arrays: its vertices,
    their incident elements in vertex order, and their neighbours padded
    with a -0.0 row, since x + -0.0 == x for every x, -0.0 included."""
    etype, elems = mesh.element_type, mesh.elements
    n = len(mesh.vertices)
    work = np.vstack([mesh.vertices, np.full((1, mesh.dimension), -0.0)])
    old = work.copy()
    guarded = ~(_orientation(_element_slabs(work, elems), etype) <= 0)
    neighbors, nb_at = _edge_neighbors(mesh)
    incident = _incident_elements(mesh)
    colours = _colours(mesh, nb_at, incident)
    plan = []
    for colour in range(colours.max() + 1):
        vids = np.flatnonzero(colours == colour)
        runs = _padded_runs(*incident, vids, -1).T
        inc = runs[runs >= 0]
        plan.append((vids, _padded_runs(neighbors, nb_at, vids, n),
                     np.diff(nb_at)[vids, None], inc, elems[inc]))
    while True:
        rejected = 0
        for vids, nbs, counts, inc, conn in plan:
            # the same bits as work[nb].mean(axis=0) per vertex
            work[vids] = np.add.reduce(work[nbs]) / counts
            held = guarded[inc]
            _, corners, _, stayed = _accept(work, old, vids, conn, held, etype)
            old[vids] = work[vids]
            rejected += int(np.count_nonzero(stayed))
            if not held.all():   # else every corner stays guarded
                guarded[inc] = ~(corners <= 0)
        yield work[:n], _element_slabs(work, elems), rejected
