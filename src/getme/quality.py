"""Element and mesh quality measures.

Every element type is scored by the mean ratio: the mean over the
element's corners of d det(S)^(2/d) / tr(S^t S), where S is the corner's
edge matrix times the inverse of the edge matrix of the same corner on the
regular reference element.  It is 1 exactly on the regular shape (and on a
triangle it equals 4 sqrt(3) area / sum of squared edge lengths); a corner
with a non-positive determinant scores 0, and one whose determinant or trace
is not finite (an overflowed measure) scores NaN.  A triangle in 3D has no
orientation; its determinant is sqrt(det(S^t S)), its area in its own plane.
"""

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .geometry import HEX_CORNER_TETS, corner_edges
from .mesh import ElementType, det3

#: Edge matrix of the regular reference tetrahedron (unit edge length).
REFERENCE_TET_FACTOR = np.array([
    [1.0, 0.5, 0.5],
    [0.0, math.sqrt(3.0) / 2.0, math.sqrt(3.0) / 6.0],
    [0.0, 0.0, math.sqrt(2.0 / 3.0)],
])

#: The corners each element type is scored by, as rows (vertex, neighbors)
#: of local indices, and the inverse of the reference corner's edge matrix,
#: or None for the identity (the square and the cube).  The equilateral
#: triangle is the reference tetrahedron's base.
CORNERS = {
    ElementType.TRIANGLE: (np.array([(0, 1, 2)]),
                           np.linalg.inv(REFERENCE_TET_FACTOR[:2, :2])),
    ElementType.QUAD: (np.array([(0, 1, 3), (1, 2, 0), (2, 3, 1), (3, 0, 2)]),
                       None),
    ElementType.TET: (np.array([(0, 1, 2, 3)]),
                      np.linalg.inv(REFERENCE_TET_FACTOR)),
    ElementType.HEX: (HEX_CORNER_TETS, None),
}

HISTOGRAM_BINS = 20


def element_qualities(points, element_type):
    """Mean ratio quality per element for a batch of same-type elements,
    points of shape (n, k, dim): 1 on the regular element, 0 on one whose
    every corner is degenerate or inverted, NaN where a measure overflowed."""
    corners, reference_inv = CORNERS[ElementType(element_type)]
    s = np.swapaxes(corner_edges(points, corners), -1, -2)
    if reference_inv is not None:
        s = s @ reference_inv
    rows, dim = s.shape[-2:]
    with np.errstate(all="ignore"):
        m = np.swapaxes(s, -1, -2) @ s if rows > dim else s
        det = (det3(m) if dim == 3
               else m[..., 0, 0] * m[..., 1, 1] - m[..., 0, 1] * m[..., 1, 0])
        if rows > dim:
            det = np.sqrt(np.maximum(det, 0.0))
        trace = np.einsum("...ij,...ij->...", s, s)
        q = dim * (np.cbrt(det) ** 2 if dim == 3 else det) / trace
    q = np.where(det > 0, q, 0.0)
    q[~(np.isfinite(det) & np.isfinite(trace))] = np.nan
    return np.atleast_1d(q.mean(axis=-1))


@dataclass
class QualityReport:
    """Per-element qualities with aggregates and an iteration trace."""

    per_element: np.ndarray
    mean: float
    min: float
    histogram: list
    iteration_trace: list = field(default_factory=list)

    @classmethod
    def from_qualities(cls, qualities, iteration_trace=None):
        qualities = np.asarray(qualities, dtype=float)
        counts, _ = np.histogram(qualities, bins=HISTOGRAM_BINS, range=(0.0, 1.0))
        return cls(
            per_element=qualities,
            mean=float(qualities.mean()) if qualities.size else 0.0,
            min=float(qualities.min()) if qualities.size else 0.0,
            histogram=counts.tolist(),
            iteration_trace=list(iteration_trace or []),
        )

    def to_dict(self):
        """Aggregates and trace, with a non-finite value (an overflowed
        measure) as None, so that the JSON form is strict."""
        return {
            "mean": _finite_or_none(self.mean),
            "min": _finite_or_none(self.min),
            "histogram": self.histogram,
            "trace": [
                {"iter": it, "mean": _finite_or_none(m),
                 "min": _finite_or_none(mn)}
                for it, m, mn in self.iteration_trace
            ],
        }

    def to_json(self, indent=None):
        return json.dumps(self.to_dict(), indent=indent, allow_nan=False)


def _finite_or_none(value):
    return value if math.isfinite(value) else None


def mesh_quality(mesh):
    """QualityReport for a whole mesh."""
    qualities = element_qualities(mesh.element_points(), mesh.element_type)
    return QualityReport.from_qualities(qualities)
