"""Element and mesh quality measures.

Triangles and quads use the min/max edge-length ratio; tetrahedra and
hexahedra use the mean ratio measure, which compares the element's edge
matrix against a regular reference element and scores 1 exactly on the
regular shape and 0 on degenerate or inverted elements.
"""

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .geometry import distortion, hex_corner_edges
from .mesh import ElementType, det3

#: Edge matrix of the regular reference tetrahedron (unit edge length).
REFERENCE_TET_FACTOR = np.array([
    [1.0, 0.5, 0.5],
    [0.0, math.sqrt(3.0) / 2.0, math.sqrt(3.0) / 6.0],
    [0.0, 0.0, math.sqrt(2.0 / 3.0)],
])

_REFERENCE_TET_INV = np.linalg.inv(REFERENCE_TET_FACTOR)

HISTOGRAM_BINS = 20


def _mean_ratio_from_edge_matrix(s):
    """3 det(S)^(2/3) / trace(S^t S), clipped to 0 for non-positive dets."""
    det = det3(s)
    trace = np.einsum("...ij,...ij->...", s, s)
    with np.errstate(divide="ignore", invalid="ignore"):
        q = 3.0 * np.cbrt(det) ** 2 / trace
    return np.where(det > 0, np.nan_to_num(q), 0.0)


def quality_mean_ratio_tet(points):
    """Mean ratio quality of tetrahedra, 1 on the regular tetrahedron.

    The edge matrix D = (x1-x0, x2-x0, x3-x0) is compared against the regular
    reference via S = D W^-1; inverted elements score 0.
    """
    points = np.asarray(points, dtype=float)
    d = np.swapaxes(points[..., 1:, :] - points[..., :1, :], -1, -2)
    return _mean_ratio_from_edge_matrix(d @ _REFERENCE_TET_INV)


def quality_mean_ratio_hex(points):
    """Mean ratio quality of hexahedra, 1 on the cube.

    Average of the eight corner-tetrahedron mean ratios with the identity as
    reference factor; corners with non-positive determinant contribute 0.
    """
    d = np.swapaxes(hex_corner_edges(points), -1, -2)
    return _mean_ratio_from_edge_matrix(d).mean(axis=-1)


def element_qualities(points, element_type):
    """Per-element quality for a batch of same-type elements."""
    if element_type in (ElementType.TRIANGLE, ElementType.QUAD):
        return np.atleast_1d(distortion(points))
    if element_type is ElementType.TET:
        return np.atleast_1d(quality_mean_ratio_tet(points))
    if element_type is ElementType.HEX:
        return np.atleast_1d(quality_mean_ratio_hex(points))
    raise ValueError(f"unsupported element type {element_type}")


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
    """QualityReport for a whole mesh, dispatching on element type."""
    qualities = element_qualities(mesh.element_points(), mesh.element_type)
    return QualityReport.from_qualities(qualities)
