"""Mesh smoothing by regularizing element transformations.

A geometric triangle transformation drives smoothers for triangle, quad,
tetrahedral and hexahedral meshes; a damped-oscillation model of the
transformation explains its convergence and motivates the adaptive gains.
"""

from .errors import (
    DegenerateElement,
    GetmeError,
    InvalidMesh,
    InvalidSpec,
    InvalidTopology,
    MixedElementTypes,
    ParseError,
    UnsupportedElementType,
)
from .generators import KINDS, GeneratorSpec, generate
from .geometry import (
    AdaptiveParams,
    HEX_CORNER_TETS,
    HEX_FACES,
    OCTAHEDRON_FACES,
    STANDARD_PARAMS,
    centroid_ratios,
    centroids,
    distortion,
    edge_lengths,
    hex_to_octahedron,
    iterate_triangle,
    octahedron_to_hex,
    rescale_area,
    transform_triangle,
    transform_triangles,
    triangle_areas,
    vertex_radii,
)
from .io import read_mesh, write_mesh
from .mesh import (
    ElementType,
    Mesh,
    detect_boundary,
    element_signed_measures,
    validate,
)
from .oscillator import (
    REAL_PART_FORM,
    RHS_MATRIX,
    SpectrumResult,
    compare_discrete_continuous,
    is_convergent,
    ode_rhs,
    second_order_residual,
    solve_ode,
    spectrum,
    write_comparison_csv,
)
from .quality import (
    QualityReport,
    element_qualities,
    mesh_quality,
)
from .smoothing import (
    ADAPTIVE_PRESETS,
    SmootherConfig,
    SmoothingResult,
    adaptive_config,
    smart_laplace,
    smooth,
)

__version__ = "0.1.0"

__all__ = [
    "ADAPTIVE_PRESETS",
    "AdaptiveParams",
    "DegenerateElement",
    "ElementType",
    "GeneratorSpec",
    "GetmeError",
    "HEX_CORNER_TETS",
    "HEX_FACES",
    "InvalidMesh",
    "InvalidSpec",
    "InvalidTopology",
    "KINDS",
    "Mesh",
    "MixedElementTypes",
    "OCTAHEDRON_FACES",
    "ParseError",
    "QualityReport",
    "REAL_PART_FORM",
    "RHS_MATRIX",
    "STANDARD_PARAMS",
    "SmootherConfig",
    "SmoothingResult",
    "SpectrumResult",
    "UnsupportedElementType",
    "adaptive_config",
    "centroid_ratios",
    "centroids",
    "compare_discrete_continuous",
    "detect_boundary",
    "distortion",
    "edge_lengths",
    "element_qualities",
    "element_signed_measures",
    "generate",
    "hex_to_octahedron",
    "is_convergent",
    "iterate_triangle",
    "mesh_quality",
    "octahedron_to_hex",
    "ode_rhs",
    "read_mesh",
    "rescale_area",
    "second_order_residual",
    "smart_laplace",
    "smooth",
    "solve_ode",
    "spectrum",
    "transform_triangle",
    "transform_triangles",
    "triangle_areas",
    "validate",
    "vertex_radii",
    "write_comparison_csv",
    "write_mesh",
]
