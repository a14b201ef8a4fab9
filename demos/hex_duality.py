"""How hexahedra are smoothed through their dual octahedra.

A hexahedron has no direct triangle structure, so the smoother works on its
dual octahedron instead: the six face barycenters form an octahedron, the
triangle transformation regularizes its eight faces, and the smoothed hex is
recovered from the face barycenters of the new octahedron.  `smooth()` does
this for every hex mesh: the eight octahedron faces are the triangles it
transforms a hex through (`getme.smoothing.ELEMENT_TRIANGLES`).

The script shows the construction on the unit cube, demonstrates that the
round trip is a pure shrink about the center, and regularizes a sheared hex.
"""

import numpy as np

from getme import (
    ElementType,
    Mesh,
    SmootherConfig,
    hex_to_octahedron,
    mesh_quality,
    octahedron_to_hex,
    smooth,
)

cube = np.array([
    [0, 0, 0], [1, 0, 0], [1, 1, 0], [0, 1, 0],
    [0, 0, 1], [1, 0, 1], [1, 1, 1], [0, 1, 1],
], dtype=float)

octa, _ = hex_to_octahedron(cube)
print("dual octahedron vertices of the unit cube (face barycenters):")
print(octa)

back = octahedron_to_hex(octa)
factor = (back - back.mean(0)) / (cube - cube.mean(0))
print(f"\ncube -> octahedron -> hex shrinks edges by {factor[0, 0]:.4f}"
      " about the center (shape is preserved exactly)")

# shear the cube and let the smoother regularize it
shear = np.array([[1.0, 0.6, 0.3], [0.0, 1.0, 0.4], [0.0, 0.0, 1.0]])
sheared = cube @ shear.T
mesh = Mesh(sheared, [range(8)], ElementType.HEX)  # all vertices free
print(f"\nsheared hex quality: {mesh_quality(mesh).mean:.4f}")
for iterations in (1, 5, 20, 60):
    result = smooth(mesh, SmootherConfig(max_iterations=iterations,
                                         error_bound=1e-12))
    print(f"  after {iterations:3d} iterations: "
          f"quality {result.report.mean:.6f}")
print("the free-floating hex converges toward a cube")
