"""Continuous model of the triangle transformation.

The vertex-to-centroid distances of a triangle evolve, in the continuous
picture, under a linear ODE system whose solutions are damped oscillations
around the mean distance.  This module evaluates the closed-form solution,
its spectrum as a function of the adaptive gain factors, and produces the
discrete-vs-continuous comparison table.
"""

import csv
import math
from dataclasses import dataclass, field

import numpy as np

from .geometry import (
    AdaptiveParams,
    STANDARD_PARAMS,
    iterate_triangle,
    vertex_radii,
)

#: Coefficient matrix of the radius ODE system dR/dt = RHS_MATRIX @ R.
RHS_MATRIX = np.array([
    [-1.0 / 3.0, -1.0 / 3.0, 2.0 / 3.0],
    [2.0 / 3.0, -1.0 / 3.0, -1.0 / 3.0],
    [-1.0 / 3.0, 2.0 / 3.0, -1.0 / 3.0],
])

#: Angular frequency of the damped oscillation (imaginary part of the
#: non-zero eigenvalue pair in the standard case).
OMEGA = math.sqrt(3.0) / 2.0


def _check_state(state):
    state = np.asarray(state, dtype=float)
    if state.shape != (3,):
        raise ValueError("radius state must have exactly 3 entries")
    if not np.all(np.isfinite(state)) or np.any(state <= 0):
        raise ValueError("radius state entries must be positive and finite")
    return state


def ode_rhs(state):
    """Right-hand side of the radius system: each distance grows when its
    predecessor exceeds the mean and shrinks otherwise."""
    return RHS_MATRIX @ _check_state(state)


def _solution_coefficients(initial):
    r = _check_state(initial)
    mean = r.sum() / 3.0
    c = 2.0 * r - np.roll(r, -1) - np.roll(r, -2)
    s = math.sqrt(3.0) * (np.roll(r, -2) - np.roll(r, -1))
    return mean, c, s


def solve_ode(initial, t):
    """Closed-form solution R(t) of the radius system.

    R_i(t) = mean + (1/3) e^{-t/2} (c_i cos(omega t) + s_i sin(omega t))
    with c_i = 2R_i - R_{i+1} - R_{i+2} and s_i = sqrt(3) (R_{i+2} - R_{i+1}).
    `t` may be a scalar or an array; the result gains a matching leading axis.
    """
    mean, c, s = _solution_coefficients(initial)
    t = np.asarray(t, dtype=float)
    if np.any(t < 0):
        raise ValueError("time must be non-negative")
    envelope = np.exp(-t / 2.0)[..., None] / 3.0
    phase = OMEGA * t
    return mean + envelope * (
        c * np.cos(phase)[..., None] + s * np.sin(phase)[..., None]
    )


def second_order_residual(initial, t):
    """Residual of the equivalent damped-oscillator form.

    Evaluates R'' + R' + R - mean from the closed-form solution using exact
    derivatives; analytically this vanishes for every initial state and time.
    """
    mean, c, s = _solution_coefficients(initial)
    t = float(t)
    f = math.exp(-t / 2.0) / 3.0
    cos, sin = math.cos(OMEGA * t), math.sin(OMEGA * t)
    g = c * cos + s * sin
    dg = OMEGA * (-c * sin + s * cos)
    # d2g = -OMEGA^2 g; OMEGA^2 = 3/4.
    r = f * g
    dr = f * (dg - 0.5 * g)
    d2r = f * (0.25 * g - dg - 0.75 * g)
    return d2r + dr + r


#: Symmetric 2x2 matrix Q of the eigenvalue real part as a quadratic form:
#: (alpha0, alpha1) Q (alpha0, alpha1)^T = -(2 a0^2 + 2 a0 a1 - a1^2) / 6.
#: The form is indefinite with eigenvalues (1/12)(-1 +- sqrt(13)).
REAL_PART_FORM = np.array([[-2.0, -1.0], [-1.0, 1.0]]) / 6.0


@dataclass(frozen=True)
class SpectrumResult:
    """Eigenvalues of the adaptive-parameter radius system.

    lambda0 is always 0 (the equilibrium direction); the remaining pair is
    lambda12_real +- i lambda12_imag.  When the discriminant
    5 a0^2 - 4 a1^2 + 8 a0 a1 turns negative (only possible for
    alpha1 > 2.5 alpha0, outside the transformation's validity range) the pair
    splits into two real eigenvalues with lambda12_real as their mean and
    lambda12_imag reported as 0.
    """

    lambda0: float = field(default=0.0, init=False)
    lambda12_real: float
    lambda12_imag: float


def spectrum(params):
    """Closed-form eigenvalues of the radius system for the given gains.
    Their parts are homogeneous of degrees 2 and 1 in the gains, so they
    are taken on the gains over the larger one and scaled last: only a
    result out of the float range overflows or underflows."""
    if not isinstance(params, AdaptiveParams):
        params = AdaptiveParams(*params)
    scale = max(params.alpha0, params.alpha1)
    a0, a1 = params.alpha0 / scale, params.alpha1 / scale
    real = -(2.0 * a0 * a1 - a1 * a1 + 2.0 * a0 * a0) / 6.0 * scale * scale
    disc = 5.0 * a0 * a0 - 4.0 * a1 * a1 + 8.0 * a0 * a1
    return SpectrumResult(real, math.sqrt(3.0 * max(disc, 0.0)) / 6.0 * scale)


def is_convergent(params):
    """Whether the oscillations decay, i.e. the eigenvalue real part is
    negative: alpha1 < (1 + sqrt(3)) alpha0.  The ratio decides, so the
    verdict holds where the real part overflows or underflows to zero."""
    if not isinstance(params, AdaptiveParams):
        params = AdaptiveParams(*params)
    return params.alpha1 < (1.0 + math.sqrt(3.0)) * params.alpha0


def compare_discrete_continuous(triangle, n_steps, params=STANDARD_PARAMS):
    """Paired discrete and continuous radius sequences.

    Row n holds the vertex-to-centroid distances of the n-th discrete iterate
    (area-preserving transformation) next to the continuous solution sampled
    at t = n, a float.  Returns a list of
    (step, t, r0_disc, r1_disc, r2_disc, R0_cont, R1_cont, R2_cont) tuples.
    The model is validated through the limit behavior, not the time axis.
    """
    triangle = np.asarray(triangle, dtype=float)
    initial = vertex_radii(triangle)
    rows = []
    tri = triangle
    for n in range(n_steps + 1):
        t = float(n)
        cont = solve_ode(initial, t)
        disc = vertex_radii(tri)
        rows.append((n, t, *disc.tolist(), *cont.tolist()))
        tri = iterate_triangle(tri, params, 1)
    return rows


COMPARISON_CSV_HEADER = (
    "step", "t",
    "r0_disc", "r1_disc", "r2_disc",
    "R0_cont", "R1_cont", "R2_cont",
)


def write_comparison_csv(rows, fileobj):
    """Write comparison rows with the fixed CSV header."""
    writer = csv.writer(fileobj, lineterminator="\n")
    writer.writerow(COMPARISON_CSV_HEADER)
    for row in rows:
        writer.writerow([repr(v) if isinstance(v, float) else v for v in row])
