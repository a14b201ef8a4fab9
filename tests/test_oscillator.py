import io
import math

import numpy as np
import pytest

from getme import (
    AdaptiveParams,
    REAL_PART_FORM,
    RHS_MATRIX,
    compare_discrete_continuous,
    is_convergent,
    ode_rhs,
    second_order_residual,
    solve_ode,
    spectrum,
    write_comparison_csv,
)


def rk4(initial, t_end, dt=1e-3):
    """Independent 4th-order integration of the linear radius system."""
    state = np.asarray(initial, dtype=float)
    steps = int(round(t_end / dt))
    f = lambda s: RHS_MATRIX @ s
    for _ in range(steps):
        k1 = f(state)
        k2 = f(state + 0.5 * dt * k1)
        k3 = f(state + 0.5 * dt * k2)
        k4 = f(state + dt * k3)
        state = state + dt / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)
    return state


def test_rhs_matrix_rows_sum_to_zero():
    assert np.allclose(RHS_MATRIX.sum(axis=1), 0.0)
    # mean preservation: columns also sum to zero
    assert np.allclose(RHS_MATRIX.sum(axis=0), 0.0)


def test_ode_rhs_zero_at_equilibrium():
    assert np.allclose(ode_rhs([2.0, 2.0, 2.0]), 0.0)


def test_ode_rhs_rejects_bad_state():
    with pytest.raises(ValueError):
        ode_rhs([1.0, -1.0, 1.0])
    with pytest.raises(ValueError):
        ode_rhs([1.0, 1.0])


def test_solution_matches_initial_value():
    initial = [0.3, 1.1, 0.7]
    assert np.allclose(solve_ode(initial, 0.0), initial, atol=1e-14)


def test_solution_matches_rk4():
    rng = np.random.default_rng(11)
    for _ in range(10):
        initial = rng.uniform(0.1, 2.0, 3)
        for t in (0.5, 1.0, 3.0):
            assert np.allclose(solve_ode(initial, t), rk4(initial, t),
                               atol=1e-9)


def test_solution_preserves_mean():
    initial = np.array([0.4, 1.3, 0.9])
    t = np.linspace(0.0, 10.0, 101)
    sol = solve_ode(initial, t)
    assert np.allclose(sol.mean(axis=-1), initial.mean(), atol=1e-13)


def test_solution_converges_to_mean():
    initial = np.array([0.4, 1.3, 0.9])
    assert np.allclose(solve_ode(initial, 40.0), initial.mean(), atol=1e-8)


def test_solution_bounded_by_initial_spread():
    initial = np.array([0.2, 1.0, 0.6])
    mean = initial.mean()
    c = 2 * initial - np.roll(initial, -1) - np.roll(initial, -2)
    s = math.sqrt(3.0) * (np.roll(initial, -2) - np.roll(initial, -1))
    bound = (np.abs(c) + np.abs(s)) / 3.0
    t = np.linspace(0.0, 5.0, 200)
    sol = solve_ode(initial, t)
    assert np.all(np.abs(sol - mean) <= np.exp(-t / 2.0)[:, None] * bound + 1e-12)


def test_second_order_residual_vanishes():
    rng = np.random.default_rng(12)
    for _ in range(20):
        initial = rng.uniform(0.1, 3.0, 3)
        for t in np.linspace(0.0, 10.0, 21):
            assert np.all(np.abs(second_order_residual(initial, t)) < 1e-12)


def test_negative_time_rejected():
    with pytest.raises(ValueError):
        solve_ode([1.0, 1.0, 1.0], -0.5)


def test_spectrum_standard():
    result = spectrum(AdaptiveParams(1.0, 1.0))
    assert result.lambda0 == 0.0
    assert abs(result.lambda12_real + 0.5) < 1e-14
    assert abs(result.lambda12_imag - math.sqrt(3.0) / 2.0) < 1e-14


def test_spectrum_standard_matches_rhs_matrix():
    eig = np.linalg.eigvals(RHS_MATRIX)
    eig = eig[np.argsort(np.abs(eig.imag))]
    result = spectrum(AdaptiveParams(1.0, 1.0))
    assert abs(eig[0]) < 1e-12
    assert np.isclose(eig[1].real, result.lambda12_real, atol=1e-12)
    assert np.isclose(abs(eig[1].imag), result.lambda12_imag, atol=1e-12)


def test_spectrum_discriminant_vanishes_at_boundary():
    # the oscillatory part disappears exactly at alpha1 = 2.5 alpha0
    assert spectrum(AdaptiveParams(1.0, 2.5)).lambda12_imag < 1e-12
    assert spectrum(AdaptiveParams(1.0, 2.4)).lambda12_imag > 0.0


def test_spectrum_and_verdict_take_a_plain_gain_pair():
    for gains in ((1.0, 1.0), (0.1, 0.5)):
        assert spectrum(gains) == spectrum(AdaptiveParams(*gains))
        assert is_convergent(gains) == is_convergent(AdaptiveParams(*gains))
    assert is_convergent((1.0, 1.0)) and not is_convergent((0.1, 0.5))


def test_convergence_boundary():
    line = 1.0 + math.sqrt(3.0)
    assert is_convergent(AdaptiveParams(1.0, line - 1e-9))
    assert not is_convergent(AdaptiveParams(1.0, line + 1e-9))
    assert abs(spectrum(AdaptiveParams(1.0, line)).lambda12_real) < 1e-12


@pytest.mark.parametrize("gain", [1e-200, 1.3e154, 1.35e154, 1e200])
def test_spectrum_at_extreme_gains(gain):
    # equal gains: lambda12 = -gain**2 / 2 +- gain sqrt(3) / 2 i; the real
    # part underflows to -0.0 at 1e-200 and overflows to -inf at 1e200 only
    result = spectrum(AdaptiveParams(gain, gain))
    assert math.isclose(result.lambda12_imag, gain * math.sqrt(3.0) / 2.0,
                        rel_tol=1e-15)
    assert math.isclose(result.lambda12_real, -0.5 * gain * gain,
                        rel_tol=1e-15)
    assert is_convergent(AdaptiveParams(gain, gain))
    assert not is_convergent(AdaptiveParams(gain, 2.8 * gain))


def test_real_part_form():
    for a0, a1 in [(1.0, 1.0), (0.3, 0.7), (2.0, 0.5)]:
        v = np.array([a0, a1])
        quad = v @ REAL_PART_FORM @ v
        assert np.isclose(quad, spectrum(AdaptiveParams(a0, a1)).lambda12_real)
    eig = np.sort(np.linalg.eigvalsh(REAL_PART_FORM))
    expected = np.sort([(-1 - math.sqrt(13.0)) / 12.0,
                        (-1 + math.sqrt(13.0)) / 12.0])
    assert np.allclose(eig, expected, atol=1e-14)


def test_comparison_rows_and_csv():
    tri = np.array([[0.0, 0.0], [1.0, 0.0], [0.2, 0.8]])
    rows = compare_discrete_continuous(tri, 10)
    assert len(rows) == 11
    assert rows[0][0] == 0 and rows[0][1] == 0.0
    # at step 0 discrete and continuous radii agree
    assert np.allclose(rows[0][2:5], rows[0][5:8], atol=1e-12)
    # both sequences converge: discrete radii equalize, continuous hits mean
    last = rows[-1]
    assert np.ptp(last[2:5]) < 1e-2
    mean0 = np.mean(rows[0][5:8])
    assert np.allclose(last[5:8], mean0, atol=1e-2)

    buf = io.StringIO()
    write_comparison_csv(rows, buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "step,t,r0_disc,r1_disc,r2_disc,R0_cont,R1_cont,R2_cont"
    assert len(lines) == 12
    # values round-trip exactly through repr
    first = lines[1].split(",")
    assert int(first[0]) == 0
    assert [float(x) for x in first[2:5]] == list(rows[0][2:5])
