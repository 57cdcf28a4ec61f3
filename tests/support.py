"""Helpers the tests share that the package itself never calls: the
one-mode manufactured problem t^nu, the interpolatory projection of
power-sum profiles, the semilog fit of an hp convergence history and the
bilinear form through a given operator."""

import math

import numpy as np

from fracdg.kernel import _check_alpha, _jump_values
from fracdg.problems import ManufacturedProblem, PowerSum, _mode
from fracdg.stepper import DgSolution, _power_moments, _power_table


def power_mode_problem(lam, nu, alpha):
    """Single scalar mode u = t^nu with its closed-form forcing."""
    alpha = _check_alpha(alpha)
    if nu < 0.0:
        raise ValueError(f"exponent nu must be >= 0, got {nu}")
    if nu + alpha <= -1.0:
        raise ValueError(f"forcing exponent nu+alpha = {nu + alpha} is non-integrable")
    modes = (_mode(lam, PowerSum.of((1.0, float(nu))), alpha),)
    sigma = float(nu) if nu > 0.0 else math.inf
    return ManufacturedProblem(f"power_{nu:g}", alpha, sigma, 1.0, modes)


def pi_projection(profiles, mesh):
    """Interpolatory projection: right-endpoint match plus orthogonality
    of the residual to P_{p_n - 1} on each interval.  The moments come
    exactly from `kernel.power_rule`, as the loads of `solve` do."""
    table = _power_table(profiles)
    coeffs = []
    for n in range(1, mesh.interval_count + 1):
        a, b = mesh.interval(n)
        p = mesh.degree(n)
        width = b - a
        moments = _power_moments(table, len(profiles), a, b, p)
        block = np.empty((p + 1, len(profiles)))
        for m, u in enumerate(profiles):
            c = np.zeros(p + 1)
            ell = np.arange(p)
            c[:p] = moments[m, :p] * (2.0 * ell + 1.0) / width
            c[p] = u(b) - c[:p].sum()
            block[:, m] = c
        coeffs.append(block)
    initial = np.array([u.at_zero() for u in profiles])
    return DgSolution(mesh, initial, tuple(coeffs))


def semilog_fit(errors, dofs):
    """Least-squares line ln(error) = intercept - slope*sqrt(dofs).

    Returns (slope, intercept, r_squared); slope is the fitted decay
    coefficient b of error ~ C exp(-b sqrt(dofs)).
    """
    x = np.sqrt(np.asarray(dofs, dtype=float))
    y = np.log(np.asarray(errors, dtype=float))
    coeffs = np.polyfit(x, y, 1)
    residuals = y - np.polyval(coeffs, x)
    total = y - y.mean()
    r_squared = 1.0 - residuals @ residuals / (total @ total)
    return -coeffs[0], coeffs[1], float(r_squared)


def form_through(operator, coeffs_v, coeffs_w):
    """int_0^T (B v)(t) w(t) dt applied through `operator`, built for the
    degrees of v and w, in the order of summation `kernel.memory_form` uses."""
    jumps = _jump_values(coeffs_v)
    return sum(
        float(w_n @ operator.apply(n, coeffs_v[:n], jumps[:n]))
        for n, w_n in enumerate(coeffs_w, start=1)
    )
