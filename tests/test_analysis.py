"""Convergence harness: error measure, observed orders, study drivers."""

import json
import math

import numpy as np
import pytest

from fracdg.analysis import (
    CSV_COLUMNS,
    backend_mode_problems,
    eoc,
    error_measure,
    exp_coefficient,
    delta_sweep,
    fem_mode_problems,
    figure_curves_hp,
    figure_curves_sweep,
    run_h_study,
    run_hp_study,
    write_plot_data,
)
from fracdg.kernel import _gauss_legendre, legendre_derivative_values
from fracdg.mesh import graded_mesh
from fracdg.problems import two_mode_problem
from fracdg.spatial import fem_backend, spectral_backend
from fracdg.stepper import DgSolution, mode_problems, solve
from support import pi_projection, power_mode_problem, semilog_fit


def projection_gamma(p, q):
    """Factorial ratio Gamma(p-q+1)/Gamma(p+q+1) from the projection bound."""
    if not 0 <= q <= p:
        raise ValueError(f"need 0 <= q <= p, got q={q}, p={p}")
    return math.gamma(p - q + 1) / math.gamma(p + q + 1)


@pytest.fixture(scope="module")
def h_study_p1():
    return run_h_study(-0.7, [1.6], [1], [18, 27, 36, 72])


@pytest.fixture(scope="module")
def h_study_p2():
    return run_h_study(-0.7, [2.3], [2], [18, 27, 36, 72])


@pytest.fixture(scope="module")
def hp_study():
    return run_hp_study(-0.7, [0.24], [3, 4, 5, 6, 7])


def test_eoc_table_values():
    assert eoc([8.32e-4, 4.80e-4], [18, 27])[1] == pytest.approx(1.357, abs=5e-4)
    assert eoc([1.18e-5, 4.87e-6], [18, 27])[1] == pytest.approx(2.18, abs=5e-3)


def test_eoc_exact_halving():
    rates = eoc([1.0, 0.25, 0.0625], [10, 20, 40])
    assert math.isnan(rates[0])
    assert rates[1:] == pytest.approx([2.0, 2.0])


def test_eoc_degenerate_errors_marked():
    rates = eoc([1.0, 0.0, 1e-3], [10, 20, 40])
    assert math.isnan(rates[1]) and math.isnan(rates[2])
    # a repeated refinement level has no spacing to divide by
    rates = eoc([1.0, 0.5, 0.25], [10, 10, 20])
    assert math.isnan(rates[1]) and rates[2] == pytest.approx(1.0, rel=1e-12)
    assert math.isnan(exp_coefficient([2.66e-4, 4.20e-5], [14, 14])[1])


def test_exp_coefficient_table_values():
    assert exp_coefficient([2.66e-4, 4.20e-5], [14, 20])[1] == pytest.approx(2.53, abs=5e-3)
    assert exp_coefficient([1.06e-6, 2.49e-7], [35, 44])[1] == pytest.approx(2.02, abs=5e-3)


def test_exp_coefficient_equal_errors():
    assert exp_coefficient([1e-5, 1e-5], [14, 20])[1] == 0.0


def test_semilog_fit_recovers_exact_line():
    dofs = np.array([14, 20, 27, 35, 44])
    errors = 3.0 * np.exp(-2.5 * np.sqrt(dofs))
    slope, intercept, r2 = semilog_fit(errors, dofs)
    assert slope == pytest.approx(2.5, rel=1e-12)
    assert intercept == pytest.approx(math.log(3.0), rel=1e-12)
    assert r2 == pytest.approx(1.0, abs=1e-12)


def test_projection_gamma_values():
    assert projection_gamma(3, 3) == pytest.approx(1.0 / math.factorial(6), rel=1e-14)
    assert projection_gamma(2, 0) == pytest.approx(1.0, rel=1e-14)
    with pytest.raises(ValueError, match="0 <= q <= p"):
        projection_gamma(2, 3)


def test_error_measure_exact_in_trial_space():
    # a polynomial exact solution projected with generous degree leaves no error
    problem = power_mode_problem(math.pi**2, 2.0, -0.7)
    mesh = graded_mesh(1.0, 6, 1.0, 8)
    sol = pi_projection([m.profile for m in problem.modes], mesh)
    system = spectral_backend(1)
    assert error_measure(sol, problem, system, 10) < 1e-10


def test_error_measure_table_cell(h_study_p1):
    # alpha=-0.7, gamma=1.6, p=1, N=18 is printed as 1.93e-04
    assert h_study_p1.rows[0].error == pytest.approx(1.93e-4, rel=1.0)
    assert 0.5 < h_study_p1.rows[0].error / 1.93e-4 < 2.0


def test_error_measure_routes_agree():
    # mode-orthonormality shortcut against the quadrature route
    rng = np.random.default_rng(7)
    problem = two_mode_problem(-0.5)
    system = spectral_backend(2)
    mesh = graded_mesh(1.0, 5, 1.4, 2)
    for _ in range(5):
        coeffs = tuple(rng.standard_normal((mesh.degree(n) + 1, 2)) for n in (1, 2, 3, 4, 5))
        sol = DgSolution(mesh, rng.standard_normal(2), coeffs)
        e1 = error_measure(sol, problem, system, 10, method="coefficient")
        e2 = error_measure(sol, problem, system, 10, method="quadrature")
        assert abs(e1 - e2) <= 1e-10 * max(1.0, e1)


def test_error_measure_rejects_coefficient_route_for_fem():
    problem = two_mode_problem(-0.5)
    _, system = fem_backend(4, 1)
    mesh = graded_mesh(1.0, 3, 1.0, 1)
    sol = solve(fem_mode_problems(problem, system), mesh, -0.5)
    with pytest.raises(ValueError, match="spectral"):
        error_measure(sol, problem, system, 5, method="coefficient")


def test_h_study_rates_p1(h_study_p1):
    rates = [r.rate_or_b for r in h_study_p1.rows[1:]]
    assert rates == pytest.approx([2.08, 2.05, 2.03], abs=0.1)


def test_h_study_rates_p2(h_study_p2):
    rates = [r.rate_or_b for r in h_study_p2.rows[1:]]
    assert rates == pytest.approx([3.12, 3.08, 2.89], abs=0.15)


def test_h_study_optimal_regime_rate(h_study_p1):
    # gamma=1.6 >= (p+1)/(alpha+2)=1.538, so the order saturates at p+1
    assert h_study_p1.rows[-1].rate_or_b == pytest.approx(2.0, abs=0.1)


def test_h_study_monotone_improvement(h_study_p1, h_study_p2):
    for report in (h_study_p1, h_study_p2):
        errors = [r.error for r in report.rows]
        assert all(b <= a for a, b in zip(errors, errors[1:]))


def test_h_study_row_fields(h_study_p1):
    row = h_study_p1.rows[0]
    assert row.family == "graded"
    assert row.backend == "spectral"
    assert (row.gamma_or_delta, row.p_or_mu, row.N_or_L) == (1.6, 1, 18)
    assert row.dofs == 36
    assert math.isnan(row.rate_or_b)
    assert h_study_p1.failures == ()


def test_h_study_collects_cell_failures():
    report = run_h_study(-0.7, [1.0], [1], [4, 0, 8])
    assert len(report.rows) == 2
    assert [r.N_or_L for r in report.rows] == [4, 8]
    assert len(report.failures) == 1
    assert report.failures[0][0] == (1, 1.0, 0)
    # the rate still chains across the surviving cells
    assert math.isfinite(report.rows[1].rate_or_b)


def test_hp_study_matches_table(hp_study):
    errors = [r.error for r in hp_study.rows]
    printed = [2.66e-4, 4.20e-5, 6.65e-6, 1.06e-6, 2.49e-7]
    for ours, theirs in zip(errors[:4], printed[:4]):
        assert 0.5 < ours / theirs < 2.0
    assert errors[4] <= 5e-7
    bs = [r.rate_or_b for r in hp_study.rows[1:4]]
    assert all(2.3 <= b <= 2.7 for b in bs)


def test_hp_study_semilog_linearity(hp_study):
    errors = [r.error for r in hp_study.rows]
    dofs = [r.dofs for r in hp_study.rows]
    _, _, r2 = semilog_fit(errors, dofs)
    assert r2 >= 0.97
    assert dofs == [14, 20, 27, 35, 44]


def test_delta_sweep_best_region():
    deltas = [0.15, 0.18, 0.21, 0.24, 0.27, 0.30, 0.33, 0.36]
    report = delta_sweep([-0.5], deltas, L=7)
    errors = [r.error for r in report.rows]
    best = deltas[int(np.argmin(errors))]
    assert 0.18 <= best <= 0.33
    assert all(math.isnan(r.rate_or_b) for r in report.rows)
    assert all(r.N_or_L == 7 and r.dofs == 44 for r in report.rows)


def test_fem_backend_agrees_with_spectral():
    # same Table-1 cell through the discrete eigensystem, within 5 percent
    fem = run_h_study(-0.7, [1.6], [1], [18], system=fem_backend(64, 2)[1])
    spectral = run_h_study(-0.7, [1.6], [1], [18])
    assert fem.rows[0].error == pytest.approx(spectral.rows[0].error, rel=0.05)
    assert fem.rows[0].backend == "fem"


def test_study_solves_the_problem_of_its_system():
    # the diffusivity comes from the system: a K = 2 FEM system marches the
    # K = 2 problem, exactly as a direct solve of that problem does
    system = fem_backend(16, 2, 2.0)[1]
    report = run_h_study(-0.7, [1.6], [1], [18], system=system)
    problem = two_mode_problem(-0.7, 2.0)
    solution = solve(fem_mode_problems(problem, system), graded_mesh(1.0, 18, 1.6, 1), -0.7)
    assert report.rows[0].error == error_measure(solution, problem, system, 10)
    assert f"{report.rows[0].error:.6e}" == "2.751259e-04"


def test_study_rejects_a_spectral_system_of_another_mode_count():
    # a spectral system is the problem's own eigensystem; five modes for the
    # two-mode problem is an error, not a solve of the problem's two modes
    message = "spectral system has 5 modes and diffusivity 1.0, the problem 2 and 1.0"
    with pytest.raises(ValueError, match=message):
        run_h_study(-0.7, [1.6], [1], [18], system=spectral_backend(5))


def test_spectral_system_of_another_diffusivity_is_rejected():
    with pytest.raises(ValueError, match=r"2 modes and diffusivity 3\.0, the problem 2 and 1\.0"):
        backend_mode_problems(two_mode_problem(-0.7, 1.0), spectral_backend(2, 3.0))


def test_fem_mode_problems_match_continuous_modes():
    # discrete eigenpairs converge to the sine modes, so the paired forcing
    # and initial data approach the continuous mode data
    problem = two_mode_problem(-0.5)
    _, system = fem_backend(64, 2)
    discrete = fem_mode_problems(problem, system)
    continuous = mode_problems(problem)
    for m in range(2):
        assert discrete[m].eigenvalue == pytest.approx(continuous[m].eigenvalue, rel=1e-4)
        ts = np.linspace(0.1, 1.0, 7)
        got = discrete[m].forcing(ts)
        want = continuous[m].forcing(ts)
        sign = math.copysign(1.0, float(np.dot(got, want)))  # eigenvectors fix no sign
        assert sign * got == pytest.approx(want, rel=1e-4, abs=1e-8)
        assert sign * discrete[m].initial_value == pytest.approx(
            continuous[m].initial_value, abs=1e-8
        )


def test_projection_bound_constant_stable():
    # interior-interval projection error against p^2 (k/2)^{2q} Gamma_{p,q}
    # times the regularity integral; the fitted ratio stays put under refinement
    problem = two_mode_problem(-0.7)
    lams = np.array([m.eigenvalue for m in problem.modes])
    profiles = [m.profile for m in problem.modes]
    p = q = 2

    def fitted_constant(N):
        mesh = graded_mesh(1.0, N, 1.0, p)
        sol = pi_projection(profiles, mesh)
        dprofiles = [u.derivative() for u in profiles]
        high = profiles
        for _ in range(q + 1):
            high = [u.derivative() for u in high]
        lhs_total = rhs_total = 0.0
        for n in range(2, mesh.interval_count + 1):
            a, b = mesh.interval(n)
            nodes, weights = _gauss_legendre(p + 10, a, b)
            dvals = legendre_derivative_values(nodes, a, b, p, 1)
            block = sol.coefficients[n - 1]
            lhs = rhs = 0.0
            for m in range(2):
                residual = dvals @ block[:, m] - dprofiles[m](nodes)
                lhs += lams[m] * (weights @ residual**2)
                rhs += lams[m] * (weights @ high[m](nodes) ** 2)
            lhs_total += lhs
            rhs_total += p * p * ((b - a) / 2.0) ** (2 * q) * projection_gamma(p, q) * rhs
        return lhs_total / rhs_total

    constants = [fitted_constant(N) for N in (8, 16, 32)]
    mean = sum(constants) / len(constants)
    assert max(constants) <= 1.5 * mean
    assert min(constants) >= 0.5 * mean


def test_csv_schema(h_study_p1):
    text = h_study_p1.to_csv(True, "0123456789ab")
    lines = text.strip().split("\n")
    assert lines[0] == ",".join(CSV_COLUMNS) + ",config_hash"
    assert len(lines) == 1 + len(h_study_p1.rows)
    first = lines[1].split(",")
    assert first[:7] == ["graded", "-0.7", "spectral", "1.6", "1", "18", "36"]
    assert first[8] == ""  # no rate on the first row of a column
    assert all(line.endswith(",0123456789ab") for line in lines[1:])


def test_csv_deterministic_without_timings():
    a = run_h_study(-0.5, [1.0], [1], [4, 6]).to_csv(False, "0123456789ab")
    b = run_h_study(-0.5, [1.0], [1], [4, 6]).to_csv(False, "0123456789ab")
    assert a == b
    assert all(line.endswith(",0.000,0123456789ab") for line in a.strip().splitlines()[1:])


def test_plot_data_roundtrip(tmp_path, hp_study):
    curves = figure_curves_hp(hp_study)
    manifest_path = write_plot_data(tmp_path / "fig", curves, "sqrt(dofs)", "error")
    manifest = json.loads(manifest_path.read_text())
    assert manifest["xlabel"] == "sqrt(dofs)"
    assert [c["name"] for c in manifest["curves"]] == ["delta=0.24"]
    data = np.loadtxt(manifest_path.parent / manifest["curves"][0]["file"])
    assert data[:, 0] == pytest.approx(np.sqrt([r.dofs for r in hp_study.rows]))
    assert data[:, 1] == pytest.approx([r.error for r in hp_study.rows])
    again = write_plot_data(tmp_path / "fig2", curves, "sqrt(dofs)", "error")
    assert again.read_text() == manifest_path.read_text()


def test_figure_curves_sweep_groups_by_alpha():
    report = delta_sweep([-0.3, -0.5], [0.2, 0.3], L=3)
    curves = figure_curves_sweep(report)
    assert [name for name, _, _ in curves] == ["alpha=-0.3", "alpha=-0.5"]
    for _, x, y in curves:
        assert x == [0.2, 0.3] and len(y) == 2
