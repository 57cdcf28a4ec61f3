"""Time stepper: local systems, marching, projection, stability bound."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fracdg.kernel as kernel_mod
import fracdg.stepper as stepper_mod
from fracdg.analysis import backend_mode_problems, error_measure, fem_mode_problems
from fracdg.kernel import l2_form, memory_form
from fracdg.mesh import TimeMesh, fine_grid, geometric_mesh, graded_mesh
from fracdg.problems import PowerSum, two_mode_problem
from fracdg.spatial import fem_backend, spectral_backend
from fracdg.stepper import (
    DgSolution,
    ModeProblem,
    mode_problems,
    solve,
    stability_report,
)
from support import block_and_jump_column, pi_projection, power_mode_problem


def test_local_system_transport_only():
    # lambda=0, p=1, f=1, u0=0: classical DG, exact solution t
    mesh = graded_mesh(1.0, 2, 1.0, 1)
    problem = ModeProblem(0.0, PowerSum.of((1.0, 0.0)), 0.0)
    sol = solve([problem], mesh, -0.5)
    # U(t) = c0 + c1 (2t/k - 1) = t on (0, 1/2), then on (1/2, 1)
    assert sol.coefficients[0][:, 0] == pytest.approx([0.25, 0.25])
    assert sol.coefficients[1][:, 0] == pytest.approx([0.75, 0.25])


def test_backward_euler_one_step():
    # p=0 collapses to the generalized backward Euler method; hand 1x1 solve:
    # (1 + lam k^{alpha+1}/Gamma(alpha+2)) c = u0
    mesh = TimeMesh(np.linspace(0.0, 0.1, 2), np.zeros(1, dtype=int))
    sol = solve([ModeProblem(1.0, None, 1.0)], mesh, -0.5)
    expected = 1.0 / (1.0 + 0.1**0.5 / math.gamma(1.5))
    assert sol.coefficients[0][0, 0] == pytest.approx(expected, rel=1e-14)
    assert expected == pytest.approx(0.7370148178886009, rel=1e-12)


def test_transport_exactness():
    # lambda=0 with polynomial data in the trial space is reproduced exactly
    mesh = TimeMesh([0.0, 0.3, 0.55, 1.0], [2, 3, 2])
    forcing = PowerSum.of((2.0, 1.0), (-1.0, 0.0))  # u = t^2 - t + 1/2
    sol = solve([ModeProblem(0.0, forcing, 0.5)], mesh, -0.5)
    ts = fine_grid(mesh, 7)
    exact = ts**2 - ts + 0.5
    assert np.max(np.abs(sol.evaluate(ts)[:, 0] - exact)) < 1e-12
    assert np.max(np.abs(sol.jumps())) < 1e-12


def test_zero_data_zero_solution():
    mesh = graded_mesh(1.0, 6, 2.0, 2)
    sol = solve([ModeProblem(5.0, None, 0.0)], mesh, -0.5)
    assert max(np.max(np.abs(b)) for b in sol.coefficients) == 0.0


def test_constant_solution_no_jumps():
    mesh = graded_mesh(2.0, 5, 1.0, 1)
    sol = solve([ModeProblem(0.0, None, 3.25)], mesh, -0.5)
    assert np.max(np.abs(sol.jumps())) < 1e-13
    assert sol.left_traces()[-1][0] == pytest.approx(3.25, rel=1e-14)


def test_evaluate_against_recurrence_oracle():
    # independent three-term-recurrence evaluation of the Legendre series
    def reference(coeff, a, b, t):
        x = (2.0 * t - (a + b)) / (b - a)
        values, prev, curr = [], 1.0, x
        for c in coeff:
            values.append(c)
        total = values[0] * 1.0
        if len(coeff) > 1:
            total += values[1] * x
        pk_minus, pk = 1.0, x
        for k in range(2, len(coeff)):
            pk_minus, pk = pk, ((2 * k - 1) * x * pk - (k - 1) * pk_minus) / k
            total += values[k] * pk
        return total

    rng = np.random.default_rng(5)
    mesh = TimeMesh([0.0, 0.4, 1.0], [3, 2])
    blocks = tuple(rng.standard_normal((mesh.degree(n) + 1, 1)) for n in (1, 2))
    sol = DgSolution(mesh, np.zeros(1), blocks)
    for t in rng.uniform(0.0, 1.0, 25):
        n = max(1, int(np.searchsorted(mesh.nodes, t)))
        a, b = mesh.interval(n)
        expected = reference(blocks[n - 1][:, 0], a, b, t)
        assert sol.evaluate(t)[0] == pytest.approx(expected, abs=1e-14)


def test_evaluate_is_right_closed():
    # a node belongs to the interval on its left: U(t_1) is interval 1's
    # left limit, not interval 2's right limit
    rng = np.random.default_rng(3)
    mesh = graded_mesh(T=1.0, N=4, gamma=1.0, p=1)
    sol = DgSolution(mesh, np.zeros(1), tuple(rng.standard_normal((2, 1)) for _ in range(4)))
    left, right = sol.left_traces()[:, 0], sol.right_traces()[:, 0]
    assert sol.evaluate(0.0)[0] == pytest.approx(right[0], abs=1e-14)
    assert sol.evaluate(0.25)[0] == pytest.approx(left[0], abs=1e-14)
    assert abs(left[0] - right[1]) > 1e-3
    assert sol.evaluate(1.0)[0] == pytest.approx(left[3], abs=1e-14)
    with pytest.raises(ValueError, match="outside"):
        sol.evaluate(1.1)


def test_traces_match_endpoint_evaluation():
    rng = np.random.default_rng(9)
    mesh = graded_mesh(1.0, 4, 1.0, 2)
    blocks = tuple(rng.standard_normal((3, 2)) for _ in range(4))
    sol = DgSolution(mesh, rng.standard_normal(2), blocks)
    left = sol.left_traces()
    right = sol.right_traces()
    for n in range(1, 5):
        a, b = mesh.interval(n)
        assert sol.evaluate(b) == pytest.approx(left[n - 1], abs=1e-13)
        eps = 1e-12 * mesh.horizon
        assert sol.evaluate(a + eps) == pytest.approx(right[n - 1], abs=1e-8)
    assert sol.jumps()[0] == pytest.approx(right[0] - sol.initial_values, abs=1e-13)


def test_evaluate_domain_error():
    mesh = graded_mesh(1.0, 2, 1.0, 1)
    sol = solve([ModeProblem(1.0, None, 1.0)], mesh, -0.5)
    with pytest.raises(ValueError, match="outside"):
        sol.evaluate(1.5)
    with pytest.raises(ValueError, match="outside"):
        sol.evaluate(-0.1)
    for t in (math.nan, [0.5, math.nan]):
        with pytest.raises(ValueError, match="outside"):
            sol.evaluate(t)


def test_solution_shape_validation():
    mesh = graded_mesh(1.0, 2, 1.0, 1)
    with pytest.raises(ValueError, match="degree"):
        DgSolution(mesh, np.zeros(1), (np.zeros((3, 1)), np.zeros((2, 1))))
    # two columns against one initial value: a block per mode is one column
    with pytest.raises(ValueError, match=r"coefficient block 1 has shape \(2, 2\)"):
        DgSolution(mesh, np.zeros(1), (np.ones((2, 2)), np.ones((2, 2))))
    with pytest.raises(ValueError, match=r"coefficient block 2 has shape \(2,\)"):
        DgSolution(mesh, np.zeros(2), (np.ones((2, 2)), np.ones(2)))


def test_mode_problem_validation():
    with pytest.raises(ValueError, match="eigenvalue"):
        ModeProblem(-1.0, None, 0.0)
    with pytest.raises(TypeError, match="PowerSum"):
        ModeProblem(1.0, lambda t: t, 0.0)
    assert ModeProblem(1.0, None, 0.0).forcing == PowerSum.of()


def test_pi_projection_reproduces_trial_space():
    mesh = TimeMesh([0.0, 0.5, 1.0], [1, 2])
    proj = pi_projection([PowerSum.of((1.0, 1.0))], mesh)
    ts = fine_grid(mesh, 5)
    assert np.max(np.abs(proj.evaluate(ts)[:, 0] - ts)) < 1e-13


def test_pi_projection_quadratic_explicit():
    # endpoint + mean conditions for u = t^2 on (0,1), p=1:
    # mean forces c0 = 1/3, endpoint forces c0 + c1 = 1, so Pi u = (4t-1)/3
    mesh = graded_mesh(1.0, 1, 1.0, 1)
    proj = pi_projection([PowerSum.of((1.0, 2.0))], mesh)
    c = proj.coefficients[0][:, 0]
    assert c == pytest.approx([1.0 / 3.0, 2.0 / 3.0], rel=1e-13)
    ts = np.array([0.0, 0.25, 1.0])
    assert proj.evaluate(ts)[:, 0] == pytest.approx((4.0 * ts - 1.0) / 3.0, rel=1e-12)


def test_pi_projection_defining_conditions():
    # right-endpoint interpolation and orthogonality to P_{p-1}
    mesh = graded_mesh(1.0, 4, 2.0, 3)
    u = PowerSum.of((1.0, 2.5), (-0.4, 1.0))
    proj = pi_projection([u], mesh)
    for n in range(1, 5):
        a, b = mesh.interval(n)
        assert proj.evaluate(b)[0] == pytest.approx(u(b), abs=1e-12)
    # residual moments against every lower-degree Legendre mode
    from fracdg.kernel import legendre_values, power_rule

    for n in range(1, 5):
        a, b = mesh.interval(n)
        p = mesh.degree(n)
        moments = np.zeros(p + 1)
        for coeff, exponent in u.terms:
            nodes, weights = power_rule(a, b, 0.0, exponent, p)
            moments += coeff * (weights @ legendre_values(nodes, a, b, p))
        c = proj.coefficients[n - 1][:, 0]
        ell = np.arange(p + 1)
        residual = moments - c * (b - a) / (2.0 * ell + 1.0)
        assert np.max(np.abs(residual[:p])) < 1e-12


def test_stability_bound_zero_forcing():
    # f = 0: energy bounded by 4 |U0|^2 for all n
    alpha = -0.5
    mesh = graded_mesh(1.0, 8, 2.0, 1)
    problem = ModeProblem(math.pi**2, None, 1.0)
    sol = solve([problem], mesh, alpha)
    report = stability_report(sol, [problem], alpha)
    assert report.ok
    assert np.all(report.rhs == pytest.approx(4.0))
    assert np.all(report.lhs <= 4.0 * (1.0 + 1e-8))


def test_stability_zero_data():
    mesh = graded_mesh(1.0, 3, 1.0, 1)
    problem = ModeProblem(2.0, None, 0.0)
    report = stability_report(solve([problem], mesh, -0.5), [problem], -0.5)
    assert np.all(report.lhs == 0.0)
    assert np.all(report.rhs == 0.0)
    assert report.ok


def test_stability_manufactured_problem():
    alpha = -0.7
    problem = two_mode_problem(alpha)
    mesh = graded_mesh(1.0, 18, 2.0 / (alpha + 2.0), 1)
    modes = mode_problems(problem)
    sol = solve(modes, mesh, alpha)
    report = stability_report(sol, modes, alpha)
    assert report.ok
    assert report.lhs.shape == (18,)
    assert np.all(np.diff(report.rhs) >= -1e-12)


def test_stability_requires_positive_eigenvalue_with_forcing():
    mesh = graded_mesh(1.0, 2, 1.0, 1)
    problem = ModeProblem(0.0, PowerSum.of((1.0, 0.0)), 0.0)
    sol = solve([problem], mesh, -0.5)
    with pytest.raises(ValueError, match="positive"):
        stability_report(sol, [problem], -0.5)


def test_power_mode_convergence_rate():
    # sigma = nu with optimal grading: rate min(gamma sigma, p+1) = 2
    alpha = -0.5
    problem = power_mode_problem(4.0 * math.pi**2, alpha + 2.0, alpha)
    errors = []
    for N in (12, 24):
        mesh = graded_mesh(1.0, N, 2.0 / (alpha + 2.0), 1)
        sol = solve(mode_problems(problem), mesh, alpha)
        ts = fine_grid(mesh, 6)[1:]
        exact = problem.exact_coefficients(ts)[:, 0]
        errors.append(np.max(np.abs(sol.evaluate(ts)[:, 0] - exact)))
    rate = math.log(errors[0] / errors[1]) / math.log(2.0)
    assert 1.7 < rate < 2.3


def test_two_mode_accuracy_matches_known_cell():
    # p=1, gamma=1, N=18, alpha=-0.7: max nodal-grid error near 8.3e-4
    alpha = -0.7
    problem = two_mode_problem(alpha)
    mesh = graded_mesh(1.0, 18, 1.0, 1)
    sol = solve(mode_problems(problem), mesh, alpha)
    ts = fine_grid(mesh, 10)[1:]
    diff = sol.evaluate(ts) - problem.exact_coefficients(ts)
    err = np.max(np.sqrt(np.sum(diff**2, axis=1)))
    assert 4e-4 < err < 1.7e-3


def test_determinism():
    alpha = -0.6
    problem = two_mode_problem(alpha)
    mesh = graded_mesh(1.0, 9, 2.0, 2)
    first = solve(mode_problems(problem), mesh, alpha)
    second = solve(mode_problems(problem), mesh, alpha)
    for a, b in zip(first.coefficients, second.coefficients):
        assert np.array_equal(a, b)


def test_non_finite_load_names_interval_and_mode(monkeypatch):
    # the moment of t^0, which only mode 2 carries, turns nan past t = 0.5,
    # inside interval 3 of 4; mode 1 shares t^0.5 with it and stays finite.
    # Intervals 2 to 4 take the grouped Gauss-Legendre loads, whose weights
    # for each exponent come from `kernel._left_weights`
    real_weights = kernel_mod._left_weights

    def left_weights(x, w, z, beta):
        weights = real_weights(x, w, z, beta)
        if beta == 0.0 and x.max() > 0.5:
            weights = np.full_like(weights, np.nan)
        return weights

    monkeypatch.setattr(kernel_mod, "_left_weights", left_weights)
    mesh = graded_mesh(1.0, 4, 1.0, 1)
    problems = [
        ModeProblem(1.0, PowerSum.of((1.0, 0.5)), 1.0),
        ModeProblem(2.0, PowerSum.of((1.0, 0.0), (-2.0, 0.5)), 0.0),
    ]
    with pytest.raises(RuntimeError, match="non-finite coefficients on interval 3, mode 2"):
        solve(problems, mesh, -0.5)


def per_mode_solve(problems, mesh, operator):
    """Coefficients of the march with one load per mode, summed term by term."""
    lam = np.array([pr.eigenvalue for pr in problems])
    incoming = np.array([pr.initial_value for pr in problems], dtype=float)
    coeffs, jump_vals = [], np.empty((mesh.interval_count, len(problems)))
    for n in range(1, mesh.interval_count + 1):
        p = mesh.degree(n)
        a, b = mesh.interval(n)
        lo = operator.offsets[n - 1]
        parity = kernel_mod._parity(p)
        history = operator.apply(n, np.concatenate([np.empty((0, len(problems))), *coeffs]), jump_vals[: n - 1])
        local_jump = operator.jump_columns[n - 1][n - 1]
        base = np.outer(parity, parity) + stepper_mod._transport_matrix(p)
        memory = operator.matrices[n - 1][:, lo : lo + p + 1] + np.outer(local_jump, parity)
        rhs = np.empty((len(problems), p + 1))
        for m, pr in enumerate(problems):
            load = np.zeros(p + 1)
            for coeff, exponent in pr.forcing.terms:
                nodes, weights = kernel_mod.power_rule(a, b, 0.0, exponent, p)
                load += coeff * (weights @ kernel_mod.legendre_values(nodes, a, b, p))
            rhs[m] = incoming[m] * parity + load - lam[m] * history[:, m]
            if n >= 2:
                rhs[m] += lam[m] * local_jump * incoming[m]
        block = stepper_mod._solve_modes(base + lam[:, None, None] * memory, rhs, n)
        coeffs.append(block)
        right_limit = parity @ block
        jump_vals[n - 1] = right_limit if n == 1 else right_limit - incoming
        incoming = block.sum(axis=0)
    return coeffs


def assert_solve_matches_per_mode_loads(problems, mesh, alpha):
    solution = solve(problems, mesh, alpha)
    reference = per_mode_solve(problems, mesh, solution.memory_operator)
    assert len(reference) == len(solution.coefficients)
    for got, want in zip(solution.coefficients, reference):
        assert np.array_equal(got, want)


# a profile's exponents; its fractional derivative adds alpha to each
PROFILE_EXPONENTS = (0.0, 0.5, 1.0, 1.5, 2.0, 3.0)


@st.composite
def mode_sets(draw, alpha):
    modes = []
    for _ in range(draw(st.integers(1, 6))):
        exponents = draw(st.lists(st.sampled_from(PROFILE_EXPONENTS), max_size=3, unique=True))
        profile = PowerSum.of(*((draw(st.floats(-3.0, 3.0)), e) for e in exponents))
        forcing = draw(st.sampled_from([None, profile, profile.frac_derivative(alpha)]))
        if forcing is not None and draw(st.booleans()):
            forcing = forcing + profile.derivative()
        modes.append(ModeProblem(draw(st.floats(0.0, 50.0)), forcing, draw(st.floats(-2.0, 2.0))))
    return modes


@settings(max_examples=40, deadline=None, derandomize=True)
@given(data=st.data(), alpha=st.floats(-0.95, -0.05), graded=st.booleans())
def test_solve_loads_equal_per_mode_loads_bitwise(data, alpha, graded):
    # modes without forcing and exponents that only some modes carry
    if graded:
        mesh = graded_mesh(1.0, data.draw(st.integers(1, 12)), data.draw(st.floats(1.0, 3.0)), 2)
    else:
        mesh = geometric_mesh(1.0, 1.0, data.draw(st.floats(0.1, 0.5)), data.draw(st.integers(1, 6)), 1.0)
    assert_solve_matches_per_mode_loads(data.draw(mode_sets(alpha)), mesh, alpha)


def test_fem_mode_loads_equal_per_mode_loads_bitwise():
    # 127 mode forcings sharing the problem's three exponents
    problem = two_mode_problem(-0.7)
    _, system = fem_backend(64, 2, problem.diffusivity)
    problems = fem_mode_problems(problem, system)
    assert len(problems) == 127
    assert len({e for pr in problems for _, e in pr.forcing.terms}) == 3
    assert_solve_matches_per_mode_loads(problems, graded_mesh(1.0, 12, 1.6, 2), -0.7)


def per_mode_forcing_increments(problems, mesh, alpha):
    """The forcing side of the stability bound with each mode's f and g
    evaluated on their own (`PowerSum.__call__`) and summed in mode order."""
    out = np.zeros(mesh.interval_count)
    triples = []
    for pr in problems:
        f = pr.forcing
        if not f.terms:
            continue
        if pr.eigenvalue == 0.0:
            raise ValueError("stability bound requires positive eigenvalues with forcing")
        triples.append((f, f.frac_integral(alpha), pr.eigenvalue))
    if not triples:
        return out
    exponent = min(f.min_exponent + g.min_exponent for f, g, _ in triples)
    for n in range(1, mesh.interval_count + 1):
        a, b = mesh.interval(n)
        if n == 1:
            nodes, weights = kernel_mod._jacobi_rule(16, exponent, a, b, at_a=True)
        else:
            nodes, weights = kernel_mod._gauss_legendre(12, a, b)
        total = np.zeros(nodes.size)
        # a subnormal eigenvalue overflows f g / lambda; the callers check for it
        with np.errstate(over="ignore"):
            for f, g, lam_m in triples:
                total += f(nodes) * g(nodes) / lam_m
            out[n - 1] = float(weights @ (np.abs(total) / (nodes**exponent if n == 1 else 1.0)))
    return out


def assert_report_matches_per_mode_forcing(problems, mesh, alpha):
    solution = solve(problems, mesh, alpha)
    if any(pr.forcing.terms and pr.eigenvalue == 0.0 for pr in problems):
        with pytest.raises(ValueError, match="positive"):
            stability_report(solution, problems, alpha)
        return
    increments = per_mode_forcing_increments(problems, mesh, alpha)
    if not np.all(np.isfinite(increments)):
        # a subnormal eigenvalue overflows f g / lambda: the bound must not
        # come out infinite and satisfied
        first = int(np.argmax(~np.isfinite(increments))) + 1
        with pytest.raises(RuntimeError, match=f"non-finite stability forcing on interval {first}, mode"):
            stability_report(solution, problems, alpha)
        return
    report = stability_report(solution, problems, alpha)
    _, d_alpha = kernel_mod.coercivity_constants(alpha)
    rhs = 4.0 * float(np.sum(solution.initial_values**2)) + 4.0 * d_alpha**2 * np.cumsum(increments)
    assert np.array_equal(report.rhs, rhs)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(data=st.data(), alpha=st.floats(-0.95, -0.05), graded=st.booleans())
def test_stability_forcing_equals_per_mode_forcing_bitwise(data, alpha, graded):
    # modes without forcing and exponents that only some modes carry
    if graded:
        mesh = graded_mesh(1.0, data.draw(st.integers(1, 12)), data.draw(st.floats(1.0, 3.0)), 2)
    else:
        mesh = geometric_mesh(1.0, 1.0, data.draw(st.floats(0.1, 0.5)), data.draw(st.integers(1, 6)), 1.0)
    assert_report_matches_per_mode_forcing(data.draw(mode_sets(alpha)), mesh, alpha)


def test_comparable_mode_forcings_equal_per_mode_forcing_bitwise():
    # eight forced modes of like size, where the order of the mode sum
    # shows in the last bits
    rng = np.random.default_rng(12)
    problems = [
        ModeProblem(
            rng.uniform(0.5, 5.0),
            PowerSum.of(*((rng.uniform(0.5, 2.0), e) for e in rng.choice(PROFILE_EXPONENTS, 2, replace=False))),
            rng.uniform(-1.0, 1.0),
        )
        for _ in range(8)
    ]
    assert_report_matches_per_mode_forcing(problems, graded_mesh(1.0, 10, 2.0, 2), -0.4)


def test_fem_mode_forcing_equals_per_mode_forcing_bitwise():
    # the 127 FEM modes' forcings and their fractional integrals
    problem = two_mode_problem(-0.7)
    _, system = fem_backend(64, 2, problem.diffusivity)
    problems = fem_mode_problems(problem, system)
    assert_report_matches_per_mode_forcing(problems, graded_mesh(1.0, 12, 1.6, 2), -0.7)


def test_subnormal_eigenvalue_stability_forcing_names_interval_and_mode():
    # f g / lambda overflows for the second mode; the bound used to come out
    # as rhs = inf with no violation reported
    problems = [ModeProblem(1.0, PowerSum.of((1.0, 0.0)), 0.2), ModeProblem(1e-310, PowerSum.of((1.0, 0.0)), 0.5)]
    solution = solve(problems, graded_mesh(1.0, 4, 2.0, 2), -0.5)
    # the named error is the only report: no overflow warning comes first
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(RuntimeError, match="non-finite stability forcing on interval 1, mode 2"):
            stability_report(solution, problems, -0.5)
    assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []


def test_singular_local_system_names_the_first_singular_mode(monkeypatch):
    # at p = 0 the local system is 1 + lambda (D + J); with D + J = -1 it is
    # singular exactly for the modes with lambda = 1
    def block(mesh, j, n, order, **kwargs):
        return np.full((1, 1), -0.5)

    def jump_columns(nodes, alpha, target_degrees):
        return [np.full((n, 1), -0.5) for n in range(1, len(target_degrees) + 1)]

    monkeypatch.setattr(kernel_mod, "memory_block", block)
    monkeypatch.setattr(kernel_mod, "_jump_columns", jump_columns)
    problems = [ModeProblem(lam, None, 1.0) for lam in (0.5, 1.0, 1.0)]
    with pytest.raises(RuntimeError, match="singular local system on interval 1, mode 2"):
        solve(problems, TimeMesh(np.linspace(0.0, 1.0, 4), np.zeros(3, dtype=int)), -0.5)


def test_history_cost_scaling(monkeypatch):
    # O(N^2) history: each (j, n) block is built once, shared across modes;
    # the memory operator builds every block through kernel.memory_block
    real_block = kernel_mod.memory_block
    calls = []

    def counting_block(mesh, j, n, order, **kwargs):
        calls.append((j, n))
        return real_block(mesh, j, n, order, **kwargs)

    monkeypatch.setattr(kernel_mod, "memory_block", counting_block)
    for N in (20, 40):
        calls.clear()
        mesh = graded_mesh(1.0, N, 1.0, 1)
        solve([ModeProblem(1.0, None, 1.0), ModeProblem(4.0, None, 2.0)], mesh, -0.5)
        assert len(calls) == N * (N + 1) // 2
        assert len(set(calls)) == len(calls)


def test_stability_report_reuses_the_blocks_of_solve(monkeypatch):
    # solve keeps the operator it builds; the report applies it unchanged,
    # and a bare solution shares it while the marched one lives
    real_block = kernel_mod.memory_block
    calls = []

    def counting_block(mesh, j, n, order, **kwargs):
        calls.append((j, n))
        return real_block(mesh, j, n, order, **kwargs)

    monkeypatch.setattr(kernel_mod, "memory_block", counting_block)
    # mixed degrees, so the stacked blocks carry zero padding
    mesh = TimeMesh([0.0, 0.05, 0.2, 0.5, 1.0], [1, 3, 2, 1])
    problems = [
        ModeProblem(3.0, PowerSum.of((1.0, 0.0), (-0.5, 1.0)), 1.0),
        ModeProblem(12.0, None, -0.4),
    ]
    alpha = -0.6
    solution = solve(problems, mesh, alpha)
    calls.clear()
    report = stability_report(solution, problems, alpha)
    assert calls == []

    bare = DgSolution(mesh, solution.initial_values, solution.coefficients)
    shared = stability_report(bare, problems, alpha)
    assert calls == []
    assert np.array_equal(report.lhs, shared.lhs)
    assert np.array_equal(report.rhs, shared.rhs)

    # nothing retains the operator once the solution is dropped
    del solution
    rebuilt = stability_report(bare, problems, alpha)
    assert len(calls) == 10
    assert np.array_equal(report.lhs, rebuilt.lhs)
    assert np.array_equal(report.rhs, rebuilt.rhs)

    solution = solve(problems, mesh, alpha)
    calls.clear()
    other = stability_report(solution, problems, -0.3)
    assert sorted(calls) == sorted((j, n) for n in range(1, 5) for j in range(1, n + 1))
    assert not np.array_equal(other.lhs, report.lhs)


def test_stability_report_needs_one_problem_per_mode():
    # one problem per mode: any other count is named before any work
    mesh = graded_mesh(1.0, 3, 1.0, 1)
    problems = [ModeProblem(1.0, None, 1.0), ModeProblem(4.0, None, 2.0)]
    solution = solve(problems, mesh, -0.5)
    for count in (1, 3):
        given = (problems * 2)[:count]
        with pytest.raises(ValueError, match=f"{count} problems for a solution of 2 modes"):
            stability_report(solution, given, -0.5)


def test_report_memory_energy_is_the_sum_of_the_modes_memory_forms():
    # int_0^{t_N} A(B U, U) dt = sum_m lambda_m Q(U_m, U_m): the report and
    # memory_form apply the same operator
    mesh = TimeMesh([0.0, 0.05, 0.2, 0.5, 0.7, 1.0], [1, 3, 2, 1, 4])
    problems = [
        ModeProblem(3.0, PowerSum.of((1.0, 0.0), (-0.5, 1.0)), 1.0),
        ModeProblem(12.0, None, -0.4),
        ModeProblem(40.0, PowerSum.of((2.0, 0.3)), 0.2),
    ]
    alpha = -0.6
    solution = solve(problems, mesh, alpha)
    report = stability_report(solution, problems, alpha)
    left = solution.left_traces()[-1]
    right = solution.right_traces()[-1]
    energy = 0.5 * (report.lhs[-1] - left @ left - right @ right)
    expected = 0.0
    for m, pr in enumerate(problems):
        u_m = [block[:, m] for block in solution.coefficients]
        expected += pr.eigenvalue * memory_form(mesh, alpha, u_m, u_m)
    assert energy > 0.1 * report.lhs[-1]
    assert energy == pytest.approx(expected, rel=1e-12)


def test_memory_form_with_other_degrees_matches_a_per_block_loop():
    # as in acceptance gate 6, v and w carry degrees other than the mesh's
    rng = np.random.default_rng(17)
    alpha = -0.35
    mesh = geometric_mesh(1.0, 1.0, 0.3, 3, 1.0)
    assert list(mesh.degrees) == [1, 2, 3, 4]
    v = [rng.standard_normal(k) for k in (3, 1, 4, 2)]
    w = [rng.standard_normal(k) for k in (2, 4, 1, 5)]
    total = 0.0
    for n in range(1, 5):
        for j in range(1, n + 1):
            c = v[j - 1]
            # v(0+) for the first source, the jump [v]^{j-1} after it
            jump = c @ (-1.0) ** np.arange(len(c))
            if j > 1:
                jump -= v[j - 2].sum()
            degrees = (len(c) - 1, len(w[n - 1]) - 1)
            matrix, jump_column = block_and_jump_column(mesh, j, n, alpha, degrees=degrees)
            total += w[n - 1] @ (matrix @ c + jump_column * jump)
    assert memory_form(mesh, alpha, v, w) == pytest.approx(total, rel=1e-13)


@pytest.mark.parametrize(
    "alpha,build_mesh,fem",
    [
        # order next to -1
        (-0.999, lambda: graded_mesh(1.0, 20, 2.0, 2), False),
        # first step 1.5e-13; one jump column and three loads take the
        # difference branch of the left rule
        (-0.7, lambda: graded_mesh(1.0, 40, 8.0, 2), False),
        # first step 1e-20
        (-0.7, lambda: geometric_mesh(1.0, 1.0, 0.1, 20, 1.0), False),
        # 55 of the 66 jump columns and 30 of the 33 loads take it
        (-0.7, lambda: geometric_mesh(1.0, 1.0, 0.005, 10, 0.5), False),
        # stiff FEM modes, lambda_max = 2.72e7
        (-0.7, lambda: graded_mesh(1.0, 12, 1.6, 2), True),
        # order next to 0
        (-1e-12, lambda: graded_mesh(1.0, 20, 2.0, 2), False),
    ],
    ids=["alpha-0.999", "graded-gamma8", "geometric-L20", "geometric-mu0.5", "fem-stiff", "alpha-1e-12"],
)
def test_adversarial_inputs_give_finite_accurate_stable_output(alpha, build_mesh, fem):
    problem = two_mode_problem(alpha)
    system = fem_backend(400, 3)[1] if fem else spectral_backend(problem.mode_count)
    problems = backend_mode_problems(problem, system)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        solution = solve(problems, build_mesh(), alpha)
        error = error_measure(solution, problem, system, 5)
        report = stability_report(solution, problems, alpha)
    assert all(np.isfinite(block).all() for block in solution.coefficients)
    assert np.isfinite(report.lhs).all() and np.isfinite(report.rhs).all()
    assert error < 1e-3
    assert report.ok
