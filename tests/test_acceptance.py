"""Release acceptance checks, one test per criterion.

Each test prints a single summary line

    acceptance <n> <name>: PASS|FAIL (<details>)

before asserting, so the verdicts survive in captured output either way.
Reference errors, rates, and exponential coefficients are the pinned
two-mode benchmark values (alpha = -0.7); randomized criteria use fixed
seeds so reruns are bit-identical.
"""

import math
import time

import numpy as np
import pytest

import oracles
from fracdg.analysis import (
    delta_sweep,
    run_h_study,
    run_hp_study,
)
from fracdg.cli import main as cli_main
from fracdg.kernel import (
    coercivity_constants,
    l2_form,
    memory_form,
)
from fracdg.mesh import fine_grid, geometric_mesh, graded_mesh
from fracdg.problems import PowerSum, two_mode_problem
from fracdg.stepper import ModeProblem, mode_problems, solve, stability_report
from support import block_and_jump_column, semilog_fit

ALPHA = -0.7
GRID_NS = (18, 27, 36, 72)

# benchmark table, graded meshes: (p, gamma) -> errors at N=18,27,36,72
# and rates for the consecutive pairs
GRADED_REF = {
    (1, 1.0): ((8.32e-4, 4.80e-4, 3.27e-4, 1.31e-4), (1.35, 1.34, 1.32)),
    (1, 1.3): ((2.78e-4, 1.36e-4, 8.28e-5, 2.53e-5), (1.76, 1.73, 1.71)),
    (1, 1.6): ((1.93e-4, 8.28e-5, 4.59e-5, 1.12e-5), (2.08, 2.05, 2.03)),
    (2, 1.0): ((1.07e-4, 6.18e-5, 4.20e-5, 1.67e-5), (1.36, 1.34, 1.33)),
    (2, 1.6): ((1.18e-5, 4.87e-6, 2.62e-6, 6.06e-7), (2.18, 2.15, 2.11)),
    (2, 2.3): ((2.64e-6, 7.43e-7, 3.06e-7, 4.13e-8), (3.12, 3.08, 2.89)),
}

# benchmark table, geometric meshes at delta = 0.24: errors for L = 3..7
# and the exponential coefficient b for consecutive pairs
GEOMETRIC_REF_ERRORS = (2.66e-4, 4.20e-5, 6.65e-6, 1.06e-6, 2.49e-7)
GEOMETRIC_REF_B = (2.53, 2.55, 2.55, 2.02)
GEOMETRIC_LS = (3, 4, 5, 6, 7)


def _line(number, name, ok, detail):
    print(f"acceptance {number} {name}: {'PASS' if ok else 'FAIL'} ({detail})")


def _column(report, p, gamma):
    rows = [
        r
        for r in report.rows
        if r.p_or_mu == p and abs(r.gamma_or_delta - gamma) < 1e-12
    ]
    return sorted(rows, key=lambda r: r.N_or_L)


@pytest.fixture(scope="module")
def graded_reports():
    start = time.perf_counter()
    rep_p1 = run_h_study(ALPHA, (1.0, 1.3, 1.6), (1,), GRID_NS, m=10)
    rep_p2 = run_h_study(ALPHA, (1.0, 1.6, 2.3), (2,), GRID_NS, m=10)
    return rep_p1, rep_p2, time.perf_counter() - start


def test_01_graded_rates_and_errors(graded_reports):
    rep_p1, rep_p2, elapsed = graded_reports
    assert not rep_p1.failures and not rep_p2.failures
    rate_bad, error_bad = [], []
    worst_dev, worst_ratio = 0.0, 1.0
    for (p, gamma), (ref_errors, ref_rates) in GRADED_REF.items():
        rows = _column(rep_p1 if p == 1 else rep_p2, p, gamma)
        assert [r.N_or_L for r in rows] == list(GRID_NS)
        for row, ref in zip(rows, ref_errors):
            ratio = row.error / ref
            worst_ratio = max(worst_ratio, ratio, 1.0 / ratio)
            if not 0.5 <= ratio <= 2.0:
                error_bad.append(f"p={p} g={gamma} N={row.N_or_L} ratio={ratio:.2f}")
        for row, ref in zip(rows[1:], ref_rates):
            dev = abs(row.rate_or_b - ref)
            worst_dev = max(worst_dev, dev)
            if dev > 0.12:
                rate_bad.append(
                    f"p={p} g={gamma} N={row.N_or_L} rate={row.rate_or_b:.3f} ref={ref}"
                )
    ok = not rate_bad and not error_bad and elapsed <= 300.0
    _line(
        1,
        "graded rates/errors",
        ok,
        f"max rate dev {worst_dev:.3f} cap 0.12, max error ratio "
        f"{worst_ratio:.2f} cap 2, {elapsed:.0f}s cap 300",
    )
    assert elapsed <= 300.0
    assert not error_bad, error_bad
    assert not rate_bad, rate_bad


def test_02_graded_rate_law(graded_reports):
    rep_p1, rep_p2, _ = graded_reports
    bad = []
    worst = 0.0
    for (p, gamma), _refs in GRADED_REF.items():
        law = min(gamma * (ALPHA + 2.0), p + 1.0)
        for row in _column(rep_p1 if p == 1 else rep_p2, p, gamma)[1:]:
            dev = abs(row.rate_or_b - law)
            worst = max(worst, dev)
            if dev > 0.15:
                bad.append(f"p={p} g={gamma} N={row.N_or_L} rate={row.rate_or_b:.3f}")
    _line(2, "rate law min(gamma(a+2), p+1)", not bad, f"max dev {worst:.3f} cap 0.15")
    assert not bad, bad


def test_03_geometric_exponential():
    start = time.perf_counter()
    report = run_hp_study(ALPHA, (0.24,), GEOMETRIC_LS, m=60)
    elapsed = time.perf_counter() - start
    assert not report.failures
    rows = sorted(report.rows, key=lambda r: r.N_or_L)
    assert [r.N_or_L for r in rows] == list(GEOMETRIC_LS)
    errors = [r.error for r in rows]
    bs = [r.rate_or_b for r in rows[1:]]
    ratios = [e / ref for e, ref in zip(errors, GEOMETRIC_REF_ERRORS)]
    b_devs = [abs(b - ref) for b, ref in zip(bs, GEOMETRIC_REF_B)]
    slope, _, r2 = semilog_fit(errors, [r.dofs for r in rows])
    error_ok = all(0.5 <= r <= 2.0 for r in ratios)
    b_ok = all(dev <= 0.15 for dev in b_devs)
    ok = error_ok and b_ok and r2 >= 0.97 and elapsed <= 120.0
    _line(
        3,
        "geometric errors/b/R2",
        ok,
        f"error ratios {min(ratios):.2f}..{max(ratios):.2f} cap 2, "
        f"b devs {' '.join(f'{d:.2f}' for d in b_devs)} cap 0.15, "
        f"R2 {r2:.5f} floor 0.97, {elapsed:.0f}s cap 120",
    )
    assert elapsed <= 120.0
    assert error_ok, ratios
    assert r2 >= 0.97
    assert b_ok, list(zip(bs, GEOMETRIC_REF_B))


def test_04_best_delta_window():
    deltas = (0.15, 0.18, 0.21, 0.24, 0.27, 0.30, 0.33, 0.36)
    alphas = (-0.3, -0.5, -0.7)
    report = delta_sweep(alphas, deltas, L=7, m=60)
    assert not report.failures
    best = {}
    for alpha in alphas:
        rows = [r for r in report.rows if r.alpha == alpha]
        assert len(rows) == len(deltas)
        assert all(r.dofs == 44 for r in rows)
        best[alpha] = min(rows, key=lambda r: r.error).gamma_or_delta
    ok = all(0.18 <= b <= 0.33 for b in best.values())
    _line(
        4,
        "best delta in [0.18, 0.33]",
        ok,
        ", ".join(f"alpha={a} best={b:.2f}" for a, b in best.items()),
    )
    assert ok, best


def test_05_stability_randomized():
    rng = np.random.default_rng(20260815)
    start = time.perf_counter()
    worst = math.inf
    failures = []
    for run in range(200):
        alpha = rng.uniform(-0.95, -0.05)
        kind = run % 3
        p = 1 + run % 3
        if kind == 0:
            mesh = graded_mesh(1.0, int(rng.integers(3, 7)), 1.0, p)
        elif kind == 1:
            mesh = graded_mesh(1.0, int(rng.integers(3, 7)), rng.uniform(1.0, 2.5), p)
        else:
            mesh = geometric_mesh(
                1.0, 1.0, rng.uniform(0.2, 0.5), int(rng.integers(2, 4)), 1.0
            )
        modes = []
        for _ in range(int(rng.integers(1, 3))):
            lam = rng.uniform(0.1, 20.0)
            terms = [(rng.standard_normal(), e) for e in range(int(rng.integers(1, 4)))]
            modes.append(ModeProblem(lam, PowerSum.of(*terms), rng.standard_normal()))
        solution = solve(modes, mesh, alpha)
        report = stability_report(solution, modes, alpha, slack=1e-8)
        worst = min(worst, float(np.min((report.rhs - report.lhs) / report.rhs)))
        if not report.ok:
            failures.append(run)
    elapsed = time.perf_counter() - start
    ok = not failures and elapsed <= 60.0
    _line(
        5,
        "stability bound, 200 runs",
        ok,
        f"worst rel margin {worst:.3e} floor -1e-08, {elapsed:.0f}s cap 60",
    )
    assert elapsed <= 60.0
    assert not failures, failures


def test_06_coercivity_continuity_randomized():
    rng = np.random.default_rng(31)
    worst_coercive = math.inf
    worst_continuity = math.inf
    for run in range(100):
        alpha = rng.uniform(-0.95, -0.05)
        c_alpha, d_alpha = coercivity_constants(alpha)
        if run % 2 == 0:
            mesh = graded_mesh(1.0, int(rng.integers(2, 7)), rng.uniform(1.0, 2.0), 1)
        else:
            mesh = geometric_mesh(
                1.0, 1.0, rng.uniform(0.25, 0.5), int(rng.integers(1, 4)), 1.0
            )
        count = mesh.interval_count
        cv = [rng.standard_normal(int(rng.integers(1, 5))) for _ in range(count)]
        cw = [rng.standard_normal(int(rng.integers(1, 5))) for _ in range(count)]
        qvv = memory_form(mesh, alpha, cv, cv)
        qww = memory_form(mesh, alpha, cw, cw)
        qvw = memory_form(mesh, alpha, cv, cw)
        lower = c_alpha * mesh.horizon**alpha * l2_form(mesh, cv, cv)
        coercive = (qvv - lower) / (abs(qvv) + abs(lower))
        continuity = (d_alpha**2 * qvv * qww - qvw**2) / (
            d_alpha**2 * abs(qvv * qww) + qvw**2
        )
        worst_coercive = min(worst_coercive, coercive)
        worst_continuity = min(worst_continuity, continuity)
    ok = worst_coercive >= -1e-10 and worst_continuity >= -1e-10
    _line(
        6,
        "coercivity/continuity, 200 polynomials",
        ok,
        f"worst rel margins {worst_coercive:.3e} (coercive), "
        f"{worst_continuity:.3e} (continuity), floor -1e-10",
    )
    assert worst_coercive >= -1e-10
    assert worst_continuity >= -1e-10


@pytest.mark.slow
def test_07_memory_block_oracle():
    rng = np.random.default_rng(11)
    compared = far_count = 0
    worst_near = worst_far = 0.0
    for trial in range(125):
        alpha = rng.uniform(-0.9, -0.1)
        kind = trial % 3
        if kind == 0:
            mesh = graded_mesh(
                1.0, int(rng.integers(3, 7)), rng.uniform(1.0, 2.5), int(rng.integers(1, 4))
            )
            n = int(rng.integers(1, mesh.interval_count + 1))
            j = int(rng.integers(1, n + 1))
        elif kind == 1:
            mesh = geometric_mesh(
                1.0, 1.0, rng.uniform(0.2, 0.45), int(rng.integers(2, 5)), 1.0
            )
            n = int(rng.integers(1, mesh.interval_count + 1))
            j = int(rng.integers(1, n + 1))
        else:
            # uniform with a wide gap exercises the far-field branch
            mesh = graded_mesh(1.0, int(rng.integers(4, 9)), 1.0, int(rng.integers(1, 4)))
            n = mesh.interval_count
            j = int(rng.integers(1, 3))
        matrix, jump_column = block_and_jump_column(mesh, j, n, alpha)
        sl, sr = mesh.interval(j)
        tl, tr = mesh.interval(n)
        far = j < n and (tl - sr) >= 2.0 * max(tr - tl, sr - sl)
        anchor = oracles.block_anchor(sl, sr, tl, tr, alpha)
        tol = 1e-8 if far else 1e-10
        for _ in range(3):
            i = int(rng.integers(0, matrix.shape[0]))
            ell = int(rng.integers(0, matrix.shape[1]))
            want = oracles.block_entry_oracle(sl, sr, tl, tr, alpha, i, ell)
            rel = abs(matrix[i, ell] - want) / max(abs(want), anchor)
            compared += 1
            far_count += far
            if far:
                worst_far = max(worst_far, rel)
            else:
                worst_near = max(worst_near, rel)
            assert rel <= tol, (trial, j, n, i, ell, far, rel)
        i = int(rng.integers(0, jump_column.size))
        want = oracles.jump_entry_oracle(sl, tl, tr, alpha, i)
        rel = abs(jump_column[i] - want) / max(abs(want), anchor)
        compared += 1
        worst_near = max(worst_near, rel)
        assert rel <= 1e-10, (trial, j, n, i, rel)
    _line(
        7,
        "memory entries vs quadrature oracle",
        True,
        f"{compared} entries ({far_count} far-field), worst rel "
        f"{worst_near:.2e} near cap 1e-10, {worst_far:.2e} far cap 1e-08",
    )
    assert compared == 500
    assert far_count >= 50


def test_08_exactness_and_limits():
    # transport limit: lambda = 0 reproduces polynomial data exactly
    mesh = graded_mesh(1.0, 6, 1.4, 2)
    forcing = PowerSum.of((2.0, 1.0), (-1.0, 0.0))  # u = t^2 - t + 1/2
    solution = solve([ModeProblem(0.0, forcing, 0.5)], mesh, -0.5)
    times = fine_grid(mesh, 7)
    transport_err = float(
        np.max(np.abs(solution.evaluate(times)[:, 0] - (times**2 - times + 0.5)))
    )

    # classical limit: alpha -> 0- turns the operator into the identity,
    # so u' + u = 0 with u(0) = 1 must recover exp(-t)
    mesh = graded_mesh(1.0, 16, 1.0, 2)
    solution = solve([ModeProblem(1.0, None, 1.0)], mesh, -1e-6)
    times = fine_grid(mesh, 10)
    values = solution.evaluate(times)[:, 0]
    values[0] = solution.initial_values[0]
    limit_err = float(np.max(np.abs(values - np.exp(-times))))

    # manufactured forcing against the differentiated-convolution oracle
    problem = two_mode_problem(ALPHA)
    residual = 0.0
    sample = np.linspace(0.11, 0.97, 8)
    for mode in problem.modes:
        prime = mode.profile.derivative()
        for t in sample:
            conv = oracles.riemann_liouville_oracle(
                ALPHA, mode.profile.at_zero(), prime, float(t)
            )
            want = prime(float(t)) + mode.eigenvalue * conv
            residual = max(residual, abs(mode.forcing(float(t)) - want))

    ok = transport_err < 1e-12 and limit_err < 1e-4 and residual < 1e-9
    _line(
        8,
        "exactness and limits",
        ok,
        f"transport {transport_err:.2e} cap 1e-12, classical limit "
        f"{limit_err:.2e} cap 1e-04, forcing residual {residual:.2e} cap 1e-09",
    )
    assert transport_err < 1e-12
    assert limit_err < 1e-4
    assert residual < 1e-9


def test_09_selftest_determinism(tmp_path):
    code = cli_main(["selftest", "--out", str(tmp_path / "selftest")])
    first = sorted(p for p in (tmp_path / "selftest" / "run1").rglob("*") if p.is_file())
    second = sorted(p for p in (tmp_path / "selftest" / "run2").rglob("*") if p.is_file())
    ok = code == 0 and len(first) == len(second) > 0
    _line(
        9,
        "selftest byte determinism",
        ok,
        f"exit {code}, {len(first)} files diffed",
    )
    assert code == 0
    assert len(first) == len(second) > 0
