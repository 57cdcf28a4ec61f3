"""Convergence studies: fine-grid errors, observed orders, hp rate coefficients.

The error measure is the fine-grid norm |||v|||_m: each time interval is
subdivided into m equal parts and the spatial L2 norm of U - u is maximised
over all subdivision points.  At t = 0 the numerical solution is taken to
be the initial datum; the right limit U(0+) only approximates it because
the initial condition is imposed weakly, and charging that jump to t = 0
would misstate the startup error.  Interior mesh nodes use left limits.

h-version studies sweep a Cartesian (gamma, p, N) grid of graded meshes,
hp-version studies sweep (delta, L) geometric meshes, and the delta sweep
fixes the dof budget while varying the refinement factor.  Observed orders
are log-ratios against N; hp refinement instead fits error ~ C exp(-b
sqrt(dofs)) through consecutive levels.  Each study solves the two-mode
problem on a spatial system, a `spatial.ModeSystem` whose diffusivity is
the problem's; by default the spectral backend with K = 1.
"""

import json
import math
import time
from dataclasses import dataclass, fields, replace
from functools import partial
from pathlib import Path

import numpy as np

from .mesh import dof_count, fine_grid, geometric_mesh, graded_mesh
from .problems import PowerSum, two_mode_problem
from .spatial import _sine_values, composite_gauss, ritz_projection, spectral_backend
from .stepper import ModeProblem, mode_problems, solve

__all__ = [
    "CSV_COLUMNS",
    "StudyRow",
    "ConvergenceReport",
    "backend_mode_problems",
    "fem_mode_problems",
    "error_measure",
    "eoc",
    "exp_coefficient",
    "semilog_fit",
    "run_h_study",
    "run_hp_study",
    "delta_sweep",
    "figure_curves_hp",
    "figure_curves_sweep",
    "write_plot_data",
]


@dataclass(frozen=True)
class StudyRow:
    """One study cell: a mesh descriptor with its measured error."""

    family: str
    alpha: float
    backend: str
    gamma_or_delta: float
    p_or_mu: float
    N_or_L: int
    dofs: int
    error: float
    rate_or_b: float
    seconds: float


CSV_COLUMNS = tuple(f.name for f in fields(StudyRow))


@dataclass(frozen=True)
class ConvergenceReport:
    """Rows of a convergence study, its per-cell failures, and the hash of
    the config that ran it ("" when no config did)."""

    rows: tuple
    failures: tuple = ()
    config_hash: str = ""

    def __post_init__(self):
        for row in self.rows:
            if not row.error >= 0.0:
                raise ValueError(f"errors must be nonnegative, got {row.error}")

    def to_csv(self, timings=True):
        """CSV text, with a config_hash column when the report has a hash;
        `timings=False` zeroes the seconds column so that repeated runs of
        the same configuration are byte-identical."""
        header = list(CSV_COLUMNS)
        if self.config_hash:
            header.append("config_hash")
        lines = [",".join(header)]
        for row in self.rows:
            cells = [
                row.family,
                f"{row.alpha:g}",
                row.backend,
                f"{row.gamma_or_delta:g}",
                f"{row.p_or_mu:g}",
                str(row.N_or_L),
                str(row.dofs),
                f"{row.error:.6e}",
                f"{row.rate_or_b:.4f}" if math.isfinite(row.rate_or_b) else "",
                f"{row.seconds:.3f}" if timings else "0.000",
            ]
            if self.config_hash:
                cells.append(self.config_hash)
            lines.append(",".join(cells))
        return "\n".join(lines) + "\n"


def error_measure(solution, problem, backend, m, method="auto"):
    """Fine-grid error |||U - u|||_m of a solved mode system.

    The spectral backend reads the spatial L2 norm straight off the mode
    coefficients (the eigenfunctions are orthonormal); the FEM backend
    integrates the pointwise difference with a composite Gauss rule using
    r+1 points per spatial element.  `method` can force "coefficient" or
    "quadrature" where both apply.
    """
    times = fine_grid(solution.mesh, m)
    numeric = solution.evaluate(times)
    numeric[0] = solution.initial_values
    exact = problem.exact_coefficients(times)
    if method == "auto":
        method = "coefficient" if backend.backend == "spectral" else "quadrature"
    if method == "coefficient":
        if backend.backend != "spectral":
            raise ValueError("coefficient route requires the spectral backend")
        if numeric.shape[1] != exact.shape[1]:
            raise ValueError("solution and problem mode counts differ")
        return float(np.sqrt(np.sum((numeric - exact) ** 2, axis=1)).max())
    if method != "quadrature":
        raise ValueError(f"unknown error method {method!r}")
    if backend.backend == "spectral":
        x, w = composite_gauss(max(2 * backend.mode_count, 8), 10)
    else:
        space = backend.space
        x, w = composite_gauss(space.element_count, space.degree + 1)
    shapes = backend.mode_values(x)
    exact_shapes = _sine_values(problem.mode_count, x)
    diff = numeric @ shapes - exact @ exact_shapes
    return float(np.sqrt(np.maximum(diff**2 @ w, 0.0)).max())


def _consecutive_rates(errors, spacing):
    """log(e_{i-1}/e_i) / spacing(i) for each consecutive pair of positive
    errors; nan where undefined.  spacing(i) is called only for those pairs."""
    errors = np.asarray(errors, dtype=float)
    rates = np.full(errors.shape, np.nan)
    for i in range(1, len(errors)):
        if errors[i - 1] > 0.0 and errors[i] > 0.0:
            rates[i] = math.log(errors[i - 1] / errors[i]) / spacing(i)
    return rates


def eoc(errors, Ns):
    """Observed orders log(e_{i-1}/e_i)/log(N_i/N_{i-1}); nan where undefined."""
    Ns = np.asarray(Ns, dtype=float)
    return _consecutive_rates(errors, lambda i: math.log(Ns[i] / Ns[i - 1]))


def exp_coefficient(errors, dofs):
    """hp rate coefficients b = log(e_{L-1}/e_L)/(sqrt(N_L)-sqrt(N_{L-1}))."""
    dofs = np.asarray(dofs, dtype=float)
    return _consecutive_rates(errors, lambda i: math.sqrt(dofs[i]) - math.sqrt(dofs[i - 1]))


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


def fem_mode_problems(problem, system):
    """Scalar mode problems of the spatially discrete system.

    Projecting the PDE on the discrete eigenpairs decouples it into modes
    d_m' + lambda_m B d_m = (f, phi_m); the load pairs the manufactured
    sine-series forcing with each discrete eigenfunction, and the initial
    values come from the Ritz projection of u0.
    """
    space = system.space
    x, w = composite_gauss(space.element_count, space.degree + 4)
    shapes = system.mode_values(x)
    sines = _sine_values(problem.mode_count, x)
    pairing = (sines * w) @ shapes.T
    initial_modes = np.asarray(problem.initial_coefficients())

    def u0(xs):
        return initial_modes @ _sine_values(problem.mode_count, np.atleast_1d(xs))

    ritz = ritz_projection(space, u0)
    initial = system.mode_shapes.T @ (space.mass @ ritz)
    out = []
    for m in range(system.mode_count):
        forcing = PowerSum.of()
        for j, component in enumerate(problem.modes):
            forcing = forcing + component.forcing.scale(pairing[j, m])
        out.append(ModeProblem(float(system.eigenvalues[m]), forcing, float(initial[m])))
    return out


def backend_mode_problems(problem, system):
    """Scalar mode problems of `problem` on the spatial backend `system`;
    a spectral system must be the problem's own eigensystem."""
    if system.backend == "spectral":
        if (system.mode_count, system.diffusivity) != (problem.mode_count, problem.diffusivity):
            raise ValueError(
                f"spectral system has {system.mode_count} modes and diffusivity "
                f"{system.diffusivity}, the problem {problem.mode_count} and {problem.diffusivity}"
            )
        return mode_problems(problem)
    return fem_mode_problems(problem, system)


def _run_study(family, groups, rates, system, m, config_hash):
    """Solve every cell of a study and measure its fine-grid error.

    `groups` lists (alpha, columns).  A column is a list of cells, refined
    in order; a cell is (key, labels, build_mesh) with labels the
    (gamma_or_delta, p_or_mu, N_or_L) of its row and `build_mesh()` its
    mesh.  The problem is the two-mode problem with the diffusivity of
    `system`, a `ModeSystem`; None means its spectral backend with K = 1.
    `rates(rows)`, if given, chains the rate column down the surviving rows
    of a column.  A failed cell is reported under its key instead of
    aborting the remaining grid.
    """
    rows, failures = [], []
    for alpha, columns in groups:
        problem = two_mode_problem(alpha, 1.0 if system is None else system.diffusivity)
        if system is None:
            system = spectral_backend(problem.mode_count)
        problems = backend_mode_problems(problem, system)
        for column in columns:
            done = []
            for key, labels, build_mesh in column:
                start = time.perf_counter()
                try:
                    mesh = build_mesh()
                    solution = solve(problems, mesh, alpha)
                    error = error_measure(solution, problem, system, m)
                except Exception as exc:
                    failures.append((key, f"{type(exc).__name__}: {exc}"))
                    continue
                seconds = time.perf_counter() - start
                done.append(StudyRow(family, alpha, system.backend, *labels,
                                     dof_count(mesh), error, math.nan, seconds))
            if rates is not None:
                done = [replace(row, rate_or_b=r) for row, r in zip(done, rates(done))]
            rows.extend(done)
    return ConvergenceReport(tuple(rows), tuple(failures), config_hash)


def _eoc_rates(rows):
    return eoc([row.error for row in rows], [row.N_or_L for row in rows])


def _exp_rates(rows):
    return exp_coefficient([row.error for row in rows], [row.dofs for row in rows])


def run_h_study(alpha, gammas, ps, Ns, system=None, m=10, T=1.0,
                first_interval_linear=False, config_hash=""):
    """Graded-mesh study over the Cartesian (gamma, p, N) grid.

    Each (p, gamma) pair forms one column refined through the Ns, with
    observed orders chained down the column.  Failed cells are collected
    in the report under (p, gamma, N) instead of aborting the grid.
    """
    columns = [
        [((p, gamma, N), (gamma, p, N),
          partial(graded_mesh, T, N, gamma, p, first_interval_linear)) for N in Ns]
        for p in ps for gamma in gammas
    ]
    return _run_study("graded", [(alpha, columns)], _eoc_rates, system, m, config_hash)


def run_hp_study(alpha, deltas, Ls, mu=1.0, T_1=1.0, T=1.0, system=None, m=60,
                 config_hash=""):
    """Geometric-mesh study: one column per delta, levels L within it.

    The rate column holds the exponential coefficient b fitted through
    consecutive levels of the same delta; failures are keyed (delta, L).
    """
    columns = [
        [((delta, L), (delta, mu, L), partial(geometric_mesh, T, T_1, delta, L, mu)) for L in Ls]
        for delta in deltas
    ]
    return _run_study("geometric", [(alpha, columns)], _exp_rates, system, m, config_hash)


def delta_sweep(alphas, deltas, L=7, mu=1.0, T_1=1.0, T=1.0, system=None, m=60,
                config_hash=""):
    """Error against delta at a fixed dof budget, one curve per alpha.

    There is no rate column; failures are keyed (alpha, delta).
    """
    groups = [
        (alpha, [[((alpha, delta), (delta, mu, L), partial(geometric_mesh, T, T_1, delta, L, mu))
                  for delta in deltas]])
        for alpha in alphas
    ]
    return _run_study("geometric", groups, None, system, m, config_hash)


def _curves(report, label, key, x):
    """(name, x, y) curves of error against x(row), one per value of the
    row attribute `key`, in order of first appearance, named label=value."""
    curves = []
    for value in dict.fromkeys(getattr(row, key) for row in report.rows):
        points = [r for r in report.rows if getattr(r, key) == value]
        curves.append((f"{label}={value:g}", [x(r) for r in points], [r.error for r in points]))
    return curves


def figure_curves_hp(report):
    """(name, x, y) curves of error against sqrt(dofs), one per delta."""
    return _curves(report, "delta", "gamma_or_delta", lambda r: math.sqrt(r.dofs))


def figure_curves_sweep(report):
    """(name, x, y) curves of error against delta, one per alpha."""
    return _curves(report, "alpha", "alpha", lambda r: r.gamma_or_delta)


def _curve_filename(name):
    safe = name.replace("=", "-").replace(".", "p")
    safe = "".join(ch if ch.isalnum() or ch in "-_" else "_" for ch in safe)
    return safe + ".dat"


def write_plot_data(directory, curves, xlabel, ylabel):
    """Two-column x,y data files plus a manifest naming each curve.

    Returns the manifest path.  Output is deterministic: fixed float
    formatting and sorted manifest keys.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    entries = []
    for name, x, y in curves:
        filename = _curve_filename(name)
        lines = [f"{float(xi):.12e} {float(yi):.12e}" for xi, yi in zip(x, y)]
        (directory / filename).write_text("\n".join(lines) + "\n")
        entries.append({"name": name, "file": filename, "points": len(lines)})
    manifest = {"xlabel": xlabel, "ylabel": ylabel, "curves": entries}
    path = directory / "manifest.json"
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return path
