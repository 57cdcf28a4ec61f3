"""Command-line front end for solves, convergence studies, and diagnostics.

Subcommands: `solve | h-study | hp-study | delta-sweep | selftest`, each
taking `--config PATH` (selftest excepted) plus `--out DIR` and `--seed S`
overrides.  `_READS` lists the config fields each part of a run reads; a
field given (unlike its default; `--seed` gives `seed`) that no part of the
run reads is a config error, raised before any file is written.
Exit codes: 0 success, 1 usage or config error, 2 numerical failure,
3 expectation-gate failure.

Outputs are deterministic: identical configs produce identical bytes.
Study CSVs carry wall-clock timings in the `seconds` column by default;
selftest suppresses them (written as zero) so its two passes can be
compared byte-for-byte.
"""

import argparse
import math
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .analysis import (
    backend_mode_problems,
    delta_sweep,
    error_measure,
    figure_curves_hp,
    figure_curves_sweep,
    run_h_study,
    run_hp_study,
    write_plot_data,
)
from .config import _RANGES, ConfigError, RunConfig, _check_range, config_hash, parse_config
from .kernel import coercivity_constants, l2_form, memory_form
from .mesh import dof_count, geometric_mesh, graded_mesh
from .problems import two_mode_problem
from .spatial import fem_backend, spectral_backend
from .stepper import solve, stability_report

__all__ = ["main"]

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NUMERICAL = 2
EXIT_GATE = 3

# random trial pairs of the coercivity spot check
_COERCIVITY_TRIALS = 20
_DEFAULT_SEED = 1  # the diagnostics' seed when neither --seed nor the config sets one


class _Parser(argparse.ArgumentParser):
    # usage problems exit with code 1, not argparse's default 2
    def error(self, message):
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _load(args):
    try:
        text = Path(args.config).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read {args.config}: {exc}") from None
    config = parse_config(text)
    seed = args.seed if args.seed is not None else config.seed
    _check_reads(args.command, replace(config, seed=seed))  # --seed gives a seed
    return config, Path(args.out or config.out), _DEFAULT_SEED if seed is None else seed


# The config fields each part of a run reads, a builder's in the order it takes
# them; `_check_reads` picks the parts of a run
_READS = {
    "run": ("alpha", "diffusivity", "backend", "m", "out", "error_max", "rate_min", "rate_max"),
    "solve": ("family", "stability_report", "coercivity_check"),
    "graded": ("T", "N", "gamma", "p", "first_interval_linear"),
    "geometric": ("T", "T_1", "delta", "L", "mu"),
    "fem": ("elements", "degree"),
    "coercivity": ("seed",),
    "h-study": ("alpha", "gammas", "gamma", "ps", "p", "Ns", "T", "first_interval_linear"),
    "hp-study": ("alpha", "deltas", "delta", "Ls", "mu", "T_1", "T"),
    "delta-sweep": ("alphas", "alpha", "deltas", "L", "mu", "T_1", "T"),
}


def _arguments(config, part):
    """A part's fields by name.  An empty list key takes its scalar where the
    row holds both, which is then no argument; one without it must be set."""
    arguments = {key: getattr(config, key) for key in _READS[part]}
    for key, list_key, *_ in _RANGES:
        if key in arguments and list_key in arguments:
            scalar = arguments.pop(key)
            arguments[list_key] = arguments[list_key] or (scalar,)
        elif list_key in arguments and not arguments[list_key]:
            raise ConfigError(f"missing required key {list_key}")
    return arguments


def _check_reads(command, config):
    """ConfigError naming each field set unlike its default that no part of the run reads."""
    solve = command == "solve"
    parts = ["run", "solve", config.family] if solve else ["run", command]
    parts += ["coercivity"] * (solve and config.coercivity_check) + ["fem"] * (config.backend == "fem")
    read = {key for part in parts for key in _READS[part]}
    defaults = vars(RunConfig(T=config.T))
    unread = [key for key, value in vars(config).items() if value != defaults[key] and key not in read]
    if unread:
        run = f"a {config.family} solve" if solve else f"{'an' if command[0] == 'h' else 'a'} {command}"
        raise ConfigError(f"{', '.join(unread)}: {run} does not read {'them' if unread[1:] else 'it'}")


def _backend_system(config, problem):
    """Spatial backend of a run, for `solve` and every study alike; `type`
    and the "fem" row fix its mode count."""
    if config.backend == "spectral":
        return spectral_backend(problem.mode_count, problem.diffusivity)
    return fem_backend(*_arguments(config, "fem").values(), problem.diffusivity)[1]


def _solve_mesh(config):
    """The mesh of a solve; ConfigError if its nodes underflow or collapse."""
    try:
        mesh = graded_mesh if config.family == "graded" else geometric_mesh
        return mesh(**_arguments(config, config.family))
    except ValueError as exc:
        raise ConfigError(f"mesh: {exc}") from None


def _write(path, text):
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)


def _solution_csv(solution):
    count = solution.initial_values.size
    header = ["interval", "t_left", "t_right"]
    for label in ("right_limit", "left_limit", "jump"):
        header.extend(f"{label}_{m + 1}" for m in range(count))
    traces = (solution.right_traces(), solution.left_traces(), solution.jumps())
    lines = [",".join(header)]
    nodes = solution.mesh.nodes
    for n in range(solution.mesh.interval_count):
        cells = [str(n + 1), f"{nodes[n]:.12e}", f"{nodes[n + 1]:.12e}"]
        for trace in traces:
            cells.extend(f"{v:.12e}" for v in np.atleast_1d(trace[n]))
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def _stability_csv(report):
    lines = ["t,lhs,rhs"]
    for t, lhs, rhs in zip(report.times, report.lhs, report.rhs):
        lines.append(f"{t:.12e},{lhs:.12e},{rhs:.12e}")
    return "\n".join(lines) + "\n"


def _coercivity_text(mesh, alpha, seed):
    """Spot check of the quadratic-form bounds on random trial functions.

    The trial functions carry the mesh's degrees, so while the solution of
    the march on that mesh lives, every `memory_form` shares its operator.
    Returns the report's text and its failing margins, each as its line.
    """
    rng = np.random.default_rng(seed)
    c_alpha, d_alpha = coercivity_constants(alpha)
    worst_coercive = worst_continuous = math.inf
    for _ in range(_COERCIVITY_TRIALS):
        v = [rng.standard_normal(p + 1) for p in mesh.degrees]
        w = [rng.standard_normal(p + 1) for p in mesh.degrees]
        qvv = memory_form(mesh, alpha, v, v)
        qww = memory_form(mesh, alpha, w, w)
        qvw = memory_form(mesh, alpha, v, w)
        coercive = qvv - c_alpha * mesh.horizon**alpha * l2_form(mesh, v, v)
        worst_coercive = min(worst_coercive, coercive)
        worst_continuous = min(worst_continuous, d_alpha**2 * qvv * qww - qvw**2)
    margins = [f"coercivity_margin = {worst_coercive:.6e}", f"continuity_margin = {worst_continuous:.6e}"]
    failed = [margin for margin, value in zip(margins, (worst_coercive, worst_continuous)) if not value >= -1e-10]
    return (
        f"trials = {_COERCIVITY_TRIALS}\n"
        f"seed = {seed}\n"
        + "".join(f"{margin}\n" for margin in margins)
        + f"ok = {'false' if failed else 'true'}\n"
    ), failed


def _check_gates(config, errors, rates):
    """Report each failed expectation on stderr; returns the failures."""
    failures = []
    if config.error_max is not None:
        worst = max(errors)
        if not worst <= config.error_max:
            failures.append(f"error_max: worst error {worst:.6e} exceeds {config.error_max:.6e}")
    finite = [r for r in rates if math.isfinite(r)]
    for key in ("rate_min", "rate_max"):
        if getattr(config, key) is not None and not finite:
            failures.append(f"{key}: no finite rate to check")
    if config.rate_min is not None and finite and min(finite) < config.rate_min:
        failures.append(f"rate_min: slowest rate {min(finite):.4f} below {config.rate_min}")
    if config.rate_max is not None and finite and max(finite) > config.rate_max:
        failures.append(f"rate_max: fastest rate {max(finite):.4f} above {config.rate_max}")
    for failure in failures:
        print(f"expectation failed: {failure}", file=sys.stderr)
    return failures


def cmd_solve(config, out, seed):
    problem = two_mode_problem(config.alpha, config.diffusivity)
    system = _backend_system(config, problem)
    mesh = _solve_mesh(config)
    problems = backend_mode_problems(problem, system)
    solution = solve(problems, mesh, config.alpha)
    error = error_measure(solution, problem, system, config.m)
    _write(out / "solution.csv", _solution_csv(solution))
    summary = [
        f"config_hash = {config_hash(config)}",
        f"family = {config.family}",
        f"intervals = {mesh.interval_count}",
        f"dofs = {dof_count(mesh)}",
        f"error = {error:.6e}",
    ]
    failures = []
    if config.stability_report:
        report = stability_report(solution, problems, config.alpha)
        _write(out / "stability.csv", _stability_csv(report))
        summary.append(f"stability_ok = {'true' if report.ok else 'false'}")
        if not report.ok:
            n = report.violations[0]
            failures.append(f"stability bound violated on interval {n}, t_n = {report.times[n - 1]:.12e}")
    if config.coercivity_check:
        text, failed = _coercivity_text(mesh, config.alpha, seed)
        _write(out / "coercivity.txt", text)
        summary.append(f"coercivity_ok = {'false' if failed else 'true'}")
        failures += [f"coercivity check failed, {margin}" for margin in failed]
    _write(out / "summary.txt", "\n".join(summary) + "\n")
    print("\n".join(summary))
    if failures:
        print(f"numerical failure: {'; '.join(failures)}", file=sys.stderr)
        return EXIT_NUMERICAL
    if _check_gates(config, [error], []):
        return EXIT_GATE
    return EXIT_OK


# study subcommand -> (runner, CSV name, plot curves of the report and
# their axis labels); the runner takes its _READS row
_STUDIES = {
    "h-study": (run_h_study, "h_study.csv", None, None),
    "hp-study": (run_hp_study, "hp_study.csv", figure_curves_hp, ("sqrt(dofs)", "error")),
    "delta-sweep": (delta_sweep, "delta_sweep.csv", figure_curves_sweep, ("delta", "error")),
}


def cmd_study(command, config, out, timings):
    runner, csv_name, curves, labels = _STUDIES[command]
    problem = two_mode_problem(config.alpha, config.diffusivity)
    report = runner(**_arguments(config, command), system=_backend_system(config, problem), m=config.m)
    _write(out / csv_name, report.to_csv(timings, config_hash(config)))
    if curves is not None:
        write_plot_data(out / "plots", curves(report), *labels)
    for cell, message in report.failures:
        print(f"cell {cell} failed: {message}", file=sys.stderr)
    if report.failures:
        return EXIT_NUMERICAL
    if _check_gates(config, [row.error for row in report.rows], [row.rate_or_b for row in report.rows]):
        return EXIT_GATE
    print(f"wrote {out / csv_name} ({len(report.rows)} rows)")
    return EXIT_OK


def _run(command, config, out, seed, timings=True):
    if command == "solve":
        return cmd_solve(config, out, seed)
    return cmd_study(command, config, out, timings)


_SELFTEST_CONFIGS = {
    "solve": """
[problem]
alpha = -0.7
[mesh]
family = graded
N = 6
gamma = 1.6
p = 1
[study]
m = 5
[diagnostics]
stability_report = true
coercivity_check = true
""",
    "h-study": """
[problem]
alpha = -0.5
[study]
m = 5
gammas = 1.3
ps = 1
Ns = 4, 6
""",
    "hp-study": """
[problem]
alpha = -0.5
[mesh]
delta = 0.3
[study]
m = 5
Ls = 2, 3
""",
    "delta-sweep": """
[problem]
alpha = -0.5
[mesh]
L = 3
[study]
m = 5
deltas = 0.2, 0.3
""",
}


def cmd_selftest(out, seed):
    """Run every pipeline twice and compare all output bytes."""
    for run in ("run1", "run2"):
        for name, text in _SELFTEST_CONFIGS.items():
            status = _run(name, parse_config(text), out / run / name, seed, timings=False)
            if status != EXIT_OK:
                print(f"selftest: {name} exited with {status}", file=sys.stderr)
                return EXIT_NUMERICAL
    first = sorted(p for p in (out / "run1").rglob("*") if p.is_file())
    mismatched = False
    for path in first:
        relative = path.relative_to(out / "run1")
        twin = out / "run2" / relative
        if not twin.is_file() or twin.read_bytes() != path.read_bytes():
            print(f"selftest: {relative} differs between runs", file=sys.stderr)
            mismatched = True
        else:
            print(f"selftest: {relative} identical")
    if mismatched:
        return EXIT_NUMERICAL
    print(f"selftest: all {len(first)} files byte-identical")
    return EXIT_OK


def _build_parser():
    parser = _Parser(prog="fracdg", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("solve", *_STUDIES, "selftest"):
        cmd = sub.add_parser(name)
        if name != "selftest":
            cmd.add_argument("--config", required=True, help="config file path")
        cmd.add_argument("--out", default=None, help="output directory")
        cmd.add_argument("--seed", type=int, default=None, help="rng seed for diagnostics")
    return parser


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        _check_range("seed", args.seed)
        if args.command == "selftest":
            out = Path(args.out) if args.out else Path("selftest-out")
            return cmd_selftest(out, _DEFAULT_SEED if args.seed is None else args.seed)
        config, out, seed = _load(args)
        return _run(args.command, config, out, seed)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (RuntimeError, FloatingPointError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
