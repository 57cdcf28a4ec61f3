"""Command-line driver: outputs, determinism, exit codes."""

import contextlib
import io
import math
import re
import tempfile
import warnings
from dataclasses import fields, replace
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fracdg import analysis, cli, kernel
from fracdg.cli import EXIT_GATE, EXIT_NUMERICAL, EXIT_OK, EXIT_USAGE, main
from fracdg.config import RunConfig, parse_config

MINIMAL = """
[problem]
alpha = -0.7
[mesh]
family = graded
gamma = 1.6
N = 18
p = 1
[backend]
type = spectral
[study]
m = 10
"""


# geometric mesh with degrees 1, 1, 2, 2, 3, 4 and one coarse interval of degree 4
GEOMETRIC_MIXED = """
[problem]
alpha = -0.4
[mesh]
family = geometric
delta = 0.25
L = 5
mu = 0.7
T = 1.0
T_1 = 0.5
[study]
m = 6
[diagnostics]
stability_report = true
coercivity_check = true
"""

H_STUDY = """
[problem]
alpha = -0.5
[study]
m = 5
gammas = 1.3
ps = 1
Ns = 4, 6
"""

PINNED = Path(__file__).parent / "data"
CONFIGS = Path(__file__).parent.parent / "configs"


def _write_config(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_solve_reports_table_error(tmp_path, capsys):
    cfg = _write_config(tmp_path, MINIMAL)
    status = main(["solve", "--config", cfg, "--out", str(tmp_path / "out")])
    assert status == EXIT_OK
    summary = (tmp_path / "out" / "summary.txt").read_text()
    error = float(summary.split("error = ")[1].splitlines()[0])
    assert 0.5 < error / 1.93e-4 < 2.0
    header = (tmp_path / "out" / "solution.csv").read_text().splitlines()[0]
    assert header.startswith("interval,t_left,t_right,right_limit_1")
    assert "error = " in capsys.readouterr().out


def test_solve_deterministic_bytes(tmp_path):
    cfg = _write_config(tmp_path, MINIMAL)
    for name in ("a", "b"):
        assert main(["solve", "--config", cfg, "--out", str(tmp_path / name)]) == EXIT_OK
    for filename in ("solution.csv", "summary.txt"):
        assert (tmp_path / "a" / filename).read_bytes() == (tmp_path / "b" / filename).read_bytes()


def test_solve_geometric_with_diagnostics(tmp_path):
    text = """
[problem]
alpha = -0.5
[mesh]
family = geometric
delta = 0.3
L = 4
[study]
m = 6
[diagnostics]
stability_report = true
coercivity_check = true
"""
    cfg = _write_config(tmp_path, text)
    status = main(["solve", "--config", cfg, "--out", str(tmp_path / "out"), "--seed", "3"])
    assert status == EXIT_OK
    assert (tmp_path / "out" / "stability.csv").exists()
    coercivity = (tmp_path / "out" / "coercivity.txt").read_text()
    assert "ok = true" in coercivity and "seed = 3" in coercivity
    summary = (tmp_path / "out" / "summary.txt").read_text()
    assert "stability_ok = true" in summary


@pytest.mark.parametrize(
    "name, text, seed",
    [
        ("solve_selftest", cli._SELFTEST_CONFIGS["solve"], 1),
        ("solve_geometric", GEOMETRIC_MIXED, 7),
    ],
)
def test_solve_outputs_match_pinned_bytes(tmp_path, name, text, seed):
    # every printed digit of the solution, the energy inequality and the
    # coercivity check, pinned so that a change in summation order shows
    cfg = _write_config(tmp_path, text)
    out = tmp_path / "out"
    assert main(["solve", "--config", cfg, "--out", str(out), "--seed", str(seed)]) == EXIT_OK
    for filename in ("solution.csv", "stability.csv", "coercivity.txt"):
        assert (out / filename).read_bytes() == (PINNED / name / filename).read_bytes(), filename


def test_solve_with_diagnostics_builds_one_memory_operator(tmp_path, monkeypatch):
    # the stability report and the coercivity check apply the operator the
    # march built: N(N+1)/2 blocks at N = 6, each built once
    real_block = kernel.memory_block
    calls = []

    def counting_block(mesh, j, n, order, **kwargs):
        calls.append((j, n))
        return real_block(mesh, j, n, order, **kwargs)

    monkeypatch.setattr(kernel, "memory_block", counting_block)
    config = parse_config(cli._SELFTEST_CONFIGS["solve"])
    assert config.stability_report and config.coercivity_check and config.N == 6
    cfg = _write_config(tmp_path, cli._SELFTEST_CONFIGS["solve"])
    assert main(["solve", "--config", cfg, "--out", str(tmp_path / "out")]) == EXIT_OK
    assert len(calls) == 6 * 7 // 2
    assert len(set(calls)) == len(calls)


@pytest.mark.parametrize("name", ["h-study", "hp-study", "delta-sweep"])
def test_selftest_study_outputs_match_pinned_bytes(tmp_path, name):
    # the study CSV (timings zeroed), its plot data and manifest, pinned
    pinned = PINNED / "selftest_studies" / name
    out = tmp_path / name
    config = parse_config(cli._SELFTEST_CONFIGS[name])
    assert cli._run(name, config, out, 1, timings=False) == EXIT_OK
    written = sorted(p.relative_to(out) for p in out.rglob("*") if p.is_file())
    expected = sorted(p.relative_to(pinned) for p in pinned.rglob("*") if p.is_file())
    assert written == expected
    for relative in expected:
        assert (out / relative).read_bytes() == (pinned / relative).read_bytes(), relative


@pytest.mark.parametrize(
    "name, command",
    [("table2", "hp-study"), ("fig2", "delta-sweep"), ("table2_fem", "hp-study")],
)
def test_shipped_study_outputs_match_pinned_bytes(tmp_path, name, command):
    # the shipped configs' study CSVs (timings zeroed) and plot data, pinned
    pinned = PINNED / "shipped_studies" / name
    out = tmp_path / name
    config = parse_config((CONFIGS / f"{name}.cfg").read_text())
    assert cli._run(command, config, out, 1, timings=False) == EXIT_OK
    written = sorted(p.relative_to(out) for p in out.rglob("*") if p.is_file())
    expected = sorted(p.relative_to(pinned) for p in pinned.rglob("*") if p.is_file())
    assert written == expected
    for relative in expected:
        assert (out / relative).read_bytes() == (pinned / relative).read_bytes(), relative


def test_missing_alpha_names_key(tmp_path, capsys):
    cfg = _write_config(tmp_path, "[problem]\ndiffusivity = 1.0\n")
    status = main(["solve", "--config", cfg])
    assert status == EXIT_USAGE
    assert "alpha" in capsys.readouterr().err


def test_unknown_subcommand_exits_one():
    with pytest.raises(SystemExit) as info:
        main(["bogus"])
    assert info.value.code == EXIT_USAGE


def test_missing_config_file(tmp_path, capsys):
    status = main(["solve", "--config", str(tmp_path / "absent.cfg")])
    assert status == EXIT_USAGE
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("content", [None, b"[problem]\nalpha = -0.5 \xff\n"])
def test_unreadable_config_file(tmp_path, capsys, content):
    # a directory, or a file that is not UTF-8 text
    path = tmp_path / "run.cfg"
    if content is None:
        path.mkdir()
    else:
        path.write_bytes(content)
    status = main(["solve", "--config", str(path)])
    assert status == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("config error: cannot read ") and str(path) in err


def test_h_study_csv_carries_hash(tmp_path):
    cfg = _write_config(tmp_path, H_STUDY)
    assert main(["h-study", "--config", cfg, "--out", str(tmp_path / "out")]) == EXIT_OK
    lines = (tmp_path / "out" / "h_study.csv").read_text().splitlines()
    assert lines[0].endswith(",config_hash")
    hashes = {line.rsplit(",", 1)[1] for line in lines[1:]}
    assert len(hashes) == 1
    other = _write_config(tmp_path, H_STUDY.replace("1.3", "1.6"), name="other.cfg")
    assert main(["h-study", "--config", other, "--out", str(tmp_path / "out2")]) == EXIT_OK
    other_lines = (tmp_path / "out2" / "h_study.csv").read_text().splitlines()
    assert other_lines[1].rsplit(",", 1)[1] not in hashes


def test_hp_study_writes_plot_data(tmp_path):
    text = """
[problem]
alpha = -0.5
[study]
m = 5
deltas = 0.3
Ls = 2, 3
"""
    cfg = _write_config(tmp_path, text)
    assert main(["hp-study", "--config", cfg, "--out", str(tmp_path / "out")]) == EXIT_OK
    assert (tmp_path / "out" / "hp_study.csv").exists()
    assert (tmp_path / "out" / "plots" / "manifest.json").exists()


@pytest.mark.parametrize(
    "command, grid, csv_name",
    [("h-study", "gammas = 1.3\nps = 1\nNs = 4, 4", "h_study.csv"),
     ("hp-study", "deltas = 0.3\nLs = 3, 3", "hp_study.csv")],
    ids=["h-study", "hp-study"],
)
def test_repeated_refinement_level_leaves_its_rate_empty(tmp_path, command, grid, csv_name):
    # two cells of one level have no spacing between them, so no rate
    cfg = _write_config(tmp_path, f"[problem]\nalpha = -0.5\n[study]\nm = 5\n{grid}\n")
    assert main([command, "--config", cfg, "--out", str(tmp_path / "out")]) == EXIT_OK
    rows = [line.split(",") for line in (tmp_path / "out" / csv_name).read_text().splitlines()[1:]]
    assert len(rows) == 2
    assert rows[0][:8] == rows[1][:8]
    assert rows[0][8] == rows[1][8] == ""


def test_expectation_gate_exit(tmp_path, capsys):
    text = MINIMAL + "\n[expect]\nerror_max = 1e-9\n"
    cfg = _write_config(tmp_path, text)
    status = main(["solve", "--config", cfg, "--out", str(tmp_path / "out")])
    assert status == EXIT_GATE
    assert "error_max" in capsys.readouterr().err


def test_numerical_failure_exit(tmp_path, capsys, monkeypatch):
    def broken(*args, **kwargs):
        raise RuntimeError("singular local system on interval 1, mode 1")

    monkeypatch.setattr(cli, "solve", broken)
    cfg = _write_config(tmp_path, MINIMAL)
    status = main(["solve", "--config", cfg, "--out", str(tmp_path / "out")])
    assert status == EXIT_NUMERICAL
    assert "numerical failure" in capsys.readouterr().err


def test_subnormal_diffusivity_stability_report_exits_two(tmp_path, capsys):
    # diffusivity = 1e-310 passes "be positive" but makes the eigenvalues
    # subnormal; the stability bound used to print stability_ok = true and
    # write inf to stability.csv
    text = """
[problem]
alpha = -0.5
diffusivity = 1e-310
[mesh]
family = graded
N = 4
gamma = 2.0
p = 2
[study]
m = 5
[diagnostics]
stability_report = true
"""
    cfg = _write_config(tmp_path, text)
    # the named failure is the only report: no overflow warning comes first
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        status = main(["solve", "--config", cfg, "--out", str(tmp_path / "out")])
    assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []
    assert status == EXIT_NUMERICAL
    err = capsys.readouterr().err
    assert err == "numerical failure: non-finite stability forcing on interval 1, mode 2\n"
    assert not (tmp_path / "out" / "stability.csv").exists()


@pytest.mark.parametrize(
    "command,text,gate,fragment",
    [
        pytest.param("h-study", H_STUDY, "rate_min = 50", "rate_min: slowest rate ",
                     id="rate_min = 50-rate_min: slowest rate "),
        pytest.param("h-study", H_STUDY, "rate_max = 0.01", "rate_max: fastest rate ",
                     id="rate_max = 0.01-rate_max: fastest rate "),
        # a solve has no rate, and neither has a column of one cell: a set
        # rate gate with nothing to check fails rather than passing silently
        pytest.param("solve", MINIMAL, "rate_min = 50", "rate_min: no finite rate to check",
                     id="solve-rate_min"),
        pytest.param("solve", MINIMAL, "rate_max = 0.01", "rate_max: no finite rate to check",
                     id="solve-rate_max"),
        pytest.param("h-study", H_STUDY.replace("Ns = 4, 6", "Ns = 4"), "rate_min = 50",
                     "rate_min: no finite rate to check", id="one-cell-study-rate_min"),
    ],
)
def test_rate_gate_exit(tmp_path, capsys, command, text, gate, fragment):
    cfg = _write_config(tmp_path, text + f"[expect]\n{gate}\n")
    status = main([command, "--config", cfg, "--out", str(tmp_path / "out")])
    assert status == EXIT_GATE
    assert f"expectation failed: {fragment}" in capsys.readouterr().err


def test_study_without_its_grid_is_a_config_error(tmp_path, capsys):
    cfg = _write_config(tmp_path, H_STUDY.replace("Ns = 4, 6\n", ""))
    status = main(["h-study", "--config", cfg, "--out", str(tmp_path / "out")])
    assert status == EXIT_USAGE
    assert "missing required key Ns" in capsys.readouterr().err


def test_failed_study_cell_exit(tmp_path, capsys, monkeypatch):
    real_solve = analysis.solve

    def solve_failing_at_six(problems, mesh, alpha):
        if mesh.interval_count == 6:
            raise RuntimeError("singular local system on interval 2, mode 1")
        return real_solve(problems, mesh, alpha)

    monkeypatch.setattr(analysis, "solve", solve_failing_at_six)
    cfg = _write_config(tmp_path, H_STUDY)
    status = main(["h-study", "--config", cfg, "--out", str(tmp_path / "out")])
    assert status == EXIT_NUMERICAL
    err = capsys.readouterr().err
    assert "cell (1, 1.3, 6) failed: RuntimeError: singular local system" in err


def test_stability_violation_exit(tmp_path, capsys, monkeypatch):
    real_report = cli.stability_report

    def violated(*args):
        return replace(real_report(*args), violations=(1,))

    monkeypatch.setattr(cli, "stability_report", violated)
    cfg = _write_config(tmp_path, MINIMAL + "[diagnostics]\nstability_report = true\n")
    status = main(["solve", "--config", cfg, "--out", str(tmp_path / "out")])
    assert status == EXIT_NUMERICAL
    assert "stability_ok = false" in capsys.readouterr().out
    assert "stability_ok = false" in (tmp_path / "out" / "summary.txt").read_text()


def test_selftest_byte_identical(tmp_path, capsys):
    status = main(["selftest", "--out", str(tmp_path / "st")])
    assert status == EXIT_OK
    out = capsys.readouterr().out
    assert "byte-identical" in out
    assert (tmp_path / "st" / "run1" / "solve" / "solution.csv").exists()
    assert (tmp_path / "st" / "run2" / "hp-study" / "plots" / "manifest.json").exists()
    # timings are suppressed, so the study CSVs really are comparable
    csv = (tmp_path / "st" / "run1" / "h-study" / "h_study.csv").read_text()
    assert all(",0.000," in line for line in csv.splitlines()[1:])


@pytest.mark.parametrize("command", ["solve", "h-study", "hp-study", "delta-sweep"])
def test_wrong_mode_count_is_a_config_error(tmp_path, capsys, command):
    # type, elements and degree fix the mode count, so `modes` is no key,
    # whether its value is right (8 P2 elements carry 15 modes) or wrong
    grids = "Ns = 4\nLs = 2\ndeltas = 0.3\n"
    for backend, modes in (("spectral", 2), ("spectral", 5), ("fem", 15)):
        text = MINIMAL.replace("type = spectral", f"type = {backend}\nelements = 8\nmodes = {modes}")
        cfg = _write_config(tmp_path, text + grids)
        status = main([command, "--config", cfg, "--out", str(tmp_path / backend)])
        assert status == EXIT_USAGE, backend
        assert capsys.readouterr().err == "config error: unknown key backend.modes\n", backend
        assert not (tmp_path / backend).exists()


SHIPPED = {"table1": "h-study", "table2": "hp-study", "fig2": "delta-sweep", "table2_fem": "hp-study"}


def test_shipped_configs_parse():
    # and give only fields their study reads; _run bypasses that check
    assert sorted(path.stem for path in CONFIGS.glob("*.cfg")) == sorted(SHIPPED)
    for name, command in SHIPPED.items():
        config = parse_config((CONFIGS / f"{name}.cfg").read_text())
        assert config.alpha is not None
        cli._check_reads(command, config)


def test_selftest_configs_give_only_fields_their_run_reads():
    for name, text in cli._SELFTEST_CONFIGS.items():
        cli._check_reads(name, parse_config(text))


@pytest.mark.parametrize("command", ["solve", "h-study", "hp-study", "delta-sweep", "selftest", "config"])
def test_negative_seed_is_a_config_error(tmp_path, capsys, command):
    # a config's seed and every subcommand's --seed share one range, checked
    # before anything runs: no traceback and no file
    diagnostics = "[diagnostics]\ncoercivity_check = true\n"
    if command == "config":
        cfg = _write_config(tmp_path, MINIMAL + diagnostics + "seed = -1\n")
        argv = ["solve", "--config", cfg]
    else:
        cfg = _write_config(tmp_path, MINIMAL + "Ns = 4\nLs = 2\ndeltas = 0.3\n" + diagnostics)
        argv = [command] + (["--config", cfg] if command != "selftest" else []) + ["--seed", "-1"]
    status = main(argv + ["--out", str(tmp_path / "out")])
    assert status == EXIT_USAGE
    assert capsys.readouterr().err == "config error: seed must be >= 0, got -1\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "mesh",
    ["family = geometric\ndelta = 0.1\nL = 400\nmu = 0.02", "family = graded\nN = 4\ngamma = 1e308"],
    ids=["geometric-underflow", "graded-collapse"],
)
def test_solve_on_a_mesh_the_library_rejects_is_a_config_error(tmp_path, capsys, mesh):
    # each key is in range, but the nodes underflow or collapse
    cfg = _write_config(tmp_path, f"[problem]\nalpha = -0.5\n[mesh]\n{mesh}\n[study]\nm = 5\n")
    status = main(["solve", "--config", cfg, "--out", str(tmp_path / "out")])
    assert status == EXIT_USAGE
    err = capsys.readouterr().err
    assert err == "config error: mesh: nodes must be strictly increasing; step 1 has size 0.0\n"
    assert not (tmp_path / "out").exists()


def test_order_below_the_bound_is_a_config_error(tmp_path, capsys):
    # below -0.99 the kernel's difference rules miss their oracle at the admitted degrees
    cfg = _write_config(tmp_path, MINIMAL.replace("alpha = -0.7", "alpha = -0.995"))
    status = main(["solve", "--config", cfg, "--out", str(tmp_path / "out")])
    assert status == EXIT_USAGE
    assert capsys.readouterr().err == "config error: alpha must lie in [-0.99, 0), got -0.995\n"
    assert not (tmp_path / "out").exists()


@st.composite
def extreme_solve_configs(draw):
    """Config text of a solve at the edges of what the config admits: alpha
    in [-0.99, -1e-9], T and the diffusivity log-uniform over many decades,
    gamma up to 12, and degrees up to the bound of 11."""
    def log_uniform(low, high):
        return 10.0 ** draw(st.floats(low, high))

    def flag():
        return "true" if draw(st.booleans()) else "false"

    T = log_uniform(-12.0, 8.0)
    lines = [
        "[problem]",
        f"alpha = {draw(st.floats(-0.99, -1e-9))!r}",
        f"diffusivity = {log_uniform(-12.0, 12.0)!r}",
        "[mesh]",
        f"T = {T!r}",
    ]
    if draw(st.booleans()):
        lines += [
            "family = graded",
            f"N = {draw(st.integers(1, 12))}",
            f"gamma = {draw(st.floats(1.0, 12.0))!r}",
            f"p = {draw(st.integers(1, 11))}",
            f"first_interval_linear = {flag()}",
        ]
    else:
        levels = draw(st.integers(1, 8))
        lines += [
            "family = geometric",
            # at most three coarse intervals of width T_1 after the geometric ones
            f"T_1 = {T * draw(st.floats(0.25, 1.0))!r}",
            f"delta = {draw(st.floats(0.01, 0.99))!r}",
            f"L = {levels}",
            # the top degree floor(mu (L + 1)) stays within the bound of 11
            f"mu = {draw(st.floats(0.05, 11.5 / (levels + 1)))!r}",
        ]
    lines += ["[study]", "m = 4", "[diagnostics]", f"stability_report = {flag()}", f"coercivity_check = {flag()}"]
    return "\n".join(lines) + "\n"


_EXTREME_GRADED = "[problem]\nalpha = {alpha}\ndiffusivity = {K}\n[mesh]\nT = {T}\nN = {N}\ngamma = {gamma}\np = {p}\n"


@settings(max_examples=200, deadline=None, derandomize=True)
@given(text=extreme_solve_configs())
@example(text=_EXTREME_GRADED.format(alpha=-0.99, K=1.0, T=1.0, N=12, gamma=12.0, p=11))
@example(text=_EXTREME_GRADED.format(alpha=-1e-9, K=1e10, T=1e-12, N=12, gamma=1.0, p=11))
@example(text=_EXTREME_GRADED.format(alpha=-0.5, K=1e-12, T=1e8, N=1, gamma=1.0, p=1))
def test_extreme_valid_solves_finish_or_fail_loudly(text):
    # exit 0 with a finite error and finite traces, or a config error naming
    # the mesh, or a numerical failure naming the interval and the mode
    with tempfile.TemporaryDirectory() as tmp:
        cfg, out = Path(tmp) / "run.cfg", Path(tmp) / "out"
        cfg.write_text(text)
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            status = main(["solve", "--config", str(cfg), "--out", str(out)])
        message = err.getvalue()
        if status == EXIT_OK:
            error = float((out / "summary.txt").read_text().split("error = ")[1].splitlines()[0])
            assert math.isfinite(error), text
            rows = (out / "solution.csv").read_text().splitlines()[1:]
            assert all(math.isfinite(float(cell)) for row in rows for cell in row.split(",")), text
        elif status == EXIT_USAGE:
            assert message.startswith("config error: mesh: "), (text, message)
        else:
            assert status == EXIT_NUMERICAL, (text, status, message)
            assert re.search(r"on interval \d+, mode \d+", message), (text, message)


GRIDS = {"h-study": "Ns = 4", "hp-study": "Ls = 2", "delta-sweep": "deltas = 0.3"}
ARTICLES = {"h-study": "an", "hp-study": "an", "delta-sweep": "a"}


@pytest.mark.parametrize("key", ["--seed", "stability_report", "coercivity_check", "seed"])
@pytest.mark.parametrize("command", ["h-study", "hp-study", "delta-sweep"])
def test_study_given_diagnostics_is_a_config_error(tmp_path, capsys, command, key):
    # only solve runs the diagnostics; a study would drop them without a word
    text = f"[problem]\nalpha = -0.5\n[study]\n{GRIDS[command]}\n"
    if key == "--seed":
        flags = ["--seed", "5"]
    else:
        value = "7" if key == "seed" else "true"
        text, flags = text + f"[diagnostics]\n{key} = {value}\n", []
    cfg = _write_config(tmp_path, text)
    status = main([command, "--config", cfg, "--out", str(tmp_path / "out")] + flags)
    assert status == EXIT_USAGE
    field = key.lstrip("-")
    assert capsys.readouterr().err == f"config error: {field}: {ARTICLES[command]} {command} does not read it\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "command, mesh",
    [("solve", "family = graded\nN = 4"), ("h-study", ""), ("solve", "family = geometric\nL = 3")],
    ids=["graded-solve", "h-study", "geometric-solve"],
)
def test_horizon_below_one_runs(tmp_path, command, mesh):
    # an unset T_1 is min(1, T): T = 0.5 no longer fails on a T_1 of 1.0
    grid = "gammas = 1.3\nps = 1\nNs = 4, 6\n" if command == "h-study" else ""
    text = f"[problem]\nalpha = -0.5\n[mesh]\nT = 0.5\n{mesh}\n[study]\nm = 5\n{grid}"
    cfg = _write_config(tmp_path, text)
    assert main([command, "--config", cfg, "--out", str(tmp_path / "out")]) == EXIT_OK


# the fields each part of a run reads, as README's "Config format" lists them
RUN = {"alpha", "diffusivity", "type", "m", "out", "error_max", "rate_min", "rate_max"}
SOLVE = RUN | {"family", "stability_report", "coercivity_check"}
GRADED = {"T", "N", "gamma", "p", "first_interval_linear"}
GEOMETRIC = {"T", "T_1", "delta", "L", "mu"}
FEM = {"elements", "degree"}
# run kind -> (subcommand, config text, fields it reads, the run's name)
RUN_KINDS = {
    "graded-solve": ("solve", "", SOLVE | GRADED, "a graded solve"),
    "graded-solve-coercivity": ("solve", "[diagnostics]\ncoercivity_check = true\n",
                                SOLVE | GRADED | {"seed"}, "a graded solve"),
    "geometric-solve": ("solve", "[mesh]\nfamily = geometric\n", SOLVE | GEOMETRIC, "a geometric solve"),
    "geometric-solve-coercivity": (
        "solve", "[mesh]\nfamily = geometric\n[diagnostics]\ncoercivity_check = true\n",
        SOLVE | GEOMETRIC | {"seed"}, "a geometric solve"),
    "fem-graded-solve": ("solve", "[backend]\ntype = fem\n", SOLVE | GRADED | FEM, "a graded solve"),
    "h-study": ("h-study", "[study]\nNs = 4\n",
                RUN | {"gammas", "gamma", "ps", "p", "Ns", "T", "first_interval_linear"}, "an h-study"),
    "hp-study": ("hp-study", "[study]\nLs = 2\n",
                 RUN | {"deltas", "delta", "Ls", "mu", "T_1", "T"}, "an hp-study"),
    "delta-sweep": ("delta-sweep", "[study]\ndeltas = 0.3\n",
                    RUN | {"alphas", "deltas", "L", "mu", "T_1", "T"}, "a delta-sweep"),
    "fem-hp-study": ("hp-study", "[backend]\ntype = fem\n[study]\nLs = 2\n",
                     RUN | {"deltas", "delta", "Ls", "mu", "T_1", "T"} | FEM, "an hp-study"),
}
# section, key and a valid value other than the default, for every field
NON_DEFAULT = [
    ("problem", "alpha", "-0.6"), ("problem", "diffusivity", "2.0"),
    ("mesh", "family", "geometric"), ("mesh", "T", "2.0"), ("mesh", "N", "3"),
    ("mesh", "gamma", "1.5"), ("mesh", "p", "2"), ("mesh", "first_interval_linear", "true"),
    ("mesh", "T_1", "0.5"), ("mesh", "delta", "0.3"), ("mesh", "L", "2"), ("mesh", "mu", "1.5"),
    ("backend", "type", "fem"), ("backend", "elements", "4"), ("backend", "degree", "1"),
    ("study", "m", "3"), ("study", "gammas", "1.2"), ("study", "ps", "2"), ("study", "Ns", "3"),
    ("study", "deltas", "0.2"), ("study", "Ls", "3"), ("study", "alphas", "-0.4"),
    ("diagnostics", "stability_report", "true"), ("diagnostics", "coercivity_check", "true"),
    ("diagnostics", "seed", "5"), ("output", "out", "elsewhere"),
    ("expect", "error_max", "1.0"), ("expect", "rate_min", "0.5"), ("expect", "rate_max", "9.0"),
]


def test_non_default_values_cover_every_field():
    keys = [key for _, key, _ in NON_DEFAULT]
    assert sorted(keys) == sorted({"type" if f.name == "backend" else f.name for f in fields(RunConfig)})
    base = "[problem]\nalpha = -0.5\n"
    for section, key, value in NON_DEFAULT[1:]:
        assert parse_config(base + f"[{section}]\n{key} = {value}\n") != parse_config(base), key


@pytest.mark.parametrize("kind", RUN_KINDS)
def test_a_field_the_run_does_not_read_is_a_config_error(tmp_path, capsys, kind):
    command, base, reads, run = RUN_KINDS[kind]
    base = "[problem]\nalpha = -0.5\n" + base
    for section, key, value in NON_DEFAULT:
        if f"\n{key} = " in base:
            continue  # the run kind already gives it
        text = base + f"[{section}]\n{key} = {value}\n"
        if key in reads:
            # a read field passes, even one that changes the kind of run
            cli._check_reads(command, parse_config(text))
            continue
        out = tmp_path / key
        status = main([command, "--config", _write_config(tmp_path, text), "--out", str(out)])
        assert status == EXIT_USAGE, key
        assert capsys.readouterr().err == f"config error: {key}: {run} does not read it\n"
        assert not out.exists(), key


@pytest.mark.parametrize(
    "command, text, flags, message",
    [
        pytest.param("solve", "delta = 0.3\nL = 2\nT_1 = 0.5\nmu = 2.0\n[backend]\nelements = 8\ndegree = 3\n",
                     [], "T_1, delta, L, mu, elements, degree: a graded solve does not read them",
                     id="graded-solve-given-geometric-and-fem-keys"),
        pytest.param("h-study", "family = geometric\nN = 99\n[study]\nalphas = -0.3, -0.9\nNs = 4\n",
                     [], "family, N, alphas: an h-study does not read them", id="h-study-given-solve-keys"),
        pytest.param("solve", "[diagnostics]\nseed = 9\n", [], "seed: a graded solve does not read it",
                     id="seed-without-coercivity-check"),
        pytest.param("solve", "family = geometric\ngamma = 3\np = 2\nN = 50\nfirst_interval_linear = true\n",
                     [], "N, gamma, p, first_interval_linear: a geometric solve does not read them",
                     id="geometric-solve-given-graded-keys"),
        pytest.param("hp-study", "[study]\nLs = 2\n", ["--seed", "3"], "seed: an hp-study does not read it",
                     id="study-given-seed-flag"),
    ],
)
def test_unread_keys_are_named_with_the_run(tmp_path, capsys, command, text, flags, message):
    cfg = _write_config(tmp_path, f"[problem]\nalpha = -0.5\n[mesh]\n{text}")
    status = main([command, "--config", cfg, "--out", str(tmp_path / "out")] + flags)
    assert status == EXIT_USAGE
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not (tmp_path / "out").exists()
