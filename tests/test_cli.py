"""Command-line driver: outputs, determinism, exit codes."""

import warnings
from dataclasses import replace
from pathlib import Path

import pytest

from fracdg import analysis, cli, kernel
from fracdg.cli import EXIT_GATE, EXIT_NUMERICAL, EXIT_OK, EXIT_USAGE, main
from fracdg.config import parse_config

MINIMAL = """
[problem]
name = two_mode
alpha = -0.7
[mesh]
family = graded
gamma = 1.6
N = 18
p = 1
[backend]
type = spectral
modes = 2
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
    [("table2", "hp-study"), ("fig2", "delta-sweep")],
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
    cfg = _write_config(tmp_path, "[problem]\nname = two_mode\n")
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
    "gate,fragment",
    [("rate_min = 50", "rate_min: slowest rate "), ("rate_max = 0.01", "rate_max: fastest rate ")],
)
def test_rate_gate_exit(tmp_path, capsys, gate, fragment):
    cfg = _write_config(tmp_path, H_STUDY + f"[expect]\n{gate}\n")
    status = main(["h-study", "--config", cfg, "--out", str(tmp_path / "out")])
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
    grids = "Ns = 4\nLs = 2\ndeltas = 0.3\n"
    spectral = MINIMAL.replace("modes = 2", "modes = 5")
    # 8 P2 elements carry 15 discrete modes
    fem = MINIMAL.replace("type = spectral\nmodes = 2", "type = fem\nelements = 8\nmodes = 5")
    for backend, text in (("spectral", spectral), ("fem", fem)):
        cfg = _write_config(tmp_path, text + grids, name=f"{backend}.cfg")
        status = main([command, "--config", cfg, "--out", str(tmp_path / backend)])
        assert status == EXIT_USAGE, backend
        assert "modes" in capsys.readouterr().err, backend


def test_shipped_configs_parse():
    from pathlib import Path
    from fracdg.config import parse_config

    for name in ("table1.cfg", "table2.cfg", "fig2.cfg"):
        config = parse_config((Path(__file__).parent.parent / "configs" / name).read_text())
        assert config.alpha is not None
