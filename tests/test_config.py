"""Config text: parsing, validation messages, canonical round trip."""

from dataclasses import fields
from pathlib import Path

import pytest

from fracdg.cli import _SELFTEST_CONFIGS
from fracdg.config import (
    _PARSERS,
    _RENAMED,
    _SECTIONS,
    ConfigError,
    RunConfig,
    config_hash,
    parse_config,
)
from support import serialize

MINIMAL = """
[problem]
alpha = -0.7
"""

FULL = """
# comment line
[problem]
alpha = -0.7          # trailing comment
diffusivity = 1.0

[mesh]
family = geometric
T = 2.0
T_1 = 1.0
delta = 0.24
L = 7
mu = 1.0

[backend]
type = fem
elements = 32
degree = 2

[study]
m = 60
deltas = 0.21, 0.24, 0.27
Ls = 3, 4, 5

[diagnostics]
stability_report = true
seed = 11

[expect]
error_max = 5e-7
rate_min = 2.0
"""


def test_parse_minimal_fills_defaults():
    config = parse_config(MINIMAL)
    assert config.alpha == -0.7
    assert config.T_1 == 1.0 and config.seed is None
    assert config.family == "graded"
    assert config.backend == "spectral"
    assert config.m == 10
    assert config.Ns == ()
    assert (config.error_max, config.rate_min, config.rate_max) == (None, None, None)


def test_parse_full():
    config = parse_config(FULL)
    assert config.family == "geometric"
    assert config.T == 2.0 and config.T_1 == 1.0
    assert config.deltas == (0.21, 0.24, 0.27)
    assert config.Ls == (3, 4, 5)
    assert config.backend == "fem" and config.elements == 32
    assert config.stability_report is True and config.seed == 11
    assert (config.error_max, config.rate_min, config.rate_max) == (5e-7, 2.0, None)


def test_round_trip_identity():
    for text in (MINIMAL, FULL):
        config = parse_config(text)
        again = parse_config(serialize(config))
        assert again == config
        assert serialize(again) == serialize(config)


def test_hash_separates_configs():
    base = parse_config(MINIMAL)
    other = parse_config(MINIMAL.replace("-0.7", "-0.5"))
    assert config_hash(base) != config_hash(other)
    assert config_hash(base) == config_hash(parse_config(serialize(base)))
    # an unset seed hashes as the seed 1 that every text hashed before it wrote
    assert config_hash(parse_config(MINIMAL + "[diagnostics]\nseed = 1\n")) == config_hash(base)
    assert len(config_hash(base)) == 12


def test_hash_of_shipped_and_selftest_configs_is_pinned():
    # study CSVs, summaries and the benchmark reference carry these hashes
    configs = Path(__file__).parent.parent / "configs"
    shipped = {"table1": "b2024f1d1de6", "table2": "e28a57b2d684", "fig2": "0b7a44c14d6c",
               "table2_fem": "5e30d7d5755a"}
    for name, digest in shipped.items():
        assert config_hash(parse_config((configs / f"{name}.cfg").read_text())) == digest
    selftest = {
        "solve": "af83af7c84c0",
        "h-study": "b41476efe4ed",
        "hp-study": "20656159680d",
        "delta-sweep": "f61f5481682d",
    }
    assert {name: config_hash(parse_config(text)) for name, text in _SELFTEST_CONFIGS.items()} == selftest


@pytest.mark.parametrize(
    "snippet,fragment",
    [
        ("[problem]\ndiffusivity = 1.0", "alpha"),
        ("[problem]\nalpha = -1.5", "alpha must lie in [-0.99, 0)"),
        ("[problem]\nalpha = 0.3", "alpha must lie in [-0.99, 0)"),
        ("[problem]\nalpha = -0.995", "alpha must lie in [-0.99, 0), got -0.995"),
        ("[problem]\nalpha = -0.5\n[study]\nalphas = -0.5, -0.995",
         "alphas entries must lie in [-0.99, 0), got -0.995"),
        ("[problem]\nalpha = -0.5\n[mesh]\ngamma = 0.9", "gamma must be >= 1"),
        ("[problem]\nalpha = -0.5\n[mesh]\ndelta = 1.0", "delta must lie in (0, 1)"),
        ("[problem]\nalpha = -0.5\n[mesh]\np = 0", "p must lie in [1, 11]"),
        ("[problem]\nalpha = -0.5\n[mesh]\np = 12", "p must lie in [1, 11], got 12"),
        ("[problem]\nalpha = -0.5\n[study]\nm = 0", "m must be >= 1"),
        ("[problem]\nalpha = -0.5\n[study]\nNs = 4, -2", "Ns entries must be >= 1"),
        ("[problem]\nalpha = -0.5\n[study]\nNs = 4,,6", "Ns has an empty entry: '4,,6'"),
        ("[problem]\nalpha = -0.5\n[study]\nLs = 3, 4,", "Ls has an empty entry: '3, 4,'"),
        ("[problem]\nalpha = -0.5\n[mesh]\nwidth = 1", "mesh.width"),
        ("[problem]\nalpha = -0.5\n[study]\nthreads = 1", "unknown key study.threads"),
        ("[problem]\nalpha = -0.5\n[grid]\nN = 4", "unknown section"),
        ("[problem]\nalpha = -0.5\n[mesh]\nN = 4.5", "N must be an integer"),
        ("[problem]\nalpha = -0.5\n[diagnostics]\nseed = maybe", "seed must be an integer"),
        ("[problem]\nalpha = -0.5\n[diagnostics]\nstability_report = yep", "true or false"),
        ("alpha = -0.5", "outside any section"),
        ("[problem]\nalpha -0.5", "key = value"),
        ("[problem]\nalpha = -0.5\n[expect]\nbudget = 3", "unknown key expect.budget"),
        ("[problem]\nname = two_mode\nalpha = -0.5", "unknown key problem.name"),
        ("[problem]\nalpha = -0.5\nalpha = -0.7", "alpha given twice (lines 2 and 3)"),
        ("[problem]\nalpha = -0.5\n[study]\nm = 5\n[study]\nm = 6", "m given twice (lines 4 and 6)"),
        ("[problem]\nalpha = -0.5\n[backend]\ntype = exact", "spectral or fem"),
        ("[problem]\nalpha = -0.5\n[mesh]\ngamma = inf", "gamma must be a finite number"),
        ("[problem]\nalpha = -0.5\n[mesh]\nT = inf", "T must be a finite number"),
        ("[problem]\nalpha = -0.5\n[mesh]\nmu = inf", "mu must be a finite number"),
        ("[problem]\nalpha = nan", "alpha must be a finite number"),
        ("[problem]\nalpha = -0.5\n[study]\ndeltas = 0.2, nan", "deltas must be a finite number"),
        ("[problem]\nalpha = -0.5\n[expect]\nerror_max = nan", "error_max must be a finite number"),
        ("[problem]\nalpha = -0.5\n[mesh]\nT = soon", "T must be a number, got 'soon'"),
        ("[problem]\nalpha = -0.5\n[study]\nalphas = -0.5, 0.2",
         "alphas entries must lie in [-0.99, 0), got 0.2"),
        ("[problem]\nalpha = -0.5\ndiffusivity = 0", "diffusivity must be positive, got 0.0"),
        ("[problem]\nalpha = -0.5\n[mesh]\nfamily = uniform",
         "family must be graded or geometric, got 'uniform'"),
        ("[problem]\nalpha = -0.5\n[mesh]\nT = -1", "T must be positive, got -1.0"),
        ("[problem]\nalpha = -0.5\n[mesh]\nT = 1.0\nT_1 = 2.0", "T_1 must lie in (0, T], got 2.0"),
        ("[problem]\nalpha = -0.5\n[mesh]\nT = 0.5\nT_1 = 1.0", "T_1 must lie in (0, T], got 1.0"),
        ("[problem]\nalpha = -0.5\n[mesh]\nN = 0", "N must be >= 1, got 0"),
        ("[problem]\nalpha = -0.5\n[study]\ngammas = 1.5, 0.5", "gammas entries must be >= 1, got 0.5"),
        ("[problem]\nalpha = -0.5\n[study]\nps = 1, 0", "ps entries must lie in [1, 11], got 0"),
        ("[problem]\nalpha = -0.5\n[study]\nps = 1, 12", "ps entries must lie in [1, 11], got 12"),
        ("[problem]\nalpha = -0.5\n[mesh]\nL = 11", "mu = 1.0 and L, 11, give a geometric top degree"),
        ("[problem]\nalpha = -0.5\n[mesh]\nL = 2\nmu = 3.0\n[study]\nLs = 3, 2",
         "mu = 3.0 and the largest Ls entry, 3, give a geometric top degree floor(mu (L + 1)) above 11"),
        ("[problem]\nalpha = -0.5\n[study]\ndeltas = 0.2, 1.5",
         "deltas entries must lie in (0, 1), got 1.5"),
        ("[problem]\nalpha = -0.5\n[mesh]\nL = 0", "L must be >= 1, got 0"),
        ("[problem]\nalpha = -0.5\n[study]\nLs = 3, 0", "Ls entries must be >= 1, got 0"),
        ("[problem]\nalpha = -0.5\n[mesh]\nmu = 0", "mu must be positive, got 0.0"),
        ("[problem]\nalpha = -0.5\n[backend]\nmodes = 0", "unknown key backend.modes"),
        ("[problem]\nalpha = -0.5\n[backend]\nelements = 1", "elements must be >= 2, got 1"),
        ("[problem]\nalpha = -0.5\n[backend]\ndegree = 0", "degree must be >= 1, got 0"),
        ("[problem]\nalpha = -0.5\n[diagnostics]\nseed = -1", "seed must be >= 0, got -1"),
    ],
)
def test_validation_messages(snippet, fragment):
    with pytest.raises(ConfigError) as info:
        parse_config(snippet)
    assert fragment in str(info.value)


def test_the_degree_bound_admits_its_own_degree():
    # p, every ps entry and the geometric top degree floor(mu (L + 1)) may reach 11
    assert parse_config(MINIMAL + "[mesh]\np = 11\nL = 10\n[study]\nps = 1, 11").p == 11
    assert parse_config(MINIMAL + "[mesh]\nL = 12\nmu = 2.75\n[study]\nLs = 3, 2").mu == 2.75
    assert parse_config(MINIMAL + "[mesh]\nL = 3\nmu = 2.75").L == 3


def test_the_order_bound_admits_its_own_order():
    # alpha and every alphas entry may reach -0.99, where the difference
    # branch still meets its oracle at every degree up to 11
    config = parse_config("[problem]\nalpha = -0.99\n[study]\nalphas = -0.99, -0.5")
    assert (config.alpha, config.alphas) == (-0.99, (-0.99, -0.5))


def test_unset_T_1_refines_the_whole_horizon_below_one():
    geometric = parse_config("[problem]\nalpha = -0.5\n[mesh]\nfamily = geometric\nT = 0.5\n")
    assert geometric.T_1 == 0.5
    assert parse_config(MINIMAL + "[mesh]\nT = 2.0\n").T_1 == 1.0
    assert RunConfig(alpha=-0.5, T=0.25).T_1 == 0.25


def test_serialize_skips_empty_lists():
    text = serialize(parse_config(MINIMAL))
    assert "gammas" not in text
    assert "alpha = -0.7" in text
    assert "[expect]" not in text


def test_direct_construction_validates_via_parse():
    config = RunConfig(alpha=-0.5, deltas=(0.2, 0.3))
    assert parse_config(serialize(config)) == config


def test_sections_name_every_field_once_and_every_type_parses():
    keys = [key for section in _SECTIONS.values() for key in section]
    names = [_RENAMED.get(key, key) for key in keys]
    assert sorted(names) == sorted(f.name for f in fields(RunConfig))
    assert len(set(names)) == len(names) == 29
    assert all(f.type in _PARSERS for f in fields(RunConfig))
