"""Run configuration: plain-text parsing, validation, canonical form.

Grammar: flat `key = value` lines grouped under `[section]` headers; blank
lines and `#` comments are ignored.  Values are booleans (`true`/`false`),
integers, floats, bare strings, or comma-separated lists of numbers.  The
sections and their keys are fixed (`_SECTIONS`); each key is one typed
`RunConfig` field of the same name, except `type` (field `backend`), and
the field's type picks the parser.  Unknown sections or keys and a key
given twice are rejected, and all numeric ranges are checked at parse
time with messages naming the offending key.
`config_hash` hashes a canonical rendering (fixed order, shortest
round-trip floats, a section only when one of its keys is set) that also
carries the removed keys' old lines.
"""

import hashlib
import math
from dataclasses import dataclass, fields

__all__ = ["ConfigError", "RunConfig", "parse_config", "config_hash"]


class ConfigError(ValueError):
    """Invalid, missing, or out-of-range configuration input."""


@dataclass(frozen=True)
class RunConfig:
    """All knobs of one run; study lists stay empty for single solves.  When
    unset (None), an expectation goes unchecked, seed is 1, T_1 is min(1, T)."""

    alpha: float = None
    diffusivity: float = 1.0
    family: str = "graded"
    T: float = 1.0
    N: int = 16
    gamma: float = 1.0
    p: int = 1
    first_interval_linear: bool = False
    T_1: float = None
    delta: float = 0.25
    L: int = 5
    mu: float = 1.0
    backend: str = "spectral"
    elements: int = 64
    degree: int = 2
    m: int = 10
    gammas: tuple[float, ...] = ()
    ps: tuple[int, ...] = ()
    Ns: tuple[int, ...] = ()
    deltas: tuple[float, ...] = ()
    Ls: tuple[int, ...] = ()
    alphas: tuple[float, ...] = ()
    stability_report: bool = False
    coercivity_check: bool = False
    seed: int = None
    out: str = "results"
    error_max: float = None
    rate_min: float = None
    rate_max: float = None

    def __post_init__(self):
        if self.T_1 is None:
            object.__setattr__(self, "T_1", min(1.0, self.T))


# section -> its keys, in canonical order
_SECTIONS = {
    "problem": ("alpha", "diffusivity"),
    "mesh": ("family", "T", "N", "gamma", "p", "first_interval_linear", "T_1", "delta", "L", "mu"),
    "backend": ("type", "elements", "degree"),
    "study": ("m", "gammas", "ps", "Ns", "deltas", "Ls", "alphas"),
    "diagnostics": ("stability_report", "coercivity_check", "seed"),
    "output": ("out",),
    "expect": ("error_max", "rate_min", "rate_max"),
}
# the keys whose RunConfig field has another name
_RENAMED = {"type": "backend"}
# The hashed grammar: _SECTIONS plus the removed keys every hashed text
# carried, where they stood; a key no field sets renders its one old value.
_HASHED_SECTIONS = {
    **_SECTIONS,
    "problem": ("name", *_SECTIONS["problem"]),
    "backend": ("type", "modes", *_SECTIONS["backend"][1:]),
    "study": (*_SECTIONS["study"], "threads"),
}
_HASHED_FILLS = {"name": "two_mode", "modes": 0, "threads": 1, "seed": 1}


def _parse_bool(key, text):
    low = text.lower()
    if low in ("true", "false"):
        return low == "true"
    raise ConfigError(f"{key} must be true or false, got {text!r}")


def _parse_int(key, text):
    try:
        return int(text)
    except ValueError:
        raise ConfigError(f"{key} must be an integer, got {text!r}") from None


def _parse_float(key, text):
    try:
        value = float(text)
    except ValueError:
        raise ConfigError(f"{key} must be a number, got {text!r}") from None
    if not math.isfinite(value):
        raise ConfigError(f"{key} must be a finite number, got {text!r}")
    return value


def _parse_list(parse):
    def parse_list(key, text):
        parts = [part.strip() for part in text.split(",")]
        if "" in parts:
            raise ConfigError(f"{key} has an empty entry: {text!r}")
        return tuple(parse(key, part) for part in parts)

    return parse_list


# field type -> parser(key, text)
_PARSERS = {
    str: lambda key, text: text,
    bool: _parse_bool,
    int: _parse_int,
    float: _parse_float,
    tuple[int, ...]: _parse_list(_parse_int),
    tuple[float, ...]: _parse_list(_parse_float),
}
_FIELD_TYPES = {f.name: f.type for f in fields(RunConfig)}


# The largest time degree a run may use.  Just below the switch to
# Gauss-Legendre, the difference-of-rules branch of `kernel.power_rule`
# meets the mpmath oracle on both sides up to degree 11 for every exponent
# from -0.99 up (degree 12 misses by 1.2x at -0.99, degree 15 by 1.4x at
# -0.95); a degree p solve takes it at degree p (loads, jump columns) and
# p - 1 (near rows).
_MAX_DEGREE = 11

# The most negative order a run may use.  The same difference branch
# cancels digits as 1/(beta + 1): up to degree `_MAX_DEGREE` it meets the
# oracle for every exponent from -0.99 up, but at -0.999 it misses from
# degree 8 and at -0.99999 from degree 3.  A run's exponents are alpha
# (memory blocks, jump columns) and its loads' alpha, alpha + 1 and
# 2 alpha + 2, none of them below alpha.
_MIN_ALPHA = -0.99

# The longest horizon a run may use.  The exact solution grows as
# t^(alpha+2), and the error measure and the diagnostics square it.  With T
# set to each power of ten, every draw of the generator of
# tests/test_cli.py::test_extreme_valid_solves_finish_or_fail_loudly
# exits 0 with finite numbers or exits 2 naming the interval and the mode
# up to 1e61; at 1e62 a draw fails its stability report without naming
# either, from 1e79 some exit 0 with an infinite error, and at 1e155
# `_jacobi_rule` raises OverflowError.  T_1 <= T bounds T_1 with it.
_MAX_T = 1e61

# (key, list key, requirement, test): the range of each numeric key, and
# of every entry of its list key where it has one
_RANGES = (
    ("alpha", "alphas", f"lie in [{_MIN_ALPHA}, 0)", lambda v: _MIN_ALPHA <= v < 0.0),
    ("diffusivity", None, "be positive", lambda v: v > 0.0),
    ("T", None, "be positive", lambda v: v > 0.0),
    ("N", "Ns", "be >= 1", lambda v: v >= 1),
    ("gamma", "gammas", "be >= 1", lambda v: v >= 1.0),
    ("p", "ps", f"lie in [1, {_MAX_DEGREE}]", lambda v: 1 <= v <= _MAX_DEGREE),
    ("delta", "deltas", "lie in (0, 1)", lambda v: 0.0 < v < 1.0),
    ("L", "Ls", "be >= 1", lambda v: v >= 1),
    ("mu", None, "be positive", lambda v: v > 0.0),
    ("elements", None, "be >= 2", lambda v: v >= 2),
    ("degree", None, "be >= 1", lambda v: v >= 1),
    ("m", None, "be >= 1", lambda v: v >= 1),
    ("seed", None, "be >= 0", lambda v: v >= 0),
)


def _check_range(key, value):
    """ConfigError unless `value` is unset or meets `key`'s `_RANGES` requirement."""
    _, _, rule, holds = next(row for row in _RANGES if row[0] == key)
    if value is not None and not holds(value):
        raise ConfigError(f"{key} must {rule}, got {value}")


def _validate(config):
    if config.alpha is None:
        raise ConfigError("missing required key alpha")
    if config.family not in ("graded", "geometric"):
        raise ConfigError(f"family must be graded or geometric, got {config.family!r}")
    if config.backend not in ("spectral", "fem"):
        raise ConfigError(f"type must be spectral or fem, got {config.backend!r}")
    for key, list_key, rule, holds in _RANGES:
        _check_range(key, getattr(config, key))
        for entry in getattr(config, list_key) if list_key else ():
            if not holds(entry):
                raise ConfigError(f"{list_key} entries must {rule}, got {entry}")
    if config.T > _MAX_T:
        raise ConfigError(f"T must be at most {_MAX_T:g}, got {config.T}")
    if not 0.0 < config.T_1 <= config.T:
        raise ConfigError(f"T_1 must lie in (0, T], got {config.T_1}")
    # the top degree floor(mu (L + 1)) of a geometric mesh, as `mesh.geometric_mesh`
    # floors it, exceeds the bound where its argument reaches the next integer
    levels, name = (max(config.Ls), "the largest Ls entry") if config.Ls else (config.L, "L")
    if config.mu * (levels + 1) + 1e-12 >= _MAX_DEGREE + 1:
        raise ConfigError(
            f"mu = {config.mu} and {name}, {levels}, give a geometric top degree floor(mu (L + 1)) above {_MAX_DEGREE}"
        )


def parse_config(text):
    """RunConfig from config text; raises ConfigError with the key name."""
    values = {}
    seen = {}
    section = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip()
            if section not in _SECTIONS:
                raise ConfigError(f"unknown section [{section}] on line {lineno}")
            continue
        if "=" not in line:
            raise ConfigError(f"expected key = value on line {lineno}, got {line!r}")
        if section is None:
            raise ConfigError(f"key outside any section on line {lineno}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in _SECTIONS[section]:
            raise ConfigError(f"unknown key {section}.{key}")
        if seen.setdefault(key, lineno) != lineno:
            raise ConfigError(f"{key} given twice (lines {seen[key]} and {lineno})")
        name = _RENAMED.get(key, key)
        values[name] = _PARSERS[_FIELD_TYPES[name]](key, value)
    config = RunConfig(**values)
    _validate(config)
    return config


def _format(value):
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, tuple):
        return ", ".join(_format(v) for v in value)
    return str(value)


def _render(config, sections, fills):
    """Config text in a grammar; unset keys take their fill or are left out."""
    lines = []
    for section, keys in sections.items():
        values = [(key, getattr(config, _RENAMED.get(key, key), None)) for key in keys]
        values = [(key, fills.get(key) if value is None else value) for key, value in values]
        entries = [f"{key} = {_format(value)}" for key, value in values if value not in (None, ())]
        if entries:
            lines.extend([f"[{section}]", *entries, ""])
    return "\n".join(lines)


def config_hash(config):
    """Twelve hex digits identifying the config's text in the hashed grammar."""
    text = _render(config, _HASHED_SECTIONS, _HASHED_FILLS)
    return hashlib.sha256(text.encode()).hexdigest()[:12]
