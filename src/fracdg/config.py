"""Run configuration: plain-text parsing, validation, canonical form.

Grammar: flat `key = value` lines grouped under `[section]` headers; blank
lines and `#` comments are ignored.  Values are booleans (`true`/`false`),
integers, floats, bare strings, or comma-separated lists of numbers.  The
sections and keys are fixed:

    [problem]      name, alpha, diffusivity
    [mesh]         family (graded|geometric), T, N, gamma, p,
                   first_interval_linear, T_1, delta, L, mu
    [backend]      type (spectral|fem), modes, elements, degree
    [study]        m, gammas, ps, Ns, deltas, Ls, alphas
    [diagnostics]  stability_report, coercivity_check, seed
    [output]       out
    [expect]       error_max, rate_min, rate_max

Unknown sections or keys are rejected, and all numeric ranges are checked
at parse time with messages naming the offending key.  `serialize` emits
a canonical rendering (fixed order, shortest round-trip floats) so that
parse -> serialize -> parse is the identity and the config hash is stable.
"""

import hashlib
import math
from dataclasses import dataclass, field

__all__ = ["ConfigError", "RunConfig", "parse_config", "serialize", "config_hash"]


class ConfigError(ValueError):
    """Invalid, missing, or out-of-range configuration input."""


@dataclass(frozen=True)
class RunConfig:
    """All knobs of one run; study lists stay empty for single solves."""

    problem: str = "two_mode"
    alpha: float = None
    diffusivity: float = 1.0
    family: str = "graded"
    T: float = 1.0
    N: int = 16
    gamma: float = 1.0
    p: int = 1
    first_interval_linear: bool = False
    T_1: float = 1.0
    delta: float = 0.25
    L: int = 5
    mu: float = 1.0
    backend: str = "spectral"
    modes: int = 0
    elements: int = 64
    degree: int = 2
    m: int = 10
    gammas: tuple = ()
    ps: tuple = ()
    Ns: tuple = ()
    deltas: tuple = ()
    Ls: tuple = ()
    alphas: tuple = ()
    stability_report: bool = False
    coercivity_check: bool = False
    seed: int = 1
    out: str = "results"
    expect: dict = field(default_factory=dict)


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


def _parse_floats(key, text):
    return tuple(_parse_float(key, part.strip()) for part in text.split(",") if part.strip())


def _parse_ints(key, text):
    return tuple(_parse_int(key, part.strip()) for part in text.split(",") if part.strip())


def _parse_str(key, text):
    return text


# section -> key -> (attribute, parser); key names double as attribute names
_SCHEMA = {
    "problem": {
        "name": ("problem", _parse_str),
        "alpha": ("alpha", _parse_float),
        "diffusivity": ("diffusivity", _parse_float),
    },
    "mesh": {
        "family": ("family", _parse_str),
        "T": ("T", _parse_float),
        "N": ("N", _parse_int),
        "gamma": ("gamma", _parse_float),
        "p": ("p", _parse_int),
        "first_interval_linear": ("first_interval_linear", _parse_bool),
        "T_1": ("T_1", _parse_float),
        "delta": ("delta", _parse_float),
        "L": ("L", _parse_int),
        "mu": ("mu", _parse_float),
    },
    "backend": {
        "type": ("backend", _parse_str),
        "modes": ("modes", _parse_int),
        "elements": ("elements", _parse_int),
        "degree": ("degree", _parse_int),
    },
    "study": {
        "m": ("m", _parse_int),
        "gammas": ("gammas", _parse_floats),
        "ps": ("ps", _parse_ints),
        "Ns": ("Ns", _parse_ints),
        "deltas": ("deltas", _parse_floats),
        "Ls": ("Ls", _parse_ints),
        "alphas": ("alphas", _parse_floats),
    },
    "diagnostics": {
        "stability_report": ("stability_report", _parse_bool),
        "coercivity_check": ("coercivity_check", _parse_bool),
        "seed": ("seed", _parse_int),
    },
    "output": {"out": ("out", _parse_str)},
}
_EXPECT_KEYS = ("error_max", "rate_min", "rate_max")


# (key, list key, requirement, test): the range of each numeric key, and
# of every entry of its list key where it has one
_RANGES = (
    ("alpha", "alphas", "lie in (-1, 0)", lambda v: -1.0 < v < 0.0),
    ("diffusivity", None, "be positive", lambda v: v > 0.0),
    ("T", None, "be positive", lambda v: v > 0.0),
    ("N", "Ns", "be >= 1", lambda v: v >= 1),
    ("gamma", "gammas", "be >= 1", lambda v: v >= 1.0),
    ("p", "ps", "be >= 1", lambda v: v >= 1),
    ("delta", "deltas", "lie in (0, 1)", lambda v: 0.0 < v < 1.0),
    ("L", "Ls", "be >= 1", lambda v: v >= 1),
    ("mu", None, "be positive", lambda v: v > 0.0),
    ("modes", None, "be >= 0", lambda v: v >= 0),
    ("elements", None, "be >= 2", lambda v: v >= 2),
    ("degree", None, "be >= 1", lambda v: v >= 1),
    ("m", None, "be >= 1", lambda v: v >= 1),
)


def _validate(config):
    if config.problem != "two_mode":
        raise ConfigError(f"problem must be two_mode, got {config.problem!r}")
    if config.alpha is None:
        raise ConfigError("missing required key alpha")
    if config.family not in ("graded", "geometric"):
        raise ConfigError(f"family must be graded or geometric, got {config.family!r}")
    if config.backend not in ("spectral", "fem"):
        raise ConfigError(f"type must be spectral or fem, got {config.backend!r}")
    for key, list_key, rule, holds in _RANGES:
        value = getattr(config, key)
        if not holds(value):
            raise ConfigError(f"{key} must {rule}, got {value}")
        for entry in getattr(config, list_key) if list_key else ():
            if not holds(entry):
                raise ConfigError(f"{list_key} entries must {rule}, got {entry}")
    if not 0.0 < config.T_1 <= config.T:
        raise ConfigError(f"T_1 must lie in (0, T], got {config.T_1}")


def parse_config(text):
    """RunConfig from config text; raises ConfigError with the key name."""
    values = {}
    expect = {}
    section = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip()
            if section not in _SCHEMA and section != "expect":
                raise ConfigError(f"unknown section [{section}] on line {lineno}")
            continue
        if "=" not in line:
            raise ConfigError(f"expected key = value on line {lineno}, got {line!r}")
        if section is None:
            raise ConfigError(f"key outside any section on line {lineno}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if section == "expect":
            if key not in _EXPECT_KEYS:
                raise ConfigError(f"unknown expect key {key!r}")
            expect[key] = _parse_float(key, value)
            continue
        if key not in _SCHEMA[section]:
            raise ConfigError(f"unknown key {section}.{key}")
        attribute, parser = _SCHEMA[section][key]
        values[attribute] = parser(key, value)
    config = RunConfig(expect=expect, **values)
    _validate(config)
    return config


def _format(value):
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, tuple):
        return ", ".join(_format(v) for v in value)
    return str(value)


def serialize(config):
    """Canonical config text: fixed section and key order."""
    lines = []
    for section, keys in _SCHEMA.items():
        lines.append(f"[{section}]")
        for key, (attribute, _) in keys.items():
            value = getattr(config, attribute)
            if value is None or value == ():
                continue
            lines.append(f"{key} = {_format(value)}")
        lines.append("")
    if config.expect:
        lines.append("[expect]")
        for key in _EXPECT_KEYS:
            if key in config.expect:
                lines.append(f"{key} = {_format(config.expect[key])}")
        lines.append("")
    return "\n".join(lines)


# A removed [study] key, 1 in every canonical text ever hashed: the hash
# keeps its line at the end of [study] so that written results keep their
# config hashes.  It is not a key, so no config can set it.
_HASHED_STUDY_TAIL = "threads = 1"


def config_hash(config):
    """Twelve hex digits identifying the canonical config text."""
    text = serialize(config).replace(
        "\n\n[diagnostics]\n", f"\n{_HASHED_STUDY_TAIL}\n\n[diagnostics]\n", 1
    )
    return hashlib.sha256(text.encode()).hexdigest()[:12]
