"""Run configuration: plain-text parsing, validation, canonical form.

Grammar: flat `key = value` lines grouped under `[section]` headers; blank
lines and `#` comments are ignored.  Values are booleans (`true`/`false`),
integers, floats, bare strings, or comma-separated lists of numbers.  The
sections and keys are fixed (`_SECTIONS`):

    [problem]      name, alpha, diffusivity
    [mesh]         family (graded|geometric), T, N, gamma, p,
                   first_interval_linear, T_1, delta, L, mu
    [backend]      type (spectral|fem), modes, elements, degree
    [study]        m, gammas, ps, Ns, deltas, Ls, alphas
    [diagnostics]  stability_report, coercivity_check, seed
    [output]       out
    [expect]       error_max, rate_min, rate_max

Each key is one typed `RunConfig` field of the same name, except `name`
(field `problem`) and `type` (field `backend`); the field's type picks the
parser.  Unknown sections or keys are rejected, and all numeric ranges are
checked at parse time with messages naming the offending key.  `serialize`
emits a canonical rendering (fixed order, shortest round-trip floats, a
section only when one of its keys is set) so that parse -> serialize ->
parse is the identity and the config hash is stable.
"""

import hashlib
import math
from dataclasses import dataclass, fields

__all__ = ["ConfigError", "RunConfig", "parse_config", "serialize", "config_hash"]


class ConfigError(ValueError):
    """Invalid, missing, or out-of-range configuration input."""


@dataclass(frozen=True)
class RunConfig:
    """All knobs of one run; study lists stay empty for single solves, and
    an unset expectation (None) is not checked."""

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
    gammas: tuple[float, ...] = ()
    ps: tuple[int, ...] = ()
    Ns: tuple[int, ...] = ()
    deltas: tuple[float, ...] = ()
    Ls: tuple[int, ...] = ()
    alphas: tuple[float, ...] = ()
    stability_report: bool = False
    coercivity_check: bool = False
    seed: int = 1
    out: str = "results"
    error_max: float = None
    rate_min: float = None
    rate_max: float = None


# section -> its keys, in canonical order
_SECTIONS = {
    "problem": ("name", "alpha", "diffusivity"),
    "mesh": ("family", "T", "N", "gamma", "p", "first_interval_linear", "T_1", "delta", "L", "mu"),
    "backend": ("type", "modes", "elements", "degree"),
    "study": ("m", "gammas", "ps", "Ns", "deltas", "Ls", "alphas"),
    "diagnostics": ("stability_report", "coercivity_check", "seed"),
    "output": ("out",),
    "expect": ("error_max", "rate_min", "rate_max"),
}
# the keys whose RunConfig field has another name
_RENAMED = {"name": "problem", "type": "backend"}


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
    return lambda key, text: tuple(parse(key, part.strip()) for part in text.split(",") if part.strip())


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
        name = _RENAMED.get(key, key)
        values[name] = _PARSERS[_FIELD_TYPES[name]](key, value)
    config = RunConfig(**values)
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
    """Canonical config text: fixed section and key order, unset keys and
    sections left out."""
    lines = []
    for section, keys in _SECTIONS.items():
        values = [(key, getattr(config, _RENAMED.get(key, key))) for key in keys]
        entries = [f"{key} = {_format(value)}" for key, value in values if value not in (None, ())]
        if entries:
            lines.extend([f"[{section}]", *entries, ""])
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
