"""Plain-text run configuration: bracketed sections of key = value lines.

Grammar (one nesting level only):

    # comment (also ';'); blank lines ignored
    [section]
    key = value              # scalars
    key = a, b, c            # comma-separated lists
    check.param = value      # per-check parameters inside [checks]

Every key takes one path, its kind from ``_SCHEMA`` (which lists each
``<check>.<param>`` of ``registry.CHECKS``) and its bound from ``_LIMITS``.
Unknown sections or keys are hard errors (with a closest-match hint); every
error carries its line number.
"""

from __future__ import annotations

import difflib
import math
from dataclasses import asdict, dataclass, field

from . import registry
from .grid import BOUNDARY_MODES
from .lxf import SCHEME_KEYS

# value kinds: float, int, str, list_float, list_int, list_str, enum:<...>
_SCHEMA = {
    "model": {
        "name": "enum:" + ",".join(registry.MODELS),
        **{key: kind for entry in registry.MODELS.values()
           for key, kind in entry.keys.items()},
    },
    "grid": {
        "shape": "list_int",
        "h": "float",
        "origin": "list_float",
        "boundary": "enum:" + ",".join(BOUNDARY_MODES),
    },
    "scheme": {spec.key: spec.kind for spec in SCHEME_KEYS.values()},
    "initial": {
        "profile": "enum:" + ",".join(registry.PROFILES),
        **{key: kind for entry in registry.PROFILES.values()
           for key, kind in entry.keys.items()},
    },
    "checks": {
        "names": "list_str",
        **{f"{name}.{param}": kind for name, entry in registry.CHECKS.items()
           for param, kind in entry.params.items()},
    },
    "output": {"dir": "str"},
}

# (section, key) -> (test that flags a bad parsed value, what the error says)
_LIMITS = {
    **{("scheme", spec.key): (spec.bad, spec.rule) for spec in SCHEME_KEYS.values()},
    ("grid", "h"): (lambda v: v <= 0, "must be positive"),
    ("grid", "shape"): (lambda v: any(s < 1 for s in v), "entries must be >= 1"),
    ("model", "gamma"): (lambda v: v <= 1, "must exceed 1"),
    ("model", "lam"): (lambda v: v < 0, "must be non-negative"),
    ("model", "flux_coeffs"): (lambda v: not v, "must list at least one coefficient"),
    ("initial", "radius"): (lambda v: v <= 0, "must be positive"),
    ("checks", "is_sh.per_axis"): (lambda v: v < 1, "must be >= 1"),
    ("checks", "viscous_limit.eps"): (lambda v: any(e <= 0 for e in v), "entries must be > 0"),
    ("checks", "viscous_limit.t"): (lambda v: v <= 0, "must be positive"),
    ("checks", "support.radius"): (lambda v: v <= 0, "must be positive"),
    **{("checks", key): (lambda v: v < 0, "must be non-negative")
       for key in ("support.margin_cells", "rh.tol")},
}
_CONVERT = {"float": float, "int": int, "str": str}


class ConfigError(ValueError):
    """Parse or validation failure; ``errors`` lists (line, message)."""

    def __init__(self, errors):
        self.errors = list(errors)
        super().__init__("; ".join(f"line {ln}: {msg}" for ln, msg in self.errors))


@dataclass
class RunConfig:
    """Validated configuration.  Sections are plain dicts keyed by the
    schema names; check parameters live under checks_params[check]."""

    model: dict
    grid: dict = field(default_factory=dict)
    scheme: dict = field(default_factory=dict)
    initial: dict = field(default_factory=dict)
    checks: list = field(default_factory=list)
    checks_params: dict = field(default_factory=dict)
    output_dir: str = "out"

    def echo(self) -> dict:
        return asdict(self)


def _suggest(word, options):
    match = difflib.get_close_matches(word, options, n=1, cutoff=0.6)
    return f" (did you mean '{match[0]}'?)" if match else ""


def _parse_value(kind, raw, line, errors):
    raw = raw.strip()
    if kind.startswith("enum:"):
        options = kind[5:].split(",")
        if raw in options:
            return raw
        errors.append((line, f"value '{raw}' not one of {options}"))
        return None
    try:
        if kind.startswith("list_"):
            value = [_CONVERT[kind[5:]](v.strip()) for v in raw.split(",") if v.strip()]
        else:
            value = _CONVERT[kind](raw)
    except ValueError:
        errors.append((line, f"cannot parse '{raw}' as {kind}"))
        return None
    numbers = value if kind.startswith("list_") else [value]
    if kind.endswith("float") and not all(map(math.isfinite, numbers)):
        errors.append((line, f"value '{raw}' is not finite (nan and inf are rejected)"))
        return None
    return value


def _entry_errors(section: str, selector: str, what: str, table: dict,
                  values: dict, lines: dict) -> list:
    """Errors for the keys of a ``[model]`` or ``[initial]`` section
    against the table entry its ``selector`` key names: each key the entry
    does not take, on its line, and each required key never given, on the
    selector's line."""
    name = values.get(selector)
    if name is None:
        return []
    entry = table[name]
    errors = [(lines[section, key], f"{what} '{name}' does not take key '{key}'"
               f" (it accepts: {', '.join(entry.keys) or 'no keys'})")
              for key in values if key != selector and key not in entry.keys]
    return errors + [(lines[section, selector], f"{what} '{name}' needs key '{key}'")
                     for key in entry.required if (section, key) not in lines]


def parse_config(text: str) -> RunConfig:
    """Parse and validate; raises ConfigError listing every problem with
    its line number."""
    errors = []
    sections = {name: {} for name in _SCHEMA}
    lines = {}  # (section, key) -> the line that gives it, valid or not
    current = None
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.strip()
        if not line or line.startswith("#") or line.startswith(";"):
            continue
        if line.startswith("[") and line.endswith("]"):
            name = line[1:-1].strip()
            if name not in _SCHEMA:
                errors.append((lineno, f"unknown section '[{name}]'"
                               + _suggest(name, list(_SCHEMA))))
                current = None
            else:
                current = name
            continue
        if "=" not in line:
            errors.append((lineno, f"expected 'key = value', got '{line}'"))
            continue
        if current is None:
            errors.append((lineno, "key outside any known section"))
            continue
        key, _, raw_value = line.partition("=")
        key = key.strip()
        if (current, key) in lines:
            errors.append((lineno, f"duplicate key '{key}' in [{current}]"))
            continue
        lines[current, key] = lineno

        if key not in _SCHEMA[current]:
            errors.append((lineno, f"unknown key '{key}' in [{current}]"
                           + _suggest(key, list(_SCHEMA[current]))))
            continue
        value = _parse_value(_SCHEMA[current][key], raw_value, lineno, errors)
        if value is not None:
            sections[current][key] = value
            bad, rule = _LIMITS.get((current, key), (None, ""))
            if bad is not None and bad(value):
                errors.append((lineno, f"'{key}' {rule}"))

    # a selector given with a bad value has its own error on its line
    if ("model", "name") not in lines:
        errors.append((0, "missing required key 'name' in [model]"))
    errors += _entry_errors("model", "name", "model", registry.MODELS,
                            sections["model"], lines)
    errors += _entry_errors("initial", "profile", "profile", registry.PROFILES,
                            sections["initial"], lines)
    if ("initial", "profile") not in lines:
        errors += [(lines["initial", key], f"[initial] key '{key}' needs a 'profile'")
                   for key in sections["initial"]]
    names = sections["checks"].pop("names", [])
    given = {}  # check -> {param: value}, in the order of the lines
    for key, value in sections["checks"].items():
        check, _, param = key.partition(".")
        given.setdefault(check, {})[param] = value
    for i, check in enumerate(names):
        if check in names[:i]:
            errors.append((0, f"check '{check}' listed more than once in checks.names"))
        elif check not in registry.CHECKS:
            errors.append((0, f"unknown check '{check}'"
                           + _suggest(check, list(registry.CHECKS))))
        else:
            entry, params = registry.CHECKS[check], given.get(check, {})
            errors += [(0, f"check '{check}' needs parameter '{check}.{p}'")
                       for p in entry.required if p not in params]
            errors += [(0, f"check '{check}' needs "
                        + " and ".join(f"'{check}.{p}'" for p in group) + " together")
                       for group in entry.together
                       if 0 < sum(p in params for p in group) < len(group)]
    for check in given:
        if check not in names:
            errors.append((0, f"parameters given for check '{check}' that is not "
                           "in checks.names"))

    if errors:
        raise ConfigError(sorted(errors))

    return RunConfig(model=sections["model"], grid=sections["grid"],
                     scheme=sections["scheme"], initial=sections["initial"],
                     checks=names, checks_params=given,
                     output_dir=sections["output"].get("dir", "out"))
