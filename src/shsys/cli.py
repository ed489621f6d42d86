"""Batch front-end: build a named model from a config file, execute the
requested checks and simulation, and emit CSV traces, monitor logs, and a
verdict table.  Models, profiles and checks are entries of the tables in
``shsys.registry``.

Commands:

    shsys run <config> [--output-dir D]
    shsys check <config>      # algebraic checks only, no time integration
    shsys models              # list shipped models and their parameters

Exit status: 0 all checks passed, 1 at least one check failed, 2 execution
error (bad config, aborted run, an artifact that cannot be written, a
number that overflows or an array that cannot be allocated, any other
shsys error).  With identical configs the artifact tree is
byte-identical across runs: nothing time- or host-dependent is written.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys
from dataclasses import MISSING, fields

from .config import ConfigError, RunConfig, parse_config
from .grid import GridField
from .lxf import SCHEME_KEYS, SchemeConfig, run as run_scheme
from .output import RunLog, remove_run_files, write_trace, write_verdicts_csv
from .registry import CHECKS, MODELS, NEEDS, PROFILES, ExecutionError


def _build_grid(cfg: RunConfig, m: int = 1) -> GridField:
    grid = cfg.grid
    if "shape" not in grid or "h" not in grid:
        raise ExecutionError("[grid] needs at least 'shape' and 'h'")
    shape = tuple(grid["shape"])
    origin = grid.get("origin", [0.0] * len(shape))
    if len(origin) != len(shape):
        raise ExecutionError("[grid] origin length must match shape")
    return GridField.zeros(shape=shape, h=grid["h"], origin=origin,
                           m=m, boundary=grid.get("boundary", "periodic"))


def _scheme_config(cfg: RunConfig) -> SchemeConfig | None:
    """The ``[scheme]`` SchemeConfig; None when no required key is given."""
    required = [SCHEME_KEYS[f.name].key for f in fields(SchemeConfig) if f.default is MISSING]
    given = [key for key in required if key in cfg.scheme]
    if given and given != required:
        raise ExecutionError("[scheme] needs " + " and ".join(f"'{key}'" for key in required))
    return SchemeConfig(**{name: cfg.scheme[spec.key] for name, spec in SCHEME_KEYS.items()
                           if spec.key in cfg.scheme}) if given else None


def execute(cfg: RunConfig, output_dir=None, checks_only: bool = False) -> int:
    """Run a validated config; writes artifacts and returns the exit code.
    An ``OSError`` while writing them is an execution error (exit 2), like
    an aborted run, an ``OverflowError`` or a ``MemoryError``; an execution
    error leaves no ``verdicts.csv``.  Once every input is read, or reading
    one failed, this deletes an earlier run's files in the output directory
    (``remove_run_files``), as ``main`` does when the config cannot be read.
    The ``invocation`` event's ``"threads": 1`` and ``"seed": 0`` are
    constants, kept so that artifact trees keep their bytes: no random
    numbers are drawn, and ``output.write_trace`` writes large traces'
    snapshot files on every usable CPU, with the same bytes."""
    out_dir = output_dir or cfg.output_dir
    try:
        os.makedirs(out_dir, exist_ok=True)
        log = RunLog(os.path.join(out_dir, "run.ndjson"))
        log.event("config", **cfg.echo())
        log.event("invocation", threads=1, seed=0, checks_only=checks_only)
    except OSError as exc:
        print(f"error: cannot write the output directory: {exc}", file=sys.stderr)
        return 2

    try:
        trace = initial = None
        try:
            needs_sim = [c for c in cfg.checks if "simulation" in CHECKS[c].needs]
            if checks_only and needs_sim:
                raise ExecutionError(f"checks {needs_sim} need time integration; use 'run'")
            model = MODELS[cfg.model["name"]].build(
                cfg.model, max(1, len(cfg.grid.get("shape", [1]))))
            scheme = None if checks_only else _scheme_config(cfg)
            if scheme is not None and scheme.t_end > 0.0 and model.kind in ("law", "system"):
                grid = _build_grid(cfg, model.system.m)
                profile = cfg.initial.get("profile")
                if profile is None:
                    raise ExecutionError("[initial] needs a profile for time integration")
                initial = PROFILES[profile].build(cfg.initial, grid)
        finally:
            # inputs read, or failed: a 'file' profile may read an earlier snapshot
            remove_run_files(out_dir)

        if initial is not None:
            trace = run_scheme(model.system, initial, scheme, monitors=model.monitors)
            for event in trace.events:
                log.event("scheme", **event)
            write_trace(out_dir, trace)
            if trace.error is not None:
                raise ExecutionError(trace.error)

        rows = []
        for name in cfg.checks:
            check = CHECKS[name]
            for need in check.needs:
                holds, what = NEEDS[need]
                if not holds(model, trace):
                    raise ExecutionError(f"check '{name}' needs {what}")
            rows += check.fn(cfg.checks_params.get(name, {}), model, trace,
                             out_dir, lambda: _build_grid(cfg), cfg.initial)
            log.event("check", name=name, rows=[r.name for r in rows])
        write_verdicts_csv(os.path.join(out_dir, "verdicts.csv"), rows)
        for row in rows:
            log.event("verdict", name=row.name, passed=bool(row.passed),
                      value=row.value, tolerance=row.tolerance)
        failed = [r for r in rows if not r.passed]
        log.event("done", checks=len(rows), failed=len(failed))
    except (OSError, RuntimeError, ValueError, KeyError, OverflowError,
            MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        # no verdict table after an error, not even a partial one or an
        # earlier run's; the log itself may be what failed
        with contextlib.suppress(OSError):
            os.remove(os.path.join(out_dir, "verdicts.csv"))
        with contextlib.suppress(OSError):
            log.event("error", message=str(exc))
        return 2
    return 1 if failed else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="shsys", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    for command, help_ in (("run", "execute checks and simulation"),
                           ("check", "checks only, no time integration")):
        p = sub.add_parser(command, help=help_)
        p.add_argument("config")
        p.add_argument("--output-dir", default=None)

    sub.add_parser("models", help="list shipped models")

    args = parser.parse_args(argv)
    if args.command == "models":
        for name, entry in MODELS.items():
            print(f"{name:12s} {entry.doc}")
        return 0

    try:
        with open(args.config, encoding="utf-8") as handle:
            cfg = parse_config(handle.read())
    except (OSError, UnicodeDecodeError) as exc:
        errors = [f"cannot read config file {args.config}: {exc}"]
    except ConfigError as exc:
        errors = [f"line {line}: {message}" for line, message in exc.errors]
    else:
        return execute(cfg, output_dir=args.output_dir, checks_only=args.command == "check")
    for message in errors:
        print(f"error: {message}", file=sys.stderr)
    if args.output_dir is not None:
        # an earlier run's tree there would read as this run's; with no
        # --output-dir, the [output] dir of a config that failed is not trusted
        with contextlib.suppress(OSError):
            remove_run_files(args.output_dir)
        for name in ("verdicts.csv", "run.ndjson"):
            with contextlib.suppress(OSError):
                os.remove(os.path.join(args.output_dir, name))
    return 2


if __name__ == "__main__":
    sys.exit(main())
