"""Every model, initial profile and check the ``shsys`` command knows by
name, each declared once, in the order ``shsys models`` and the README list
them; ``config`` derives its enums and schemas from these tables.

* ``MODELS``: name -> (doc line, ``[model]`` keys and their value kinds,
  ``build(spec, n)`` from the ``[model]`` section and the grid dimension,
  required keys).
* ``PROFILES``: name -> (``[initial]`` keys and their value kinds, required
  keys, ``build(init, grid)`` from the ``[initial]`` section).
* ``CHECKS``: name -> (``check.param`` kinds, required parameters, the
  ``NEEDS`` keys ``cli.execute`` tests in order, ``fn(params, model, trace,
  out_dir, make_grid, initial)`` -> verdict rows, ``initial`` being the
  ``[initial]`` section); ``fn`` validates only its own parameters, which
  ``config`` has parsed and bounded.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from . import profiles
from .core import SYMMETRY_RTOL, is_sh, sample_box
from .energy import energy as grid_energy, support_test
from .entropy import entropy_pair_residual, hessian_symmetrizer
from .models import (advection_law, burgers_law, ck_realify,
                     euler_conservative_1d, euler_polytropic_sh,
                     maxwell_system, polynomial_scalar_law, tricomi_system,
                     wave_system)
from .output import VISCOUS_LIMIT_CSV, VerdictRow, write_monitor_csv
from .shocks import (entropy_admissible, rh_residual, rh_speed, riemann_scalar,
                     viscous_limit_compare)


class ExecutionError(RuntimeError):
    pass


@dataclass(frozen=True)
class Model:
    """A built model.  ``kind`` is "law", "system" or "tricomi"; ``box`` is
    the state box checks sample; ``q_energy`` is set for linear models only."""

    kind: str
    system: object
    pair: object = None
    monitors: tuple = ()
    q_energy: object = None
    box: tuple = None
    tricomi: object = None


class ModelEntry(NamedTuple):
    doc: str
    keys: dict
    build: Callable
    required: tuple = ()


class Profile(NamedTuple):
    keys: dict
    required: tuple
    build: Callable


class Check(NamedTuple):
    params: dict
    required: tuple
    needs: tuple           # keys of NEEDS, tested in order
    fn: Callable
    together: tuple = ()   # parameter groups given all or none


def _law(law, pair=None, q_energy=None):
    return Model("law", law, pair, box=law.state_box, q_energy=q_energy)


def _linear_system(system, monitors):
    """A constant-coefficient system; its symmetrizer is the energy form."""
    sigma, m = system.symmetrizer, system.m
    return Model("system", system, monitors=monitors, box=(-np.ones(m), np.ones(m)),
                 q_energy=np.eye(m) if sigma is None else sigma.const)


def _scalar(spec, n):
    coeffs = spec["flux_coeffs"]
    try:
        law, pair = polynomial_scalar_law(coeffs)
    except ValueError as exc:
        raise ExecutionError(f"flux_coeffs: {exc}") from None
    return _law(law, pair, q_energy=np.eye(1) if len(coeffs) <= 2 else None)


def _wave(spec, n):
    aj = np.asarray(spec.get("aj", np.zeros(n)), dtype=float)
    ajk = np.asarray(spec.get("ajk", np.eye(n)), dtype=float)
    if ajk.size != n * n:
        raise ExecutionError(f"ajk holds {ajk.size} values; a wave on n = {n} axes "
                             f"takes n * n = {n * n}")
    system, monitor = wave_system(aj, ajk.reshape(n, n))
    return _linear_system(system, (monitor,))


def _euler_sh(spec, n):
    system = euler_polytropic_sh(spec.get("gamma", 1.4), n=n)
    lo = np.concatenate([[0.1], -3.0 * np.ones(n)])
    hi = np.concatenate([[10.0], 3.0 * np.ones(n)])
    return Model("system", system, box=(lo, hi))


def _tricomi(spec, n):
    system, cert = tricomi_system(spec["lam"], spec.get("y_bound", 1.0))
    return Model("tricomi", system, tricomi=cert)


def _ck(spec, n):
    a = complex(spec.get("a_re", 1.0), spec.get("a_im", 0.0))
    system, monitor = ck_realify(np.array([[a]]))
    return _linear_system(system, (monitor,))


MODELS = {
    "scalar": ModelEntry("scalar 1D law with polynomial flux (flux_coeffs = c0, c1, ...)",
                         {"flux_coeffs": "list_float"}, _scalar, ("flux_coeffs",)),
    "burgers": ModelEntry("scalar 1D law f = u^2/2 with entropy pair (u^2, 2u^3/3)",
                          {}, lambda spec, n: _law(*burgers_law())),
    "advection": ModelEntry("scalar 1D law f = a u (parameter a)", {"a": "float"},
                            lambda spec, n: _law(*advection_law(spec.get("a", 1.0)),
                                                 q_energy=np.eye(1))),
    "wave": ModelEntry("first-order wave-equation reduction (aj, ajk; n from grid)",
                       {"aj": "list_float", "ajk": "list_float"}, _wave),
    "maxwell": ModelEntry("Maxwell evolution system, m = 6, n = 3, vacuum sources",
                          {}, lambda spec, n: _linear_system(*maxwell_system())),
    "euler_sh": ModelEntry("polytropic gas in (p, v) unknowns (gamma; n from grid)",
                           {"gamma": "float"}, _euler_sh),
    "euler_cons": ModelEntry("1D gas dynamics in conservative variables (gamma)",
                             {"gamma": "float"}, lambda spec, n: _law(
                                 euler_conservative_1d(spec.get("gamma", 1.4)))),
    "tricomi": ModelEntry(
        "Tricomi-type symmetric positive system (lam, y_bound); no integration",
        {"lam": "float", "y_bound": "float"}, _tricomi, ("lam",)),
    "ck": ModelEntry("realified one-complex-variable analytic system (a_re, a_im)",
                     {"a_re": "float", "a_im": "float"}, _ck),
}

PROFILES = {
    "constant": Profile({"value": "list_float"}, (), lambda init, grid: profiles.constant(
        grid, init.get("value", [0.0] * grid.m))),
    "step": Profile({"left": "list_float", "right": "list_float", "jump_at": "float"},
                    ("left", "right"), lambda init, grid: profiles.step(
                        grid, init["left"], init["right"], init.get("jump_at", 0.0))),
    "bump": Profile({"amplitude": "list_float", "radius": "float", "center": "list_float"},
                    ("radius",), lambda init, grid: profiles.bump(
                        grid, init.get("amplitude", [1.0] * grid.m), init["radius"],
                        init.get("center"))),
    "plane-wave": Profile({"amplitude": "list_float", "modes": "list_int"}, (),
                          lambda init, grid: profiles.plane_wave(
                              grid, init.get("amplitude", [1.0] * grid.m),
                              init.get("modes", [1] * grid.n))),
    "file": Profile({"csv": "str"}, ("csv",),
                    lambda init, grid: profiles.from_csv(grid, init["csv"])),
}


def _given_box(params, model) -> tuple:
    """is_sh's (box_lo, box_hi), checked to hold m values each and, for a
    system, to lie inside its ``SystemDef.state_box``, outside which its
    coefficients need not be defined (euler_sh's at p <= 0)."""
    m = model.system.m
    corners = {key: np.asarray(params[key], dtype=float) for key in ("box_lo", "box_hi")}
    for key, corner in corners.items():
        if corner.size != m:
            raise ExecutionError(f"is_sh.{key} has {corner.size} values, expected m = {m}")
    if model.kind == "system" and model.system.state_box is not None:
        lo, hi = model.system.state_box
        for key, corner in corners.items():
            outside = np.flatnonzero((corner < lo) | (corner > hi))
            if outside.size:
                i = outside[0]
                raise ExecutionError(
                    f"is_sh.{key} = {', '.join(f'{v:g}' for v in corner)} leaves "
                    f"SystemDef.state_box on axis {i}: {corner[i]:g} is not in "
                    f"[{lo[i]:g}, {hi[i]:g}]")
    return params["box_lo"], params["box_hi"]


def _is_sh(params, model, trace, out_dir, make_grid, initial):
    box = _given_box(params, model) if "box_lo" in params else model.box
    # a constant system is certified at its first sample (core.is_sh), which
    # sample_box(*box, 1) is, bit for bit
    constant = model.kind == "system" and model.system.all_constant
    samples = sample_box(*box, 1 if constant else params.get("per_axis", 3))
    if model.kind == "law":
        _, verdict = hessian_symmetrizer(model.system, model.pair, samples=samples)
    else:
        verdict = is_sh(model.system, np.zeros(model.system.n + 1), samples)
    return [VerdictRow("is_sh", verdict.is_sh, float(np.max(verdict.residuals)),
                       f"symmetry rtol {SYMMETRY_RTOL:g}, pivots > 0")]


def _entropy_pair(params, model, trace, out_dir, make_grid, initial):
    tol = 1e-8
    states = sample_box(*model.system.state_box, 33)
    resid = entropy_pair_residual(model.system, model.pair, states)
    return [VerdictRow("entropy_pair", resid <= tol, resid, tol)]


def _energy(params, model, trace, out_dir, make_grid, initial):
    series = [(t, grid_energy(snap, model.q_energy))
              for t, snap in zip(trace.times, trace.snapshots)]
    os.makedirs(os.path.join(out_dir, "monitors"), exist_ok=True)
    write_monitor_csv(os.path.join(out_dir, "monitors", "energy.csv"), series)
    bound = series[0][1] * (1.0 + 10.0 * trace.events[0]["k"]) + 1e-300
    worst = max(v for _, v in series)
    return [VerdictRow("energy.non_increasing", worst <= bound, worst, bound)]


def _constraints(params, model, trace, out_dir, make_grid, initial):
    rows = []
    for name, series in trace.monitors.items():
        worst = max(v for _, v in series)
        bound = max(3.0 * series[0][1], 1e-12)
        rows.append(VerdictRow(f"constraints.{name}", worst <= bound, worst, bound))
    return rows


def _support(params, model, trace, out_dir, make_grid, initial):
    # the cone slope inflated by 1.01 (energy.cone_slope); tol = 0 is exact;
    # the cone's apex is a bump's centre, else the origin
    tol = 0.0
    verdict = support_test(trace, params["radius"], trace.a_star * 1.01, tol=tol,
                           margin_cells=params.get("margin_cells", 1),
                           center=initial.get("center", 0.0))
    return [VerdictRow("support", verdict.passed, verdict.max_outside, tol)]


def _rh(params, model, trace, out_dir, make_grid, initial):
    law = model.system
    ul, ur = (np.asarray(params[k], dtype=float) for k in ("u_left", "u_right"))
    tol = params.get("tol", 1e-12)
    rows = []
    c = params.get("speed")
    if c is None:
        if law.m != 1:
            raise ExecutionError("rh on a system needs an explicit speed")
        c = rh_speed(law, float(ul[0]), float(ur[0]))
        rows.append(VerdictRow("rh.speed", True, c, "derived"))
    resid = float(np.max(np.abs(rh_residual(law, ul, ur, c))))
    rows.append(VerdictRow("rh.residual", resid <= tol, resid, tol))
    if model.pair is not None:
        verdict = entropy_admissible(law, model.pair, ul, ur, c, tol=tol)
        rows.append(VerdictRow("rh.production", verdict.admissible,
                               verdict.production, tol))
    return rows


def _riemann(params, model, trace, out_dir, make_grid, initial):
    law, pair = model.system, model.pair
    ul, ur = params["u_left"], params["u_right"]
    tol = 1e-12
    sol = riemann_scalar(law, ul, ur, pair=pair)
    if sol.kind != "shock":
        kind_code = {"constant": 0.0, "rarefaction": 1.0}[sol.kind]
        return [VerdictRow(f"riemann.{sol.kind}", True, kind_code, "-")]
    resid = float(np.max(np.abs(rh_residual(law, [ul], [ur], sol.speed))))
    verdict = entropy_admissible(law, pair, [ul], [ur], sol.speed, tol=tol)
    return [VerdictRow("riemann.rh_speed", True, sol.speed, "derived"),
            VerdictRow("riemann.rh_residual", resid <= tol, resid, tol),
            VerdictRow("riemann.entropy_production", verdict.admissible,
                       verdict.production, tol)]


def _viscous_limit(params, model, trace, out_dir, make_grid, initial):
    if not params["eps"]:
        raise ExecutionError("viscous_limit.eps lists no viscosity")
    slack = 0.1
    runs = viscous_limit_compare(model.system, model.pair, params["u_left"],
                                 params["u_right"], params["eps"], make_grid(),
                                 params["t"])
    write_monitor_csv(os.path.join(out_dir, VISCOUS_LIMIT_CSV),
                      [(eps, l1) for eps, l1, _ in runs], header=("eps", "l1_distance"))
    dists = [l1 for _, l1, _ in runs]
    monotone = all(b <= a * (1.0 + slack) for a, b in zip(dists, dists[1:]))
    return [VerdictRow("viscous_limit.monotone", monotone, dists[-1],
                       f"non-increasing within {slack:g}")]


def _tricomi_certificate(params, model, trace, out_dir, make_grid, initial):
    cert = model.tricomi
    return [VerdictRow("tricomi_certificate", cert.positive, cert.min_pivot,
                       "pivot > 0")]


CHECKS = {
    "is_sh": Check({"per_axis": "int", "box_lo": "list_float",
                    "box_hi": "list_float"}, (), ("symmetrizer",), _is_sh,
                   together=(("box_lo", "box_hi"),)),
    "entropy_pair": Check({}, (), ("scalar_law",), _entropy_pair),
    "energy": Check({}, (), ("simulation", "linear"), _energy),
    "constraints": Check({}, (), ("simulation", "monitors"), _constraints),
    "support": Check({"radius": "float", "margin_cells": "int"}, ("radius",),
                     ("simulation",), _support),
    "rh": Check({"u_left": "list_float", "u_right": "list_float",
                 "speed": "float", "tol": "float"}, ("u_left", "u_right"),
                ("law",), _rh),
    "riemann": Check({"u_left": "float", "u_right": "float"},
                     ("u_left", "u_right"), ("scalar_law",), _riemann),
    "viscous_limit": Check({"u_left": "float", "u_right": "float",
                            "eps": "list_float", "t": "float"},
                           ("u_left", "u_right", "eps", "t"), ("scalar_law",),
                           _viscous_limit),
    "tricomi_certificate": Check({}, (), ("tricomi",), _tricomi_certificate),
}

# what a check needs -> (test on the built model and the trace, its name in errors)
NEEDS = {
    "law": (lambda model, trace: model.kind == "law", "a conservation-law model"),
    "scalar_law": (lambda model, trace: model.kind == "law" and model.system.m == 1,
                   "a scalar-law model"),
    "simulation": (lambda model, trace: trace is not None, "a simulation"),
    "linear": (lambda model, trace: model.q_energy is not None, "a linear model"),
    "monitors": (lambda model, trace: bool(model.monitors),
                 "a model with constraint monitors"),
    "tricomi": (lambda model, trace: model.kind == "tricomi", "the tricomi model"),
    "symmetrizer": (lambda model, trace: model.kind == "system" or model.pair is not None,
                    "a system or a law with an entropy pair (for tricomi, use "
                    "tricomi_certificate)"),
}
