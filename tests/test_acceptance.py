"""Acceptance suite: one test per shipped criterion, each printing a
PASS/FAIL line with its measured values (visible with pytest -s)."""

import os

import numpy as np

from shsys import profiles
from shsys.cli import execute
from shsys.config import parse_config
from shsys.core import (is_sh, characteristic_speeds, ldlt_pivots, sample_box,
                        symmetry_residual)
from shsys.energy import energy, support_test
from shsys.entropy import (entropy_pair_residual, entropy_variables,
                           flux_potential_check, hessian_symmetrizer,
                           legendre_dual)
from shsys.grid import GridField
from shsys.lxf import SchemeConfig, run
from shsys.models import (advection_law, burgers_law, ck_realify,
                          euler_conservative_1d, euler_polytropic_sh,
                          euler_primitive_to_conservative, maxwell_system,
                          tricomi_certificate_matrix, tricomi_system,
                          wave_system)
from shsys.shocks import (entropy_admissible, rh_speed, riemann_scalar,
                          shock_detect, shock_speed_fit, viscous_limit_compare)

RNG = np.random.default_rng(424242)


def report(number, title, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] criterion {number:02d} {title}: {detail}")
    assert ok, f"criterion {number} ({title}): {detail}"


def grid_1d(cells, extent=2.0, m=1, boundary="periodic"):
    h = extent / cells
    return GridField.zeros((cells,), h, -extent / 2 + h / 2, m, boundary)


def test_criterion_01_entropy_symmetrization_equivalence():
    law, pair = burgers_law((-2.0, 2.0))
    states = np.linspace(-2.0, 2.0, 101)[:, None]
    resid_pair = entropy_pair_residual(law, pair, states)
    _, verdict = hessian_symmetrizer(law, pair)
    resid_pot = flux_potential_check(law, pair, np.linspace(-1.8, 1.8, 13)[:, None])
    worst_roundtrip = 0.0
    for _ in range(100):
        u = RNG.uniform(-2.0, 2.0, size=1)
        v = entropy_variables(pair, u)
        u_back, _ = legendre_dual(pair, v, np.zeros(1))
        worst_roundtrip = max(worst_roundtrip, float(np.max(np.abs(u_back - u))))
    ok = (resid_pair <= 1e-8 and verdict.is_sh and resid_pot <= 1e-6
          and worst_roundtrip <= 1e-9)
    report(1, "entropy symmetrization equivalence", ok,
           f"pair residual {resid_pair:.2e} (<=1e-8), symmetrizer verdict "
           f"{verdict.is_sh}, potential residual {resid_pot:.2e} (<=1e-6), "
           f"Legendre round-trip {worst_roundtrip:.2e} (<=1e-9)")


def test_criterion_02_jump_relation_and_entropy_condition():
    law, pair = burgers_law()
    c = rh_speed(law, 1.0, 0.0)
    forward = entropy_admissible(law, pair, [1.0], [0.0], c)
    backward = entropy_admissible(law, pair, [0.0], [1.0], c)
    ok = (c == 0.5
          and abs(forward.production + 1.0 / 6.0) <= 1e-12 and forward.admissible
          and abs(backward.production - 1.0 / 6.0) <= 1e-12 and not backward.admissible)
    report(2, "jump relation and entropy condition", ok,
           f"speed {c} (exact 0.5), production {forward.production:+.15f} / "
           f"{backward.production:+.15f} (+-1/6 within 1e-12), verdicts "
           f"{forward.admissible}/{backward.admissible}")


def test_criterion_03_riemann_solution_vs_scheme():
    law, pair = burgers_law()
    cells, t_end = 2000, 0.4
    h = 2.0 / cells
    grid = grid_1d(cells, boundary="outflow")
    trace = run(law, profiles.step(grid, 1.0, 0.0),
                SchemeConfig(lam=0.9, t_end=t_end, output_stride=25))
    assert trace.completed
    found = shock_detect(trace.snapshots[-1])
    pos_err = abs(found[0][0] - 0.2)
    speed, _ = shock_speed_fit(trace, t_min=0.05)
    speed_err = abs(speed - 0.5)

    sol = riemann_scalar(law, 0.0, 1.0, pair=pair)
    errs = []
    for n_ref in (500, 1000, 2000):
        g = grid_1d(n_ref, boundary="outflow")
        tr = run(law, profiles.step(g, 0.0, 1.0),
                 SchemeConfig(lam=0.9, t_end=t_end, output_stride=10 ** 9))
        x = g.centers(0)
        errs.append(float(np.sum(np.abs(tr.snapshots[-1].data[:, 0]
                                        - sol(x / t_end))) * g.h[0]))
    hs = [2.0 / n for n in (500, 1000, 2000)]
    sqrt_bound = all(e <= 0.5 * np.sqrt(hh) for e, hh in zip(errs, hs))
    decreasing = errs[0] > errs[1] > errs[2]
    ok = (len(found) == 1 and pos_err <= 2 * h
          and speed_err <= 5 * h / t_end and sqrt_bound and decreasing)
    report(3, "Riemann solution vs scheme", ok,
           f"shock position error {pos_err:.2e} (<= 2h = {2 * h:.2e}), fitted "
           f"speed error {speed_err:.2e} (<= {5 * h / t_end:.2e}), rarefaction "
           f"L1 {['%.4f' % e for e in errs]} decreasing under two refinements, "
           f"all <= 0.5 sqrt(h)")


def test_criterion_04_viscous_limit_selects_rarefaction():
    law, pair = burgers_law()
    eps_list = [0.05, 0.025, 0.0125]
    cells = 640  # h = 1/320 <= min(eps)/4
    t_end = 0.4
    grid = grid_1d(cells, boundary="outflow")
    h = grid.h[0]
    assert h <= min(eps_list) / 4.0
    rows = viscous_limit_compare(law, pair, 0.0, 1.0, eps_list, grid, t=t_end)
    dists = [r[1] for r in rows]
    x = grid.centers(0)
    c_exp = rh_speed(law, 0.0, 1.0)
    expansion = np.where(x / t_end < c_exp, 0.0, 1.0)
    shock_dists = [float(np.sum(np.abs(snap.data[:, 0] - expansion)) * h)
                   for _, _, snap in rows]
    strictly_decreasing = all(b < a * 1.1 and b < a
                              for a, b in zip(dists, dists[1:]))
    never_approaches_shock = all(ds >= dr for ds, dr in zip(shock_dists, dists))
    ok = strictly_decreasing and never_approaches_shock
    report(4, "viscous limit selects the rarefaction", ok,
           f"distances to rarefaction {['%.4f' % d for d in dists]} strictly "
           f"decreasing; distances to expansion shock "
           f"{['%.4f' % d for d in shock_dists]} bounded below by them")


def test_criterion_05_finite_propagation_of_support():
    radius, t_end = 0.1, 0.5
    results = []

    law, _ = advection_law(1.0)
    grid = grid_1d(400)
    trace = run(law, profiles.bump(grid, 1.0, radius),
                SchemeConfig(lam=1.0, t_end=t_end, cfl_safety=1.0,
                             output_stride=10))
    assert trace.completed
    verdict = support_test(trace, radius, trace.a_star, tol=0.0, margin_cells=1)
    results.append(("advection", verdict))

    sys_, _ = wave_system(np.zeros(1), np.eye(1))
    grid3 = grid_1d(400, m=3)
    bump = profiles.bump(grid_1d(400), 1.0, radius).data[:, 0]
    data = np.zeros((400, 3))
    data[:, 2] = bump
    trace3 = run(sys_, grid3.with_data(data),
                 SchemeConfig(lam=1.0, t_end=t_end, cfl_safety=1.0,
                              output_stride=10))
    assert trace3.completed
    verdict3 = support_test(trace3, radius, trace3.a_star, tol=0.0,
                            margin_cells=1)
    results.append(("wave n=1", verdict3))

    ok = all(v.passed and v.max_outside == 0.0 for _, v in results)
    report(5, "finite propagation of support", ok,
           "; ".join(f"{name}: bitwise zero outside |x| <= {radius} + a*t + h "
                     f"(max outside {v.max_outside!r})"
                     for name, v in results))


def test_criterion_06_conservation_and_stability():
    # exact conservation over 1000 steps, periodic
    law, _ = burgers_law()
    grid = grid_1d(200)
    initial = grid.with_data((0.5 + 0.4 * np.sin(np.pi * grid.centers(0)))[:, None])
    config = SchemeConfig(lam=0.9, t_end=1000 * 0.9 * grid.h[0],
                          output_stride=10 ** 9)
    trace = run(law, initial, config)
    assert trace.completed and trace.steps == 1000
    drift_b = (abs(float(np.sum(trace.snapshots[-1].data))
                   - float(np.sum(initial.data)))
               / max(1.0, float(np.sum(np.abs(initial.data)))))

    euler = euler_conservative_1d(1.4)
    grid3 = grid_1d(200, m=3)
    x = grid3.centers(0)
    sod = euler_primitive_to_conservative(
        1.4, np.where(x < 0, 1.0, 0.125), np.zeros_like(x),
        np.where(x < 0, 1.0, 0.1))
    config_e = SchemeConfig(lam=0.3, t_end=1000 * 0.3 * grid3.h[0],
                            output_stride=10 ** 9)
    trace_e = run(euler, grid3.with_data(sod), config_e)
    assert trace_e.completed and trace_e.steps == 1000
    scale = np.maximum(1.0, np.sum(np.abs(sod), axis=0))
    drift_e = float(np.max(np.abs(np.sum(trace_e.snapshots[-1].data, axis=0)
                                  - np.sum(sod, axis=0)) / scale))

    # maximum principle on random scalar data
    rng_data = RNG.uniform(0.0, 1.0, size=(256, 1))
    grid_r = grid_1d(256)
    lo, hi = float(rng_data.min()), float(rng_data.max())
    trace_r = run(law, grid_r.with_data(rng_data),
                  SchemeConfig(lam=0.9, t_end=500 * 0.9 * grid_r.h[0],
                               output_stride=50))
    assert trace_r.completed
    range_ok = all(s.data.min() >= lo - 1e-12 and s.data.max() <= hi + 1e-12
                   for s in trace_r.snapshots)

    # first-order convergence on smooth advection
    adv, _ = advection_law(1.0)
    l1 = []
    for cells in (100, 200):
        g = GridField.zeros((cells,), 1.0 / cells, 0.5 / cells, 1)
        init = profiles.plane_wave(g, 1.0, 1)
        tr = run(adv, init, SchemeConfig(lam=0.5, t_end=1.0,
                                         output_stride=10 ** 9))
        l1.append(float(np.sum(np.abs(tr.snapshots[-1].data - init.data))
                        / cells))
    ratio = l1[0] / l1[1]

    ok = (drift_b <= 1e-12 and drift_e <= 1e-12 and range_ok
          and 1.7 <= ratio <= 2.3)
    report(6, "conservation and stability", ok,
           f"Burgers drift {drift_b:.2e}, Euler drift {drift_e:.2e} "
           f"(<=1e-12/1000 steps), range preserved {range_ok} (1e-12), "
           f"advection L1 halving ratio {ratio:.2f} (2 +- 0.3)")


def oblique_maxwell_data(grid):
    c = grid.coords()
    kvec = 2 * np.pi * np.array([1.0, 2.0, 2.0])
    arg = sum(kvec[j] * c[..., j] for j in range(3))
    e0 = np.array([2.0, -1.0, 0.0]) / np.sqrt(5)
    b0 = np.array([2.0, 4.0, -5.0]) / (3 * np.sqrt(5))
    return np.concatenate([np.sin(arg)[..., None] * e0,
                           np.sin(arg)[..., None] * b0], axis=-1)


def test_criterion_07_maxwell_constraints():
    sys_, monitors = maxwell_system()
    results = {}
    for cells in (16, 32):
        grid = GridField.zeros((cells,) * 3, 1.0 / cells, 0.5 / cells, 6)
        trace = run(sys_, grid.with_data(oblique_maxwell_data(grid)),
                    SchemeConfig(lam=0.25, t_end=1.0, output_stride=8),
                    monitors=monitors)
        assert trace.completed
        energies = [energy(s, np.eye(6)) for s in trace.snapshots]
        results[cells] = {
            "monitors": {name: [v for _, v in trace.monitors[name]]
                         for name in ("div_e", "div_b")},
            "energy_monotone": all(b <= a * (1 + 1e-12)
                                   for a, b in zip(energies, energies[1:])),
        }
    within = all(max(series) <= 3.0 * series[0]
                 for res in results.values()
                 for series in res["monitors"].values())
    orders = {name: float(np.log2(max(results[16]["monitors"][name])
                                  / max(results[32]["monitors"][name])))
              for name in ("div_e", "div_b")}
    ok = (within and all(o >= 1.0 for o in orders.values())
          and all(res["energy_monotone"] for res in results.values()))
    report(7, "Maxwell constraint preservation", ok,
           f"divergence monitors within 3x of start: {within}; measured "
           f"orders div_e {orders['div_e']:.2f}, div_b {orders['div_b']:.2f} "
           f"(>=1); energy non-increasing on both grids")


def test_criterion_08_wave_constraint_propagation():
    sys_, monitor = wave_system(np.zeros(1), np.eye(1))
    values = []
    for cells in (64, 128, 256):
        h = 2 * np.pi / cells
        grid = GridField.zeros((cells,), h, h / 2, 3)
        x = grid.centers(0)
        data = np.stack([np.sin(x), np.cos(x), -np.cos(x)], axis=-1)
        trace = run(sys_, grid.with_data(data),
                    SchemeConfig(lam=0.9, t_end=1.0, output_stride=10 ** 9),
                    monitors=[monitor])
        assert trace.completed
        values.append(trace.monitors["gradient_constraint"][-1][1])
    orders = [float(np.log2(values[i] / values[i + 1])) for i in range(2)]
    ok = all(o >= 1.0 for o in orders)
    report(8, "wave-system constraint propagation", ok,
           f"monitor at t=1: {['%.2e' % v for v in values]}, measured orders "
           f"{['%.2f' % o for o in orders]} (>=1) under two refinements")


def test_criterion_09_polytropic_gas_first_order_form():
    gamma = 1.4
    verdicts = []
    for n in (1, 3):
        sys_ = euler_polytropic_sh(gamma, n=n)
        lo = np.concatenate([[0.1], -3.0 * np.ones(n)])
        hi = np.concatenate([[10.0], 3.0 * np.ones(n)])
        verdicts.append(is_sh(sys_, np.zeros(n + 1),
                              sample_box(lo, hi, per_axis=5 if n == 1 else 3)))
    sys1 = euler_polytropic_sh(gamma, n=1)
    speeds = characteristic_speeds(sys1, np.zeros(2), np.array([1.0, 0.0]),
                                   [1.0])
    speed_err = abs(float(np.max(np.abs(speeds))) - np.sqrt(gamma))
    ok = all(v.is_sh for v in verdicts) and speed_err <= 1e-10
    report(9, "polytropic gas first-order form", ok,
           f"is_sh on sampled box {[bool(v) for v in verdicts]} (n=1, 3); "
           f"max speed error vs sqrt(1.4): {speed_err:.2e} (<=1e-10)")


def test_criterion_10_degenerate_multiplier_certificate():
    _, good = tricomi_system(0.1, 1.0)
    _, zero = tricomi_system(0.0, 1.0)
    _, large = tricomi_system(10.0, 1.0)
    sign_match = True
    for lam in (0.0, 0.1, 10.0):
        for y in np.linspace(-1.0, 1.0, 1001):
            pivots_ok = bool(np.all(ldlt_pivots(
                tricomi_certificate_matrix(lam, y)) > 0))
            det = lam / 2.0 + lam ** 2 * y - lam ** 2 * y ** 2
            closed = (0.5 + lam * y > 0) and (det > 0)
            if pivots_ok != closed:
                sign_match = False
    ok = (good.positive and not zero.positive and not large.positive
          and sign_match)
    report(10, "degenerate multiplier certificate", ok,
           f"positive at lam=0.1: {good.positive}; failing at lam=0 "
           f"(min pivot {zero.min_pivot:.1e}) and lam=10 (min pivot "
           f"{large.min_pivot:.1e}); pivot verdicts match the closed-form "
           f"determinant sign at all 1001 sample points: {sign_match}")


def test_criterion_11_complex_analytic_realification():
    worst = 0.0
    for _ in range(100):
        mc = int(RNG.integers(1, 4))
        a = RNG.normal(size=(mc, mc)) + 1j * RNG.normal(size=(mc, mc))
        sys_, _ = ck_realify(a)
        res = symmetry_residual(sys_, np.zeros(3), np.zeros(2 * mc))
        worst = max(worst, float(np.max(res)))

    sys_, monitor = ck_realify(np.array([[1.0 + 0j]]))
    t_end = 0.5
    errs, cr_ok = [], True
    for cells in (40, 80):
        h = 2 * np.pi / cells
        grid = GridField.zeros((cells, cells), h, (h / 2, h / 2), 2)
        c = grid.coords()
        data = np.stack([np.sin(c[..., 0]) * np.cos(c[..., 1]),
                         np.cos(c[..., 0]) * np.sin(c[..., 1])], axis=-1)
        trace = run(sys_, grid.with_data(data),
                    SchemeConfig(lam=0.45, t_end=t_end, output_stride=4),
                    monitors=[monitor])
        assert trace.completed
        exact = np.stack([np.sin(c[..., 0] + t_end) * np.cos(c[..., 1]),
                          np.cos(c[..., 0] + t_end) * np.sin(c[..., 1])],
                         axis=-1)
        errs.append(float(np.sum(np.abs(trace.snapshots[-1].data - exact))
                          * h * h))
        series = [v for _, v in trace.monitors["cauchy_riemann"]]
        cr_ok = cr_ok and max(series) <= 3.0 * series[0]
    ratio = errs[0] / errs[1]
    ok = worst <= 1e-12 and cr_ok and ratio >= 1.5 and errs[1] < errs[0]
    report(11, "complex analytic realification", ok,
           f"symmetry residual over 100 random complex matrices "
           f"{worst:.2e} (<=1e-12); translate L1 errors "
           f"{['%.3f' % e for e in errs]} (first-order, ratio {ratio:.2f}); "
           f"Cauchy-Riemann residual within 3x of start: {cr_ok}")


REPRO_CONFIG = """
[model]
name = advection
a = 1.0

[grid]
shape = 200
h = 0.02
origin = -1.99

[scheme]
lambda = 1.0
cfl_safety = 1.0
t_end = 0.5
output_stride = 5

[initial]
profile = bump
radius = 0.1
amplitude = 1.0

[checks]
names = energy, support, rh
support.radius = 0.1
rh.u_left = 1.0
rh.u_right = 0.0
"""


def test_criterion_12_cli_reproducibility(tmp_path):
    cfg = parse_config(REPRO_CONFIG)
    trees = []
    for name in ("run1", "run2"):
        out = tmp_path / name
        code = execute(cfg, output_dir=str(out))
        assert code == 0
        tree = {}
        for root, _, files in os.walk(out):
            for fname in files:
                path = os.path.join(root, fname)
                with open(path, "rb") as handle:
                    tree[os.path.relpath(path, out)] = handle.read()
        trees.append(tree)
    same_names = trees[0].keys() == trees[1].keys()
    same_bytes = same_names and all(trees[0][k] == trees[1][k] for k in trees[0])
    ok = same_names and same_bytes
    report(12, "CLI reproducibility", ok,
           f"two runs produced {len(trees[0])} artifacts each; trees are "
           f"byte-identical: {same_bytes}")
