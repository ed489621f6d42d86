"""The metrics the benchmark reports, with the end-to-end metric and
workload each per-layer metric is expected to move.

A layer's time is the self time of its spans in one traced job (median
over the traced jobs of a run); the layer times add up to ``trace.job_s``.
Times, end-to-end and per layer, are at the reference host speed: each is
scaled by its own job's host-speed correction (``pace.py``).  Only
``job.wall_s`` is a raw wall-clock reading.
Layers that every workload runs are reported in seconds (``*_s``).  Layers
that some workloads never enter (output, checks, shocks) are reported as
their share of ``trace.job_s`` (``*_pct``): a time that is exactly zero on
every run of a workload would read as a constant, not a measurement.
``config.parse_pct`` is a share of the traced set-up instead.  Counts
repeat exactly from run to run.  ``BENCHMARK.json`` lists the same names.
"""

# name, unit, better, bound
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("job_s", "s", "lower", 0.25),
    ("cell_steps_per_s", "1/s", "higher", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
)

# name, unit, better, what it should move
PER_LAYER = (
    ("lxf.steps", "count", "lower",
     "job_s on burgers-cli (about 9.4k small steps per job)"),
    ("lxf.step_self_s", "s", "lower",
     "job_s on burgers-cli (per-step overhead: with_data, step dispatch)"),
    ("lxf.checks_s", "s", "lower",
     "job_s on burgers-cli (GridField.is_finite and the admissibility check "
     "every step; a per-step CFL monitor would add here)"),
    ("lxf.rhs_s", "s", "lower",
     "job_s, cell_steps_per_s on euler-sh2d and wave2d-cli (per-cell loops)"),
    ("lxf.rhs_calls", "count", "lower",
     "job_s on euler-sh2d and wave2d-cli, with lxf.rhs_s"),
    ("models.source_calls", "count", "lower",
     "job_s on wave2d-cli (one Python source call per cell-step); none on "
     "maxwell3d and burgers-cli"),
    ("core.matrix_field_calls", "count", "lower",
     "job_s on euler-sh2d (M0, M1, M2 per cell-step); CFL sampling elsewhere"),
    ("models.percell_calls_per_cell_step", "calls/cell-step", "lower",
     "job_s, cell_steps_per_s on euler-sh2d and wave2d-cli; base is job.cell_steps"),
    ("job.cell_steps", "count", "lower",
     "base of cell_steps_per_s; fixed by the workload"),
    ("job.wall_s", "s", "lower",
     "job_s as the wall clock read it, before the host-speed correction"),
    ("lxf.cfl_s", "s", "lower",
     "job_s on maxwell3d (max_char_speed / check_stability sampling loop)"),
    ("core.char_speed_calls", "count", "lower",
     "job_s on maxwell3d (per-sample characteristic_speeds calls)"),
    ("core.char_speed_pct", "%", "lower",
     "job_s on maxwell3d (constant coefficients, computed per sample)"),
    ("lxf.average_s", "s", "lower",
     "job_s on maxwell3d (few calls, big arrays) and burgers-cli (many, small)"),
    ("grid.shifted_calls", "count", "lower",
     "job_s on maxwell3d and burgers-cli (np.roll per call)"),
    ("grid.shifted_s", "s", "lower",
     "job_s on maxwell3d and burgers-cli; per-call vs per-byte trade-off"),
    ("grid.centered_diff_pct", "%", "lower",
     "job_s on maxwell3d (stencil work over 1.5 MB states)"),
    ("lxf.run_self_s", "s", "lower",
     "peak_rss_mb and job_s on maxwell3d (snapshot copies held in memory)"),
    ("models.monitor_calls", "count", "lower",
     "job_s on maxwell3d and wave2d-cli"),
    ("models.monitor_pct", "%", "lower",
     "job_s on maxwell3d and wave2d-cli"),
    ("output.snapshots", "count", "lower",
     "job_s on wave2d-cli (few big) and burgers-cli (many small); none on library"),
    ("output.snapshot_bytes", "B", "lower",
     "job_s on wave2d-cli and burgers-cli; peak_rss_mb there under a streaming sink"),
    ("output.snapshot_pct", "%", "lower",
     "job_s on wave2d-cli and burgers-cli (per-cell fmt loop in write_snapshot_csv)"),
    ("output.write_pct", "%", "lower",
     "job_s on the CLI workloads (monitor and verdict CSVs, run log)"),
    ("shocks.viscous_limit_self_pct", "%", "lower",
     "job_s on burgers-cli (set-up of the three viscous runs)"),
    ("shocks.riemann_pct", "%", "lower", "job_s on burgers-cli"),
    ("shocks.rh_pct", "%", "lower", "job_s on burgers-cli (rh rows)"),
    ("entropy.symmetrizer_pct", "%", "lower",
     "job_s on burgers-cli (is_sh through the Hessian symmetrizer)"),
    ("entropy.pair_residual_pct", "%", "lower", "job_s on burgers-cli"),
    ("core.is_sh_pct", "%", "lower", "job_s on the CLI workloads"),
    ("energy.energy_pct", "%", "lower", "job_s on wave2d-cli"),
    ("cli.execute_self_pct", "%", "lower",
     "job_s on the CLI workloads (model build, initial data, check dispatch)"),
    ("config.parse_pct", "%", "lower", "setup_s on the CLI workloads (share of traced set-up)"),
    ("trace.job_s", "s", "lower", "traced job_s; the self times above add up to it"),
    ("trace.unattributed_s", "s", "lower",
     "the part of trace.job_s outside every wrapped shsys call"),
    ("trace.overhead_s", "s", "lower",
     "traced minus untraced job_s median; tracing cost, not program cost"),
)

# counts that must repeat exactly from traced job to traced job
EXACT_COUNTS = ("lxf.steps", "lxf.rhs_calls", "models.source_calls",
                "core.matrix_field_calls", "core.char_speed_calls",
                "grid.shifted_calls", "output.snapshot_bytes",
                "output.snapshots", "models.monitor_calls", "job.cell_steps")
