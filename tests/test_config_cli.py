import errno
import glob
import json
import os
import re
import shutil
import warnings

import pytest

from shsys import cli, output, registry
from shsys.cli import execute, main
from shsys.config import ConfigError, parse_config
from shsys.entropy import ConvergenceError
from shsys.lxf import SCHEME_KEYS, SchemeConfig

README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
# the CI configs: the workflow's "Installed console script" step runs every
# file of check/ through 'shsys check', of rerun/ twice through 'shsys run'
# and of fail/ once through 'shsys run'; the tests below glob the same files
CONFIGS = os.path.join(os.path.dirname(__file__), "configs")
SIM_CHECKS = [name for name, check in registry.CHECKS.items()
              if "simulation" in check.needs]

MINIMAL = """
[model]
name = burgers

[grid]
shape = 400
h = 0.005
origin = -1.0

[checks]
names = riemann
riemann.u_left = 1.0
riemann.u_right = 0.0
"""


def read_verdicts(out_dir):
    rows = {}
    with open(os.path.join(out_dir, "verdicts.csv")) as handle:
        header = handle.readline().strip().split(",")
        assert header == ["name", "pass", "value", "tolerance"]
        for line in handle:
            name, passed, value, tol = line.strip().split(",")
            rows[name] = (passed, value, tol)
    return rows


def read_events(out_dir):
    with open(os.path.join(out_dir, "run.ndjson")) as handle:
        return [json.loads(line) for line in handle if line.strip()]


def error_messages(out_dir):
    return [e["message"] for e in read_events(out_dir) if e["event"] == "error"]


def readme_list(label):
    """Backticked names after '<label>: ' in the README's CLI section, up to
    the next full stop; parenthesized remarks are skipped."""
    with open(README) as handle:
        text = re.sub(r"\s+", " ", re.sub(r"\([^)]*\)", "", handle.read()))
    return re.findall(r"`([^`]+)`", text.split(f"{label}: ", 1)[1].split(".", 1)[0])



def readme_example():
    """The ini block of the README's CLI section."""
    with open(README) as handle:
        cli_section = handle.read().split("## CLI", 1)[1]
    return re.search(r"```ini\n(.*?)```", cli_section, re.S).group(1)


def workflow_configs(kind):
    """Stem -> path of each CI config under configs/<kind>."""
    paths = sorted(glob.glob(os.path.join(CONFIGS, kind, "*.cfg")))
    return {os.path.basename(path)[:-len(".cfg")]: path for path in paths}


def workflow_config(kind, name):
    return os.path.join(CONFIGS, kind, f"{name}.cfg")


VISCOUS = """
[model]
name = burgers

[grid]
shape = 64
h = 0.03125
boundary = outflow

[checks]
names = viscous_limit
viscous_limit.u_left = 1.0
viscous_limit.u_right = 0.0
viscous_limit.eps = {eps}
viscous_limit.t = 0.05
"""


class TestParseConfig:
    def test_minimal_config(self):
        cfg = parse_config(MINIMAL)
        assert cfg.model["name"] == "burgers"
        assert cfg.grid["shape"] == [400]
        assert cfg.checks == ["riemann"]
        assert cfg.checks_params["riemann"] == {"u_left": 1.0, "u_right": 0.0}

    def test_negative_lambda_names_key_and_line(self):
        text = "[model]\nname = burgers\n\n[scheme]\nlambda = -1\nt_end = 1\n"
        with pytest.raises(ConfigError) as info:
            parse_config(text)
        assert any(line == 5 and "lambda" in msg for line, msg in info.value.errors)

    def test_typo_suggestion(self):
        text = "[model]\nname = burgers\n\n[scheme]\nviscocity = 0.1\n"
        with pytest.raises(ConfigError) as info:
            parse_config(text)
        messages = [msg for _, msg in info.value.errors]
        assert any("viscocity" in m and "viscosity" in m for m in messages)

    def test_unknown_section(self):
        with pytest.raises(ConfigError) as info:
            parse_config("[model]\nname = burgers\n[shceme]\nlambda = 1\n")
        assert any("shceme" in msg for _, msg in info.value.errors)

    def test_duplicate_key(self):
        text = "[model]\nname = burgers\nname = advection\n"
        with pytest.raises(ConfigError) as info:
            parse_config(text)
        assert any("duplicate" in msg for _, msg in info.value.errors)

    def test_missing_model_name(self):
        with pytest.raises(ConfigError):
            parse_config("[grid]\nshape = 10\nh = 0.1\n")

    def test_type_mismatch_reports_line(self):
        text = "[model]\nname = burgers\n\n[grid]\nshape = ten\nh = 0.1\n"
        with pytest.raises(ConfigError) as info:
            parse_config(text)
        assert any(line == 5 for line, _ in info.value.errors)

    def test_unknown_check_name(self):
        text = "[model]\nname = burgers\n[checks]\nnames = riemman\n"
        with pytest.raises(ConfigError) as info:
            parse_config(text)
        assert any("riemann" in msg for _, msg in info.value.errors)

    def test_params_for_unrequested_check_rejected(self):
        text = ("[model]\nname = burgers\n[checks]\nnames = rh\n"
                "riemann.u_left = 1.0\n")
        with pytest.raises(ConfigError):
            parse_config(text)

    @pytest.mark.parametrize("check, given, missing", [
        ("rh", ["u_left"], ["u_right"]),
        ("riemann", [], ["u_left", "u_right"]),
        ("viscous_limit", ["u_left", "u_right"], ["eps", "t"]),
        ("support", ["tol"], ["radius"]),
    ])
    def test_missing_required_check_params(self, check, given, missing):
        text = (f"[model]\nname = burgers\n[checks]\nnames = {check}\n"
                + "".join(f"{check}.{param} = 1.0\n" for param in given))
        with pytest.raises(ConfigError) as info:
            parse_config(text)
        messages = [msg for _, msg in info.value.errors]
        assert len(messages) == len(missing)
        for param in missing:
            assert any(f"check '{check}'" in m and f"'{check}.{param}'" in m
                       for m in messages), param

    @pytest.mark.parametrize("given, absent", [("box_lo", "box_hi"),
                                               ("box_hi", "box_lo")])
    def test_is_sh_box_ends_given_together(self, given, absent):
        text = ("[model]\nname = burgers\n[checks]\nnames = is_sh\n"
                f"is_sh.{given} = -1.0\n")
        with pytest.raises(ConfigError) as info:
            parse_config(text)
        assert any(f"'is_sh.{absent}'" in msg for _, msg in info.value.errors)

    @pytest.mark.parametrize("model, key, value, accepted", [
        ("burgers", "gamma", "2", "no keys"),
        ("wave", "lam", "0.5", "aj, ajk"),
    ])
    def test_key_of_another_model_rejected(self, model, key, value, accepted):
        text = f"[model]\n{key} = {value}\nname = {model}\n"
        with pytest.raises(ConfigError) as info:
            parse_config(text)
        assert info.value.errors == [
            (2, f"model '{model}' does not take key '{key}' (it accepts: {accepted})")]

    @pytest.mark.parametrize("text, error", [
        ("[model]\nname = tricomi\ny_bound = 2\n", (2, "model 'tricomi' needs key 'lam'")),
        ("[model]\n\nname = scalar\n", (3, "model 'scalar' needs key 'flux_coeffs'")),
        ("[model]\nname = scalar\nflux_coeffs =\n",
         (3, "'flux_coeffs' must list at least one coefficient")),
        ("[model]\nname = burgers\n[initial]\nprofile = step\nleft = 1\n",
         (4, "profile 'step' needs key 'right'")),
        ("[model]\nname = burgers\n[initial]\nprofile = file\n",
         (4, "profile 'file' needs key 'csv'")),
        ("[model]\nname = burgers\n[initial]\nmodes = 2\nprofile = bump\nradius = 0.1\n",
         (4, "profile 'bump' does not take key 'modes' (it accepts: amplitude, radius, center)")),
        ("[model]\nname = burgers\n[initial]\nprofile = constant\nvalue = 1\njump_at = 0\n",
         (6, "profile 'constant' does not take key 'jump_at' (it accepts: value)")),
    ], ids=["tricomi-lam", "scalar-flux_coeffs", "scalar-empty", "step-right", "file-csv",
            "bump-modes", "constant-jump_at"])
    def test_required_and_foreign_entry_keys_rejected(self, text, error):
        with pytest.raises(ConfigError) as info:
            parse_config(text)
        assert info.value.errors == [error]

    @pytest.mark.parametrize("text, error", [
        ("[model]\nname = burgerz\n",
         (2, f"value 'burgerz' not one of {list(registry.MODELS)}")),
        ("[model]\nname = burgers\n[initial]\nprofile = stepp\nleft = 1\n",
         (4, f"value 'stepp' not one of {list(registry.PROFILES)}")),
    ], ids=["model", "profile"])
    def test_bad_selector_value_reports_only_its_enum_error(self, text, error):
        with pytest.raises(ConfigError) as info:
            parse_config(text)
        assert info.value.errors == [error]

    def test_initial_keys_without_profile_rejected(self):
        with pytest.raises(ConfigError) as info:
            parse_config("[model]\nname = burgers\n[initial]\nleft = 1\nmodes = 3\n")
        assert info.value.errors == [(4, "[initial] key 'left' needs a 'profile'"),
                                     (5, "[initial] key 'modes' needs a 'profile'")]

    def test_repeated_check_name_rejected(self):
        with pytest.raises(ConfigError) as info:
            parse_config(MINIMAL.replace("names = riemann", "names = riemann, riemann"))
        assert any("'riemann'" in msg and "more than once" in msg
                   for _, msg in info.value.errors)

    @pytest.mark.parametrize("section, key, value", [
        ("scheme", "lambda", "nan"),
        ("scheme", "t_end", "inf"),
        ("scheme", "viscosity", "-inf"),
        ("grid", "h", "inf"),
        ("grid", "origin", "0.0, nan"),
        ("initial", "value", "1.0, -inf"),
        ("checks", "riemann.u_left", "nan"),
    ])
    def test_nonfinite_numbers_rejected_with_line(self, section, key, value):
        base = MINIMAL.replace("h = 0.005\norigin = -1.0\n", "")
        base = base.replace("riemann.u_left = 1.0\n", "")
        text = base + f"[{section}]\n{key} = {value}\n"
        with pytest.raises(ConfigError) as info:
            parse_config(text)
        assert (len(text.splitlines()),
                f"value '{value}' is not finite (nan and inf are rejected)") in info.value.errors

    # a value outside each SchemeConfig field's limit, keyed by field
    OUT_OF_LIMIT = {"lam": 0.0, "t_end": -0.5, "cfl_safety": 1.5,
                    "output_stride": 0, "viscosity": -0.1}

    @pytest.mark.parametrize("name, spec", SCHEME_KEYS.items(), ids=list(SCHEME_KEYS))
    def test_scheme_limits_follow_the_table(self, name, spec):
        value = self.OUT_OF_LIMIT[name]
        assert spec.bad(value)
        text = f"[model]\nname = burgers\n[scheme]\n{spec.key} = {value}\n"
        with pytest.raises(ConfigError) as info:
            parse_config(text)
        assert info.value.errors == [(4, f"'{spec.key}' {spec.rule}")]
        with pytest.raises(ValueError, match=re.escape(f"{name} {spec.rule}")):
            SchemeConfig(**{"lam": 0.5, "t_end": 1.0, name: value})

    # before these limits is_sh.per_axis = 0 exited 2 with "need at least one
    # sample", entropy_pair.per_axis = 0 with numpy's "zero-size array",
    # viscous_limit.eps = -0.1 with "exceeds eps/4 = -0.025", and
    # viscous_limit.t = 0 exited 0 with a divide-by-zero RuntimeWarning
    @pytest.mark.parametrize("key, value, rule", [
        ("is_sh.per_axis", "0", "must be >= 1"),
        ("is_sh.per_axis", "-1", "must be >= 1"),
        ("entropy_pair.per_axis", "0", "must be >= 1"),
        ("viscous_limit.eps", "0.1, -0.1", "entries must be > 0"),
        ("viscous_limit.eps", "0.0", "entries must be > 0"),
        ("viscous_limit.t", "0", "must be positive"),
        ("viscous_limit.t", "-0.5", "must be positive"),
        # these exited 1 with a false verdict row instead
        ("support.radius", "-0.1", "must be positive"),
        ("support.radius", "0", "must be positive"),
        ("support.margin_cells", "-40", "must be non-negative"),
        ("support.tol", "-1", "must be non-negative"),
        ("constraints.factor", "-1", "must be non-negative"),
        ("constraints.floor", "-1e-12", "must be non-negative"),
        ("entropy_pair.tol", "-1e-8", "must be non-negative"),
        ("rh.tol", "-1", "must be non-negative"),
        ("riemann.tol", "-0.5", "must be non-negative"),
        ("viscous_limit.slack", "-0.1", "must be non-negative"),
    ])
    def test_check_parameter_limits_name_key_and_line(self, key, value, rule):
        check = key.partition(".")[0]
        text = f"[model]\nname = burgers\n[checks]\nnames = {check}\n{key} = {value}\n"
        with pytest.raises(ConfigError) as info:
            parse_config(text)
        # viscous_limit's other required parameters are missing, on line 0
        assert [error for error in info.value.errors if error[0]] == [(5, f"'{key}' {rule}")]

    @pytest.mark.parametrize("key", ["support.margin_cells", "support.tol",
                                     "constraints.factor", "constraints.floor",
                                     "entropy_pair.tol", "rh.tol", "riemann.tol",
                                     "viscous_limit.slack"])
    def test_non_negative_check_parameters_take_zero(self, key):
        check, _, param = key.partition(".")
        entry = registry.CHECKS[check]
        required = "".join(f"{check}.{name} = {self.KIND_SAMPLES[entry.params[name]][0]}\n"
                           for name in entry.required)
        text = f"[model]\nname = burgers\n[checks]\nnames = {check}\n{required}{key} = 0\n"
        assert parse_config(text).checks_params[check][param] == 0

    # kind -> (a value as written, as parsed) for the check parameter test
    KIND_SAMPLES = {"int": ("2", 2), "float": ("0.5", 0.5), "str": ("a", "a"),
                    "list_int": ("2, 3", [2, 3]), "list_float": ("0.5, 0.25", [0.5, 0.25]),
                    "list_str": ("a, b", ["a", "b"])}

    @pytest.mark.parametrize("check", registry.CHECKS)
    def test_check_parameters_follow_the_registry(self, check):
        # every check and parameter of the registry, so a new one is
        # covered with no new test code
        params = registry.CHECKS[check].params
        head = f"[model]\nname = burgers\n[checks]\nnames = {check}\n"
        given = "".join(f"{check}.{param} = {self.KIND_SAMPLES[kind][0]}\n"
                        for param, kind in params.items())
        expected = {param: self.KIND_SAMPLES[kind][1] for param, kind in params.items()}
        assert parse_config(head + given).checks_params == ({check: expected} if params else {})
        for param in params:
            key = f"{check}.{param}"
            typo = key[:-1] + ("x" if key[-1] != "x" else "y")
            with pytest.raises(ConfigError) as info:
                parse_config(head + f"{typo} = 1\n")
            assert (5, f"unknown key '{typo}' in [checks] (did you mean '{key}'?)") \
                in info.value.errors
            with pytest.raises(ConfigError) as info:
                parse_config(head.replace(f"names = {check}", "names =") + f"{key} = 1\n")
            assert (0, f"parameters given for check '{check}' that is not in checks.names") \
                in info.value.errors


class TestExecute:
    def test_burgers_riemann_verdicts(self, tmp_path):
        cfg = parse_config(MINIMAL)
        code = execute(cfg, output_dir=str(tmp_path / "out"))
        assert code == 0
        rows = read_verdicts(tmp_path / "out")
        assert rows["riemann.rh_speed"][1] == "0.5"
        assert float(rows["riemann.entropy_production"][1]) == pytest.approx(-1.0 / 6.0, abs=1e-12)
        assert all(passed == "true" for passed, _, _ in rows.values())

    def test_maxwell_vacuum_constraints(self, tmp_path):
        text = """
[model]
name = maxwell

[grid]
shape = 8, 8, 8
h = 0.125
origin = 0.0625, 0.0625, 0.0625

[scheme]
lambda = 0.25
t_end = 0.25
output_stride = 4

[initial]
profile = constant
value = 0, 0, 0, 0, 0, 0

[checks]
names = constraints, energy
"""
        cfg = parse_config(text)
        code = execute(cfg, output_dir=str(tmp_path / "out"))
        assert code == 0
        rows = read_verdicts(tmp_path / "out")
        assert float(rows["constraints.div_e"][1]) == 0.0
        assert float(rows["constraints.div_b"][1]) == 0.0

    def test_euler_negative_pressure_exits_2(self, tmp_path):
        text = """
[model]
name = euler_sh
gamma = 1.4

[grid]
shape = 32
h = 0.03125

[scheme]
lambda = 0.3
t_end = 0.1

[initial]
profile = constant
value = -1.0, 0.0

[checks]
names = is_sh
"""
        cfg = parse_config(text)
        code = execute(cfg, output_dir=str(tmp_path / "out"))
        assert code == 2
        events = read_events(tmp_path / "out")
        assert any(e.get("event") == "error" and "state outside box" in e.get("message", "")
                   for e in events)

    def test_abort_event_is_located(self, tmp_path):
        text = ("[model]\nname = euler_sh\n[grid]\nshape = 32\nh = 0.03125\n"
                "[scheme]\nlambda = 0.3\nt_end = 0.1\n"
                "[initial]\nprofile = constant\nvalue = -1.0, 0.0\n")
        assert execute(parse_config(text), output_dir=str(tmp_path / "out")) == 2
        abort = [e for e in read_events(tmp_path / "out") if e.get("event") == "abort"]
        assert [(e["step"], e["cell"], e["component"], e["error"]) for e in abort] == [
            (0, [0], 0, "state outside box at cell (0,) component 0 after step 0")]

    def test_failing_check_exits_1(self, tmp_path):
        text = """
[model]
name = burgers

[checks]
names = rh
rh.u_left = 1.0
rh.u_right = 0.0
rh.speed = 0.7
"""
        cfg = parse_config(text)
        code = execute(cfg, output_dir=str(tmp_path / "out"))
        assert code == 1
        rows = read_verdicts(tmp_path / "out")
        assert rows["rh.residual"][0] == "false"

    def test_rh_production_is_judged_by_the_check_tolerance(self, tmp_path):
        # the jump 0 -> 1 at speed 1/2 produces 1/6 of entropy, under rh.tol
        text = ("[model]\nname = burgers\n[checks]\nnames = rh\n"
                "rh.u_left = 0.0\nrh.u_right = 1.0\nrh.tol = 0.2\n")
        out = tmp_path / "out"
        assert execute(parse_config(text), output_dir=str(out)) == 0
        rows = (out / "verdicts.csv").read_text().splitlines()
        assert "rh.production,true,0.16666666666666663,0.2" in rows

    def test_t_end_0_and_check_integrate_nothing(self, tmp_path):
        text = ("[model]\nname = burgers\n[grid]\nshape = 10\nh = 0.1\n"
                "[initial]\nprofile = step\nleft = 1.0\nright = 0.0\n[scheme]\nlambda = 0.9\n")
        # shsys check does not read [scheme], so lambda alone is no error
        assert execute(parse_config(text), output_dir=str(tmp_path / "c"), checks_only=True) == 0
        out = tmp_path / "out"
        assert execute(parse_config(text + "t_end = 0.0\n"), output_dir=str(out)) == 0
        assert not (out / "snapshots").exists()
        assert not any(e["event"] == "scheme" for e in read_events(out))

    def test_support_check_on_advection(self, tmp_path):
        text = """
[model]
name = advection
a = 1.0

[grid]
shape = 400
h = 0.01
origin = -1.995

[scheme]
lambda = 1.0
cfl_safety = 1.0
t_end = 0.5
output_stride = 10

[initial]
profile = bump
radius = 0.1
amplitude = 1.0

[checks]
names = support
support.radius = 0.1
support.margin_cells = 2
"""
        cfg = parse_config(text)
        code = execute(cfg, output_dir=str(tmp_path / "out"))
        assert code == 0

    def test_tricomi_certificate_pass_and_fail(self, tmp_path):
        template = """
[model]
name = tricomi
lam = {lam}
y_bound = 1.0

[checks]
names = tricomi_certificate
"""
        cfg = parse_config(template.format(lam=0.1))
        assert execute(cfg, output_dir=str(tmp_path / "good")) == 0
        cfg = parse_config(template.format(lam=10.0))
        assert execute(cfg, output_dir=str(tmp_path / "bad")) == 1
        rows = read_verdicts(tmp_path / "bad")
        assert rows["tricomi_certificate"][0] == "false"

    def test_viscous_limit_check(self, tmp_path):
        text = """
[model]
name = burgers

[grid]
shape = 128
h = 0.015625
origin = -0.9921875
boundary = outflow

[checks]
names = viscous_limit
viscous_limit.u_left = 1.0
viscous_limit.u_right = 0.0
viscous_limit.eps = 0.2, 0.1
viscous_limit.t = 0.2
"""
        cfg = parse_config(text)
        out = tmp_path / "out"
        assert execute(cfg, output_dir=str(out)) == 0
        rows = read_verdicts(out)
        assert rows["viscous_limit.monotone"][0] == "true"
        with open(out / "viscous_limit.csv") as handle:
            lines = handle.read().strip().splitlines()
        assert lines[0] == "eps,l1_distance"
        assert len(lines) == 3

    def test_is_sh_uses_the_given_box(self, tmp_path, monkeypatch):
        boxes = []
        sample_box = registry.sample_box
        monkeypatch.setattr(registry, "sample_box", lambda lo, hi, per_axis: (
            boxes.append((lo, hi)) or sample_box(lo, hi, per_axis)))
        text = ("[model]\nname = burgers\n[checks]\nnames = is_sh\n"
                "is_sh.box_lo = -0.5\nis_sh.box_hi = 2.0\n")
        assert execute(parse_config(text), output_dir=str(tmp_path / "out")) == 0
        assert boxes == [([-0.5], [2.0])]
        # the is_sh tolerance text holds a comma, so read the row as raw text
        rows = (tmp_path / "out" / "verdicts.csv").read_text().splitlines()
        assert rows[1].startswith("is_sh,true,")

    def test_library_error_exits_2(self, tmp_path):
        # h = 0.03125 > eps/4: viscous_limit_compare raises ResolutionError
        out = tmp_path / "out"
        assert execute(parse_config(VISCOUS.format(eps=0.02)), output_dir=str(out)) == 2
        messages = error_messages(out)
        assert len(messages) == 1 and "eps/4" in messages[0]
        assert not (out / "verdicts.csv").exists()

    @pytest.mark.parametrize("error", [ConvergenceError("Newton stalled"),
                                       RuntimeError("viscous run failed: boom")])
    def test_shsys_errors_in_checks_exit_2(self, tmp_path, monkeypatch, error):
        def fail(*args, **kwargs):
            raise error
        monkeypatch.setattr(registry, "riemann_scalar", fail)
        out = tmp_path / "out"
        assert execute(parse_config(MINIMAL), output_dir=str(out)) == 2
        assert error_messages(out) == [str(error)]

    def test_empty_eps_list_exits_2(self, tmp_path):
        out = tmp_path / "out"
        cfg = parse_config(VISCOUS.format(eps=","))
        assert cfg.checks_params["viscous_limit"]["eps"] == []
        assert execute(cfg, output_dir=str(out)) == 2
        assert any("viscous_limit.eps" in m for m in error_messages(out))

    @pytest.mark.parametrize("model, check, params, needs", [
        ("maxwell", "rh", "rh.u_left = 1.0\nrh.u_right = 0.0\n",
         "a conservation-law model"),
        ("euler_cons", "riemann", "riemann.u_left = 1.0\nriemann.u_right = 0.0\n",
         "a scalar-law model"),
        ("burgers", "energy", "", "a simulation"),
        ("tricomi\nlam = 0.1", "is_sh", "", "tricomi_certificate"),
    ])
    def test_guard_names_check_and_need(self, tmp_path, model, check, params, needs):
        text = f"[model]\nname = {model}\n[checks]\nnames = {check}\n{params}"
        out = tmp_path / "out"
        assert execute(parse_config(text), output_dir=str(out)) == 2
        messages = error_messages(out)
        assert len(messages) == 1 and check in messages[0] and needs in messages[0]

    # each capability a check function tested by hand before NEEDS held it
    @pytest.mark.parametrize("model, check, need", [
        ("burgers", "energy", "a linear model"),
        ("euler_cons", "is_sh", "a system or a law with an entropy pair"),
        ("burgers", "tricomi_certificate", "the tricomi model"),
    ])
    def test_capability_needs_name_check_and_need(self, tmp_path, model, check, need):
        text = (f"[model]\nname = {model}\n[grid]\nshape = 20\nh = 0.1\n[scheme]\n"
                "lambda = 0.2\nt_end = 0.1\n[initial]\nprofile = constant\n"
                f"value = 1.0\n[checks]\nnames = {check}\n")
        out = tmp_path / "out"
        assert execute(parse_config(text), output_dir=str(out)) == 2
        assert error_messages(out)[0].startswith(f"check '{check}' needs {need}")

    def test_constraints_without_monitors_exits_2(self, tmp_path, capsys):
        config_path = tmp_path / "cfg.txt"
        config_path.write_text("[model]\nname = burgers\n[grid]\nshape = 20\nh = 0.1\n"
                               "[scheme]\nlambda = 0.5\nt_end = 0.1\n[initial]\n"
                               "profile = step\nleft = 1.0\nright = 0.0\n"
                               "[checks]\nnames = constraints\n")
        out = tmp_path / "out"
        assert main(["run", str(config_path), "--output-dir", str(out)]) == 2
        message = "check 'constraints' needs a model with constraint monitors"
        assert capsys.readouterr().err == f"error: {message}\n"
        assert error_messages(out) == [message]
        assert not (out / "verdicts.csv").exists()

    @pytest.mark.parametrize("sections, message", [
        ("[scheme]\nt_end = 0.1\n[grid]\nshape = 10\nh = 0.1\n[initial]\nprofile = constant\n",
         "[scheme] needs 'lambda' and 't_end'"),
        ("[scheme]\nlambda = 0.9\n[grid]\nshape = 10\nh = 0.1\n[initial]\nprofile = constant\n",
         "[scheme] needs 'lambda' and 't_end'"),
        ("[scheme]\nlambda = 0.5\nt_end = 0.1\n[grid]\nh = 0.1\n",
         "[grid] needs at least 'shape' and 'h'"),
        ("[scheme]\nlambda = 0.5\nt_end = 0.1\n[grid]\nshape = 10\nh = 0.1\norigin = 0, 1\n",
         "[grid] origin length must match shape"),
        ("[scheme]\nlambda = 0.5\nt_end = 0.1\n[grid]\nshape = 10\nh = 0.1\n",
         "[initial] needs a profile for time integration"),
    ], ids=["scheme-lambda", "scheme-t_end", "grid-keys", "grid-origin", "profile"])
    def test_run_set_up_errors_exit_2(self, tmp_path, sections, message):
        out = tmp_path / "out"
        assert execute(parse_config("[model]\nname = burgers\n" + sections),
                       output_dir=str(out)) == 2
        assert error_messages(out) == [message]

    # a list key whose length fits neither 1 nor the model's m (4 for the
    # 2D wave) or the grid's n (2) used to exit with numpy's broadcast or
    # reshape message, or, for aj, to drop its third entry
    @pytest.mark.parametrize("model, initial, named", [
        ("", "profile = constant\nvalue = 0.0, 0.5, 1.0", "[initial] value needs 1 or m = 4"),
        ("", "profile = step\nleft = 1.0, 2.0, 3.0\nright = 0.0", "[initial] left "),
        ("", "profile = step\nleft = 0.0\nright = 1.0, 2.0", "[initial] right "),
        ("", "profile = bump\nradius = 0.2\namplitude = 1.0, 2.0", "[initial] amplitude "),
        ("", "profile = bump\nradius = 0.2\ncenter = 0.1, 0.2, 0.3",
         "[initial] center needs 1 or n = 2"),
        ("", "profile = plane-wave\namplitude = 1.0, 2.0, 3.0", "[initial] amplitude "),
        ("", "profile = plane-wave\nmodes = 1, 1, 1", "[initial] modes needs 1 or n = 2"),
        ("ajk = 1.0, 0.0, 1.0", "profile = constant", "ajk holds 3 values"),
        ("aj = 1.0, 2.0, 3.0", "profile = constant", "a_j must have shape (2,)"),
    ], ids=["value", "left", "right", "bump-amplitude", "center", "plane-amplitude",
            "modes", "ajk", "aj"])
    def test_a_list_of_the_wrong_length_is_refused_by_name(self, tmp_path, capsys,
                                                         model, initial, named):
        config = tmp_path / "cfg.txt"
        config.write_text(f"[model]\nname = wave\n{model}\n[grid]\nshape = 8, 8\n"
                          f"h = 0.125\n[scheme]\nlambda = 0.3\nt_end = 0.05\n"
                          f"[initial]\n{initial}\n")
        assert main(["run", str(config), "--output-dir", str(tmp_path / "out")]) == 2
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith("error: ") and named in line

    def test_artifacts_written(self, tmp_path):
        text = """
[model]
name = burgers

[grid]
shape = 100
h = 0.02
origin = -0.99

[scheme]
lambda = 0.5
t_end = 0.1
output_stride = 5

[initial]
profile = step
left = 1.0
right = 0.0
"""
        cfg = parse_config(text)
        out = tmp_path / "out"
        assert execute(cfg, output_dir=str(out)) == 0
        snaps = sorted(os.listdir(out / "snapshots"))
        assert snaps[0] == "0000.csv"
        with open(out / "snapshots" / snaps[0]) as handle:
            assert handle.readline().strip() == "x1,u1"
            first = handle.readline().strip().split(",")
            # full round-trip precision: parses back to the exact cell values
            assert float(first[0]) == -0.99
            assert float(first[1]) == 1.0
        events = read_events(out)
        assert events[0]["event"] == "config"
        assert any(e["event"] == "done" for e in events)


class TestCliMain:
    def test_models_listing(self, capsys):
        assert main(["models"]) == 0
        captured = capsys.readouterr()
        assert "burgers" in captured.out
        assert "maxwell" in captured.out

    def test_run_and_check_subcommands(self, tmp_path, capsys):
        config_path = tmp_path / "cfg.txt"
        config_path.write_text(MINIMAL)
        assert main(["run", str(config_path), "--output-dir",
                     str(tmp_path / "a")]) == 0
        assert main(["check", str(config_path), "--output-dir",
                     str(tmp_path / "b")]) == 0

    @pytest.mark.parametrize("model, check", [
        ("wave\naj = 0.3, -0.1\najk = 1.3, 0.2, 0.2, 0.7", "is_sh"),
        ("ck\na_re = 1.0\na_im = 0.5", "is_sh"),
        ("scalar\nflux_coeffs = 0, 1, 0.5", "entropy_pair"),
    ], ids=["wave", "ck", "scalar"])
    def test_check_builds_the_model_and_passes(self, tmp_path, model, check):
        config_path = tmp_path / "cfg.txt"
        config_path.write_text(f"[model]\nname = {model}\n[grid]\nshape = 8, 8\n"
                               f"h = 0.125\n[checks]\nnames = {check}\n")
        assert main(["check", str(config_path), "--output-dir", str(tmp_path / "c")]) == 0
        # the is_sh tolerance text holds a comma, so read the row as raw text
        rows = (tmp_path / "c" / "verdicts.csv").read_text().splitlines()
        assert len(rows) == 2 and rows[1].startswith(f"{check},true,")

    @pytest.mark.parametrize("name", workflow_configs("check"))
    def test_workflow_check_config_passes(self, tmp_path, name):
        path = workflow_config("check", name)
        assert main(["check", path, "--output-dir", str(tmp_path / "c")]) == 0

    @pytest.mark.parametrize("name", workflow_configs("fail"))
    def test_workflow_fail_config_exits_2(self, tmp_path, capsys, name):
        path = workflow_config("fail", name)
        assert main(["run", path, "--output-dir", str(tmp_path / "c")]) == 2
        assert re.fullmatch(r"error: [^\n]+\n", capsys.readouterr().err)

    @pytest.mark.parametrize("flag", ["--threads", "--seed"])
    def test_run_has_no_threads_or_seed_flag(self, tmp_path, capsys, flag):
        # both flags used to take a value and change nothing
        path = workflow_config("rerun", "wave-short")
        with pytest.raises(SystemExit) as exit_:
            main(["run", path, flag, "2", "--output-dir", str(tmp_path / "c")])
        assert exit_.value.code == 2
        assert f"unrecognized arguments: {flag} 2" in capsys.readouterr().err
        assert not (tmp_path / "c").exists()

    def test_workflow_burgers_check_certifies_the_entropy_pair(self, tmp_path):
        path = workflow_config("check", "burgers")
        assert main(["check", path, "--output-dir", str(tmp_path / "c")]) == 0
        # is_sh's row comes first, and its tolerance text holds a comma
        rows = (tmp_path / "c" / "verdicts.csv").read_text().splitlines()
        assert rows[2].startswith("entropy_pair,true,")

    def test_workflow_maxwell_check_certifies_the_box(self, tmp_path):
        path = workflow_config("check", "maxwell")
        assert main(["check", path, "--output-dir", str(tmp_path / "c")]) == 0
        # the is_sh tolerance text holds a comma, so read the row as raw text
        rows = (tmp_path / "c" / "verdicts.csv").read_text().splitlines()
        assert rows[1].startswith("is_sh,true,0.0,")

    def test_workflow_euler_sh_check_certifies_the_box(self, tmp_path):
        path = workflow_config("check", "euler")
        assert main(["check", path, "--output-dir", str(tmp_path / "c")]) == 0
        rows = (tmp_path / "c" / "verdicts.csv").read_text().splitlines()
        assert rows[1].startswith("is_sh,true,")

    def test_workflow_overflowing_box_exits_2(self, tmp_path, capsys):
        # linspace's first sample of this box was NaN, which certified as
        # is_sh,true; the fail loop runs it through 'run', this test through
        # 'check'
        out = tmp_path / "c"
        assert main(["check", workflow_config("fail", "overflow-box"),
                     "--output-dir", str(out)]) == 2
        message = "box axis 0: hi - lo overflows (lo = -1e+308, hi = 1e+308)"
        assert capsys.readouterr().err == f"error: {message}\n"
        assert error_messages(out) == [message]
        assert not (out / "verdicts.csv").exists()

    @pytest.mark.parametrize("lo, hi, message", [
        ("-1, -3", "1, 3", "is_sh.box_lo = -1, -3 leaves SystemDef.state_box on axis 0: "
                           "-1 is not in [1e-300, inf]"),
        ("0, -3", "1, 3", "is_sh.box_lo = 0, -3 leaves SystemDef.state_box on axis 0: "
                          "0 is not in [1e-300, inf]"),
        ("-1, -3, -3", "1, 3, 3", "is_sh.box_lo has 3 values, expected m = 2"),
        ("0.5, -3", "1, 3, 3", "is_sh.box_hi has 3 values, expected m = 2"),
    ], ids=["negative-pressure", "zero-pressure", "long-box", "long-hi"])
    def test_euler_sh_box_is_checked_against_the_model(self, tmp_path, capsys, lo, hi, message):
        # outside p > 0, M0 and M^j divide by zero or take rho of a negative
        # pressure; a box of m + 1 values reached is_sh as points of n + 1
        config_path = tmp_path / "box.cfg"
        config_path.write_text("[model]\nname = euler_sh\n[checks]\nnames = is_sh\n"
                               f"is_sh.box_lo = {lo}\nis_sh.box_hi = {hi}\n")
        out = tmp_path / "c"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["check", str(config_path), "--output-dir", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert error_messages(out) == [message]
        assert not (out / "verdicts.csv").exists()

    def test_euler_sh_box_inside_the_state_box_certifies(self, tmp_path):
        config_path = tmp_path / "box.cfg"
        config_path.write_text("[model]\nname = euler_sh\n[checks]\nnames = is_sh\n"
                               "is_sh.box_lo = 0.01, -3\nis_sh.box_hi = 1, 3\n")
        assert main(["check", str(config_path), "--output-dir", str(tmp_path / "c")]) == 0
        rows = (tmp_path / "c" / "verdicts.csv").read_text().splitlines()
        assert rows[1].startswith("is_sh,true,")

    @pytest.mark.parametrize("kind, name, code", [("fail", "cfl-abort", 2),
                                                  ("rerun", "cfl-ok", 0)], ids=["0.6", "0.45"])
    def test_workflow_euler_sh_cfl_guard(self, tmp_path, capsys, kind, name, code):
        # the 1D euler_sh pressure jump at lambda a*(0) = 0.6 and 0.45: the
        # CFL guard stops the first after step 1 and lets the second through
        out = tmp_path / "a"
        assert main(["run", workflow_config(kind, name), "--output-dir", str(out)]) == code
        if code:
            assert re.match(r"error: lambda \* a \* n = 1\.150\d* exceeds cfl_safety = 0\.9 "
                            r"at cell \(200,\) after step 1\n$", capsys.readouterr().err)
            (abort,) = [e for e in read_events(out) if e["event"] == "abort"]
            assert (abort["step"], abort["cell"], abort["cfl_safety"]) == (1, [200], 0.9)
            return
        (done,) = [e for e in read_events(out) if e["event"] == "done" and "steps" in e]
        assert done["steps"] == 211

    @pytest.mark.parametrize("model, states", [("maxwell", (1, 6)), ("euler_sh", (9, 2))])
    def test_is_sh_samples_one_state_of_a_constant_system(self, tmp_path, monkeypatch,
                                                          model, states):
        # Maxwell's fields are constant, so its box shrinks to its first
        # state; euler_sh's depend on the state and get the whole box
        seen = []
        original = registry.is_sh
        monkeypatch.setattr(registry, "is_sh", lambda sys, x, u: seen.append(u.shape)
                            or original(sys, x, u))
        config_path = tmp_path / "c.cfg"
        per_axis = 7 if model == "maxwell" else 3
        config_path.write_text(f"[model]\nname = {model}\n[checks]\nnames = is_sh\n"
                               f"is_sh.per_axis = {per_axis}\n")
        assert main(["check", str(config_path), "--output-dir", str(tmp_path / "c")]) == 0
        assert seen == [states]

    def test_maxwell_check_writes_the_verdict_bytes_of_the_whole_box(self, tmp_path):
        # the bytes is_sh wrote when it was handed all 7^6 states
        path = workflow_config("check", "maxwell")
        assert main(["check", path, "--output-dir", str(tmp_path / "c")]) == 0
        assert (tmp_path / "c" / "verdicts.csv").read_bytes() == (
            b"name,pass,value,tolerance\nis_sh,true,0.0,symmetry rtol 1e-10, pivots > 0\n")

    @pytest.mark.parametrize("check", SIM_CHECKS)
    def test_check_refuses_simulation_checks(self, tmp_path, capsys, check):
        text = (MINIMAL.replace("names = riemann", f"names = riemann, {check}")
                + "".join(f"{check}.{param} = 1.0\n"
                          for param in registry.CHECKS[check].required))
        config_path = tmp_path / "cfg.txt"
        config_path.write_text(text)
        assert main(["check", str(config_path), "--output-dir",
                     str(tmp_path / "c")]) == 2
        messages = error_messages(tmp_path / "c")
        assert len(messages) == 1 and f"'{check}'" in messages[0]
        assert "use 'run'" in messages[0]

    @pytest.mark.parametrize("label, table", [("Models", registry.MODELS),
                                              ("Checks", registry.CHECKS),
                                              ("Initial profiles", registry.PROFILES)])
    def test_readme_lists_match_registry(self, label, table):
        assert readme_list(label) == list(table)

    def test_readme_example_config_runs(self, tmp_path):
        config_path = tmp_path / "config.txt"
        config_path.write_text(readme_example())
        out = tmp_path / "out"
        assert main(["run", str(config_path), "--output-dir", str(out)]) == 0
        rows = read_verdicts(out)
        assert list(rows) == ["riemann.rh_speed", "riemann.rh_residual",
                              "riemann.entropy_production", "rh.speed", "rh.residual",
                              "rh.production"]
        assert all(passed == "true" for passed, _, _ in rows.values())

    def test_models_listing_matches_registry(self, capsys):
        assert main(["models"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert [line.split()[0] for line in lines] == list(registry.MODELS)
        for line, entry in zip(lines, registry.MODELS.values()):
            assert line.endswith(entry.doc)

    def test_bad_config_reports_line(self, tmp_path, capsys):
        config_path = tmp_path / "cfg.txt"
        config_path.write_text("[scheme]\nlambda = -2\n")
        assert main(["run", str(config_path)]) == 2
        captured = capsys.readouterr()
        assert "line 2" in captured.err

    def test_nan_lambda_exits_2_before_any_log(self, tmp_path, capsys):
        config_path = tmp_path / "cfg.txt"
        config_path.write_text(MINIMAL + "\n[scheme]\nlambda = nan\n")
        out_dir = tmp_path / "out"
        assert main(["run", str(config_path), "--output-dir", str(out_dir)]) == 2
        assert "line 16: value 'nan' is not finite" in capsys.readouterr().err
        assert not (out_dir / "run.ndjson").exists()

    def test_missing_file(self, capsys):
        assert main(["run", "/nonexistent/config.txt"]) == 2

    def test_config_path_is_a_directory(self, tmp_path, capsys):
        assert main(["run", str(tmp_path)]) == 2
        assert capsys.readouterr().err.startswith("error: cannot read config file")

    def test_config_not_utf8(self, tmp_path, capsys):
        config_path = tmp_path / "cfg.txt"
        config_path.write_bytes(b"[model]\nname = burgers\n# \xff\xfe\n")
        assert main(["run", str(config_path)]) == 2
        assert capsys.readouterr().err.startswith("error: cannot read config file")

    def test_output_dir_is_a_file(self, tmp_path, capsys):
        config_path = tmp_path / "cfg.txt"
        config_path.write_text(MINIMAL)
        taken = tmp_path / "taken"
        taken.write_text("")
        assert main(["run", str(config_path), "--output-dir", str(taken)]) == 2
        assert capsys.readouterr().err.startswith("error: cannot write the output directory")
        assert taken.read_text() == ""

    def test_aborted_run_prints_its_error(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["run", workflow_config("fail", "negative-pressure"),
                     "--output-dir", str(out)]) == 2
        message = "state outside box at cell (0,) component 0 after step 0"
        assert capsys.readouterr().err == f"error: {message}\n"
        assert error_messages(out) == [message]
        assert not (out / "verdicts.csv").exists()


class TestReproducibility:
    def test_two_runs_byte_identical(self, tmp_path):
        text = """
[model]
name = burgers

[grid]
shape = 128
h = 0.015625
origin = -0.9921875

[scheme]
lambda = 0.9
t_end = 0.3
output_stride = 8

[initial]
profile = step
left = 1.0
right = 0.0

[checks]
names = riemann, rh
riemann.u_left = 1.0
riemann.u_right = 0.0
rh.u_left = 1.0
rh.u_right = 0.0
"""
        cfg = parse_config(text)
        dirs = [tmp_path / "run1", tmp_path / "run2"]
        for d in dirs:
            assert execute(cfg, output_dir=str(d)) == 0
        trees = []
        for d in dirs:
            tree = {}
            for root, _, files in os.walk(d):
                for name in files:
                    path = os.path.join(root, name)
                    rel = os.path.relpath(path, d)
                    with open(path, "rb") as handle:
                        tree[rel] = handle.read()
            trees.append(tree)
        assert trees[0].keys() == trees[1].keys()
        for rel in trees[0]:
            assert trees[0][rel] == trees[1][rel], rel


def read_tree(root_dir):
    """Relative path -> bytes of every file under root_dir."""
    tree = {}
    for root, _, files in os.walk(root_dir):
        for name in files:
            path = os.path.join(root, name)
            with open(path, "rb") as handle:
                tree[os.path.relpath(path, root_dir)] = handle.read()
    return tree


@pytest.mark.parametrize("name", workflow_configs("rerun"))
def test_workflow_config_reruns_byte_identical(tmp_path, name):
    path = workflow_config("rerun", name)
    with open(path) as handle:
        (last_snapshot,) = re.findall(r"^# last snapshot: (\S+)$", handle.read(), re.M)
    trees = []
    for run_dir in ("a", "b"):
        out_dir = tmp_path / run_dir
        assert main(["run", path, "--output-dir", str(out_dir)]) == 0
        assert (out_dir / "snapshots" / last_snapshot).is_file()
        trees.append(read_tree(out_dir))
    assert trees[0] == trees[1]


def read_dirs(root_dir):
    """Relative path of every directory under root_dir."""
    return sorted(os.path.relpath(root, root_dir) for root, _, _ in os.walk(root_dir))


def test_workflow_configs_rerun_into_one_directory(tmp_path):
    # each run into the directory that every config before it used
    # leaves the tree that config leaves in a fresh directory
    shared = tmp_path / "shared"
    for name, path in workflow_configs("rerun").items():
        fresh = tmp_path / name
        assert main(["run", path, "--output-dir", str(fresh)]) == 0
        assert main(["run", path, "--output-dir", str(shared)]) == 0
        assert read_dirs(shared) == read_dirs(fresh), name
        assert read_tree(shared) == read_tree(fresh), name


@pytest.mark.parametrize("first, second, stale", [
    ("wave-short", "maxwell", "monitors/gradient_constraint.csv"),
    ("viscous", "wave-short", "viscous_limit.csv"),
    ("maxwell", "euler", "monitors")])
def test_a_rerun_drops_the_earlier_runs_files(tmp_path, first, second, stale):
    out = tmp_path / "out"
    assert main(["run", workflow_config("rerun", first), "--output-dir", str(out)]) == 0
    assert (out / stale).exists()
    assert main(["run", workflow_config("rerun", second), "--output-dir", str(out)]) == 0
    assert not (out / stale).exists()
    assert main(["run", workflow_config("rerun", second),
                 "--output-dir", str(tmp_path / "fresh")]) == 0
    assert read_tree(out) == read_tree(tmp_path / "fresh")


@pytest.mark.parametrize("first", ["wave-short", "viscous", "maxwell"])
def test_a_check_drops_the_earlier_runs_files(tmp_path, first):
    # a check writes no trace, so none replaces the earlier run's: it goes
    out, fresh = tmp_path / "out", tmp_path / "fresh"
    check = workflow_config("check", "burgers")
    assert main(["run", workflow_config("rerun", first), "--output-dir", str(out)]) == 0
    assert (out / "snapshots").is_dir()
    assert main(["check", check, "--output-dir", str(out)]) == 0
    assert main(["check", check, "--output-dir", str(fresh)]) == 0
    assert read_dirs(out) == read_dirs(fresh) == ["."]
    assert read_tree(out) == read_tree(fresh)


@pytest.mark.parametrize("command, config", [
    *(("run", name) for name in workflow_configs("fail")), ("check", "constraints")])
def test_a_failed_invocation_drops_the_earlier_runs_files(tmp_path, command, config):
    # each CI fail config, and a check that needs a simulation: once its
    # inputs are read or fail, the earlier run's files go, and the failure
    # leaves the tree it leaves in a fresh directory
    if config == "constraints":
        path = tmp_path / "constraints.cfg"
        with open(workflow_config("rerun", "wave-short")) as handle:
            path.write_text(handle.read() + "[checks]\nnames = constraints\n")
    else:
        path = workflow_config("fail", config)
    out, fresh = tmp_path / "out", tmp_path / "fresh"
    assert main(["run", workflow_config("rerun", "wave-short"), "--output-dir", str(out)]) == 0
    assert (out / "monitors" / "gradient_constraint.csv").is_file()
    assert main([command, str(path), "--output-dir", str(out)]) == 2
    assert main([command, str(path), "--output-dir", str(fresh)]) == 2
    assert read_dirs(out) == read_dirs(fresh)
    assert read_tree(out) == read_tree(fresh)


@pytest.mark.parametrize("command, text", [
    ("run", "[model]\nname = burgers\n[scheme]\nlambda = -1\nt_end = 1\n"),
    ("check", "[model]\nname = wave\n[checks]\nnames = is_sh\nis_sh.per_axis = 0\n"),
    ("run", None),
], ids=["lambda", "per_axis", "unreadable"])
def test_a_config_that_does_not_parse_drops_the_earlier_run(tmp_path, capsys, command, text):
    # the earlier run's verdicts.csv, log, snapshots and monitors used to
    # stay, so the directory still read as a pass
    path, out = tmp_path / "bad.cfg", tmp_path / "out"
    if text is not None:
        path.write_text(text)
    assert main(["run", workflow_config("rerun", "wave-short"), "--output-dir", str(out)]) == 0
    capsys.readouterr()
    assert main([command, str(path), "--output-dir", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert read_dirs(out) == ["."] and read_tree(out) == {}


def test_a_config_that_does_not_parse_touches_no_configured_directory(
        tmp_path, monkeypatch):
    # without --output-dir the config's own [output] dir is not trusted
    monkeypatch.chdir(tmp_path)
    (tmp_path / "out").mkdir()
    (tmp_path / "out" / "verdicts.csv").write_text("name,pass,value,tolerance\n")
    (tmp_path / "bad.cfg").write_text("[model]\nname = burgers\n[scheme]\nlambda = -1\n"
                                      "[output]\ndir = out\n")
    assert main(["run", "bad.cfg"]) == 2
    assert (tmp_path / "out" / "verdicts.csv").is_file()


def test_a_run_may_start_from_a_snapshot_of_its_output_directory(tmp_path):
    # the run reads its initial state before it deletes the earlier files
    out = tmp_path / "out"
    assert main(["run", workflow_config("rerun", "burgers"), "--output-dir", str(out)]) == 0
    last = (out / "snapshots" / "0012.csv").read_bytes()
    config = tmp_path / "continue.cfg"
    config.write_text("[model]\nname = burgers\n[grid]\nshape = 2500\nh = 0.0008\n"
                      "origin = -0.9996\nboundary = outflow\n[scheme]\nlambda = 0.9\n"
                      "t_end = 0.01\noutput_stride = 25\n[initial]\nprofile = file\n"
                      f"csv = {out / 'snapshots' / '0012.csv'}\n")
    assert main(["run", str(config), "--output-dir", str(out)]) == 0
    assert sorted(os.listdir(out / "snapshots")) == ["0000.csv", "0001.csv"]
    assert (out / "snapshots" / "0000.csv").read_bytes() == last


def test_workflow_viscous_limit_is_monotone(tmp_path):
    assert main(["run", workflow_config("rerun", "viscous"), "--output-dir", str(tmp_path)]) == 0
    assert read_verdicts(tmp_path)["viscous_limit.monotone"][0] == "true"


WAVE_ENERGY = """
[model]
name = wave
[grid]
shape = 32, 2
h = 0.03125
[scheme]
lambda = 0.4
t_end = 0.05
[initial]
profile = plane-wave
amplitude = 1.0, -0.5, 0.25, 0.75
modes = 1, 1
[checks]
names = energy
"""


class TestArtifactErrors:
    # an artifact path taken by a file or directory of the wrong kind: the
    # snapshot directory (write_trace), a check's monitor CSV (energy) and
    # verdicts.csv
    @pytest.mark.parametrize("taken, kind, error", [
        ("snapshots", "file", "File exists"),
        (os.path.join("monitors", "energy.csv"), "dir", "Is a directory"),
        ("verdicts.csv", "dir", "Is a directory"),
    ])
    def test_unwritable_artifact_exits_2(self, tmp_path, capsys, taken, kind, error):
        config_path = tmp_path / "cfg.txt"
        config_path.write_text(WAVE_ENERGY)
        out = tmp_path / "out"
        if kind == "dir":
            (out / taken).mkdir(parents=True)
        else:
            out.mkdir()
            (out / taken).write_text("")
        assert main(["run", str(config_path), "--output-dir", str(out)]) == 2
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith("error: ") and error in line
        assert line.endswith(f"{str(out / taken)!r}")
        assert error_messages(out) == [line[len("error: "):]]
        assert not (out / "verdicts.csv").is_file()

    # run.ndjson turns unwritable (a directory) after a writer's call, which
    # then fails with a full disk or succeeds: the error event cannot be
    # logged, but the run still ends with one error line and exit 2
    @pytest.mark.parametrize("writer, disk_full, error", [
        ("write_trace", True, "[Errno 28] No space left on device"),
        ("write_verdicts_csv", True, "[Errno 28] No space left on device"),
        ("write_verdicts_csv", False, "[Errno 21] Is a directory"),
    ])
    def test_unwritable_log_still_exits_2_with_one_error_line(
            self, tmp_path, capsys, monkeypatch, writer, disk_full, error):
        real = getattr(cli, writer)

        def then_log_unwritable(path, *args):
            real(path, *args)
            out = os.path.dirname(path) if writer == "write_verdicts_csv" else path
            os.remove(os.path.join(out, "run.ndjson"))
            os.mkdir(os.path.join(out, "run.ndjson"))
            if disk_full:
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        monkeypatch.setattr(cli, writer, then_log_unwritable)
        config_path = tmp_path / "cfg.txt"
        config_path.write_text(WAVE_ENERGY)
        out = tmp_path / "out"
        assert main(["run", str(config_path), "--output-dir", str(out)]) == 2
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith(f"error: {error}")
        assert (out / "run.ndjson").is_dir() and not (out / "verdicts.csv").exists()

    def test_an_error_leaves_no_verdict_table(self, tmp_path, capsys, monkeypatch):
        # a table cut short by the error, and an earlier run's table
        def cut_short(path, rows):
            with open(path, "w") as handle:
                handle.write("name,pass,value,tolerance\n")
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        config_path = tmp_path / "cfg.txt"
        config_path.write_text(WAVE_ENERGY)
        out = tmp_path / "out"
        assert main(["run", str(config_path), "--output-dir", str(out)]) == 0
        assert (out / "verdicts.csv").is_file()
        monkeypatch.setattr(cli, "write_verdicts_csv", cut_short)
        assert main(["run", str(config_path), "--output-dir", str(out)]) == 2
        assert error_messages(out) == ["[Errno 28] No space left on device"]
        assert not (out / "verdicts.csv").exists()
        shutil.rmtree(out / "snapshots")
        (out / "snapshots").write_text("")
        monkeypatch.undo()
        (out / "verdicts.csv").write_text("an earlier run's table\n")
        assert main(["run", str(config_path), "--output-dir", str(out)]) == 2
        assert not (out / "verdicts.csv").exists()
        assert capsys.readouterr().err.splitlines()[-1].startswith("error: [Errno 17]")

    def test_missing_initial_data_file_exits_2(self, tmp_path, capsys):
        config_path = tmp_path / "cfg.txt"
        missing = tmp_path / "init.csv"
        config_path.write_text("[model]\nname = burgers\n[grid]\nshape = 16\nh = 0.0625\n"
                               "[scheme]\nlambda = 0.4\nt_end = 0.1\n"
                               f"[initial]\nprofile = file\ncsv = {missing}\n")
        out = tmp_path / "out"
        assert main(["run", str(config_path), "--output-dir", str(out)]) == 2
        message = f"[Errno 2] No such file or directory: {str(missing)!r}"
        assert capsys.readouterr().err == f"error: {message}\n"
        assert error_messages(out) == [message]

    def test_failed_child_share_exits_2_with_the_serial_error(self, tmp_path, capsys,
                                                              monkeypatch):
        # 0001.csv is the share of the one forked writer of two
        forks, real = [], os.fork
        monkeypatch.setattr(os, "fork", lambda: forks.append(1) or real())
        stderr = []
        for workers in (1, 2):
            monkeypatch.setattr(output, "_usable_cpus", lambda: workers)
            out = tmp_path / "out"
            (out / "snapshots" / "0001.csv").mkdir(parents=True)
            forks.clear()
            assert main(["run", workflow_config("rerun", "wave-128"),
                         "--output-dir", str(out)]) == 2
            assert len(forks) == workers - 1
            with pytest.raises(ChildProcessError):
                os.waitpid(-1, os.WNOHANG)
            stderr.append(capsys.readouterr().err)
            assert error_messages(out) == [stderr[-1][len("error: "):-1]]
            shutil.rmtree(out)
        assert stderr[0] == stderr[1]
        assert stderr[0].startswith("error: [Errno 21] Is a directory")

    def test_rerun_removes_the_older_runs_extra_snapshots(self, tmp_path):
        out = tmp_path / "out"
        assert main(["run", workflow_config("rerun", "burgers"), "--output-dir", str(out)]) == 0
        assert len(list((out / "snapshots").iterdir())) == 13
        others = ["notes.txt", "00012.csv", "12.csv", "0009.csv.bak", "0011.txt"]
        for name in others:
            (out / "snapshots" / name).write_text("kept")
        (out / "snapshots" / "0010.csv").unlink()
        (out / "snapshots" / "0010.csv").mkdir()
        assert main(["run", workflow_config("rerun", "wave-short"),
                     "--output-dir", str(tmp_path / "fresh")]) == 0
        assert main(["run", workflow_config("rerun", "wave-short"), "--output-dir", str(out)]) == 0
        assert sorted(os.listdir(out / "snapshots")) == sorted(
            [f"{i:04d}.csv" for i in range(5)] + others + ["0010.csv"])
        assert all((out / "snapshots" / name).read_text() == "kept" for name in others)
        fresh = read_tree(tmp_path / "fresh" / "snapshots")
        assert {name: read_tree(out / "snapshots")[name] for name in fresh} == fresh
