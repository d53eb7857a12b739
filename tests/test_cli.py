import csv
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import hyposym
from hyposym.cli import (
    COMMANDS,
    ConfigError,
    config_hash,
    main,
    parse_config,
    run,
)
from hyposym.quasisym import sample_separation_set
from oracles import traced_peak


MINIMAL_GLAESER = json.dumps(
    {
        "system": {
            "m": 2,
            "n": 1,
            "horizon": 1.0,
            "coefficients": [[[[0.0], [1.0]], [[0.0, 0.0, 1.0], [0.0]]]],
        }
    }
)


class TestParseConfig:
    def test_minimal_inline_system(self):
        cfg = parse_config(MINIMAL_GLAESER)
        assert cfg.symbol.m == 2
        assert cfg.symbol.coeffs[0, 1, 0, 2] == 1.0
        assert cfg.seed == 0
        # canonical echo carries the defaults
        echoed = cfg.data
        assert echoed["grids"]["t_points"] == 201
        assert echoed["eps_policy"] == {"kind": "balanced", "k": 2.0}

    def test_named_system(self):
        cfg = parse_config(json.dumps({"system": {"name": "m2-glaeser"}}))
        assert cfg.symbol.m == 2

    def test_missing_system_key_named(self):
        with pytest.raises(ConfigError) as err:
            parse_config(json.dumps({"seed": 1}))
        assert any("system" in e for e in err.value.errors)

    def test_missing_m_named_in_error(self):
        broken = json.dumps(
            {"system": {"n": 1, "horizon": 1.0, "coefficients": []}}
        )
        with pytest.raises(ConfigError) as err:
            parse_config(broken)
        assert any("system.m" in e for e in err.value.errors)

    def test_dimension_cap(self):
        cfg = {"system": {"m": 7, "n": 1, "horizon": 1.0, "coefficients": []}}
        with pytest.raises(ConfigError) as err:
            parse_config(json.dumps(cfg))
        assert any("<= 6" in e for e in err.value.errors)

    def test_unknown_keys_rejected_with_path(self):
        doc = json.loads(MINIMAL_GLAESER)
        doc["grids"] = {"bogus": 3}
        doc["mystery"] = 1
        with pytest.raises(ConfigError) as err:
            parse_config(json.dumps(doc))
        msgs = " | ".join(err.value.errors)
        assert "grids.bogus" in msgs and "mystery" in msgs

    def test_syntax_error_carries_line_and_column(self):
        with pytest.raises(ConfigError) as err:
            parse_config("{\n  'bad': }")
        assert "line 2" in err.value.errors[0]

    def test_all_errors_collected(self):
        doc = {
            "system": {"name": "m2-glaeser"},
            "grids": {"t_points": 1, "xi_list": [-3]},
            "eps_policy": {"kind": "fixed", "value": 7},
            "seed": -1,
        }
        with pytest.raises(ConfigError) as err:
            parse_config(json.dumps(doc))
        assert len(err.value.errors) >= 4

    def test_round_trip(self):
        cfg = parse_config(MINIMAL_GLAESER)
        again = parse_config(json.dumps(cfg.data, sort_keys=True, indent=2))
        assert again.data == cfg.data
        assert config_hash(again) == config_hash(cfg)


def write_config(tmp_path, doc, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


SMALL_GRIDS = {"t_points": 31, "xi_points": 5, "xi_list": [10.0, 100.0, 1000.0]}


class TestRun:
    def test_conditions_on_glaeser(self, tmp_path):
        cfg = parse_config(json.dumps({"system": {"name": "m2-glaeser"}, "grids": SMALL_GRIDS}))
        code = run(cfg, "conditions", tmp_path / "out")
        assert code == 0
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["results"]["ks_constant"] == pytest.approx(0.5)
        assert report["results"]["levi_sups"][0][0] == pytest.approx(2.0)
        assert report["failures"] == []
        assert (tmp_path / "out" / "conditions.csv").exists()
        header = (tmp_path / "out" / "conditions.csv").read_text().splitlines()[0]
        assert header == "t,xi,kind,l,j,value"

    def test_verify_qs_m3(self, tmp_path):
        cfg = parse_config(json.dumps({"system": {"name": "m3-tracezero"}}))
        code = run(cfg, "verify-qs", tmp_path / "out")
        assert code == 0
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        worst = report["results"]["worst"]
        assert worst["recursion"] <= 1e-8
        assert worst["factorization"] <= 1e-8
        assert worst["psd_min"] >= -1e-10

    def test_verify_qs_failure_order_and_worst(self, tmp_path, monkeypatch):
        import hyposym.cli as cli
        from hyposym.quasisym import PropertyReport

        # (row, eps, kind) of each failing check, in the order expected back
        plan = [(1, 0.1, "psd"), (1, 0.1, "factorization"), (1, 0.01, "recursion"),
                (3, 1.0, "factorization"), (3, 0.1, "psd"), (3, 0.1, "recursion")]

        def fake(lams, eps):
            n, m = lams.shape
            values = {"psd": np.full(n, -0.0), "recursion": np.zeros(n),
                      "factorization": np.zeros(n)}
            for row, at, kind in plan:
                if at == eps:
                    values[kind][row] = -1.0 if kind == "psd" else 1.0
            coercivity = np.ones(n)
            coercivity[5] = np.inf if eps == 0.01 else 1.0
            ratio = np.zeros(n)
            ratio[[0, 2, 4]] = np.nan, np.inf, 7.0
            return PropertyReport(
                psd_min_eigs=(np.zeros(n),) * (m - 1) + (values["psd"],),
                coercivity_constant=coercivity, commutator_constant=np.zeros(n),
                recursion_residual=values["recursion"],
                factorization_residual=values["factorization"], det_identity_abs=np.zeros(n),
                det_identity_rel=np.zeros(n), diag_product_ratio=ratio)

        monkeypatch.setattr(cli, "verify_properties", fake)
        cfg = parse_config(json.dumps({"system": {"name": "m3-tracezero"}}))
        assert run(cfg, "verify-qs", tmp_path / "out") == 2
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        lams = sample_separation_set(3, 10.0, 50, seed=0)
        assert report["failures"] == [
            {"kind": kind, "lambda": lams[row].tolist(), "eps": eps}
            for row, eps, kind in plan]
        assert report["results"]["worst"] == {
            "psd_min": -1.0, "recursion": 1.0, "factorization": 1.0, "det_rel": 0.0,
            "diag_ratio": 7.0, "commutator": 0.0, "coercivity": "inf"}

        plan.clear()   # psd minima are all -0.0: the worst psd reads 0.0
        assert run(cfg, "verify-qs", tmp_path / "clean") == 0
        text = (tmp_path / "clean" / "report.json").read_text()
        assert json.loads(text)["results"]["worst"]["psd_min"] == 0.0
        assert '"psd_min": 0.0' in text

    def test_growth_on_control_classifies_exponential(self, tmp_path):
        doc = {
            "system": {"name": "m2-nonhyp-control"},
            "grids": {"xi_list": [10.0, 31.6, 100.0, 316.0, 1000.0]},
        }
        cfg = parse_config(json.dumps(doc))
        code = run(cfg, "growth", tmp_path / "out")
        assert code == 0  # classification is data, not failure
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["results"]["classification"] == "exponential"
        assert report["results"]["rate"] == pytest.approx(1.0, rel=0.1)

    def test_solve_writes_field_csv(self, tmp_path):
        doc = {
            "system": {"name": "m2-wave"},
            "grid_size": 64,
            "snapshots": [0.5],
            "initial_data": {
                "kind": "fourier_modes",
                "modes": [{"k": 1, "amplitudes": [[1.0, 0.0], [0.0, 0.0]]}],
            },
        }
        cfg = parse_config(json.dumps(doc))
        assert run(cfg, "solve", tmp_path / "out") == 0
        lines = (tmp_path / "out" / "solve_t0.csv").read_text().splitlines()
        assert lines[0] == "x,re_u1,im_u1,re_u2,im_u2"
        assert len(lines) == 65

    def test_reduce_reports_samples_and_study(self, tmp_path):
        cfg = parse_config(json.dumps({"system": {"name": "m3-tracezero"},
                                       "grids": {"xi_list": [2.0]}}))
        assert run(cfg, "reduce", tmp_path / "out") == 0
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        study = report["results"]["residual_study"]
        assert study[-1]["residual"] <= 1e-6
        assert "closed_form_comparison" in report["results"]

    def test_rerun_byte_identical(self, tmp_path):
        doc = {"system": {"name": "m2-glaeser"}, "grids": SMALL_GRIDS, "seed": 3}
        cfg = parse_config(json.dumps(doc))
        run(cfg, "conditions", tmp_path / "a")
        run(cfg, "conditions", tmp_path / "b")
        assert (tmp_path / "a" / "report.json").read_bytes() == (
            tmp_path / "b" / "report.json"
        ).read_bytes()
        assert (tmp_path / "a" / "conditions.csv").read_bytes() == (
            tmp_path / "b" / "conditions.csv"
        ).read_bytes()

    def test_command_mismatch_rejected(self, tmp_path):
        doc = {"system": {"name": "m2-glaeser"}, "command": "growth"}
        cfg = parse_config(json.dumps(doc))
        from hyposym.errors import DomainError

        with pytest.raises(DomainError):
            run(cfg, "conditions", tmp_path / "out")

    def test_report_command_bundles_everything(self, tmp_path):
        doc = {"system": {"name": "m2-glaeser"}, "grids": SMALL_GRIDS}
        cfg = parse_config(json.dumps(doc))
        assert run(cfg, "report", tmp_path / "out") == 0
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        res = report["results"]
        assert res["conditions"]["ks_constant"] == pytest.approx(0.5)
        assert res["energy"]["passed"] is True
        assert res["growth"]["classification"] == "polynomial"
        assert res["K_sweep"]["fitted_exponent"] is not None

    def test_config_out_path_used(self, tmp_path):
        doc = {"system": {"name": "m2-glaeser"},
               "grids": {"t_points": 5, "xi_points": 3},
               "out": str(tmp_path / "from-config")}
        path = write_config(tmp_path, doc)
        assert main(["conditions", "--config", str(path)]) == 0
        assert (tmp_path / "from-config" / "report.json").exists()

    def test_report_carries_hash_and_seed(self, tmp_path):
        doc = {"system": {"name": "m2-glaeser"}, "grids": SMALL_GRIDS, "seed": 11}
        cfg = parse_config(json.dumps(doc))
        run(cfg, "conditions", tmp_path / "out")
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["seed"] == 11
        assert report["config_sha256"] == config_hash(cfg)
        assert report["config"]["system"]["name"] == "m2-glaeser"


class TestMain:
    def test_usage_error_exit_one(self, tmp_path, capsys):
        path = write_config(tmp_path, {"system": {"name": "nope"}})
        assert main(["conditions", "--config", str(path)]) == 1
        assert "config error" in capsys.readouterr().err

    def test_missing_file(self, capsys):
        assert main(["conditions", "--config", "/does/not/exist.json"]) == 1

    def test_seed_override(self, tmp_path):
        path = write_config(tmp_path, {"system": {"name": "m2-glaeser"},
                                       "grids": SMALL_GRIDS})
        out = tmp_path / "out"
        assert main(["conditions", "--config", str(path), "--out", str(out),
                     "--seed", "99"]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["seed"] == 99

    def test_property_failure_exit_two(self, tmp_path):
        # the rotation control violates hyperbolicity on every grid point
        path = write_config(
            tmp_path,
            {"system": {"name": "m2-nonhyp-control"},
             "grids": {"t_points": 5, "xi_points": 3}},
        )
        out = tmp_path / "out"
        assert main(["conditions", "--config", str(path), "--out", str(out)]) == 2
        report = json.loads((out / "report.json").read_text())
        assert any(f["kind"] == "hyperbolicity" for f in report["failures"])

    @pytest.mark.parametrize("argv", [
        ["--config", "{cfg}", "--seed", "-1"],
        ["--config", "{cfg}", "--no-such-flag"],
        ["--config"],
        [],
    ], ids=["negative-seed", "unknown-flag", "config-without-value", "config-missing"])
    def test_argv_errors_exit_one(self, tmp_path, capsys, argv):
        # Exit 2 is reserved for property findings, so argparse's own usage
        # exit code must not leak through.
        path = write_config(tmp_path, {"system": {"name": "m2-glaeser"}, "grids": SMALL_GRIDS})
        argv = ["conditions"] + [str(path) if a == "{cfg}" else a for a in argv]
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        assert code == 1
        assert "error" in capsys.readouterr().err

    def test_untrustworthy_computation_exit_three(self, tmp_path):
        # 1e200 coefficients overflow the characteristic polynomial, so the
        # companion eigenvalue solve fails; the CLI must say so without a traceback.
        path = write_config(tmp_path, {
            "system": {"m": 2, "n": 1, "horizon": 1.0,
                       "coefficients": [[[[1e200], [1e200]], [[1e200], [1e200]]]]},
            "grids": {"t_points": 5, "xi_points": 3},
        })
        src = Path(hyposym.__file__).resolve().parent.parent
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run(
            [sys.executable, "-m", "hyposym.cli", "conditions", "--config", str(path),
             "--out", str(tmp_path / "out")],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 3
        assert "Traceback" not in proc.stderr
        assert "computation not trustworthy" in proc.stderr
        assert not (tmp_path / "out" / "report.json").exists()

    def test_overflow_exit_three_prints_no_numpy_warning(self, tmp_path):
        # The overflowing characteristic polynomial is reported once, as the
        # exit-3 error line, not also as a numpy RuntimeWarning.
        path = write_config(tmp_path, {
            "system": {"m": 2, "n": 1, "horizon": 1.0,
                       "coefficients": [[[[1e200], [1e200]], [[1e200], [1e200]]]]},
            "grids": {"t_points": 5, "xi_points": 3},
        })
        src = Path(hyposym.__file__).resolve().parent.parent
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run(
            [sys.executable, "-m", "hyposym.cli", "conditions", "--config", str(path),
             "--out", str(tmp_path / "out")],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 3
        assert "RuntimeWarning" not in proc.stderr
        assert "computation not trustworthy" in proc.stderr

    def test_growth_integrates_first_axis_frequency_for_n2(self, tmp_path):
        # Frequency x of the sweep is (x, 0); a length-1 xi broadcast to (x, x)
        # once made this system look polynomial.
        import numpy as np

        from hyposym.energy import SolverConfig, reduced_integrate
        from hyposym.reduction import PathAssembler

        system = {"m": 2, "n": 2, "horizon": 1.0, "coefficients": [
            [[[0.0], [1.0]], [[0.0, 0.0, 1.0], [0.0]]],
            [[[1.0], [0.0]], [[0.0], [-1.0]]],
        ]}
        path = write_config(tmp_path, {"system": system,
                                       "grids": {"xi_list": [1.0, 10.0, 100.0]}})
        out = tmp_path / "out"
        assert main(["growth", "--config", str(path), "--out", str(out)]) == 0
        results = json.loads((out / "report.json").read_text())["results"]
        S = parse_config(json.dumps({"system": system})).symbol
        expected = []
        for x in (1.0, 10.0, 100.0):
            xi = np.array([x, 0.0])
            u0 = np.ones((1, 1, 2), dtype=complex) / np.sqrt(2)
            V0 = PathAssembler(S, xi[None]).lift([0.0], u0)
            expected.append(reduced_integrate(S, xi, V0[0, 0], SolverConfig(),
                                              collect_energy=False).growth_log)
        assert results["growth_logs"] == expected
        assert results["growth_logs"] == pytest.approx([0.1869, 0.7865, 1.894], abs=1e-3)
        assert results["classification"] == "gevrey"

    def test_report_on_control_exits_two(self, tmp_path, capsys):
        # exp(1000 t) growth of the control is renormalised in the report's
        # energy traces as in `growth`, so the run ends in findings, not exit 3.
        path = write_config(tmp_path, {
            "system": {"name": "m2-nonhyp-control"},
            "grids": {"t_points": 21, "xi_points": 4, "directions": 2},
        })
        out = tmp_path / "out"
        assert main(["report", "--config", str(path), "--out", str(out)]) == 2
        report = json.loads((out / "report.json").read_text())
        kinds = {f["kind"] for f in report["failures"]}
        assert {"hyperbolicity", "energy_inequality"} <= kinds
        assert "Traceback" not in capsys.readouterr().err

    def test_report_on_constant_system_leaves_K_exponent_unmeasured(self, tmp_path):
        # dQ/dt = 0 for a constant symbol: every K integral is 0.0, which has
        # no logarithm, so the exponent is not fitted.
        path = write_config(tmp_path, {
            "system": {"name": "m2-wave"},
            "grids": {"t_points": 21, "xi_points": 4, "directions": 2,
                      "xi_list": [1.0, 10.0, 100.0]},
        })
        out = tmp_path / "out"
        assert main(["report", "--config", str(path), "--out", str(out)]) == 0
        sweep = json.loads((out / "report.json").read_text())["results"]["K_sweep"]
        assert sweep["integrals"] == [0.0, 0.0, 0.0]
        assert sweep["fitted_exponent"] == "nan"

    def test_jobs_flag_is_unknown(self, tmp_path, capsys):
        # the integrator batches every frequency in one process; --jobs is gone
        path = write_config(tmp_path, {"system": {"name": "m2-glaeser"}, "grids": SMALL_GRIDS})
        with pytest.raises(SystemExit) as exc:
            main(["conditions", "--config", str(path), "--jobs", "2"])
        assert exc.value.code == 1
        assert "unrecognized arguments: --jobs 2" in capsys.readouterr().err


def _modes(*modes):
    return {"initial_data": {"kind": "fourier_modes", "modes": list(modes)},
            "grid_size": 8}


@pytest.mark.parametrize("command, extra, key_path", [
    ("conditions", {"grids": {"xi_min": 0}}, "grids.xi_min"),
    ("conditions", {"grids": {"xi_min": 100.0, "xi_max": 10.0}}, "grids.xi_min"),
    ("conditions", {"eps_policy": {"kind": "fixed", "value": True}}, "eps_policy.value"),
    ("conditions", {"eps_policy": {"kind": "balanced", "k": True}}, "eps_policy.k"),
    ("conditions", {"eps_policy": {"kind": "fixed", "value": 0.5, "k": 4}},
     "eps_policy.k is not a key of the fixed policy"),
    ("growth", {"eps_policy": {"kind": "inverse", "k": 2.0}},
     "eps_policy.k is not a key of the inverse policy"),
    ("solve", {"eps_policy": {"kind": "inverse", "value": 0.5}},
     "eps_policy.value is not a key of the inverse policy"),
    ("conditions", {"eps_policy": {"kind": "balanced", "k": 2.0, "value": 0.5}},
     "eps_policy.value is not a key of the balanced policy"),
    ("solve", _modes({"k": 1}), "initial_data.modes[0].amplitudes"),
    ("solve", _modes(5), "initial_data.modes[0]"),
    ("solve", _modes({"k": "1", "amplitudes": [[1.0, 0.0]]}), "initial_data.modes[0].k"),
    ("solve", _modes({"k": 1, "amplitudes": [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0]]}),
     "initial_data.modes[0].amplitudes"),
    ("solve", _modes({"k": 1, "amplitudes": [[1.0]]}), "initial_data.modes[0].amplitudes"),
    ("solve", {"initial_data": {"kind": "uniform", "junk": float("nan")}},
     "unknown key initial_data.junk"),
    ("growth", {"system": {"name": "m2-wave"}, "grid_size": 3},
     "grid_size must be a power of two"),
    ("conditions", {"solver": {"t_step": 0}}, "solver.t_step must be > 0"),
    ("conditions", {"solver": {"cfl_safety": 0}}, "solver.cfl_safety must be > 0"),
    ("conditions", {"system": {"m": 2, "n": 1, "horizon": 0, "coefficients": [
        [[[0.0], [1.0]], [[1.0], [0.0]]]]}}, "system.horizon must be > 0"),
], ids=["xi-min-zero", "xi-min-above-max", "eps-value-bool", "eps-k-bool",
        "fixed-with-k", "inverse-with-k", "inverse-with-value", "balanced-with-value",
        "mode-without-amplitudes", "mode-bare-number", "mode-string-k",
        "mode-too-many-amplitudes", "mode-one-element-pair", "uniform-extra-key",
        "grid-size-not-power-of-two", "t-step-zero", "cfl-safety-zero", "horizon-zero"])
def test_config_rejected_at_parse_time(tmp_path, capsys, command, extra, key_path):
    doc = {"system": {"name": "m2-glaeser"}, **extra}
    if "grids" in extra:
        doc["grids"] = {**SMALL_GRIDS, **extra["grids"]}
    path = write_config(tmp_path, doc)
    assert main([command, "--config", str(path), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert key_path in err
    assert "Traceback" not in err


@pytest.mark.parametrize("extra, key_path", [
    ({"grid_size": 3}, "grid_size must be a power of two"),
    ({"solver": {"t_step": 0}}, "solver.t_step must be > 0"),
    ({"solver": {"cfl_safety": 0}}, "solver.cfl_safety must be > 0"),
], ids=["grid-size-3", "t-step-zero", "cfl-safety-zero"])
def test_unrunnable_steps_and_grid_size_fail_every_command(tmp_path, capsys, extra, key_path):
    path = write_config(tmp_path, {"system": {"name": "m2-wave"}, **extra})
    for command in COMMANDS:
        assert main([command, "--config", str(path), "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:") and key_path in err, (command, err)
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command, doc, key_path", [
    ("reduce", {"grids": {"xi_list": []}}, "grids.xi_list"),
    ("conditions", {"system": {"name": [1.0]}}, "system.name"),
    ("conditions", {"grids": {"t_points": 2 ** 70}}, "grids.t_points"),
    ("conditions", {"grids": {"xi_max": 10 ** 400}}, "grids.xi_max"),
    ("growth", {"grids": {"xi_list": [10.0, 10 ** 400, 1e3]}}, "grids.xi_list"),
    ("conditions", {"system": {"m": 2, "n": 1, "horizon": 1.0, "coefficients": [
        [[[0.0], [1.0]], [[10 ** 400], [0.0]]]]}}, "system.coefficients"),
    ("conditions", {"eps_policy": {"kind": []}}, "eps_policy.kind"),
], ids=["empty-xi-list", "unhashable-name", "huge-t-points", "xi-max-beyond-float",
        "xi-list-beyond-float", "coefficient-beyond-float", "unhashable-eps-kind"])
def test_fuzz_found_config_exits_one(tmp_path, capsys, command, doc, key_path):
    # Each of these ended in a Python traceback before it was checked at parse time.
    doc = {"system": {"name": "m2-glaeser"}, **doc}
    path = write_config(tmp_path, doc)
    assert main([command, "--config", str(path), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert key_path in err
    assert "Traceback" not in err


def _last_row_system(c):
    """2x2 system with rows (0, 1) and (0, c t^2)."""
    return {"m": 2, "n": 1, "horizon": 1.0,
            "coefficients": [[[[0.0], [1.0]], [[0.0], [0.0, 0.0, c]]]]}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("c", [1e160, 1e300])
@pytest.mark.parametrize("command, code", [("conditions", 2), ("report", 3)])
def test_overflowing_squares_print_no_warning(tmp_path, capsys, command, code, c):
    # The squares in the condition ratios overflow: a ratio reads inf, inf/inf
    # included, and report's sweep then overflows its state (exit 3).  Both
    # once printed numpy RuntimeWarnings ahead of their result.
    path = write_config(tmp_path, {"system": _last_row_system(c),
                                   "grids": {"t_points": 9, "xi_points": 3, "directions": 2}})
    out = tmp_path / "out"
    assert main([command, "--config", str(path), "--out", str(out)]) == code
    assert "Warning" not in capsys.readouterr().err
    if command == "conditions":
        results = json.loads((out / "report.json").read_text())["results"]
        assert results["ks_constant"] == "inf" and results["thm2_sups"] == ["inf"]


@pytest.mark.filterwarnings("error")
def test_reduce_overflow_names_its_first_point(tmp_path, capsys):
    # det A = -1e200 t^2 xi^2 overflows at t = 1 for xi = 1.5e54 and from
    # t = 0.5 on for xi = 1e60: the error names the first point in the
    # order of the samples, frequency by frequency and then time.
    path = write_config(tmp_path, {
        "system": {"m": 2, "n": 1, "horizon": 1.0,
                   "coefficients": [[[[0.0], [1.0]], [[0.0, 0.0, 1e200], [0.0]]]]},
        "grids": {"xi_list": [1.0, 1.5e54, 1e60]}, "solver": {"t_step": 0.01}})
    out = tmp_path / "out"
    assert main(["reduce", "--config", str(path), "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert "the reduction overflows at (t=1.0, xi=[1.5e+54])" in err
    assert "Warning" not in err
    assert not (out / "report.json").exists()


def test_reduce_residual_study_keeps_to_the_stiffness_guard(tmp_path, capsys):
    # cfl_safety 0.01 puts the guard at xi = 10 at 9.95e-4, below the study's
    # usual first step 4e-3: the steps then start at the guard.
    from hyposym.symbols import bracket

    path = write_config(tmp_path, {"system": {"name": "m2-glaeser"},
                                   "solver": {"cfl_safety": 0.01}})
    out = tmp_path / "out"
    assert main(["reduce", "--config", str(path), "--out", str(out)]) == 0, capsys.readouterr()
    study = json.loads((out / "report.json").read_text())["results"]["residual_study"]
    h0 = 0.01 / bracket(10.0)
    assert [row["step"] for row in study] == [h0, h0 / 2, h0 / 4]


def test_reduce_residual_study_takes_four_steps_on_a_short_horizon(tmp_path, capsys):
    # At T = 0.01 the usual first step 4e-3 leaves 3 steps, and the lifting
    # of a trajectory needs 5 samples: the steps then start at T / 4.
    path = write_config(tmp_path, {"system": {"m": 2, "n": 1, "horizon": 0.01,
                                              "coefficients": [[[[0.0], [1.0]],
                                                                [[1.0], [0.0]]]]}})
    out = tmp_path / "out"
    assert main(["reduce", "--config", str(path), "--out", str(out)]) == 0, capsys.readouterr()
    study = json.loads((out / "report.json").read_text())["results"]["residual_study"]
    assert [row["step"] for row in study] == [0.01 / 4, 0.01 / 8, 0.01 / 16]


def test_grid_point_budget():
    # An n = 2 grid has the 16 directions it is given.
    from hyposym.cli import MAX_GRID_POINTS

    def grids(t_points):
        return json.dumps({"system": _inline_system(2, 2),
                           "grids": {"t_points": t_points, "xi_points": 32, "directions": 16}})

    parse_config(grids(MAX_GRID_POINTS // (32 * 16)))
    with pytest.raises(ConfigError) as err:
        parse_config(grids(MAX_GRID_POINTS // (32 * 16) + 1))
    assert any("grids.t_points x grids.xi_points x grids.directions" in e
               for e in err.value.errors)


def test_grid_point_budget_counts_two_directions_in_one_dimension():
    # A one-dimensional grid has the directions +1 and -1 whatever
    # grids.directions says, so the budget counts 2.
    from hyposym.cli import MAX_GRID_POINTS

    def grids(t_points):
        return json.dumps({"system": {"name": "m2-glaeser"},
                           "grids": {"t_points": t_points, "xi_points": 32, "directions": 16}})

    assert parse_config(grids(MAX_GRID_POINTS // 64)).sampling_grid().shape == (
        MAX_GRID_POINTS // 64, 32, 2)
    with pytest.raises(ConfigError) as err:
        parse_config(grids(MAX_GRID_POINTS // 64 + 1))
    assert err.value.errors == [f"grids.t_points x grids.xi_points x 2 directions "
                                f"(+1 and -1 when n = 1) must be <= {MAX_GRID_POINTS}"]


def test_integer_xi_max_beyond_int64_is_read_as_float(tmp_path):
    # numpy's log10 has no loop for a Python integer this large
    reports = []
    for name, xi_max in (("int", 2 ** 70), ("float", 2.0 ** 70)):
        path = write_config(tmp_path, {"system": {"name": "m2-glaeser"},
                                       "grids": {"t_points": 5, "xi_points": 3,
                                                 "xi_max": xi_max}}, name=f"{name}.json")
        out = tmp_path / name
        assert main(["conditions", "--config", str(path), "--out", str(out)]) in (0, 2)
        reports.append((out / "report.json").read_text())
    assert reports[0] == reports[1]


def test_overflowing_constant_coefficient_solve_exits_three(tmp_path, capsys):
    # m2-nonhyp-control modes grow like exp(|k| t): k = 1024 overflows by t = 1.
    path = write_config(tmp_path, {"system": {"name": "m2-nonhyp-control"}, "grid_size": 2048})
    out = tmp_path / "out"
    assert main(["solve", "--config", str(path), "--out", str(out)]) == 3
    assert "non-finite state" in capsys.readouterr().err
    assert not (out / "report.json").exists()


# A(t, xi) = 1e300 xi [[0, 1], [1, 0]]: det A overflows at every xi != 0.
OVERFLOWING_CONSTANT = {"m": 2, "n": 1, "horizon": 1.0,
                        "coefficients": [[[[0.0], [1e300]], [[1e300], [0.0]]]]}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("command, xi", [("growth", 10.0), ("solve", 1.0)])
def test_constant_reduction_overflow_names_its_first_point(tmp_path, capsys, command, xi):
    # The constant paths form i (calA + calB) once, at t = 0; an overflowed
    # reduction there once printed numpy's "invalid value encountered in
    # multiply" ahead of the exit-3 line.  growth meets it at its first
    # sweep frequency, solve at wavenumber 1 (wavenumber 0 is A = 0).
    path = write_config(tmp_path, {"system": OVERFLOWING_CONSTANT})
    out = tmp_path / "out"
    assert main([command, "--config", str(path), "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert f"the reduction overflows at (t=0.0, xi=[{xi}])" in err
    assert "Warning" not in err
    assert not (out / "report.json").exists()


@pytest.mark.filterwarnings("error")
def test_sweep_reduction_overflow_names_its_frequency_once(tmp_path, capsys):
    # det A = -1e200 t^2 xi^2 overflows at t = 1 for xi = 1.5e54; a huge
    # cfl_safety makes the first run one step, whose window reduces t = 0, 0.5, 1.
    path = write_config(tmp_path, {
        "system": {"m": 2, "n": 1, "horizon": 1.0,
                   "coefficients": [[[[0.0], [1.0]], [[0.0, 0.0, 1e200], [0.0]]]]},
        "grids": {"xi_list": [1.5e54, 1e60, 1.0]}, "solver": {"cfl_safety": 1e60}})
    out = tmp_path / "out"
    assert main(["growth", "--config", str(path), "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert "the reduction overflows at (t=1.0, xi=[1.5e+54])" in err
    assert err.count("xi=") == 1 and "Warning" not in err
    assert not (out / "report.json").exists()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("command", ["growth", "report"])
@pytest.mark.parametrize("a", [[1e50], [1.0, 1e50], [1.0, 0.0, 1e100]],
                         ids=["1e50", "1+1e50t", "1+1e100t2"])
def test_renormalisation_overflow_exits_three(tmp_path, capsys, command, a):
    # |h lambda| far past RK4's stability interval multiplies a state near
    # RENORM_THRESHOLD by about 1e92 in one step, so its norm overflows; the
    # fit once failed on the NaN growth log with a TypeError.
    path = write_config(tmp_path, {"system": {"m": 2, "n": 1, "horizon": 1.0,
                                              "coefficients": [[[[0.0], [1.0]], [a, [0.0]]]]}})
    out = tmp_path / "out"
    assert main([command, "--config", str(path), "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert re.search(r"a state overflows at step \d+ of 201 \(xi=\[10\.\]\)", err), err
    assert err.count("xi=") == 1 and "Warning" not in err
    assert not (out / "report.json").exists()


@pytest.mark.parametrize("doc, code", [
    ({"system": {"name": "m2-glaeser"}, "grid_size": 4096}, 1),    # over the RK4 budget
    ({"system": OVERFLOWING_CONSTANT, "grid_size": 8}, 3),         # the reduction overflows
], ids=["exit-1", "exit-3"])
def test_rejected_run_removes_only_the_directories_it_created(tmp_path, capsys, doc, code):
    path = write_config(tmp_path, doc)
    kept = tmp_path / "kept"
    kept.mkdir()
    for out in (tmp_path / "emptyout" / "a" / "b", kept, kept / "a" / "b"):
        assert main(["solve", "--config", str(path), "--out", str(out)]) == code
        assert "Traceback" not in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json", "kept"]
        assert list(kept.iterdir()) == []


@pytest.mark.parametrize("system, out", [
    ({"name": "m2-glaeser"}, None),
    (OVERFLOWING_CONSTANT, None),
    ({"name": "m3-tracezero"}, "résultats/β→γ"),
], ids=["builtin", "inline", "non-ascii-out"])
def test_config_hash_is_sha256_of_canonical_json(system, out):
    import hashlib

    cfg = parse_config(json.dumps({"system": system, "out": out}))
    canonical = json.dumps(cfg.data, sort_keys=True, separators=(",", ":"))
    assert config_hash(cfg) == hashlib.sha256(canonical.encode()).hexdigest()


def _builtin_sha256_missing() -> bool:
    import importlib.util

    return all(importlib.util.find_spec(name) is None for name in ("_sha2", "_sha256"))


@pytest.mark.skipif(_builtin_sha256_missing(), reason="no built-in SHA-256 module")
@pytest.mark.parametrize("command", ["solve", "growth", "reduce"])
def test_commands_that_never_sample_leave_openssl_unloaded(tmp_path, command):
    # config_hash takes CPython's built-in SHA-256: hashlib would load
    # OpenSSL's libcrypto through _hashlib.  Only numpy.random, which the
    # seeded sampling of conditions, verify-qs and report needs, loads it.
    path = write_config(tmp_path, {"system": {"name": "m2-glaeser"}, "grid_size": 16})
    script = (
        "import sys\n"
        "from hyposym.cli import main\n"
        f"code = main([{command!r}, '--config', {str(path)!r}, '--out', {str(tmp_path)!r}])\n"
        "assert code == 0, code\n"
        "print('_hashlib' in sys.modules)\n"
    )
    assert _python(script) == "False"


def _python(script: str, openblas_threads: str | None = None) -> str:
    """Standard output of ``script`` in a fresh interpreter with this hyposym on
    its path and OPENBLAS_NUM_THREADS set to ``openblas_threads`` or unset."""
    src = Path(hyposym.__file__).resolve().parent.parent
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    if openblas_threads is not None:
        env["OPENBLAS_NUM_THREADS"] = openblas_threads
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


_THREADS_AFTER_IMPORT = (
    "import os\n"
    "import hyposym.cli\n"
    "tasks = '/proc/self/task'\n"
    "print(os.environ['OPENBLAS_NUM_THREADS'],"
    " len(os.listdir(tasks)) if os.path.isdir(tasks) else None)\n"
)


def test_import_runs_openblas_on_one_thread():
    # numpy's bundled OpenBLAS would start a worker at import that busy-waits
    # for about 0.13 s of CPU; hyposym sets the variable before numpy loads.
    setting, tasks = _python(_THREADS_AFTER_IMPORT).split()
    assert setting == "1"
    if tasks != "None":     # /proc/self/task lists the threads on Linux
        assert tasks == "1"


def test_import_keeps_the_users_openblas_threads():
    assert _python(_THREADS_AFTER_IMPORT, openblas_threads="2").split()[0] == "2"


def _refuse_work(monkeypatch):
    """Make every computation that a command runs fail its test."""
    import hyposym.cli as cli

    def refuse(*args, **kwargs):
        raise AssertionError("a config over the RK4 budget must not run")

    for name in ("solve_cauchy_1d", "frequency_sweep", "run_conditions", "verify_properties"):
        monkeypatch.setattr(cli, name, refuse)


@pytest.mark.parametrize("command, doc, message, key_path", [
    ("solve", {"solver": {"cfl_safety": 1e-12}}, "grid_size x RK4 steps", "solver.cfl_safety"),
    ("solve", {"grid_size": 2 ** 20}, "grid_size x RK4 steps", "grid_size"),
    ("growth", {"grids": {"xi_list": [10.0, 100.0, 1e6]}}, "RK4 steps over grids.xi_list",
     "solver.cfl_safety"),
    ("report", {"grids": {"xi_list": [10.0, 1e300]}}, "RK4 steps over grids.xi_list",
     "solver.cfl_safety"),
    ("growth", {"solver": {"t_step": 1e-7}}, "RK4 steps over grids.xi_list", "solver.t_step"),
], ids=["solve-cfl-1e-12", "solve-grid-2-20", "sweep-xi-1e6", "sweep-step-underflow",
        "sweep-t-step"])
def test_rk4_work_budget_exits_one_before_any_run(tmp_path, capsys, monkeypatch, command, doc,
                                                 message, key_path):
    _refuse_work(monkeypatch)
    path = write_config(tmp_path, {"system": {"name": "m2-glaeser"}, **doc})
    out = tmp_path / "out"
    assert main([command, "--config", str(path), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert message in err and key_path in err
    assert "Traceback" not in err
    assert not (out / "report.json").exists()


def test_rk4_budget_errors_print_huge_counts_short(tmp_path, capsys, monkeypatch):
    # T = 1e300 asks for about 1e304 steps per mode; the two sweep entries
    # total 3.2e308 steps, past the largest double.  Each command that runs
    # the work checks its own budget.
    _refuse_work(monkeypatch)
    system = {"m": 2, "n": 1, "horizon": 1e300, "coefficients": [[[[0.0], [1.0]], [[1.0], [0.0]]]]}
    path = write_config(tmp_path, {"system": system, "grids": {"xi_list": [8e6, 8e6]}})
    for command, key, count in (("solve", "grid_size", "got 1024 x 1.024e+304"),
                                ("growth", "grids.xi_list", "got 3.200e+308")):
        assert main([command, "--config", str(path), "--out", str(tmp_path / "out")]) == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and len(lines[0]) < 160
        assert key in lines[0] and count in lines[0] and "solver.cfl_safety" in lines[0]


def test_rk4_budget_errors_keep_small_counts_exact(tmp_path, capsys, monkeypatch):
    _refuse_work(monkeypatch)
    path = write_config(tmp_path, {"system": {"name": "m2-glaeser"}, "grid_size": 4096})
    assert main(["solve", "--config", str(path), "--out", str(tmp_path / "out")]) == 1
    assert "got 4096 x 40961" in capsys.readouterr().err


def _json_text(obj) -> str:
    from hyposym.cli import _write_json

    pieces = []
    _write_json(pieces.append, obj)
    return "".join(pieces)


def test_report_json_keeps_every_finite_double():
    bits = np.random.default_rng(0).integers(0, 2 ** 64, 20000, dtype=np.uint64)
    values = bits.view(np.float64)
    values = np.concatenate([values[np.isfinite(values)],
                             [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308,
                              np.finfo(float).max, -np.finfo(float).max, 0.1]])
    assert np.sum(np.abs(values) < np.finfo(float).tiny) >= 6   # subnormals and zeros
    for doc in (values, values.tolist(), list(values), values.reshape(-1, 5)):
        back = np.array(json.loads(_json_text(doc)), dtype=np.float64).ravel()
        assert back.view(np.uint64).tobytes() == values.view(np.uint64).tobytes()
    assert _json_text([0.1, np.float64(-0.0)]) == "[\n  0.1,\n  -0.0\n]"


def _jsonable(obj):
    """The report serializer that the streaming writer replaced: converts
    to plain JSON for json.dumps, non-finite floats to strings.  The oracle."""
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        if obj.dtype.kind == "f" and np.isfinite(obj).all():
            return obj.tolist()
        return _jsonable(obj.tolist())
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, complex):
        return {"re": _jsonable(obj.real), "im": _jsonable(obj.imag)}
    if isinstance(obj, (float, np.floating)):
        x = float(obj)
        if np.isnan(x):
            return "nan"
        if np.isinf(x):
            return "inf" if x > 0 else "-inf"
        return x
    return obj


_EDGE_FLOATS = [-0.0, 5e-324, 1e16, 1e-5, 1.7976931348623157e308, math.inf, math.nan]
_json_floats = st.sampled_from(_EDGE_FLOATS + [-x for x in _EDGE_FLOATS]) | st.floats()
_json_keys = st.text(st.sampled_from('az"\\/\x00\x1f\x7f\n\t é€\u2028😀') | st.characters(),
                     max_size=6)
_float_arrays = hnp.arrays(np.float64, hnp.array_shapes(min_dims=1, max_dims=2, min_side=0),
                           elements=_json_floats)
_json_docs = st.recursive(
    st.none() | st.booleans() | st.integers(-2 ** 200, 2 ** 200) | _json_floats | _json_keys
    | st.lists(_json_floats) | st.lists(st.lists(_json_floats, max_size=4)) | _float_arrays,
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(_json_keys, children, max_size=4),
    max_leaves=12)


@settings(max_examples=300, deadline=None)
@given(doc=_json_docs)
def test_write_json_matches_json_dumps(doc):
    """The report writer lays out what json.dumps(indent=2, sort_keys=True)
    lays out, byte for byte, with non-finite floats as the old serializer
    wrote them (their strings)."""
    assert _json_text(doc) == json.dumps(_jsonable(doc), indent=2, sort_keys=True)


def test_write_json_numpy_values_match_old_serializer():
    doc = {"ints": np.array([[1, -2], [3, 4]]), "bools": np.array([True, False]),
           "flag": np.bool_(True), "count": np.int64(-7), "f32": np.float32(0.1),
           "scalar": np.array(2.5), "nonfinite": np.array([[1.0, np.nan], [-np.inf, np.inf]]),
           "complex": np.array([1 + 2j, np.nan - 0.0j]), "z": 3 - 0.5j,
           "tuple": (1.0, np.float64(np.inf), None, "s"), "empty": (np.zeros((2, 0)), np.zeros(0)),
           7: {"nested": [np.float64(-0.0)]}}
    assert _json_text(doc) == json.dumps(_jsonable(doc), indent=2, sort_keys=True)


@pytest.mark.parametrize("rows", [1, 7])
def test_write_json_chunks_change_no_byte(rows, monkeypatch):
    """Float arrays go out _JSON_ROWS entries of their first axis at a time;
    at 1 and at 7, which split every array here, with non-finite values in
    some chunks only, the text is still json.dumps's."""
    import hyposym.cli as cli_module

    rng = np.random.default_rng(3)
    two = rng.standard_normal((23, 4))
    two[5, 2], two[17, 0] = np.nan, -np.inf
    doc = {"two": two, "three": rng.standard_normal((9, 2, 3)), "one": rng.standard_normal(15),
           "strided": (two + 1j).imag[::2], "no_rows": np.zeros((0, 3)), "no_cols": np.zeros((4, 0))}
    monkeypatch.setattr(cli_module, "_JSON_ROWS", rows)
    assert _json_text(doc) == json.dumps(_jsonable(doc), indent=2, sort_keys=True)


def test_write_json_holds_one_chunk_of_an_array():
    """A (1001, 16) float array, as a report trace's V_re: written whole, its
    tolist() and its text peaked at 1.83 MB of traced memory, and in chunks
    of 256 rows at 0.27 MB."""
    from hyposym.cli import _write_json

    array = np.random.default_rng(4).standard_normal((1001, 16))
    _, peak = traced_peak(_write_json, lambda text: None, array)
    assert peak < 0.5e6


@pytest.mark.parametrize("command, doc", [
    ("reduce", {"system": {"name": "m2-glaeser"}, "grids": {"xi_list": [2.0]}}),
    ("verify-qs", {"system": {"name": "m3-tracezero"}}),
    ("conditions", {"system": {"name": "m2-nonhyp-control"},
                    "grids": {"t_points": 5, "xi_points": 3}}),
    ("growth", {"system": {"name": "m2-glaeser"}, "grids": {"xi_list": [1.0, 10.0, 100.0]}}),
    ("report", {"system": {"name": "m2-wave"},
                "grids": {"t_points": 5, "xi_points": 3, "xi_list": [1.0, 10.0, 100.0]}}),
    ("solve", {"system": {"name": "m2-glaeser"}, "grid_size": 8}),
])
def test_report_json_is_json_dumps_layout(tmp_path, command, doc):
    run(parse_config(json.dumps(doc)), command, tmp_path)
    text = (tmp_path / "report.json").read_text()
    assert text == json.dumps(json.loads(text), indent=2, sort_keys=True)


@pytest.mark.parametrize("policy, exponent", [
    ({"kind": "balanced", "k": 4}, -0.5),
    ({"kind": "balanced"}, -1.0),
    ({"kind": "inverse"}, -1.0),
])
def test_report_k_sweep_uses_configured_regularity(tmp_path, policy, exponent):
    # -2(m-1)/k for a balanced policy; other policies name no k and keep 2
    cfg = parse_config(json.dumps({"system": {"name": "m2-glaeser"}, "eps_policy": policy,
                                   "grids": {"t_points": 9, "xi_points": 3,
                                             "xi_list": [1.0, 10.0, 100.0]}}))
    run(cfg, "report", tmp_path / "out")
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["results"]["K_sweep"]["theoretical_exponent"] == exponent


class _Reached(Exception):
    """Raised where a command would start its integration."""


def test_rk4_work_budget_edges(tmp_path, capsys, monkeypatch):
    import hyposym.cli as cli
    from hyposym.cli import MAX_SOLVE_MODE_STEPS, MAX_SWEEP_STEPS

    assert 10 * 1024 * 10241 <= MAX_SOLVE_MODE_STEPS
    assert 2000001 <= MAX_SWEEP_STEPS < 2000001 + 200001
    _refuse_work(monkeypatch)

    def reached(*args, **kwargs):
        raise _Reached

    monkeypatch.setattr(cli, "solve_cauchy_1d", reached)
    monkeypatch.setattr(cli, "frequency_sweep", reached)
    for command, doc, within in (
        # the default solve, 1,024 modes x 10,241 steps, has room for ten more
        ("solve", {}, True),
        ("solve", {"grid_size": 2048}, True),                    # 2,048 x 20,481 mode-steps
        ("solve", {"grid_size": 4096}, False),                   # 4,096 x 40,961
        # 2,000,001 steps at xi = 1e5; 200,001 more at 1e4 exceed the sweep budget
        ("growth", {"grids": {"xi_list": [1e5, 1e3, 10.0]}}, True),
        ("growth", {"grids": {"xi_list": [1e5, 1e4]}}, False),
        ("report", {"grids": {"xi_list": [1e5, 1e4]}}, False),
    ):
        path = write_config(tmp_path, {"system": {"name": "m2-glaeser"}, **doc})
        out = tmp_path / command
        argv = [command, "--config", str(path), "--out", str(out)]
        if within:
            with pytest.raises(_Reached):
                main(argv)
        else:
            assert main(argv) == 1, (command, doc)
            err = capsys.readouterr().err
            assert ("got 4096 x 40961" if command == "solve" else "got 2200002") in err
            assert not (out / "report.json").exists()


@pytest.mark.parametrize("command, doc", [
    ("growth", {"grid_size": 65536, "grids": SMALL_GRIDS}),
    ("conditions", {"grid_size": 65536, "grids": SMALL_GRIDS}),
    ("solve", {"grid_size": 8, "grids": {"xi_list": [1e5, 1e4]}}),
    ("conditions", {"system": {"m": 2, "n": 1, "horizon": 1e6, "coefficients": [
        [[[0.0], [1.0]], [[1.0], [0.0]]]]}, "grids": {"t_points": 5, "xi_points": 3}}),
], ids=["growth-grid-65536", "conditions-grid-65536", "solve-xi-list-1e5",
        "conditions-horizon-1e6"])
def test_commands_ignore_the_rk4_budgets_of_keys_they_do_not_read(tmp_path, capsys, command,
                                                                  doc):
    doc = {"system": {"name": "m2-glaeser"}, **doc}
    path = write_config(tmp_path, doc)
    assert main([command, "--config", str(path), "--out", str(tmp_path / "out")]) in (0, 2), (
        capsys.readouterr().err)


@pytest.mark.parametrize("command", ["growth", "report"])
@pytest.mark.parametrize("xi_list, message", [
    ([1.0, 1.0, 1.0], "grids.xi_list must span at least two decades"),
    ([10.0, 1000.0], "grids.xi_list must hold at least three frequencies"),
], ids=["one-decade", "two-frequencies"])
def test_unfittable_sweep_exits_one_before_any_integration(tmp_path, capsys, monkeypatch,
                                                           command, xi_list, message):
    import hyposym.energy

    def refuse(*args, **kwargs):
        raise AssertionError("integrated a sweep that cannot be fitted")

    monkeypatch.setattr(hyposym.energy, "reduced_integrate", refuse)
    path = write_config(tmp_path, {"system": {"name": "m2-glaeser"},
                                   "grids": {**SMALL_GRIDS, "xi_list": xi_list}})
    out = tmp_path / "out"
    assert main([command, "--config", str(path), "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (out / "report.json").exists()


def _write_rows(path, header, rows):
    """The row-at-a-time CSV writer that the columnar one replaced; the oracle."""
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([f"{v:.17g}" if isinstance(v, float) else v for v in row])


def _conditions_rows(report, m):
    grid = report.grid
    rows = []
    for t_idx, t in enumerate(grid.ts):
        for r_idx in range(grid.radii.size):
            for d_idx in range(grid.dirs.shape[0]):
                xi_str = ";".join(f"{v:.17g}" for v in grid.radii[r_idx] * grid.dirs[d_idx])
                rows.append((float(t), xi_str, "ks", 0, 0,
                             float(report.ks_values[t_idx, r_idx, d_idx])))
                for l in range(m - 1):
                    rows.append((float(t), xi_str, "thm2", l + 1, 0,
                                 float(report.thm2_values[t_idx, r_idx, d_idx, l])))
                    for j in range(m):
                        rows.append((float(t), xi_str, "levi", l + 1, j + 1,
                                     float(report.levi_values[t_idx, r_idx, d_idx, l, j])))
    return rows


def _inline_system(m, n):
    import numpy as np

    rng = np.random.default_rng(10 * m + n)
    return {"m": m, "n": n, "horizon": 1.0,
            "coefficients": rng.uniform(-1.0, 1.0, (n, m, m, 2)).tolist()}


@pytest.mark.parametrize("m, n", [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (3, 3)])
def test_conditions_csv_matches_row_writer(tmp_path, m, n):
    from hyposym.conditions import run_conditions

    doc = {"system": _inline_system(m, n), "seed": 4,
           "grids": {"t_points": 5, "xi_points": 3, "directions": 4}}
    cfg = parse_config(json.dumps(doc))
    run(cfg, "conditions", tmp_path / "out")
    report = run_conditions(cfg.symbol, cfg.sampling_grid(), seed=cfg.seed)
    _write_rows(tmp_path / "oracle.csv", ("t", "xi", "kind", "l", "j", "value"),
                _conditions_rows(report, m))
    got = (tmp_path / "out" / "conditions.csv").read_bytes()
    assert got == (tmp_path / "oracle.csv").read_bytes()
    assert len(got.splitlines()) == 1 + 5 * 3 * (2 if n == 1 else 4) * (1 + (m - 1) * (m + 1))


def test_conditions_csv_values_are_the_report_table(tmp_path, monkeypatch):
    """run_conditions keeps one per-point table: the ks, thm2 and levi values
    are views of it, and the conditions command hands it to the CSV writer as
    its value column, uncopied."""
    import hyposym.cli as cli

    cli_run_conditions, cli_write_csv = cli.run_conditions, cli._write_csv
    reports, columns = [], []

    def keep_report(*args, **kwargs):
        reports.append(cli_run_conditions(*args, **kwargs))
        return reports[-1]

    def keep_columns(path, cols):
        columns.append(cols)
        cli_write_csv(path, cols)

    monkeypatch.setattr(cli, "run_conditions", keep_report)
    monkeypatch.setattr(cli, "_write_csv", keep_columns)
    cfg = parse_config(json.dumps({"system": {"name": "m3-tracezero"},
                                   "grids": {"t_points": 9, "xi_points": 3}}))
    run(cfg, "conditions", tmp_path / "out")
    (report,), (written,) = reports, columns
    assert report.table.shape == (9, 3, 2, 1 + 2 * 4)
    for name in ("ks_values", "thm2_values", "levi_values"):
        assert np.shares_memory(getattr(report, name), report.table), name
    assert np.shares_memory(written["value"], report.table)


def test_conditions_peak_holds_one_table():
    """The conditions command at m3-tracezero with 1,024 time samples (65,536
    points; a 4.7 MB table of 9 ratios per point) peaks at 8.3 MB of traced
    memory, 1.75 times the table.  It peaked at 13.7 MB, 2.9 times, when it
    held the ks, thm2 and levi tables apart and concatenated them, twice,
    into the CSV's value column."""
    from hyposym.cli import _cmd_conditions

    doc = {"system": {"name": "m3-tracezero"}}
    _cmd_conditions(parse_config(json.dumps({**doc, "grids": {"t_points": 5}})))  # lazy imports
    cfg = parse_config(json.dumps({**doc, "grids": {"t_points": 1024}}))
    _, peak = traced_peak(_cmd_conditions, cfg)
    table_bytes = 1024 * 32 * 2 * 9 * 8
    assert peak < 2.2 * table_bytes


@pytest.mark.parametrize("name, grid_size", [("m2-glaeser", 16), ("m2-wave", 16),
                                             ("m3-tracezero", 8)])
def test_solve_csv_matches_row_writer(tmp_path, name, grid_size):
    from hyposym.cli import _initial_field
    from hyposym.energy import solve_cauchy_1d

    doc = {"system": {"name": name}, "grid_size": grid_size, "snapshots": [0.0, 0.5, 1.0]}
    cfg = parse_config(json.dumps(doc))
    assert run(cfg, "solve", tmp_path / "out") == 0
    field = solve_cauchy_1d(cfg.symbol, _initial_field(cfg, grid_size), cfg.solver_config(),
                            doc["snapshots"])
    m = cfg.symbol.m
    header = ["x"] + [f"{part}_u{i + 1}" for i in range(m) for part in ("re", "im")]
    for s in range(3):
        rows = []
        for q in range(grid_size):
            row = [float(field.x[q])]
            for i in range(m):
                row += [float(field.fields[s, i, q].real), float(field.fields[s, i, q].imag)]
            rows.append(tuple(row))
        _write_rows(tmp_path / "oracle.csv", header, rows)
        assert (tmp_path / "out" / f"solve_t{s}.csv").read_bytes() == (
            tmp_path / "oracle.csv").read_bytes()


def test_growth_csv_matches_row_writer(tmp_path):
    from hyposym.energy import frequency_sweep, growth_fit

    doc = {"system": {"name": "m2-glaeser"}, "grids": {"xi_list": [1.0, 10.0, 100.0]}}
    cfg = parse_config(json.dumps(doc))
    assert run(cfg, "growth", tmp_path / "out") == 0
    fit = growth_fit(frequency_sweep(cfg.symbol, cfg.solver_config(), collect_energy=False))
    rows = [(float(b), float(g)) for b, g in zip(fit.brackets, fit.growth_logs)]
    _write_rows(tmp_path / "oracle.csv", ("bracket_xi", "log_growth"), rows)
    assert (tmp_path / "out" / "growth.csv").read_bytes() == (
        tmp_path / "oracle.csv").read_bytes()


def _nan_with_payload(payload, negative=False):
    return np.array([(negative << 63) | 0x7FF8000000000000 | payload],
                    dtype=np.uint64).view(np.float64)[0]


_SPECIAL_FLOATS = np.array([-0.0, 0.0, np.nan, np.inf, -np.inf, 5e-324,
                            1.7976931348623157e308, -0.0, 0.1, _nan_with_payload(1),
                            _nan_with_payload(0, negative=True), 0.0, -5e-324])
_U = (np.linspace(-1.0, 1.0, 7) + 1j * np.logspace(-300, 300, 7)) * np.array([1, -1, 0] * 2 + [1])


def _chunked_table():
    from hyposym.cli import _CSV_ROWS

    rows = 2 * _CSV_ROWS + 37   # a partial last chunk
    rng = np.random.default_rng(11)
    values = rng.standard_normal(rows)
    values[::3] = 0.0
    values[1::5] = -0.0
    return {"t": np.repeat(np.linspace(0.0, 1.0, 9), -(-rows // 9))[:rows],
            "kind": (["ks", "thm2", "levi"] * rows)[:rows],
            "l": [i % 4 for i in range(rows)],
            "value": values,
            "u": (values * (1 + 1j))[::-1].imag}


def _conditions_shaped_table():
    """Columns in the shapes conditions.csv passes, (T, 1, 1, 1), (1, R, D, 1),
    (K,) and (T, R, D, K), with a partial last slab: 2,048 // 54 = 37 time
    entries per slab, so 80 of them make slabs of 37, 37 and 6."""
    from hyposym.cli import _CSV_ROWS

    T, R, D, K = 80, 3, 2, 9
    assert T % (_CSV_ROWS // (R * D * K)) != 0
    rng = np.random.default_rng(12)
    values = rng.standard_normal((T, R, D, K))
    values[::4, 1] = -0.0
    values[1::7, :, 1, 2] = _SPECIAL_FLOATS[2]
    xi = np.array([f"{r};{d}" for r in range(R) for d in ("1", '-1,"q"')], dtype=object)
    return {"t": np.linspace(0.0, 1.0, T)[:, None, None, None],
            "xi": xi.reshape(1, R, D, 1),
            "kind": ["ks"] + ["thm2", "levi", "levi"] * 2 + ["levi", "levi"],
            "l": np.arange(K) % 3,
            "j": list(range(K)),
            "value": values}


def _n2_conditions_table():
    """conditions.csv's column shapes on a two-dimensional grid whose (R, D, K)
    block holds more than _CSV_ROWS rows: slabs along R of 5 and 3 entries
    for each of the T time entries, and xi strings that vary along R and D only."""
    from hyposym.cli import _CSV_ROWS

    T, R, D, K = 3, 8, 40, 9
    assert R * D * K > _CSV_ROWS and (R * D * K) % _CSV_ROWS
    xi = np.array([f"[{r}, {d / 7}]" for r in range(R) for d in range(D)], dtype=object)
    return {"t": np.linspace(0.0, 1.0, T)[:, None, None, None],
            "xi": xi.reshape(1, R, D, 1),
            "kind": ["ks"] + ["thm2", "levi", "levi"] * 2 + ["levi", "levi"],
            "l": np.arange(K) % 3,
            "value": np.random.default_rng(15).standard_normal((T, R, D, K))}


def _wide_table():
    """A table whose trailing axes alone hold more than _CSV_ROWS rows."""
    from hyposym.cli import _CSV_ROWS

    width = _CSV_ROWS + 5
    return {"row": np.array([0.5, -0.0, 2.0])[:, None],
            "col": np.arange(width),
            "value": np.random.default_rng(13).standard_normal((3, width))}


@pytest.mark.parametrize("columns", [
    {"special": _SPECIAL_FLOATS, "again": _SPECIAL_FLOATS[::-1].copy()},
    {"re": _U.real, "im": _U.imag},
    {"i": [0, -3, 12, 0, 2 ** 70], "s": ["ks", 'a,b"c\nd', "", "x\ry", "ks"],
     "n": np.array([7, -7, 7, 0, 1])},
    {'head,"er"': np.array([1.5, -0.0])},
    _chunked_table(),
    {"x": np.zeros(0), "kind": [], "l": np.zeros(0, dtype=int)},
    _conditions_shaped_table(),
    _n2_conditions_table(),
    _wide_table(),
    {"t": np.arange(4.0)[:, None, None], "xi": np.zeros((0, 1)), "kind": ["a", "b", "c"]},
    {"x": np.zeros((0, 2)), "c": np.array([[1.5, -0.0]]), "k": ["a", "b"]},
], ids=["special-floats", "strided-floats", "ints-and-strings",
        "quoted-header", "several-chunks", "empty", "conditions-shapes",
        "n2-conditions-shapes", "wide-trailing-axes", "zero-middle-axis",
        "zero-first-axis-constant-column"])
def test_write_csv_matches_row_writer(tmp_path, columns):
    from hyposym.cli import _write_csv

    _write_csv(tmp_path / "got.csv", columns)
    cols = [col if isinstance(col, np.ndarray) else np.array(col, dtype=object)
            for col in columns.values()]
    shape = np.broadcast_shapes(*(col.shape for col in cols))
    rows = zip(*[np.broadcast_to(col, shape).ravel().tolist() for col in cols])
    _write_rows(tmp_path / "oracle.csv", list(columns), rows)
    assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "oracle.csv").read_bytes()


@pytest.mark.parametrize("columns", [
    {"a": np.zeros(3), "b": np.zeros(2)},
    {"t": np.zeros((4, 1)), "kind": ["ks", "thm2", "levi"], "value": np.zeros((4, 2))},
], ids=["unequal-lengths", "trailing-mismatch"])
def test_write_csv_rejects_columns_that_do_not_broadcast(tmp_path, columns):
    from hyposym.cli import _write_csv

    with pytest.raises(ValueError):
        _write_csv(tmp_path / "got.csv", columns)
    assert not (tmp_path / "got.csv").exists()


def test_write_csv_formats_a_column_constant_along_leading_axes_once(tmp_path, monkeypatch):
    """The xi strings of a two-dimensional conditions.csv vary along R and D
    only: each is quoted once, not once per time entry."""
    import hyposym.cli as cli

    quoted = []

    def counting_quote(cell):
        quoted.append(cell)
        return _quote(cell)

    _quote = cli._quote
    monkeypatch.setattr(cli, "_quote", counting_quote)
    columns = _n2_conditions_table()
    cli._write_csv(tmp_path / "got.csv", columns)
    xi = set(columns["xi"].ravel().tolist())
    assert sorted(c for c in quoted if c in xi) == sorted(xi)


def test_write_csv_memory_stays_chunk_sized(tmp_path):
    """The traced peak of writing the default m3-tracezero conditions.csv
    (115,776 rows) stays a few chunks in size, and the file is the row
    writer's.  Measured with tracemalloc: the csv.writer path that formatted
    whole ``tolist()`` columns peaked at 7.58 MB (about 3.7 MB of float
    objects per float column); the chunked writer peaks at 0.45 MB, and the
    broadcast one at 0.46 MB."""
    import tracemalloc

    from hyposym.cli import _cmd_conditions, _write_csv
    from hyposym.conditions import run_conditions

    cfg = parse_config(json.dumps({"system": {"name": "m3-tracezero"}}))
    columns = _cmd_conditions(cfg)[2]["conditions.csv"]
    assert columns["value"].size == 115776
    tracemalloc.start()
    try:
        _write_csv(tmp_path / "conditions.csv", columns)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5e6
    report = run_conditions(cfg.symbol, cfg.sampling_grid(), seed=cfg.seed)
    _write_rows(tmp_path / "oracle.csv", list(columns), _conditions_rows(report, 3))
    assert (tmp_path / "conditions.csv").read_bytes() == (
        tmp_path / "oracle.csv").read_bytes()


def test_write_csv_memory_stays_slab_sized_for_wide_tables(tmp_path):
    """Slabs of whole first-axis entries would hold 100,000 rows here (a
    tracemalloc peak of 22.4 MB, measured); slabs along the second axis hold
    at most _CSV_ROWS of them."""
    import tracemalloc

    from hyposym.cli import _write_csv

    columns = {"t": np.array([[0.0], [0.5]]),
               "value": np.random.default_rng(14).standard_normal((2, 100_000))}
    tracemalloc.start()
    try:
        _write_csv(tmp_path / "wide.csv", columns)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5e6


@pytest.mark.parametrize("snapshots, message", [
    ([], "snapshots must be a non-empty list"),
    ([0.5, 1.5], "snapshots[1] must lie in [0, 1.0]"),
], ids=["empty", "beyond-horizon"])
def test_snapshots_rejected_at_parse_time(tmp_path, capsys, snapshots, message):
    path = write_config(tmp_path, {"system": {"name": "m2-glaeser"}, "grid_size": 8,
                                   "snapshots": snapshots})
    out = tmp_path / "out"
    assert main(["solve", "--config", str(path), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert message in err
    assert "Traceback" not in err
    assert not (out / "report.json").exists()


def test_default_snapshots_do_not_bind_a_shorter_horizon(tmp_path):
    # [0.5, 1.0] is the default, not the user's choice: a system with T = 0.25
    # still runs conditions, and only a solve rejects the default.
    system = {"m": 2, "n": 1, "horizon": 0.25, "coefficients": [[[[0.0], [1.0]], [[1.0], [0.0]]]]}
    path = write_config(tmp_path, {"system": system, "grids": {"t_points": 5, "xi_points": 3},
                                   "grid_size": 8})
    assert main(["conditions", "--config", str(path), "--out", str(tmp_path / "a")]) == 0
    assert main(["solve", "--config", str(path), "--out", str(tmp_path / "b")]) == 1


@pytest.mark.parametrize("name, xi", [("m2-glaeser", 1e300), ("m3-tracezero", 1e160)])
def test_conditions_where_bracket_overflows_exit_three(tmp_path, capsys, name, xi):
    path = write_config(tmp_path, {"system": {"name": name},
                                   "grids": {"t_points": 5, "xi_points": 3,
                                             "xi_min": xi, "xi_max": xi}})
    out = tmp_path / "out"
    assert main(["conditions", "--config", str(path), "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert "<xi> is not finite at (t=0.0" in err
    assert "Traceback" not in err
    assert not (out / "report.json").exists()


def test_growth_with_underflowing_frequency_norm(tmp_path, capsys):
    # |(1e-300,)| underflows to 0; the two-decade span check must not divide by it
    path = write_config(tmp_path, {"system": {"name": "m2-glaeser"},
                                   "grids": {"xi_list": [1e-300, 1e-100, 1.0]}})
    assert main(["growth", "--config", str(path), "--out", str(tmp_path / "out")]) == 0
    assert capsys.readouterr().err == ""


def load_script(name: str):
    """The module of ``scripts/<name>.py``, which is not a package."""
    import importlib.util

    script = Path(__file__).resolve().parent.parent / "scripts" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, script)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_example_reports_compare_lists_differing_files(tmp_path, capsys):
    module = load_script("run_example_reports")
    ours, theirs = tmp_path / "ours", tmp_path / "theirs"
    for root in (ours, theirs):
        for name, commands in module.PIPELINES.items():
            for command in commands:
                (root / f"{name}--{command}").mkdir(parents=True)
                (root / f"{name}--{command}" / "report.json").write_text("{}")
    assert module.compare_runs(ours, theirs) == 0
    (theirs / "m2-wave--solve" / "report.json").write_text("{ }")
    (ours / "m2-glaeser--growth" / "growth.csv").write_text("")
    assert module.compare_runs(ours, theirs) == 1
    out = capsys.readouterr().out
    assert "differs: m2-wave--solve/report.json (largest deviation 0 at report.json)" in out
    assert f"differs: m2-glaeser--growth/growth.csv (only under {ours})" in out
    assert "2 file(s) differ" in out

    # numbers: the gate's rule |a - b| / max(|a|, |b|, 1e-6), with its JSON path or CSV line
    run = ours / "m2-glaeser--conditions"
    (run / "report.json").write_text('{"a": [1.0, 2.0], "b": {"c": 1e-9}}')
    (theirs / run.name / "report.json").write_text('{"a": [1.0, 1.5], "b": {"c": 3e-9}}')
    (run / "conditions.csv").write_text("t,xi,v\r\n0,1;2,1e-7\r\n1,1;2,3\r\n")
    (theirs / run.name / "conditions.csv").write_text(
        "t,xi,v\r\n0,1;2,3e-7\r\n1,1;2,3.0000000000000004\r\n")
    run = ours / "m3-tracezero--conditions"
    (run / "report.json").write_text('{"kind": "ks"}')
    (theirs / run.name / "report.json").write_text('{"kind": "levi"}')
    assert module.compare_runs(ours, theirs) == 1
    out = capsys.readouterr().out
    assert ("differs: m2-glaeser--conditions/report.json "
            "(largest deviation 0.25 at report.json.a[1])") in out
    assert ("differs: m2-glaeser--conditions/conditions.csv "
            "(largest deviation 0.2 at conditions.csv line 2)") in out
    assert ("differs: m3-tracezero--conditions/report.json "
            "(not numeric: report.json.kind: 'ks' != 'levi')") in out
    assert "5 file(s) differ" in out


def test_ab_pairs_summary_applies_the_claim_rule():
    summarize = load_script("ab_pairs").summarize
    parent = [0.140, 0.150, 0.130, 0.145, 0.135, 0.142, 0.138, 0.148, 0.133, 0.141]
    # lower in 9 of 10 pairs, by more than the parent's quartile distance
    change = [0.110, 0.120, 0.105, 0.115, 0.112, 0.118, 0.109, 0.150, 0.111, 0.116]
    pairs = [({"run_s": a, "rate": 1.0, "hits": a}, {"run_s": b, "rate": 1.0, "hits": b})
             for a, b in zip(parent, change)]
    got = summarize(pairs, {"run_s": "lower", "rate": "higher", "hits": "higher"},
                    {"run_s": 0.25, "rate": 0.05, "hits": 0.25})
    run = got["run_s"]
    assert (run["wins"], run["pairs"], run["claim"]) == (9, 10, True)
    assert run["parent"][1] == pytest.approx(0.1405)
    assert run["change"][1] == pytest.approx(0.1135)
    assert run["parent"][0] < run["parent"][1] < run["parent"][2]
    # ties win nothing; where higher is better, only the one pair the change
    # lost on run_s is a win
    assert (got["rate"]["wins"], got["rate"]["claim"]) == (0, False)
    assert (got["hits"]["wins"], got["hits"]["claim"]) == (1, False)

    # 8 of 10 wins, though the medians stay far apart: no claim
    change[0] = 0.141
    pairs = [({"run_s": a}, {"run_s": b}) for a, b in zip(parent, change)]
    assert summarize(pairs, {"run_s": "lower"}, {"run_s": 0.25})["run_s"]["claim"] is False
    # 10 of 10 wins by less than the parent's quartile distance: no claim
    pairs = [({"run_s": a}, {"run_s": a - 0.001}) for a in parent]
    got = summarize(pairs, {"run_s": "lower"}, {"run_s": 0.25})["run_s"]
    assert (got["wins"], got["claim"]) == (10, False)


def test_ab_pairs_ratio_row_divides_out_a_shared_speed_factor():
    """Each rep's run and set-up share a host-speed factor, slow (1.7) in a
    different number of reps per run: the run_s medians land in either mode
    and the claim fails, while run_s/setup_s wins every pair."""
    module = load_script("ab_pairs")
    better = {"run_s": "lower", "setup_s": "lower", module.RATIO: "lower"}
    bounds = {"run_s": 0.25, "setup_s": 0.25, module.RATIO: 0.25}

    def run(run_s, setup_s, slow):
        reps = [{"run_s": run_s * f, "setup_s": setup_s * f}
                for f in [1.7] * slow + [1.0] * (9 - slow)]
        return {"samples": {"reps": reps}, "result": {"metrics": {
            name: {"value": float(np.median([r[name] for r in reps]))}
            for name in ("run_s", "setup_s")}}}

    slow_parent = [2, 3, 6, 1, 7, 2, 3, 1, 2, 3]
    slow_change = [7, 2, 3, 8, 1, 6, 2, 3, 1, 2]

    def summary(change_setup):
        pairs = [(module.metrics_of(run(0.10, 0.25, a)), module.metrics_of(run(0.08, change_setup, b)))
                 for a, b in zip(slow_parent, slow_change)]
        return module.summarize(pairs, better, bounds)

    got = summary(0.25)
    assert (got["run_s"]["wins"], got["run_s"]["claim"]) == (7, False)
    ratio = got[module.RATIO]
    assert (ratio["wins"], ratio["claim"], ratio["verdict"]) == (10, True, "ok")
    assert ratio["parent"][1] == pytest.approx(0.4) and ratio["change"][1] == pytest.approx(0.32)
    # a change that moves set-up moves the ratio too: no evidence either way
    got = summary(0.20)[module.RATIO]
    assert (got["claim"], got["verdict"]) == (False, module.SETUP_MOVED)


def test_ab_pairs_rescores_bench_30():
    """The committed BENCH_30.json, re-scored from its raw reps: the
    run_s/setup_s row resolves solve-glaeser's gain that run_s left at 8 of
    10 pairs, and reads no change on solve-wave, whose code that change left
    alone."""
    module = load_script("ab_pairs")
    doc = json.loads((Path(__file__).resolve().parent.parent / "BENCH_30.json").read_text())
    better = {"run_s": "lower", "setup_s": "lower", module.RATIO: "lower"}
    bounds = {"run_s": 0.25, "setup_s": 0.25, module.RATIO: 0.25}
    got = {}
    for workload, entry in doc.items():
        pairs = [(module.metrics_of(r["parent"]), module.metrics_of(r["change"]))
                 for r in entry["runs"]]
        got[workload] = module.summarize(pairs, better, bounds)
    glaeser = got["solve-glaeser"]
    assert (glaeser["run_s"]["wins"], glaeser["run_s"]["claim"]) == (8, False)
    ratio = glaeser[module.RATIO]
    assert round(ratio["parent"][1], 3) == 0.380 and round(ratio["change"][1], 3) == 0.286
    assert (ratio["wins"], ratio["pairs"], ratio["claim"]) == (10, 10, True)
    wave = got["solve-wave"][module.RATIO]
    assert round(wave["parent"][1], 3) == 0.126 and round(wave["change"][1], 3) == 0.124
    assert wave["claim"] is False


def test_ab_pairs_summary_gives_a_no_regression_verdict():
    summarize = load_script("ab_pairs").summarize
    parent = [0.140, 0.150, 0.130, 0.145, 0.135, 0.142, 0.138, 0.148, 0.133, 0.141]

    def verdict(change, bound, better="lower"):
        pairs = [({"m": a}, {"m": b}) for a, b in zip(parent, change)]
        return summarize(pairs, {"m": better}, {"m": bound})["m"]["verdict"]

    # the parent's median is 0.1405 and its quartile distance 0.0075 (5.3%)
    assert verdict([a * 1.05 for a in parent], 0.1) == "ok"
    assert verdict([a * 1.12 for a in parent], 0.1) == "worse"
    # within a 1% bound, but the quartiles are wider than the bound
    assert verdict([a * 1.005 for a in parent], 0.01) == "unresolved"
    assert verdict([a * 0.98 for a in parent], 0.01) == "unresolved"
    # every change run beats every parent run: resolved whatever the spread
    assert verdict([0.129] * 10, 0.01) == "ok"
    # where higher is better, a lower median is the regression
    assert verdict([a * 0.88 for a in parent], 0.1, "higher") == "worse"
    assert verdict([a * 1.12 for a in parent], 0.1, "higher") == "ok"
    assert verdict([0.151] * 10, 0.01, "higher") == "ok"


def test_ab_pairs_keeps_every_line_of_a_run():
    parse_run = load_script("ab_pairs").parse_run
    stdout = ('# machine: {"cpus": 2}\n# samples: {"setup_s": [0.5], "reps": [0.1, 0.2]}\n'
              '{"correct": true, "metrics": {"run_s": {"value": 0.1, "unit": "s"}}}\n')
    assert parse_run(stdout) == {
        "machine": {"cpus": 2}, "samples": {"setup_s": [0.5], "reps": [0.1, 0.2]},
        "result": {"correct": True, "metrics": {"run_s": {"value": 0.1, "unit": "s"}}}}
