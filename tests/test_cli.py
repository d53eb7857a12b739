import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import hyposym
from hyposym.cli import (
    ConfigError,
    config_hash,
    main,
    parse_config,
    run,
)


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
        from hyposym.reduction import transform_initial_data

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
            V0 = transform_initial_data(S, np.ones(2) / np.sqrt(2), xi).V
            expected.append(reduced_integrate(S, xi, V0, SolverConfig(),
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
    ("solve", _modes({"k": 1}), "initial_data.modes[0].amplitudes"),
    ("solve", _modes(5), "initial_data.modes[0]"),
    ("solve", _modes({"k": "1", "amplitudes": [[1.0, 0.0]]}), "initial_data.modes[0].k"),
    ("solve", _modes({"k": 1, "amplitudes": [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0]]}),
     "initial_data.modes[0].amplitudes"),
    ("solve", _modes({"k": 1, "amplitudes": [[1.0]]}), "initial_data.modes[0].amplitudes"),
], ids=["xi-min-zero", "xi-min-above-max", "eps-value-bool", "eps-k-bool",
        "mode-without-amplitudes", "mode-bare-number", "mode-string-k",
        "mode-too-many-amplitudes", "mode-one-element-pair"])
def test_config_rejected_at_parse_time(tmp_path, capsys, command, extra, key_path):
    doc = {"system": {"name": "m2-glaeser"}, **extra}
    if "grids" in extra:
        doc["grids"] = {**SMALL_GRIDS, **extra["grids"]}
    path = write_config(tmp_path, doc)
    assert main([command, "--config", str(path), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert key_path in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command, doc, key_path", [
    ("reduce", {"grids": {"xi_list": []}}, "grids.xi_list"),
    ("conditions", {"system": {"name": [1.0]}}, "system.name"),
    ("conditions", {"grids": {"t_points": 2 ** 70}}, "grids.t_points"),
    ("conditions", {"grids": {"xi_max": 10 ** 400}}, "grids.xi_max"),
    ("growth", {"grids": {"xi_list": [10.0, 10 ** 400, 1e3]}}, "grids.xi_list"),
], ids=["empty-xi-list", "unhashable-name", "huge-t-points", "xi-max-beyond-float",
        "xi-list-beyond-float"])
def test_fuzz_found_config_exits_one(tmp_path, capsys, command, doc, key_path):
    # Each of these ended in a Python traceback before it was checked at parse time.
    doc = {"system": {"name": "m2-glaeser"}, **doc}
    path = write_config(tmp_path, doc)
    assert main([command, "--config", str(path), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert key_path in err
    assert "Traceback" not in err


def test_grid_point_budget():
    from hyposym.cli import MAX_GRID_POINTS

    def grids(t_points):
        return json.dumps({"system": {"name": "m2-glaeser"},
                           "grids": {"t_points": t_points, "xi_points": 32, "directions": 16}})

    parse_config(grids(MAX_GRID_POINTS // (32 * 16)))
    with pytest.raises(ConfigError) as err:
        parse_config(grids(MAX_GRID_POINTS // (32 * 16) + 1))
    assert any("grids.t_points x grids.xi_points x grids.directions" in e
               for e in err.value.errors)


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
    import hyposym.cli as cli

    def refuse(*args, **kwargs):
        raise AssertionError("a config over the RK4 budget must not run")

    monkeypatch.setattr(cli, "run", refuse)
    path = write_config(tmp_path, {"system": {"name": "m2-glaeser"}, **doc})
    assert main([command, "--config", str(path), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert message in err and key_path in err
    assert "Traceback" not in err


def test_rk4_work_budget_edges():
    from hyposym.cli import MAX_SOLVE_MODE_STEPS, MAX_SWEEP_STEPS

    def doc(**extra):
        return json.dumps({"system": {"name": "m2-glaeser"}, **extra})

    # the default solve, 1,024 modes x 10,241 steps, has room for ten more
    assert 10 * 1024 * 10241 <= MAX_SOLVE_MODE_STEPS
    parse_config(doc())
    parse_config(doc(grid_size=2048))               # 2,048 x 20,481 mode-steps
    with pytest.raises(ConfigError):
        parse_config(doc(grid_size=4096))           # 4,096 x 40,961
    # 2,000,001 steps at xi = 1e5; 200,001 more at 1e4 exceed the sweep budget
    assert 2000001 <= MAX_SWEEP_STEPS < 2000001 + 200001
    parse_config(doc(grids={"xi_list": [1e5]}))
    with pytest.raises(ConfigError):
        parse_config(doc(grids={"xi_list": [1e5, 1e4]}))


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
                xi_str = ";".join(f"{v:.17g}" for v in grid.xi(r_idx, d_idx))
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
