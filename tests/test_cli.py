import csv
import json
import math
import subprocess
import sys
import time
import warnings

import dataclasses

import pytest

from gatebound import gate
from gatebound.cli import COMMANDS, HBAR_SI, build_parser, main, sweep_rows_csv_bytes


def read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def test_counterexample_command(tmp_path):
    out = tmp_path / "run"
    assert main(["counterexample", "--n", "1..6", "--g", "1.0", "--output", str(out)]) == 0
    rows = read_csv(out / "result.csv")
    assert len(rows) == 6
    for row in rows:
        assert float(row["failure_probability"]) < 1e-10
    report = json.loads((out / "report.json").read_text())
    assert report["command"] == "counterexample"


def test_squeeze_opt_report_values(tmp_path):
    out = tmp_path / "run"
    assert main(["squeeze-opt", "--epsilon", "1e-4", "--output", str(out)]) == 0
    row = read_csv(out / "result.csv")[0]
    assert abs(float(row["e_min_over_hbar_omega"]) - 200.0) < 1e-6
    assert abs(float(row["r_star"]) - 2.302585) < 1e-5


def test_missing_required_parameter_exits_2_without_artifacts(tmp_path):
    out = tmp_path / "run"
    assert main(["pulse-bound", "--output", str(out)]) == 2
    assert not (out / "result.csv").exists()
    assert not (out / "report.json").exists()


def test_unknown_command_exits_2():
    with pytest.raises(SystemExit) as err:
        main(["no-such-command"])
    assert err.value.code == 2


def test_invalid_epsilon_exits_2(tmp_path):
    out = tmp_path / "run"
    assert main(["squeeze-opt", "--epsilon", "-1", "--output", str(out)]) == 2


def test_config_file_with_flag_override(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "command": "squeeze-opt",
        "params": {"epsilon": 0.01, "omega": 2.0},
    }))
    out = tmp_path / "run"
    assert main(["run", "--config", str(cfg), "--output", str(out)]) == 0
    row = read_csv(out / "result.csv")[0]
    assert abs(float(row["omega_rad_per_s"]) - 2.0) < 1e-12

    out2 = tmp_path / "run2"
    assert main(["squeeze-opt", "--config", str(cfg), "--omega", "3.0",
                 "--output", str(out2)]) == 0
    row2 = read_csv(out2 / "result.csv")[0]
    assert abs(float(row2["omega_rad_per_s"]) - 3.0) < 1e-12


def test_sweep_bound_column_follows_formula(tmp_path):
    out = tmp_path / "run"
    rc = main(["sweep", "--command", "pulse-bound", "--axis", "epsilon",
               "--values", "0.1,0.03,0.01", "--param", "budget=1",
               "--output", str(out), "--seed", "9"])
    assert rc == 0
    rows = read_csv(out / "result.csv")
    eq_rows = [r for r in rows if r["construction"] == "single-mode-equality"]
    assert len(eq_rows) == 3
    assert [float(r["epsilon_value"]) for r in eq_rows] == [0.1, 0.03, 0.01]
    for row in eq_rows:
        eps = float(row["epsilon_value"])
        mean_omega = float(row["mean_omega_rad_per_s"])
        expected = (math.pi ** 2 / 4.0) * mean_omega / eps
        assert abs(float(row[f"bound_hbar_rad_per_s"]) - expected) < 1e-9 * expected


def test_sweep_parallelism_is_byte_identical():
    base = {"epsilon": 0.02, "budget": 50, "n_modes": 2}
    serial = sweep_rows_csv_bytes("pulse-bound", base, "epsilon", [0.1, 0.05, 0.02, 0.01],
                                  parallelism=1, seed=5)
    threaded = sweep_rows_csv_bytes("pulse-bound", base, "epsilon", [0.1, 0.05, 0.02, 0.01],
                                    parallelism=8, seed=5)
    assert serial == threaded


def test_sweep_failed_point_marks_row_and_exits_3(tmp_path):
    out = tmp_path / "run"
    rc = main(["sweep", "--command", "collision-free", "--axis", "b",
               "--values", "2,100", "--param", "m=40", "--param", "v=2",
               "--param", "duration=8", "--param", "epsilon=0.5",
               "--output", str(out)])
    assert rc == 3
    rows = read_csv(out / "result.csv")
    assert rows[0]["status"] == "ok"
    assert rows[1]["status"].startswith("error:")


def test_identical_runs_are_byte_identical(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    for out in (out1, out2):
        assert main(["pulse-bound", "--epsilon", "0.05", "--budget", "150",
                     "--seed", "21", "--output", str(out)]) == 0
    assert (out1 / "result.csv").read_bytes() == (out2 / "result.csv").read_bytes()
    report1 = json.loads((out1 / "report.json").read_text())
    report2 = json.loads((out2 / "report.json").read_text())
    assert report1 == report2


def test_plot_artifact_written(tmp_path):
    out = tmp_path / "run"
    assert main(["counterexample", "--n", "1,2,3", "--output", str(out), "--plot"]) == 0
    svg = (out / "plot.svg").read_text()
    assert svg.startswith("<svg")
    assert "failure_probability" in svg


def test_si_units_scale_energy(tmp_path):
    out = tmp_path / "run"
    assert main(["squeeze-opt", "--epsilon", "1e-4", "--units", "si",
                 "--output", str(out)]) == 0
    row = read_csv(out / "result.csv")[0]
    hbar = 1.054571817e-34
    assert abs(float(row["e_min_J"]) - 200.0 * hbar) < 1e-6 * 200.0 * hbar
    assert abs(float(row["e_min_over_hbar_omega"]) - 200.0) < 1e-6


@pytest.mark.parametrize("flag,column,units", [
    ([], "e_min_J", "si"),
    (["--units", "natural"], "e_min_hbar_rad_per_s", "natural"),
])
def test_units_flag_overrides_config(tmp_path, flag, column, units):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"command": "squeeze-opt", "units": "si",
                               "params": {"epsilon": 1e-4}}))
    out = tmp_path / "run"
    assert main(["run", "--config", str(cfg), *flag, "--output", str(out)]) == 0
    assert column in read_csv(out / "result.csv")[0]
    assert json.loads((out / "report.json").read_text())["units"] == units


def test_verify_all_subset_and_row_count(tmp_path):
    out = tmp_path / "run"
    assert main(["verify-all", "--criteria", "1,5,6,9", "--output", str(out)]) == 0
    rows = read_csv(out / "verification.csv")
    assert len(rows) == 4
    assert all(row["passed"] == "true" for row in rows)


def test_verify_all_tightened_tolerance_fails_controlled(tmp_path):
    out = tmp_path / "run"
    rc = main(["verify-all", "--criteria", "6", "--tolerance-scale", "1e-12",
               "--output", str(out)])
    assert rc == 3
    rows = read_csv(out / "verification.csv")
    assert rows[0]["passed"] == "false"


def test_console_entry_point_runs(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "gatebound.cli", "squeeze-opt", "--epsilon", "0.01",
         "--output", str(tmp_path / "run")],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0


# One argv per command (``run`` dispatches to these from a config file): a
# fresh process must load no scipy module for any of them.
COMMAND_ARGVS = [
    ["gate-sim", "--alpha", "16"],
    ["sweep", "--command", "gate-sim", "--axis", "alpha", "--values", "2,3",
     "--parallelism", "2"],
    ["pulse-bound", "--epsilon", "0.01", "--budget", "50"],
    ["squeeze-opt", "--epsilon", "0.01"],
    ["nonlinear-bound", "--p-power", "2", "--epsilon", "0.1"],
    ["heuristic", "--m", "1", "--length", "1", "--duration", "1", "--epsilon", "0.01"],
    ["counterexample"],
    ["collision-free", "--m", "40", "--v", "2", "--b", "4", "--duration", "8",
     "--epsilon", "0.5"],
    ["collision-harmonic", "--m", "1", "--omega", "1", "--amplitude", "100", "--gap", "30",
     "--epsilon", "0.1"],
    ["return-mismatch", "--m", "1", "--omega", "1", "--amplitude", "100", "--gap", "30"],
    ["verify-all"],
]
COLLISION_SWEEP = ["sweep", "--command", "collision-free", "--axis", "epsilon",
                   "--values", "0.1,0.2,0.3,0.5", "--param", "m=40", "--param", "v=2",
                   "--param", "b=4", "--param", "duration=8"]

# Runs argv lists through main in one fresh interpreter; after each it
# records the exit code and the scipy modules loaded so far.
FRESH_RUNS = """\
import json, sys
from gatebound.cli import main
runs = []
for i, argv in enumerate(json.loads(sys.argv[1])):
    code = main(argv + ["--output", f"{sys.argv[2]}/{i}"])
    runs.append([code, sorted(m for m in sys.modules if m.split(".")[0] == "scipy")])
print(json.dumps(runs))
"""


def _fresh_runs(out, argvs):
    proc = subprocess.run([sys.executable, "-c", FRESH_RUNS, json.dumps(argvs), str(out)],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_no_command_loads_scipy(tmp_path):
    assert {argv[0] for argv in COMMAND_ARGVS} == set(COMMANDS) | {"sweep", "verify-all"}
    runs = _fresh_runs(tmp_path, COMMAND_ARGVS)
    for argv, run in zip(COMMAND_ARGVS, runs):
        assert run == [0, []], argv
    rows = read_csv(tmp_path / str(len(runs) - 1) / "verification.csv")
    assert len(rows) == 10 and all(row["passed"] == "true" for row in rows)


def test_collision_sweep_on_the_pool_matches_the_serial_sweep(tmp_path):
    for parallelism in (1, 2):
        assert _fresh_runs(tmp_path / f"p{parallelism}",
                           [COLLISION_SWEEP + ["--parallelism", str(parallelism)]])[0][0] == 0
    serial, pooled = (tmp_path / "p1" / "0", tmp_path / "p2" / "0")
    assert (serial / "result.csv").read_bytes() == (pooled / "result.csv").read_bytes()
    reports = [json.loads((out / "report.json").read_text()) for out in (serial, pooled)]
    assert [r.pop("parallelism") for r in reports] == [1, 2]
    assert reports[0] == reports[1]


def test_package_exports_collision_names():
    import gatebound
    from gatebound import error_variance_harmonic, free_chain

    assert error_variance_harmonic is gatebound.collision.error_variance_harmonic
    assert free_chain is gatebound.collision.free_chain
    # the calibration lives inside the two chain evaluations
    for name in ("calibrated", "calibrated_harmonic", "harmonic_constraint_ratio"):
        assert not hasattr(gatebound, name) and not hasattr(gatebound.collision, name)
    with pytest.raises(AttributeError, match="no_such_name"):
        gatebound.no_such_name


def test_cached_parser_carries_no_state_between_calls(tmp_path):
    assert build_parser() is build_parser()
    sweep = ["sweep", "--command", "gate-sim", "--axis", "alpha", "--values", "2,3"]
    runs = {"gaussian": sweep + ["--param", "envelope=gaussian"], "default": sweep}
    assert build_parser().parse_args(runs["gaussian"]).param == ["envelope=gaussian"]
    assert build_parser().parse_args(runs["default"]).param == []
    for name, argv in runs.items():
        assert main(argv + ["--output", str(tmp_path / "warm" / name)]) == 0
    # each fresh run builds its own parser in a new process
    fresh = {name: subprocess.Popen([sys.executable, "-m", "gatebound.cli", *argv,
                                     "--output", str(tmp_path / "fresh" / name)])
             for name, argv in runs.items()}
    for name, proc in fresh.items():
        assert proc.wait() == 0
        assert (tmp_path / "warm" / name / "result.csv").read_bytes() \
            == (tmp_path / "fresh" / name / "result.csv").read_bytes()
    assert (tmp_path / "warm" / "gaussian" / "result.csv").read_bytes() \
        != (tmp_path / "warm" / "default" / "result.csv").read_bytes()


REPORT_COLUMNS = [
    ("phase", "phase_rad"),
    ("error", "error_dimensionless"),
    ("photon_number", "photon_number"),
    ("mean_omega", "mean_omega_rad_per_s"),
    ("energy", "energy_hbar_rad_per_s"),
    ("bound", "bound_hbar_rad_per_s"),
    ("ratio", "energy_over_bound"),
    ("satisfied", "satisfied"),
]

# per command: small fast arguments and the (row key, CSV label) of every column
TABLE_CASES = {
    "counterexample": (["--n", "1,2"], [
        ("n", "n"),
        ("g", "g_rad_per_s"),
        ("duration", "duration_s"),
        ("p", "failure_probability"),
        ("phase_residual", "phase_residual_hbar"),
        ("sw_start", "switch_residual_start_hbar_rad_per_s_sq"),
        ("sw_end", "switch_residual_end_hbar_rad_per_s_sq"),
        ("energy_above_ground", "control_energy_above_ground_hbar_rad_per_s"),
    ]),
    "gate-sim": (["--alpha", "2"], [
        ("alpha_abs", "alpha_abs"),
        ("alpha_sq", "alpha_sq"),
        ("p_exact", "p_exact"),
        ("p_oracle", "p_oracle"),
        ("p_perturbative", "p_perturbative"),
        ("p_times_alpha_sq", "p_times_alpha_sq"),
        ("phase_residual", "phase_residual_hbar"),
        ("oracle_diff", "oracle_abs_diff"),
        ("sw_start", "switch_residual_start_hbar_rad_per_s_sq"),
        ("sw_end", "switch_residual_end_hbar_rad_per_s_sq"),
    ]),
    "pulse-bound": (["--epsilon", "0.05", "--budget", "20"], [
        ("kind", "construction"),
        *REPORT_COLUMNS,
    ]),
    "squeeze-opt": (["--epsilon", "1e-3", "--gate-time", "1.0"], [
        ("epsilon", "epsilon"),
        ("omega", "omega_rad_per_s"),
        ("r_star", "r_star"),
        ("e_min", "e_min_hbar_rad_per_s"),
        ("e_min_over_hw", "e_min_over_hbar_omega"),
        ("omega_min", "linewidth_omega_min_rad_per_s"),
        ("combined_bound", "combined_bound_hbar_rad_per_s"),
        ("combined_bound_quoted", "combined_bound_quoted_hbar_rad_per_s"),
    ]),
    "nonlinear-bound": (["--p-power", "2", "--epsilon", "0.1"], [
        ("p_power", "p_power"),
        ("coeff_abs", "effective_coefficient_abs"),
        *REPORT_COLUMNS,
        ("bound_over_linear", "bound_over_linear"),
    ]),
    "collision-free": (["--m", "40", "--v", "2", "--b", "4", "--duration", "8",
                        "--epsilon", "0.5"], [
        ("m", "mass_nat"),
        ("v", "speed_nat"),
        ("b", "impact_parameter_nat"),
        ("duration", "duration_s"),
        ("n", "power_law_n"),
        ("coupling", "calibrated_coupling"),
        *REPORT_COLUMNS,
    ]),
    "collision-harmonic": (["--m", "1", "--omega", "1", "--amplitude", "100", "--gap", "30",
                            "--epsilon", "0.1"], [
        ("m", "mass_nat"),
        ("omega", "trap_omega_rad_per_s"),
        ("amplitude", "amplitude_nat"),
        ("gap", "gap_nat"),
        ("squeeze_r", "squeeze_r"),
        ("coupling", "calibrated_coupling"),
        ("sin_cos_ratio", "sin_over_cos_integral"),
        ("gap_times_ratio", "gap_times_constraint_ratio"),
        ("second_order_flag", "second_order_flag"),
        *REPORT_COLUMNS,
    ]),
    "return-mismatch": (["--m", "1", "--omega", "1", "--amplitude", "100", "--gap", "30"], [
        ("coupling", "calibrated_coupling"),
        ("dx_return", "dx_return_nat"),
        ("dp_return", "dp_return_nat"),
        ("norm", "phase_space_mismatch"),
        ("halving_ratio", "mismatch_ratio_full_over_half"),
        ("dx_halving_ratio", "dx_ratio_full_over_half"),
    ]),
    "heuristic": (["--m", "1", "--length", "1", "--duration", "1", "--epsilon", "0.1"], [
        ("delta_x", "delta_x_nat"),
        ("delta_p", "delta_p_nat"),
        ("misoverlap", "misoverlap"),
        ("misoverlap_optimal", "misoverlap_optimal"),
        *REPORT_COLUMNS,
    ]),
}


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_command_table_columns_and_plot(tmp_path, name):
    args, columns = TABLE_CASES[name]
    out = tmp_path / "run"
    assert main([name, *args, "--plot", "--output", str(out)]) == 0
    with open(out / "result.csv", newline="", encoding="utf-8") as fh:
        header = next(csv.reader(fh))
    assert header == [label for _, label in columns]
    report = json.loads((out / "report.json").read_text())
    assert report["columns"] == header
    for row in report["rows"]:
        assert sorted(row) == sorted(key for key, _ in columns)
    assert (out / "plot.svg").read_text().startswith("<svg")


def _write_config(tmp_path, config):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    return str(path)


def test_bad_parameter_values_exit_2(tmp_path, capsys):
    n_not_list = _write_config(tmp_path, {"command": "counterexample", "params": {"n": 5}})
    assert main(["run", "--config", n_not_list, "--output", str(tmp_path / "a")]) == 2
    assert "'n'" in capsys.readouterr().err
    budget_float = _write_config(
        tmp_path, {"command": "pulse-bound", "params": {"epsilon": 0.05, "budget": 2.5}})
    assert main(["run", "--config", budget_float, "--output", str(tmp_path / "b")]) == 2
    assert "'budget'" in capsys.readouterr().err
    assert main(["counterexample", "--n", "0", "--output", str(tmp_path / "c")]) == 2
    assert not (tmp_path / "c").exists()
    assert main(["pulse-bound", "--epsilon", "0.1", "--n-modes", "0",
                 "--output", str(tmp_path / "e")]) == 2
    assert "n_modes" in capsys.readouterr().err
    assert not (tmp_path / "e").exists()
    assert main(["nonlinear-bound", "--p-power", "2", "--epsilon", "0.1", "--alpha", "0",
                 "--output", str(tmp_path / "d")]) == 2
    assert "no photons" in capsys.readouterr().err
    assert not (tmp_path / "d").exists()
    assert main(["nonlinear-bound", "--p-power", "0", "--epsilon", "0.1",
                 "--output", str(tmp_path / "p")]) == 2
    assert "p_power must be >= 1" in capsys.readouterr().err
    assert not (tmp_path / "p").exists()
    # malformed complex text in a sweep's base parameters stops before any point runs
    assert main(["sweep", "--command", "gate-sim", "--axis", "duration", "--values", "1,2",
                 "--param", "alpha=abc", "--output", str(tmp_path / "f")]) == 2
    assert "'alpha'" in capsys.readouterr().err
    assert not (tmp_path / "f").exists()
    sweep = ["sweep", "--command", "squeeze-opt", "--axis", "epsilon", "--values", "0.1"]
    for config, argv, named in (
        ({"command": "pulse-bound", "params": {"epsilon": [0.1]}}, ["run"], "'epsilon'"),
        ({"command": "gate-sim", "params": {"alpha": 2, "envelope": "square"}}, ["run"],
         "--envelope"),
        (None, [*sweep, "--param", "nosuch=1"], "'nosuch'"),
        (None, [*sweep, "--param", "epsilon"], "'epsilon'"),
        (None, ["sweep", "--command", "squeeze-opt", "--axis", "nosuch", "--values", "0.1"],
         "'nosuch'"),
        (None, ["verify-all", "--criteria", "11"], "valid: [1, 2, 3, 4, 5, 6, 7, 8, 9, 10]"),
        (None, ["gate-sim", "--alpha", "0"], "alpha must be nonzero"),
        # omega T = 2 pi: the equality construction's window integral vanishes
        (None, ["pulse-bound", "--epsilon", "0.01", "--omega", "6.283185307179586",
                "--budget", "10"], "window integral vanishes"),
    ):
        out = tmp_path / "g"
        if config is not None:
            argv = [*argv, "--config", _write_config(tmp_path, config)]
        assert main([*argv, "--output", str(out)]) == 2, argv
        assert named in capsys.readouterr().err, argv
        assert not out.exists()


def _raise_key_error(params, ctx, seed):
    raise KeyError("bug")


def test_bug_inside_a_command_propagates(tmp_path, monkeypatch):
    monkeypatch.setitem(COMMANDS, "squeeze-opt",
                        dataclasses.replace(COMMANDS["squeeze-opt"], run=_raise_key_error))
    with pytest.raises(KeyError):
        main(["squeeze-opt", "--epsilon", "0.01", "--output", str(tmp_path / "a")])
    out = tmp_path / "sweep"
    with pytest.raises(KeyError):
        main(["sweep", "--command", "squeeze-opt", "--axis", "epsilon",
              "--values", "0.1,0.01", "--output", str(out)])
    assert not (out / "result.csv").exists()


def test_sweep_int_axis_rejects_fractional_values(tmp_path, capsys, monkeypatch):
    command = COMMANDS["pulse-bound"]
    calls = []

    def counted(*args):
        calls.append(args)
        return command.run(*args)

    monkeypatch.setitem(COMMANDS, "pulse-bound", dataclasses.replace(command, run=counted))
    out = tmp_path / "run"
    rc = main(["sweep", "--command", "pulse-bound", "--axis", "budget",
               "--values", "2.7,3.2", "--param", "epsilon=0.05", "--output", str(out)])
    assert rc == 2
    assert "'budget'" in capsys.readouterr().err
    assert calls == []
    assert not out.exists()


def test_sweep_list_axis_runs_one_value_per_point(tmp_path):
    out = tmp_path / "run"
    assert main(["sweep", "--command", "counterexample", "--axis", "n",
                 "--values", "1,2", "--output", str(out)]) == 0
    rows = read_csv(out / "result.csv")
    assert [row["status"] for row in rows] == ["ok", "ok"]
    assert [row["n"] for row in rows] == ["1", "2"]


def test_verify_all_empty_criteria_exits_2(tmp_path):
    out = tmp_path / "run"
    with pytest.raises(SystemExit) as err:
        main(["verify-all", "--criteria", "", "--output", str(out)])
    assert err.value.code == 2
    assert not (out / "verification.csv").exists()


def test_malformed_config_exits_2(tmp_path, capsys):
    params_list = _write_config(tmp_path, {"command": "squeeze-opt", "params": ["epsilon"]})
    assert main(["run", "--config", params_list, "--output", str(tmp_path / "a")]) == 2
    assert main(["run", "--config", str(tmp_path / "missing.json"),
                 "--output", str(tmp_path / "b")]) == 2
    squeeze = {"epsilon": 1e-4, "gate_time": 1.0}
    for config, argv, named in (
        ({"command": "squeeze-opt", "units": "cgs", "params": squeeze}, ["run"],
         "unit system 'cgs'"),
        ([{"command": "squeeze-opt"}], ["run"], "JSON object"),
        ({"params": squeeze}, ["run"], "'command'"),
        ({"params": squeeze}, ["sweep", "--axis", "epsilon", "--values", "0.1"], "--command"),
        ({"command": "squeeze-opt", "params": squeeze}, ["sweep"], "--axis and --values"),
    ):
        out = tmp_path / "c"
        assert main([*argv, "--config", _write_config(tmp_path, config),
                     "--output", str(out)]) == 2, argv
        assert named in capsys.readouterr().err, argv
        assert not out.exists()


@pytest.mark.parametrize("envelope, segments", [("raised-cosine", 1), ("triangle", 2)])
def test_gate_sim_integrates_its_drive_once(tmp_path, monkeypatch, envelope, segments):
    # the exact phase, the perturbative estimate and the oracle share one
    # drive_integrals result: one panel integration per drive segment
    calls = []
    original = gate._segment_integrals

    def counted(drive, a, b):
        calls.append((a, b))
        return original(drive, a, b)

    monkeypatch.setattr(gate, "_segment_integrals", counted)
    assert main(["gate-sim", "--alpha", "2", "--envelope", envelope,
                 "--output", str(tmp_path / "run")]) == 0
    assert len(calls) == segments


def test_counterexample_takes_no_cutoff(tmp_path):
    # its outcome is a closed form, so there is no basis to size
    with pytest.raises(SystemExit) as err:
        main(["counterexample", "--n", "2", "--cutoff", "4", "--output", str(tmp_path / "a")])
    assert err.value.code == 2
    assert not (tmp_path / "a").exists()


def test_gate_sim_takes_no_omega(tmp_path):
    # its drive is written in the interaction picture, so H0 never enters
    with pytest.raises(SystemExit) as err:
        main(["gate-sim", "--alpha", "2", "--omega", "1", "--output", str(tmp_path / "a")])
    assert err.value.code == 2
    assert not (tmp_path / "a").exists()


def _switch_residuals(out, unit):
    return [(float(r[f"switch_residual_start_{unit}_sq"]), float(r[f"switch_residual_end_{unit}_sq"]))
            for r in read_csv(out / "result.csv")]


def test_si_switch_residuals_are_energies_squared(tmp_path, monkeypatch):
    # <V^2> is in (rad/s)^2 in natural units and hbar^2 <V^2> in J^2 under --units si
    hbar = 1.054571817e-34
    args = ["counterexample", "--n", "2,5", "--g", "3.1"]
    assert main([*args, "--units", "si", "--output", str(tmp_path / "ce")]) == 0
    # the always-on interaction is never switched off: <V^2> = (g n)^2 at both ends
    assert _switch_residuals(tmp_path / "ce", "J") == [
        pytest.approx(((hbar * 3.1 * n) ** 2,) * 2, rel=1e-15) for n in (2, 5)]

    # gate-sim's envelopes vanish at both ends, so give its outcome residuals
    exact = gate.failure_probability_exact

    def unswitched(scenario, tol):
        return dataclasses.replace(exact(scenario, tol), switch_residual_start=2.0,
                                   switch_residual_end=3.0)

    monkeypatch.setattr(gate, "failure_probability_exact", unswitched)
    assert main(["gate-sim", "--alpha", "3", "--output", str(tmp_path / "nat")]) == 0
    assert _switch_residuals(tmp_path / "nat", "hbar_rad_per_s") == [(2.0, 3.0)]
    assert main(["gate-sim", "--alpha", "3", "--units", "si",
                 "--output", str(tmp_path / "si")]) == 0
    assert _switch_residuals(tmp_path / "si", "J") == [(hbar ** 2 * 2.0, hbar ** 2 * 3.0)]


def test_collision_free_accepts_any_exponent_above_one(tmp_path):
    # a rho^-1.2 potential decays slowly, but the chain needs only n > 1
    out = tmp_path / "run"
    assert main(["collision-free", "--m", "40", "--v", "2", "--b", "4", "--duration", "8",
                 "--epsilon", "0.5", "--n", "1.2", "--output", str(out)]) == 0
    row = read_csv(out / "result.csv")[0]
    assert float(row["power_law_n"]) == 1.2
    assert abs(float(row["phase_rad"]) - math.pi) < 1e-6
    # optimal-wavepacket error (pi^2 T / 2m) ((n-1)/b)^2
    assert float(row["error_dimensionless"]) == pytest.approx(
        math.pi ** 2 * 8 / 80 * (0.2 / 4) ** 2, rel=1e-12)
    assert row["satisfied"] == "true"
    assert main(["collision-free", "--m", "40", "--v", "2", "--b", "4", "--duration", "8",
                 "--epsilon", "0.5", "--n", "1.0", "--output", str(tmp_path / "bad")]) == 2


COLLISION_CHAINS = {
    "collision-free": ["--m", "40", "--v", "2", "--b", "4", "--duration", "8"],
    "collision-harmonic": ["--m", "1", "--omega", "1", "--amplitude", "100", "--gap", "30"],
}


@pytest.mark.parametrize("name", sorted(COLLISION_CHAINS))
def test_collision_epsilon_above_one_is_flagged_not_rejected(tmp_path, name):
    # any eps > 0 is a valid budget; eps >= 1 only makes the bound trivial
    epsilon = next(p for p in COMMANDS[name].params if p.name == "epsilon")
    assert "epsilon_unphysical" in epsilon.help
    out = tmp_path / name
    assert main([name, *COLLISION_CHAINS[name], "--epsilon", "2", "--output", str(out)]) == 0
    assert read_csv(out / "result.csv")[0]["satisfied"] == "true"
    report = json.loads((out / "report.json").read_text())
    assert report["extra"]["report"]["meta"]["epsilon_unphysical"] is True


# Every bound route takes any finite error budget eps > 0 (the collision
# chains flag eps >= 1, see the test above) and rejects the rest with one message.
BOUND_ROUTES = {
    "heuristic": ["--m", "1", "--length", "1", "--duration", "1"],
    "pulse-bound": ["--budget", "5"],
    "nonlinear-bound": ["--p-power", "2"],
    "squeeze-opt": [],
    **COLLISION_CHAINS,
}


@pytest.mark.parametrize("epsilon", [1, 2, 0, -0.5])
@pytest.mark.parametrize("name", sorted(BOUND_ROUTES))
def test_epsilon_domain_of_each_route(tmp_path, capsys, name, epsilon):
    out = tmp_path / "run"
    code = main([name, *BOUND_ROUTES[name], "--epsilon", str(epsilon), "--output", str(out)])
    if epsilon > 0:
        assert code == 0
        assert (out / "result.csv").exists()
    else:
        assert code == 2
        assert "epsilon must be a finite error budget > 0" in capsys.readouterr().err
        assert not out.exists()


NON_FINITE = [
    ["collision-free", "--m", "1", "--v", "1", "--b", "1", "--duration", "2", "--epsilon", "nan"],
    ["counterexample", "--g", "inf"],
    ["squeeze-opt", "--epsilon", "0.1", "--omega", "inf"],
    ["gate-sim", "--alpha", "inf"],
    ["gate-sim", "--alpha", "1e200"],  # finite, but |alpha|^2 overflows the cutoff rule
    # finite, but the drive integral pi / (2 |alpha|) = 1.6e200 holds no finite cutoff
    ["gate-sim", "--alpha", "1e-200"],
    ["gate-sim", "--alpha", "2", "--duration", "1e-320"],  # 2 pi / duration overflows
    # finite, but m L^2, and m^2 in the optimal wavepacket's 4 m^2 dx^2, underflow
    ["heuristic", "--m", "1", "--length", "1e-200", "--duration", "1", "--epsilon", "0.1"],
    ["heuristic", "--m", "1e-320", "--length", "1", "--duration", "1", "--epsilon", "0.1"],
    # finite, but eps T, hbar omega underflow and omega_min, E_min overflow
    ["squeeze-opt", "--epsilon", "1e-4", "--gate-time", "1e-320"],
    ["squeeze-opt", "--epsilon", "1e-4", "--omega", "1e-300", "--units", "si"],
    ["squeeze-opt", "--epsilon", "1e-4", "--gate-time", "1e-310"],
    ["squeeze-opt", "--epsilon", "1e-300", "--omega", "1e300"],
    # finite, but (g n)^2, the control energy and T = pi / (g n) overflow
    ["counterexample", "--g", "1e300", "--n", "1..3"],
    ["counterexample", "--omega", "1e308"],
    ["counterexample", "--g", "1e-320"],
    ["nonlinear-bound", "--p-power", "2", "--epsilon", "0.1", "--duration", "inf"],
    ["nonlinear-bound", "--p-power", "2", "--epsilon", "0.1", "--weight", "1+nanj"],
    # finite, but the report's photon number (then its mean frequency) overflows
    ["nonlinear-bound", "--p-power", "2", "--epsilon", "0.1", "--alpha", "1e200"],
    ["nonlinear-bound", "--p-power", "1", "--epsilon", "0.1", "--omega", "1e300",
     "--alpha", "1e10"],
    # finite, but |c alpha| (the phase) and |c|^2 (the error) overflow
    ["nonlinear-bound", "--p-power", "1", "--epsilon", "0.1", "--weight", "1e300",
     "--alpha", "1e10"],
    ["verify-all", "--tolerance-scale", "nan"],
    ["sweep", "--command", "gate-sim", "--axis", "alpha", "--values", "2,inf"],
    ["sweep", "--command", "squeeze-opt", "--axis", "epsilon", "--values", "0.1",
     "--param", "omega=nan"],
    ["run", "--config", "{config}"],
]


@pytest.mark.parametrize("argv", NON_FINITE, ids=[" ".join(a) for a in NON_FINITE])
def test_non_finite_input_exits_2_without_artifacts(tmp_path, capsys, argv):
    # Python's json reads NaN and Infinity, so a config file can carry them too
    config = _write_config(tmp_path, {"command": "squeeze-opt", "params": {"epsilon": math.nan}})
    out = tmp_path / "run"
    assert main([*[a.format(config=config) for a in argv], "--output", str(out)]) == 2
    assert "finite" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", [["return-mismatch"],
                                     ["collision-harmonic", "--epsilon", "0.1"]])
def test_overflowing_trap_frequency_exits_3_without_artifacts(tmp_path, capsys, command):
    # omega^2 overflows, so the trajectory's derivative at t = 0 is infinite
    out = tmp_path / "run"
    assert main([*command, "--m", "1", "--omega", "1e200", "--amplitude", "100", "--gap", "30",
                 "--output", str(out)]) == 3
    assert "non-finite derivative" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("alpha, code", [("1e-200", 2), ("1e-200+1e-200j", 3)])
def test_overflowing_drive_integral_exits_without_a_warning(tmp_path, capsys, alpha, code):
    # the drive integral is 1.6e200; its phase int Im(f conj G) is 0 on a real
    # alpha, whose cutoff rule then holds no basis, and overflows on a complex one
    out = tmp_path / "run"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["gate-sim", "--alpha", alpha, "--output", str(out)]) == code
    assert caught == []
    assert ("no finite cutoff" if code == 2 else "drive integral is not finite") in \
        capsys.readouterr().err
    assert not out.exists()


UNIT_FREE = ("photon_number", "mean_omega_rad_per_s", "phase_rad", "error_dimensionless")


@pytest.mark.parametrize("seed", ["0", "7"])
def test_adversarial_search_does_not_depend_on_units(tmp_path, seed):
    # the search compares its ratios at hbar = 1; only the report carries units
    rows = {}
    for units in ("natural", "si"):
        out = tmp_path / units
        assert main(["pulse-bound", "--epsilon", "0.05", "--n-modes", "3", "--budget", "777",
                     "--seed", seed, "--units", units, "--output", str(out)]) == 0
        rows[units] = {r["construction"]: r for r in read_csv(out / "result.csv")}
    natural, si = rows["natural"]["adversarial-best"], rows["si"]["adversarial-best"]
    assert [natural[k] for k in UNIT_FREE] == [si[k] for k in UNIT_FREE]
    assert float(si["energy_J"]) == HBAR_SI * float(natural["energy_hbar_rad_per_s"])


def test_unresolvable_nonlinear_mode_exits_3_at_once(tmp_path, capsys):
    # 1e8 rad on the window: no grid under the 64 * 2^14 sample cap resolves it
    start = time.perf_counter()
    assert main(["nonlinear-bound", "--p-power", "2", "--epsilon", "0.1", "--omega", "1e8",
                 "--output", str(tmp_path / "run")]) == 3
    assert time.perf_counter() - start < 2.0
    assert "1048576 samples cannot resolve" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


def test_gate_sim_beyond_the_basis_cap_exits_2_at_once(tmp_path, capsys):
    # |alpha| = 1e5 asks for a basis of about 1e10 levels
    start = time.perf_counter()
    assert main(["gate-sim", "--alpha", "1e5", "--output", str(tmp_path / "run")]) == 2
    assert time.perf_counter() - start < 2.0
    assert "MAX_CUTOFF" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()
