import csv
import json
import math
import subprocess
import sys

import dataclasses

import pytest

from gatebound import gate
from gatebound.cli import COMMANDS, main, sweep_rows_csv_bytes


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
    assert main(["squeeze-opt", "--epsilon", "2.0", "--output", str(out)]) == 2


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
    assert main(["counterexample", "--n", "5", "--cutoff", "3",
                 "--output", str(tmp_path / "c")]) == 2


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
    command = COMMANDS["counterexample"]
    calls = []

    def counted(*args):
        calls.append(args)
        return command.run(*args)

    monkeypatch.setitem(COMMANDS, "counterexample", dataclasses.replace(command, run=counted))
    out = tmp_path / "run"
    rc = main(["sweep", "--command", "counterexample", "--axis", "cutoff",
               "--values", "2.7,3.2", "--param", "n=1", "--output", str(out)])
    assert rc == 2
    assert "'cutoff'" in capsys.readouterr().err
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


def test_malformed_config_exits_2(tmp_path):
    params_list = _write_config(tmp_path, {"command": "squeeze-opt", "params": ["epsilon"]})
    assert main(["run", "--config", params_list, "--output", str(tmp_path / "a")]) == 2
    assert main(["run", "--config", str(tmp_path / "missing.json"),
                 "--output", str(tmp_path / "b")]) == 2


@pytest.mark.parametrize("envelope, segments", [("raised-cosine", 1), ("triangle", 2)])
def test_gate_sim_integrates_its_drive_once(tmp_path, monkeypatch, envelope, segments):
    # the exact phase, the perturbative estimate and the oracle share one
    # drive_integrals result: one solve_ivp per drive segment
    calls = []
    original = gate.solve_ivp

    def counted(*args, **kwargs):
        calls.append(args[1])
        return original(*args, **kwargs)

    monkeypatch.setattr(gate, "solve_ivp", counted)
    assert main(["gate-sim", "--alpha", "2", "--envelope", envelope,
                 "--output", str(tmp_path / "run")]) == 0
    assert len(calls) == segments


def test_gate_sim_takes_no_omega(tmp_path):
    # its drive is written in the interaction picture, so H0 never enters
    with pytest.raises(SystemExit) as err:
        main(["gate-sim", "--alpha", "2", "--omega", "1", "--output", str(tmp_path / "a")])
    assert err.value.code == 2
    assert not (tmp_path / "a").exists()
