"""Command-line front end: studies, sweeps and artifact emission.

Every run writes ``result.csv`` (RFC-4180, one unit-labelled column per
quantity) and ``report.json`` (stable key order) into the output directory;
``--plot`` adds ``plot.svg``.  ``verify-all`` executes the acceptance
criteria and writes ``verification.csv``.  Outputs are written to a
temporary name and renamed, so no partial artifact is ever visible.

Exit codes: 0 success, 2 validation error, 3 numerical failure.  Any other
exception is a bug in the package and propagates as a traceback.
"""

from __future__ import annotations

import argparse
import cmath
import csv
import functools
import io
import json
import math
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, replace
from pathlib import Path
from typing import Any, Callable

import numpy as np

from . import collision, gate, heuristic, pulses
from ._svg import line_plot
from .envelopes import ENVELOPES
from .errors import IntegrationError, NumericalInconsistencyError
from .report import checked_positive

EXIT_OK, EXIT_VALIDATION, EXIT_NUMERICAL = 0, 2, 3
HBAR_SI = 1.054571817e-34  # J*s

# CutoffError, DimensionMismatchError, UncertaintyError and
# DegenerateConfigError subclass ValueError; SamplingError subclasses
# NumericalInconsistencyError.
VALIDATION_ERRORS = (ValueError,)
NUMERICAL_ERRORS = (IntegrationError, NumericalInconsistencyError)


class CliValidationError(Exception):
    pass


@dataclass(frozen=True)
class UnitContext:
    natural: bool
    hbar: float

    @property
    def energy_unit(self) -> str:
        return "hbar_rad_per_s" if self.natural else "J"

    def unit(self, si: str) -> str:
        """Label of a mechanical unit: ``si`` in SI, ``nat`` in natural units."""
        return "nat" if self.natural else si


def make_units(name: str) -> UnitContext:
    if name == "natural":
        return UnitContext(True, 1.0)
    if name == "si":
        return UnitContext(False, HBAR_SI)
    raise CliValidationError(f"unknown unit system {name!r}")


# ---------------------------------------------------------------------------
# parameter parsing
# ---------------------------------------------------------------------------

def _nonempty(values: list, text) -> list:
    if not values:
        raise ValueError(f"empty list {text!r}")
    return values


def parse_int_list(text: str) -> list[int]:
    """'1..6' or '1,2,5'."""
    text = text.strip()
    if ".." in text:
        lo, hi = text.split("..", 1)
        return _nonempty(list(range(int(lo), int(hi) + 1)), text)
    return _nonempty([int(tok) for tok in text.split(",") if tok.strip()], text)


def parse_float_list(text: str) -> list[float]:
    return _nonempty([float(tok) for tok in text.split(",") if tok.strip()], text)


def parse_complex(text: str) -> complex:
    return complex(text.replace(" ", ""))


def _require_finite(name: str, value) -> None:
    """Reject a nan or infinite number, or complex text that is malformed or not finite."""
    try:
        number = parse_complex(value) if isinstance(value, str) else value
    except ValueError as exc:
        raise CliValidationError(f"parameter {name!r}: {exc}") from None
    if not cmath.isfinite(number):
        raise CliValidationError(f"parameter {name!r} must be finite, got {value!r}")


@dataclass(frozen=True)
class Param:
    name: str
    kind: Callable
    help: str
    default: Any = None
    required: bool = False
    choices: tuple | None = None


@dataclass(frozen=True)
class Command:
    name: str
    help: str
    params: tuple[Param, ...]
    run: Callable
    plot: tuple[str, str, bool, bool]  # xkey, ykey, logx, logy


def _number(kind: Callable, raw):
    """A JSON or sweep-axis number as ``kind``.

    An int parameter takes only integral values.  A str parameter (a
    complex amplitude) keeps the number as it is.
    """
    if isinstance(raw, bool) or not isinstance(raw, (int, float)):
        raise ValueError(f"expected a number, got {raw!r}")
    if kind is float:
        return float(raw)
    if kind is int:
        if isinstance(raw, float) and not raw.is_integer():
            raise ValueError(f"expected an integer, got {raw!r}")
        return int(raw)
    return raw


def _coerce(param: Param, raw):
    """``raw`` as ``param``'s type, for a value that no typed flag parsed:
    a config-file param, a ``--param key=value`` or a sweep-axis value."""
    try:
        if isinstance(raw, str):
            return param.kind(raw)
        if param.kind is parse_int_list:
            if not isinstance(raw, list):
                raise ValueError(f"expected a list, got {raw!r}")
            return _nonempty([_number(int, item) for item in raw], raw)
        return _number(param.kind, raw)
    except ValueError as exc:
        raise CliValidationError(f"parameter {param.name!r}: {exc}") from None


def _merge_params(command: Command, flags: dict, loose: dict) -> dict:
    """Typed flag values override ``loose`` ones (config, --param, sweep axis)."""
    known = {p.name for p in command.params}
    for key in loose:
        if key not in known:
            raise CliValidationError(
                f"unknown parameter {key!r} for command {command.name!r}")
    merged = {}
    for p in command.params:
        value = flags.get(p.name)
        if value is None and loose.get(p.name) is not None:
            value = _coerce(p, loose[p.name])
        if value is None:
            if p.required:
                raise CliValidationError(f"missing required parameter --{p.name} for {command.name!r}")
            value = p.default
        if value is not None and p.choices and value not in p.choices:
            raise CliValidationError(f"--{p.name} must be one of {p.choices}")
        if value is not None and p.kind in (float, str) and not p.choices:
            _require_finite(p.name, value)  # a float or a complex amplitude
        merged[p.name] = value
    return merged


# ---------------------------------------------------------------------------
# command implementations: each returns (table, extra)
# table: one list of (row key, csv header with unit, value) cells per row
# ---------------------------------------------------------------------------

def cmd_counterexample(params, ctx: UnitContext, seed: int):
    table = []
    for n in params["n"]:
        outcome = gate.counterexample_always_on(n, params["g"])
        energy = ctx.hbar * params["omega"] * n
        checked_positive(**{"the control energy hbar omega n": energy})
        table.append([
            ("n", "n", n),
            ("g", "g_rad_per_s", params["g"]),
            ("duration", "duration_s", math.pi / (params["g"] * n)),
            ("p", "failure_probability", outcome.failure_probability),
            *_outcome_cells(outcome, ctx),
            # control energy reported relative to the H0 ground state (the zero
            # of energy is otherwise ambiguous)
            ("energy_above_ground", f"control_energy_above_ground_{ctx.energy_unit}", energy),
        ])
    return table, {}


def cmd_gate_sim(params, ctx: UnitContext, seed: int):
    alpha = parse_complex(str(params["alpha"]))
    envelope = ENVELOPES[params["envelope"]](params["duration"])
    drive = gate.pi_phase_drive(envelope, alpha)
    scenario = gate.coherent_drive_scenario(alpha, drive)
    exact = gate.failure_probability_exact(scenario, params["tol"])
    oracle = gate.displacement_oracle(alpha, drive)
    p_hat = gate.failure_probability_perturbative(scenario)
    phase, *switch = _outcome_cells(exact, ctx)
    row = [
        ("alpha_abs", "alpha_abs", abs(alpha)),
        ("alpha_sq", "alpha_sq", abs(alpha) ** 2),
        ("p_exact", "p_exact", exact.failure_probability),
        ("p_oracle", "p_oracle", oracle.failure_probability),
        ("p_perturbative", "p_perturbative", p_hat),
        ("p_times_alpha_sq", "p_times_alpha_sq", exact.failure_probability * abs(alpha) ** 2),
        phase,
        ("oracle_diff", "oracle_abs_diff",
         abs(exact.failure_probability - oracle.failure_probability)),
        *switch,
    ]
    extra = {"inner": [exact.inner.real, exact.inner.imag], "cutoff": scenario.control.cutoff}
    return [row], extra


def _outcome_cells(outcome: gate.GateOutcome, ctx: UnitContext):
    """Phase and switch residuals; hbar^2 makes <V^2>, in (rad/s)^2, an energy squared."""
    return [
        ("phase_residual", "phase_residual_hbar", outcome.phase_residual),
        ("sw_start", f"switch_residual_start_{ctx.energy_unit}_sq",
         ctx.hbar ** 2 * outcome.switch_residual_start),
        ("sw_end", f"switch_residual_end_{ctx.energy_unit}_sq",
         ctx.hbar ** 2 * outcome.switch_residual_end),
    ]


def _report_cells(report, ctx: UnitContext):
    return [
        ("phase", "phase_rad", report.phase),
        ("error", "error_dimensionless", report.error),
        ("photon_number", "photon_number", report.photon_number),
        ("mean_omega", "mean_omega_rad_per_s", report.mean_omega),
        ("energy", f"energy_{ctx.energy_unit}", report.energy),
        ("bound", f"bound_{ctx.energy_unit}", report.bound),
        ("ratio", "energy_over_bound", report.ratio),
        ("satisfied", "satisfied", report.satisfied),
    ]


def cmd_pulse_bound(params, ctx: UnitContext, seed: int):
    epsilon = params["epsilon"]
    eq = pulses.single_mode_equality_pulse(epsilon, params["omega"])
    eq_report = pulses.energy_bound_check(eq, epsilon, ctx.hbar)
    winner = pulses.adversarial_pulse_search(epsilon, params["n_modes"], params["budget"], seed)
    best = pulses.energy_bound_check(winner, epsilon, ctx.hbar)
    table = [
        [("kind", "construction", "single-mode-equality"), *_report_cells(eq_report, ctx)],
        [("kind", "construction", "adversarial-best"), *_report_cells(best, ctx)],
    ]
    extra = {"reports": [eq_report.to_dict(), best.to_dict()]}
    return table, extra


def cmd_squeeze_opt(params, ctx: UnitContext, seed: int):
    epsilon = params["epsilon"]
    omega = params["omega"]
    r_star, e_min = pulses.optimize_squeezing(epsilon, omega, ctx.hbar)
    row = [
        ("epsilon", "epsilon", epsilon),
        ("omega", "omega_rad_per_s", omega),
        ("r_star", "r_star", r_star),
        ("e_min", f"e_min_{ctx.energy_unit}", e_min),
        ("e_min_over_hw", "e_min_over_hbar_omega", e_min / (ctx.hbar * omega)),
    ]
    extra: dict[str, Any] = {
        # the energy expression counts the squeezed-mode quanta as e^{2r};
        # the exact squeezed-vacuum occupation would be sinh^2(r)
        "squeezed_photon_term": math.exp(2.0 * r_star),
        "squeezed_vacuum_occupation": math.sinh(r_star) ** 2,
    }
    if params["gate_time"] is not None:
        lw = pulses.linewidth_combined_bound(params["gate_time"], epsilon, ctx.hbar)
        row += [
            ("omega_min", "linewidth_omega_min_rad_per_s", lw.omega_min),
            ("combined_bound", f"combined_bound_{ctx.energy_unit}", lw.bound),
            ("combined_bound_quoted", f"combined_bound_quoted_{ctx.energy_unit}", lw.bound_quoted),
        ]
    return [row], extra


def cmd_nonlinear_bound(params, ctx: UnitContext, seed: int):
    epsilon = params["epsilon"]
    window = (0.0, params["duration"])
    envelope = ENVELOPES[params["envelope"]](params["duration"])
    modes = ((params["omega"], parse_complex(str(params["weight"])),
              parse_complex(str(params["alpha"]))),)
    pulse = pulses.PulseSpec(modes, window, params["p_power"], envelope)
    report = pulses.energy_bound_check(pulse, epsilon, ctx.hbar)
    linear_report = pulses.energy_bound_check(pulses.PulseSpec(modes, window), epsilon, ctx.hbar)
    row = [
        ("p_power", "p_power", params["p_power"]),
        ("coeff_abs", "effective_coefficient_abs", abs(pulse.coefficients[0])),
        *_report_cells(report, ctx),
        ("bound_over_linear", "bound_over_linear", report.bound / linear_report.bound),
    ]
    return [row], {"linear_report": linear_report.to_dict()}


def cmd_collision_free(params, ctx: UnitContext, seed: int):
    chain = collision.free_chain(collision.FreeCollisionConfig(
        m=params["m"], v=params["v"], b=params["b"], T=params["duration"],
        potential=collision.PotentialLaw(params["n"]), hbar=ctx.hbar))
    report = collision.free_energy_bound(chain, params["epsilon"])
    row = [
        ("m", f"mass_{ctx.unit('kg')}", params["m"]),
        ("v", f"speed_{ctx.unit('m_per_s')}", params["v"]),
        ("b", f"impact_parameter_{ctx.unit('m')}", params["b"]),
        ("duration", "duration_s", params["duration"]),
        ("n", "power_law_n", params["n"]),
        ("coupling", "calibrated_coupling", chain.cfg.potential.coupling),
        *_report_cells(report, ctx),
    ]
    return [row], {"report": report.to_dict()}


def cmd_collision_harmonic(params, ctx: UnitContext, seed: int):
    hv = collision.error_variance_harmonic(collision.HarmonicCollisionConfig(
        m=params["m"], omega=params["omega"], A=params["amplitude"], b=params["gap"],
        potential=collision.PotentialLaw(3.0), squeeze_r=params["squeeze_r"], hbar=ctx.hbar))
    report = collision.harmonic_energy_bound(hv, params["epsilon"])
    probe = collision.squeezing_consistency_probe(hv)
    row = [
        ("m", f"mass_{ctx.unit('kg')}", params["m"]),
        ("omega", "trap_omega_rad_per_s", params["omega"]),
        ("amplitude", f"amplitude_{ctx.unit('m')}", params["amplitude"]),
        ("gap", f"gap_{ctx.unit('m')}", params["gap"]),
        ("squeeze_r", "squeeze_r", params["squeeze_r"]),
        ("coupling", "calibrated_coupling", hv.cfg.potential.coupling),
        ("sin_cos_ratio", "sin_over_cos_integral", abs(hv.sin_integral) / abs(hv.cos_integral)),
        ("gap_times_ratio", "gap_times_constraint_ratio", hv.cfg.b * hv.constraint_ratio),
        ("second_order_flag", "second_order_flag", probe.flagged),
        *_report_cells(report, ctx),
    ]
    return [row], {"report": report.to_dict(), "probe": asdict(probe)}


def cmd_return_mismatch(params, ctx: UnitContext, seed: int):
    hv = collision.error_variance_harmonic(collision.HarmonicCollisionConfig(
        m=params["m"], omega=params["omega"], A=params["amplitude"], b=params["gap"],
        potential=collision.PotentialLaw(params["n"]), hbar=ctx.hbar))
    cfg, full = hv.cfg, hv.mismatch
    half_cfg = replace(cfg, potential=cfg.potential.scaled(0.5))
    half = collision.classical_return_mismatch(half_cfg)
    norm_full = collision.mismatch_norm(full, cfg)
    norm_half = collision.mismatch_norm(half, half_cfg)
    row = [
        ("coupling", "calibrated_coupling", cfg.potential.coupling),
        ("dx_return", f"dx_return_{ctx.unit('m')}", full.dx),
        ("dp_return", f"dp_return_{ctx.unit('kg_m_per_s')}", full.dp),
        ("norm", "phase_space_mismatch", norm_full),
        ("halving_ratio", "mismatch_ratio_full_over_half", norm_full / norm_half),
        ("dx_halving_ratio", "dx_ratio_full_over_half",
         full.dx / half.dx if half.dx != 0 else math.inf),
    ]
    return [row], {"half": half._asdict()}


def cmd_heuristic(params, ctx: UnitContext, seed: int):
    cfg = heuristic.HeuristicConfig(
        m=params["m"], L=params["length"], T=params["duration"],
        dx=params["dx"], dp=params["dp"], hbar=ctx.hbar)
    delta = heuristic.displacement_estimates(cfg)
    report = heuristic.heuristic_energy_bound(cfg, params["epsilon"])
    row = [
        ("delta_x", f"delta_x_{ctx.unit('m')}", delta.delta_x),
        ("delta_p", f"delta_p_{ctx.unit('kg_m_per_s')}", delta.delta_p),
        ("misoverlap", "misoverlap", heuristic.misoverlap(cfg)),
        ("misoverlap_optimal", "misoverlap_optimal", heuristic.misoverlap_optimal(cfg)),
        *_report_cells(report, ctx),
    ]
    return [row], {"report": report.to_dict()}


COMMANDS: dict[str, Command] = {}


def _register(cmd: Command):
    COMMANDS[cmd.name] = cmd


_register(Command(
    "counterexample", "always-on interaction family reaching p = 0",
    (
        Param("n", parse_int_list, "number-state indices, e.g. 1..6 or 1,3,5", default=[1, 2, 3, 4, 5, 6]),
        Param("g", float, "coupling strength (rad/s)", default=1.0),
        Param("omega", float, "oscillator frequency for the control energy (rad/s)", default=1.0),
    ),
    cmd_counterexample,
    plot=("n", "p", False, False),
))
_register(Command(
    "gate-sim", "coherent-control linear-drive gate: exact, oracle and perturbative p",
    (
        Param("alpha", str, "coherent amplitude (complex ok)", required=True),
        Param("envelope", str, "drive envelope", default="raised-cosine",
              choices=tuple(ENVELOPES)),
        Param("duration", float, "gate time (s)", default=1.0),
        Param("tol", float, "propagation tolerance", default=1e-9),
    ),
    cmd_gate_sim,
    plot=("alpha_sq", "p_exact", True, True),
))
_register(Command(
    "pulse-bound", "field-pulse energy bound: equality construction + adversarial search",
    (
        Param("epsilon", float, "error budget > 0", required=True),
        Param("n_modes", int, "modes in the adversarial search", default=1),
        Param("budget", int, "search evaluations", default=400),
        Param("omega", float, "frequency of the equality construction (rad/s)", default=1.0),
    ),
    cmd_pulse_bound,
    plot=("error", "energy", True, True),
))
_register(Command(
    "squeeze-opt", "squeezed-field optimum and carrier-linewidth combination",
    (
        Param("epsilon", float, "error budget > 0", required=True),
        Param("omega", float, "carrier frequency (rad/s)", default=1.0),
        Param("gate_time", float, "gate time for the linewidth combination (s)"),
    ),
    cmd_squeeze_opt,
    plot=("epsilon", "e_min", True, True),
))
_register(Command(
    "nonlinear-bound", "power-p coupling reduced to an effective linear problem",
    (
        Param("p_power", int, "coupling power p >= 1", required=True),
        Param("epsilon", float, "error budget > 0", required=True),
        Param("omega", float, "mode frequency (rad/s)", default=1.0),
        Param("weight", str, "mode weight (complex ok)", default="1.0"),
        Param("alpha", str, "mode amplitude (complex ok)", default="1.0"),
        Param("envelope", str, "mean-field envelope", default="raised-cosine",
              choices=tuple(ENVELOPES)),
        Param("duration", float, "window length (s)", default=1.0),
    ),
    cmd_nonlinear_bound,
    plot=("p_power", "bound", False, True),
))
_register(Command(
    "collision-free", "free-particle collision chain with calibrated coupling",
    (
        Param("m", float, "particle mass", required=True),
        Param("v", float, "CM-frame transverse speed", required=True),
        Param("b", float, "impact parameter", required=True),
        Param("duration", float, "interaction window T (s)", required=True),
        Param("n", float, "power-law exponent (> 1)", default=2.0),
        Param("epsilon", float, "error budget > 0 (>= 1 is flagged epsilon_unphysical)",
              required=True),
    ),
    cmd_collision_free,
    plot=("b", "energy", False, True),
))
_register(Command(
    "collision-harmonic", "trapped-oscillator collision chain (rho^-3)",
    (
        Param("m", float, "particle mass", required=True),
        Param("omega", float, "trap frequency (rad/s)", required=True),
        Param("amplitude", float, "oscillation amplitude A", required=True),
        Param("gap", float, "closest distance b", required=True),
        Param("epsilon", float, "error budget > 0 (>= 1 is flagged epsilon_unphysical)",
              required=True),
        Param("squeeze_r", float, "position squeezing parameter", default=0.0),
    ),
    cmd_collision_harmonic,
    plot=("gap", "energy", False, True),
))
_register(Command(
    "return-mismatch", "classical perturbed-trajectory return deviation",
    (
        Param("m", float, "particle mass", required=True),
        Param("omega", float, "trap frequency (rad/s)", required=True),
        Param("amplitude", float, "oscillation amplitude A", required=True),
        Param("gap", float, "closest distance b", required=True),
        Param("n", float, "power-law exponent (> 1)", default=3.0),
    ),
    cmd_return_mismatch,
    plot=("coupling", "norm", False, True),
))
_register(Command(
    "heuristic", "single-particle back-of-envelope energy bound",
    (
        Param("m", float, "particle mass", required=True),
        Param("length", float, "characteristic length L", required=True),
        Param("duration", float, "gate time T (s)", required=True),
        Param("epsilon", float, "error budget > 0", required=True),
        Param("dx", float, "explicit position width (optional)"),
        Param("dp", float, "explicit momentum width (optional)"),
    ),
    cmd_heuristic,
    plot=("delta_x", "bound", False, True),
))


# ---------------------------------------------------------------------------
# artifact writing
# ---------------------------------------------------------------------------

def _csv_value(v) -> str:
    if isinstance(v, (bool, np.bool_)):
        return "true" if v else "false"
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    if v is None:
        return ""
    return str(v)


def _columns_and_rows(table):
    """CSV columns ``(key, label)`` and report rows ``{key: value}`` of a cell table.

    The header comes from the widest row, so a sweep's failed points (axis
    and status cells only) leave the remaining CSV cells empty.
    """
    columns = [(key, label) for key, label, _ in max(table, key=len)]
    rows = [{key: value for key, _, value in cells} for cells in table]
    return columns, rows


def rows_to_csv_bytes(columns, rows) -> bytes:
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow([label for _, label in columns])
    for row in rows:
        writer.writerow([_csv_value(row.get(key)) for key, _ in columns])
    return buf.getvalue().encode("utf-8")


def atomic_write(path: Path, data: bytes) -> None:
    tmp = path.with_name(path.name + f".tmp-{os.getpid()}")
    tmp.write_bytes(data)
    os.replace(tmp, path)


def report_json_bytes(payload: dict) -> bytes:
    return (json.dumps(payload, sort_keys=True, indent=2) + "\n").encode("utf-8")


def write_artifacts(out_dir: Path, table, report: dict, *, plot=None,
                    csv_name: str = "result.csv", header_in_report: bool = True) -> None:
    """Write the CSV of ``table``, ``report.json`` and, if asked, ``plot.svg``.

    ``report`` gets the table's rows (and, with ``header_in_report``, the CSV
    header as ``columns``).  ``plot`` is ``(xkey, ykey, logx, logy, title)``;
    it plots every row whose ``_status`` is ok or absent.
    """
    columns, rows = _columns_and_rows(table)
    out_dir.mkdir(parents=True, exist_ok=True)
    atomic_write(out_dir / csv_name, rows_to_csv_bytes(columns, rows))
    report = dict(report, rows=rows)
    if header_in_report:
        report["columns"] = [label for _, label in columns]
    atomic_write(out_dir / "report.json", report_json_bytes(report))
    if plot is not None:
        xkey, ykey, logx, logy, title = plot
        ok = [row for row in rows if row.get("_status", "ok") == "ok"]
        labels = dict(columns)
        # a sweep whose every point failed has no columns to label: its plot says so
        xlabel, ylabel = (labels[xkey], labels[ykey]) if ok else (xkey, ykey)
        svg = line_plot([row[xkey] for row in ok], [row[ykey] for row in ok],
                        xlabel, ylabel, title, logx, logy)
        atomic_write(out_dir / "plot.svg", svg.encode("utf-8"))


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

def derived_seed(master: int, index: int) -> int:
    return int(np.random.SeedSequence([master, index]).generate_state(1)[0])


def run_sweep(command_name: str, base_params: dict, axis: str, values: list,
              parallelism: int, seed: int, ctx: UnitContext):
    """Run a command across axis values.

    Returns the cell table, rows ordered by the values list, and whether
    any point failed.  Every point's parameters are checked before the
    first point runs.
    """
    command = COMMANDS[command_name]
    param = next((p for p in command.params if p.name == axis), None)
    if param is None:
        raise CliValidationError(f"axis {axis!r} is not a parameter of {command_name!r}")
    points = [
        _merge_params(command, {}, {
            **base_params, axis: [value] if param.kind is parse_int_list else value})
        for value in values
    ]

    def run_point(index):
        try:
            table, _ = command.run(points[index], ctx, derived_seed(seed, index))
            return table, "ok"
        except NUMERICAL_ERRORS + VALIDATION_ERRORS as exc:  # keep other points alive
            return [[]], f"error:{type(exc).__name__}"

    if parallelism > 1:
        with ThreadPoolExecutor(max_workers=parallelism) as pool:
            results = list(pool.map(run_point, range(len(values))))
    else:
        results = [run_point(index) for index in range(len(values))]

    table = [
        [("_axis", f"{axis}_value", value), ("_status", "status", status), *cells]
        for value, (point_table, status) in zip(values, results)
        for cells in point_table
    ]
    return table, any(status != "ok" for _, status in results)


def sweep_rows_csv_bytes(command_name: str, base_params: dict, axis: str,
                         values: list, parallelism: int, seed: int) -> bytes:
    """CSV bytes of a sweep in natural units; used to assert parallelism-independence."""
    table, _ = run_sweep(command_name, base_params, axis, values, parallelism, seed,
                         make_units("natural"))
    return rows_to_csv_bytes(*_columns_and_rows(table))


# ---------------------------------------------------------------------------
# argument parsing and dispatch
# ---------------------------------------------------------------------------

# One parser per process: parse_args keeps no state in it, so in-process
# callers of main (tests, benchmarks) stop rebuilding the subparser tree.
@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gatebound",
        description="Energy bounds for quantum-gate control systems: "
                    "simulations, bound checks, sweeps.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", type=str, help="JSON config file (flags override it)")
        p.add_argument("--output", type=str, default="gatebound_out", help="output directory")
        p.add_argument("--seed", type=int, default=0, help="master random seed")
        p.add_argument("--plot", action="store_true", help="also write plot.svg")
        p.add_argument("--units", choices=("natural", "si"), default=None)

    for cmd in COMMANDS.values():
        p = sub.add_parser(cmd.name, help=cmd.help, description=cmd.help)
        add_common(p)
        for param in cmd.params:
            p.add_argument("--" + param.name.replace("_", "-"), type=param.kind,
                           default=None, help=param.help)

    p = sub.add_parser("run", help="run the command named in a JSON config file")
    add_common(p)

    p = sub.add_parser(
        "sweep",
        help="run a base command across one parameter axis",
        description="Aggregated CSV: one block of rows per axis value, ordered by the "
                    "values list; failed points carry status error:<kind>.",
    )
    add_common(p)
    p.add_argument("--command", dest="base_command", type=str, default=None,
                   help="base command to sweep (or put it in --config)")
    p.add_argument("--axis", type=str, default=None, help="parameter to vary")
    p.add_argument("--values", type=parse_float_list, default=None, help="comma-separated values")
    p.add_argument("--parallelism", type=int, default=1)
    p.add_argument("--param", action="append", default=[],
                   help="base parameter as key=value (repeatable)")

    p = sub.add_parser(
        "verify-all",
        help="run the acceptance criteria end-to-end",
        description="Writes verification.csv with one row per criterion "
                    "(criterion, value, tolerance, passed, detail) and prints "
                    "each criterion's runtime on stdout.",
    )
    add_common(p)
    p.add_argument("--criteria", type=parse_int_list, default=None,
                   help="criteria subset, e.g. 1..6 or 1,5,9 (default all)")
    p.add_argument("--tolerance-scale", type=float, default=1.0,
                   help="multiply every tolerance (use < 1 to inject controlled failures)")
    return parser


_CONFIG_TYPES = {"command": str, "axis": str, "values": list, "params": dict}


def _load_config(path: str | None) -> dict:
    if not path:
        return {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise CliValidationError(f"cannot read config file: {exc}") from None
    if not isinstance(cfg, dict):
        raise CliValidationError("config file must contain a JSON object")
    for key, kind in _CONFIG_TYPES.items():
        if key in cfg and not isinstance(cfg[key], kind):
            raise CliValidationError(f"config entry {key!r} must be a JSON {kind.__name__}")
    return cfg


def _dispatch(args: argparse.Namespace) -> int:
    config = _load_config(args.config)
    ctx = make_units(args.units or config.get("units", "natural"))
    meta = {"seed": args.seed, "units": "natural" if ctx.natural else "si"}
    out_dir = Path(args.output)

    if args.command == "sweep":
        base_name = args.base_command or config.get("command")
        if base_name not in COMMANDS:
            raise CliValidationError("sweep needs --command naming a valid base command")
        axis = args.axis or config.get("axis")
        values = args.values if args.values is not None else config.get("values")
        if not axis or not values:
            raise CliValidationError("sweep needs --axis and --values")
        parallelism = max(1, args.parallelism)
        base_params = dict(config.get("params", {}))
        for item in args.param:
            if "=" not in item:
                raise CliValidationError(f"--param expects key=value, got {item!r}")
            key, val = item.split("=", 1)
            base_params[key] = val
        table, any_failed = run_sweep(
            base_name, base_params, axis, values, parallelism, args.seed, ctx)
        _, ykey, _, logy = COMMANDS[base_name].plot
        report = {"command": "sweep", "base_command": base_name, "axis": axis,
                  "values": values, "parallelism": parallelism, **meta}
        write_artifacts(out_dir, table, report, plot=(
            "_axis", ykey, True, logy, f"gatebound sweep {base_name}") if args.plot else None)
        return EXIT_NUMERICAL if any_failed else EXIT_OK

    if args.command == "verify-all":
        from .verify import run_criteria

        _require_finite("tolerance_scale", args.tolerance_scale)
        results = run_criteria(args.criteria, args.tolerance_scale)
        # wall times go to stdout only: artifacts must be byte-deterministic
        table = [[
            ("criterion", "criterion", r.criterion),
            ("value", "value", r.value),
            ("tolerance", "tolerance", r.tolerance),
            ("passed", "passed", r.passed),
            ("detail", "detail", r.detail),
        ] for r in results]
        all_passed = all(r.passed for r in results)
        report = {"command": "verify-all", "tolerance_scale": args.tolerance_scale,
                  "all_passed": all_passed}
        write_artifacts(out_dir, table, report, csv_name="verification.csv",
                        header_in_report=False)
        for r in results:
            print(r.line())
        return EXIT_OK if all_passed else EXIT_NUMERICAL

    name = config.get("command") if args.command == "run" else args.command
    if name not in COMMANDS:
        raise CliValidationError("config file must name a valid 'command' for `run`")
    command = COMMANDS[name]
    params = _merge_params(command, vars(args), config.get("params", {}))
    table, extra = command.run(params, ctx, args.seed)
    report = {"command": name, "params": params, **meta, "extra": extra}
    write_artifacts(out_dir, table, report, plot=(
        *command.plot, f"gatebound {name}") if args.plot else None)
    return EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _dispatch(args)
    except CliValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except VALIDATION_ERRORS as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except NUMERICAL_ERRORS as exc:
        diag = getattr(exc, "diagnostics", None)
        print(f"numerical failure: {exc}" + (f" {diag}" if diag else ""), file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
