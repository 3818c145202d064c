"""One-shot acceptance harness.

Each criterion below reruns one study of the package end-to-end against its
frozen tolerance and reports a single normalised worst-case value; a
criterion passes when ``value <= tolerance`` (a tolerance scale < 1
tightens every check uniformly, which is how controlled failures are
injected).  Criterion 10 checks the infrastructure itself: sweep output
must be byte-identical across parallelism settings.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from . import collision, gate, heuristic, pulses
from .envelopes import raised_cosine

PI = math.pi


@dataclass(frozen=True)
class CriterionResult:
    criterion: str
    value: float
    tolerance: float
    passed: bool
    detail: str
    runtime_s: float

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return (f"{status} {self.criterion}: value={self.value:.4g} "
                f"tolerance={self.tolerance:.4g} ({self.detail}) [{self.runtime_s:.2f}s]")


def alpha_for_target_p(p: float) -> float:
    """|alpha| making a pi-calibrated real-envelope drive fail with probability p.

    At phase pi the exact amplitude is -e^{-|beta|^2/2} with |beta| =
    pi/(2|alpha|); inverting p = 1 - (1 + e^{-|beta|^2/2})^2/4 gives alpha.
    """
    if not 0.0 < p < 0.75:
        raise ValueError("target p must lie in (0, 0.75)")
    beta_sq = -2.0 * math.log(2.0 * math.sqrt(1.0 - p) - 1.0)
    return PI / (2.0 * math.sqrt(beta_sq))


def _result(name, parts, tolerance, detail, t0) -> CriterionResult:
    value = max(parts)
    return CriterionResult(
        criterion=name,
        value=value,
        tolerance=tolerance,
        passed=value <= tolerance,
        detail=detail,
        runtime_s=time.perf_counter() - t0,
    )


def criterion_1(scale: float = 1.0) -> CriterionResult:
    """Always-on counterexample reaches p < 1e-10 for n = 1..6 at T = pi/(g n)."""
    t0 = time.perf_counter()
    ps = [gate.counterexample_always_on(n, 1.0, cutoff=n + 2).failure_probability
          for n in range(1, 7)]
    return _result("criterion-1-counterexample", ps, 1e-10 * scale,
                   f"max p = {max(ps):.3e} over n=1..6", t0)


def criterion_2(scale: float = 1.0) -> CriterionResult:
    """Perturbative estimate tracks the exact p; exact p tracks the oracle."""
    t0 = time.perf_counter()
    targets = [(0.1, 0.3), (0.03, 0.1), (0.01, 0.05)]
    parts, details = [], []
    for p_target, allowed in targets:
        alpha = alpha_for_target_p(p_target)
        drive = gate.pi_phase_drive(raised_cosine(1.0), alpha)
        scenario = gate.coherent_drive_scenario(alpha, drive)
        exact = gate.failure_probability_exact(scenario, 1e-9).failure_probability
        oracle = gate.displacement_oracle(alpha, drive).failure_probability
        p_hat = gate.failure_probability_perturbative(scenario)
        rel = abs(p_hat - exact) / exact
        oracle_diff = abs(exact - oracle)
        parts.append(rel / allowed)
        parts.append(oracle_diff / 1e-8)
        details.append(f"p={exact:.4f}: rel={rel:.3f}/{allowed}, |dp_oracle|={oracle_diff:.1e}")
    return _result("criterion-2-perturbative-vs-exact", parts, 1.0 * scale,
                   "; ".join(details), t0)


def criterion_3(scale: float = 1.0) -> CriterionResult:
    """p_exact * |alpha|^2 stays constant within 20% across alpha = 4, 8, 16."""
    t0 = time.perf_counter()
    products = []
    for alpha in (4.0, 8.0, 16.0):
        drive = gate.pi_phase_drive(raised_cosine(1.0), alpha)
        scenario = gate.coherent_drive_scenario(alpha, drive)
        p = gate.failure_probability_exact(scenario, 1e-8).failure_probability
        products.append(p * alpha * alpha)
    ratios = [products[i + 1] / products[i] for i in range(len(products) - 1)]
    parts = [abs(r - 1.0) for r in ratios]
    return _result("criterion-3-scaling-probe", parts, 0.2 * scale,
                   f"p*|a|^2 = {[f'{x:.4f}' for x in products]}", t0)


def criterion_4(scale: float = 1.0) -> CriterionResult:
    """Photon-number bound: value, universality over random pulses, tightness."""
    t0 = time.perf_counter()
    epsilon = 0.01
    mpn = pulses.min_photon_number(epsilon)
    part_value = abs(mpn - 246.74011002723395) / 0.01

    rng = np.random.default_rng(np.random.SeedSequence([20260809, 4]))
    min_ratio = math.inf
    for _ in range(1000):
        n_modes = int(rng.integers(1, 4))
        pulse = pulses.random_feasible_pulse(rng, epsilon, n_modes)
        report = pulses.energy_bound_check(pulse, epsilon)
        min_ratio = min(min_ratio, report.ratio)
    part_universal = (1.0 - min_ratio) / 1e-6

    eq = pulses.single_mode_equality_pulse(epsilon)
    eq_ratio = pulses.energy_bound_check(eq, epsilon).ratio
    part_tight = (eq_ratio - 1.0) / 1e-4

    return _result(
        "criterion-4-photon-bound",
        [part_value, part_universal, part_tight], 1.0 * scale,
        f"min_photon={mpn:.5f}, min_ratio={min_ratio:.9f}, equality_ratio={eq_ratio:.6f}",
        t0,
    )


def criterion_5(scale: float = 1.0) -> CriterionResult:
    """p = 1 reduction identical to the linear path; p = 2 bound exactly 4x."""
    t0 = time.perf_counter()
    omega, g, window, epsilon = 1.3, 0.4 + 0.1j, (0.0, 1.0), 0.05
    alpha = 2.0 - 0.5j
    linear = pulses.PulseSpec(((omega, g, alpha),), window)
    linear_report = pulses.energy_bound_check(linear, epsilon)
    reduction = pulses.nonlinear_reduce(1, lambda t: 1.0, window, [(omega, g)])
    reduced_report = pulses.nonlinear_bound_check(reduction, [alpha], epsilon)
    diffs = [
        abs(linear_report.phase - reduced_report.phase),
        abs(linear_report.error - reduced_report.error),
        abs(linear_report.energy - reduced_report.energy),
        abs(linear_report.bound - reduced_report.bound),
    ]
    part_consistency = max(diffs) / 1e-12

    envelope = raised_cosine(1.0)
    reduction2 = pulses.nonlinear_reduce(2, envelope, window, [(omega, g)])
    report2 = pulses.nonlinear_bound_check(reduction2, [alpha], epsilon)
    ratio = report2.bound / linear_report.bound
    part_factor = abs(ratio - 4.0) / (4.0 * 1e-12)

    return _result(
        "criterion-5-nonlinear-reduction",
        [part_consistency, part_factor], 1.0 * scale,
        f"max path diff = {max(diffs):.2e}, bound ratio = {ratio!r}",
        t0,
    )


def criterion_6(scale: float = 1.0) -> CriterionResult:
    """Squeezing optimum at eps = 1e-4: r* and E_min, and the energy evaluated at r*."""
    t0 = time.perf_counter()
    epsilon = 1e-4
    r_star, e_min = pulses.optimize_squeezing(epsilon, omega=1.0)
    e_at_r_star = pulses.squeezed_energy(r_star, epsilon, 1.0)
    parts = [
        abs(r_star - 2.302585092994046) / 1e-6,
        abs(e_min - 200.0) / 1e-6,
        abs(e_at_r_star - e_min) / (1e-12 * e_min),
    ]
    return _result(
        "criterion-6-squeezing-optimum", parts, 1.0 * scale,
        f"r*={r_star:.9f}, E_min={e_min:.9f} hbar*omega, "
        f"|E(r*)-E_min|={abs(e_at_r_star - e_min):.2e}",
        t0,
    )


def criterion_7(scale: float = 1.0) -> CriterionResult:
    """Free-collision chain: log-derivative, optimal wavepacket, 27-point grid."""
    t0 = time.perf_counter()
    worst_logderiv = 0.0
    for n in (1.5, 2.0, 3.0, 4.0, 6.0):
        analytic, numeric = collision.powerlaw_log_derivative_pair(n, 2.0)
        worst_logderiv = max(worst_logderiv, abs(numeric - analytic) / abs(analytic))
    part_logderiv = worst_logderiv / 1e-6

    m_, T_ = 1.7, 2.3
    wp = collision.optimal_wavepacket(m_, T_)
    objective = collision.wavepacket_objective(m_, T_, wp.dx0_sq, wp.dp0_sq)
    part_objective = abs(objective - T_ / (2.0 * m_)) / 1e-12

    epsilon = 0.5
    failures = 0
    checked = 0
    for m in (20.0, 40.0, 80.0):
        for v in (1.0, 2.0, 4.0):
            for b in (2.0, 4.0, 8.0):
                cfg = collision.FreeCollisionConfig(
                    m=m, v=v, b=b, T=4.0 * b / v,
                    potential=collision.PotentialLaw.power_law(2.0),
                )
                cfg = collision.calibrated(cfg)
                report = collision.free_energy_bound(cfg, epsilon)
                if report.error <= epsilon:
                    checked += 1
                    if not report.satisfied:
                        failures += 1
    part_grid = 2.0 if failures else 0.0

    return _result(
        "criterion-7-free-collision", [part_logderiv, part_objective, part_grid],
        1.0 * scale,
        f"logderiv worst rel = {worst_logderiv:.2e}, objective diff = "
        f"{abs(objective - T_ / (2 * m_)):.2e}, grid {checked - failures}/{checked} ok",
        t0,
    )


def criterion_8(scale: float = 1.0) -> CriterionResult:
    """Harmonic chain: dipole limit, sin-symmetry, return-mismatch linearity."""
    t0 = time.perf_counter()
    pot = collision.PotentialLaw.power_law(3.0)
    cfg = collision.HarmonicCollisionConfig(m=1.0, omega=1.0, A=100.0, b=30.0, potential=pot)
    cfg = collision.calibrated_harmonic(cfg)

    limit = collision.dipole_leading_ratio(cfg)
    part_dipole = abs(limit - 2.5) / 0.01

    hv = collision.error_variance_harmonic(cfg)
    sin_ratio = abs(hv.sin_integral) / abs(hv.cos_integral)
    part_sin = sin_ratio / 1e-9

    mm_full = collision.classical_return_mismatch(cfg)
    norm_full = collision.mismatch_norm(mm_full, cfg)
    half = collision.HarmonicCollisionConfig(
        m=cfg.m, omega=cfg.omega, A=cfg.A, b=cfg.b,
        potential=cfg.potential.scaled(0.5), squeeze_r=cfg.squeeze_r,
    )
    norm_half = collision.mismatch_norm(collision.classical_return_mismatch(half), half)
    threshold = 1e3 * 1e-10 * cfg.A
    part_nonzero = threshold / norm_full
    part_halving = abs(norm_full / norm_half - 2.0) / 0.1

    return _result(
        "criterion-8-harmonic-collision",
        [part_dipole, part_sin, part_nonzero, part_halving], 1.0 * scale,
        f"b*R limit = {limit:.6f}, sin/cos = {sin_ratio:.1e}, "
        f"|mismatch| = {norm_full:.3e}, halving ratio = {norm_full / norm_half:.4f}",
        t0,
    )


def criterion_9(scale: float = 1.0) -> CriterionResult:
    """Heuristic estimate: optimal mis-overlap, equality case, collision cross-check."""
    t0 = time.perf_counter()
    cfg = heuristic.HeuristicConfig(m=1.3, L=0.9, T=1.7, epsilon=0.2)
    mis = heuristic.misoverlap(cfg)
    mis_closed = heuristic.misoverlap_optimal(cfg)
    part_mis = (abs(mis - mis_closed) / mis_closed) / 1e-9

    epsilon, L, T = 0.03, 1.2, 0.8
    m_eq = 2.0 * PI * PI * T / (epsilon * L * L)
    eq_cfg = heuristic.HeuristicConfig(m=m_eq, L=L, T=T, epsilon=epsilon)
    report = heuristic.heuristic_energy_bound(eq_cfg)
    part_equality = (abs(report.energy - report.bound) / report.bound) / 1e-12

    cross = heuristic.collision_crosscheck(v=2.0, T=3.0, epsilon=0.05)
    ratio = cross["ratio"]
    part_cross = abs(math.log(ratio)) / math.log(5.0)

    return _result(
        "criterion-9-heuristic",
        [part_mis, part_equality, part_cross], 1.0 * scale,
        f"misoverlap rel diff = {abs(mis - mis_closed) / mis_closed:.2e}, "
        f"equality rel diff = {abs(report.energy - report.bound) / report.bound:.2e}, "
        f"cross-check ratio = {ratio:.3f}",
        t0,
    )


def criterion_10(scale: float = 1.0) -> CriterionResult:
    """Sweep artifacts are byte-identical regardless of parallelism."""
    t0 = time.perf_counter()
    from .cli import sweep_rows_csv_bytes

    base = {"epsilon": 0.01, "omega": 1.0}
    values = [0.1, 0.03, 0.01, 0.003]
    serial = sweep_rows_csv_bytes("squeeze-opt", base, "epsilon", values, parallelism=1, seed=11)
    parallel = sweep_rows_csv_bytes("squeeze-opt", base, "epsilon", values, parallelism=4, seed=11)
    mismatch = 0.0 if serial == parallel else 1.0
    return _result(
        "criterion-10-infrastructure", [mismatch], 0.5 * scale,
        f"sweep bytes {'identical' if not mismatch else 'DIFFER'} across parallelism 1 vs 4",
        t0,
    )


CRITERIA = {
    1: criterion_1,
    2: criterion_2,
    3: criterion_3,
    4: criterion_4,
    5: criterion_5,
    6: criterion_6,
    7: criterion_7,
    8: criterion_8,
    9: criterion_9,
    10: criterion_10,
}


def run_criteria(numbers=None, tolerance_scale: float = 1.0) -> list[CriterionResult]:
    numbers = sorted(CRITERIA) if numbers is None else sorted(numbers)
    results = []
    for k in numbers:
        if k not in CRITERIA:
            raise ValueError(f"unknown criterion {k}; valid: {sorted(CRITERIA)}")
        results.append(CRITERIA[k](tolerance_scale))
    return results
