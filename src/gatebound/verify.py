"""One-shot acceptance harness.

Each criterion below reruns one study of the package end-to-end and
returns a single normalised worst-case value with its frozen tolerance; a
criterion passes when ``value <= tolerance``, which ``CriterionResult``
decides.  :func:`run_criteria` times each criterion and multiplies its
tolerance by ``tolerance_scale`` (the CLI's ``--tolerance-scale``); a scale
< 1 tightens every check uniformly, which is how controlled failures are
injected.  Criterion 10 checks the infrastructure itself: sweep output
must be byte-identical across parallelism settings.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace

import numpy as np

from . import collision, gate, heuristic, pulses
from .envelopes import raised_cosine

PI = math.pi


@dataclass(frozen=True)
class CriterionResult:
    """One criterion's worst-case value against its tolerance; it passes when value <= tolerance."""

    criterion: str
    value: float
    tolerance: float
    detail: str
    runtime_s: float = 0.0

    @property
    def passed(self) -> bool:
        return self.value <= self.tolerance

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


def _result(name, parts, tolerance, detail) -> CriterionResult:
    return CriterionResult(criterion=name, value=max(parts), tolerance=tolerance, detail=detail)


def criterion_1() -> CriterionResult:
    """Always-on counterexample reaches p < 1e-10 for n = 1..6 at T = pi/(g n)."""
    ps = [gate.counterexample_always_on(n, 1.0).failure_probability
          for n in range(1, 7)]
    return _result("criterion-1-counterexample", ps, 1e-10,
                   f"max p = {max(ps):.3e} over n=1..6")


def criterion_2() -> CriterionResult:
    """Perturbative estimate tracks the exact p; exact p tracks the oracle."""
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
    return _result("criterion-2-perturbative-vs-exact", parts, 1.0, "; ".join(details))


def criterion_3() -> CriterionResult:
    """p_exact * |alpha|^2 stays constant within 20% across alpha = 4, 8, 16."""
    products = []
    for alpha in (4.0, 8.0, 16.0):
        drive = gate.pi_phase_drive(raised_cosine(1.0), alpha)
        scenario = gate.coherent_drive_scenario(alpha, drive)
        p = gate.failure_probability_exact(scenario, 1e-8).failure_probability
        products.append(p * alpha * alpha)
    ratios = [products[i + 1] / products[i] for i in range(len(products) - 1)]
    parts = [abs(r - 1.0) for r in ratios]
    return _result("criterion-3-scaling-probe", parts, 0.2,
                   f"p*|a|^2 = {[f'{x:.4f}' for x in products]}")


def criterion_4() -> CriterionResult:
    """Photon-number bound: value, universality over random pulses, tightness.

    Universality is screened on 1000 random feasible pulses of 1-3 modes at
    eps = 0.01 in one call to :func:`pulses.random_feasible_ratios`, which
    draws them in one batch and scores them as (pulses x 3) arrays with the
    modes past each pulse's count zeroed; none may beat the bound.
    """
    epsilon = 0.01
    mpn = pulses.min_photon_number(epsilon)
    part_value = abs(mpn - 246.74011002723395) / 0.01

    rng = np.random.default_rng(np.random.SeedSequence([20260809, 4]))
    min_ratio = float(np.min(pulses.random_feasible_ratios(rng, epsilon, 1000)))
    part_universal = (1.0 - min_ratio) / 1e-6

    eq = pulses.single_mode_equality_pulse(epsilon)
    eq_ratio = pulses.energy_bound_check(eq, epsilon).ratio
    part_tight = (eq_ratio - 1.0) / 1e-4

    return _result(
        "criterion-4-photon-bound",
        [part_value, part_universal, part_tight], 1.0,
        f"min_photon={mpn:.5f}, min_ratio={min_ratio:.9f}, equality_ratio={eq_ratio:.6f}",
    )


def criterion_5() -> CriterionResult:
    """p = 1 closed form against the panel integral; p = 2 bound exactly 4x.

    At p = 1 a pulse's coefficient is the closed-form window integral.  The
    Gauss-Legendre panel integral that every p > 1 coefficient runs, taken
    at p = 1, is an independent route to it: the phase and error of the two
    must agree to 1e-12.
    """
    omega, g, window, epsilon = 1.3, 0.4 + 0.1j, (0.0, 1.0), 0.05
    alpha = 2.0 - 0.5j
    modes, envelope = ((omega, g, alpha),), raised_cosine(1.0)
    linear_report = pulses.energy_bound_check(pulses.PulseSpec(modes, window), epsilon)
    panel = complex(pulses._power_coefficients(1, envelope, window, [omega], [g])[0])
    diffs = [
        abs(linear_report.phase - 2.0 * (panel * alpha).real),
        abs(linear_report.error - abs(panel) ** 2),
    ]
    part_consistency = max(diffs) / 1e-12

    report2 = pulses.energy_bound_check(pulses.PulseSpec(modes, window, 2, envelope), epsilon)
    ratio = report2.bound / linear_report.bound
    part_factor = abs(ratio - 4.0) / (4.0 * 1e-12)

    return _result(
        "criterion-5-nonlinear-reduction",
        [part_consistency, part_factor], 1.0,
        f"max path diff = {max(diffs):.2e}, bound ratio = {ratio!r}",
    )


def criterion_6() -> CriterionResult:
    """Squeezing optimum at eps = 1e-4: r* and E_min, and the energy evaluated at r*."""
    epsilon = 1e-4
    r_star, e_min = pulses.optimize_squeezing(epsilon, omega=1.0)
    e_at_r_star = pulses.squeezed_energy(r_star, epsilon, 1.0)
    parts = [
        abs(r_star - 2.302585092994046) / 1e-6,
        abs(e_min - 200.0) / 1e-6,
        abs(e_at_r_star - e_min) / (1e-12 * e_min),
    ]
    return _result(
        "criterion-6-squeezing-optimum", parts, 1.0,
        f"r*={r_star:.9f}, E_min={e_min:.9f} hbar*omega, "
        f"|E(r*)-E_min|={abs(e_at_r_star - e_min):.2e}",
    )


def criterion_7() -> CriterionResult:
    """Free-collision chain: log-derivative, optimal wavepacket, 27-point grid."""
    worst_logderiv = 0.0
    for n in (1.5, 2.0, 3.0, 4.0, 6.0):
        analytic, numeric = collision.powerlaw_log_derivative_pair(n, 2.0)
        worst_logderiv = max(worst_logderiv, abs(numeric - analytic) / abs(analytic))
    part_logderiv = worst_logderiv / 1e-6

    m_, T_ = 1.7, 2.3
    wp = collision.optimal_wavepacket(m_, T_)
    objective = collision.wavepacket_objective(m_, T_, wp.dx0_sq, wp.dp0_sq)
    part_objective = abs(objective - T_ / (2.0 * m_)) / 1e-12

    reports = [collision.free_energy_bound(collision.free_chain(collision.FreeCollisionConfig(
        m=m, v=v, b=b, T=4.0 * b / v, potential=collision.PotentialLaw(2.0))), 0.5)
        for m in (20.0, 40.0, 80.0) for v in (1.0, 2.0, 4.0) for b in (2.0, 4.0, 8.0)]
    checked = [r for r in reports if r.error_within_epsilon]
    failures = sum(not r.satisfied for r in checked)
    part_grid = 2.0 if failures else 0.0

    return _result(
        "criterion-7-free-collision", [part_logderiv, part_objective, part_grid], 1.0,
        f"logderiv worst rel = {worst_logderiv:.2e}, objective diff = "
        f"{abs(objective - T_ / (2 * m_)):.2e}, grid {len(checked) - failures}/{len(checked)} ok",
    )


def criterion_8() -> CriterionResult:
    """Harmonic chain: dipole limit, sin-symmetry, return-mismatch linearity."""
    cfg = collision.HarmonicCollisionConfig(m=1.0, omega=1.0, A=100.0, b=30.0,
                                            potential=collision.PotentialLaw(3.0))
    limit = collision.dipole_leading_ratio(cfg)
    part_dipole = abs(limit - 2.5) / 0.01

    hv = collision.error_variance_harmonic(cfg)
    cfg = hv.cfg
    sin_ratio = abs(hv.sin_integral) / abs(hv.cos_integral)
    part_sin = sin_ratio / 1e-9

    norm_full = collision.mismatch_norm(hv.mismatch, cfg)
    half = replace(cfg, potential=cfg.potential.scaled(0.5))
    norm_half = collision.mismatch_norm(collision.classical_return_mismatch(half), half)
    threshold = 1e3 * collision.RETURN_RTOL * cfg.A
    part_nonzero = threshold / norm_full
    part_halving = abs(norm_full / norm_half - 2.0) / 0.1

    return _result(
        "criterion-8-harmonic-collision",
        [part_dipole, part_sin, part_nonzero, part_halving], 1.0,
        f"b*R limit = {limit:.6f}, sin/cos = {sin_ratio:.1e}, "
        f"|mismatch| = {norm_full:.3e}, halving ratio = {norm_full / norm_half:.4f}",
    )


def criterion_9() -> CriterionResult:
    """Heuristic estimate: optimal mis-overlap, equality case, collision cross-check."""
    cfg = heuristic.HeuristicConfig(m=1.3, L=0.9, T=1.7)
    mis = heuristic.misoverlap(cfg)
    mis_closed = heuristic.misoverlap_optimal(cfg)
    part_mis = (abs(mis - mis_closed) / mis_closed) / 1e-9

    epsilon, L, T = 0.03, 1.2, 0.8
    m_eq = 2.0 * PI * PI * T / (epsilon * L * L)
    eq_cfg = heuristic.HeuristicConfig(m=m_eq, L=L, T=T)
    report = heuristic.heuristic_energy_bound(eq_cfg, epsilon)
    part_equality = (abs(report.energy - report.bound) / report.bound) / 1e-12

    cross = heuristic.collision_crosscheck(v=2.0, T=3.0, epsilon=0.05)
    ratio = cross["ratio"]
    part_cross = abs(math.log(ratio)) / math.log(5.0)

    return _result(
        "criterion-9-heuristic",
        [part_mis, part_equality, part_cross], 1.0,
        f"misoverlap rel diff = {abs(mis - mis_closed) / mis_closed:.2e}, "
        f"equality rel diff = {abs(report.energy - report.bound) / report.bound:.2e}, "
        f"cross-check ratio = {ratio:.3f}",
    )


def criterion_10() -> CriterionResult:
    """Sweep artifacts are byte-identical regardless of parallelism."""
    from .cli import sweep_rows_csv_bytes

    base = {"epsilon": 0.01, "omega": 1.0}
    values = [0.1, 0.03, 0.01, 0.003]
    serial = sweep_rows_csv_bytes("squeeze-opt", base, "epsilon", values, parallelism=1, seed=11)
    parallel = sweep_rows_csv_bytes("squeeze-opt", base, "epsilon", values, parallelism=4, seed=11)
    mismatch = 0.0 if serial == parallel else 1.0
    return _result(
        "criterion-10-infrastructure", [mismatch], 0.5,
        f"sweep bytes {'identical' if not mismatch else 'DIFFER'} across parallelism 1 vs 4",
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
    """Run the numbered criteria (all by default) in ascending order, each once.

    Each result carries its criterion's tolerance times ``tolerance_scale``
    and the criterion's wall time in ``runtime_s``.
    """
    numbers = sorted(CRITERIA) if numbers is None else sorted(set(numbers))
    results = []
    for k in numbers:
        if k not in CRITERIA:
            raise ValueError(f"unknown criterion {k}; valid: {sorted(CRITERIA)}")
        t0 = time.perf_counter()
        result = CRITERIA[k]()
        results.append(replace(result, tolerance=result.tolerance * tolerance_scale,
                               runtime_s=time.perf_counter() - t0))
    return results
