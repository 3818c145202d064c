"""The package's integrators: Gauss-Legendre panels with one doubling loop
(the drive integrals and the power-p reduction), adaptive Gauss-Kronrod
quadrature (the collision chains and the phase of a declared drive in
``fock.evolve``) and DOP853 (the return mismatch).  Each judges its own
convergence: a caller gets a value or an :class:`IntegrationError` with
diagnostics, never an estimate to check.
"""

from __future__ import annotations

import heapq
import math
from functools import lru_cache
from operator import mul
from typing import Callable

import numpy as np

from .errors import IntegrationError

# ---------------------------------------------------------------------------
# Gauss-Legendre panels
# ---------------------------------------------------------------------------

PANEL_NODES = 16    # Gauss-Legendre nodes per panel
MAX_PANELS = 256    # panels per drive segment before the drive integral gives up
PANEL_RTOL = 1e-12  # agreement of two successive panel levels that stops the doubling


# The nonnegative nodes and their weights, in the bits numpy.polynomial's
# leggauss(16) gives them (its nodes and weights are symmetric bit for bit).
_GL_NODES = (0.09501250983763744, 0.2816035507792589, 0.45801677765722737,
             0.6178762444026438, 0.755404408355003, 0.8656312023878318,
             0.9445750230732326, 0.9894009349916499)
_GL_WEIGHTS = (0.18945061045506864, 0.18260341504492364, 0.16915651939500265,
               0.1495959888165767, 0.12462897125553407, 0.0951585116824926,
               0.062253523938647456, 0.027152459411754176)


@lru_cache(maxsize=1)
def _panel_rule() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Nodes x, weights w and spectral integration matrix S on [-1, 1].

    S[j, k] = int_{-1}^{x_j} l_k, with l_k the Lagrange polynomial of node k,
    so S @ f integrates the node interpolant of f up to each node.  The
    Lagrange basis is expanded in Legendre polynomials through the rule's
    own discrete orthogonality, which is exact at this degree.
    """
    n = PANEL_NODES
    half = np.array(_GL_NODES)
    x = np.concatenate((-half[::-1], half))
    w = np.array(_GL_WEIGHTS[::-1] + _GL_WEIGHTS)
    P = np.empty((n, n + 1))  # P[j, m] = P_m(x_j), m = 0..n, by legvander's recurrence
    P[:, 0], P[:, 1] = 1.0, x
    for m in range(2, n + 1):
        P[:, m] = (P[:, m - 1] * x * (2 * m - 1) - P[:, m - 2] * (m - 1)) / m
    integrated = np.empty((n, n))               # int_{-1}^{x_j} P_m
    integrated[:, 0] = x + 1.0
    integrated[:, 1:] = (P[:, 2:] - P[:, :-2]) / (2.0 * np.arange(1, n) + 1.0)
    lagrange = (np.arange(n) + 0.5)[:, None] * P[:, :n].T * w  # l_k = sum_m lagrange[m, k] P_m
    return x, w, integrated @ lagrange


def panel_nodes(a: float, b: float, panels: int) -> tuple[np.ndarray, float]:
    """The rule's nodes on ``panels`` equal panels of [a, b], one row each, and h, half a panel."""
    x, _, _ = _panel_rule()
    h = (b - a) / (2.0 * panels)
    mids = a + h * (2.0 * np.arange(panels) + 1.0)
    return mids[:, None] + h * x, h


def converged_panels(level: Callable[[int], tuple],
                     misfit: Callable[[tuple, tuple], dict | None], *,
                     panels: int, max_panels: int, what: str) -> tuple:
    """The first of level(2n), level(4n), ... that agrees with the level before it (n = ``panels``).

    ``misfit(coarse, fine)`` is None when two successive levels agree, else
    the diagnostics of their disagreement.  A level on ``max_panels``
    panels that still disagrees raises :class:`IntegrationError`.
    """
    coarse = level(panels)
    while True:
        panels *= 2
        fine = level(panels)
        miss = misfit(coarse, fine)
        if miss is None:
            return fine
        if panels >= max_panels:
            raise IntegrationError(f"{what} did not converge", {"panels": panels, **miss})
        coarse = fine


# ---------------------------------------------------------------------------
# adaptive Gauss-Kronrod quadrature
# ---------------------------------------------------------------------------

# Gauss-Kronrod 7/15 rule on [-1, 1] (QUADPACK's qk15): the Kronrod nodes
# +-_XGK[j] with weights _WGK[j]; the odd-indexed nodes are the 7-point
# Gauss nodes, weighted by _WG[j // 2].
_XGK = (0.991455371120812639206854697526329, 0.949107912342758524526189684047851,
        0.864864423359769072789712788640926, 0.741531185599394439863864773280788,
        0.586087235467691130294144845693013, 0.405845151377397166906606412076961,
        0.207784955007898467600689403773245)
_WGK = (0.022935322010529224963732008058970, 0.063092092629978553290700663189204,
        0.104790010322250183839876322541518, 0.140653259715525918745189590510238,
        0.169004726639267902826583426598550, 0.190350578064785409913256402421014,
        0.204432940075298892414161999234649)
_WGK_CENTRE = 0.209482141084727828012999174891714
_WG = (0.129484966168869693270611432679082, 0.279705391489276667901467771423780,
       0.381830050505118944950369775488975)
_WG_CENTRE = 0.417959183673469387755102040816327


def _gk15(fn: Callable[[float], float], a: float, b: float) -> tuple[float, float]:
    """(Kronrod value, |Kronrod - Gauss|) of fn over [a, b]."""
    centre = 0.5 * (a + b)
    half = 0.5 * (b - a)
    fc = fn(centre)
    kronrod = _WGK_CENTRE * fc
    gauss = _WG_CENTRE * fc
    for j, x in enumerate(_XGK):
        dx = half * x
        pair = fn(centre - dx) + fn(centre + dx)
        kronrod += _WGK[j] * pair
        if j & 1:
            gauss += _WG[j >> 1] * pair
    return kronrod * half, abs((kronrod - gauss) * half)


def quad(fn: Callable[[float], float], a: float, b: float, *, epsabs: float,
         epsrel: float, limit: int = 50, points=()) -> float:
    """Adaptive Gauss-Kronrod quadrature of fn over [a, b], checked against its tolerance.

    Starts from the subintervals between the ``points`` breakpoints and
    bisects the one with the largest |K - G| until the summed estimate meets
    max(epsabs, epsrel |value|) or ``limit`` subintervals are in use.  The
    estimate is the plain |K - G| of each subinterval, with none of
    QUADPACK's heuristic rescaling and no extrapolation.  Raises
    :class:`IntegrationError` when the value is not finite or the estimate
    misses the tolerance, with the function, bounds, value, error
    estimate, tolerance and subintervals as diagnostics.
    """
    edges = [a, *sorted(points), b]
    heap = []
    for lo, hi in zip(edges, edges[1:]):
        val, err = _gk15(fn, lo, hi)
        heap.append((-err, lo, hi, val))
    heapq.heapify(heap)
    total = math.fsum(item[3] for item in heap)
    error = math.fsum(-item[0] for item in heap)
    while error > max(epsabs, epsrel * abs(total)) and len(heap) < limit:
        neg_err, lo, hi, val = heap[0]
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break  # the worst subinterval cannot be split in floating point
        v1, e1 = _gk15(fn, lo, mid)
        v2, e2 = _gk15(fn, mid, hi)
        heapq.heapreplace(heap, (-e1, lo, mid, v1))
        heapq.heappush(heap, (-e2, mid, hi, v2))
        total += v1 + v2 - val
        error += e1 + e2 + neg_err
    value = math.fsum(item[3] for item in heap)
    error = math.fsum(-item[0] for item in heap)
    tolerance = max(epsabs, epsrel * abs(value))
    if not (math.isfinite(value) and error <= tolerance):
        raise IntegrationError(
            "quadrature did not converge",
            {"function": getattr(fn, "__qualname__", repr(fn)), "bounds": (a, b), "value": value,
             "error_estimate": error, "tolerance": tolerance, "subintervals": len(heap)},
        )
    return value


# ---------------------------------------------------------------------------
# DOP853
# ---------------------------------------------------------------------------

# Dormand-Prince 8(5,3) tableau (Hairer, Norsett & Wanner, "Solving Ordinary
# Differential Equations I", sec. II.10), copied from SciPy's
# scipy/integrate/_ivp/dop853_coefficients.py (Copyright (c) 2001-2002
# Enthought, Inc., 2003 SciPy Developers; BSD-3-Clause license).  _DOP_A[s - 1]
# is the dense row of stage s over stages 0..s-1.
_DOP_C = (0.526001519587677318785587544488e-01, 0.789002279381515978178381316732e-01,
          0.118350341907227396726757197510, 0.281649658092772603273242802490,
          0.333333333333333333333333333333, 0.25, 0.307692307692307692307692307692,
          0.651282051282051282051282051282, 0.6, 0.857142857142857142857142857142, 1.0)
_DOP_A = (
    (5.26001519587677318785587544488e-2,),
    (1.97250569845378994544595329183e-2, 5.91751709536136983633785987549e-2),
    (2.95875854768068491816892993775e-2, 0.0, 8.87627564304205475450678981324e-2),
    (2.41365134159266685502369798665e-1, 0.0, -8.84549479328286085344864962717e-1,
     9.24834003261792003115737966543e-1),
    (3.7037037037037037037037037037e-2, 0.0, 0.0, 1.70828608729473871279604482173e-1,
     1.25467687566822425016691814123e-1),
    (3.7109375e-2, 0.0, 0.0, 1.70252211019544039314978060272e-1,
     6.02165389804559606850219397283e-2, -1.7578125e-2),
    (3.70920001185047927108779319836e-2, 0.0, 0.0, 1.70383925712239993810214054705e-1,
     1.07262030446373284651809199168e-1, -1.53194377486244017527936158236e-2,
     8.27378916381402288758473766002e-3),
    (6.24110958716075717114429577812e-1, 0.0, 0.0, -3.36089262944694129406857109825,
     -8.68219346841726006818189891453e-1, 2.75920996994467083049415600797e1,
     2.01540675504778934086186788979e1, -4.34898841810699588477366255144e1),
    (4.77662536438264365890433908527e-1, 0.0, 0.0, -2.48811461997166764192642586468,
     -5.90290826836842996371446475743e-1, 2.12300514481811942347288949897e1,
     1.52792336328824235832596922938e1, -3.32882109689848629194453265587e1,
     -2.03312017085086261358222928593e-2),
    (-9.3714243008598732571704021658e-1, 0.0, 0.0, 5.18637242884406370830023853209,
     1.09143734899672957818500254654, -8.14978701074692612513997267357,
     -1.85200656599969598641566180701e1, 2.27394870993505042818970056734e1,
     2.49360555267965238987089396762, -3.0467644718982195003823669022),
    (2.27331014751653820792359768449, 0.0, 0.0, -1.05344954667372501984066689879e1,
     -2.00087205822486249909675718444, -1.79589318631187989172765950534e1,
     2.79488845294199600508499808837e1, -2.85899827713502369474065508674,
     -8.87285693353062954433549289258, 1.23605671757943030647266201528e1,
     6.43392746015763530355970484046e-1),
)
_DOP_B = (5.42937341165687622380535766363e-2, 0.0, 0.0, 0.0, 0.0,
          4.45031289275240888144113950566, 1.89151789931450038304281599044,
          -5.8012039600105847814672114227, 3.1116436695781989440891606237e-1,
          -1.52160949662516078556178806805e-1, 2.01365400804030348374776537501e-1,
          4.47106157277725905176885569043e-2)
# the 3rd-order error weights are B minus these at stages 0, 8 and 11
_DOP_E3 = tuple(b - {0: 0.244094488188976377952755905512,
                     8: 0.733846688281611857341361741547,
                     11: 0.220588235294117647058823529412e-1}.get(j, 0.0)
                for j, b in enumerate(_DOP_B))
_DOP_E5 = (0.1312004499419488073250102996e-1, 0.0, 0.0, 0.0, 0.0,
           -0.1225156446376204440720569753e+1, -0.4957589496572501915214079952,
           0.1664377182454986536961530415e+1, -0.3503288487499736816886487290,
           0.3341791187130174790297318841, 0.8192320648511571246570742613e-1,
           -0.2235530786388629525884427845e-1)

MAX_ODE_STEPS = 10_000  # step attempts, accepted or rejected, of one DOP853 solve


def _rms(values: list[float]) -> float:
    return math.hypot(*values) / math.sqrt(len(values))


def _dop853(rhs: Callable[[float, list[float]], list[float]], t0: float, t1: float,
            y0: list[float], rtol: float, atol: list[float]) -> list[float]:
    """y(t1) for y' = rhs(t, y), y(t0) = y0 and t1 > t0, by DOP853 on lists of floats.

    The error norm, step controller and initial step are those of SciPy's
    ``solve_ivp(method="DOP853")``; ``atol`` holds one tolerance per
    component.  Raises :class:`IntegrationError` when the derivative at t0
    is not finite, and with the time reached when the step size underflows
    or ``MAX_ODE_STEPS`` attempts do not reach t1.
    """
    n = len(y0)
    y = list(y0)
    f = rhs(t0, y)
    if not all(map(math.isfinite, f)):
        raise IntegrationError(
            "DOP853 integration stopped: non-finite derivative",
            {"function": rhs.__qualname__, "t_reached": t0, "t_end": t1, "y": y,
             "derivative": list(f)},
        )
    # initial step for an error estimator of order 7 (Hairer et al., sec. II.4)
    scale = [a + abs(v) * rtol for a, v in zip(atol, y)]
    d0 = _rms([v / s for v, s in zip(y, scale)])
    d1 = _rms([d / s for d, s in zip(f, scale)])
    h0 = min(1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1, t1 - t0)
    f1 = rhs(t0 + h0, [v + h0 * d for v, d in zip(y, f)])
    d2 = _rms([(e - d) / s for d, e, s in zip(f, f1, scale)]) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** 0.125
    h_abs = min(100.0 * h0, h1, t1 - t0)

    t, attempts, error_norm = t0, 0, 0.0
    while t < t1:
        min_step = 10.0 * (math.nextafter(t, math.inf) - t)
        h_abs = max(h_abs, min_step)
        rejected = False
        while True:
            if h_abs < min_step or attempts == MAX_ODE_STEPS:
                reason = "step size underflow" if h_abs < min_step else "step cap reached"
                raise IntegrationError(
                    f"DOP853 integration stopped: {reason}",
                    {"function": rhs.__qualname__, "t_reached": t, "t_end": t1,
                     "step": h_abs, "attempts": attempts, "error_norm": error_norm,
                     "rtol": rtol, "atol": list(atol)},
                )
            attempts += 1
            t_new = min(t + h_abs, t1)
            h = t_new - t
            cols = [[d] for d in f]  # cols[i][s]: component i of stage s
            for c, row in zip(_DOP_C, _DOP_A):
                stage = rhs(t + c * h, [v + h * sum(map(mul, row, col))
                                        for v, col in zip(y, cols)])
                for col, k in zip(cols, stage):
                    col.append(k)
            y_new = [v + h * sum(map(mul, _DOP_B, col)) for v, col in zip(y, cols)]
            e5 = e3 = 0.0
            for a, v, w, col in zip(atol, y, y_new, cols):
                s = a + max(abs(v), abs(w)) * rtol
                r5 = sum(map(mul, _DOP_E5, col)) / s
                r3 = sum(map(mul, _DOP_E3, col)) / s
                e5 += r5 * r5  # x * x, unlike x ** 2, gives inf rather than OverflowError
                e3 += r3 * r3
            error_norm = h * e5 / math.sqrt((e5 + 0.01 * e3) * n) if e5 else 0.0
            if error_norm < 1.0:
                factor = 10.0 if error_norm == 0.0 else min(10.0, 0.9 * error_norm ** -0.125)
                h_abs = h * (min(1.0, factor) if rejected else factor)
                break
            h_abs = h * max(0.2, 0.9 * error_norm ** -0.125)
            rejected = True
        t, y, f = t_new, y_new, rhs(t_new, y_new)
    return y
