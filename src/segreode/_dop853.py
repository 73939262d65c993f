"""The DOP853 step loop (Dormand-Prince 8(5,3); Hairer, Norsett & Wanner,
*Solving ODEs I*, sec. II.5), on numpy alone.

Adapted from SciPy's ``scipy/integrate/_ivp/rk.py`` and ``common.py``,
Copyright (c) 2001-2002 Enthought, Inc. 2003, SciPy Developers, under the
BSD-3-Clause license.  It repeats ``solve_ivp(..., method="DOP853")`` step
for step, every numpy operation on the same dtypes, shapes and layouts, so
the final state and the evaluation count agree with it bit for bit.  It
keeps only what ``monodromy.numeric_monodromy`` uses: a forward integration
to one end point with rtol = atol = tol, and no dense output, evaluation
points, events, step bounds or vectorized right-hand side.
"""

from __future__ import annotations

import numpy as np

# Step-size control: a safety factor on the asymptotic step estimate and the
# least and greatest factor by which one step may change the next.
SAFETY = 0.9
MIN_FACTOR = 0.2
MAX_FACTOR = 10

# The error estimator has order 7, so the step scales as error^(-1/8).
ERROR_EXPONENT = -1 / (7 + 1)

# SciPy raises a relative tolerance below 100 eps to this floor.
RTOL_FLOOR = 100 * np.finfo(float).eps

N_STAGES = 12

C = np.array([0.0,
              0.526001519587677318785587544488e-01,
              0.789002279381515978178381316732e-01,
              0.118350341907227396726757197510,
              0.281649658092772603273242802490,
              0.333333333333333333333333333333,
              0.25,
              0.307692307692307692307692307692,
              0.651282051282051282051282051282,
              0.6,
              0.857142857142857142857142857142,
              1.0])

# Nonzero entries of the Butcher matrix by row; row 12 holds the weights B.
_A_ROWS = {
    1: {0: 5.26001519587677318785587544488e-2},
    2: {0: 1.97250569845378994544595329183e-2,
        1: 5.91751709536136983633785987549e-2},
    3: {0: 2.95875854768068491816892993775e-2,
        2: 8.87627564304205475450678981324e-2},
    4: {0: 2.41365134159266685502369798665e-1,
        2: -8.84549479328286085344864962717e-1,
        3: 9.24834003261792003115737966543e-1},
    5: {0: 3.7037037037037037037037037037e-2,
        3: 1.70828608729473871279604482173e-1,
        4: 1.25467687566822425016691814123e-1},
    6: {0: 3.7109375e-2, 3: 1.70252211019544039314978060272e-1,
        4: 6.02165389804559606850219397283e-2, 5: -1.7578125e-2},
    7: {0: 3.70920001185047927108779319836e-2,
        3: 1.70383925712239993810214054705e-1,
        4: 1.07262030446373284651809199168e-1,
        5: -1.53194377486244017527936158236e-2,
        6: 8.27378916381402288758473766002e-3},
    8: {0: 6.24110958716075717114429577812e-1,
        3: -3.36089262944694129406857109825,
        4: -8.68219346841726006818189891453e-1,
        5: 2.75920996994467083049415600797e1,
        6: 2.01540675504778934086186788979e1,
        7: -4.34898841810699588477366255144e1},
    9: {0: 4.77662536438264365890433908527e-1,
        3: -2.48811461997166764192642586468,
        4: -5.90290826836842996371446475743e-1,
        5: 2.12300514481811942347288949897e1,
        6: 1.52792336328824235832596922938e1,
        7: -3.32882109689848629194453265587e1,
        8: -2.03312017085086261358222928593e-2},
    10: {0: -9.3714243008598732571704021658e-1,
         3: 5.18637242884406370830023853209,
         4: 1.09143734899672957818500254654,
         5: -8.14978701074692612513997267357,
         6: -1.85200656599969598641566180701e1,
         7: 2.27394870993505042818970056734e1,
         8: 2.49360555267965238987089396762,
         9: -3.0467644718982195003823669022},
    11: {0: 2.27331014751653820792359768449,
         3: -1.05344954667372501984066689879e1,
         4: -2.00087205822486249909675718444,
         5: -1.79589318631187989172765950534e1,
         6: 2.79488845294199600508499808837e1,
         7: -2.85899827713502369474065508674,
         8: -8.87285693353062954433549289258,
         9: 1.23605671757943030647266201528e1,
         10: 6.43392746015763530355970484046e-1},
    12: {0: 5.42937341165687622380535766363e-2,
         5: 4.45031289275240888144113950566,
         6: 1.89151789931450038304281599044,
         7: -5.8012039600105847814672114227,
         8: 3.1116436695781989440891606237e-1,
         9: -1.52160949662516078556178806805e-1,
         10: 2.01365400804030348374776537501e-1,
         11: 4.47106157277725905176885569043e-2},
}


def _butcher():
    table = np.zeros((N_STAGES + 1, N_STAGES))
    for row, entries in _A_ROWS.items():
        for col, value in entries.items():
            table[row, col] = value
    return table[:N_STAGES], table[N_STAGES]


A, B = _butcher()

# The 3rd- and 5th-order error estimators; E3 is B minus the 3rd-order weights.
E3 = np.zeros(N_STAGES + 1)
E3[:-1] = B
E3[0] -= 0.244094488188976377952755905512
E3[8] -= 0.733846688281611857341361741547
E3[11] -= 0.220588235294117647058823529412e-1

E5 = np.zeros(N_STAGES + 1)
E5[0] = 0.1312004499419488073250102996e-1
E5[5] = -0.1225156446376204440720569753e+1
E5[6] = -0.4957589496572501915214079952
E5[7] = 0.1664377182454986536961530415e+1
E5[8] = -0.3503288487499736816886487290
E5[9] = 0.3341791187130174790297318841
E5[10] = 0.8192320648511571246570742613e-1
E5[11] = -0.2235530786388629525884427845e-1


def _rms(x):
    return np.linalg.norm(x) / x.size ** 0.5


def _initial_step(fun, t0, y0, f0, t_end, rtol, atol):
    """The starting step of Hairer, Norsett & Wanner, sec. II.4."""
    interval_length = abs(t_end - t0)
    scale = atol + np.abs(y0) * rtol
    d0 = _rms(y0 / scale)
    d1 = _rms(f0 / scale)
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, interval_length)
    f1 = fun(t0 + h0, y0 + h0 * f0)
    d2 = _rms((f1 - f0) / scale) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1 / (7 + 1))
    return min(100 * h0, h1, interval_length)


def _rk_step(fun, t, y, f, h, K):
    """One step of the 8th-order formula; K receives the 13 stages."""
    K[0] = f
    for s in range(1, N_STAGES):
        dy = np.dot(K[:s].T, A[s, :s]) * h
        K[s] = fun(t + C[s] * h, y + dy)
    y_new = y + h * np.dot(K[:-1].T, B)
    f_new = fun(t + h, y_new)
    K[-1] = f_new
    return y_new, f_new


def _error_norm(K, h, scale):
    """The combined 5th/3rd-order error estimate, scaled to the tolerance."""
    err5 = np.dot(K.T, E5) / scale
    err3 = np.dot(K.T, E3) / scale
    err5_norm_2 = np.linalg.norm(err5) ** 2
    err3_norm_2 = np.linalg.norm(err3) ** 2
    if err5_norm_2 == 0 and err3_norm_2 == 0:
        return 0.0
    denom = err5_norm_2 + 0.01 * err3_norm_2
    return np.abs(h) * err5_norm_2 / np.sqrt(denom * len(scale))


def dop853(fun, t0: float, t_end: float, y0: np.ndarray, tol: float):
    """Integrate y' = fun(t, y) from t0 to t_end > t0 with adaptive DOP853
    steps at rtol = atol = tol, rtol raised to RTOL_FLOOR as SciPy does.

    ``fun`` returns an array of y0's shape and dtype.  Returns the state at
    t_end and the number of ``fun`` evaluations.  Raises RuntimeError when
    the step size falls below the spacing of floats at t, where
    ``solve_ivp`` stops with ``success == False``, and when it is NaN (a
    non-finite ``fun`` at t0), where ``solve_ivp`` never returns.
    """
    nfev = 0

    def counted(t, y):
        nonlocal nfev
        nfev += 1
        return fun(t, y)

    rtol = max(tol, RTOL_FLOOR)
    atol = tol
    t, y = t0, y0
    f = counted(t, y)
    h_abs = _initial_step(counted, t, y, f, t_end, rtol, atol)
    # a slice of SciPy's extended stage array, so the stage rows lie alike
    K = np.empty((16, y.size), dtype=y.dtype)[:N_STAGES + 1]
    while t < t_end:
        min_step = 10 * np.abs(np.nextafter(t, np.inf) - t)
        if h_abs < min_step:
            h_abs = min_step
        rejected = False
        while True:
            # also stops a NaN step, on which solve_ivp loops forever
            if not h_abs >= min_step:
                raise RuntimeError(
                    f"required step size {h_abs} at t = {t} is less than "
                    "the spacing between numbers")
            t_new = min(t + h_abs, t_end)
            h = t_new - t
            h_abs = np.abs(h)
            y_new, f_new = _rk_step(counted, t, y, f, h, K)
            scale = atol + np.maximum(np.abs(y), np.abs(y_new)) * rtol
            error_norm = _error_norm(K, h, scale)
            if error_norm < 1:
                if error_norm == 0:
                    factor = MAX_FACTOR
                else:
                    factor = min(MAX_FACTOR,
                                 SAFETY * error_norm ** ERROR_EXPONENT)
                if rejected:
                    factor = min(1, factor)
                h_abs *= factor
                break
            h_abs *= max(MIN_FACTOR, SAFETY * error_norm ** ERROR_EXPONENT)
            rejected = True
        t, y, f = t_new, y_new, f_new
    return y, nfev
