"""Special functions against multiprecision and quadrature oracles."""

import cmath
import math
import operator

import mpmath
import numpy as np
import pytest

from lderiv import lfunc as lf
from lderiv import special as sp
from lderiv.errors import DomainError, PoleError, PrecisionLossError
from tests.conftest import (
    digamma_lower_bound_margin,
    hurwitz_zeta_cauchy_ds,
    lattice_points,
    log_abs_cos_mean_quad,
    mp_L_at_one,
    mp_L_pair,
)

mpmath.mp.dps = 30

GAMMA = sp.EULER_GAMMA


# ----------------------------------------------------------------------
# digamma

def test_digamma_classical_values():
    assert abs(sp.digamma(1).value - (-GAMMA)) < 1e-13
    assert abs(sp.digamma(2).value - (1 - GAMMA)) < 1e-13
    assert abs(sp.digamma(0.5).value - (-2 * math.log(2) - GAMMA)) < 1e-13


@pytest.mark.parametrize(
    "z",
    [
        0.3, 2.7, 9.9, 123.0, 1e4,
        0.25 + 1j, -3 + 0.1j, 2 + 5j, -7.3 - 3.2j, -0.5 + 77j,
        -49.7 + 0.01j, 1e4 + 77j, 3.5 - 1e3j,
    ],
)
def test_digamma_vs_multiprecision(z):
    ours = sp.digamma(z).value
    ref = complex(mpmath.psi(0, mpmath.mpc(z)))
    assert abs(ours - ref) < 1e-12 * (1 + abs(ref))


def test_digamma_reflection_identity():
    for z in lattice_points(25, (-6.0, 6.0), (0.05, 4.0)):
        lhs = sp.digamma(1 - z).value - sp.digamma(z).value
        rhs = math.pi / cmath.tan(math.pi * z)
        assert abs(lhs - rhs) < 1e-10 * (1 + abs(rhs))


def test_digamma_recurrence_identity():
    for z in lattice_points(25, (0.2, 8.0), (-3.0, 3.0)):
        lhs = sp.digamma(z + 1).value
        rhs = sp.digamma(z).value + 1.0 / z
        assert abs(lhs - rhs) < 1e-10 * (1 + abs(rhs))


def test_digamma_monotone_in_imaginary_part():
    for x in (0.25, 1.0, 2.0, 5.0):
        base = sp.digamma(x).value.real
        for y in (0.1, 0.5, 1.0, 3.0, 10.0):
            assert sp.digamma(complex(x, y)).value.real >= base - 1e-12


def test_digamma_poles():
    for z in (0, -1, -7):
        with pytest.raises(PoleError):
            sp.digamma(z)


def test_digamma_lower_bound_check():
    for z in (0.25 + 1j, -3 + 0.1j, 2 + 5j):
        assert digamma_lower_bound_margin(z) > 0, z
    # Re psi is within 0.2 of log|z| at 2+5i (both our route and mpmath)
    z = 2 + 5j
    ref = complex(mpmath.psi(0, mpmath.mpc(z))).real
    assert abs(ref - math.log(abs(z))) < 0.2
    assert abs(sp.digamma(z).value.real - math.log(abs(z))) < 0.2
    with pytest.raises(DomainError):
        digamma_lower_bound_margin(3.0)


def test_log_gamma_vs_multiprecision():
    for z in (0.5, 3.7, 12 + 9j, -4.5 + 2j, 0.25 - 40j, 80.5 + 100j):
        ours = sp.log_gamma(z)
        ref = complex(mpmath.loggamma(mpmath.mpc(z)))
        assert abs(ours - ref) < 1e-11 * (1 + abs(ref))


# ----------------------------------------------------------------------
# Hurwitz zeta

def test_hurwitz_classical_values():
    assert abs(sp.hurwitz_zeta(2, 1).value - math.pi**2 / 6) < 1e-12
    assert abs(sp.hurwitz_zeta(-1, 1).value - (-1 / 12)) < 1e-12


def test_hurwitz_vs_multiprecision_oracle():
    cases = [
        (0.5 + 14.13j, 0.2),
        (2 + 3j, 2 / 7),
        (-1.5 + 0.3j, 0.9),
        (3.0, 1 / 3),
        (-5.5 + 3j, 0.37),
        (0.01 + 40j, 1.0),
        (1.5 - 22j, 0.04),
    ]
    for s, a in cases:
        ours = sp.hurwitz_zeta(s, a)
        ref = complex(mpmath.zeta(mpmath.mpc(s), a))
        assert abs(ours.value - ref) < 1e-10 * (1 + abs(ref)), (s, a)
        assert abs(ours.value - ref) < 10 * ours.err + 1e-13 * (1 + abs(ref))


def test_hurwitz_pole_and_domain():
    with pytest.raises(PoleError):
        sp.hurwitz_zeta(1.0, 0.5)
    with pytest.raises(DomainError):
        sp.hurwitz_zeta(2.0, 1.5)
    with pytest.raises(DomainError):
        sp.hurwitz_zeta(2.0, 0.0)


def test_hurwitz_beyond_the_correction_cap_raises_precision_loss():
    # sigma < -115 needs K > 59 Bernoulli corrections
    with pytest.raises(PrecisionLossError):
        sp._choose_em_params(-120 + 1j, 0.5, 1e-13)
    with pytest.raises(PrecisionLossError):
        sp.hurwitz_zeta(-120 + 1j, 0.5)
    with pytest.raises(PrecisionLossError):
        sp.hurwitz_zeta_ds(-120 + 1j, 0.5)


def test_hurwitz_ds_classical_value():
    # zeta'(0) = -log(2 pi)/2
    assert abs(sp.hurwitz_zeta_ds(0, 1).value - (-0.5 * math.log(2 * math.pi))) < 1e-12


def test_hurwitz_ds_vs_cauchy_circle():
    for s, a in [(2 + 3j, 2 / 7), (0.5 + 5j, 0.6), (3.5, 0.11)]:
        em = sp.hurwitz_zeta_ds(s, a).value
        cc = hurwitz_zeta_cauchy_ds(s, a)
        assert abs(em - cc) < 1e-9 * (1 + abs(em)), (s, a)


def test_hurwitz_ds_vs_finite_differences():
    s, a, h = 3.0, 1 / 3, 1e-5
    fd = (sp.hurwitz_zeta(s + h, a).value - sp.hurwitz_zeta(s - h, a).value) / (2 * h)
    assert abs(sp.hurwitz_zeta_ds(s, a).value - fd) < 1e-6


def test_hurwitz_ds_vs_multiprecision():
    for s, a in [(2 + 3j, 2 / 7), (-1.5 + 1j, 0.5)]:
        ours = sp.hurwitz_zeta_ds(s, a).value
        ref = complex(mpmath.zeta(mpmath.mpc(s), a, 1))
        assert abs(ours - ref) < 1e-9 * (1 + abs(ref))


def test_hurwitz_cauchy_rejects_circle_through_pole():
    with pytest.raises(DomainError):
        hurwitz_zeta_cauchy_ds(1.2, 0.5)


# Euler-Maclaurin (N, K) policy: reference copy of the per-pair loop it
# replaced, kept verbatim so the shared prefix sum is held to its bits.

def _ref_em_remainder(s, n_terms, K, x_min):
    sigma = s.real
    if sigma + 2 * K + 1 <= 0:
        return math.inf
    log_poch = 0.0
    for i in range(2 * K + 1):
        f = abs(s + i)
        if f == 0.0:
            return 0.0
        log_poch += math.log(f)
    log_r = (
        math.log(abs(sp._em_coef(K + 1)))
        + log_poch
        + (-sigma - 2 * K - 1) * math.log(x_min)
        + math.log(max(1.0, abs(s + 2 * K + 1) / (sigma + 2 * K + 1)))
    )
    return math.exp(log_r) if log_r < 700 else math.inf


def _ref_choose_em_params(s, a_min, tol):
    _EPS = 2.0 ** -52
    sigma, t = s.real, abs(s.imag)
    k_min = max(6, math.ceil((3.0 - sigma) / 2.0))
    n_base = max(1, math.ceil(1.3 * t))
    if sigma >= 0:
        n_cands = sorted({max(20, n_base), max(36, n_base), max(64, 2 * n_base), max(110, 2 * n_base)})
    else:
        n_cands = sorted({max(2, n_base), max(4, n_base), max(6, n_base), max(8, n_base),
                          max(12, n_base), max(16, n_base), max(24, n_base),
                          max(32, n_base), max(64, 2 * n_base)})
    best_feasible = None
    best_any = None
    for K in (k_min, k_min + 6, k_min + 14, k_min + 24):
        if K > 59:
            continue
        for N in n_cands:
            x_min = N + a_min
            rem = _ref_em_remainder(s, N, K, x_min)
            # rounding ~ eps * (number of terms) * (largest term magnitude)
            peak = x_min ** (-sigma) if sigma < 0 else 1.0
            rnd = 8 * _EPS * (N + K + 4) * max(1.0, peak)
            if rem <= tol and (best_feasible is None or rnd < best_feasible[2]):
                best_feasible = (N, K, rnd)
            if best_any is None or rem + rnd < best_any[2]:
                best_any = (N, K, rem + rnd)
    return best_feasible if best_feasible is not None else best_any


_A_MINS = (1 / 229, 1 / 49, 1 / 7, 1 / 5, 1.0)
_TOLS = (1e-13, 1e-15, 1e-9)


def test_em_policy_matches_reference_bit_for_bit():
    pts = lattice_points(2000, (-80.0, 80.0), (-101.0, 101.0))
    # the Pochhammer product vanishes at s = 0, -1, ..., -60
    pts += [complex(-n) for n in range(61)] + [complex(-n - 0.5) for n in range(60)]
    for idx, s in enumerate(pts):
        tol = _TOLS[idx % len(_TOLS)]
        for a_min in _A_MINS:
            N, K, rem = sp._choose_em_params(s, a_min, tol)
            rN, rK, _ = _ref_choose_em_params(s, a_min, tol)
            assert (N, K) == (rN, rK), (s, a_min, tol)
            ref = _ref_em_remainder(s, N, K, N + a_min)
            assert repr(rem) == repr(ref), (s, a_min, tol)
            got = sp._em_bound(next(sp._em_log_parts(s, (K,))), math.log(N + a_min))
            assert repr(got) == repr(ref)


def test_em_policy_stopping_early_keeps_the_reference_choice():
    # the policy stops at the first K whose smallest rounding estimate cannot
    # beat the best feasible pair; (N, K, rem) must stay the full search's,
    # also past the K <= 59 cap (sigma < -115), where both give up
    pts = lattice_points(3000, (-116.0, 82.0), (-101.0, 101.0))
    pts += [complex(n) for n in range(-116, 83)] + [complex(n / 7) for n in range(-812, 575, 11)]
    tols = (1e-9, 1e-11, 1e-13, 1e-15)
    for idx, s in enumerate(pts):
        tol = tols[idx % len(tols)]
        a_min = _A_MINS[(idx // len(tols)) % len(_A_MINS)]
        ref = _ref_choose_em_params(s, a_min, tol)
        if ref is None:
            with pytest.raises(PrecisionLossError):
                sp._choose_em_params(s, a_min, tol)
            continue
        N, K, rem = sp._choose_em_params(s, a_min, tol)
        assert (N, K) == ref[:2], (s, a_min, tol)
        assert repr(rem) == repr(_ref_em_remainder(s, N, K, N + a_min)), (s, a_min, tol)


def test_em_remainder_matches_reference_at_the_edges():
    # sigma + 2K + 1 <= 0 for small K, and Pochhammer zeros inside 2K + 1
    pts = [complex(-n) for n in range(61)] + [-20.5 + 3j, -40.0 + 0.25j, -7.5 - 1e-9j]
    for s in pts:
        for K in range(60):
            for x_min in (1.0 + 1 / 229, 24.2, 4000.5):
                got = sp._em_bound(next(sp._em_log_parts(s, (K,))), math.log(x_min))
                assert repr(got) == repr(_ref_em_remainder(s, 0, K, x_min)), (s, K, x_min)


def test_hurwitz_core_returns_the_chosen_pairs_remainder():
    for s in lattice_points(60, (-80.0, 80.0), (-101.0, 101.0)) + [0j, -3 + 0j]:
        a = np.array([1 / 7, 3 / 7, 1.0])
        N, K, _ = sp._choose_em_params(s, 1 / 7, 1e-13)
        *_, rem = sp._hurwitz_core(s, a, False, 1e-13)
        assert rem == sp._em_bound(next(sp._em_log_parts(s, (K,))), math.log(N + 1 / 7)), s


# Euler-Maclaurin engine: verbatim copies of the scalar engine and of the
# former grid engine, kept as references: for the merged _em_eval, and for
# the zero oracle's candidates (tests/test_zeros.py).

def _ref_em_eval(s: complex, a: np.ndarray, N: int, K: int, want_ds: bool):
    """Euler-Maclaurin evaluation of zeta(s, a) (and d/ds) for an array of a.

    Returns (vals, dvals, abs_accum) where abs_accum tracks the summed
    magnitudes for the rounding estimate; dvals is None unless want_ds.
    """
    a = np.asarray(a, dtype=float)
    x = N + a
    logx = np.log(x)
    if N > 0:
        base = np.arange(N)[None, :] + a[:, None]
        logb = np.log(base)
        terms = np.exp(-s * logb)
        psum = terms.sum(axis=1)
        absacc = np.abs(terms).sum(axis=1)
        dsum = -(logb * terms).sum(axis=1) if want_ds else None
    else:
        psum = np.zeros_like(a, dtype=complex)
        absacc = np.zeros_like(a)
        dsum = np.zeros_like(a, dtype=complex) if want_ds else None

    xp1ms = np.exp((1.0 - s) * logx)
    main1 = xp1ms / (s - 1.0)
    xpms = np.exp(-s * logx)
    main2 = 0.5 * xpms
    vals = psum + main1 + main2
    absacc = absacc + np.abs(main1) + np.abs(main2)
    if want_ds:
        dmain1 = xp1ms * (-logx / (s - 1.0) - 1.0 / (s - 1.0) ** 2)
        dmain2 = -0.5 * logx * xpms
        dvals = dsum + dmain1 + dmain2
    else:
        dvals = None

    # Bernoulli corrections: coef_j * (s)_{2j-1} * x^(-s-2j+1)
    P = s  # (s)_1
    dP = 1.0 + 0j
    xpow = np.exp((-s - 1.0) * logx)
    x2 = x * x
    for j in range(1, K + 1):
        c = sp._em_coef(j)
        term = c * P * xpow
        vals = vals + term
        absacc = absacc + np.abs(term)
        if want_ds:
            dvals = dvals + c * xpow * (dP - logx * P)
        u = s + (2 * j - 1)
        v = s + 2 * j
        dP = dP * (u * v) + P * (u + v)
        P = P * (u * v)
        xpow = xpow / x2
    return vals, dvals, absacc


def _ref_hurwitz_core(s: complex, a: np.ndarray, want_ds: bool, tol: float):
    """(vals, dvals, errs, errs_ds, rem): engine with per-point error estimates.

    errs combine the proven remainder bound with a conservative rounding
    term; rem is the remainder bound alone (what the (N, K) policy controls).
    """
    s = complex(s)
    if s == 1.0:
        raise PoleError("Hurwitz zeta pole at s = 1")
    a = np.atleast_1d(np.asarray(a, dtype=float))
    if np.any(a <= 0.0) or np.any(a > 1.0):
        raise DomainError("shift parameter a must lie in (0, 1]")
    N, K, rem = sp._choose_em_params(s, float(a.min()), tol)
    vals, dvals, absacc = _ref_em_eval(s, a, N, K, want_ds)
    # the sums' rounding and the phases' (the exponents w log x, |w| <= |s| + 1)
    rnd = 8 * sp._EPS + 2 * sp._EPS * (abs(s) + 1.0) * math.log(N + 2.0)
    errs = rem + rnd * absacc
    if want_ds:
        # differentiated series: remainder and rounding pick up roughly a log x factor
        errs_ds = rem * (math.log(N + 1.0) + 2.0 * (2 * K + 1)) + rnd * absacc * (
            math.log(N + 2.0) + 1.0
        )
        return vals, dvals, errs, errs_ds, rem
    return vals, None, errs, None, rem


def _ref_em_remainder_grid(sigma_min: float, s_abs_max: float, N: int, K: int, x_min: float) -> float:
    """Conservative remainder bound valid for every s in a grid chunk."""
    if sigma_min + 2 * K + 1 <= 0:
        return math.inf
    log_poch = sum(math.log(i + s_abs_max) for i in range(2 * K + 1))
    log_r = (
        math.log(abs(sp._em_coef(K + 1)))
        + log_poch
        + (-sigma_min - 2 * K - 1) * math.log(x_min)
        + math.log(max(1.0, (s_abs_max + 2 * K + 1) / (sigma_min + 2 * K + 1)))
    )
    return math.exp(log_r) if log_r < 700 else math.inf


def _ref_em_eval_grid(s: np.ndarray, a: np.ndarray, N: int, K: int, want_ds: bool):
    """Grid variant of _ref_em_eval: s of shape (C,), a of shape (A,).

    Returns (vals, dvals) of shape (C, A).  Used by the zero-scan grid
    evaluators, which only operate at sigma > 0, so no rounding blow-up.
    """
    s = np.asarray(s, dtype=complex)[:, None]
    a = np.asarray(a, dtype=float)[None, :]
    x = N + a
    logx = np.log(x)
    base = np.arange(N)[None, :] + a.T  # (A, N)
    logb = np.log(base)
    terms = np.exp(-s[:, :, None] * logb[None, :, :])  # (C, A, N)
    psum = terms.sum(axis=2)
    dsum = -(logb[None, :, :] * terms).sum(axis=2) if want_ds else None
    del terms

    xp1ms = np.exp((1.0 - s) * logx)
    main1 = xp1ms / (s - 1.0)
    xpms = np.exp(-s * logx)
    vals = psum + main1 + 0.5 * xpms
    if want_ds:
        dvals = dsum + xp1ms * (-logx / (s - 1.0) - (s - 1.0) ** -2) - 0.5 * logx * xpms
    else:
        dvals = None

    P = s.copy()
    dP = np.ones_like(s)
    xpow = np.exp((-s - 1.0) * logx)
    x2 = x * x
    for j in range(1, K + 1):
        c = sp._em_coef(j)
        vals = vals + c * P * xpow
        if want_ds:
            dvals = dvals + c * xpow * (dP - logx * P)
        u = s + (2 * j - 1)
        v = s + 2 * j
        dP = dP * (u * v) + P * (u + v)
        P = P * (u * v)
        xpow = xpow / x2
    return vals, dvals


def _ref_hurwitz_grid(s: np.ndarray, a: np.ndarray, want_ds: bool = False, tol: float = 1e-10):
    """Vectorized zeta(s, a) over a grid of s (all with Re s > 0) and a row of a.

    Returns (vals, dvals, err) with err one conservative scalar bound for
    the whole chunk.  Raises PrecisionLossError when N = 4000 terms cannot
    bring the remainder bound down to tol.
    """
    s = np.asarray(s, dtype=complex).ravel()
    a = np.asarray(a, dtype=float).ravel()
    sigma_min = float(s.real.min())
    if sigma_min <= 0.0:
        raise DomainError("hurwitz_grid serves only Re s > 0")
    if np.any(np.abs(s - 1.0) < 1e-12):
        raise PoleError("grid contains the pole s = 1")
    s_abs_max = float(np.abs(s).max())
    t_max = float(np.abs(s.imag).max())
    a_min = float(a.min())
    N = max(20, math.ceil(1.3 * t_max))
    K = 25
    x_min = N + a_min
    rem = _ref_em_remainder_grid(sigma_min, s_abs_max, N, K, x_min)
    while rem > tol and N < 4000:
        N = int(N * 1.6) + 4
        rem = _ref_em_remainder_grid(sigma_min, s_abs_max, N, K, N + a_min)
    if rem > tol:
        raise PrecisionLossError(f"hurwitz_grid: tol {tol} unreachable with N <= 4000", rem)
    vals, dvals = _ref_em_eval_grid(s, a, N, K, want_ds)
    rem_out = rem * (1.0 if not want_ds else math.log(N + 2.0) + 2 * (2 * K + 1))
    ref = np.abs(dvals if want_ds else vals)
    errs = rem_out + 16 * sp._EPS * (N + K) * (1.0 + ref)
    return vals, dvals, errs


def _rows():
    """The shifts a/q, gcd(a, q) = 1, of the characters mod 5, 7, 49, 229."""
    return [np.array([a for a in range(1, q) if math.gcd(a, q) == 1]) / q
            for q in (5, 7, 49, 229)]


def _same_bytes(x, y):
    if x is None or y is None:
        return x is None and y is None
    x, y = np.asarray(x), np.asarray(y)
    return x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()


# real, imaginary and integer points put signed zeros into the products
_EDGE_POINTS = [0j, -3 + 0j, 2 + 0j, 0.5j, -40.5 + 0j, 2 + 1j, 1 - 7j, -80 + 101j]


def test_hurwitz_core_matches_reference_engine_bit_for_bit():
    pts = lattice_points(390, (-80.0, 80.0), (-101.0, 101.0)) + _EDGE_POINTS
    for a in _rows():
        for s in pts:
            for want_ds in (False, True):
                got = sp._hurwitz_core(s, a, want_ds, 1e-13)
                ref = _ref_hurwitz_core(s, a, want_ds, 1e-13)
                assert all(_same_bytes(g, r) for g, r in zip(got, ref)), (s, len(a), want_ds)


def test_em_eval_batch_rows_equal_scalar_calls():
    S = np.array(lattice_points(40, (-80.0, 80.0), (-101.0, 101.0)) + _EDGE_POINTS)
    for a in _rows():
        for N, K in ((2, 6), (20, 25), (110, 59)):
            for want_ds in (False, True):
                vals, dvals, absacc = sp._em_eval(S, a, N, K, want_ds)
                assert vals.shape == absacc.shape == (len(S), len(a))
                for i, s in enumerate(S):
                    v, d, acc = sp._em_eval(complex(s), a, N, K, want_ds)
                    assert _same_bytes(vals[i], v) and _same_bytes(absacc[i], acc), (s, N, K)
                    assert _same_bytes(None if d is None else dvals[i], d), (s, N, K)


# the former correction loop, a verbatim copy (but for the names): the
# Pochhammer factors of a batch came from _ref_cmul on (C, 1) arrays

def _ref_cmul(z, w):
    """z * w on arrays, each real product rounded on its own as CPython
    multiplies two complex scalars.  NumPy's complex multiply may fuse a
    product into the add that follows it, which can move the last bit."""
    out = np.empty(np.broadcast(z, w).shape, dtype=complex)
    out.real = z.real * w.real - z.imag * w.imag
    out.imag = z.real * w.imag + z.imag * w.real
    return out


def _ref_batch_em_eval(s, a: np.ndarray, N: int, K: int, want_ds: bool):
    """Euler-Maclaurin evaluation of zeta(s, a) (and d/ds) for an array of a.

    s is one complex, giving results of shape (A,), or an array of shape
    (C,), giving results of shape (C, A) whose rows are bit for bit the
    scalar calls.  Returns (vals, dvals, absacc): dvals is None unless
    want_ds; absacc holds the summed magnitudes behind the rounding estimate.
    """
    batch = isinstance(s, np.ndarray)
    if batch:
        s = np.asarray(s, dtype=complex)[:, None]  # (C, 1) against a's (A,)
        s_n, mul = s[:, :, None], _ref_cmul  # (C, 1, 1) against the (A, N) summands
    else:
        s_n, mul = s, operator.mul
    a = np.asarray(a, dtype=float)
    x = N + a
    logx = np.log(x)
    logb = np.log(np.arange(N) + a[:, None])
    # in place, so that a grid holds one (C, A, N) array at a time: its memory peak
    terms = -s_n * logb
    np.exp(terms, out=terms)
    psum = terms.sum(axis=-1)
    absacc = np.abs(terms).sum(axis=-1)
    dsum = None
    if want_ds:
        terms *= logb
        dsum = -terms.sum(axis=-1)
    del terms

    xp1ms = np.exp((1.0 - s) * logx)
    main1 = xp1ms / (s - 1.0)
    xpms = np.exp(-s * logx)
    main2 = 0.5 * xpms
    vals = psum + main1 + main2
    absacc = absacc + np.abs(main1) + np.abs(main2)
    dvals = None
    if want_ds:
        if batch:  # CPython's complex power and quotient, as a scalar call has them
            inv_sq = np.array([1.0 / (z - 1.0) ** 2 for z in s[:, 0].tolist()])[:, None]
        else:
            inv_sq = 1.0 / (s - 1.0) ** 2
        dmain1 = xp1ms * (-logx / (s - 1.0) - inv_sq)
        dmain2 = -0.5 * logx * xpms
        dvals = dsum + dmain1 + dmain2

    # Bernoulli corrections: coef_j * (s)_{2j-1} * x^(-s-2j+1)
    P = s  # (s)_1
    dP = 1.0 + 0j
    xpow = np.exp((-s - 1.0) * logx)
    x2 = x * x
    for j in range(1, K + 1):
        c = sp._em_coef(j)
        term = c * P * xpow  # c is real, so NumPy rounds c * P as CPython does
        vals = vals + term
        absacc = absacc + np.abs(term)
        if want_ds:
            dvals = dvals + c * xpow * (dP - logx * P)
        u = s + (2 * j - 1)
        v = s + 2 * j
        uv = mul(u, v)
        dP = mul(dP, uv) + mul(P, u + v)
        P = mul(P, uv)
        xpow = xpow / x2
    return vals, dvals, absacc


def test_em_eval_matches_the_former_correction_loop_bytewise():
    # the Pochhammer factors now come from special._pochhammer, per point in
    # CPython arithmetic, and the loop adds in place: vals, dvals and absacc
    # must keep the bytes, in batches of 1, 3 and 14 points and in the scalar form
    rows = [np.array([a for a in range(1, q) if math.gcd(a, q) == 1]) / q for q in (5, 23, 229)]
    pts = [-3 + 0j, 3 + 0j, 0.5j] + lattice_points(14 * 3, (-3.0, 3.0), (-101.0, 101.0))
    for a in rows:
        for C in (1, 3, 14):
            for K in (6, 12, 30, 59):
                for want_ds in (False, True):
                    S = np.array(pts[K % 3::3][:C])
                    N = 2 + (K * C) % 20
                    got = sp._em_eval(S, a, N, K, want_ds)
                    ref = _ref_batch_em_eval(S, a, N, K, want_ds)
                    assert all(_same_bytes(g, r) for g, r in zip(got, ref)), (len(a), C, K)
                    if C == 1:
                        s = complex(S[0])
                        got = sp._em_eval(s, a, N, K, want_ds)
                        ref = _ref_batch_em_eval(s, a, N, K, want_ds)
                        assert all(_same_bytes(g, r) for g, r in zip(got, ref)), (len(a), s, K)


# the ring |s - 1| = 10^-k around the removable point s = 1
_RING = [1.0 + 10.0 ** -k * cmath.exp(1j * (0.7 + 2.1 * k)) for k in range(3, 11)]


def test_hurwitz_err_is_honest_around_s_equals_1():
    """|value - mpmath| <= err for zeta(s, a) and its d/ds on the ring: the
    pole terms 1/(s - 1) and -1/(s - 1)^2 are added to the engine's entries
    and charge their rounding, eps / |s - 1| and eps / |s - 1|^2, to the bars."""
    for s in _RING:
        for a in (0.5, 0.2, 1.0):
            with mpmath.workdps(40):
                refs = [complex(mpmath.zeta(mpmath.mpc(s), a, k)) for k in (0, 1)]
            for fn, ref in zip((sp.hurwitz_zeta, sp.hurwitz_zeta_ds), refs):
                got = fn(s, a)
                assert abs(got.value - ref) <= got.err, (fn.__name__, s, a, abs(got.value - ref), got.err)


def test_hurwitz_grid_err_is_honest_and_guarded(chi5, chi7_complex, chi229):
    """|grid - mpmath| <= err for L and L' over 0 < Re s <= 8, |Im s| <= 101,
    on the ring and at s = 1; off the ring err <= 1e-9 (1 + |value|).
    chi_229's 228 residues split its call into several sigma- and t-chunks;
    mpmath costs about 2 s per chi_229 point, so only four of its points are
    checked."""
    window = lattice_points(16, (0.01, 8.0), (-101.0, 101.0)) + \
        [1e-3 + 101j, 8.0 - 101j, 0.5 + 0j, 2.0 - 0.5j]
    cases = [(chi5, window + _RING, None), (chi7_complex, window + _RING, None),
             (chi229, lattice_points(30, (0.01, 8.0), (-101.0, 101.0)) + _RING,
              [0, 7, 30, 37])]
    for chi, pts, checked in cases:
        S = np.array(pts)
        got = [lf._grid_eval(chi, S, deriv) for deriv in (False, True)]
        for k in checked or range(len(pts)):
            for (vals, errs), ref in zip(got, mp_L_pair(chi, pts[k])):
                assert abs(vals[k] - ref) <= errs[k], (chi.q, pts[k], abs(vals[k] - ref), errs[k])
                if abs(pts[k] - 1.0) > 0.5e-3:
                    assert errs[k] <= 1e-9 * (1.0 + abs(vals[k])), (chi.q, pts[k], errs[k])
    # s = 1 and two points within 1e-12 of it, which the grid once refused:
    # L and L' are entire there, and the bars hold them
    at_one = mp_L_at_one(chi5)
    for near in (1.0, 1.0 + 5e-13j, 1.0 - 9e-13):
        refs = at_one if near == 1.0 else [(ref, 0.0) for ref in mp_L_pair(chi5, near)]
        for deriv, (ref, allowance) in zip((False, True), refs):
            vals, errs = lf._grid_eval(chi5, np.array([2.0 + 1j, near]), deriv)
            assert abs(vals[1] - ref) <= errs[1] + allowance, (near, deriv, abs(vals[1] - ref), errs[1])
            assert errs[1] <= 1e-9 * (1.0 + abs(vals[1])), (near, deriv, errs[1])
    # the guards: Re s <= 0 and the N cap
    for bad in ([0.5 + 1j, 0j], [-0.25 + 3j]):
        with pytest.raises(DomainError):
            lf.eval_L_grid(chi5, bad)
    with pytest.raises(PrecisionLossError):
        lf.eval_L_grid(chi5, [0.5 + 3e4j])



def _zero_sum_weights(q):
    """q-periodic f: seeded complex weights on the residues prime to q,
    shifted to sum to 0 over a period, as hurwitz_grid requires."""
    res = np.array([a for a in range(1, q) if math.gcd(a, q) == 1])
    rng = np.random.default_rng(q)
    w = rng.normal(size=len(res)) + 1j * rng.normal(size=len(res))
    f = np.zeros(q, dtype=complex)
    f[res] = w - w.mean()
    return f, res


def test_hurwitz_grid_matches_reference_grid():
    """The separable engine against the former per-residue grid engine,
    summed as q^-s sum_a f(a) zeta(s, a/q): the two agree within the sum of
    their error bounds, for Z and for Z', on the shifts of _rows()."""
    sig = np.linspace(0.05, 3.0, 8)
    for q in (5, 7, 49, 229):
        f, res = _zero_sum_weights(q)
        w, lq = f[res], math.log(q)
        for t0, t1 in ((-30.0, 30.0), (60.0, 101.0), (-5.0, 5.0)):
            ts = np.linspace(t0, t1, 15)
            rows, cols = np.repeat(np.arange(8), 15), np.tile(np.arange(15), 8)
            vals, errs = sp.hurwitz_grid(sig, ts, q, f, rows, cols)
            dvals, derrs = sp.hurwitz_grid(sig, ts, q, f, rows, cols, want_ds=True)
            for i, s_row in enumerate(sig):  # one sigma row at a time keeps the reference small
                S = s_row + 1j * ts
                zv, zd, ze = _ref_hurwitz_grid(S, res / q, want_ds=True)
                _, _, zve = _ref_hurwitz_grid(S, res / q)
                qs = np.abs(np.exp(-S * lq))
                ref = np.exp(-S * lq) * (zv @ w)
                dref = np.exp(-S * lq) * (zd @ w - lq * (zv @ w))
                # the reference's bounds per residue, plus the rounding of its weighted sums
                rerr = qs * (zve @ np.abs(w) + 4 * len(w) * sp._EPS * (np.abs(zv) @ np.abs(w)))
                drerr = qs * (ze @ np.abs(w) + lq * zve @ np.abs(w)
                              + 4 * len(w) * sp._EPS * (np.abs(zd) + lq * np.abs(zv)) @ np.abs(w))
                k = slice(15 * i, 15 * (i + 1))
                assert np.all(np.abs(vals[k] - ref) <= errs[k] + rerr), (q, s_row, t0)
                assert np.all(np.abs(dvals[k] - dref) <= derrs[k] + drerr), (q, s_row, t0)
                assert np.all(errs[k] <= 1e-9 * (1.0 + np.abs(vals[k]))), (q, s_row, t0)


def test_hurwitz_grid_raises_at_its_term_cap():
    f = np.array([0, 1, 1j, -1j, -1])  # the character mod 5 with chi(2) = i
    vals, errs = sp.hurwitz_grid([0.5, 1.5], [10.0, -3.0], 5, f, [0, 1], [0, 1])
    assert np.all(np.isfinite(vals)) and np.all(errs < 1e-9)
    # |t| = 3e4 needs more than 4000 terms per residue for the grid tolerance
    with pytest.raises(PrecisionLossError):
        sp.hurwitz_grid([0.5], [3e4], 5, f, [0], [0])
    with pytest.raises(PrecisionLossError):
        sp.hurwitz_grid([0.5], [3e4], 5, f, [0], [0], want_ds=True)


# ----------------------------------------------------------------------
# logarithmic integral

def _simpson_li(x, n):
    xs = np.linspace(2.0, x, 2 * n + 1)
    w = np.ones(2 * n + 1)
    w[1:-1:2], w[2:-1:2] = 4.0, 2.0
    return float(np.sum(w / np.log(xs))) * (x - 2.0) / (6 * n)


def test_li_values_and_monotonicity():
    assert sp.log_integral(2.0) == 0.0
    for x, tol in ((5.0, 1e-10), (10.0, 1e-10), (729.6, 1e-8)):
        coarse = _simpson_li(x, 8000)
        fine = _simpson_li(x, 16000)
        oracle = fine + (fine - coarse) / 15.0  # Richardson-extrapolated Simpson
        assert abs(sp.log_integral(x) - oracle) < tol
    vals = [sp.log_integral(x) for x in (2.0, 2.5, 4.0, 10.0, 100.0)]
    assert all(b > a for a, b in zip(vals, vals[1:]))
    with pytest.raises(DomainError):
        sp.log_integral(1.5)


def _mp_li_from_2(x):
    with mpmath.workdps(40):
        return mpmath.li(x) - mpmath.li(2)


def test_li_large_x_vs_mpmath():
    for x in (5e4, 1e5, 1e6):
        ref = _mp_li_from_2(x)
        val = sp.log_integral(x)
        assert math.isfinite(val)
        assert abs(val - ref) <= 4e-15 * max(1.0, abs(ref)), x
    for bad in (math.nan, math.inf, -math.inf, 1.999999):
        with pytest.raises(DomainError):
            sp.log_integral(bad)


def test_li_series_vs_mpmath_on_ring_and_sweep():
    """li(x) - li(2) over (1, 1e6]: the ring x = 1 + 10^-k next to the
    log log x singularity, and a log-spaced sweep in x - 1."""
    ring = [1.0 + 10.0 ** -k for k in range(1, 13)]
    sweep = [1.0 + float(d) for d in np.geomspace(1e-12, 1e6 - 1.0, 200)]
    for x in ring + sweep + [2.0, 2.0 + 1e-9]:
        ref = _mp_li_from_2(x)
        assert abs(sp._li_from_2(x) - ref) <= 4e-15 * max(1.0, abs(ref)), x
    assert sp._li_from_2(2.0) == 0.0
    for bad in (1.0, 0.5, math.nan, math.inf):
        with pytest.raises(DomainError):
            sp._li_from_2(bad)


# ----------------------------------------------------------------------
# prime sums

def test_prime_tail_bound_formula_and_domain():
    val = sp.prime_tail_bound(3.0, 10)
    assert abs(val - 10 / 999 * (math.log(10) / 2 + 0.25)) < 1e-15
    for bad in [(1.0, 10), (2.0, 2), (0.5, 100)]:
        with pytest.raises(DomainError):
            sp.prime_tail_bound(*bad)


@pytest.mark.parametrize("sigma", [2.0, 3.0, 4.0])
@pytest.mark.parametrize("N", [10, 100])
def test_prime_tail_bound_is_true_bound(sigma, N):
    ps = sp.primes_up_to(10**7)
    ps = ps[ps > N].astype(float)
    true_tail = float(np.sum(np.log(ps) / (ps**sigma - 1.0)))
    assert true_tail <= sp.prime_tail_bound(sigma, N)


def test_prime_log_sum_reference_bounds():
    assert sp.prime_log_sum(3, 1, 10).upper < 0.174
    assert sp.prime_log_sum(2, 1, 100).upper < 0.62
    assert sp.prime_log_sum(2, 7, 100000).upper < 0.5296
    assert sp.prime_log_sum(4, 5, 10).upper < 0.07
    assert sp.prime_log_sum(2, 5, 1000).upper < 0.51


def test_prime_log_sum_interval_brackets_truth():
    ts = sp.prime_log_sum(2, 7, 1000)
    ps = sp.primes_up_to(10**7).astype(float)
    ps = ps[(7 % ps != 0)]
    truth = float(np.sum(np.log(ps) / (ps**2 - 1.0)))
    assert ts.value <= truth <= ts.upper


# ----------------------------------------------------------------------
# the log|a + b cos theta| mean

def test_log_abs_cos_mean_closed_forms():
    assert abs(sp.log_abs_cos_mean(2, 1) - math.log((2 + math.sqrt(3)) / 2)) < 1e-15
    assert abs(sp.log_abs_cos_mean(1, 1) - math.log(0.5)) < 1e-15
    assert abs(sp.log_abs_cos_mean(1, 3) - math.log(1.5)) < 1e-15


def test_log_abs_cos_mean_branches_agree_at_a_equals_b():
    for v in (0.5, 1.0, 2.5):
        a_le_b = sp.log_abs_cos_mean(v, v)  # takes the log(b/2) branch
        a_gt_b_formula = math.log((v + math.sqrt(v * v - v * v)) / 2.0)
        assert a_le_b == a_gt_b_formula == math.log(v / 2)


def test_log_abs_cos_mean_vs_quadrature():
    for a, b in [(2, 1), (1, 1), (1, 3), (0.3, 2.7), (4.9, 4.9)]:
        assert abs(sp.log_abs_cos_mean(a, b) - log_abs_cos_mean_quad(a, b)) < 1e-8
    with pytest.raises(DomainError):
        sp.log_abs_cos_mean(-1, 2)
