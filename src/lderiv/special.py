"""Special functions and prime sums underlying the L-function machinery.

Everything here is IEEE double with explicit error tracking.  The Hurwitz
zeta continuation is Euler-Maclaurin: a truncated sum, the two closing
terms, and Bernoulli corrections, with (N, K) chosen per point so that the
standard remainder bound plus a rounding estimate meets the target.  The
candidate pairs of a point share one prefix sum of log|s + i| for the
Pochhammer factor of that bound, so each pair costs only a few flops.  One
engine, _em_eval, serves single points and the grids of the zero scans; a
grid row is bit for bit the single-point evaluation at that s.  The
derivative in s comes from termwise differentiation of the same expansion;
a Cauchy-circle quadrature of the undifferentiated routine is kept as an
independent cross-check of that route.

Digamma and log-gamma use recurrence shifts to Re(z) >= 10 followed by the
asymptotic Bernoulli series; both are valid on the cut plane C \\ (-inf, 0].
"""

from __future__ import annotations

import cmath
import math
import operator
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .errors import DomainError, PoleError, PrecisionLossError
from .numtypes import ComplexValue, TailBoundedSum
from .report import VerificationReport

__all__ = [
    "EULER_GAMMA",
    "digamma",
    "log_gamma",
    "digamma_lower_bound_check",
    "hurwitz_zeta",
    "hurwitz_zeta_ds",
    "hurwitz_zeta_cauchy_ds",
    "log_integral",
    "primes_up_to",
    "prime_tail_bound",
    "prime_log_sum",
    "log_abs_cos_mean",
]

EULER_GAMMA = float(np.euler_gamma)

_EPS = 2.0 ** -52


# ----------------------------------------------------------------------
# Bernoulli numbers

@lru_cache(maxsize=None)
def _bernoulli_fraction(n: int) -> Fraction:
    if n == 0:
        return Fraction(1)
    if n == 1:
        return Fraction(-1, 2)
    if n % 2 == 1:
        return Fraction(0)
    acc = Fraction(0)
    for j in range(n):
        acc += math.comb(n + 1, j) * _bernoulli_fraction(j)
    return -acc / (n + 1)


@lru_cache(maxsize=None)
def _em_coef(j: int) -> float:
    """B_{2j} / (2j)! as a float; the Euler-Maclaurin correction weight."""
    return float(_bernoulli_fraction(2 * j) / math.factorial(2 * j))


@lru_cache(maxsize=None)
def _bernoulli_float(n: int) -> float:
    return float(_bernoulli_fraction(n))


# ----------------------------------------------------------------------
# digamma / log-gamma

_PSI_SHIFT = 10.0
# B_{2n}/(2n) for the psi asymptotic series
_PSI_COEFS = tuple(_bernoulli_fraction(2 * n) / (2 * n) for n in range(1, 9))
_PSI_COEFS = tuple(float(c) for c in _PSI_COEFS)
# B_{2n}/((2n)(2n-1)) for the log-gamma Stirling series
_LGAMMA_COEFS = tuple(
    float(_bernoulli_fraction(2 * n) / ((2 * n) * (2 * n - 1))) for n in range(1, 9)
)


def _check_pole(z: complex, what: str) -> None:
    if z.imag == 0.0 and z.real <= 0.0 and z.real == round(z.real):
        raise PoleError(f"{what} pole at z = {z.real:.0f}")


def _digamma(z: complex) -> complex:
    z = complex(z)
    _check_pole(z, "digamma")
    acc = 0j
    w = z
    while w.real < _PSI_SHIFT:
        acc += 1.0 / w
        w += 1.0
    w2 = 1.0 / (w * w)
    series = 0j
    p = w2
    for c in _PSI_COEFS:
        series += c * p
        p *= w2
    return cmath.log(w) - 0.5 / w - series - acc


def digamma(z: complex) -> ComplexValue:
    """Gamma'/Gamma(z) on C minus the poles {0, -1, -2, ...}.

    Absolute error stays below ~1e-12 for |z| <= 1e4 away from poles.
    """
    z = complex(z)
    val = _digamma(z)
    # rounding from the recurrence shift grows with the number of terms
    nshift = max(0, int(_PSI_SHIFT - z.real) + 1)
    err = 1e-14 * (1.0 + abs(val)) + 4 * _EPS * nshift
    return ComplexValue(val, err)


def log_gamma(z: complex) -> complex:
    """log Gamma(z), analytic on C \\ (-inf, 0] (not the principal log of Gamma)."""
    z = complex(z)
    _check_pole(z, "log-gamma")
    acc = 0j
    w = z
    while w.real < _PSI_SHIFT:
        acc += cmath.log(w)
        w += 1.0
    w2 = 1.0 / (w * w)
    series = 0j
    p = 1.0 / w
    for c in _LGAMMA_COEFS:
        series += c * p
        p *= w2
    out = (w - 0.5) * cmath.log(w) - w + 0.5 * math.log(2 * math.pi) + series
    return out - acc


def digamma_lower_bound_check(z: complex) -> VerificationReport:
    """Check Re psi(z) >= log|z| - pi/(2|Im z|) and report the margin."""
    z = complex(z)
    if z.imag == 0.0:
        raise DomainError("digamma lower bound requires Im z != 0")
    lhs = _digamma(z).real
    rhs = math.log(abs(z)) - math.pi / (2.0 * abs(z.imag))
    margin = lhs - rhs
    return VerificationReport(
        name="digamma_lower_bound",
        params={"re": z.real, "im": z.imag},
        measured=lhs,
        bound=rhs,
        margin=margin,
        passed=margin > 0.0,
    )


# ----------------------------------------------------------------------
# Hurwitz zeta by Euler-Maclaurin

def _em_log_parts(s: complex, Ks):
    """Per K in Ks (ascending), the parts of log R_K (see _em_remainder)
    that do not depend on N, from one prefix sum of log|s + i|.

    An entry is (lead, power, tail) with lead = log|B_{2K+2}/(2K+2)!| +
    log|(s)_{2K+1}|, power = -sigma - 2K - 1 and tail the log of the
    max(1, ...) factor; or the bound itself, inf when sigma + 2K + 1 <= 0
    and 0 when (s)_{2K+1} vanishes.  The entries are yielded one K at a
    time and the prefix sum is extended, in index order, only as far as
    the K asked for, so every prefix is the one the single-K loop would give.
    """
    sigma = s.real
    log_poch = [0.0]  # log_poch[i] = sum of log|s + j| for j < i
    zero_at = math.inf  # first i with s + i = 0
    i = 0
    for K in Ks:
        while i <= 2 * K and zero_at == math.inf:
            f = abs(s + i)
            if f == 0.0:
                zero_at = i
            else:
                log_poch.append(log_poch[-1] + math.log(f))
                i += 1
        if sigma + 2 * K + 1 <= 0:
            yield math.inf
        elif zero_at <= 2 * K:
            yield 0.0
        else:
            yield (
                math.log(abs(_em_coef(K + 1))) + log_poch[2 * K + 1],
                -sigma - 2 * K - 1,
                math.log(max(1.0, abs(s + 2 * K + 1) / (sigma + 2 * K + 1))),
            )


def _em_bound(part, log_x: float) -> float:
    """The remainder bound from one _em_log_parts entry and log x_min."""
    if isinstance(part, float):
        return part
    lead, power, tail = part
    log_r = lead + power * log_x + tail
    return math.exp(log_r) if log_r < 700 else math.inf


def _em_remainder(s: complex, n_terms: int, K: int, x_min: float) -> float:
    """Standard Euler-Maclaurin remainder bound after K correction terms.

    |R_K| <= |B_{2K+2}|/(2K+2)! * |(s)_{2K+1}| * x^(-sigma-2K-1)
             * max(1, |s+2K+1|/(sigma+2K+1)),  valid for sigma+2K+1 > 0.
    """
    return _em_bound(next(_em_log_parts(s, (K,))), math.log(x_min))


def _choose_em_params(s: complex, a_min: float, tol: float) -> tuple[int, int, float]:
    """Pick (N, K) whose remainder bound meets tol, minimizing the rounding
    estimate among those; otherwise minimize remainder + rounding.

    Returns (N, K, remainder bound of that pair)."""
    sigma, t = s.real, abs(s.imag)
    k_min = max(6, math.ceil((3.0 - sigma) / 2.0))
    n_base = max(1, math.ceil(1.3 * t))
    if sigma >= 0:
        n_cands = sorted({max(20, n_base), max(36, n_base), max(64, 2 * n_base), max(110, 2 * n_base)})
    else:
        n_cands = sorted({max(2, n_base), max(4, n_base), max(6, n_base), max(8, n_base),
                          max(12, n_base), max(16, n_base), max(24, n_base),
                          max(32, n_base), max(64, 2 * n_base)})
    Ks = [K for K in (k_min, k_min + 6, k_min + 14, k_min + 24) if K <= 59]
    if not Ks:
        raise PrecisionLossError(f"no Euler-Maclaurin K <= 59 serves s = {s}", math.inf)
    # per N: log x_min and the rounding peak max(1, x_min^-sigma)
    per_n = []
    for N in n_cands:
        x_min = N + a_min
        peak = x_min ** (-sigma) if sigma < 0 else 1.0
        per_n.append((N, math.log(x_min), max(1.0, peak)))
    best_feasible = None
    best_any = None
    parts = _em_log_parts(s, Ks)
    for K in Ks:
        # rnd never decreases in N or K: once the smallest N's rounding at
        # this K cannot beat the best feasible pair strictly, no later can
        if best_feasible is not None and \
                8 * _EPS * (n_cands[0] + K + 4) * per_n[0][2] >= best_feasible[2]:
            break
        part = next(parts)
        for N, log_x, peak in per_n:
            rem = _em_bound(part, log_x)
            # rounding ~ eps * (number of terms) * (largest term magnitude)
            rnd = 8 * _EPS * (N + K + 4) * peak
            if rem <= tol and (best_feasible is None or rnd < best_feasible[2]):
                best_feasible = (N, K, rnd, rem)
            if best_any is None or rem + rnd < best_any[2]:
                best_any = (N, K, rem + rnd, rem)
    N, K, _, rem = best_feasible if best_feasible is not None else best_any
    return N, K, rem


def _cmul(z, w):
    """z * w on arrays, each real product rounded on its own as CPython
    multiplies two complex scalars.  NumPy's complex multiply may fuse a
    product into the add that follows it, which can move the last bit."""
    out = np.empty(np.broadcast(z, w).shape, dtype=complex)
    out.real = z.real * w.real - z.imag * w.imag
    out.imag = z.real * w.imag + z.imag * w.real
    return out


def _em_eval(s, a: np.ndarray, N: int, K: int, want_ds: bool, want_abs: bool = False):
    """Euler-Maclaurin evaluation of zeta(s, a) (and d/ds) for an array of a.

    s is one complex, giving results of shape (A,), or an array of shape
    (C,), giving results of shape (C, A) whose rows are bit for bit the
    scalar calls.  Returns (vals, dvals, absacc): dvals is None unless
    want_ds, and absacc, the summed magnitudes behind the rounding estimate,
    is None unless want_abs.
    """
    batch = isinstance(s, np.ndarray)
    if batch:
        s = np.asarray(s, dtype=complex)[:, None]  # (C, 1) against a's (A,)
        s_n, mul = s[:, :, None], _cmul  # (C, 1, 1) against the (A, N) summands
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
    absacc = np.abs(terms).sum(axis=-1) if want_abs else None
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
    if want_abs:
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
        c = _em_coef(j)
        term = c * P * xpow  # c is real, so NumPy rounds c * P as CPython does
        vals = vals + term
        if want_abs:
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


def _hurwitz_core(s: complex, a: np.ndarray, want_ds: bool, tol: float):
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
    N, K, rem = _choose_em_params(s, float(a.min()), tol)
    vals, dvals, absacc = _em_eval(s, a, N, K, want_ds, want_abs=True)
    errs = rem + 8 * _EPS * absacc
    if want_ds:
        # differentiated series: remainder picks up roughly a log x factor
        errs_ds = rem * (math.log(N + 1.0) + 2.0 * (2 * K + 1)) + 8 * _EPS * absacc * (
            math.log(N + 2.0) + 1.0
        )
        return vals, dvals, errs, errs_ds, rem
    return vals, None, errs, None, rem


def _em_remainder_grid(sigma_min: float, s_abs_max: float, K: int, x_min: float) -> float:
    """Conservative remainder bound valid for every s in a grid chunk (sigma_min > 0)."""
    log_poch = sum(math.log(i + s_abs_max) for i in range(2 * K + 1))
    lead = math.log(abs(_em_coef(K + 1))) + log_poch
    tail = math.log(max(1.0, (s_abs_max + 2 * K + 1) / (sigma_min + 2 * K + 1)))
    return _em_bound((lead, -sigma_min - 2 * K - 1, tail), math.log(x_min))


def hurwitz_grid(s: np.ndarray, a: np.ndarray, want_ds: bool = False, tol: float = 1e-10):
    """Vectorized zeta(s, a) over a grid of s (all with Re s > 0) and a row of a.

    The engine is the single-point one (_em_eval), run once for the chunk
    with one (N, K).  Returns (vals, dvals, err), err of shape (C, A): one
    conservative remainder bound for the whole chunk plus rounding.  Raises
    PrecisionLossError when N = 4000 terms cannot bring the remainder bound
    down to tol.
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
    rem = _em_remainder_grid(sigma_min, s_abs_max, K, N + a_min)
    while rem > tol and N < 4000:
        N = int(N * 1.6) + 4
        rem = _em_remainder_grid(sigma_min, s_abs_max, K, N + a_min)
    if rem > tol:
        raise PrecisionLossError(f"hurwitz_grid: tol {tol} unreachable with N <= 4000", rem)
    vals, dvals, _ = _em_eval(s, a, N, K, want_ds)
    rem_out = rem * (1.0 if not want_ds else math.log(N + 2.0) + 2 * (2 * K + 1))
    ref = np.abs(dvals if want_ds else vals)
    errs = rem_out + 16 * _EPS * (N + K) * (1.0 + ref)
    return vals, dvals, errs


def _hurwitz_checked(s: complex, a: float, want_ds: bool, rel: float, shrink: float, what: str):
    """zeta(s, a) or its d/ds within rel (1 + |value|) in the remainder bound,
    retrying once with tol = rel (1 + |value|) / shrink when 1e-13 falls short."""
    k = 1 if want_ds else 0  # out[k] holds the values, out[2 + k] their errs
    out = _hurwitz_core(s, [a], want_ds, 1e-13)
    target = rel * (1.0 + abs(complex(out[k][0])))
    if out[4] > target:
        out = _hurwitz_core(s, [a], want_ds, target / shrink)
        if out[4] > target:
            raise PrecisionLossError(f"{what}({s}, {a}) target unreachable", out[4])
    return ComplexValue(complex(out[k][0]), float(out[2 + k][0]))


def hurwitz_zeta(s: complex, a: float) -> ComplexValue:
    """zeta(s, a) for a in (0, 1], s != 1, by Euler-Maclaurin continuation.

    (N, K) are chosen so the series remainder bound meets 1e-12 (1 + |zeta|);
    the returned err adds a conservative rounding estimate on top.
    """
    return _hurwitz_checked(s, a, False, 1e-12, 1.0, "hurwitz_zeta")


def hurwitz_zeta_ds(s: complex, a: float) -> ComplexValue:
    """d/ds zeta(s, a), termwise-differentiated Euler-Maclaurin."""
    return _hurwitz_checked(s, a, True, 1e-11, 50.0, "hurwitz_zeta_ds")


def hurwitz_zeta_cauchy_ds(
    s: complex, a: float, radius: float = 0.5, nodes: int = 128
) -> ComplexValue:
    """d/ds zeta(s, a) via Cauchy's integral formula on |w - s| = radius.

    Trapezoidal quadrature on the circle; independent of the differentiated
    series and used to cross-check it.
    """
    s = complex(s)
    if abs(s - 1.0) <= radius + 1e-9:
        raise DomainError("Cauchy circle would touch the pole at s = 1")
    acc = 0j
    err = 0.0
    for mnode in range(nodes):
        theta = 2.0 * math.pi * mnode / nodes
        w = cmath.exp(1j * theta)
        fv = hurwitz_zeta(s + radius * w, a)
        acc += fv.value * w.conjugate()
        err += fv.err
    return ComplexValue(acc / (radius * nodes), err / (radius * nodes) + 1e-13 * abs(acc))


# ----------------------------------------------------------------------
# logarithmic integral

def _li(x: float) -> float:
    """li(x) = gamma + log log x + sum_{k>=1} (log x)^k / (k k!), for x > 1.

    Every series term is positive, so nothing cancels; math.fsum adds the
    rounded terms exactly.  Past k = 2 log x each term is at most half the
    one before, so stopping at a term below eps/8 of the partial series
    leaves a tail below eps/8 of it.
    """
    lx = math.log(x)
    terms = [EULER_GAMMA, math.log(lx)]
    power = 1.0  # (log x)^k / k!
    series = 0.0
    k = 0
    while True:
        k += 1
        power *= lx / k
        term = power / k
        terms.append(term)
        series += term
        if k >= 2.0 * lx and term <= 0.125 * _EPS * series:
            return math.fsum(terms)


_LI_2 = _li(2.0)


def _li_from_2(x: float) -> float:
    """li(x) - li(2), the integral from 2 to x of du/log u, for x > 1
    (negative for x < 2)."""
    if not 1.0 < x < math.inf:
        raise DomainError("li needs finite x > 1")
    return _li(x) - _LI_2


def log_integral(x: float) -> float:
    """li(x) = integral from 2 to x of du/log(u), for finite x >= 2."""
    if not x >= 2.0:
        raise DomainError("log_integral requires x >= 2")
    return _li_from_2(x)


# ----------------------------------------------------------------------
# primes and prime log-sums

@lru_cache(maxsize=8)
def primes_up_to(n: int) -> np.ndarray:
    """All primes <= n by Eratosthenes (numpy bitmap)."""
    if n < 2:
        return np.empty(0, dtype=np.int64)
    sieve = np.ones(n + 1, dtype=bool)
    sieve[:2] = False
    for p in range(2, math.isqrt(n) + 1):
        if sieve[p]:
            sieve[p * p :: p] = False
    return np.flatnonzero(sieve).astype(np.int64)


def prime_tail_bound(sigma: float, N: int) -> float:
    """Upper bound for sum_{p > N} log(p)/(p^sigma - 1).

    Equals N/(N^sigma - 1) * (log N/(sigma-1) + 1/(sigma-1)^2); proved by
    comparison with the integral of log(u) u^(-sigma).
    """
    if sigma <= 1.0:
        raise DomainError("tail bound requires sigma > 1")
    if N < 3 or N != int(N):
        raise DomainError("tail bound requires integer N >= 3")
    N = int(N)
    return N / (N ** sigma - 1.0) * (math.log(N) / (sigma - 1.0) + (sigma - 1.0) ** -2)


def prime_log_sum(sigma: float, exclude_divisors_of: int = 1, N: int = 100000) -> TailBoundedSum:
    """sum over primes p <= N, p not dividing q, of log(p)/(p^sigma - 1), with tail."""
    tail = prime_tail_bound(sigma, N)  # validates sigma, N
    ps = primes_up_to(N)
    q = exclude_divisors_of
    if q > 1:
        ps = ps[q % ps != 0]
    pf = ps.astype(float)
    value = float(np.sum(np.log(pf) / (pf ** sigma - 1.0)))
    return TailBoundedSum(value=value, tail_bound=tail, cutoff=N)


# ----------------------------------------------------------------------
# the log|a + b cos(theta)| mean (Jensen closed form)

def log_abs_cos_mean(a: float, b: float) -> float:
    """(1/2pi) * integral of log|a + b cos(theta)|: closed form via Jensen.

    log((a + sqrt(a^2-b^2))/2) when a > b, else log(b/2).
    """
    if a <= 0.0 or b <= 0.0:
        raise DomainError("log_abs_cos_mean requires a > 0 and b > 0")
    if a > b:
        return math.log((a + math.sqrt(a * a - b * b)) / 2.0)
    return math.log(b / 2.0)
