"""Special functions and prime sums underlying the L-function machinery.

Everything here is IEEE double with explicit error tracking.  The Hurwitz
zeta continuation is Euler-Maclaurin: a truncated sum, the two closing
terms, and Bernoulli corrections, with (N, K) chosen per point so that the
standard remainder bound plus a rounding estimate meets the target.  The
candidate pairs of a point share one prefix sum of log|s + i| for the
Pochhammer factor of that bound, so each pair costs only a few flops.  One
engine, _em_eval, serves single points; its array form gives rows that are
bit for bit the single-point evaluations.  Its correction loop takes the
Pochhammer factors (s)_{2j-1} and their d/ds from _pochhammer, one CPython
call per point, and leaves only the array products and in-place sums to
NumPy.  _hurwitz_core_many feeds it the points of a batch grouped by their
own (N, K) and side of the pole disk, a lone point in the scalar form, and
turns its output into error bars summed over the residues, once per chunk;
_hurwitz_core, the per-residue form, is its one-point twin.  The
derivative in s comes from termwise differentiation of the same expansion.
Near s = 1 the engine leaves out the pole 1/(s - 1), which a character's
weights cancel, and takes the rest in expm1 form; _hurwitz_core adds it back.

The grids of the zero scans go through hurwitz_grid, which evaluates
sum_m f(m) m^-s for q-periodic f on a product of real parts sigma and
imaginary parts t.  There each Euler-Maclaurin piece except the pole term
is a function of sigma times a function of t (m^-s = m^-sigma e^(-it log m),
and (s)_{2j-1} is a polynomial in it), so a chunk of the grid is one real
matrix product; K is then nearly free and N runs small.  Each value comes
with its own error bound.

Digamma and log-gamma use recurrence shifts to Re(z) >= 10 followed by the
asymptotic Bernoulli series; both are valid on the cut plane C \\ (-inf, 0].
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .errors import DomainError, PoleError, PrecisionLossError
from .numtypes import ComplexValue, TailBoundedSum

__all__ = [
    "EULER_GAMMA",
    "digamma",
    "log_gamma",
    "hurwitz_zeta",
    "hurwitz_zeta_ds",
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


# ----------------------------------------------------------------------
# Hurwitz zeta by Euler-Maclaurin

def _em_log_parts(s: complex, Ks):
    """Per K in Ks (ascending), the parts of log R_K that do not depend on N,
    from one prefix sum of log|s + i|.  R_K is the standard Euler-Maclaurin
    remainder bound after K correction terms,

      |R_K| <= |B_{2K+2}|/(2K+2)! * |(s)_{2K+1}| * x_min^(-sigma-2K-1)
               * max(1, |s+2K+1|/(sigma+2K+1)),  valid for sigma+2K+1 > 0,

    and _em_bound(entry, log x_min) gives it.

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


def _em_candidates(s: complex) -> tuple[list, list]:
    """The ascending N and K (at most 59) that _choose_em_params weighs at s."""
    sigma, t = s.real, abs(s.imag)
    k_min = max(6, math.ceil((3.0 - sigma) / 2.0))
    n_base = max(1, math.ceil(1.3 * t))
    if sigma >= 0:
        n_cands = sorted({max(20, n_base), max(36, n_base), max(64, 2 * n_base), max(110, 2 * n_base)})
    else:
        n_cands = sorted({max(2, n_base), max(4, n_base), max(6, n_base), max(8, n_base),
                          max(12, n_base), max(16, n_base), max(24, n_base),
                          max(32, n_base), max(64, 2 * n_base)})
    return n_cands, [K for K in (k_min, k_min + 6, k_min + 14, k_min + 24) if K <= 59]


def _choose_em_params(s: complex, a_min: float, tol: float) -> tuple[int, int, float]:
    """Pick (N, K) of _em_candidates(s) whose remainder bound meets tol,
    minimizing the rounding estimate among those; otherwise minimize
    remainder + rounding.

    Returns (N, K, remainder bound of that pair)."""
    sigma = s.real
    n_cands, Ks = _em_candidates(s)
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
            if rem <= tol:
                if best_feasible is None or rnd < best_feasible[2]:
                    best_feasible = (N, K, rnd, rem)
                # a larger N only raises rnd, and best_any no longer counts
                break
            if best_any is None or rem + rnd < best_any[2]:
                best_any = (N, K, rem + rnd, rem)
    N, K, _, rem = best_feasible if best_feasible is not None else best_any
    return N, K, rem


def _pochhammer(s: complex, K: int) -> tuple[list, list]:
    """(s)_{2j-1} and its d/ds for j = 1..K at one point, in CPython complex
    arithmetic, from (s)_{2j+1} = (s)_{2j-1} (s + 2j - 1)(s + 2j).  A batch
    calls it per point, so each row takes the scalar call's products: NumPy's
    complex multiply may fuse a product into the add that follows it, which
    can move the last bit."""
    P, dP = s, 1.0 + 0j
    Ps, dPs = [P], [dP]
    for j in range(1, K):
        u = s + (2 * j - 1)
        v = s + 2 * j
        uv = u * v
        dP = dP * uv + P * (u + v)
        P = P * uv
        Ps.append(P)
        dPs.append(dP)
    return Ps, dPs


_POLE_DISK = 0.125  # within it of s = 1 the engines take the pole term in expm1 form


def _phi(u: np.ndarray, u_max: float, d: int) -> np.ndarray:
    """phi(u) = expm1(u) / u = sum u^k / (k + 1)! (d = 0) or phi'(u) (d = 1) on
    the array u, |u| <= u_max, by Horner with the terms down to eps/16 at u_max."""
    n, bound = 1, u_max
    while bound >= _EPS / 16:
        n += 1
        bound *= u_max / (n + 1)
    coefs = [(k + 1) ** d / math.factorial(k + 1 + d) for k in range(n + 1)]
    series = np.full(u.shape, coefs[n], dtype=complex)
    for c in reversed(coefs[:n]):
        series = series * u + c
    return series


def _em_eval(s, a: np.ndarray, N: int, K: int, want_ds: bool):
    """Euler-Maclaurin evaluation of zeta(s, a) (and d/ds) for an array of a.

    s is one complex, giving results of shape (A,), or an array of shape
    (C,), giving results of shape (C, A) whose rows are bit for bit the
    scalar calls.  Returns (vals, dvals, absacc): dvals is None unless
    want_ds; absacc holds the summed magnitudes behind the rounding estimate.
    Within _POLE_DISK of s = 1 (a batch's first point decides) each entry
    leaves out the pole 1/(s - 1), which chi's weights cancel: the rest,
    x^(1-s) / (s - 1) - 1/(s - 1), is -log x phi(u) with u = (1 - s) log x,
    |u| < _POLE_DISK log(N + 1), and its d/ds log^2 x phi'(u).
    """
    batch = isinstance(s, np.ndarray)
    near = abs((s[0] if batch else s) - 1.0) < _POLE_DISK
    if batch:
        s = np.asarray(s, dtype=complex)[:, None]  # (C, 1) against a's (A,)
        s_n = s[:, :, None]  # (C, 1, 1) against the (A, N) summands
        # the Pochhammer factors per point, stacked as (K, C, 1): row j - 1
        # holds (s)_{2j-1} of every point, contiguous like a (C, 1) array
        polys = [_pochhammer(z, K) for z in s[:, 0].tolist()]
        P = np.ascontiguousarray(np.array([p for p, _ in polys]).T)[:, :, None]
        dP = np.ascontiguousarray(np.array([d for _, d in polys]).T)[:, :, None]
    else:
        s_n = s
        P, dP = _pochhammer(s, K)
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

    if near:
        u, u_max = (1.0 - s) * logx, _POLE_DISK * math.log(N + 1.0)
        main1 = -logx * _phi(u, u_max, 0)
    else:
        xp1ms = np.exp((1.0 - s) * logx)
        main1 = xp1ms / (s - 1.0)
    xpms = np.exp(-s * logx)
    main2 = 0.5 * xpms
    vals = psum + main1 + main2
    absacc = absacc + np.abs(main1) + np.abs(main2)
    dvals = None
    if want_ds:
        if near:
            dmain1 = logx * logx * _phi(u, u_max, 1)
        elif batch:  # CPython's complex power and quotient, as a scalar call has them
            inv_sq = np.array([1.0 / (z - 1.0) ** 2 for z in s[:, 0].tolist()])[:, None]
            dmain1 = xp1ms * (-logx / (s - 1.0) - inv_sq)
        else:
            dmain1 = xp1ms * (-logx / (s - 1.0) - 1.0 / (s - 1.0) ** 2)
        dmain2 = -0.5 * logx * xpms
        dvals = dsum + dmain1 + dmain2

    # Bernoulli corrections: coef_j * (s)_{2j-1} * x^(-s-2j+1), in place
    xpow = np.exp((-s - 1.0) * logx)
    x2 = x * x
    buf = np.empty(absacc.shape)
    for j in range(K):
        c = _em_coef(j + 1)
        term = c * P[j] * xpow  # c is real, so NumPy rounds c * P as CPython does
        vals += term
        absacc += np.abs(term, out=buf)
        if want_ds:
            dvals += c * xpow * (dP[j] - logx * P[j])
        if j < K - 1:
            xpow /= x2
    return vals, dvals, absacc


def _hurwitz_core(s: complex, a: np.ndarray, want_ds: bool, tol: float):
    """(vals, dvals, errs, errs_ds, rem): engine with per-point error estimates
    for the per-residue hurwitz_zeta, (N, K) from _choose_em_params; PoleError
    at s = 1, the pole of every zeta(s, a), reported before the shifts.

    errs combine the proven remainder bound with a conservative rounding
    term; rem is the remainder bound alone (what the (N, K) policy controls).
    Near s = 1 it adds back the pole terms the engine leaves out.
    """
    s = complex(s)
    if s == 1.0:
        raise PoleError("Hurwitz zeta pole at s = 1")
    a = np.atleast_1d(np.asarray(a, dtype=float))
    if np.any(a <= 0.0) or np.any(a > 1.0):
        raise DomainError("shift parameter a must lie in (0, 1]")
    N, K, rem = _choose_em_params(s, float(a.min()), tol)
    vals, dvals, absacc = _em_eval(s, a, N, K, want_ds)
    errs, errs_ds = _em_errs(rem, _em_rounding(s, N), N, K, absacc, want_ds)
    z = s - 1.0
    if abs(z) < _POLE_DISK:  # add 1/z and -1/z^2 back, charging their rounding
        vals, errs = vals + 1.0 / z, errs + 4 * _EPS / abs(z)
        if want_ds:
            dvals, errs_ds = dvals - 1.0 / (z * z), errs_ds + 8 * _EPS / abs(z) ** 2
    return vals, dvals, errs, errs_ds, rem


def _em_rounding(s: complex, N: int) -> float:
    """The relative rounding an engine result at s charges to absacc: 8 eps
    for the sums, plus 2 eps (|s| + 1) log(N + 2) for the phases.

    Every term exponentiates a multiple of log x with x = n + a <= N + 1:
    -s log x for the summands, (1 - s) log x and (-s - 1) log x for the
    closing and Bernoulli terms.  np.log is within one ulp (relative eps),
    and the product w * log x rounds each of its parts once (eps/2), and
    1 - s or -s - 1 once more (eps/2 of |w|), so the exponent is off by at
    most 2 eps |w| log x <= 2 eps (|s| + 1) log(N + 2), which exp turns into
    the same relative error of the term.  |s| is a Python float per point,
    so a batch row charges the scalar call's bytes."""
    return 8 * _EPS + 2 * _EPS * (abs(s) + 1.0) * math.log(N + 2.0)


def _em_errs(rem, rnd, N: int, K: int, absacc: np.ndarray, want_ds: bool):
    """(errs, errs_ds) of one engine result: the remainder bound rem plus the
    rounding rnd * absacc per shift a (rnd from _em_rounding); errs_ds is
    None unless want_ds.  rem and rnd may be floats (absacc of shape (A,))
    or (C, 1) arrays (absacc of shape (C, A)); each row then equals the
    scalar call bit for bit."""
    errs = rem + rnd * absacc
    if not want_ds:
        return errs, None
    # differentiated series: remainder and rounding pick up roughly a log x
    # factor (the terms are multiplied by log(n + a) <= log(N + 2))
    errs_ds = rem * (math.log(N + 1.0) + 2.0 * (2 * K + 1)) + rnd * absacc * (
        math.log(N + 2.0) + 1.0
    )
    return errs, errs_ds


_BATCH_ENTRIES = 1 << 16  # bounds a batch chunk's C * A * N engine entries (1 MiB of complex)


def _hurwitz_core_many(S, params, a: np.ndarray, want_ds: bool):
    """At each point of the list S, whose (N, K, rem) _choose_em_params gave
    as params, the engine's (vals, dvals) and the sums over a of _em_errs's
    errs and errs_ds (floats; errs_ds None unless want_ds), yielded as
    (i, tuple) and bit for bit the scalar calls: the points are grouped by
    (N, K) and side of _POLE_DISK, and each group goes through the engine's
    array form in chunks of at most _BATCH_ENTRIES entries of C * A * N; one
    point alone takes the scalar form, which costs a fraction of a one-row batch.
    A chunk's bars are summed once, a row each (errs.sum(axis=1) is
    np.sum of each row, bit for bit).  a holds valid shifts.  Every row is
    a view of its chunk's arrays, so a consumer that keeps a row keeps its
    chunk."""
    if len(S) == 1:
        N, K, rem = params[0]
        vals, dvals, absacc = _em_eval(S[0], a, N, K, want_ds)
        errs, errs_ds = _em_errs(rem, _em_rounding(S[0], N), N, K, absacc, want_ds)
        yield 0, (vals, dvals, float(errs.sum()), None if errs_ds is None else float(errs_ds.sum()))
        return
    groups: dict = {}
    for i, (N, K, _) in enumerate(params):
        groups.setdefault((N, K, abs(S[i] - 1.0) < _POLE_DISK), []).append(i)
    for (N, K, _), idx in groups.items():
        step = max(1, _BATCH_ENTRIES // (len(a) * N))
        for start in range(0, len(idx), step):
            chunk = idx[start:start + step]
            vals, dvals, absacc = _em_eval(np.array([S[i] for i in chunk], dtype=complex),
                                           a, N, K, want_ds)
            rem = np.array([params[i][2] for i in chunk])[:, None]
            rnd = np.array([_em_rounding(S[i], N) for i in chunk])[:, None]
            errs, errs_ds = _em_errs(rem, rnd, N, K, absacc, want_ds)
            err = errs.sum(axis=1).tolist()
            err_ds = None if errs_ds is None else errs_ds.sum(axis=1).tolist()
            for r, i in enumerate(chunk):
                yield i, (vals[r], None if dvals is None else dvals[r], err[r],
                          None if err_ds is None else err_ds[r])


def _em_remainder_grid(sigma_min: float, s_abs_max: float, K: int, x_min: float) -> float:
    """Conservative remainder bound valid for every s in a grid chunk (sigma_min > 0)."""
    log_poch = sum(math.log(i + s_abs_max) for i in range(2 * K + 1))
    lead = math.log(abs(_em_coef(K + 1))) + log_poch
    tail = math.log(max(1.0, (s_abs_max + 2 * K + 1) / (sigma_min + 2 * K + 1)))
    return _em_bound((lead, -sigma_min - 2 * K - 1, tail), math.log(x_min))


# ----------------------------------------------------------------------
# Hurwitz sums on a product grid of sigma x t

_GRID_TOL = 1e-12  # target of each grid value's remainder bound
_GRID_N_CAP = 4000
_GRID_K_CAP = 40
_GRID_ENTRIES = 1 << 17  # bounds a chunk's transient arrays (2 MiB of complex each)
_EPS_LD = float(np.finfo(np.longdouble).eps)
_TWO_PI_LD = 8 * np.arctan(np.longdouble(1))


def _grid_params(sigma_min: float, s_abs_max: float, x_min: float, scale: float,
                 log_q: float, want_ds: bool) -> tuple[int, int, float]:
    """(N, K, rem) for a grid with Re s >= sigma_min > 0 and |s| <= s_abs_max.

    rem = scale q^-sigma_min _em_remainder_grid(sigma_min, s_abs_max, K, N + x_min),
    times log(N + 2) + 2 (2K + 1) + log q for d/ds, bounds the remainder of
    every grid value.  Of the pairs with rem <= _GRID_TOL and N <= 4000 the one
    with the shortest contraction N + 2K per residue wins, the smaller K on ties.
    """
    tol = _GRID_TOL
    best = None
    log_poch, i = 0.0, 0  # log_poch = sum of log(s_abs_max + i), i <= 2K
    for K in range(1, _GRID_K_CAP + 1):
        # N >= 1, so no larger K can win; and the t-side holds t^(2K - 1)
        if best is not None and 2 * K + 1 >= best[0] or \
                (2 * K - 1) * math.log(s_abs_max + 1.0) > 600.0:
            break
        while i <= 2 * K:
            log_poch += math.log(s_abs_max + i)
            i += 1
        dfac = math.log(_GRID_N_CAP + 2.0) + 2 * (2 * K + 1) + log_q if want_ds else 1.0
        log_r = (math.log(abs(_em_coef(K + 1))) + log_poch
                 + math.log(max(1.0, (s_abs_max + 2 * K + 1) / (sigma_min + 2 * K + 1)))
                 + math.log(scale * dfac / tol) - sigma_min * log_q)
        log_x = log_r / (sigma_min + 2 * K + 1)  # rem <= tol once log(N + x_min) >= log_x
        if log_x > math.log(_GRID_N_CAP + x_min):
            continue
        N = max(1, math.ceil(math.exp(log_x) - x_min))
        if best is None or N + 2 * K < best[0]:
            best = (N + 2 * K, N, K)
    if best is not None:
        _, N, K = best
        while N <= _GRID_N_CAP:  # the closed form above can miss by a rounding
            dfac = math.log(N + 2.0) + 2 * (2 * K + 1) + log_q if want_ds else 1.0
            rem = scale * math.exp(-sigma_min * log_q) * dfac * \
                _em_remainder_grid(sigma_min, s_abs_max, K, N + x_min)
            if rem <= tol:
                return N, K, rem
            N += 1
    raise PrecisionLossError(f"hurwitz_grid: tol {tol} unreachable with N <= {_GRID_N_CAP}",
                             math.inf)


def _pochhammer_coefs(sigma: np.ndarray, K: int) -> np.ndarray:
    """out[j - 1, i, k]: the coefficient of tau^k in (sigma_i + tau)_{2j-1},
    j = 1..K; all are >= 0 for sigma_i > 0."""
    out = np.empty((K, len(sigma), 2 * K))
    poly = np.zeros((len(sigma), 2 * K))
    poly[:, 0] = 1.0
    for i in range(2 * K - 1):  # multiply by (sigma + i + tau)
        poly[:, 1:] = poly[:, 1:] * (sigma + i)[:, None] + poly[:, :-1]
        poly[:, 0] *= sigma + i
        if i % 2 == 0:
            out[i // 2] = poly
    return out


def _phases(log_m: np.ndarray, t: np.ndarray) -> np.ndarray:
    """exp(-i t log m) of shape (M, T), from log m in long double: t log m is
    reduced mod 2 pi before it is rounded, so each phase is off by at most
    about 4 eps_ld |t| log m + 2 eps, not eps |t| log m."""
    theta = np.multiply.outer(log_m, t.astype(np.longdouble))
    theta -= np.rint(theta / _TWO_PI_LD) * _TWO_PI_LD
    theta = theta.astype(float)
    out = np.empty(theta.shape, dtype=complex)
    out.real = np.cos(theta)
    out.imag = -np.sin(theta)
    return out


def _pole_near(z: np.ndarray, w: np.ndarray, log_x: np.ndarray, q: int, want_ds: bool):
    """The pole term sum_a w_a X_a^(1-s) / (q (s - 1)), or its d/ds, for s = 1 + z
    near 1, and the summed magnitudes behind its rounding.

    As sum_a w_a = 0 the term equals (1/q) sum_a w_a expm1(u_a) / z with
    u_a = -z log X_a, that is -(1/q) sum_a w_a log X_a phi(u_a) where
    phi(u) = expm1(u) / u; its d/ds is (1/q) sum_a w_a log^2 X_a phi'(u_a),
    both from _phi, as in _em_eval.  Neither cancels the way
    X^(1-s) / (s - 1) does across the residues.
    """
    u = -np.multiply.outer(z, log_x)
    d = 1 if want_ds else 0
    weight = log_x ** (1 + d) / q
    val = (_phi(u, float(np.abs(u).max()), d) * weight) @ w * (1.0 if want_ds else -1.0)
    mag = (np.exp(np.abs(u)) * weight) @ np.abs(w)
    return val, mag


def hurwitz_grid(sigma: np.ndarray, t: np.ndarray, q: int, f: np.ndarray,
                 rows: np.ndarray, cols: np.ndarray, want_ds: bool = False):
    """Z(s) = sum_{m >= 1} f(m) m^-s = q^-s sum_{a=1}^{q} f(a) zeta(s, a/q), or
    Z'(s), at the points sigma[rows] + i t[cols] of the grid sigma x t (all
    sigma > 0), for q-periodic f (f(m) = f[m % q]) summing to 0 over a period.

    Returns (vals, errs) in the order of rows and cols; errs bound the
    Euler-Maclaurin remainder plus the rounding of each value.  With
    m = nq + a, X_a = Nq + a and x_a = X_a / q, Euler-Maclaurin gives

      Z(s) = sum_{m < Nq} f(m) m^-s + sum_a f(a) X_a^-s
               * (x_a / (s - 1) + 1/2 + sum_{j=1}^{K} c_j x_a^(1-2j) (s)_{2j-1}) + R.

    Every piece but the pole term x_a / (s - 1) splits into a sigma factor
    times a t factor: m^-s = m^-sigma exp(-i t log m), and (s)_{2j-1} is a
    polynomial in tau = i t whose coefficients depend on sigma alone.  So a
    chunk of the grid is one real matrix product, sigma-rows (m^-sigma, and
    X_a^-sigma times the tau-coefficients) against t-columns (f(m)
    exp(-i t log m), and f(a) tau^k exp(-i t log X_a)), and the pole term is
    a second product of A columns.  Requested points within _POLE_DISK of
    s = 1 take the pole term from _pole_near, where the separated form would
    cancel (as f sums to 0, Z is entire, s = 1 included); the other entries
    of the product are computed but not used.

    Raises DomainError for sigma <= 0 or f that does not sum to 0, and
    PrecisionLossError when no N <= 4000 brings the remainder bound to _GRID_TOL.
    """
    sigma = np.asarray(sigma, dtype=float).ravel()
    t = np.asarray(t, dtype=float).ravel()
    rows, cols = np.asarray(rows).ravel(), np.asarray(cols).ravel()
    if not sigma.min() > 0.0:
        raise DomainError("hurwitz_grid serves only Re s > 0")
    f = np.asarray(f, dtype=complex)
    a = np.flatnonzero(f[np.arange(1, q + 1) % q]) + 1
    w = f[a % q]
    if abs(w.sum()) > 1e-12 * float(np.abs(w).sum()):
        raise DomainError("hurwitz_grid needs f summing to 0 over a period")
    A, log_q = len(a), math.log(q)
    N, K, rem = _grid_params(float(sigma.min()), float(np.hypot(sigma.max(), np.abs(t).max())),
                             a[0] / q, float(np.abs(w).sum()), log_q, want_ds)
    AN = A * N
    ints = np.concatenate([(np.arange(N)[:, None] * q + a).ravel(), N * q + a])
    log_ld = np.log(ints.astype(np.longdouble))  # the phase rows: m < Nq, then X_a
    logs = log_ld.astype(float)
    log_m, log_x = logs[:AN], logs[AN:]
    w_all = np.concatenate([np.tile(w, N), w])
    absw_m = np.abs(w_all[:AN])
    x = (N * q + a) / q
    js = np.arange(1, K + 1)[:, None]
    C = np.array([_em_coef(j) for j in range(1, K + 1)])[:, None] * x ** (1 - 2 * js)
    tau_deg = np.arange(2 * K)
    M = AN + 2 * K * A  # contraction length of the main product

    # factor matrices of at most _GRID_ENTRIES entries; the dozen or so arrays
    # of one value per point of a chunk share another _GRID_ENTRIES
    sig_chunk = max(1, min(len(sigma), _GRID_ENTRIES // M))
    t_chunk = max(1, min(_GRID_ENTRIES // M, _GRID_ENTRIES // (16 * sig_chunk)))
    n_tchunks = -(-len(t) // t_chunk)
    # the requested points by chunk; a grid scanned row by row is in order already
    block = (rows // sig_chunk).astype(np.int64)  # rows may be 32-bit; block ids need not fit
    block *= n_tchunks
    block += cols // t_chunk
    order = None
    if not (block[1:] >= block[:-1]).all():
        order = np.argsort(block, kind="stable")
        block = block[order]
    cuts = np.flatnonzero(block[1:] != block[:-1]) + 1
    starts, ends = np.r_[0, cuts], np.r_[cuts, len(block)]

    vals = np.empty(len(rows), dtype=complex)
    errs = np.empty(len(rows))
    cur = None
    for b0, b1 in zip(starts, ends):
        blk = int(block[b0])
        si, ti = divmod(blk, n_tchunks)
        r0, c0 = si * sig_chunk, ti * t_chunk
        if si != cur:  # the sigma side of this chunk of rows
            cur = si
            sg = sigma[r0:r0 + sig_chunk]
            D = np.exp(-np.multiply.outer(sg, log_m))
            if want_ds:
                D *= -log_m
            xs = np.exp(-np.multiply.outer(sg, log_x))  # X_a^-sigma
            H = _pochhammer_coefs(sg, K).transpose(1, 2, 0) @ C  # (sigma, tau^k, a)
            H[:, 0, :] += 0.5
            if want_ds:  # d/ds = d/dtau on the tau-polynomial, and -log X_a on X_a^-s
                Hd = np.zeros_like(H)
                Hd[:, :-1, :] = H[:, 1:, :] * tau_deg[1:, None]
                H = Hd - log_x * H
            V = xs[:, None, :] * H
            W = np.concatenate([D, V.reshape(len(sg), 2 * K * A)], axis=1)
            P = x * xs
            Pm = np.concatenate([P, P * log_x]) if want_ds else P
            acc0, acc1 = (np.abs(D) @ np.stack([absw_m, absw_m * log_m], axis=1)).T
            v_acc = np.abs(V) @ np.abs(w)
            p_acc = P @ np.abs(w)
            pl_acc = (P * log_x) @ np.abs(w)
        tc = t[c0:c0 + t_chunk]
        E = _phases(log_ld, tc)
        E *= w_all[:, None]
        EX = E[AN:]
        tau_pow = (1j * tc) ** tau_deg[:, None]
        side = np.concatenate([E[:AN], (tau_pow[:, None, :] * EX).reshape(2 * K * A, len(tc))])
        main = (W @ side.view(float)).view(complex)
        pole = (Pm @ EX.view(float)).view(complex)
        tail = v_acc @ np.abs(tau_pow)

        idx = slice(b0, b1) if order is None else order[b0:b1]
        r, c = rows[idx] - r0, cols[idx] - c0
        z = sg[r] - 1.0 + 1j * tc[c]
        p_mag = np.empty(len(z))
        p_val = np.empty(len(z), dtype=complex)
        far = np.abs(z) >= _POLE_DISK
        zf, rf, cf = z[far], r[far], c[far]
        if want_ds:
            p_val[far] = -pole[len(sg) + rf, cf] / zf - pole[rf, cf] / (zf * zf)
            p_mag[far] = pl_acc[rf] / np.abs(zf) + p_acc[rf] / np.abs(zf) ** 2
        else:
            p_val[far] = pole[rf, cf] / zf
            p_mag[far] = p_acc[rf] / np.abs(zf)
        if not far.all():
            p_val[~far], p_mag[~far] = _pole_near(z[~far], w, log_x, q, want_ds)
        vals[idx] = main[r, c] + p_val
        mag = acc0[r] + tail[r, c] + p_mag
        mag_log = acc1[r] + float(log_x.max()) * (tail[r, c] + p_mag)
        errs[idx] = rem + 8 * _EPS * mag + (_EPS * sg[r] + 4 * _EPS_LD * np.abs(tc[c])) * mag_log
    return vals, errs


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
