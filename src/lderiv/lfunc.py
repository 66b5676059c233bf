"""Evaluation of L(s,chi), L'(s,chi), the functional-equation factor, and
the normalized derivative G(s,chi) = -m^s/(chi(m) log m) * L'(s,chi).

Continuation strategy (route="auto"):

  Re s >= 2   direct Dirichlet series, truncated where the Abel-summation
              tail bound meets the accuracy target, where that cutoff is
              at most the A (N + 2K) terms of a Hurwitz pass (A residues,
              (N, K) the Euler-Maclaurin pair at s); else the Hurwitz route;
  0 <= Re s < 2   q^(-s) * sum_a chi(a) zeta(s, a/q) via Euler-Maclaurin
              Hurwitz zeta, whose entries near s = 1 leave out the pole
              1/(s - 1) that the weights chi(a) cancel, forced or not;
  Re s < 0    the functional equation L(s,chi) = F(s,chi) L(1-s, conj chi),
              with L(1-s) evaluated in the half-plane Re >= 1 by the two
              routes above.

The Hurwitz route degrades in IEEE double as Re s decreases (the
Euler-Maclaurin pieces grow like (N+a)^|sigma| while the value does not,
so digits cancel); switching to the functional equation below Re s = 0
keeps every evaluation at the 1e-9 * (1 + |L|) error contract.  Tests
cross-check the two routes on the overlap band where both are accurate.

Every route can be forced explicitly (route="series" | "hurwitz" | "fe")
so dual-route comparisons never silently collapse into one code path.

Every value goes through one planner, _eval_block (behind _eval_many),
with the route as its parameter: eval_L and eval_Lprime are one-point
calls of it, eval_L_point and eval_L_points its pair form.  On the auto
route each point is looked up in the point cache, and the values not
cached are evaluated and cached under their own (q, label, s, deriv) keys;
a forced route touches no cache.  A one-point call whose values are all
cached returns them without planning a block.  The auto route also looks
each Hurwitz pass up in the pass cache (_PassCache): the engine row of a
pass at s depends on q and s alone, so once a second label of the modulus
in hand has asked for a pass, the rows are kept while they fit a byte
budget, none evicted, and serve every character mod q at s with its own
weights, the bytes of its own pass.  A pass of another modulus drops them,
and a pass it serves chooses no Euler-Maclaurin (N, K).
L and L' at the same point come from one pass of a route: one
Euler-Maclaurin engine result (whose d/ds pass yields L bit for bit), one
set of Dirichlet-series terms summed to each value's own cutoff, or one
F(s) with one L(1-s), L'(1-s) pair, which is not cached.  The series
route sums its terms in the order of np.add.reduce's pairwise tree, over
chunks of 400 000 terms, building one leaf of at most 2^14 terms at a
time: the bytes of summing each chunk as one array, in a small fraction
of its memory (see _eval_series).  The Hurwitz-engine
work of a block of points -- the Hurwitz route and the functional
equation's inner L(1-s), L'(1-s), s = 1 included -- goes through the engine
in one call per chunk of points that share (N, K) (one point alone takes
the engine's scalar form); the series route and F(s) stay one call per
point.  Every value and bar is the same bytes however the points are batched.

Only eval_L_grid and eval_Lprime_grid, never the planner, take the grid
engine: points with Re s > 0 in the window, outside the point cache, in
one special.hurwitz_grid call over the distinct real x imaginary parts.
(The zero oracle reads the engine's blocks, values and error bounds,
straight from special._grid_blocks.)
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .characters import DirichletCharacter
from .errors import DomainError, NearZeroError, NumericalError, PoleError, PrecisionLossError
from .numtypes import ComplexValue
from .special import (
    _EPS,
    _choose_em_params,
    _digamma,
    _em_candidates,
    _hurwitz_core_many,
    hurwitz_grid,
    log_gamma,
    primes_up_to,
    prime_tail_bound,
)

__all__ = [
    "LPoint",
    "FunctionalEquationFactor",
    "eval_L",
    "eval_Lprime",
    "eval_L_point",
    "eval_L_points",
    "eval_F",
    "eval_logderiv_via_fteq",
    "eval_G",
    "gest_bound",
    "re_logderiv_critical",
    "logderiv_euler_product",
    "eval_L_grid",
    "eval_Lprime_grid",
    "clear_cache",
]

# evaluation window; beyond it the double-precision error contract is void
SIGMA_MAX = 81.0
T_MAX = 101.0
Q_MAX = 1000

NOISE_FLOOR = 1e-6  # |L| <= floor * (1 + |L'|) flags a near-zero of L

_SERIES_TERM_CAP = 3_000_000


@dataclass(frozen=True)
class LPoint:
    """L and L' at one point, with the log-derivative when it is usable."""

    s: complex
    L: ComplexValue
    Lprime: ComplexValue
    logderiv: Optional[ComplexValue]
    err: float

    @property
    def near_zero_of_L(self) -> bool:
        return self.logderiv is None


@dataclass(frozen=True)
class FunctionalEquationFactor:
    """F(s,chi) with L(s,chi) = F(s,chi) L(1-s, conj chi), plus F'/F and eps(chi)."""

    s: complex
    F: ComplexValue
    F_logderiv: ComplexValue
    epsilon: ComplexValue


# ----------------------------------------------------------------------
# the point cache: (q, label, s, deriv) -> ComplexValue of the auto route

_POINT_CACHE: dict = {}
_CACHE_CAP = 600_000

_PAIR = (False, True)  # the derivs of a one-pass (L, L') request


def clear_cache() -> None:
    """Empty the point cache and the pass cache, and forget the modulus in
    hand: the passes are shared again only once a second label of one
    modulus asks."""
    _POINT_CACHE.clear()
    _PASSES.clear()


def _cache_key(chi: DirichletCharacter, s: complex, deriv: bool) -> tuple:
    return (chi.q, chi.label, s, deriv)


def _cache_put(key, val):
    if len(_POINT_CACHE) >= _CACHE_CAP:
        _POINT_CACHE.clear()
    _POINT_CACHE[key] = val


# ----------------------------------------------------------------------
# the pass cache: (q, s) -> the engine row of a Hurwitz pass at s

_ROW_OVERHEAD = 400  # bytes charged to a stored row besides its arrays


class _PassCache:
    """Engine rows of Hurwitz passes, shared by the characters of the
    modulus in hand.

    A row is what special._hurwitz_core_many yields for one point: the
    per-residue values, the d/ds values or None, and the two summed bars.
    It depends on q and s alone -- the residues a/q and the engine's
    (N, K, rem) -- so every character mod q takes a stored row with its own
    weights (_hurwitz_values) and gets the bytes its own pass would give.
    A row without d/ds serves no L'.  Once a second label of the modulus
    has asked for a pass, each row is stored as a copy (the engine's is a
    view that keeps its whole chunk), charged its arrays' bytes plus
    _ROW_OVERHEAD, while it fits the budget.  None is evicted: a walker
    asks for its contour in the same order for every character, so the
    first rows kept serve the next one first.  A block of another modulus
    drops every row."""

    def __init__(self, budget: int):
        self.budget = budget
        self.rows: dict = {}  # (q, s) -> (row, bytes charged)
        self.clear()

    def clear(self) -> None:
        self.rows.clear()
        self.nbytes = 0
        self.q = self.first = None  # the modulus in hand and its first label to ask
        self.shared = False  # whether a second label of q has asked

    def sharing(self, chi: DirichletCharacter) -> bool:
        """Whether a second label of chi.q has asked for a pass since the
        last clear or change of modulus, counting chi's ask."""
        if chi.q != self.q:
            self.clear()
            self.q, self.first = chi.q, chi.label
        elif chi.label != self.first:
            self.shared = True
        return self.shared

    def lookup(self, q: int, s: complex, want_ds: bool):
        """The stored row at (q, s), if it has d/ds when want_ds, or None."""
        got = self.rows.get((q, s))
        if got is None or (want_ds and got[0][1] is None):
            return None
        return got[0]

    def store(self, q: int, s: complex, row: tuple) -> None:
        """Keep a copy of the engine row at (q, s) in place of any stored
        there, if it fits the budget."""
        vals, dvals, err, err_ds = row
        size = vals.nbytes + (0 if dvals is None else dvals.nbytes) + _ROW_OVERHEAD
        self.nbytes -= self.rows.pop((q, s), (None, 0))[1]
        if self.nbytes + size <= self.budget:
            self.rows[q, s] = ((vals.copy(), None if dvals is None else dvals.copy(), err, err_ds), size)
            self.nbytes += size


_PASSES = _PassCache(1 << 20)


def _check_window(chi: DirichletCharacter, s: complex) -> None:
    if not cmath.isfinite(s):
        raise DomainError(f"point s={s} is not finite")
    if chi.q > Q_MAX or abs(s.real) > SIGMA_MAX or abs(s.imag) > T_MAX:
        raise PrecisionLossError(
            f"point s={s}, q={chi.q} outside the supported window", math.inf
        )


# ----------------------------------------------------------------------
# direct Dirichlet series (Re s >= 2)

def _series_cutoff(chi: DirichletCharacter, s: complex, with_log: bool, tol: float) -> int:
    """Smallest N with the Abel tail bound below tol (see module tests)."""
    sigma = s.real
    H = 2.0 * chi.data.max_partial_sum + 1e-9
    if with_log:
        n = 100.0
        for _ in range(4):
            c = H * (1.0 / sigma + abs(s) * (math.log(n) / sigma + sigma ** -2))
            n = (c / tol) ** (1.0 / sigma)
        return int(n) + 2
    c = H * abs(s) / sigma
    return int((c / tol) ** (1.0 / sigma)) + 2


def _series_tail_bound(chi: DirichletCharacter, s: complex, with_log: bool, N: int) -> float:
    sigma = s.real
    H = 2.0 * chi.data.max_partial_sum + 1e-9
    if with_log:
        return H * N ** -sigma * (1.0 / sigma + abs(s) * (math.log(N) / sigma + sigma ** -2))
    return H * abs(s) / sigma * N ** -sigma


def _series_cutoffs(chi: DirichletCharacter, s: complex, derivs: tuple) -> tuple:
    """The series cutoff at s of each entry of derivs (see _series_cutoff)."""
    if s.real < 1.5:
        raise DomainError("direct series route needs Re s >= 1.5")
    return tuple(_series_cutoff(chi, s, deriv, 3e-10) for deriv in derivs)


_SERIES_CHUNK = 400_000  # terms of a series pass summed into its totals at a time
_TREE_LEAF = 1 << 14  # the most terms of a leaf of a chunk's sum, built as one array


def _tree_split(L: int, cplx: bool) -> int:
    """Where the pairwise sum that np.add.reduce walks splits a node of L
    terms: at (L - L % 8) // 2 for complex128 (a node of 2L doubles), at
    L // 2 - (L // 2) % 8 for float64."""
    return (L - L % 8) // 2 if cplx else L // 2 - (L // 2) % 8


def _pairwise_leaves(L: int, cplx: bool = True, start: int = 0) -> list:
    """The leaves (start, stop) of the pairwise tree that np.add.reduce walks
    to sum L complex128 (or float64) terms from start on, cut at nodes of at
    most _TREE_LEAF terms."""
    if L <= _TREE_LEAF:
        return [(start, start + L)]
    h = _tree_split(L, cplx)
    return _pairwise_leaves(h, cplx, start) + _pairwise_leaves(L - h, cplx, start + h)


def _pairwise_total(L: int, sums, cplx: bool = True):
    """The np.add.reduce sum of L complex128 (or float64) terms from the sums
    of the leaves of _pairwise_leaves(L, cplx) (an iterator, in that order),
    added up the same tree: the same bytes as summing the L terms at once."""
    if L <= _TREE_LEAF:
        return next(sums)
    h = _tree_split(L, cplx)
    return _pairwise_total(h, sums, cplx) + _pairwise_total(L - h, sums, cplx)


class _TreeSum:
    """np.add.reduce's sum of m complex128 terms, or of their float64
    magnitudes (mag), fed the terms in consecutive pieces and walked one
    leaf of its pairwise tree at a time: a leaf is summed once its terms
    are in, from a buffer unless it is one piece of terms."""

    def __init__(self, m: int, mag: bool = False):
        self.m, self.mag = m, mag
        self.leaves = _pairwise_leaves(m, not mag)
        self.sums: list = []
        self.buf = None

    def add(self, start: int, x) -> None:
        """Take the terms start, start + 1, ..., start + len(x) - 1."""
        a, b = start, start + len(x)
        while a < b:
            lo, hi = self.leaves[len(self.sums)]
            c = min(b, hi)
            leaf = x[a - start:c - start]
            if self.mag or (a, c) != (lo, hi):
                if self.buf is None:
                    self.buf = np.empty(_TREE_LEAF, float if self.mag else complex)
                if self.mag:
                    np.abs(leaf, out=self.buf[a - lo:c - lo])
                else:
                    self.buf[a - lo:c - lo] = leaf
                leaf = self.buf[:hi - lo]
            if c == hi:
                self.sums.append(float(leaf.sum()) if self.mag else complex(leaf.sum()))
            a = c

    def total(self):
        return _pairwise_total(self.m, iter(self.sums), not self.mag)


def _series_chunk(table, q: int, s: complex, start: int, derivs: tuple, ms: list) -> list:
    """(sum, sum of magnitudes) of the terms n = start, ..., start + m - 1
    of each entry of derivs and its m in ms (None where m <= 0), each sum
    walked one leaf of its own pairwise tree at a time (_TreeSum): chi(n)
    is table[n mod q], and each piece between the union of the complex
    trees' leaf boundaries is computed once, in arrays of one leaf kept for
    the chunk."""
    trees = [(_TreeSum(m), _TreeSum(m, mag=True)) if m > 0 else () for m in ms]
    steps = np.arange(_TREE_LEAF, dtype=float)
    logn, neglog = np.empty(_TREE_LEAF), np.empty(_TREE_LEAF)
    base, dterms = np.empty(_TREE_LEAF, complex), np.empty(_TREE_LEAF, complex)
    a = 0
    for b in sorted({hi for t in trees if t for _, hi in t[0].leaves}):
        k, r = b - a, (start + a) % q
        lg = np.log(np.add(steps[:k], start + a, out=logn[:k]), out=logn[:k])
        bk = np.exp(np.multiply(-s, lg, out=base[:k]), out=base[:k])
        np.multiply(table[r:r + k], bk, out=bk)
        for deriv, m, t in zip(derivs, ms, trees):
            if a < m:
                terms = (np.multiply(bk, np.negative(lg, out=neglog[:k]), out=dterms[:k])
                         if deriv else bk)
                for tree in t:
                    tree.add(a, terms)
        a = b
    return [tuple(tree.total() for tree in t) or None for t in trees]


def _eval_series(chi: DirichletCharacter, s: complex, derivs: tuple, Ns: tuple) -> tuple:
    """sum chi(n) n^-s  (or -sum chi(n) log n n^-s), certified Abel tail.

    One value per entry of derivs (False for L, True for L'), each summed over
    its own cutoff N in Ns (from _series_cutoffs) from one set of terms
    chi(n) n^-s.  Each bar is the tail bound plus the rounding of the sum,
    (8e-16 + 2 eps |s| log N) times the summed magnitudes: np.log(n) is
    within one ulp (relative eps) and s * log n rounds each of its parts
    once (eps/2), so the exponent of n^-s is off by at most
    1.5 eps |s| log n <= 2 eps |s| log N, which exp turns into the same
    relative error of the term.

    The terms go _SERIES_CHUNK at a time into each running total and each
    sum of magnitudes, and a chunk's sum is np.add.reduce's over its terms.
    A chunk whose sums fit in one leaf (_TREE_LEAF terms) is one array of
    terms, chi(n) gathered by n mod q; a larger one is summed on the same
    pairwise tree, one leaf of terms at a time (_TreeSum), chi(n) sliced
    from a periodic table, and its magnitudes on float64's own pairwise
    tree.  So every value and bar is the same bytes as one array's sum,
    while a pass holds a few leaves of terms, whatever its length.  A pass
    for L and L' computes each term once: it walks the union of the
    trees' leaf boundaries.
    """
    N_max = max(Ns)
    if N_max > _SERIES_TERM_CAP:
        raise PrecisionLossError("direct series would need too many terms", math.nan)
    vals, q = chi.data.values, chi.q
    table = None  # vals periodic over a leaf from any residue, for chunks of several leaves
    totals = [0j] * len(derivs)
    absaccs = [0.0] * len(derivs)
    for start in range(1, N_max + 1, _SERIES_CHUNK):
        stop = min(N_max + 1, start + _SERIES_CHUNK)
        ms = [min(N + 1, stop) - start for N in Ns]  # each sum's terms in the chunk
        if stop - start <= _TREE_LEAF:
            n = np.arange(start, stop, dtype=float)
            logn = np.log(n)
            base = vals[np.arange(start, stop) % q] * np.exp(-s * logn)
            for i, (deriv, m) in enumerate(zip(derivs, ms)):
                if m <= 0:
                    continue
                terms = base[:m] * (-logn[:m]) if deriv else base[:m]
                totals[i] += complex(terms.sum())
                absaccs[i] += float(np.abs(terms).sum())
            continue
        if table is None:
            table = np.tile(vals, -(-(_TREE_LEAF + q - 1) // q))
        for i, got in enumerate(_series_chunk(table, q, s, start, derivs, ms)):
            if got is not None:
                totals[i] += got[0]
                absaccs[i] += got[1]
    return tuple(
        ComplexValue(total, _series_tail_bound(chi, s, deriv, N)
                     + (8e-16 + 2 * _EPS * abs(s) * math.log(N)) * absacc)
        for deriv, N, total, absacc in zip(derivs, Ns, totals, absaccs)
    )


# ----------------------------------------------------------------------
# Hurwitz route: q^(-s) sum_a chi(a) zeta(s, a/q), differentiated termwise

def _hurwitz_values(chi: DirichletCharacter, s: complex, derivs: tuple,
                    vals, dvals, err: float, err_ds: Optional[float]) -> tuple:
    """The route's values and bars at s, one per entry of derivs, from one
    engine result (special._hurwitz_core_many's: the per-residue values and
    the summed bars): the pass that yields d/ds yields the undifferentiated
    values and bars bit for bit.

    Each bar adds (1e-15 + 2 eps |s| log q) |value| for the factor q^-s:
    math.log(q) is within one ulp (relative eps) and s * log q rounds each
    of its parts once (eps/2), so the exponent is off by at most
    1.5 eps |s| log q, the relative error of q^-s and so of the value."""
    d = chi.data
    rel = 1e-15 + 2 * _EPS * abs(s) * math.log(chi.q)
    qps = cmath.exp(-s * math.log(chi.q))
    zsum = complex(np.dot(d.weights, vals))
    out = []
    for deriv in derivs:
        if deriv:
            val = qps * (complex(np.dot(d.weights, dvals)) - math.log(chi.q) * zsum)
            bar = abs(qps) * (err_ds + math.log(chi.q) * err)
        else:
            val = qps * zsum
            bar = abs(qps) * err
        out.append(ComplexValue(val, bar + rel * abs(val)))
    return tuple(out)


# ----------------------------------------------------------------------
# functional-equation factor

def _cot(w: complex) -> complex:
    if w.imag < 0:
        return _cot(w.conjugate()).conjugate()
    if w.imag > 20.0:
        e = cmath.exp(2j * w)
        return 1j * (e + 1.0) / (e - 1.0)
    return cmath.cos(w) / cmath.sin(w)


def _exp_F(w: complex, s: complex) -> complex:
    """cmath.exp(w) for F or F' at s, whose overflow past double range (far
    left at large q and |Im s|) is PrecisionLossError: the exponential's,
    or that of its modulus, which abs() raises once it passes DBL_MAX."""
    try:
        z = cmath.exp(w)
        abs(z)
        return z
    except OverflowError:
        raise PrecisionLossError(f"F(s, chi) or F' overflows double range at s = {s}",
                                 math.inf) from None


def _F_pieces(chi: DirichletCharacter, s: complex):
    """(F, F', F'/F) as ComplexValues; stable on both half-planes.

    For Re s <= 1/2:  F = eps 2^s pi^(s-1) q^(1/2-s) sin(pi(s+kappa)/2) Gamma(1-s),
    assembled in log space so no intermediate overflows.  For Re s > 1/2 the
    reflection Gamma(1-s) = pi / (sin(pi s) Gamma(s)) gives
    F = eps 2^s pi^s q^(1/2-s) / (2 Gamma(s) trig(pi s/2)) with trig = cos
    for even chi and sin for odd chi, whose poles are explicit.
    """
    eps = chi.data.epsilon
    q, kappa = chi.q, chi.kappa
    leps = 1j * cmath.phase(eps.value)
    lq = math.log(q)
    l2pi_over_q = math.log(2.0 * math.pi / q)
    if s.real <= 0.5:
        w = cmath.pi * (s + kappa) / 2.0
        lbase = leps + s * math.log(2.0) + (s - 1.0) * math.log(math.pi) + (0.5 - s) * lq
        lgam = log_gamma(1.0 - s)
        sv = cmath.sin(w)
        F = 0j if sv == 0 else _exp_F(lbase + lgam + cmath.log(sv), s)
        psi1ms = _digamma(1.0 - s)
        bracket = (l2pi_over_q - psi1ms) * sv + (cmath.pi / 2.0) * cmath.cos(w)
        Fp = 0j if bracket == 0 else _exp_F(lbase + lgam + cmath.log(bracket), s)
        if sv == 0:
            logderiv = complex(math.inf, 0.0)
        else:
            logderiv = l2pi_over_q + (cmath.pi / 2.0) * _cot(w) - psi1ms
    else:
        w = cmath.pi * s / 2.0
        trig = cmath.cos(w) if kappa == 0 else cmath.sin(w)
        lbase = leps + s * math.log(2.0 * math.pi) + (0.5 - s) * lq
        F = _exp_F(lbase - log_gamma(s) - cmath.log(2.0 * trig), s)
        dtrig_over = -cmath.tan(w) if kappa == 0 else _cot(w)
        logderiv = l2pi_over_q - _digamma(s) - (cmath.pi / 2.0) * dtrig_over
        Fp = F * logderiv
    errF = 5e-13 * abs(F) + eps.err * abs(F)
    errFp = 5e-13 * abs(Fp) + eps.err * abs(Fp)
    return (
        ComplexValue(F, errF),
        ComplexValue(Fp, errFp),
        ComplexValue(logderiv, 1e-12 * (1.0 + abs(logderiv))),
    )


def eval_F(chi: DirichletCharacter, s: complex) -> FunctionalEquationFactor:
    """The asymmetric functional-equation factor, its log-derivative, and eps(chi)."""
    s = complex(s)
    _check_window(chi, s)
    if s.imag == 0.0 and s.real >= 1.0 and s.real == round(s.real):
        if (int(s.real) + chi.kappa) % 2 == 1:
            raise PoleError(f"F(s,chi) pole at s = {int(s.real)} (Gamma pole, no sin cancellation)")
    F, Fp, logderiv = _F_pieces(chi, s)
    return FunctionalEquationFactor(s=s, F=F, F_logderiv=logderiv, epsilon=chi.data.epsilon)


# ----------------------------------------------------------------------
# the evaluators: every value comes from the block planner

def _em_pair(chi: DirichletCharacter, s: complex) -> tuple:
    """The engine's (N, K, rem) for a Hurwitz pass at s: 1/q is the smallest
    residue a/q (a = 1)."""
    return _choose_em_params(s, 1.0 / chi.q, 1e-13)


def _upper_parts(chi: DirichletCharacter, s: complex, derivs: tuple) -> tuple:
    """The upper route at s (Re s >= 1): the engine's (N, K, rem) at s, or
    None where the policy did not run, and the passes as (series cutoffs or
    None for Hurwitz, their derivs) in derivs order.

    At Re s >= 2 an entry of derivs takes the Dirichlet series iff its
    cutoff is at most the A (N + 2K) terms of a Hurwitz pass, with A the
    residues and (N, K) the policy's pair at s; below, every entry takes
    Hurwitz.  The policy runs only when some cutoff exceeds A (N + 2K) for
    the smallest of its candidate N and K (special._em_candidates), and its
    pair then serves the Hurwitz pass too.  The choice is made per entry
    (L' needs more series terms than L); entries sharing a route share a pass.
    """
    params = None
    by_series = [False] * len(derivs)
    if s.real >= 2.0:
        A = len(chi.data.residues)
        cuts = _series_cutoffs(chi, s, derivs)
        ns, ks = _em_candidates(s)
        by_series = [n <= A * (ns[0] + 2 * ks[0]) for n in cuts]
        if not all(by_series):
            params = _em_pair(chi, s)
            by_series = [n <= A * (params[0] + 2 * params[1]) for n in cuts]
    if all(by_series):
        return params, [(cuts, derivs)]
    if not any(by_series):
        return params, [(None, derivs)]
    # a pair split between the routes (L' needs more series terms than L)
    return params, [((n,) if series else None, (deriv,))
                    for series, n, deriv in zip(by_series, cuts, derivs)]


def _fe_values(F: ComplexValue, Fp: ComplexValue, inner: tuple, derivs: tuple) -> tuple:
    """The functional equation's values and bars: F(s) L(1-s, conj chi) and
    its derivative F' L(1-s) - F L'(1-s), from F, F' at s and the pass
    (L, [L']) at 1 - s."""
    L2 = inner[0]
    out = []
    for deriv in derivs:
        if not deriv:
            val = F.value * L2.value
            err = abs(F.value) * L2.err + abs(L2.value) * F.err
        else:
            L2p = inner[1]
            val = Fp.value * L2.value - F.value * L2p.value
            err = (
                abs(Fp.value) * L2.err
                + abs(L2.value) * Fp.err
                + abs(F.value) * L2p.err
                + abs(L2p.value) * F.err
            )
        out.append(ComplexValue(val, err + 1e-15 * abs(val)))
    return tuple(out)


_ROUTES = ("series", "hurwitz", "fe")  # the routes a caller may force


def _leaf(leaves: list, chi: DirichletCharacter, s: complex, derivs: tuple,
          params: Optional[tuple] = None) -> int:
    """Defer a Hurwitz pass at s to leaves, with the engine's (N, K, rem)
    for it, or None for _eval_block to choose them if the pass cache does
    not serve it: its index, s = 1 included."""
    leaves.append((chi, s, derivs, params))
    return len(leaves) - 1


def _upper(leaves: list, chi: DirichletCharacter, s: complex, derivs: tuple) -> list:
    """The upper route's passes at s: a value tuple or a leaf index each."""
    params, parts = _upper_parts(chi, s, derivs)
    return [_leaf(leaves, chi, s, part, params) if cuts is None
            else _eval_series(chi, s, part, cuts) for cuts, part in parts]


def _plan(leaves: list, chi: DirichletCharacter, s: complex, derivs: tuple, route: str):
    """(F, F') at s or None, and the route's passes at s (see _upper)."""
    if route == "fe":  # L' needs the pass at 1 - s to yield L and L'
        F, Fp, _ = _F_pieces(chi, s)
        inner = _PAIR if True in derivs else (False,)
        return (F, Fp), _upper(leaves, chi.data.conj, 1.0 - s, inner)
    if route == "upper":
        return None, _upper(leaves, chi, s, derivs)
    if route == "hurwitz":
        return None, [_leaf(leaves, chi, s, derivs)]
    return None, [_eval_series(chi, s, derivs, _series_cutoffs(chi, s, derivs))]


def _eval(chi: DirichletCharacter, s: complex, deriv: bool, route: str) -> ComplexValue:
    """L (deriv False) or L' (deriv True) at s on the route: the cached value
    on the auto route, else _eval_many at one point."""
    if route == "auto":
        val = _POINT_CACHE.get(_cache_key(chi, complex(s), deriv))
        if val is not None:
            return val
    return _eval_many(chi, [s], (deriv,), route)[0][0]


_MANY_BLOCK = 512  # points per batch: bounds a batch's transient objects


def _eval_many(chi: DirichletCharacter, points, derivs: tuple, route: str = "auto") -> list:
    """L and L' at each of the points on the route: one tuple per point
    holding one ComplexValue per entry of derivs (False for L, True for L').
    The points go _MANY_BLOCK at a time through _eval_block; the values are
    the same bytes whatever the block."""
    points = [complex(s) for s in points]
    out: list = []
    for start in range(0, len(points), _MANY_BLOCK):
        out += _eval_block(chi, points[start:start + _MANY_BLOCK], derivs, route)
    return out


def _eval_block(chi: DirichletCharacter, points: list, derivs: tuple, route: str) -> list:
    """_eval_many on one block of complex points: the one code that turns
    points into values.  Route "auto" looks each value up in the point
    cache, plans the rest of the point on the functional equation below
    Re s = 0, the upper route (_upper_parts) from Re s = 2 on and Hurwitz
    between, and caches what it evaluates; the _ROUTES plan every point on
    that route and touch no cache.  The Hurwitz passes that the auto route
    does not find in the pass cache go through special._hurwitz_core_many
    together, each with the (N, K, rem) that _upper_parts chose for it, or
    else _em_pair's, chosen for these passes alone.  Points are checked and
    planned in order, so the first one refused raises: outside the window,
    an unknown route, or its route's own refusal."""
    got: dict = {}  # (s, deriv) -> value, for the answer
    todo: dict = {}  # s -> (derivs to evaluate, (F, F') or None, passes)
    leaves: list = []  # (character, point, derivs, (N, K, rem) or None) of each Hurwitz pass
    auto = route == "auto"
    for s in points:
        _check_window(chi, s)
        if s in todo:
            continue
        need, r = derivs, route
        if auto:
            need = []
            for d in derivs:
                key = _cache_key(chi, s, d)
                if key in _POINT_CACHE:
                    got[s, d] = _POINT_CACHE[key]
                else:
                    need.append(d)
            if not need:
                continue
            need = tuple(need)
            r = "fe" if s.real < 0.0 else "upper" if s.real >= 2.0 else "hurwitz"
        elif r not in _ROUTES:
            raise DomainError(f"unknown route {route!r}")
        todo[s] = (need,) + _plan(leaves, chi, s, need, r)

    results = [None] * len(leaves)
    share = auto and bool(leaves) and _PASSES.sharing(chi)
    if share:
        for i, (c, z, ds, _) in enumerate(leaves):
            row = _PASSES.lookup(chi.q, z, True in ds)
            if row is not None:
                results[i] = _hurwitz_values(c, z, ds, *row)
    misses = [i for i, r in enumerate(results) if r is None]
    if misses:
        want_ds = any(True in leaves[i][2] for i in misses)
        zs = [leaves[i][1] for i in misses]
        params = [_em_pair(chi, z) if leaves[i][3] is None else leaves[i][3]
                  for i, z in zip(misses, zs)]
        core = _hurwitz_core_many(zs, params, chi.data.residues, want_ds)
        for j, engine_out in core:
            c, z, ds, _ = leaves[misses[j]]
            results[misses[j]] = _hurwitz_values(c, z, ds, *engine_out)
            if share:
                _PASSES.store(chi.q, z, engine_out)

    # Near deep zeros a value can sit far below its own bar (the functional
    # equation's terms cancel); consumers decide via .err, so none is refused.
    for s, (need, fe, parts) in todo.items():
        out = ()
        for p in parts:
            out += results[p] if isinstance(p, int) else p
        if fe is not None:
            out = _fe_values(*fe, out, need)
        for d, val in zip(need, out):
            if auto:
                _cache_put(_cache_key(chi, s, d), val)
            got[s, d] = val
    return [tuple([got[s, d] for d in derivs]) for s in points]


def eval_L(chi: DirichletCharacter, s: complex, route: str = "auto") -> ComplexValue:
    """L(s, chi) with error <= 1e-9 (1 + |L|) inside the window."""
    return _eval(chi, s, False, route)


def eval_Lprime(chi: DirichletCharacter, s: complex, route: str = "auto") -> ComplexValue:
    """L'(s, chi) with error <= 1e-9 (1 + |L'|) inside the window."""
    return _eval(chi, s, True, route)


def eval_L_point(chi: DirichletCharacter, s: complex) -> LPoint:
    """L, L' and (when |L| clears the noise floor) L'/L at one point: each
    value is looked up in the point cache, and those not cached come from
    one pass."""
    z = complex(s)
    L = _POINT_CACHE.get(_cache_key(chi, z, False))
    Lp = _POINT_CACHE.get(_cache_key(chi, z, True))
    if L is None or Lp is None:
        return eval_L_points(chi, [s])[0]
    return _lpoint(s, L, Lp)


def eval_L_points(chi: DirichletCharacter, points) -> list[LPoint]:
    """eval_L_point at each of the points, the engine work batched (see
    _eval_block)."""
    points = list(points)
    return [_lpoint(s, L, Lp) for s, (L, Lp) in zip(points, _eval_many(chi, points, _PAIR))]


def _quotient(Lp: ComplexValue, L: ComplexValue) -> ComplexValue:
    """Lp / L, with the bar (Lp.err + |Lp / L| L.err) / |L|."""
    val = Lp.value / L.value
    return ComplexValue(val, (Lp.err + abs(val) * L.err) / abs(L.value))


def _lpoint(s, L: ComplexValue, Lp: ComplexValue) -> LPoint:
    logderiv = None if abs(L.value) <= NOISE_FLOOR * (1.0 + abs(Lp.value)) else _quotient(Lp, L)
    return LPoint(s=s, L=L, Lprime=Lp, logderiv=logderiv, err=max(L.err, Lp.err))


def eval_logderiv_via_fteq(chi: DirichletCharacter, s: complex) -> ComplexValue:
    """(L'/L)(s,chi) from the log-derivative of the functional equation.

    Valid for -80 <= Re s <= -1:
      -(L'/L)(1-s, conj chi) - log(q/2pi) - psi(1-s) + (pi/2) cot(pi(s+kappa)/2).
    Below Re s = -80 the point 1 - s leaves the window (PrecisionLossError).
    """
    s = complex(s)
    if s.real > -1.0:
        raise DomainError("eval_logderiv_via_fteq requires Re s <= -1")
    _check_window(chi, s)
    w = cmath.pi * (s + chi.kappa) / 2.0
    if s.imag == 0.0 and abs(cmath.sin(w)) < 1e-13:
        raise PoleError(f"cot pole (trivial zero of L) at s = {s}")
    [(Lb, Lbp)] = _eval_many(chi.data.conj, [1.0 - s], _PAIR)
    ld = _quotient(Lbp, Lb)
    val = -ld.value - math.log(chi.q / (2.0 * math.pi)) - _digamma(1.0 - s) + (cmath.pi / 2.0) * _cot(w)
    return ComplexValue(val, ld.err + 1e-12 * (1.0 + abs(val)))


def gest_bound(m: int, sigma: float) -> float:
    """|G - 1| bound 2 (1 + 8m/sigma) exp(-sigma/(2m)), valid for sigma >= 2."""
    return 2.0 * (1.0 + 8.0 * m / sigma) * math.exp(-sigma / (2.0 * m))


def eval_G(chi: DirichletCharacter, s: complex) -> ComplexValue:
    """G(s,chi) = -m^s / (chi(m) log m) * L'(s,chi); G -> 1 as Re s -> +inf."""
    s = complex(s)
    Lp = eval_Lprime(chi, s)
    m = chi.m
    pref = -cmath.exp(s * math.log(m)) / (chi(m) * math.log(m))
    val = pref * Lp.value
    err = abs(pref) * Lp.err
    if s.real >= 2.0:
        bound = gest_bound(m, s.real)
        if abs(val - 1.0) > bound + err + 1e-9:
            raise NumericalError(
                f"G bound violated at s={s}: |G-1|={abs(val - 1.0):.3e} > {bound:.3e}"
            )
    return ComplexValue(val, err)


def re_logderiv_critical(chi: DirichletCharacter, t: float) -> ComplexValue:
    """Re (L'/L)(1/2 + it) by the closed form valid off zeros of L:

      -1/2 log(q/pi) - 1/2 Re psi(1/4 + kappa/2 + it/2).

    Raises NearZeroError when 1/2 + it is flagged as a near-zero of L
    (the excluded set of the critical-line identity).
    """
    s = 0.5 + 1j * t
    pt = eval_L_point(chi, s)
    if pt.near_zero_of_L:
        raise NearZeroError(f"L(1/2 + {t}i) below noise floor; point in excluded set")
    val = -0.5 * math.log(chi.q / math.pi) - 0.5 * _digamma(0.25 + chi.kappa / 2.0 + 0.5j * t).real
    return ComplexValue(complex(val, 0.0), 1e-13 * (1.0 + abs(val)))


def logderiv_euler_product(chi: DirichletCharacter, s: complex, N: int = 1000) -> ComplexValue:
    """(L'/L)(s,chi) by the truncated Euler product, err = proven tail bound.

    (L'/L)(s) = -sum_p chi(p) log(p) / (p^s - chi(p)) for Re s > 1; the tail
    over p > N is bounded by the prime tail bound at sigma = Re s.
    """
    s = complex(s)
    if s.real <= 1.0:
        raise DomainError("Euler product route requires Re s > 1")
    tail = prime_tail_bound(s.real, N)
    total = 0j
    for p in primes_up_to(N):
        p = int(p)
        cp = chi(p)
        if cp == 0:
            continue
        total -= cp * math.log(p) / (p ** s - cp)
    return ComplexValue(total, tail + 1e-14 * (1.0 + abs(total)))


# ----------------------------------------------------------------------
# vectorized evaluation on grids with Re s > 0 (zero scans)

def _distinct(x: np.ndarray) -> np.ndarray:
    """The distinct values of x in ascending order.  (np.unique does the same
    but imports numpy.ma on first use, 1.6 MB of resident memory.)"""
    x = np.sort(x)
    return x[np.r_[True, x[1:] != x[:-1]]]


def _grid_eval(chi: DirichletCharacter, S: np.ndarray, deriv: bool):
    """(values, errs) of L (deriv False) or L' at the points S with Re s > 0:
    one hurwitz_grid call over the distinct real parts x the distinct
    imaginary parts of S, which gathers each point from the engine's block
    of its t-chunk.  The points must lie in the window, as for eval_L:
    DomainError for a point that is not finite, PrecisionLossError for one
    outside the window."""
    S = np.asarray(S, dtype=complex).ravel()
    if not np.isfinite(S).all():
        raise DomainError("grid points must be finite")
    if not S.size:
        return np.empty(0, complex), np.empty(0)
    outside = (np.abs(S.real) > SIGMA_MAX) | (np.abs(S.imag) > T_MAX)
    _check_window(chi, complex(S[np.argmax(outside)]))  # the first point outside, else S[0]
    sigma, t = _distinct(S.real), _distinct(S.imag)
    index = np.int32 if S.size < 2**31 else np.intp  # half the memory of a scan's indices
    rows = np.searchsorted(sigma, S.real).astype(index)
    cols = np.searchsorted(t, S.imag).astype(index)
    return hurwitz_grid(sigma, t, chi.q, chi.data.values, rows, cols, want_ds=deriv)


def eval_L_grid(chi: DirichletCharacter, S: np.ndarray) -> np.ndarray:
    """Vectorized L(s) over an array of points with Re s > 0."""
    return _grid_eval(chi, S, False)[0]


def eval_Lprime_grid(chi: DirichletCharacter, S: np.ndarray) -> np.ndarray:
    """Vectorized L'(s) over an array of points with Re s > 0."""
    return _grid_eval(chi, S, True)[0]

