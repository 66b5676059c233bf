"""L, L', functional equation, and the normalized derivative G."""

import cmath
import math
import struct
import warnings

import mpmath
import numpy as np
import pytest

from lderiv import characters as ch
from lderiv import lfunc as lf
from lderiv import special as sp
from lderiv.errors import DomainError, NearZeroError, PoleError, PrecisionLossError
from lderiv.numtypes import ComplexValue
from lderiv.special import _digamma
from tests.conftest import cauchy_derivative, lattice_points, mp_L_at_one, mp_L_pair

mpmath.mp.dps = 30


def _mp_L(chi, s, dps=30):
    """Independent multiprecision L(s, chi) via mpmath's Hurwitz zeta."""
    mpmath.mp.dps = dps
    q = chi.q
    acc = mpmath.mpc(0)
    for a in range(1, q + 1):
        v = chi(a)
        if v == 0:
            continue
        k = chi.exponents[a % q]
        w = mpmath.expjpi(2 * mpmath.mpf(k) / chi.order)
        acc += w * mpmath.zeta(mpmath.mpc(s), mpmath.mpf(a) / q)
    return complex(acc * mpmath.power(q, -mpmath.mpc(s)))


# ----------------------------------------------------------------------
# values

def test_trivial_zeros(chi5, chi4):
    assert abs(lf.eval_L(chi5, -2.0).value) < 1e-12
    assert abs(lf.eval_L(chi5, -4.0).value) < 1e-10
    assert abs(lf.eval_L(chi4, -1.0).value) < 1e-12


def test_L_at_2_routes_and_multiprecision(chi5):
    a = lf.eval_L(chi5, 2.0, route="series")
    b = lf.eval_L(chi5, 2.0, route="hurwitz")
    ref = _mp_L(chi5, 2.0)
    assert abs(a.value - b.value) < a.err + b.err
    assert abs(a.value - ref) < a.err  # certified Abel tail is honest
    assert abs(b.value - ref) < 1e-12


def test_direct_series_certified_tail(chi5):
    # a plain 5000-term partial sum agrees within its own Abel tail bound
    import numpy as np

    n = np.arange(1, 5001, dtype=float)
    vals = chi5.data.values[np.arange(1, 5001) % 5]
    partial = complex(np.sum(vals * n**-2.0))
    bound = lf._series_tail_bound(chi5, 2.0 + 0j, False, 5000)
    assert abs(lf.eval_L(chi5, 2.0).value - partial) <= bound + 1e-12


@pytest.mark.parametrize(
    "s", [2.5 + 0j, 3 + 4j, 0.5 + 14j, 1.2 - 3j, -0.7 + 2j, -3.3 + 1j, -6 + 0.5j]
)
def test_L_vs_multiprecision_across_routes(chi7_complex, s):
    ours = lf.eval_L(chi7_complex, s)
    ref = _mp_L(chi7_complex, s)
    assert abs(ours.value - ref) < 1e-9 * (1 + abs(ref))


def test_dual_route_overlap_band(chi5, chi7_complex):
    # hurwitz vs functional-equation routes on points where both are sound
    for chi in (chi5, chi7_complex):
        for s in (-0.5 + 3j, -1.0 + 1.5j, -1.8 + 0.3j):
            a = lf.eval_L(chi, s, route="hurwitz")
            b = lf.eval_L(chi, s, route="fe")
            assert abs(a.value - b.value) < 1e-9 * (1 + abs(a.value)), (chi.q, s)
            ap = lf.eval_Lprime(chi, s, route="hurwitz")
            bp = lf.eval_Lprime(chi, s, route="fe")
            assert abs(ap.value - bp.value) < 1e-9 * (1 + abs(ap.value)), (chi.q, s)


def test_Lprime_finite_differences(chi5, chi7_complex):
    # the hurwitz route's error is ~1e-14 here, so FD noise stays ~1e-9;
    # the series route's certified 3e-10 tail would swamp an h=1e-5 quotient
    h = 1e-5
    for chi in (chi5, chi7_complex):
        s = 3 + 2j
        fd = (
            lf.eval_L(chi, s + h, route="hurwitz").value
            - lf.eval_L(chi, s - h, route="hurwitz").value
        ) / (2 * h)
        assert abs(lf.eval_Lprime(chi, s).value - fd) < 1e-6


def test_Lprime_vs_cauchy_circle(chi5):
    for s in (2 + 3j, 0.8 + 5j):
        cc = cauchy_derivative(lambda w: lf.eval_L(chi5, w).value, s, 0.5, 128)
        assert abs(lf.eval_Lprime(chi5, s).value - cc) < 1e-9


def test_reference_logderiv_values(chi5):
    # six certified lower bounds for Re L'/L(2 - i t0, chi_5), eval routes
    for t0, lower in [(0.0, 0.27), (0.5, 0.24), (1.0, 0.16),
                      (1.25, 0.11), (1.375, 0.08), (1.5, 0.06)]:
        pt = lf.eval_L_point(chi5, 2.0 - 1j * t0)
        assert pt.logderiv.value.real > lower
    # and via the independent Euler-product route, within its tail bound
    ep = lf.logderiv_euler_product(chi5, 2.0, 1000)
    pt = lf.eval_L_point(chi5, 2.0)
    assert abs(ep.value - pt.logderiv.value) <= ep.err


def test_second_derivative_bound_grid(chi5):
    # |(L'/L)'(2 - iv)| < 0.79 for v in [-2, 2], by finite differences
    h = 1e-4
    for k in range(-8, 9):
        v = k / 4.0
        s = 2.0 - 1j * v
        ld = lambda w: lf.eval_Lprime(chi5, w).value / lf.eval_L(chi5, w).value
        deriv = (ld(s + h) - ld(s - h)) / (2 * h)
        assert abs(deriv) < 0.79


# ----------------------------------------------------------------------
# functional equation

@pytest.mark.parametrize("q", list(range(3, 30)) + [101, 200])
def test_epsilon_modulus_one(q):
    chars = ch.enumerate_primitive(q)
    if q > 30:
        chars = chars[::7]  # spot-sample the large moduli
    for chi in chars:
        eps = lf.eval_F(chi, 0.3 + 0.7j).epsilon
        assert abs(abs(eps.value) - 1.0) < 1e-10


def test_functional_equation_residual_spot(chi5):
    s = 0.3 + 7j
    F = lf.eval_F(chi5, s)
    lhs = lf.eval_L(chi5, s).value
    rhs = F.F.value * lf.eval_L(chi5.conjugate(), 1 - s).value
    assert abs(lhs - rhs) <= 1e-8 * (1 + abs(lhs))


def test_functional_equation_residual_lattice(chi7_complex):
    chib = chi7_complex.conjugate()
    skip = lambda z: min(abs(z - n) for n in (1, 2, 3, 4, 5, 6)) < 0.1
    for s in lattice_points(25, (-5.0, 6.0), (-40.0, 40.0), skip):
        F = lf.eval_F(chi7_complex, s)
        lhs = lf.eval_L(chi7_complex, s).value
        rhs = F.F.value * lf.eval_L(chib, 1 - s).value
        assert abs(lhs - rhs) <= 1e-8 * (1 + abs(lhs)), s


def test_derivative_of_functional_equation(chi5, chi7_complex):
    for chi in (chi5, chi7_complex):
        chib = chi.conjugate()
        for s in (0.4 + 2j, 1.5 - 6j, 0.25 + 11j):
            F = lf.eval_F(chi, s)
            Fp = F.F.value * F.F_logderiv.value
            lhs = lf.eval_Lprime(chi, s).value
            rhs = Fp * lf.eval_L(chib, 1 - s).value - F.F.value * lf.eval_Lprime(chib, 1 - s).value
            assert abs(lhs - rhs) <= 1e-8 * (1 + abs(lhs)), (chi.q, s)


def test_F_reflection_self_consistency(chi7_complex):
    # F(s, chi) F(1-s, conj chi) = 1
    chib = chi7_complex.conjugate()
    for s in (0.3 + 7j, -2 + 5j, 0.9 - 14j):
        prod = lf.eval_F(chi7_complex, s).F.value * lf.eval_F(chib, 1 - s).F.value
        assert abs(prod - 1.0) < 1e-10


def test_F_logderiv_asymptotics(chi5):
    # F'/F(s) = -log(q |1-s|) + O(1); empirical margin well under 2
    s = -2 + 5j
    got = lf.eval_F(chi5, s).F_logderiv.value
    assert abs(got + math.log(chi5.q * abs(1 - s))) < 2.0


def test_F_pole_detection(chi5, chi4):
    with pytest.raises(PoleError):
        lf.eval_F(chi5, 1.0)  # kappa=0: (1+0) odd -> Gamma pole survives
    with pytest.raises(PoleError):
        lf.eval_F(chi4, 2.0)  # kappa=1: (2+1) odd
    F = lf.eval_F(chi5, 2.0)  # sin zero cancels the Gamma pole
    assert abs(F.F.value) < math.inf


def test_conjugation_symmetry(chi7_complex):
    chib = chi7_complex.conjugate()
    for s in (0.3 + 2j, 2.5 - 7j, -1.2 + 4j):
        lhs = lf.eval_L(chib, s.conjugate()).value.conjugate()
        rhs = lf.eval_L(chi7_complex, s).value
        assert abs(lhs - rhs) < 1e-10 * (1 + abs(rhs))
        lhs = lf.eval_Lprime(chib, s.conjugate()).value.conjugate()
        rhs = lf.eval_Lprime(chi7_complex, s).value
        assert abs(lhs - rhs) < 1e-10 * (1 + abs(rhs))


# ----------------------------------------------------------------------
# the log-derivative via the functional equation (Re s <= -1)

def test_logderiv_via_fteq_agreement(chi7_complex, chi5):
    for chi, s in ((chi7_complex, -3.5 + 2j), (chi5, -1.5 - 4j), (chi5, -6 + 0.25j)):
        a = lf.eval_logderiv_via_fteq(chi, s).value
        pt = lf.eval_L_point(chi, s)
        assert abs(a - pt.logderiv.value) < 1e-8 * (1 + abs(a)), (chi.q, s)


def test_logderiv_via_fteq_real_part_identity(chi5):
    # on Re s = -1 the cot term is purely imaginary: the real part reduces
    # to the three-term expression in L'/L(2-it), log(q/2pi), psi(2-it)
    from lderiv.special import _digamma

    for t in (0.3, 1.0, 2.7):
        s = -1 + 1j * t
        full = lf.eval_logderiv_via_fteq(chi5, s).value.real
        pt = lf.eval_L_point(chi5, 2.0 - 1j * t)
        three = (
            -pt.logderiv.value.real
            - math.log(5 / (2 * math.pi))
            - _digamma(2.0 - 1j * t).real
        )
        assert abs(full - three) < 1e-9


def test_logderiv_via_fteq_domain_and_poles(chi5):
    with pytest.raises(DomainError):
        lf.eval_logderiv_via_fteq(chi5, 0.5)
    with pytest.raises(PoleError):
        lf.eval_logderiv_via_fteq(chi5, -2.0)  # trivial zero: cot pole


def test_logderiv_blows_up_at_trivial_zero(chi5):
    # lim_{s -> -2j-kappa from above} L'/L = +inf for quadratic chi
    assert lf.eval_L_point(chi5, -2 + 1e-3).logderiv.value.real > 100
    assert lf.eval_L_point(chi5, -4 + 1e-3).logderiv.value.real > 100


# ----------------------------------------------------------------------
# G and the critical-line identity

def test_G_bounds(chi5):
    g40 = lf.eval_G(chi5, 40.0)
    assert abs(g40.value - 1.0) <= 4 * math.exp(-10.0)
    g = lf.eval_G(chi5, 2 + 3j)
    assert abs(g.value - 1.0) <= 2 * (1 + 8 * 2 / 2) * math.exp(-0.5)


def test_G_zeros_match_Lprime_zeros(chi5):
    from lderiv.zeros import rectangle, winding_count

    box = rectangle(1.5, 3.0, 7.0, 9.0)  # contains the 2.301+7.908i zero
    wG = winding_count(lambda s: lf.eval_G(chi5, s), box)
    wL = winding_count(lambda s: lf.eval_Lprime(chi5, s), box)
    assert wG == wL == 1


def test_gest_bound_sampled(chi5, chi7_complex):
    for chi in (chi5, chi7_complex):
        for s in lattice_points(40, (2.0, 30.0), (-40.0, 40.0)):
            g = lf.eval_G(chi, s)  # raises internally if the bound fails
            assert abs(g.value - 1.0) <= lf.gest_bound(chi.m, s.real) + 1e-9
            if s.real >= 8 * chi.m:
                assert abs(g.value - 1.0) <= 4 * math.exp(-s.real / (2 * chi.m))


def test_critical_line_identity(chi5, chi23):
    for chi, t in ((chi5, 1.0), (chi5, -2.3), (chi23, 0.7), (chi23, 5.0)):
        closed = lf.re_logderiv_critical(chi, t).value.real
        pt = lf.eval_L_point(chi, 0.5 + 1j * t)
        assert abs(closed - pt.logderiv.value.real) <= 1e-8


def test_critical_identity_threshold_sign(chi5, chi229):
    # kappa=0: negative at t=0 iff q > 8 pi exp(gamma + pi/2) = 215.3...
    assert lf.re_logderiv_critical(chi229, 0.0).value.real < 0
    assert lf.re_logderiv_critical(chi5, 0.0).value.real > 0
    # kappa=1: the threshold is 8 pi exp(gamma - pi/2) = 9.3...
    chi11 = ch.kronecker_character(-11)
    assert lf.re_logderiv_critical(chi11, 0.0).value.real < 0
    chi3 = ch.enumerate_primitive(3)[0]
    assert lf.re_logderiv_critical(chi3, 0.0).value.real > 0


def test_near_zero_noise_floor(chi5):
    from lderiv.zeros import critical_line_zeros

    gamma1 = min(critical_line_zeros(chi5, 8.0), key=abs)
    with pytest.raises(NearZeroError):
        lf.re_logderiv_critical(chi5, gamma1)
    pt = lf.eval_L_point(chi5, 0.5 + 1j * gamma1)
    assert pt.near_zero_of_L and pt.logderiv is None


def test_window_enforcement(chi5):
    with pytest.raises(PrecisionLossError):
        lf.eval_L(chi5, 90.0)
    with pytest.raises(PrecisionLossError):
        lf.eval_L(chi5, 1 + 150j)
    # a point that is not finite is bad input, not lost precision
    for s in (complex(math.nan, 0.0), complex(0.5, math.inf)):
        with pytest.raises(DomainError):
            lf.eval_L(chi5, s)
        with pytest.raises(DomainError):
            lf.eval_L_points(chi5, [0.5 + 1j, s])


def test_unknown_routes_are_refused_after_the_window_check(chi5):
    for route in ("upper", "bogus"):
        with pytest.raises(DomainError, match=f"unknown route '{route}'"):
            lf.eval_L(chi5, 3.0, route=route)
        with pytest.raises(PrecisionLossError):
            lf.eval_Lprime(chi5, 90.0, route=route)



# ----------------------------------------------------------------------
# one pass for L and L': the single-value routes it replaced, kept verbatim
# (bar the module prefix) so that every route's pair is held to their bytes

def _ref_eval_series(chi, s, deriv):
    """sum chi(n) n^-s  (or -sum chi(n) log n n^-s), certified Abel tail."""
    if s.real < 1.5:
        raise DomainError("direct series route needs Re s >= 1.5")
    tol = 3e-10
    N = lf._series_cutoff(chi, s, deriv, tol)
    if N > lf._SERIES_TERM_CAP:
        raise PrecisionLossError("direct series would need too many terms", math.nan)
    vals = chi.data.values
    total = 0j
    absacc = 0.0
    for start in range(1, N + 1, 400_000):
        stop = min(N + 1, start + 400_000)
        n = np.arange(start, stop, dtype=float)
        logn = np.log(n)
        terms = vals[np.arange(start, stop) % chi.q] * np.exp(-s * logn)
        if deriv:
            terms = terms * (-logn)
        total += complex(terms.sum())
        absacc += float(np.abs(terms).sum())
    err = lf._series_tail_bound(chi, s, deriv, N) + (8e-16 + 2 * sp._EPS * abs(s) * math.log(N)) * absacc
    return ComplexValue(total, err)


def _ref_eval_hurwitz(chi, s, deriv):
    """q^(-s) sum_a chi(a) zeta(s, a/q), differentiated termwise if deriv."""
    d = chi.data
    vals, dvals, errs, errs_ds, _rem = sp._hurwitz_core(s, d.residues, deriv, 1e-13)
    rel = 1e-15 + 2 * sp._EPS * abs(s) * math.log(chi.q)
    qps = cmath.exp(-s * math.log(chi.q))
    zsum = complex(np.dot(d.weights, vals))
    if deriv:
        out = qps * (complex(np.dot(d.weights, dvals)) - math.log(chi.q) * zsum)
        err = abs(qps) * (
            float(np.sum(errs_ds)) + math.log(chi.q) * float(np.sum(errs))
        )
    else:
        out = qps * zsum
        err = abs(qps) * float(np.sum(errs))
    return ComplexValue(out, err + rel * abs(out))


def _hurwitz_terms(chi, s):
    """The A (N + 2K) terms of a Hurwitz pass at s: A residues, (N, K) the
    policy's pair at s."""
    N, K, _ = sp._choose_em_params(s, 1.0 / chi.q, 1e-13)
    return len(chi.data.residues) * (N + 2 * K)


def _ref_eval_upper(chi, s, deriv):
    if s.real >= 2.0 and lf._series_cutoff(chi, s, deriv, 3e-10) <= _hurwitz_terms(chi, s):
        return _ref_eval_series(chi, s, deriv)
    return _ref_eval_hurwitz(chi, s, deriv)


def _ref_eval_fe(chi, s, deriv):
    chib = chi.data.conj
    F, Fp, _ = lf._F_pieces(chi, s)
    L2 = _ref_eval_upper(chib, 1.0 - s, False)
    if not deriv:
        val = F.value * L2.value
        err = abs(F.value) * L2.err + abs(L2.value) * F.err
        return ComplexValue(val, err + 1e-15 * abs(val))
    L2p = _ref_eval_upper(chib, 1.0 - s, True)
    val = Fp.value * L2.value - F.value * L2p.value
    err = (
        abs(Fp.value) * L2.err
        + abs(L2.value) * Fp.err
        + abs(F.value) * L2p.err
        + abs(L2p.value) * F.err
    )
    return ComplexValue(val, err + 1e-15 * abs(val))


def _ref_auto(chi, s, deriv):
    if s.real < 0.0:
        return _ref_eval_fe(chi, s, deriv)
    if s.real >= 2.0:
        return _ref_eval_upper(chi, s, deriv)
    return _ref_eval_hurwitz(chi, s, deriv)


def _ref_logderiv_via_fteq(chi, s):
    w = cmath.pi * (s + chi.kappa) / 2.0
    chib = chi.data.conj
    Lb = _ref_eval_upper(chib, 1.0 - s, False)
    Lbp = _ref_eval_upper(chib, 1.0 - s, True)
    ld = Lbp.value / Lb.value
    ld_err = (Lbp.err + abs(ld) * Lb.err) / abs(Lb.value)
    val = -ld - math.log(chi.q / (2.0 * math.pi)) - _digamma(1.0 - s) + (cmath.pi / 2.0) * lf._cot(w)
    return ComplexValue(val, ld_err + 1e-12 * (1.0 + abs(val)))


def _bits(v):
    return struct.pack("<3d", v.value.real, v.value.imag, v.err)


def _outcome(fn):
    """The bytes of fn's value, or the name of the error it raises (a forced
    series route refuses cutoffs past its term cap)."""
    try:
        return _bits(fn())
    except PrecisionLossError as exc:
        return type(exc).__name__


@pytest.fixture(scope="module")
def pair_chars(chi5, chi7_complex, chi23, chi229):
    chi49 = next(c for c in ch.enumerate_primitive(49) if c.order == 42)
    return (chi5, chi7_complex, chi23, chi49, chi229)


def _one_cutoff_only(chi, s):
    """Series points where L's cutoff is at most the terms of a Hurwitz pass
    and L''s is not."""
    return (s.real >= 2.0
            and lf._series_cutoff(chi, s, False, 3e-10) <= _hurwitz_terms(chi, s)
            < lf._series_cutoff(chi, s, True, 3e-10))


_PAIR_BANDS = (  # (points, real parts, imaginary parts)
    (12, (2.0, 12.0), (-100.0, 100.0)),  # series (and Hurwitz where series is dear)
    (24, (2.8, 5.2), (-100.0, 100.0)),  # where L' leaves the series before L
    (12, (0.0, 2.0), (-100.0, 100.0)),  # Hurwitz
    (12, (-80.0, 0.0), (-100.0, 100.0)),  # functional equation
)


def _pair_points(chi):
    pts = []
    for n, x_range, y_range in _PAIR_BANDS:
        pts += lattice_points(n, x_range, y_range)
    return pts + [2.0 + 0j, 0.5 + 0j, -0.5 + 3j, -3.25 + 0j, -79.5 - 99j, 2.05 + 90j]


def test_eval_L_point_equals_the_single_value_routes(pair_chars):
    split = 0
    for chi in pair_chars:
        for s in _pair_points(chi):
            lf.clear_cache()
            pt = lf.eval_L_point(chi, s)
            assert _bits(pt.L) == _bits(_ref_auto(chi, s, False)), (chi.q, s)
            assert _bits(pt.Lprime) == _bits(_ref_auto(chi, s, True)), (chi.q, s)
            split += _one_cutoff_only(chi, s) or (
                s.real < -1.0 and _one_cutoff_only(chi.data.conj, 1.0 - s))
    assert split >= 5  # the pairs that go to two routes are covered


def test_single_values_equal_the_single_value_routes(pair_chars):
    # L or L' alone, on the auto route (the functional equation's L' alone
    # shares one pass at 1 - s) and on each route forced where it applies
    for chi in pair_chars:
        for s in _pair_points(chi):
            routes = [("auto", _ref_auto)]
            if s.real < 0.5:
                routes.append(("fe", _ref_eval_fe))
            if s.real >= 1.5 and lf._series_cutoff(chi, s, True, 3e-10) <= 400_000:
                routes.append(("series", _ref_eval_series))  # one chunk of terms
            if s.real >= -10.0:
                routes.append(("hurwitz", _ref_eval_hurwitz))
            for deriv in (False, True):
                lf.clear_cache()
                for route, ref in routes:
                    got = _outcome(lambda: lf._eval(chi, s, deriv, route))
                    assert got == _outcome(lambda: ref(chi, s, deriv)), (chi.q, s, route)


def test_series_route_over_several_chunks_and_past_its_cap(chi5):
    # 400 000 terms to a chunk: sigma = 1.6 needs about a million
    for s in (1.6 + 0j, 1.5 + 100j):
        for deriv in (False, True):
            got = _outcome(lambda: lf.eval_L(chi5, s, route="series") if not deriv
                           else lf.eval_Lprime(chi5, s, route="series"))
            assert got == _outcome(lambda: _ref_eval_series(chi5, s, deriv)), (s, deriv)


def test_logderiv_via_fteq_equals_the_single_value_routes(pair_chars):
    for chi in pair_chars:
        pts = lattice_points(20, (-80.0, -1.0), (-100.0, 100.0)) + [-1.0 + 0.5j, -79.0 + 1j]
        for s in pts:
            ref = _bits(_ref_logderiv_via_fteq(chi, s))
            lf.clear_cache()  # the pair at 1 - s cold, then with L alone cached, then both
            assert _bits(lf.eval_logderiv_via_fteq(chi, s)) == ref, (chi.q, s)
            lf.clear_cache()
            lf.eval_L(chi.data.conj, 1.0 - s)
            for _ in range(2):
                assert _bits(lf.eval_logderiv_via_fteq(chi, s)) == ref, (chi.q, s)
        # at -80.5 + 1j the point 1 - s lies outside the window
        with pytest.raises(PrecisionLossError):
            lf.eval_logderiv_via_fteq(chi, -80.5 + 1j)


def test_point_cache_keys_of_the_pair(chi5, chi7_complex):
    for s in (3.0 + 4j, 0.7 - 12j, -5.5 + 2j):
        lf.clear_cache()
        pt = lf.eval_L_point(chi7_complex, s)
        key = (chi7_complex.q, chi7_complex.label, complex(s))
        assert set(lf._POINT_CACHE) == {key + (False,), key + (True,)}
        assert lf._POINT_CACHE[key + (False,)] is pt.L
        assert lf._POINT_CACHE[key + (True,)] is pt.Lprime
        again = lf.eval_L_point(chi7_complex, s)
        assert len(lf._POINT_CACHE) == 2 and again == pt
    # L' alone on the functional-equation route: one key, the inner L(1-s)
    # and L'(1-s) stay uncached
    lf.clear_cache()
    lf.eval_Lprime(chi5, -7.25 + 30j)
    assert set(lf._POINT_CACHE) == {(5, chi5.label, -7.25 + 30j, True)}
    # one key cached already: the other is added on its own, same bytes
    lf.clear_cache()
    L = lf.eval_L(chi5, 1.25 + 3j)
    pt = lf.eval_L_point(chi5, 1.25 + 3j)
    assert pt.L is L and len(lf._POINT_CACHE) == 2
    assert _bits(pt.Lprime) == _bits(_ref_eval_hurwitz(chi5, 1.25 + 3j, True))
    lf.clear_cache()


def test_one_point_cache_hits_plan_no_block(chi7_complex, monkeypatch):
    lf.clear_cache()
    pt = lf.eval_L_point(chi7_complex, 3.0 + 4j)

    def no_block(*args):
        raise AssertionError("a cache hit planned a block")

    monkeypatch.setattr(lf, "_eval_block", no_block)
    assert lf.eval_L(chi7_complex, 3.0 + 4j) is pt.L
    assert lf.eval_Lprime(chi7_complex, 3.0 + 4j) is pt.Lprime
    again = lf.eval_L_point(chi7_complex, 3.0 + 4j)
    assert again == pt and again.L is pt.L and again.Lprime is pt.Lprime
    lf.clear_cache()


def test_upper_route_takes_the_series_iff_its_cutoff_is_at_most_a_hurwitz_pass(pair_chars):
    # per entry of derivs: the series iff its cutoff <= A (N + 2K), from
    # Re s = 2 on; the policy's pair comes back whenever a Hurwitz pass does
    split = skipped = 0
    for chi in pair_chars:
        for s in _pair_points(chi):
            if s.real < 1.0:
                continue
            params, parts = lf._upper_parts(chi, s, lf._PAIR)
            by_series = {d: cuts is not None for cuts, ds in parts for d in ds}
            assert [d for _, ds in parts for d in ds] == list(lf._PAIR)
            for d in lf._PAIR:
                assert by_series[d] == (s.real >= 2.0 and lf._series_cutoff(chi, s, d, 3e-10)
                                        <= _hurwitz_terms(chi, s)), (chi.q, s, d)
            for cuts, ds in parts:  # a series pass carries its cutoffs
                assert cuts is None or cuts == tuple(lf._series_cutoff(chi, s, d, 3e-10)
                                                     for d in ds), (chi.q, s)
            if s.real >= 2.0 and not all(by_series.values()):
                assert params == sp._choose_em_params(s, 1.0 / chi.q, 1e-13), (chi.q, s)
            if by_series[False] and not by_series[True]:
                assert [(cuts is not None, ds) for cuts, ds in parts] == [(True, (False,)),
                                                                          (False, (True,))]
                split += 1
            skipped += params is None and s.real >= 2.0
    assert split >= 1 and skipped >= 1  # pairs split between the routes; points the policy skips


def test_em_params_runs_at_most_once_per_planned_point(capsys, monkeypatch):
    from lderiv import cli

    per_point = []  # _choose_em_params calls of each planned point
    plan, em_params = lf._plan, lf._choose_em_params

    def counting_plan(*args):
        per_point.append(0)
        return plan(*args)

    def counting_em_params(*args):
        per_point[-1] += 1
        return em_params(*args)

    monkeypatch.setattr(lf, "_plan", counting_plan)
    monkeypatch.setattr(lf, "_choose_em_params", counting_em_params)
    lf.clear_cache()
    assert cli.run(["verify", "all", "--q", "5", "--label", "1", "--T", "10"]) == 0
    capsys.readouterr()
    assert max(per_point) == 1 and per_point.count(0) > 0, (len(per_point), sum(per_point))
    lf.clear_cache()


def test_series_cutoff_runs_at_most_once_per_planned_point_and_deriv(capsys, monkeypatch):
    from lderiv import cli

    per_point = []  # _series_cutoff calls of each planned point, by deriv
    plan, cutoff = lf._plan, lf._series_cutoff

    def counting_plan(*args):
        per_point.append({False: 0, True: 0})
        return plan(*args)

    def counting_cutoff(chi, s, with_log, tol):
        per_point[-1][with_log] += 1
        return cutoff(chi, s, with_log, tol)

    monkeypatch.setattr(lf, "_plan", counting_plan)
    monkeypatch.setattr(lf, "_series_cutoff", counting_cutoff)
    lf.clear_cache()
    assert cli.run(["verify", "all", "--q", "5", "--label", "1", "--T", "10"]) == 0
    capsys.readouterr()
    counts = [n for calls in per_point for n in calls.values()]
    assert max(counts) == 1 and sum(counts) > 0, (len(per_point), sum(counts))
    lf.clear_cache()


# ----------------------------------------------------------------------
# the grid: the product of S's distinct real and imaginary parts

def test_grid_values_do_not_depend_on_the_product_around_them(chi5, chi7_complex):
    """_grid_eval evaluates the product of the distinct real x imaginary parts
    of S.  Its entries that S does not hold raise nothing and warn nothing, and
    each value equals the point's own 1 x 1 evaluation within the two bars."""
    # an oracle band through t = 0, its point next to s = 1 nudged by 5e-8 (as
    # the oracle once did), so that the product holds a point S does not
    sig = np.arange(0.02, 7.39, 0.02)
    ts = np.arange(-10.04, 10.05, 0.02)[482:522]
    S = (sig[None, :] + 1j * ts[:, None]).ravel()
    S = np.where(np.abs(S - 1.0) < 1e-9, S + 5e-8, S)
    nudged = int(np.flatnonzero(S.real == 1.00000005)[0])
    unheld = complex(1.0, S[nudged].imag)  # in the product, not in S
    assert abs(unheld - 1.0) < 1e-12 and unheld not in S
    assert unheld.real in S.real and unheld.imag in S.imag
    scattered = np.array(lattice_points(40, (0.01, 8.0), (-101.0, 101.0)) + [1.0 + 1e-9j])
    for chi in (chi5, chi7_complex):
        for deriv in (False, True):
            for pts, checked in ((S, list(range(0, len(S), 37)) + [nudged]),
                                 (scattered, range(len(scattered)))):
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    with np.errstate(divide="raise", over="raise", invalid="raise"):
                        vals, errs = lf._grid_eval(chi, pts, deriv)
                for k in checked:
                    v, e = lf._grid_eval(chi, pts[k:k + 1], deriv)
                    assert abs(vals[k] - v[0]) <= errs[k] + e[0], (chi.q, deriv, pts[k])


def test_empty_grid_gives_empty_arrays(chi5):
    # as eval_L_points(chi, []) gives []
    assert lf.eval_L_points(chi5, []) == []
    for grid in (lf.eval_L_grid, lf.eval_Lprime_grid):
        for S in ([], np.array([], dtype=complex)):
            got = grid(chi5, S)
            assert isinstance(got, np.ndarray) and got.shape == (0,) and got.dtype == complex
    vals, errs = lf._grid_eval(chi5, [], True)
    assert vals.shape == errs.shape == (0,) and errs.dtype == float


# ----------------------------------------------------------------------
# the many-point form of the auto route against the scalar calls it batches

def _scalar_loop(chi, points, derivs):
    """The calls _eval_many replaces: eval_L_point for the pair, else _eval."""
    if derivs == lf._PAIR:
        return [(pt.L, pt.Lprime) for pt in (lf.eval_L_point(chi, s) for s in points)]
    return [(lf._eval(chi, s, derivs[0], "auto"),) for s in points]


def _cache_bits():
    return [(key, _bits(val)) for key, val in lf._POINT_CACHE.items()]


def _warm(chi, points):
    """A cold cache, then L alone at every third point and L' alone at the
    next, so that a batch meets points with only one value cached."""
    lf.clear_cache()
    for s in points[::3]:
        lf.eval_L(chi, s)
    for s in points[1::3]:
        lf.eval_Lprime(chi, s)


def _batch_points(chi):
    # every route band of _pair_points, a D1-like band of the functional
    # equation next to the Hurwitz band, the rings inside the pole disk
    # around s = 1, and every fifth point again
    pts = _pair_points(chi) + lattice_points(12, (-3.0, 0.5), (-40.0, 40.0))
    pts += [s for s in _rings_around_1() if abs(s - 1.0) < sp._POLE_DISK]
    return pts + pts[::5], len(pts)


def _assert_batch_matches(chi, points, derivs, warm):
    """_eval_many against the scalar loop from the same cache: values and
    bars by bytes, and the point cache's keys, values and order."""
    (_warm if warm else lambda chi, pts: lf.clear_cache())(chi, points)
    want = _scalar_loop(chi, points, derivs)
    want_cache = _cache_bits()
    (_warm if warm else lambda chi, pts: lf.clear_cache())(chi, points)
    got = lf._eval_many(chi, points, derivs)
    assert [[_bits(v) for v in row] for row in got] == \
        [[_bits(v) for v in row] for row in want], (chi.q, derivs, warm)
    assert _cache_bits() == want_cache, (chi.q, derivs, warm)
    return got


@pytest.fixture(scope="module")
def batch_chars(chi5, chi7_complex, chi229):
    chi49 = next(c for c in ch.enumerate_primitive(49) if c.order == 42)
    return (chi5, chi7_complex, chi49, chi229)


def test_eval_many_equals_the_scalar_calls(batch_chars):
    fe_inner = {True: 0, False: 0}  # functional-equation points by inner route
    split = 0
    for chi in batch_chars:
        pts, n = _batch_points(chi)
        for s in pts:
            if s.real < 0.0:
                for cuts, _ in lf._upper_parts(chi.data.conj, 1.0 - s, lf._PAIR)[1]:
                    fe_inner[cuts is not None] += 1
            split += _one_cutoff_only(chi, s)
        for derivs in (lf._PAIR, (False,), (True,)):
            for warm in (False, True):
                got = _assert_batch_matches(chi, pts, derivs, warm)
                # a repeated point gets the first one's objects, as a cache hit would
                assert all(x is y for a, b in zip(got[n:], got[:n:5]) for x, y in zip(a, b))
    assert min(fe_inner.values()) >= 10 and split >= 5
    lf.clear_cache()


def test_eval_many_chunks_keep_the_bytes(chi5, chi229, monkeypatch):
    from lderiv import special as sp

    shapes = []
    engine = sp._em_eval

    def recording(s, a, N, K, want_ds):
        if isinstance(s, np.ndarray):  # a batch chunk, not a scalar call
            shapes.append((len(s), len(a), N))
        return engine(s, a, N, K, want_ds)

    monkeypatch.setattr(sp, "_em_eval", recording)
    for chi in (chi5, chi229):
        pts, _ = _batch_points(chi)
        # chunks of 1, 2 and 7 points at the commonest (N, K) = (20, 6), and
        # the default cap
        for entries in (1, 2 * 20 * (chi.q - 1) + 1, 7 * 20 * (chi.q - 1), sp._BATCH_ENTRIES):
            monkeypatch.setattr(sp, "_BATCH_ENTRIES", entries)
            shapes.clear()
            _assert_batch_matches(chi, pts, lf._PAIR, warm=False)
            assert shapes and all(C * A * N <= entries or C == 1 for C, A, N in shapes)
            if entries > 1:
                assert any(C > 1 for C, _, _ in shapes)
    lf.clear_cache()


def test_eval_many_blocks_keep_the_bytes(chi7_complex, chi229, monkeypatch):
    # blocks of 7 points: repeats and half-cached points across blocks
    monkeypatch.setattr(lf, "_MANY_BLOCK", 7)
    for chi in (chi7_complex, chi229):
        pts, _ = _batch_points(chi)
        for derivs in (lf._PAIR, (True,)):
            _assert_batch_matches(chi, pts, derivs, warm=True)
    lf.clear_cache()


def test_eval_L_points_equals_eval_L_point(chi7_complex):
    pts, _ = _batch_points(chi7_complex)
    lf.clear_cache()
    want = [lf.eval_L_point(chi7_complex, s) for s in pts]
    lf.clear_cache()
    got = lf.eval_L_points(chi7_complex, pts)
    for a, b in zip(got, want):
        assert (a.s, _bits(a.L), _bits(a.Lprime), a.err) == (b.s, _bits(b.L), _bits(b.Lprime), b.err)
        assert (a.logderiv is None) == (b.logderiv is None)
        if a.logderiv is not None:
            assert _bits(a.logderiv) == _bits(b.logderiv)
    lf.clear_cache()


def test_eval_many_refuses_what_the_scalar_calls_refuse(chi5):
    # the first refused point in order decides the error, as in a loop
    bad = complex(math.inf, 0.0)
    for pts, err in (([0.5 + 1j, bad, 90.0 + 0j], DomainError),
                     ([0.5 + 1j, 90.0 + 0j, bad], PrecisionLossError)):
        lf.clear_cache()
        with pytest.raises(err):
            lf._eval_many(chi5, pts, lf._PAIR)
        with pytest.raises(err):
            [lf.eval_L_point(chi5, s) for s in pts]
    lf.clear_cache()


# ----------------------------------------------------------------------
# honest bars where the phases Im(s) log(n + a) and Im(s) log q are large

def _phase_points(n):
    """n lattice points on 1.2 <= Re s <= 4, 10 <= |Im s| <= 100, the sign of
    Im s alternating."""
    pts = lattice_points(n, (1.2, 4.0), (10.0, 100.0))
    return [s if k % 2 else s.conjugate() for k, s in enumerate(pts)]


def test_err_is_honest_at_large_imaginary_parts():
    """|value - mpmath| <= err for L and L' on every route, at points where
    the phase rounding of n^-s, (n + a)^-s and q^-s outgrows a bar that
    leaves it out: a lattice for q = 19 and 49, and one point each for
    q = 19, 49 and 229 where such a bar is broken 2-4x.  mpmath costs about
    3 s per chi_229 point, so it has only the one.  err <= 1e-9 (1 + |value|)
    holds on every route but the functional equation's, which serves
    Re s < 0: here its L(1 - s) sits at Re <= -0.2, where the Hurwitz pass's
    terms (n + a)^(s - 1) grow with n and so does their phase rounding."""
    chi19 = next(c for c in ch.enumerate_primitive(19) if c.label == 0)
    chi49 = next(c for c in ch.enumerate_primitive(49) if c.label == 1)
    chi229 = ch.kronecker_character(229)
    cases = [(chi19, s) for s in _phase_points(10) + [3.2 + 17.3j]]
    cases += [(chi49, s) for s in _phase_points(5) + [1.355834377724591 - 28.49639380018175j]]
    cases += [(chi229, 1.5608531989416718 - 72.06388360077871j)]
    for chi, s in cases:
        ref = mp_L_pair(chi, s)
        routes = ["auto", "hurwitz", "fe"]
        if s.real >= 1.5 and lf._series_cutoff(chi, s, True, 3e-10) <= 400_000:
            routes.append("series")
        for route in routes:
            for deriv in (False, True):
                lf.clear_cache()
                v = lf._eval(chi, s, deriv, route)
                assert abs(v.value - ref[deriv]) <= v.err, (chi.q, s, route, deriv)
                if route != "fe":
                    assert v.err <= 1e-9 * (1.0 + abs(v.value)), (chi.q, s, route, deriv)
    lf.clear_cache()


def _rings_around_1():
    """Points on |s - 1| = 10^-k, k = 2, 4, ..., 12, two per ring (one on the
    real axis, alternately right and left of 1), and two on |s - 1| = 0.13,
    just outside the disk where the engine's rows leave out the pole."""
    pts = []
    for k in range(2, 13, 2):
        r = 10.0 ** -k
        pts += [1.0 + r * cmath.exp(1j * (0.7 + 2.1 * k)), 1.0 + r * (-1) ** (k // 2)]
    return pts + [1.0 + 0.13 * cmath.exp(0.4j), 1.0 + 0.13 * cmath.exp(2.5j)]


def test_err_is_honest_around_s_equals_1(chi5, chi7_complex, chi23, chi229):
    """L and L' are entire at s = 1 for primitive chi, and the auto and forced
    Hurwitz routes hold them to |value - ref| <= err <= 1e-9 (1 + |value|) at
    s = 1, on rings |s - 1| = 10^-k down to 1e-12 and just outside the grid's
    disk.  At s = 1 the references are L(1, chi_5) = 2 log(phi) / sqrt 5 and
    L(1, chi_-23) = 3 pi / sqrt 23, else mpmath at 1 + 1e-12 with the
    allowance 1e-12 |L'| or 1e-12 |L''| (mp_L_at_one).  mpmath costs about
    2 s per chi_229 point, so it has three."""
    closed = {5: 2.0 * math.log((1.0 + math.sqrt(5.0)) / 2.0) / math.sqrt(5.0),
              23: 3.0 * math.pi / math.sqrt(23.0)}
    rings = _rings_around_1()
    cases = [(chi, s) for chi in (chi5, chi7_complex, chi23) for s in [1.0 + 0j] + rings]
    cases += [(chi229, s) for s in (rings[0], rings[5], rings[-1])]
    for chi, s in cases:
        if s == 1.0:
            refs = list(mp_L_at_one(chi))
            if chi.q in closed:
                refs[0] = (closed[chi.q], 0.0)
        else:
            refs = [(ref, 0.0) for ref in mp_L_pair(chi, s)]
        for route in ("auto", "hurwitz"):
            for deriv, (ref, allowance) in zip((False, True), refs):
                lf.clear_cache()
                v = lf._eval(chi, s, deriv, route)
                assert abs(v.value - ref) <= v.err + allowance, (chi.q, s, route, deriv)
                assert v.err <= 1e-9 * (1.0 + abs(v.value)), (chi.q, s, route, deriv)
    lf.clear_cache()


# ----------------------------------------------------------------------
# the pass cache: one Hurwitz engine row per (q, s), shared by the
# characters mod q from the second label on

def _odd_mod_23():
    return [c for c in ch.enumerate_primitive(23) if c.kappa == 1]


def _engine_points(monkeypatch):
    """A list that collects the number of points of each engine call."""
    core, calls = lf._hurwitz_core_many, []

    def counting(S, params, a, want_ds):
        calls.append(len(S))
        return core(S, params, a, want_ds)

    monkeypatch.setattr(lf, "_hurwitz_core_many", counting)
    return calls


def _reprs(values):
    return [(repr(v.value), repr(v.err)) for v in values]


def test_pass_cache_keeps_the_bytes_of_L_prime_on_the_origin_rectangle(monkeypatch):
    # every odd chi mod 23 winds L' on (-2, 0) x (-20, 20), one after the
    # other: each sample's value and bar are those of a cold cache, while
    # the characters after the second take most passes from stored rows
    from lderiv.zeros import rectangle, winding_count

    box = rectangle(-2.0, 0.0, -20.0, 20.0)
    engine = _engine_points(monkeypatch)
    lf.clear_cache()
    warm = {}
    for chi in _odd_mod_23():
        got = warm[chi.label] = []

        def sampled(s):
            got.append((s, lf.eval_Lprime(chi, s)))
            return got[-1][1]

        assert winding_count(sampled, box) == 1
    shared = sum(engine)
    assert lf._PASSES.rows
    engine.clear()
    for chi in _odd_mod_23():
        lf.clear_cache()
        cold = [lf.eval_Lprime(chi, s) for s, _ in warm[chi.label]]
        assert _reprs(cold) == _reprs(v for _, v in warm[chi.label]), chi.label
        assert not lf._PASSES.rows  # one label alone stores nothing
    assert shared < 0.4 * sum(engine), (shared, sum(engine))
    lf.clear_cache()


def test_pass_cache_serves_later_characters_with_no_engine_pass(monkeypatch):
    # the first label of a modulus stores nothing; the second stores its
    # rows; a third at the same points runs no engine pass, on the Hurwitz
    # route and in the functional equation's L(1 - s), L'(1 - s) alike.
    # A forced route takes no row and stores none.
    pts = lattice_points(40, (-0.9, 1.9), (-20.0, 20.0), skip=lambda z: abs(z - 1.0) < 0.2)
    assert min(z.real for z in pts) < 0.0 < max(z.real for z in pts)
    first, second, third = _odd_mod_23()[:3]
    engine = _engine_points(monkeypatch)
    lf.clear_cache()
    lf.eval_L_points(first, pts)
    assert sum(engine) == len(pts) and not lf._PASSES.rows and lf._PASSES.nbytes == 0
    lf.eval_L_points(second, pts)
    assert sum(engine) == 2 * len(pts) and len(lf._PASSES.rows) == len(pts)
    engine.clear()
    got = lf.eval_L_points(third, pts)
    assert engine == []
    stored = dict(lf._PASSES.rows)
    for route in ("hurwitz", "fe"):
        on_route = [s for s in pts if (s.real < 0.0) == (route == "fe")]
        for s in on_route:
            lf._eval_many(third, [s], lf._PAIR, route)
        assert len(engine) == len(on_route) and dict(lf._PASSES.rows) == stored
        engine.clear()
    lf.clear_cache()
    assert not lf._PASSES.rows and lf._PASSES.nbytes == 0
    cold = lf.eval_L_points(third, pts)
    assert [_reprs((p.L, p.Lprime)) for p in got] == [_reprs((p.L, p.Lprime)) for p in cold]
    lf.clear_cache()


def test_passes_near_s_equals_1_share_rows_and_never_reach_the_grid(monkeypatch):
    # inside the pole disk a Hurwitz pass batches and shares its row like any
    # other: of the odd chi mod 23 on the rings, the first stores nothing, the
    # second stores its rows, and the third takes them with no engine point,
    # its values and bars those of its cold run.  The grid engine is not called.
    def no_grid(*args):
        raise AssertionError("the planner reached the grid engine")

    monkeypatch.setattr(lf, "_grid_eval", no_grid)
    ring = [s for s in _rings_around_1() if abs(s - 1.0) < sp._POLE_DISK]
    first, second, third = _odd_mod_23()[:3]
    engine = _engine_points(monkeypatch)
    lf.clear_cache()
    lf.eval_L_points(first, ring)
    lf.eval_L_points(second, ring)
    assert engine == [len(ring)] * 2 and len(lf._PASSES.rows) == len(ring)
    engine.clear()
    warm = lf.eval_L_points(third, ring)
    assert engine == []
    lf.clear_cache()
    cold = lf.eval_L_points(third, ring)
    assert engine == [len(ring)]
    assert [_reprs((p.L, p.Lprime)) for p in warm] == [_reprs((p.L, p.Lprime)) for p in cold]
    lf.clear_cache()


def test_pass_row_without_d_ds_serves_no_L_prime(monkeypatch):
    first, second, third, fourth = _odd_mod_23()[:4]
    s = 0.3 + 7.0j
    engine = _engine_points(monkeypatch)
    lf.clear_cache()
    lf.eval_L(first, s)
    lf.eval_L(second, s)  # stores the row without d/ds
    assert lf._PASSES.lookup(23, s, False) is not None and lf._PASSES.lookup(23, s, True) is None
    engine.clear()
    lf.eval_L(third, s)
    assert engine == []
    got = lf.eval_Lprime(third, s)  # a pass of its own, whose row replaces the L-only one
    assert engine == [1] and lf._PASSES.lookup(23, s, True) is not None
    assert len(lf._PASSES.rows) == 1
    row_bytes = 2 * 22 * 16 + lf._ROW_OVERHEAD
    assert lf._PASSES.nbytes == row_bytes
    engine.clear()
    got4 = (lf.eval_L(fourth, s), lf.eval_Lprime(fourth, s))
    assert engine == []
    lf.clear_cache()
    cold = lf.eval_Lprime(third, s)
    lf.clear_cache()
    cold4 = (lf.eval_L(fourth, s), lf.eval_Lprime(fourth, s))
    assert _reprs([got, *got4]) == _reprs([cold, *cold4])
    lf.clear_cache()


def test_pass_cache_stays_within_its_budget(monkeypatch):
    # every chi mod 61 on 481 points of Re s = 3/4: 481 rows with d/ds
    # (60 residues) overflow the budget; after every store the charged
    # bytes stay within it and add up, and every value equals the cold one
    pts = [0.75 + 1j * (-9.6 + 0.04 * k) for k in range(481)]
    chars = ch.enumerate_primitive(61)
    cache = lf._PASSES
    store, sizes = cache.store, []

    def checked(q, s, row):
        store(q, s, row)
        assert cache.nbytes == sum(size for _, size in cache.rows.values()) <= cache.budget
        sizes.append(cache.nbytes)

    monkeypatch.setattr(cache, "store", checked)
    lf.clear_cache()
    warm = {chi.label: lf._eval_many(chi, pts, lf._PAIR) for chi in chars}
    row_bytes = 2 * 60 * 16 + lf._ROW_OVERHEAD
    assert len(pts) * row_bytes > cache.budget == 1 << 20
    assert len(sizes) > len(pts) and max(sizes) > cache.budget - row_bytes
    for chi in chars:
        lf.clear_cache()
        cold = lf._eval_many(chi, pts, lf._PAIR)
        assert [_reprs(v) for v in cold] == [_reprs(v) for v in warm[chi.label]], chi.label
    lf.clear_cache()
    assert not cache.rows and cache.nbytes == 0


def test_pass_cache_keeps_its_first_rows_when_a_winding_outgrows_the_budget(monkeypatch):
    # the first three odd chi mod 229 wind L' on (-2, 0) x (-20, 20), one
    # after the other: a winding asks for about 450 passes, and the budget
    # holds 136 rows of 7696 bytes.  The rows kept are the first ones asked
    # for, which the next character asks for first, so the third sends at
    # most 3/4 of its cold engine points; every value and bar is the cold one
    from lderiv.zeros import rectangle, winding_count

    box = rectangle(-2.0, 0.0, -20.0, 20.0)
    chars = [c for c in ch.enumerate_primitive(229) if c.kappa == 1][:3]
    engine = _engine_points(monkeypatch)
    lf.clear_cache()
    warm = {}
    for chi in chars:
        got = warm[chi.label] = []

        def sampled(s):
            got.append((s, lf.eval_Lprime(chi, s)))
            return got[-1][1]

        engine.clear()
        assert winding_count(sampled, box) == 1
    third = sum(engine)  # the engine points of the third winding
    row_bytes = 2 * 228 * 16 + lf._ROW_OVERHEAD
    assert len(lf._PASSES.rows) * row_bytes == lf._PASSES.nbytes <= lf._PASSES.budget
    assert lf._PASSES.budget < len(warm[chars[0].label]) * row_bytes
    for chi in chars:
        lf.clear_cache()
        engine.clear()
        cold = [lf.eval_Lprime(chi, s) for s, _ in warm[chi.label]]
        assert _reprs(cold) == _reprs(v for _, v in warm[chi.label]), chi.label
    assert third <= 0.75 * sum(engine), (third, sum(engine))
    lf.clear_cache()


def test_pass_cache_drops_its_rows_when_the_modulus_changes(monkeypatch):
    # the cache holds the modulus in hand: one block of a chi mod 29 drops
    # the rows mod 23, and the next label mod 23 is the first again
    first, second, third, fourth = _odd_mod_23()[:4]
    pts = [0.3 + 2.0j * k for k in range(6)]
    lf.clear_cache()
    lf.eval_L_points(first, pts)
    lf.eval_L_points(second, pts)
    assert len(lf._PASSES.rows) == len(pts) and lf._PASSES.nbytes > 0
    lf.eval_L_points(ch.enumerate_primitive(29)[0], [0.3 + 7.0j])
    assert not lf._PASSES.rows and lf._PASSES.nbytes == 0
    engine = _engine_points(monkeypatch)
    lf.eval_L_points(third, pts)  # the first label mod 23 again
    assert sum(engine) == len(pts) and not lf._PASSES.rows and lf._PASSES.nbytes == 0
    lf.eval_L_points(fourth, pts)  # the second: it stores its rows
    assert sum(engine) == 2 * len(pts) and len(lf._PASSES.rows) == len(pts)
    lf.clear_cache()
