"""Acceptance suite: one test per exit criterion, each printing a PASS line.

Run with -s to see the per-criterion lines and timings.
"""

import math
import time

from lderiv import characters as ch
from lderiv import lfunc as lf
from lderiv import verify as vf
from lderiv import zeros as zr
from lderiv.errors import NearZeroError
from lderiv.special import digamma, log_abs_cos_mean
from tests.conftest import digamma_lower_bound_margin, lattice_points, log_abs_cos_mean_quad


def _stamp(name, t0, detail=""):
    print(f"ACCEPTANCE {name}: PASS {detail} ({time.perf_counter() - t0:.1f}s)")


def _all_chars(qs):
    return [chi for q in qs for chi in ch.enumerate_primitive(q)]


def test_criterion_1_critical_line_identity():
    t0 = time.perf_counter()
    checked = skipped = 0
    for chi in _all_chars((3, 4, 5, 7, 23)):
        for t in (0.7, -0.7, 1.0, -1.0, 2.3, -2.3, 5.0, -5.0):
            try:
                closed = lf.re_logderiv_critical(chi, t).value.real
            except NearZeroError:
                skipped += 1
                continue
            direct = lf.eval_L_point(chi, 0.5 + 1j * t).logderiv.value.real
            assert abs(direct - closed) <= 1e-8, (chi.q, chi.label, t)
            checked += 1
    assert checked > 200
    assert time.perf_counter() - t0 < 30.0
    _stamp("1 (critical-line identity)", t0, f"[{checked} points, {skipped} near-zero skips]")


def test_criterion_2_functional_equation_residual():
    t0 = time.perf_counter()
    skip = lambda z: min(abs(z - n) for n in range(1, 7)) < 0.08
    npoints = 0
    for q in range(3, 51):
        for chi in ch.enumerate_primitive(q):
            chib = chi.conjugate()
            for s in lattice_points(100, (-5.0, 6.0), (-40.0, 40.0), skip):
                # force the Euler-Maclaurin route on the moderate negative
                # band so the identity is tested across two code paths
                route = "hurwitz" if -2.5 <= s.real < 0.0 else "auto"
                lhs = lf.eval_L(chi, s, route=route).value
                rhs = lf.eval_F(chi, s).F.value * lf.eval_L(chib, 1 - s).value
                assert abs(lhs - rhs) <= 1e-8 * (1.0 + abs(lhs)), (q, chi.label, s)
                npoints += 1
    assert time.perf_counter() - t0 < 120.0
    _stamp("2 (functional-equation residual)", t0, f"[{npoints} points]")


def test_criterion_3_reference_constants():
    t0 = time.perf_counter()
    reports = vf.check_reference_constants()
    names = " | ".join(r.name for r in reports if not r.passed)
    assert all(r.passed for r in reports), names
    assert all(r.margin > 0 for r in reports)
    assert len(reports) >= 20
    assert time.perf_counter() - t0 < 60.0
    _stamp("3 (reference constants)", t0, f"[{len(reports)} inequalities]")


def test_criterion_4_trivial_zeros():
    t0 = time.perf_counter()
    strips = located = contained = circles = 0
    for chi in _all_chars((3, 4, 5, 7, 23)):
        f = lambda s: lf.eval_Lprime(chi, s)
        for j in range(1, 11):
            c = -2 * j - chi.kappa
            n = zr.winding_count(f, zr.rectangle(c - 1, c + 1, -6.0, 6.0))
            assert n == 1, (chi.q, chi.label, j, n)
            strips += 1
            rec = zr.locate_trivial_zero(chi, j)
            assert c - 1 < rec.location.real < c + 1
            located += 1
            if chi.is_quadratic:
                assert abs(rec.location.imag) < 1e-9, (chi.q, j)
                assert c < rec.location.real < c + 1, (chi.q, j)
            r = 2.0 / math.log(j * chi.q)
            try:
                count = zr.winding_count(f, zr._circle(complex(c), r), mesh=0.5)
            except Exception:
                count = None
            if count == 1:
                circles += 1
                assert abs(rec.location - c) < r, (chi.q, chi.label, j)
                contained += 1
    assert strips == located == 310
    assert circles > 250  # the circle route succeeds for most (j, q)
    assert time.perf_counter() - t0 < 300.0
    _stamp("4 (trivial zeros: uniqueness + containment)", t0,
           f"[310 strips unique; containment certified at {contained} circles]")


def test_criterion_5_near_origin_strips():
    t0 = time.perf_counter()
    even_cases = (
        [c for c in ch.enumerate_primitive(7) if c.kappa == 0]
        + [c for c in ch.enumerate_primitive(8) if c.kappa == 0]
        + [ch.kronecker_character(229)]
    )
    odd_cases = [c for c in ch.enumerate_primitive(23) if c.kappa == 1] + [
        c for c in ch.enumerate_primitive(31) if c.kappa == 1
    ]
    for chi in even_cases:
        rep = vf.check_near_origin_strip(chi)
        assert rep.passed and rep.measured == 0, (chi.q, chi.label)
    for chi in odd_cases:
        rep = vf.check_near_origin_strip(chi)
        assert rep.passed and rep.measured == 1, (chi.q, chi.label)
        if chi.is_quadratic:
            assert -1.0 < rep.params["zero_re"] < 0.0
    assert time.perf_counter() - t0 < 300.0
    _stamp("5 (near-origin strips)", t0,
           f"[{len(even_cases)} even chars: 0 zeros; {len(odd_cases)} odd chars: 1 zero]")


def test_criterion_6_count_asymptotic(chi5):
    t0 = time.perf_counter()
    norms = []
    for T in (5.0, 10.0, 20.0, 40.0):
        rep = vf.check_count_asymptotic(chi5, T, with_oracle=True)
        assert rep.passed, (T, rep.measured, rep.params)
        assert rep.params["count"] == rep.params["oracle"], T  # exact integer match
        assert rep.measured <= vf.C5_FROZEN
        norms.append(rep.measured)
    # discrepancy grows no faster than log(qT): its normalized form stays flat
    assert max(norms) / max(min(norms), 1e-9) < 3.0
    assert time.perf_counter() - t0 < 600.0
    _stamp("6 (zero-count asymptotic)", t0, "[T in {5,10,20,40}, oracle == winding]")


def test_criterion_7_distance_sum(chi5):
    t0 = time.perf_counter()
    for T in (5.0, 10.0, 20.0, 40.0):
        rep = vf.check_distance_sum_asymptotic(chi5, T, stability=(T <= 10.0))
        assert rep.passed, (T, rep.measured, rep.params)
        assert rep.measured <= vf.C6_FROZEN
        if T <= 10.0:
            assert rep.params["resum_delta"] < 1e-6
    assert time.perf_counter() - t0 < 600.0
    _stamp("7 (distance-sum asymptotic)", t0, "[sums stable to 1e-6 under mesh halving]")


def test_criterion_8_speiser_counts(chi229, chi23):
    t0 = time.perf_counter()
    rep229 = vf.check_speiser(chi229, 20.0)
    assert rep229.passed
    assert (rep229.params["N_minus"], rep229.params["N1_minus"]) == (0, 1)
    assert rep229.measured == rep229.bound == 0  # winding = N1- - N- - 1 exactly
    rep23 = vf.check_speiser(chi23, 20.0)
    assert rep23.passed
    assert (rep23.params["N_minus"], rep23.params["N1_minus"]) == (0, 0)
    assert rep23.measured == rep23.bound == 0
    assert time.perf_counter() - t0 < 600.0
    _stamp("8 (strip-count equivalences)", t0,
           "[q=229: (0,1) with exact winding identity; q=23: (0,0)]")


def test_criterion_9_property_suites(chi5, chi7_complex):
    t0 = time.perf_counter()
    # digamma reflection + recurrence at 1e-10
    for z in lattice_points(60, (-6.0, 6.0), (0.05, 4.0)):
        refl = digamma(1 - z).value - digamma(z).value - math.pi / _tan(math.pi * z)
        assert abs(refl) < 1e-10 * (1 + abs(digamma(z).value))
        rec = digamma(z + 1).value - digamma(z).value - 1.0 / z
        assert abs(rec) < 1e-10 * (1 + abs(digamma(z).value))
    # the digamma lower bound on a 500-point grid
    for z in lattice_points(500, (-12.0, 12.0), (0.05, 25.0)):
        assert digamma_lower_bound_margin(z) > 0.0, z
    # Lemma Gest / its sigma >= 8m corollary at 200 sampled points
    for chi in (chi5, chi7_complex):
        for s in lattice_points(100, (2.0, 10.0 * chi.m), (-40.0, 40.0)):
            g = lf.eval_G(chi, s).value
            assert abs(g - 1.0) <= lf.gest_bound(chi.m, s.real) + 1e-9
            if s.real >= 8 * chi.m:
                assert abs(g - 1.0) <= 4.0 * math.exp(-s.real / (2 * chi.m))
    # Jensen closed form vs quadrature on 50 (a, b) pairs
    for w in lattice_points(50, (0.1, 5.0), (0.1, 5.0)):
        a, b = w.real, w.imag
        assert abs(log_abs_cos_mean(a, b) - log_abs_cos_mean_quad(a, b)) < 1e-8
    # Hurwitz-vs-Dirichlet-series agreement at Re s = 3 for q <= 50
    import numpy as np

    s = 3.0 + 0j
    n = np.arange(1, 20001, dtype=float)
    npow = n ** -3.0
    for q in range(3, 51):
        for chi in ch.enumerate_primitive(q):
            direct = complex(np.sum(chi.data.values[np.arange(1, 20001) % q] * npow))
            tail = lf._series_tail_bound(chi, s, False, 20000)
            ours = lf.eval_L(chi, s, route="hurwitz").value
            assert abs(ours - direct) <= 1e-10 + tail, (q, chi.label)
    assert time.perf_counter() - t0 < 120.0
    _stamp("9 (property suites)", t0)


def _tan(z):
    import cmath

    return cmath.tan(z)
