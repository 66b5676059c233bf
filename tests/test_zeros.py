"""Argument-principle counting, zero location, and the strip statistics."""

import cmath
import math
import tracemalloc

import numpy as np
import pytest

from lderiv import characters as ch
from lderiv import lfunc as lf
from lderiv import zeros as zr
from lderiv.errors import (
    BoundaryZeroError,
    DomainError,
    InconclusiveBoundaryError,
    NumericalError,
    PrecisionLossError,
)
from lderiv.numtypes import ComplexValue
from lderiv.special import log_gamma
from tests.conftest import cauchy_derivative
from tests.test_special import _ref_hurwitz_grid


# ----------------------------------------------------------------------
# the walker on synthetic functions

def test_winding_polynomial():
    f = lambda s: (s - (1 + 0.5j)) * (s - (2 - 0.3j))
    assert zr.winding_count(f, zr.rectangle(0, 3, -2, 2)) == 2
    assert zr.winding_count(f, zr.rectangle(0, 1.5, -2, 2)) == 1
    assert zr.winding_count(f, zr.rectangle(5, 6, -1, 1)) == 0


def test_winding_counts_poles_negatively():
    f = lambda s: (s - 0.5j) / (s + 0.5j) ** 2
    assert zr.winding_count(f, zr.rectangle(-1, 1, -1, 1)) == -1


def test_winding_boundary_zero_detected():
    f = lambda s: s
    with pytest.raises(BoundaryZeroError):
        zr.winding_count(f, zr.rectangle(0, 1, -1, 1))


def test_indentation_sides_enclose_or_exclude():
    f = lambda s: s  # single zero at the origin
    # zero on the left edge: a left bulge encloses it, a right bulge excludes
    left = zr.Contour(0, 1, -1, 1, (zr.Indentation(0j, 0.1, "left"),))
    right = zr.Contour(0, 1, -1, 1, (zr.Indentation(0j, 0.1, "right"),))
    assert zr.winding_count(f, left) == 1
    assert zr.winding_count(f, right) == 0
    # zero on the right edge: the roles flip
    left2 = zr.Contour(-1, 0, -1, 1, (zr.Indentation(0j, 0.1, "left"),))
    right2 = zr.Contour(-1, 0, -1, 1, (zr.Indentation(0j, 0.1, "right"),))
    assert zr.winding_count(f, left2) == 0
    assert zr.winding_count(f, right2) == 1
    assert left.encloses(0j) and not right.encloses(0j)
    assert not left2.encloses(0j) and right2.encloses(0j)


def test_rectangle_count_recovers_from_boundary_zeros(monkeypatch):
    # _count_rect_adaptive on (0, 1) x (-2, 2): a zero on the left edge is
    # excluded by one rightward indentation, a zero on a horizontal edge is
    # stepped over by widening T by 3.3e-4, and a zero on the right edge is
    # refused
    tried = []
    wind = zr.winding_count

    def recording(f, contour, mesh=1.0):
        tried.append(contour)
        return wind(f, contour, mesh=mesh)

    monkeypatch.setattr(zr, "winding_count", recording)
    assert zr._count_rect_adaptive(lambda s: s - 0.3j, 0.0, 1.0, 2.0) == (0, 0.0)
    assert [len(c.indentations) for c in tried] == [0, 1]
    [ind] = tried[-1].indentations
    assert (ind.side, ind.radius) == ("right", 1e-3) and abs(ind.center - 0.3j) < 1e-6

    tried.clear()
    n, t_shift = zr._count_rect_adaptive(lambda s: s - (0.5 + 2j), 0.0, 1.0, 2.0)
    assert (n, t_shift) == (1, 3.3e-4)
    assert [(c.t_max, c.indentations) for c in tried] == [(2.0, ()), (2.0 + 3.3e-4, ())]

    with pytest.raises(BoundaryZeroError) as exc:
        zr._count_rect_adaptive(lambda s: s - (1 + 0.3j), 0.0, 1.0, 2.0)
    assert abs(exc.value.location - (1 + 0.3j)) < 1e-6


def test_contour_validation():
    with pytest.raises(DomainError):
        zr.Contour(1, 0, -1, 1)
    with pytest.raises(DomainError):
        zr.Contour(0, 1, -1, 1, (zr.Indentation(0.5 + 0j, 0.1, "left"),))
    with pytest.raises(DomainError):
        zr.Contour(0, 1, -1, 1, (zr.Indentation(0j, 0.05, "left"),
                                 zr.Indentation(0.05j, 0.05, "left")))


def test_mesh_halving_stability(chi5):
    f = lambda s: lf.eval_Lprime(chi5, s)
    box = zr.rectangle(0.5, 4.0, 6.0, 9.0)
    assert zr.winding_count(f, box, mesh=1.0) == zr.winding_count(f, box, mesh=0.5) == 1


# ----------------------------------------------------------------------
# the half walk of a mirror-symmetric contour

def _unflagged(f):
    """f with its many-point form but no declared symmetry: the full walk."""
    g = lambda s: f(s)
    g.many = f.many
    return g


def _count_or_raise(f, contour):
    try:
        return zr.winding_count(f, contour)
    except BoundaryZeroError:
        return BoundaryZeroError


def test_half_walk_counts_as_the_full_walk(chi5, chi229, chi23):
    # a real chi's L, L' and L'/L on rectangles in the fe, Hurwitz and series
    # bands and on the strip contour: the half walk counts what the full walk
    # counts; on the strip without indentations, and on (1/2, 1) x (-10, 10),
    # zeros of L sit on the contour, and where the full walk raises so does
    # the half walk
    from lderiv.verify import _logderiv_ratio

    boxes = [zr.rectangle(-3.5, -0.5, -6.0, 6.0), zr.rectangle(0.2, 1.8, -8.0, 8.0),
             zr.rectangle(2.0, 5.0, -6.0, 6.0), zr.Contour(0.0, 0.5, -10.0, 10.0),
             zr.Contour(0.5, 1.0, -10.0, 10.0)]
    raised = 0
    for chi in (chi5, chi229, chi23):
        strip, _ = zr._strip_contour(chi, 10.0)
        assert strip.upper_half() is not None and len(strip.indentations) > 2
        for f in (zr._evaluator(chi, "L"), zr._evaluator(chi, "Lprime"), _logderiv_ratio(chi)):
            assert f.conj_symmetric is True
            for contour in boxes + [strip]:
                got = _count_or_raise(f, contour)
                assert got == _count_or_raise(_unflagged(f), contour), (chi.q, contour)
                raised += got is BoundaryZeroError
    assert raised == 12  # L and L'/L on the two contours through zeros of L
    lf.clear_cache()


def test_half_walk_only_on_mirrored_contours_of_declared_f(chi5, chi7_complex):
    # no half walk for a complex chi, for indentations not closed under
    # conjugation, or for t_min != -t_max: the walk samples below the axis
    # and its variation is the full walk's, bit for bit; with both, the walk
    # samples none
    def walk(f, contour):
        seen = []
        g = lambda s: seen.append(s) or f(s)
        g.many = lambda points: seen.extend(points) or f.many(points)
        g.conj_symmetric = getattr(f, "conj_symmetric", False)
        return zr.arg_variation(g, contour), min(s.imag for s in seen)

    L5, L7 = zr._evaluator(chi5, "L"), zr._evaluator(chi7_complex, "L")
    assert L7.conj_symmetric is False
    gamma = 0.5 + 6.648453344726114j  # the first zero of L(s, chi5) on the line
    mirrored = zr.Contour(0.2, 0.5, -8.0, 8.0, (zr.Indentation(gamma, 1e-3, "left"),
                                                zr.Indentation(gamma.conjugate(), 1e-3, "left")))
    lopsided = zr.Contour(0.2, 0.5, -8.0, 8.0, (zr.Indentation(gamma, 1e-3, "left"),
                                                zr.Indentation(gamma.conjugate(), 1e-3, "right")))
    for f, contour in ((L7, zr.rectangle(0.2, 1.8, -8.0, 8.0)), (L5, lopsided),
                       (L5, zr.rectangle(0.2, 1.8, -8.0, 9.0))):
        assert contour.upper_half() is None or not f.conj_symmetric
        variation, lowest = walk(f, contour)
        assert lowest < 0.0 and variation == zr.arg_variation(_unflagged(f), contour)
    variation, lowest = walk(L5, mirrored)
    assert lowest >= 0.0 and round(variation / (2.0 * math.pi)) == 0
    lf.clear_cache()


def test_real_critical_line_plans_only_its_upper_half(chi5, chi229, monkeypatch):
    plan = lf._plan
    planned = []

    def recording(leaves, chi, s, derivs, route):
        planned.append(s)
        return plan(leaves, chi, s, derivs, route)

    monkeypatch.setattr(lf, "_plan", recording)
    for chi in (chi5, chi229):
        lf.clear_cache()
        planned.clear()
        got = zr.critical_line_zeros(chi, 20.02)
        assert planned and min(s.imag for s in planned) >= 0.0
        assert len(got) > 10 and got == [-g for g in reversed(got)]
    lf.clear_cache()


def test_critical_line_refuses_bad_grids(chi5):
    # an empty or endless grid would claim that there are no zeros
    nan, inf = math.nan, math.inf
    for T, spacing in ((5.0, 0.0), (5.0, -0.02), (-3.0, 0.02), (nan, 0.02),
                       (5.0, nan), (inf, 0.02), (5.0, inf)):
        with pytest.raises(DomainError):
            zr.critical_line_zeros(chi5, T, spacing)
    assert zr.critical_line_zeros(chi5, 0.0) == []


# ----------------------------------------------------------------------
# L and L' windings

def test_L_winding_around_trivial_zero(chi5):
    f = lambda s: lf.eval_L(chi5, s)
    assert zr.winding_count(f, zr.rectangle(-2.5, -1.5, -5, 5)) == 1


def test_Lprime_winding_mod23_strip(chi23):
    f = lambda s: lf.eval_Lprime(chi23, s)
    assert zr.winding_count(f, zr.rectangle(-2, 0, -50, 50)) == 1


# ----------------------------------------------------------------------
# trivial zeros

def test_alpha_j_chi5_real_in_interval(chi5):
    for j in range(1, 11):
        rec = zr.locate_trivial_zero(chi5, j)
        c = -2 * j
        assert rec.multiplicity == 1
        assert rec.classification == "trivial-left"
        assert abs(rec.location.imag) < 1e-9
        assert c < rec.location.real < c + 1  # quadratic: right half-strip
        assert rec.radius <= 1e-7


def test_alpha_strip_uniqueness(chi5):
    f = lambda s: lf.eval_Lprime(chi5, s)
    for j in (1, 2, 5):
        assert zr.winding_count(f, zr.rectangle(-2 * j - 1, -2 * j + 1, -6, 6)) == 1


def test_alpha_containment_mod7():
    chi = ch.enumerate_primitive(7)[0]
    j = 5
    rec = zr.locate_trivial_zero(chi, j)
    assert abs(rec.location + 2 * j + chi.kappa) < 2.0 / math.log(j * 7)


def test_locate_in_strip_finds_the_certified_trivial_zero():
    # the quadrisection fallback of locate_trivial_zero, called directly
    for q in (7, 5):
        chi = ch.enumerate_primitive(q)[0]
        rec = zr.locate_trivial_zero(chi, 1)
        z = zr._locate_in_strip(chi, -2 - chi.kappa)
        assert abs(z - rec.location) <= rec.radius, (q, z, rec)


def test_alpha_window_domain_error(chi5):
    with pytest.raises(DomainError):
        zr.locate_trivial_zero(chi5, 0)
    with pytest.raises(DomainError):
        zr.locate_trivial_zero(chi5, 45)


# ----------------------------------------------------------------------
# N1 counting

def test_count_N1_matches_oracle(chi5):
    for T in (2.0, 10.0):
        n = zr.count_N1(chi5, T)
        oracle = zr.grid_zero_scan(chi5, T)
        assert n == len(oracle), (T, n, oracle)


def _ref_grid_eval(chi, S, deriv):
    """L' over S as the oracle had it before the separable grid: the former
    grid engine per residue, summed with the weights in chunks of 4096 points.
    The error bars are zeros: the former engine gave none to the oracle.  The
    former engine raises at s = 1, so points within 1e-9 of it move by 5e-8,
    as the oracle then moved them."""
    assert deriv
    S = np.where(np.abs(S - 1.0) < 1e-9, S + 5e-8, S)
    d, lq = chi.data, math.log(chi.q)
    out = np.empty(len(S), dtype=complex)
    for start in range(0, len(S), 4096):
        s = S[start:start + 4096]
        vals, dvals, _ = _ref_hurwitz_grid(s, d.residues, want_ds=True)
        out[start:start + 4096] = np.exp(-s * lq) * (dvals @ d.weights - lq * (vals @ d.weights))
    return out, np.zeros(len(S))


def _ref_grid_blocks(chi, bands):
    """The blocks the oracle reads from special._grid_blocks, built from
    _ref_grid_eval in 400-row bands of t (the former oracle's bands); each
    band is appended to the list bands as it is built."""
    def blocks(sigma, t, q, f, want_ds=False):
        assert q == chi.q and want_ds
        for c0 in range(0, len(t), 400):
            S = sigma[None, :] + 1j * t[c0:c0 + 400, None]
            vals, errs = _ref_grid_eval(chi, S.ravel(), True)
            bands.append(c0)
            yield c0, vals.reshape(S.shape), errs.reshape(S.shape)
    return blocks


def test_oracle_candidates_and_zeros_match_the_former_grid(chi5, chi7_complex, monkeypatch):
    for chi in (chi5, chi7_complex):
        got = zr._grid_candidates(chi, 5.0, 0.1)
        bands = []
        with monkeypatch.context() as m:
            m.setattr(zr, "_grid_blocks", _ref_grid_blocks(chi, bands))
            want = zr._grid_candidates(chi, 5.0, 0.1)
        assert bands == [0, 400], bands  # the reference engine is the one the oracle read
        assert got and [repr(z) for z in got] == [repr(z) for z in want], chi.q
        zeros = zr.grid_zero_scan(chi, 5.0)
        assert repr(zeros) == repr(zr._polish_candidates(chi, 5.0, want)), chi.q
    # the scan refuses a grid whose bars exceed threshold/1000
    with pytest.raises(PrecisionLossError):
        zr.grid_zero_scan(chi5, 2.0, threshold=1e-10)


def _ref_local_minima(vals, prev_row, next_row, threshold):
    """The oracle's former per-entry loop, with next_row as the lower
    neighbour of the last row."""
    out = []
    for i in range(len(vals)):
        row = vals[i]
        up = vals[i - 1] if i > 0 else prev_row
        down = vals[i + 1] if i + 1 < len(vals) else next_row
        for jx in np.flatnonzero(row < threshold):
            v = row[jx]
            if jx > 0 and row[jx - 1] < v:
                continue
            if jx + 1 < len(row) and row[jx + 1] < v:
                continue
            if up is not None and up[jx] < v:
                continue
            if down is not None and down[jx] < v:
                continue
            out.append((i, jx))
    return out


def test_oracle_zeros_are_pinned(chi5, chi7_complex):
    """The oracle's zeros at T = 10, as the scan over 400-row bands of
    lfunc._grid_eval found them before it read the engine's blocks."""
    assert repr(zr.grid_zero_scan(chi5, 10.0)) == \
        "[(2.3010344349094876-7.9083485645629645j), (2.301034434909484+7.908348564562965j)]"
    assert repr(zr.grid_zero_scan(chi7_complex, 10.0)) == (
        "[(1.6654023404272158-8.4075966461505j), (0.17251186743997607-0.6900747912173231j), "
        "(2.370118229025891+6.263209521674537j), (0.9064377164255727+9.285017552631642j)]")


def test_oracle_streams_its_grid_in_small_blocks(chi5):
    """The scan holds one block of t rows of |L'| and one row before it, not
    a band of the grid: the traced peak of a T = 10 scan stays under 4 MB
    (400-row bands of points, values and bars traced 13.7 MB)."""
    zr.grid_zero_scan(chi5, 10.0)  # the character's tables and lazy imports
    lf.clear_cache()
    tracemalloc.start()
    try:
        zr.grid_zero_scan(chi5, 10.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4e6, peak


def test_oracle_refuses_bad_scans(chi5, monkeypatch):
    nan, inf = math.nan, math.inf
    # an endless or empty grid, or a threshold that keeps nothing (or everything)
    for T, threshold in ((nan, 0.1), (inf, 0.1), (-1.0, 0.1), (5.0, 0.0), (5.0, -0.1),
                         (5.0, nan), (5.0, inf)):
        with pytest.raises(DomainError):
            zr.grid_zero_scan(chi5, T, threshold)
    # past the window |Im s| <= 100 the oracle refuses as eval_L does, before
    # it builds its grid
    monkeypatch.setattr(zr, "_grid_blocks", lambda *args, **kw: pytest.fail("grid built"))
    for T in (100.5, 1e6):
        with pytest.raises(PrecisionLossError):
            zr.grid_zero_scan(chi5, T)


def test_walker_refuses_bad_meshes(chi5):
    f = zr._evaluator(chi5, "Lprime")
    box = zr.rectangle(0, 1, -1, 1)
    for mesh in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(DomainError):
            zr.arg_variation(f, box, mesh=mesh)
        with pytest.raises(DomainError):
            zr.winding_count(f, box, mesh=mesh)
        with pytest.raises(DomainError):
            zr.list_zeros(chi5, box, "Lprime", mesh=mesh)


def test_local_minima_sees_the_next_bands_first_row():
    vals = np.full((3, 5), 0.5)
    vals[2, 2] = 0.01  # a dip in the band's last row ...
    next_row = np.full(5, 0.5)
    next_row[2] = 0.001  # ... that the next band's first row undercuts
    rows, cols = zr._local_minima(vals, None, next_row, 0.1)
    assert rows.size == 0
    rows, cols = zr._local_minima(vals, None, None, 0.1)
    assert list(zip(rows, cols)) == [(2, 2)]


def test_local_minima_matches_the_loop():
    x = np.arange(40)[None, :] * 0.37
    y = np.arange(30)[:, None] * 0.53
    grid = np.abs(np.sin(x) * np.cos(y) + 0.3 * np.sin(2.1 * x + y))
    for prev_row, vals, next_row in ((None, grid[:12], grid[12]), (grid[11], grid[12:], None)):
        rows, cols = zr._local_minima(vals, prev_row, next_row, 0.2)
        ref = _ref_local_minima(vals, prev_row, next_row, 0.2)
        assert len(ref) > 3
        assert list(zip(rows.tolist(), cols.tolist())) == ref


def test_count_N1_integer_stability(chi5):
    assert zr.count_N1(chi5, 10.0, verify=False) == zr.count_N1(chi5, 10.001, verify=False)


def test_zero_free_sigma_certificate(chi5):
    sigma_star = zr.zero_free_sigma(chi5.m)
    assert lf.gest_bound(chi5.m, sigma_star + 1e-6) < 1.0
    assert 2.0 < sigma_star < 8 * chi5.m


# ----------------------------------------------------------------------
# strip counts and listing

def test_count_strip_mod23(chi23):
    assert zr.count_strip(chi23, 20.0, "Lprime") == 0
    assert zr.count_strip(chi23, 20.0, "L") == 0


def test_count_strip_mesh_halving(chi23):
    for which in ("Lprime", "L"):
        counts = [zr.count_strip_detailed(chi23, 10.0, which, mesh=m)[0] for m in (1.0, 0.5)]
        assert counts == [0, 0], which


def test_count_strip_chi5_grh_desk_scale(chi5):
    # kappa=0 path: s=0 rides inside via its left indentation, subtracted out
    assert zr.count_strip(chi5, 10.0, "L") == 0
    assert zr.count_strip(chi5, 20.0, "L") == 0


def test_list_zeros_consistency(chi5):
    recs = zr.list_zeros(chi5, zr.rectangle(0.0, 20.0, -10.0, 10.0), "Lprime")
    assert sum(r.multiplicity for r in recs) == zr.count_N1(chi5, 10.0, verify=False)
    for r in recs:
        assert r.classification == "nontrivial"
        resid = abs(lf.eval_Lprime(chi5, r.location).value)
        curv = abs(cauchy_derivative(lambda w: lf.eval_Lprime(chi5, w).value, r.location, 0.1, 32))
        assert resid <= 1e-7 * (1.0 + curv)
    # conjugation symmetry of the zero set for a real character
    locs = sorted((r.location for r in recs), key=lambda z: (z.imag, z.real))
    for z in locs:
        assert any(abs(z.conjugate() - w) < 1e-8 for w in locs)


def test_list_zeros_sum_matches_oracle(chi5):
    recs = zr.list_zeros(chi5, zr.rectangle(0.0, 20.0, -10.0, 10.0), "Lprime")
    s_list = sum((r.location.real - 0.5) * r.multiplicity for r in recs)
    s_oracle = sum(z.real - 0.5 for z in zr.grid_zero_scan(chi5, 10.0))
    assert abs(s_list - s_oracle) < 1e-6


def _listing(chi, region, monkeypatch, flagged=True):
    """list_zeros on the region, and the rectangles it winds; flagged False
    runs it with evaluators that declare no symmetry, split in full."""
    wound = []
    wind, evaluator = zr.winding_count, zr._evaluator

    def recording(f, contour, mesh=1.0):
        wound.append(contour)
        return wind(f, contour, mesh=mesh)

    with monkeypatch.context() as m:
        m.setattr(zr, "winding_count", recording)
        if not flagged:
            m.setattr(zr, "_evaluator", lambda chi, which: _unflagged(evaluator(chi, which)))
        recs = zr.list_zeros(chi, region)
    return recs, [c for c in wound if isinstance(c, zr.Contour)]


def test_mirrored_split_lists_as_the_full_split(chi5, chi23, chi229, monkeypatch):
    """For a real chi on a region with t_min == -t_max the first cut is the
    real axis: only the upper quadrants are wound and subdivided, and the
    records are those of the full split, repr for repr.  At (229, 113) L'
    has a real zero at about 2.329 on that cut: the split falls back to
    the full one, with the full split's records, and skips the full
    split's cut on the axis, whose upper-left quadrant met that zero."""
    box = zr.rectangle(0.0, 20.0, -10.0, 10.0)
    lower = [zr.rectangle(0.0, 10.0, -10.0, 0.0), zr.rectangle(10.0, 20.0, -10.0, 0.0)]
    for chi, n in ((chi5, 2), (chi23, 6), (chi229, 16)):
        recs, wound = _listing(chi, box, monkeypatch)
        full, full_wound = _listing(chi, box, monkeypatch, flagged=False)
        assert len(recs) == n and repr(recs) == repr(full), chi.q
        if chi is chi229:
            # the zero on the axis stops the first lower quadrant's winding
            # in the full split; the fallback winds no quadrant of that cut
            # and the failed upper-left one once
            assert lower[0] in full_wound and not [c for c in lower if c in wound]
            assert wound.count(zr.rectangle(0.0, 10.0, 0.0, 10.0)) == 1
            assert any(abs(r.location - 2.329) < 1e-3 and abs(r.location.imag) < 1e-12 for r in recs)
        else:
            assert all(c in full_wound for c in lower)
            assert not [c for c in wound if c.t_min < 0.0 and c != box], chi.q
            assert len(wound) < len(full_wound)
    lf.clear_cache()


def _ref_critical_line_zeros(chi, T, spacing=0.02):
    """critical_line_zeros with 52 bisections a sign change, as it was before
    the Illinois refinement (verbatim bar the module prefixes)."""
    omega = cmath.phase(chi.data.epsilon.value) / 2.0

    def zfun(t: float) -> float:
        s = 0.5 + 1j * t
        g = cmath.exp(
            ((s + chi.kappa) / 2.0) * math.log(chi.q / math.pi) + log_gamma((s + chi.kappa) / 2.0)
        )
        v = cmath.exp(-1j * omega) * g * lf.eval_L(chi, s).value
        return v.real

    ts = np.arange(-T, T + spacing / 2, spacing)
    svals = np.array([zfun(float(t)) for t in ts])
    zeros = []
    for i in range(len(ts) - 1):
        a, b = svals[i], svals[i + 1]
        if a == 0.0:
            zeros.append(float(ts[i]))
            continue
        if a * b < 0.0:
            lo, hi = float(ts[i]), float(ts[i + 1])
            flo = a
            for _ in range(52):
                mid = 0.5 * (lo + hi)
                fm = zfun(mid)
                if fm == 0.0:
                    lo = hi = mid
                    break
                if (fm > 0) == (flo > 0):
                    lo, flo = mid, fm
                else:
                    hi = mid
            zeros.append(0.5 * (lo + hi))
    return zeros


def test_critical_line_refinement_matches_the_bisection(chi5, chi7_complex, chi229, monkeypatch):
    T = 20.02
    ts = np.arange(-T, T + 0.01, 0.02)
    fresh = []
    scalar = zr.eval_L

    def counting(chi, s, route="auto"):
        fresh.append((chi.q, chi.label, complex(s), False) not in lf._POINT_CACHE)
        return scalar(chi, s, route)

    for chi in (chi5, chi7_complex, chi229):
        lf.clear_cache()
        want = _ref_critical_line_zeros(chi, T)
        lf.clear_cache()
        fresh.clear()
        monkeypatch.setattr(zr, "eval_L", counting)
        got = zr.critical_line_zeros(chi, T)
        monkeypatch.undo()
        assert len(got) == len(want) > 10, chi.q
        for g, w in zip(got, want):
            i = int(np.searchsorted(ts, w)) - 1  # the sign change's bracket
            assert ts[i] < g < ts[i + 1] and abs(g - w) <= 1e-11, (chi.q, g, w)
        assert sum(fresh) <= 10 * len(got), (chi.q, sum(fresh), len(got))
    lf.clear_cache()


def _ref_full_grid_scan(chi, T, spacing=0.02):
    """critical_line_zeros as it was with every grid point evaluated, on
    the grid t = k spacing, |k| <= T/spacing, and with no mirroring
    (verbatim bar the module prefixes)."""
    omega = cmath.phase(chi.data.epsilon.value) / 2.0
    rot = cmath.exp(-1j * omega)

    def zval(t: float, L: ComplexValue) -> tuple[float, float]:
        """Z(t) from L(1/2 + it), and the bar |g| L.err of Z."""
        s = 0.5 + 1j * t
        g = cmath.exp(
            ((s + chi.kappa) / 2.0) * math.log(chi.q / math.pi) + log_gamma((s + chi.kappa) / 2.0)
        )
        return (rot * g * L.value).real, abs(g) * L.err

    m = math.floor(T / spacing * (1.0 + 1e-12))
    ts = [k * spacing for k in range(-m, m + 1)]
    Ls = lf._eval_many(chi, [0.5 + 1j * t for t in ts], (False,))
    zs = []
    for t, (L,) in zip(ts, Ls):
        z, bar = zval(t, L)
        if not abs(z) > 10.0 * bar:
            raise InconclusiveBoundaryError(
                f"Z({t}) = {z:.3e} does not clear its error bar {bar:.3e}: sign not certified"
            )
        zs.append(z)
    zfun = lambda t: zval(t, lf.eval_L(chi, 0.5 + 1j * t))[0]
    return [zr._illinois(zfun, ts[i], zs[i], ts[i + 1], zs[i + 1])
            for i in range(len(ts) - 1) if zs[i] * zs[i + 1] < 0.0]


def test_coarse_to_fine_scan_matches_the_full_grid_bitwise(chi5, chi7_complex, chi229):
    # (59, 41) has two zeros 0.025 apart, near t = 14.65, in one coarse cell.
    # A real chi's lower half is its upper half mirrored, not scanned: the
    # reference's own lower half agrees to Illinois' 1e-12 (1 + |t|)
    chi59 = ch.from_label(59, 41)
    for chi in (chi5, chi7_complex, chi229, chi59):
        lf.clear_cache()
        got = zr.critical_line_zeros(chi, 20.02)
        lf.clear_cache()
        want = _ref_full_grid_scan(chi, 20.02)
        assert len(got) == len(want) > 10, (chi.q, chi.label)
        if chi.is_quadratic:
            upper = [g for g in want if g > 0.0]
            assert got == [-g for g in reversed(upper)] + upper, (chi.q, chi.label)
            assert all(abs(g - w) <= 1e-12 * (1.0 + abs(w)) for g, w in zip(got, want))
        else:
            assert got == want, (chi.q, chi.label)
    assert min(b - a for a, b in zip(got, got[1:])) < 0.03
    lf.clear_cache()


def _synthetic_scan(z, n=201, h=0.02):
    """_scan_samples on z at t_i = i h: the sign-change brackets it sees, those
    of every grid point, and the indices it evaluated."""
    seen = []
    idx, vals = zr._scan_samples(n, lambda ix: seen.extend(ix) or [z(i * h) for i in ix])
    assert idx == sorted(seen) and vals == [z(i * h) for i in idx]
    got = [(i, j) for (i, a), (j, b) in zip(zip(idx, vals), zip(idx[1:], vals[1:])) if a * b < 0.0]
    every = [z(i * h) for i in range(n)]
    want = [(i, i + 1) for i in range(n - 1) if every[i] * every[i + 1] < 0.0]
    return got, want, set(idx)


def test_scan_cells_on_a_synthetic_Z():
    # coarse samples at t = 0, 0.1, 0.2, ...; the grid runs to t = 4
    # a pair 0.05 apart inside the cell (1.3, 1.4), at the bottom of a
    # shallow valley of |Z|: no coarse sample shows it by its sign
    got, want, idx = _synthetic_scan(lambda t: (t - 1.313) * (t - 1.363))
    assert got == want == [(65, 66), (68, 69)]
    # a pair in (1.3, 1.4), next to an isolated sign change in (1.2, 1.3)
    got, want, idx = _synthetic_scan(lambda t: (t - 1.25) * (t - 1.313) * (t - 1.363))
    assert got == want == [(62, 63), (65, 66), (68, 69)]
    # a dip to 1e-4 that never crosses: its cells are evaluated, no zero found
    got, want, idx = _synthetic_scan(lambda t: (t - 1.33) ** 2 + 1e-4)
    assert got == want == [] and set(range(60, 71)) <= idx
    # a smooth Z: the cells of its four sign changes, their coarse
    # neighbours and the coarse |Z| minima next to them are all it evaluates
    got, want, idx = _synthetic_scan(lambda t: math.cos(3.0 * t))
    assert got == want and len(got) == 4 and len(idx) < 0.5 * 201
    # the blind spot: a pair on a steep flank, where |Z| falls through every
    # coarse sample, leaves no sign change and no coarse minimum
    got, want, idx = _synthetic_scan(lambda t: (t - 1.313) * (t - 1.363) * math.exp(-30.0 * t))
    assert want == [(65, 66), (68, 69)] and got == []


def test_scan_plans_at_most_two_fifths_of_the_grid(chi229, monkeypatch):
    # a real chi: only the upper half, t = k 0.02 for 0 <= k <= 1001, is scanned
    ts = {k * 0.02 for k in range(1002)}
    assert len(ts) == 1002
    plan = lf._plan
    planned = []

    def recording(leaves, chi, s, derivs, route):
        if s.real == 0.5 and s.imag in ts:
            planned.append(s)
        return plan(leaves, chi, s, derivs, route)

    lf.clear_cache()
    monkeypatch.setattr(lf, "_plan", recording)
    zr.critical_line_zeros(chi229, 20.02)
    assert 0 < len(planned) <= 0.4 * 1002
    lf.clear_cache()


def test_illinois_on_a_sign_change():
    # a simple zero takes a few steps; a triple one (flat, slow for regula
    # falsi) more, and both end within the bracket's width of the zero
    for power, most in ((1, 12), (3, 199)):
        f = lambda t: math.tanh(5.0 * (t - 0.7)) ** power
        calls = []
        got = zr._illinois(lambda t: calls.append(t) or f(t), 0.0, f(0.0), 1.5, f(1.5))
        assert abs(got - 0.7) <= 1e-12 * 1.7 and len(calls) <= most, (power, len(calls))
    assert zr._illinois(lambda t: t - 0.25, 0.0, -0.25, 1.0, 0.75) == 0.25  # an exact zero


def test_illinois_brackets_stepped_together_see_their_own_steps():
    # each bracket of _illinois_many asks f at the x it asks alone and ends
    # at the same point; a round holds one x of every open bracket
    f = math.sin
    ends = ((3.0, 3.3), (6.1, 6.5), (9.2, 9.9), (-0.5, 0.5))
    brackets = [(lo, f(lo), hi, f(hi)) for lo, hi in ends]
    alone, asked = [], []
    for b in brackets:
        calls = []
        alone.append(zr._illinois(lambda t: calls.append(t) or f(t), *b))
        asked.append(calls)
    rounds = []
    got = zr._illinois_many(lambda xs: rounds.append(list(xs)) or [f(x) for x in xs], brackets)
    assert got == alone and got[3] == 0.0 and asked[3] == [0.0]  # an exact zero ends it
    assert len(rounds) == max(len(c) for c in asked) > 3
    for k, calls in enumerate(asked):  # bracket k's x are its own, in order
        place = [sum(len(c) > r for c in asked[:k]) for r in range(len(calls))]
        assert [rounds[r][i] for r, i in enumerate(place)] == calls


def test_critical_line_refinement_takes_one_batch_per_round(chi229, monkeypatch):
    # after the scan's two batches, each round of the refinement evaluates
    # the next x of every open bracket in one _eval_many call: 6 calls at
    # (229, 113), T = 20.02, for the 94 points of the upper half's 18
    # brackets (a real chi's lower half is their mirror), which took one
    # one-point eval_L call each
    sizes, one_point = [], []
    many, lf_many = zr._eval_many, lf._eval_many

    def recording(chi, points, derivs, route="auto"):
        sizes.append(len(points))
        return many(chi, points, derivs, route)

    def one_point_calls(chi, points, derivs, route="auto"):
        one_point.append(len(points))
        return lf_many(chi, points, derivs, route)

    lf.clear_cache()
    monkeypatch.setattr(zr, "_eval_many", recording)
    monkeypatch.setattr(lf, "_eval_many", one_point_calls)
    got = zr.critical_line_zeros(chi229, 20.02)
    rounds = sizes[2:]
    assert one_point == [] and len(got) == 36
    assert rounds[0] == len(got) // 2 and rounds == sorted(rounds, reverse=True)
    assert sum(rounds) == 94 and len(rounds) == 6
    lf.clear_cache()


def test_newton_takes_one_block_per_step(chi5, monkeypatch):
    # list_zeros' Newton steps take f(z), f(z + h) and f(z - h) in one
    # _eval_many call each; three one-point f calls a step without f.many
    newton, many = zr._newton, zr._eval_many
    blocks, runs = [], []  # _eval_many sizes inside the Newton call running

    def recording_many(chi, points, derivs, route="auto"):
        if blocks:
            blocks[-1].append(len(points))
        return many(chi, points, derivs, route)

    def recording_newton(f, z0, *args, **kwargs):
        blocks.append([])
        try:
            z = newton(f, z0, *args, **kwargs)
        finally:
            inside = blocks.pop()
        calls = []  # the same iteration again, one f call a point (values cached)
        assert newton(lambda w: calls.append(w) or f(w), z0, *args, **kwargs) == z
        runs.append((inside, len(calls)))
        return z

    lf.clear_cache()
    monkeypatch.setattr(zr, "_eval_many", recording_many)
    monkeypatch.setattr(zr, "_newton", recording_newton)
    recs = zr.list_zeros(chi5, zr.rectangle(0.0, 20.0, -10.0, 10.0))
    assert len(recs) == 2 and runs
    for inside, calls in runs:
        assert calls % 3 == 0 and inside == [3] * (calls // 3), (inside, calls)
    lf.clear_cache()


def _scalar_twin(f):
    """f without its many-point form, declaring the same symmetry."""
    g = lambda s: f(s)
    g.conj_symmetric = f.conj_symmetric
    return g


def test_walker_first_samples_through_the_many_point_form(chi5, chi229, monkeypatch):
    """The walker's first samples of each piece through f.many give the same
    variation and the same point cache as one call per sample, and count
    against the same budget."""
    from lderiv.verify import _logderiv_ratio
    from tests.test_lfunc import _cache_bits

    box = zr.rectangle(-1.5, 3.0, -6.0, 6.0)  # the fe, Hurwitz and series routes
    for chi in (chi5, chi229):
        for f, contour in ((zr._evaluator(chi, "L"), box), (zr._evaluator(chi, "Lprime"), box),
                           (_logderiv_ratio(chi), zr.rectangle(1.2, 3.0, -6.0, 6.0))):
            runs = []
            for g in (f, _scalar_twin(f)):
                lf.clear_cache()
                runs.append((zr.arg_variation(g, contour), _cache_bits()))
            assert runs[0] == runs[1], chi.q
    monkeypatch.setattr(zr, "_MAX_EVALS", 10)
    f = zr._evaluator(chi5, "L")
    for g in (f, _scalar_twin(f)):
        with pytest.raises(NumericalError, match="budget"):
            zr.arg_variation(g, box)
    lf.clear_cache()


def test_critical_line_samples_must_clear_their_bars(chi5, monkeypatch):
    """A sample whose |Z| is within ten error bars shows no certified sign:
    refused, never read as a sign or as an exact zero."""
    real = zr._eval_many

    for hit in (lambda L: ComplexValue(L.value, abs(L.value)),  # |Z| = |g| L.err < 10 bars
                lambda L: ComplexValue(0j, 0.0)):  # an exact zero
        def injected(chi, points, derivs):
            out = real(chi, points, derivs)
            out[20] = (hit(out[20][0]),)
            return out

        monkeypatch.setattr(zr, "_eval_many", injected)
        with pytest.raises(InconclusiveBoundaryError):
            zr.critical_line_zeros(chi5, 5.0)
        monkeypatch.undo()
    lf.clear_cache()


def test_critical_line_zeros_stable_under_mesh(chi5):
    a = zr.critical_line_zeros(chi5, 8.0, spacing=0.02)
    b = zr.critical_line_zeros(chi5, 8.0, spacing=0.01)
    assert len(a) == len(b)
    assert all(abs(x - y) < 1e-8 for x, y in zip(a, b))
    for g in a:
        assert abs(lf.eval_L(chi5, 0.5 + 1j * g).value) < 1e-8


# ----------------------------------------------------------------------
# left-half-plane spot checks (no zeros in D1, D2 samples)

def test_no_zeros_in_D1_sample(chi5):
    # sigma <= 1 - Theta unconditionally covers sigma <= 0; |t| >= 6/log q
    f = lambda s: lf.eval_Lprime(chi5, s)
    assert zr.winding_count(f, zr.rectangle(-6.0, -4.0, 4.0, 8.0)) == 0
    assert zr.winding_count(f, zr.rectangle(-3.0, -0.5, -9.0, -4.0)) == 0


def test_no_zeros_in_D2_sample():
    chi3 = ch.enumerate_primitive(3)[0]
    f = lambda s: lf.eval_Lprime(chi3, s)
    assert zr.winding_count(f, zr.rectangle(-12.0, -9.5, 6.0, 9.0)) == 0


def test_line_negativity_left_strip_edges(chi5):
    # Re L'/L <= -1e-4 on Re s = -2j+1 (no zeros of L' on the line)
    for j in (1, 2, 3):
        sigma = -2 * j + 1
        for t in (-17.3, -4.0, 0.0, 0.9, 8.8, 33.0):
            pt = lf.eval_L_point(chi5, complex(sigma, t))
            assert pt.logderiv.value.real <= -1e-4
