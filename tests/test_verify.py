"""The verification harness: reports, determinism, and honesty outcomes."""

import json
import math

import pytest

from lderiv import characters as ch
from lderiv import lfunc
from lderiv import verify as vf
from lderiv.errors import DomainError


def test_reference_constants_all_pass_with_positive_margin():
    reports = vf.check_reference_constants()
    assert len(reports) >= 20
    for rep in reports:
        assert rep.passed is True, rep.name
        assert rep.margin > 0.0, rep.name


def test_reports_are_deterministic():
    a = [r.to_json() for r in vf.check_reference_constants()]
    b = [r.to_json() for r in vf.check_reference_constants()]
    assert a == b


def test_region_line_negativity(chi5):
    grid = vf.GridSpec(dt=0.5, tmax=40.0)
    rep = vf.check_region_negativity(chi5, "line:1", grid)
    assert rep.passed and rep.measured <= -1e-4
    rep2 = vf.check_region_negativity(chi5, "line:1", grid.halved())
    assert rep2.passed
    # the known explicit margins for chi_5 on Re s = -1
    assert rep.measured < -0.01


def test_region_critical(chi5, chi23):
    grid = vf.GridSpec(dt=0.5, tmax=20.0)
    rep5 = vf.check_region_negativity(chi5, "critical", grid)
    assert rep5.passed and rep5.params["t_lo"] == 2.0  # condition (2)
    rep23 = vf.check_region_negativity(chi23, "critical", grid)
    assert rep23.passed and rep23.params["t_lo"] == 0.0  # condition (3)


def test_region_scan_without_samples_is_no_pass(chi5):
    # chi_5's critical scan starts at t = 2, so tmax = 1 leaves no point
    rep = vf.check_region_negativity(chi5, "critical", vf.GridSpec(tmax=1.0))
    assert rep.passed is None and rep.measured is None and rep.status.startswith("no-samples")
    for bad in ({"dt": 0.0}, {"dsigma": -0.5}, {"dt": float("nan")}, {"tmax": float("inf")}):
        with pytest.raises(DomainError):
            vf.GridSpec(**bad)
    for region in ("line:x", "line:0", "line:-1"):
        with pytest.raises(DomainError):
            vf.check_region_negativity(chi5, region)


def test_region_D1(chi5):
    rep = vf.check_region_negativity(chi5, "D1", vf.GridSpec(dsigma=1.0, dt=1.0, tmax=20.0))
    assert rep.passed and rep.measured < 0.0


def test_region_D2_window_honesty():
    chi3 = ch.enumerate_primitive(3)[0]
    rep3 = vf.check_region_negativity(chi3, "D2", vf.GridSpec(dsigma=4.0, dt=4.0, tmax=20.0))
    assert rep3.passed is True and rep3.measured < 0.0
    chi23 = ch.kronecker_character(-23)
    rep23 = vf.check_region_negativity(chi23, "D2")
    assert rep23.passed is None
    assert "window-empty" in rep23.status
    # line:<j> sits at sigma = -2j - kappa + 1: -81 for chi_5 at j = 41, the
    # window's edge, and -83 at j = 42, outside it
    chi5 = ch.kronecker_character(5)
    assert vf.check_region_negativity(chi5, "line:41").passed is True
    rep42 = vf.check_region_negativity(chi5, "line:42")
    assert rep42.passed is None and rep42.measured is None
    assert rep42.status.startswith("window-empty")


def test_distance_sum_T2_edge(chi5):
    rep = vf.check_distance_sum_asymptotic(chi5, 2.0)
    assert rep.passed and rep.params["count"] == 0


def test_count_and_distance_sum_chi5(chi5):
    rep5 = vf.check_count_asymptotic(chi5, 10.0)
    assert rep5.passed and rep5.measured <= vf.C5_FROZEN
    assert abs(rep5.params["main_term"] - 1.212757) < 1e-5
    rep6 = vf.check_distance_sum_asymptotic(chi5, 10.0)
    assert rep6.passed and rep6.measured <= vf.C6_FROZEN


def test_speiser_unconditional_cases(chi5, chi23):
    rep5 = vf.check_speiser(chi5, 10.0)
    assert rep5.passed is None  # q=5 meets neither (a) nor (b)
    assert rep5.params["N_minus"] == 0 and rep5.params["N1_minus"] == 0
    rep23 = vf.check_speiser(chi23, 10.0)
    assert rep23.passed is True
    assert (rep23.params["N_minus"], rep23.params["N1_minus"]) == (0, 0)
    assert rep23.measured == rep23.bound  # exact integer winding identity


def test_speiser_winds_on_the_strip_counts_contour(chi23, monkeypatch):
    # an injected on-line ordinate 1.5e-3 from a real one: the strip count
    # shrinks its indentations to a quarter of the gap, and the Speiser
    # winding runs on that same contour instead of building one of its own
    from lderiv import zeros

    real = zeros.critical_line_zeros

    def injected(chi, T, spacing=0.02):
        gammas = real(chi, T, spacing)
        return sorted(gammas + [min(g for g in gammas if g > 0) + 1.5e-3])

    monkeypatch.setattr(zeros, "critical_line_zeros", injected)
    monkeypatch.setattr(vf, "critical_line_zeros", injected, raising=False)
    rep = vf.check_speiser(chi23, 10.0)
    assert rep.passed is True and rep.measured == rep.bound == 0
    n_minus, info = zeros.count_strip_detailed(chi23, 10.0, "L")
    assert n_minus == 0
    assert abs(info["contour"].indentations[0].radius - 1.5e-3 / 4) < 1e-12


def test_speiser_plans_no_point_for_L_prime_after_L_alone(chi229, monkeypatch):
    # the L'/L winding runs before the strip count of L, on the same contour:
    # its (L, L') passes leave L cached, so no point that a pass planned for
    # L alone is planned again for L' (with the count first, 547 were: the
    # walker's samples, 539 of them Hurwitz passes)
    lfunc.clear_cache()
    plan = lfunc._plan
    l_only, again = set(), []

    def recording(leaves, chi, s, derivs, route):
        key = (chi.q, chi.label, s)
        if True not in derivs:
            l_only.add(key)
        elif key in l_only:
            again.append(s)
        return plan(leaves, chi, s, derivs, route)

    monkeypatch.setattr(lfunc, "_plan", recording)
    rep = vf.check_speiser(chi229, 20.0)
    assert rep.passed is True and l_only
    assert again == []
    lfunc.clear_cache()


def test_speiser_scans_the_critical_line_once(chi229, monkeypatch):
    # the winding and the count of L share one strip contour, so its zeros
    # on the critical line are found once (the count used to build its own)
    from lderiv import zeros

    real, calls = zeros.critical_line_zeros, []

    def counting(chi, T, spacing=0.02):
        calls.append(T)
        return real(chi, T, spacing)

    monkeypatch.setattr(zeros, "critical_line_zeros", counting)
    rep = vf.check_speiser(chi229, 20.0)
    assert rep.passed is True and len(calls) == 1
    lfunc.clear_cache()


def test_one_character_stores_no_pass(chi229):
    # one label per modulus: the pass cache copies and holds nothing
    lfunc.clear_cache()
    rep = vf.check_speiser(chi229, 20.0)
    assert rep.passed is True and lfunc._POINT_CACHE
    assert not lfunc._PASSES.rows and lfunc._PASSES.nbytes == 0 and not lfunc._PASSES.shared
    lfunc.clear_cache()


def test_run_all_concurrency_deterministic(chi23):
    first = vf.run_all(chi23, T=5.0, with_constants=False)
    lfunc.clear_cache()
    again = vf.run_all(chi23, T=5.0, with_constants=False)
    assert [r.to_json() for r in first] == [r.to_json() for r in again]
    assert any(r.name == "speiser" for r in first)


def test_csv_row_schema():
    rep = vf.check_reference_constants()[0]
    row = rep.csv_row()
    assert len(row) == len(vf.VerificationReport("x").csv_row())
    assert row[-1] in ("true", "false", "skip")


def test_report_json_roundtrip():
    rep = vf.check_reference_constants()[3]
    blob = rep.to_json()
    parsed = json.loads(blob)
    assert json.dumps(parsed, sort_keys=True) == blob
    assert parsed["pass"] is True


def test_region_critical_samples_t0_once(chi229, monkeypatch):
    """With t_lo = 0 the mirrored ordinates hold t = 0 once, so the used
    and skipped points add up to the number of distinct ordinates."""
    grid = vf.GridSpec(dt=0.5, tmax=10.0)
    seen = []
    scan = vf._max_re_logderiv

    def recording(chi, points):
        points = list(points)
        out = scan(chi, points)
        seen.append((points, out))
        return out

    monkeypatch.setattr(vf, "_max_re_logderiv", recording)
    rep = vf.check_region_negativity(chi229, "critical", grid)
    assert rep.params["t_lo"] == 0.0
    (points, (_, used, skipped)), = seen
    assert len(set(points)) == len(points) == 41
    assert used + skipped == 41
    assert rep.skipped_points == skipped


def _full_scan(chi, points):
    """_max_re_logderiv as it was before the half scan: every point evaluated."""
    worst, used, skipped = -math.inf, 0, 0
    for pt in lfunc.eval_L_points(chi, points):
        if pt.logderiv is None:
            skipped += 1
            continue
        used += 1
        worst = max(worst, pt.logderiv.value.real)
    return worst, used, skipped


def test_half_scan_counts_as_the_full_scan(chi5, chi23, chi7_complex, monkeypatch):
    """For a real chi each region scan evaluates one point of each exact
    mirror pair, and reads as the full scan: the same (worst, used,
    skipped), worst bit for bit; a complex chi evaluates every point."""
    scan = vf._max_re_logderiv
    grids = {}

    def grid_of(chi, points):
        points = list(points)
        grids.setdefault((chi.q, chi.label), []).append(points)
        return scan(chi, points)

    monkeypatch.setattr(vf, "_max_re_logderiv", grid_of)
    for chi in (chi5, chi23):
        for region, grid in (("line:1", None), ("critical", None),
                             ("D1", vf.GridSpec(dsigma=0.5, dt=0.5)), ("D2", None)):
            vf.check_region_negativity(chi, region, grid)
    monkeypatch.setattr(vf, "_max_re_logderiv", scan)
    # D2 is empty in the window for q = 23: chi23 scans chi5's D2 grid too
    _, critical, _, d2 = grids[5, 1]
    assert [len(g) for g in grids[5, 1]] == [801, 762, 3256, 1090]
    assert len(grids[23, 10]) == 3
    grids[23, 10].append(d2)

    evaluated = []
    points_of = lfunc.eval_L_points
    monkeypatch.setattr(vf, "eval_L_points",
                        lambda chi, points: evaluated.append(list(points)) or points_of(chi, points))
    for chi in (chi5, chi23):
        for k, points in enumerate(grids[chi.q, chi.label]):  # line:1 first
            evaluated.clear()
            got = vf._max_re_logderiv(chi, points)
            want = _full_scan(chi, points)
            assert got == want and got[0].hex() == want[0].hex(), (chi.q, len(points))
            [sent] = evaluated
            grid = set(points)
            assert not [s for s in sent if s.imag < 0.0 and s.conjugate() in grid]
            assert len(sent) == (len(points) if k == 0 else (len(points) + 1) // 2)
    for points in (critical, d2):
        evaluated.clear()
        assert vf._max_re_logderiv(chi7_complex, points) == _full_scan(chi7_complex, points)
        assert evaluated == [points]
    lfunc.clear_cache()
