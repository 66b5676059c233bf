"""Recompute the benchmark's references with mpmath alone.

    python3 perfbench/refs.py [--jobs 2]

This never imports lderiv.  It writes

  refs/points.json  L and L' of the named characters at every named point,
                    and zeta(s, a/q), zeta'(s, a/q) per residue at every
                    per-modulus point; each value is computed at two
                    working precisions that must agree;
  refs/zeros.json   the zeros of L' (and of L where a strip count of L is
                    checked) in every scanned region, and the trivial zero
                    of L' in each box: candidates are the local minima of a
                    dense |f| scan in mpmath's float context, each confirmed
                    by mpmath.findroot (Muller's method) at 30 digits and checked
                    at 40.

The benchmark refuses to run when the inputs stored here differ from the
ones ``inputs.py`` generates.
"""

from __future__ import annotations

import argparse
import json
import math
import multiprocessing
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import mpmath  # noqa: E402
from mpmath import fp, mp  # noqa: E402

import inputs  # noqa: E402

PRECISIONS = (25, 35)
AGREE = 1e-17          # |v(25) - v(35)| <= AGREE * |v|
DIRECT_MIN_SIGMA = -10.0  # below this, L comes from the functional equation
SERIES_MIN_SIGMA = 15.0   # from here on, L comes from the Dirichlet series


def _cx(z):
    z = complex(z)
    return [z.real, z.imag]


def _residues(q):
    return [a for a in range(1, q) if math.gcd(a, q) == 1]


def char_values(ctx, q, label):
    exps, order = inputs.prime_character(q, label)
    return {a: ctx.expjpi(ctx.mpf(2 * exps[a]) / order) for a in _residues(q)}


def hurwitz(ctx, s, q):
    """{a: (zeta(s, a/q), zeta'(s, a/q))} over the residues coprime to q."""
    return {a: (ctx.zeta(s, ctx.mpf(a) / q), ctx.zeta(s, ctx.mpf(a) / q, 1)) for a in _residues(q)}


def combine(ctx, q, vals, hz, s):
    """(L, L') = q^-s sum chi(a) zeta(s, a/q) and its s-derivative."""
    qs = ctx.power(q, -s)
    s0 = ctx.fsum(vals[a] * hz[a][0] for a in hz)
    s1 = ctx.fsum(vals[a] * hz[a][1] for a in hz)
    return qs * s0, qs * (s1 - ctx.log(q) * s0)


def L_direct(ctx, q, vals, s):
    return combine(ctx, q, vals, hurwitz(ctx, s, q), s)


def L_fe(ctx, q, vals, kappa, s):
    """(L, L') from L(s) = F(s) L(1 - s, conj chi), with
    F(s) = eps 2^s pi^(s-1) q^(1/2-s) sin(pi (s + kappa)/2) Gamma(1 - s) and
    F'/F = log(2 pi/q) + (pi/2) cot(pi (s + kappa)/2) - psi(1 - s)."""
    conj = {a: ctx.conj(v) for a, v in vals.items()}
    tau = ctx.fsum(vals[a] * ctx.expjpi(ctx.mpf(2 * a) / q) for a in vals)
    eps = tau / (ctx.j ** kappa * ctx.sqrt(q))
    w = ctx.pi * (s + kappa) / 2
    F = (eps * ctx.power(2, s) * ctx.power(ctx.pi, s - 1) * ctx.power(q, 0.5 - s)
         * ctx.sin(w) * ctx.gamma(1 - s))
    logderiv = ctx.log(2 * ctx.pi / q) + ctx.pi / 2 * ctx.cot(w) - ctx.digamma(1 - s)
    L2, L2p = L_direct(ctx, q, conj, 1 - s)
    return F * L2, F * (logderiv * L2 - L2p)


def L_series(ctx, q, vals, s):
    """(L, L') by the Dirichlet series, for Re s >= SERIES_MIN_SIGMA.

    Here L' is ~m^-s while q^-s sum chi(a) zeta'(s, a/q) is ~log q, so the
    Hurwitz form would cancel most digits.  The tail past n = N is below
    N^(1-sigma) (log N / (sigma-1) + 1/(sigma-1)^2), kept under 10^-(dps+5) m^-sigma.
    """
    sigma = s.real
    m = min(a for a in vals if a >= 2)
    floor = ctx.power(m, -sigma) * ctx.power(10, -(ctx.dps + 5))
    N = m
    while ctx.power(N, 1 - sigma) * (ctx.log(N) / (sigma - 1) + 1 / (sigma - 1) ** 2) > floor:
        N *= 2
    terms = [(vals[n % q], ctx.power(n, -s), ctx.log(n)) for n in range(1, N + 1) if n % q in vals]
    return ctx.fsum(c * p for c, p, _ in terms), -ctx.fsum(c * p * lg for c, p, lg in terms)


def L_at_one(ctx, q, vals):
    """(L(1), L'(1)) from the Stieltjes constants of zeta(s, a/q)."""
    g0 = ctx.fsum(vals[a] * ctx.stieltjes(0, ctx.mpf(a) / q) for a in vals)
    g1 = ctx.fsum(vals[a] * ctx.stieltjes(1, ctx.mpf(a) / q) for a in vals)
    return g0 / q, (-g1 - ctx.log(q) * g0) / q


def L_pair(ctx, q, label, s):
    vals = char_values(ctx, q, label)
    if s == 1:
        return L_at_one(ctx, q, vals)
    s = ctx.mpc(s)
    if s.real >= SERIES_MIN_SIGMA:
        return L_series(ctx, q, vals, s)
    # the float context's Hurwitz zeta gives up on Re s < 0: use the FE there
    if s.real >= (DIRECT_MIN_SIGMA if ctx is mp else 0.0):
        return L_direct(ctx, q, vals, s)
    kappa = inputs.character_parity(*inputs.prime_character(q, label))
    return L_fe(ctx, q, vals, kappa, s)


def _two_precisions(fn, extra=0):
    """fn() at both working precisions (plus extra digits); raise unless they agree."""
    outs = []
    for dps in PRECISIONS:
        with mp.workdps(dps + extra):
            outs.append([complex(v) for v in fn()])
    for lo, hi in zip(*outs):
        if abs(lo - hi) > AGREE * abs(hi):
            raise RuntimeError(f"precisions disagree: {lo} vs {hi}")
    return outs[-1]


# ----------------------------------------------------------------------
# tasks (run in worker processes)

def task_named(item):
    q, label, s = item
    # s = 1 + 1e-8 cancels eight digits between the residues; work higher
    L, Lp = _two_precisions(lambda: L_pair(mp, q, label, s), extra=20 if abs(s - 1) < 1e-2 else 0)
    return {"q": q, "label": label, "s": _cx(s), "L": _cx(L), "Lprime": _cx(Lp)}


def task_modulus(item):
    q, band, s = item

    def fn():
        hz = hurwitz(mp, mp.mpc(s), q)
        return [mp.power(q, -mp.mpc(s))] + [v for a in sorted(hz) for v in hz[a]]

    qs, *flat = _two_precisions(fn)
    res = _residues(q)
    return {"q": q, "band": band, "s": _cx(s), "a": res, "q_pow_minus_s": _cx(qs),
            "zeta": [_cx(flat[2 * i]) for i in range(len(res))],
            "dzeta": [_cx(flat[2 * i + 1]) for i in range(len(res))]}


def task_scan_rows(item):
    """|f| on some rows of one scan, every label sharing the zeta values."""
    name, ts = item
    q, functions, (s0, s1), _, _ = inputs.ZERO_SCANS[name]
    sigmas = _axis(s0, s1, inputs.SCAN_STEP)
    vals = {lab: char_values(fp, q, lab) for lab in functions}
    rows = {}
    for t in ts:
        row = {(lab, w): [] for lab, whichs in functions.items() for w in whichs}
        for x in sigmas:
            s = complex(x, t)
            hz = hurwitz(fp, s, q)
            for lab in functions:
                fs = dict(zip(("L", "Lprime"), combine(fp, q, vals[lab], hz, s)))
                for w in functions[lab]:
                    row[(lab, w)].append(abs(fs[w]))
        rows[t] = row
    return name, rows


def _f(ctx, q, label, which, region_kind):
    vals_cache = {}

    def f(s):
        if region_kind == "trivial":
            L, Lp = L_pair(ctx, q, label, s)
        else:
            key = ctx.prec
            if key not in vals_cache:
                vals_cache[key] = char_values(ctx, q, label)
            L, Lp = L_direct(ctx, q, vals_cache[key], s)
        return Lp if which == "Lprime" else L

    return f


def task_root(item):
    """Confirm one candidate: fp.findroot, then mp.findroot at 30 digits.

    f is divided by its size 1e-3 away, so that findroot's absolute
    tolerance means the same near the large values left of Re s = 0.
    """
    q, label, which, kind, z0, h = item
    f = _f(fp, q, label, which, kind)
    try:
        scale = abs(f(z0 + 1e-3))
        z = complex(fp.findroot(lambda s: f(s) / scale, (z0, z0 + 0.25 * h), verify=False))
    except (ValueError, ArithmeticError, mpmath.libmp.NoConvergence):
        return None
    if not abs(z - z0) <= 3 * h:
        return None  # converged to a zero that another candidate owns
    with mp.workdps(30):
        f = _f(mp, q, label, which, kind)
        x = mp.mpc(z)
        scale = abs(f(x + mp.mpf("1e-3")))
        d = mp.mpf("1e-9")
        try:
            zr = mp.findroot(lambda s: f(s) / scale, (x, x + d, x + mp.j * d), solver="muller")
        except (ValueError, ArithmeticError, mpmath.libmp.NoConvergence):
            return None
    with mp.workdps(40):
        f = _f(mp, q, label, which, kind)
        here = abs(f(zr))
        near = abs(f(zr + mp.mpf("1e-6")))
        if not here <= mp.mpf("1e-15") * near:
            return None
    zr = complex(zr)
    if abs(zr.imag) < 1e-20:
        zr = complex(zr.real, 0.0)
    return q, label, which, kind, zr


def task_trivial_scan(item):
    q, label, j, (x0, x1, y0, y1) = item
    h = 0.1
    xs, ys = _axis(x0 + h / 2, x1 - h / 2, h), _axis(y0, y1, h)
    f = _f(fp, q, label, "Lprime", "trivial")
    grid = [[abs(f(complex(x, y))) for x in xs] for y in ys]
    return item, [complex(xs[i], ys[k]) for k, i in _local_minima(grid)]


# ----------------------------------------------------------------------
# building the reference files

def _axis(lo, hi, h):
    n = int(round((hi - lo) / h))
    return [lo + i * h for i in range(n + 1)]


def _local_minima(grid):
    """(row, col) of every cell no larger than its 8 neighbours."""
    out = []
    nr, nc = len(grid), len(grid[0])
    for r in range(nr):
        for c in range(nc):
            v = grid[r][c]
            if all(grid[r + dr][c + dc] >= v
                   for dr in (-1, 0, 1) for dc in (-1, 0, 1)
                   if (dr or dc) and 0 <= r + dr < nr and 0 <= c + dc < nc):
                out.append((r, c))
    return out


def _dedupe(zs, tol=1e-8):
    out = []
    for z in sorted(zs, key=lambda z: (z.imag, z.real)):
        if not any(abs(z - w) < tol for w in out):
            out.append(z)
    return out


def build_points(pool):
    groups = inputs.named_points()
    named = [p for g in groups.values() for p in g]
    t0 = time.time()
    named_out = list(pool.imap(task_named, named, chunksize=1))
    print(f"named points: {len(named_out)} in {time.time() - t0:.0f} s", flush=True)
    t0 = time.time()
    mod_out = list(pool.imap(task_modulus, inputs.modulus_points(), chunksize=1))
    print(f"modulus points: {len(mod_out)} in {time.time() - t0:.0f} s", flush=True)
    return {
        "groups": {g: [[q, lab, _cx(s)] for q, lab, s in pts] for g, pts in groups.items()},
        "named": named_out,
        "modulus": mod_out,
    }


def build_zeros(pool):
    t0 = time.time()
    tasks = []
    for name, (q, functions, sr, (t0_, t1_), sym) in inputs.ZERO_SCANS.items():
        ts = _axis(t0_, t1_, inputs.SCAN_STEP)
        tasks += [(name, ts[i:i + 8]) for i in range(0, len(ts), 8)]
    grids = {}
    for name, rows in pool.imap_unordered(task_scan_rows, tasks, chunksize=1):
        grids.setdefault(name, {}).update(rows)
    print(f"scans in {time.time() - t0:.0f} s", flush=True)

    roots_tasks = []
    for name, rows in grids.items():
        q, functions, (s0, s1), _, sym = inputs.ZERO_SCANS[name]
        h = inputs.SCAN_STEP
        sigmas = _axis(s0, s1, h)
        ts = sorted(rows)
        for lab, whichs in functions.items():
            for w in whichs:
                grid = [rows[t][(lab, w)] for t in ts]
                for r, c in _local_minima(grid):
                    roots_tasks.append((q, lab, w, name, complex(sigmas[c], ts[r]), h))
    trivial_cands = list(pool.imap(task_trivial_scan, inputs.trivial_boxes(), chunksize=1))
    for (q, lab, j, box), cands in trivial_cands:
        roots_tasks += [(q, lab, "Lprime", "trivial", z, 0.1) for z in cands]
    print(f"{len(roots_tasks)} candidates", flush=True)
    found = [r for r in pool.imap_unordered(task_root, roots_tasks, chunksize=1) if r]
    print(f"roots in {time.time() - t0:.0f} s", flush=True)

    scans = {}
    for name, (q, functions, (s0, s1), (t0_, t1_), sym) in inputs.ZERO_SCANS.items():
        zs = {}
        for lab, whichs in functions.items():
            for w in whichs:
                got = [z for (qq, ll, ww, kind, z) in found
                       if kind == name and ll == lab and ww == w
                       and s0 <= z.real <= s1 and t0_ <= z.imag <= t1_]
                if sym:
                    got = [z for z in got if z.imag >= 0.0]
                    got += [z.conjugate() for z in got if z.imag > 0.0]
                zs.setdefault(str(lab), {})[w] = [_cx(z) for z in _dedupe(got)]
        scans[name] = {"q": q, "sigma": [s0, s1], "t": [t0_, t1_],
                       "step": inputs.SCAN_STEP, "symmetric": sym, "zeros": zs}
    trivial = []
    for q, lab, j, (x0, x1, y0, y1) in inputs.trivial_boxes():
        got = [z for (qq, ll, ww, kind, z) in found
               if kind == "trivial" and qq == q and ll == lab
               and x0 < z.real < x1 and y0 <= z.imag <= y1]
        trivial.append({"q": q, "label": lab, "j": j, "box": [x0, x1, y0, y1],
                        "roots": [_cx(z) for z in _dedupe(got)]})
    return {"scans": scans, "trivial": trivial}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--jobs", type=int, default=2)
    ap.add_argument("--only", choices=("points", "zeros"))
    args = ap.parse_args(argv)
    os.makedirs(os.path.join(HERE, "refs"), exist_ok=True)
    ctx = multiprocessing.get_context("spawn")
    with ctx.Pool(args.jobs) as pool:
        for name, build in (("points", build_points), ("zeros", build_zeros)):
            if args.only and args.only != name:
                continue
            data = {"mpmath": mpmath.__version__, **build(pool)}
            path = os.path.join(HERE, "refs", f"{name}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(data, fh, separators=(",", ":"))
            print(f"wrote {path}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
