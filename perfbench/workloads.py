"""The three workloads of the lderiv benchmark: points, count and verify.

Each workload has
  characters(lderiv)   the set-up: enumerate the characters it uses;
  ops(chars, seed)     one round: a list of named operations;
  check(...)           correctness of the first round's outcomes against
                       the stored mpmath references or a property the
                       method must have.
An operation that fails only because of its named fault (``Op.fault``)
counts as failed; any other failure makes the run incorrect.
"""

from __future__ import annotations

import cmath
import contextlib
import hashlib
import io
import json
import math
import os

import inputs

HERE = os.path.dirname(os.path.abspath(__file__))
ERR_TARGET = 1e-9   # the .err contract: err <= 1e-9 (1 + |value|)

# The fault behind the named failures: _hurwitz_core raises PoleError at the
# removable point s = 1, and next to it the L' error bar understates the error.
S_ONE_FAULT = "s = 1 is removable for primitive chi, yet L/L' raise PoleError or understate .err there"

# A fault found while building this benchmark: on the Hurwitz route the .err
# bar understates the error at large |Im s|, most likely because it leaves
# out the rounding of the phase Im(s) log(n + a).  These evaluations break
# their bar by 1.1-4x on every run.
PHASE_FAULT = "Hurwitz-route .err understates the error at large |Im s|"
PHASE_FAULT_OPS = {
    ("window229", "L", 229, 113, complex(1.5608531989416718, -72.06388360077871)),
} | {
    ("modulus", "L", 49, label, complex(1.355834377724591, -28.49639380018175))
    for label in (1, 4, 7, 13, 16, 19, 22, 25, 28, 31, 34)
}


class Op:
    __slots__ = ("name", "fn", "fault")

    def __init__(self, name, fn, fault=None):
        self.name = name
        self.fn = fn
        self.fault = fault  # the named fault this op is expected to hit, or None


def load_refs(workload):
    """The stored references a workload checks against.

    Exits when they were made for other inputs than inputs.py generates.
    """
    name = "points" if workload == "points" else "zeros"
    with open(os.path.join(HERE, "refs", f"{name}.json"), encoding="utf-8") as fh:
        refs = json.load(fh)
    if name == "points":
        stored = {g: [(q, lab, _cx(s)) for q, lab, s in pts] for g, pts in refs["groups"].items()}
        mods = [(m["q"], m["band"], _cx(m["s"])) for m in refs["modulus"]]
        same = stored == inputs.named_points() and mods == inputs.modulus_points()
    else:
        scans = {key: (sc["q"], {int(lab): tuple(ws) for lab, ws in sc["zeros"].items()},
                        tuple(sc["sigma"]), tuple(sc["t"]), sc["symmetric"])
                 for key, sc in refs["scans"].items()}
        wanted = {key: (q, {lab: tuple(ws) for lab, ws in fns.items()}, sr, tr, sym)
                  for key, (q, fns, sr, tr, sym) in inputs.ZERO_SCANS.items()}
        boxes = [(t["q"], t["label"], t["j"], tuple(t["box"])) for t in refs["trivial"]]
        same = scans == wanted and boxes == inputs.trivial_boxes() and all(
            sc["step"] == inputs.SCAN_STEP for sc in refs["scans"].values())
    if not same:
        raise SystemExit(f"refs/{name}.json was made for other inputs; run perfbench/refs.py")
    return refs


def _cx(pair):
    return complex(pair[0], pair[1])


def _char_values(chi):
    """chi(0..q-1) in double, from the exact exponent table."""
    out = []
    for k in chi.exponents:
        out.append(0j if k is None else cmath.exp(2j * math.pi * k / chi.order))
    return out


class Failure(Exception):
    """An operation's output failed its check."""


def _raise_unexpected(unexpected):
    if unexpected:
        raise Failure(f"{len(unexpected)} unexpected failures:\n# " + "\n# ".join(unexpected))


# ----------------------------------------------------------------------
# points

def _points_characters(lderiv):
    from lderiv.characters import enumerate_primitive, from_label

    named = {chi: from_label(*chi) for chi in (inputs.CHI5, inputs.CHI7, inputs.CHI229)}
    small = {q: enumerate_primitive(q) for q in inputs.SMALL_MODULI}
    return {"named": named, "small": small}


def _points_ops(lderiv, chars, seed):
    from lderiv import lfunc

    ev = {"L": lfunc.eval_L, "Lprime": lfunc.eval_Lprime}
    named = chars["named"]
    groups = inputs.named_points()
    ops = []

    def scalar(group, q, label, s, which, route, chi, fault=None):
        fn = ev[which]
        if (group, which, q, label, s) in PHASE_FAULT_OPS:
            fault = PHASE_FAULT
        name = f"{group}:{which}[{route}]:q{q}/{label}:s={s!r}"
        ops.append(Op(name, lambda: fn(chi, s, route=route), fault))

    for group in ("window", "window229"):
        for q, label, s in inputs.rotate(groups[group], seed):
            for which in ("L", "Lprime"):
                scalar(group, q, label, s, which, "auto", named[(q, label)])
    for group, routes in (("band_fe", ("hurwitz", "fe")), ("band_ser", ("series", "hurwitz"))):
        for q, label, s in inputs.rotate(groups[group], seed):
            for which in ("L", "Lprime"):
                for route in routes:
                    scalar(group, q, label, s, which, route, named[(q, label)])
    by_band = {(q, band): s for q, band, s in inputs.modulus_points()}
    small = [chi for q in inputs.SMALL_MODULI for chi in chars["small"][q]]
    for chi in inputs.rotate(small, seed):
        band = inputs.MODULUS_BANDS[chi.label % 3][0]
        s = by_band[(chi.q, band)]
        for which in ("L", "Lprime"):
            scalar("modulus", chi.q, chi.label, s, which, "auto", chi)
    for q, label, s in groups["fault"]:
        for which in (("L", "Lprime") if s == 1 else ("Lprime",)):
            scalar("fault", q, label, s, which, "auto", named[(q, label)], S_ONE_FAULT)

    import numpy as np

    grid_fns = {"L": lfunc.eval_L_grid, "Lprime": lfunc.eval_Lprime_grid}
    for chi in (inputs.CHI5, inputs.CHI7):
        for which in ("L", "Lprime"):
            for ts, sigmas in inputs.grid_chunks():
                S = np.array([complex(x, t) for t in ts for x in sigmas])
                fault = S_ONE_FAULT if any(z == 1 for z in S) else None
                name = f"grid:{which}:q{chi[0]}/{chi[1]}:t={ts[0]:g}..{ts[-1]:g}"
                ops.append(Op(name, (lambda f, c, S: lambda: f(c, S))(grid_fns[which], named[chi], S),
                              fault))
    return ops


def _check_value(v, ref):
    if not abs(v.value - ref) <= v.err:
        raise Failure(f"|value - ref| = {abs(v.value - ref):.3e} > err = {v.err:.3e}")
    if not v.err <= ERR_TARGET * (1.0 + abs(v.value)):
        raise Failure(f"err = {v.err:.3e} above 1e-9 (1 + |value|)")


def _check_small_characters(chars):
    """Each lderiv character mod q <= 50 is a distinct primitive character,
    and there are as many as sum_{d | q} mu(q/d) phi(d)."""
    def mobius(n):
        out, p = 1, 2
        while p * p <= n:
            if n % p == 0:
                n //= p
                if n % p == 0:
                    return 0
                out = -out
            p += 1
        return -out if n > 1 else out

    def phi(d):
        return sum(1 for a in range(1, d + 1) if math.gcd(a, d) == 1)

    for q, chis in chars["small"].items():
        units = [a for a in range(q) if math.gcd(a, q) == 1]
        expected = sum(mobius(q // d) * phi(d) for d in range(1, q + 1) if q % d == 0)
        if len(chis) != expected or len({c.exponents for c in chis}) != len(chis):
            raise Failure(f"q={q}: {len(chis)} characters, expected {expected} distinct")
        for chi in chis:
            e, order = chi.exponents, chi.order
            if any((e[a] is None) != (math.gcd(a, q) != 1) for a in range(q)):
                raise Failure(f"q={q} label {chi.label}: zeros off the non-units")
            if any((e[a] + e[b]) % order != e[a * b % q] for a in units for b in units):
                raise Failure(f"q={q} label {chi.label}: not multiplicative")
            for p in {p for p in range(2, q + 1) if q % p == 0 and all(p % r for r in range(2, p))}:
                d = q // p
                if all(e[a] == 0 for a in units if a % d == 1 % d):
                    raise Failure(f"q={q} label {chi.label}: induced from modulus {d}")


def _points_check(lderiv, chars, ops, outcomes, refs):
    """{op name: fault} for failed ops; raises Failure on an incorrect output."""
    from lderiv import lfunc

    for (q, label), chi in chars["named"].items():
        if (chi.exponents, chi.order) != inputs.prime_character(q, label):
            raise Failure(f"character ({q}, {label}) differs from its definition")
    _check_small_characters(chars)

    named = {(r["q"], r["label"], _cx(r["s"])): r for r in refs["named"]}
    modref = {(m["q"], _cx(m["s"])): m for m in refs["modulus"]}

    def reference(group, chi, s, which):
        if group != "modulus":
            return _cx(named[(chi.q, chi.label, s)][which])
        m = modref[(chi.q, s)]
        vals = _char_values(chi)
        terms0 = [vals[a] * _cx(z) for a, z in zip(m["a"], m["zeta"])]
        s0 = complex(math.fsum(t.real for t in terms0), math.fsum(t.imag for t in terms0))
        qs = _cx(m["q_pow_minus_s"])
        if which == "L":
            return qs * s0
        terms1 = [vals[a] * _cx(z) for a, z in zip(m["a"], m["dzeta"])]
        s1 = complex(math.fsum(t.real for t in terms1), math.fsum(t.imag for t in terms1))
        return qs * (s1 - math.log(chi.q) * s0)

    failures, unexpected = {}, []
    pairs = {}
    for op, (value, exc) in zip(ops, outcomes):
        kind = op.name.split(":", 1)[0]
        try:
            if exc is not None:
                raise Failure(f"{type(exc).__name__}: {exc}")
            if kind == "grid":
                _check_grid(lfunc, op, value, chars)
                continue
            group, which_route, qlab, s_txt = op.name.split(":", 3)
            which, route = which_route[:-1].split("[")
            q, label = (int(x) for x in qlab[1:].split("/"))
            s = complex(s_txt[2:])
            chi = chars["named"].get((q, label)) or chars["small"][q][label]
            _check_value(value, reference(group, chi, s, which))
            if group.startswith("band_"):
                pairs.setdefault((q, label, s, which), []).append((route, value))
        except Failure as why:
            if op.fault is None:
                unexpected.append(f"{op.name}: {why}")
            else:
                failures[op.name] = f"{op.fault} ({why})"
    for key, got in pairs.items():
        if len(got) != 2:
            continue  # one route already failed its own check
        (ra, a), (rb, b) = got
        if not abs(a.value - b.value) <= a.err + b.err:
            unexpected.append(f"routes {ra} and {rb} disagree beyond their error bars at {key}")
    _raise_unexpected(unexpected)
    return failures


def _check_grid(lfunc, op, values, chars):
    """Batch values agree with the scalar route within its error bar and the contract."""
    _, which, qlab, trows = op.name.split(":")
    q, label = (int(x) for x in qlab[1:].split("/"))
    chi = chars["named"][(q, label)]
    lo, hi = (float(x) for x in trows[2:].split(".."))
    ts = [t for t in inputs.GRID_TS if lo <= t <= hi]
    fn = lfunc.eval_L if which == "L" else lfunc.eval_Lprime
    points = [complex(x, t) for t in ts for x in inputs.GRID_SIGMAS]
    if len(values) != len(points):
        raise Failure(f"{len(values)} values for {len(points)} grid points")
    for s, g in zip(points, values):
        v = fn(chi, s)
        if not abs(complex(g) - v.value) <= v.err + ERR_TARGET * (1.0 + abs(v.value)):
            raise Failure(f"batch value at {s} off the scalar route by {abs(complex(g) - v.value):.3e}")


# ----------------------------------------------------------------------
# count

def _count_characters(lderiv):
    from lderiv.characters import enumerate_primitive, from_label

    chars = {chi: from_label(*chi) for chi in (inputs.CHI5, inputs.CHI7, inputs.CHI229, inputs.CHIM23)}
    for chi in enumerate_primitive(23):
        chars[(23, chi.label)] = chi
    return chars


def _count_op_name(kind, chi, param):
    return f"{kind}:q{chi[0]}/{chi[1]}:{param}"


def _count_ops(lderiv, chars, seed):
    from lderiv import lfunc, zeros

    def make(kind, chi, param):
        c = chars[chi]
        if kind == "N1":
            return lambda: zeros.count_N1(c, param)
        if kind in ("strip_L", "strip_Lprime"):
            return lambda: zeros.count_strip(c, param, kind[6:])
        if kind == "origin":
            return lambda: zeros.winding_count(lambda s: lfunc.eval_Lprime(c, s),
                                               zeros.rectangle(-2.0, 0.0, -param, param))
        if kind == "trivial":
            return lambda: zeros.locate_trivial_zero(c, param)
        if kind == "list":
            return lambda: zeros.list_zeros(c, zeros.rectangle(*param))
        if kind == "oracle":
            return lambda: zeros.grid_zero_scan(c, param)
        raise ValueError(kind)

    ops = []
    for kind, chi, param in inputs.count_ops():
        fault = S_ONE_FAULT if (kind, chi, param) == inputs.COUNT_FAULT_OP else None
        ops.append(Op(_count_op_name(kind, chi, param), make(kind, chi, param), fault))
    return ops


# Counts the paper proves at desk scale (zeros of L in 0 < Re s < 1/2 and of
# L' there; one L' zero on -2 <= Re s <= 0 for odd chi with q >= 23).
PAPER_COUNTS = {
    ("strip_L", (229, 113)): 0, ("strip_Lprime", (229, 113)): 1,
    ("strip_L", (23, 10)): 0, ("strip_Lprime", (23, 10)): 0,
    "origin": 1,
}


class ZeroSets:
    """The mpmath-confirmed zeros, counted in rectangles."""

    def __init__(self, refs):
        self.scans = refs["scans"]
        self.trivial = {(t["q"], t["label"], t["j"]): t for t in refs["trivial"]}

    def zeros(self, q, label, which):
        for scan in self.scans.values():
            if scan["q"] == q and str(label) in scan["zeros"] and which in scan["zeros"][str(label)]:
                return scan, [_cx(z) for z in scan["zeros"][str(label)][which]]
        raise Failure(f"no reference zeros for q={q} label {label} {which}")

    def strip(self, q, label, which, T):
        """Reference zeros in the open strip 0 < Re s < 1/2, |Im s| < T.

        The zeros of L on Re s = 1/2 and at s = 0 (even chi) lie on its
        edge; the strip counts exclude them by indentations."""
        return [z for z in self.inside(q, label, which, 0.0, 0.5 + 1e-3, -T, T, skip_origin=True)
                if z.real < 0.5 - 1e-6]

    def inside(self, q, label, which, s0, s1, t0, t1, skip_origin=False):
        """Reference zeros strictly inside the rectangle; refuse if one sits
        within 1e-4 of its edge or the rectangle leaves the scanned region.
        skip_origin drops a zero at s = 0."""
        scan, zs = self.zeros(q, label, which)
        if skip_origin:
            zs = [z for z in zs if abs(z) > 1e-9]
        if s0 < scan["sigma"][0] or s1 > scan["sigma"][1] or t0 < -scan["t"][1] or t1 > scan["t"][1]:
            raise Failure(f"rectangle ({s0},{s1})x({t0},{t1}) leaves the scanned region")
        out = []
        for z in zs:
            d = min(abs(z.real - s0), abs(z.real - s1), abs(z.imag - t0), abs(z.imag - t1))
            inside = s0 < z.real < s1 and t0 < z.imag < t1
            if d < 1e-4 and (s0 - 1e-4 < z.real < s1 + 1e-4 and t0 - 1e-4 < z.imag < t1 + 1e-4):
                raise Failure(f"reference zero {z} sits on the rectangle edge")
            if inside:
                out.append(z)
        return out


def _matches(records, roots):
    """Each record's disk holds a distinct reference root."""
    used = set()
    for rec in records:
        hit = [i for i, z in enumerate(roots) if i not in used and abs(z - rec.location) <= rec.radius]
        if not hit:
            raise Failure(f"no reference zero within {rec.radius:.1e} of {rec.location}")
        used.add(hit[0])


def _count_check(lderiv, chars, ops, outcomes, refs):
    refs = ZeroSets(refs)
    failures, unexpected = {}, []
    sigma_zf = inputs.zero_free_sigma(2)
    for (kind, chi, param), op, (value, exc) in zip(inputs.count_ops(), ops, outcomes):
        q, label = chi
        try:
            if exc is not None:
                raise Failure(f"{type(exc).__name__}: {exc}")
            if kind == "N1":
                want = refs.inside(q, label, "Lprime", 0.0, sigma_zf, -param, param)
                if value != len(want):
                    raise Failure(f"N1 = {value}, mpmath finds {len(want)}")
            elif kind.startswith("strip_"):
                want = refs.strip(q, label, kind[6:], param)
                paper = PAPER_COUNTS[(kind, chi)]
                if not value == len(want) == paper:
                    raise Failure(f"{kind} = {value}, mpmath {len(want)}, paper {paper}")
            elif kind == "origin":
                want = refs.inside(q, label, "Lprime", -2.0, 0.0, -param, param)
                if not value == len(want) == PAPER_COUNTS["origin"]:
                    raise Failure(f"near-origin count {value}, mpmath {len(want)}, paper 1")
            elif kind == "trivial":
                ref = refs.trivial[(q, label, param)]
                roots = [_cx(z) for z in ref["roots"]]
                c = -2 * param - chars[chi].kappa
                if len(roots) != 1:
                    raise Failure(f"mpmath finds {len(roots)} zeros in the box around {c}")
                if not c - 1.0 < value.location.real < c + 1.0:
                    raise Failure(f"trivial zero {value.location} outside its strip")
                _matches([value], roots)
                if chars[chi].is_quadratic and not (roots[0].imag == 0.0
                                                    and abs(value.location.imag) <= value.radius):
                    raise Failure(f"trivial zero {value.location} of a quadratic character is not real")
            elif kind == "list":
                x0, x1, y0, y1 = param  # no zeros of L' lie right of sigma_zf
                want = refs.inside(q, label, "Lprime", x0, min(x1, sigma_zf), y0, y1)
                if len(value) != len(want):
                    raise Failure(f"listed {len(value)} zeros, mpmath finds {len(want)}")
                _matches(value, want)
            elif kind == "oracle":
                want = refs.inside(q, label, "Lprime", 0.0, sigma_zf, -param, param)
                if len(value) != len(want):
                    raise Failure(f"oracle found {len(value)} zeros, mpmath {len(want)}")
                for z in value:
                    if min(abs(z - w) for w in want) > 1e-6:
                        raise Failure(f"oracle zero {z} is not an mpmath zero")
        except Failure as why:
            if op.fault is None:
                unexpected.append(f"{op.name}: {why}")
            else:
                failures[op.name] = f"{op.fault} ({why})"
    for chi in (inputs.CHI5, inputs.CHI7, inputs.CHIM23):
        located = [v.location for (kind, c, _), (v, exc) in zip(inputs.count_ops(), outcomes)
                   if kind == "trivial" and c == chi and exc is None]
        if len({(round(z.real, 6), round(z.imag, 6)) for z in located}) != len(located):
            unexpected.append(f"two strips of {chi} share one trivial zero")
    _raise_unexpected(unexpected)
    return failures


# ----------------------------------------------------------------------
# verify

def _verify_characters(lderiv):
    import lderiv.cli  # noqa: F401  (the command's own import cost)
    from lderiv.characters import enumerate_primitive, from_label

    return {"q5": enumerate_primitive(5), "chi229": from_label(229, 113)}


def _verify_ops(lderiv, chars, seed):
    from lderiv import cli

    def command(argv):
        def run():
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                rc = cli.run(list(argv))
            return rc, buf.getvalue()
        return run

    return [Op(" ".join(argv), command(argv)) for argv in inputs.VERIFY_COMMANDS]


def _documented_skip(name, q, kappa):
    """Skips the program documents: the near-origin statement needs q >= 7
    (even) or q >= 23 (odd); Speiser's identity needs even q >= 216 or odd
    q >= 23."""
    if name == "near_origin_strip":
        return q < (7 if kappa == 0 else 23)
    if name == "speiser":
        return not (q >= 216 if kappa == 0 else q >= 23)
    return False


def _verify_check(lderiv, chars, ops, outcomes, refs):
    import csv

    zsets = ZeroSets(refs)
    kappas = {(5, c.label): c.kappa for c in chars["q5"]}
    kappas[(229, 113)] = chars["chi229"].kappa
    sigma_zf = inputs.zero_free_sigma(2)
    for op, (value, exc) in zip(ops, outcomes):
        if exc is not None:
            raise Failure(f"{op.name}: {type(exc).__name__}: {exc}")
        rc, text = value
        if rc != 0:
            raise Failure(f"{op.name}: exit code {rc}")
        rows = list(csv.DictReader(io.StringIO(text)))
        if not rows:
            raise Failure(f"{op.name}: no reports")
        for row in rows:
            if row["pass"] != "true" and not (
                    row["pass"] == "skip" and row["q"]
                    and _documented_skip(row["name"], int(row["q"]),
                                         kappas[(int(row["q"]), int(row["label"]))])):
                raise Failure(f"{op.name}: report {row['name']} {row['params']} is {row['pass']}")
            params = dict(kv.split("=", 1) for kv in row["params"].split(";") if "=" in kv)
            if "count" in params:
                q, label, T = int(row["q"]), int(row["label"]), float(params["T"])
                want = zsets.inside(q, label, "Lprime", 0.0, sigma_zf, -T, T)
                if int(params["count"]) != len(want):
                    raise Failure(f"{op.name}: {row['name']} count {params['count']}, mpmath {len(want)}")
            if "N1_minus" in params:
                q, label, T = int(row["q"]), int(row["label"]), float(params["T"])
                n1, n = zsets.strip(q, label, "Lprime", T), zsets.strip(q, label, "L", T)
                if (int(params["N1_minus"]), int(params["N_minus"])) != (len(n1), len(n)):
                    raise Failure(f"{op.name}: speiser counts {params}, mpmath ({len(n1)}, {len(n)})")
    return {}


def digest(outcome):
    """A short digest of a verify command's output, for comparing runs."""
    rc, text = outcome
    return hashlib.sha256(f"{rc}\n{text}".encode()).hexdigest()[:16]


WORKLOADS = {
    "points": (_points_characters, _points_ops, _points_check),
    "count": (_count_characters, _count_ops, _count_check),
    "verify": (_verify_characters, _verify_ops, _verify_check),
}


def setup(workload):
    """Import lderiv and enumerate the workload's characters (the set-up)."""
    import lderiv

    return lderiv, WORKLOADS[workload][0](lderiv)
