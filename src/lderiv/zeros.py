"""Certified integer zero counts by the argument principle, zero location,
and the count statistics N1, N-, N1- for L and L'.

The winding walker tracks the continuous argument of f along a contour of
line segments and semicircular indentation arcs, bisecting any step whose
phase increment exceeds pi/2 and refining wherever |f| dips toward its
evaluation error.  Hitting the refinement floor means a zero sits on (or
numerically on) the contour, which is reported, never guessed around.
The initial samples of each piece go through the evaluator's many-point
form when it has one (the L and L' evaluators here do); refinement stays
one point at a time.  An evaluator of a real chi declares
f.conj_symmetric, f(conj s) = conj f(s); on a contour that is its own
mirror image in the real axis the walker then walks only the half with
Im s >= 0 and doubles its variation, and zero listing on such a region
subdivides only its upper half and mirrors the zeros found there.

Zeros of L on the critical line are the sign changes of the real function
Z(t) on the grid t = k spacing, |k| <= T/spacing, sampled coarse to
fine: every fifth grid point in one batch, then every grid point of the
coarse cells that show a sign change or border a coarse minimum of |Z| in
a second; a sample whose sign is not certified by its error bar is
refused, and each sign change is refined by the Illinois variant of
regula falsi.  For a real chi only t >= 0 is sampled and its zeros are
mirrored.

Indentation sides are named by direction: a "left" semicircle bulges
toward smaller Re s, so on the left edge of a rectangle it encloses the
indented point and on the right edge it excludes it.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, replace
from typing import Callable, Iterable, Literal, Optional

import numpy as np

from .characters import DirichletCharacter
from .errors import (
    BoundaryZeroError,
    DomainError,
    InconclusiveBoundaryError,
    NumericalError,
    PrecisionLossError,
    UniquenessViolationError,
)
from .lfunc import (
    Q_MAX,
    _eval_many,
    eval_L,
    eval_L_point,
    eval_Lprime,
    gest_bound,
)
from .numtypes import ComplexValue
from .special import _grid_blocks, log_gamma

__all__ = [
    "Contour",
    "Indentation",
    "ZeroRecord",
    "winding_count",
    "arg_variation",
    "locate_trivial_zero",
    "count_N1",
    "count_N1_detailed",
    "count_strip",
    "count_strip_detailed",
    "list_zeros",
    "critical_line_zeros",
    "grid_zero_scan",
    "zero_free_sigma",
]

Which = Literal["L", "Lprime"]


# ----------------------------------------------------------------------
# contours

@dataclass(frozen=True)
class Indentation:
    center: complex
    radius: float
    side: str  # "left" bulges toward -Re, "right" toward +Re


@dataclass(frozen=True)
class _Segment:
    z0: complex
    z1: complex

    def point(self, u: float) -> complex:
        return self.z0 + u * (self.z1 - self.z0)

    @property
    def length(self) -> float:
        return abs(self.z1 - self.z0)


@dataclass(frozen=True)
class _Arc:
    center: complex
    radius: float
    theta0: float
    theta1: float

    def point(self, u: float) -> complex:
        th = self.theta0 + u * (self.theta1 - self.theta0)
        return self.center + self.radius * cmath.exp(1j * th)

    @property
    def length(self) -> float:
        return self.radius * abs(self.theta1 - self.theta0)


@dataclass(frozen=True)
class Contour:
    """Axis-aligned rectangle, anticlockwise, with optional semicircular
    indentations on its vertical edges."""

    sigma_left: float
    sigma_right: float
    t_min: float
    t_max: float
    indentations: tuple[Indentation, ...] = ()

    def __post_init__(self):
        if not (self.sigma_left < self.sigma_right and self.t_min < self.t_max):
            raise DomainError("degenerate rectangle")
        for ind in self.indentations:
            on_left = abs(ind.center.real - self.sigma_left) < 1e-12
            on_right = abs(ind.center.real - self.sigma_right) < 1e-12
            if not (on_left or on_right):
                raise DomainError(f"indentation center {ind.center} not on a vertical edge")
            if not (self.t_min + ind.radius < ind.center.imag < self.t_max - ind.radius):
                raise DomainError("indentation does not fit inside the vertical span")
        cs = sorted(self.indentations, key=lambda i: (i.center.real, i.center.imag))
        for a, b in zip(cs, cs[1:]):
            if a.center.real == b.center.real and b.center.imag - a.center.imag < a.radius + b.radius:
                raise DomainError("overlapping indentations")

    def pieces(self) -> list:
        out: list = []
        bl = complex(self.sigma_left, self.t_min)
        br = complex(self.sigma_right, self.t_min)
        tr = complex(self.sigma_right, self.t_max)
        tl = complex(self.sigma_left, self.t_max)
        out.append(_Segment(bl, br))
        out.extend(self._vertical(br, tr, going_up=True))
        out.append(_Segment(tr, tl))
        out.extend(self._vertical(tl, bl, going_up=False))
        return out

    def _vertical(self, z0: complex, z1: complex, going_up: bool) -> Iterable:
        x = z0.real
        inds = sorted(
            (i for i in self.indentations if abs(i.center.real - x) < 1e-12),
            key=lambda i: i.center.imag,
            reverse=not going_up,
        )
        cur = z0
        for ind in inds:
            c, r = ind.center, ind.radius
            if going_up:
                yield _Segment(cur, c - 1j * r)
                # arrive at angle -pi/2, leave at +pi/2
                if ind.side == "left":
                    yield _Arc(c, r, -math.pi / 2, -3 * math.pi / 2)
                else:
                    yield _Arc(c, r, -math.pi / 2, math.pi / 2)
                cur = c + 1j * r
            else:
                yield _Segment(cur, c + 1j * r)
                # arrive at +pi/2, leave at -pi/2
                if ind.side == "left":
                    yield _Arc(c, r, math.pi / 2, 3 * math.pi / 2)
                else:
                    yield _Arc(c, r, math.pi / 2, -math.pi / 2)
                cur = c - 1j * r
        yield _Segment(cur, z1)

    def upper_half(self) -> Optional[list]:
        """For a contour that is its own mirror image in the real axis
        (t_min == -t_max, indentations closed under conjugation), the part
        of pieces() with Im s >= 0: from where the right edge crosses the
        real axis, anticlockwise to where the left edge does.  An arc
        centred on the axis is cut at its point there.  None otherwise."""
        mirrored = {Indentation(i.center.conjugate(), i.radius, i.side) for i in self.indentations}
        if self.t_min != -self.t_max or mirrored != set(self.indentations):
            return None
        out: list = []
        for p in self.pieces():
            if isinstance(p, _Arc):
                if p.center.imag > 0.0:
                    out.append(p)
                elif p.center.imag == 0.0:
                    # the quarter between its point on the axis, at angle 0
                    # or pi, and its top, at pi/2: sin(theta) >= 0 throughout
                    axis = abs(0.5 * (p.theta0 + p.theta1))
                    ends = (axis, -p.theta0) if p.theta0 < 0.0 else (p.theta0, axis)
                    out.append(_Arc(p.center, p.radius, *ends))
            elif max(p.z0.imag, p.z1.imag) > 0.0:  # an edge that crosses the axis is cut there
                out.append(_Segment(*(complex(z.real, max(z.imag, 0.0)) for z in (p.z0, p.z1))))
        return out

    def encloses(self, z: complex) -> bool:
        """Point strictly inside the indented region (geometry only)."""
        if not (self.sigma_left < z.real < self.sigma_right and self.t_min < z.imag < self.t_max):
            inside = False
        else:
            inside = True
        for ind in self.indentations:
            within = abs(z - ind.center) < ind.radius
            if not within:
                continue
            on_left_edge = abs(ind.center.real - self.sigma_left) < 1e-12
            if ind.side == "left":
                inside = on_left_edge  # left bulge on left edge annexes the half-disk
            else:
                inside = not on_left_edge
        return inside


def rectangle(sigma_left: float, sigma_right: float, t_min: float, t_max: float) -> Contour:
    return Contour(sigma_left, sigma_right, t_min, t_max)


# ----------------------------------------------------------------------
# zero records

@dataclass(frozen=True)
class ZeroRecord:
    """A located zero with its certified containment disk."""

    location: complex
    radius: float
    multiplicity: int
    classification: str  # "trivial-left" | "nontrivial" | "boundary-ambiguous"
    which_function: Which
    note: str = ""

    def to_dict(self) -> dict:
        return {
            "re": self.location.real,
            "im": self.location.imag,
            "radius": self.radius,
            "mult": self.multiplicity,
            "class": self.classification,
        }


def _classify(z: complex, loc_err: float) -> str:
    if z.real - loc_err > 0.0:
        return "nontrivial"
    if z.real + loc_err <= 0.0:
        return "trivial-left"
    return "boundary-ambiguous"


# ----------------------------------------------------------------------
# the adaptive argument walker

def _as_val(fv) -> tuple[complex, float]:
    if isinstance(fv, ComplexValue):
        return fv.value, fv.err
    fv = complex(fv)
    return fv, 1e-12 * (1.0 + abs(fv))


_MAX_EVALS = 400_000  # the walker's evaluation budget per contour


def arg_variation(
    f: Callable[[complex], object], contour: Contour | list, mesh: float = 1.0
) -> float:
    """Continuous variation of arg f along the contour, in radians.

    mesh scales the initial sampling density (0.5 = twice as dense).  Each
    piece's initial samples go in one call through f's many-point form
    f.many(points), or one f call each when f has none.  Raises
    BoundaryZeroError when refinement cannot separate f from 0.

    When f declares f.conj_symmetric, f(conj s) = conj f(s), and the
    contour is a Contour that is its own mirror image in the real axis,
    only its upper half (Contour.upper_half) is walked: the lower half
    traces the conjugate values back again, so it adds the same variation,
    and twice the upper half's is returned.  Any other f or contour,
    circles included, is walked in full.  DomainError unless mesh is
    finite and > 0.
    """
    if not (math.isfinite(mesh) and mesh > 0.0):
        raise DomainError(f"the walker needs a finite mesh > 0, not {mesh}")
    upper = None
    if isinstance(contour, Contour):
        upper = contour.upper_half() if getattr(f, "conj_symmetric", False) else None
        pieces = contour.pieces() if upper is None else upper
    else:
        pieces = list(contour)
    many = getattr(f, "many", lambda points: [f(p) for p in points])
    total = 0.0
    evals = 0

    def spend(n: int) -> None:
        nonlocal evals
        evals += n
        if evals > _MAX_EVALS:
            raise NumericalError("argument walker exceeded its evaluation budget")

    for piece in pieces:
        length = piece.length
        if length == 0.0:
            continue
        if isinstance(piece, _Arc):
            n0 = max(8, int(abs(piece.theta1 - piece.theta0) / (0.4 * mesh)) + 1)
        else:
            n0 = max(2, int(length / (0.35 * mesh)) + 1)
        us = [i / n0 for i in range(n0 + 1)]
        spend(len(us))
        vals = [_as_val(v) for v in many([piece.point(u) for u in us])]
        stack = list(zip(us[:-1], vals[:-1], us[1:], vals[1:]))
        min_du = 1e-11
        while stack:
            u0, (v0, e0), u1, (v1, e1) = stack.pop()
            if abs(v0) <= 10.0 * e0:
                raise BoundaryZeroError("f vanishes on the contour", piece.point(u0))
            if abs(v1) <= 10.0 * e1:
                raise BoundaryZeroError("f vanishes on the contour", piece.point(u1))
            dphi = cmath.phase(v1 / v0)
            if abs(dphi) <= 0.5 * math.pi:
                total += dphi
                continue
            if u1 - u0 < min_du:
                raise BoundaryZeroError(
                    "phase unresolvable: zero on or next to the contour", piece.point((u0 + u1) / 2)
                )
            um = 0.5 * (u0 + u1)
            spend(1)
            vm = _as_val(f(piece.point(um)))
            stack.append((um, vm, u1, (v1, e1)))
            stack.append((u0, (v0, e0), um, vm))
    return total if upper is None else 2.0 * total


def winding_count(
    f: Callable[[complex], object], contour: Contour | list, mesh: float = 1.0
) -> int:
    """Number of zeros of f inside the contour, counted with multiplicity.

    For a meromorphic f this is zeros minus poles.  The raw variation must
    sit within 0.05 turns of an integer or a NumericalError is raised.
    """
    turns = arg_variation(f, contour, mesh=mesh) / (2.0 * math.pi)
    n = round(turns)
    if abs(turns - n) > 0.05:
        raise NumericalError(f"argument variation {turns:.6f} turns is not an integer")
    return int(n)


def _circle(center: complex, radius: float) -> list:
    return [_Arc(center, radius, 0.0, 2.0 * math.pi)]


# ----------------------------------------------------------------------
# derivative helpers and Newton polishing

_FD_STEP = 1e-6  # Newton's central-difference step


def _newton(
    f: Callable[[complex], complex],
    z0: complex,
    tol: float = 1e-11,
    max_iter: int = 30,
) -> tuple[complex, float]:
    """Newton iteration with central-difference derivative: f(z), f(z + h)
    and f(z - h) per step in one call through f's many-point form
    f.many(points), or one f call each when f has none.

    Returns (zero, last_step); raises NumericalError when not converging.
    """
    many = getattr(f, "many", lambda points: [f(p) for p in points])
    z = z0
    last = math.inf
    for _ in range(max_iter):
        fv, fp, fm = (complex(v) for v in many([z, z + _FD_STEP, z - _FD_STEP]))
        dv = (fp - fm) / (2.0 * _FD_STEP)
        if dv == 0:
            raise NumericalError("Newton hit a vanishing derivative")
        step = fv / dv
        z -= step
        last = abs(step)
        if last < tol:
            return z, last
    raise NumericalError(f"Newton failed to converge from {z0}")


def _certify_disk(f, center: complex, r0: float, mult: int) -> float:
    """Smallest radius from r0, growing x8, whose winding equals mult."""
    r = r0
    for _ in range(5):
        try:
            if winding_count(f, _circle(center, r), mesh=0.5) == mult:
                return r
        except (BoundaryZeroError, NumericalError):
            pass
        r *= 8.0
    raise NumericalError(f"could not certify a containment disk at {center}")


def _evaluator(chi: DirichletCharacter, which: Which):
    """s -> L or L' at s, with its many-point form f.many(points), and
    f.conj_symmetric: for a real chi, f(conj s) = conj f(s)."""
    if which == "L":
        f = lambda s: eval_L(chi, s)
    else:
        f = lambda s: eval_Lprime(chi, s)
    derivs = (which != "L",)
    f.many = lambda points: [v for (v,) in _eval_many(chi, points, derivs)]
    f.conj_symmetric = chi.is_quadratic
    return f


# ----------------------------------------------------------------------
# trivial zeros alpha_j

def locate_trivial_zero(chi: DirichletCharacter, j: int) -> ZeroRecord:
    """The unique zero alpha_j of L' in the strip |Re s + 2j + kappa| < 1.

    Quadratic characters use bisection of the real-valued (L'/L)(sigma),
    which runs from +inf at the trivial zero down to a certified negative
    value at the right strip edge.  Otherwise a winding count on the circle
    of radius 2/log(jq) around -2j-kappa is tried first, with a strip-wide
    quadrisection fallback (note "wide") when that circle is inconclusive.
    """
    if j < 1:
        raise DomainError("trivial-zero index j must be >= 1")
    c = -2 * j - chi.kappa
    if c - 1 < -80:
        raise DomainError("strip outside the evaluation window")
    f = _evaluator(chi, "Lprime")

    if chi.is_quadratic:
        z, note = _bisect_real_logderiv(chi, c, c + 1.0), ""
    else:
        r = 2.0 / math.log(j * chi.q)
        count = None
        try:
            count = winding_count(f, _circle(c, r), mesh=0.5)
        except (BoundaryZeroError, NumericalError):
            pass
        if count == 1:
            z, _ = _newton(f, complex(c))
            note = ""
            if abs(z - c) >= r:
                raise UniquenessViolationError(
                    f"Newton left the certified circle at j={j}, q={chi.q}"
                )
        else:
            z = _locate_in_strip(chi, c)
            note = "wide"

    # polish and certify a containment disk
    z, last = _newton(f, z, tol=1e-12)
    r_cert = _certify_disk(f, z, max(1e-8, 4.0 * last), 1)
    if not (c - 1.0 < z.real < c + 1.0):
        raise UniquenessViolationError(f"located zero {z} escaped its certified strip")
    return ZeroRecord(
        location=z,
        radius=r_cert,
        multiplicity=1,
        classification=_classify(z, r_cert),
        which_function="Lprime",
        note=note,
    )


def _bisect_real_logderiv(chi: DirichletCharacter, lo: float, hi: float) -> complex:
    """Bisection of sign of Re (L'/L)(sigma) on (lo, hi): + at lo+, - at hi."""

    def g(x: float) -> float:
        pt = eval_L_point(chi, complex(x))
        if pt.logderiv is None:
            raise NumericalError(f"L vanished inside the bisection interval at {x}")
        return pt.logderiv.value.real

    # keep clear of the trivial zero of L at lo, where L'/L blows up to +inf
    a, b = lo + 1e-3, hi
    ga, gb = g(a), g(b)
    if not (ga > 0.0 > gb):
        raise UniquenessViolationError(
            f"no sign change of L'/L on ({lo}, {hi}) for q={chi.q}: {ga:.3g}, {gb:.3g}"
        )
    for _ in range(60):
        m = 0.5 * (a + b)
        gm = g(m)
        if gm > 0.0:
            a = m
        else:
            b = m
        if b - a < 1e-12:
            break
    return complex(0.5 * (a + b))


def _locate_in_strip(chi: DirichletCharacter, c: float) -> complex:
    """Quadrisection fallback inside the unit-wide strip around c."""
    region = rectangle(c - 1.0, c + 1.0, -6.0, 6.0)
    f = _evaluator(chi, "Lprime")
    n = winding_count(f, region)
    if n != 1:
        raise UniquenessViolationError(
            f"strip around {c} holds {n} zeros of L'; expected exactly 1 (q={chi.q})"
        )
    recs = _subdivide(chi, "Lprime", region, n)
    return recs[0].location


# ----------------------------------------------------------------------
# counting in Re s > 0

def zero_free_sigma(m: int) -> float:
    """Smallest sigma >= 2 with the |G - 1| bound < 1: no L' zeros beyond it."""
    lo, hi = 2.0, 16.0 * m
    while gest_bound(m, hi) >= 1.0:
        hi *= 2.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if gest_bound(m, mid) < 1.0:
            hi = mid
        else:
            lo = mid
    return hi


def count_N1_detailed(chi: DirichletCharacter, T: float, verify: bool = True) -> tuple[int, dict]:
    """N1(T, chi): zeros of L' with Re s > 0, |Im s| <= T, with run details."""
    if not 2.0 <= T <= 50.0:
        raise DomainError("count_N1 supports 2 <= T <= 50")
    sigma_r = max(10.0 * chi.m, 20.0)
    f = _evaluator(chi, "Lprime")
    count, t_shift = _count_rect_adaptive(f, 0.0, sigma_r, T)
    if verify:
        count2, _ = _count_rect_adaptive(f, 0.0, sigma_r + 5.0, T + t_shift, mesh=0.5)
        if count2 != count:
            raise NumericalError(
                f"N1 unstable: {count} at sigma_R={sigma_r}, {count2} at sigma_R+5"
            )
    return count, {"t_shift": t_shift}


def count_N1(chi: DirichletCharacter, T: float, verify: bool = True) -> int:
    return count_N1_detailed(chi, T, verify)[0]


def _count_rect_adaptive(
    f, sigma_l: float, sigma_r: float, T: float, mesh: float = 1.0
) -> tuple[int, float]:
    """Winding on (sigma_l, sigma_r) x (-T', T') with T-perturbation and
    left-edge indentation when zeros sit on the boundary: the count and
    T' - T."""
    t_shift = 0.0
    indents: list[Indentation] = []
    for attempt in range(8):
        contour = Contour(sigma_l, sigma_r, -(T + t_shift), T + t_shift, tuple(indents))
        try:
            n = winding_count(f, contour, mesh=mesh)
            return n, t_shift
        except BoundaryZeroError as exc:
            z = exc.location
            if abs(abs(z.imag) - (T + t_shift)) < 1e-6:
                t_shift += 3.3e-4
                if t_shift > 1e-3:
                    raise
            elif abs(z.real - sigma_l) < 1e-6:
                # exclude: bulge into the rectangle interior (rightward)
                indents.append(Indentation(complex(sigma_l, z.imag), 1e-3, "right"))
            else:
                raise
    raise NumericalError("rectangle count did not stabilize after perturbations")


_COARSE = 5  # fine-grid steps per coarse cell of the critical-line scan


def critical_line_zeros(chi: DirichletCharacter, T: float, spacing: float = 0.02) -> list[float]:
    """Ordinates of the zeros of L on Re s = 1/2 with |t| <= T, ascending.

    Uses the real-valued rotated completed function
      Z(t) = Re[ e^(-i arg(eps)/2) (q/pi)^((s+kappa)/2) Gamma((s+kappa)/2) L(s) ],
    whose sign changes are exactly the on-line zeros (odd order).  Z lives
    on the grid t = k spacing, |k| <= T/spacing, which is symmetric about
    t = 0; for a real chi the zeros come in pairs +-gamma, so only its
    part t >= 0 is scanned and the zeros found there are mirrored.  Only
    the grid points that _scan_samples picks are evaluated (two batches of
    L values): every sign change between neighbouring grid points inside
    a coarse cell that shows a sign change or borders a coarse minimum of
    |Z| is found, with the same bracket and end values as a scan of every
    grid point.  What the scan can miss is a pair of zeros in one cell on
    a steep flank of |Z|, where no coarse sample is a local minimum; the
    pair then cancels in the cell's end signs.  Each sample evaluated must
    clear ten times its error bar |g| L.err, or the sign it shows is not
    certified and InconclusiveBoundaryError is raised.  The sign changes
    are refined by _illinois_many, one batch of L values per round.
    DomainError unless T and spacing are finite, T >= 0 and spacing > 0.
    """
    if not (math.isfinite(T) and math.isfinite(spacing) and T >= 0.0 and spacing > 0.0):
        raise DomainError(f"the critical-line scan needs finite T >= 0 and spacing > 0, "
                          f"not T = {T}, spacing = {spacing}")
    omega = cmath.phase(chi.data.epsilon.value) / 2.0
    rot = cmath.exp(-1j * omega)

    def zval(t: float, L: ComplexValue) -> tuple[float, float]:
        """Z(t) from L(1/2 + it), and the bar |g| L.err of Z."""
        s = 0.5 + 1j * t
        g = cmath.exp(
            ((s + chi.kappa) / 2.0) * math.log(chi.q / math.pi) + log_gamma((s + chi.kappa) / 2.0)
        )
        return (rot * g * L.value).real, abs(g) * L.err

    # the factor keeps the last grid point when T is a multiple of spacing
    # that the quotient rounds down
    m = math.floor(T / spacing * (1.0 + 1e-12))
    ts = [k * spacing for k in range(0 if chi.is_quadratic else -m, m + 1)]

    def sample(idx: list[int]) -> list[float]:
        Ls = _eval_many(chi, [0.5 + 1j * ts[i] for i in idx], (False,))
        zs = []
        for i, (L,) in zip(idx, Ls):
            z, bar = zval(ts[i], L)
            if not abs(z) > 10.0 * bar:
                raise InconclusiveBoundaryError(
                    f"Z({ts[i]}) = {z:.3e} does not clear its error bar {bar:.3e}: sign not certified"
                )
            zs.append(z)
        return zs

    idx, zs = _scan_samples(len(ts), sample)
    zmany = lambda xs: [zval(t, L)[0] for t, (L,) in zip(xs, _eval_many(
        chi, [0.5 + 1j * t for t in xs], (False,)))]
    zeros = _illinois_many(zmany, [(ts[idx[k]], zs[k], ts[idx[k + 1]], zs[k + 1])
                                   for k in range(len(idx) - 1) if zs[k] * zs[k + 1] < 0.0])
    return [-t for t in reversed(zeros)] + zeros if chi.is_quadratic else zeros


def _scan_samples(
    n: int, sample: Callable[[list[int]], list[float]]
) -> tuple[list[int], list[float]]:
    """The grid indices 0..n-1 a sign-change scan evaluates, ascending, and
    the values there; sample(indices) gives the values at a list of indices.

    First every _COARSE-th index and the last one (the coarse cells between
    them), then every interior index of each cell whose ends differ in sign
    or that borders a strict local minimum of |value| among the coarse
    samples (an end sample undercuts its one neighbour).  So every sign
    change between evaluated neighbours is one between grid neighbours."""
    coarse = list(range(0, n - 1, _COARSE)) + [n - 1] if n else []
    zc = sample(coarse)
    mags = [math.inf] + [abs(z) for z in zc] + [math.inf]
    cells = set()  # cell k runs from coarse[k] to coarse[k + 1]
    for k in range(len(coarse)):
        if mags[k + 1] < mags[k] and mags[k + 1] < mags[k + 2]:
            cells.update((k - 1, k))
        if k + 1 < len(coarse) and zc[k] * zc[k + 1] < 0.0:
            cells.add(k)
    fine = [i for k in sorted(cells) if 0 <= k < len(coarse) - 1
            for i in range(coarse[k] + 1, coarse[k + 1])]
    got = dict(zip(coarse, zc))
    got.update(zip(fine, sample(fine)))
    idx = sorted(got)
    return idx, [got[i] for i in idx]


def _illinois(f: Callable[[float], float], lo: float, flo: float, hi: float, fhi: float) -> float:
    """A sign change of f in [lo, hi], where f(lo) = flo and f(hi) = fhi have
    opposite signs, by the Illinois variant of regula falsi: the bracket
    keeps a sign change and shrinks to width <= 1e-12 (1 + |lo|); returns its
    midpoint, or a point where f is exactly 0.  When the same end moves
    twice running, the value kept at the other end is halved, which keeps
    both ends moving (superlinear: about 5 evaluations a zero on Z)."""
    [x] = _illinois_many(lambda xs: [f(x) for x in xs], [(lo, flo, hi, fhi)])
    return x


def _illinois_many(f_many: Callable[[list], list], brackets: list) -> list[float]:
    """_illinois on each bracket (lo, f(lo), hi, f(hi)) of f, stepped
    together: each round evaluates the next x of every open bracket in one
    f_many(xs) call.  Each bracket sees the x and f(x) it would alone."""
    steps = [_illinois_steps(*b) for b in brackets]
    out = [0.0] * len(steps)
    fxs = dict.fromkeys(range(len(steps)))  # open bracket -> f at its last x, None at first
    while fxs:
        xs = {}  # open bracket -> its next x
        for k, fx in fxs.items():
            try:
                xs[k] = steps[k].send(fx)
            except StopIteration as done:
                out[k] = done.value
        fxs = dict(zip(xs, f_many(list(xs.values())))) if xs else {}
    return out


def _illinois_steps(lo: float, flo: float, hi: float, fhi: float):
    """_illinois as a generator: it yields each x and is sent f(x), and
    returns the sign change."""
    side = 0  # -1 when lo moved last, +1 when hi did
    for _ in range(200):
        tol = 1e-12 * (1.0 + abs(lo))
        if hi - lo <= tol:
            return 0.5 * (lo + hi)
        # at least tol/2 inside the bracket: an end that sits on the zero
        # then gets a partner within tol/2 instead of creeping up on it
        x = min(max(hi - fhi * (hi - lo) / (fhi - flo), lo + 0.5 * tol), hi - 0.5 * tol)
        fx = yield x
        if fx == 0.0:
            return x
        if (fx > 0.0) == (flo > 0.0):
            lo, flo = x, fx
            if side == -1:
                fhi *= 0.5
            side = -1
        else:
            hi, fhi = x, fx
            if side == 1:
                flo *= 0.5
            side = 1
    raise NumericalError(f"critical-line refinement did not converge on [{lo}, {hi}]")


def _center_lemma_holds(chi: DirichletCharacter) -> bool:
    """The center lemma's condition, (kappa = 0 and q >= 216) or
    (kappa = 1 and q >= 10): under it Re (L'/L) < 0 on the whole critical
    line off the zeros of L, t = 0 included, so L' vanishes there only
    where L does."""
    return (chi.kappa == 0 and chi.q >= 216) or (chi.kappa == 1 and chi.q >= 10)


def _strip_contour(chi: DirichletCharacter, T: float) -> tuple[Contour, int]:
    """The contour of the strip count of L, and how many zeros of L its
    indentations enclose.

    The rectangle 0 < Re s < 1/2, |Im s| < t_use, where t_use steps up from
    T by 3.3e-4, at most six times, until it is 5e-3 clear of every zero of
    L on the critical line.  Left semicircles of radius 1e-3, or a quarter
    of the closest gap between those zeros, exclude each of them and, for
    even chi, enclose s = 0, the one zero enclosed.
    """
    gammas = critical_line_zeros(chi, T + 0.02)
    t_use = T
    # keep a clear margin to the horizontal edges
    for _ in range(6):
        if all(abs(abs(g) - t_use) > 5e-3 for g in gammas):
            break
        t_use += 3.3e-4
    radius = 1e-3
    gap = min(
        (abs(a - b) for a, b in zip(sorted(gammas), sorted(gammas)[1:])), default=1.0
    )
    radius = min(radius, gap / 4.0) if gap > 0 else radius
    inds = [
        Indentation(complex(0.5, g), radius, "left") for g in gammas if abs(g) < t_use - radius
    ]
    included = 0
    if chi.kappa == 0:
        inds.append(Indentation(complex(0.0, 0.0), radius, "left"))
        included = 1
    return Contour(0.0, 0.5, -t_use, t_use, tuple(inds)), included


def _strip_count_L(chi: DirichletCharacter, contour: Contour, included: int, mesh: float = 1.0) -> int:
    """N-: the winding of L on the strip contour (_strip_contour) less the
    zeros its indentations enclose; a zero of L on the contour is refused."""
    try:
        n = winding_count(_evaluator(chi, "L"), contour, mesh=mesh)
    except BoundaryZeroError as exc:
        raise InconclusiveBoundaryError(
            f"L vanishes on the strip contour at {exc.location}"
        ) from exc
    return n - included


def count_strip_detailed(
    chi: DirichletCharacter, T: float, which: Which, mesh: float = 1.0
) -> tuple[int, dict]:
    """N-(T, chi) resp. N1-(T, chi): zeros in the open strip 0 < Re s < 1/2.

    For L, boundary zeros (the on-line zeros and, for even chi, s = 0) get
    left-semicircle indentations (_strip_contour): on-line zeros are
    excluded, s = 0 is enclosed and subtracted from the winding.  The
    indented contour is returned as info["contour"].
    """
    if not 2.0 <= T <= 50.0:
        raise DomainError("count_strip supports 2 <= T <= 50")
    info: dict = {"t_shift": 0.0}
    if which == "L":
        contour, included = _strip_contour(chi, T)
        n = _strip_count_L(chi, contour, included, mesh)
        info["t_shift"] = contour.t_max - T
        info["contour"] = contour
        return n, info

    t_use = T
    f = _evaluator(chi, "Lprime")
    for attempt in range(4):
        contour = Contour(0.0, 0.5, -t_use, t_use)
        try:
            n = winding_count(f, contour, mesh=mesh)
            info["t_shift"] = t_use - T
            return n, info
        except BoundaryZeroError as exc:
            if abs(abs(exc.location.imag) - t_use) < 1e-6:
                t_use += 3.3e-4
                continue
            if _center_lemma_holds(chi):
                # lemma says no boundary zeros off the excluded set: refuse to guess
                raise InconclusiveBoundaryError(
                    f"unexpected L' boundary zero at {exc.location}"
                ) from exc
            raise InconclusiveBoundaryError(
                f"L' boundary zero suspected at {exc.location}; "
                "no negativity certificate applies (Lemma conditions unmet)"
            ) from exc
    raise NumericalError("strip count did not stabilize")


def count_strip(chi: DirichletCharacter, T: float, which: Which) -> int:
    return count_strip_detailed(chi, T, which)[0]


# ----------------------------------------------------------------------
# zero listing by quadrisection

def list_zeros(
    chi: DirichletCharacter, region: Contour, which: Which = "Lprime", mesh: float = 1.0
) -> list[ZeroRecord]:
    """All zeros inside the region: quadrisection to winding <= 1, then Newton.

    The records' total multiplicity always equals the region's winding count.
    For a real chi and t_min == -t_max only the cells above the real axis
    are subdivided, and their records are mirrored (_subdivide); the
    region is split in full for a complex chi, for any other region, and
    when the cut on the axis meets a zero or its counts do not pair up.
    """
    f = _evaluator(chi, which)
    total = winding_count(f, region, mesh=mesh)
    if total == 0:
        return []
    recs = _subdivide(chi, which, region, total, mesh)
    got = sum(r.multiplicity for r in recs)
    if got != total:
        raise NumericalError(f"zero listing lost count: region {total}, listed {got}")
    return sorted(recs, key=lambda r: (r.location.imag, r.location.real))


_JITTERS = (0.5, 0.513, 0.487, 0.531)  # where _split_cell cuts a cell, in the order tried


def _subdivide(chi, which: Which, region: Contour, count: int, mesh: float = 1.0) -> list[ZeroRecord]:
    """Records of the count zeros inside the region's rectangle, by
    quadrisection (_split_cell) down to cells that hold one zero, then
    Newton (_polish_cell).

    For a real chi (f.conj_symmetric) and a region with t_min == -t_max,
    the first cut lands on the real axis: only its two upper quadrants are
    wound (_split_upper), the lower ones hold their conjugate zeros, and
    only the upper cells are subdivided; each of their records is
    returned with its conjugate.  When that cut meets a zero, or its
    upper counts are not half the region's, the region is split in full
    as for a complex chi; after a zero, that split skips its own cut at
    jitter 0.5, whose upper quadrants are the contours that met it."""
    f = _evaluator(chi, which)
    sl, sr, tl, th = region.sigma_left, region.sigma_right, region.t_min, region.t_max
    upper, jitters = None, _JITTERS
    if getattr(f, "conj_symmetric", False) and tl == -th:
        try:
            upper = _split_upper(f, sl, sr, th, count, mesh)
        except (BoundaryZeroError, NumericalError):
            jitters = _JITTERS[1:]
    if upper is None:
        return _quadrisect(f, which, [(sl, sr, tl, th, count)], mesh, jitters)
    out = _quadrisect(f, which, upper, mesh)
    return out + [replace(r, location=r.location.conjugate()) for r in out]


def _quadrisect(f, which: Which, stack: list, mesh: float = 1.0,
                jitters: tuple = _JITTERS) -> list[ZeroRecord]:
    """The records of the cells (sl, sr, tl, th, count) on the stack: the
    first cell popped is cut at the jitters given, every other one at
    _JITTERS."""
    out: list[ZeroRecord] = []
    while stack:
        sl, sr, tl, th, n = stack.pop()
        tries, jitters = jitters, _JITTERS
        diag = math.hypot(sr - sl, th - tl)
        if n == 1 and diag < 0.75:
            rec = _polish_cell(f, which, sl, sr, tl, th)
            if rec is not None:
                out.append(rec)
                continue
        if diag < 2e-5:
            z = complex(0.5 * (sl + sr), 0.5 * (tl + th))
            out.append(
                ZeroRecord(
                    location=z,
                    radius=diag / 2,
                    multiplicity=n,
                    classification=_classify(z, diag / 2),
                    which_function=which,
                    note="cell",
                )
            )
            continue
        stack.extend(_split_cell(f, sl, sr, tl, th, n, mesh, tries))
    return out


def _split_upper(f, sl, sr, th, n, mesh: float = 1.0):
    """The upper half of _split_cell's first cut of (sl, sr) x (-th, th),
    which lies on the real axis: its two upper quadrants, wound at the
    same mesh, with their counts, when those add up to n / 2; else None.
    A winding that meets a zero raises."""
    if n % 2:
        return None
    sm = sl + 0.5 * (sr - sl)
    quads = [(sl, sm, 0.0, th), (sm, sr, 0.0, th)]
    counts = [winding_count(f, rectangle(*qd), mesh=0.7 * mesh) for qd in quads]
    if 2 * sum(counts) != n:
        return None
    return [qd + (c,) for qd, c in zip(quads, counts) if c > 0]


def _split_cell(f, sl, sr, tl, th, n, mesh: float = 1.0, jitters: tuple = _JITTERS):
    """Quadrisect with deterministic jitter, retrying if a cut hits a zero."""
    for jitter in jitters:
        sm = sl + jitter * (sr - sl)
        tm = tl + jitter * (th - tl)
        quads = [(sl, sm, tl, tm), (sm, sr, tl, tm), (sl, sm, tm, th), (sm, sr, tm, th)]
        try:
            counts = [winding_count(f, rectangle(*qd), mesh=0.7 * mesh) for qd in quads]
        except (BoundaryZeroError, NumericalError):
            continue
        if sum(counts) != n:
            continue
        return [qd + (c,) for qd, c in zip(quads, counts) if c > 0]
    raise NumericalError(f"could not split cell ({sl},{sr})x({tl},{th})")


def _polish_cell(f, which: Which, sl, sr, tl, th) -> Optional[ZeroRecord]:
    z0 = complex(0.5 * (sl + sr), 0.5 * (tl + th))
    try:
        z, last = _newton(f, z0, tol=1e-12)
    except NumericalError:
        return None
    if not (sl - 1e-9 <= z.real <= sr + 1e-9 and tl - 1e-9 <= z.imag <= th + 1e-9):
        return None  # escaped the cell: keep subdividing instead
    try:
        r = _certify_disk(f, z, max(1e-8, 4.0 * last), 1)
    except NumericalError:
        return None
    return ZeroRecord(
        location=z,
        radius=r,
        multiplicity=1,
        classification=_classify(z, r),
        which_function=which,
    )


# ----------------------------------------------------------------------
# brute-force oracle (independent of the winding machinery)

def _local_minima(
    vals: np.ndarray,
    prev_row: Optional[np.ndarray],
    next_row: Optional[np.ndarray],
    threshold: float,
) -> tuple[np.ndarray, np.ndarray]:
    """(rows, cols) of the entries of vals below threshold that no 4-neighbour
    undercuts, in row-major order.  prev_row and next_row are the grid rows
    just before and after vals, or None at the edge of the grid."""
    edge = np.full(vals.shape[1], np.inf)
    ext = np.vstack([
        edge if prev_row is None else prev_row,
        vals,
        edge if next_row is None else next_row,
    ])
    ext = np.pad(ext, ((0, 0), (1, 1)), constant_values=np.inf)
    keep = vals < threshold
    for nb in (ext[:-2, 1:-1], ext[2:, 1:-1], ext[1:-1, :-2], ext[1:-1, 2:]):
        keep &= ~(nb < vals)
    return np.nonzero(keep)


def grid_zero_scan(chi: DirichletCharacter, T: float, threshold: float = 0.1) -> list[complex]:
    """Zeros of L' with 0 < Re s <= zero_free_sigma(chi.m), |Im s| <= T, found
    by a dense |L'| scan on a 0.02 grid with Newton polishing; dedupe at 1e-6.

    The sigma ceiling is the certified zero-free bound for G, so the scan
    provably covers all of Re s > 0.  Raises DomainError unless T is finite
    and >= 0 and threshold is finite and > 0, PrecisionLossError for
    T > 100 (past the window |Im s| <= 100) before any grid is built, and
    PrecisionLossError when a grid value's error bound exceeds
    threshold/1000.
    """
    if not (math.isfinite(T) and T >= 0.0 and math.isfinite(threshold) and threshold > 0.0):
        raise DomainError(f"the grid oracle needs finite T >= 0 and threshold > 0, "
                          f"not T = {T}, threshold = {threshold}")
    if T > 100.0 or chi.q > Q_MAX:
        raise PrecisionLossError(f"oracle T={T}, q={chi.q} outside the supported window", math.inf)
    return _polish_candidates(chi, T, _grid_candidates(chi, T, threshold))


def _grid_candidates(chi, T, threshold) -> list[complex]:
    """The grid points of the scan where |L'| < threshold is a local minimum,
    in row-major order (t, then sigma).  The grid engine's blocks of t rows
    (special._grid_blocks) are scanned as they come: each block waits only
    for the first row of the next, and holds the last row of the one before."""
    spacing = 0.02
    sig = np.arange(spacing, zero_free_sigma(chi.m) + spacing / 2, spacing)
    ts = np.arange(-T - 2 * spacing, T + 2.5 * spacing, spacing)
    candidates: list[complex] = []

    def collect(c0, mags, prev_row, next_row):
        rows, cols = _local_minima(mags, prev_row, next_row, threshold)
        candidates.extend(complex(sig[j], ts[c0 + i]) for i, j in zip(rows, cols))

    held = None  # the block waiting for the first row of the next one
    prev_row: Optional[np.ndarray] = None  # the row just before the held block
    for c0, vals, errs in _grid_blocks(sig, ts, chi.q, chi.data.values, want_ds=True):
        if errs.max() > threshold / 1000:
            raise PrecisionLossError(
                f"oracle grid error bound {errs.max():.3e} exceeds threshold/1000", float(errs.max()))
        mags = np.abs(vals)
        if held is not None:
            collect(*held, prev_row, mags[0])
            prev_row = held[1][-1]
        held = (c0, mags)
    collect(*held, prev_row, None)
    return candidates


def _polish_candidates(chi, T, candidates) -> list[complex]:
    """Newton from each candidate; the distinct zeros with Re s > 0, |Im s| <= T."""
    f = _evaluator(chi, "Lprime")
    zeros: list[complex] = []
    for z0 in candidates:
        try:
            z, _ = _newton(f, z0, tol=1e-10)
        except NumericalError:
            continue
        if not (0.0 < z.real and abs(z.imag) <= T):
            continue
        if any(abs(z - w) < 1e-6 for w in zeros):
            continue
        zeros.append(z)
    return sorted(zeros, key=lambda z: (z.imag, z.real))
