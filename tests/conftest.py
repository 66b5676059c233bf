import cmath
import math
from itertools import count

import mpmath
import pytest

from lderiv import characters
from lderiv import special as sp
from lderiv.errors import DomainError


@pytest.fixture(scope="session")
def chi5():
    return characters.kronecker_character(5)


@pytest.fixture(scope="session")
def chi4():
    return characters.enumerate_primitive(4)[0]


@pytest.fixture(scope="session")
def chi7_complex():
    # an order-6 character mod 7: genuinely complex values
    return next(c for c in characters.enumerate_primitive(7) if c.order == 6)


@pytest.fixture(scope="session")
def chi23():
    return characters.kronecker_character(-23)


@pytest.fixture(scope="session")
def chi229():
    return characters.kronecker_character(229)


def lattice_points(n, x_range, y_range, skip=lambda z: False):
    """Deterministic low-discrepancy points (no RNG anywhere in the suite)."""
    # 2D Kronecker lattice from the plastic number
    a1, a2 = 0.7548776662466927, 0.5698402909980532
    out = []
    for k in count(1):
        if len(out) >= n:
            break
        u = (k * a1) % 1.0
        v = (k * a2) % 1.0
        z = complex(x_range[0] + u * (x_range[1] - x_range[0]),
                    y_range[0] + v * (y_range[1] - y_range[0]))
        if not skip(z):
            out.append(z)
        if k > 100 * n:
            raise RuntimeError("lattice skip predicate too aggressive")
    return out


def mp_L_pair(chi, s):
    """(L, L')(s, chi) by mpmath's Hurwitz zeta with exact character values.
    The working precision grows near s = 1, where the residues' 1/(s - 1)
    and 1/(s - 1)^2 parts cancel."""
    q = chi.q
    with mpmath.workdps(20 + 2 * max(0, round(-math.log10(abs(s - 1.0))))):
        z = mpmath.mpc(s.real, s.imag)
        zsum = dsum = 0
        for a in range(1, q):
            if chi.exponents[a] is None:
                continue
            w = mpmath.expjpi(mpmath.mpf(2 * chi.exponents[a]) / chi.order)
            x = mpmath.mpf(a) / q
            zsum += w * mpmath.zeta(z, x)
            dsum += w * mpmath.zeta(z, x, 1)
        qs = mpmath.power(q, -z)
        return complex(qs * zsum), complex(qs * (dsum - mpmath.log(q) * zsum))


def mp_L_at_one(chi, h=1e-12):
    """References for (L, L')(1, chi), where each zeta(s, a) of mp_L_pair has
    its pole: ((L(1 + h), h |L'(1 + h)|), (L'(1 + h), h |L''(1 + h)|)), each
    value with the allowance for the step from 1 + h to 1.  The working
    precision covers the cancelling 1/(s - 1)^3 parts of the residues' d^2/ds^2."""
    q = chi.q
    with mpmath.workdps(20 + 3 * round(-math.log10(h))):
        z = 1 + mpmath.mpf(h)
        sums = [0, 0, 0]  # sum_a chi(a) d^k/ds^k zeta(s, a/q), k = 0, 1, 2
        for a in range(1, q):
            if chi.exponents[a] is None:
                continue
            w = mpmath.expjpi(mpmath.mpf(2 * chi.exponents[a]) / chi.order)
            for k in range(3):
                sums[k] += w * mpmath.zeta(z, mpmath.mpf(a) / q, k)
        lq, qs = mpmath.log(q), mpmath.power(q, -z)
        L = complex(qs * sums[0])
        Lp = complex(qs * (sums[1] - lq * sums[0]))
        Lpp = complex(qs * (sums[2] - 2 * lq * sums[1] + lq ** 2 * sums[0]))
    return (L, h * abs(Lp)), (Lp, h * abs(Lpp))


def log_abs_cos_mean_quad(a, b):
    """(1/pi) * integral over [0, pi] of log|a + b cos(theta)| by mpmath
    quadrature, split at the log singularity acos(-a/b) when a <= b: an
    independent reference for the closed form special.log_abs_cos_mean.

    a + b cos(theta) is evaluated as (a - b) + 2b cos^2(theta/2), which
    keeps its relative accuracy at the double zero theta = pi of a = b.
    """
    with mpmath.workdps(20):
        a, b = mpmath.mpf(a), mpmath.mpf(b)
        points = [0, mpmath.acos(-a / b), mpmath.pi] if a <= b else [0, mpmath.pi]
        val = mpmath.quad(
            lambda th: mpmath.log(abs(a - b + 2 * b * mpmath.cos(th / 2) ** 2)), points)
        return float(val / mpmath.pi)


def cauchy_derivative(func, s, radius, nodes):
    """f'(s) by trapezoidal quadrature of Cauchy's formula on |w - s| = radius:
    a reference for the termwise-differentiated routes that uses only f."""
    acc = 0j
    for k in range(nodes):
        w = cmath.exp(2j * cmath.pi * k / nodes)
        acc += complex(func(s + radius * w)) * w.conjugate()
    return acc / (radius * nodes)


def hurwitz_zeta_cauchy_ds(s, a):
    """d/ds zeta(s, a) by cauchy_derivative of special.hurwitz_zeta on
    |w - s| = 1/2 with 128 nodes, independent of the differentiated series."""
    s = complex(s)
    if abs(s - 1.0) <= 0.5 + 1e-9:
        raise DomainError("Cauchy circle would touch the pole at s = 1")
    return cauchy_derivative(lambda w: sp.hurwitz_zeta(w, a).value, s, 0.5, 128)


def digamma_lower_bound_margin(z):
    """Re psi(z) - (log|z| - pi/(2|Im z|)): positive where the digamma lower
    bound holds; it needs Im z != 0."""
    z = complex(z)
    if z.imag == 0.0:
        raise DomainError("digamma lower bound requires Im z != 0")
    return sp._digamma(z).real - (math.log(abs(z)) - math.pi / (2.0 * abs(z.imag)))
