"""Inputs of the lderiv benchmark workloads, built without importing lderiv.

The benchmark run and the reference generator (``refs.py``) both build
their inputs here, so a run can refuse stored references whose inputs
differ from the ones it is about to use.  Nothing here depends on the
workload seed: the seed only rotates the order in which ``points``
visits each group (see ``rotate``).
"""

from __future__ import annotations

import math

# Two-dimensional Kronecker lattice from the plastic number rho:
# (1/rho, 1/rho^2), the best-spread additive lattice in two dimensions.
LATTICE_A1 = 0.7548776662466927
LATTICE_A2 = 0.5698402909980532

# The documented evaluation window of lderiv.
WINDOW = ((-80.0, 80.0), (-100.0, 100.0))

# The characters the workloads name, as (q, lderiv label).
CHI5 = (5, 1)        # quadratic, even
CHI7 = (7, 0)        # order 6, odd, complex values
CHI229 = (229, 113)  # quadratic, even, large q
CHIM23 = (23, 10)    # quadratic, odd (the Kronecker character of -23)

# Moduli <= 50 that carry primitive characters (none exist for q = 2 mod 4).
SMALL_MODULI = tuple(q for q in range(3, 51) if q % 4 != 2)

# points: per-group lattice sizes
N_WINDOW = 96
N_WINDOW_229 = 12
N_BAND = 12
# points: the batch grid, chunked by rows of t
GRID_SIGMAS = tuple(0.25 * k for k in range(1, 13))        # 0.25 .. 3.0, includes 1.0
GRID_TS = tuple(float(t) for t in range(-30, 31))          # includes t = 0
GRID_ROWS_PER_CHUNK = 8
# points: the named fault (the removable point s = 1 of L and L')
FAULT_POINTS = (complex(1.0, 0.0), complex(1.0 + 1e-8, 0.0), complex(1.0, 1e-3))


def lattice(n, x_range, y_range, skip=None, start=1):
    """n points of the Kronecker lattice in a rectangle, from index start."""
    out = []
    k = start
    while len(out) < n:
        u = (k * LATTICE_A1) % 1.0
        v = (k * LATTICE_A2) % 1.0
        z = complex(x_range[0] + u * (x_range[1] - x_range[0]),
                    y_range[0] + v * (y_range[1] - y_range[0]))
        if skip is None or not skip(z):
            out.append(z)
        k += 1
    return out


def rotate(items, seed):
    """The items in order, starting at index seed mod len(items)."""
    items = list(items)
    if not items:
        return items
    k = seed % len(items)
    return items[k:] + items[:k]


def _near_pole(z):
    return abs(z - 1.0) < 0.1


# ----------------------------------------------------------------------
# characters of prime modulus, independent of lderiv's enumeration code

def smallest_primitive_root(p):
    phi = p - 1
    factors = [d for d in range(2, phi + 1) if phi % d == 0 and all(d % e for e in range(2, d))]
    for g in range(2, p):
        if all(pow(g, phi // f, p) != 1 for f in factors):
            return g
    raise ValueError(f"no primitive root mod {p}")


def prime_character(p, label):
    """(exponents, order) of the character mod prime p with lderiv label.

    lderiv labels the primitive characters mod p in lexicographic order of
    c in chi(g) = e^(2 pi i c / (p-1)), g the smallest primitive root; c = 0
    is the principal character, so label = c - 1.  exponents[a] is k with
    chi(a) = e^(2 pi i k / order), None for a = 0.
    """
    c = label + 1
    if not 1 <= c <= p - 2:
        raise ValueError(f"no primitive character {label} mod {p}")
    g = smallest_primitive_root(p)
    order = (p - 1) // math.gcd(p - 1, c)
    step = c // math.gcd(p - 1, c)
    exps = [None] * p
    a = 1
    for x in range(p - 1):
        exps[a] = (step * x) % order
        a = a * g % p
    return tuple(exps), order


def character_parity(exps, order):
    """kappa: 0 for an even character, 1 for an odd one."""
    k = exps[-1]
    return 0 if k == 0 else 1


def odd_labels(p):
    """Labels of the odd primitive characters mod an odd prime p."""
    return [lab for lab in range(p - 2) if character_parity(*prime_character(p, lab)) == 1]


# ----------------------------------------------------------------------
# points

def named_points():
    """Points at which the references give L and L' of a named character.

    Returns {group: [(q, label, s), ...]}.  The groups:
      window     chi5, chi7 on the whole window (auto route)
      window229  chi229, a small fixed subset (auto route)
      band_fe    chi5, chi7 on -2.5 <= Re s < 0 (hurwitz against fe)
      band_ser   chi5, chi7 on 2 <= Re s <= 4 (series against hurwitz)
      fault      chi5 at and next to s = 1
    """
    (xr, yr) = WINDOW
    groups = {"window": [], "window229": [], "band_fe": [], "band_ser": [], "fault": []}
    for chi in (CHI5, CHI7):
        groups["window"] += [chi + (s,) for s in lattice(N_WINDOW, xr, yr, _near_pole)]
        groups["band_fe"] += [chi + (s,) for s in lattice(N_BAND, (-2.5, 0.0), (-40.0, 40.0))]
        groups["band_ser"] += [chi + (s,) for s in lattice(N_BAND, (2.0, 4.0), (-10.0, 10.0))]
    groups["window229"] = [CHI229 + (s,) for s in lattice(N_WINDOW_229, xr, yr, _near_pole)]
    groups["fault"] = [CHI5 + (s,) for s in FAULT_POINTS]
    return groups


MODULUS_BANDS = (
    ("series", (2.0, 5.0)),
    ("hurwitz", (0.0, 2.0)),
    ("fe", (-6.0, 0.0)),
)


def modulus_points():
    """[(q, band, s)]: one point per modulus q <= 50 in each route band.

    A primitive character with label l is evaluated at the point of band
    l mod 3, so every character pays its set-up on one of the three routes.
    The references hold zeta(s, a/q) and its s-derivative per residue.
    """
    out = []
    for q in SMALL_MODULI:
        for bi, (band, xr) in enumerate(MODULUS_BANDS):
            s = lattice(1, xr, (-30.0, 30.0), _near_pole, start=7 * q + bi)[0]
            out.append((q, band, s))
    return out


def grid_chunks():
    """[(t_rows, sigmas)]: the row chunks of the batch grid."""
    rows = list(GRID_TS)
    return [(tuple(rows[i:i + GRID_ROWS_PER_CHUNK]), GRID_SIGMAS)
            for i in range(0, len(rows), GRID_ROWS_PER_CHUNK)]


# ----------------------------------------------------------------------
# count

def count_ops():
    """The operations of the count workload, in run order.

    (kind, (q, label), parameter): kind is one of N1, strip_L, strip_Lprime,
    origin (winding of L' on (-2, 0) x (-T, T)), trivial (j), list (a
    rectangle), oracle (T).  The last op is the named fault.
    """
    ops = [
        ("N1", CHI5, 10.0),
        ("N1", CHI5, 40.0),
        ("N1", CHI7, 20.0),
        ("N1", CHI229, 20.0),
        ("strip_L", CHI229, 20.0),
        ("strip_Lprime", CHI229, 20.0),
        ("strip_L", CHIM23, 20.0),
        ("strip_Lprime", CHIM23, 20.0),
    ]
    ops += [("origin", (23, lab), 20.0) for lab in odd_labels(23)]
    for chi in (CHI5, CHI7, CHIM23):
        ops += [("trivial", chi, j) for j in range(1, 11)]
    ops.append(("list", CHI5, (0.0, 20.0, -10.0, 10.0)))
    ops.append(("oracle", CHI5, 10.0))
    ops.append(COUNT_FAULT_OP)
    return ops


# The walker samples s = 1 on this rectangle's bottom edge (the named fault).
COUNT_FAULT_OP = ("list", CHI5, (0.0, 2.0, 0.0, 1.0))


def zero_free_sigma(m):
    """Smallest sigma >= 2 where 2 (1 + 8m/sigma) e^(-sigma/(2m)) < 1.

    Beyond it |L'(s) m^s / (chi(m) log m) + 1| < 1, so L' has no zeros;
    the scans for zeros of L' stop there.
    """
    sigma = 2.0
    while 2.0 * (1.0 + 8.0 * m / sigma) * math.exp(-sigma / (2.0 * m)) >= 1.0:
        sigma += 0.01
    return sigma


# Regions scanned for zeros by the reference generator:
# name -> (q, {label: functions}, sigma range, t range, conjugate-symmetric)
ZERO_SCANS = {
    "q5": (5, {0: ("Lprime",), 1: ("Lprime",), 2: ("Lprime",)}, (-0.2, 8.0), (-40.6, 40.6), False),
    "q5L": (5, {0: ("L",), 1: ("L",), 2: ("L",)}, (-0.2, 0.7), (-10.6, 10.6), False),
    "q7": (7, {0: ("Lprime",)}, (-0.2, 8.0), (-20.6, 20.6), False),
    "q229": (229, {113: ("Lprime", "L")}, (-0.2, 8.0), (-0.4, 20.6), True),
    "q23": (23, {lab: ("Lprime", "L") if (23, lab) == CHIM23 else ("Lprime",) for lab in odd_labels(23)},
            (-2.3, 0.7), (-20.6, 20.6), False),
}
SCAN_STEP = 0.1  # grid step of every zero scan


def trivial_boxes():
    """[(q, label, j, box)]: boxes around each trivial zero alpha_j of L'."""
    out = []
    for q, label in (CHI5, CHI7, CHIM23):
        exps, order = prime_character(q, label)
        kappa = character_parity(exps, order)
        for j in range(1, 11):
            c = -2 * j - kappa
            out.append((q, label, j, (c - 1.0, c + 1.0, -1.0, 1.0)))
    return out


# ----------------------------------------------------------------------
# verify

VERIFY_COMMANDS = (
    ("verify", "all", "--q", "5", "--label", "1", "--T", "10", "--csv"),
    ("verify", "speiser", "--q", "229", "--label", "113", "--T", "20", "--csv"),
    ("verify", "constants", "--csv"),
)
