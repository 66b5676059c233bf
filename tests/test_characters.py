"""Character construction against independent brute-force oracles."""

import cmath
import gc
import math
import weakref
from itertools import product

import mpmath
import numpy as np
import pytest

from lderiv import characters as ch
from lderiv.errors import DomainError
from lderiv.numtypes import ComplexValue


def _units(q):
    return [a for a in range(1, q) if math.gcd(a, q) == 1]


def _brute_force_characters(q):
    """Every completely multiplicative map to roots of unity, by exhaustion.

    Only feasible for tiny q; value tables are exponent dicts mod e, the
    group exponent.
    """
    units = _units(q)
    e = 1
    for a in units:
        order = 1
        x = a
        while x != 1:
            x = x * a % q
            order += 1
        e = math.lcm(e, order)
    chars = []
    for exps in product(range(e), repeat=len(units)):
        table = dict(zip(units, exps))
        if table[1] != 0:
            continue
        if all(
            (table[a] + table[b]) % e == table[a * b % q]
            for a in units
            for b in units
        ):
            chars.append(table)
    return chars, e


def _brute_conductor(q, table, e):
    for d in sorted(dd for dd in range(1, q + 1) if q % dd == 0):
        if all(table[a] == 0 for a in table if (a - 1) % d == 0):
            return d
    return q


@pytest.mark.parametrize("q", [3, 4, 5, 6, 7, 8])
def test_enumeration_matches_brute_force(q):
    tables, e = _brute_force_characters(q)
    prim = [t for t in tables if _brute_conductor(q, t, e) == q]
    ours = ch.enumerate_primitive(q)
    assert len(ours) == len(prim)
    # value tables agree as complex numbers
    ours_vals = sorted(
        tuple((round(chi(a).real, 9), round(chi(a).imag, 9)) for a in _units(q))
        for chi in ours
    )
    brute_vals = sorted(
        tuple(
            (
                round(math.cos(2 * math.pi * t[a] / e), 9),
                round(math.sin(2 * math.pi * t[a] / e), 9),
            )
            for a in _units(q)
        )
        for t in prim
    )
    assert ours_vals == brute_vals


def _mobius(n):
    if n == 1:
        return 1
    m, p, k = 1, 2, n
    while p * p <= k:
        if k % p == 0:
            k //= p
            if k % p == 0:
                return 0
            m = -m
        p += 1
    return -m if k > 1 else m


def _phi(n):
    return len(_units(n)) if n > 1 else 1


@pytest.mark.parametrize("q", list(range(3, 61)))
def test_primitive_count_mobius(q):
    expected = sum(_mobius(q // d) * _phi(d) for d in range(1, q + 1) if q % d == 0)
    assert len(ch.enumerate_primitive(q)) == expected


def test_no_primitive_mod_6_and_domain_errors():
    assert ch.enumerate_primitive(6) == ()
    with pytest.raises(DomainError):
        ch.enumerate_primitive(2)
    with pytest.raises(DomainError):
        ch.enumerate_primitive(1)


@pytest.mark.parametrize("q", [5, 7, 8, 9, 12, 23, 40])
def test_exact_multiplicativity_and_invariants(q):
    for chi in ch.enumerate_primitive(q):
        n = chi.order
        assert chi.exponents[1 % q] == 0
        assert chi.conductor == q
        assert chi.is_quadratic == (n == 2)
        # chi(-1) = (-1)^kappa
        assert chi(q - 1) == pytest.approx((-1.0) ** chi.kappa, abs=1e-12)
        units = _units(q)
        for a in units:
            for b in units:
                ka, kb = chi.exponents[a], chi.exponents[b]
                kab = chi.exponents[a * b % q]
                assert (ka + kb) % n == kab  # exact, no floats involved


# ----------------------------------------------------------------------
# the full-group builder and conductor that enumeration once filtered by,
# copied verbatim (bar the module prefix and a docstring clause on their old
# callers): every character mod q, primitive or not, in label order

def _ref_conductor_of(q, table, order):
    """Smallest modulus d | q such that chi is trivial on a == 1 (mod d)."""
    for d in sorted(_ref_divisors(q)):
        ok = True
        for a in range(1, q, d if d > 0 else q):
            k = table[a % q]
            if k is not None and k % order != 0:
                ok = False
                break
        if ok:
            return d
    return q


def _ref_divisors(q):
    divs = [1]
    for p, e in ch._factorize(q):
        divs = [d * p ** i for d in divs for i in range(e + 1)]
    return divs


def _ref_all_exponent_tables(q):
    """Every character mod q as (table mod group_exponent ... ) in label order.

    Returns a list of (exponents tuple normalized to the character order,
    order, kappa).  Order of the list is lexicographic in the generator
    exponent vectors.
    """
    grp = ch.unit_group(q)
    dlog = ch._dlog_table(q)
    factor_orders = [f.order for f in grp.factors]
    chars = []
    for cvec in product(*[range(d) for d in factor_orders]):
        # chi(g_i) = e^(2 pi i c_i / d_i); character order = lcm d_i/gcd(d_i,c_i)
        order = 1
        for c, d in zip(cvec, factor_orders):
            order = math.lcm(order, d // math.gcd(d, c))
        table = [None] * q
        for a, vec in dlog.items():
            k = 0
            for c, d, x in zip(cvec, factor_orders, vec):
                k += x * (c * order // d)  # c*order/d is exact by choice of order
            table[a] = k % order
        kappa = 0 if q <= 2 or table[q - 1] == 0 else 1
        chars.append((tuple(table), order, kappa))
    return chars


def test_enumeration_matches_the_full_group_filtered_by_conductor():
    # primitivity read off the exponent vector keeps exactly the characters
    # of conductor q, in the same order, with the same fields
    for q in list(range(3, 301)) + [512, 720, 997, 1000]:
        m = ch.min_coprime(q)
        want = [(table, order, kappa, q, m, order == 2)
                for table, order, kappa in _ref_all_exponent_tables(q)
                if _ref_conductor_of(q, table, order) == q]
        got = [(c.exponents, c.order, c.kappa, c.conductor, c.m, c.is_quadratic)
               for c in ch.enumerate_primitive(q)]
        assert got == want, q
        assert [c.label for c in ch.enumerate_primitive(q)] == list(range(len(want)))


@pytest.mark.parametrize("q", [5, 7, 12, 24, 36, 200])
def test_orthogonality_over_all_characters(q):
    tables = _ref_all_exponent_tables(q)
    assert len(tables) == _phi(q)
    for a in _units(q):
        if a == 1:
            continue
        total = sum(
            cmath.exp(2j * cmath.pi * table[a] / order) for table, order, _ in tables
        )
        assert abs(total) < 1e-9


def test_labels_deterministic_and_stable():
    ch.enumerate_primitive.cache_clear()
    first = [(c.label, c.order, c.kappa) for c in ch.enumerate_primitive(5)]
    ch.enumerate_primitive.cache_clear()
    second = [(c.label, c.order, c.kappa) for c in ch.enumerate_primitive(5)]
    assert first == second == [(0, 4, 1), (1, 2, 0), (2, 4, 1)]


def test_kronecker_chi5(chi5):
    assert [chi5(n).real for n in range(5)] == [0, 1, -1, -1, 1]
    assert chi5(1) == 1
    assert chi5(10) == 0
    assert chi5.kappa == 0 and chi5.is_quadratic


_FUNDAMENTAL = [(5, 0), (-3, 1), (-4, 1), (8, 0), (-23, 1), (229, 0), (12, 0)]


@pytest.mark.parametrize("d,kappa", _FUNDAMENTAL)
def test_kronecker_fundamental(d, kappa):
    chi = ch.kronecker_character(d)
    assert chi.q == abs(d)
    assert chi.kappa == kappa
    assert chi.is_quadratic


@pytest.mark.parametrize("d", [1, 6, 9, 15, 25, -6])
def test_kronecker_rejects_non_fundamental(d):
    with pytest.raises(DomainError):
        ch.kronecker_character(d)


def test_gauss_sum_chi5_vs_multiprecision(chi5):
    mpmath.mp.dps = 40
    tau = sum(
        mpmath.expjpi(2 * (mpmath.mpf(chi5.exponents[a]) / chi5.order + mpmath.mpf(a) / 5))
        for a in range(1, 5)
        if chi5.exponents[a] is not None
    )
    ours = ch.gauss_sum(chi5).value
    assert abs(ours - complex(tau)) < 1e-13
    assert abs(ours - math.sqrt(5)) < 1e-12  # real positive for even real chi


def test_gauss_sum_odd_mod4_is_2i(chi4):
    assert abs(ch.gauss_sum(chi4).value - 2j) < 1e-13


@pytest.mark.parametrize("q", list(range(3, 41)) + [229, 487])
def test_gauss_sum_magnitude(q):
    chars = ch.enumerate_primitive(q)
    sample = chars if q < 41 else [c for c in chars if c.is_quadratic]
    for chi in sample:
        tau = ch.gauss_sum(chi)  # raises internally if | |tau|-sqrt(q) | > 1e-10 sqrt(q)
        assert abs(abs(tau.value) ** 2 - q) < 1e-8 * q


def test_min_coprime_growth_measured():
    qs = [2 * 3, 2 * 3 * 5, 210, 2310, 30030, 510510] + list(range(3, 400, 7))
    ratio = max(ch.min_coprime(q) / math.log(q) for q in qs if q >= 3)
    assert ratio < 3.0  # measured: ~1.45 at the primorial 510510


def test_unit_group_decomposition():
    for q in (5, 8, 16, 24, 45, 229):
        grp = ch.unit_group(q)
        assert grp.phi == _phi(q)
        seen = set()
        for a in _units(q):
            vec = grp.exponents(a)
            assert vec not in seen
            seen.add(vec)
        with pytest.raises(DomainError):
            grp.exponents(q)


def test_conjugate_character(chi7_complex):
    conj = chi7_complex.conjugate()
    assert conj.label != chi7_complex.label
    for a in range(7):
        assert abs(conj(a) - chi7_complex(a).conjugate()) < 1e-15
    quad = ch.kronecker_character(5)
    assert quad.conjugate() is quad


def test_conjugate_and_kronecker_return_the_enumerated_object():
    # enumerate_primitive builds each character once; the others look it up
    for q in list(range(3, 51)) + [229]:
        chars = ch.enumerate_primitive(q)
        if q == 229:
            chars = [next(c for c in chars if c.order > 2)]
        for chi in chars:
            conj = chi.conjugate()
            assert conj is ch.from_label(q, conj.label), (q, chi.label)
    for d, _ in _FUNDAMENTAL:
        chi = ch.kronecker_character(d)
        assert chi is ch.from_label(abs(d), chi.label), d


def _character_of_exponent_table(q, table, order):
    """The enumerated primitive character mod q with this exponent table,
    by a linear scan of the enumeration."""
    for chi in ch.enumerate_primitive(q):
        if chi.order == order and chi.exponents == table:
            return chi
    raise RuntimeError(f"character table not found in enumeration mod {q}")


def test_conjugate_label_is_the_scans():
    # the label computed from the negated exponent vector is the one the
    # linear scan of the enumeration for the conjugate table finds
    for q in list(range(3, 301)) + [512, 720, 997, 1000]:
        for chi in ch.enumerate_primitive(q):
            if chi.order <= 2:
                continue
            conj = tuple(None if k is None else -k % chi.order for k in chi.exponents)
            want = _character_of_exponent_table(q, conj, chi.order)
            assert chi.conjugate() is want, (q, chi.label)


def test_kronecker_label_is_the_scans():
    # the label computed from (d|g) at the generators is the one the linear
    # scan of the enumeration for the table n -> (d|n) finds
    ds = [d for n in range(3, 1001) for d in (n, -n) if ch._is_fundamental_discriminant(d)]
    assert len(ds) == 607 and {-3, -4, 8, -8, -23, 229} <= set(ds)
    for d in ds:
        q = abs(d)
        table = tuple({1: 0, -1: 1}.get(ch.kronecker_symbol(d, a)) for a in range(q))
        assert ch.kronecker_character(d) is _character_of_exponent_table(q, table, 2), d


def test_a_character_stays_one_object_after_many_moduli():
    first = ch.from_label(7, 1)
    for q in range(3, 61):
        ch.enumerate_primitive(q)
    assert ch.from_label(7, 1) is first
    assert ch.enumerate_primitive(7)[1] is first
    ch.enumerate_primitive.cache_clear()
    assert ch.from_label(7, 1) is first and ch.from_label(7, 1).conjugate().conjugate() is first


# ----------------------------------------------------------------------
# the per-character record against the helpers it replaced: their
# arithmetic, copied verbatim without their memo dicts

def _ref_values_array(chi):
    return np.array([chi(a) for a in range(chi.q)], dtype=complex)


def _ref_max_partial_sum(chi):
    s, best = 0j, 0.0
    for a in range(chi.q):
        s += chi(a)
        best = max(best, abs(s))
    return best


def _ref_coprime_residues(chi):
    idx = np.array([a for a in range(1, chi.q + 1) if chi.exponents[a % chi.q] is not None])
    weights = _ref_values_array(chi)[idx % chi.q]
    return (idx.astype(float) / chi.q, weights)


def _ref_epsilon(chi):
    tau = ch.gauss_sum(chi)
    eps_val = tau.value / (1j ** chi.kappa * math.sqrt(chi.q))
    return ComplexValue(eps_val, tau.err / math.sqrt(chi.q))


def _ref_conj_char(chi):
    return chi.conjugate()


def _record_characters():
    chars = [chi for q in range(3, 51) for chi in ch.enumerate_primitive(q)]
    chars += [ch.kronecker_character(229), ch.kronecker_character(-23)]
    chars.append(next(c for c in ch.enumerate_primitive(229) if c.order > 2))
    return chars


def _same_array(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def test_character_record_matches_the_old_helpers_bytewise():
    chars = _record_characters()
    assert len(chars) > 300
    for chi in chars:
        rec = chi.data
        residues, weights = _ref_coprime_residues(chi)
        eps, conj = _ref_epsilon(chi), _ref_conj_char(chi)
        assert _same_array(rec.values, _ref_values_array(chi)), (chi.q, chi.label)
        assert _same_array(rec.residues, residues), (chi.q, chi.label)
        assert _same_array(rec.weights, weights), (chi.q, chi.label)
        assert repr(rec.max_partial_sum) == repr(_ref_max_partial_sum(chi))
        assert repr(rec.epsilon.value) == repr(eps.value)
        assert repr(rec.epsilon.err) == repr(eps.err)
        assert (rec.conj.label, rec.conj.exponents) == (conj.label, conj.exponents)
        assert chi.data is rec and vars(chi)["data"] is rec  # kept on the character


def test_character_record_arrays_are_read_only(chi7_complex):
    rec = chi7_complex.data
    for arr in (rec.values, rec.residues, rec.weights):
        with pytest.raises(ValueError):
            arr[0] = 0


def test_character_record_is_shared_per_label():
    assert ch.kronecker_character(5).data is ch.from_label(5, 1).data


def test_enumeration_builds_no_record(monkeypatch):
    built = []
    build = ch._build_data
    monkeypatch.setattr(ch, "_build_data", lambda chi: built.append((chi.q, chi.label)) or build(chi))
    for q in (5, 7, 49, 229):
        ch.enumerate_primitive.__wrapped__(q)
    ch.from_label(229, 3)
    ch.kronecker_character(229)
    assert built == []
    chi = ch.from_label(5, 1)
    vars(chi).pop("data", None)  # as if never asked for
    assert chi.data is chi.data
    assert built == [(5, 1)]


def test_records_die_with_their_characters():
    # more moduli than enumerate_primitive caches: once nothing holds the
    # first modulus's characters, their records go with them
    moduli = list(range(101, 141))
    first = ch.enumerate_primitive(moduli[0])[0].data
    ref = weakref.ref(first)
    del first
    for q in moduli:
        for chi in ch.enumerate_primitive(q):
            chi.data
    del chi
    gc.collect()
    assert ref() is None
