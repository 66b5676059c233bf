"""Primitive Dirichlet characters with exact root-of-unity arithmetic.

A character mod q is stored as a length-q table of exponents: entry a is
None when gcd(a, q) > 1 and otherwise an integer k with
chi(a) = e^(2*pi*i*k/order).  All multiplicative structure lives in the
integer exponents, so multiplicativity is exact; conversion to complex
doubles happens only at evaluation time.

Enumeration walks the exponent vectors of (Z/qZ)^* lexicographically over
a fixed CRT generator convention (smallest primitive root per odd prime
power; <-1, 5> for 2^k with k >= 3) and labels the primitive ones 0, 1,
2, ... in that order, so labels are reproducible.  Primitivity is read off
the exponent vector, so tables are built for primitive characters only.

A character's precomputed record (chi.data) is built on first request and
kept on the character, so it lives exactly as long as the character does.
"""

from __future__ import annotations

import cmath
import math
import operator
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import product
from typing import Optional
from weakref import WeakValueDictionary

import numpy as np

from .errors import DomainError
from .numtypes import ComplexValue

__all__ = [
    "CyclicFactor",
    "UnitGroupDecomposition",
    "DirichletCharacter",
    "CharacterData",
    "unit_group",
    "enumerate_primitive",
    "from_label",
    "kronecker_character",
    "kronecker_symbol",
    "gauss_sum",
    "min_coprime",
]


def _factorize(q: int) -> list[tuple[int, int]]:
    out = []
    n, p = q, 2
    while p * p <= n:
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            out.append((p, e))
        p += 1 if p == 2 else 2
    if n > 1:
        out.append((n, 1))
    return out


def _multiplicative_order(g: int, q: int, group_order: int) -> int:
    # order of g divides group_order; walk its divisors
    order = group_order
    for p, _ in _factorize(group_order):
        while order % p == 0 and pow(g, order // p, q) == 1:
            order //= p
    return order


def _smallest_primitive_root(pk: int, phi: int) -> int:
    for g in range(2, pk):
        if math.gcd(g, pk) != 1:
            continue
        if _multiplicative_order(g, pk, phi) == phi:
            return g
    raise RuntimeError(f"no primitive root mod {pk}")


@dataclass(frozen=True)
class CyclicFactor:
    """One cyclic factor of (Z/qZ)^*: a generator and its order."""

    generator: int  # lifted mod q (== 1 modulo the other prime powers)
    order: int


@dataclass(frozen=True)
class UnitGroupDecomposition:
    """(Z/qZ)^* as a product of cyclic groups via CRT over prime powers."""

    modulus: int
    factors: tuple[CyclicFactor, ...]

    @property
    def phi(self) -> int:
        n = 1
        for f in self.factors:
            n *= f.order
        return n

    def exponents(self, a: int) -> tuple[int, ...]:
        """Unique exponent vector of a over the generators."""
        a %= self.modulus
        if math.gcd(a, self.modulus) != 1:
            raise DomainError(f"{a} is not a unit mod {self.modulus}")
        return _dlog_table(self.modulus)[a]


@lru_cache(maxsize=None)
def unit_group(q: int) -> UnitGroupDecomposition:
    """Decompose (Z/qZ)^* with the fixed generator convention."""
    if q < 1:
        raise DomainError("modulus must be positive")
    local: list[tuple[int, list[tuple[int, int]]]] = []  # (p^e, [(gen mod p^e, order)])
    for p, e in _factorize(q):
        pk = p ** e
        if p == 2:
            if e == 1:
                gens = []
            elif e == 2:
                gens = [(3, 2)]
            else:
                gens = [(pk - 1, 2), (5, 2 ** (e - 2))]
        else:
            phi = (p - 1) * p ** (e - 1)
            gens = [(_smallest_primitive_root(pk, phi), phi)]
        local.append((pk, gens))
    factors = []
    for pk, gens in local:
        rest = q // pk
        for g, order in gens:
            if rest == 1:
                lifted = g % q
            else:
                # CRT lift: == g mod p^e, == 1 mod q/p^e
                inv_rest = pow(rest, -1, pk)
                lifted = (1 + rest * ((g - 1) * inv_rest % pk)) % q
            factors.append(CyclicFactor(lifted, order))
    return UnitGroupDecomposition(q, tuple(factors))


@lru_cache(maxsize=64)
def _dlog_table(q: int) -> dict[int, tuple[int, ...]]:
    """Exponent vector for every unit mod q, built by direct enumeration."""
    grp = unit_group(q)
    table: dict[int, tuple[int, ...]] = {}
    ranges = [range(f.order) for f in grp.factors]
    for vec in product(*ranges):
        a = 1
        for f, x in zip(grp.factors, vec):
            a = a * pow(f.generator, x, q) % q
        table[a] = vec
    if len(table) != grp.phi:
        raise RuntimeError(f"unit group decomposition of {q} is not a bijection")
    return table


@dataclass(frozen=True)
class DirichletCharacter:
    """A primitive character mod q held as exact exponents of e^(2*pi*i/order).

    ``exponents[a]`` is None when gcd(a, q) > 1, else k with
    chi(a) = e^(2*pi*i*k/order).  kappa is the parity bit: chi(-1) = (-1)^kappa.
    m is the least integer >= 2 coprime to q.
    """

    q: int
    exponents: tuple[Optional[int], ...]
    order: int
    kappa: int
    conductor: int
    m: int
    is_quadratic: bool
    label: int

    def __call__(self, n: int) -> complex:
        k = self.exponents[n % self.q]
        return 0j if k is None else _root_of_unity(k, self.order)

    def conjugate(self) -> "DirichletCharacter":
        """The complex-conjugate character (same q, negated exponents).

        Its label is the place of the negated exponent vector (c_i) in
        enumerate_primitive's product order, where chi(g_i) =
        e^(2 pi i c_i / d_i) at the generator g_i of order d_i."""
        if self.order <= 2:
            return self
        return _character_of_generator_exponents(self.q, [
            -(self.exponents[f.generator] * f.order // self.order) % f.order
            for f in unit_group(self.q).factors])

    @cached_property
    def data(self) -> "CharacterData":
        """The character's precomputed record, built on first request and
        kept in the instance __dict__ (the frozen dataclass allows it)."""
        return _build_data(self)


@dataclass(frozen=True)
class CharacterData:
    """What evaluation needs of one character, computed once; arrays read-only.

    values is chi(0..q-1); residues are a/q and weights chi(a) for the a in
    1..q coprime to q (the Hurwitz sum); max_partial_sum is
    max_j |sum_{n<=j} chi(n)| over one period (the Abel tail bounds);
    epsilon is the root number tau(chi) / (i^kappa sqrt(q)); conj is the
    conjugate character.
    """

    values: np.ndarray
    residues: np.ndarray
    weights: np.ndarray
    max_partial_sum: float
    epsilon: ComplexValue
    conj: DirichletCharacter


def _root_of_unity(k: int, order: int) -> complex:
    """e^(2 pi i k / order), exact at 1 and -1: the value chi(a) takes where
    the exponent of a is k."""
    if order == 1:
        return 1 + 0j
    if 2 * k == order:
        return -1 + 0j
    return cmath.exp(2j * cmath.pi * k / order)


def _build_data(chi: DirichletCharacter) -> CharacterData:
    q = chi.q
    roots = [_root_of_unity(k, chi.order) for k in range(chi.order)]
    vals = [0j if k is None else roots[k] for k in chi.exponents]
    values = np.array(vals, dtype=complex)
    idx = np.array([a for a in range(1, q + 1) if chi.exponents[a % q] is not None])
    weights = values[idx % q]
    residues = idx.astype(float) / q
    total, best = 0j, 0.0
    for v in vals:
        total += v
        best = max(best, abs(total))
    tau = gauss_sum(chi)
    epsilon = ComplexValue(tau.value / (1j ** chi.kappa * math.sqrt(q)), tau.err / math.sqrt(q))
    for arr in (values, residues, weights):
        arr.flags.writeable = False
    return CharacterData(values, residues, weights, best, epsilon, chi.conjugate())


def min_coprime(q: int) -> int:
    """Least n >= 2 with gcd(n, q) = 1."""
    n = 2
    while math.gcd(n, q) != 1:
        n += 1
    return n


def _primitive_exponents(q: int) -> list:
    """For each cyclic factor g of unit_group(q), the exponents c with
    chi(g) = e^(2 pi i c / order of g) that a primitive character may take:
    chi is primitive iff no component at a prime power p^e of q factors
    through p^(e-1).  So c != 0 for p^e = p or 4, p does not divide c for
    odd p^e with e >= 2, and for 2^e with e >= 3 the exponent on 5 is odd
    (any on -1).  When 2 exactly divides q no character is primitive: one
    empty choice, so that the product of the choices is empty."""
    out: list = []
    for p, e in _factorize(q):
        if p == 2:
            if e == 1:
                return [()]
            out += [range(1, 2)] if e == 2 else [range(2), range(1, 2 ** (e - 2), 2)]
        elif e == 1:
            out.append(range(1, p - 1))
        else:
            out.append([c for c in range((p - 1) * p ** (e - 1)) if c % p])
    return out


# every character object still in use, by (q, label): a modulus enumerated
# again after the cache below dropped it gets those objects back
_LIVE: WeakValueDictionary = WeakValueDictionary()


@lru_cache(maxsize=32)
def enumerate_primitive(q: int) -> tuple[DirichletCharacter, ...]:
    """All primitive characters mod q, deterministically labeled.

    Raises DomainError for q < 3 (no primitive character mod 1 or 2 is of
    interest here).  May legitimately return an empty tuple, e.g. q = 6.
    A character is one object for as long as it is in use, whatever the
    modulus and however many moduli were enumerated since: from_label,
    conjugate and kronecker_character return it.
    """
    if q < 3:
        raise DomainError(f"q = {q} < 3: no primitive characters to enumerate")
    # the units in the product order of their exponent vectors (as
    # _dlog_table built them), and where each residue's exponent sits in a
    # list of the units' exponents followed by None for the non-units
    units = list(_dlog_table(q))
    where = [len(units)] * q
    for i, a in enumerate(units):
        where[a] = i
    table_of = operator.itemgetter(*where)
    factor_orders = [f.order for f in unit_group(q).factors]
    out = []
    m = min_coprime(q)
    for cvec in product(*_primitive_exponents(q)):
        # chi(g_i) = e^(2 pi i c_i / d_i); character order = lcm d_i/gcd(d_i,c_i)
        order = 1
        for c, d in zip(cvec, factor_orders):
            order = math.lcm(order, d // math.gcd(d, c))
        # the exponent at g_1^x_1 ... g_r^x_r is sum_i x_i w_i mod order,
        # w_i = c_i order / d_i (exact by choice of order), summed factor by
        # factor in the product order of the vectors (x_i); x_i w_i mod
        # order repeats after d_i / gcd(c_i, d_i) steps
        ks = [0]
        for c, d in zip(cvec, factor_orders):
            w, period = c * order // d, d // math.gcd(c, d)
            steps = [x * w % order for x in range(period)] * (d // period)
            ks = [(k + x) % order for k in ks for x in steps] if len(ks) > 1 else steps
        exponents = table_of(ks + [None])
        chi = DirichletCharacter(
            q=q, exponents=exponents, order=order, kappa=0 if exponents[q - 1] == 0 else 1,
            conductor=q, m=m, is_quadratic=(order == 2), label=len(out),
        )
        out.append(_LIVE.setdefault((q, chi.label), chi))
    return tuple(out)


def from_label(q: int, label: int) -> DirichletCharacter:
    chars = enumerate_primitive(q)
    if not 0 <= label < len(chars):
        raise DomainError(f"label {label} out of range: {len(chars)} primitive characters mod {q}")
    return chars[label]


def _character_of_generator_exponents(q: int, cvec: list) -> DirichletCharacter:
    """The enumerated primitive character mod q with chi(g_i) =
    e^(2 pi i c_i / d_i) at each generator g_i of order d_i: its label is
    the place of cvec in the product order of _primitive_exponents(q)."""
    label = 0
    for c, choices in zip(cvec, _primitive_exponents(q)):
        label = label * len(choices) + choices.index(c)
    return enumerate_primitive(q)[label]


def kronecker_symbol(d: int, n: int) -> int:
    """Kronecker symbol (d|n), the extension of Jacobi to all integers."""
    if n == 0:
        return 1 if d in (1, -1) else 0
    if d % 2 == 0 and n % 2 == 0:
        return 0
    sign = 1
    if n < 0:
        n = -n
        if d < 0:
            sign = -sign
    # strip twos from n: (d|2) = 0, 1, -1 for d even, d == +-1 (8), d == +-3 (8)
    t = 0
    while n % 2 == 0:
        n //= 2
        t += 1
    if t % 2 == 1 and d % 8 in (3, 5):
        sign = -sign
    d %= n
    # Jacobi symbol (d|n) for odd n > 0 by quadratic reciprocity
    a = d
    while a != 0:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                sign = -sign
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            sign = -sign
        a %= n
    return sign if n == 1 else 0


def _is_fundamental_discriminant(d: int) -> bool:
    if d == 1 or d == 0:
        return False

    def squarefree(n):
        return all(e == 1 for _, e in _factorize(abs(n)))

    if d % 4 == 1:
        return squarefree(d)
    if d % 4 == 0:
        m = d // 4
        return m % 4 in (2, 3) and squarefree(m)
    return False


def kronecker_character(d: int) -> DirichletCharacter:
    """The real primitive character n -> (d|n) for a fundamental discriminant d.

    Positive d gives an even character, negative d an odd one; the modulus
    is |d|.  Non-fundamental input is rejected.
    """
    if not _is_fundamental_discriminant(d):
        raise DomainError(f"{d} is not a fundamental discriminant")
    q = abs(d)
    # (d|g) = e^(2 pi i c / order of g) at each generator g: c = 0 or order / 2
    return _character_of_generator_exponents(q, [
        0 if kronecker_symbol(d, f.generator) == 1 else f.order // 2
        for f in unit_group(q).factors])


def gauss_sum(chi: DirichletCharacter) -> ComplexValue:
    """tau(chi) = sum_a chi(a) e^(2*pi*i*a/q); |tau| = sqrt(q) for primitive chi."""
    q = chi.q
    total = 0j
    for a in range(1, q):
        k = chi.exponents[a]
        if k is None:
            continue
        total += cmath.exp(2j * cmath.pi * (k / chi.order + a / q))
    err = 4e-16 * q * math.sqrt(q)
    if abs(abs(total) - math.sqrt(q)) > 1e-10 * math.sqrt(q):
        raise RuntimeError(f"|gauss_sum| != sqrt(q) for q={q}, label={chi.label}")
    return ComplexValue(total, err)
