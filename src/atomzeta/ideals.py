"""Nonzero ideals of Z_K in 2-row Hermite normal form.

An ideal is stored as the triple (a, b, c) meaning a*Z + (b + c*w)*Z with
a, c > 0, 0 <= b < a, c | a and c | b.  This form is unique, so ideal
equality is plain field-wise comparison.  The absolute norm is a*c
(over the rational field, where ideals are m*Z, c = 1).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from operator import attrgetter
from typing import NamedTuple

from atomzeta.errors import (
    DomainError,
    InternalInvariantError,
    MixedFieldError,
    ZeroElementError,
)
from atomzeta.ring import FieldSpec, RingElement
from atomzeta.sieve import factorint, isprime, primes_upto


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, u, v) with u*a + v*b = g = gcd(a, b)."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    return old_r, old_s, old_t


@dataclass(frozen=True)
class Ideal:
    field: FieldSpec
    a: int
    b: int
    c: int

    @property
    def norm(self) -> int:
        return self.a * self.c

    def generators(self) -> tuple[RingElement, RingElement]:
        f = self.field
        return (f.element(self.a, 0), f.element(self.b, self.c))

    def contains(self, e: RingElement) -> bool:
        if e.field != self.field:
            raise MixedFieldError("element from a different field")
        if e.y % self.c:
            return False
        return (e.x - (e.y // self.c) * self.b) % self.a == 0

    def sort_key(self) -> tuple[int, int, int]:
        return (self.norm, self.a, self.b)

    def __str__(self) -> str:
        if self.field.is_rational:
            return f"({self.a})"
        g2 = self.field.element(self.b, self.c)
        return f"<{self.a}, {g2}>"


def unit_ideal(field: FieldSpec) -> Ideal:
    return Ideal(field, 1, 0, 1)


def _hnf_from_rows(field: FieldSpec, rows: list[tuple[int, int]]) -> Ideal:
    """HNF of the Z-module spanned by rows (x, y) ~ x + y*w.

    The row set must already be closed under multiplication by w
    (callers append w-multiples of their generators).
    """
    if field.is_rational:
        a = 0
        for x, _ in rows:
            a = gcd(a, x)
        if a == 0:
            raise ZeroElementError("zero module is not an ideal")
        return Ideal(field, a, 0, 1)
    bx = cy = 0
    xs: list[int] = []
    for x, y in rows:
        if y == 0:
            xs.append(x)
            continue
        if cy == 0:
            bx, cy = x, y
            continue
        g, u, v = _xgcd(cy, y)
        # unimodular 2x2 step: keep one row with y = g, zero the other
        xs.append((y // g) * bx - (cy // g) * x)
        bx, cy = u * bx + v * x, g
    if cy == 0:
        raise ZeroElementError("module has rank < 2; not a nonzero ideal")
    if cy < 0:
        bx, cy = -bx, -cy
    a = 0
    for x in xs:
        a = gcd(a, x)
    if a == 0:
        raise ZeroElementError("module has rank < 2; not a nonzero ideal")
    b = bx % a
    if a % cy or b % cy:
        raise InternalInvariantError("module is not closed under w")
    return Ideal(field, a, b, cy)


def ideal_from_elements(field: FieldSpec, gens: list[RingElement]) -> Ideal:
    rows: list[tuple[int, int]] = []
    for g in gens:
        rows.append((g.x, g.y))
        gw = g.mul_omega()
        rows.append((gw.x, gw.y))
    return _hnf_from_rows(field, rows)


def principal_ideal(e: RingElement) -> Ideal:
    if e.is_zero():
        raise ZeroElementError("zero does not generate a nonzero ideal")
    return ideal_from_elements(e.field, [e])


def ideal_mul(i1: Ideal, i2: Ideal) -> Ideal:
    if i1.field != i2.field:
        raise MixedFieldError("ideals from different fields")
    f = i1.field
    if f.is_rational:
        return Ideal(f, i1.a * i2.a, 0, 1)
    g1a, g1b = i1.generators()
    g2a, g2b = i2.generators()
    prods = [g1a * g2a, g1a * g2b, g1b * g2a, g1b * g2b]
    return ideal_from_elements(f, prods)


def ideal_pow(ideal: Ideal, n: int) -> Ideal:
    r, b = None, ideal  # r is None for the unit ideal, never multiplied
    while n:
        if n & 1:
            r = b if r is None else ideal_mul(r, b)
        b = ideal_mul(b, b) if n > 1 else b
        n >>= 1
    return unit_ideal(ideal.field) if r is None else r


# ---------------------------------------------------------------------------
# prime splitting


def kronecker_symbol(a: int, p: int) -> int:
    """Kronecker symbol (a | p) for prime p."""
    if p == 2:
        if a % 2 == 0:
            return 0
        return 1 if a % 8 in (1, 7) else -1
    r = pow(a % p, (p - 1) // 2, p)
    if r == 0:
        return 0
    return 1 if r == 1 else -1


def sqrt_mod_prime(n: int, p: int) -> int | None:
    """A square root of n modulo an odd prime p, or None when n is not a
    square mod p.  For p = 3 (mod 4) and p = 5 (mod 8) one pow gives the
    only candidate r, so r^2 = n decides both; p = 1 (mod 8) takes Euler's
    criterion and then Tonelli-Shanks."""
    n %= p
    if n == 0:
        return 0
    if p % 4 == 3:  # r^2 = n^((p+1)/2) = n * (n | p)
        r = pow(n, (p + 1) // 4, p)
        return r if r * r % p == n else None
    if p % 8 == 5:  # Atkin: with v = (2n)^((p-5)/8), i = 2nv^2 is a root of -1
        v = pow(2 * n, (p - 5) // 8, p)
        r = n * v * (2 * n * v * v - 1) % p
        return r if r * r % p == n else None
    if pow(n, (p - 1) // 2, p) != 1:
        return None
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    # 2 is a square mod p = 1 (mod 8), so the least non-residue is odd
    z = 3
    while kronecker_symbol(z, p) != -1:
        z += 2
    m, c = s, pow(z, q, p)
    t, r = pow(n, q, p), pow(n, (q + 1) // 2, p)
    while t != 1:
        t2, i = t, 0
        while t2 != 1:
            t2 = t2 * t2 % p
            i += 1
        b = pow(c, 1 << (m - i - 1), p)
        m, c = i, b * b % p
        t, r = t * c % p, r * b % p
    return r


class PrimeIdeal(NamedTuple):
    """A prime ideal as plain data: <p, b + w> of degree f = 1, (p) of
    degree 2 (b = 0), or pZ over Q (b = 0).  The HNF is built on demand."""

    field: FieldSpec
    p: int
    kind: str  # "split" | "inert" | "ramified" | "rational"
    b: int
    f: int  # residue degree

    @property
    def norm(self) -> int:
        return self.p**self.f

    @property
    def ideal(self) -> Ideal:
        if self.f == 2:
            return Ideal(self.field, self.p, 0, self.p)
        return Ideal(self.field, self.p, self.b, 1)


def splitting_type(p: int, field: FieldSpec) -> str:
    return primes_above(p, field)[0].kind


def primes_above(p: int, field: FieldSpec) -> list[PrimeIdeal]:
    if not isprime(p):
        raise DomainError(f"{p} is not prime")
    return _primes_above(p, field)


def _primes_above(p: int, field: FieldSpec) -> list[PrimeIdeal]:
    """primes_above for a p already certified prime by a sieve or factorint,
    in order of b.  A prime of degree 1 is <p, b + w> with -b a root of the
    minimal polynomial of w modulo p."""
    d = field.d
    if d is None:
        return [PrimeIdeal(field, p, "rational", 0, 1)]
    if p == 2:
        if field.half_basis:  # d = 1 mod 8: split (roots 0, 1); 5 mod 8: inert
            if d % 8 == 5:
                return [PrimeIdeal(field, 2, "inert", 0, 2)]
            return [PrimeIdeal(field, 2, "split", 0, 1), PrimeIdeal(field, 2, "split", 1, 1)]
        return [PrimeIdeal(field, 2, "ramified", d % 2, 1)]
    r = sqrt_mod_prime(d, p)
    if r is None:
        return [PrimeIdeal(field, p, "inert", 0, 2)]
    if field.half_basis:  # roots (1 +- r)/2; (p + 1)/2 inverts 2
        inv2 = (p + 1) // 2
        b0, b1 = (-1 - r) * inv2 % p, (r - 1) * inv2 % p
    else:  # roots +-r
        b0, b1 = r, -r % p
    if r == 0:  # p | d: a double root
        return [PrimeIdeal(field, p, "ramified", b0, 1)]
    if b0 > b1:
        b0, b1 = b1, b0
    return [PrimeIdeal(field, p, "split", b0, 1), PrimeIdeal(field, p, "split", b1, 1)]


# ---------------------------------------------------------------------------
# factorization


@dataclass(frozen=True)
class FactoredIdeal:
    field: FieldSpec
    factors: tuple[tuple[PrimeIdeal, int], ...]  # factor_ideal sorts them by (p, b)

    def unfactor(self) -> Ideal:
        """HNF of prod P^k; a lone prime to the first power needs no
        multiplication."""
        out = None
        for prime, k in self.factors:
            power = ideal_pow(prime.ideal, k)
            out = power if out is None else ideal_mul(out, power)
        return unit_ideal(self.field) if out is None else out

    def norm(self) -> int:
        n = 1
        for prime, e in self.factors:
            n *= prime.norm**e
        return n


def _factor_rational(field: FieldSpec, factors: dict[int, int]) -> list:
    """Prime factorization ((PrimeIdeal, e), ...) of (m), m = prod p^e given
    as {p: e} with every p certified prime and in increasing order (as
    factorint gives them), read off the splitting types: P^e P'^e for a
    split p, P^e for an inert p and P^2e for a ramified p."""
    return [
        (prime, 2 * e if prime.kind == "ramified" else e)
        for p, e in factors.items()
        for prime in _primes_above(p, field)
    ]


def factor_ideal(ideal: Ideal) -> FactoredIdeal:
    """Prime factorization read off the HNF.  I = (c) * J with
    J = <A, B + w>, A = a/c, B = b/c, and (c) factors by splitting types.
    J is primitive: it lies in no inert (p) and in at most one prime above
    each p, so its p-part is P^v for p^v || A, where P is the prime above p
    with P.b == B mod p.  Over Q, c = 1 and the one prime above p has b = 0."""
    f = ideal.field
    n = ideal.norm
    if n > 10**18:
        raise DomainError("ideal norm exceeds the supported factoring range")
    exps = dict(_factor_rational(f, factorint(ideal.c)))
    ja, jb = ideal.a // ideal.c, ideal.b // ideal.c
    for p, v in factorint(ja).items():
        for prime in _primes_above(p, f):
            if prime.b == jb % p:
                exps[prime] = exps.get(prime, 0) + v
    factors = sorted(exps.items(), key=lambda t: (t[0].p, t[0].b))
    out = FactoredIdeal(f, tuple(factors))
    if out.norm() != n:
        raise InternalInvariantError("factorization norm mismatch")
    return out


def _prime_pool(field: FieldSpec, kappa: int) -> list[PrimeIdeal]:
    """The prime ideals of norm <= kappa, sorted by norm and then (p, b),
    so a walk over them can stop at the first norm too large."""
    if kappa < 1:
        raise DomainError("kappa must be >= 1")
    pool = [
        prime for p in primes_upto(kappa) for prime in _primes_above(p, field) if prime.norm <= kappa
    ]
    pool.sort(key=attrgetter("norm"))
    return pool


def enumerate_ideals_factored(
    field: FieldSpec, kappa: int
) -> list[tuple[int, tuple[tuple[PrimeIdeal, int], ...]]]:
    """(norm, prime factorization) of every ideal of norm <= kappa, once
    each and in no set order; no ideal is built.  Each factorization
    ((PrimeIdeal, e), ...) lists its primes by (norm, a, b)."""
    prime_pool = _prime_pool(field, kappa)
    # an explicit stack keeps the depth independent of the pool size
    pool_norms = [prime.norm for prime in prime_pool]
    results: list[tuple[int, tuple[tuple[PrimeIdeal, int], ...]]] = []
    stack: list[tuple[int, int, tuple[tuple[PrimeIdeal, int], ...]]] = [(0, 1, ())]
    while stack:
        i, nrm, fac = stack.pop()
        results.append((nrm, fac))
        for j in range(i, len(prime_pool)):
            q = pool_norms[j]
            n2, e = nrm * q, 1
            if n2 > kappa:
                break
            prime = prime_pool[j]
            while n2 <= kappa:
                stack.append((j + 1, n2, fac + ((prime, e),)))
                n2 *= q
                e += 1
    return results
