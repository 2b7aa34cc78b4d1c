"""Binary quadratic forms, class groups, principality, the classes of the
primes up to kappa and Davenport constants.

Every field gets one ClassGroup, built from prime forms, with a vector in
the sum of Z/m_i for every class.  An imaginary class holds one reduced
form.  A real class (of the wide group) holds the reduced forms on the
rho-cycles of f and of (-a, b, -c), and each of them with a > 0 is keyed
to its vector.  Principality is read off the vector, and a generator comes
from one rho-walk in every field (Cohen, GTM 138, sections 5.6-5.8;
Buchmann & Vollmer, Binary Quadratic Forms, 2007).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import gcd, isqrt, prod
from operator import mul
from typing import NamedTuple

from atomzeta.errors import CapExceededError, DomainError, InternalInvariantError
from atomzeta.ideals import Ideal, PrimeIdeal, _primes_above, _xgcd
from atomzeta.ring import FieldSpec, RingElement
from atomzeta.sieve import factorint, primes_upto


class QuadForm(NamedTuple):
    """a x^2 + b xy + c y^2; equal to, and hashed as, the plain (a, b, c)."""

    a: int
    b: int
    c: int

    @property
    def disc(self) -> int:
        return self.b * self.b - 4 * self.a * self.c

    def is_reduced(self) -> bool:
        a, b, c = self
        return _is_reduced(a, b, c, isqrt(self.disc) if a * c < 0 else 0)

    def opposite(self) -> "QuadForm":
        return QuadForm(self.a, -self.b, self.c)


def principal_form(disc: int) -> QuadForm:
    k = disc % 2
    return QuadForm(1, k, (k * k - disc) // 4)


def _is_reduced(a: int, b: int, c: int, s: int) -> bool:
    """|b| <= a <= c, with b >= 0 if |b| = a or a = c, for D < 0; for D > 0
    (not a square) and s = isqrt(D), |sqrt(D) - 2|a|| < b < sqrt(D)."""
    if a * c < 0:  # D > 0, and no other form of D > 0 is reduced
        return 0 < b <= s and s - b < 2 * abs(a) <= s + b
    return abs(b) <= a <= c and not (b < 0 and (-b == a or a == c))


def _reduce(a: int, b: int, c: int, disc: int) -> tuple[int, int, int]:
    """The reduced form of (a, b, c) on plain integers (a > 0 if D < 0).
    For D > 0, rho until reduced, and once more if a < 0: the reduced forms
    have ac < 0, so a changes sign at every step of a cycle."""
    if disc > 0:
        s = isqrt(disc)
        while not _is_reduced(a, b, c, s):
            a, b, c = _rho(a, b, c, disc, s)
        return _rho(a, b, c, disc, s) if a < 0 else (a, b, c)
    while True:
        if b <= -a or b > a:
            r = (a - b) // (2 * a)  # b + 2ra lands in (-a, a]
            b, c = b + 2 * r * a, a * r * r + b * r + c
        if a > c:
            a, b, c = c, -b, a
            continue
        if a == c and b < 0:
            b = -b
        return a, b, c


def _rho(a: int, b: int, c: int, disc: int, s: int) -> tuple[int, int, int]:
    """rho(a, b, c) = (c, r, (r^2 - D)/4c) = f o [[0, -1], [1, t]] for
    r = 2ct - b in (-|c|, |c|] if c^2 > D (always when D < 0; then s is
    unused), else in (s - 2|c|, s]."""
    m = 2 * abs(c)
    if c * c > disc:
        r = -b % m
        if r > m // 2:
            r -= m
    else:
        r = s - (s + b) % m
    return c, r, (r * r - disc) // (4 * c)


def _wide_class(f: tuple[int, int, int], disc: int) -> list[tuple[int, int, int]]:
    """The reduced forms with a > 0 on the rho-cycles of a reduced f with
    a > 0 and of (-a, b, -c): one cycle when N(eps) = -1, else two."""
    s = isqrt(disc)
    forms = []
    for g in (f, _rho(-f[0], f[1], -f[2], disc, s)):
        if g in forms:
            break
        start = g
        while True:
            forms.append(g)
            g = _rho(*_rho(*g, disc, s), disc, s)
            if g == start:
                break
    return forms


def _reduced(a: int, b: int, c: int, disc: int) -> QuadForm:
    """reduce_form on plain integers, for disc = b^2 - 4ac: its refusals,
    the reduction and the check that the result is reduced."""
    s = isqrt(disc) if disc > 0 else 0
    if disc >= 0 and s * s == disc:
        raise DomainError("forms of square discriminant have no reduction")
    if disc < 0 and a < 0:
        raise DomainError("negative definite forms have no reduction")
    a, b, c = _reduce(a, b, c, disc)
    if not _is_reduced(a, b, c, s):
        raise InternalInvariantError("reduction did not terminate in a reduced form")
    return QuadForm(a, b, c)


def reduce_form(f: QuadForm) -> QuadForm:
    """The reduced form of f; for D > 0, the one with a > 0 that rho
    reaches first.  A square D (the form factors over Q) and a negative
    definite form are refused."""
    return _reduced(*f, f.disc)


def compose(f1: QuadForm, f2: QuadForm) -> QuadForm:
    """Reduced Gauss/Dirichlet composition of two forms with a > 0."""
    a1, b1, c1 = f1
    a2, b2, c2 = f2
    disc = b1 * b1 - 4 * a1 * c1
    if disc != b2 * b2 - 4 * a2 * c2:
        raise DomainError("composition requires equal discriminants")
    if not a1 * a2:  # a = 0 makes D = b^2 a square; refused before dividing by a
        raise DomainError("forms of square discriminant have no reduction")
    if a1 > a2:
        a1, b1, a2, b2, c2 = a2, b2, a1, b1, c1
    s = (b1 + b2) // 2
    n = b2 - s
    d, y1, _ = _xgcd(a2, a1)  # y1 a2 = d (mod a1)
    d1, x2, v = _xgcd(s, d)  # x2 s + v d = d1
    v1, v2 = a1 // d1, a2 // d1
    r = (-y1 * v * n - x2 * c2) % v1
    return _reduced(v1 * v2, b2 + 2 * v2 * r, (c2 * d1 + r * (b2 + v2 * r)) // v1, disc)


# ---------------------------------------------------------------------------
# ideal <-> form


def _form(a: int, b: int, disc: int) -> tuple[int, int, int]:
    """The form N(x a - y (b + w)) / a of <a, b + w>: (a, B, (B^2 - D)/4a)
    with B = -(2b + t), t = 1 in the basis w = (1 + sqrt(d))/2 (D odd) and
    0 otherwise.  B is negated so that form_to_ideal inverts this map
    exactly (rather than landing in the conjugate class).  B^2 - D must be
    a multiple of 4a, that is, the form must have discriminant D."""
    big_b = -(2 * b + (disc & 1))
    c, rest = divmod(big_b * big_b - disc, 4 * a)
    if rest:
        raise InternalInvariantError("ideal-to-form discriminant mismatch")
    return a, big_b, c


def ideal_to_form(ideal: Ideal) -> QuadForm:
    """N(x a - y (b + c w)) / N(I) for I = <a, b + c w> = (c) <a/c, b/c + w>
    in HNF: the form of the primitive part."""
    field = ideal.field
    if field.is_rational:
        raise DomainError("Q has no binary quadratic forms")
    c = ideal.c
    return QuadForm(*_form(ideal.a // c, ideal.b // c, field.disc))


def form_to_ideal(f: QuadForm, field: FieldSpec) -> Ideal:
    """<a, B + w> with B read off b, for a form with a > 0 (any form of a
    real class has a properly equivalent one with a > 0)."""
    if field.is_rational or f.disc != field.disc:
        raise DomainError("form discriminant does not match the field")
    if f.a <= 0:
        raise DomainError(f"form_to_ideal needs a > 0, not a = {f.a}")
    a, b = f.a, f.b
    if field.half_basis:
        bb = ((-b - 1) // 2) % a
    else:
        bb = (-b // 2) % a
    return Ideal(field, a, bb, 1)


def ideal_class_form(ideal: Ideal) -> QuadForm:
    return reduce_form(ideal_to_form(ideal))


# ---------------------------------------------------------------------------
# principality

def _principal_walk(ideal: Ideal) -> tuple[bool, RingElement | None]:
    """is_principal in any field by one rho-walk from f = ideal_to_form(I).

    The walk keeps M in SL2(Z) with f o M the current form; a rho step
    multiplies M by [[0, -1], [1, t]].  At a form (+-1, b, c), the first
    column (x, y) of M has f(x, y) = +-1, so x a - y (b + c w) is a
    generator.  Once reduced, the walk runs through every reduced form
    properly equivalent to f, among them a (+-1, b, c) if f represents +-1:
    if the cycle closes first, I is not principal.  For D < 0, rho is the
    swap-and-normalize step, so the walk reaches the one reduced form of
    the class in O(log N(I)) steps and its cycle has length at most 2.
    is_principal asks only for an ideal of the principal class, read off
    class_group first."""
    disc = ideal.field.disc
    s = isqrt(disc) if disc > 0 else 0
    a, b, c = ideal_to_form(ideal)
    x, y, u, v = 1, 0, 0, 1  # the columns (x, y) and (u, v) of M
    start = None
    while abs(a) != 1:
        if (a, b, c) == start:
            return False, None
        if start is None and _is_reduced(a, b, c, s):
            start = (a, b, c)
        a, r, c = _rho(a, b, c, disc, s)
        t = (r + b) // (2 * a)  # the new a is the old c
        b, x, y, u, v = r, u, v, t * u - x, t * v - y
    return True, ideal.field.element(x * ideal.a - y * ideal.b, -y * ideal.c)


# bounded, as each distinct ideal asked about holds an entry;
# factor_into_atoms asks once per distinct atom (atoms._atom_generator
# keeps its generator), some 850 ideals in 2,000 factorizations
@lru_cache(maxsize=2**16)
def is_principal(ideal: Ideal) -> tuple[bool, RingElement | None]:
    """(True, generator) when the ideal is principal, else (False, None)."""
    field = ideal.field
    if field.is_rational:
        return True, field.element(ideal.a)
    if not is_principal_class(ideal):
        return False, None
    e = _principal_walk(ideal)[1]
    if e is None:
        raise InternalInvariantError("principal class but no generator found")
    return True, e


def is_principal_class(ideal: Ideal) -> bool:
    """Principality without extracting a generator, read off the class group."""
    return not any(class_group(ideal.field).vector(ideal))


# ---------------------------------------------------------------------------
# class numbers and group structure


@dataclass(frozen=True)
class AbelianGroupSpec:
    """Invariant factors m1 | m2 | ... | mr (empty tuple = trivial group)."""

    invariants: tuple[int, ...]

    def __post_init__(self):
        for i, m in enumerate(self.invariants):
            if m < 2:
                raise DomainError("invariant factors must be >= 2")
            if i and self.invariants[i] % self.invariants[i - 1]:
                raise DomainError("each invariant factor must divide the next")

    @property
    def order(self) -> int:
        n = 1
        for m in self.invariants:
            n *= m
        return n

    @property
    def rank(self) -> int:
        return len(self.invariants)

    def __str__(self) -> str:
        if not self.invariants:
            return "trivial"
        return " x ".join(f"Z/{m}" for m in self.invariants)


@dataclass(frozen=True, eq=False)
class ClassGroup:
    """Cl(K) as the sum of Z/m_i with m_1 | ... | m_r: the reduced
    principal form, the invariants, and the vector of every reduced form
    (with a > 0 when D > 0; over Q the one class has no form and is keyed
    by None)."""

    identity: QuadForm | None
    invariants: tuple[int, ...]
    coords: dict[QuadForm | None, tuple[int, ...]]

    def vector(self, ideal: Ideal) -> tuple[int, ...]:
        return self.coords[ideal_class_form(ideal)] if self.invariants else ()

    def prime_vector(self, prime: PrimeIdeal) -> tuple[int, ...]:
        """vector(prime.ideal) from (p, b) alone.  An inert prime is (p),
        principal; <p, b + w> maps to the form of ideal_to_form."""
        if prime.f == 2 or not self.invariants:
            return (0,) * len(self.invariants)
        disc = prime.field.disc
        vec = self.coords.get(_reduce(*_form(prime.p, prime.b, disc), disc))
        if vec is None:
            raise InternalInvariantError("prime form reduced to no class of the group")
        return vec

    def add(self, u: tuple[int, ...], v: tuple[int, ...]) -> tuple[int, ...]:
        return tuple((x + y) % m for x, y, m in zip(u, v, self.invariants))

    @lru_cache(maxsize=None)  # at most h entries a group; walks ask once per prime
    def neg(self, v: tuple[int, ...]) -> tuple[int, ...]:
        return tuple(-x % m for x, m in zip(v, self.invariants))


def _smith(a: list[list[int]]) -> tuple[list[int], list[list[int]]]:
    """(diag, v) for a square integer matrix A of full rank, changed in
    place: u*A*v = diag(d_1, ..., d_n) up to signs, each d_t > 0 dividing
    the next, for some unimodular u.  Only the column transform v is kept."""
    n = len(a)
    v = [[int(i == j) for j in range(n)] for i in range(n)]
    for t in range(n):
        while True:
            _, i, j = min(
                (abs(a[i][j]), i, j) for i in range(t, n) for j in range(t, n) if a[i][j]
            )
            a[t], a[i] = a[i], a[t]
            for row in a + v:
                row[t], row[j] = row[j], row[t]
            p = a[t][t]
            for j in range(t + 1, n):
                q = a[t][j] // p
                for row in a + v:
                    row[j] -= q * row[t]
            for i in range(t + 1, n):
                q = a[i][t] // p
                a[i] = [x - q * y for x, y in zip(a[i], a[t])]
            # a nonzero remainder is smaller than the pivot: pivot again
            if any(a[t][t + 1:]) or any(a[i][t] for i in range(t + 1, n)):
                continue
            bad = next((r for r in a[t + 1:] if any(x % p for x in r)), None)
            if bad is None:
                break
            a[t] = [x + y for x, y in zip(a[t], bad)]
    return [abs(a[t][t]) for t in range(n)], v


@lru_cache(maxsize=None)
def class_group(field: FieldSpec) -> ClassGroup:
    """Cl(K) for any field.

    Every class holds an ideal of norm at most sqrt(|D|/3) (imaginary: the
    a of its reduced form) or sqrt(D)/2 (real: Minkowski), a product of
    primes of norm at most that, so the classes of one prime above each
    such p generate Cl(K) (inert primes are principal, and the other prime
    above p is the inverse).  A prime class g outside the subgroup H found
    so far is a new generator: its powers are walked until g^e lies in H,
    which gives a relation row, and H grows by its cosets H*g^j, 0 < j < e.
    That is e - 1 compositions for the powers and one for each other new
    class: h - 1 in all.  A real class is composed through its
    reduced form with a > 0 that reduce_form gives, and keyed by every
    form of _wide_class.  The Smith normal form of the triangular relation
    matrix gives the invariants, and its column transform maps each class's
    exponents to its vector.
    """
    if field.is_rational:
        return ClassGroup(None, (), {None: ()})
    disc = field.disc
    one = reduce_form(principal_form(disc))
    real = disc > 0
    bound = isqrt(disc) // 2 if real else isqrt(-disc // 3)
    sub, rows = {one: []}, []  # H as form -> exponents over the generators so far
    # a real class is composed through the form that reduce_form gives, the
    # key in sub, and found through every form of _wide_class
    alias = dict.fromkeys(_wide_class(one, disc), one) if real else None
    find = sub.get if alias is None else (lambda f: sub.get(alias.get(f)))
    for p in primes_upto(bound):
        prime = _primes_above(p, field)[0]
        if prime.f == 2:  # inert: (p) is principal
            continue
        g = _reduced(*_form(p, prime.b, disc), disc)
        if find(g) is not None:
            continue
        powers = [g]  # g^1 .. g^(e-1), none of them in H
        w = compose(g, g)
        while (u := find(w)) is None:
            powers.append(w)
            w = compose(w, g)
        k = len(rows)
        rows.append([-x for x in u] + [0] * (k - len(u)) + [len(powers) + 1])
        base = list(sub.items())
        for j, gj in enumerate(powers, 1):
            for f, u in base:
                h = gj if f == one else compose(f, gj)
                sub[h] = u + [0] * (k - len(u)) + [j]
                if alias is not None:
                    alias.update(dict.fromkeys(_wide_class(h, disc), h))
    k = len(rows)
    diag, v = _smith([row + [0] * (k - len(row)) for row in rows])
    keep = [(m, [row[t] for row in v]) for t, m in enumerate(diag) if m > 1]
    vectors = {f: tuple(sum(map(mul, u, col)) % m for m, col in keep) for f, u in sub.items()}
    coords = vectors if alias is None else {f: vectors[r] for f, r in alias.items()}
    group = ClassGroup(one, tuple(m for m, _ in keep), coords)
    if AbelianGroupSpec(group.invariants).order != len(sub):
        raise InternalInvariantError("class group order mismatch")
    return group


def _split_upto(field: FieldSpec, kappa: int, classes: bool, upto_sign: bool = False):
    """(p, f, k, g, above) for each prime p <= kappa in order, skipping an
    inert p with p^2 > kappa: the residue degree f and number k of the
    primes above p, the class g of the first (the other has -g; None
    unless classes), and their list if this pass split p, else None.
    With upto_sign, g may be the class of the other prime above p, for a
    caller that treats the two alike.

    For a fundamental discriminant D and p not dividing D, (D | p) depends
    only on p mod |D| (quadratic reciprocity; Cohen, GTM 138), and so does
    the genus of a prime above p, its class mod Cl(K)^2, read off the genus
    characters at p (Cox, Primes of the Form x^2 + ny^2, section 3).  So a
    residue split once answers (f, k, g) for every later prime with it,
    with no square root and no reduction, whenever the genus fixes what the
    caller reads: with no classes; for an inert residue, principal in any
    group; when g + Cl(K)^2 = {g}, that is, when every invariant of Cl(K)
    is 2 (the trivial group and real wide groups included); and, with
    upto_sign, when g + Cl(K)^2 = {g, -g}, that is, when Cl(K) is
    (Z/2)^r x Z/4 and g has order 4.  Each residue is decided once, at its
    first prime.  A table byte numbers the residue's answer; 0 while it is
    unseen, and 1 once it is known to need a split at every prime.  With
    |D| < kappa <= SIEVE_LIMIT, D has at most 8 prime factors, so Cl(K)
    has 2-rank at most 7: h <= 2^7 for a 2-torsion group and h <= 2^8,
    with h/2 classes of order 4, for (Z/2)^r x Z/4.  So there are at most
    129 answers, with the inert one, and a byte holds each.  The table is
    kept only when |D| < kappa: else no two primes <= kappa share a
    residue.  The sieve runs at the call, before the group and the table
    are built, and the table is never more than twice the sieve's mask."""
    primes = primes_upto(kappa)
    group = class_group(field) if classes else None
    inv = group.invariants if group else ()
    # Cl(K)^2 is the sum of the 2Z/m_i: {0, 2(1, ..., 1)} when it has at
    # most two elements, and else no coset of it lies in any {g, -g}
    small = prod(n // gcd(n, 2) for n in inv) <= 2
    squares = {(0,) * len(inv), tuple(2 % n for n in inv)}
    m = abs(field.disc)
    table = bytearray(m) if m < kappa else None
    answers, codes = [None, None], {}  # table byte <-> (f, k, g)

    def genus_fixes(f: int, g) -> bool:
        if group is None or f == 2:
            return True
        coset = {group.add(g, s) for s in squares}
        return small and coset <= ({g, group.neg(g)} if upto_sign else {g})

    def stream():
        for p in primes:
            i = 0 if table is None else table[p % m]
            if i > 1:
                (f, k, g), above = answers[i], None
            else:
                above = _primes_above(p, field)
                f, k, g = above[0].f, len(above), group and group.prime_vector(above[0])
                if not i and table is not None and m % p:
                    if genus_fixes(f, g):
                        if (f, k, g) not in codes:
                            codes[f, k, g] = len(answers)
                            answers.append((f, k, g))
                        table[p % m] = codes[f, k, g]
                    else:
                        table[p % m] = 1
            if f == 1 or p * p <= kappa:
                yield p, f, k, g, above

    return stream()


def class_number(field: FieldSpec) -> int:
    return class_group_structure(field).order


def class_group_structure(field: FieldSpec) -> AbelianGroupSpec:
    return AbelianGroupSpec(class_group(field).invariants)


# ---------------------------------------------------------------------------
# Davenport constant

def davenport_constant(group: AbelianGroupSpec) -> int:
    """Smallest D such that every length-D sequence has a nonempty zero-sum
    subsequence.

    D = 1 + sum(m_i - 1) for rank <= 2 (van Emde Boas & Kruyswijk 1967;
    Olson 1969, part II), for p-groups (Olson 1969, part I) and for
    Z/2 x Z/2 x Z/2n (Geroldinger & Halter-Koch, Non-Unique Factorizations,
    section 5.8).  Any other group raises CapExceededError.
    """
    invs = group.invariants
    # m_1 | ... | m_r, so the group is a p-group iff m_r is a prime power
    if group.rank <= 2 or len(factorint(invs[-1])) == 1 or invs[:-1] == (2, 2):
        return 1 + sum(m - 1 for m in invs)
    raise CapExceededError(
        f"no closed form for the Davenport constant of {group} (rank >= 3, "
        f"not a p-group, not Z/2 x Z/2 x Z/2n)"
    )
