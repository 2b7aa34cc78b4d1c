"""Binary quadratic forms, class groups, principality and Davenport constants.

Imaginary fields (and Q) get one ClassGroup each, built from prime forms,
with a vector in the sum of Z/m_i for every class; real fields only get
principality-by-generator-search inside the fundamental-unit band.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import isqrt, sqrt

from atomzeta.errors import (
    CapExceededError,
    DomainError,
    InternalInvariantError,
    RealFieldError,
)
from atomzeta.ideals import Ideal, _primes_above, _xgcd
from atomzeta.ring import (
    FieldSpec,
    RingElement,
    fundamental_unit,
)
from atomzeta.sieve import factorint, primes_upto


@dataclass(frozen=True)
class QuadForm:
    a: int
    b: int
    c: int

    @property
    def disc(self) -> int:
        return self.b * self.b - 4 * self.a * self.c

    def is_reduced(self) -> bool:
        a, b, c = self.a, self.b, self.c
        if not (abs(b) <= a <= c):
            return False
        if (abs(b) == a or a == c) and b < 0:
            return False
        return True

    def opposite(self) -> "QuadForm":
        return QuadForm(self.a, -self.b, self.c)


def principal_form(disc: int) -> QuadForm:
    k = disc % 2
    return QuadForm(1, k, (k * k - disc) // 4)


def reduce_form(f: QuadForm) -> QuadForm:
    if f.disc >= 0:
        raise RealFieldError("form reduction implemented for negative discriminants")
    a, b, c = f.a, f.b, f.c
    while True:
        if b <= -a or b > a:
            r = (a - b) // (2 * a)  # b + 2ra lands in (-a, a]
            b, c = b + 2 * r * a, a * r * r + b * r + c
        if a > c:
            a, b, c = c, -b, a
            continue
        if a == c and b < 0:
            b = -b
        break
    out = QuadForm(a, b, c)
    if not out.is_reduced():
        raise InternalInvariantError("reduction did not terminate in a reduced form")
    return out


def compose(f1: QuadForm, f2: QuadForm) -> QuadForm:
    """Reduced Gauss/Dirichlet composition (negative discriminants)."""
    if f1.disc != f2.disc:
        raise DomainError("composition requires equal discriminants")
    if f1.a > f2.a:
        f1, f2 = f2, f1
    a1, b1, _c1 = f1.a, f1.b, f1.c
    a2, b2, c2 = f2.a, f2.b, f2.c
    s = (b1 + b2) // 2
    n = b2 - s
    if a2 % a1 == 0:
        y1, d = 0, a1
    else:
        d, u, _v = _xgcd(a2, a1)
        y1 = u
    if s % d == 0:
        y2, x2, d1 = -1, 0, d
    else:
        d1, u, v = _xgcd(s, d)
        x2, y2 = u, -v
    v1, v2 = a1 // d1, a2 // d1
    r = (y1 * y2 * n - x2 * c2) % v1
    b3 = b2 + 2 * v2 * r
    a3 = v1 * v2
    c3 = (c2 * d1 + r * (b2 + v2 * r)) // v1
    return reduce_form(QuadForm(a3, b3, c3))


# ---------------------------------------------------------------------------
# ideal <-> form


def ideal_to_form(ideal: Ideal) -> QuadForm:
    field = ideal.field
    if not field.is_imaginary:
        raise RealFieldError("form correspondence implemented for imaginary fields")
    a, b, c = ideal.a, ideal.b, ideal.c
    n = a * c
    # the middle coefficient is negated so that form_to_ideal inverts this
    # map exactly (rather than landing in the conjugate class)
    if field.half_basis:
        qa = a // c
        qb = -((2 * b + c) // c)
        qc = (b * b + b * c + c * c * (1 - field.d) // 4) // n
    else:
        qa = a // c
        qb = -(2 * b // c)
        qc = (b * b - field.d * c * c) // n
    form = QuadForm(qa, qb, qc)
    if form.disc != field.disc:
        raise InternalInvariantError("ideal-to-form discriminant mismatch")
    return form


def form_to_ideal(f: QuadForm, field: FieldSpec) -> Ideal:
    if not field.is_imaginary or f.disc != field.disc:
        raise DomainError("form discriminant does not match the field")
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


def _generator_candidates(ideal: Ideal):
    """Elements of I with |N(e)| = N(I), complete up to sign: the solutions
    of (2x + y)^2 - d y^2 = +-4N (x^2 - d y^2 = +-N when w = sqrt(d)) with
    0 <= y <= bound, signs of x handled per y.

    For imaginary d the bound is the ellipse's.  For real d, any generator
    has an associate in the band [sqrt(N), eps*sqrt(N)) of the positive
    embedding (after a sign flip); there |sigma| < eps*sqrt(N) and
    |sigma-bar| <= sqrt(N), hence |y|*sqrt(d) <= (1 + eps)*sqrt(N).
    """
    field = ideal.field
    n, d = ideal.norm, field.d
    scale = 4 if field.half_basis else 1
    if field.is_imaginary:
        bound = isqrt(scale * n // -d)
    else:
        eps = fundamental_unit(field)
        if field.half_basis:
            sig = eps.x + eps.y * (1 + sqrt(d)) / 2
        else:
            sig = eps.x + eps.y * sqrt(d)
        bound = int((1.0 + sig) * sqrt(n) / sqrt(d)) + 2
    for y in range(bound + 1):
        for target in (n, -n):
            t2 = scale * target + d * y * y
            if t2 < 0:
                continue
            t = isqrt(t2)
            if t * t != t2:
                continue
            for ts in ({t, -t} if t else {0}):
                if field.half_basis:
                    if (ts - y) % 2:
                        continue
                    e = field.element((ts - y) // 2, y)
                else:
                    e = field.element(ts, y)
                if ideal.contains(e):
                    yield e


@lru_cache(maxsize=None)
def is_principal(ideal: Ideal) -> tuple[bool, RingElement | None]:
    """(True, generator) when the ideal is principal, else (False, None)."""
    field = ideal.field
    if field.is_rational:
        return True, field.element(ideal.a)
    if ideal.is_unit_ideal():
        return True, field.one
    if field.is_imaginary and not is_principal_class(ideal):
        return False, None
    for e in _generator_candidates(ideal):
        if abs(e.norm()) == ideal.norm:
            return True, e
    if field.is_imaginary:
        raise InternalInvariantError("principal class but no generator found")
    return False, None


def is_principal_class(ideal: Ideal) -> bool:
    """Principality without extracting a generator (cheap for imaginary fields)."""
    field = ideal.field
    if field.is_rational:
        return True
    if field.is_imaginary:
        return ideal_class_form(ideal) == class_group(field).identity
    return is_principal(ideal)[0]


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
    """Cl(K) as the sum of Z/m_i with m_1 | ... | m_r: the principal form,
    the invariants, and the vector of every reduced form (over Q the one
    class has no form and is keyed by None)."""

    identity: QuadForm | None
    invariants: tuple[int, ...]
    coords: dict[QuadForm | None, tuple[int, ...]]

    def vector(self, ideal: Ideal) -> tuple[int, ...]:
        return self.coords[ideal_class_form(ideal)] if self.invariants else ()

    def add(self, u: tuple[int, ...], v: tuple[int, ...]) -> tuple[int, ...]:
        return tuple((x + y) % m for x, y, m in zip(u, v, self.invariants))

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
    """Cl(K) for an imaginary field or Q.

    Every class holds a reduced form (a, b, c) with a <= sqrt(|D|/3), whose
    ideal is a product of primes of norm <= a, so the classes of one prime
    above each p <= sqrt(|D|/3) generate Cl(K) (inert primes are principal,
    and the other prime above p is the inverse).  A prime class g outside
    the subgroup H found so far is a new generator: its powers are walked
    until g^e lies in H, which gives a relation row, and H grows by its
    cosets H*g^j, 0 < j < e; about 2h compositions in all.  The Smith normal
    form of the triangular relation matrix gives the invariants, and its
    column transform maps each form's exponents to its vector.
    """
    if field.is_rational:
        return ClassGroup(None, (), {None: ()})
    if not field.is_imaginary:
        raise RealFieldError("class groups implemented for imaginary fields and Q only")
    one = reduce_form(principal_form(field.disc))
    sub, rows = {one: []}, []  # H as form -> exponents over the generators so far
    for p in primes_upto(isqrt(-field.disc // 3)):
        g = ideal_class_form(_primes_above(p, field)[0].ideal)
        if g in sub:
            continue
        powers = [g]  # g^1 .. g^(e-1), none of them in H
        w = compose(g, g)
        while w not in sub:
            powers.append(w)
            w = compose(w, g)
        k = len(rows)
        rows.append([-x for x in sub[w]] + [0] * (k - len(sub[w])) + [len(powers) + 1])
        base = list(sub.items())
        for j, gj in enumerate(powers, 1):
            for f, u in base:
                sub[gj if f == one else compose(f, gj)] = u + [0] * (k - len(u)) + [j]
    k = len(rows)
    diag, v = _smith([row + [0] * (k - len(row)) for row in rows])
    keep = [t for t in range(k) if diag[t] > 1]
    coords = {
        f: tuple(sum(x * v[i][t] for i, x in enumerate(u)) % diag[t] for t in keep)
        for f, u in sub.items()
    }
    group = ClassGroup(one, tuple(diag[t] for t in keep), coords)
    if AbelianGroupSpec(group.invariants).order != len(coords):
        raise InternalInvariantError("class group order mismatch")
    return group


def class_number(field: FieldSpec) -> int:
    return len(class_group(field).coords)


def class_group_structure(field: FieldSpec) -> AbelianGroupSpec:
    return AbelianGroupSpec(class_group(field).invariants)


# ---------------------------------------------------------------------------
# Davenport constant

# Order bound for the residual search (rank >= 3, not a p-group).  Timings
# of the search on a 2-core host: Z/2 x Z/2 x Z/6 (order 24) 0.14 s,
# Z/2 x Z/2 x Z/10 (order 40) 17 s, Z/2^3 x Z/6 (order 48) 43 s, and
# Z/2 x Z/2 x Z/12, Z/3 x Z/3 x Z/6, Z/2 x Z/2 x Z/14 over 60 s each.
DAVENPORT_CAP = 32


def davenport_constant(group: AbelianGroupSpec) -> int:
    """Smallest D such that every length-D sequence has a nonempty zero-sum
    subsequence.

    D = 1 + sum(m_i - 1) for rank <= 2 (van Emde Boas & Kruyswijk 1967;
    Olson 1969, part II) and for p-groups (Olson 1969, part I).  Any other
    group goes to an exhaustive subset-sum-state search when its order is at
    most DAVENPORT_CAP; above that, CapExceededError.
    """
    invs = group.invariants
    # m_1 | ... | m_r, so the group is a p-group iff m_r is a prime power
    if group.rank <= 2 or len(factorint(invs[-1])) == 1:
        return 1 + sum(m - 1 for m in invs)
    n = group.order
    if n > DAVENPORT_CAP:
        raise CapExceededError(
            f"no closed form for the Davenport constant of {group} (rank >= 3, "
            f"not a p-group), and its order {n} exceeds the search cap "
            f"{DAVENPORT_CAP}"
        )
    # Index group elements 0..n-1 in mixed radix over the invariant factors.
    # Translation of the whole subset-sum bitmask by an element is a rotation
    # in each mixed-radix coordinate, done with O(1) big-int shift/mask ops.
    r = len(invs)
    strides = [1] * r
    for j in range(1, r):
        strides[j] = strides[j - 1] * invs[j - 1]

    def to_tuple(i: int) -> tuple[int, ...]:
        out = []
        for m in invs:
            out.append(i % m)
            i //= m
        return tuple(out)

    digits = [to_tuple(i) for i in range(n)]
    full_mask = (1 << n) - 1
    # low_mask[j][u]: bits whose j-th digit is < m_j - u (they shift up by u)
    low_mask = []
    for j, m in enumerate(invs):
        row = []
        for u in range(m):
            bm = 0
            for i in range(n):
                if digits[i][j] < m - u:
                    bm |= 1 << i
            row.append(bm)
        low_mask.append(row)

    def make_shift(e: tuple[int, ...]):
        steps = [
            (low_mask[j][u], u * strides[j], (invs[j] - u) * strides[j])
            for j, u in enumerate(e)
            if u
        ]

        def shift(x: int) -> int:
            for bm, up, down in steps:
                x = ((x & bm) << up) | ((x & ~bm & full_mask) >> down)
            return x

        return shift

    shifts = [make_shift(digits[j]) for j in range(n)]
    bit = [1 << j for j in range(n)]

    memo: dict[int, int] = {}

    def longest(state: int) -> int:
        """Max further elements addable while keeping 0 out of the sumset."""
        cached = memo.get(state)
        if cached is not None:
            return cached
        best = 0
        for j in range(1, n):
            new = state | shifts[j](state) | bit[j]
            if new & 1:
                continue
            best = max(best, 1 + longest(new))
        memo[state] = best
        return best

    # recursion depth is at most D - 1 < n <= DAVENPORT_CAP
    return 1 + longest(0)
