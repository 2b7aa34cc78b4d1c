"""Quadratic integer rings Z_K for K = Q(sqrt(d)), plus the degenerate K = Q.

Elements are stored in integral-basis coordinates (x, y) meaning x + y*w,
where w = sqrt(d) for d = 2, 3 (mod 4) and w = (1 + sqrt(d))/2 for
d = 1 (mod 4).  All arithmetic is exact over Python's unbounded ints.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import isqrt

from atomzeta.errors import (
    ImaginaryFieldError,
    InvalidDError,
    MixedFieldError,
    NotSquarefreeError,
    ZeroElementError,
)
from atomzeta.sieve import factorint

MAX_ABS_D = 10**9  # class-group and unit routines are desk-scale


def is_squarefree(n: int) -> bool:
    n = abs(n)
    if n == 0:
        return False
    return all(e == 1 for e in factorint(n).values())


@dataclass(frozen=True, eq=False)
class FieldSpec:
    """A quadratic field Q(sqrt(d)), or Q itself when d is None.

    Interned: make_field and rational_field are the only constructors and
    both are cached, so one field is one object, and equality and hashing
    are by identity."""

    d: int | None
    degree: int
    disc: int
    half_basis: bool  # True when w = (1 + sqrt(d))/2

    @property
    def is_rational(self) -> bool:
        return self.d is None

    @property
    def is_real(self) -> bool:
        return self.d is not None and self.d > 0

    @property
    def is_imaginary(self) -> bool:
        return self.d is not None and self.d < 0

    @property
    def omega_label(self) -> str:
        if self.is_rational:
            return "1"
        if self.half_basis:
            return f"(1+√{self.d})/2"
        return f"√{self.d}"

    def element(self, x: int, y: int = 0) -> "RingElement":
        if self.is_rational and y != 0:
            raise MixedFieldError("rational field elements have y = 0")
        return RingElement(self, x, y)

    @property
    def zero(self) -> "RingElement":
        return self.element(0)

    @property
    def one(self) -> "RingElement":
        return self.element(1)

    @property
    def omega(self) -> "RingElement":
        return self.element(0, 1)

    def label(self) -> str:
        return "Q" if self.is_rational else f"Q(√{self.d})"


@lru_cache(maxsize=None)
def make_field(d: int) -> FieldSpec:
    """Validated FieldSpec for Q(sqrt(d)); rejects d in {0, 1} and non-squarefree d."""
    if d in (0, 1):
        raise InvalidDError(f"d = {d} does not define a quadratic field")
    if abs(d) > MAX_ABS_D:
        raise InvalidDError(f"|d| > {MAX_ABS_D} is out of the supported range")
    if not is_squarefree(d):
        raise NotSquarefreeError(f"d = {d} is not squarefree")
    if d % 4 == 1:
        return FieldSpec(d=d, degree=2, disc=d, half_basis=True)
    return FieldSpec(d=d, degree=2, disc=4 * d, half_basis=False)


@lru_cache(maxsize=None)
def rational_field() -> FieldSpec:
    """The degenerate degree-1 field K = Q with Z_K = Z."""
    return FieldSpec(d=None, degree=1, disc=1, half_basis=False)


@dataclass(frozen=True)
class RingElement:
    """x + y*w in integral-basis coordinates; immutable and hashable."""

    field: FieldSpec
    x: int
    y: int

    def _check(self, other: "RingElement") -> None:
        if self.field != other.field:
            raise MixedFieldError("operands belong to different fields")

    def __add__(self, other: "RingElement") -> "RingElement":
        self._check(other)
        return RingElement(self.field, self.x + other.x, self.y + other.y)

    def __sub__(self, other: "RingElement") -> "RingElement":
        self._check(other)
        return RingElement(self.field, self.x - other.x, self.y - other.y)

    def __neg__(self) -> "RingElement":
        return RingElement(self.field, -self.x, -self.y)

    def __mul__(self, other: "RingElement") -> "RingElement":
        self._check(other)
        f = self.field
        x1, y1, x2, y2 = self.x, self.y, other.x, other.y
        if f.is_rational:
            return RingElement(f, x1 * x2, 0)
        if f.half_basis:
            # w^2 = w + (d - 1)/4
            c = y1 * y2
            return RingElement(
                f, x1 * x2 + c * (f.d - 1) // 4, x1 * y2 + x2 * y1 + c
            )
        return RingElement(f, x1 * x2 + f.d * y1 * y2, x1 * y2 + x2 * y1)

    def __pow__(self, n: int) -> "RingElement":
        if n < 0:
            raise ValueError("negative powers are not ring elements in general")
        r, b = None, self  # r is None for the empty product, never multiplied
        while n:
            if n & 1:
                r = b if r is None else r * b
            b = b * b if n > 1 else b  # no square past the top bit
            n >>= 1
        return self.field.one if r is None else r

    def conj(self) -> "RingElement":
        f = self.field
        if f.half_basis:
            # conj(w) = 1 - w
            return RingElement(f, self.x + self.y, -self.y)
        return RingElement(f, self.x, -self.y)

    def norm(self) -> int:
        f = self.field
        x, y = self.x, self.y
        if f.is_rational:
            return x
        if f.half_basis:
            return x * x + x * y + y * y * (1 - f.d) // 4
        return x * x - f.d * y * y

    def trace(self) -> int:
        f = self.field
        if f.is_rational:
            return self.x
        if f.half_basis:
            return 2 * self.x + self.y
        return 2 * self.x

    def is_zero(self) -> bool:
        return self.x == 0 and self.y == 0

    def is_unit(self) -> bool:
        return abs(self.norm()) == 1

    def minimal_poly(self) -> tuple[int, ...]:
        """Coefficients (c0, c1, ...) of the minimal polynomial over Q, monic."""
        if self.y == 0:
            return (-self.x, 1)
        return (self.norm(), -self.trace(), 1)

    def mul_omega(self) -> "RingElement":
        f = self.field
        if f.is_rational:
            return self
        if f.half_basis:
            return RingElement(f, self.y * (f.d - 1) // 4, self.x + self.y)
        return RingElement(f, f.d * self.y, self.x)

    def __str__(self) -> str:
        f = self.field
        if self.y == 0:
            return str(self.x)
        w = f.omega_label
        if self.x == 0:
            head = ""
        else:
            head = str(self.x)
        if self.y == 1:
            tail = w
        elif self.y == -1:
            tail = f"-{w}"
        else:
            tail = f"{self.y}*{w}"
        if head and self.y > 0:
            return f"{head}+{tail}"
        return f"{head}{tail}"


def divides(b: RingElement, a: RingElement) -> bool:
    """True iff a/b lies in Z_K.  Rejects b = 0."""
    return exact_div(a, b) is not None


def exact_div(a: RingElement, b: RingElement) -> RingElement | None:
    """a/b if it lies in Z_K, else None."""
    if b.is_zero():
        raise ZeroElementError("division by zero element")
    a._check(b)
    if a.field.is_rational:
        if a.x % b.x:
            return None
        return RingElement(a.field, a.x // b.x, 0)
    nb = b.norm()
    t = a * b.conj()
    if t.x % nb or t.y % nb:
        return None
    return RingElement(a.field, t.x // nb, t.y // nb)


@lru_cache(maxsize=None)
def roots_of_unity(field: FieldSpec) -> tuple[RingElement, ...]:
    """All roots of unity of Z_K (finite part of the unit group)."""
    one = field.one
    if field.d == -1:
        i = field.omega
        return (one, i, -one, -i)
    if field.d == -3:
        w = field.omega  # a primitive sixth root of unity
        u = one
        out = []
        for _ in range(6):
            out.append(u)
            u = u * w
        return tuple(out)
    return (one, -one)


@lru_cache(maxsize=None)
def fundamental_unit(field: FieldSpec) -> RingElement:
    """Smallest unit > 1 under the embedding sending sqrt(d) to its positive root.

    Expands the continued fraction of w = (P + sqrt(d))/Q, with
    (P, Q) = (1, 2) or (0, 1), keeping the convergents p/q.  After the step
    that gives p/q, N(p - q*w) = +-Q'/Q for the next Q'.  The first time Q'
    comes back to Q, p - q*w = +-1/eps, so its conjugate, which is positive,
    is eps (Cohen, GTM 138, section 5.7).
    """
    if not field.is_real:
        raise ImaginaryFieldError("fundamental units exist only for real fields")
    d, r = field.d, isqrt(field.d)
    P, Q = (1, 2) if field.half_basis else (0, 1)
    q0 = Q
    p_prev, p, q_prev, q = 0, 1, 1, 0
    while True:
        a = (P + r) // Q
        p_prev, p = p, a * p + p_prev
        q_prev, q = q, a * q + q_prev
        P = a * Q - P
        Q = (d - P * P) // Q
        if Q == q0:
            return field.element(p, -q).conj()


def _unit_inverse(u: RingElement) -> RingElement:
    n = u.norm()
    if abs(n) != 1:
        raise ZeroElementError("not a unit")
    c = u.conj()
    return c if n == 1 else -c


def _qsign(a: int, b: int, d: int) -> int:
    """Sign of a + b*sqrt(d), exactly (d > 0 non-square)."""
    if a >= 0 and b >= 0:
        return 0 if a == 0 and b == 0 else 1
    if a <= 0 and b <= 0:
        return -1
    lhs, rhs = a * a, b * b * d
    if a > 0:  # b < 0: positive iff a^2 > b^2 d
        return 1 if lhs > rhs else -1
    return -1 if lhs > rhs else 1


def _sigma_sign(e: RingElement) -> int:
    """Sign of the positive embedding of e (real fields)."""
    f = e.field
    if f.half_basis:
        return _qsign(2 * e.x + e.y, e.y, f.d)
    return _qsign(e.x, e.y, f.d)


def _sigma_sq_cmp(e: RingElement, m: int) -> int:
    """Compare sigma(e)^2 with the integer m, exactly."""
    sq = e * e
    f = e.field
    if f.half_basis:
        return _qsign(2 * sq.x + sq.y - 2 * m, sq.y, f.d)
    return _qsign(sq.x - m, sq.y, f.d)


def canonical_associate(e: RingElement) -> RingElement:
    """Deterministic representative of the associate class of e (e != 0)."""
    if e.is_zero():
        raise ZeroElementError("zero has no associate class")
    f = e.field
    if f.is_rational:
        return f.element(abs(e.x))
    if f.is_imaginary:
        orbit = [e * u for u in roots_of_unity(f)]
        return min(orbit, key=lambda t: (t.x <= 0, t.y < 0, t.x, t.y))
    # real: positive embedding, then reduce into the band [sqrt|N|, eps*sqrt|N|)
    if _sigma_sign(e) < 0:
        e = -e
    nabs = abs(e.norm())
    eps = fundamental_unit(f)
    eps_inv = _unit_inverse(eps)
    while _sigma_sq_cmp(e, nabs) < 0:
        e = e * eps
    while _sigma_sq_cmp(e * eps_inv, nabs) >= 0:
        e = e * eps_inv
    return e


def is_associated(e1: RingElement, e2: RingElement) -> bool:
    return canonical_associate(e1) == canonical_associate(e2)
