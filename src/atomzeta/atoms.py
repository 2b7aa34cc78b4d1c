"""Irreducibility, atom factorizations and atom enumeration.

The key reduction: a nonzero non-unit e factors as e = x*y with both
factors non-units iff the principal ideal (e) splits as a product of two
proper principal ideals, i.e. iff some proper nonempty sub-multiset of
the prime-ideal factorization of (e) has principal product.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import product
from operator import le

from sympy import factorint, isprime

from atomzeta.errors import (
    InternalInvariantError,
    UnitElementError,
    ZeroElementError,
)
from atomzeta.ideals import (
    Ideal,
    _primes_above,
    factor_ideal,
    ideal_mul,
    ideal_pow,
    principal_ideal,
    unit_ideal,
)
from atomzeta.ring import (
    FieldSpec,
    RingElement,
    canonical_associate,
    exact_div,
)
from atomzeta.classgroup import (
    compose,
    ideal_class_form,
    is_principal,
    is_principal_class,
    principal_form,
    reduce_form,
)


def _sub_boxes(exps: tuple[int, ...]):
    """All nonzero exponent vectors k with 0 <= k_i <= e_i."""
    for k in product(*(range(e + 1) for e in exps)):
        if any(k):
            yield k


def _box_ideal(field: FieldSpec, parts) -> Ideal:
    """HNF of prod P^k over parts ((PrimeIdeal, k), ...); a prime ideal
    and (p) = <p, p*w> itself need no multiplication."""
    parts = [(prime, k) for prime, k in parts if k]
    (prime, k), *rest = parts
    if not rest and k == 1:
        return prime.ideal
    if (not rest and k == 2 and prime.kind == "ramified") or (
        len(rest) == 1 and rest[0][0].p == prime.p and k == rest[0][1] == 1
    ):
        return Ideal(field, prime.p, 0, prime.p)
    out = unit_ideal(field)
    for prime, k in parts:
        out = ideal_mul(out, ideal_pow(prime.ideal, k))
    return out


def is_atom(e: RingElement) -> bool:
    """True iff e is irreducible in Z_K."""
    if e.is_zero():
        raise ZeroElementError("zero is not an atom candidate")
    if e.is_unit():
        return False
    n = abs(e.norm())
    if isprime(n):
        return True  # single prime ideal, no proper sub-multiset
    fac = factor_ideal(principal_ideal(e)).factors
    return any(norm == n for norm, _ in _atom_finder(e.field, n)(fac))


@dataclass(frozen=True)
class AtomFactorization:
    """unit * prod(atom_i ^ e_i), atoms canonical and pairwise non-associated."""

    unit: RingElement
    factors: tuple[tuple[RingElement, int], ...]

    def value(self) -> RingElement:
        out = self.unit
        for atom, e in self.factors:
            out = out * atom**e
        return out

    def __str__(self) -> str:
        parts = [f"({a})^{e}" if e > 1 else f"({a})" for a, e in self.factors]
        return f"{self.unit} * " + " * ".join(parts) if parts else str(self.unit)


def factor_into_atoms(e: RingElement) -> AtomFactorization:
    """One valid atom factorization of e (non-uniqueness expected).

    Repeatedly extracts a generator of a minimal nonempty principal
    sub-product of the remaining prime-ideal multiset; minimality makes
    each extracted generator an atom.
    """
    if e.is_zero():
        raise ZeroElementError("zero has no atom factorization")
    if e.is_unit():
        raise UnitElementError("units have no atom factorization")
    factored = factor_ideal(principal_ideal(e))
    remaining = [list(pair) for pair in [(p, v) for p, v in factored.factors]]
    atoms: list[RingElement] = []
    while any(v for _, v in remaining):
        exps = tuple(v for _, v in remaining)
        boxes = sorted(_sub_boxes(exps), key=lambda k: (sum(k), k))
        extracted = None
        for k in boxes:
            parts = [(prime, kk) for (prime, _), kk in zip(remaining, k)]
            ok, gen = is_principal(_box_ideal(e.field, parts))
            if ok:
                extracted = (k, gen)
                break
        if extracted is None:
            raise InternalInvariantError("no principal sub-product found")
        k, gen = extracted
        atoms.append(canonical_associate(gen))
        for pair, kk in zip(remaining, k):
            pair[1] -= kk
    prod_elem = e.field.one
    for a in atoms:
        prod_elem = prod_elem * a
    unit = exact_div(e, prod_elem)
    if unit is None or not unit.is_unit():
        raise InternalInvariantError("leftover after atom extraction is not a unit")
    grouped: dict[RingElement, int] = {}
    for a in atoms:
        grouped[a] = grouped.get(a, 0) + 1
    ordered = sorted(grouped.items(), key=lambda t: (abs(t[0].norm()), t[0].x, t[0].y))
    return AtomFactorization(unit, tuple(ordered))


def _factor_rational(field: FieldSpec, factors: dict[int, int]) -> list:
    """Prime factorization ((PrimeIdeal, e), ...) of (m), m = prod p^e given
    as {p: e} with every p certified prime, read off the splitting types:
    P^e P'^e for a split p, P^e for an inert p and P^2e for a ramified p."""
    return [
        (prime, 2 * e if prime.kind == "ramified" else e)
        for p, e in sorted(factors.items())
        for prime in _primes_above(p, field)
    ]


def _atom_finder(field: FieldSpec, cap: int):
    """atoms(fac) -> [(norm, parts)]: the atoms dividing the ideal with
    prime factorization fac = ((PrimeIdeal, e), ...) whose ideals have norm
    <= cap, by increasing norm; parts is ((PrimeIdeal, k), ...), all k >= 1.

    A sub-box is principal iff the product of its prime classes is trivial:
    composed reduced forms for imaginary fields (products memoised for the
    finder's lifetime, at most h^2 of them), the HNF principality test for
    real fields and Q (always true there).  An atom is a principal sub-box
    with no principal proper sub-box; those have smaller norm, so the cap
    never hides one.
    """
    if field.is_imaginary:
        one = reduce_form(principal_form(field.disc))
        cls, principal = ideal_class_form, one.__eq__
        mul = lru_cache(maxsize=None)(compose)  # pairs of reduced forms
    else:
        one, mul, principal = unit_ideal(field), ideal_mul, is_principal_class

        def cls(ideal):
            return ideal

    def atoms(fac) -> list:
        pool = [(prime, e) for prime, e in fac if prime.norm <= cap]
        boxes = [((), 1, one)]  # (exponents, norm, class); the empty box first
        for prime, e in pool:
            n, pc = prime.norm, cls(prime.ideal)
            grown = []
            for k, norm, c in boxes:
                for j in range(e + 1):
                    grown.append((k + (j,), norm, c))
                    norm *= n
                    if j == e or norm > cap:
                        break
                    c = mul(c, pc)
            boxes = grown
        # a principal proper sub-box holds an atom of smaller norm, which
        # this increasing-norm scan has already found
        found = []
        for norm, k in sorted((norm, k) for k, norm, c in boxes[1:] if principal(c)):
            if not any(all(map(le, k2, k)) for _, k2 in found):
                found.append((norm, k))
        return [
            (norm, tuple((pool[i][0], j) for i, j in enumerate(k) if j))
            for norm, k in found
        ]

    return atoms


def atom_ideals_dividing(m: int, field: FieldSpec, norm_cap: int | None = None) -> list[Ideal]:
    """Principal divisor ideals of (m) whose generators are atoms."""
    if m < 1:
        raise ZeroElementError("m must be a positive integer")
    atoms_of = _atom_finder(field, m * m if norm_cap is None else norm_cap)
    fac = _factor_rational(field, factorint(m))
    out = [_box_ideal(field, parts) for _, parts in atoms_of(fac)]
    return sorted(out, key=lambda i: i.sort_key())


def atoms_dividing(m: int, field: FieldSpec) -> list[RingElement]:
    """All associate classes (canonical representatives) of atoms dividing m."""
    ideals = atom_ideals_dividing(m, field)
    gens = []
    for ideal in ideals:
        ok, g = is_principal(ideal)
        if not ok or g is None:
            raise InternalInvariantError("atom ideal lost its generator")
        gens.append(canonical_associate(g))
    return sorted(set(gens), key=lambda a: (abs(a.norm()), a.x, a.y))


def verify_norm_identity(m: int, factorization: AtomFactorization) -> bool:
    """Check m^n = prod N(a_i Z_K)^(e_i) exactly in integers."""
    if m < 1:
        raise ZeroElementError("m must be a positive integer")
    field = factorization.unit.field
    rhs = 1
    for atom, e in factorization.factors:
        rhs *= principal_ideal(atom).norm ** e
    return m**field.degree == rhs
