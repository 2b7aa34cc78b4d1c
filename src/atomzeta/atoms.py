"""Irreducibility, atom factorizations and atom enumeration.

The key reduction: a nonzero non-unit e factors as e = x*y with both
factors non-units iff the principal ideal (e) splits as a product of two
proper principal ideals, i.e. iff some proper nonempty sub-multiset of
the prime-ideal factorization of (e) has principal product.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import le

from atomzeta.errors import (
    InternalInvariantError,
    UnitElementError,
    ZeroElementError,
)
from atomzeta.ideals import (
    FactoredIdeal,
    Ideal,
    _factor_rational,
    factor_ideal,
    ideal_mul,
    principal_ideal,
)
from atomzeta.ring import (
    FieldSpec,
    RingElement,
    canonical_associate,
    exact_div,
)
from atomzeta.sieve import factorint, isprime
from atomzeta.classgroup import class_group, is_principal, is_principal_class


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
    # the whole box is the largest, so it comes first only if it is the only atom
    return next(_atom_finder(e.field, n)(fac))[0] == n


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

    Repeatedly extracts a generator of the least principal sub-product of
    the remaining prime-ideal multiset by (size, exponent vector); it has
    no principal proper sub-product, which makes the generator an atom.
    """
    if e.is_zero():
        raise ZeroElementError("zero has no atom factorization")
    if e.is_unit():
        raise UnitElementError("units have no atom factorization")
    field = e.field
    atoms_of = _atom_finder(field, abs(e.norm()))
    remaining = factor_ideal(principal_ideal(e)).factors
    atoms: list[RingElement] = []
    while remaining:
        _, parts, c = next(atoms_of(remaining), (None, None, None))
        if parts is None:
            raise InternalInvariantError("no principal sub-product found")
        box = c if field.is_real else FactoredIdeal(field, parts).unfactor()
        ok, gen = is_principal(box)
        if not ok:
            raise InternalInvariantError("atom sub-product has no generator")
        atoms.append(canonical_associate(gen))
        taken = dict(parts)
        remaining = [(p, v - taken.get(p, 0)) for p, v in remaining if v > taken.get(p, 0)]
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


def _class_arith(field: FieldSpec):
    """(classes, mul, principal) for the classes of one field's sub-boxes.
    Imaginary fields and Q use vectors in Cl(K) (class_group): products add
    them and the principal class is 0; a split prime's conjugate, next to it
    in a factorization, gets the negated vector.  Real fields use HNFs,
    ideal_mul and the principality test."""
    if field.is_real:
        return (lambda primes: [prime.ideal for prime in primes]), ideal_mul, is_principal_class
    group = class_group(field)

    def classes(primes):
        out = []
        for k, prime in enumerate(primes):
            if k and primes[k - 1].p == prime.p:  # two primes above p: p splits
                out.append(group.neg(out[-1]))
            else:
                out.append(group.vector(prime.ideal))
        return out

    return classes, group.add, lambda c: not any(c)


def _atom_finder(field: FieldSpec, cap: int):
    """atoms(fac) yields the atoms dividing the ideal with prime factorization
    fac = ((PrimeIdeal, e), ...) whose ideals have norm <= cap, as
    (norm, parts, c) in order of (size, exponent vector): parts is
    ((PrimeIdeal, k), ...) with every k >= 1, and c is the sub-box's class,
    its HNF for real fields (a zero vector otherwise).

    Sub-boxes grow one prime at a time, each at or after the index it last
    grew at, so each is made once.  A sub-box is principal iff the product
    of its prime classes is trivial.  An atom is a principal sub-box with no
    principal proper sub-box; those are smaller, so they are found first,
    and a sub-box holding one is neither tested nor grown.  Proper sub-boxes
    have smaller norm, so the cap never hides one.
    """
    classes_of, mul, principal = _class_arith(field)

    def atoms(fac):
        pool = [(prime, e) for prime, e in fac if prime.norm <= cap]
        n = len(pool)
        classes = classes_of([prime for prime, _ in pool])
        found = []
        # (exponents, norm, class of the parent box, index grown); each level
        # in increasing exponent order
        level = [
            ((0,) * i + (1,) + (0,) * (n - 1 - i), pool[i][0].norm, None, i)
            for i in reversed(range(n))
        ]
        while level:
            grown = []
            for k, norm, c, i in level:
                if found and any(all(map(le, a, k)) for a in found):
                    continue
                c = classes[i] if c is None else mul(c, classes[i])
                if principal(c):
                    found.append(k)
                    yield norm, tuple((pool[j][0], kj) for j, kj in enumerate(k) if kj), c
                    continue
                for j in reversed(range(i, n)):
                    prime, e = pool[j]
                    if k[j] < e and norm * prime.norm <= cap:
                        grown.append(
                            (k[:j] + (k[j] + 1,) + k[j + 1:], norm * prime.norm, c, j)
                        )
            level = grown

    return atoms


def atom_ideals_dividing(m: int, field: FieldSpec, norm_cap: int | None = None) -> list[Ideal]:
    """Principal divisor ideals of (m) whose generators are atoms."""
    if m < 1:
        raise ZeroElementError("m must be a positive integer")
    atoms_of = _atom_finder(field, m * m if norm_cap is None else norm_cap)
    fac = _factor_rational(field, factorint(m))
    out = [FactoredIdeal(field, parts).unfactor() for _, parts, _ in atoms_of(fac)]
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
