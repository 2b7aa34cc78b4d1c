"""Irreducibility, atom factorizations and atom enumeration.

The key reduction: a nonzero non-unit e factors as e = x*y with both
factors non-units iff the principal ideal (e) splits as a product of two
proper principal ideals, i.e. iff some proper nonempty sub-multiset of
the prime-ideal factorization of (e) has principal product.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from atomzeta.errors import InternalInvariantError, UnitElementError, ZeroElementError
from atomzeta.ideals import FactoredIdeal, Ideal, _factor_rational, factor_ideal, principal_ideal
from atomzeta.ring import (
    FieldSpec,
    RingElement,
    canonical_associate,
    exact_div,
)
from atomzeta.sieve import factorint, isprime
from atomzeta.classgroup import class_group, is_principal


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
    # (e) is principal, so it holds an atom; if it is one, it holds no other
    return next(_box_atoms(e.field, fac, n))[0] == n


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
    The atoms of a sub-box are the atoms of the whole box that fit in it,
    so one walk lists every candidate, each as its exponent vector over
    the primes of (e): in that order, each atom is taken as often as it
    fits in what remains.
    """
    if e.is_zero():
        raise ZeroElementError("zero has no atom factorization")
    if e.is_unit():
        raise UnitElementError("unit has no atom factorization")
    fac = factor_ideal(principal_ideal(e)).factors
    found = []  # (size, exponent vector, norm) of every atom of the box
    for norm, frames, i, k in _atom_walk(*_classed(e.field, fac), abs(e.norm())):
        vec = [0] * len(fac)
        for h, kh, _, _, _ in frames:
            vec[h] = kh
        vec[i] = k
        found.append((sum(vec), vec, norm))
    remaining = [top for _, top in fac]
    taken = []
    for _, vec, norm in sorted(found):
        times = min(remaining[h] // k for h, k in enumerate(vec) if k)
        if not times:
            continue
        for h, k in enumerate(vec):
            remaining[h] -= times * k
        gen = _atom_generator(tuple((fac[h][0], k) for h, k in enumerate(vec) if k))
        taken.append((norm, gen.x, gen.y, gen, times))
    if any(remaining):
        raise InternalInvariantError("no principal sub-product found")
    taken.sort()  # by (|N|, x, y): distinct atoms never tie there
    factors = tuple((gen, times) for _, _, _, gen, times in taken)
    product = e.field.one
    for atom, k in factors:
        product = product * atom**k
    unit = exact_div(e, product)
    if unit is None or not unit.is_unit():
        raise InternalInvariantError("leftover after atom extraction is not a unit")
    return AtomFactorization(unit, factors)


# bounded like is_principal's cache; atoms repeat across the elements
# factored, and each PrimeIdeal carries its interned field, so the parts
# alone name the atom
@lru_cache(maxsize=2**16)
def _atom_generator(parts) -> RingElement:
    """The canonical generator of the atom with parts ((PrimeIdeal, k), ...)."""
    ok, gen = is_principal(FactoredIdeal(parts[0][0].field, parts).unfactor())
    if not ok:
        raise InternalInvariantError("atom sub-product has no generator")
    return canonical_associate(gen)


def _classed(field: FieldSpec, fac):
    """(group, primes) for _atom_walk over the box fac = ((PrimeIdeal, e),
    ...): each prime as (norm, class, e), a split prime next to its
    conjugate taking the inverse class.  A non-principal prime has degree
    1, so fac in order of p gives the walk its non-principal primes in norm
    order, as factor_ideal and _factor_rational give them."""
    group = class_group(field)
    primes, g, last = [], None, 0
    for prime, top in fac:
        g = group.neg(g) if prime.p == last else group.prime_vector(prime)
        last = prime.p
        primes.append((prime.norm, g, top))
    return group, primes


def _box_atoms(field: FieldSpec, fac, cap: int):
    """(norm, parts) for every atom of norm <= cap that divides the box
    fac = ((PrimeIdeal, e), ...), once each and in no set order; parts =
    ((PrimeIdeal, k), ...) lists its primes in the order of fac, read off
    the frames the walk yields."""
    for norm, frames, i, e in _atom_walk(*_classed(field, fac), cap):
        parts = ()
        for h, k, _, _, _ in frames:
            parts += ((fac[h][0], k),)
        yield norm, parts + ((fac[i][0], e),)


def _atom_walk(group, primes, cap: int):
    """(norm, frames, i, e) for every atom of norm <= cap over primes =
    ((norm, class, top), ...), at most top copies of each, once each and in
    no set order.  A principal prime is an atom on its own, yielded with no
    frames as it is read; the others must come in norm order, else
    InternalInvariantError.  The atom is e copies of the i-th prime times
    the box of the frames: the walk's live stack, one frame (h, k, norm,
    state, j) per distinct prime h < i of that box, with its k copies, the
    norm and state of the box up to it, and its place j in the walk.  Read
    the frames before taking the next atom.

    An atom is a sub-box whose prime classes sum to 0 in Cl(K) while no
    proper nonempty sub-box does, so removing one copy of its last prime
    leaves a zero-sum-free box: one with no principal nonempty sub-box.
    The walk goes depth first, one copy at a time, through the
    zero-sum-free boxes only, and keeps one frame per distinct prime of
    the box it stands on: at most D(G) - 1 of them.  It adds the next
    prime to that box; when no prime fits, it pops the last frame and
    tries one more copy of its prime, then the prime after it.  A node's
    state is the sum t and the subsum set S of its sequence of prime
    classes, a zero-sum-free sequence over Cl(K) (Geroldinger &
    Halter-Koch, Non-Unique Factorizations, ch. 5): states do not depend
    on the primes, and a walk meets few of them.  One more copy of a prime
    of class g gives an atom if t + g = 0, a box with a principal proper
    sub-box (pruned with every higher exponent) if -g is another c in S,
    and otherwise the zero-sum-free box in state (t + g, S | (S + g) |
    {g}).  If t + g = 0, no other c in S has c + g = 0, for then the
    sub-box that c leaves out would be principal.  States are interned as
    ints from 1, the empty box being 1, each keyed by t's class id and a
    bit mask of S over walk-local class ids (t lies in S, so t + g is read
    off S + g), and each has a row of steps indexed by prime class id: -1
    (pruned), 0 (atom) or the next state, filled when a node first takes
    it.  The table lives for one walk, and a walk with no non-principal
    prime builds none.  The primes are in norm order, so the walk can stop
    at the first norm too large.
    """
    ids: dict[tuple[int, ...], int] = {}  # class -> id, prime classes first
    at, norms, cids, tops = [], [], [], []  # the non-principal primes
    for i, (q, g, top) in enumerate(primes):
        if not any(g):
            if q <= cap:
                yield q, (), i, 1
        elif norms and q < norms[-1]:
            raise InternalInvariantError("non-principal primes out of norm order")
        else:
            at.append(i)
            norms.append(q)
            cids.append(ids.setdefault(g, len(ids)))
            tops.append(top)
    if not norms:
        return
    add, neg = group.add, group.neg
    width = len(ids)  # one step per prime class in each row
    classes = list(ids)  # id -> class, growing as subsums meet new classes

    def class_id(v: tuple[int, ...]) -> int:
        i = ids.get(v)
        if i is None:
            i = ids[v] = len(classes)
            classes.append(v)
        return i

    minus = [class_id(neg(g)) for g in classes[:width]]
    keys = [None, (-1, 0)]  # state -> (id of t, mask of S); the empty box has no t
    rows = [None, [None] * width]  # state -> steps by class id
    state_of = {keys[1]: 1}

    def step(state: int, c: int) -> int:
        t, sums = keys[state]
        if sums >> minus[c] & 1:
            return 0 if minus[c] == t else -1
        g = classes[c]
        new, rest, t2 = sums | 1 << c, sums, c
        while rest:  # S + g, one set bit of S at a time; t + g is among them
            low = rest & -rest
            b = low.bit_length() - 1
            k = class_id(add(classes[b], g))
            if b == t:
                t2 = k
            new |= 1 << k
            rest ^= low
        key = (t2, new)
        nxt = state_of.get(key)
        if nxt is None:
            nxt = state_of[key] = len(keys)
            keys.append(key)
            rows.append([None] * width)
        return nxt

    norms.append(cap + 1)  # no box takes this sentinel, so the scan ends
    # the box stood on: its norm, state, row, and the next prime to add; a
    # box whose last prime cannot be taken once more has no larger box that
    # fits, so it gets no frame
    stack = []  # frames (i, e, norm, state, j), one per distinct prime
    norm, state, row, j = 1, 1, rows[1], 0
    while True:
        while (n2 := norm * (q := norms[j])) <= cap:
            c = cids[j]
            nxt = row[c]
            if nxt is None:
                nxt = row[c] = step(state, c)
            if nxt > 0:
                if n2 * q <= cap:
                    stack.append((at[j], 1, n2, nxt, j))
                    norm, state, row = n2, nxt, rows[nxt]
            elif nxt == 0:
                yield n2, stack, at[j], 1
            j += 1
        if not stack:
            return
        _, e, n2, st, j = stack.pop()
        q = norms[j]
        n2 *= q
        if e < tops[j] and n2 <= cap:
            c = cids[j]
            nxt = rows[st][c]
            if nxt is None:
                nxt = rows[st][c] = step(st, c)
            if nxt == 0:
                yield n2, stack, at[j], e + 1
            elif nxt > 0 and n2 * q <= cap:
                stack.append((at[j], e + 1, n2, nxt, j))
                norm, state, row = n2, nxt, rows[nxt]
                j += 1
                continue
        _, _, norm, state, _ = stack[-1] if stack else (0, 0, 1, 1, 0)
        row = rows[state]
        j += 1


def atom_ideals_dividing(m: int, field: FieldSpec, norm_cap: int | None = None) -> list[Ideal]:
    """Principal divisor ideals of (m) whose generators are atoms."""
    if m < 1:
        raise ZeroElementError("m must be a positive integer")
    fac = _factor_rational(field, factorint(m))
    cap = m * m if norm_cap is None else norm_cap
    out = [FactoredIdeal(field, parts).unfactor() for _, parts in _box_atoms(field, fac, cap)]
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
