"""Independent brute-force oracles used across the test suite.

Everything here deliberately avoids the library's own algorithms: Pell
solutions come from a direct y-scan or from the continued fraction of
sqrt(d) and an mpmath cube root, irreducibility from a divisor-class
scan, ideal enumeration from a raw HNF triple scan, prime ideals from a
scan of every b mod p, class groups from counting f^(p^k) = 1 over every
reduced form, atom factorizations from a scan of every sub-product in
order, atom sets from a level-by-level sub-box search, the walk's step
table from the walk that recomputes every node's subsum set, the classes
read off the residue table from splitting and reducing every prime, Davenport
constants from a subset-sum search over tuples, the Euler sum and the row
sums from term-by-term mpmath loops, primes from trial division,
factorizations and primality from sympy, and so on.
"""

from __future__ import annotations

from itertools import product
from math import isqrt, sqrt

import mpmath

from atomzeta.ring import (
    FieldSpec,
    RingElement,
    canonical_associate,
    divides,
    exact_div,
    fundamental_unit,
)


def primes_trial(n: int) -> list[int]:
    """Primes <= n by trial division (independent of the sieve)."""
    return [m for m in range(2, n + 1) if all(m % q for q in range(2, isqrt(m) + 1))]


def sympy_factorint(n: int) -> dict[int, int]:
    """sympy's factorization, which the package used before its own."""
    from sympy import factorint

    return factorint(n)


def sympy_isprime(n: int) -> bool:
    """sympy's primality test, which the package used before its own."""
    from sympy import isprime

    return isprime(n)


def pell_brute(field: FieldSpec) -> RingElement:
    """Minimal unit > 1 by scanning y = 1, 2, ... (independent of the CF)."""
    d = field.d
    y = 1
    while True:
        if field.half_basis:
            # (2x + y)^2 - d y^2 = +-4; try the smaller t first
            for s in (-4, 4):
                t2 = d * y * y + s
                if t2 > 0:
                    t = isqrt(t2)
                    if t * t == t2 and (t - y) % 2 == 0:
                        return field.element((t - y) // 2, y)
        else:
            for s in (-1, 1):
                t2 = d * y * y + s
                if t2 > 0:
                    t = isqrt(t2)
                    if t * t == t2:
                        return field.element(t, y)
        y += 1


def fundamental_unit_pell(field: FieldSpec) -> RingElement:
    """Fundamental unit from the least solution of x^2 - d y^2 = +-1 (the
    continued fraction of sqrt(d)), then, when w = (1 + sqrt(d))/2, an exact
    cube root of it in Z_K if one exists (the unit index is 1 or 3)."""
    d = field.d
    a0 = isqrt(d)
    m, q, a = 0, 1, a0
    p_prev, x0 = 1, a0
    q_prev, y0 = 0, 1
    while x0 * x0 - d * y0 * y0 not in (1, -1):
        m = a * q - m
        q = (d - m * m) // q
        a = (a0 + m) // q
        p_prev, x0 = x0, a * x0 + p_prev
        q_prev, y0 = y0, a * y0 + q_prev
    if not field.half_basis:
        return field.element(x0, y0)
    eta = field.element(x0 - y0, 2 * y0)  # x0 + y0*sqrt(d) in w-coordinates
    with mpmath.workprec(max(x0.bit_length(), 64) + 96):
        rd = mpmath.sqrt(d)
        r = mpmath.cbrt(x0 + y0 * rd)
        for sgn in (1, -1):  # N(eps) = +1 or -1
            xc = int(mpmath.nint(r + sgn / r))
            yc = int(mpmath.nint((r - sgn / r) / rd))
            if yc > 0 and xc * xc - d * yc * yc == 4 * sgn and (xc - yc) % 2 == 0:
                eps = field.element((xc - yc) // 2, yc)
                if eps**3 == eta:
                    return eps
    return eta


def associate_class_reps(field: FieldSpec, max_abs_norm: int) -> list[RingElement]:
    """Canonical representatives of every associate class with
    2 <= |N| <= max_abs_norm."""
    reps = set()
    if field.is_imaginary:
        dd = abs(field.d)
        if field.half_basis:
            ymax = isqrt(4 * max_abs_norm // dd)
            xmax = isqrt(max_abs_norm) + ymax
        else:
            ymax = isqrt(max_abs_norm // dd)
            xmax = isqrt(max_abs_norm)
        for x in range(-xmax, xmax + 1):
            for y in range(-ymax, ymax + 1):
                e = field.element(x, y)
                if 2 <= abs(e.norm()) <= max_abs_norm:
                    reps.add(canonical_associate(e))
    else:
        d = field.d
        eps = fundamental_unit(field)
        if field.half_basis:
            sig = eps.x + eps.y * (1 + sqrt(d)) / 2
        else:
            sig = eps.x + eps.y * sqrt(d)
        ybound = int((1 + sig) * sqrt(max_abs_norm) / sqrt(d)) + 2
        for y in range(ybound + 1):
            for nabs in range(2, max_abs_norm + 1):
                for n in (nabs, -nabs):
                    if field.half_basis:
                        t2 = 4 * n + d * y * y
                        if t2 < 0:
                            continue
                        t = isqrt(t2)
                        if t * t != t2:
                            continue
                        for ts in {t, -t}:
                            if (ts - y) % 2 == 0:
                                reps.add(
                                    canonical_associate(
                                        field.element((ts - y) // 2, y)
                                    )
                                )
                    else:
                        t2 = n + d * y * y
                        if t2 < 0:
                            continue
                        t = isqrt(t2)
                        if t * t != t2:
                            continue
                        for ts in {t, -t}:
                            reps.add(canonical_associate(field.element(ts, y)))
    return sorted(reps, key=lambda e: (abs(e.norm()), e.x, e.y))


def reps_by_norm(field: FieldSpec, max_abs_norm: int) -> dict[int, list[RingElement]]:
    table: dict[int, list[RingElement]] = {}
    for e in associate_class_reps(field, max_abs_norm):
        table.setdefault(abs(e.norm()), []).append(e)
    return table


def is_atom_brute(e: RingElement, table: dict[int, list[RingElement]]) -> bool:
    """Irreducibility by scanning all divisor classes of proper norm."""
    n = abs(e.norm())
    if n < 2:
        return False
    for t in range(2, n // 2 + 1):
        if n % t:
            continue
        for x in table.get(t, ()):
            if divides(x, e):
                return False
    return True


def atoms_dividing_brute(
    m: int, field: FieldSpec, table: dict[int, list[RingElement]]
) -> list[RingElement]:
    """Atom classes dividing m by exhaustive class scan (norms divide m^2)."""
    target = field.element(m)
    out = []
    for nrm, reps in table.items():
        if (m * m) % nrm:
            continue
        for x in reps:
            if divides(x, target) and is_atom_brute(x, table):
                out.append(x)
    return sorted(out, key=lambda e: (abs(e.norm()), e.x, e.y))


def hnf_triples_brute(field: FieldSpec, kappa: int):
    """All valid HNF triples with norm <= kappa by raw box scan, sorted by
    (norm, a, b); over Q the ideals are m*Z."""
    from atomzeta.ideals import Ideal

    if field.is_rational:
        return [Ideal(field, m, 0, 1) for m in range(1, kappa + 1)]
    out = []
    for c in range(1, kappa + 1):
        for a in range(c, kappa // c + 1, c):
            for b in range(0, a, c):
                ideal = Ideal(field, a, b, c)
                g1, g2 = ideal.generators()
                if ideal.contains(g1.mul_omega()) and ideal.contains(g2.mul_omega()):
                    out.append(ideal)
    return sorted(out, key=lambda i: i.sort_key())


def prime_hnfs_brute(field: FieldSpec, p: int):
    """The prime ideals above the prime p as HNFs, in order of b, by raw
    scan.  A prime above p has norm p or p^2.  Each <p, b + w>, b < p,
    closed under w has norm p and so is prime; an <p^2, b + w> is not,
    since Z_K/I is cyclic of order p^2; and (p) = <p, p*w>, of norm p^2,
    is prime iff no ideal of norm p contains it, that is iff there is
    none.  Over Q, the one prime is (p)."""
    from atomzeta.ideals import Ideal

    if field.is_rational:
        return [Ideal(field, p, 0, 1)]
    ww = field.omega * field.omega
    # w*(b + w) = ww.x + (b + ww.y)*w lies in pZ + (b + w)Z iff
    # ww.x - (b + ww.y)*b = 0 mod p; p*w always does
    bs = [b for b in range(p) if (ww.x - (b + ww.y) * b) % p == 0]
    return [Ideal(field, p, b, 1) for b in bs] or [Ideal(field, p, 0, p)]


def reduced_forms_brute(disc: int):
    """Reduced forms by scanning the (a, b, c) box directly."""
    from atomzeta.classgroup import QuadForm

    out = []
    amax = isqrt(abs(disc) // 3)
    for a in range(1, amax + 1):
        for b in range(-a, a + 1):
            num = b * b - disc
            if num % (4 * a):
                continue
            c = num // (4 * a)
            f = QuadForm(a, b, c)
            if f.is_reduced():
                out.append(f)
    return out


def reduced_forms(disc: int):
    """All reduced forms of a negative discriminant, sorted: a loop over b
    and then over every a <= sqrt((b^2 - D)/4), O(|D|) steps."""
    from atomzeta.classgroup import QuadForm
    from atomzeta.errors import DomainError

    if disc >= 0 or disc % 4 not in (0, 1):
        raise DomainError("need a negative discriminant = 0, 1 (mod 4)")
    out = []
    for b in range(abs(disc) % 2, isqrt(abs(disc) // 3) + 1, 2):
        m4 = b * b - disc
        if m4 % 4:
            continue
        m = m4 // 4
        a = max(b, 1)
        while a * a <= m:
            if m % a == 0:
                c = m // a
                out.append(QuadForm(a, b, c))
                if 0 < b < a < c:
                    out.append(QuadForm(a, -b, c))
            a += 1
    return sorted(out, key=lambda f: (f.a, f.b, f.c))


def form_pow(f, n: int):
    """f^n by square-and-multiply over compose."""
    from atomzeta.classgroup import compose, principal_form, reduce_form

    r = reduce_form(principal_form(f.disc))
    b = reduce_form(f)
    while n:
        if n & 1:
            r = compose(r, b)
        b = compose(b, b)
        n >>= 1
    return r


def class_invariants_by_counting(disc: int) -> tuple[int, ...]:
    """Invariant factors m1 | ... | mr of the form class group, from element
    counts in each p-primary part over every reduced form:
    log_p #{f : f^(p^k) = id} = sum_i min(lambda_i, k)."""
    from atomzeta.classgroup import principal_form, reduce_form

    forms = reduced_forms(disc)
    h = len(forms)
    ident = reduce_form(principal_form(disc))
    partitions: dict[int, list[int]] = {}
    for p in (q for q in primes_trial(h) if h % q == 0):
        prev_log = 0
        ms = []
        k = 1
        while True:
            cnt = sum(1 for f in forms if form_pow(f, p**k) == ident)
            log = 0
            c = cnt
            while c > 1:
                c //= p
                log += 1
            mk = log - prev_log
            if mk == 0:
                break
            ms.append(mk)
            prev_log = log
            k += 1
        # ms[k-1] = #{i : lambda_i >= k}; transpose into the partition
        partitions[p] = [sum(1 for mk in ms if mk >= i + 1) for i in range(ms[0])]
    rank = max((len(lam) for lam in partitions.values()), default=0)
    factors_desc = []
    for j in range(rank):
        m = 1
        for p, lam in partitions.items():
            if j < len(lam):
                m *= p ** lam[j]
        factors_desc.append(m)
    return tuple(reversed(factors_desc))


def davenport_brute(invariants: tuple[int, ...]) -> int:
    """Davenport constant of Z/m1 x ... x Z/mr: 1 + the longest zero-sum-free
    sequence, by search over subset-sum sets memoised on the frozenset.

    A longest extension of a zero-sum-free sequence with subset sums S has at
    most n - 1 - |S| more terms (each term strictly enlarges S, which avoids
    0), so a branch that reaches that bound ends the scan of its siblings.
    """
    elems = list(product(*(range(m) for m in invariants)))
    index = {g: i for i, g in enumerate(elems)}
    n = len(elems)
    plus = [
        [index[tuple((x + y) % m for x, y, m in zip(g, h, invariants))] for h in elems]
        for g in elems
    ]
    neg = [index[tuple(-x % m for x, m in zip(g, invariants))] for g in elems]
    memo: dict[frozenset, int] = {}

    def longest(sums: frozenset) -> int:
        if sums in memo:
            return memo[sums]
        bound = n - 1 - len(sums)
        best = 0
        for g in range(1, n):  # index 0 is the identity
            if neg[g] in sums:  # g would close a zero sum
                continue
            grown = sums.union([g], [plus[g][s] for s in sums])
            best = max(best, 1 + longest(grown))
            if best == bound:
                break
        memo[sums] = best
        return best

    return 1 + longest(frozenset())


def divisor_ideals(factored):
    """All divisors of a FactoredIdeal, lexicographic in the exponent box."""
    from atomzeta.ideals import ideal_mul, unit_ideal

    primes = [prime for prime, _ in factored.factors]
    exps = [e for _, e in factored.factors]

    def rec(i, acc):
        if i == len(primes):
            yield acc
            return
        cur = acc
        for k in range(exps[i] + 1):
            yield from rec(i + 1, cur)
            if k < exps[i]:
                cur = ideal_mul(cur, primes[i].ideal)

    yield from rec(0, unit_ideal(factored.field))


def factor_scan(e: RingElement):
    """The atom factorization that factor_into_atoms must choose, by its
    rule: repeatedly take the first principal sub-product of the remaining
    prime ideals in order of (size, exponent vector), every sub-product
    multiplied out and tested with is_principal."""
    from atomzeta.atoms import AtomFactorization
    from atomzeta.classgroup import is_principal
    from atomzeta.ideals import factor_ideal, ideal_mul, ideal_pow, principal_ideal, unit_ideal

    remaining = [list(pair) for pair in factor_ideal(principal_ideal(e)).factors]
    atoms = []
    while any(v for _, v in remaining):
        boxes = sorted(
            (k for k in product(*(range(v + 1) for _, v in remaining)) if any(k)),
            key=lambda k: (sum(k), k),
        )
        for k in boxes:
            ideal = unit_ideal(e.field)
            for (prime, _), kk in zip(remaining, k):
                ideal = ideal_mul(ideal, ideal_pow(prime.ideal, kk))
            ok, gen = is_principal(ideal)
            if ok:
                break
        else:
            raise AssertionError("no principal sub-product")
        atoms.append(canonical_associate(gen))
        for pair, kk in zip(remaining, k):
            pair[1] -= kk
    prod = e.field.one
    for a in atoms:
        prod = prod * a
    grouped = {}
    for a in atoms:
        grouped[a] = grouped.get(a, 0) + 1
    ordered = sorted(grouped.items(), key=lambda t: (abs(t[0].norm()), t[0].x, t[0].y))
    return AtomFactorization(exact_div(e, prod), tuple(ordered))


def principal_by_unit_band(ideal, cap: int = 10**5):
    """(True, generator) or (False, None) for an ideal of a quadratic field,
    by a scan of the fundamental-unit band, independent of the class group
    and of the rho-walk.

    The candidates are the solutions of (2x + y)^2 - d y^2 = +-4N
    (x^2 - d y^2 = +-N when w = sqrt(d)) with 0 <= y <= bound, signs of x
    handled per y.  In a real field any generator has an associate in the
    band [sqrt(N), eps*sqrt(N)) of the positive embedding (after a sign
    flip); there |sigma| < eps*sqrt(N) and |sigma-bar| <= sqrt(N), hence
    |y|*sqrt(d) <= (1 + eps)*sqrt(N).  As |N(eps)| = 1, eps < Tr(eps) + 1,
    so y^2 <= (Tr(eps) + 2)^2 * N / d.  In an imaginary field the units are
    finite, the norm is +N and the band is the whole ellipse -d y^2 <= 4N
    (<= N when w = sqrt(d)).  For small eps and N only: a bound past cap
    raises ValueError."""
    field = ideal.field
    n, d = ideal.norm, field.d
    scale = 4 if field.half_basis else 1
    if field.is_real:
        bound, targets = isqrt((fundamental_unit(field).trace() + 2) ** 2 * n // d), (n, -n)
    else:
        bound, targets = isqrt(scale * n // -d), (n,)
    if bound > cap:
        raise ValueError(f"unit-band scan of {ideal} needs y <= {bound}, past {cap}")
    for y in range(bound + 1):
        for target in targets:
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
                    return True, e
    return False, None


def _finder_class_arith(field: FieldSpec):
    """(classes, mul, principal) for the classes of one field's sub-boxes,
    independent of the library's walk.  Imaginary fields and Q use vectors
    in Cl(K) (class_group), read off each prime's (p, b): products add them
    and the principal class is 0; a split prime's conjugate, next to it in
    a factorization, gets the negated vector.  Real fields use HNFs,
    ideal_mul and the unit-band scan, which shares no code with the cycle
    class group."""
    from atomzeta.classgroup import class_group
    from atomzeta.ideals import ideal_mul

    if field.is_real:
        return (
            (lambda primes: [prime.ideal for prime in primes]),
            ideal_mul,
            lambda ideal: principal_by_unit_band(ideal)[0],
        )
    group = class_group(field)
    vector, neg = group.prime_vector, group.neg

    def classes(primes):
        out, last = [], 0
        for prime in primes:
            out.append(neg(out[-1]) if prime.p == last else vector(prime))
            last = prime.p
        return out

    return classes, group.add, lambda c: not any(c)


def _atom_finder(field: FieldSpec, cap: int):
    """atoms(fac) yields the atoms dividing the ideal with prime factorization
    fac = ((PrimeIdeal, e), ...) whose ideals have norm <= cap, as
    (norm, parts) in order of (size, exponent vector): parts is
    ((PrimeIdeal, k), ...) with every k >= 1.

    Sub-boxes grow level by level, one prime at a time, each at or after
    the index it last grew at, so each is made once.  A sub-box is
    principal iff the product of its prime classes is trivial.  An atom is
    a principal sub-box with no principal proper sub-box; those are
    smaller, so they are found first, and a sub-box holding one is neither
    tested nor grown.
    """
    from operator import le

    classes_of, mul, principal = _finder_class_arith(field)

    def atoms(fac):
        pool = [(prime, e, q) for prime, e in fac if (q := prime.norm) <= cap]
        if not pool:
            return
        n = len(pool)
        classes = classes_of([prime for prime, _, _ in pool])
        found = []
        # (exponents, norm, class of the parent box, index grown); each level
        # in increasing exponent order
        level = [
            ((0,) * i + (1,) + (0,) * (n - 1 - i), pool[i][2], None, i)
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
                    yield norm, tuple((pool[j][0], kj) for j, kj in enumerate(k) if kj)
                    continue
                for j in reversed(range(i, n)):
                    _, e, q = pool[j]
                    if k[j] < e and norm * q <= cap:
                        grown.append((k[:j] + (k[j] + 1,) + k[j + 1:], norm * q, c, j))
            level = grown

    return atoms


def atom_walk_direct(field: FieldSpec, fac, cap: int):
    """(norm, parts) for every atom of norm <= cap dividing the box fac =
    ((PrimeIdeal, e), ...), as `atoms._box_atoms` yields them, by the walk
    with no step table: every node keeps its class t and the frozenset S of
    its sub-box classes and recomputes S | (S + g) | {g} for each child.
    A principal prime is an atom on its own; one more copy of class g is an
    atom if t + g = 0 and is pruned if -g is another class in S."""
    from operator import itemgetter

    from atomzeta.classgroup import class_group

    by_norm = [(q, prime, top) for prime, top in fac if (q := prime.norm) <= cap]
    by_norm.sort(key=itemgetter(0))
    group = class_group(field)
    add, neg = group.add, group.neg
    walk, g, last = [], None, 0
    for q, prime, top in by_norm:
        g = neg(g) if prime.p == last else group.prime_vector(prime)
        last = prime.p
        if any(g):
            walk.append((prime, q, top, g, neg(g)))
        else:
            yield q, ((prime, 1),)
    # (next index into walk, norm, parts, class, sub-box classes)
    stack = [(0, 1, (), None, frozenset())]
    while stack:
        i, norm, parts, t, sums = stack.pop()
        for j in range(i, len(walk)):
            prime, q, top, g, minus_g = walk[j]
            n2, e = norm * q, 1
            if n2 > cap:
                break
            s, sub = t, sums
            while n2 <= cap and e <= top:
                box = parts + ((prime, e),)
                if minus_g in sub:
                    if minus_g == s:
                        yield n2, box
                    break
                s = g if s is None else add(s, g)
                sub = sub.union([add(c, g) for c in sub], (g,))
                stack.append((j + 1, n2, box, s, sub))
                n2 *= q
                e += 1


def split_per_prime(field: FieldSpec, kappa: int, group):
    """(p, f, k, g, above) for each prime p <= kappa, skipping an inert p
    with p^2 > kappa, as classgroup._split_upto gives them: the per-prime
    pass its residue table replaced, which splits every p with
    _primes_above and reduces the form of its first prime for g in group
    (None with no group)."""
    from atomzeta.ideals import _primes_above
    from atomzeta.sieve import primes_upto

    for p in primes_upto(kappa):
        above = _primes_above(p, field)
        g = None if group is None else group.prime_vector(above[0])
        if above[0].f == 1 or p * p <= kappa:
            yield p, above[0].f, len(above), g, above


def all_atoms_per_ideal(field: FieldSpec, kappa: int) -> list[int]:
    """Sorted norms of the all-atoms set by the per-ideal rule: the atom
    finder runs on every ideal of norm <= kappa and keeps the ideal iff its
    whole box is its own first atom (the whole box is the largest, so it
    comes first only if it is the only atom)."""
    from atomzeta.ideals import enumerate_ideals_factored

    atoms_of = _atom_finder(field, kappa)
    return sorted(
        norm
        for norm, fac in enumerate_ideals_factored(field, kappa)
        if next(atoms_of(fac), (0,))[0] == norm
    )


def atom_ideals_dividing_finder(field: FieldSpec, members, kappa: int):
    """The atom ideals of norm <= kappa dividing some m in members, sorted
    by (norm, a, b), from the finder over the prime factorization of each
    (m)."""
    from atomzeta.ideals import FactoredIdeal, factor_ideal, principal_ideal

    atoms_of = _atom_finder(field, kappa)
    out = set()
    for m in members:
        if m >= 2:
            fac = factor_ideal(principal_ideal(field.element(m))).factors
            out.update(FactoredIdeal(field, parts).unfactor() for _, parts in atoms_of(fac))
    return sorted(out, key=lambda i: i.sort_key())


def euler_primes_sum_loop(x: int, prec_bits: int = 100):
    """Sum of 1/p over the primes p <= x by the sequential mpmath loop,
    rounding after every term (independent of the fixed-point sum; the
    primes come from the sieve, which has its own oracles)."""
    from atomzeta.sieve import primes_upto

    with mpmath.workprec(max(prec_bits, 80)):
        total = mpmath.mpf(0)
        one = mpmath.mpf(1)
        for p in primes_upto(x):
            total += one / p
        return total


def norm_sum_loop(norms, s, prec_bits: int = 100, term=None):
    """Sum of n^-s over norms by the mpf loop `series._norm_sum` ran before
    its integer terms: equal norms grouped, increasing norm, each term times
    its count, accumulated in mpmath at prec_bits.  A term is
    mpf(n) ** -s, or term(n, s, prec) if given (`rounded_power`, say)."""
    from collections import Counter

    prec = max(prec_bits, 80)
    with mpmath.workprec(prec):
        if s == 0:
            return mpmath.mpf(len(norms))
        sexp = mpmath.mpf(s.numerator) / s.denominator
        total = mpmath.mpf(0)
        for n, k in sorted(Counter(norms).items()):
            total += k * (mpmath.mpf(n) ** (-sexp) if term is None else term(n, s, prec))
        return total


def rounded_power(n: int, s, prec: int):
    """n^-s correctly rounded to prec bits: mpmath at 4 * prec, rounded once
    to prec, and n = 2^e with b | e*a the exact dyadic 2^(-e*a/b).  mpmath's
    own mpf(n) ** -s is not correctly rounded: it raises n to -s rounded."""
    e = n.bit_length() - 1
    if n == 1 << e and e * s.numerator % s.denominator == 0:
        return mpmath.ldexp(1, -e * s.numerator // s.denominator)
    with mpmath.workprec(4 * prec):
        wide = mpmath.mpf(n) ** (-mpmath.mpf(s.numerator) / s.denominator)
    with mpmath.workprec(prec):
        return +wide
