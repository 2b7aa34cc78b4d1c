"""Independent brute-force oracles used across the test suite.

Everything here deliberately avoids the library's own algorithms: Pell
solutions come from a direct y-scan, irreducibility from a divisor-class
scan, ideal enumeration from a raw HNF triple scan, class groups from
counting f^(p^k) = 1 over every reduced form, atom factorizations
from a scan of every sub-product in order, Davenport constants
from a subset-sum search over tuples, primes from trial division,
factorizations and primality from sympy, and so on.
"""

from __future__ import annotations

from itertools import product
from math import isqrt, sqrt

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


def all_atoms_per_ideal(field: FieldSpec, kappa: int) -> list[int]:
    """Sorted norms of the all-atoms set by the per-ideal rule: the atom
    finder runs on every ideal of norm <= kappa, with no signature memo,
    and keeps the ideal iff its whole box is its own first atom."""
    from atomzeta.atoms import _atom_finder
    from atomzeta.ideals import enumerate_ideals_factored

    atoms_of = _atom_finder(field, kappa)
    return sorted(
        norm
        for norm, fac in enumerate_ideals_factored(field, kappa)
        if next(atoms_of(fac), (0,))[0] == norm
    )
