import random

import pytest

from atomzeta.classgroup import _split_upto
from atomzeta.errors import DomainError, ZeroElementError
from atomzeta.ideals import (
    FactoredIdeal,
    Ideal,
    _primes_above,
    enumerate_ideals_factored,
    factor_ideal,
    ideal_from_elements,
    ideal_mul,
    kronecker_symbol,
    primes_above,
    principal_ideal,
    splitting_type,
    sqrt_mod_prime,
    unit_ideal,
)
from atomzeta.ring import fundamental_unit, make_field, rational_field, roots_of_unity
from atomzeta.sieve import primes_upto
from oracles import divisor_ideals, hnf_triples_brute, prime_hnfs_brute

F1 = make_field(-1)
F5 = make_field(-5)


def test_principal_ideal_examples():
    assert principal_ideal(F5.element(6)).norm == 36
    i = principal_ideal(F1.element(1, 1))
    assert (i.a, i.b, i.c) == (2, 1, 1) and i.norm == 2
    assert principal_ideal(F1.one) == unit_ideal(F1)
    with pytest.raises(ZeroElementError):
        principal_ideal(F1.zero)


def test_principal_ideal_closed_form_matches_generic_hnf():
    # (e) = (c) <A, B + w> against the HNF of e and e*w in Q and 16
    # quadratic fields: both integral bases, real and imaginary, x = 0,
    # y = 0, units, a shared factor c > 1, negative coordinates and
    # coordinates near 10^12
    rng = random.Random(12)
    ds = (-1, -2, -3, -5, -7, -14, -23, -221, -3299, 2, 3, 5, 10, 13, 79, 631)
    big = 10**12
    for f in [rational_field()] + [make_field(d) for d in ds]:
        ys = (0,) if f.is_rational else (0, 1, -1, 6, -big)
        sample = [f.element(x, y) for x in (0, 1, -1, 12, big - 1) for y in ys if x or y]
        if f.is_real:
            u = fundamental_unit(f)
            sample += [u, -u, u * u]
        elif f.is_imaginary:
            sample += list(roots_of_unity(f))
        for scale in (20, big):
            for _ in range(100):
                c = rng.choice((1, 1, 2, 6, 35))
                x = c * rng.randint(-scale, scale)
                y = 0 if f.is_rational else c * rng.randint(-scale, scale)
                if x or y:
                    sample.append(f.element(x, y))
        for e in sample:
            assert principal_ideal(e) == ideal_from_elements(f, [e]), (f.label(), e)
            if e.is_unit():
                assert principal_ideal(e) == unit_ideal(f), (f.label(), e)
        with pytest.raises(ZeroElementError):
            principal_ideal(f.zero)


def test_ideal_norm_by_residue_count():
    # N(I) = |Z_K / I|: the box {x + y*w : 0 <= x < a, 0 <= y < c} is a
    # transversal, checked by pairwise incongruence
    for ideal in (Ideal(F5, 2, 1, 1), Ideal(F1, 5, 2, 1), principal_ideal(F5.element(1, 1))):
        reps = [
            F5.element(x, y) if ideal.field is F5 else F1.element(x, y)
            for x in range(ideal.a)
            for y in range(ideal.c)
        ]
        for i, r1 in enumerate(reps):
            for r2 in reps[i + 1 :]:
                assert not ideal.contains(r1 - r2)
        assert len(reps) == ideal.norm
    assert unit_ideal(F1).norm == 1
    # over Q every ideal is (m, 0, 1): Z/mZ has the m residues 0, ..., m - 1
    q = rational_field()
    six = principal_ideal(q.element(-6))
    assert (six.a, six.b, six.c) == (6, 0, 1) and six.norm == 6 and str(six) == "(6)"
    reps = [q.element(x) for x in range(6)]
    assert not any(six.contains(r1 - r2) for r1 in reps for r2 in reps if r1 != r2)
    assert six.contains(q.element(-12)) and not six.contains(q.element(9))


def test_principal_norm_of_rational_integer():
    # N(mZ_K) = m^2 for quadratic fields
    for f in (F1, F5, make_field(2), make_field(13)):
        for m in (7, 12, 500):
            assert principal_ideal(f.element(m)).norm == m * m


def test_ideal_mul_examples():
    p2 = Ideal(F5, 2, 1, 1)
    assert ideal_mul(p2, p2) == principal_ideal(F5.element(2))
    i = principal_ideal(F5.element(1, 1))
    assert ideal_mul(i, unit_ideal(F5)) == i


def test_ideal_norm_multiplicative_random():
    rng = random.Random(23)
    for f in (F1, F5, make_field(2)):
        for _ in range(100):
            e1 = f.element(rng.randint(-20, 20), rng.randint(-20, 20))
            e2 = f.element(rng.randint(-20, 20), rng.randint(-20, 20))
            if e1.is_zero() or e2.is_zero():
                continue
            i1, i2 = principal_ideal(e1), principal_ideal(e2)
            assert ideal_mul(i1, i2).norm == i1.norm * i2.norm
            assert ideal_mul(i1, i2) == principal_ideal(e1 * e2)


def test_splitting_examples():
    assert splitting_type(2, F5) == "ramified"
    assert splitting_type(3, F5) == "split"
    assert splitting_type(11, F5) == "inert"
    with pytest.raises(DomainError):
        splitting_type(6, F5)


def test_splitting_classical_mod4_rule():
    for p in primes_upto(10**4):
        if p == 2:
            continue
        expected = "split" if p % 4 == 1 else "inert"
        assert splitting_type(p, F1) == expected


def test_primes_above_examples():
    above5 = primes_above(5, F1)
    assert [(p.ideal.a, p.ideal.b, p.ideal.c) for p in above5] == [(5, 2, 1), (5, 3, 1)]
    assert all(p.norm == 5 for p in above5)
    above3 = primes_above(3, F1)
    assert len(above3) == 1 and above3[0].norm == 9
    above2 = primes_above(2, F5)
    assert len(above2) == 1 and above2[0].kind == "ramified"
    assert (above2[0].ideal.a, above2[0].ideal.b, above2[0].ideal.c) == (2, 1, 1)


def test_primes_above_multiply_to_p():
    for f in (F1, F5, make_field(2), make_field(13), make_field(-3)):
        for p in (2, 3, 5, 7, 11, 13):
            acc = unit_ideal(f)
            for prime in primes_above(p, f):
                e = 2 if prime.kind == "ramified" else 1
                for _ in range(e):
                    acc = ideal_mul(acc, prime.ideal)
            assert acc == principal_ideal(f.element(p))


ORACLE_FIELDS = [make_field(d) for d in (-1, -3, -5, -14, -23, 2, 3, 5, 10, 13)] + [
    rational_field()
]


def test_primes_above_matches_brute_oracle():
    for f in ORACLE_FIELDS:
        for p in primes_upto(2999):
            got = _primes_above(p, f)
            assert [prime.ideal for prime in got] == prime_hnfs_brute(f, p), (f.label(), p)
            assert [(prime.p, prime.ideal.b) for prime in got] == sorted(
                (prime.p, prime.ideal.b) for prime in got
            )
            assert all(prime.norm == prime.ideal.norm for prime in got), (f.label(), p)
    # p = 2 in both integral bases: w = sqrt(d) (2 ramifies) and
    # w = (1 + sqrt(d))/2 (2 splits for d = 1 mod 8, is inert for d = 5 mod 8)
    above2 = {d: [(pr.kind, pr.ideal.b, pr.ideal.c) for pr in _primes_above(2, make_field(d))]
              for d in (-1, -14, 3, -23, -3, 5)}
    assert above2 == {
        -1: [("ramified", 1, 1)], -14: [("ramified", 0, 1)], 3: [("ramified", 1, 1)],
        -23: [("split", 0, 1), ("split", 1, 1)],
        -3: [("inert", 0, 2)], 5: [("inert", 0, 2)],
    }


def test_split_upto_matches_per_prime_splitting():
    # the residue table mod |D| against primes_above p by p, cut to norm
    # <= kappa (an inert p with p^2 > kappa leaves nothing), at kappa on both sides of |D| (the table is kept only when
    # |D| < kappa) and at kappa = 23^2, an inert p^2 read off the table for
    # d = -3 and 5.  For d = 5 (mod 8), 2 is inert and, when |D| is odd,
    # shares residue 2 with the odd primes p = 2 (mod |D|).  With no class
    # group the table answers split residues too, in every field
    fields = [make_field(d) for d in (-3, 5, -11, 13, -1, -5, -14, -23, -221, 2, 10, 79, 631,
                                      999999937, -999999937)] + [rational_field()]
    for f in fields:
        m = abs(f.disc)
        kappas = {k for k in (m - 1, m, m + 1, 3 * m + 7, 529, 10**4) if 1 <= k <= 10**5}
        above = {p: primes_above(p, f) for p in primes_upto(max(kappas))}
        for kappa in sorted(kappas):
            want = [[prime for prime in above[p] if prime.norm <= kappa] for p in primes_upto(kappa)]
            for classes in (False, True):
                stream = _split_upto(f, kappa, classes)
                got = [built or _primes_above(p, f) for p, _, _, _, built in stream]
                assert got == [primes for primes in want if primes], (f.label(), kappa, classes)


def test_prime_hnf_oracle_matches_maximal_hnfs():
    # the scan oracle against the raw HNF triple scan: the prime ideals
    # above p are the HNFs of norm p or p^2 that no other proper HNF of
    # smaller norm contains (nonzero primes are maximal); over Q both are (p)
    for f in ORACLE_FIELDS[:-1]:
        triples = hnf_triples_brute(f, 121)
        for p in primes_upto(11):
            near = [i for i in triples if i.norm in (p, p * p)]
            maximal = [
                i for i in near
                if not any(j.norm < i.norm and all(map(j.contains, i.generators()))
                           for j in triples if j.norm > 1)
            ]
            assert sorted(maximal, key=lambda i: i.b) == prime_hnfs_brute(f, p), (f.label(), p)


def test_factor_ideal_examples(monkeypatch):
    factored = factor_ideal(principal_ideal(F5.element(6)))
    assert sorted(p.norm for p, e in factored.factors for _ in range(e)) == [2, 2, 3, 3]
    assert factored.unfactor() == principal_ideal(F5.element(6))
    inert = primes_above(11, F5)[0].ideal
    ff = factor_ideal(inert)
    assert len(ff.factors) == 1 and ff.factors[0][1] == 1
    assert factor_ideal(unit_ideal(F5)).factors == ()
    # a lone prime to the first power unfactors to its own HNF, with no
    # multiplication: ideal_pow(P, 1) is P
    from atomzeta import ideals

    calls = []
    mul = ideals.ideal_mul
    monkeypatch.setattr(ideals, "ideal_mul", lambda *pair: calls.append(pair) or mul(*pair))
    for f in (F5, make_field(10), rational_field()):
        for p in (2, 3, 5, 7, 11):
            for prime in primes_above(p, f):
                assert FactoredIdeal(f, ((prime, 1),)).unfactor() == prime.ideal, (f, prime)
    assert calls == []


def test_factor_ideal_round_trip_random():
    rng = random.Random(29)
    for f in (F1, F5, make_field(2)):
        for _ in range(50):
            e = f.element(rng.randint(-30, 30), rng.randint(-30, 30))
            if e.is_zero():
                continue
            i = principal_ideal(e)
            assert factor_ideal(i).unfactor() == i
    # every ideal of small norm, non-principal ones included: by unique
    # factorization the round trip checks the factorization read off the HNF
    for d in (-1, -3, -5, -14, -23, -105, 2, 3, 5, 10, 13, None):
        f = rational_field() if d is None else make_field(d)
        for i in hnf_triples_brute(f, 200):
            assert factor_ideal(i).unfactor() == i, (d, i)


def test_divisor_ideals_counts():
    factored = factor_ideal(principal_ideal(F5.element(6)))
    divisors = list(divisor_ideals(factored))
    assert len(divisors) == 12  # exponent box 3*2*2
    assert len(set(divisors)) == 12
    assert len(list(divisor_ideals(factor_ideal(unit_ideal(F5))))) == 1
    inert = primes_above(11, F5)[0].ideal
    assert len(list(divisor_ideals(factor_ideal(inert)))) == 2


def test_enumerate_ideals_examples():
    pairs = enumerate_ideals_factored(F1, 5)
    assert sorted(n for n, _ in pairs) == [1, 2, 4, 5, 5]
    assert enumerate_ideals_factored(F1, 1) == [(1, ())]


def test_enumerate_ideals_matches_brute_hnf_scan():
    for f in (F1, F5, make_field(2), rational_field()):
        for kappa in (50, 200):
            pairs = enumerate_ideals_factored(f, kappa)
            brute = hnf_triples_brute(f, kappa)
            ideals = [FactoredIdeal(f, fac).unfactor() for _, fac in pairs]
            assert [i.norm for i in ideals] == [n for n, _ in pairs]
            assert sorted(n for n, _ in pairs) == [i.norm for i in brute]
            assert set(ideals) == set(brute)


def test_enumerate_ideals_rational():
    q = rational_field()
    pairs = enumerate_ideals_factored(q, 6)
    assert sorted(n for n, _ in pairs) == [1, 2, 3, 4, 5, 6]
    assert {FactoredIdeal(q, fac).unfactor() for _, fac in pairs} == set(
        hnf_triples_brute(q, 6)
    )


def test_kronecker_symbol_basics():
    assert kronecker_symbol(-20, 2) == 0
    assert kronecker_symbol(-20, 3) == 1
    assert kronecker_symbol(-20, 11) == -1
    assert kronecker_symbol(17, 2) == 1
    assert kronecker_symbol(5, 2) == -1


def _check_sqrt_mod_prime(n, p):
    # Euler's criterion decides squares independently of the root search
    r = sqrt_mod_prime(n, p)
    if n % p == 0 or pow(n, (p - 1) // 2, p) == 1:
        assert r is not None and r * r % p == n % p, (n, p, r)
    else:
        assert r is None, (n, p, r)


def test_sqrt_mod_prime_every_residue_below_600():
    for p in primes_upto(600)[1:]:
        for n in range(-1, p + 1):
            _check_sqrt_mod_prime(n, p)


def test_sqrt_mod_prime_high_two_adic_valuation():
    # p - 1 = 2^8, 2^16 and 7 * 2^20: Tonelli-Shanks runs its longest loops
    rng = random.Random(17)
    for p in (257, 65537, 7340033):
        for n in [2, 3, p - 1, p - 2] + [rng.randrange(p) for _ in range(300)]:
            _check_sqrt_mod_prime(n, p)
