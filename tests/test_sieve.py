import random

import pytest

from atomzeta.atoms import is_atom
from atomzeta.errors import DomainError
from atomzeta.ideals import primes_above
from atomzeta.ring import make_field, rational_field
from atomzeta.sieve import ISPRIME_LIMIT, factorint, isprime, primes_upto
from oracles import primes_trial, sympy_factorint, sympy_isprime

# strong pseudoprimes to the first k prime bases (psi_1 .. psi_12), where
# a test with one base too few goes wrong, and Carmichael numbers
PSEUDOPRIMES = (
    2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383,
    341550071728321, 3825123056546413051, 318665857834031151167461,
    561, 41041,
)
# a Mersenne prime, a balanced semiprime and a prime square near 10^18
HARD = (2**61 - 1, (10**9 + 7) * (10**9 + 9), 999999937**2)


def test_primes_upto_matches_trial_division():
    expected = primes_trial(10**4)
    for n in range(-2, 10**4 + 1):
        assert primes_upto(n) == [p for p in expected if p <= n], n


def test_prime_count_to_1e7():
    assert len(primes_upto(10**7)) == 664579


def test_isprime_matches_sympy_below_1e5():
    for n in range(-3, 10**5):
        assert isprime(n) == sympy_isprime(n), n


def test_factorint_matches_sympy_below_1e5():
    for n in range(1, 10**5):
        got = factorint(n)
        assert got == sympy_factorint(n) and list(got) == sorted(got), n


def test_factorint_matches_sympy_random_below_1e18():
    rng = random.Random(20170101)
    for _ in range(500):
        n = rng.randrange(1, 10**18)
        got = factorint(n)
        assert got == sympy_factorint(n) and list(got) == sorted(got), n


@pytest.mark.parametrize("n", PSEUDOPRIMES + HARD)
def test_pseudoprimes_and_hard_cases_match_sympy(n):
    assert isprime(n) == sympy_isprime(n)
    assert factorint(n) == sympy_factorint(n)


def test_factorint_rejects_non_positive():
    for n in (0, -6):
        with pytest.raises(DomainError):
            factorint(n)


def test_beyond_exact_primality_range_raises():
    from sympy import nextprime, prevprime

    below, above = prevprime(ISPRIME_LIMIT), nextprime(ISPRIME_LIMIT)
    assert isprime(below) and not isprime(2 * above)  # proved either way
    for n in (ISPRIME_LIMIT, above):
        with pytest.raises(DomainError):
            isprime(n)
    with pytest.raises(DomainError):
        factorint(3 * above)
    with pytest.raises(DomainError):
        primes_above(above, make_field(-5))
    # an element of prime norm at or above the limit; a probable-prime
    # test would call it an atom
    with pytest.raises(DomainError):
        is_atom(rational_field().element(above))
    x = 2 * 10**12
    y = next(y for y in range(1, 10**4) if sympy_isprime(x * x + y * y))
    assert x * x + y * y > ISPRIME_LIMIT
    with pytest.raises(DomainError):
        is_atom(make_field(-1).element(x, y))
