"""Exact prime arithmetic: the sieve, primality and factoring.

Nothing here guesses.  `isprime` is a strong Miller-Rabin test to the
first k prime bases, with k chosen so that the test is a proof for the
n at hand, and it refuses an n it cannot prove (ISPRIME_LIMIT);
`factorint` splits composites with Pollard-Brent rho from fixed seeds, so
its output is deterministic.
"""

from __future__ import annotations

from collections import Counter
from itertools import compress, count
from math import gcd, isqrt

from atomzeta.errors import DomainError

# (psi_k, k): psi_k is the least strong pseudoprime to all of the first k
# prime bases, so for n < psi_k those k bases decide primality exactly
# (Pomerance, Selfridge & Wagstaff 1980; Jaeschke 1993; Jiang & Deng 2014;
# Sorenson & Webster 2017).  psi_8 = psi_7 and psi_10 = psi_11 = psi_9, so
# no n needs 8, 10 or 11 bases.
_PSI = (
    (2047, 1),
    (1373653, 2),
    (25326001, 3),
    (3215031751, 4),
    (2152302898747, 5),
    (3474749660383, 6),
    (341550071728321, 7),
    (3825123056546413051, 9),
    (318665857834031151167461, 12),
    (3317044064679887385961981, 13),
)
ISPRIME_LIMIT = _PSI[-1][0]
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_SMALL_PRIMES = _MR_BASES + (43, 47, 53, 59, 61, 67, 71, 73, 79, 83, 89, 97)
# an n > 1 with no prime factor <= 97 is prime when it is below 101^2
_TRIAL_BOUND = 101 * 101


def primes_upto(n: int) -> list[int]:
    """All primes <= n, ascending (Eratosthenes over the odd numbers)."""
    if n < 2:
        return []
    size = (n + 1) // 2  # mask[k] stands for 2k + 1
    mask = bytearray([1]) * size
    mask[0] = 0
    for k in range(1, (isqrt(n) + 1) // 2):
        if mask[k]:
            p = 2 * k + 1
            start = p * p // 2
            mask[start::p] = bytes((size - 1 - start) // p + 1)
    return [2, *compress(range(1, n + 1, 2), mask)]


def isprime(n: int) -> bool:
    """True iff n is prime.  DomainError when n >= ISPRIME_LIMIT has no
    prime factor <= 97, where no test here is a proof."""
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    return _rough_isprime(n)


def _rough_isprime(n: int) -> bool:
    """isprime for an n > 1 with no prime factor <= 97."""
    if n < _TRIAL_BOUND:
        return True
    if n >= ISPRIME_LIMIT:
        raise DomainError(f"{n} is beyond the exact primality range (< {ISPRIME_LIMIT})")
    k = next(k for psi, k in _PSI if n < psi)
    s = ((n - 1) & (1 - n)).bit_length() - 1
    d = (n - 1) >> s
    for a in _MR_BASES[:k]:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def factorint(n: int) -> dict[int, int]:
    """{p: e} with n = prod p**e, primes ascending, for n >= 1."""
    if n < 1:
        raise DomainError(f"cannot factor {n}: n must be >= 1")
    out: dict[int, int] = {}
    for p in _SMALL_PRIMES:
        if p * p > n:
            break
        if n % p == 0:
            e = 1
            n //= p
            while n % p == 0:
                n //= p
                e += 1
            out[p] = e
    if n > 1:
        out.update(sorted(Counter(_prime_factors(n)).items()))
    return out


def _prime_factors(n: int) -> list[int]:
    """Prime factors, with multiplicity, of an n > 1 that has no prime
    factor <= 97."""
    if _rough_isprime(n):
        return [n]
    d = _brent_factor(n)
    return _prime_factors(d) + _prime_factors(n // d)


def _brent_factor(n: int) -> int:
    """A proper factor of the odd composite n (Pollard-Brent rho; the
    seed is fixed and c runs 1, 2, ... until a split is found)."""
    batch = 128
    for c in count(1):
        y, r, q, g = 2, 1, 1, 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(batch, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = gcd(q, n)
                k += batch
            r *= 2
        if g == n:  # the batch overshot: replay it one step at a time
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = gcd(abs(x - ys), n)
        if g != n:
            return g
