"""Restricted zeta partial sums, atom censuses and the asymptotic report.

Each term n^-s of a partial sum is rounded to a configurable mantissa
precision (>= 80 bits): computed exactly in integers and correctly rounded
for s = a/b with b <= 3 and small |a| (the paper's s = 1/2 among them),
taken from mpmath's power otherwise.  The terms, those of equal norm
grouped, are accumulated with mpmath at that precision in increasing-norm
order, so results are reproducible bit-for-bit.  The Euler sum of 1/p is
exact in fixed point and rounded once.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from math import e as _E, isqrt, log
from operator import itemgetter
from typing import TYPE_CHECKING

from atomzeta.atoms import _atom_walk, _box_atoms
from atomzeta.classgroup import _split_upto, class_group, class_group_structure, davenport_constant
from atomzeta.errors import CapExceededError, DomainError
from atomzeta.ideals import FactoredIdeal, Ideal, _factor_rational, _primes_above
from atomzeta.ring import FieldSpec
from atomzeta.sieve import SIEVE_LIMIT, factorint, primes_upto

if TYPE_CHECKING:
    import mpmath

DEFAULT_PREC_BITS = 100
MIN_PREC_BITS = 80  # the library clamps below this; the CLI refuses
INCREMENT_FLOOR = 0.05  # heuristic threshold for the divergence flag


# ---------------------------------------------------------------------------
# set specifications


@dataclass(frozen=True)
class XSetSpec:
    """A set of positive integers, enumerable in increasing order."""

    kind: str  # "all" | "primes" | "ap" | "list" | "file"
    a: int = 0
    q: int = 0
    values: tuple[int, ...] = ()
    path: str = ""

    def members_upto(self, kappa: int) -> list[int]:
        """The members <= kappa, ascending.  A kind that lists a range (all,
        ap; primes through the sieve) refuses kappa > SIEVE_LIMIT with
        CapExceededError before anything is allocated."""
        if self.kind in ("all", "ap") and kappa > SIEVE_LIMIT:
            raise CapExceededError(
                f"listing {self.label()} up to {kappa} exceeds the sieve limit {SIEVE_LIMIT}"
            )
        if self.kind == "all":
            return list(range(1, kappa + 1))
        if self.kind == "primes":
            return primes_upto(kappa)
        if self.kind == "ap":
            # the least a + k*q >= 1: k = max(0, ceil((1 - a) / q))
            start = self.a - min(0, (self.a - 1) // self.q) * self.q
            return list(range(start, kappa + 1, self.q))
        if self.kind == "list":
            return sorted(v for v in set(self.values) if 1 <= v <= kappa)
        if self.kind == "file":
            try:
                with open(self.path) as fh:
                    vals = {int(line) for line in fh if line.strip()}
            except OSError as exc:
                raise DomainError(f"cannot read X-set file: {exc}")
            except ValueError as exc:
                raise DomainError(f"bad line in X-set file {self.path!r}: {exc}")
            return sorted(v for v in vals if 1 <= v <= kappa)
        raise DomainError(f"unknown X-set kind {self.kind!r}")

    def label(self) -> str:
        if self.kind == "ap":
            return f"ap:{self.a},{self.q}"
        if self.kind == "list":
            return "list:" + ",".join(map(str, sorted(self.values)))
        if self.kind == "file":
            return f"file:{self.path}"
        return self.kind


def parse_xset(spec: str) -> XSetSpec:
    if spec == "all":
        return XSetSpec("all")
    if spec == "primes":
        return XSetSpec("primes")
    if spec.startswith("ap:"):
        try:
            a, q = (int(t) for t in spec[3:].split(","))
        except ValueError:
            raise DomainError(f"bad ap spec token: {spec!r}")
        if q < 1:
            raise DomainError(f"ap step must be >= 1 in {spec!r}")
        return XSetSpec("ap", a=a, q=q)
    if spec.startswith("list:"):
        try:
            values = tuple(int(t) for t in spec[5:].split(","))
        except ValueError:
            raise DomainError(f"bad list spec token: {spec!r}")
        return XSetSpec("list", values=values)
    if spec.startswith("file:"):
        return XSetSpec("file", path=spec[5:])
    raise DomainError(f"unknown X-set token: {spec!r}")


@dataclass(frozen=True)
class ASetSpec:
    """An ideal set: atoms dividing X, all atoms, or all prime ideals."""

    kind: str  # "atoms-dividing" | "all-atoms" | "prime-ideals"
    xset: XSetSpec | None = None  # all-atoms keeps X = all for its label

    def label(self) -> str:
        if self.xset is not None:
            return f"atoms-dividing:{self.xset.label()}"
        return self.kind


def parse_aset(spec: str) -> ASetSpec:
    if spec == "all-atoms":
        return ASetSpec("all-atoms")
    if spec == "prime-ideals":
        return ASetSpec("prime-ideals")
    if spec == "atoms-dividing-primes":
        return ASetSpec("atoms-dividing", xset=XSetSpec("primes"))
    if spec.startswith("atoms-dividing:"):
        xset = parse_xset(spec.split(":", 1)[1])
        # an atom (a) divides N(a) = a * conj(a), so X = N (all, or ap:a,1
        # with a <= 1) gives all atoms
        whole = xset.kind == "all" or (xset.kind == "ap" and xset.q == 1 and xset.a <= 1)
        return ASetSpec("all-atoms" if whole else "atoms-dividing", xset=xset)
    raise DomainError(f"unknown ideal-set token: {spec!r}")


# ---------------------------------------------------------------------------
# set builders


def _prime_members(field: FieldSpec, aspec: ASetSpec, kappa: int):
    """(p, f, k, above, m, whole) for each prime p <= kappa that gives the
    prime ideals or the atoms dividing the primes members of norm <= kappa,
    off `classgroup._split_upto` (above is None where it skipped the split):
    with whole false, each of the k primes above p, of norm p^f; with whole
    true, (p) alone, of norm p^2.  m is the least member of X each divides,
    1 for the prime ideals.  (p) is P P', P^2 or P itself, and a conjugate
    has the inverse class: the atoms dividing p are the primes above it if
    they are principal, else (p).  The prime ideals read no class."""
    ideals = aspec.kind == "prime-ideals"
    for p, f, k, g, above in _split_upto(field, kappa, None if ideals else class_group(field)):
        if ideals or not any(g):
            yield p, f, k, above, 1 if ideals else p, False
        elif p * p <= kappa:
            yield p, f, k, above, p, True


def _atom_parts(field: FieldSpec, aspec: ASetSpec, kappa: int):
    """(norm, least m, parts) for each ideal of norm <= kappa in an ideal
    set, once each, where parts = ((PrimeIdeal, k), ...) is its prime
    factorization.

    Prime ideals and atoms dividing the primes come from `_prime_members`
    and all-atoms (m = 1) from `_all_atoms` (atoms are the minimal
    zero-sum sequences of the block monoid over Cl(K)); a p the pass read
    off its table is split again only for the parts.  Atoms dividing any
    other X come in order of least m in X, from the same walk over the box
    of (m).  Every field, real or not, reads the one class_group(field).
    """
    if aspec.kind not in ("prime-ideals", "all-atoms", "atoms-dividing"):
        raise DomainError(f"unknown ideal-set kind {aspec.kind!r}")
    if aspec.kind == "all-atoms":
        keys, split = [], cache(lambda p: _primes_above(p, field))

        def prime(h: int):  # the c-th prime above p at walk position h
            p, c, above = keys[h]
            return (above or split(p))[c]

        for norm, frames, i, e in _all_atoms(field, kappa, keys):
            parts = ()
            for h, k, _, _, _ in frames:
                parts += ((prime(h), k),)
            yield norm, 1, parts + ((prime(i), e),)
        return
    if aspec.kind == "prime-ideals" or aspec.xset == XSetSpec("primes"):
        for p, _, _, above, m, whole in _prime_members(field, aspec, kappa):
            above = above or _primes_above(p, field)
            if whole:
                yield p * p, m, tuple(
                    (prime, 2 if prime.kind == "ramified" else 1) for prime in above
                )
            else:
                yield from ((prime.norm, m, ((prime, 1),)) for prime in above)
        return
    seen = set()
    for m in aspec.xset.members_upto(kappa):
        if m < 2:
            continue
        for norm, parts in _box_atoms(field, _factor_rational(field, factorint(m)), kappa):
            if parts not in seen:
                seen.add(parts)
                yield norm, m, parts


def _all_atoms(field: FieldSpec, kappa: int, keys: list | None = None):
    """`_atom_walk` over every prime ideal of norm <= kappa, read off
    `classgroup._split_upto`, a split prime next to its conjugate, which
    has the inverse class.  keys, if given, gets (p, c, above) for the
    c-th prime above p at each walk position."""
    group = class_group(field)

    def walked():
        for p, f, k, g, above in _split_upto(field, kappa, group):
            if keys is not None:
                keys.extend((p, c, above) for c in range(k))
            yield p**f, g, kappa  # the norm cap bounds every exponent
            if k == 2:
                yield p, group.neg(g), kappa

    return _atom_walk(group, walked(), kappa)


def build_ideal_set(field: FieldSpec, aspec: ASetSpec, kappa: int) -> list[Ideal]:
    """Deterministic list of the ideals of the set with norm <= kappa,
    sorted by (norm, a, b), each built from its prime factorization.

    For atoms-dividing-X the X members are additionally truncated at
    m <= kappa; omitted atoms can only lower the reported sums, which is
    conservative for a divergence exhibit.
    """
    if kappa < 1:
        raise DomainError("kappa must be >= 1")
    out = [
        FactoredIdeal(field, parts).unfactor()
        for _, _, parts in _atom_parts(field, aspec, kappa)
    ]
    return sorted(out, key=lambda i: i.sort_key())


# ---------------------------------------------------------------------------
# partial sums


def zeta_partial(
    ideals: list[Ideal],
    s: Fraction,
    kappa: int,
    prec_bits: int = DEFAULT_PREC_BITS,
) -> tuple[mpmath.mpf, int]:
    """(sum of N^-s over members with N <= kappa, count of members).

    Terms are grouped by norm and accumulated in increasing-norm order.
    """
    return _norm_sum([i.norm for i in ideals if i.norm <= kappa], s, prec_bits)


def _iroot(y: int, b: int) -> int:
    """floor(y^(1/b)) for y >= 0 and b >= 1, by integer Newton steps from
    2^ceil(bits/b), which is at least the root, down to the floor."""
    if y < 2:
        return y
    x = 1 << -(-y.bit_length() // b)
    while True:
        z = ((b - 1) * x + y // x ** (b - 1)) // b
        if z >= x:
            return x
        x = z


def _norm_sum(norms: list[int], s: Fraction, prec_bits: int) -> tuple[mpmath.mpf, int]:
    """(sum of n^-s over norms, count), terms of equal norm grouped and
    added in increasing-norm order, each rounded to prec bits.

    With s = a/b, b <= 3 and |a| * bits(n) <= 8 * prec, each distinct n
    gives t = floor(2^K n^-s) exactly in integers: the floor b-th root of
    2^(bK) // n^a (times n^|a| for s < 0).  K is set by the largest norm so
    that every t has more than prec + 2 bits; an inexact t gets a sticky bit
    below it, so rounding it to prec bits rounds n^-s correctly.  Any other
    exponent takes mpmath's mpf(n) ** -s at prec, as every term once did: the
    integers grow with b * prec and |a| * bits(n), and a Newton step from a
    root twice too high shrinks it only by (b - 1)/b, so for b = 4 at 1000
    bits, or for a decimal s such as 0.999 (b = 1000), mpmath's power is the
    faster.  Each term is multiplied by its count (a power of two only
    shifts the exponent) and added with mpmath's raw mpf_mul_int and mpf_add
    at prec, round to nearest, as mpf arithmetic would."""
    import mpmath
    from mpmath.libmp import (
        from_int, from_man_exp, fzero, mpf_add, mpf_div, mpf_mul_int, mpf_neg, mpf_pow,
        mpf_shift,
    )

    count = len(norms)
    prec = max(prec_bits, MIN_PREC_BITS)
    if s == 0:
        with mpmath.workprec(prec):
            return mpmath.mpf(count), count
    a, b = s.numerator, s.denominator
    groups = sorted(Counter(norms).items())
    bits = groups[-1][0].bit_length() if groups else 0
    exact = b <= 3 and abs(a) * bits <= 8 * prec
    if exact:
        # n^-s > 2^(-a * bits(n) / b) for s > 0, and n^-s >= 1 for s < 0
        k = prec + 3 + (-(-a * bits // b) if a > 0 else 0)
        scale = 1 << (b * k)
    else:
        neg_s = mpf_neg(mpf_div(from_int(a), from_int(b), prec, "n"))
    total = fzero
    for n, c in groups:
        if not exact:  # mpf(n) ** -s at prec
            term = mpf_pow(from_int(n, prec, "n"), neg_s, prec, "n")
        else:
            if a > 0:
                y, r = divmod(scale, n**a)
            else:
                y, r = scale * n**-a, 0
            t = y if b == 1 else isqrt(y) if b == 2 else _iroot(y, b)
            if r or t**b != y:  # inexact: t < 2^K n^-s < t + 1
                term = from_man_exp(2 * t + 1, -k - 1, prec, "n")
            else:
                term = from_man_exp(t, -k, prec, "n")
        if c & (c - 1):
            term = mpf_mul_int(term, c, prec, "n")
        elif c > 1:  # c = 2^j scales the rounded term exactly
            term = mpf_shift(term, c.bit_length() - 1)
        total = mpf_add(total, term, prec, "n")
    return mpmath.mp.make_mpf(total), count


@dataclass(frozen=True)
class SeriesRow:
    kappa: int
    count: int
    partial_sum: mpmath.mpf


@dataclass(frozen=True)
class SeriesTable:
    field_label: str
    aset_label: str
    s: Fraction
    rows: tuple[SeriesRow, ...]

    @property
    def increments(self) -> list[float]:
        return [
            float(b.partial_sum - a.partial_sum)
            for a, b in zip(self.rows, self.rows[1:])
        ]

    @property
    def consistent_with_divergence(self) -> bool:
        """Heuristic only: increments stay above the floor.  Never a proof."""
        incs = self.increments
        return bool(incs) and all(i > INCREMENT_FLOOR for i in incs)


def divergence_table(
    field: FieldSpec,
    aspec: ASetSpec,
    s: Fraction,
    kappa_grid: list[int],
    prec_bits: int = DEFAULT_PREC_BITS,
) -> SeriesTable:
    if not kappa_grid or list(kappa_grid) != sorted(set(kappa_grid)):
        raise DomainError("kappa grid must be nonempty and strictly increasing")
    if kappa_grid[0] < 1:
        raise DomainError("kappa must be >= 1")
    # one build at the largest kappa, kept as (norm, least m in X) with
    # m = 1 for sets not drawn from X; a row counts the pairs with both <= kappa
    top = kappa_grid[-1]
    if aspec.kind == "all-atoms":
        table = [(n, 1) for n, _, _, _ in _all_atoms(field, top)]
    elif aspec.kind == "prime-ideals" or aspec.xset == XSetSpec("primes"):
        table = []  # norms only: no PrimeIdeal where the pass read p off its table
        for p, f, k, _, m, whole in _prime_members(field, aspec, top):
            table += [(p * p, m)] if whole else [(p**f, m)] * k
    else:
        table = [(n, m) for n, m, _ in _atom_parts(field, aspec, top)]
    rows = []
    for kappa in kappa_grid:
        norms = [n for n, m in table if n <= kappa and m <= kappa]
        total, count = _norm_sum(norms, s, prec_bits)
        rows.append(SeriesRow(kappa, count, total))
    return SeriesTable(field.label(), aspec.label(), s, tuple(rows))


def euler_primes_sum(x: int, prec_bits: int = DEFAULT_PREC_BITS) -> mpmath.mpf:
    """Sum of 1/p over primes p <= x, via a sieve: the exact integer sum of
    floor(2^K / p) with K = prec + 64 guard bits, rounded to an mpf once.
    Each floor loses less than 2^-K and pi(SIEVE_LIMIT) < 2^23 terms, so
    the truncation stays below 2^-(prec + 40)."""
    import mpmath

    if x < 2:
        raise DomainError("x must be >= 2")
    prec = max(prec_bits, MIN_PREC_BITS)
    k = prec + 64
    scaled = sum(map((1 << k).__floordiv__, primes_upto(x)))
    with mpmath.workprec(prec):
        return mpmath.ldexp(mpmath.mpf(scaled), -k)


# ---------------------------------------------------------------------------
# census


@dataclass(frozen=True)
class CensusTable:
    field_label: str
    kappa: int
    counts: tuple[tuple[int, int], ...]  # (n, a_n) for a_n > 0, ascending n
    davenport: int

    def a(self, n: int) -> int:
        for m, c in self.counts:
            if m == n:
                return c
        return 0

    def cumulative(self, x: float) -> int:
        return sum(c for n, c in self.counts if n <= x)

    def ratio(self, x: float) -> float | None:
        """A(x) * log(x) / (x * (log log x)^(D-1)); None for x <= e."""
        if x <= _E:
            return None
        return (
            self.cumulative(x)
            * log(x)
            / (x * log(log(x)) ** (self.davenport - 1))
        )


def atom_census(field: FieldSpec, kappa: int) -> CensusTable:
    """Principal atom ideals of norm <= kappa in any field, counted by norm.  The
    ratio rests on the atoms of a Krull monoid with finite class group and a prime
    in every class (Narkiewicz, 3rd ed., ch. 9; Geroldinger & Halter-Koch, ch. 9);
    it needs D, so a group with no closed form is refused before the walk."""
    if kappa < 1:
        raise DomainError("kappa must be >= 1")
    d_const = davenport_constant(class_group_structure(field))
    norms = Counter(map(itemgetter(0), _all_atoms(field, kappa)))
    counts = tuple(sorted(norms.items()))
    return CensusTable(field.label(), kappa, counts, d_const)


@dataclass(frozen=True)
class AsymptoticRow:
    x: int
    cumulative: int
    ratio: float | None
    note: str = ""


def asymptotic_report(census: CensusTable, xs: list[int]) -> list[AsymptoticRow]:
    """Ratio trend rows; states the trend only, never an estimate of the
    limiting constant (desk-scale x is far too small for log log x)."""
    out = []
    for x in xs:
        r = census.ratio(x)
        note = "" if r is not None else "skipped: log log undefined for x <= e"
        out.append(AsymptoticRow(x, census.cumulative(x), r, note))
    return out
