"""Restricted zeta partial sums, atom censuses and the asymptotic report.

Partial sums are accumulated in increasing-norm order with mpmath at a
configurable mantissa precision (>= 80 bits), terms of equal norm grouped,
so results are reproducible bit-for-bit.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from math import e as _E, log

import mpmath

from atomzeta.atoms import _atom_finder
from atomzeta.classgroup import class_group, class_group_structure, davenport_constant
from atomzeta.errors import DomainError
from atomzeta.ideals import (
    FactoredIdeal,
    Ideal,
    _factor_rational,
    _primes_above,
    enumerate_ideals_factored,
)
from atomzeta.ring import FieldSpec
from atomzeta.sieve import factorint, primes_upto

DEFAULT_PREC_BITS = 100
MIN_PREC_BITS = 80  # the library clamps below this; the CLI refuses


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
        if self.kind == "all":
            return list(range(1, kappa + 1))
        if self.kind == "primes":
            return primes_upto(kappa)
        if self.kind == "ap":
            start = self.a if self.a >= 1 else self.a + ((1 - self.a) // self.q + 1) * self.q
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
    xset: XSetSpec | None = None

    def label(self) -> str:
        if self.kind == "atoms-dividing":
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
        return ASetSpec("atoms-dividing", xset=parse_xset(spec.split(":", 1)[1]))
    raise DomainError(f"unknown ideal-set token: {spec!r}")


# ---------------------------------------------------------------------------
# set builders


def _atom_parts(field: FieldSpec, aspec: ASetSpec, kappa: int):
    """(norm, least m, parts) for each ideal of norm <= kappa in an ideal
    set, once each, where parts = ((PrimeIdeal, k), ...) is its prime
    factorization.

    Prime ideals and all-atoms have m = 1.  Atoms dividing X come in order
    of least m in X.  For all-atoms an ideal is kept iff the whole box is
    its own first atom: the whole box is the largest, so it comes first
    only if it is the only atom.  That depends only on the box's prime
    classes with exponents (atoms are the minimal zero-sum sequences of the
    block monoid over Cl(K)), so it is decided once per sorted (class
    vector, exponent) signature.
    """
    if aspec.kind == "prime-ideals":
        for p in primes_upto(kappa):
            for prime in _primes_above(p, field):
                if prime.norm <= kappa:
                    yield prime.norm, 1, ((prime, 1),)
        return
    atoms_of = _atom_finder(field, kappa)
    if aspec.kind == "all-atoms":
        # real fields have no class vectors yet and decide every ideal, storing
        # nothing, until reduced-ideal cycles (ROADMAP direction C)
        vector = None if field.is_real else class_group(field).vector
        vecs, known = {}, {}  # prime vectors by id, signature memo
        for norm, fac in enumerate_ideals_factored(field, kappa):
            sig = None
            if vector:
                for prime, _ in fac:
                    if id(prime) not in vecs:  # the walk makes each PrimeIdeal once
                        vecs[id(prime)] = vector(prime.ideal)
                sig = tuple(sorted((vecs[id(prime)], e) for prime, e in fac))
            keep = known.get(sig)
            if keep is None:
                # a box with no principal sub-box yields no atom at all
                keep = next(atoms_of(fac), (0,))[0] == norm
                if sig is not None:
                    known[sig] = keep
            if keep:
                yield norm, 1, fac
        return
    if aspec.kind != "atoms-dividing":
        raise DomainError(f"unknown ideal-set kind {aspec.kind!r}")
    sieved = aspec.xset.kind == "primes"
    seen = set()
    for m in aspec.xset.members_upto(kappa):
        if m < 2:
            continue
        fac = _factor_rational(field, {m: 1} if sieved else factorint(m))
        for norm, parts, _ in atoms_of(fac):
            if not sieved:  # atoms dividing distinct primes are distinct
                key = tuple(x for prime, k in parts for x in (prime.p, prime.ideal.b, k))
                if key in seen:
                    continue
                seen.add(key)
            yield norm, m, parts


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


def _norm_sum(norms: list[int], s: Fraction, prec_bits: int) -> tuple[mpmath.mpf, int]:
    count = len(norms)
    with mpmath.workprec(max(prec_bits, MIN_PREC_BITS)):
        if s == 0:
            return mpmath.mpf(count), count
        sexp = mpmath.mpf(s.numerator) / s.denominator
        total = mpmath.mpf(0)
        for n, k in sorted(Counter(norms).items()):
            total += k * mpmath.mpf(n) ** (-sexp)
        return total, count


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
    increment_floor: float = 0.0  # heuristic threshold for the divergence flag

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
        return bool(incs) and all(i > self.increment_floor for i in incs)


def divergence_table(
    field: FieldSpec,
    aspec: ASetSpec,
    s: Fraction,
    kappa_grid: list[int],
    prec_bits: int = DEFAULT_PREC_BITS,
    increment_floor: float = 0.05,
) -> SeriesTable:
    if not kappa_grid or list(kappa_grid) != sorted(set(kappa_grid)):
        raise DomainError("kappa grid must be nonempty and strictly increasing")
    if kappa_grid[0] < 1:
        raise DomainError("kappa must be >= 1")
    # one build at the largest kappa, kept as (norm, least m in X) with
    # m = 1 for sets not drawn from X; a row counts the pairs with both <= kappa
    table = [(n, m) for n, m, _ in _atom_parts(field, aspec, kappa_grid[-1])]
    rows = []
    for kappa in kappa_grid:
        norms = [n for n, m in table if n <= kappa and m <= kappa]
        total, count = _norm_sum(norms, s, prec_bits)
        rows.append(SeriesRow(kappa, count, total))
    return SeriesTable(
        field.label(), aspec.label(), s, tuple(rows), increment_floor
    )


def euler_primes_sum(x: int, prec_bits: int = DEFAULT_PREC_BITS) -> mpmath.mpf:
    """Sum of 1/p over primes p <= x, via a sieve, in increasing order."""
    if x < 2:
        raise DomainError("x must be >= 2")
    with mpmath.workprec(max(prec_bits, MIN_PREC_BITS)):
        total = mpmath.mpf(0)
        one = mpmath.mpf(1)
        for p in primes_upto(x):
            total += one / p
        return total


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
    if not (field.is_imaginary or field.is_rational):
        raise DomainError("the census experiment is restricted to imaginary fields and Q")
    norms = Counter(n for n, _, _ in _atom_parts(field, ASetSpec("all-atoms"), kappa))
    counts = tuple(sorted(norms.items()))
    d_const = davenport_constant(class_group_structure(field))
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
