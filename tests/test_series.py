import time
from collections import Counter
from fractions import Fraction

import mpmath
import pytest

from atomzeta.atoms import atom_ideals_dividing
from atomzeta.errors import DomainError
from atomzeta.ideals import kronecker_symbol, primes_above
from atomzeta.ring import make_field, rational_field
from atomzeta.series import (
    DEFAULT_PREC_BITS,
    ASetSpec,
    XSetSpec,
    _atom_parts,
    _norm_sum,
    atom_census,
    asymptotic_report,
    build_ideal_set,
    divergence_table,
    euler_primes_sum,
    parse_aset,
    parse_xset,
    zeta_partial,
)
from atomzeta.sieve import primes_upto
from oracles import (
    all_atoms_per_ideal,
    atom_ideals_dividing_finder,
    atoms_dividing_brute,
    euler_primes_sum_loop,
    norm_sum_loop,
    reps_by_norm,
)

F1 = make_field(-1)
F5 = make_field(-5)
Q = rational_field()


# --- X-set and ideal-set parsing -------------------------------------------

def test_parse_xset_examples():
    assert parse_xset("all").members_upto(5) == [1, 2, 3, 4, 5]
    assert parse_xset("primes").members_upto(12) == [2, 3, 5, 7, 11]
    assert parse_xset("ap:3,4").members_upto(20) == [3, 7, 11, 15, 19]
    assert parse_xset("ap:-5,4").members_upto(12) == [3, 7, 11]
    # q | 1 - a: the progression starts at 1, like ap:1,q and all
    assert parse_xset("ap:-2,3").members_upto(10) == [1, 4, 7, 10]
    assert parse_xset("ap:0,1").members_upto(3) == [1, 2, 3]
    assert parse_xset("list:9,2,2,30").members_upto(10) == [2, 9]
    for bad in ("ap:3", "ap:1,0", "list:a,b", "gibberish"):
        with pytest.raises(DomainError):
            parse_xset(bad)


def test_parse_xset_file(tmp_path):
    p = tmp_path / "xs.txt"
    p.write_text("4\n\n9\n4\n25\n")
    spec = parse_xset(f"file:{p}")
    assert spec.members_upto(10) == [4, 9]
    assert spec.label() == f"file:{p}"


def test_parse_aset_examples():
    assert parse_aset("all-atoms").kind == "all-atoms"
    assert parse_aset("prime-ideals").kind == "prime-ideals"
    spec = parse_aset("atoms-dividing-primes")
    assert spec.kind == "atoms-dividing" and spec.xset.kind == "primes"
    assert parse_aset("atoms-dividing:ap:1,4").xset.kind == "ap"
    assert spec.label() == "atoms-dividing:primes"
    # every atom divides its norm, so the atoms dividing X = all are all
    # atoms; the set keeps its name
    spec = parse_aset("atoms-dividing:all")
    assert spec.kind == "all-atoms" and spec.label() == "atoms-dividing:all"
    assert ASetSpec("atoms-dividing", XSetSpec("all")).label() == "atoms-dividing:all"
    assert parse_aset("all-atoms").label() == "all-atoms"
    with pytest.raises(DomainError):
        parse_aset("atoms")


# --- set builders ----------------------------------------------------------

def test_build_prime_ideals():
    ideals = build_ideal_set(F1, parse_aset("prime-ideals"), 25)
    # norms: 2, 4 (excluded? no: inert 3 has norm 9), 5, 5, 9, 13, 13, 17, 17
    norms = [i.norm for i in ideals]
    assert norms == sorted(norms)
    assert norms.count(5) == 2 and norms.count(9) == 1 and 2 in norms
    assert all(n <= 25 for n in norms)


def test_build_all_atoms_f1():
    # in a PID, atoms = prime elements, so atom ideals = prime ideals
    atoms = build_ideal_set(F1, parse_aset("all-atoms"), 100)
    primes = build_ideal_set(F1, parse_aset("prime-ideals"), 100)
    assert atoms == primes


def test_build_all_atoms_f5():
    atoms = build_ideal_set(F5, parse_aset("all-atoms"), 36)
    norms = [i.norm for i in atoms]
    # norm 4: (2); norm 6: (1 +- w); norm 9: (3), (2 +- w); norm 29: split primes
    assert norms.count(4) == 1 and norms.count(6) == 2 and norms.count(9) == 3
    assert 2 not in norms and 3 not in norms  # non-principal prime ideals excluded
    assert norms.count(36) == 0  # 6 is not an atom


def test_build_atoms_dividing_union():
    spec = parse_aset("atoms-dividing:list:6,29")
    got = build_ideal_set(F5, spec, 10**3)
    expected = sorted(
        set(atom_ideals_dividing(6, F5)) | set(atom_ideals_dividing(29, F5)),
        key=lambda i: i.sort_key(),
    )
    assert got == expected


def test_build_ideal_set_rejects_bad_kappa():
    with pytest.raises(DomainError):
        build_ideal_set(F1, parse_aset("all-atoms"), 0)


def test_all_atoms_class_each_streamed_prime_once(monkeypatch):
    # build_ideal_set over all atoms reads each prime's class off the one
    # splitting pass: one reduction per prime that the pass classed (split
    # or ramified, the table answering only inert residues in Z/4), where
    # classing the walk's box again took two
    from atomzeta import classgroup

    f, kappa = make_field(-14), 10**4
    classgroup.class_group(f)
    classed = sum(1 for p in primes_upto(kappa) if kronecker_symbol(f.disc, p) != -1)
    calls = []
    reduce = classgroup._reduce
    monkeypatch.setattr(classgroup, "_reduce", lambda *form: calls.append(form) or reduce(*form))
    ideals = build_ideal_set(f, parse_aset("all-atoms"), kappa)
    assert len(calls) == classed > 500
    assert sorted(i.norm for i in ideals) == all_atoms_per_ideal(f, kappa)


def test_prime_ideals_build_no_class_group(monkeypatch):
    # the prime ideals read no class, so neither their ideals nor their
    # table build the class group (for d = -999999937 it has h = 17,072);
    # a field no other test asks about
    from atomzeta import atoms, classgroup, series

    def refuse(field):
        raise AssertionError("class group built for the prime ideals")

    f, kappa = make_field(-4001), 10**4
    for mod in (atoms, classgroup, series):
        monkeypatch.setattr(mod, "class_group", refuse)
    aset = parse_aset("prime-ideals")
    ideals = build_ideal_set(f, aset, kappa)
    above = [prime.ideal for p in primes_upto(kappa) for prime in primes_above(p, f)]
    assert ideals == sorted((i for i in above if i.norm <= kappa), key=lambda i: i.sort_key())
    rows = divergence_table(f, aset, Fraction(1), [10**3, kappa]).rows
    assert [r.count for r in rows] == [sum(i.norm <= k for i in ideals) for k in (10**3, kappa)]


# --- partial sums ----------------------------------------------------------

def test_zeta_partial_hand_value():
    # Q(i), prime ideals, s = 1, kappa = 10:
    # 1/2 + 2/5 + 1/9 + 1/4(no, norm 4 > ... ) -- computed by hand:
    # norms <= 10: 2, 5, 5, 9 -> 1/2 + 2/5 + 1/9 = 91/90
    ideals = build_ideal_set(F1, parse_aset("prime-ideals"), 10)
    total, count = zeta_partial(ideals, Fraction(1), 10)
    assert count == 4
    assert mpmath.almosteq(total, mpmath.mpf(91) / 90)


def test_zeta_partial_s_zero_counts():
    ideals = build_ideal_set(F1, parse_aset("prime-ideals"), 50)
    total, count = zeta_partial(ideals, Fraction(0), 50)
    assert total == count == len(ideals)


def test_zeta_partial_respects_kappa():
    ideals = build_ideal_set(F1, parse_aset("prime-ideals"), 100)
    t_small, c_small = zeta_partial(ideals, Fraction(1, 2), 10)
    t_big, c_big = zeta_partial(ideals, Fraction(1, 2), 100)
    assert c_small < c_big and t_small < t_big


def test_zeta_partial_bit_identical_across_input_order():
    ideals = build_ideal_set(F5, parse_aset("all-atoms"), 200)
    a, _ = zeta_partial(ideals, Fraction(1, 3), 200)
    b, _ = zeta_partial(list(reversed(ideals)), Fraction(1, 3), 200)
    assert a == b  # exact equality, not almosteq


def test_zeta_partial_precision_floor():
    ideals = build_ideal_set(F1, parse_aset("prime-ideals"), 50)
    lo, _ = zeta_partial(ideals, Fraction(1), 50, prec_bits=16)  # clamped to 80
    hi, _ = zeta_partial(ideals, Fraction(1), 50, prec_bits=80)
    assert lo == hi


def test_norm_sum_matches_mpf_loop_oracle_bit_for_bit():
    # the integer terms, correctly rounded, against the mpf loop they
    # replaced, which rounds 1/sqrt(n) twice; every value is compared exactly
    for d in (-1, -5, -14, -23, 2, 5):
        field = make_field(d)
        for aset in ("prime-ideals", "all-atoms", "atoms-dividing:primes"):
            norms = [n for n, _, _ in _atom_parts(field, parse_aset(aset), 10**5)]
            for s in (Fraction(1, 2), Fraction(1)):
                got, count = _norm_sum(norms, s, DEFAULT_PREC_BITS)
                assert count == len(norms)
                assert got == norm_sum_loop(norms, s, DEFAULT_PREC_BITS), (d, aset, s)


def test_norm_sum_terms_are_correctly_rounded():
    # one norm is one term; mpmath at 4 * prec, rounded once to prec, is the
    # reference, and n = 2^e with b | e*a is the exact dyadic 2^(-e*a/b)
    norms = (2, 3, 5, 7, 4, 16, 2**20, 99999989, 10**8, 10**8 + 7, 2**26 * 3 - 1)
    exps = (Fraction(1, 3), Fraction(2, 3), Fraction(3, 2), Fraction(3),
            Fraction(-1, 2), Fraction(-1), Fraction(1, 2), Fraction(1))
    for prec in (80, 100, 333):
        for s in exps:
            for n in norms:
                got, _ = _norm_sum([n], s, prec)
                e = n.bit_length() - 1
                if n == 1 << e and e * s.numerator % s.denominator == 0:
                    want = mpmath.ldexp(1, -e * s.numerator // s.denominator)
                else:
                    with mpmath.workprec(4 * prec):
                        wide = mpmath.mpf(n) ** (-mpmath.mpf(s.numerator) / s.denominator)
                    with mpmath.workprec(prec):
                        want = +wide
                assert got == want, (prec, s, n)
                assert got.man.bit_length() <= prec, (prec, s, n)
    assert _norm_sum([4], Fraction(1, 2), 100)[0] == mpmath.mpf(0.5)
    assert _norm_sum([16, 16, 16], Fraction(1, 2), 100)[0] == mpmath.mpf(0.75)


def test_norm_sum_other_exponents_take_the_mpmath_power():
    # b > 3, a decimal s (0.123456789 has b = 10^9) and n^|a| past 8 * prec
    # bits are summed with mpf(n) ** -s, as the mpf loop did, bit for bit
    field = make_field(-5)
    norms = [n for n, _, _ in _atom_parts(field, parse_aset("atoms-dividing:primes"), 10**3)]
    norms += [99999989, 10**8, 10**8]
    for s in ("1/4", "3/4", "2/5", "51/100", "0.999", "0.123456789", "200", "-64/3"):
        for prec in (80, 200):
            got, count = _norm_sum(norms, Fraction(s), prec)
            assert count == len(norms)
            assert got == norm_sum_loop(norms, Fraction(s), prec), (s, prec)


# --- divergence tables -----------------------------------------------------

def test_divergence_table_shapes_and_monotonicity():
    table = divergence_table(
        F5, parse_aset("atoms-dividing:primes"), Fraction(1, 2), [50, 200, 800]
    )
    assert [r.kappa for r in table.rows] == [50, 200, 800]
    sums = [r.partial_sum for r in table.rows]
    counts = [r.count for r in table.rows]
    assert sums == sorted(sums) and counts == sorted(counts)
    assert len(table.increments) == 2
    assert table.s == Fraction(1, 2)


def test_divergence_table_counts_match_element_scan_oracle():
    # each row counts the associate classes of atoms with |N| <= kappa that
    # divide some m <= kappa in X, found here by exhaustive element scan
    grid = [10, 50, 120]
    for d in (-1, -5, -14, -23):
        f = make_field(d)
        table = reps_by_norm(f, grid[-1])
        for x in ("all", "list:6,29,36"):
            rows = divergence_table(
                f, parse_aset(f"atoms-dividing:{x}"), Fraction(1, 2), grid
            ).rows
            for row in rows:
                atoms = set()
                for m in parse_xset(x).members_upto(row.kappa):
                    if m >= 2:
                        atoms.update(
                            a for a in atoms_dividing_brute(m, f, table)
                            if abs(a.norm()) <= row.kappa
                        )
                assert row.count == len(atoms), (d, x, row.kappa)


def test_atoms_dividing_primes_match_finder():
    # atoms dividing a prime are read off its splitting; the finder oracle,
    # which searches the sub-boxes of (p), is the reference.  The fields
    # cover principal and non-principal split and ramified primes, inert
    # primes of norm <= kappa, h > 1 in real fields (10, 79) and Q
    kappa = 2000
    for f in [make_field(d) for d in (-1, -3, -5, -14, -23, -221, 2, 10, 79)] + [Q]:
        want = atom_ideals_dividing_finder(f, primes_upto(kappa), kappa)
        got = build_ideal_set(f, parse_aset("atoms-dividing:primes"), kappa)
        assert got == want, f.label()


def test_real_field_atom_sets_match_finder_oracles():
    # the walk keeps real-field sub-products as ideals in its nodes; the
    # oracles grow and test them level by level.  h = 1 for d = 2, 3 and
    # h = 2, 3 for d = 10, 79
    kappa = 2000
    ap = parse_aset("atoms-dividing:ap:3,4")
    for f in [make_field(d) for d in (2, 3, 10, 79)]:
        got = build_ideal_set(f, parse_aset("all-atoms"), kappa)
        assert [i.norm for i in got] == all_atoms_per_ideal(f, kappa), f.label()
        want = atom_ideals_dividing_finder(f, ap.xset.members_upto(kappa), kappa)
        assert build_ideal_set(f, ap, kappa) == want, f.label()


def test_atoms_dividing_all_are_all_atoms():
    # the parsed set reads the all-atoms walk; the spec built by hand takes
    # the per-m walk over the box of each (m), and the finder oracle the
    # level-by-level search over the same boxes.  Z/2, Z/2 x Z/8 and the
    # real Z/3, with class number 1 in Z[i], Z[sqrt(2)] and Q
    kappa = 2000
    grid = [10, 300, kappa]
    per_m = ASetSpec("atoms-dividing", XSetSpec("all"))
    for f in [make_field(d) for d in (-1, -5, -221, 79, 2)] + [Q]:
        got = build_ideal_set(f, parse_aset("atoms-dividing:all"), kappa)
        assert got == build_ideal_set(f, per_m, kappa), f.label()
        assert got == atom_ideals_dividing_finder(f, range(1, kappa + 1), kappa), f.label()
        for s in (Fraction(0), Fraction(1, 2), Fraction(1)):
            want = divergence_table(f, per_m, s, grid)
            table = divergence_table(f, parse_aset("atoms-dividing:all"), s, grid)
            assert table == want, (f.label(), s)


def test_atoms_dividing_ap_step_one_from_one_are_all_atoms():
    # ap:a,1 with a <= 1 lists every m >= 1, so its set is all atoms, read
    # off the all-atoms walk under its own label; the spec built by hand
    # walks m by m.  ap:2,1 and ap:1,2 miss m = 1 or 2, and stay per m
    grid = [10, 300, 2000]
    for a in (1, 0, -3):
        spec = parse_aset(f"atoms-dividing:ap:{a},1")
        assert spec.kind == "all-atoms" and spec.label() == f"atoms-dividing:ap:{a},1"
        per_m = ASetSpec("atoms-dividing", XSetSpec("ap", a=a, q=1))
        for f in (F5, make_field(-221), make_field(79), Q):
            for s in (Fraction(1, 2), Fraction(1)):
                want = divergence_table(f, per_m, s, grid)
                assert divergence_table(f, spec, s, grid) == want, (a, f.label(), s)
    for other in ("ap:2,1", "ap:1,2"):
        assert parse_aset(f"atoms-dividing:{other}").kind == "atoms-dividing", other
    start = time.perf_counter()
    divergence_table(F5, parse_aset("atoms-dividing:ap:1,1"), Fraction(1, 2), [10**3, 10**4, 10**5])
    assert time.perf_counter() - start < 1.0


def test_divergence_table_truncates_x_by_least_m():
    # the atom 2 has norm 4 <= 5, but the only member of X it divides is
    # 6 > 5; a norm-only filter of the kappa = 10 set would count it at 5
    table = divergence_table(
        F5, parse_aset("atoms-dividing:list:6"), Fraction(1, 2), [5, 10]
    )
    assert [r.count for r in table.rows] == [0, 4]


def test_divergence_rows_equal_per_kappa_builds():
    grid = [10, 60, 200, 1000]
    for f in (F5, make_field(-23), make_field(2), Q):
        for spec in ("atoms-dividing:all", "atoms-dividing:ap:3,4",
                     "atoms-dividing:primes", "prime-ideals", "all-atoms"):
            aspec = parse_aset(spec)
            built = {k: build_ideal_set(f, aspec, k) for k in grid}
            for s in (Fraction(0), Fraction(1, 2), Fraction(1)):
                for row in divergence_table(f, aspec, s, grid).rows:
                    total, count = zeta_partial(built[row.kappa], s, row.kappa)
                    assert (row.count, row.partial_sum) == (count, total), (
                        f.label(), spec, s, row.kappa,
                    )
    # 2 +- sqrt(-5) have norm 9 and first divide 27 in ap:3,4, so a later
    # row adds small-norm atoms and the rows are not prefixes of one another
    # (in atoms-dividing:all they are: an atom divides its norm)
    ap = parse_aset("atoms-dividing:ap:3,4")
    assert [[i.norm for i in build_ideal_set(F5, ap, k)].count(9)
            for k in (10, 60)] == [1, 3]


def test_divergence_table_rejects_bad_grid():
    with pytest.raises(DomainError):
        divergence_table(F1, parse_aset("prime-ideals"), Fraction(1), [100, 50])
    with pytest.raises(DomainError):
        divergence_table(F1, parse_aset("prime-ideals"), Fraction(1), [50, 50])


def test_euler_primes_sum_hand_value():
    # 1/2 + 1/3 + 1/5 + 1/7 = 247/210
    assert mpmath.almosteq(euler_primes_sum(10), mpmath.mpf(247) / 210)
    with pytest.raises(DomainError):
        euler_primes_sum(1)


def test_euler_primes_sum_within_one_rounding_of_exact():
    for x in (10, 1000, 10**4):
        exact = sum(Fraction(1, p) for p in primes_upto(x))
        got = euler_primes_sum(x)
        man, exp = got.man_exp
        value = Fraction(man) * Fraction(2) ** exp
        assert abs(value - exact) <= exact / 2**DEFAULT_PREC_BITS, x


def test_euler_primes_sum_matches_sequential_loop_oracle():
    for x in (10**5, 10**6):
        assert mpmath.nstr(euler_primes_sum(x), 25, strip_zeros=False) == mpmath.nstr(
            euler_primes_sum_loop(x), 25, strip_zeros=False
        ), x


def test_euler_primes_sum_grows_like_log_log():
    # Mertens: sum_{p <= x} 1/p = log log x + M + o(1), M ~ 0.2615
    gap = float(euler_primes_sum(10**5)) - mpmath.log(mpmath.log(10**5))
    assert abs(gap - 0.2615) < 0.01


# --- census ----------------------------------------------------------------

def test_atom_census_f1():
    census = atom_census(F1, 100)
    assert census.davenport == 1
    assert census.a(2) == 1 and census.a(4) == 0
    assert census.a(5) == 2 and census.a(9) == 1
    assert census.cumulative(10) == 4
    assert census.counts == tuple(sorted(census.counts))


def test_atom_census_f5():
    census = atom_census(F5, 100)
    assert census.davenport == 2
    assert census.a(2) == 0 and census.a(4) == 1
    assert census.a(6) == 2 and census.a(9) == 3


def test_atom_census_rational_counts_primes():
    census = atom_census(Q, 50)
    assert census.davenport == 1
    assert [n for n, _ in census.counts] == primes_upto(50)
    assert all(c == 1 for _, c in census.counts)


def test_atom_census_refuses_kappa_below_one():
    # the census streams the primes, and a stream up to kappa < 1 is empty
    for kappa in (0, -1):
        with pytest.raises(DomainError):
            atom_census(F5, kappa)


def test_all_atoms_signature_memo_matches_per_ideal_oracle():
    # the census walks the zero-sum-free boxes of the prime pool; the oracle
    # runs the atom finder on every ideal.  Its real path decides principality
    # on HNFs by the unit-band scan, sharing no code with the cycle class group:
    # d = 2, 3, 10, 79, 82, 210 have trivial, trivial, Z/2, Z/3, Z/4 and Z/2 x Z/2
    imaginary = (-1, -3, -5, -14, -23, -30, -105)
    real = (2, 3, 10, 79, 82, 210)
    for field in [make_field(d) for d in imaginary + real] + [Q]:
        census = atom_census(field, 5000)
        expected = Counter(all_atoms_per_ideal(field, 5000))
        assert dict(census.counts) == expected, field.label()


def test_atom_walk_matches_per_ideal_oracle_on_deeper_groups():
    # the walk goes D - 1 copies deep: Z/5, Z/7, Z/6 and Z/2 x Z/8 (D = 9),
    # Z/2 x Z/2 x Z/2 (D = 4), Z/4 x Z/4 (D = 7), Z/3 x Z/9 (D = 11) and
    # Z/44 (D = 44)
    for d in (-47, -71, -26, -221, -1155, -2379, -3299, -6631):
        field = make_field(d)
        census = atom_census(field, 5000)
        expected = Counter(all_atoms_per_ideal(field, 5000))
        assert dict(census.counts) == expected, field.label()


def test_census_ratio_and_report():
    census = atom_census(F1, 200)
    assert census.ratio(2) is None
    r = census.ratio(100.0)
    assert r is not None and r > 0
    rows = asymptotic_report(census, [2, 10, 100])
    assert rows[0].ratio is None and "log log" in rows[0].note
    assert rows[1].cumulative == census.cumulative(10)
    assert rows[2].ratio == census.ratio(100)
