import random
import sys
import time
import tracemalloc
from fractions import Fraction

import pytest

from atomzeta import classgroup
from atomzeta.classgroup import (
    AbelianGroupSpec,
    ClassGroup,
    QuadForm,
    _principal_walk,
    _split_upto,
    class_group,
    class_group_structure,
    class_number,
    compose,
    davenport_constant,
    form_to_ideal,
    ideal_class_form,
    ideal_to_form,
    is_principal,
    is_principal_class,
    principal_form,
    reduce_form,
)
from atomzeta.errors import CapExceededError, DomainError, InternalInvariantError
from atomzeta.ideals import (
    ideal_mul, kronecker_symbol, primes_above, principal_ideal, unit_ideal,
)
from atomzeta.ring import is_associated, is_squarefree, make_field, rational_field
from oracles import (
    class_invariants_by_counting,
    davenport_brute,
    form_pow,
    hnf_triples_brute,
    primes_trial,
    principal_by_unit_band,
    reduced_forms,
    reduced_forms_brute,
    split_per_prime,
)

F1 = make_field(-1)
F5 = make_field(-5)
F23 = make_field(-23)


# --- forms -----------------------------------------------------------------

def test_reduce_form_examples():
    assert reduce_form(QuadForm(6, 10, 5)) == QuadForm(1, 0, 5)
    assert reduce_form(QuadForm(2, 2, 3)).disc == -20
    f = reduce_form(QuadForm(3, 1, 2))
    assert f.is_reduced() and f.disc == -23
    # indefinite: rho reaches a reduced form, and one more step gives a > 0
    f = reduce_form(QuadForm(-7, 0, 1))
    assert f.is_reduced() and f.disc == 28 and f.a > 0
    assert not QuadForm(1, 5, 1).is_reduced() and QuadForm(2, 4, -1).is_reduced()


def test_reduce_form_refuses_square_discriminant():
    # rho never reaches a reduced form of square D; refused at once, as is a
    # negative definite form (no ideal's form), which is no internal error
    for f, why in (
        (QuadForm(1, 3, 2), "square discriminant"),
        (QuadForm(2, 4, 2), "square discriminant"),
        (QuadForm(0, 1, 5), "square discriminant"),
        (QuadForm(-1, 0, -1), "negative definite"),
        (QuadForm(-6, 10, -5), "negative definite"),
    ):
        start = time.perf_counter()
        with pytest.raises(DomainError, match=why):
            reduce_form(f)
        assert time.perf_counter() - start < 0.1


def test_reduced_forms_known_class_numbers():
    # h(-4)=1, h(-20)=2, h(-23)=3, h(-47)=5, h(-84)=4
    for disc, h in ((-4, 1), (-20, 2), (-23, 3), (-47, 5), (-84, 4)):
        forms = reduced_forms(disc)
        assert len(forms) == h, disc
        assert all(f.is_reduced() and f.disc == disc for f in forms)


def test_reduced_forms_match_brute_scan():
    for disc in (-4, -20, -23, -47, -84, -163, -120):
        assert set(reduced_forms(disc)) == set(reduced_forms_brute(disc))


def test_compose_examples():
    # the non-principal class of disc -20 squares to the principal class
    g = QuadForm(2, 2, 3)
    assert compose(g, g) == principal_form(-20)
    # disc -23: the class group is cyclic of order 3
    g = QuadForm(2, 1, 3)
    assert compose(g, g) == g.opposite()
    assert compose(compose(g, g), g) == principal_form(-23)
    # real forms where a1 | a2, or d = gcd(a1, a2) divides s = (b1 + b2)/2
    # (s <= 0 among them): the general xgcd steps give the values these
    # cases once hard-coded; each result was captured while they did
    for f1, f2, want in (
        ((2, 4, -3), (2, 4, -3), (1, 6, -1)),
        ((2, 14, -15), (6, 10, -9), (3, 16, -5)),
        ((2, 14, -15), (3, 14, -10), (6, 14, -5)),
        ((2, 30, -2), (3, 26, -20), (6, 26, -10)),
        ((2, -4, -3), (3, -2, -3), (1, 6, -1)),
        ((2, 4, -3), (3, -4, -2), (1, 6, -1)),
        ((6, -10, -9), (10, -6, -7), (15, 14, -2)),
    ):
        assert compose(QuadForm(*f1), QuadForm(*f2)) == want, (f1, f2)


def test_compose_refuses_unequal_discriminants():
    with pytest.raises(DomainError, match="composition requires equal discriminants"):
        compose(QuadForm(2, 2, 3), QuadForm(2, 1, 3))  # disc -20 with -23


def test_compose_refuses_what_reduce_form_refuses():
    # square discriminants and negative definite products are refused with
    # reduce_form's messages; (-1, 0, -1)^2 is (1, 0, 1) under Dirichlet
    # composition, which is right
    for f1, f2, why in (
        ((1, 3, 2), (1, 3, 2), "square discriminant"),
        ((2, 4, 2), (2, 4, 2), "square discriminant"),
        ((-2, 2, -3), (2, 2, 3), "negative definite"),
        ((0, 1, 5), (1, 1, 0), "square discriminant"),  # a = 0, refused before dividing
        ((1, 1, 0), (0, 1, 5), "square discriminant"),
    ):
        with pytest.raises(DomainError, match=why):
            compose(QuadForm(*f1), QuadForm(*f2))
    assert compose(QuadForm(-1, 0, -1), QuadForm(-1, 0, -1)) == (1, 0, 1)


def test_compose_group_axioms_random():
    rng = random.Random(31)
    for disc in (-20, -23, -47, -84):
        forms = reduced_forms(disc)
        e = principal_form(disc)
        for _ in range(50):
            f1, f2, f3 = (rng.choice(forms) for _ in range(3))
            assert compose(f1, f2) == compose(f2, f1)
            assert compose(compose(f1, f2), f3) == compose(f1, compose(f2, f3))
            assert compose(f1, e) == f1
            assert compose(f1, f1.opposite()) == e
            assert compose(f1, f2) in forms


def test_form_pow_matches_repeated_compose():
    g = QuadForm(2, 1, 3)
    acc = principal_form(-23)
    for n in range(7):
        assert form_pow(g, n) == acc
        acc = compose(acc, g)


# --- ideal <-> form dictionary ---------------------------------------------

def test_ideal_form_round_trip():
    for f in (F1, F5, F23):
        for ideal in hnf_triples_brute(f, 60):
            q = ideal_to_form(ideal)
            assert q.disc == f.disc
            back = form_to_ideal(q, f)
            # round trip preserves the class, not necessarily the ideal
            assert ideal_class_form(back) == ideal_class_form(ideal)


def test_form_to_ideal_real_round_trip():
    # every keyed form (a > 0) of every class maps to an ideal of its class;
    # real class forms compare through vectors, as reduce_form's form
    # depends on where rho enters the cycle
    for d in (10, 79, 223, 2):
        f = make_field(d)
        group = class_group(f)
        assert len(set(group.coords.values())) == class_number(f), d
        for q, vec in group.coords.items():
            assert group.vector(form_to_ideal(QuadForm(*q), f)) == vec, (d, q)
    f10 = make_field(10)
    assert form_to_ideal(class_group(f10).identity, f10).norm == 1
    with pytest.raises(DomainError, match="a > 0, not a = -3"):
        form_to_ideal(QuadForm(-3, 2, 3), f10)


def test_ideal_form_maps_refuse_q():
    q = rational_field()
    with pytest.raises(DomainError, match="Q has no binary quadratic forms"):
        ideal_to_form(primes_above(5, q)[0].ideal)
    with pytest.raises(DomainError, match="does not match the field"):
        form_to_ideal(QuadForm(1, 1, 0), q)


def test_ideal_class_form_is_class_invariant():
    # multiplying by a principal ideal never moves the class
    rng = random.Random(37)
    for f in (F5, F23):
        ideals = hnf_triples_brute(f, 40)
        for _ in range(50):
            i = rng.choice(ideals)
            e = f.element(rng.randint(-8, 8), rng.randint(-8, 8))
            if e.is_zero():
                continue
            assert ideal_class_form(ideal_mul(i, principal_ideal(e))) == ideal_class_form(i)


def test_class_form_homomorphism():
    rng = random.Random(41)
    for f in (F5, F23):
        ideals = hnf_triples_brute(f, 40)
        for _ in range(50):
            i1, i2 = rng.choice(ideals), rng.choice(ideals)
            assert ideal_class_form(ideal_mul(i1, i2)) == reduce_form(
                compose(ideal_class_form(i1), ideal_class_form(i2))
            )


# --- principality ----------------------------------------------------------

def test_is_principal_examples():
    p2 = primes_above(2, F5)[0].ideal
    ok, gen = is_principal(p2)
    assert not ok and gen is None
    ok, gen = is_principal(principal_ideal(F5.element(1, 1)))
    assert ok and is_associated(gen, F5.element(1, 1))
    ok, gen = is_principal(ideal_mul(p2, p2))
    assert ok and is_associated(gen, F5.element(2))
    # the unit ideal's form is (1, b, c): the rho-walk stops at once, at 1
    for f in (F5, make_field(10), make_field(79), rational_field()):
        assert is_principal(unit_ideal(f)) == (True, f.one), f.label()


def test_is_principal_cache_is_bounded():
    # one entry per distinct ideal asked about: a long run must not grow it
    # without end
    maxsize = is_principal.cache_parameters()["maxsize"]
    assert maxsize is not None and 0 < maxsize <= 2**20


def test_is_principal_agrees_with_generator_search():
    for f in (F1, F5, F23, make_field(2), make_field(10)):
        for ideal in hnf_triples_brute(f, 30):
            ok, gen = is_principal(ideal)
            if ok:
                assert gen is not None and principal_ideal(gen) == ideal
            else:
                assert gen is None
            assert ok == is_principal_class(ideal)
    # imaginary fields against the ellipse scan, which shares no code with
    # the rho-walk; the walk's own non-principal answer is checked directly,
    # as is_principal reads the class vector first
    for d in (-1, -3, -5, -23):
        f = make_field(d)
        for ideal in hnf_triples_brute(f, 60):
            expected, scan_gen = principal_by_unit_band(ideal)
            ok, gen = is_principal(ideal)
            assert ok == expected == _principal_walk(ideal)[0], (d, ideal)
            assert gen is None if not ok else is_associated(gen, scan_gen), (d, ideal)


def test_real_field_classes_match_unit_band_oracle():
    # the rho-cycle class group and walk against the unit-band scan, which
    # shares no code with them; N(eps) = +1 for d = 3, 6, 7, 15, 34, 79,
    # where a narrow class group would split every class in two
    for d in (2, 3, 5, 6, 7, 10, 15, 34, 79, 82, 226, 229, 401):
        f = make_field(d)
        group = class_group(f)
        ideals = hnf_triples_brute(f, 120)
        for ideal in ideals:
            expected = principal_by_unit_band(ideal)[0]
            ok, gen = is_principal(ideal)
            assert ok == expected == is_principal_class(ideal), (d, ideal)
            # is_principal reads the class vector first, so the walk's own
            # closed-cycle answer is checked here directly
            assert _principal_walk(ideal)[0] == expected, (d, ideal)
            assert (not any(group.vector(ideal))) == expected, (d, ideal)
            assert gen is None if not ok else principal_ideal(gen) == ideal, (d, ideal)
        # a homomorphism whose kernel is the principal ideals: one vector per class
        for i in ideals[:40]:
            for j in ideals[:40]:
                assert group.vector(ideal_mul(i, j)) == group.add(
                    group.vector(i), group.vector(j)
                ), (d, i, j)
        assert len({group.vector(i) for i in ideals}) == class_number(f), d


def test_real_class_group_near_1e9_is_fast():
    # about 2 * 10^4 to 6 * 10^4 keyed forms each
    for d, invariants in ((999999937, ()), (934285249, (2,)), (962494814, (2, 2, 2))):
        f = make_field(d)
        start = time.perf_counter()
        group = class_group(f)
        assert time.perf_counter() - start < 2.0, d
        assert group.invariants == invariants, d
        for p in primes_trial(200):
            for prime in primes_above(p, f):
                assert group.prime_vector(prime) == group.vector(prime.ideal), (d, p)


def test_real_non_principal_read_off_class_vector():
    # the rho-cycle of the prime above 2 in Q(sqrt 934285249) (h = 2) is
    # long (walking it takes about 0.7 s); the class vector answers at once
    f = make_field(934285249)
    class_group(f)
    p2 = primes_above(2, f)[0].ideal
    start = time.perf_counter()
    assert is_principal(p2) == (False, None)
    assert time.perf_counter() - start < 0.05


def test_real_field_principality_examples():
    # d = 10 has class number 2; the prime above 2 is non-principal
    f10 = make_field(10)
    p2 = primes_above(2, f10)[0].ideal
    ok, _ = is_principal(p2)
    assert not ok
    ok, gen = is_principal(ideal_mul(p2, p2))
    assert ok and is_associated(gen, f10.element(2))
    # d = 2 is a PID: everything with small norm is principal
    f2 = make_field(2)
    assert all(is_principal(i)[0] for i in hnf_triples_brute(f2, 30))


# --- class group structure -------------------------------------------------

def test_class_number_examples():
    assert class_number(F1) == 1
    assert class_number(F5) == 2
    assert class_number(F23) == 3
    assert class_number(make_field(-47)) == 5
    # real fields: the wide class group (a narrow one reads 2 for d = 3, 6, 7)
    for ds, h in (((2, 3, 5, 6, 7), 1), ((10, 15, 34), 2), ((79,), 3), ((82,), 4),
                  ((401,), 5), ((226,), 8)):
        for d in ds:
            assert class_number(make_field(d)) == h, d


def test_class_group_structure_examples():
    assert class_group_structure(F1).invariants == ()
    assert class_group_structure(F5).invariants == (2,)
    assert class_group_structure(F23).invariants == (3,)
    # d = -21: Klein four group
    assert class_group_structure(make_field(-21)).invariants == (2, 2)
    # d = -30: also (2, 2); d = -47: cyclic of order 5
    assert class_group_structure(make_field(-30)).invariants == (2, 2)
    assert class_group_structure(make_field(-47)).invariants == (5,)
    # d = -89: cyclic of order 12
    assert class_group_structure(make_field(-89)).invariants == (12,)


def test_class_group_order_matches_class_number():
    for d in (-1, -5, -21, -23, -30, -47, -89, -101, -14, -26):
        f = make_field(d)
        assert class_group_structure(f).order == class_number(f)


def test_class_group_matches_counting_oracle():
    # every squarefree d in [-2000, -1], and the rank 4, 4 and 5 groups of
    # d = -1365, -4641, -30030
    ds = [d for d in range(-1, -2001, -1) if is_squarefree(d)] + [-4641, -30030]
    ranks = {}
    for d in ds:
        f = make_field(d)
        group = class_group(f)
        forms = reduced_forms(f.disc)
        assert set(group.coords) == set(forms), d
        assert len(set(group.coords.values())) == len(forms), d
        assert group.invariants == class_invariants_by_counting(f.disc), d
        assert group.coords[group.identity] == (0,) * len(group.invariants)
        ranks[d] = len(group.invariants)
    assert (ranks[-1365], ranks[-4641], ranks[-30030]) == (4, 4, 5)


def test_class_group_takes_h_minus_one_compositions(monkeypatch):
    # each class but the identity is reached by one product, through the
    # module's compose (the name the benchmark tracer wraps)
    calls = []
    traced = classgroup.compose

    def counted(f1, f2):
        calls.append(1)
        return traced(f1, f2)

    monkeypatch.setattr(classgroup, "compose", counted)
    for d in (-5, -221, -3299, -6631, 79, 226, 962494814):
        class_group.cache_clear()
        calls.clear()
        h = class_number(make_field(d))
        assert h > 1 and len(calls) == h - 1, d


def test_class_group_builds_no_ideal(monkeypatch):
    # generating primes are classed from (p, b), with no HNF ideal or
    # ideal_to_form on the way
    def refuse(ideal):
        raise AssertionError("class_group built an ideal's form")

    monkeypatch.setattr(classgroup, "ideal_to_form", refuse)
    for d, invariants in ((-5, (2,)), (-221, (2, 8)), (-6631, (44,)), (79, (3,)),
                          (962494814, (2, 2, 2))):
        class_group.cache_clear()
        assert class_group(make_field(d)).invariants == invariants, d


def test_class_vectors_are_a_homomorphism():
    rng = random.Random(43)
    for d in (-5, -23, -89, -1365, -4641):
        f = make_field(d)
        group = class_group(f)
        ideals = hnf_triples_brute(f, 40)
        for _ in range(60):
            i1, i2 = rng.choice(ideals), rng.choice(ideals)
            assert group.vector(ideal_mul(i1, i2)) == group.add(
                group.vector(i1), group.vector(i2)
            )


def test_conjugate_prime_vectors_cancel():
    for d in (-5, -14, -23, -1365):
        f = make_field(d)
        group = class_group(f)
        zero = (0,) * len(group.invariants)
        split = 0
        for p in primes_trial(1000):
            primes = primes_above(p, f)
            if primes[0].kind != "split":
                continue
            split += 1
            v, w = (group.vector(prime.ideal) for prime in primes)
            assert group.add(v, w) == zero and group.neg(v) == w, (d, p)
        assert split > 50


def test_prime_vectors_match_hnf_form_path():
    # the (p, b) path and vector(prime.ideal) against the HNF path through
    # reduce_form: HNF -> ideal_class_form -> coords
    for d in (-1, -3, -5, -14, -23, -221, -1155):
        f = make_field(d)
        group = class_group(f)
        kinds = set()
        for p in primes_trial(3000):
            for prime in primes_above(p, f):
                kinds.add(prime.kind)
                want = group.coords[ideal_class_form(prime.ideal)] if group.invariants else ()
                assert group.prime_vector(prime) == want, (d, p, prime.b)
                assert group.vector(prime.ideal) == want, (d, p, prime.b)
        assert kinds == {"split", "inert", "ramified"}, d


def test_class_lookup_miss_is_an_internal_invariant_error():
    # a form that reduces to no keyed class raises InternalInvariantError,
    # which the CLI turns into exit 3, and not a bare KeyError; vector and
    # prime_vector share the lookup
    group = class_group(F5)
    missing = ClassGroup(group.identity, group.invariants, {group.identity: (0,)})
    prime = primes_above(3, F5)[0]  # not principal
    for lookup in (lambda: missing.vector(prime.ideal), lambda: missing.prime_vector(prime)):
        with pytest.raises(InternalInvariantError, match="no class of the group"):
            lookup()
    assert missing.vector(principal_ideal(F5.element(3, 1))) == (0,)
    inert = primes_above(11, F5)[0]
    assert inert.kind == "inert" and missing.prime_vector(inert) == (0,)


def test_split_upto_classes_match_per_prime_oracle():
    # when Cl(K) is 2-torsion the residue table answers (f, k, g) for every
    # later prime of a residue (genus theory), else for inert residues only;
    # the oracle splits and reduces every p.  With no group it answers
    # (f, k) for every residue, and g is None.  kappa on both sides of |D|
    # (the table is kept only when |D| < kappa) and at 3|D|, in every field
    # with |d| < 400, in Z/2^3, Z/2^4, real Z/2^2, Z/2 x Z/8, real Z/3 and Q
    ds = [d for d in range(-399, 400) if d not in (0, 1) and is_squarefree(d)]
    for f in [make_field(d) for d in ds + [-1155, -1365, 210, -221, 79]] + [rational_field()]:
        d, m = f.d, abs(f.disc)
        for kappa in (m - 1, m + 1, 3 * m):
            for group in (class_group(f), None):
                got = list(_split_upto(f, kappa, group is not None))
                want = list(split_per_prime(f, kappa, group))
                assert [t[:4] for t in got] == [t[:4] for t in want], (d, kappa, group is None)
                for (_, _, _, g, above), (*_, split) in zip(got, want):
                    assert above in (None, split) and (g is None) == (group is None), (d, kappa)


def test_split_upto_sign_classes_match_per_prime_oracle_up_to_sign():
    # a caller that reads classes only up to sign also takes a residue's
    # first answer where its genus fixes the pair {g, -g} but not g: at the
    # classes of order 4 of (Z/2)^r x Z/4.  Against the oracle, which splits
    # and reduces every p, f, k and the split lists match exactly and g as
    # {g, -g}, in the fields of the exact test and in Z/2^r x Z/4 for
    # r = 0, 1, 2, 3 (-14, 82; -65, 399; -285, 4810; -1785); only those
    # groups ever give the class of the other prime
    ds = [d for d in range(-399, 400) if d not in (0, 1) and is_squarefree(d)]
    flipped = set()
    for f in [make_field(d) for d in ds + [-1155, -1365, 210, -221, 79, -1785, 4810]]:
        d, m, group = f.d, abs(f.disc), class_group(f)
        for kappa in (m - 1, m + 1, 3 * m):
            got = list(_split_upto(f, kappa, True, upto_sign=True))
            want = list(split_per_prime(f, kappa, group))
            assert [t[:3] for t in got] == [t[:3] for t in want], (d, kappa)
            for (_, _, _, g, above), (*_, h, split) in zip(got, want):
                assert g in (h, group.neg(h)) and above in (None, split), (d, kappa)
                if g != h:
                    flipped.add(group.invariants)
    assert flipped == {(4,), (2, 4), (2, 2, 4), (2, 2, 2, 4)}


def test_split_upto_takes_square_roots_by_residue(monkeypatch):
    # in Z/2 (d = -5, |D| = 20) a pass takes one square root per residue,
    # whichever consumer runs it.  In Z/4 (d = -14) a consumer that reads
    # exact classes takes one per split p, and only an inert residue seen
    # before skips its square root.  One that reads classes up to sign takes
    # one per residue of a class of order 4, whose genus fixes {g, -g}, and
    # still one per split p of the principal genus {0, 2}.  The prime
    # ideals, which read no class, take one per residue
    from atomzeta import ideals
    from atomzeta.series import _all_atoms, divergence_table, parse_aset

    calls = []
    sqrt = ideals.sqrt_mod_prime
    monkeypatch.setattr(ideals, "sqrt_mod_prime", lambda n, p: calls.append(p) or sqrt(n, p))
    kappa, half = 10**5, Fraction(1, 2)
    for d in (-5, -14):
        f = make_field(d)
        group = class_group(f)
        m, zero = abs(f.disc), (0,) * len(group.invariants)
        genera = set(group.invariants) <= {2}
        want = {"exact": 0, "sign": 0, "residue": 0}  # square roots by consumer
        seen = {mode: set() for mode in want}
        for p in primes_trial(kappa)[1:]:  # p = 2 takes no square root
            split = kronecker_symbol(f.disc, p) == 1
            g = group.vector(primes_above(p, f)[0].ideal)
            fixed = genera or not split
            for mode, by_residue in (
                ("exact", fixed), ("sign", fixed or group.add(g, g) != zero), ("residue", True),
            ):
                if by_residue and m % p:
                    if p % m in seen[mode]:
                        continue
                    seen[mode].add(p % m)
                want[mode] += 1
        assert want["residue"] <= m and (want["sign"] == want["exact"]) == genera, (d, want)
        consumers = (
            ("exact", lambda: list(_split_upto(f, kappa, True))),
            ("exact", lambda: list(_all_atoms(f, kappa, []))),
            ("sign", lambda: list(_split_upto(f, kappa, True, upto_sign=True))),
            ("sign", lambda: list(_all_atoms(f, kappa))),
            ("sign", lambda: divergence_table(f, parse_aset("atoms-dividing:primes"), half, [kappa])),
            ("residue", lambda: divergence_table(f, parse_aset("prime-ideals"), half, [kappa])),
        )
        for mode, consume in consumers:
            calls.clear()
            consume()
            assert len(calls) == want[mode], (d, mode)


def test_split_upto_table_is_one_byte_per_residue():
    # |D| = 999995 just under kappa = 10^6 keeps the table, kappa = |D| does
    # not; the memory live at the first prime differs by the table, about one
    # byte per residue (a list of |D| slots would take eight), and the table
    # is no longer than twice the sieve's mask of (kappa + 1) // 2 bytes
    f = make_field(-999995)
    class_group(f)
    m = abs(f.disc)

    def live(kappa):
        tracemalloc.start()
        try:
            stream = _split_upto(f, kappa, True)
            next(stream)
            return tracemalloc.get_traced_memory()[0], stream.gi_frame.f_locals["table"]
        finally:
            tracemalloc.stop()

    with_table, table = live(10**6)
    without, none = live(m)
    assert none is None and isinstance(table, bytearray)
    assert len(table) == m <= 2 * ((10**6 + 1) // 2)
    assert m < with_table - without < 1.05 * m


def test_abelian_group_spec_validation():
    AbelianGroupSpec((2, 4))
    with pytest.raises(Exception):
        AbelianGroupSpec((4, 2))
    with pytest.raises(Exception):
        AbelianGroupSpec((2, 3))
    assert AbelianGroupSpec(()).order == 1 and AbelianGroupSpec(()).rank == 0


# --- Davenport constants ---------------------------------------------------

def test_davenport_trivial_and_cyclic():
    assert davenport_constant(AbelianGroupSpec(())) == 1
    for n in (2, 3, 5, 12, 36):
        assert davenport_constant(AbelianGroupSpec((n,))) == n


def test_davenport_rank_two_formula():
    # D(Z/m x Z/n) = m + n - 1 for m | n
    for m, n in ((2, 2), (2, 4), (3, 3), (2, 6), (3, 6)):
        assert davenport_constant(AbelianGroupSpec((m, n))) == m + n - 1


def test_davenport_rank_three():
    # D((Z/2)^3) = 4, a classical value beyond the rank-2 formula
    assert davenport_constant(AbelianGroupSpec((2, 2, 2))) == 4
    # D(C2 x C2 x C2n) = 2n + 2, p-group or not; davenport_brute checks
    # (2, 2, 6) below, and gives 12 for (2, 2, 10) in about 30 s
    for n in (2, 3, 5, 7):
        assert davenport_constant(AbelianGroupSpec((2, 2, 2 * n))) == 2 * n + 2


def _invariant_chains(max_order, prefix=(), order=1):
    """Invariant factors m1 | m2 | ... of every abelian group of order <= max_order."""
    yield prefix
    last = prefix[-1] if prefix else 1
    for m in range(max(2, last), max_order // order + 1, last):
        yield from _invariant_chains(max_order, prefix + (m,), order * m)


def test_davenport_matches_brute_oracle_up_to_order_24():
    groups = list(_invariant_chains(24))
    assert len(groups) == 37
    assert {(2, 2, 2, 2), (2, 2, 4), (2, 2, 6)} <= set(groups)
    for inv in groups:
        assert davenport_constant(AbelianGroupSpec(inv)) == davenport_brute(inv), inv


def test_davenport_search_cap_raises_at_once():
    # rank >= 3, not a p-group and not Z/2 x Z/2 x Z/2n: no closed form
    for inv, name in (((2, 2, 2, 6), "Z/2 x Z/2 x Z/2 x Z/6"), ((3, 3, 6), "Z/3 x Z/3 x Z/6")):
        start = time.perf_counter()
        with pytest.raises(CapExceededError, match=name):
            davenport_constant(AbelianGroupSpec(inv))
        assert time.perf_counter() - start < 1.0


def test_davenport_search_keeps_recursion_limit():
    before = sys.getrecursionlimit()
    assert davenport_constant(AbelianGroupSpec((2, 2, 6))) == 8
    assert sys.getrecursionlimit() == before
