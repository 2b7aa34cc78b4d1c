import random
import sys
import time

import pytest

from atomzeta.classgroup import (
    AbelianGroupSpec,
    QuadForm,
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
from atomzeta.errors import CapExceededError, RealFieldError
from atomzeta.ideals import ideal_mul, primes_above, principal_ideal
from atomzeta.ring import is_associated, is_squarefree, make_field
from oracles import (
    class_invariants_by_counting,
    davenport_brute,
    form_pow,
    hnf_triples_brute,
    primes_trial,
    reduced_forms,
    reduced_forms_brute,
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


def test_is_principal_agrees_with_generator_search():
    for f in (F1, F5, F23, make_field(2), make_field(10)):
        for ideal in hnf_triples_brute(f, 30):
            ok, gen = is_principal(ideal)
            if ok:
                assert gen is not None and principal_ideal(gen) == ideal
            else:
                assert gen is None
            if not f.is_real:
                assert ok == is_principal_class(ideal)


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
    with pytest.raises(RealFieldError):
        class_number(make_field(2))


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
    # D(C2 x C2 x C2n) = 2n + 2
    assert davenport_constant(AbelianGroupSpec((2, 2, 4))) == 6


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
    start = time.perf_counter()
    with pytest.raises(CapExceededError, match="Z/2 x Z/2 x Z/10"):
        davenport_constant(AbelianGroupSpec((2, 2, 10)))
    assert time.perf_counter() - start < 1.0


def test_davenport_search_keeps_recursion_limit():
    before = sys.getrecursionlimit()
    assert davenport_constant(AbelianGroupSpec((2, 2, 6))) == 8
    assert sys.getrecursionlimit() == before
