import random

import pytest

from atomzeta.errors import (
    InvalidDError,
    MixedFieldError,
    NotSquarefreeError,
    ZeroElementError,
)
from atomzeta.ring import (
    RingElement,
    canonical_associate,
    divides,
    exact_div,
    fundamental_unit,
    is_associated,
    make_field,
    rational_field,
    roots_of_unity,
)
from oracles import fundamental_unit_pell, pell_brute

F1 = make_field(-1)
F3 = make_field(-3)
F5 = make_field(-5)
F2 = make_field(2)


def test_make_field_examples():
    assert F1.disc == -4 and not F1.half_basis
    assert F3.disc == -3 and F3.half_basis
    assert make_field(13).disc == 13 and make_field(13).half_basis
    # interned: one object per field, so equality and hashing are by identity
    assert make_field(-5) is F5 and make_field(2) is F2 and F5 != F1
    with pytest.raises(NotSquarefreeError):
        make_field(12)
    for d in (0, 1):
        with pytest.raises(InvalidDError):
            make_field(d)


def test_rational_field_degenerate():
    q = rational_field()
    assert rational_field() is q and q != F1
    assert q.degree == 1 and q.disc == 1
    assert q.element(7).norm() == 7
    assert q.element(-1).is_unit()
    # y = 0 throughout: conj fixes every element and str prints x alone
    assert q.element(-7).conj() == q.element(-7) and str(q.element(-7)) == "-7"


def test_arithmetic_examples():
    assert F1.element(1, 1) * F1.element(1, -1) == F1.element(2)
    # w^2 = w - 1 in the d = -3 basis
    assert F3.omega * F3.omega == F3.element(-1, 1)
    assert F1.element(2, 1).conj() == F1.element(2, -1)
    with pytest.raises(MixedFieldError):
        F1.element(1) + F5.element(1)


def test_norm_examples():
    assert F1.element(2, 1).norm() == 5
    assert F5.element(1, 1).norm() == 6
    assert make_field(13).element(0, 1).norm() == -3


def test_minimal_poly_examples():
    assert F1.omega.minimal_poly() == (1, 0, 1)  # X^2 + 1
    e = F1.element(7)
    assert e.minimal_poly() == (-7, 1)
    assert 7 ** (F1.degree // 1) == 49 == abs(e.norm())  # degenerate degree-1 case
    assert F1.element(2, 1).minimal_poly() == (5, -4, 1)


def test_minimal_poly_norm_identity_random():
    # |f_e(0)|^(n / deg f_e) = |N(e)| for 1000 random elements
    rng = random.Random(7)
    fields = [F1, F3, F5, F2, make_field(13)]
    for _ in range(1000):
        f = rng.choice(fields)
        e = f.element(rng.randint(-50, 50), rng.randint(-50, 50))
        if e.is_zero():
            continue
        poly = e.minimal_poly()
        deg = len(poly) - 1
        assert abs(poly[0]) ** (f.degree // deg) == abs(e.norm())


def test_is_unit_examples():
    assert F1.omega.is_unit()
    assert F2.element(1, 1).is_unit()  # N = -1
    assert not F5.element(2).is_unit()


def test_fundamental_unit_examples():
    assert fundamental_unit(F2) == F2.element(1, 1)
    assert fundamental_unit(make_field(5)) == make_field(5).element(0, 1)
    f13 = make_field(13)
    eps = fundamental_unit(f13)
    assert eps == f13.element(1, 1)
    assert eps.norm() == -1


def test_fundamental_unit_matches_brute_scan():
    from atomzeta.ring import is_squarefree

    for d in range(2, 101):
        if not is_squarefree(d):
            continue
        f = make_field(d)
        assert fundamental_unit(f) == pell_brute(f), d


def test_fundamental_unit_matches_pell_cube_root_oracle():
    from atomzeta.ring import is_squarefree

    for d in range(2, 5000):
        if is_squarefree(d):
            f = make_field(d)
            assert fundamental_unit(f) == fundamental_unit_pell(f), d


def test_divides_examples():
    assert divides(F5.element(1, 1), F5.element(6))
    assert exact_div(F5.element(6), F5.element(1, 1)) == F5.element(1, -1)
    assert not divides(F5.element(2), F5.element(5))
    assert divides(F1.element(1), F1.element(3, 4))
    with pytest.raises(ZeroElementError):
        divides(F1.zero, F1.element(1))


def test_canonical_associate_examples():
    assert canonical_associate(F1.element(1, -1)) == canonical_associate(F1.element(1, 1))
    assert canonical_associate(F2.element(3, 2)) == F2.one  # (1+sqrt2)^2
    e = F5.element(3, 2)
    assert canonical_associate(canonical_associate(e)) == canonical_associate(e)
    with pytest.raises(ZeroElementError):
        canonical_associate(F1.zero)


def test_norm_multiplicative_random():
    rng = random.Random(11)
    for f in (F1, F3, F5, F2, make_field(13)):
        for _ in range(200):
            e1 = f.element(rng.randint(-30, 30), rng.randint(-30, 30))
            e2 = f.element(rng.randint(-30, 30), rng.randint(-30, 30))
            assert (e1 * e2).norm() == e1.norm() * e2.norm()


def test_conj_is_ring_automorphism():
    rng = random.Random(13)
    for f in (F1, F3, F5, F2, make_field(13)):
        for _ in range(100):
            e1 = f.element(rng.randint(-30, 30), rng.randint(-30, 30))
            e2 = f.element(rng.randint(-30, 30), rng.randint(-30, 30))
            assert (e1 * e2).conj() == e1.conj() * e2.conj()
            assert e1 * e1.conj() == f.element(e1.norm())


def test_unit_group_soundness():
    for f in (F1, F3, F5):
        for u in roots_of_unity(f):
            assert abs(u.norm()) == 1
            assert exact_div(f.one, u) is not None
    for d in (2, 3, 5, 13):
        f = make_field(d)
        eps = fundamental_unit(f)
        assert abs(eps.norm()) == 1
        assert exact_div(f.one, eps) is not None


def test_associates_map_to_equal_canonicals():
    rng = random.Random(17)
    for f in (F1, F3, F5):
        units = roots_of_unity(f)
        for _ in range(100):
            e = f.element(rng.randint(-20, 20), rng.randint(-20, 20))
            if e.is_zero():
                continue
            for u in units:
                assert is_associated(e, e * u)
    for d in (2, 13):
        f = make_field(d)
        eps = fundamental_unit(f)
        for _ in range(50):
            e = f.element(rng.randint(-20, 20), rng.randint(-20, 20))
            if e.is_zero():
                continue
            assert is_associated(e, e * eps)
            assert is_associated(e, -e)


@pytest.mark.parametrize("field", [rational_field(), F5, make_field(10)], ids=("Q", "d=-5", "d=10"))
def test_pow_matches_repeated_multiplication(field):
    for x, y in ((2, 0), (-3, 0), (1, 1), (-2, 3), (5, -4)):
        if field.is_rational and y:
            continue
        e = field.element(x, y)
        out = field.one
        for n in range(13):
            assert e**n == out, (e, n)
            out = out * e


def test_pow_squares_no_further_than_the_top_bit(monkeypatch):
    products = []
    mul = RingElement.__mul__

    def counted(a, b):
        products.append(1)
        return mul(a, b)

    monkeypatch.setattr(RingElement, "__mul__", counted)
    e = F5.element(1, 1)
    for n, cost in ((0, 0), (1, 0), (2, 1), (8, 3)):
        products.clear()
        e**n
        assert len(products) == cost, n
