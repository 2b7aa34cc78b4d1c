import random
from collections import Counter
from itertools import repeat

import pytest

from atomzeta import atoms
from atomzeta.atoms import (
    _atom_generator,
    _atom_walk,
    _box_atoms,
    atom_ideals_dividing,
    atoms_dividing,
    factor_into_atoms,
    is_atom,
    verify_norm_identity,
)
from atomzeta.classgroup import class_group
from atomzeta.errors import InternalInvariantError, UnitElementError, ZeroElementError
from atomzeta.ideals import _factor_rational, _prime_pool, primes_above, principal_ideal
from atomzeta.ring import canonical_associate, is_associated, make_field, rational_field
from atomzeta.series import atom_census, build_ideal_set, parse_aset
from atomzeta.sieve import primes_upto
from oracles import (
    atom_walk_direct,
    atoms_dividing_brute,
    factor_scan,
    is_atom_brute,
    reps_by_norm,
)

F1 = make_field(-1)
F5 = make_field(-5)

TABLES = {f: reps_by_norm(f, 60) for f in (F1, F5, make_field(-23), make_field(10))}


def test_is_atom_examples():
    assert is_atom(F1.element(1, 1))  # 1 + i, norm 2
    assert is_atom(F1.element(3))  # 3 inert in Q(i)
    assert not is_atom(F1.element(5))  # 5 = (2+i)(2-i)
    assert not is_atom(F1.element(0, 2))
    assert not is_atom(F1.one) and not is_atom(F1.omega)
    with pytest.raises(ZeroElementError):
        is_atom(F1.zero)


def test_is_atom_nonprincipal_field_examples():
    # the classical non-unique factorization 6 = 2 * 3 = (1+w)(1-w) in Z[sqrt(-5)]
    for e in (F5.element(2), F5.element(3), F5.element(1, 1), F5.element(1, -1)):
        assert is_atom(e)
    assert not is_atom(F5.element(6))
    # norm 9 atoms: 3 and 2 +- w (the split primes above 3 are non-principal)
    assert is_atom(F5.element(2, 1)) and is_atom(F5.element(3))


def test_is_atom_matches_brute_oracle():
    for f, table in TABLES.items():
        for reps in table.values():
            for e in reps:
                assert is_atom(e) == is_atom_brute(e, table), (f.d, e)


def test_factor_into_atoms_examples():
    fz = factor_into_atoms(F1.element(5))
    assert fz.value() == F1.element(5)
    assert sorted(abs(a.norm()) for a, e in fz.factors for _ in range(e)) == [5, 5]
    fz = factor_into_atoms(F5.element(6))
    assert fz.value() == F5.element(6)
    assert verify_norm_identity(6, fz)
    with pytest.raises(UnitElementError):
        factor_into_atoms(F1.omega)
    with pytest.raises(ZeroElementError):
        factor_into_atoms(F1.zero)


def test_factor_into_atoms_random_round_trip():
    rng = random.Random(43)
    for f in (F1, F5, make_field(-23), make_field(2), make_field(10)):
        for _ in range(40):
            e = f.element(rng.randint(-12, 12), rng.randint(-12, 12))
            if e.is_zero() or e.is_unit():
                continue
            fz = factor_into_atoms(e)
            assert fz.value() == e
            assert fz.unit.is_unit()
            for atom, k in fz.factors:
                assert k >= 1
                assert is_atom(atom)
                assert atom == canonical_associate(atom)


def test_factor_into_atoms_matches_scan_oracle():
    # the least principal sub-product by (size, exponents), round after round
    rng = random.Random(6)
    for d in (-1, -5, -14, -23, 2, 3, 5, 10):
        f = make_field(d)
        sample = [f.element(rng.randint(2, 600)) for _ in range(15)]
        while len(sample) < 40:
            e = f.element(rng.randint(-16, 16), rng.randint(-16, 16))
            if not (e.is_zero() or e.is_unit()):
                sample.append(e)
        for e in sample:
            assert factor_into_atoms(e) == factor_scan(e), (d, e)


def _cache_sample():
    # every non-unit x + y*w with |x|, |y| <= 6 in four fields
    for d in (-5, -14, 10, 79):
        f = make_field(d)
        for x in range(-6, 7):
            for y in range(-6, 7):
                e = f.element(x, y)
                if not (e.is_zero() or e.is_unit()):
                    yield e


def test_atom_generator_cache_changes_no_factorization():
    cold = []
    for e in _cache_sample():
        _atom_generator.cache_clear()
        cold.append(factor_into_atoms(e))
    _atom_generator.cache_clear()
    for e in _cache_sample():
        factor_into_atoms(e)
    warm = [factor_into_atoms(e) for e in _cache_sample()]
    assert warm == cold
    assert _atom_generator.cache_info().maxsize is not None


def test_atom_generator_asks_once_per_distinct_atom(monkeypatch):
    asked = Counter()
    principal = atoms.is_principal

    def counted(ideal):
        asked[ideal] += 1
        return principal(ideal)

    monkeypatch.setattr(atoms, "is_principal", counted)
    _atom_generator.cache_clear()
    found = set()
    for e in _cache_sample():
        found.update(principal_ideal(a) for a, _ in factor_into_atoms(e).factors)
    _atom_generator.cache_clear()  # drop generators cached through the counter
    assert set(asked) == found
    assert set(asked.values()) == {1}
    assert sum(asked.values()) < sum(1 for _ in _cache_sample())


def test_atom_generator_refuses_a_non_principal_product_every_time():
    # an error is not cached: the second call checks again
    prime = primes_above(2, F5)[0]  # the prime above 2 in Q(sqrt(-5)) is not principal
    for _ in range(2):
        with pytest.raises(InternalInvariantError, match="no generator"):
            _atom_generator(((prime, 1),))


def test_d79_atoms_match_oracles_past_the_scan_cap():
    # h = 3 and eps = 80 + 9 sqrt(79): the primes above q = 5501 and
    # r = 5507 are non-principal, and (q) = Q Q' and (q r) have sub-products
    # of norm about 3 * 10^7, past the reach of a unit-band scan (y > 10^5)
    f = make_field(79)
    table = reps_by_norm(f, 60)
    for reps in table.values():
        for e in reps:
            assert is_atom(e) == is_atom_brute(e, table), e
    rng = random.Random(79)
    sample = [f.element(m) for m in (5501, 5501 * 5507, 2 * 5501, 3 * 5507)]
    sample += [f.element(rng.randint(2, 600)) for _ in range(15)]
    while len(sample) < 40:
        e = f.element(rng.randint(-16, 16), rng.randint(-16, 16))
        if not (e.is_zero() or e.is_unit()):
            sample.append(e)
    for e in sample:
        fz = factor_scan(e)
        assert factor_into_atoms(e) == fz, e
        assert is_atom(e) == (len(fz.factors) == 1 and fz.factors[0][1] == 1), e
    assert is_atom(f.element(5501)) and not is_atom(f.element(5501 * 5507))


def test_atoms_dividing_examples():
    got = atoms_dividing(6, F5)
    assert [str(a) for a in got] == ["2", "1-√-5", "1+√-5", "3"]
    got = atoms_dividing(5, F1)
    assert len(got) == 2 and all(abs(a.norm()) == 5 for a in got)
    assert atoms_dividing(1, F1) == []


def test_atoms_dividing_matches_brute_oracle():
    for f, table in TABLES.items():
        for m in (2, 3, 5, 6, 7, 10, 12):
            got = atoms_dividing(m, f)
            brute = atoms_dividing_brute(m, f, table)
            assert len(got) == len(brute), (f.d, m)
            for a, b in zip(got, brute):
                assert is_associated(a, b), (f.d, m, str(a), str(b))


def test_atom_walk_step_table_matches_direct_walk():
    # the walk's step table against the walk that recomputes every node's
    # subsum set, on seeded random boxes of prime powers (a sorted sample
    # of the pool keeps a split prime next to its conjugate, as a
    # factorization does), on the census's whole pool with parts and by
    # norm alone; Z/2 x Z/8, Z/2 x Z/2 x Z/2, Z/3 x Z/9, Z/44 and the real
    # Z/3 and trivial group of d = 79 and 2
    rng = random.Random(22)
    for d in (-221, -1155, -3299, -6631, 79, 2):
        field = make_field(d)
        pool = _prime_pool(field, 400)
        for _ in range(40):
            picks = sorted(rng.sample(range(len(pool)), rng.randint(1, 6)))
            box = tuple((pool[i], rng.randint(1, 3)) for i in picks)
            full = 1
            for prime, e in box:
                full *= prime.norm**e
            for cap in (full, rng.randint(1, full)):
                got = Counter(_box_atoms(field, box, cap))
                assert got == Counter(atom_walk_direct(field, box, cap)), (d, box, cap)
        kappa = 3000
        box = tuple(zip(_prime_pool(field, kappa), repeat(kappa)))
        want = Counter(atom_walk_direct(field, box, kappa))
        assert Counter(_box_atoms(field, box, kappa)) == want, d
        norms = Counter(norm for norm, _ in want.elements())
        assert dict(atom_census(field, kappa).counts) == norms, d
    # a box of principal primes is its own atoms, and its walk has no
    # prime, so it builds no table: it never reads the class group
    group = class_group(F5)
    box = tuple((prime, 2) for prime in _prime_pool(F5, 200) if not any(group.prime_vector(prime)))
    assert len(box) > 2
    assert Counter(_box_atoms(F5, box, 10**9)) == Counter(atom_walk_direct(F5, box, 10**9))
    assert list(_atom_walk(None, [], 10**9)) == []
    # so the walk takes principal primes with no group at all, each an atom
    # with no frames at its input position, in any order, those of norm
    # above the cap left out
    principal = [(9, (0,), 3), (2, (0,), 1), (49, (0,), 2), (5, (0,), 1)]
    assert list(_atom_walk(None, principal, 10)) == [(9, (), 0, 1), (2, (), 1, 1), (5, (), 3, 1)]


def test_box_atoms_refuses_non_principal_primes_out_of_norm_order():
    # the walk stops at the first prime too large, so it needs its primes
    # in norm order; a box whose non-principal primes come out of it (here
    # the primes above 7 before those above 3 in Q(sqrt(-5))) raises
    # rather than missing atoms, while principal primes (29) may come
    # anywhere
    box = _factor_rational(F5, {29: 1, 7: 1, 3: 1})
    with pytest.raises(InternalInvariantError):
        list(_box_atoms(F5, box, 10**9))
    ordered = _factor_rational(F5, {3: 1, 7: 1, 29: 1})
    want = Counter(atom_walk_direct(F5, ordered, 10**9))
    assert Counter(_box_atoms(F5, ordered, 10**9)) == want
    assert {norm for norm, _ in want.elements()} == {9, 21, 29, 49}


def test_atom_walk_holds_at_most_davenport_minus_one_frames():
    # the frames the walk yields with each atom are the path to it: one
    # per distinct prime of the zero-sum-free box the atom's last copy
    # completes, so never more than D(G) - 1 of them; Z/2 x Z/8 (D = 9) and
    # Z/44 (D = 44) at kappa = 1e5, over every prime ideal, a principal one
    # being an atom with no frames
    kappa = 10**5
    for d, davenport in ((-221, 9), (-6631, 44)):
        field = make_field(d)
        group = class_group(field)
        walked = [(prime.norm, group.prime_vector(prime), kappa) for prime in _prime_pool(field, kappa)]
        deepest = 0
        for norm, frames, j, e in _atom_walk(group, walked, kappa):
            assert any(walked[j][1]) or (not frames and e == 1), (d, norm)
            assert len(frames) <= davenport - 1, (d, norm)
            assert [f[0] for f in frames] == sorted({f[0] for f in frames}) and all(
                f[0] < j for f in frames
            ), (d, norm)
            box = (frames[-1][2] if frames else 1) * walked[j][0] ** e
            assert box == norm and sum(f[1] for f in frames) + e <= davenport, (d, norm)
            deepest = max(deepest, len(frames))
        assert deepest >= 2, d


def test_atom_ideals_dividing_norm_cap():
    full = atom_ideals_dividing(6, F5)
    capped = atom_ideals_dividing(6, F5, norm_cap=5)
    assert capped == [i for i in full if i.norm <= 5]
    assert atom_ideals_dividing(6, F5, norm_cap=1) == []


def test_atom_ideals_dividing_prime_fast_path():
    # the read-off of the atoms dividing a prime from its splitting (the
    # atoms-dividing:primes set) must agree with the walk over the box of (p)
    kappa = 23 * 23
    for f in (F1, F5, make_field(-23), make_field(10), make_field(79), rational_field()):
        fast = build_ideal_set(f, parse_aset("atoms-dividing:primes"), kappa)
        slow = set()
        for p in primes_upto(kappa):
            for i in atom_ideals_dividing(p, f, norm_cap=kappa):
                assert (p * p) % i.norm == 0
                slow.add(i)
        assert fast == sorted(slow, key=lambda i: i.sort_key()), f.label()


def test_rational_field_atoms_are_primes():
    q = rational_field()
    assert [i.norm for i in atom_ideals_dividing(60, q)] == [2, 3, 5]
    assert [str(a) for a in atoms_dividing(60, q)] == ["2", "3", "5"]
    fz = factor_into_atoms(q.element(-12))
    assert fz.value() == q.element(-12)
    assert verify_norm_identity(12, fz)


def test_verify_norm_identity_detects_mismatch():
    fz = factor_into_atoms(F5.element(6))
    assert verify_norm_identity(6, fz)
    assert not verify_norm_identity(7, fz)
