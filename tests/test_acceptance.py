"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines inline.
"""

import filecmp
import math
from fractions import Fraction

import mpmath

from atomzeta.atoms import atoms_dividing, factor_into_atoms, is_atom, verify_norm_identity
from atomzeta.classgroup import (
    AbelianGroupSpec,
    class_number,
    davenport_constant,
)
from atomzeta.cli import main as cli_main
from atomzeta.ring import is_squarefree, make_field
from atomzeta.series import (
    atom_census,
    build_ideal_set,
    divergence_table,
    euler_primes_sum,
    parse_aset,
    zeta_partial,
)
from oracles import (
    is_atom_brute,
    reduced_forms_brute,
    reps_by_norm,
)

CONFIGURED_DS = (-1, -2, -5, -6, 2, 3)


def _report(n: int, ok: bool, desc: str) -> bool:
    print(f"criterion {n}: {'PASS' if ok else 'FAIL'} — {desc}", flush=True)
    return ok


def test_criterion_1_oracle_irreducibility():
    ok = True
    for d in CONFIGURED_DS:
        f = make_field(d)
        table = reps_by_norm(f, 200)
        for reps in table.values():
            for e in reps:
                if is_atom(e) != is_atom_brute(e, table):
                    ok = False
    assert _report(1, ok, "is_atom agrees with the brute oracle, |N| <= 200, "
                   "d in {-1,-2,-5,-6,2,3}")


def test_criterion_2_norm_identity_end_to_end():
    ok = True
    for d in CONFIGURED_DS:
        f = make_field(d)
        for m in range(2, 1001):
            if not verify_norm_identity(m, factor_into_atoms(f.element(m))):
                ok = False
    assert _report(2, ok, "verify_norm_identity(m, factor_into_atoms(m)) "
                   "for all m in [2, 1000], all configured fields")


def test_criterion_3_nonunique_factorization_witness():
    f5 = make_field(-5)
    got = atoms_dividing(6, f5)
    expected = {
        str(a) for a in (f5.element(2), f5.element(3), f5.element(1, 1), f5.element(1, -1))
    }
    ok = (
        {str(a) for a in got} == expected
        and all(is_atom(a) for a in got)
        and f5.element(2) * f5.element(3) == f5.element(1, 1) * f5.element(1, -1)
    )
    assert _report(3, ok, "atoms_dividing(6) in d = -5 is exactly {2, 3, 1+-sqrt(-5)}")


def test_criterion_4_class_data():
    ok = True
    for d in range(-1, -201, -1):
        if not is_squarefree(d):
            continue
        f = make_field(d)
        if class_number(f) != len(reduced_forms_brute(f.disc)):
            ok = False
    ok = ok and class_number(make_field(-5)) == 2
    ok = ok and class_number(make_field(-23)) == 3
    for m1 in range(1, 7):
        for m2 in range(m1, 37):
            if m2 % m1 or m1 * m2 > 36:
                continue
            inv = () if m2 == 1 else ((m2,) if m1 == 1 else (m1, m2))
            expected = m2 if m1 == 1 else m1 + m2 - 1
            if davenport_constant(AbelianGroupSpec(inv)) != expected:
                ok = False
    assert _report(4, ok, "class numbers match the reduced-form oracle for "
                   "d = -1..-200; Davenport matches m1+m2-1 on rank <= 2, order <= 36")


def test_criterion_5_euler_mertens_desk_scale():
    lhs = float(euler_primes_sum(10**7) - euler_primes_sum(10**6))
    rhs = math.log(math.log(10**7)) - math.log(math.log(10**6))
    ok = abs(lhs - rhs) <= 0.02
    assert _report(5, ok, f"sum 1/p increment {lhs:.5f} vs log log increment "
                   f"{rhs:.5f} (within 0.02)")


GRID = [10**2, 10**3, 10**4, 10**5, 10**6]


def test_criterion_6_divergence_signal():
    ok = True
    for d in (-1, -5):
        table = divergence_table(
            make_field(d), parse_aset("atoms-dividing:primes"), Fraction(1, 2), GRID
        )
        sums = [r.partial_sum for r in table.rows]
        if sums != sorted(sums) or any(i < 0.1 for i in table.increments):
            ok = False
    hand = divergence_table(
        make_field(-1), parse_aset("atoms-dividing:primes"), Fraction(1, 2), [10]
    ).rows[0]
    ok = ok and hand.count == 4 and abs(float(hand.partial_sum) - 1.9349) < 5e-5
    assert _report(6, ok, "partial sums strictly increasing with per-decade "
                   "increment >= 0.1 up to kappa = 1e6; kappa = 10 hand value 1.9349")


def test_criterion_7_dirichlet_identity_bit_exact():
    ok = True
    kappa = 10**4
    for d in (-1, -5):
        f = make_field(d)
        ideals = build_ideal_set(f, parse_aset("all-atoms"), kappa)
        census = atom_census(f, kappa)
        for s in (Fraction(0), Fraction(1, 2), Fraction(1)):
            lhs, _ = zeta_partial(ideals, s, kappa)
            # independent accumulation over the census coefficients, using
            # the same grouped increasing-norm order
            with mpmath.workprec(100):
                if s == 0:
                    rhs = mpmath.mpf(sum(c for _, c in census.counts))
                else:
                    sexp = mpmath.mpf(s.numerator) / s.denominator
                    rhs = mpmath.mpf(0)
                    for n, c in census.counts:
                        rhs += c * mpmath.mpf(n) ** (-sexp)
            if not (lhs == rhs):
                ok = False
    assert _report(7, ok, "sum a_n n^-s is bit-identical to the all-atoms "
                   "partial sum at kappa = 1e4, s in {0, 1/2, 1}")


def test_criterion_8_census_values():
    # d = -5: 3 splits as pp' with both primes in the non-trivial class of
    # Cl = Z/2, so the ideals of norm 9 are pp' = (3), p^2 = (2+sqrt(-5))
    # and p'^2 = (2-sqrt(-5)). None has a proper principal factor (nothing
    # has norm 3), and the units are +-1, so a_9 = 3 -- counted the same way
    # as a_6 = 2 (1+sqrt(-5), 1-sqrt(-5)).
    c1 = atom_census(make_field(-1), 100)
    c5 = atom_census(make_field(-5), 100)
    got_d1 = (c1.a(2), c1.a(4), c1.a(5), c1.a(9))
    got_d5 = (c5.a(2), c5.a(4), c5.a(6), c5.a(9))
    ok = got_d1 == (1, 0, 2, 1) and got_d5 == (0, 1, 2, 3)
    assert _report(8, ok, "census values: d = -1 expects (1, 0, 2, 1) "
                   f"[got {got_d1}]; d = -5 expects (0, 1, 2, 3) [got {got_d5}]")


def test_criterion_8_census_against_element_scan_oracle():
    # supplementary: the census agrees with the exhaustive element-scan
    # oracle at small norms; it agrees with criterion 8 (a_9 = 3 for d = -5).
    # d = -105 has Cl = (Z/2)^3, so atoms there have up to 4 prime factors
    ok = True
    kappa = 5000
    for d in (-1, -5, -14, -23, -105):
        f = make_field(d)
        census = atom_census(f, kappa)
        table = reps_by_norm(f, kappa)
        for n in range(2, kappa + 1):
            brute = sum(
                1 for e in table.get(n, ()) if is_atom_brute(e, table)
            )
            if census.a(n) != brute:
                ok = False
    print(f"criterion 8 (oracle cross-check): {'PASS' if ok else 'FAIL'} — "
          f"census equals the element-scan oracle for n <= {kappa}", flush=True)
    assert ok


def test_criterion_9_thread_determinism(tmp_path):
    ok = True
    for d in (-1, -5):
        paths = []
        for threads in (1, 8):
            p = tmp_path / f"zeta_{d}_{threads}.csv"
            code = cli_main([
                "zeta", "-d", str(d), "--aset", "atoms-dividing:primes",
                "--s", "1/2", "--kappa", "1e2,1e3,1e4,1e5,1e6",
                "--threads", str(threads), "-o", str(p),
            ])
            if code != 0:
                ok = False
            paths.append(p)
        if not filecmp.cmp(*paths, shallow=False):
            ok = False
    assert _report(9, ok, "cmd_zeta output byte-identical with 1 vs 8 threads "
                   "on the criterion-6 configs")
