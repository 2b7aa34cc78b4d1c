"""atomzeta command line front end.

Subcommands:
  ring    -- field invariants, unit group, class data
  factor  -- atom factorization of an element plus the norm-identity check
  zeta    -- restricted zeta partial sums over a kappa grid (CSV/JSON)
  census  -- atom census a_n, cumulative counts and the asymptotic ratio

Exit codes: 0 success, 2 usage/domain error, 3 internal invariant violation.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from decimal import Decimal, InvalidOperation
from fractions import Fraction
from math import isinf

import mpmath

from atomzeta import __version__
from atomzeta.atoms import factor_into_atoms, verify_norm_identity
from atomzeta.classgroup import (
    class_group_structure,
    davenport_constant,
)
from atomzeta.errors import (
    CapExceededError,
    DomainError,
    InternalInvariantError,
    UnitElementError,
)
from atomzeta.ring import (
    FieldSpec,
    fundamental_unit,
    make_field,
    rational_field,
    roots_of_unity,
)
from atomzeta.series import (
    asymptotic_report,
    atom_census,
    divergence_table,
    parse_aset,
    DEFAULT_PREC_BITS,
    MIN_PREC_BITS,
)

DIGITS = 25  # significant digits in all decimal output


def _parse_field(token: str) -> FieldSpec:
    if token in ("Q", "q", "rational"):
        return rational_field()
    try:
        d = int(token)
    except ValueError:
        raise DomainError(f"bad field selector: {token!r}")
    return make_field(d)


def _parse_kappa_grid(token: str) -> list[int]:
    """Each token read exactly (1e25 is 10^25); a token that is not an
    integer or lies beyond float range is refused."""
    out = []
    for t in token.split(","):
        try:
            k = Decimal(t)
        except InvalidOperation:
            raise DomainError(f"bad kappa token: {t!r}")
        if not k.is_finite() or isinf(float(k)) or k != k.to_integral_value():
            raise DomainError(f"bad kappa token: {t!r}")
        out.append(int(k))
    if out != sorted(set(out)) or out[0] < 1:
        raise DomainError("kappa grid must be strictly increasing positive integers")
    return out


def _parse_s(token: str) -> Fraction:
    try:
        return Fraction(token)
    except (ValueError, ZeroDivisionError):
        raise DomainError(f"bad exponent s: {token!r}")


def default_threads() -> int:
    """--threads when not given: ATOMZETA_THREADS, validated, or 1.  The
    count changes neither output nor speed."""
    env = os.environ.get("ATOMZETA_THREADS")
    if env:
        try:
            return int(env)
        except ValueError:
            raise DomainError(f"bad ATOMZETA_THREADS value: {env!r}")
    return 1


def _fmt(x) -> str:
    return mpmath.nstr(x, DIGITS, strip_zeros=False)


def _config_string(args: argparse.Namespace, keys: list[str]) -> str:
    parts = [f"atomzeta {args.command}"]
    for k in keys:
        parts.append(f"--{k.replace('_', '-')} {getattr(args, k)}")
    return " ".join(parts)


def _emit(args, config: str, header: list[str], rows: list[list], meta: dict) -> None:
    meta = {"config": config, "version": __version__, **meta}
    if args.format == "json":
        payload = {
            "config": config,
            "rows": [dict(zip(header, r)) for r in rows],
            "meta": meta,
        }
        text = json.dumps(payload, indent=2) + "\n"
    else:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(header)
        for r in rows:
            writer.writerow(r)
        buf.write(f"# {config}\n# atomzeta {__version__}\n")
        text = buf.getvalue()
    if args.output:
        try:
            with open(args.output, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise DomainError(f"cannot write output file: {exc}")
    else:
        sys.stdout.write(text)


def cmd_ring(args) -> int:
    field = _parse_field(args.d)
    if field.is_real:
        unit = fundamental_unit(field)
        limit = sys.get_int_max_str_digits()
        if limit and max(abs(unit.x), abs(unit.y)) >= 10**limit:
            raise CapExceededError(f"the fundamental unit has more than {limit} digits, "
                                   "the int-to-str limit (sys.set_int_max_str_digits)")
    print(f"field: {field.label()}")
    print(f"degree: {field.degree}")
    print(f"discriminant: {field.disc}")
    print(f"integral basis: (1, {field.omega_label})")
    if field.is_rational:
        print("units: {1, -1}")
        print("class number: 1 (trivial group), Davenport constant D = 1")
        return 0
    if field.is_real:
        print(f"units: {{+-1}} x <fundamental unit {unit}>")
        print("class data: not computed for real fields (documented limitation)")
        return 0
    print(f"roots of unity: {len(roots_of_unity(field))}")
    group = class_group_structure(field)
    d_const = davenport_constant(group)
    print(f"class number: h = {group.order}")
    print(f"class group: {group}")
    print(f"Davenport constant: D = {d_const}")
    return 0


def cmd_factor(args) -> int:
    field = _parse_field(args.d)
    tok = args.element
    try:
        if "," in tok:
            x, y = (int(t) for t in tok.split(","))
            e = field.element(x, y)
            m = None
        else:
            m = int(tok)
            e = field.element(m)
    except ValueError:
        raise DomainError(f"bad element token: {tok!r}")
    if e.is_zero():
        raise DomainError("zero has no atom factorization")
    if e.is_unit():
        raise UnitElementError("unit has no atom factorization")
    fact = factor_into_atoms(e)
    print(f"element: {e}  (norm {e.norm()})")
    print(f"unit: {fact.unit}")
    for atom, exp in fact.factors:
        n = abs(atom.norm())
        print(f"atom: {atom}  exponent {exp}  ideal norm {n}")
    if m is not None and m >= 2:
        ok = verify_norm_identity(m, fact)
        rhs = " * ".join(
            f"{abs(a.norm())}^{k}" if k > 1 else f"{abs(a.norm())}"
            for a, k in fact.factors
        )
        print(
            f"norm identity: {m}^{field.degree} = {rhs} "
            f"-> {'OK' if ok else 'FAILED'}"
        )
        if not ok:
            raise InternalInvariantError("norm identity check failed")
    return 0


def cmd_zeta(args) -> int:
    field = _parse_field(args.d)
    aspec = parse_aset(args.aset)
    s = _parse_s(args.s)
    grid = _parse_kappa_grid(args.kappa)
    table = divergence_table(field, aspec, s, grid, prec_bits=args.prec)
    config = _config_string(args, ["d", "aset", "s", "kappa", "prec", "format"])
    header = ["kappa", "count", "partial_sum"]
    rows = [[r.kappa, r.count, _fmt(r.partial_sum)] for r in table.rows]
    meta = {
        "field": table.field_label,
        "aset": table.aset_label,
        "s": str(s),
        "increments": [f"{i:.6f}" for i in table.increments],
        "divergence_heuristic": (
            "consistent with divergence (heuristic; partial sums prove nothing)"
            if table.consistent_with_divergence
            else "no divergence signal at this scale (heuristic)"
        ),
        "truncation": "atoms-dividing sets also truncate X at m <= kappa; "
        "reported sums are lower bounds",
    }
    _emit(args, config, header, rows, meta)
    return 0


def cmd_census(args) -> int:
    field = _parse_field(args.d)
    kappa = _parse_kappa_grid(args.kappa)[-1]
    census = atom_census(field, kappa)
    decades = []
    x = 10
    while x <= kappa:
        decades.append(x)
        x *= 10
    report = asymptotic_report(census, decades)
    config = _config_string(args, ["d", "kappa", "format"])
    header = ["n", "a_n", "A_n"]
    rows = []
    run = 0
    for n, c in census.counts:
        run += c
        rows.append([n, c, run])
    meta = {
        "field": census.field_label,
        "davenport": census.davenport,
        "ratio_trend": [
            {
                "x": r.x,
                "A": r.cumulative,
                "ratio": None if r.ratio is None else f"{r.ratio:.6f}",
                "note": r.note,
            }
            for r in report
        ],
        "note": "ratio = A(x) log x / (x (log log x)^(D-1)); trend only, "
        "no claim about the limiting constant",
    }
    _emit(args, config, header, rows, meta)
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="atomzeta",
        description="atoms, ideal norms and restricted zeta partial sums "
        "in quadratic integer rings",
    )
    ap.add_argument("--version", action="version", version=f"atomzeta {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("-d", required=True, help="squarefree d, or Q for the rationals")
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        p.add_argument("-o", "--output", default=None, help="output path (default stdout)")
        p.add_argument("--prec", type=int, default=DEFAULT_PREC_BITS,
                       help=f"mantissa precision in bits (>= {MIN_PREC_BITS})")
        p.add_argument("--threads", type=int, default=None,
                       help="accepted and validated; changes neither output nor "
                            "speed (default ATOMZETA_THREADS or 1)")

    p_ring = sub.add_parser("ring", help="field invariants and class data")
    common(p_ring)

    p_factor = sub.add_parser("factor", help="atom factorization of an element")
    common(p_factor)
    p_factor.add_argument("element", help="a rational integer m, or coordinates x,y; "
                                          "put -- before a token that starts with -")

    p_zeta = sub.add_parser("zeta", help="restricted zeta partial sums")
    common(p_zeta)
    p_zeta.add_argument("--aset", required=True,
                        help="all-atoms | prime-ideals | atoms-dividing-primes | "
                             "atoms-dividing:{all|primes|ap:a,q|list:..|file:PATH}")
    p_zeta.add_argument("--s", required=True, help="exponent as a rational, e.g. 1/2")
    p_zeta.add_argument("--kappa", required=True,
                        help="comma-separated increasing grid, e.g. 1e2,1e3,1e4")

    p_census = sub.add_parser("census", help="atom census and asymptotic ratios")
    common(p_census)
    p_census.add_argument("--kappa", required=True, help="norm cutoff, e.g. 1e4")
    return ap


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.threads is None:
            args.threads = default_threads()
        if args.threads < 1:
            raise DomainError(f"--threads/ATOMZETA_THREADS must be >= 1, not {args.threads}")
        if args.prec < MIN_PREC_BITS:
            raise DomainError(f"--prec must be >= {MIN_PREC_BITS} bits, not {args.prec}")
        if args.command == "ring":
            return cmd_ring(args)
        if args.command == "factor":
            return cmd_factor(args)
        if args.command == "zeta":
            return cmd_zeta(args)
        if args.command == "census":
            return cmd_census(args)
        raise DomainError(f"unknown command {args.command!r}")
    except DomainError as exc:
        print(f"atomzeta: error: {exc}", file=sys.stderr)
        return 2
    except InternalInvariantError as exc:
        print(f"atomzeta: internal invariant violated: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
