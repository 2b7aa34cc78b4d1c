import csv
import hashlib
import io
import json
import os
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import pytest

from atomzeta.cli import _parse_kappa_grid, build_parser, main
from atomzeta.ring import make_field
from oracles import all_atoms_per_ideal


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_ring_imaginary(capsys):
    code, out, err = run_cli(capsys, "ring", "-d", "-5")
    assert code == 0 and not err
    assert "discriminant: -20" in out
    assert "class number: h = 2" in out
    assert "Davenport constant: D = 2" in out


def _src_env(**extra):
    src = str(Path(__file__).resolve().parents[1] / "src")
    return {**os.environ, **extra, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}


def test_cli_import_loads_neither_sympy_nor_numpy():
    script = (
        "import sys, atomzeta.cli\n"
        "print(sorted({'sympy', 'numpy'} & set(sys.modules)))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True, text=True, timeout=20, env=_src_env(),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_cli_import_and_factor_load_no_mpmath():
    # mpmath is imported only where zeta sums and prints mpf values
    script = (
        "import sys, atomzeta.cli\n"
        "from atomzeta.atoms import factor_into_atoms\n"
        "from atomzeta.ring import make_field\n"
        "print(factor_into_atoms(make_field(-5).element(6)))\n"
        "print('mpmath' in sys.modules)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True, text=True, timeout=20, env=_src_env(),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "False"


def test_ring_large_rank_two_group_subprocess():
    # Z/2 x Z/22 (order 44) must take the rank-2 closed form to beat the timeout
    proc = subprocess.run(
        [sys.executable, "-m", "atomzeta.cli", "ring", "-d", "-1034"],
        capture_output=True, text=True, timeout=10, env=_src_env(),
    )
    assert proc.returncode == 0, proc.stderr
    assert "class group: Z/2 x Z/22" in proc.stdout
    assert "Davenport constant: D = 23" in proc.stdout


# captured from the O(|D|) reduced-form enumeration, which took 12.6 s and 67 s
# on a 2-core host
RING_LARGE_H = {
    "-99999989": (
        "field: Q(√-99999989)\ndegree: 2\ndiscriminant: -399999956\n"
        "integral basis: (1, √-99999989)\nroots of unity: 2\n"
        "class number: h = 9974\nclass group: Z/9974\nDavenport constant: D = 9974\n"
    ),
    "-999999937": (
        "field: Q(√-999999937)\ndegree: 2\ndiscriminant: -3999999748\n"
        "integral basis: (1, √-999999937)\nroots of unity: 2\n"
        "class number: h = 17072\nclass group: Z/17072\nDavenport constant: D = 17072\n"
    ),
}


def test_ring_large_class_groups_pinned(capsys):
    for d, expected in RING_LARGE_H.items():
        code, out, err = run_cli(capsys, "ring", "-d", d)
        assert code == 0 and not err
        assert out == expected


def test_ring_real_unit_beyond_str_limit_exit_2(capsys):
    # the fundamental unit of d = 1000081 has 857 digits in y, 860 in x
    code, out, err = run_cli(capsys, "ring", "-d", "1000081")
    assert code == 0 and not err
    # the field and unit lines, byte for byte as before real fields had class data
    lines = out.splitlines(keepends=True)
    assert hashlib.sha256("".join(lines[:5]).encode()).hexdigest() == (
        "5479840c6219560f11a18feda65c246ccfd2994a8cd1a372f7aa3f2a3a07e61d"
    )
    assert "".join(lines[5:]) == (
        "class number: h = 1\nclass group: trivial\nDavenport constant: D = 1\n"
    )
    before = sys.get_int_max_str_digits()
    try:
        sys.set_int_max_str_digits(640)
        code, out, err = run_cli(capsys, "ring", "-d", "1000081")
    finally:
        sys.set_int_max_str_digits(before)
    assert code == 2 and not out
    assert "more than 640 digits" in err
    # the unit of d = 999999937 has 13,325 digits in y; it is refused at once
    try:
        sys.set_int_max_str_digits(4300)
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "ring", "-d", "999999937")
        elapsed = time.perf_counter() - start
    finally:
        sys.set_int_max_str_digits(before)
    assert code == 2 and not out
    assert "more than 4300 digits" in err
    assert elapsed < 2.0


def test_real_field_large_unit_commands_exit_0(capsys):
    # principality by a rho-walk costs O(period), not O(eps): eps has about
    # 860 digits for d = 1000081 and 23 for d = 631, and no command is refused.
    # In an imaginary field the walk takes O(log N) steps: 1 + 100000086 sqrt(-5)
    # has prime norm about 5 * 10^16, where an ellipse scan would try 10^8 values of y
    for argv in (
        ("factor", "-d", "631", "3"),
        ("factor", "-d", "631", "5,1"),
        ("factor", "-d", "1000081", "3"),
        ("factor", "-d", "-5", "1,100000086"),
        ("zeta", "-d", "631", "--aset", "atoms-dividing:primes", "--s", "1", "--kappa", "50"),
        ("zeta", "-d", "1000081", "--aset", "atoms-dividing:primes", "--s", "1", "--kappa", "10"),
    ):
        start = time.perf_counter()
        code, out, err = run_cli(capsys, *argv)
        assert time.perf_counter() - start < 1.0, argv
        assert code == 0 and out and not err, argv
        if argv[0] == "factor" and "," not in argv[-1]:
            assert out.endswith("-> OK\n"), argv
    # Q(sqrt 94) has h = 1 and eps = 2143295 + 221064 sqrt(94); (7) is an atom
    code, out, err = run_cli(capsys, "factor", "-d", "94", "7")
    assert code == 0 and not err
    assert "atom: 7  exponent 1  ideal norm 49\n" in out


def test_factor_atom_beyond_str_limit_exit_2(capsys):
    # h = 1, so 3 splits into principal primes whose canonical generators,
    # like eps, have about 13,000 digits; refused before anything is printed
    before = sys.get_int_max_str_digits()
    try:
        sys.set_int_max_str_digits(4300)
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "factor", "-d", "999999937", "3")
        elapsed = time.perf_counter() - start
    finally:
        sys.set_int_max_str_digits(before)
    assert elapsed < 5.0
    assert code == 2 and not out
    assert "an atom or the unit has more than 4300 digits" in err


def test_real_field_factor_past_the_scan_cap_exit_0():
    # Q(sqrt 79), h = 3: the primes above 5501 and 5507 are non-principal,
    # and Q'^2 or Q R' have norm about 3 * 10^7; a fresh process each, so
    # no earlier call has met the field
    for n, atoms in (("5501", ["5501"]), ("30294007", ["5501", "5507"])):
        proc = subprocess.run(
            [sys.executable, "-m", "atomzeta.cli", "factor", "-d", "79", n],
            capture_output=True, text=True, timeout=20, env=_src_env(),
        )
        assert proc.returncode == 0 and not proc.stderr, (n, proc.stderr)
        lines = proc.stdout.splitlines()
        assert [line.split()[1] for line in lines if line.startswith("atom:")] == atoms


def test_ring_rank_three_davenport(capsys):
    for d, group, dconst in (
        ("-546", "Z/2 x Z/2 x Z/6", 8),
        ("-1001", "Z/2 x Z/2 x Z/10", 12),
        ("3315", "Z/2 x Z/2 x Z/2", 4),
    ):
        code, out, err = run_cli(capsys, "ring", "-d", d)
        assert code == 0 and not err
        assert f"class group: {group}\nDavenport constant: D = {dconst}\n" in out
    # no closed form: nothing on stdout, not even a real field's unit, and the
    # error names the group
    for d in ("-2805", "81510"):
        code, out, err = run_cli(capsys, "ring", "-d", d)
        assert code == 2 and not out, d
        assert "Z/2 x Z/2 x Z/2 x Z/6" in err, d


def test_ring_rational_and_real(capsys):
    code, out, _ = run_cli(capsys, "ring", "-d", "Q")
    assert code == 0 and "degree: 1" in out
    code, out, _ = run_cli(capsys, "ring", "-d", "2")
    assert code == 0 and "fundamental unit 1+√2" in out
    # SHA-256 of `ring` stdout, captured while compose still took its own
    # branches for a1 | a2 and d | s, and main dispatched by command name
    for d, digest in (
        ("Q", "47a77bdc7788bdb5be846d6e197c72b21037e4c510c721a22dec2146329ef8f5"),
        ("10", "4d0e4ad3e66841a7b4bd0583d748280c0ef2258af098ec7c9c5e98b629d92d44"),
        ("79", "87103b4c77f804d8de1f009164f2cc337925be7e14c623ac1d151c24eb8ca912"),
        ("1000081", "36951f5925582815d5360113369fb9c805c8b3a3bc7cc5018fd7a75b43719696"),
    ):
        code, out, err = run_cli(capsys, "ring", "-d", d)
        assert code == 0 and not err, d
        assert hashlib.sha256(out.encode()).hexdigest() == digest, d


def test_ring_bad_d_exit_2(capsys):
    code, _, err = run_cli(capsys, "ring", "-d", "12")
    assert code == 2 and "error" in err
    code, _, err = run_cli(capsys, "ring", "-d", "zebra")
    assert code == 2


def test_factor_integer_with_norm_identity(capsys):
    code, out, _ = run_cli(capsys, "factor", "-d", "-5", "6")
    assert code == 0
    assert "norm identity: 6^2 = " in out and "-> OK" in out
    atom_lines = [l for l in out.splitlines() if l.startswith("atom:")]
    assert len(atom_lines) == 2  # e.g. 6 = 2 * 3 (one valid factorization)


def test_factor_coordinates(capsys):
    code, out, _ = run_cli(capsys, "factor", "-d", "-1", "0,2")
    assert code == 0
    assert "norm identity" not in out  # only for integer inputs
    assert sum(l.startswith("atom:") for l in out.splitlines()) >= 1


def test_factor_negative_token_after_double_dash(capsys):
    # without --, argparse reads -5,3 as an option and exits 2
    code, out, _ = run_cli(capsys, "factor", "-d", "-1", "--", "-5,3")
    assert code == 0
    assert out.startswith("element: -5+3*√-1")


def test_factor_error_paths(capsys):
    for tok in ("abc", "1,0,0"):
        code, _, err = run_cli(capsys, "factor", "-d", "-1", tok)
        assert code == 2, tok
        assert "error" in err
    # factor_into_atoms refuses zero and units before anything is printed
    zero = "atomzeta: error: zero has no atom factorization\n"
    unit = "atomzeta: error: unit has no atom factorization\n"
    for tok, line in (("0", zero), ("1", unit), ("-1", unit), ("0,1", unit)):
        assert run_cli(capsys, "factor", "-d", "-1", "--", tok) == (2, "", line), tok


def test_ring_and_factor_refuse_table_flags(tmp_path, capsys):
    # -o and --format shape zeta and census tables only, and --prec zeta's
    # sums; ring and factor print to stdout, so argparse refuses the flags
    # (exit 2)
    target = tmp_path / "out.txt"
    for argv in (["factor", "-d", "-5", "6", "-o", str(target)],
                 ["factor", "-d", "-5", "6", "--format", "json"],
                 ["ring", "-d", "-5", "--prec", "100"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        out = capsys.readouterr()
        assert exc.value.code == 2 and out.out == "", argv
        assert "unrecognized arguments" in out.err, argv
    assert not target.exists()
    code, out, _ = run_cli(capsys, "ring", "-d", "-5", "--threads", "2")
    assert code == 0 and out.startswith("field: Q(√-5)")


def test_zeta_csv_shape(capsys):
    code, out, _ = run_cli(
        capsys, "zeta", "-d", "-5", "--aset", "atoms-dividing-primes",
        "--s", "1/2", "--kappa", "50,200",
    )
    assert code == 0
    data_lines = [l for l in out.splitlines() if not l.startswith("#")]
    rows = list(csv.reader(io.StringIO("\n".join(data_lines))))
    assert rows[0] == ["kappa", "count", "partial_sum"]
    assert [r[0] for r in rows[1:]] == ["50", "200"]
    # 25 significant digits in the decimal column
    mantissa = rows[1][2].replace(".", "").lstrip("0")
    assert len(mantissa) >= 24
    config_lines = [l for l in out.splitlines() if l.startswith("# ")]
    assert any("atomzeta zeta" in l for l in config_lines)


def test_zeta_json_shape(capsys):
    code, out, _ = run_cli(
        capsys, "zeta", "-d", "-1", "--aset", "prime-ideals",
        "--s", "1", "--kappa", "1e1,1e2", "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["config"].startswith("atomzeta zeta")
    assert [r["kappa"] for r in payload["rows"]] == [10, 100]
    assert "divergence_heuristic" in payload["meta"]
    assert "truncation" in payload["meta"]


def test_zeta_config_excludes_threads(capsys):
    _, out1, _ = run_cli(
        capsys, "zeta", "-d", "-5", "--aset", "atoms-dividing:all",
        "--s", "1/2", "--kappa", "100", "--threads", "1",
    )
    _, out2, _ = run_cli(
        capsys, "zeta", "-d", "-5", "--aset", "atoms-dividing:all",
        "--s", "1/2", "--kappa", "100", "--threads", "4",
    )
    assert out1 == out2  # byte identical, threads excluded from config


# SHA-256 of `zeta --s 1/2 --kappa 1e1,1e2,1e3` stdout per (field, aset),
# captured before atoms-dividing sets were decided from class forms
ZETA_GOLDEN = {
    ("-1", "atoms-dividing:primes"): "fcee49fd8751b01de16de9defad5237ba756c88bb05d01d6368e7dd545ae52ca",
    ("-1", "atoms-dividing:all"): "00e4c33499e55c2c2f7395190d2d13a67a2b87337b0d000f3f45b44665b1221e",
    ("-1", "atoms-dividing:ap:3,4"): "93d466d59bf173199a8b56716a6388377881152b3aeffb68d01ef3566c348e22",
    ("-1", "atoms-dividing:list:6,29,36"): "6430b2251a622bb89b159e6afb89b58186c998a6b45ce19515e98fcdf1b30902",
    ("-1", "prime-ideals"): "a6f3bb50d8e8a8a6dadaa5c6bd4634308a5ff5ee3dbfe61e86ce8b03282b51b6",
    ("-1", "all-atoms"): "180d46dc60a3c3c3a1af89a733a7333af022f42ce7e9e31a9d0b78afd07bbc64",
    ("-5", "atoms-dividing:primes"): "53b884183d47dedd04a0939e7021d54db1c123d63d69a9cc68e21b9c76489571",
    ("-5", "atoms-dividing:all"): "9ecf4cb2ba53e5e08864430949f7215a228c660af88d54f8a3e376dafab94b0a",
    ("-5", "atoms-dividing:ap:3,4"): "8191dfef491970f6095a243171c9667f9a3c4b7853ce31418a4959154eb4c13f",
    ("-5", "atoms-dividing:list:6,29,36"): "6392debe11703331ba9fc703d3e8c136b3cde88a461fc3b1b3144115e4496b78",
    ("-5", "prime-ideals"): "a224b9dea317cdfa5f50deb92babc9135eb87e965ecd8d5cd3ab70216afd8ecf",
    ("-5", "all-atoms"): "f946cfd8c76e41b9228362eb4b3a682600fae38c7c01d6cd95bb6240ad48f955",
    ("-23", "atoms-dividing:primes"): "8d3cfb1aed5e61b133c2a4ae3810bb641c2588467135ec3a7fc8b6c4744b9c24",
    ("-23", "atoms-dividing:all"): "f2e3411963bdb8a1e6d656b85aeec307481047f86428cd4475b6fe5c61736b07",
    ("-23", "atoms-dividing:ap:3,4"): "f32aa93f8c9f71f23ea2943a3989103fb5606ca0d04a672f65bc61a6391dba24",
    ("-23", "atoms-dividing:list:6,29,36"): "c586d354cb3942ccaaba6fe533414c5cffa603e2ab1d5b5720bcced5648ff7f2",
    ("-23", "prime-ideals"): "4b4cb9355328b529fe4969ed0d173af82325336668045470567d403f1a4f567a",
    ("-23", "all-atoms"): "8a34a35020531a69bae77278556ed98fd8653497a5dbe992ea0c4d2769e32454",
    ("2", "atoms-dividing:primes"): "cb2a438207c1bf3f7ea330bf150f0aff9ebf13d42385674224701e7983803ff4",
    ("2", "atoms-dividing:all"): "51b83bb339035755c828487e4b706ebb487865789afa2094215f0d2b78e365a6",
    ("2", "atoms-dividing:ap:3,4"): "b38a9b2c20817cfc5309185a7e12f6088fb28e46afcc30b57a173e6b705a270c",
    ("2", "atoms-dividing:list:6,29,36"): "55e3da2beb9a44d40d50310af3288e7adb170e03a7758c2dba431516f19217fd",
    ("2", "prime-ideals"): "5c679f0df789c1a85b47b391f622694acfca1ba4c13631a2dc5b592e26f0d307",
    ("2", "all-atoms"): "a1e652f3814d4f332789536342ee97929121609f18d92a2f241891ea3b8f66c8",
    ("Q", "atoms-dividing:primes"): "529f1f7453d2a63a7d81fb9278e3cb71f15929d659090dc0b4b6339e4e83e784",
    ("Q", "atoms-dividing:all"): "ed08f3074c8e8f50ce38fe96734deca61c1016917ec08bedf7f0c640822a7128",
    ("Q", "atoms-dividing:ap:3,4"): "3866f9fbd4bdd1e7d89451b293cb3e736baa83aee3aa4b75fb164b780bac39f3",
    ("Q", "atoms-dividing:list:6,29,36"): "0cdda9e220aaa2608a50587df31aadca2a19eb8d56cefb7aa6f884c57715705a",
    ("Q", "prime-ideals"): "2ac90fafe1bb9a5a1b58fabf0b8efdc80225d4ae6d7919d4ebee6f5ea635dfc7",
    ("Q", "all-atoms"): "b94af796f368cfeb8af87c5649c8b8b75d6dbca6c16963619e1c3d14afd82b6b",
    # d = -3, 5, -11: 2 is inert and shares its residue mod |D| with odd
    # primes; captured before inert primes were read off a residue table
    ("-3", "atoms-dividing:primes"): "31525b60938dda1db052adca52b180bb1b8863d03791a0393f2b1322ce4a890f",
    ("-3", "prime-ideals"): "84d48e17747271ea7bb9ef6387c765a7bbb046c5f331556be18e2045ef4c64d7",
    ("5", "atoms-dividing:primes"): "1569feb95cf7ec11660ad1d71bd515d67a430c5813b0b60e398d7fe2d120f253",
    ("5", "prime-ideals"): "5cb68b3a7315723d21dbc7ec1f2698b3d990859172ef980baa163ce6f55a2664",
    ("-11", "atoms-dividing:primes"): "5c70b3994702481b25ba07b4e35427f628eba8bf22ae2e544b09f1bfbc8ff3fe",
    ("-11", "prime-ideals"): "5b2dc82372f59e401ea91117f1e74392a1df616719f3877341d808f49bf9b583",
}


# the same at --s 0, captured while s = 0 still took a shortcut past the
# exact terms, which now give n^0 = 1 exactly
ZETA_S0_GOLDEN = {
    ("-5", "prime-ideals"): "b648ceb09c6d3c5a0c570b8fcbb86df0017de13f79e67553a3ef155f47880eb1",
    ("-5", "all-atoms"): "277c708b5c34b65ab37e35f27f6d8bc065cc57965f82e34f25d497fc5b84f912",
    ("10", "prime-ideals"): "11435058ca7db09f8d8c9eb2489ab220133a8cca3dc8690ce52bcc59759cb09c",
    ("10", "all-atoms"): "f82c8e69187c2be1b0f178799d114244908b7c4a9005b788642d59f584fc98eb",
    ("Q", "prime-ideals"): "b5975b4418fe4d2993f207110c26f9f5bed4fd03b5289e5db0e34b5889ef20cf",
    ("Q", "all-atoms"): "220ff7178295499252a4890c77b3b60df4f6e9b3bca8b91e3e2c02b7b3c145ff",
}


def test_zeta_golden_bytes(capsys):
    for s, golden in (("1/2", ZETA_GOLDEN), ("0", ZETA_S0_GOLDEN)):
        for (d, aset), digest in golden.items():
            code, out, _ = run_cli(
                capsys, "zeta", "-d", d, "--aset", aset, "--s", s,
                "--kappa", "1e1,1e2,1e3",
            )
            assert code == 0, (d, aset, s)
            assert hashlib.sha256(out.encode()).hexdigest() == digest, (d, aset, s)


def test_zeta_atoms_dividing_all_golden_reads_the_all_atoms_walk(capsys):
    # SHA-256 captured while X = all was still walked m by m, which took
    # 5.4 s in one CLI process on a shared 2-core host; every atom divides
    # its norm, so the set is read off the all-atoms walk, with no per-m
    # factoring
    start = time.perf_counter()
    code, out, _ = run_cli(
        capsys, "zeta", "-d", "-5", "--aset", "atoms-dividing:all", "--s", "1/2",
        "--kappa", "1e3,1e4,1e5",
    )
    assert time.perf_counter() - start < 1.5
    assert code == 0
    digest = "968cd11ef237a013c35a7163d92b3af9d3d97cbfc249d5a7e94ee33f47fd9e6e"
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# SHA-256 of the concatenated `factor -d d -- TOKEN` stdout per field, over
# m = 2..60 and then every non-unit x,y with |x|, |y| <= 5 row by row,
# captured before factor_into_atoms went through the atom finder
FACTOR_GOLDEN = {
    "-1": "dadc1866239b23b9ed56b7b4f851fd0d3f7c6a02a199036557e3961e517a20f5",
    "-5": "a77d8888777ea3d8abc57091ef82a77d2b11fbd9cd5274ba5a145fd267a0e85e",
    "-14": "53b004d272a778196c38fdc725c7b54872434f85b70ba4f4229995f148b06002",
    "-23": "bbc356b5e3dd7707f9b29a0def628236a61679db19ed6380b4b875efc0febc5f",
    "2": "49f13ad5f9b2afca307fa28c74b5a507be77750ada10eae01d57b732037b6ca0",
    "3": "1469155c528a469bea5aecb90026274cbb750dee6c7baea070da825f54cbefcf",
    "5": "2a30ff32c7a2fe9383c54048276f666a0d71538eb90b5298f73396fb9a450292",
    "10": "e5a46c4ee5b4ed3d5b5e6f60dec1c0ac738552cf8612faef7cd8655514b4f157",
}
# `factor -d Q -- TOKEN` stdout, captured while Q's ideals and elements
# still took their own branches in norm, contains, conj and str
FACTOR_Q_GOLDEN = {
    "360": "6f8dd295c72d646939775098f7fd6eb63e2c7831f4b64b3491dd4ef6f88d112f",
    "-360": "8afca24a0aa81a2900854175bbbfa77ee0f8740707bbc01c4e3c8191375b96b8",
}


def test_factor_golden_bytes(capsys):
    for d, digest in FACTOR_GOLDEN.items():
        field = make_field(int(d))
        tokens = [str(m) for m in range(2, 61)] + [
            f"{x},{y}"
            for x in range(-5, 6)
            for y in range(-5, 6)
            if not (field.element(x, y).is_zero() or field.element(x, y).is_unit())
        ]
        h = hashlib.sha256()
        for tok in tokens:
            code, out, _ = run_cli(capsys, "factor", "-d", d, "--", tok)
            assert code == 0, (d, tok)
            h.update(out.encode())
        assert h.hexdigest() == digest, d
    for tok, digest in FACTOR_Q_GOLDEN.items():
        code, out, _ = run_cli(capsys, "factor", "-d", "Q", "--", tok)
        assert code == 0, tok
        assert hashlib.sha256(out.encode()).hexdigest() == digest, tok


def test_zeta_output_file(tmp_path, capsys):
    target = tmp_path / "out.csv"
    code, out, _ = run_cli(
        capsys, "zeta", "-d", "Q", "--aset", "atoms-dividing:all",
        "--s", "1", "--kappa", "30", "-o", str(target),
    )
    assert code == 0 and out == ""
    text = target.read_text()
    assert text.startswith("kappa,count,partial_sum")


def test_zeta_error_paths(capsys):
    code, _, err = run_cli(
        capsys, "zeta", "-d", "-1", "--aset", "nonsense", "--s", "1", "--kappa", "10"
    )
    assert code == 2
    code, _, _ = run_cli(
        capsys, "zeta", "-d", "-1", "--aset", "all-atoms", "--s", "x", "--kappa", "10"
    )
    assert code == 2
    code, _, _ = run_cli(
        capsys, "zeta", "-d", "-1", "--aset", "all-atoms", "--s", "1", "--kappa", "30,20"
    )
    assert code == 2


def test_zeta_negative_exponent_needs_the_equals_form(capsys):
    zeta = ["zeta", "-d", "-5", "--aset", "prime-ideals", "--kappa", "1e2"]
    code, out, _ = run_cli(capsys, *zeta, "--s=-1/2")
    assert code == 0 and out
    # as a separate token argparse reads -1/2 as an option and exits 2
    with pytest.raises(SystemExit) as exc:
        main([*zeta, "--s", "-1/2"])
    out = capsys.readouterr()
    assert exc.value.code == 2 and out.out == ""
    assert "argument --s: expected one argument" in out.err


def test_zeta_file_xset_errors_exit_2(tmp_path, capsys):
    bad = tmp_path / "x.txt"
    bad.write_text("2\n3\nabc\n")
    for path in (bad, tmp_path / "missing.txt"):
        code, out, err = run_cli(
            capsys, "zeta", "-d", "-5", "--aset", f"atoms-dividing:file:{path}",
            "--s", "1", "--kappa", "100",
        )
        assert code == 2 and out == "", path
        assert err.startswith("atomzeta: error:") and str(path) in err


def test_kappa_inf_exit_2(capsys):
    # likewise any token beyond float range, or not an exact integer
    for argv in (
        ("zeta", "-d", "-1", "--aset", "all-atoms", "--s", "1", "--kappa", "inf"),
        *(
            ("census", "-d", "-1", "--kappa", token)
            for token in ("inf", "1e400", "1" + "0" * 400, "1.5", "1e-1")
        ),
    ):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == "" and err.startswith("atomzeta: error:"), argv


def test_kappa_above_sieve_limit_exit_2(capsys):
    # for d = +-999999937, |D| is about 4e9 < kappa = 1e10: the sieve's cap
    # must fire before a table of residues mod |D| is allocated
    cases = [
        ("-5", "9007199254740993"),
        ("-5", "100000001"),
        ("999999937", "1e10"),
        ("-999999937", "1e10"),
    ]
    for d, kappa in cases:
        start = time.perf_counter()
        code, out, err = run_cli(
            capsys, "zeta", "-d", d, "--aset", "prime-ideals", "--s", "1", "--kappa", kappa
        )
        assert time.perf_counter() - start < 1.0
        assert code == 2 and not out
        assert "sieve limit 100000000" in err


def test_range_xsets_refuse_kappa_above_sieve_limit(capsys):
    # ap: lists every m <= kappa and atoms-dividing:all (all atoms) sieves
    # the primes up to kappa; both exit 2 before allocating, where a list of
    # 10^8 + 1 ints would take about 4 GB
    for xset in ("all", "ap:1,2"):
        for kappa in ("100000001", "1e15"):
            start = time.perf_counter()
            code, out, err = run_cli(
                capsys, "zeta", "-d", "-5", "--aset", f"atoms-dividing:{xset}",
                "--s", "1", "--kappa", kappa,
            )
            assert time.perf_counter() - start < 1.0, (xset, kappa)
            assert code == 2 and not out, (xset, kappa)
            assert "sieve limit 100000000" in err, (xset, kappa)


def test_kappa_parsed_exactly():
    assert _parse_kappa_grid("9007199254740993") == [9007199254740993]
    assert _parse_kappa_grid("1e25") == [10**25]


def test_census_csv(capsys):
    code, out, _ = run_cli(capsys, "census", "-d", "-1", "--kappa", "100")
    assert code == 0
    data_lines = [l for l in out.splitlines() if not l.startswith("#")]
    rows = list(csv.reader(io.StringIO("\n".join(data_lines))))
    assert rows[0] == ["n", "a_n", "A_n"]
    table = {int(r[0]): int(r[1]) for r in rows[1:]}
    assert table[2] == 1 and table[5] == 2 and table[9] == 1 and 4 not in table


# SHA-256 of `census --kappa 1e4` stdout per field, captured before the
# census was read off prime factorizations without building ideals
CENSUS_GOLDEN = {
    "-1": "1e1c04a528d70019c029f76c034d405841bb1fc850a8ccd51edc9476335c4189",
    "-5": "1b9f91d63d45d35793d7934bfd9afed3de9437c5199c0e3b44ea4ca0ace09f33",
    "-23": "79f21532d9fd365075b2afb677185e2e7c746925b71cae8db116859ab10cb8a3",
    "-105": "a160998be1ecb53cfb686e398586fa57e24879596b105274cbc18985593e8450",
    "Q": "84e8fdab3ffb56aed4a57929ae661563a19f70e42af63bf24bb8b5494e844545",
    # 2 inert, sharing its residue mod |D|; captured before inert primes
    # were read off a residue table
    "-3": "b9239904b00bdba2cf2ad4aadabbb1f66e8c5cb91412a43a5587a1f1933a7608",
    "-11": "8e4e23cc619b65b569536b3971818e1d9db80c4cccfbd1a6e0f41b36ff856a03",
    # Z/4, the benchmark census's second field; captured before the walk
    # kept a step table over (sum, subsum set) states
    "-14": "4c20cc72e75716b5821c316a14a50a789271ab3664c094bcdd1dfa8153001deb",
}


def test_census_golden_bytes(capsys):
    for d, digest in CENSUS_GOLDEN.items():
        code, out, _ = run_cli(capsys, "census", "-d", d, "--kappa", "1e4")
        assert code == 0, d
        assert hashlib.sha256(out.encode()).hexdigest() == digest, d


def test_census_golden_bytes_large(capsys):
    # SHA-256 of `census --kappa 1e5` stdout; at this size exponents and
    # signatures are much richer than at kappa = 1e4
    for d, digest in (
        # captured before atoms were decided once per class signature
        ("-5", "5d6bdb47c1c1d1fd603ce6228e74f09b2ae46df2bb72a31786e39b710163de81"),
        # Z/3, D = 3: no earlier bytes exist (the census refused real fields);
        # pinned once the kappa = 5000 counts agreed with the per-ideal oracle
        # and these rows with those of kappa = 1e4
        ("79", "70d4d0bafd85f76d1ba4a4de6c6d5abb87b6dfd66063c2a5a006f028b60c77bc"),
        # Z/2 x Z/8 and Z/2 x Z/2 x Z/2, captured before the walk kept a
        # step table over (sum, subsum set) states
        ("-221", "a1956af2e82f3825bee4b886215f26539c102af027bf538336c4406027769626"),
        ("-1155", "5b3f001bc26969d2ec8771cd7967958643f20e0c2cbaeb425a5606973cf82142"),
    ):
        code, out, _ = run_cli(capsys, "census", "-d", d, "--kappa", "1e5")
        assert code == 0, d
        assert hashlib.sha256(out.encode()).hexdigest() == digest, d


def test_census_golden_bytes_deep_cyclic(capsys):
    # SHA-256 of `census -d -6631 --kappa 2e5` stdout: Z/44 (D = 44), the
    # deepest walk of any census golden; captured before the walk kept
    # lazy frames over norm and class-id lists
    code, out, _ = run_cli(capsys, "census", "-d", "-6631", "--kappa", "2e5")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "f2e82cc435a35c0bc31bf6cc3e75b0076e3b44ad8625d967702340f49d08924e"
    )


# SHA-256 of `census --kappa 1e5` and `zeta --s 1/2 --kappa 1e3,1e4,1e5`
# stdout in (Z/2)^r x Z/4 for r = 0 .. 3, captured before the census walk
# and the atoms dividing the primes read classes up to sign off the genus
GENUS_GOLDEN = {
    ("-14", "census"): "1eba91ee8ed54266b76be703b9d61d60361bcf654fe2447caef44fc4308a1dbc",
    ("-14", "all-atoms"): "f792ef43db6b3c668ebd2fefcdabd2e128ebdce195c1e57ad1df76296a477c6b",
    ("-14", "atoms-dividing:primes"): "07be17ed53a9842ba9e35c3e1ae3fcf970480b9108a51fad7dc841d3d1be86a7",
    ("-65", "census"): "c23932da0c4c37def0009cc452474aecff668288f2a55cdccbf8c3092fc2c856",
    ("-65", "all-atoms"): "47a7fb8c71e1f00174b6e5a5185da0bc890c01256a82be0b92ec688a7c304f54",
    ("-65", "atoms-dividing:primes"): "7b864874642ca8c85b8a735e66155e67a8a69724dd3ddf1e43d73e5f2dbf93ff",
    ("-285", "census"): "7835aaeca40abd167c45fa7bcdf9205d842a9f37b2b464a02dfacce86302c2b1",
    ("-285", "all-atoms"): "404d9bc3438411cd34deca6ac486bc044396af93238ac2426e343887932f60df",
    ("-285", "atoms-dividing:primes"): "e58671a120eb5700e2d30fa79a34a72c4fc7138603c20bf9b0d4a12d5cde3aea",
    ("-1785", "census"): "0b2c230f18dac967bd796587520329e9cd064489aac86df2f847a06f1e4b493b",
    ("-1785", "all-atoms"): "e41b2c17eefd491d5f44153da49094ee2190ea484f3539f3bf5fda90d6d0311d",
    ("-1785", "atoms-dividing:primes"): "f220b43bcaed58126ca67a2ceddaac344ff1bfac7a04f8dfdb63d340fdb5346e",
    ("82", "census"): "4b52584447f96023b45a6befbb3936c53090db6b59a59c754a503abdf86bdd62",
    ("82", "all-atoms"): "046f21f2043906c4fdc30948768a4d46351546b0869901a1d067210c907d96f4",
    ("82", "atoms-dividing:primes"): "108f3bbf0d7518aab74addf35c8542c2cdffd43c767716da50b0c414ad0bc498",
    ("399", "census"): "03ca630826ccf3a5c212f316c9e5ea9a49b438ff94eb0803119c25d663315cb5",
    ("399", "all-atoms"): "cef4c5de09b212d84e0964ed942f73bfaca9283fd129461ce129629d56c2fc0f",
    ("399", "atoms-dividing:primes"): "69eb50abcb0c98a143973a235348560c76ea843d41ab5686030e14064d0ef458",
    ("4810", "census"): "869814f09ff0162c7ec7da9604d0df0f87ef4ddeed18ee24156d4dd54479211d",
    ("4810", "all-atoms"): "3b96fbb6f089e7f290f4540a043fdef1d542d977023c15b7810ffb8e559b2fa7",
    ("4810", "atoms-dividing:primes"): "5459ad670dd6d1e65f66b3854e703798167abdd9890e5e51a2173f2396fa8469",
}


def test_genus_golden_bytes(capsys):
    for (d, kind), digest in GENUS_GOLDEN.items():
        if kind == "census":
            argv = ["census", "-d", d, "--kappa", "1e5"]
        else:
            argv = ["zeta", "-d", d, "--aset", kind, "--s", "1/2", "--kappa", "1e3,1e4,1e5"]
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0, (d, kind)
        assert hashlib.sha256(out.encode()).hexdigest() == digest, (d, kind)


def test_census_json_meta(capsys):
    code, out, _ = run_cli(
        capsys, "census", "-d", "-5", "--kappa", "100", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["meta"]["davenport"] == 2
    assert any(r["x"] == 10 for r in payload["meta"]["ratio_trend"])


def test_census_real_field_matches_oracle(capsys):
    code, out, err = run_cli(capsys, "census", "-d", "2", "--kappa", "100")
    assert code == 0 and not err
    rows = [line.split(",") for line in out.splitlines()[1:] if not line.startswith("#")]
    expected = Counter(all_atoms_per_ideal(make_field(2), 100))
    assert {int(n): int(a) for n, a, _ in rows} == expected


def test_census_unsupported_group_refused_before_work():
    # Z/2 x Z/2 x Z/2 x Z/6 has no Davenport closed form, in Q(sqrt -2805) and
    # Q(sqrt 81510); the census needs D for its ratio, so it exits before
    # walking the ideals of norm <= 1e6
    for d in ("-2805", "81510"):
        script = (
            "import sys, time\n"
            "from atomzeta.cli import main\n"
            "t = time.perf_counter()\n"
            f"code = main(['census', '-d', '{d}', '--kappa', '1e6'])\n"
            "print(time.perf_counter() - t)\n"
            "sys.exit(code)\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True, text=True, timeout=60, env=_src_env(),
        )
        assert proc.returncode == 2, (d, proc.stderr)
        assert proc.stderr.startswith("atomzeta: error:"), d
        assert "Z/2 x Z/2 x Z/2 x Z/6" in proc.stderr, d
        assert float(proc.stdout) < 1.0, d


def test_census_rows_agree_across_scales(capsys):
    # every row n <= kappa of the 10 kappa census is a row of the kappa census
    def rows(d, kappa):
        code, out, _ = run_cli(capsys, "census", "-d", d, "--kappa", kappa)
        assert code == 0
        return [line for line in out.splitlines() if not line.startswith("#")][1:]

    for d, small_kappa, large_kappa in (("-5", "1e5", "1e6"), ("79", "1e4", "1e5")):
        small = rows(d, small_kappa)
        large = rows(d, large_kappa)
        assert small == [r for r in large if int(r.split(",")[0]) <= int(float(small_kappa))], d
        assert len(large) > len(small), d


def test_unwritable_output_exit_2(tmp_path, capsys):
    target = tmp_path / "missing" / "x.csv"
    code, out, err = run_cli(
        capsys, "zeta", "-d", "-1", "--aset", "prime-ideals", "--s", "1",
        "--kappa", "10", "-o", str(target),
    )
    assert code == 2 and out == ""
    assert err.startswith("atomzeta: error:") and str(target) in err


def test_zeta_list_member_beyond_primality_range_exit_2(capsys):
    # the least prime above the exact primality range of atomzeta.sieve
    p = 3317044064679887385962123
    code, out, err = run_cli(
        capsys, "zeta", "-d", "-5", "--aset", f"atoms-dividing:list:{p}",
        "--s", "1", "--kappa", "1e25",
    )
    assert code == 2 and out == ""
    assert err.startswith("atomzeta: error:") and "primality range" in err


def test_threads_env_is_ignored(monkeypatch, capsys):
    # --threads is the one source of the thread count; the environment
    # changes nothing, not even a value --threads would refuse
    argvs = [
        ["ring", "-d", "-1"],
        ["census", "-d", "-5", "--kappa", "100"],
        ["zeta", "-d", "-5", "--aset", "prime-ideals", "--s", "1/2", "--kappa", "100"],
    ]
    monkeypatch.delenv("ATOMZETA_THREADS", raising=False)
    unset = [run_cli(capsys, *argv) for argv in argvs]
    assert all(code == 0 and out and not err for code, out, err in unset)
    for value in ("zebra", "0"):
        monkeypatch.setenv("ATOMZETA_THREADS", value)
        assert [run_cli(capsys, *argv) for argv in argvs] == unset, value


def test_threads_below_one_exit_2(capsys):
    for count in ("0", "-3"):
        code, out, err = run_cli(
            capsys, "census", "-d", "-5", "--kappa", "100", "--threads", count
        )
        assert code == 2 and out == "", count
        assert err.startswith("atomzeta: error:") and count in err


def test_zeta_decimal_exponent_is_quick(capsys):
    # a decimal s has a large denominator b (0.123456789 = 123456789/10^9);
    # its terms must not be b-th roots of integers of b * prec bits
    for s in ("0.999", "0.123456789", "0.029"):
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "zeta", "-d", "-5", "--aset", "prime-ideals",
                                 "--s", s, "--kappa", "1e3")
        assert code == 0 and not err and out, s
        assert time.perf_counter() - start < 10, s


def test_prec_below_80_exit_2(capsys):
    zeta = ("zeta", "-d", "-5", "--aset", "atoms-dividing:primes", "--s", "1/2")
    code, out, err = run_cli(capsys, *zeta, "--kappa", "1e4", "--prec", "5")
    assert code == 2 and out == ""
    assert err.startswith("atomzeta: error:") and "--prec" in err
    code, out, _ = run_cli(capsys, *zeta, "--kappa", "100", "--prec", "80")
    assert code == 0 and out
    # above MAX_PREC_BITS the terms' integers grow past desk scale: 10^7 bits
    # ran past 20 s at kappa = 10, and 10^5 bits at s = 1/3 and kappa = 1e3;
    # refused before any work, in every set, naming the cap
    for aset, s, kappa in (("all-atoms", "1/2", "10"), ("all-atoms", "1/3", "1e3"),
                           ("atoms-dividing:primes", "1/2", "1e6")):
        for prec in ("10001", "100000", "10000000"):
            start = time.perf_counter()
            code, out, err = run_cli(capsys, "zeta", "-d", "-5", "--aset", aset, "--s", s,
                                     "--kappa", kappa, "--prec", prec)
            assert time.perf_counter() - start < 1.0, (aset, prec)
            assert code == 2 and out == "", (aset, prec)
            assert err.startswith("atomzeta: error:") and "cap of 10000 bits" in err
    code, out, _ = run_cli(capsys, *zeta, "--kappa", "100", "--prec", "10000")
    assert code == 0 and out
    # --prec sets the precision of zeta's sums only; census has none to set
    with pytest.raises(SystemExit) as exc:
        main(["census", "-d", "-5", "--kappa", "100", "--prec", "100"])
    out = capsys.readouterr()
    assert exc.value.code == 2 and out.out == ""
    assert "unrecognized arguments: --prec" in out.err


def test_main_reuses_one_parser_like_fresh_calls(capsys):
    # main builds its parser once per process; repeated calls on that parser
    # must print and exit exactly as calls on a freshly built one, with no
    # option carried over from an earlier call
    argvs = [
        ["ring", "-d", "-5"],
        ["census", "-d", "-5", "--kappa", "100", "--format", "json"],
        ["census", "-d", "-5", "--kappa", "100"],
        ["factor", "-d", "-5", "6"],
        ["zeta", "-d", "-5", "--aset", "atoms-dividing:primes", "--s", "1/2",
         "--kappa", "10,100", "--prec", "120"],
        ["zeta", "-d", "-5", "--aset", "atoms-dividing:primes", "--s", "1/2",
         "--kappa", "10,100"],
        ["zeta", "-d", "-5", "--aset", "prime-ideals", "--s", "1", "--kappa", "10",
         "--bogus"],
        ["ring", "-d", "12"],
    ]

    def call(argv):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's own usage errors
            code = exc.code
        out = capsys.readouterr()
        return code, out.out, out.err

    fresh = []
    for argv in argvs:
        build_parser.cache_clear()
        fresh.append(call(argv))
    assert [code for code, _, _ in fresh] == [0, 0, 0, 0, 0, 0, 2, 2]
    assert fresh[6][1] == "" and "--bogus" in fresh[6][2]
    assert build_parser() is build_parser()
    for _ in range(2):
        assert [call(argv) for argv in argvs] == fresh

