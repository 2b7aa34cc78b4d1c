import csv
import hashlib
import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path

from atomzeta.cli import _parse_kappa_grid, main
from atomzeta.ring import make_field


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
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "44f4228436b37b9e800b6d29912b3cd816ff2971468f5595c67bde5e16ab9f0b"
    )
    before = sys.get_int_max_str_digits()
    try:
        sys.set_int_max_str_digits(640)
        code, out, err = run_cli(capsys, "ring", "-d", "1000081")
    finally:
        sys.set_int_max_str_digits(before)
    assert code == 2 and not out
    assert "more than 640 digits" in err


def test_ring_rational_and_real(capsys):
    code, out, _ = run_cli(capsys, "ring", "-d", "Q")
    assert code == 0 and "degree: 1" in out
    code, out, _ = run_cli(capsys, "ring", "-d", "2")
    assert code == 0 and "fundamental unit 1+√2" in out


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
    for tok in ("0", "1", "abc", "1,0,0"):
        code, _, err = run_cli(capsys, "factor", "-d", "-1", tok)
        assert code == 2, tok
        assert "error" in err


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
}


def test_zeta_golden_bytes(capsys):
    for (d, aset), digest in ZETA_GOLDEN.items():
        code, out, _ = run_cli(
            capsys, "zeta", "-d", d, "--aset", aset, "--s", "1/2",
            "--kappa", "1e1,1e2,1e3",
        )
        assert code == 0, (d, aset)
        assert hashlib.sha256(out.encode()).hexdigest() == digest, (d, aset)


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
    for kappa in ("9007199254740993", "100000001"):
        start = time.perf_counter()
        code, out, err = run_cli(
            capsys, "zeta", "-d", "-5", "--aset", "prime-ideals", "--s", "1", "--kappa", kappa
        )
        assert time.perf_counter() - start < 1.0
        assert code == 2 and not out
        assert "sieve limit 100000000" in err


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
}


def test_census_golden_bytes(capsys):
    for d, digest in CENSUS_GOLDEN.items():
        code, out, _ = run_cli(capsys, "census", "-d", d, "--kappa", "1e4")
        assert code == 0, d
        assert hashlib.sha256(out.encode()).hexdigest() == digest, d


def test_census_golden_bytes_large(capsys):
    # SHA-256 of `census -d -5 --kappa 1e5` stdout, captured before atoms
    # were decided once per class signature; at this size exponents and
    # signatures are much richer than at kappa = 1e4
    code, out, _ = run_cli(capsys, "census", "-d", "-5", "--kappa", "1e5")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "5d6bdb47c1c1d1fd603ce6228e74f09b2ae46df2bb72a31786e39b710163de81"
    )


def test_census_json_meta(capsys):
    code, out, _ = run_cli(
        capsys, "census", "-d", "-5", "--kappa", "100", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["meta"]["davenport"] == 2
    assert any(r["x"] == 10 for r in payload["meta"]["ratio_trend"])


def test_census_real_field_rejected(capsys):
    code, _, err = run_cli(capsys, "census", "-d", "2", "--kappa", "100")
    assert code == 2 and "error" in err


def test_census_real_field_refused_before_work():
    # the command's own time, after the interpreter and imports are up
    script = (
        "import sys, time\n"
        "from atomzeta.cli import main\n"
        "t = time.perf_counter()\n"
        "code = main(['census', '-d', '631', '--kappa', '100'])\n"
        "print(time.perf_counter() - t)\n"
        "sys.exit(code)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True, text=True, timeout=20, env=_src_env(),
    )
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("atomzeta: error:")
    assert float(proc.stdout) < 1.0


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


def test_bad_threads_env_exit_2(monkeypatch, capsys):
    monkeypatch.setenv("ATOMZETA_THREADS", "zebra")
    code, _, err = run_cli(capsys, "ring", "-d", "-1")
    assert code == 2
    assert err.startswith("atomzeta: error:") and "zebra" in err


def test_threads_below_one_exit_2(monkeypatch, capsys):
    for count in ("0", "-3"):
        code, out, err = run_cli(
            capsys, "census", "-d", "-5", "--kappa", "100", "--threads", count
        )
        assert code == 2 and out == "", count
        assert err.startswith("atomzeta: error:") and count in err
        monkeypatch.setenv("ATOMZETA_THREADS", count)
        code, out, err = run_cli(capsys, "census", "-d", "-5", "--kappa", "100")
        assert code == 2 and out == "", count
        assert err.startswith("atomzeta: error:") and count in err
        monkeypatch.delenv("ATOMZETA_THREADS")


def test_prec_below_80_exit_2(capsys):
    code, out, err = run_cli(capsys, "census", "-d", "-5", "--kappa", "1e4", "--prec", "5")
    assert code == 2 and out == ""
    assert err.startswith("atomzeta: error:") and "--prec" in err
    code, out, _ = run_cli(capsys, "census", "-d", "-5", "--kappa", "100", "--prec", "80")
    assert code == 0 and out
