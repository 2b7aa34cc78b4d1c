import csv
import io
import json
import os
import subprocess
import sys
from pathlib import Path

from atomzeta.cli import main


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


def test_ring_large_rank_two_group_subprocess():
    # Z/2 x Z/22 (order 44) must take the rank-2 closed form to beat the timeout
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    proc = subprocess.run(
        [sys.executable, "-m", "atomzeta.cli", "ring", "-d", "-1034"],
        capture_output=True, text=True, timeout=10, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert "class group: Z/2 x Z/22" in proc.stdout
    assert "Davenport constant: D = 23" in proc.stdout


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
    for argv in (
        ("zeta", "-d", "-1", "--aset", "all-atoms", "--s", "1", "--kappa", "inf"),
        ("census", "-d", "-1", "--kappa", "inf"),
    ):
        code, _, err = run_cli(capsys, *argv)
        assert code == 2 and err.startswith("atomzeta: error:"), argv


def test_census_csv(capsys):
    code, out, _ = run_cli(capsys, "census", "-d", "-1", "--kappa", "100")
    assert code == 0
    data_lines = [l for l in out.splitlines() if not l.startswith("#")]
    rows = list(csv.reader(io.StringIO("\n".join(data_lines))))
    assert rows[0] == ["n", "a_n", "A_n"]
    table = {int(r[0]): int(r[1]) for r in rows[1:]}
    assert table[2] == 1 and table[5] == 2 and table[9] == 1 and 4 not in table


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
