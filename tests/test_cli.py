import os
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

from discforms import cli, dims, fqm, qseries, specfun, weil

SRC = str(Path(__file__).resolve().parents[1] / "src")
# modules a cold CLI call must not import: dataclasses pulls in inspect, and
# inspect pulls in ast, dis and tokenize
HEAVY_IMPORTS = ("dataclasses", "inspect", "ast", "dis", "tokenize", "typing")


def write_gram(path, gram):
    lines = [str(len(gram))] + [" ".join(str(x) for x in row) for row in gram]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def run(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out


def test_fqm_info(tmp_path, capsys):
    g = tmp_path / "u5.txt"
    write_gram(g, [[0, 5], [5, 0]])
    code, out = run(capsys, ["fqm", "info", "--gram", str(g)])
    assert code == 0
    assert out.splitlines()[0] == "divisors: 5,5"
    assert "order: 25" in out and "signature: 0" in out


def test_weil_check_passes(tmp_path, capsys):
    g = tmp_path / "a1.txt"
    write_gram(g, [[2]])
    code, out = run(capsys, ["weil", "check", "--gram", str(g)])
    assert code == 0
    assert all(line.endswith("PASS") for line in out.strip().splitlines())


def test_weil_check_names_a_witness(tmp_path, capsys, monkeypatch):
    # with T replaced by T^2 every relation that involves T fails
    g = tmp_path / "u3.txt"
    write_gram(g, [[0, 3], [3, 0]])
    rho_t = weil.rho_T
    monkeypatch.setattr(weil, "rho_T", lambda module, power=1: rho_t(module, 2 * power))
    code, out = run(capsys, ["weil", "check", "--gram", str(g)])
    assert code == 3
    lines = out.splitlines()
    fail = lines.index("braid_STSTST_equals_Z\tFAIL")
    # the difference is printed in the canonical basis of Q(zeta_24)
    assert lines[fail + 1] == (
        "\tfirst difference at row (0,1), column (1,0): lhs - rhs = 1/3 + 2/3 * z24^16")
    assert sum(line.endswith("\tFAIL") for line in lines) == sum(
        line.startswith("\tfirst difference") for line in lines) >= 1
    assert "unitary_S\tPASS" in lines


def test_dims_table1_matches_function(tmp_path, capsys):
    code, out = run(capsys, ["dims", "table1", "--nmax", "6"])
    assert code == 0
    assert out == "1\t1\n2\t1\n3\t1\n4\t1\n5\t3\n6\t2\n"


@pytest.mark.parametrize("nmax", ["1251", "1252", "1414", "0", "-3"])
def test_dims_table1_refuses_rows_beyond_the_bounds_before_printing(capsys, nmax):
    # row 1251 has level lcm(4, 1251) = 5004, above fqm.LEVEL_BOUND, while row 1252 has 1252
    code = cli.main(["dims", "table1", "--nmax", nmax])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("precondition failure: ")
    assert dims.check_table(1250) is None


def test_dims_table1_deterministic(capsys):
    _c1, out1 = run(capsys, ["dims", "table1", "--nmax", "5"])
    _c2, out2 = run(capsys, ["dims", "table1", "--nmax", "5"])
    assert out1 == out2


def test_dims_report(tmp_path, capsys):
    g = tmp_path / "row5.txt"
    write_gram(g, [[2, 0, 0], [0, 0, 5], [0, 5, 0]])
    code, out = run(capsys, ["dims", "report", "--gram", str(g), "--weight", "5/2"])
    assert code == 0
    assert "dim_S: 2" in out


def test_lattice_split(tmp_path, capsys):
    g = tmp_path / "u6.txt"
    write_gram(g, [[0, 6], [6, 0]])
    code, out = run(capsys, ["lattice", "split", "--gram", str(g), "--ell", "1,0"])
    assert code == 0
    assert "level: 6" in out


# (Gram matrix, --ell, exact stdout): a non-empty k_gram block, and the g = -1
# branch of the unit-pairing gcd chain
SPLIT_OUTPUTS = {
    "A2+U(3)": ([[2, 1, 0, 0], [1, 2, 0, 0], [0, 0, 0, 3], [0, 0, 3, 0]], "0,0,1,0",
                "ell_tilde: 0,0,0,1\nlevel: 3\nk_gram:\n2 1\n1 2\n"
                "basis_rows:\n1 0 0 0\n0 1 0 0\n0 0 0 1\n0 0 1 0\n"),
    "U(3)": ([[0, 3], [3, 0]], "-1,0",
             "ell_tilde: 0,-1\nlevel: 3\nk_gram:\nbasis_rows:\n0 -1\n-1 0\n"),
    # lattice._solve_scaled_pairing in place of _solve_unit_pairing prints
    # ell_tilde 0,0,0,-1 here: this pins the choice of gcd chain
    "A2+[[6,3],[3,0]]": ([[2, -1, 0, 0], [-1, 2, 0, 0], [0, 0, 6, 3], [0, 0, 3, 0]], "-2,-1,-1,2",
                         "ell_tilde: 0,0,1,-1\nlevel: 3\nk_gram:\n2 -1\n-1 2\n"
                         "basis_rows:\n1 0 1 -1\n0 1 0 0\n0 0 1 -1\n-2 -1 -1 2\n"),
}


@pytest.mark.parametrize("case", sorted(SPLIT_OUTPUTS))
def test_lattice_split_stdout(tmp_path, capsys, case):
    gram, ell, expected = SPLIT_OUTPUTS[case]
    g = tmp_path / "gram.txt"
    write_gram(g, gram)
    assert run(capsys, ["lattice", "split", "--gram", str(g), "--ell=" + ell]) == (0, expected)


def test_lifts_kernel(capsys):
    code, out = run(capsys, ["lifts", "kernel", "--p", "11", "--kappa", "2",
                             "--eta", "1,1:2,11:2", "--qbound", "20",
                             "--truncation", "1"])
    assert code == 0
    assert "eps: -1" in out
    assert "condition: PASS" in out
    assert "m=1 coeff=120/121" in out


def test_lifts_kernel_refuses_a_non_eigenform(capsys):
    # eta(tau)^2 eta(11 tau) fails the coefficient recursion for both eigenvalues
    code = cli.main(["lifts", "kernel", "--p", "11", "--kappa", "2", "--eta", "1,1:2,11:1"])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert "series is not a level involution eigenform" in captured.err


def test_cli_import_graph_stays_light():
    code = ("import sys, discforms.cli; heavy = sorted(set(%r) & set(sys.modules)); "
            "assert not heavy, heavy" % (HEAVY_IMPORTS,))
    # -S: no site hooks, so only the import of discforms.cli adds modules
    proc = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=SRC), timeout=60)
    assert proc.returncode == 0, proc.stderr


def test_report_records_are_immutable_tuples():
    report = dims.dim_M(fqm.fqm_from_gram([[2]]), F(5, 2))
    assert report._fields == ("d", "alpha_T", "mult_S", "mult_ST", "dim_M", "dim_S",
                              "iso_orbit_count")
    result = specfun.v_kappa(2.0, 0.0, 0.0)
    assert result._fields == ("value", "error_estimate", "evaluations")
    for record, field in ((report, "dim_S"), (result, "value")):
        with pytest.raises(AttributeError):
            setattr(record, field, 0)
        with pytest.raises(AttributeError):
            record.extra = 0
    assert report == dims.dim_M(fqm.fqm_from_gram([[2]]), F(5, 2))
    assert hash(report) == hash(dims.dim_M(fqm.fqm_from_gram([[2]]), F(5, 2)))


def test_specfun_vkappa(capsys):
    code, out = run(capsys, ["specfun", "vkappa", "--kappa", "2.0", "--a", "0", "--b", "0"])
    assert code == 0
    assert out.startswith("value: 1.77245385090552")


def test_specfun_vkappa_at_the_gamma_limit(capsys):
    # Gamma(kappa - 1) = Gamma(171) is finite; Gamma(172) overflows a float
    code, out = run(capsys, ["specfun", "vkappa", "--kappa", "172", "--a", "1", "--b", "1"])
    assert code == 0
    assert out == "value: 1.74087651829252e+306\nerror_estimate: 1.95e+295\nevaluations: 507\n"


def test_vvmf_check(tmp_path, capsys):
    g = tmp_path / "u3.txt"
    write_gram(g, [[0, 3], [3, 0]])
    a = fqm.hyperbolic_module(3)
    f = qseries.VectorValuedQSeries(a, F(3), F(2))
    f.set(a.element((1, 1)), F(1, 3), F(5, 7))
    s = tmp_path / "series.txt"
    s.write_text(qseries.write_series(f), encoding="utf-8")
    code, out = run(capsys, ["vvmf", "check", "--gram", str(g), "--series", str(s)])
    assert code == 0
    assert "support congruence: PASS" in out


def test_precondition_exit_code(tmp_path, capsys):
    g = tmp_path / "bad.txt"
    write_gram(g, [[1]])  # odd diagonal
    code = cli.main(["fqm", "info", "--gram", str(g)])
    capsys.readouterr()
    assert code == 2
    g2 = tmp_path / "a1.txt"
    write_gram(g2, [[2]])
    code = cli.main(["dims", "report", "--gram", str(g2), "--weight", "2"])
    capsys.readouterr()
    assert code == 2


SERIES_HEADER = "module: 3,3\nweight: 3/1\ntruncation: 2/1\n"
MALFORMED_SERIES = {
    "bad_coefficient": SERIES_HEADER + "mu=(1,1) m=1/3 coeff=zz\n",
    "record_without_coeff": SERIES_HEADER + "mu=(1,1) m=1/3\n",
    "header_without_colon": "module 3,3\nweight: 3/1\ntruncation: 2/1\nmu=(1,1) m=1/3 coeff=1\n",
    "non_integer_mu": SERIES_HEADER + "mu=(1,x) m=1/3 coeff=1\n",
    "token_without_equals": SERIES_HEADER + "mu=(1,1) m1/3 coeff=1\n",
    "non_numeric_weight": "module: 3,3\nweight: x\ntruncation: 2/1\nmu=(1,1) m=1/3 coeff=1\n",
}


LIFT = ["lifts", "kernel", "--p", "11", "--eta", "1,1:2,11:2", "--qbound", "20"]
SPECFUN = ["specfun", "vkappa", "--b", "1"]
# (gram file, argv after it), or argv alone when no gram file is read
MALFORMED_ARGS = {
    "non_integer_entry": ("bad", ["fqm", "info"]),
    "missing_file": ("missing", ["fqm", "info"]),
    "non_numeric_report_weight": ("u3", ["dims", "report", "--weight", "abc"]),
    "zero_denominator_weight": ("u3", ["dims", "report", "--weight", "1/0"]),
    "non_numeric_kappa": (None, LIFT + ["--kappa", "abc", "--truncation", "1"]),
    "non_numeric_truncation": (None, LIFT + ["--kappa", "2", "--truncation", "x"]),
    "eta_without_factor": (None, ["lifts", "kernel", "--p", "11", "--kappa", "2", "--eta", "5"]),
    "zero_truncation": (None, LIFT + ["--kappa", "2", "--truncation", "0"]),
    "truncation_above_qbound": (None, LIFT + ["--kappa", "2", "--truncation", "30"]),
    "huge_qbound": (None, ["lifts", "kernel", "--p", "11", "--kappa", "2", "--eta",
                           "1,1:2,11:2", "--qbound", str(10 ** 12)]),
    "non_integer_ell": ("u3", ["lattice", "split", "--ell", "a,b"]),
    "short_ell": ("u3", ["lattice", "split", "--ell", "1"]),
    "nan_kappa": (None, SPECFUN + ["--kappa", "nan", "--a", "1"]),
    "infinite_a": (None, SPECFUN + ["--kappa", "2", "--a", "inf"]),
    "gamma_overflow_kappa": (None, SPECFUN + ["--kappa", "173", "--a", "1"]),
    "huge_kappa": (None, SPECFUN + ["--kappa", "1e300", "--a", "1"]),
    "value_overflow_kappa": (None, SPECFUN + ["--kappa", "172.5", "--a", "1"]),
    "level_above_bound": ("big_level", ["fqm", "info"]),
    "order_above_bound": ("big_order", ["fqm", "info"]),
}


@pytest.mark.parametrize("case", ["non_integer_entry", "missing_file", "bad_coefficient",
                                  "record_without_coeff", "header_without_colon",
                                  "non_integer_mu", "token_without_equals",
                                  "non_numeric_weight", "non_numeric_report_weight",
                                  "zero_denominator_weight", "non_numeric_kappa",
                                  "non_numeric_truncation", "eta_without_factor",
                                  "zero_truncation", "truncation_above_qbound",
                                  "huge_qbound", "non_integer_ell", "short_ell",
                                  "nan_kappa", "infinite_a", "gamma_overflow_kappa",
                                  "huge_kappa", "value_overflow_kappa", "level_above_bound",
                                  "order_above_bound"])
def test_malformed_input_exits_2(tmp_path, capsys, case):
    g = tmp_path / "u3.txt"
    write_gram(g, [[0, 3], [3, 0]])
    bad = tmp_path / "bad.txt"
    bad.write_text("2\n2 1.5\n1.5 2\n", encoding="utf-8")
    write_gram(tmp_path / "big_level.txt", [[2000000]])
    write_gram(tmp_path / "big_order.txt", [[2000000000]])
    if case in MALFORMED_SERIES:
        s = tmp_path / "series.txt"
        s.write_text(MALFORMED_SERIES[case], encoding="utf-8")
        argv = ["vvmf", "check", "--gram", str(g), "--series", str(s)]
    else:
        gram, argv = MALFORMED_ARGS[case]
        if gram is not None:
            argv = argv + ["--gram", str(tmp_path / (gram + ".txt"))]
    code = cli.main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("precondition failure: ")
    assert captured.err.count("\n") == 1 and "Traceback" not in captured.err


def test_weil_check_refuses_a_module_above_the_order_bound(tmp_path, capsys):
    g = tmp_path / "u51.txt"
    write_gram(g, [[0, 51], [51, 0]])
    assert cli.main(["weil", "check", "--gram", str(g)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("precondition failure: module order 2601 exceeds the Weil "
                            "representation bound %d\n" % weil.ORDER_BOUND)


@pytest.mark.parametrize("unbuffered", (True, False))
def test_closed_stdout_exits_0_quietly(unbuffered):
    # `discforms dims table1 | head -1`: the reader closes the pipe after one line; the
    # next write (a print when unbuffered, the final flush when buffered) hit a broken
    # pipe, which printed a BrokenPipeError traceback and exited 1
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = SRC
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    proc = subprocess.Popen([sys.executable, "-m", "discforms.cli", "dims", "table1",
                             "--nmax", "1250"], stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env=env)
    try:
        first = proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read()
        code = proc.wait(timeout=60)
    finally:
        proc.kill()
        proc.stderr.close()
    assert first == b"1\t1\n"
    assert (code, err) == (0, b"")
