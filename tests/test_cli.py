"""Command-line contract: parsing, formats, exit codes, round-trips."""
import contextlib
import gc
import io
import json
import os
import warnings
import weakref

import numpy as np
import pytest
from click.testing import CliRunner

from mbound import __version__
from mbound.cli import main, read_matrix
from mbound.bounds import HolderExponents
from mbound.errors import ClassMismatchError, MatrixFormatError
from mbound.harness import (FAMILIES, WORKED_FAN_A, WORKED_FAN_B,
                            WORKED_HADAMARD_A, WORKED_HADAMARD_B,
                            WORKED_HINV_A, WORKED_HINV_B)

FIXDIR = os.path.join(os.path.dirname(__file__), "..", "fixtures")


def fixture(name):
    return os.path.join(FIXDIR, name)


@pytest.fixture
def runner():
    return CliRunner()


def _write(a, path, structured=False):
    """a's entries as %.17g, in text rows or as one {"rows": ...} object."""
    rows = [["%.17g" % x for x in row] for row in np.asarray(a)]
    if structured:
        payload = '{"rows": [%s]}\n' % ", ".join(
            "[%s]" % ", ".join(row) for row in rows)
    else:
        payload = "".join(" ".join(row) + "\n" for row in rows)
    with open(path, "w") as fh:
        fh.write(payload)


# --- matrix file round trips -------------------------------------------------

def test_fixture_files_match_embedded_constants():
    pairs = [
        ("ex21_a.txt", WORKED_HADAMARD_A), ("ex21_b.txt", WORKED_HADAMARD_B),
        ("ex31_a.txt", WORKED_FAN_A), ("ex31_b.txt", WORKED_FAN_B),
        ("ex41_a.txt", WORKED_HINV_A), ("ex41_b.txt", WORKED_HINV_B),
    ]
    for name, expected in pairs:
        np.testing.assert_array_equal(read_matrix(fixture(name)), expected)


@pytest.mark.parametrize("structured", [False, True])
def test_write_read_round_trip_exact(tmp_path, structured):
    rng = np.random.default_rng(7)
    a = rng.normal(scale=1e3, size=(5, 5)) * 10.0 ** rng.integers(-8, 8, (5, 5))
    a[0, 0] = -3.0  # an integer literal in JSON
    path = str(tmp_path / "m.txt")
    _write(a, path, structured=structured)
    back = read_matrix(path)
    np.testing.assert_array_equal(back, a)  # bitwise, 17 significant digits


@pytest.mark.parametrize("name, payload", [
    # an integer beyond float64 range
    ("huge.json", b'{"rows": [[1' + b"0" * 400 + b"]]}"),
    # more digits than int() converts
    ("digits.json", b'{"rows": [[' + b"1" * 4400 + b"]]}"),
    ("latin1.txt", b"\xff\xfe1\n"),
    ("deep.json", b'{"rows": ' + b"[" * 100000 + b"]" * 100000 + b"}")])
def test_unreadable_file_exits_2(runner, tmp_path, name, payload):
    path = tmp_path / name
    path.write_bytes(payload)
    res = runner.invoke(main, ["classify", str(path)])
    assert res.exit_code == 2
    assert isinstance(res.exception, SystemExit)
    assert res.stderr.startswith(f"error: {path}: ")
    assert "Traceback" not in res.stderr


def test_read_structured_detection(tmp_path):
    path = str(tmp_path / "m.json")
    path2 = str(tmp_path / "m2.json")
    with open(path, "w") as fh:
        fh.write('{"rows": [[1.0, 2.0], [3.0, 4.0]]}')
    np.testing.assert_array_equal(read_matrix(path),
                                  [[1.0, 2.0], [3.0, 4.0]])
    with open(path2, "w") as fh:
        fh.write('  \n {"rows": [[0]]}')  # leading whitespace still JSON
    assert read_matrix(path2)[0, 0] == 0.0


def test_read_text_blank_lines_skipped(tmp_path):
    path = str(tmp_path / "m.txt")
    with open(path, "w") as fh:
        fh.write("1 2\n\n3 4\n")
    assert read_matrix(path).shape == (2, 2)


def test_read_ragged_reports_line(tmp_path):
    path = str(tmp_path / "m.txt")
    with open(path, "w") as fh:
        fh.write("1 2\n3 4 5\n")
    with pytest.raises(MatrixFormatError) as info:
        read_matrix(path)
    assert info.value.line == 2


def test_read_bad_token_reports_line_and_column(tmp_path):
    path = str(tmp_path / "m.txt")
    with open(path, "w") as fh:
        fh.write("1 2\n3 x\n")
    with pytest.raises(MatrixFormatError) as info:
        read_matrix(path)
    assert info.value.line == 2 and info.value.column == 2


def test_read_nonsquare_rejected(tmp_path):
    path = str(tmp_path / "m.txt")
    with open(path, "w") as fh:
        fh.write("1 2 3\n4 5 6\n")
    with pytest.raises(MatrixFormatError):
        read_matrix(path)


def test_read_structured_rejects_junk(tmp_path):
    path = str(tmp_path / "m.json")
    with open(path, "w") as fh:
        fh.write('{"cols": [[1]]}')
    with pytest.raises(MatrixFormatError):
        read_matrix(path)


# --- classify -----------------------------------------------------------------

def test_classify_fan_fixture(runner):
    res = runner.invoke(main, ["classify", fixture("ex31_a.txt")])
    assert res.exit_code == 0
    assert "nonsingular_m_matrix: true" in res.output


def test_classify_identity_flags(runner, tmp_path):
    path = str(tmp_path / "eye.txt")
    _write(np.eye(3), path)
    res = runner.invoke(main, ["classify", path])
    assert res.exit_code == 0
    assert "irreducible: false" in res.output
    assert "strictly_row_dd: true" in res.output


def test_classify_ragged_exits_2(runner, tmp_path):
    path = str(tmp_path / "bad.txt")
    with open(path, "w") as fh:
        fh.write("1 2\n3\n")
    res = runner.invoke(main, ["classify", path])
    assert res.exit_code == 2
    assert "line 2" in res.output


def test_classify_missing_file_exits_2(runner):
    res = runner.invoke(main, ["classify", "/nonexistent/m.txt"])
    assert res.exit_code == 2


def test_classify_one_by_one_jsonl(runner, tmp_path):
    path = str(tmp_path / "one.txt")
    with open(path, "w") as fh:
        fh.write("5\n")
    res = runner.invoke(main, ["classify", path, "--format", "jsonl"])
    assert res.exit_code == 0
    assert json.loads(res.output)["irreducible"] is True


def test_classify_jsonl(runner):
    res = runner.invoke(main, ["classify", fixture("ex21_a.txt"),
                               "--format", "jsonl"])
    obj = json.loads(res.output.strip())
    assert obj["nonnegative"] is True and obj["z_matrix"] is False


# --- spectral -----------------------------------------------------------------

def test_spectral_rho_value(runner):
    res = runner.invoke(main, ["spectral", "rho", fixture("ex21_a.txt")])
    assert res.exit_code == 0
    line = [l for l in res.output.splitlines() if l.startswith("rho:")][0]
    assert float(line.split()[1]) == pytest.approx(5.7339, abs=5e-4)


def test_spectral_tau_class_gate(runner):
    res = runner.invoke(main, ["spectral", "tau", fixture("ex21_a.txt")])
    assert res.exit_code == 3


def test_spectral_rho_class_gate(runner):
    res = runner.invoke(main, ["spectral", "rho", fixture("ex31_a.txt")])
    assert res.exit_code == 3


def test_spectral_tau_overflowing_inverse_exits_2(runner, tmp_path):
    # a valid M-matrix whose inverse overflows float64
    path = str(tmp_path / "tiny.txt")
    _write(np.eye(2) * 1e-320, path)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = runner.invoke(main, ["spectral", "tau", path])
    assert res.exit_code == 2
    assert isinstance(res.exception, SystemExit)
    assert "error: the inverse of this M-matrix overflows" in res.stderr
    assert "RuntimeWarning" not in res.stderr
    assert "Traceback" not in res.output


def test_badly_row_scaled_m_matrix(runner, tmp_path):
    # diag(1e-200, 1e200)·[[1, -0.1], [-1e-50, 1]]: the first multiplier of
    # A's own elimination overflows, that of the equilibrated E·A·E does not
    path = str(tmp_path / "scaled.txt")
    _write(np.array([[1e-200, -1e-201], [-1e150, 1e200]]), path)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = runner.invoke(main, ["classify", path])
        tau = runner.invoke(main, ["spectral", "tau", path])
    assert res.exit_code == 0
    assert "nonsingular_m_matrix: true" in res.output
    assert tau.exit_code == 0
    line = [l for l in tau.output.splitlines() if l.startswith("tau:")][0]
    assert float(line.split()[1]) == pytest.approx(1e-200, rel=1e-12)


def test_spectral_rho_iterate_underflow_exits_1(runner, tmp_path):
    # rho = 2e200, and an entry of the Perron vector underflows: exit 1 at
    # once, with no warning
    path = str(tmp_path / "vector.txt")
    _write(np.array([[2e-200, 1e-201], [1e150, 2e200]]), path)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        res = runner.invoke(main, ["spectral", "rho", path])
    assert res.exit_code == 1
    assert isinstance(res.exception, SystemExit)
    assert "power iteration left float64 range" in res.stderr
    assert "Traceback" not in res.output


@pytest.mark.parametrize("family,pair,p", [
    ("hadamard", (WORKED_HADAMARD_A, WORKED_HADAMARD_B), []),
    ("fan", (WORKED_FAN_A, WORKED_FAN_B), []),
    ("multi-fan", (WORKED_FAN_A, WORKED_FAN_B), ["--p", "2,2"]),
])
def test_bounds_product_overflow_exits_2(runner, tmp_path, family, pair, p):
    # every entry is finite, but the product leaves float64 range
    paths = [str(tmp_path / f"{k}.txt") for k in "ab"]
    for path, m in zip(paths, pair):
        _write(m * 1e200, path)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = runner.invoke(main, ["bounds", family, *paths, *p])
    assert res.exit_code == 2
    assert isinstance(res.exception, SystemExit)
    product = {"hadamard": "Hadamard product", "fan": "Fan product",
               "multi-fan": "Fan power of order 2"}[family]
    assert f"error: the {product} overflows float64" in res.stderr
    assert "RuntimeWarning" not in res.stderr


def test_spectral_tsv(runner):
    res = runner.invoke(main, ["spectral", "rho", fixture("ex21_b.txt"),
                               "--format", "tsv"])
    header, row = res.output.strip().splitlines()
    assert header.split("\t")[:2] == ["quantity", "value"]
    assert float(row.split("\t")[1]) == pytest.approx(4.0, abs=1e-9)


# --- bounds -------------------------------------------------------------------

def test_bounds_hadamard_table(runner):
    res = runner.invoke(main, ["bounds", "hadamard", fixture("ex21_a.txt"),
                               fixture("ex21_b.txt")])
    assert res.exit_code == 0
    assert "oracle:" in res.output
    for name in ("rho_product", "rho_affine", "rho_oval_deficit",
                 "rho_oval_rowmax"):
        assert name in res.output


def test_bounds_fan_identity_pair(runner, tmp_path):
    path = str(tmp_path / "eye.txt")
    _write(np.eye(3), path)
    res = runner.invoke(main, ["bounds", "fan", path, path,
                               "--format", "jsonl"])
    assert res.exit_code == 0
    rows = [json.loads(l) for l in res.output.strip().splitlines()]
    for row in rows:
        assert row["value"] == pytest.approx(1.0, abs=1e-12)
        assert row["slack"] == pytest.approx(0.0, abs=1e-12)


def test_bounds_hinv_records_variants(runner):
    # the deficit oval has one form: no variant footer and no --variant
    args = ["bounds", "hadamard-inverse", fixture("ex41_a.txt"),
            fixture("ex41_b.txt")]
    res = runner.invoke(main, args)
    assert res.exit_code == 0
    assert "variant" not in res.output
    assert "tau_hinv_deficit_oval  lower      0.176108732062" in res.output
    res = runner.invoke(main, args + ["--variant", "proof"])
    assert res.exit_code == 2
    assert "No such option '--variant'" in res.output


def test_bounds_hinv_large_scale_pair_exits_0(runner, tmp_path):
    # beta is 1e-200 here: a deficit-oval radicand formed as one product of
    # six factors underflows to 0, and the rung is then a bare diagonal
    # product, above the oracle
    path = str(tmp_path / "big.txt")
    _write(np.array([[1e200, -1e199], [-1e199, 1e200]]), path)
    res = runner.invoke(main, ["bounds", "hadamard-inverse", path, path])
    assert res.exit_code == 0, res.output


def test_bounds_wrong_file_count(runner):
    res = runner.invoke(main, ["bounds", "fan", fixture("ex31_a.txt")])
    assert res.exit_code == 2


def test_bounds_class_gate(runner):
    res = runner.invoke(main, ["bounds", "fan", fixture("ex21_a.txt"),
                               fixture("ex21_b.txt")])
    assert res.exit_code == 3


def test_bounds_multi_fan_exponents(runner):
    res = runner.invoke(main, ["bounds", "multi-fan", fixture("ex31_a.txt"),
                               fixture("ex31_b.txt"), "--p", "1,1",
                               "--format", "jsonl"])
    assert res.exit_code == 0
    rows = [json.loads(l) for l in res.output.strip().splitlines()]
    assert rows[-1]["bound"] == "tau_multi_fan"
    assert rows[-1]["value"] == pytest.approx(0.6980, abs=5e-3)


@pytest.mark.parametrize("command", ["bounds", "verify"])
@pytest.mark.parametrize("family, stem", [
    ("hadamard", "ex21"), ("fan", "ex31"), ("hadamard-inverse", "ex41")])
def test_pair_family_rejects_p(runner, command, family, stem):
    files = ([fixture(stem + "_a.txt"), fixture(stem + "_b.txt")]
             if command == "bounds" else ["--trials", "2"])
    res = runner.invoke(main, [command, family, *files, "--p", "2,2"])
    assert res.exit_code == 2
    assert "takes no Hölder exponents" in res.stderr


NOT_Z = [[1.0, 2.0], [3.0, 1.0]]  # nonsingular, not a Z-matrix


@pytest.mark.parametrize("scale, mat_b, code, message", [
    pytest.param(1e-320, NOT_Z, 2, "the inverse of this M-matrix overflows",
                 id="1e-320-2-the inverse of this M-matrix overflows"),
    pytest.param(1.0, NOT_Z, 3, "not a nonsingular M-matrix",
                 id="1.0-3-not a nonsingular M-matrix"),
    pytest.param(1e-320, [[1.0, 1.0], [1.0, 1.0]], 2,
                 "the inverse of this M-matrix overflows",
                 id="1e-320-singular-b-2"),
    pytest.param(1.0, [[1.0, -1.0], [-1.0, 1.0]], 3,
                 "not a nonsingular M-matrix", id="singular-z-b-3")])
def test_bounds_hinv_step_order(runner, tmp_path, scale, mat_b, code,
                                message):
    # B is not a nonsingular M-matrix: A's own error comes first, even
    # where B is singular, and a valid A meets B's class gate before B is
    # inverted
    a, b = str(tmp_path / "a.txt"), str(tmp_path / "b.txt")
    _write(scale * np.eye(2), a)
    _write(np.array(mat_b), b)
    res = runner.invoke(main, ["bounds", "hadamard-inverse", a, b])
    assert res.exit_code == code
    assert f"error: {message}" in res.stderr


@pytest.mark.parametrize("mat_a, p", [
    ([[2.0, 1.0], [1.0, 2.0]], "2,2"), ([[2.0, 0.0], [0.0, 2.0]], "1,2")],
    ids=["both-not-z", "second-not-z"])
def test_bounds_multi_fan_gates_its_factors(runner, tmp_path, mat_a, p):
    # B = [[2, 1], [1, 2]] is not a Z-matrix, yet its Fan square
    # [[4, -1], [-1, 4]] and its Fan product with either A are M-matrices:
    # only the gate τ(B) meets B's class
    mats = [np.array(mat_a), np.array([[2.0, 1.0], [1.0, 2.0]])]
    paths = [str(tmp_path / f"{k}.txt") for k in "ab"]
    for path, m in zip(paths, mats):
        _write(m, path)
    res = runner.invoke(main, ["bounds", "multi-fan", *paths, "--p", p])
    assert res.exit_code == 3
    assert "error: not a nonsingular M-matrix" in res.stderr
    assert "Traceback" not in res.output + res.stderr
    exponents = HolderExponents(tuple(int(x) for x in p.split(",")))
    with pytest.raises(ClassMismatchError, match="not a nonsingular M-matrix"):
        FAMILIES["multi-fan"].evaluate(mats, exponents)


def test_bounds_multi_fan_bad_exponents(runner):
    res = runner.invoke(main, ["bounds", "multi-fan", fixture("ex31_a.txt"),
                               fixture("ex31_b.txt"), "--p", "3,4"])
    assert res.exit_code == 2


def test_fan_oracle_on_the_ex31_fixtures():
    # perfbench times `bounds fan` on these files and fails the run when
    # the oracle leaves 1e-12 of this value, far inside GOLDEN's tolerance
    mats = [read_matrix(fixture(f"ex31_{k}.txt")) for k in "ab"]
    oracle, _ = FAMILIES["fan"].evaluate(mats, None)
    assert abs(oracle - 0.937703658712982) <= 1e-12


@pytest.mark.parametrize("family, stem", [
    ("hadamard", "ex21"), ("fan", "ex31"), ("hadamard-inverse", "ex41"),
    ("multi-fan", "ex31")])
def test_bounds_and_verify_agree_on_the_worked_pair(runner, family, stem):
    # one definition per family: the oracle and every rung that `bounds`
    # reports for the worked pair are exactly trial 0 of `verify`
    p = ["--p", "1,1"] if family == "multi-fan" else []
    res = runner.invoke(main, ["bounds", family, fixture(stem + "_a.txt"),
                               fixture(stem + "_b.txt"), "--format", "jsonl",
                               *p])
    assert res.exit_code == 0
    rows = [json.loads(line) for line in res.output.strip().splitlines()]
    ver = runner.invoke(main, ["verify", family, "--with-paper-examples",
                               "--trials", "1", "--format", "jsonl", *p])
    assert ver.exit_code == 0
    trial0 = json.loads(ver.output.splitlines()[0])
    reported = {r["bound"]: r["value"] for r in rows}
    assert rows[0]["bound"] == "oracle"
    assert set(trial0) - {"trial", "order", "violations"} == set(reported)
    assert reported == {name: trial0[name] for name in reported}


@pytest.mark.parametrize("family, stem, tol, flagged", [
    ("hadamard", "ex21", "-8", {"rho_oval_deficit", "rho_oval_rowmax"}),
    ("fan", "ex31", "-0.2", {"tau_oval_deficit", "tau_oval_rowmax"}),
    ("hadamard-inverse", "ex41", "-0.1",
     {"tau_hinv_jacobi_oval", "tau_hinv_deficit_oval"}),
    ("multi-fan", "ex31", "-0.3", {"tau_multi_fan"})])
def test_bounds_and_verify_share_the_verdict(runner, family, stem, tol,
                                             flagged):
    # a negative tol between two rung slacks of the worked pair: `bounds`
    # and trial 0 of `verify` flag the same rungs
    p = ["--p", "1,1"] if family == "multi-fan" else []
    res = runner.invoke(main, ["bounds", family, fixture(stem + "_a.txt"),
                               fixture(stem + "_b.txt"), "--tol", tol, *p])
    assert res.exit_code == 4
    from_bounds = {line.split()[1] for line in res.stderr.splitlines()
                   if line.startswith("violation: ")}
    ver = runner.invoke(main, ["verify", family, "--with-paper-examples",
                               "--trials", "1", "--format", "jsonl",
                               "--tol", tol, *p])
    assert ver.exit_code == 4
    trial0 = json.loads(ver.stdout.splitlines()[0])
    from_verify = set(trial0["violations"].split(";")) & set(trial0)
    assert from_bounds == from_verify == flagged


# --- verify -------------------------------------------------------------------

def test_verify_small_run_exit_0(runner):
    res = runner.invoke(main, ["verify", "hadamard", "--trials", "5",
                               "--seed", "3"])
    assert res.exit_code == 0
    assert "violations=0" in res.output


def test_verify_single_trial_order_one(runner):
    res = runner.invoke(main, ["verify", "hadamard", "--trials", "1",
                               "--order-min", "1", "--order-max", "1",
                               "--seed", "0"])
    assert res.exit_code == 0


def test_verify_multi_fan_with_examples(runner):
    res = runner.invoke(main, ["verify", "multi-fan", "--p", "1,1",
                               "--trials", "1", "--seed", "0",
                               "--with-paper-examples", "--format", "jsonl"])
    assert res.exit_code == 0
    row = json.loads(res.output.strip().splitlines()[0])
    assert row["tau_multi_fan"] == pytest.approx(0.6980, abs=5e-3)


def test_verify_multi_fan_requires_p_or_m(runner):
    res = runner.invoke(main, ["verify", "multi-fan", "--trials", "2"])
    assert res.exit_code == 2


def test_verify_seed_defaults_to_zero(runner):
    assert "[default: 0]" in runner.invoke(main, ["verify", "--help"]).output
    args = ["verify", "hadamard", "--trials", "3", "--format", "jsonl"]
    assert (runner.invoke(main, args).output
            == runner.invoke(main, [*args, "--seed", "0"]).output)


@pytest.mark.parametrize("args", [
    ["bounds", "fan", fixture("ex31_a.txt"), fixture("ex31_b.txt"),
     "--tol", "nan"],
    ["bounds", "fan", fixture("ex31_a.txt"), fixture("ex31_b.txt"),
     "--tol", "inf"],
    ["verify", "fan", "--trials", "2", "--tol", "nan"],
    ["verify", "fan", "--trials", "2", "--tol", "inf"],
    ["verify", "fan", "--trials", "2", "--margin", "inf"]])
def test_nonfinite_settings_exit_2(runner, args):
    # a non-finite tol would switch the violation test off; an infinite
    # margin cannot shift a diagonal
    res = runner.invoke(main, args)
    assert res.exit_code == 2
    assert "must be finite" in res.stderr
    assert res.stdout == ""


def test_verify_overflowing_margin_exits_2(runner):
    # a finite margin whose diagonal shift rho(P)(1 + margin) overflows is
    # a bad setting, not a generated matrix that fails its class gate
    res = runner.invoke(main, ["verify", "fan", "--trials", "2",
                               "--margin", "1e308"])
    assert res.exit_code == 2
    assert res.stderr == ("error: the diagonal shift rho(P)(1 + margin) "
                          "overflows float64\n")
    assert res.stdout == ""


@pytest.mark.parametrize("family", ["fan", "hadamard-inverse", "multi-fan"])
def test_verify_tiny_margin_exits_3(runner, family):
    # at margin 1e-13 the generated factors round into Z-matrices that
    # fail the M-matrix gate: the family's gate ends the suite with exit 3
    # and one error line
    p = ["--p", "2,2"] if family == "multi-fan" else []
    res = runner.invoke(main, ["verify", family, *p, "--margin", "1e-13",
                               "--trials", "30", "--seed", "3"])
    assert res.exit_code == 3
    assert res.stderr == "error: not a nonsingular M-matrix\n"
    assert "Traceback" not in res.output
    assert res.stdout == ""


def test_verify_fan_overflowing_chain_power_reports(runner):
    # at margin 1e150 the oracle is about 1e300, and oracle^n of the
    # determinant chain overflows: the power is inf, inf <= inf passes,
    # and the suite reports instead of ending in a traceback
    res = runner.invoke(main, ["verify", "fan", "--margin", "1e150",
                               "--trials", "2", "--seed", "1",
                               "--tol", "1e290"])
    assert (res.exit_code, res.stderr) == (0, "")
    assert "family=fan trials=2 violations=0" in res.stdout


def test_verify_bad_order_range(runner):
    res = runner.invoke(main, ["verify", "fan", "--trials", "2",
                               "--order-min", "5", "--order-max", "2"])
    assert res.exit_code == 2


def test_verify_tsv_has_header(runner):
    res = runner.invoke(main, ["verify", "fan", "--trials", "2", "--seed", "1",
                               "--format", "tsv"])
    assert res.exit_code == 0
    header = res.output.splitlines()[0].split("\t")
    assert header[0] == "trial" and "oracle" in header


def test_version_runs_from_source(runner):
    # the version comes from the package, not from install metadata, so it
    # works from a source checkout too
    res = runner.invoke(main, ["--version"])
    assert res.exit_code == 0
    assert __version__ in res.output


def test_in_process_bounds_frees_redirected_stdout():
    # a library caller that redirects stdout must get its buffer back:
    # nothing in the CLI may keep the stream alive after the call
    buf = io.StringIO()
    ref = weakref.ref(buf)
    code = None
    with contextlib.redirect_stdout(buf):
        try:
            main.main(args=["bounds", "fan", fixture("ex31_a.txt"),
                            fixture("ex31_b.txt")],
                      prog_name="mbound", standalone_mode=False)
        except SystemExit as exc:
            code = exc.code
    assert code == 0
    assert buf.getvalue().startswith("oracle: ")
    del buf
    gc.collect()
    assert ref() is None
