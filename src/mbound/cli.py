"""Command-line front end.

Subcommands: ``classify`` (structural flags for one matrix), ``spectral``
(rho or tau of one matrix), ``bounds`` (one bound family on explicit
matrix files), ``verify`` (randomized suites).

Exit codes: 0 ok, 1 an iteration did not converge, 2 input error
(unreadable/malformed/non-square file, bad flag combination, a value out
of range), 3 class gate (matrix fails the precondition of the requested
quantity, or is singular), 4 bound violation (a reported bound landed on
the wrong side of its oracle — either an implementation bug or a genuine
counterexample; the report names the offending formula).
"""
from __future__ import annotations

import contextlib
import json
import sys
from typing import List, Optional

import click
import numpy as np

from . import __version__, harness
from . import bounds as bnd
from .core import classify
from .errors import (ClassMismatchError, ConvergenceError, MatrixFormatError,
                     SingularMatrixError)
from .spectral import rho_nonnegative, tau_m_matrix

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_CLASS = 3
EXIT_VIOLATION = 4

_FMT = "%.17g"  # full float64 round-trip


# ----------------------------------------------------------------------
# matrix file I/O
# ----------------------------------------------------------------------

def read_matrix(path: str) -> np.ndarray:
    """Auto-detects the structured format (leading '{') vs plain text.

    Text: one row per line, whitespace-separated decimals, equal counts.
    Structured: one JSON object {"rows": [[...], ...]}.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = fh.read()
    except OSError as exc:
        raise MatrixFormatError(f"cannot read {path}: {exc.strerror}")
    stripped = raw.lstrip()
    if stripped.startswith("{"):
        return _parse_structured(raw, path)
    return _parse_text(raw, path)


def _parse_structured(raw: str, path: str) -> np.ndarray:
    try:
        obj = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise MatrixFormatError(f"{path}: invalid JSON: {exc.msg}",
                                line=exc.lineno, column=exc.colno)
    if not isinstance(obj, dict) or "rows" not in obj:
        raise MatrixFormatError(f"{path}: structured format needs a 'rows' key")
    rows = obj["rows"]
    if not isinstance(rows, list) or not rows:
        raise MatrixFormatError(f"{path}: 'rows' must be a non-empty array")
    width = None
    out = []
    for i, row in enumerate(rows):
        if not isinstance(row, list):
            raise MatrixFormatError(f"{path}: row {i + 1} is not an array",
                                    line=i + 1)
        if width is None:
            width = len(row)
        elif len(row) != width:
            raise MatrixFormatError(
                f"{path}: row {i + 1} has {len(row)} entries, expected {width}",
                line=i + 1)
        vals = []
        for j, x in enumerate(row):
            if isinstance(x, bool) or not isinstance(x, (int, float)):
                raise MatrixFormatError(
                    f"{path}: row {i + 1}, entry {j + 1} is not a number",
                    line=i + 1, column=j + 1)
            vals.append(float(x))
        out.append(vals)
    return _require_square(np.array(out, dtype=np.float64), path)


def _parse_text(raw: str, path: str) -> np.ndarray:
    out = []
    width = None
    for lineno, line in enumerate(raw.splitlines(), start=1):
        if not line.strip():
            continue
        tokens = line.split()
        if width is None:
            width = len(tokens)
        elif len(tokens) != width:
            raise MatrixFormatError(
                f"{path}: line {lineno} has {len(tokens)} entries, expected {width}",
                line=lineno)
        vals = []
        for col, tok in enumerate(tokens, start=1):
            try:
                vals.append(float(tok))
            except ValueError:
                raise MatrixFormatError(
                    f"{path}: line {lineno}, column {col}: not a number: {tok!r}",
                    line=lineno, column=col)
        out.append(vals)
    if not out:
        raise MatrixFormatError(f"{path}: empty matrix file")
    return _require_square(np.array(out, dtype=np.float64), path)


def _require_square(a: np.ndarray, path: str) -> np.ndarray:
    if a.shape[0] != a.shape[1]:
        raise MatrixFormatError(
            f"{path}: matrix is {a.shape[0]}x{a.shape[1]}, expected square")
    if not np.all(np.isfinite(a)):
        raise MatrixFormatError(f"{path}: non-finite entry")
    return a


def write_matrix(a: np.ndarray, path: str, structured: bool = False) -> None:
    """Serialization that round-trips exactly through read_matrix."""
    if structured:
        rows = [[float(_FMT % x) for x in row] for row in a]
        payload = json.dumps({"rows": rows}) + "\n"
    else:
        payload = "\n".join(" ".join(_FMT % x for x in row) for row in a) + "\n"
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(payload)


# ----------------------------------------------------------------------
# report emission: table / tsv / jsonl from the same row dicts
# ----------------------------------------------------------------------

def _echo(message: str, err: bool = False) -> None:
    # the stream goes in explicitly: without ``file=``, click caches a
    # wrapper per sys.stdout object, and for a StringIO that wrapper is the
    # stream itself, so a redirected in-process call would never free it
    click.echo(message, file=sys.stderr if err else sys.stdout)


def _emit(rows: List[dict], fmt: str) -> None:
    if not rows:
        return
    keys = list(rows[0].keys())
    if fmt == "jsonl":
        for row in rows:
            _echo(json.dumps(row))
    elif fmt == "tsv":
        _echo("\t".join(keys))
        for row in rows:
            _echo("\t".join(_cell(row.get(k)) for k in keys))
    else:
        widths = [max(len(k), max(len(_cell(r.get(k))) for r in rows))
                  for k in keys]
        _echo("  ".join(k.ljust(w) for k, w in zip(keys, widths)))
        for row in rows:
            _echo("  ".join(_cell(row.get(k)).ljust(w)
                            for k, w in zip(keys, widths)))


def _cell(x) -> str:
    if x is None:
        return "-"
    if isinstance(x, float):
        return "%.12g" % x
    if isinstance(x, (list, tuple)):
        return ",".join(str(v) for v in x)
    return str(x)


def _fail(code: int, message: str) -> None:
    _echo(f"error: {message}", err=True)
    sys.exit(code)


@contextlib.contextmanager
def _exit_codes():
    """Map the errors of a computation to exit codes: a failed class gate
    or a singular matrix is 3, a bad value 2, non-convergence 1."""
    try:
        yield
    except (ClassMismatchError, SingularMatrixError) as exc:
        _fail(EXIT_CLASS, str(exc))
    except ConvergenceError as exc:
        _fail(1, f"iteration did not converge: {exc}")
    except ValueError as exc:
        _fail(EXIT_INPUT, str(exc))


def _load(path: str) -> np.ndarray:
    try:
        return read_matrix(path)
    except MatrixFormatError as exc:
        # parse messages already carry line/column diagnostics
        _fail(EXIT_INPUT, str(exc))


format_option = click.option(
    "--format", "fmt", type=click.Choice(["table", "tsv", "jsonl"]),
    default="table", show_default=True, help="Report format.")


@click.group()
@click.version_option(version=__version__)
def main():
    """Spectral bound toolkit for entrywise matrix products."""


@main.command("classify")
@click.argument("file", type=click.Path())
@format_option
def cmd_classify(file, fmt):
    """Structural classification flags for one matrix file."""
    a = _load(file)
    c = classify(a)
    rows = [{
        "nonnegative": c.nonnegative,
        "z_matrix": c.z_matrix,
        "nonsingular_m_matrix": c.nonsingular_m_matrix,
        "irreducible": c.irreducible,
        "strictly_row_dd": c.strictly_row_dd,
    }]
    if fmt == "table":
        for k, v in rows[0].items():
            _echo(f"{k}: {str(v).lower()}")
    else:
        _emit(rows, fmt)
    sys.exit(EXIT_OK)


@main.command("spectral")
@click.argument("which", type=click.Choice(["rho", "tau"]))
@click.argument("file", type=click.Path())
@format_option
def cmd_spectral(which, file, fmt):
    """Perron root (rho) of a nonnegative matrix, or minimum eigenvalue
    (tau) of a nonsingular M-matrix."""
    a = _load(file)
    with _exit_codes():
        res = rho_nonnegative(a) if which == "rho" else tau_m_matrix(a)
    rows = [{"quantity": which, "value": res.value,
             "iterations": res.iterations, "residual": res.residual}]
    if fmt == "table":
        _echo(f"{which}: {_FMT % res.value}")
        _echo(f"iterations: {res.iterations}")
        _echo(f"residual: {res.residual:.3e}")
    else:
        _emit(rows, fmt)
    sys.exit(EXIT_OK)


@main.command("bounds")
@click.argument("family", type=click.Choice(list(harness.FAMILIES)))
@click.argument("files", nargs=-1, required=True, type=click.Path())
@click.option("--p", "p_spec", default=None,
              help="Comma-separated Hölder exponents for multi-fan "
                   "(default: all ones).")
@click.option("--tol", type=float, default=harness.VIOLATION_TOL,
              show_default=True,
              help="Direction-violation tolerance for the exit-4 check.")
@format_option
def cmd_bounds(family, files, p_spec, tol, fmt):
    """Evaluate one bound family against its oracle on explicit files.

    hadamard, fan and hadamard-inverse take exactly two files and no --p;
    multi-fan takes one or more (the --p list must match the file count).
    """
    fam = harness.FAMILIES[family]
    if not fam.holder and len(files) != 2:
        _fail(EXIT_INPUT, f"family {family} takes exactly two matrix files")
    mats = [_load(f) for f in files]
    exponents = None
    if fam.holder or p_spec is not None:
        exponents = _parse_exponents(p_spec, len(mats))
    with _exit_codes():
        oracle, ladder = fam.evaluate(mats, exponents)
        rows = [{"bound": br.name, "direction": br.direction,
                 "value": br.value, "slack": fam.slack(oracle, br)}
                for br in ladder]
        bad = [r for r in rows if fam.violates(r["slack"], tol)]
    if fmt == "table":
        _echo(f"oracle: {_FMT % oracle}")
    else:
        rows = [{"bound": "oracle", "direction": "-", "value": oracle,
                 "slack": 0.0}] + rows
    _emit(rows, fmt)
    if bad:
        for r in bad:
            _echo(f"violation: {r['bound']} (slack {r['slack']:.3e})",
                  err=True)
        sys.exit(EXIT_VIOLATION)
    sys.exit(EXIT_OK)


def _parse_exponents(p_spec: Optional[str], m: int) -> bnd.HolderExponents:
    if p_spec is None:
        return bnd.HolderExponents(tuple([1] * m))
    try:
        parts = tuple(int(tok) for tok in p_spec.split(","))
    except ValueError:
        _fail(EXIT_INPUT, f"--p must be comma-separated integers: {p_spec!r}")
    if len(parts) != m:
        _fail(EXIT_INPUT,
              f"--p lists {len(parts)} exponents for {m} matrices")
    try:
        return bnd.HolderExponents(parts)
    except ValueError as exc:
        _fail(EXIT_INPUT, str(exc))


@main.command("verify")
@click.argument("family", type=click.Choice(list(harness.FAMILIES)))
@click.option("--trials", type=int, default=100, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True,
              help="RNG seed.")
@click.option("--order-min", type=int, default=2, show_default=True)
@click.option("--order-max", type=int, default=8, show_default=True)
@click.option("--density", type=float, default=1.0, show_default=True)
@click.option("--margin", type=float, default=0.5, show_default=True,
              help="Diagonal dominance margin for generated M-matrices.")
@click.option("--p", "p_spec", default=None,
              help="Comma-separated Hölder exponents for multi-fan; their "
                   "count is the number of factors.")
@click.option("--with-paper-examples", "with_examples", is_flag=True,
              help="Inject the worked reference pair as trial 0 and compare "
                   "against the circulated reference values.")
@click.option("--tol", type=float, default=harness.VIOLATION_TOL,
              show_default=True, help="Direction-violation tolerance.")
@format_option
def cmd_verify(family, trials, seed, order_min, order_max, density, margin,
               p_spec, with_examples, tol, fmt):
    """Run a randomized suite and exit 0 iff it reports zero violations."""
    fam = harness.FAMILIES[family]
    with _exit_codes():
        spec = harness.GeneratorSpec(kind=fam.kind, order=order_min,
                                     density=density, seed=seed,
                                     diagonal_margin=margin)
        if fam.holder and p_spec is None:
            _fail(EXIT_INPUT, f"{family} needs --p")
        exponents = (None if p_spec is None
                     else _parse_exponents(p_spec, len(p_spec.split(","))))
        reports = harness.run_suite(
            fam, trials, spec, order_min=order_min, order_max=order_max,
            with_examples=with_examples, exponents=exponents, tol=tol)
    rows = []
    max_slack = 0.0
    n_viol = 0
    for rep in reports:
        for br in rep.bounds:
            max_slack = max(max_slack, fam.slack(rep.oracle, br))
        n_viol += len(rep.violations)
        rows.append({
            "trial": rep.trial,
            "order": rep.order,
            "oracle": rep.oracle,
            **{br.name: br.value for br in rep.bounds},
            "violations": ";".join(rep.violations) if rep.violations else "",
        })
    _emit(rows, fmt)
    _echo(f"family={family} trials={trials} violations={n_viol} "
          f"max_slack={max_slack:.6g}")
    sys.exit(EXIT_OK if n_viol == 0 else EXIT_VIOLATION)


if __name__ == "__main__":
    main()
