"""The three workloads: their inputs, one operation each, and the
correctness gate that checks an operation's output.

Every input is a function of the benchmark seed and the operation index, so
the same seed gives the same operation stream; a run takes operations from
the front of it until their wall times add up to the run's length.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import shutil
from dataclasses import dataclass
from typing import Optional

import numpy as np

from mbound import bounds, cli, harness

from tracing import CLI_CALL

FAMILIES = ("hadamard", "fan", "hadamard-inverse", "multi-fan")
MULTI_FAN_P = (2, 2)
FORMATS = ("table", "tsv", "jsonl")

# relative distance allowed between a reported oracle and a dense
# numpy.linalg.eigvals solve of the same product; the oracles converge to
# 1e-12 and the inputs are well conditioned, so anything wider is a defect
ORACLE_RTOL = 1e-9

SUITE_RUNNERS = {
    "hadamard": "run_hadamard_suite",
    "fan": "run_fan_suite",
    "hadamard-inverse": "run_hinv_suite",
    "multi-fan": "run_multi_fan_suite",
}


@dataclass(frozen=True)
class SuiteRegime:
    """Generator knobs of one suite workload, and trials per suite call.

    Trial counts differ per family so that calls of every family take a
    similar time (hadamard trials are several times cheaper).
    ``known_defects`` names the MboundError classes that the program is
    known to raise on some valid inputs of this regime: a call that raises
    one is counted and reported as a known defect, not as a failed call.
    """

    order_min: int
    order_max: int
    density: float
    margin: float
    trials: dict
    known_defects: tuple = ()


SUITES = {
    # the `mbound verify` defaults: where per-trial Python overhead and
    # classify dominate
    "suite-dense": SuiteRegime(2, 8, 1.0, 0.5, {
        "hadamard": 48, "fan": 12, "hadamard-inverse": 8, "multi-fan": 6}),
    # reducible patterns, near-singular M-matrices, n^3 pair scans; one
    # hadamard-inverse trial per call so one raising trial loses one trial.
    # classify rejects some A o B^-1 (an M-matrix by the Fiedler-Markham
    # lemma) with ClassMismatchError, and power iteration gives up on some
    # near-singular inputs with ConvergenceError
    "suite-sparse-large": SuiteRegime(10, 12, 0.3, 0.05, {
        "hadamard": 10, "fan": 2, "hadamard-inverse": 1, "multi-fan": 2},
        known_defects=("ClassMismatchError", "ConvergenceError")),
}
WORKLOADS = (*SUITES, "cli-bounds")


@dataclass(frozen=True)
class Op:
    index: int
    family: str
    seed: int = 0  # suite workloads: GeneratorSpec seed of this call
    inputs: Optional["InputSet"] = None  # cli-bounds
    fmt: str = ""  # cli-bounds


@dataclass(frozen=True)
class InputSet:
    family: str
    paths: tuple
    mats: tuple


def digest(a: np.ndarray) -> str:
    """The harness's matrix digest: sha256 of the %.17g entries."""
    payload = ";".join("%.17g" % x for x in a.ravel())
    return hashlib.sha256(payload.encode()).hexdigest()[:12]


def trial_rng(seed: int, trial: int) -> np.random.Generator:
    """The harness's per-trial stream for trial ``trial`` of a suite."""
    seed = int(seed) & 0xFFFFFFFFFFFFFFFF
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, trial))))


def fan(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    out = -(a * b)
    np.fill_diagonal(out, np.diag(a) * np.diag(b))
    return out


def reference_oracle(family: str, mats) -> float:
    """The oracle by a dense eigensolver: max modulus for rho, min real
    part for tau."""
    a, b = mats
    if family == "hadamard":
        return float(np.max(np.abs(np.linalg.eigvals(a * b))))
    prod = a * np.linalg.inv(b) if family == "hadamard-inverse" else fan(a, b)
    return float(np.min(np.linalg.eigvals(prod).real))


def oracle_problem(reported: float, family: str, mats) -> Optional[str]:
    ref = reference_oracle(family, mats)
    if abs(reported - ref) <= ORACLE_RTOL * abs(ref):
        return None
    return f"oracle {reported!r} vs eigvals {ref!r}"


class SuiteWorkload:
    """One operation is one ``run_*_suite`` call of several trials."""

    def __init__(self, name: str, seed: int):
        self.seed = seed
        self.regime = SUITES[name]
        self.known_defects = self.regime.known_defects

    def op(self, i: int) -> Op:
        # a distinct GeneratorSpec seed per call; trial t of the call then
        # draws from SeedSequence((that seed, t))
        return Op(i, FAMILIES[i % len(FAMILIES)], seed=(self.seed << 24) + i)

    def spec(self, op: Op) -> harness.GeneratorSpec:
        r = self.regime
        kind = "nonnegative" if op.family == "hadamard" else "m_matrix"
        return harness.GeneratorSpec(kind=kind, order=r.order_min,
                                     density=r.density, seed=op.seed,
                                     diagonal_margin=r.margin)

    def run(self, op: Op, tracer=None):
        r = self.regime
        run_suite = getattr(harness, SUITE_RUNNERS[op.family])
        args = [r.trials[op.family], self.spec(op)]
        if op.family == "multi-fan":
            args.insert(1, bounds.HolderExponents(MULTI_FAN_P))
        return run_suite(*args, order_min=r.order_min, order_max=r.order_max)

    @staticmethod
    def pairs(result) -> int:
        return len(result)

    @staticmethod
    def digest_text(result) -> str:
        """Every oracle and rung value, %.17g, one per line."""
        return "\n".join("%.17g" % v for rep in result
                         for v in (rep.oracle, *(br.value for br in rep.bounds)))

    def gate(self, op: Op, result):
        """Problems with one completed call: violations, inputs that the
        harness generators do not rebuild from (seed, trial), oracles that
        disagree with a dense eigensolver."""
        r = self.regime
        spec = self.spec(op)
        gen = (harness.gen_nonnegative if op.family == "hadamard"
               else harness.gen_m_matrix)
        problems = []
        if len(result) != r.trials[op.family]:
            problems.append(f"{len(result)} reports for {r.trials[op.family]} trials")
        for t, rep in enumerate(result):
            where = f"{op.family} seed={op.seed} trial={t}"
            if rep.violations:
                problems.append(f"{where}: violations {rep.violations}")
            rng = trial_rng(op.seed, t)
            n = r.order_min
            if r.order_max != r.order_min:
                n = int(rng.integers(r.order_min, r.order_max + 1))
            mats = [gen(spec, rng=rng, order=n) for _ in range(2)]
            if (rep.trial, rep.order) != (t, n) or rep.digests != tuple(map(digest, mats)):
                problems.append(f"{where}: inputs do not match digests")
                continue
            bad = oracle_problem(rep.oracle, op.family, mats)
            if bad:
                problems.append(f"{where}: {bad}")
        return problems

    def close(self):
        pass


def _write_text(path: str, a: np.ndarray) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(" ".join("%.17g" % x for x in row) for row in a) + "\n")


def _write_rows(path: str, a: np.ndarray) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"rows": a.tolist()}, fh)
        fh.write("\n")


# shipped worked examples, one pair per family (multi-fan reuses the fan pair)
FIXTURES = (
    ("hadamard", "ex21"),
    ("fan", "ex31"),
    ("hadamard-inverse", "ex41"),
    ("multi-fan", "ex31"),
)


class CliWorkload:
    """One operation is one in-process ``mbound bounds`` call.

    Inputs are matrix files written from the seed at every order 3..12,
    PAIRS text and PAIRS {"rows": ...} JSON pairs per family and order, plus
    the shipped fixtures.  Calls cycle through the pairs with the output
    format rotating table -> tsv -> jsonl.
    """

    ORDERS = range(3, 13)
    # several pairs per family and order, so that how hard one seed's
    # inputs happen to be for power iteration averages out over a run
    PAIRS = 3
    known_defects = ()

    def __init__(self, seed: int, root: str, workdir: str):
        self.workdir = workdir
        os.makedirs(workdir, exist_ok=True)
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, 0xB0))))
        sets = []
        for n in self.ORDERS:
            for structured in (False, True):
                for family in FAMILIES * self.PAIRS:
                    kind = "nonnegative" if family == "hadamard" else "m_matrix"
                    spec = harness.GeneratorSpec(kind=kind, order=n, density=1.0,
                                                 seed=seed, diagonal_margin=0.5)
                    gen = (harness.gen_nonnegative if kind == "nonnegative"
                           else harness.gen_m_matrix)
                    mats = tuple(gen(spec, rng=rng, order=n) for _ in range(2))
                    paths = []
                    for k, a in enumerate(mats):
                        stem = f"{len(sets):03d}_{family}_{k}"
                        if structured:
                            path = os.path.join(workdir, stem + ".json")
                            _write_rows(path, a)
                        else:
                            path = os.path.join(workdir, stem + ".txt")
                            _write_text(path, a)
                        paths.append(path)
                    sets.append(InputSet(family, tuple(paths), mats))
        for family, stem in FIXTURES:
            paths = tuple(os.path.join(root, "fixtures", f"{stem}_{k}.txt")
                          for k in "ab")
            mats = tuple(np.loadtxt(p, ndmin=2) for p in paths)
            sets.append(InputSet(family, paths, mats))
        self.sets = sets

    def op(self, i: int) -> Op:
        s = len(self.sets)
        inputs = self.sets[i % s]
        return Op(i, inputs.family, inputs=inputs,
                  fmt=FORMATS[(i + i // s) % len(FORMATS)])

    @staticmethod
    def args(op: Op):
        args = ["bounds", op.family, *op.inputs.paths, "--format", op.fmt]
        if op.family == "multi-fan":
            args += ["--p", ",".join(map(str, MULTI_FAN_P))]
        return args

    def run(self, op: Op, tracer=None):
        """(exit code, stdout, stderr) of one in-process call."""
        out, err = io.StringIO(), io.StringIO()
        idx = tracer.open(CLI_CALL) if tracer is not None else None
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                cli.main.main(args=self.args(op), prog_name="mbound",
                              standalone_mode=False)
            code = 0
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        finally:
            if idx is not None:
                tracer.close(idx)
        return code, out.getvalue(), err.getvalue()

    @staticmethod
    def pairs(result) -> int:
        return 1

    @staticmethod
    def digest_text(result) -> str:
        return result[1]

    @staticmethod
    def oracle(fmt: str, stdout: str) -> float:
        first = stdout.splitlines()[0 if fmt != "tsv" else 1]
        if fmt == "table":
            key, value = first.split(": ")
        elif fmt == "tsv":
            key, _, value, _ = first.split("\t")
        else:
            row = json.loads(first)
            key, value = row["bound"], row["value"]
        if key != "oracle":
            raise ValueError(f"no oracle row: {first!r}")
        return float(value)

    def gate(self, op: Op, result):
        code, stdout, stderr = result
        where = f"{op.family} {op.fmt} {os.path.basename(op.inputs.paths[0])}"
        if code != 0:
            return [f"{where}: exit {code}: {stderr.strip()}"]
        try:
            reported = self.oracle(op.fmt, stdout)
        except (ValueError, IndexError, KeyError) as exc:
            return [f"{where}: unreadable output ({exc})"]
        bad = oracle_problem(reported, op.family, op.inputs.mats)
        return [f"{where}: {bad}"] if bad else []

    def close(self):
        shutil.rmtree(self.workdir, ignore_errors=True)


def make(name: str, seed: int, root: str, workdir: str):
    if name in SUITES:
        return SuiteWorkload(name, seed)
    return CliWorkload(seed, root, workdir)
