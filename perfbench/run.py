"""mbound benchmark: one workload, one seed, one timed run.

    python3 perfbench/run.py --workload suite-dense --seed 1 --seconds 25 --trace 0

Run from the root of a checkout of the repository.  The load is a closed
loop in one process and one thread: the next operation starts when the
previous one returns.  ``--trace 0`` prints the end-to-end metrics,
``--trace 1`` the per-layer metrics from a separate traced run.  Every
operation's output is checked after the clock stops; the last line of
standard output is one JSON object, and the exit code is 0 only if every
check passed.  See perfbench/README.md.
"""
from __future__ import annotations

import os

# one BLAS thread, set before numpy is first imported
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")

DIGEST_OPS = 24  # the report digest covers the first operations of a run
PAIR_EVERY = 5  # a traced run repeats every fifth operation untraced
SETUP_REPS = 11  # fresh interpreters timed per run for setup_s
# setup_s times a one-shot `mbound bounds fan` on the 3x3 worked example
SETUP_ARGS = ("bounds", "fan", "fixtures/ex31_a.txt", "fixtures/ex31_b.txt",
              "--format", "jsonl")
SETUP_ORACLE = 0.937703658712982
SETUP_SNIPPET = "import sys; from mbound.cli import main; sys.exit(main())"
# the fixed start-up that setup_s is measured against; it never loads mbound
STARTUP_SNIPPET = "import numpy"


def find_program():
    """Put the checkout's src/ on the path; False if it is not there."""
    if not os.path.isfile(os.path.join(ROOT, "src", "mbound", "__init__.py")):
        return False
    sys.path.insert(0, os.path.join(ROOT, "src"))
    return True


class Record:
    """One operation as run: when it started, its wall time and the same
    in reference seconds, the class of what it raised and whether that is
    a known defect of the workload, what the correctness gate found, the
    pairs it evaluated, a sha256 of its output, and in a traced run the
    wall time of its untraced repeat (if it had one)."""

    __slots__ = ("op", "start", "seconds", "scaled", "error", "known",
                 "problems", "pairs", "out", "untraced")

    def __init__(self, op, start, seconds, error):
        self.op = op
        self.start = start
        self.seconds = seconds
        self.scaled = seconds
        self.error = error
        self.known = False
        self.problems = []
        self.pairs = 0
        self.out = ""
        self.untraced = None

    @property
    def ok(self):
        return self.error is None and not self.problems

    @property
    def failed(self):
        return not self.ok and not self.known


def execute(work, op, tracer=None):
    """Run one operation; (start, wall seconds, result, error class)."""
    from mbound.errors import MboundError
    from tracing import OP

    idx = tracer.open(OP) if tracer is not None else None
    t0 = time.perf_counter()
    error = None
    result = None
    try:
        result = work.run(op, tracer)
    except MboundError as exc:
        error = type(exc).__name__
    except Exception as exc:  # a raw crash: recorded and failed by the gate
        error = "unexpected:" + type(exc).__name__
        result = traceback.format_exc()
    t1 = time.perf_counter()
    if idx is not None:
        tracer.close(idx)
    if error is None and isinstance(result, tuple) and result[0] != 0:
        error = f"exit{result[0]}"  # a `bounds` call that did not exit 0
    return t0, t1 - t0, result, error


def output_hash(work, result, error):
    text = work.digest_text(result) if error is None else "error:" + error
    return hashlib.sha256(text.encode()).hexdigest()


def check(work, rec, result):
    """The correctness gate for one operation, after its clock stopped.
    Keeps only a hash of the output, so memory does not grow with it."""
    if rec.error is None or rec.error.startswith("exit"):
        rec.problems.extend(work.gate(rec.op, result))
    elif rec.error.startswith("unexpected:"):
        rec.problems.append(result.strip().splitlines()[-1])
    else:
        rec.known = rec.error in work.known_defects
    if rec.error is None:
        rec.pairs = work.pairs(result)
    rec.out = output_hash(work, result, rec.error)


def closed_loop(work, seconds, clock, max_ops=None, tracer=None, use=None):
    """Operations 0, 1, 2, ... until they have taken ``seconds`` of wall
    time between them; each is gated, and the clock calibrated if due,
    before the next starts.

    In a traced run (``tracer`` and ``use`` from tracing.install) the gate
    runs on the original functions, and every PAIR_EVERY-th operation is
    repeated untraced right away, so that the two timings of the pair see
    the same machine state and their outputs can be compared."""
    records = []
    timed = 0.0
    while timed < seconds and (max_ops is None or len(records) < max_ops):
        op = work.op(len(records))
        start, secs, result, error = execute(work, op, tracer)
        rec = Record(op, start, secs, error)
        if use is not None:
            use(False)
        try:
            check(work, rec, result)
            if use is not None and op.index % PAIR_EVERY == 0:
                _, rec.untraced, again, again_error = execute(work, op)
                if output_hash(work, again, again_error) != rec.out:
                    rec.problems.append("traced and untraced outputs differ")
        finally:
            if use is not None:
                use(True)
        rec.scaled = clock.tick(secs)
        records.append(rec)
        timed += secs
    return records


def report_digest(records):
    h = hashlib.sha256()
    for rec in records[:DIGEST_OPS]:
        h.update(rec.out.encode() + b"\n")
    return h.hexdigest(), min(len(records), DIGEST_OPS)


def setup_seconds(problems):
    """Median time of a fresh interpreter running one `bounds fan` call,
    in reference seconds and in wall seconds, after one untimed run of
    each command that fills the bytecode cache.

    Each call is timed between two runs of a fixed start-up, a fresh
    interpreter that imports numpy, and converted with their mean:

        reference seconds = wall seconds * STARTUP_REFERENCE / (start-up wall)

    The in-process calibration of the operations does not follow the
    start-up of another process; a neighbouring start-up does."""
    import calibration

    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    cmd = [sys.executable, "-c", SETUP_SNIPPET, *SETUP_ARGS]
    startup_cmd = [sys.executable, "-c", STARTUP_SNIPPET]

    def timed(argv):
        t0 = time.perf_counter()
        proc = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=120)
        return time.perf_counter() - t0, proc

    walls, ratios = [], []
    timed(startup_cmd)
    for rep in range(SETUP_REPS + 1):
        dt, proc = timed(cmd)
        if proc.returncode != 0:
            problems.append(f"setup call exit {proc.returncode}: {proc.stderr.strip()}")
            return dt, dt
        oracle = json.loads(proc.stdout.splitlines()[0])["value"]
        if abs(oracle - SETUP_ORACLE) > 1e-12:
            problems.append(f"setup call oracle {oracle!r}")
        after, _ = timed(startup_cmd)
        if rep:
            walls.append(dt)
            ratios.append(2.0 * dt / (before + after))
        before = after
    return (calibration.STARTUP_REFERENCE * statistics.median(ratios),
            statistics.median(walls))


def end_to_end(records, field):
    """Throughput per family and latency quantiles of the completed
    operations, from their ``field`` durations ("scaled" or "seconds")."""
    from workloads import FAMILIES

    secs = dict.fromkeys(FAMILIES, 0.0)
    pairs = dict.fromkeys(FAMILIES, 0)
    lat = []
    for rec in records:
        if rec.ok:
            secs[rec.op.family] += getattr(rec, field)
            pairs[rec.op.family] += rec.pairs
            lat.append(1000.0 * getattr(rec, field))
    m = {f"trials_per_s.{f}": (pairs[f] / secs[f] if secs[f] else 0.0)
         for f in FAMILIES}
    if len(lat) >= 2:
        m["bounds_ms.p50"] = statistics.median(lat)
        m["bounds_ms.p90"] = statistics.quantiles(lat, n=10)[-1]
    else:
        m["bounds_ms.p50"] = m["bounds_ms.p90"] = lat[0] if lat else 0.0
    return m, len(lat), pairs


def failure_table(records, known):
    """{(family, class): operations} of the failed operations, or with
    ``known`` of those that raised a known defect."""
    table = {}
    for rec in records:
        if (rec.known if known else rec.failed):
            key = (rec.op.family, rec.error or "gate")
            table[key] = table.get(key, 0) + 1
    return {f"{fam}:{cls}": n for (fam, cls), n in sorted(table.items())}


def measure(workload, seed, seconds, trace, max_ops=None):
    """One run; returns the report dict that main() prints."""
    import calibration
    import workloads

    problems = []
    workdir = os.path.join(OUT, f"inputs-{os.getpid()}")
    work = workloads.make(workload, seed, ROOT, workdir)
    try:
        setup, setup_wall = (None, None) if trace else setup_seconds(problems)
        clock = calibration.Clock()
        for i in range(len(workloads.FAMILIES)):  # warm-up, not recorded
            execute(work, work.op(i))
        if trace:
            return traced_run(work, workload, seed, seconds, clock, max_ops, problems)
        records = closed_loop(work, seconds, clock, max_ops)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics, samples, pairs = end_to_end(records, "scaled")
        wall, _, _ = end_to_end(records, "seconds")
        metrics.update(setup_s=setup, peak_rss_mb=rss_mb)
        wall.update(setup_s=setup_wall, peak_rss_mb=rss_mb)
        units = declared(0)
        return summary(workload, seed, seconds, 0, records, problems,
                       {k: (metrics[k], unit) for k, unit in units.items()},
                       {"wall": {k: wall[k] for k in units},
                        "machine_speed": clock.scale(),
                        "latency_samples": samples, "pairs": pairs})
    finally:
        work.close()


def traced_run(work, workload, seed, seconds, clock, max_ops, problems):
    import tracing

    tracer = tracing.Tracer()
    use = tracing.install(tracer)
    try:
        records = closed_loop(work, seconds, clock, max_ops, tracer, use)
    finally:
        use(False)
    paired = [rec for rec in records if rec.untraced is not None]
    traced = sum(rec.seconds for rec in paired)
    untraced = sum(rec.untraced for rec in paired)
    layer = tracing.layer_metrics(tracer)
    layer["trace.overhead_frac"] = traced / untraced - 1.0 if untraced else 0.0
    tracer.write(os.path.join(OUT, f"spans-{workload}.tsv.gz"))
    metrics = {k: (v, tracing.unit_of(k)) for k, v in layer.items()}
    return summary(workload, seed, seconds, 1, records, problems, metrics,
                   {"spans": len(tracer.names)})


def summary(workload, seed, seconds, trace, records, problems, metrics, extra):
    digest, digest_ops = report_digest(records)
    for rec in records:
        problems.extend(f"op {rec.op.index}: {p}" for p in rec.problems)
    failed = sum(1 for rec in records if rec.failed)
    known = sum(1 for rec in records if rec.known)
    return {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "attempted": len(records), "failed": failed,
        "failed_frac": failed / len(records) if records else 0.0,
        "failures": failure_table(records, known=False),
        "known_defect": known,
        "known_defect_frac": known / len(records) if records else 0.0,
        "known_defects": failure_table(records, known=True),
        "problems": problems,
        "digest": digest, "digest_ops": digest_ops,
        "metrics": metrics, **extra,
        "ops": [[r.op.family, round(r.start, 6), r.seconds, r.pairs, r.error]
                for r in records],
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not find_program():
        print(f"error: no mbound sources under {ROOT}/src", file=sys.stderr)
        return 2
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    if args.seed < 0 or args.seconds <= 0:
        print("error: --seed must be >= 0 and --seconds > 0", file=sys.stderr)
        return 2

    rep = measure(args.workload, args.seed, args.seconds, args.trace)
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, f"report-{args.workload}-trace{args.trace}.json"),
              "w", encoding="utf-8") as fh:
        json.dump(rep, fh, indent=1)
        fh.write("\n")

    print(f"workload={rep['workload']} seed={rep['seed']} seconds={rep['seconds']} "
          f"trace={rep['trace']}")
    for name, (value, unit) in rep["metrics"].items():
        wall = f"  (wall {rep['wall'][name]:.6g})" if "wall" in rep else ""
        print(f"  {name} = {value:.6g} {unit}{wall}")
    for key in ("machine_speed", "latency_samples", "spans"):
        if key in rep:
            print(f"  {key} = {rep[key]}")
    print(f"  failed_frac = {rep['failed_frac']:.6g} "
          f"({rep['failed']} of {rep['attempted']} operations)")
    for key, n in rep["failures"].items():
        print(f"  failures[{key}] = {n}")
    print(f"  known_defect_frac = {rep['known_defect_frac']:.6g} "
          f"({rep['known_defect']} of {rep['attempted']} operations)")
    for key, n in rep["known_defects"].items():
        print(f"  known_defects[{key}] = {n}")
    print(f"  digest(first {rep['digest_ops']} ops) = {rep['digest']}")
    for p in rep["problems"][:20]:
        print(f"  PROBLEM {p}")
    correct = not rep["problems"]
    print(json.dumps({
        "correct": correct,
        "attempted": rep["attempted"],
        "failed": rep["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in rep["metrics"].items()
                    if name in declared(args.trace)},
    }))
    return 0 if correct else 1


def declared(trace):
    """{name: unit} of the metrics BENCHMARK.json declares for this mode."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


if __name__ == "__main__":
    sys.exit(main())
