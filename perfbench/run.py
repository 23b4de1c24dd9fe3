"""sarrusjump benchmark: one workload, one seed, one process, one thread.

    python3 perfbench/run.py --workload design_sweep --seed 1 --seconds 30 --trace 0

Run from anywhere; the package is imported from the src/ directory next to
this one, never from an installed copy.  One client drives a closed loop:
each op starts when the previous one returns.  Ops are checked against an
oracle after their timed region; an op that raises or fails a check counts
as failed and is named on stderr.

Times are wall-clock seconds rescaled by an interleaved calibration kernel
to the speed of an unloaded core (see calibrate.py), because the shared
hosts this runs on change speed by tens of percent for minutes at a time.
The raw wall-clock figures are printed beside them and saved.

--trace 0 prints the end-to-end metrics (setup_s, ops_per_s, op_p50_s,
op_tail_s, peak_rss_mb).  --trace 1 spends half of --seconds untraced and
half with spans around every call into the package (see tracing.py) and
prints the per-layer metrics.  Either way the last stdout line is one JSON
object {"correct", "attempted", "failed", "metrics"}; a human-readable
report precedes it, and a JSON report (machine, input hash, latencies,
spans) is written under .perfbench_out/ in the checkout.
"""

from __future__ import annotations

import os

# One thread: pin the BLAS pools before anything imports numpy.  The set-up
# and import-time children inherit this environment.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path
from time import perf_counter

import calibrate
import generate

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

WARMUP_OPS = 5       # untimed; also the prefix whose work counts are reported
SETUP_RUNS = 5       # fresh interpreters timed for setup_s (median)
IMPORTTIME_RUNS = 3  # fresh interpreters under -X importtime (median)
TAIL_BEYOND = 10     # op_tail_s: highest percentile with this many samples above

_SETUP_CHILD = """
import json, sys, time
sys.path[:0] = [{src!r}, {bench!r}]
import calibrate, generate
specs = generate.generate({workload!r}, {seed!r})
before = calibrate.calibration()
start = time.perf_counter()
import workloads
imported = time.perf_counter()
derived = workloads.prepare({workload!r}, specs)  # benchmark input, off the clock
restart = time.perf_counter()
workloads.build({workload!r}, specs, derived, {out!r})
elapsed = (imported - start) + (time.perf_counter() - restart)
print(json.dumps([elapsed, before, calibrate.calibration()]))
"""


def load_package():
    """Import the benchmark modules against ROOT/src, refusing any other copy."""
    sys.path.insert(0, str(SRC))
    import sarrusjump
    origin = Path(sarrusjump.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise ImportError(f"sarrusjump imported from {origin}, not from {SRC}")
    import workloads
    return workloads


def _child(args, code):
    return subprocess.run([sys.executable, *args, "-c", code], cwd=ROOT,
                          capture_output=True, text=True, timeout=120, check=True)


def setup_seconds(workload, seed, outdir):
    """(scaled, raw) medians over fresh interpreters of import sarrusjump plus
    building the workload's configs and ops; workloads.prepare, which makes
    the inputs, is not timed."""
    code = _SETUP_CHILD.format(src=str(SRC), bench=str(BENCH_DIR), workload=workload,
                               seed=seed, out=str(outdir))
    raw, scaled = [], []
    for _ in range(SETUP_RUNS):
        elapsed, before, after = json.loads(_child([], code).stdout.strip().splitlines()[-1])
        raw.append(elapsed)
        scaled.append(elapsed * calibrate.CAL_REF_S / (0.5 * (before + after)))
    return statistics.median(scaled), statistics.median(raw)


def parse_importtime(stderr: str) -> tuple[float, float]:
    """(sarrusjump cumulative, scipy cumulative) seconds from -X importtime.

    The scipy share is the sum of the cumulative times of scipy modules
    imported by a non-scipy parent, i.e. every first touch of scipy.
    """
    rows = []
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "imported package" in line:
            continue
        _, cumulative, name = line.split("|")
        name = name[1:]  # drop the separator space; the rest is 2 per level
        level = (len(name) - len(name.lstrip(" "))) // 2
        rows.append((level, name.strip(), int(cumulative) * 1e-6))
    total = scipy = 0.0
    ancestors: list[str] = []
    for level, name, cumulative in reversed(rows):  # parents precede children
        del ancestors[level:]
        if name == "sarrusjump" and level == 0:
            total = cumulative
        if name.split(".")[0] == "scipy" and not any(
                a.split(".")[0] == "scipy" for a in ancestors):
            scipy += cumulative
        ancestors.append(name)
    return total, scipy


def import_seconds():
    """Medians over fresh interpreters of parse_importtime, rescaled to the
    reference core speed like every other time."""
    code = (f"import json, sys; sys.path[:0] = [{str(SRC)!r}, {str(BENCH_DIR)!r}]; "
            "import calibrate; before = calibrate.calibration(); import sarrusjump; "
            "print(json.dumps([before, calibrate.calibration()]))")
    runs = []
    for _ in range(IMPORTTIME_RUNS):
        proc = _child(["-X", "importtime"], code)
        scale = calibrate.CAL_REF_S / statistics.fmean(json.loads(proc.stdout))
        runs.append([t * scale for t in parse_importtime(proc.stderr)])
    return (statistics.median(r[0] for r in runs), statistics.median(r[1] for r in runs))


def machine_info():
    import numpy
    import scipy
    info = {"nproc": len(os.sched_getaffinity(0)), "cpu": platform.processor() or "unknown",
            "llc": "unknown", "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__}
    try:
        with open("/proc/cpuinfo") as fh:
            info["cpu"] = next(line.split(":", 1)[1].strip() for line in fh
                               if line.startswith("model name"))
        caches = Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")
        level, size = max((int((c / "level").read_text()), (c / "size").read_text().strip())
                          for c in caches)
        info["llc"] = f"L{level} {size}"
    except (OSError, StopIteration, ValueError):
        pass
    return info


class Phase:
    """Latencies of one closed-loop phase, the problems it found, and the
    fingerprints of its first WARMUP_OPS outputs."""

    def __init__(self):
        self.raw = []        # wall seconds per op
        self.scaled = []     # the same, rescaled to the reference core speed
        self.problems = []   # one line per failed op
        self.fingerprints = {}


def rate(latencies):
    """Ops per second of op time."""
    return len(latencies) / sum(latencies)


def execute(op, tracer=None, op_id=None):
    """(seconds, result, problems) of one op; the oracle runs off the clock."""
    call = op.run
    if tracer is not None:
        tracer.op_id = op_id
        call = tracer.wrap(f"op.{op.kind}", op.run)
    start = perf_counter()
    try:
        result = call()
    except Exception:  # an op that raises is a failed op, not a crash
        return perf_counter() - start, None, [f"raised\n{traceback.format_exc()}"]
    elapsed = perf_counter() - start
    return elapsed, result, op.check(result)


def run_phase(ops, seconds, tracer=None):
    """Run ops[0], ops[1], ... until their wall time reaches seconds (and at
    least WARMUP_OPS ran).  A calibration reading precedes each op and
    follows the last; an op is rescaled by the mean of the two around it."""
    phase = Phase()
    speed = [calibrate.calibration()]
    i = 0
    while sum(phase.raw) < seconds or i < WARMUP_OPS:
        op = ops[i % len(ops)]
        elapsed, result, problems = execute(op, tracer, i)
        phase.raw.append(elapsed)
        if problems:
            phase.problems.append(f"{op.name}: " + "; ".join(problems))
        elif i < WARMUP_OPS:
            phase.fingerprints[i] = op.fingerprint(result)
        speed.append(calibrate.calibration())
        i += 1
    phase.scaled = [t * calibrate.CAL_REF_S / (0.5 * (a + b))
                    for t, a, b in zip(phase.raw, speed, speed[1:])]
    return phase


def repeat_problems(first, second, what):
    return [f"op #{i}: {what} differ between two runs of the same op"
            for i in sorted(set(first) & set(second)) if first[i] != second[i]]


def tail(latencies):
    """(value, percentile, samples above it) of the highest percentile with
    TAIL_BEYOND samples above; with too few samples, the maximum."""
    ordered = sorted(latencies)
    n = len(ordered)
    k = n - TAIL_BEYOND - 1 if n > TAIL_BEYOND else n - 1
    return ordered[k], 100.0 * (k + 1) / n, n - k - 1


def end_to_end(workload, seed, ops, seconds, outdir):
    setup, setup_raw = setup_seconds(workload, seed, outdir)
    warm = run_phase(ops, 0.0)
    main = run_phase(ops, seconds)
    lat = main.scaled
    tail_s, tail_pct, beyond = tail(lat)
    metrics = {
        "setup_s": (setup, "s"),
        "ops_per_s": (rate(lat), "1/s"),
        "op_p50_s": (statistics.median(lat), "s"),
        "op_tail_s": (tail_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6, "MB"),
    }
    wall = {"setup_s": setup_raw, "ops_per_s": rate(main.raw),
            "op_p50_s": statistics.median(main.raw), "op_tail_s": tail(main.raw)[0]}
    notes = [f"op_tail_s is p{tail_pct:.1f} of {len(lat)} ops "
             f"({beyond} beyond it)",
             "wall clock, not rescaled: " + " ".join(f"{k}={v:.6g}" for k, v in wall.items())]
    problems = (warm.problems + main.problems
                + repeat_problems(warm.fingerprints, main.fingerprints, "outputs"))
    return (metrics, len(lat), len(main.problems), problems, notes,
            {"wall": wall, "latencies_s": lat, "wall_latencies_s": main.raw})


def per_layer(workload, seed, ops, seconds, outdir):
    import tracing
    total_s, scipy_s = import_seconds()
    warm = run_phase(ops, 0.0)
    plain = run_phase(ops, seconds / 2)
    with tracing.Tracer().installed() as tracer:
        traced = run_phase(ops, seconds / 2, tracer=tracer)
    # Run the work prefix once more, traced afresh: its work counts must repeat.
    with tracing.Tracer().installed() as again:
        repeat = run_phase(ops, 0.0, tracer=again)
    problems = (warm.problems + plain.problems + traced.problems + repeat.problems
                + repeat_problems(warm.fingerprints, plain.fingerprints, "outputs")
                + repeat_problems(warm.fingerprints, traced.fingerprints, "outputs")
                + repeat_problems(tracing.op_work(tracer.spans, WARMUP_OPS),
                                  tracing.op_work(again.spans, WARMUP_OPS), "work counts"))
    scale = [s / r for s, r in zip(traced.scaled, traced.raw)]
    metrics = {"import.total_s": (total_s, "s"), "import.scipy_s": (scipy_s, "s")}
    metrics.update(tracing.layer_metrics(tracer.spans, WARMUP_OPS, scale))
    metrics["trace.overhead_frac"] = (rate(plain.scaled) / rate(traced.scaled) - 1.0,
                                      "fraction")
    spans = [dict(zip(("name", "start", "end", "parent", "op", "work"), s))
             for s in tracer.spans]
    return (metrics, len(plain.raw) + len(traced.raw),
            len(plain.problems) + len(traced.problems), problems, [],
            {"op_scale": scale, "spans": spans})


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=generate.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    try:
        workloads = load_package()
    except ImportError as exc:
        print(f"perfbench: cannot import the package from {SRC}: {exc}", file=sys.stderr)
        return 1

    specs = generate.generate(args.workload, args.seed)
    digest = generate.inputs_hash(specs)
    OUT.mkdir(exist_ok=True)
    outdir = Path(tempfile.mkdtemp(prefix="work-", dir=OUT))
    try:
        ops = workloads.build(args.workload, specs, workloads.prepare(args.workload, specs),
                              outdir)
        measure = per_layer if args.trace else end_to_end
        metrics, attempted, failed, problems, notes, detail = measure(
            args.workload, args.seed, ops, args.seconds, outdir)
    finally:
        shutil.rmtree(outdir, ignore_errors=True)

    machine = machine_info()
    report = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "inputs_sha256": digest, "machine": machine,
              "attempted": attempted, "failed": failed, "problems": problems,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
              **detail}
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(report, indent=1) + "\n")

    for problem in problems:
        print(f"FAILED {problem}", file=sys.stderr)
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} inputs_sha256={digest}")
    print("machine: " + " ".join(f"{k}={v}" for k, v in machine.items()))
    print(f"ops: attempted={attempted} failed={failed} "
          f"failed_frac={failed / attempted:.6g} (+{WARMUP_OPS} warm-up)")
    for note in notes:
        print(note)
    for key, (value, unit) in metrics.items():
        print(f"  {key:40s} {value:.6g} {unit}")
    correct = not problems
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": report["metrics"]}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
