"""traceinv benchmark: one workload, one run, every metric on stdout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout (the directory that holds src/traceinv
and BENCHMARK.json).  The load is one user at a terminal: a closed loop
with one client that runs the operations of the workload's question set
(workloads.py) in turn, each after the previous one ends, until the next
would pass the time limit.  Operations run in process through
traceinv.cli.main with --threads 2, and numpy's BLAS runs one thread.

--trace 0 reports the end-to-end metrics with tracing off, scaled to
reference speed (see REF_S).  --trace 1 runs a warm-up set, then untraced
and traced sets in turn (tracing.py), and reports the per-layer metrics
per traced question set.  Outputs are checked after the timed region; the
last stdout line is the JSON result.  Results, spans and the output
digests go to .perfbench/ under the checkout.
"""

from __future__ import annotations

import argparse
import collections
import ctypes
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

# One BLAS thread, set before numpy loads (here and in prepare.py, which
# inherits it): with more, the sampling layer's time depends on the load of
# every core, not only the one the client runs on.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench")
THREADS = "2"
SETUP_REPEATS = 5

# The host's cores are shared, and the speed they give this process
# changes by up to 2x within seconds and between minutes.  A fixed
# computation (Reference) is timed before and after every operation and
# set-up, and each of their times is scaled by REF_S / the mean of those
# two reference times: the machine's speed cancels, the program's cost
# stays.  REF_S is the reference's time on the baseline machine when the
# host is quiet, so scaled times read as seconds there.  The raw times are
# in the results file.
REF_S = 0.030
REF_REPEATS = 2


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not os.path.isfile(os.path.join(SRC, "traceinv", "__init__.py")):
        print(f"error: no traceinv package under {SRC}", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)

    workdir = os.path.join(OUT, f"work-{args.workload}-{args.seed}-{os.getpid()}")
    reference = Reference()
    try:
        reference.measure()
        return _run(args, spec, workdir, _prepare(args.workload, args.seed, workdir), reference)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _prepare(workload, seed, workdir) -> float:
    """One timed set-up in a fresh interpreter; returns its seconds."""
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "prepare.py"), "--src", SRC,
         "--workload", workload, "--seed", str(seed), "--dir", workdir],
        capture_output=True, text=True, timeout=120,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"error: set-up of {workload!r} failed with exit code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def _run(args, spec, workdir, first_setup, reference) -> int:
    sys.path.insert(0, SRC)
    import traceinv
    import traceinv.cli
    import tracing
    import workloads

    with open(os.path.join(workdir, "ops.json")) as fh:
        ops = json.load(fh)
    outdir = os.path.join(workdir, "out")
    os.makedirs(outdir)

    def execute(op, tracer):
        """Run one operation; returns (exit code or None, seconds, error text, output bytes)."""
        out_path = os.path.join(outdir, op["id"] + ".json")
        if os.path.exists(out_path):
            os.remove(out_path)
        idx = tracer.begin(op["id"], "bench") if tracer else None
        t0 = time.perf_counter()
        try:
            if "argv" in op:
                rc = traceinv.cli.main(op["argv"] + ["--threads", THREADS, "--no-timestamp", "--out", out_path])
            else:
                family = traceinv.graphs.load_family(op["family"])
                poly = getattr(traceinv, op["call"])(family)
                with open(out_path, "w") as fh:
                    fh.write(json.dumps(poly.to_json_dict(), indent=2, sort_keys=True) + "\n")
                rc = 0
            error = None
        except Exception:
            rc, error = None, traceback.format_exc()
        dt = time.perf_counter() - t0
        if tracer:
            tracer.end(idx)
        data = None
        if os.path.exists(out_path):
            with open(out_path, "rb") as fh:
                data = fh.read()
        return rc, dt, error, data

    def question_set(tracer=None):
        """Run every operation once; returns (seconds, [(op, rc, dt, error, output bytes)])."""
        wall, runs = 0.0, []
        for op in ops:
            if tracer:
                tracer.op = f"{len(tracer_sets)}:{op['id']}"
            rc, dt, error, data = execute(op, tracer)
            wall += dt
            runs.append((op, rc, dt, error, data))
        return wall, runs

    samples_per_set = sum(workloads.mc_samples(op) for op in ops)
    start = time.perf_counter()
    deadline = start + args.seconds
    walls, runs, tracer_sets = [], [], []
    if not args.trace:
        # the operations in turn until the next would end past the limit;
        # each runs at least once.  The other set-ups are spread over the
        # run, so setup_s and wall_s see the same stretch of machine load;
        # the time they take is added to the limit.
        setup_at = [start + args.seconds * i / SETUP_REPEATS for i in range(1, SETUP_REPEATS)]
        # (operation id or None for a set-up, seconds, index of the reference
        # measured just before it; the next one is measured just after it)
        timed = [(None, first_setup, 0)]

        def spare_setup():
            i = reference.measure()
            timed.append((None, _prepare(args.workload, args.seed, os.path.join(workdir, "spare")), i))

        while True:
            op = ops[len(runs) % len(ops)]
            now = time.perf_counter()
            last = [dt for key, dt, _ in timed if key == op["id"]]
            if last and now + statistics.median(last) > deadline:
                break
            if setup_at and now >= setup_at[0]:
                setup_at.pop(0)
                spare_setup()
                deadline += time.perf_counter() - now
            i = reference.measure()
            rc, dt, error, data = execute(op, None)
            timed.append((op["id"], dt, i))
            runs.append((op, rc, dt, error, data))
        for _ in setup_at:
            spare_setup()
        reference.measure()
        raw, scaled = {}, {}
        for key, dt, i in timed:
            raw.setdefault(key, []).append(dt)
            scaled.setdefault(key, []).append(dt * 2 * REF_S / (reference.times[i] + reference.times[i + 1]))
        setup_times = raw.pop(None)
        setup_s = statistics.median(scaled.pop(None))
        wall_s = sum(statistics.mean(t) for t in scaled.values())
        unscaled = {
            "wall_s": sum(statistics.mean(t) for t in raw.values()),
            "setup_s": statistics.median(setup_times),
            "reference_s": _summary(reference.times),
        }
        peak_rss_mb = max(resource.getrusage(r).ru_maxrss for r in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)) / 1024
    else:
        # a warm-up set, then untraced and traced sets in turn, so both
        # sides of trace.overhead_ratio run warm
        setup_times = [first_setup]
        tracer = tracing.Tracer()
        cpu = [0.0, 0.0]
        runs += question_set()[1]
        while not tracer_sets or time.perf_counter() + 2 * statistics.median(walls) <= deadline:
            wall, set_runs = question_set()
            walls.append(wall)
            runs += set_runs
            restore, missing = tracing.install(tracer)
            try:
                cpu0 = _cpu()
                wall, set_runs = question_set(tracer)
                cpu1 = _cpu()
            finally:
                restore()
            cpu = [c + b - a for c, a, b in zip(cpu, cpu0, cpu1)]
            tracer_sets.append(wall)
            runs += set_runs
        wall_s = statistics.median(walls)

    failures, digests = _check(runs, workloads)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "code_id": _code_id(),
        "machine": _machine(),
        "threads": int(THREADS),
        "setup_s": _summary(setup_times),
        "question_set": [op["id"] for op in ops],
        "passes": len(runs) / len(ops),
        "op_seconds": _op_seconds(runs),
        "samples_per_set": samples_per_set,
        "attempted": len(runs),
    }
    if args.trace:
        record["sets"] = _summary(walls)
        per_set = len(tracer_sets)
        metrics = tracing.layer_metrics(tracer, per_set, missing)
        metrics["process.cpu_s"] = cpu[0] / per_set
        metrics["process.child_cpu_s"] = cpu[1] / per_set
        metrics["trace.wall_s"] = statistics.median(tracer_sets)
        metrics["trace.overhead_ratio"] = metrics["trace.wall_s"] / wall_s
        metrics["samples_per_s"] = samples_per_set / wall_s
        counts = collections.Counter(rec[0] for rec in tracer.spans)
        for name in workloads.REQUIRED_CALLS[args.workload]:
            if name not in missing and not counts.get(name):
                failures.append({"op": "trace", "error": f"no span for {name}, which this workload must call"})
        record.update(
            traced_sets=_summary(tracer_sets),
            span_counts=counts,
            unmeasured={"missing_targets": missing, "count_errors": tracer.hook_errors},
            # per-layer seconds are means per traced set, so compare with the mean set
            layer_share={k: v * per_set / sum(tracer_sets) for k, v in metrics.items()
                         if k.endswith(("self_s", "contract_s", "draw_s")) and v is not None},
            part_share=tracing.part_shares(tracer, {op["id"]: op["part"] for op in ops}, workloads.PART_COST),
        )
        names = spec["per_layer"]
    else:
        metrics = {"wall_s": wall_s, "setup_s": setup_s, "peak_rss_mb": peak_rss_mb}
        record["unscaled"] = unscaled
        if samples_per_set:
            record["samples_per_s"] = samples_per_set / unscaled["wall_s"]
        names = spec["end_to_end"]
    record.update(failed=len(failures), error_rate=len(failures) / len(runs), failures=failures)
    units = {m["name"]: m["unit"] for m in names}
    if set(units) != set(metrics):
        raise SystemExit(f"error: metrics {sorted(set(units) ^ set(metrics))} differ from BENCHMARK.json")
    result = {
        "correct": not failures,
        "attempted": len(runs),
        "failed": len(failures),
        "metrics": {m: {"value": metrics[m], "unit": units[m]} for m in units},
    }
    record["metrics"] = result["metrics"]
    record["reproducibility"] = _reproducibility(args.workload, args.seed, record["code_id"], digests)

    os.makedirs(os.path.join(OUT, "results"), exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}-{time.strftime('%Y%m%dT%H%M%S')}-{os.getpid()}"
    with open(os.path.join(OUT, "results", stem + ".json"), "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    if args.trace:
        tracer.dump(os.path.join(OUT, "results", stem + ".spans.jsonl"))

    for failure in failures:
        print(f"FAILED {failure['op']}: {failure['error'].strip()}")
    if args.trace:
        for name in missing:
            print(f"UNMEASURED: no traceinv module defines {name}; its layer's metrics are null")
        for metric, error in tracer.hook_errors.items():
            print(f"UNMEASURED: {metric}, its count could not be taken ({error})")
    repro = record["reproducibility"]
    print(f"workload {args.workload} seed {args.seed}: {record['passes']:.2f} passes over the question set, "
          f"{len(runs)} operations, {len(failures)} failed; digests agree: {repro['agree']}")
    for name in units:
        print(f"{name} = {metrics[name]} {units[name]}")
    print(json.dumps(result))
    return 0


class Reference:
    """A fixed computation whose time stands for the machine's speed.

    A Python loop over ints and a dict (like search and moments), complex
    matrix products (like the contraction) and normal draws (like the
    sampling draw).  Its buffers are made once, so a pass allocates nothing.
    """

    def __init__(self):
        import numpy as np

        self.np = np
        self.a = np.full((16, 48, 48), 0.5 + 0.5j)
        self.product = np.empty_like(self.a)
        self.normals = np.empty(100_000)
        self.times = []

    def measure(self):
        """Time REF_REPEATS passes; returns the index of their mean in self.times."""
        t0 = time.perf_counter()
        for _ in range(REF_REPEATS):
            total, counts = 0, {}
            for i in range(30_000):
                total += i * i % 7
                counts[i % 977] = counts.get(i % 977, 0) + i
            for _ in range(20):
                self.np.matmul(self.a, self.a, out=self.product)
            rng = self.np.random.default_rng(1)
            for _ in range(5):
                rng.standard_normal(out=self.normals)
        self.times.append((time.perf_counter() - t0) / REF_REPEATS)
        return len(self.times) - 1


def _check(runs, workloads):
    """Failures of every execution, plus the digest of each operation's output.

    An execution fails when it raised, when its output differs from the
    operation's first output in this run, or when that output fails the
    operation's check.
    """
    first, failures, verdicts, outputs = {}, [], {}, {}
    for op, rc, dt, error, data in runs:
        first.setdefault(op["id"], (op, rc, data))
    for op_id, (op, rc, data) in first.items():
        if data is not None:
            outputs[op_id] = json.loads(data)
    for op_id, (op, rc, data) in first.items():
        try:
            verdicts[op_id] = "no output" if data is None else workloads.check(op, rc, outputs[op_id], outputs)
        except Exception:
            verdicts[op_id] = traceback.format_exc()
    for op, rc, dt, error, data in runs:
        reason = error or verdicts[op["id"]]
        if reason is None and data != first[op["id"]][2]:
            reason = "output differs from this operation's first output in the run"
        if reason is not None:
            failures.append({"op": op["id"], "error": reason})
    digests = {
        op_id: {"exact": op["exact"], "sha256": hashlib.sha256(data or b"").hexdigest()}
        for op_id, (op, rc, data) in first.items()
    }
    return failures, digests


def _reproducibility(workload, seed, code_id, digests):
    """Compare this run's output digests with earlier runs of the same inputs.

    Exact operations must give identical bytes at every commit; Monte
    Carlo outputs are compared within one code version only.
    """
    path = os.path.join(OUT, "digests.json")
    store = {}
    if os.path.exists(path):
        with open(path) as fh:
            store = json.load(fh)
    seen = store.setdefault(workload, {}).setdefault(str(seed), {})
    compared, mismatches = 0, []
    for op_id, d in digests.items():
        earlier = seen.setdefault(op_id, {})
        for other_code, sha in earlier.items():
            if other_code == code_id or d["exact"]:
                compared += 1
                if sha != d["sha256"]:
                    mismatches.append({"op": op_id, "code_id": other_code})
        earlier[code_id] = d["sha256"]
    with open(path, "w") as fh:
        json.dump(store, fh, indent=1, sort_keys=True)
    return {"agree": not mismatches, "compared": compared, "mismatches": mismatches, "digests": digests}


def _cpu():
    """(own CPU seconds, CPU seconds of waited-for children)."""
    me = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return me.ru_utime + me.ru_stime, kids.ru_utime + kids.ru_stime


def _summary(values):
    """Median, quartiles, and the highest percentile with ten runs beyond it."""
    n = len(values)
    out = {"runs": n, "median": statistics.median(values), "values": values}
    if n >= 2:
        q = statistics.quantiles(values, n=4)
        out.update(q1=q[0], q3=q[2])
    pct = int(100 * (1 - 10 / n)) if n > 20 else None
    if pct:
        out[f"p{pct}"] = statistics.quantiles(values, n=100)[pct - 1]
    return out


def _op_seconds(runs):
    per_op = {}
    for op, rc, dt, error, data in runs:
        per_op.setdefault(op["id"], []).append(dt)
    return {op_id: _summary(times) for op_id, times in per_op.items()}


def _code_id():
    """Digest of the traceinv sources, naming the code version without git."""
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "traceinv")
    for dirpath, dirnames, filenames in sorted(os.walk(pkg)):
        dirnames.sort()
        for name in sorted(filenames):
            if name.endswith(".py"):
                with open(os.path.join(dirpath, name), "rb") as fh:
                    h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()[:16]


def _machine():
    """What every speed number must name: CPUs, Python, numpy, scipy, BLAS."""
    import numpy
    import scipy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
    }


def _blas_threads():
    """Thread count reported by the loaded OpenBLAS, or None if it cannot be asked."""
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


if __name__ == "__main__":
    sys.exit(main())
