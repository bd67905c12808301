"""mfkit benchmark: run one workload (or all of them) and print its metrics.

    python3 perfbench/run.py --workload catalog --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all

A run imports mfkit from ``src/`` next to this directory, sets up the
workload several times (``setup_s`` is the median), then makes whole passes
over the workload's fixed op list until ``--seconds`` have gone by and the
workload's minimum of passes is done; a timer never cuts a pass short.  Times are
scaled to a reference machine speed measured through the run (see
``reference.py``).  The first pass's outputs are checked, and every later
output must have the same digest as the first pass's.  The last line
of standard output is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics``, end-to-end metrics with ``--trace 0`` and per-layer metrics
with ``--trace 1``.  A human report goes to standard error and the full
result to ``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import math
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import workloads
from reference import Yardstick
from tracer import PER_LAYER, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
SETUP_REPEATS = 15

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "peak_rss_mb": "MB",
}


def tail(samples):
    """(percentile, value) of the highest of p99/p90/p75 with at least ten
    samples beyond it, by nearest rank; None below forty samples."""
    n = len(samples)
    for q in (99, 90, 75):
        if n * (100 - q) >= 1000:
            ordered = sorted(samples)
            return q, ordered[math.ceil(q * n / 100) - 1]
    return None


def fresh_import():
    """Import mfkit from scratch, so each setup pays for the whole import."""
    for name in [n for n in sys.modules if n == "mfkit" or n.startswith("mfkit.")]:
        del sys.modules[name]
    return importlib.import_module("mfkit")


def run_pass(wl, ruler, tracer=None, keep=False):
    """One pass over the op list.

    Returns the op start times, the op times, {key: digest}, {key: error},
    {key: output} when ``keep`` is set, and the bytes of the envelopes the
    ops wrote.
    """
    starts, times, digests, errors, outputs = [], [], {}, {}, {}
    envelope = 0
    for op in wl.ops:
        ruler.tick()
        if tracer is not None:
            tracer.op += 1  # spans of one op execution share this id
        t0 = perf_counter()
        starts.append(t0)
        try:
            out = op.run()
        except Exception as exc:  # a failed op is counted, and the run goes on
            times.append(perf_counter() - t0)
            errors[op.key] = f"{type(exc).__name__}: {exc}"
            continue
        times.append(perf_counter() - t0)
        digests[op.key] = hashlib.sha256(wl.digest(op.key, out).encode()).hexdigest()
        envelope += wl.envelope_bytes(out)
        if keep:
            outputs[op.key] = out
    return starts, times, digests, errors, outputs, envelope


def median_pass(passes) -> list[float]:
    """Each op's median time over the passes.  A burst of machine noise during
    one op of one pass moves this no more than it moves a median, and an op
    keeps its rank among the others."""
    return [statistics.median(ts) for ts in zip(*passes)]


def measure(args) -> dict:
    src = ROOT / "src"
    if not (src / "mfkit" / "__init__.py").is_file():
        raise SystemExit(f"no mfkit package under {src}; run from a checkout of the repository")
    sys.path.insert(0, str(src))
    ruler = Yardstick()

    setups = []  # (start, seconds)
    for _ in range(SETUP_REPEATS):
        ruler.measure()
        t0 = perf_counter()
        mk = fresh_import()
        wl = workloads.WORKLOADS[args.workload](mk, args.seed)
        setups.append((t0, perf_counter() - t0))

    # pass 1 is untraced: its outputs are checked and fix the reference digests
    begin = perf_counter()
    starts, times, reference, errors, outputs, _ = run_pass(wl, ruler, keep=True)
    problems, input_problems = wl.check(outputs)
    del outputs
    bad = {k for k, found in problems.items() if found}
    passes = [(starts, times, errors, set())]

    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install(mk)
        begin = perf_counter()
    envelope = 0
    while len(passes) < wl.min_passes or perf_counter() - begin < args.seconds:
        starts, times, digests, errors, _, env = run_pass(wl, ruler, tracer)
        envelope += env
        passes.append((starts, times, errors, {k for k, d in digests.items() if d != reference.get(k)}))
    ruler.measure()

    attempted = failed = 0
    for _, times, errors, mismatched in passes:
        attempted += len(times)
        failed += len(set(errors) | bad | mismatched)
    all_mismatched = set().union(*(m for *_, m in passes))
    correct = not bad and not input_problems and not all_mismatched

    raw = [times for _, times, _, _ in passes]
    scaled = [[d * ruler.scale(t) for t, d in zip(starts, times)] for starts, times, _, _ in passes]
    timed = slice(1, None) if args.trace else slice(None)
    typical = median_pass(scaled[timed])
    ops_per_s = len(typical) / sum(typical)
    if args.trace:
        metrics = tracer.metrics(len(passes) - 1, envelope)
        metrics["trace.ops_per_s"] = ops_per_s
        metrics["trace.overhead_pct"] = 100.0 * (1.0 - ops_per_s * sum(scaled[0]) / len(scaled[0]))
        units = {k: u for k, (u, _) in PER_LAYER.items()}
    else:
        metrics = {
            "setup_s": statistics.median(d * ruler.scale(t) for t, d in setups),
            "ops_per_s": ops_per_s,
            "op_p50_ms": 1000.0 * statistics.median(typical),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = END_TO_END
    raw_typical = median_pass(raw[timed])
    raw_times = [x for ts in raw[timed] for x in ts]
    op_tail = tail(raw_times)
    run_digest = hashlib.sha256(json.dumps(sorted(reference.items())).encode()).hexdigest()
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": sys.version.split()[0],
        "ops_per_pass": len(wl.ops),
        "passes": len(passes),
        "unscaled": {
            "setup_s": statistics.median(d for _, d in setups),
            "ops_per_s": len(raw_typical) / sum(raw_typical),
            "op_p50_ms": 1000.0 * statistics.median(raw_typical),
            "pass_ops_per_s": [len(ts) / sum(ts) for ts in raw],
            "tail_ms": op_tail and {"percentile": op_tail[0], "value": 1000.0 * op_tail[1], "samples": len(raw_times)},
        },
        "reference_slice_s": {"median": statistics.median(ruler.durations), "count": len(ruler.durations)},
        "digest": run_digest,
        "problems": {k: v for k, v in problems.items() if v},
        "input_problems": input_problems,
        "errors": {k: e for _, _, errors, _ in passes for k, e in errors.items()},
        "mismatched": sorted(all_mismatched),
    }
    RESULTS.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if tracer is not None:
        tracer.write(RESULTS / f"trace-{args.workload}-seed{args.seed}.jsonl", {"workload": args.workload, "seed": args.seed})
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }
    (RESULTS / f"{stem}.json").write_text(json.dumps(dict(detail, result=result), indent=1) + "\n")
    report(args.workload, result, detail)
    return result


def report(name, result, detail) -> None:
    say = lambda msg: print(msg, file=sys.stderr)
    say(f"{name}: {result['attempted']} ops attempted, {result['failed']} failed, "
        f"{detail['passes']} passes of {detail['ops_per_pass']}, correct={result['correct']}, digest {detail['digest'][:16]}")
    for key, m in result["metrics"].items():
        say(f"  {key:34s} {m['value']:14.6g} {m['unit']}")
    raw = detail["unscaled"]
    say(f"  unscaled: setup {raw['setup_s']:.4g} s, {raw['ops_per_s']:.5g} ops/s, p50 {raw['op_p50_ms']:.5g} ms; "
        f"reference slice median {1000 * detail['reference_slice_s']['median']:.4g} ms")
    if raw["tail_ms"]:
        t = raw["tail_ms"]
        say(f"  unscaled op_p{t['percentile']}_ms (not a gated metric) {t['value']:.6g} ms over {t['samples']} ops")
    for key, found in list(detail["problems"].items())[:10]:
        say(f"  CHECK FAILED {key}: {'; '.join(found)}")
    for msg in detail["input_problems"]:
        say(f"  INPUT CHECK FAILED: {msg}")


def run_all(args) -> int:
    """Each workload in a fresh process, one after another."""
    results = {}
    ok = True
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        if not lines or not lines[-1].startswith("{"):
            print(f"{name}: exited with {proc.returncode} and no result", file=sys.stderr)
            ok = False
            continue
        results[name] = json.loads(lines[-1])
        ok = ok and proc.returncode == 0 and results[name]["correct"]
    for name, res in results.items():
        print(f"{name}: attempted {res['attempted']}, failed {res['failed']}, correct {res['correct']}")
        for key, m in res["metrics"].items():
            print(f"  {key} = {m['value']:.6g} {m['unit']}")
    print(json.dumps(results))
    return 0 if ok else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    result = measure(args)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
