"""Benchmark runner for confcalc: one workload per process, closed loop.

Usage, from the root of a source checkout:

    python3 bench/run.py --workload {suite,points,ivp} --seed N \\
        --seconds S --trace {0,1}
    python3 bench/run.py --workload all --seed N --seconds S --trace 1

With ``--trace 0`` the run prints the end-to-end metrics; with
``--trace 1`` it prints the per-layer metrics of one traced pass.  The
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A record with
the environment, every metric and the check details is written to
``.bench_out/`` next to ``bench/``, with the raw spans of a traced run.
``--workload all`` runs each workload in its own process (untraced, and
traced too with ``--trace 1``) and prints one combined result.

Each workload runs in this one process with a single caller: the next op
starts when the previous one returns.  BLAS and OpenMP pools are pinned
to one thread and ``CONFCALC_TOL`` is removed, so kernel defaults apply.
confcalc is imported from ``src/`` of the checkout and nowhere else.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"

THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
# the keys of workloads.WORKLOADS, which cannot be imported before the
# thread variables are set
WORKLOAD_NAMES = ("suite", "points", "ivp")
MIN_PASSES = 3
SETUP_SAMPLES = 5
CHILD_TIMEOUT_S = 170

# set-up as a user pays it: a fresh interpreter imports confcalc (and with
# it numpy) and builds the workload's inputs.  The stdlib modules the
# benchmark needs are imported before the clock starts.  The yardstick
# needs numpy, so it runs twice just after, to scale the time like an op's.
_SETUP_PROBE = """
import sys, time, hashlib, json, math, os, random, traceback, dataclasses
sys.path[:0] = [sys.argv[1], sys.argv[2]]
start = time.perf_counter()
import workloads
w = workloads.WORKLOADS[sys.argv[3]]
w.build(w.spec(int(sys.argv[4])))
elapsed = time.perf_counter() - start
import yardstick
print(repr(elapsed), repr(yardstick.sample()), repr(yardstick.sample()))
"""


def _pin_environment():
    for var in THREAD_VARS:
        os.environ[var] = "1"
    os.environ.pop("CONFCALC_TOL", None)


def _import_package():
    """Import confcalc from this checkout's src/, or explain why not."""
    sys.path[:0] = [str(BENCH_DIR), str(SRC)]
    try:
        import confcalc
    except ImportError as exc:
        raise SystemExit(f"bench: cannot import confcalc from {SRC}: {exc}")
    origin = Path(confcalc.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise SystemExit(f"bench: confcalc was imported from {origin}, not {SRC}")


def _environment(seed):
    import numpy as np

    try:
        commit = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=30, check=True,
        ).stdout.split()
        commit = commit[1] if Path(commit[0]).resolve() == ROOT else None
    except (OSError, subprocess.SubprocessError, IndexError):
        commit = None
    digest = hashlib.sha256()
    for path in sorted((SRC / "confcalc").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "seed": seed,
        "blas_threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "confcalc_tol": os.environ.get("CONFCALC_TOL"),
    }


def _setup_probe(name, seed):
    """Set-up seconds in a fresh interpreter: (raw, at reference speed)."""
    import yardstick

    proc = subprocess.run(
        [sys.executable, "-c", _SETUP_PROBE, str(BENCH_DIR), str(SRC),
         name, str(seed)],
        capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=True,
    )
    raw, speed1, speed2 = (float(v) for v in proc.stdout.split())
    return raw, raw * yardstick.REFERENCE_S / (0.5 * (speed1 + speed2))


def _latency_stats(passes, ops_per_latency):
    """Throughput, p50 and tail over ops, each op's time its median over passes.

    Every pass repeats the same ops.  The tail is the highest percentile
    with at least ten ops beyond it; with ten ops or fewer it is the
    slowest op.  When one timing covers several ops that complete
    together, each of them is given an equal share of it.
    """
    medians = [statistics.median(col) for col in zip(*passes)]
    per_op = sorted(m / ops_per_latency for m in medians for _ in range(ops_per_latency))
    n = len(per_op)
    if n > 10:
        tail, pct = per_op[n - 11], 100.0 * (n - 10) / n
    else:
        tail, pct = per_op[-1], 100.0
    return {
        "ops_per_s": n / math.fsum(per_op),
        "p50_ms": 1e3 * statistics.median(per_op),
        "tail_ms": 1e3 * tail,
        "tail_percentile": pct,
        "ops": n,
        "passes": len(passes),
        "median_ms_per_timing": [1e3 * m for m in medians],
    }


def _timed_passes(w, inputs, seconds, min_passes, between=None):
    """Run whole passes until ``seconds`` of op time have gone by.

    Returns, per pass, the ops' raw times and their times scaled to the
    yardstick's reference speed.  ``between`` runs after each pass, outside
    the timed region, so that set-up samples spread over the run.
    """
    import yardstick

    walls, raw, scaled, speeds = [], [], [], []
    first, mismatched = None, 0
    while True:
        start = time.perf_counter()
        with yardstick.Sampler() as sampler:
            spans, outs = w.run_pass(inputs, OUT_DIR)
        walls.append(time.perf_counter() - start)
        times = [sampler.op_time(s, e) for s, e in spans]
        raw.append([t for t, _ in times])
        scaled.append([t for _, t in times])
        speeds.append(statistics.median(sampler.loops))
        if first is None:
            first = outs
        else:
            mismatched += sum(not w.same(a, b) for a, b in zip(first, outs))
        if between is not None:
            between()
        if len(walls) >= min_passes and math.fsum(map(math.fsum, raw)) >= seconds:
            return {"walls": walls, "raw": raw, "scaled": scaled, "speeds": speeds,
                    "first": first, "mismatched": mismatched}


def _metric(value, unit):
    return {"value": value, "unit": unit}


def measure(w, seed, seconds, trace):
    import tracing

    spec = w.spec(seed)
    record = {"workload": w.name, "why": w.why, "trace": trace,
              "environment": _environment(seed)}
    setup_samples = []

    def probe_setup():
        setup_samples.append(_setup_probe(w.name, seed))

    inputs = w.build(spec)
    w.warmup(inputs, OUT_DIR)
    run = _timed_passes(w, inputs, seconds, 1 if trace else MIN_PASSES,
                        None if trace else probe_setup)
    while not trace and len(setup_samples) < SETUP_SAMPLES:
        probe_setup()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    first, mismatched = run["first"], run["mismatched"]
    walls = run["walls"]
    record["pass_wall_s"] = walls
    record["yardstick_s"] = {"median_per_pass": run["speeds"]}

    if trace:
        # inputs are built again under tracing, so parse_text and the rhs
        # wrapper are seen; set-up spans carry op -1
        with tracing.Tracer() as tracer:
            traced_inputs = w.build(spec, wrap_rhs=lambda f: tracer.wrap("ivp.rhs", f))

            def mark(i):
                tracer.op = i

            start = time.perf_counter()
            _spans, traced_outs = w.run_pass(traced_inputs, OUT_DIR, mark=mark)
            traced_wall = time.perf_counter() - start
        mismatched += sum(not w.same(a, b) for a, b in zip(first, traced_outs))
        record["traced_pass_wall_s"] = traced_wall

    rep = w.check(spec, inputs, first)
    failed_ops = sorted({i for i, _ in rep.failed})
    record["ops_per_pass"] = w.ops_in(first)
    record["check"] = {
        "failed_ops": [reason for _, reason in rep.failed],
        "violations": rep.violations,
        "outputs_differing_between_passes": mismatched,
        **rep.extra,
    }

    if trace:
        untraced = statistics.median(math.fsum(p) for p in run["raw"])
        metrics = per_layer_metrics(tracer, rep, traced_wall / untraced)
        record["spans"] = tracer.summary()
        tracer.write(OUT_DIR / f"{w.name}-seed{seed}-spans.jsonl.gz")
    else:
        lat = _latency_stats(run["scaled"], w.ops_per_latency)
        record["latency"] = lat
        record["latency_raw"] = _latency_stats(run["raw"], w.ops_per_latency)
        record["setup_s"] = {"raw": [r for r, _ in setup_samples],
                             "scaled": [s for _, s in setup_samples]}
        metrics = {
            "setup_s": _metric(statistics.median(s for _, s in setup_samples), "s"),
            "ops_per_s": _metric(lat["ops_per_s"], "1/s"),
            "op_p50_ms": _metric(lat["p50_ms"], "ms"),
            "op_tail_ms": _metric(lat["tail_ms"], "ms"),
            "peak_rss_mb": _metric(peak_rss_mb, "MB"),
        }
    record["metrics"] = metrics
    # every pass repeats the same ops and must give the same outputs, so an
    # op is counted once however many passes ran: attempted and failed then
    # depend on the seed alone, not on how many passes fit in the time
    result = {"correct": not rep.violations and mismatched == 0,
              "attempted": record["ops_per_pass"], "failed": len(failed_ops),
              "metrics": metrics}
    return result, record


def per_layer_metrics(tracer, rep, overhead_ratio):
    from tracing import CASE_STATES, CHECKS, EVAL_KINDS, KERNELS

    spans = tracer.summary()
    counts = tracer.counts
    zero = {"calls": 0, "total_s": 0.0, "self_s": 0.0}

    def span(name):
        return spans.get(name, zero)

    m = {}

    def put(name, value, unit):
        m[name] = _metric(value, unit)

    put("funcs.eval.calls", span("funcs.eval")["calls"], "count")
    put("funcs.eval.self_s", span("funcs.eval")["self_s"], "s")
    for kind in EVAL_KINDS:
        put(f"funcs.eval.self_s.{kind}", span(f"funcs.eval.{kind}")["self_s"], "s")
    put("vecspace.VecValue.created", int(counts["vecspace.VecValue.created"]), "count")
    put("expr.parse_text.calls", span("expr.parse_text")["calls"], "count")
    put("expr.parse_text.s", span("expr.parse_text")["total_s"], "s")
    for fn in KERNELS:
        put(f"calculus.{fn}.calls", span(f"calculus.{fn}")["calls"], "count")
        put(f"calculus.{fn}.self_s", span(f"calculus.{fn}")["self_s"], "s")
    for name in ("calculus.conf_deriv.evals", "calculus.conf_integral_info.evals",
                 "calculus.deriv_of_integral.evals",
                 "calculus.lower_terminal_deriv.points"):
        put(name, int(counts[name]), "count")
    calls = span("calculus.conf_deriv")["calls"]
    put("calculus.conf_deriv.converged_ratio",
        counts["calculus.conf_deriv.converged"] / calls if calls else 0.0, "ratio")
    put("calculus.conf_deriv.bound_held_ratio",
        rep.extra.get("bound_held_ratio", 0.0), "ratio")
    put("calculus.conf_deriv.bound_checked",
        rep.extra.get("bound_checked", 0), "count")
    for fn in CHECKS:
        put(f"identities.{fn}.calls", span(f"identities.{fn}")["calls"], "count")
        put(f"identities.{fn}.self_s", span(f"identities.{fn}")["self_s"], "s")
    put("identities.run_suite.self_s", span("identities.run_suite")["self_s"], "s")
    for state in CASE_STATES:
        put(f"identities.cases.{state}", int(counts[f"identities.cases.{state}"]), "count")
    put("ivp.solve_tau.self_s", span("ivp.solve_tau")["self_s"], "s")
    put("ivp.solve_tau.rhs_evals", int(counts["ivp.solve_tau.rhs_evals"]), "count")
    put("ivp.solve_volterra.self_s", span("ivp.solve_volterra")["self_s"], "s")
    put("ivp.solve_volterra.sweeps", int(counts["ivp.solve_volterra.sweeps"]), "count")
    put("ivp.solve_volterra.refused", int(counts["ivp.solve_volterra.refused"]), "count")
    put("ivp.rhs.calls", span("ivp.rhs")["calls"], "count")
    put("ivp.rhs.s", span("ivp.rhs")["total_s"], "s")
    put("cli.run.self_s", span("cli.run")["self_s"], "s")
    put("cli.output_bytes", rep.extra.get("output_bytes", 0), "B")
    put("trace.overhead_ratio", overhead_ratio, "ratio")
    return m


def _summary_lines(w, result, record):
    import yardstick

    lines = [f"workload {w.name}  seed {record['environment']['seed']}  "
             f"trace {int(record['trace'])}  ops/pass {record['ops_per_pass']}  "
             f"passes {len(record['pass_wall_s'])}"]
    for name, met in result["metrics"].items():
        note = ""
        if name == "op_tail_ms":
            lat = record["latency"]
            note = (f"  (p{lat['tail_percentile']:.2f} of {lat['ops']} ops, each "
                    f"the median of {lat['passes']} passes)")
        lines.append(f"  {name:40s} {met['value']:>14.6g} {met['unit']}{note}")
    if "latency_raw" in record:
        raw = record["latency_raw"]
        lines.append(
            f"  unscaled wall time: ops_per_s {raw['ops_per_s']:.6g}, op_p50_ms "
            f"{raw['p50_ms']:.6g}, op_tail_ms {raw['tail_ms']:.6g}, setup_s "
            f"{statistics.median(record['setup_s']['raw']):.6g}; yardstick "
            f"{1e6 * statistics.median(record['yardstick_s']['median_per_pass']):.4g} us "
            f"against {1e6 * yardstick.REFERENCE_S:.4g} us")
    chk = record["check"]
    if "sha256" in chk:
        lines.append(f"  check JSON sha256 {chk['sha256']} ({chk['output_bytes']} bytes)")
    lines.append(f"  failed {result['failed']} of {result['attempted']} attempted ops; "
                 f"correct {str(result['correct']).lower()}")
    for reason in chk["failed_ops"][:10]:
        lines.append(f"  failed op: {reason}")
    for reason in chk["violations"]:
        lines.append(f"  violation: {reason}")
    if chk["outputs_differing_between_passes"]:
        lines.append(f"  violation: {chk['outputs_differing_between_passes']} "
                     "outputs differ between passes")
    return lines


def run_one(name, seed, seconds, trace):
    import workloads

    w = workloads.WORKLOADS[name]
    OUT_DIR.mkdir(exist_ok=True)
    result, record = measure(w, seed, seconds, trace)
    record.update({k: result[k] for k in ("correct", "attempted", "failed")})
    path = OUT_DIR / f"{name}-seed{seed}-trace{int(trace)}.json"
    path.write_text(json.dumps(record, indent=1, default=str) + "\n")
    for line in _summary_lines(w, result, record):
        print(line)
    print(f"  record: {path.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0


def run_all(seed, seconds, trace):
    """Each workload in its own process; one table and one combined result."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for trace_flag in ((0, 1) if trace else (0,)):
        for name in WORKLOAD_NAMES:
            proc = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                 "--seed", str(seed), "--seconds", str(seconds),
                 "--trace", str(trace_flag)],
                capture_output=True, text=True, timeout=900,
            )
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr)
                raise SystemExit(f"bench: workload {name} exited {proc.returncode}")
            lines = proc.stdout.strip().splitlines()
            print("\n".join(lines[:-1]))
            res = json.loads(lines[-1])
            combined["correct"] = combined["correct"] and res["correct"]
            if not trace_flag:
                combined["attempted"] += res["attempted"]
                combined["failed"] += res["failed"]
            for metric, val in res["metrics"].items():
                combined["metrics"][f"{name}.{metric}"] = val
    print(json.dumps(combined))
    return 0


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True,
                    help="measure whole passes for at least this long")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    _pin_environment()
    _import_package()
    if args.workload == "all":
        return run_all(args.seed, args.seconds, args.trace)
    return run_one(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
