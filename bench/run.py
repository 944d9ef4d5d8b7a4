"""Benchmark of the biplane command line, one workload per run.

    python3 bench/run.py --workload general5 --seed 1 --seconds 10 --trace 0
    python3 bench/run.py --workload all --seed 1            # every workload
    python3 bench/run.py --workload augment --compare bench/out/results/<earlier>.json

Run from the root of a source checkout; the library is imported from its
`src/` and from nowhere else.  One client drives `biplane.cli.main` in this
process, one operation at a time (a closed loop), on input files generated
from the seed, and checks every verdict against a known answer outside the
timed region.  The run makes whole passes over its operations, at least a
workload's minimum and until `--seconds` of wall time have passed, so each
operation weighs the same.

End-to-end metrics: instances_per_s (verified successful ops per second of
timed time, failed ops' time included), latency_p50_s, latency_tail_s (the
highest whole percentile with ten successful samples above it), failure_share,
setup_wall_s (median time to import biplane and write the inputs) and
peak_rss_mb.

On a shared 2-vCPU cloud VM the CPU runs up to 1.6x slower for seconds to
minutes at a time while other tenants are busy, and the wall-clock timings
above moved by 11-35% (interquartile range over ten seeds, as a share of the
median) from run to run.  So each CLI call is bracketed by a probe, a fixed
loop of the benchmark's own code, and the ref_ metrics scale every call's
time to a CPU that runs the probe in PROBE_REF_S; they moved by 3-12% on the
same machine.  setup_s is the set-up time scaled the same way.  BENCHMARK.json
gates on these.  Every timing statistic uses only the fastest few runs of
each op (SAMPLING): a fixed count, so that the tail percentile does not depend
on how many passes fitted in the run.

`--trace 0` reports the end-to-end metrics.  `--trace 1` wraps the public
functions of each module (see tracing.py), makes one pass, repeats it with
the wrappers removed, and reports per-layer metrics and the tracing overhead.
The last line of standard output is the result as one JSON object; the lines
before it are a readable summary.  Results, per-op digests and the spans of a
traced run go to bench/out/.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import itertools
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
sys.path.insert(0, str(BENCH))

from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS, cross, last_json  # noqa: E402

#: set-ups per untraced run: at least the first, more up to the second while
#: their total stays under SETUP_BUDGET_S
SETUP_REPEATS = (3, 9)
SETUP_BUDGET_S = 2.0
WARMUP_S = 1.5  # the CPU runs about a third slower for the first second or so
TAIL_SAMPLES = 10
#: workload -> (minimum passes, fastest runs kept per op)
SAMPLING = {"general5": (1, 1), "augment": (10, 5), "convex-verify": (2, 1)}
#: The ref_ metrics scale the time of each CLI call by PROBE_REF_S / (mean of
#: the probes just before and after it): seconds on a CPU that runs the probe
#: in PROBE_REF_S.
PROBE_REF_S = 1e-3
PROBE_POINTS = [(i * 7919 % 1009, i * i * 104729 % 2003) for i in range(32)]


def import_biplane():
    """Import biplane afresh from the checkout's src/."""
    for key in [k for k in sys.modules if k == "biplane" or k.startswith("biplane.")]:
        del sys.modules[key]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    lib = importlib.import_module("biplane")
    importlib.import_module("biplane.cli")
    if Path(lib.__file__).resolve().parent != SRC / "biplane":
        raise ImportError(f"biplane was imported from {lib.__file__}, not from {SRC}")
    return lib


def set_up(workload: str, seed: int, work: Path, tracer: Tracer | None = None):
    """Import biplane and write the workload's inputs; returns the elapsed
    time, the CLI entry point and the operations."""
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    start = time.perf_counter()
    lib = import_biplane()
    if tracer is not None:
        tracer.install()
    ops = WORKLOADS[workload](lib, work, seed)
    return time.perf_counter() - start, sys.modules["biplane.cli"].main, ops


def probe() -> float:
    """Seconds for a fixed piece of the benchmark's own integer geometry: a
    gauge of how fast the CPU runs right now, independent of the library.
    It takes about 1.1 ms on an idle core of a 2-vCPU cloud VM and up to
    1.9 ms while other tenants load the host."""
    start = time.perf_counter()
    sum(cross(a, b, c) > 0 for a, b, c in itertools.combinations(PROBE_POINTS, 3))
    return time.perf_counter() - start


def warm_up(seconds: float) -> None:
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass


def run_op(main, op) -> tuple[float, float, int | None, str, str | None]:
    """Run the op's CLI calls; returns (timed seconds, the same scaled to the
    reference CPU, last exit code, first line of stderr or of the exception,
    stdout of the last call or None when a call exited with an unexpected
    code)."""
    elapsed = scaled = 0.0
    for i, argv in enumerate(op.calls):
        out, err = io.StringIO(), io.StringIO()
        crash = ""
        gauge = probe()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = time.perf_counter()
            try:
                rc = main(argv)
            except SystemExit as exc:  # argparse refused the arguments
                rc, crash = None, f"argument error, SystemExit({exc.code})"
            except Exception as exc:  # an uncaught exception fails the op, not the run
                rc, crash = None, f"uncaught {type(exc).__name__}: {exc}"
            took = time.perf_counter() - start
        elapsed += took
        scaled += took * PROBE_REF_S * 2 / (gauge + probe())
        want = op.expect_rc if i == len(op.calls) - 1 else 0
        if rc != want:
            lines = (crash or err.getvalue()).strip().splitlines()
            return elapsed, scaled, rc, lines[0] if lines else "", None
    return elapsed, scaled, rc, "", out.getvalue()


def judge(op, stdout: str | None) -> tuple[str, str | None, str | None]:
    """(status, reason, output digest); status is ok, failed or wrong."""
    if stdout is None:
        return "failed", None, None
    if op.check is not None:
        try:
            why = op.check(last_json(stdout))
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            why = f"unreadable report: {exc!r}"
        if why:
            return "wrong", why, None
    data = op.digest_file.read_bytes() if op.digest_file else stdout.encode()
    return "ok", None, hashlib.sha256(data).hexdigest()


def measure(main, ops, seconds: float, min_passes: int,
            tracer: Tracer | None = None) -> list[dict]:
    """Whole passes over `ops`, at least `min_passes` and until `seconds`
    have passed; one record per op run."""
    runs: list[dict] = []
    digests: dict[int, str] = {}
    start, done = time.perf_counter(), 0
    while True:
        for idx, op in enumerate(ops):
            if tracer is not None:
                tracer.op = idx
                before = {k: c[0] for k, c in tracer.counts.items()}
            elapsed, scaled, rc, err, stdout = run_op(main, op)
            status, why, digest = judge(op, stdout)
            if status == "ok" and digests.setdefault(idx, digest) != digest:
                status, why = "wrong", "output differs from an earlier pass"
            run = {"op": idx, "status": status, "seconds": elapsed, "ref_seconds": scaled,
                   "rc": rc, "reason": why or err or None, "digest": digest}
            if tracer is not None:
                tracer.op = -1
                run["counts"] = {k: c[0] - before[k] for k, c in tracer.counts.items()}
            runs.append(run)
        done += 1
        if done >= min_passes and time.perf_counter() - start >= seconds:
            return runs


def tail(samples: list[float]) -> tuple[float, int]:
    """Value and rank of the highest whole percentile with at least
    TAIL_SAMPLES samples above it (nearest-rank); the maximum when there are
    too few samples."""
    xs, n = sorted(samples), len(samples)
    if n <= TAIL_SAMPLES:
        return xs[-1], 100
    pct = 100 * (n - TAIL_SAMPLES) // n
    return xs[max(1, math.ceil(pct * n / 100)) - 1], pct


def fastest(runs: list[dict], keep: int, key) -> list[dict]:
    """The `keep` fastest runs of each op."""
    by_op: dict[int, list[dict]] = {}
    for r in runs:
        by_op.setdefault(r["op"], []).append(r)
    return [r for rs in by_op.values() for r in sorted(rs, key=key)[:keep]]


def timing(runs: list[dict], keep: int, key, prefix: str) -> tuple[dict, int, int]:
    kept = fastest(runs, keep, key)
    ok = [key(r) for r in kept if r["status"] == "ok"]
    tail_s, pct = tail(ok) if ok else (0.0, 0)
    return {f"{prefix}instances_per_s": (len(ok) / sum(key(r) for r in kept), "1/s"),
            f"{prefix}latency_p50_s": (statistics.median(ok) if ok else 0.0, "s"),
            f"{prefix}latency_tail_s": (tail_s, "s")}, pct, len(ok)


def end_to_end(runs: list[dict], keep: int, setups: list[tuple[float, float]]):
    """All end-to-end metrics as name -> (value, unit), and the tail's
    percentile and sample count.  setup_s is scaled like the ref_ metrics
    (BENCHMARK.json gates on it under this fixed name); setup_wall_s is not."""
    raw, pct, count = timing(runs, keep, lambda r: r["seconds"], "")
    ref, _, _ = timing(runs, keep, lambda r: r["ref_seconds"], "ref_")
    return {
        **raw,
        "failure_share": (sum(r["status"] != "ok" for r in runs) / len(runs), "share"),
        "setup_wall_s": (statistics.median(t for t, _ in setups), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        **ref,
        "setup_s": (statistics.median(t * PROBE_REF_S / p for t, p in setups), "s"),
    }, pct, count


def inputs_digest(ops) -> str:
    h = hashlib.sha256()
    for path in dict.fromkeys(p for op in ops for p in op.inputs):
        h.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def failures(workload: str, seed: int, ops, runs: list[dict]) -> list[dict]:
    """Failed ops, one entry per op and reason, with how often it failed."""
    out: dict[tuple, dict] = {}
    for r in runs:
        if r["status"] != "ok":
            op = ops[r["op"]]
            key = (op.slot, r["status"], r["rc"], r["reason"])
            entry = out.setdefault(key, {"workload": workload, "seed": seed, "op": op.slot,
                                         "n": op.n, "status": r["status"], "exit": r["rc"],
                                         "stderr": r["reason"], "times": 0})
            entry["times"] += 1
    return list(out.values())


def benchmark_metrics(kind: str) -> list[str]:
    """Names of the BENCHMARK.json metrics of one kind: end_to_end or per_layer."""
    return [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())[kind]]


def git_commit() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def compare(earlier: Path, result: dict) -> str:
    """How many ops' outputs differ from an earlier results file."""
    prev = json.loads(earlier.read_text())
    if prev["inputs_sha256"] != result["inputs_sha256"]:
        return f"compare {earlier}: inputs differ, so outputs are not comparable"
    before = {op["op"]: op["digest"] for op in prev["ops"]}
    now = {op["op"]: op["digest"] for op in result["ops"]}
    common = sorted(set(before) & set(now))
    changed = [k for k in common if before[k] != now[k]]
    return (f"compare {earlier}: outputs changed on {len(changed)} of {len(common)} ops"
            + (f": {', '.join(changed)}" if changed else ""))


def run_workload(args) -> int:
    work = OUT / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    tracer = Tracer() if args.trace else None
    min_passes, keep = SAMPLING[args.workload]
    if tracer is not None:
        keep = 1
    try:
        warm_up(WARMUP_S)
        setups: list[tuple[float, float]] = []  # (seconds, probe)
        fewest, most = (1, 1) if tracer else SETUP_REPEATS
        while len(setups) < fewest or len(setups) < most and \
                sum(t for t, _ in setups) < SETUP_BUDGET_S:
            gauge = probe()
            elapsed, main, ops = set_up(args.workload, args.seed, work, tracer)
            setups.append((elapsed, (gauge + probe()) / 2))
        if tracer is None:
            runs = measure(main, ops, args.seconds, min_passes=min_passes)
        else:
            runs = measure(main, ops, 0, 1, tracer)  # exactly one pass
            tracer.uninstall()
            plain = measure(main, ops, 0, 1)
        inputs = inputs_digest(ops)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    e2e, tail_pct, tail_count = end_to_end(runs, keep, setups)
    ns = [op.n for op in ops]
    per_op = []
    for idx, op in enumerate(ops):
        mine = [r for r in runs if r["op"] == idx]
        oks = [r["seconds"] for r in mine if r["status"] == "ok"]
        per_op.append({"op": op.slot, "n": op.n, "runs": len(mine), "ok": len(oks),
                       "median_s": statistics.median(oks) if oks else None,
                       "digest": next((r["digest"] for r in mine if r["digest"]), None)})
    result = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "kept_runs_per_op": keep,
        "commit": git_commit(),
        "python": platform.python_version(), "nproc": len(os.sched_getaffinity(0)),
        "ops_per_pass": len(ops), "attempted": len(runs),
        "n": {"min": min(ns), "median": statistics.median(ns), "max": max(ns)},
        "inputs_sha256": inputs,
        "end_to_end": {k: {"value": v, "unit": u} for k, (v, u) in e2e.items()},
        "tail_percentile": tail_pct, "successful_ops": tail_count,
        "setup_runs": [{"seconds": t, "probe_s": p} for t, p in setups],
        "failures": failures(args.workload, args.seed, ops, runs),
        "ops": per_op,
    }
    correct = all(r["status"] != "wrong" for r in runs)
    failed = sum(r["status"] != "ok" for r in runs)
    if tracer is None:
        metrics = {k: e2e[k] for k in benchmark_metrics("end_to_end")}
    else:
        overhead = sum(r["seconds"] for r in runs) / sum(r["seconds"] for r in plain)
        correct = correct and all(r["status"] != "wrong" for r in plain) and \
            [r["digest"] for r in runs] == [r["digest"] for r in plain]
        layers = {**tracer.layer_metrics(), "trace.overhead_ratio": (overhead, "ratio")}
        metrics = {k: layers[k] for k in benchmark_metrics("per_layer")}
        by_op = tracer.totals_by_op()
        result["layers"] = {k: {"value": v, "unit": u} for k, (v, u) in layers.items()}
        result["layers_by_op"] = {
            (ops[i].slot if i >= 0 else "setup"): {
                **{k: {"calls": row["calls"], "s": row["s"]} for k, row in sorted(rows.items())},
                **({"counts": runs[i]["counts"]} if i >= 0 else {})}
            for i, rows in sorted(by_op.items())}
    OUT.mkdir(exist_ok=True)
    (OUT / "results").mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    results_path = OUT / "results" / f"{stem}.json"
    results_path.write_text(json.dumps(result, indent=1) + "\n")
    if tracer is not None:
        tracer.write_spans(OUT / "results" / f"{stem}.spans.tsv")

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"commit {result['commit']}  python {result['python']}  nproc {result['nproc']}")
    print(f"ops per pass {len(ops)}  attempted {len(runs)}  failed {failed}  "
          f"n min/median/max {min(ns)}/{statistics.median(ns)}/{max(ns)}")
    print(f"inputs sha256 {inputs}")
    notes = {"latency_tail_s": f"p{tail_pct} of {tail_count} successful ops",
             "setup_s": f"median of {len(setups)}", "setup_wall_s": f"median of {len(setups)}"}
    if tracer is None:
        print(f"  timings use the fastest {keep} runs of each op; ref_ ones are scaled "
              f"to a CPU that runs the probe in {PROBE_REF_S * 1000:g} ms")
    shown = e2e if tracer is None else {**layers, "failure_share": e2e["failure_share"]}
    for name, (value, unit) in shown.items():
        note = f"  ({notes[name.removeprefix('ref_')]})" \
            if tracer is None and name.removeprefix("ref_") in notes else ""
        print(f"  {name:<46} {value:.6g} {unit}{note}")
    for f in result["failures"]:
        print(f"  {f['status']}: {f['op']} n={f['n']} exit {f['exit']} x{f['times']}: {f['stderr']}")
    if args.compare:
        print(compare(Path(args.compare), result))
    print(f"results {results_path.relative_to(ROOT)}")
    print(json.dumps({"correct": correct, "attempted": len(runs), "failed": failed,
                      "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))
    return 0


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--compare", help="earlier results file to compare output digests with")
    args = p.parse_args(argv)
    if args.workload == "all":
        worst = 0
        for workload in WORKLOADS:
            child = [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
                     "--seconds", str(args.seconds), "--trace", str(args.trace)]
            worst = max(worst, subprocess.run(child, check=False).returncode)
        return worst
    try:
        return run_workload(args)
    except ImportError as exc:
        print(f"error: cannot import biplane from {SRC}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
