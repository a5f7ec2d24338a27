"""Layered benchmark for groupframes.

    python3 perfbench/run.py --workload tables|sweep|large --seed N \\
        --seconds S --trace 0|1 [--size full|tiny]

Run it from the root of a source checkout; the package is imported from
src/ there, and nothing outside the checkout is read or written.  Outputs
go to .perfbench/ in the checkout.

--trace 0 measures the end-to-end metrics.  Set-up time is the median over
several fresh interpreters.  Then the workload's operation list runs as a
closed loop with one client, cycling through the list until every
operation has run once and the timed calls add up to --seconds; wall_s is
the sum of each operation's mean time, the time to run the list once.
--trace 1 runs each operation once untraced and once traced, back to back,
and prints the per-layer metrics (per-run sums over the traced calls and
the set-up), the tracing overhead, and whether the traced calls wrote
byte-identical reports.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  Lines before it print every
metric with its unit, fail_frac with its base, each failed operation with
its error type, the probes (operations that fail on the seed program,
run once after the timed loop and kept out of attempted/failed), and the
environment.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
STARTUP_REPEATS = 3


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("tables", "sweep", "large"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny runs a few small operations per workload")
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    return args


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------

def fresh_interpreter_s(code: str, env: dict) -> float:
    """Seconds from starting a fresh interpreter until it has run code."""
    probe = f"{code}\nimport time\nprint(time.monotonic())\n"
    start = time.monotonic()
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                          text=True, env=env, cwd=ROOT, timeout=150)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up child failed:\n{proc.stderr}")
    return float(proc.stdout.split()[-1]) - start


@dataclass
class Runs:
    """Executions of an operation list, one entry per operation."""

    times_s: list          # seconds of each execution
    digests: list          # digest of the last execution's outputs
    failures: list = field(default_factory=list)   # (op name, error)

    @classmethod
    def empty(cls, n: int) -> "Runs":
        return cls([[] for _ in range(n)], [None] * n)

    @property
    def attempted(self) -> int:
        return sum(len(t) for t in self.times_s)

    @property
    def op_s(self) -> list:
        """Mean time of each operation over its executions."""
        return [statistics.fmean(t) for t in self.times_s]


def run_once(op, k: int, runs: Runs, recorder=None) -> float:
    """Run operation k once, check it and record it in runs; returns the
    seconds the call took."""
    out = error = None
    scope = recorder.operation(f"{k}:{op.name}") if recorder \
        else nullcontext()
    start = time.perf_counter()
    with scope:
        try:
            out = op.run()
        except Exception as exc:  # a raising operation is a failure
            error = type(exc).__name__
    elapsed = time.perf_counter() - start
    runs.times_s[k].append(elapsed)
    if error is None:
        problems = op.check(out)
        error = problems[0] if problems else None
        runs.digests[k] = op.digest(out)
    if error is not None:
        runs.failures.append((op.name, error))
    return elapsed


def run_ops(ops, recorder=None, seconds: float = 0.0) -> Runs:
    """Run the operations in order, one at a time, cycling through the
    list until each has run once and the timed calls add up to seconds."""
    runs = Runs.empty(len(ops))
    measured, i = 0.0, 0
    while ops and (i < len(ops) or measured < seconds):
        measured += run_once(ops[i % len(ops)], i % len(ops), runs, recorder)
        i += 1
    return runs


def quantile(values, k: int) -> float:
    """k-th decile cut point (k = 5 is the median)."""
    return statistics.quantiles(values, n=10, method="inclusive")[k - 1]


def peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# environment
# ---------------------------------------------------------------------------

def git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def blas_info() -> dict:
    import ctypes
    import numpy as np
    deps = np.__config__.CONFIG.get("Build Dependencies", {})
    blas = deps.get("blas", {})
    info = {"name": blas.get("name"), "version": blas.get("version"),
            "threads": None}
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return info
    for path in sorted(set(re.findall(r"/\S*openblas\S*\.so\S*", maps))):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                info["threads"] = fn()
                return info
    return info


def mem_total_kb() -> int | None:
    try:
        for line in Path("/proc/meminfo").read_text().splitlines():
            if line.startswith("MemTotal:"):
                return int(line.split()[1])
    except OSError:
        pass
    return None


def reference_ms() -> float:
    """Median time of a fixed Python loop and NumPy product.  It changes
    only with the machine, so comparing it across runs tells machine speed
    drift apart from a change in the program."""
    import numpy as np
    a = np.random.default_rng(0).standard_normal((256, 256))
    times = []
    for _ in range(5):
        start = time.perf_counter()
        total = 0
        for i in range(200_000):
            total += i
        a @ a
        times.append(time.perf_counter() - start)
    return statistics.median(times) * 1e3


def environment(seed: int) -> dict:
    import numpy as np
    return {
        "git_commit": git_commit(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_info(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "mem_total_kb": mem_total_kb(),
        "reference_ms": reference_ms(),
        "seed": seed,
    }


# ---------------------------------------------------------------------------
# runs
# ---------------------------------------------------------------------------

def timed_run(wl, seconds: float, env: dict) -> dict:
    setups = [fresh_interpreter_s(wl.setup_code, env)
              for _ in range(wl.setup_repeats)]
    wl.setup()
    runs = run_ops(wl.ops, seconds=seconds)
    op_ms = [t * 1e3 for t in runs.op_s]
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": sum(runs.op_s),
        "op_p50_ms": quantile(op_ms, 5),
        "op_p90_ms": quantile(op_ms, 9),
        "peak_rss_mb": peak_rss_mb(children=wl.name == "tables"),
    }
    probes = run_ops(wl.probes)
    notes = [
        f"setup_s: median of {len(setups)} fresh interpreters "
        f"({', '.join(f'{s:.4f}' for s in setups)})",
        f"wall_s: sum over {len(wl.ops)} operations of each one's mean time;"
        f" {runs.attempted} executions in {sum(map(sum, runs.times_s)):.3f} s",
        f"op_p50_ms, op_p90_ms: over {len(op_ms)} operations' mean times",
        "peak_rss_mb: " + ("largest child process" if wl.name == "tables"
                           else "benchmark process"),
    ]
    return {"metrics": metrics, "runs": [runs], "probes": probes,
            "notes": notes, "mismatches": []}


def traced_run(wl, env: dict, spans_path: Path) -> dict:
    from recorder import Recorder, layer_metrics
    startup = [fresh_interpreter_s("import groupframes", env)
               for _ in range(STARTUP_REPEATS)]
    rec = Recorder()
    wl.in_process = True
    with rec, rec.operation("setup"):
        wl.setup()
    untraced, traced = Runs.empty(len(wl.ops)), Runs.empty(len(wl.ops))
    for k, op in enumerate(wl.ops):
        # each operation runs untraced and traced back to back, in turns
        # first, so that warm-up costs fall on both sides alike
        for tracing in ((False, True) if k % 2 == 0 else (True, False)):
            if tracing:
                with rec:
                    run_once(op, k, traced, rec)
            else:
                run_once(op, k, untraced)
    with rec:
        probes = run_ops(wl.probes, rec)
    rec.write(spans_path)
    mismatches = [op.name for op, a, b in zip(wl.ops, untraced.digests,
                                             traced.digests) if a != b]
    layers = layer_metrics(rec.spans)
    layers["cli.startup_ms"] = statistics.median(startup) * 1e3
    traced_s, untraced_s = sum(traced.op_s), sum(untraced.op_s)
    layers["trace.overhead_s"] = traced_s - untraced_s
    notes = [
        f"traced wall_s {traced_s:.4f} s, untraced {untraced_s:.4f}"
        f" s over the same {len(wl.ops)} operations"
        + (" (in-process cli.main)" if wl.name == "tables" else ""),
        f"spans: {len(rec.spans)} written to {spans_path.relative_to(ROOT)}",
        f"dense_share base: "
        f"{layers['coherence.analyze.total_ms']:.3f} ms of analyze",
        "traced and untraced reports byte-identical: "
        + ("yes" if not mismatches else f"NO ({len(mismatches)} differ)"),
    ]
    return {"metrics": layers, "runs": [untraced, traced],
            "probes": probes, "notes": notes, "mismatches": mismatches}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "groupframes" / "__init__.py").is_file():
        sys.stderr.write(f"perfbench: no package source at {SRC}; run from "
                         "the root of a groupframes checkout\n")
        return 2
    sys.path.insert(0, str(SRC))
    import metrics as M
    import workloads

    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{args.workload}"
    shutil.rmtree(workdir, ignore_errors=True)
    wl = workloads.WORKLOADS[args.workload](args.seed, args.size == "tiny",
                                           workdir)
    env = workloads.child_env()
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    try:
        if args.trace:
            run = traced_run(wl, env, OUT / f"spans-{tag}.jsonl")
            specs = M.PER_LAYER
        else:
            run = timed_run(wl, args.seconds, env)
            specs = M.END_TO_END
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(r.attempted for r in run["runs"])
    failures = [f for r in run["runs"] for f in r.failures]
    failures += [(name, "TraceChangedOutput") for name in run["mismatches"]]
    probe_failures = run["probes"].failures
    fixed = [op.name for op in wl.probes
             if op.name not in {name for name, _ in probe_failures}]
    correct = not failures

    values = {m.name: float(run["metrics"].get(m.name, 0.0)) for m in specs}
    result_env = environment(args.seed)
    lines = [f"perfbench {args.workload} seed={args.seed} trace={args.trace}"
             f" size={args.size}",
             "env " + json.dumps(result_env, sort_keys=True)]
    for spec in specs:
        moves = f"  -> {spec.moves}" if spec.moves else ""
        lines.append(f"{spec.name} {values[spec.name]!r} {spec.unit}{moves}")
    if args.trace:
        subs = sorted(k for k in run["metrics"]
                      if k.startswith("cli.main.") and k.count(".") == 3)
        for key in subs:
            lines.append(f"{key} {run['metrics'][key]!r} ms  "
                         f"-> {M.CLI_MAIN_MOVES}")
    lines += run["notes"]
    lines.append(f"fail_frac {len(failures) / attempted!r} "
                 f"({len(failures)} of {attempted} ops)")
    lines += [f"failed: {name}: {err}" for name, err in failures]
    calls = attempted + len(wl.probes)
    failed_calls = len(failures) + len(probe_failures)
    lines.append(f"fail_frac with probes {failed_calls / calls!r} "
                 f"({failed_calls} of {calls} calls)")
    lines += [f"probe failed (known defect): {name}: {err}"
              for name, err in probe_failures]
    lines += [f"probe passes now: {name}" for name in fixed]
    print("\n".join(lines))

    record = {"workload": args.workload, "seed": args.seed,
              "trace": args.trace, "size": args.size, "env": result_env,
              "metrics": run["metrics"], "attempted": attempted,
              "failures": failures, "probe_failures": probe_failures,
              "notes": run["notes"],
              "op_ms": {op.name: [t * 1e3 for t in run["runs"][0].times_s[i]]
                        for i, op in enumerate(wl.ops)},
              "probe_ms": {op.name: run["probes"].times_s[i][0] * 1e3
                           for i, op in enumerate(wl.probes)}}
    (OUT / f"result-{tag}.json").write_text(
        json.dumps(record, sort_keys=True, indent=2) + "\n")
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": len(failures),
        "metrics": {m.name: {"value": values[m.name], "unit": m.unit}
                    for m in specs if m.declared}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
