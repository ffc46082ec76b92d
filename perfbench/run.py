"""hebundle benchmark: one workload, cold-process passes, verified results.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace {0,1}

Run from the repository root.  Every pass runs in a fresh interpreter
(cold_pass.py) with BLAS pinned to one thread and generates the same
inputs from --seed.  Within a pass, sympy's global cache is cleared
before every task call: it makes a repeat of the same exact work in one
process much faster than a user's first call.

--trace 0 runs three passes that share the S seconds.  A pass calls
every task once, then goes on calling them in turn until its share ends.
It times a fixed reference kernel (cold_pass.reference_kernel) three
times before the first call and after each call.  The run reports the
end-to-end metrics in BENCHMARK.json.

`wall_s` is the time of one round of the tasks, from inputs ready to
results verified, at a fixed host speed: the speed at which the reference
kernel takes REFERENCE_NOMINAL_S.  Each call's time is multiplied by
REFERENCE_NOMINAL_S over the mean of the six reference times around the
call.  Per task the median scaled call is taken, and these are summed.
`setup_s` is scaled in the same way, by the first three reference times
of its pass.  The host is a few vCPUs of a shared machine whose speed
drifts over seconds and minutes by up to 1.8 times, so times as measured
moved by 20-30% between runs minutes apart; the reference kernel slows
with the tasks.  Over ten seeds the scaled wall_s spread by 1-8% on each
workload, where the sum of each task's fastest call spread by 9-23%.
The times as measured are printed as well: the median round time, its
tail, the median first (cold) round of a pass, the sum of each task's
fastest call, and the median set-up time.

--trace 1 runs one untraced pass and two traced passes, of one round
each, and reports the per-layer metrics of the first traced pass.  Every
count must match between the two traced passes.  The tracing overhead is
the traced round time minus the untraced one.

Human-readable lines come first; the last line of stdout is the JSON
result.  A harness error (missing sources, a crashed pass, a timeout)
exits 2 without printing a result.  Outputs go to .perfbench/.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from cold_pass import THREAD_VARS
from tracing import PER_LAYER

WORKLOADS = ("he_solve", "cli_audits", "exact_invariants")
# passes per run; each gives one set-up sample
PASSES = 3
# host speed that times are scaled to: the reference kernel's time at it,
# about its fastest time on the 2-vCPU host the benchmark was defined on
REFERENCE_NOMINAL_S = 0.0135
# every pass must end by then, so the run exits within 180 s
HARD_LIMIT_S = 170.0
END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "pass_frac": "ratio"}
ROOT = Path.cwd()
HERE = Path(__file__).resolve().parent


class HarnessError(RuntimeError):
    pass


def pinned_env() -> dict:
    env = dict(os.environ)
    for var in THREAD_VARS:
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def git_commit() -> str:
    # only the checkout's own .git: git would otherwise search parent directories
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def run_pass(args, mode: str, run_start: float, deadline: float = 0.0) -> dict:
    """One cold pass; raises HarnessError if the process fails."""
    budget = HARD_LIMIT_S - (perf_counter() - run_start)
    if budget <= 1.0:
        raise HarnessError("no time left for another pass")
    cmd = [sys.executable, str(HERE / "cold_pass.py"), args.workload, str(args.seed)]
    spawn = perf_counter()
    cmd += [repr(spawn), repr(deadline), mode] + (["--tiny"] if args.tiny else [])
    try:
        proc = subprocess.run(cmd, env=pinned_env(), cwd=ROOT, capture_output=True,
                              text=True, timeout=budget)
    except subprocess.TimeoutExpired as exc:
        raise HarnessError(f"{mode} pass did not finish within {budget:.0f} s") from exc
    if proc.returncode != 0 or not proc.stdout.strip():
        raise HarnessError(f"{mode} pass exited {proc.returncode}:\n{proc.stderr[-3000:]}")
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    out["process_s"] = perf_counter() - spawn
    return out


def tail(values: list) -> str:
    """Highest percentile with at least ten samples beyond it."""
    n = len(values)
    if n < 11:
        return f"no tail percentile (needs 11 rounds, have {n})"
    q = int(100 * (n - 10) / n)
    return f"p{q}={statistics.quantiles(values, n=100)[q - 1]:.4f}"


def measure(args, run_start: float):
    """Three passes that share --seconds; end-to-end metrics."""
    share = args.seconds / PASSES
    passes = [run_pass(args, "run", run_start, deadline=run_start + (i + 1) * share)
              for i in range(PASSES)]
    scaled: dict = {}
    fastest: dict = {}
    for p in passes:
        for name, calls in p["task_s"].items():
            scaled.setdefault(name, []).extend(
                seconds * REFERENCE_NOMINAL_S / ref for seconds, ref in calls)
            fastest[name] = min(fastest.get(name, float("inf")), *(c[0] for c in calls))
    setups = [p["setup_s"] * REFERENCE_NOMINAL_S / p["setup_ref_s"] for p in passes]
    refs = [r for p in passes for r in p["ref_s"]]
    rounds = [r for p in passes for r in p["round_s"]]
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    metrics = {
        "wall_s": sum(statistics.median(s) for s in scaled.values()),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
        "pass_frac": (attempted - failed) / attempted,
    }
    print(f"round time as measured: median {statistics.median(rounds):.4f} s over "
          f"{len(rounds)} rounds in {len(passes)} passes; {tail(rounds)}; first (cold) "
          f"round of a pass: median {statistics.median(p['round_s'][0] for p in passes):.4f} s; "
          f"sum of each task's fastest call: {sum(fastest.values()):.4f} s")
    print(f"reference kernel: fastest {min(refs):.4f} s, median {statistics.median(refs):.4f} s, "
          f"nominal {REFERENCE_NOMINAL_S} s")
    print(f"wall_s: {metrics['wall_s']:.4f} s, the sum over tasks of the median call "
          f"scaled to the nominal reference time ({min(map(len, scaled.values()))} "
          f"or more calls each)")
    print(f"setup_s: median {metrics['setup_s']:.4f} s over {len(setups)} set-ups, scaled to "
          f"the nominal reference time; as measured, median "
          f"{statistics.median(p['setup_s'] for p in passes):.4f} s")
    return passes, metrics, {k: END_TO_END_UNITS[k] for k in metrics}, []


def measure_traced(args, run_start: float):
    """One untraced and two traced passes; per-layer metrics."""
    for old in (ROOT / ".perfbench").glob(f"spans-{args.workload}-*.tsv"):
        old.unlink()
    plain = run_pass(args, "run", run_start)
    first = run_pass(args, "trace", run_start)
    second = run_pass(args, "trace", run_start)
    units = {name: unit for name, unit, _ in PER_LAYER}
    metrics = dict(first["per_layer"])
    metrics["trace.wall_s"] = first["wall_s"]
    metrics["trace.overhead_s"] = first["wall_s"] - plain["wall_s"]
    problems = [
        f"{name} differs between traced passes: {first['per_layer'][name]} "
        f"vs {second['per_layer'][name]}"
        for name, unit in units.items()
        if unit == "count" and first["per_layer"][name] != second["per_layer"][name]
    ]
    print(f"tracing overhead: {metrics['trace.overhead_s']:.4f} s "
          f"({metrics['trace.wall_s']:.4f} s traced vs {plain['wall_s']:.4f} s untraced)")
    print(f"spans written to {first['spans_file']} and {second['spans_file']}")
    return [plain, first, second], metrics, {k: units[k] for k in metrics}, problems


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--tiny", action="store_true", help="tiny inputs, for the smoke run")
    args = p.parse_args()

    run_start = perf_counter()
    try:
        if not (ROOT / "src" / "hebundle" / "__init__.py").is_file():
            raise HarnessError(f"no hebundle sources under {ROOT / 'src'}; run from the repo root")
        if not compileall.compile_dir(str(ROOT / "src"), quiet=1):
            raise HarnessError("hebundle sources do not compile")
        measure_fn = measure_traced if args.trace else measure
        passes, metrics, units, problems = measure_fn(args, run_start)
    except HarnessError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2

    attempted = sum(p.get("attempted", 0) for p in passes)
    failed = sum(p.get("failed", 0) for p in passes)
    problems += [f for p in passes for f in p.get("failures", [])]
    env = {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "blas_threads": 1,
        "pythonhashseed": 0,
        "machine": platform.machine(),
        "git_commit": git_commit(),
        **passes[0]["versions"],
    }
    print("environment: " + json.dumps(env, sort_keys=True))
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}")
    for problem in problems:
        print(f"FAILED: {problem}")
    result = {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    out = ROOT / ".perfbench" / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps({**result, "environment": env, "passes": passes}, indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
