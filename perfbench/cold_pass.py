"""One benchmark pass in a fresh interpreter; started by run.py.

    python3 perfbench/cold_pass.py WORKLOAD SEED SPAWN_TIME DEADLINE {run,trace} [--tiny]

SPAWN_TIME is the parent's `time.perf_counter()` just before it started
this process (CLOCK_MONOTONIC, shared by all processes on Linux), so
`setup_s` covers interpreter start, imports, quadrature rules and input
generation.  `run` mode calls the tasks in order, round after round: one
whole round, then on until DEADLINE (on the same clock) has passed.
It times `reference_kernel` three times before the first call and after
every call; the mean of the first three also scales `setup_s`.
sympy's global cache is cleared before every call, so a repeat does no
less exact work than the first call.  `trace` mode runs one round with
the span wrappers, installed before set-up, and writes the spans out at
the end.  The last line of stdout is one JSON object with the pass's
numbers.
"""

from __future__ import annotations

import json
import os
import sys
from time import perf_counter, process_time

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# reference-kernel runs before the first task call and after every call
REFERENCE_PER_GAP = 3


def reference_kernel():
    """A function that runs a fixed kernel once and returns its time.

    The kernel mixes batched small-matrix numpy and interpreter work,
    takes about 13 ms at the host's full speed and is independent of
    hebundle; its time tracks the host's speed."""
    import numpy as np

    rng = np.random.default_rng(0)
    B = rng.normal(size=(144, 6, 6)) + 1j * rng.normal(size=(144, 6, 6))

    def run() -> float:
        t0 = perf_counter()
        for _ in range(12):
            w = np.linalg.eigh(np.einsum("nij,nkj->nik", B, B.conj()))[0]
        x = 0
        for i in range(20000):
            x += i * i % 7
        assert w[0, 0] > 0 and x > 0
        return perf_counter() - t0

    return run


def main(argv) -> int:
    workload, seed, spawn, deadline, mode = (argv[0], int(argv[1]), float(argv[2]),
                                             float(argv[3]), argv[4])
    tiny = "--tiny" in argv[5:]
    # the BLAS thread cap must be in the environment before numpy loads
    if any(os.environ.get(v) != "1" for v in THREAD_VARS) or "numpy" in sys.modules:
        print("BLAS threads are not pinned to 1 before numpy import", file=sys.stderr)
        return 2

    import resource
    import shutil
    from pathlib import Path

    here = Path(__file__).resolve().parent
    import hebundle

    src = (here.parent / "src").resolve()
    if Path(hebundle.__file__).resolve().parent.parent != src:
        print(f"hebundle imported from {hebundle.__file__}, not {src}", file=sys.stderr)
        return 2
    tracer = None
    if mode == "trace":
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    import workloads
    from sympy.core.cache import clear_cache

    workdir = here.parent / ".perfbench" / "work" / f"{workload}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        tasks = workloads.build(workload, seed, tiny, workdir)
        t_ready, cpu_ready = perf_counter(), process_time()
        out = {"setup_s": t_ready - spawn, "setup_cpu_s": cpu_ready}
        failures = []
        # per task, one [call seconds, mean reference seconds around it] per call
        task_s = {task.name: [] for task in tasks}
        round_s = []
        reference = reference_kernel() if mode == "run" else None
        gap = []
        if reference:
            reference()  # numpy's first-call costs
            gap = [reference() for _ in range(REFERENCE_PER_GAP)]
            out["setup_ref_s"] = sum(gap) / REFERENCE_PER_GAP
        ref_s = list(gap)
        calls = 0
        while calls < len(tasks) or (mode == "run" and perf_counter() < deadline):
            task = tasks[calls % len(tasks)]
            clear_cache()
            t0 = perf_counter()
            try:
                why = tracer.span(f"task.{task.name}", task.run) if tracer else task.run()
            except Exception as exc:  # noqa: BLE001 - a raising task is a failed task
                why = f"raised {type(exc).__name__}: {exc}"
            seconds = perf_counter() - t0
            around = None
            if reference:
                before, gap = gap, [reference() for _ in range(REFERENCE_PER_GAP)]
                ref_s += gap
                around = sum(before + gap) / (2 * REFERENCE_PER_GAP)
            task_s[task.name].append([seconds, around])
            calls += 1
            if why is not None:
                failures.append(f"{task.name} (call {calls}): {why}")
            if calls % len(tasks) == 0:
                round_s.append(sum(samples[-1][0] for samples in task_s.values()))
            if calls == len(tasks):
                cpu_s = process_time() - cpu_ready
        out.update(
            wall_s=round_s[0],
            cpu_s=cpu_s,
            round_s=round_s,
            ref_s=ref_s,
            attempted=calls,
            failed=len(failures),
            failures=failures,
            task_s=task_s,
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    # ru_maxrss is in KiB on Linux
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    import numpy
    import scipy
    import sympy

    out["versions"] = {
        "python": sys.version.split()[0], "numpy": numpy.__version__,
        "scipy": scipy.__version__, "sympy": sympy.__version__,
    }
    if tracer is not None:
        out["per_layer"] = tracer.per_layer(workload)
        spans = here.parent / ".perfbench" / f"spans-{workload}-{os.getpid()}.tsv"
        tracer.dump(spans)
        out["spans_file"] = str(spans.relative_to(here.parent))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
