"""Fast self-check of the benchmark harness on tiny inputs.

    python3 perfbench/smoke.py

Run from the repository root.  For every workload in BENCHMARK.json it
runs run.py with --tiny, untraced and traced, and asserts that the result
line has exactly the contract's keys, that every task passed, and that
every metric BENCHMARK.json names is emitted with its unit.  It also
checks that run.py refuses, without a result, in a directory that holds
only the benchmark files.  Exits 0 when all checks hold.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

from tracing import PER_LAYER, TRACED

HERE = Path(__file__).resolve().parent


def run(args, cwd) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(Path("perfbench") / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=180)


def check_result(proc, expected: dict, label: str) -> None:
    if proc.returncode != 0:
        raise SystemExit(f"{label}: exit {proc.returncode}\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, (label, result)
    assert result["correct"] is True and result["failed"] == 0, (label, proc.stdout)
    assert result["attempted"] >= 1, label
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == expected, (label, set(got) ^ set(expected))
    for name, m in result["metrics"].items():
        assert isinstance(m["value"], (int, float)), (label, name)


def main() -> int:
    root = Path.cwd()
    bench = json.loads((root / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in bench["workloads"]]
    end_to_end = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    assert per_layer == {name: unit for name, unit, _ in PER_LAYER}, "per_layer list drifted"
    assert all(set(on) <= set(workloads) for on in TRACED.values()), "unknown workload in TRACED"

    for w in workloads:
        for trace, expected in ((0, end_to_end), (1, per_layer)):
            label = f"{w} trace={trace}"
            proc = run(["--workload", w, "--seed", "3", "--seconds", "1",
                        "--trace", str(trace), "--tiny"], root)
            check_result(proc, expected, label)
            print(f"ok: {label}")

    bare = root / ".perfbench" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(root / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    try:
        proc = run(["--workload", workloads[0], "--seed", "1", "--seconds", "1",
                    "--trace", "0"], bare)
        assert proc.returncode != 0, "run.py succeeded without the program's sources"
        assert not proc.stdout.strip(), f"run.py printed a result: {proc.stdout}"
    finally:
        shutil.rmtree(bare)
    print("ok: refuses without sources")
    return 0


if __name__ == "__main__":
    sys.exit(main())
