"""Every callable the benchmark traces exists under its traced name.

perfbench/tracing.py wraps hebundle callables by name when a benchmark
runs with ``--trace 1``; a rename in the package would fail only there.
This test reads the traced names from that file (without changing it)
and fails on the rename at once.
"""

import importlib
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TRACING = ROOT / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def _module(name):
    return importlib.import_module(f"hebundle.{name}")


def test_traced_callables_exist():
    tr = _tracing()
    missing = []
    for name in tr.TRACED:
        module, _, attr = name.partition(".")
        mod = _module(module)
        if module == "cli" and attr in tr.CLI_COMMANDS:
            found = callable(mod._IMPL.get(attr))
        elif "." in attr:
            # methods are wrapped on the class that defines them
            cls_name, meth = attr.split(".")
            cls = vars(mod).get(cls_name)
            found = isinstance(cls, type) and callable(cls.__dict__.get(meth))
        else:
            found = callable(vars(mod).get(attr))
        if not found:
            missing.append(name)
    assert not missing, f"traced names missing from hebundle: {missing}"


def test_known_bindings_exist():
    tr = _tracing()
    for module, attr in tr.KNOWN_BINDINGS:
        assert callable(vars(_module(module)).get(attr)), f"{module}.{attr}"
    for module, cls_name, home in tr.KNOWN_CLASS_BINDINGS:
        assert getattr(_module(module), cls_name) is getattr(_module(home), cls_name)


def _traced_run(workload):
    """The result of a one-round traced run of a workload on tiny inputs,
    as perfbench/smoke.py runs it; a run fails when a callable traced on
    the workload records no call, when it is called in a form its wrapper
    does not take (the `eval_matrix_batch` wrapper takes (sb, charts,
    coords)), or when a module stops binding a traced name."""
    proc = subprocess.run(
        [sys.executable, str(Path("perfbench") / "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "0.5", "--trace", "1", "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    return result


def test_traced_he_solve_run_records_every_traced_callable():
    m = {name: v["value"] for name, v in _traced_run("he_solve")["metrics"].items()}
    # each solve forms its sections once for the loop, once for its final residual
    assert m["sections.eval_matrix_batch.calls"] == 2 * m["bundle.he_residual.calls"] > 0
    # and the FS curvature once for its first gradient, once for that
    # residual: every later gradient reads it off the accepted path
    assert m["sections.FSMetric._curvature.calls"] <= 2 * m["bundle.he_residual.calls"]


def test_traced_cli_audits_run_records_every_traced_callable():
    # the convexity audit must still call the traced `GeodesicMetric.evaluate`
    # and `geodesic_log_batch`, which this workload expects to see
    _traced_run("cli_audits")
