"""Spans around calls into hebundle, recorded from outside the package.

`Tracer.install()` replaces each traced callable with a wrapper that
records a span (name, start, end, parent span).  A module-level function
is replaced in every hebundle module namespace that bound it by name at
import, and in module-level dicts such as the CLI's command table
`cli._IMPL`; a method is replaced on its class.  Installation then re-scans every namespace and
fails if any original is still reachable, so no call can be missed
silently.  Spans stay in memory until the pass ends; `per_layer()`
reduces them to the metrics in `PER_LAYER`.
"""

from __future__ import annotations

import functools
import importlib
import statistics
from time import perf_counter

MODULES = ("geometry", "bundle", "sections", "donaldson", "quot", "asymptotics",
           "solver", "cli")

# traced callable -> workloads on which it must record at least one call
TRACED = {
    "geometry.build_quadrature": ("he_solve", "cli_audits"),
    "geometry.integrate_values": ("he_solve", "cli_audits"),
    "sections.eval_matrix_batch": ("he_solve", "cli_audits"),
    "sections.FSMetric._core": ("he_solve", "cli_audits"),
    "sections.FSMetric._curvature": ("he_solve", "cli_audits"),
    "sections.FSMetric.evaluate": ("cli_audits",),
    "sections.l2_gram": ("cli_audits",),
    "sections.bergman_kernel": ("cli_audits",),
    "bundle.he_residual": ("he_solve", "cli_audits"),
    "bundle._relative_eigs": ("he_solve", "cli_audits"),
    "bundle.GeodesicMetric.evaluate": ("cli_audits",),
    "bundle.fd_curvature_batch": ("cli_audits",),
    "bundle.geodesic_log_batch": ("cli_audits",),
    "donaldson.donaldson": ("he_solve", "cli_audits"),
    "donaldson.BergmanPath.deriv_integrand": ("he_solve", "cli_audits"),
    "donaldson.PointwiseExponentialPath.deriv_integrand": ("cli_audits",),
    "donaldson.second_derivative_geodesic": ("cli_audits",),
    "solver.minimize": ("he_solve", "cli_audits"),
    "solver.mdon_gradient": ("he_solve", "cli_audits"),
    "asymptotics._deriv_at": ("cli_audits",),
    "asymptotics.mdon_along_ray": ("cli_audits",),
    "asymptotics.slope_estimate": ("cli_audits",),
    "quot.filtration": ("cli_audits", "exact_invariants"),
    "quot.saturate_rank_degree": ("cli_audits", "exact_invariants"),
    "quot.evaluation_drop_degree": ("cli_audits", "exact_invariants"),
    "quot._generic_rank": ("cli_audits", "exact_invariants"),
    "cli.parse_config": ("cli_audits",),
    "cli._write_report": ("cli_audits",),
}
# each command run by cli_audits is traced through the cli._IMPL table
CLI_COMMANDS = ("solve", "slope-test", "convexity-audit", "bergman", "mdon")
for _cmd in CLI_COMMANDS:
    TRACED[f"cli.{_cmd}"] = ("cli_audits",)

# bindings by name at import that wrappers must reach (module, attribute)
KNOWN_BINDINGS = (
    ("solver", "donaldson"), ("solver", "l2_gram"), ("cli", "bergman_kernel"),
    ("cli", "l2_gram"), ("asymptotics", "filtration"),
)
# classes bound by name elsewhere, with their defining module; their
# methods are wrapped on the class, which every binding shares
KNOWN_CLASS_BINDINGS = (("solver", "BergmanPath", "donaldson"),
                        ("solver", "FSMetric", "sections"))

_INTEGRANDS = ("donaldson.BergmanPath.deriv_integrand",
               "donaldson.PointwiseExponentialPath.deriv_integrand")


def _stat_metrics(span: str, stats: str, better: str = "lower"):
    units = {"calls": "count", "self_s": "s", "median_s": "s", "points": "count"}
    return [(f"{span}.{st}", units[st], better) for st in stats.split()]


# (name, unit, better), in the order BENCHMARK.json lists them
PER_LAYER = (
    _stat_metrics("geometry.build_quadrature", "self_s")
    + _stat_metrics("geometry.integrate_values", "calls")
    + _stat_metrics("sections.eval_matrix_batch", "calls self_s points")
    + _stat_metrics("sections.FSMetric._core", "calls self_s")
    + _stat_metrics("sections.FSMetric._curvature", "calls self_s median_s")
    + _stat_metrics("sections.FSMetric.evaluate", "calls")
    + _stat_metrics("sections.l2_gram", "self_s")
    + _stat_metrics("sections.bergman_kernel", "self_s")
    + _stat_metrics("bundle.he_residual", "calls self_s")
    + _stat_metrics("bundle._relative_eigs", "calls self_s")
    + _stat_metrics("bundle.GeodesicMetric.evaluate", "calls")
    + _stat_metrics("bundle.fd_curvature_batch", "calls self_s")
    + _stat_metrics("bundle.geodesic_log_batch", "self_s")
    + _stat_metrics("donaldson.donaldson", "calls self_s median_s")
    + [("donaldson.donaldson.integrand_evals", "count", "lower")]
    + _stat_metrics("donaldson.BergmanPath.deriv_integrand", "calls self_s median_s")
    + _stat_metrics("donaldson.PointwiseExponentialPath.deriv_integrand", "calls self_s")
    + _stat_metrics("donaldson.second_derivative_geodesic", "calls self_s")
    + _stat_metrics("solver.minimize", "self_s")
    + [("solver.minimize.iterations", "count", "lower")]
    + _stat_metrics("solver.mdon_gradient", "calls self_s median_s")
    + [("solver.line_search.trials", "count", "lower"),
       ("solver.line_search.trial_median_s", "s", "lower"),
       ("solver.line_search.accept_ratio", "ratio", "higher")]
    + _stat_metrics("asymptotics._deriv_at", "calls self_s")
    + _stat_metrics("asymptotics.mdon_along_ray", "self_s")
    + _stat_metrics("asymptotics.slope_estimate", "self_s")
    + _stat_metrics("quot.filtration", "calls self_s")
    + _stat_metrics("quot.saturate_rank_degree", "calls self_s median_s")
    + _stat_metrics("quot.evaluation_drop_degree", "calls self_s median_s")
    + _stat_metrics("quot._generic_rank", "calls self_s")
    + _stat_metrics("cli.parse_config", "self_s")
    + _stat_metrics("cli._write_report", "self_s")
    + [m for c in CLI_COMMANDS for m in _stat_metrics(f"cli.{c}", "self_s")]
    + [("trace.spans", "count", "lower"),
       ("trace.wall_s", "s", "lower"),
       ("trace.overhead_s", "s", "lower")]
)


class Tracer:
    """In-memory span recorder for one pass."""

    def __init__(self):
        # spans[i] = (name, start, end, parent index or -1); a parent is
        # always recorded at a lower index than its children
        self.spans: list = []
        self._stack: list = []
        self.points = 0

    def span(self, name: str, fn, *args, **kwargs):
        """Call fn inside a span; the span is kept even if fn raises."""
        idx = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(idx)
        t0 = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = perf_counter()
            self._stack.pop()
            self.spans[idx] = (name, t0, t1, parent)

    def _wrap(self, name: str, fn):
        if name == "sections.eval_matrix_batch":
            @functools.wraps(fn)
            def counted(sb, charts, coords):
                self.points += len(coords)
                return self.span(name, fn, sb, charts, coords)
            return counted

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.span(name, fn, *args, **kwargs)
        return wrapper

    def install(self) -> None:
        mods = {m: importlib.import_module(f"hebundle.{m}") for m in MODULES}
        originals = []
        rebound = set()
        for name in TRACED:
            module, _, attr = name.partition(".")
            owner = mods[module]
            if module == "cli" and attr in CLI_COMMANDS:
                orig = owner._IMPL[attr]
            elif "." in attr:  # a method: wrap it on its class
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                orig = cls.__dict__[meth]
                setattr(cls, meth, self._wrap(name, orig))
                originals.append(orig)
                continue
            else:
                orig = vars(owner)[attr]
            wrapped = self._wrap(name, orig)
            originals.append(orig)
            for mname, mod in mods.items():
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        setattr(mod, key, wrapped)
                        rebound.add((mname, key))
                    elif isinstance(val, dict):  # tables such as cli._IMPL
                        for k, v in list(val.items()):
                            if v is orig:
                                val[k] = wrapped
        missing = [b for b in KNOWN_BINDINGS if b not in rebound]
        if missing:
            raise RuntimeError(f"known by-name bindings not wrapped: {missing}")
        for mname, cname, home in KNOWN_CLASS_BINDINGS:
            if getattr(mods[mname], cname) is not getattr(mods[home], cname):
                raise RuntimeError(f"{mname}.{cname} is not the traced class")
        _assert_unreachable(mods, originals)

    # -- reduction -------------------------------------------------------------

    def per_layer(self, workload: str) -> dict:
        """Per-layer metrics of this pass; raises if a callable expected on
        this workload recorded no call."""
        spans = self.spans
        calls: dict = {}
        self_s: dict = {}
        durs: dict = {}
        child = [0.0] * len(spans)
        for name, t0, t1, parent in spans:
            if parent >= 0:
                child[parent] += t1 - t0
        for i, (name, t0, t1, parent) in enumerate(spans):
            calls[name] = calls.get(name, 0) + 1
            self_s[name] = self_s.get(name, 0.0) + (t1 - t0) - child[i]
            durs.setdefault(name, []).append(t1 - t0)

        silent = [n for n, on in TRACED.items() if workload in on and not calls.get(n)]
        if silent:
            raise RuntimeError(f"traced callables recorded no call on {workload}: {silent}")

        # integrand evaluations under a donaldson span; the solver's
        # iterations, line-search trials and accepted steps
        under = [False] * len(spans)
        integrand_evals = 0
        for i, (name, _, _, parent) in enumerate(spans):
            if parent >= 0:
                under[i] = under[parent] or spans[parent][0] == "donaldson.donaldson"
            if name in _INTEGRANDS and under[i]:
                integrand_evals += 1
        iterations = accepted = 0
        trial_durs = []
        children: dict = {}
        for i, (name, t0, t1, parent) in enumerate(spans):
            if parent >= 0 and spans[parent][0] == "solver.minimize":
                children.setdefault(parent, []).append((name, t1 - t0))
        for kids in children.values():
            pending = 0
            for name, dur in kids:
                if name == "solver.mdon_gradient":
                    iterations += 1
                    accepted += pending > 0
                    pending = 0
                elif name == "donaldson.donaldson":
                    pending += 1
                    trial_durs.append(dur)

        def stat(key: str):
            span, _, st = key.rpartition(".")
            if st == "calls":
                return calls.get(span, 0)
            if st == "self_s":
                return self_s.get(span, 0.0)
            if st == "median_s":
                return statistics.median(durs[span]) if span in durs else 0.0
            if st == "points":
                return self.points
            raise KeyError(key)

        special = {
            "donaldson.donaldson.integrand_evals": integrand_evals,
            "solver.minimize.iterations": iterations,
            "solver.line_search.trials": len(trial_durs),
            "solver.line_search.trial_median_s":
                statistics.median(trial_durs) if trial_durs else 0.0,
            "solver.line_search.accept_ratio":
                accepted / len(trial_durs) if trial_durs else 0.0,
            "trace.spans": len(spans),
        }
        out = {}
        for name, unit, _ in PER_LAYER:
            if name in ("trace.wall_s", "trace.overhead_s"):
                continue  # filled in from pass wall times by the run
            out[name] = special[name] if name in special else stat(name)
        return out

    def dump(self, path) -> None:
        """Write the spans, one tab-separated line each."""
        with open(path, "w") as f:
            f.write("id\tname\tstart\tend\tparent\n")
            for i, (name, t0, t1, parent) in enumerate(self.spans):
                f.write(f"{i}\t{name}\t{t0!r}\t{t1!r}\t{parent}\n")


def _assert_unreachable(mods: dict, originals: list) -> None:
    """Fail if any module namespace or module-level table still holds an
    unwrapped original."""
    ids = {id(o) for o in originals}
    for mname, mod in mods.items():
        for key, val in vars(mod).items():
            vals = val.values() if isinstance(val, dict) else (
                val if isinstance(val, (list, tuple)) else (val,))
            for v in vals:
                if id(v) in ids:
                    raise RuntimeError(f"hebundle.{mname}.{key} still holds an untraced callable")
        for cls in (v for v in vars(mod).values() if isinstance(v, type)):
            for key, val in vars(cls).items():
                if id(val) in ids:
                    raise RuntimeError(f"{cls.__name__}.{key} is still untraced")
