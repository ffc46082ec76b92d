"""Command-line orchestration: config-driven experiments with JSON
reports and CSV traces.

Subcommands cover kernel audits, energy evaluation, the exact sheaf
invariants, ray slope tests, the minimizer, the lower-bound audit, the
level-uniformity probe, and a convexity audit.  Reports are
deterministic for a fixed (config, seed): floats are printed with 17
significant digits and exact rationals as "p/q" strings; wall-clock
time lives in a sidecar meta file so the main report is byte-stable.
Exit codes: 0 on success, 2 on audit failure, 1 on any error.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
import time
from dataclasses import fields
from fractions import Fraction
from pathlib import Path

import numpy as np
import scipy.linalg

from . import __version__
from .asymptotics import coercivity_probe, slope_estimate, zeta_matrix
from .bundle import BundleSpec, regularity
from .donaldson import (c_delta, delta_lower_bound_audit, donaldson, poincare_constant,
                        second_derivative_geodesic)
from .geometry import build_quadrature
from .quot import (WeightSpec, block_weightspec, filtration, report_to_json, weightspec_from_json,
                   _frac_str)
from .sections import FSMetric, basis, bergman_kernel, l2_gram, trivial_metric
from .solver import SolveOptions, destabilizer_extract, minimize


class ConfigError(ValueError):
    pass


# every key of the per-command blocks with its default; a given value
# must be of its default's kind (`_KINDS`)
_BLOCKS = {
    "quadrature": {"n_colat": 32, "n_angle": 32},
    "solve": {f.name: f.default for f in fields(SolveOptions) if f.name != "k"},
    "delta_audit": {"n_samples": 10, "scale": 0.4},
    "probe": {"samples_per_k": 10, "t_max": 15.0},
    "slope": {"t_max": 30.0, "n_t": 31},
    "convexity": {"n_paths": 3, "s_values": [0.0, 0.5, 1.0]},
}
_TOP_KEYS = {"bundle", "k", "k_list", "seed", "zeta", *_BLOCKS}
_KINDS = {int: "an integer >= 1", float: "a finite number",
          list: "a nonempty list of finite numbers"}

# the top-level inputs a command reads besides the bundle ("k" when not
# listed)
_NEEDS = {"bergman": ["k_list"], "probe-coercivity": ["k_list"],
          **dict.fromkeys(("mdon", "mna", "slope-test"), ["k", "zeta"])}


def _expect(cond, msg):
    if not cond:
        raise ConfigError(msg)


def _is_int(x) -> bool:
    # JSON true and false load as bool, a subclass of int
    return isinstance(x, int) and not isinstance(x, bool)


def _fits(x, default) -> bool:
    """Whether x is of the kind of `default` (see `_KINDS`)."""
    if isinstance(default, list):
        return isinstance(x, list) and len(x) > 0 and all(_fits(v, 0.0) for v in x)
    if isinstance(default, float):
        return _is_int(x) or isinstance(x, float) and math.isfinite(x)
    return _is_int(x) and x >= 1


def _is_weight(w) -> bool:
    """An integer, or a string that `Fraction` parses ("1/3", "0.1")."""
    try:
        return _is_int(w) or isinstance(w, str) and Fraction(w) is not None
    except (ValueError, ZeroDivisionError):
        return False


def _check_zeta(z):
    _expect(
        isinstance(z, dict) and ("blocks" in z or set(z) == {"weights", "dims"}),
        "zeta must be {weights, dims} or a full {k, blocks} object",
    )
    if "blocks" in z:
        return  # `weightspec_from_json` checks the full form
    ws, dims = z["weights"], z["dims"]
    _expect(
        isinstance(ws, list) and ws and all(_is_weight(w) for w in ws),
        'zeta weights must be integers or strings such as "1/3"',
    )
    _expect(
        isinstance(dims, list) and all(_is_int(d) and d >= 1 for d in dims),
        "zeta dims must be integers >= 1",
    )
    _expect(len(ws) == len(dims), "zeta weights and dims must have equal length")


def parse_config(path) -> dict:
    """Load and validate a config file; unknown keys and values of the
    wrong kind are rejected, also inside the per-command blocks, and
    every block is filled with its defaults."""
    try:
        with open(path) as f:
            cfg = json.load(f)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"malformed JSON in {path}: {exc}") from exc
    _expect(isinstance(cfg, dict), "config root must be an object")
    unknown = set(cfg) - _TOP_KEYS
    _expect(not unknown, f"unknown config keys: {sorted(unknown)}")
    _expect("bundle" in cfg, "missing required field: bundle")
    b = cfg["bundle"]
    _expect(
        isinstance(b, list) and b and all(_is_int(x) for x in b),
        "bundle must be a nonempty list of integers",
    )
    reg = regularity(BundleSpec(tuple(b)))
    levels = [cfg["k"]] if "k" in cfg else []
    if "k_list" in cfg:
        ks = cfg["k_list"]
        _expect(isinstance(ks, list) and ks, "k_list must be a nonempty list of integers")
        levels += ks
    for k in levels:
        _expect(_is_int(k), "k and the k_list entries must be integers")
        _expect(k >= reg, f"k={k} is below the minimum level {reg} for bundle {b}")
    for block, defaults in _BLOCKS.items():
        given = cfg.get(block, {})
        _expect(isinstance(given, dict), f"{block} block must be an object")
        unknown = set(given) - set(defaults)
        _expect(not unknown, f"unknown {block} keys: {sorted(unknown)}; "
                f"the block allows {sorted(defaults)}")
        for key, v in given.items():
            d = defaults[key]
            _expect(_fits(v, d), f"{block}.{key} must be {_KINDS[type(d)]}, not {v!r}")
        cfg[block] = {**defaults, **given}
    if "zeta" in cfg:
        _check_zeta(cfg["zeta"])
        if "k" in cfg:  # every command that reads zeta needs k (`_NEEDS`)
            try:
                _zeta_from_config(cfg, basis(BundleSpec(tuple(b)), cfg["k"]))
            except ValueError as exc:
                raise ConfigError(f"zeta: {exc}") from exc
    if "seed" in cfg:
        _expect(_is_int(cfg["seed"]), "seed must be an integer")
    return cfg


def _zeta_from_config(cfg, sb) -> WeightSpec:
    """The config's zeta as a weight decomposition of sb's section space;
    ValueError when it is not one."""
    z = cfg["zeta"]
    if "blocks" in z:
        zr = weightspec_from_json(z)
        zr.validate_against(sb)
        return zr
    return block_weightspec(sb, [(Fraction(w), d) for w, d in zip(z["weights"], z["dims"])])


def _fmt(x):
    """Deterministic JSON-friendly conversion."""
    if isinstance(x, dict):
        return {k: _fmt(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_fmt(v) for v in x]
    if isinstance(x, Fraction):
        return _frac_str(x)
    if isinstance(x, (np.floating, float)):
        return float(f"{float(x):.17g}")
    return x


def _write_report(outdir: Path, command, cfg, results, t0, exit_code):
    report = {
        "command": command,
        "config": cfg,
        "results": _fmt(results),
        "versions": {"package": __version__},
        "exit_code": exit_code,
    }
    with open(outdir / "report.json", "w") as f:
        json.dump(report, f, indent=2, sort_keys=True)
        f.write("\n")
    with open(outdir / "meta.json", "w") as f:
        json.dump({"wall_time": time.time() - t0}, f)
        f.write("\n")
    return report


def _write_csv(path, header, rows):
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(header)
        for row in rows:
            w.writerow([f"{v:.17g}" if isinstance(v, float) else v for v in row])


# -- command implementations -----------------------------------------------


def _cmd_bergman(cfg, spec, rule, outdir):
    h = trivial_metric(basis(spec, regularity(spec)))
    ks = cfg["k_list"]
    reps = bergman_kernel(h, ks, rule)
    rows = [(k, float(rep["sup_dev"]), float(rep["raw_sup_dev"])) for k, rep in zip(ks, reps)]
    _write_csv(outdir / "bergman.csv", ("k", "sup_dev", "raw_sup_dev"), rows)
    return {"rows": [{"k": k, "sup_dev": s, "raw_sup_dev": r} for k, s, r in rows]}, 0


def _cmd_mdon(cfg, spec, rule, outdir):
    sb = basis(spec, cfg["k"])
    G0 = l2_gram(sb, trivial_metric(sb), rule)
    zr = _zeta_from_config(cfg, sb)
    E = scipy.linalg.expm(zeta_matrix(zr))
    val = donaldson(FSMetric(sb, G=E @ G0 @ E), FSMetric(sb, G=G0), rule=rule)
    return {"mdon": float(val)}, 0


def _cmd_mna(cfg, spec, rule, outdir):
    sb = basis(spec, cfg["k"])
    zr = _zeta_from_config(cfg, sb)
    rep = filtration(spec, zr)
    return report_to_json(rep), 0


def _cmd_slope_test(cfg, spec, rule, outdir):
    sb = basis(spec, cfg["k"])
    zr = _zeta_from_config(cfg, sb)
    G0 = l2_gram(sb, trivial_metric(sb), rule)
    rep = slope_estimate(sb, G0, zr, cfg["slope"]["t_max"], cfg["slope"]["n_t"], rule)
    mna_f = float(rep.mna_exact)
    _write_csv(
        outdir / "slope.csv",
        ("t", "mdon", "mna_times_t"),
        [(float(t), float(m), mna_f * float(t)) for t, m in zip(rep.t_grid, rep.mdon_values)],
    )
    ok = rep.relative_gap <= 0.1 and not any(rep.concentration_degrees)
    return {
        "fitted_slope": rep.fitted_slope,
        "mna_exact": rep.mna_exact,
        "relative_gap": rep.relative_gap,
        "c_offset": rep.c_offset,
        "concentration_degrees": list(rep.concentration_degrees),
        "passes": bool(ok),
    }, (0 if ok else 2)


def _cmd_solve(cfg, spec, rule, outdir):
    res = minimize(spec, SolveOptions(k=cfg["k"], **cfg["solve"]), rule)
    _write_csv(
        outdir / "solve_history.csv",
        ("iter", "mdon", "he_residual", "log_op_norm"),
        [(i, float(m), float(r), float(o)) for i, m, r, o in res.history],
    )
    out = {
        "status": res.status,
        "he_residual_sup": res.he_residual_sup,
        "mdon_final": float(res.mdon_history[-1]),
        "iterations": len(res.history),
        "t_steps": len(res.t_changes),
        "t_change": res.t_changes[-1] if res.t_changes else None,
        "t_outcome": res.t_outcome,
    }
    if res.status == "diverging":
        rep = destabilizer_extract(res)
        out["destabilizer"] = report_to_json(rep)
    return out, 0


def _rand_pd(rng, n: int, scale: float) -> np.ndarray:
    """e^{scale (X + X*) / 2} for X with standard complex normal entries."""
    X = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return scipy.linalg.expm(scale * 0.5 * (X + X.conj().T))


def _cmd_audit_deltabound(cfg, spec, rule, outdir):
    n = cfg["delta_audit"]["n_samples"]
    sb = basis(spec, cfg["k"])
    h0 = trivial_metric(sb)
    rng = np.random.default_rng(cfg.get("seed", 0))
    pc = poincare_constant(h0, rule)
    rows = []
    worst = None
    for i in range(n):
        h = FSMetric(sb, G=_rand_pd(rng, sb.N, cfg["delta_audit"]["scale"]))
        rep = delta_lower_bound_audit(h, h0, rule, pc["constant"])
        rows.append((i, float(rep.delta), float(rep.mdon), float(rep.bound), rep.passes))
        if worst is None or rep.mdon - rep.bound < worst:
            worst = rep.mdon - rep.bound
    _write_csv(outdir / "delta_audit.csv", ("sample", "delta", "mdon", "bound", "passes"), rows)
    ok = all(r[-1] for r in rows)
    return {
        "samples": n,
        "poincare_constant": pc["constant"],
        "worst_margin": float(worst),
        "passes": bool(ok),
    }, (0 if ok else 2)


def _cmd_probe_coercivity(cfg, spec, rule, outdir):
    pr = cfg["probe"]
    out = coercivity_probe(
        spec, cfg["k_list"], pr["samples_per_k"], pr["t_max"], rule, seed=cfg.get("seed", 0)
    )
    table = [{"k": r["k"], "c_k": float(r["c_k"])} for r in out["table"]]
    _write_csv(outdir / "coercivity.csv", ("k", "c_k"), [(r["k"], r["c_k"]) for r in table])
    return {"table": table}, 0


def _cmd_convexity_audit(cfg, spec, rule, outdir):
    n = cfg["convexity"]["n_paths"]
    sb = basis(spec, cfg["k"])
    rng = np.random.default_rng(cfg.get("seed", 0))
    rows = []
    ok = True
    for i in range(n):
        h0 = FSMetric(sb, G=_rand_pd(rng, sb.N, 0.5))
        h1 = FSMetric(sb, G=_rand_pd(rng, sb.N, 0.5))
        for s in cfg["convexity"]["s_values"]:
            r = second_derivative_geodesic(h0, h1, s, rule)
            rel = abs(r["formula"] - r["fd"]) / max(1e-12, abs(r["formula"]))
            good = r["fd"] >= -1e-8 and rel < 1e-4
            ok = ok and good
            rows.append((i, s, float(r["formula"]), float(r["fd"]), good))
    header = ("path", "s", "second_deriv_formula", "second_deriv_fd", "passes")
    _write_csv(outdir / "convexity.csv", header, rows)
    return {"paths": n, "passes": bool(ok)}, (0 if ok else 2)


_IMPL = {
    "bergman": _cmd_bergman,
    "mdon": _cmd_mdon,
    "mna": _cmd_mna,
    "slope-test": _cmd_slope_test,
    "solve": _cmd_solve,
    "audit-deltabound": _cmd_audit_deltabound,
    "probe-coercivity": _cmd_probe_coercivity,
    "convexity-audit": _cmd_convexity_audit,
}


def run(command: str, cfg: dict, outdir: Path) -> int:
    """Run a command on a config from `parse_config`, once its inputs
    (`_NEEDS`) are checked."""
    for key in _NEEDS.get(command, ["k"]):
        _expect(key in cfg, f"{command} needs {key}")
    t0 = time.time()
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    rule = build_quadrature(**cfg["quadrature"])
    results, code = _IMPL[command](cfg, BundleSpec(tuple(cfg["bundle"])), rule, outdir)
    _write_report(outdir, command, cfg, results, t0, code)
    return code


def _self_test() -> int:
    """Small end-to-end exercise of the easy example paths."""
    checks = []
    rule = build_quadrature(16, 16)
    (rep,) = bergman_kernel(trivial_metric(basis(BundleSpec((0,)), 0)), [5], rule)
    checks.append(("bergman O(0) k=5", rep["raw_sup_dev"] < 1e-8))
    spec = BundleSpec((1, -1))
    sb = basis(spec, 1)
    zr = block_weightspec(sb, [(Fraction(1), 3), (Fraction(-3), 1)])
    f = filtration(spec, zr)
    checks.append(("mna exact", f.mna == -8 and f.jna == 4))
    checks.append(("c_delta", abs(c_delta(math.exp(-1)) - math.exp(-1)) < 1e-12))
    h = FSMetric(sb, G=np.eye(sb.N))
    m = donaldson(FSMetric(sb, G=math.e * h.G), h, rule=rule)
    checks.append(("scale invariance", abs(m) < 1e-8))
    for name, ok in checks:
        print(f"{name}: {'ok' if ok else 'FAIL'}")
    return 0 if all(ok for _, ok in checks) else 2


def main(argv=None) -> int:
    p = argparse.ArgumentParser(
        prog="hebundle",
        description="Audits and experiments for metrics on split bundles "
        "over the projective line.",
    )
    p.add_argument("command", nargs="?", choices=_IMPL)
    p.add_argument("--config", type=str, help="path to a JSON config")
    p.add_argument("--out", type=str, default="hebundle-out", help="output directory")
    p.add_argument("--self-test", action="store_true")
    args = p.parse_args(argv)
    if args.self_test:
        return _self_test()
    if not args.command:
        p.error("a command or --self-test is required")
    if not args.config:
        p.error("--config is required")
    try:
        return run(args.command, parse_config(args.config), Path(args.out))
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
