"""Command-line interface: configs, reports, determinism, exit codes."""

import argparse
import ast
import json
import math
from pathlib import Path

import pytest

import hebundle.donaldson as donaldson_mod
import hebundle.sections as sections_mod
import hebundle.solver as solver_mod
from _utils import count_calls, run_at_blas_threads
from hebundle.cli import main, parse_config, ConfigError


def _write_cfg(tmp_path, name, obj):
    p = tmp_path / name
    p.write_text(json.dumps(obj))
    return str(p)


def _run(cmd, cfg_path, out):
    return main([cmd, "--config", cfg_path, "--out", str(out)])


_BERGMAN_CFG = {
    "bundle": [0],
    "k_list": [2, 3],
    "quadrature": {"n_colat": 16, "n_angle": 16},
}
_MDON_CFG = {
    "bundle": [1, -1],
    "k": 1,
    "quadrature": {"n_colat": 16, "n_angle": 16},
    "zeta": {"weights": ["1/2", "-1/2"], "dims": [2, 2]},
}
_CONVEXITY_CFG = {
    "bundle": [1, 0],
    "k": 0,
    "quadrature": {"n_colat": 20, "n_angle": 20},
    "convexity": {"n_paths": 1, "s_values": [0.5]},
}
_SLOPE_CFG = {
    "bundle": [1, -1],
    "k": 1,
    "quadrature": {"n_colat": 16, "n_angle": 16},
    "zeta": {"weights": ["1/3", "-1"], "dims": [3, 1]},
    "slope": {"t_max": 12, "n_t": 7},
}


def test_self_test(tmp_path, capsys):
    assert main(["--self-test", "--out", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "FAIL" not in out


def test_parse_config_rejects_unknown_keys(tmp_path):
    p = _write_cfg(tmp_path, "c.json", {"bundle": [0], "bogus": 1})
    with pytest.raises(ConfigError):
        parse_config(p)


@pytest.mark.parametrize(
    "block", ["quadrature", "solve", "delta_audit", "probe", "slope", "convexity"]
)
def test_parse_config_rejects_unknown_block_keys(tmp_path, block):
    p = _write_cfg(tmp_path, "c.json", {"bundle": [0], block: {"bogus": 1}})
    with pytest.raises(ConfigError) as exc:
        parse_config(p)
    # the unknown key is named, not only the keys its block allows
    assert f"unknown {block} keys: ['bogus']" in str(exc.value)
    p = _write_cfg(tmp_path, "c.json", {"bundle": [0], block: [1]})
    with pytest.raises(ConfigError):
        parse_config(p)


def test_parse_config_rejects_malformed_json(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text("{not json")
    with pytest.raises(ConfigError):
        parse_config(str(p))


def test_parse_config_rejects_low_level(tmp_path):
    p = _write_cfg(tmp_path, "c.json", {"bundle": [1, -1], "k": 0})
    with pytest.raises(ConfigError) as exc:
        parse_config(p)
    assert "minimum level" in str(exc.value)


@pytest.mark.parametrize(
    "cfg",
    [
        {"bundle": [1, 0], "k_list": [1.9, 2]},  # 1.9 would run as k = 1
        {"bundle": [1, 0], "k": True},  # JSON true would run as k = 1
        {"bundle": [1, 0], "k": 1, "seed": True},
        {"bundle": [True, 0], "k": 1},
        {"bundle": [1, 0], "k_list": []},
        {"bundle": [1, 0], "k_list": 2},
        {"bundle": [1, 0], "k_list": [2, False]},
        {"bundle": [1, -1], "k_list": [2, 0]},  # 0 is below the regularity 1
    ],
)
def test_parse_config_rejects_non_integer_levels(tmp_path, cfg):
    p = _write_cfg(tmp_path, "c.json", cfg)
    with pytest.raises(ConfigError):
        parse_config(p)
    if "k_list" in cfg:
        assert _run("bergman", p, tmp_path / "out") == 1


def test_cli_error_exit_code(tmp_path):
    p = _write_cfg(tmp_path, "c.json", {"bundle": [1, -1], "k": 0})
    assert _run("mna", p, tmp_path / "out") == 1


def test_mna_command(tmp_path):
    p = _write_cfg(
        tmp_path,
        "c.json",
        {
            "bundle": [1, -1],
            "k": 1,
            "zeta": {"weights": ["1", "-3"], "dims": [3, 1]},
        },
    )
    out = tmp_path / "out"
    assert _run("mna", p, out) == 0
    rep = json.loads((out / "report.json").read_text())
    assert rep["results"]["mna"] == "-8"
    assert rep["results"]["jna"] == "4"
    assert rep["exit_code"] == 0
    assert (out / "meta.json").exists()


def test_mna_report_is_deterministic(tmp_path):
    p = _write_cfg(
        tmp_path,
        "c.json",
        {
            "bundle": [1, -1],
            "k": 1,
            "zeta": {"weights": ["1/2", "-1/2"], "dims": [2, 2]},
        },
    )
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    assert _run("mna", p, out1) == 0
    assert _run("mna", p, out2) == 0
    assert (out1 / "report.json").read_bytes() == (out2 / "report.json").read_bytes()


@pytest.mark.parametrize("bundle, k, outcome, steps, status", [
    ([1, -1], 2, "stalled", 4, "diverging"),
    ([2, 2], 0, "converged", 1, "converged"),
])
def test_solve_command_reports_the_t_phase(tmp_path, bundle, k, outcome, steps, status):
    # the T-phase's steps, last change and outcome sit beside the
    # descent's results; the default start of O(2)+O(2) is balanced
    # already, and on O(1)+O(-1) every change is log 2
    cfg = {"bundle": bundle, "k": k, "quadrature": {"n_colat": 12, "n_angle": 12}}
    out = tmp_path / "out"
    assert _run("solve", _write_cfg(tmp_path, "c.json", cfg), out) == 0
    res = json.loads((out / "report.json").read_text())["results"]
    assert res["status"] == status
    assert res["t_outcome"] == outcome and res["t_steps"] == steps
    assert res["t_change"] == pytest.approx(math.log(2.0) if outcome == "stalled" else 0.0,
                                            abs=solver_mod._T_TOL)
    rows = (out / "solve_history.csv").read_text().splitlines()
    assert rows[0] == "iter,mdon,he_residual,log_op_norm"
    assert len(rows) == 1 + res["iterations"]


def test_bergman_command(tmp_path):
    p = _write_cfg(tmp_path, "c.json", _BERGMAN_CFG)
    out = tmp_path / "out"
    assert _run("bergman", p, out) == 0
    lines = (out / "bergman.csv").read_text().strip().splitlines()
    assert lines[0] == "k,sup_dev,raw_sup_dev"
    assert len(lines) == 3
    rep = json.loads((out / "report.json").read_text())
    assert rep["results"]["rows"][0]["raw_sup_dev"] < 1e-8


def test_bergman_command_evaluates_h_once(tmp_path, monkeypatch):
    # one evaluation of h on the nodes serves every level of k_list
    calls = count_calls(monkeypatch, sections_mod.FSMetric, "evaluate")
    assert _run("bergman", _write_cfg(tmp_path, "c.json", _BERGMAN_CFG), tmp_path / "out") == 0
    assert len(calls) == 1


def test_mdon_command(tmp_path):
    p = _write_cfg(tmp_path, "c.json", _MDON_CFG)
    out = tmp_path / "out"
    assert _run("mdon", p, out) == 0
    rep = json.loads((out / "report.json").read_text())
    assert isinstance(rep["results"]["mdon"], float)


def test_reports_are_independent_of_blas_threads(tmp_path):
    # the thread cap is the environment's, set before the interpreter
    # starts: numpy reads it once, at import
    for cmd, cfg in (
        ("bergman", _BERGMAN_CFG),
        ("mdon", _MDON_CFG),
        ("convexity-audit", _CONVEXITY_CFG),
        ("slope-test", _SLOPE_CFG),
    ):
        p = _write_cfg(tmp_path, f"{cmd}.json", cfg)
        reports = []
        for threads in ("1", "2"):
            out = tmp_path / f"{cmd}-{threads}"
            run_at_blas_threads(threads, "-m", "hebundle.cli", cmd, "--config", p, "--out", str(out))
            reports.append((out / "report.json").read_bytes())
        assert reports[0] == reports[1], cmd


def test_slope_test_command(tmp_path):
    p = _write_cfg(
        tmp_path,
        "c.json",
        {
            "bundle": [1, -1],
            "k": 1,
            "quadrature": {"n_colat": 16, "n_angle": 16},
            "zeta": {"weights": ["1/3", "-1"], "dims": [3, 1]},
            "slope": {"t_max": 12, "n_t": 7},
        },
    )
    out = tmp_path / "out"
    assert _run("slope-test", p, out) == 0
    rep = json.loads((out / "report.json").read_text())
    assert rep["results"]["passes"] is True
    assert rep["results"]["mna_exact"] == "-8/3"
    assert (out / "slope.csv").exists()


def test_slope_test_non_aligned_datum(tmp_path):
    # the full form of weight 1 on (1, 2, 0, 1) and -1/3 on e1, e2, e0 at
    # k = 1: not aligned with the monomial basis, no concentration, and
    # the invariant 8/3; the ray runs to the default t_max 30
    def vec(*xs):
        return [[str(x), "0"] for x in xs]

    blocks = [
        {"w": "1", "vectors": [vec(1, 2, 0, 1)]},
        {"w": "-1/3", "vectors": [vec(0, 1, 0, 0), vec(0, 0, 1, 0), vec(1, 0, 0, 0)]},
    ]
    cfg = {"bundle": [1, -1], "k": 1, "quadrature": {"n_colat": 24, "n_angle": 24},
           "zeta": {"k": 1, "blocks": blocks}}
    out = tmp_path / "out"
    assert _run("slope-test", _write_cfg(tmp_path, "c.json", cfg), out) == 0
    res = json.loads((out / "report.json").read_text())["results"]
    assert res["passes"] is True
    assert res["mna_exact"] == "8/3"
    assert res["concentration_degrees"] == [0]
    assert res["relative_gap"] < 1e-6


def test_slope_test_needs_two_tail_times(tmp_path, capsys):
    # n_t = 2 leaves one time in the fitted tail; the fit would be the
    # minimum-norm solution, not a slope
    p = _write_cfg(tmp_path, "c.json", {**_SLOPE_CFG, "slope": {"t_max": 30, "n_t": 2}})
    assert _run("slope-test", p, tmp_path / "out") == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "n_t" in err, err


def test_missing_arguments():
    with pytest.raises(SystemExit):
        main([])
    with pytest.raises(SystemExit):
        main(["mna"])


def test_default_output_dir(tmp_path, monkeypatch):
    # without --out the output lands in ./hebundle-out; the environment
    # does not move it
    monkeypatch.setenv("HEBUNDLE_OUT", str(tmp_path / "envout"))
    p = _write_cfg(
        tmp_path,
        "c.json",
        {
            "bundle": [1, -1],
            "k": 1,
            "zeta": {"weights": ["1", "-3"], "dims": [3, 1]},
        },
    )
    monkeypatch.chdir(tmp_path)
    assert main(["mna", "--config", p]) == 0
    assert (tmp_path / "hebundle-out" / "report.json").exists()
    assert not (tmp_path / "envout").exists()


def test_cli_surface(monkeypatch):
    # the flags are --config, --out and --self-test; the seed is the
    # config's alone
    parsers = []
    parse_args = argparse.ArgumentParser.parse_args

    def spy(self, *args, **kwargs):
        parsers.append(self)
        return parse_args(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "parse_args", spy)
    with pytest.raises(SystemExit) as exc:
        main(["mna", "--config", "c.json", "--seed", "3"])
    assert exc.value.code == 2
    (p,) = parsers
    flags = {s for a in p._actions for s in a.option_strings}
    assert flags == {"-h", "--help", "--config", "--out", "--self-test"}


def test_package_reads_no_environment():
    # every input comes from the command line or the config (numpy's
    # BLAS thread cap is numpy's own)
    src = Path(main.__code__.co_filename).parent
    reads = []
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            name = getattr(node, "attr", getattr(node, "id", getattr(node, "name", None)))
            if name in ("environ", "environb", "getenv", "getenvb"):
                reads.append(f"{path.stem}:{node.lineno}")
    assert not reads, f"environment reads: {reads}"


_Q8 = {"n_colat": 8, "n_angle": 8}
_MNA_BASE = {"bundle": [1, -1], "k": 1, "quadrature": _Q8}
_CONVEXITY_BASE = {"bundle": [1, 0], "k": 0, "quadrature": _Q8}
# the full form of the weights 1 (on e0) and -3 (on e1, e2, e3) at k = 1
_BLOCKS_13 = [
    {"w": "1", "vectors": [[["1", "0"], ["0", "0"], ["0", "0"], ["0", "0"]]]},
    {"w": "-3", "vectors": [[[str(int(i == j)), "0"] for i in range(4)] for j in (1, 2, 3)]},
]


@pytest.mark.parametrize(
    "command, cfg, key",
    [
        ("solve", {**_MNA_BASE, "solve": {"max_iter": True}}, "max_iter"),
        ("mna", {**_MNA_BASE, "quadrature": {"n_colat": 8.9},
                 "zeta": {"weights": ["1", "-3"], "dims": [3, 1]}}, "n_colat"),
        ("slope-test", {**_MNA_BASE, "zeta": {"weights": ["1/3", "-1"], "dims": [3, 1]},
                        "slope": {"t_max": 12, "n_t": 4.7}}, "n_t"),
        ("convexity-audit", {**_CONVEXITY_BASE, "convexity": {"n_paths": "2"}}, "n_paths"),
        ("convexity-audit", {**_CONVEXITY_BASE, "convexity": {"s_values": ["0.5"]}}, "s_values"),
        ("convexity-audit", {**_CONVEXITY_BASE, "convexity": {"n_paths": True}}, "n_paths"),
        ("convexity-audit", {**_CONVEXITY_BASE, "convexity": {"s_values": 0.5}}, "s_values"),
        ("mna", {**_MNA_BASE, "zeta": {"weights": ["1", "-3"], "dims": [3.7, 1]}}, "dims"),
        ("mna", {**_MNA_BASE, "zeta": {"weights": ["1", "-3"], "dims": [3, True]}}, "dims"),
        ("mna", {**_MNA_BASE, "zeta": {"weights": [0.1, -1], "dims": [3, 1]}}, "weights"),
        ("mna", {**_MNA_BASE, "zeta": {"k": 1.9, "blocks": _BLOCKS_13}}, "k"),
        ("audit-deltabound", {"bundle": [0], "k": 2, "quadrature": _Q8,
                              "delta_audit": {"n_samples": 0}}, "n_samples"),
        ("mna", {**_MNA_BASE, "output_dir": 5,
                 "zeta": {"weights": ["1", "-3"], "dims": [3, 1]}}, "output_dir"),
        # missing inputs
        ("mdon", {"bundle": [1, -1], "quadrature": _Q8,
                  "zeta": {"weights": ["1/2", "-1/2"], "dims": [2, 2]}}, "k"),
        ("mna", _MNA_BASE, "zeta"),
        ("probe-coercivity", {"bundle": [1, 1], "k": 1, "quadrature": _Q8}, "k_list"),
        # malformed full zeta forms, refused before the rule is built
        ("mna", {**_MNA_BASE, "zeta": {"k": 1, "blocks": 3}}, "blocks"),
        ("mna", {**_MNA_BASE, "zeta": {"k": 1, "blocks": [[b["w"], b["vectors"]]
                                                          for b in _BLOCKS_13]}}, "blocks"),
        ("mna", {**_MNA_BASE, "zeta": {"k": 1, "blocks": _BLOCKS_13[:1]}}, "vectors"),
        ("mna", {**_MNA_BASE, "zeta": {"weights": ["1", "-3"], "dims": [2, 1]}}, "zeta"),
        # values of the right kind that the solver refuses
        ("solve", {**_MNA_BASE, "solve": {"grad_tol": 0}}, "grad_tol"),
        ("solve", {**_MNA_BASE, "solve": {"divergence_op": 0}}, "divergence_op"),
        # NaN and Infinity, which Python's json reads as floats
        ("slope-test", {**_MNA_BASE, "zeta": {"weights": ["1/3", "-1"], "dims": [3, 1]},
                        "slope": {"t_max": float("inf")}}, "t_max"),
        ("convexity-audit", {**_CONVEXITY_BASE, "convexity": {"s_values": [float("nan")]}},
         "s_values"),
        ("audit-deltabound", {"bundle": [0], "k": 2, "quadrature": _Q8,
                              "delta_audit": {"scale": float("nan")}}, "scale"),
        ("solve", {**_MNA_BASE, "solve": {"divergence_m": float("nan")}}, "divergence_m"),
        # bergman's levels are k_list's alone
        ("bergman", {"bundle": [0], "k": 2, "quadrature": _Q8}, "k_list"),
        # zeta weights: strings that `Fraction` does not parse
        ("mna", {**_MNA_BASE, "zeta": {"weights": ["1/0", "-3"], "dims": [3, 1]}},
         "zeta weights"),
        ("mna", {**_MNA_BASE, "zeta": {"weights": ["one", "-3"], "dims": [3, 1]}},
         "zeta weights"),
    ],
)
def test_bad_config_is_a_config_error(tmp_path, capsys, command, cfg, key):
    # refused before any numerics: no output directory is made
    out = tmp_path / "out"
    assert _run(command, _write_cfg(tmp_path, "c.json", cfg), out) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error:") and key in err, err
    assert not out.exists()


def test_report_config_records_every_block(tmp_path):
    p = _write_cfg(tmp_path, "c.json", {**_MDON_CFG, "slope": {"n_t": 7}})
    assert _run("mna", p, tmp_path / "out") == 0
    cfg = json.loads((tmp_path / "out" / "report.json").read_text())["config"]
    assert cfg["slope"] == {"t_max": 30.0, "n_t": 7}
    assert cfg["solve"] == {"max_iter": 200}
    assert set(cfg) >= {"quadrature", "solve", "delta_audit", "probe", "slope", "convexity"}


def test_audit_deltabound_command(tmp_path):
    p = _write_cfg(tmp_path, "c.json", {"bundle": [0], "k": 2, "quadrature": {
        "n_colat": 12, "n_angle": 12}, "delta_audit": {"n_samples": 2}})
    out = tmp_path / "out"
    assert _run("audit-deltabound", p, out) == 0
    rep = json.loads((out / "report.json").read_text())
    assert rep["results"]["passes"] is True and rep["results"]["samples"] == 2
    lines = (out / "delta_audit.csv").read_text().strip().splitlines()
    assert lines[0] == "sample,delta,mdon,bound,passes"
    assert len(lines) == 3


def test_audit_deltabound_takes_the_form_space_geodesic(tmp_path, monkeypatch):
    # the standard metric is an FS metric of the audit's section basis, so
    # no energy of the audit goes along the pointwise geodesic
    built = count_calls(monkeypatch, donaldson_mod, "PointwiseExponentialPath")
    p = _write_cfg(tmp_path, "c.json", {"bundle": [1, -1], "k": 1, "quadrature": {
        "n_colat": 12, "n_angle": 12}, "delta_audit": {"n_samples": 2}})
    assert _run("audit-deltabound", p, tmp_path / "out") == 0
    assert built == []


def test_probe_coercivity_command(tmp_path):
    p = _write_cfg(tmp_path, "c.json", {"bundle": [1, 1], "k_list": [1, 2], "quadrature": {
        "n_colat": 12, "n_angle": 12}, "probe": {"samples_per_k": 2, "t_max": 10}})
    out = tmp_path / "out"
    assert _run("probe-coercivity", p, out) == 0
    rep = json.loads((out / "report.json").read_text())
    assert [row["k"] for row in rep["results"]["table"]] == [1, 2]
    lines = (out / "coercivity.csv").read_text().strip().splitlines()
    assert lines[0] == "k,c_k"
    assert [line.split(",")[0] for line in lines[1:]] == ["1", "2"]
