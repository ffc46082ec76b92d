"""The three benchmark workloads: seeded inputs, tasks and correctness checks.

`build(name, seed, tiny, workdir)` is a pass's set-up: it builds the
quadrature rules and generates every input from the seed.  It returns a
list of `Task`s; each task makes one call into hebundle's public surface
and checks the result with the tolerance of the matching acceptance
criterion.  The `tiny` sizes exist only for the harness's own smoke run.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

import numpy as np
import scipy.linalg

from hebundle import cli
from hebundle.bundle import BundleSpec
from hebundle.geometry import build_quadrature
from hebundle.quot import (
    WeightSpec,
    evaluation_drop_degree,
    filtration,
    generated_subsheaf,
)
from hebundle.sections import basis
from hebundle.solver import SolveOptions, minimize


@dataclass
class Task:
    """One call into the program plus its check.

    `run` returns None when the result is correct and a one-line reason
    otherwise; an exception raised by `run` also counts as a failure.
    """

    name: str
    run: Callable[[], str | None]


def rand_pd(rng, n: int, log_norm: float) -> np.ndarray:
    """Random hermitian positive form e^H, with H traceless hermitian of
    Frobenius norm `log_norm` in a uniformly random direction."""
    X = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    H = 0.5 * (X + X.conj().T)
    H -= (np.trace(H).real / n) * np.eye(n)
    return scipy.linalg.expm(log_norm * H / np.linalg.norm(H))


# -- he_solve -----------------------------------------------------------------


def _he_solve(rng, tiny: bool, workdir: Path) -> list[Task]:
    # criterion 8 (O(2)+O(2) from random forms) at k=0 on a 12x12 rule: at
    # k=2 the iterations to converge ranged from 48 to 205 over random
    # forms, too wide for a steady pass time.  At k=0, forms of log-scale
    # 0.3 took 13 to 17 iterations; a traceless log of fixed norm 1 takes
    # 11 to 14.  The pass time follows the sum of iterations, so six solves
    # average it out
    n = 8 if tiny else 12
    k = 0
    spec = BundleSpec((2, 2))
    rule = build_quadrature(n, n)
    N = basis(spec, k).N
    tasks = []
    for i in range(2 if tiny else 6):
        G_init = rand_pd(rng, N, 1.0)

        def run(G_init=G_init):
            res = minimize(spec, SolveOptions(k=k, max_iter=300), rule, G_init=G_init)
            if res.status != "converged":
                return f"status {res.status}"
            if not res.he_residual_sup < 1e-3:
                return f"HE residual {res.he_residual_sup:.3e} >= 1e-3"
            return None

        tasks.append(Task(f"minimize[{i}]", run))
    return tasks


# -- cli_audits ---------------------------------------------------------------

# block weights over the standard basis of O(1)+O(-1) at k=1 whose rays
# have no concentration (dims 3+1), so the slope test must pass
_SLOPE_WEIGHTS = (("1/3", "-1"), ("1", "-1"), ("1/2", "-1"), ("2/3", "-1/3"))
# the mdon weights are fixed because they set how many quadrature
# doublings the energy integral needs; the seed picks the block sizes
_MDON_WEIGHTS = ["1/2", "0", "-1/2"]


def _cli_configs(rng, tiny: bool) -> list[tuple[str, dict]]:
    def quad(n):
        return {"n_colat": 8 if tiny else n, "n_angle": 8 if tiny else n}

    slope_w = _SLOPE_WEIGHTS[int(rng.integers(len(_SLOPE_WEIGHTS)))]
    # seeded block sizes of a three-block weight datum over O(2)+O(1)+O(0), N=12
    dims = [int(d) for d in rng.multinomial(9, [1 / 3] * 3) + 1]
    return [
        ("solve", {"bundle": [1, -1], "k": 2, "quadrature": quad(12),
                   "solve": {"max_iter": 300}}),
        # criterion 6's ray grid (t_max 30, 16 points)
        ("slope-test", {"bundle": [1, -1], "k": 1, "quadrature": quad(16),
                        "zeta": {"weights": list(slope_w), "dims": [3, 1]},
                        "slope": {"t_max": 30, "n_t": 16}}),
        # O(1)+O(0) at k=0 (N=3) on 20x20.  The CLI's random paths have
        # log-scale 0.5 and the audit's tolerance is 1e-4.  For O(1)+O(-1)
        # at k=1 (N=4) the formula/finite-difference gap stayed below it
        # only from 32x32 up, a 7-9 s call.  For O(1)+O(0) the largest gap
        # was 3e-4 over 30 seeded paths on 14x14, 1.4e-4 over 40 on 16x16
        # and 8.8e-6 over 40 on 20x20
        ("convexity-audit", {"bundle": [1, 0], "k": 0,
                             "quadrature": {"n_colat": 20, "n_angle": 20},
                             "convexity": {"n_paths": 1, "s_values": [0.5]},
                             "seed": int(rng.integers(2**31))}),
        ("bergman", {"bundle": [1, 0, -1], "k_list": [1, 2],
                     "quadrature": {"n_colat": 16 if tiny else 64,
                                    "n_angle": 16 if tiny else 64}}),
        ("mdon", {"bundle": [2, 1, 0], "k": 2, "quadrature": quad(12),
                  "zeta": {"weights": _MDON_WEIGHTS, "dims": dims}}),
    ]


def _check_cli(command: str, results: dict) -> str | None:
    if command == "solve":
        if results["status"] != "diverging":
            return f"solve status {results['status']}"
        top = results["destabilizer"]["levels"][0]
        if top["rank"] != 1 or Fraction(top["slope"]) != 1:
            return f"top destabilizer level {top}"
        if not Fraction(results["destabilizer"]["mna"]) < 0:
            return f"destabilizer mna {results['destabilizer']['mna']}"
        return None
    if command in ("slope-test", "convexity-audit"):
        return None if results["passes"] is True else f"{command} does not pass"
    if command == "bergman":
        devs = [row["sup_dev"] for row in results["rows"]]
        if not all(b < a for a, b in zip(devs, devs[1:])):
            return f"bergman sup_dev not decreasing in k: {devs}"
        return None
    if command == "mdon":
        return None if math.isfinite(results["mdon"]) else "mdon not finite"
    raise ValueError(f"no check for command {command}")


def _cli_audits(rng, tiny: bool, workdir: Path) -> list[Task]:
    tasks = []
    for command, cfg in _cli_configs(rng, tiny):
        cfg_path = workdir / f"{command}.json"
        cfg_path.write_text(json.dumps(cfg))
        out = workdir / command

        def run(command=command, cfg_path=cfg_path, out=out):
            code = cli.main([command, "--config", str(cfg_path), "--out", str(out)])
            if code != 0:
                return f"{command} exited {code}"
            report = json.loads((out / "report.json").read_text())
            return _check_cli(command, report["results"])

        tasks.append(Task(command, run))
    return tasks


# -- exact_invariants ---------------------------------------------------------


def _random_integer_weightspec(rng, sb) -> WeightSpec:
    """Criterion-7 data: two blocks of random integer vectors, weights 1, -1.

    The blocks split the N vectors in half: with a random split point one
    call's time varied by 15% over inputs, with a fixed one by 2%."""
    cut = sb.N // 2
    while True:
        M = rng.integers(-3, 4, size=(sb.N, sb.N))
        if np.linalg.matrix_rank(M) < sb.N:
            continue
        rows = [tuple(int(c) for c in r) for r in M]
        return WeightSpec(
            k=sb.k, blocks=((Fraction(1), tuple(rows[:cut])), (Fraction(-1), tuple(rows[cut:]))),
        )


def _generator_family(rng, sb, n_gen: int, root: int, order: int):
    """Random sections with coefficients in {-2, -1, 1, 2} times
    (x - root)^order, so with order > 0 the evaluation rank drops at
    x = root at least that much."""
    factor = np.poly1d([1])
    for _ in range(order):
        factor = factor * np.poly1d([1, -root])
    vecs = []
    for _ in range(n_gen):
        v = []
        for d in (a + sb.k for a in sb.bundle.degrees):
            if d < order:
                v.extend([0] * (d + 1))
                continue
            q = np.poly1d(rng.choice([-2, -1, 1, 2], size=d - order + 1))
            # poly1d is highest-power first; the basis order is ascending
            c = (q * factor).coeffs[::-1].astype(int).tolist()
            v.extend(c + [0] * (d + 1 - len(c)))
        vecs.append(tuple(v))
    return generated_subsheaf(sb, vecs)


def _exact_invariants(rng, tiny: bool, workdir: Path) -> list[Task]:
    tasks = []
    spec22 = BundleSpec((2, 2))
    sb22 = basis(spec22, 2)
    for i in range(4 if tiny else 8):
        zeta = _random_integer_weightspec(rng, sb22)

        def run(zeta=zeta):
            m = filtration(spec22, zeta).mna
            return None if m >= 0 else f"mna {m} < 0 on a semistable bundle"

        tasks.append(Task(f"filtration[{i}]", run))
    # (bundle, k, generators, planted order): (1,0,-1) at k=3 has N=12,
    # (2,1,0) at k=4 has N=18.  One call's time spreads over inputs: by 13%
    # for four generators of order 2 with coefficients in {-2, -1, 1, 2}, by
    # 20-45% for the other families tried.  Ten generators at N=18 took
    # 14-19 s per call, so the families stay small
    families = [((1, 0, -1), 3, 4, 2), ((1, 0, -1), 3, 4, 2), ((1, 0, -1), 3, 3, 1),
                ((2, 1, 0), 4, 3, 1)]
    if tiny:
        families = [((1, 0, -1), 3, 3, 1), ((2, 1, 0), 4, 3, 1)]
    for j, (degs, k, n_gen, order) in enumerate(families):
        root = int(rng.choice([-1, 1]))
        fam = _generator_family(rng, basis(BundleSpec(degs), k), n_gen, root, order)

        def run(fam=fam, order=order):
            d = evaluation_drop_degree(fam)
            return None if d >= order else f"drop degree {d} < planted order {order}"

        tasks.append(Task(f"evaluation_drop_degree[{j}]{degs}x{n_gen}@{order}", run))
    return tasks


_BUILDERS = {
    "he_solve": _he_solve,
    "cli_audits": _cli_audits,
    "exact_invariants": _exact_invariants,
}


def build(name: str, seed: int, tiny: bool, workdir: Path) -> list[Task]:
    return _BUILDERS[name](np.random.default_rng(seed), tiny, workdir)
