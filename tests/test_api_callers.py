"""Every public module-level function or class of the package has a caller.

A name counts as used when it is read bare (and not shadowed by a local
name), imported, or read off a package module (`quot.filtration`) in
another package module, in another top-level statement of its own
module, in the acceptance tests or in the benchmark harness.
Unit tests alone do not keep a name alive, and docstrings do not count.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "hebundle"

ALLOWED = {
    "renormalized_limit": "the paper's title object, the Quot-scheme limit of the FS rays",
    "transition_matrix": "the chart-gluing oracle the tests check the metrics against",
    "ExplicitMetric": "the tests' non-Fubini-Study evaluator",
}


MODULES = {p.stem for p in SRC.glob("*.py")}


def _referenced(node, local=frozenset()) -> set:
    """Names read bare, imported, or read as `module.name` off a package
    module.  A function's own arguments and assigned names shadow the
    module-level ones, and `obj.name` on anything else is a different
    name."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
        a = node.args
        args = [*a.posonlyargs, *a.args, *a.kwonlyargs, a.vararg, a.kwarg]
        local = local | {x.arg for x in args if x} | {
            n.id for n in ast.walk(node) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)
        }
    out = set()
    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) and node.id not in local:
        out.add(node.id)
    elif isinstance(node, ast.Attribute):
        if getattr(node.value, "id", getattr(node.value, "attr", None)) in MODULES:
            out.add(node.attr)
    elif isinstance(node, ast.alias):
        out.add(node.name.split(".")[-1])
    for child in ast.iter_child_nodes(node):
        out |= _referenced(child, local)
    return out


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def test_every_public_name_has_a_caller():
    modules = {p.stem: _tree(p) for p in sorted(SRC.glob("*.py"))}
    outside = set()
    for path in [ROOT / "tests" / "test_acceptance.py", *(ROOT / "perfbench").rglob("*.py")]:
        outside |= _referenced(_tree(path))
    uncalled, defined = [], set()
    for mod, tree in modules.items():
        others = set().union(outside, *(_referenced(t) for m, t in modules.items() if m != mod))
        for stmt in tree.body:
            if not isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            name = stmt.name
            defined.add(name)
            if name.startswith("_") or name in ALLOWED:
                continue
            own = set().union(*(_referenced(s) for s in tree.body if s is not stmt))
            if name not in others | own:
                uncalled.append(f"{mod}.{name}")
    assert set(ALLOWED) <= defined, "an allowlisted name no longer exists"
    assert not uncalled, f"public names with no caller outside the unit tests: {uncalled}"
