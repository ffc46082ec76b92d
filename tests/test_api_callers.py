"""Every public module-level function or class of the package has a
caller, every public method or property of a package class is read, and
every defaulted parameter or dataclass field has a caller that overrides
it.

A name counts as used when it is read bare (and not shadowed by a local
name), imported, or read off a package module (`quot.filtration`) in
another package module, in another top-level statement of its own
module, in the acceptance tests or in the benchmark harness.  A method
or property counts as read when `obj.name` appears in the same places,
outside its own definition.
Unit tests alone do not keep a name alive, and docstrings do not count.
"""

import ast
from collections import Counter
from itertools import takewhile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "hebundle"

ALLOWED = {}


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


def test_every_import_is_read():
    """Every name that an import binds in a package module is read in
    that module, so a deletion cannot leave its imports behind.
    Annotations count as reads; `from __future__` imports bind nothing."""
    unread = []
    for path in sorted(SRC.glob("*.py")):
        tree = _tree(path)
        reads = {n.id for n in ast.walk(tree)
                 if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    if bound not in reads:
                        unread.append(f"{path.stem}: {bound}")
    assert not unread, f"imports read by nothing in their module: {unread}"


def test_node_sums_go_through_integrate_values():
    """`tree_sum` is read only in `geometry`: every integral of node
    values goes through `integrate_values`, apart from
    `sections._section_pairing`, which sums over the nodes by a matrix
    product and reads no `tree_sum`.  Imports are not reads."""
    bypass = []
    for path in sorted(SRC.glob("*.py")):
        if path.stem == "geometry":
            continue
        for stmt in _tree(path).body:
            name = getattr(stmt, "name", f"line {stmt.lineno}")
            if any(getattr(n, "id", getattr(n, "attr", None)) == "tree_sum" for n in ast.walk(stmt)):
                bypass.append(f"{path.stem}.{name}")
    assert not bypass, f"node sums that bypass integrate_values: {bypass}"



def test_no_exception_handler_only_passes():
    """No `except` in the package has a body of `pass` alone: a failure
    is turned into a value that says what happened (an energy of inf, a
    "stalled" outcome) or raised, never dropped."""
    silent = []
    for path in sorted(SRC.glob("*.py")):
        for stmt in _tree(path).body:
            name = getattr(stmt, "name", f"line {stmt.lineno}")
            silent += [f"{path.stem}.{name}:{n.lineno}" for n in ast.walk(stmt)
                       if isinstance(n, ast.ExceptHandler)
                       and all(isinstance(b, ast.Pass) for b in n.body)]
    assert not silent, f"exception handlers that drop the exception: {silent}"


def _is_abs_squared(node) -> bool:
    """Whether `node` is `np.abs(x) ** 2` (or `abs(x) ** 2`)."""
    return (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow)
            and isinstance(node.left, ast.Call)
            and getattr(node.left.func, "attr", getattr(node.left.func, "id", None)) == "abs"
            and isinstance(node.right, ast.Constant) and node.right.value == 2)


def test_the_kahler_potential_lives_in_geometry():
    """|z|^2 is computed only in `geometry`: every power of e^phi =
    1 + |z|^2, its derivative, the area coefficient and the contraction
    factor are read from `geometry`'s functions of chart coordinates, so
    another base changes one module."""
    bypass = []
    for path in sorted(SRC.glob("*.py")):
        if path.stem == "geometry":
            continue
        for stmt in _tree(path).body:
            name = getattr(stmt, "name", f"line {stmt.lineno}")
            bypass += [f"{path.stem}.{name}:{n.lineno}" for n in ast.walk(stmt) if _is_abs_squared(n)]
    assert not bypass, f"potential terms written out outside geometry: {bypass}"


# (module, top-level name) -> why it may call a dense `inv`, `solve` or
# `qr`; per-node metric values go through `bundle._equilibrated_inverse`,
# and the ray's per-node QR is `asymptotics._graded_rate`'s entrywise one
DENSE_INVERSE_ALLOWED = {
    ("sections", "FSMetric"): "inverts the N x N section form and its Cholesky factor",
    ("asymptotics", "OnePSRay"): "solves with the Cholesky factor of the N x N base form and C",
    ("asymptotics", "zeta_matrix"): "orthonormalizes the weight datum's N vectors once",
    ("bundle", "_whitening"): "inverts a triangular Cholesky factor, not a metric value",
}


def test_stencils_inverses_and_products_go_through_the_per_node_kernels():
    """No `tensordot` anywhere in the package: a stencil is summed by
    `bundle._stencil_sum`, in one order whatever the batch.  `inv`,
    `solve` and `qr` only in the allowlisted places: a stacked LAPACK QR
    makes one call per small matrix, as stacked `inv` does."""
    bypass, found = set(), set()
    for path in sorted(SRC.glob("*.py")):
        for stmt in _tree(path).body:
            place = (path.stem, getattr(stmt, "name", f"line {stmt.lineno}"))
            for node in ast.walk(stmt):
                if not isinstance(node, ast.Call):
                    continue
                name = getattr(node.func, "attr", getattr(node.func, "id", None))
                if name in ("inv", "solve", "qr") and place in DENSE_INVERSE_ALLOWED:
                    found.add(place)
                elif name in ("tensordot", "inv", "solve", "qr"):
                    bypass.add(f"{'.'.join(place)}: {name}")
    assert found == set(DENSE_INVERSE_ALLOWED), "an allowlisted place no longer inverts"
    assert not bypass, f"calls that bypass the per-node kernels: {sorted(bypass)}"


# (module, top-level name) -> why it may call a dense `eigh` or
# `eigvalsh`; per-node r x r values go through `bundle._node_eigh` and
# `bundle._node_eigvalsh`, closed form at r = 2
DENSE_EIGH_ALLOWED = {
    ("bundle", "_node_eigh"): "the kernel's fallback at every r but 2",
    ("bundle", "_node_eigvalsh"): "the kernel's fallback at every r but 2",
    ("asymptotics", "OnePSRay"): "diagonalizes the N x N generator once",
    ("asymptotics", "rationalize_zeta"): "diagonalizes the N x N generator once",
    ("solver", "_log_opnorm"): "takes the logarithm of the N x N form",
    ("solver", "_balance"): "diagonalizes the N x N relative form and the next log iterate",
    ("donaldson", "_poincare_rayleigh"): "dense Rayleigh-Ritz on the trial space",
}


def test_eigendecompositions_go_through_the_per_node_kernels():
    """`eigh` and `eigvalsh` only in the allowlisted places: a stacked
    LAPACK `eigh` makes one call per small matrix, as stacked `inv`
    does."""
    bypass, found = set(), set()
    for path in sorted(SRC.glob("*.py")):
        for stmt in _tree(path).body:
            place = (path.stem, getattr(stmt, "name", f"line {stmt.lineno}"))
            for node in ast.walk(stmt):
                if not isinstance(node, ast.Call):
                    continue
                name = getattr(node.func, "attr", getattr(node.func, "id", None))
                if name in ("eigh", "eigvalsh"):
                    (found if place in DENSE_EIGH_ALLOWED else bypass).add(place)
    assert not bypass, f"eigendecompositions that bypass the per-node kernels: {sorted(bypass)}"
    assert found == set(DENSE_EIGH_ALLOWED), "an allowlisted place no longer diagonalizes"
    assert all(DENSE_EIGH_ALLOWED.values()), "every allowlisted place needs its reason"


def test_exact_engine_names_its_elimination_method():
    """`quot` calls no sympy routine that picks its own method: no
    `.det()` or `.rank()`, and `.rref()` or `.rref_den()` only with
    `method=`.  On the engine's small matrices the automatic choice
    costs more than the elimination: a 6 x 6 rank took 360 us over QQ
    against 105 us for fraction-free elimination over ZZ."""
    auto = []
    for node in ast.walk(_tree(SRC / "quot.py")):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            name = node.func.attr
            if name in ("det", "rank") or (
                name in ("rref", "rref_den") and "method" not in {k.arg for k in node.keywords}
            ):
                auto.append(f"quot:{node.lineno}: .{name}()")
    assert not auto, f"sympy calls that choose their own method: {auto}"


def test_exact_engine_has_one_euclid():
    """`quot` holds every datum over ZZ[x] or ZZ_I[x] and runs one
    fraction-free Euclid on both: it reads no `is_Field`, and no ring in
    `quot._RINGS` has a field as its ground domain.  A ring over a field
    such as QQ_I would need a second, dividing Euclid."""
    from hebundle import quot

    reads = [
        f"quot:{n.lineno}"
        for n in ast.walk(_tree(SRC / "quot.py"))
        if isinstance(n, ast.Attribute) and n.attr == "is_Field"
    ]
    fields = [str(r) for r in quot._RINGS.values() if r.domain.is_Field]
    assert not reads and not fields, f"is_Field read at {reads}; rings over a field: {fields}"


# (module, top-level name) -> why it may read the finite-difference
# stencil; every metric of the package is an FS metric, whose curvature
# and connection are closed form
FD_STENCIL_ALLOWED = {
    ("donaldson", "PointwiseExponentialPath"):
        "the pointwise geodesic between two metrics has no closed-form curvature",
    ("donaldson", "second_derivative_geodesic"):
        "the convexity audit differences the pointwise geodesic's velocity and metric",
    ("donaldson", "curvature_variation_check"):
        "the variation check sets the closed-form curvature against differences",
}


def test_finite_differences_only_where_they_are_the_point():
    """`fd_stencil` and `fd_curvature_batch` are read only in the
    allowlisted places.  Imports are not reads."""
    bypass, found = set(), set()
    for path in sorted(SRC.glob("*.py")):
        for stmt in _tree(path).body:
            if isinstance(stmt, (ast.Import, ast.ImportFrom)):
                continue
            place = (path.stem, getattr(stmt, "name", f"line {stmt.lineno}"))
            reads = {getattr(n, "id", getattr(n, "attr", None)) for n in ast.walk(stmt)}
            if not reads & {"fd_stencil", "fd_curvature_batch"}:
                continue
            (found if place in FD_STENCIL_ALLOWED else bypass).add(place)
    assert found == set(FD_STENCIL_ALLOWED), "an allowlisted place no longer differences"
    assert all(FD_STENCIL_ALLOWED.values()), "every allowlisted place needs its reason"
    assert not bypass, f"finite differences outside the allowlist: {sorted(bypass)}"


def _attributes(node) -> Counter:
    return Counter(n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute))


def test_every_public_method_is_read():
    """`obj.name` is read for every public method and property of a
    package class, outside that member's own body; matching is by name
    alone, whatever `obj` is."""
    paths = [*SRC.glob("*.py"), ROOT / "tests" / "test_acceptance.py",
             *(ROOT / "perfbench").rglob("*.py")]
    reads = sum((_attributes(_tree(p)) for p in paths), Counter())
    unread = []
    for path in sorted(SRC.glob("*.py")):
        for cls in (s for s in _tree(path).body if isinstance(s, ast.ClassDef)):
            for f in cls.body:
                if isinstance(f, ast.FunctionDef) and not f.name.startswith("_"):
                    if reads[f.name] <= _attributes(f)[f.name]:
                        unread.append(f"{path.stem}.{cls.name}.{f.name}")
    assert not unread, f"public methods read by nothing outside the unit tests: {unread}"


# "module.function(parameter)" -> why the default stays without a caller
# that overrides it
ALLOWED_DEFAULTS = {}


def _init_fields(cls: ast.ClassDef) -> list:
    """The fields, in order, that a dataclass's generated `__init__`
    takes; none for any other class."""
    if not any("dataclass" in ast.unparse(d) for d in cls.decorator_list):
        return []
    return [s for s in cls.body if isinstance(s, ast.AnnAssign)
            and "init=False" not in ast.unparse(s.value or s.target)]


def _defaulted_params():
    """(qualified name, call name, positional parameters, {defaulted
    parameter: default}) for every function and method of the package,
    and for the generated `__init__` of every dataclass, whose fields
    are its parameters.  A method's `self` is not counted, and
    `__init__` is called by its class's name."""
    for path in sorted(SRC.glob("*.py")):
        for stmt in _tree(path).body:
            if isinstance(stmt, ast.FunctionDef):
                funcs = [(stmt.name, stmt.name, stmt, 0)]
            elif isinstance(stmt, ast.ClassDef):
                fields = _init_fields(stmt)
                defaults = {f.target.id: f.value for f in fields if f.value is not None}
                if defaults:
                    yield (f"{path.stem}.{stmt.name}", stmt.name,
                           [f.target.id for f in fields], defaults)
                funcs = [
                    (stmt.name, stmt.name, f, 1) if f.name == "__init__"
                    else (f"{stmt.name}.{f.name}", f.name, f, 1)
                    for f in stmt.body if isinstance(f, ast.FunctionDef)
                ]
            else:
                continue
            for qual, call_name, f, skip in funcs:
                a = f.args
                pos = [x.arg for x in [*a.posonlyargs, *a.args]]
                defaults = dict(zip(pos[len(pos) - len(a.defaults):], a.defaults))
                defaults.update(
                    (x.arg, d) for x, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None
                )
                if defaults:
                    yield f"{path.stem}.{qual}", call_name, pos[skip:], defaults


def _overrides(arg, default) -> bool:
    """Whether a passed argument can differ from the default: it can
    unless both are the same literal."""
    try:
        return ast.literal_eval(arg) != ast.literal_eval(default)
    except (ValueError, TypeError, SyntaxError):
        return True


def test_every_keyword_default_is_overridden():
    """A defaulted parameter counts as overridden when some call of its
    function's name (a dataclass's: its class's name) in the package, the
    benchmark harness or the acceptance tests passes it, by keyword or by
    position, a value other than the default's own literal.  A `*` or
    `**` expansion counts for no parameter, and no positional argument
    after a `*` does: what it passes is data the code cannot show (a
    config block expanded into a call keeps no default alive).  Unit
    tests do not count."""
    calls = {}
    for path in [*SRC.glob("*.py"), *(ROOT / "perfbench").rglob("*.py"),
                 ROOT / "tests" / "test_acceptance.py"]:
        for node in ast.walk(_tree(path)):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", getattr(node.func, "attr", None))
                calls.setdefault(name, []).append(node)
    unused, found = [], set()
    for qual, call_name, pos, defaults in _defaulted_params():
        for param, default in defaults.items():
            key = f"{qual}({param})"
            found.add(key)
            if key in ALLOWED_DEFAULTS:
                continue
            for call in calls.get(call_name, []):
                args = takewhile(lambda x: not isinstance(x, ast.Starred), call.args)
                passed = dict(zip(pos, args))
                passed.update((kw.arg, kw.value) for kw in call.keywords if kw.arg is not None)
                if param in passed and _overrides(passed[param], default):
                    break
            else:
                unused.append(key)
    assert set(ALLOWED_DEFAULTS) <= found, "an allowlisted default no longer exists"
    assert all(ALLOWED_DEFAULTS.values()), "every allowlisted default needs its reason"
    assert not unused, (
        f"defaulted parameters that no call outside the unit tests overrides: {unused}"
    )


# settable values of the package as it stands; a change that needs a new
# option raises this ceiling in the same change and says why in CHANGES.md
SETTABLE_CEILING = 7


def _settable_values() -> list:
    """Defaulted parameters of every function and method, and dataclass
    fields that `__init__` accepts with a default."""
    out = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(_tree(path)):
            if isinstance(node, ast.FunctionDef):
                a = node.args
                pos = [x.arg for x in [*a.posonlyargs, *a.args]]
                out += [f"{path.stem}.{node.name}({x})" for x in pos[len(pos) - len(a.defaults):]]
                out += [f"{path.stem}.{node.name}({x.arg})"
                        for x, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None]
            elif isinstance(node, ast.ClassDef):
                out += [f"{path.stem}.{node.name}.{s.target.id}"
                        for s in _init_fields(node) if s.value is not None]
    return out


def test_settable_values_do_not_grow():
    values = _settable_values()
    assert len(values) <= SETTABLE_CEILING, f"{len(values)} settable values: {values}"
