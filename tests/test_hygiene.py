"""Source rules read off the syntax tree of every package module.

No correctness check may live in an ``assert``: ``python -O`` strips them.
The experiment harness ``lab`` sits at the top of the import graph: only the
command-line front end imports it, so no module below it can close a cycle.
The package and the tests read eigenbases through their arrays and
``EigenBasis.evaluate``; the per-mode views are for the benchmark, and one
test pins what it reads.  Every public top-level
function and class is named somewhere outside its own definition (the
package, ``scripts/``, ``perfbench/``), or is listed with its reason.
Every keyword default and dataclass-field default is set by some call in
the package, ``scripts/`` or ``perfbench/`` to something other than the
literal it already is: a setting with one value in use is a constant, and
one that only the tests set is a knob, unless it is listed with its
reason.  Neither list may hold an entry that the rule would pass anyway.
``statphase`` computes and ``lab`` fits: ``statphase`` imports
nothing from ``fits``.  A statphase domain owns its chart, measure and
quadrature, so the package asks which domain it holds in one place only:
``StationaryPhaseProblem.__init__``.  ``statphase`` returns plain values and
arrays: the only classes it defines are its domains and
``StationaryPhaseProblem``; ``fits`` and ``specfun`` define no class (a
fit is its report dict, a spherical harmonic its complex value).  A
manifold owns its group action and its closed forms (analytic modes, the
meridian of its L^p norms), so nothing in the package asks which manifold
it holds.  The basis-backed
reduced diagonal and count read the basis on every manifold; they never
dispatch to the closed forms they are tested against.  Inside the package
an isotypic label is an int; the ``IsotypicLabel`` that a per-mode view
returns lives in ``eigensolve`` beside that view, and no other module
names it.
A point is refused in ``geometry`` alone: each manifold's point rule
raises ``InvalidPointError``, and no other module raises it.
Quadrature rules are built in ``util`` alone, by Newton on the Legendre
recurrence: no module names ``leggauss``.  ``statphase`` streams every
quadrature grid in blocks of ``_BLOCK`` nodes, its one quadrature size
constant: no ``_CHUNK`` slab and no second size literal.  The suite runs serially and the package reads no environment
variable: no module imports a thread or process pool, or reads
``os.environ`` or ``os.getenv``.  A report's verdict is its check list,
and each check's bound is a constant of its experiment: no subcommand
parameter names a tolerance, and the package names neither
``verdict_from`` nor ``tolerances``.  No module of the package,
``scripts/`` or ``tests/`` imports a name it never reads, unless the line
is marked ``# noqa: F401``.  No module calls ``np.vectorize``, a Python loop
per element: a closed form that a sweep reads takes an array.
"""
import ast
from pathlib import Path

import equiweyl
from equiweyl import geometry, lab

PACKAGE = Path(equiweyl.__file__).parent
MODULES = sorted(PACKAGE.glob("*.py"))
ROOT = Path(__file__).resolve().parents[1]
# the program's own calls; a test's call does not make a setting
CALLERS = [*MODULES, *ROOT.glob("scripts/*.py"), *ROOT.glob("perfbench/*.py")]

# public names that only the tests call, each with the reason it stays
UNREFERENCED_OK = {
    "spherical_harmonic": "test reference for the normalized ladder",
    "kuznecov_sum_by_rotation": "test reference: the literal rotated-point average",
    "momentum_pairing": "test reference: fiber slices lie on the momentum zero level",
    "lifted_orbit_volume": "test reference: the lifted-orbit closed forms; weylcoef reads the "
                           "manifold's length at the point it checks once",
    "cosphere_fiber_slice": "test reference: the fiber rules' weights; weylcoef reads the "
                            "manifold's slice at the point it checks once",
    "reports_equal": "the report comparison the determinism tests use",
}

# defaults that only the tests set, each with the reason it stays settable
TEST_SET_OK = {
    "geometry.py:torus_profile.R": "the profile's shape: axis distance of the tube",
    "geometry.py:torus_profile.a": "the profile's shape: tube radius",
}

STATPHASE_DOMAINS = {"BoxDomain", "SphereDomain", "SphereCircleDomain"}
# every class of geometry that defines part of a manifold: its orbits
# (_orbit) or its group's parameters (_group_nodes, which _Rotation holds
# for the rotation manifolds)
MANIFOLDS = {name for name, cls in vars(geometry).items()
             if isinstance(cls, type) and cls.__module__ == geometry.__name__
             and {"_orbit", "_group_nodes"} & vars(cls).keys()}


def _tree(path):
    return ast.parse(path.read_text(), filename=str(path))


def _imported(tree):
    """Dotted names a module imports, relative imports resolved against the
    package (every module sits at its top level)."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (a.name for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            module = ".".join(filter(None, ["equiweyl" if node.level else "", node.module]))
            yield module
            yield from (f"{module}.{a.name}" for a in node.names)


def test_modules_found():
    assert {"cli.py", "lab.py"} <= {p.name for p in MODULES}


def test_no_assert_statements():
    found = [f"{path.name}:{node.lineno}"
             for path in MODULES for node in ast.walk(_tree(path))
             if isinstance(node, ast.Assert)]
    assert found == []


def test_only_cli_imports_lab():
    importers = [path.name for path in MODULES
                 if path.name != "cli.py" and "equiweyl.lab" in set(_imported(_tree(path)))]
    assert importers == []


# the one test that may read the per-mode views: it pins what perfbench reads
VIEW_CONTRACT = ("test_eigensolve.py", "test_mode_views_serve_the_benchmark")


def test_only_eigensolve_reads_per_mode_views():
    per_mode = {"modes", "evaluator", "density"}
    found = [f"{path.name}:{node.lineno} .{node.attr}"
             for path in [*MODULES, *ROOT.glob("tests/*.py")] if path.name != "eigensolve.py"
             for scope, node in _scoped(_tree(path))
             if isinstance(node, ast.Attribute) and node.attr in per_mode
             and (path.name, scope) != VIEW_CONTRACT]
    assert found == []


def _names(tree, skip=(0, -1)):
    """Every identifier a module names (loads, attributes, imports, and
    string constants such as the tracer's function lists), outside the
    line range skip."""
    for node in ast.walk(tree):
        if skip[0] <= getattr(node, "lineno", -1) <= skip[1]:
            continue
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name.rpartition(".")[2]
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield node.value


def test_every_public_name_has_a_caller():
    others = [*ROOT.glob("scripts/*.py"), *ROOT.glob("perfbench/*.py")]
    named = {path: set(_names(_tree(path))) for path in [*MODULES, *others]}
    uncalled = {}
    for path in MODULES:
        tree = _tree(path)
        elsewhere = set().union(*(names for other, names in named.items() if other != path))
        for node in tree.body:
            if (not isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    or node.name.startswith("_") or node.name in elsewhere):
                continue
            own = (node.lineno - len(node.decorator_list), node.end_lineno)
            if node.name not in set(_names(tree, own)):
                uncalled[node.name] = path.name
    dead = [f"{where}:{name}" for name, where in uncalled.items() if name not in UNREFERENCED_OK]
    # an entry that names no public definition, or one with a caller, is stale
    stale = sorted(UNREFERENCED_OK.keys() - uncalled.keys())
    assert (dead, stale) == ([], [])


def _is_dataclass(cls):
    heads = (d.func if isinstance(d, ast.Call) else d for d in cls.decorator_list)
    return any(isinstance(h, ast.Name) and h.id == "dataclass" for h in heads)


def _is_default(value):
    # field(repr=False) is no default; field(default=...) and
    # field(default_factory=...) are
    if isinstance(value, ast.Call) and getattr(value.func, "id", None) == "field":
        return any(k.arg in ("default", "default_factory") for k in value.keywords)
    return True


def _parameter_defaults(fn, callee, shift):
    """(callee, parameter, position, default expression) per default of
    fn; position counts the arguments a call passes (shift drops self),
    None if keyword-only."""
    args = fn.args
    positional = args.posonlyargs + args.args
    first = len(positional) - len(args.defaults)
    for i, default in enumerate(args.defaults, first):
        yield callee, positional[i].arg, i - shift, default
    for arg, default in zip(args.kwonlyargs, args.kw_defaults):
        if default is not None:
            yield callee, arg.arg, None, default


def _defaults(tree):
    """Every settable default a module defines: dataclass fields, called
    by class name, and function parameters; __init__ is called by its
    class name and other methods by attribute, without self."""
    methods = set()
    for cls in (n for n in ast.walk(tree) if isinstance(n, ast.ClassDef)):
        if _is_dataclass(cls):
            fields = [s for s in cls.body if isinstance(s, ast.AnnAssign)]
            yield from ((cls.name, f.target.id, i, _default_value(f.value))
                        for i, f in enumerate(fields)
                        if f.value is not None and _is_default(f.value))
        for fn in cls.body:
            if isinstance(fn, ast.FunctionDef):
                methods.add(fn)
                static = any(getattr(d, "id", None) == "staticmethod" for d in fn.decorator_list)
                callee = cls.name if fn.name == "__init__" else fn.name
                yield from _parameter_defaults(fn, callee, 0 if static else 1)
    for fn in ast.walk(tree):
        if isinstance(fn, ast.FunctionDef) and fn not in methods:
            yield from _parameter_defaults(fn, fn.name, 0)


def _default_value(value):
    # the expression a dataclass field falls back to
    if isinstance(value, ast.Call) and getattr(value.func, "id", None) == "field":
        return next(k.value for k in value.keywords if k.arg in ("default", "default_factory"))
    return value


def _calls(tree):
    """(callee name, positional arguments, keyword arguments by name,
    starred) per call."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            name = getattr(func, "id", None) or getattr(func, "attr", None)
            starred = (any(isinstance(a, ast.Starred) for a in node.args)
                       or any(k.arg is None for k in node.keywords))
            yield name, node.args, {k.arg: k.value for k in node.keywords}, starred


def _same_literal(value, default):
    try:
        return ast.literal_eval(value) == ast.literal_eval(default)
    except (ValueError, TypeError, SyntaxError):
        return False  # an expression is not the default's literal


def _sets(call, param, pos, default):
    """Whether a call passes param something other than its default's
    literal (a starred call may pass anything)."""
    args, keywords, starred = call
    if starred:
        return True
    value = keywords.get(param, args[pos] if pos is not None and len(args) > pos else None)
    return value is not None and not _same_literal(value, default)


def test_every_default_is_set_by_some_call():
    calls = {}
    for path in CALLERS:
        for name, *call in _calls(_tree(path)):
            calls.setdefault(name, []).append(call)
    unset = set()
    for path in MODULES:
        for callee, param, pos, default in _defaults(_tree(path)):
            if not any(_sets(call, param, pos, default) for call in calls.get(callee, [])):
                unset.add(f"{path.name}:{callee}.{param}")
    # an entry that names no default, or one a program call sets, is stale
    assert (sorted(unset - TEST_SET_OK.keys()), sorted(TEST_SET_OK.keys() - unset)) == ([], [])


def test_statphase_imports_nothing_from_fits():
    imported = set(_imported(_tree(PACKAGE / "statphase.py")))
    assert sorted(n for n in imported if n.startswith("equiweyl.fits")) == []


def _scoped(node, scope=""):
    """(qualified name of the enclosing function or class, node) for every
    node below node; methods read Class.method."""
    for child in ast.iter_child_nodes(node):
        inner = scope
        if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
            inner = f"{scope}.{child.name}" if scope else child.name
        yield inner, child
        yield from _scoped(child, inner)


def _isinstance_sites(classes):
    """(scope, "module:line in scope") per isinstance call in the package
    whose class argument names one of classes."""
    for path in MODULES:
        for scope, node in _scoped(_tree(path)):
            if (isinstance(node, ast.Call) and getattr(node.func, "id", None) == "isinstance"
                    and len(node.args) == 2
                    and any((isinstance(n, ast.Name) and n.id in classes)
                            or (isinstance(n, ast.Attribute) and n.attr in classes)
                            for n in ast.walk(node.args[1]))):
                yield scope, f"{path.name}:{node.lineno} in {scope}"


def test_only_the_problem_init_dispatches_on_the_domain():
    found = [site for scope, site in _isinstance_sites(STATPHASE_DOMAINS)
             if scope != "StationaryPhaseProblem.__init__"]
    assert found == []


def test_statphase_defines_no_record_class():
    # its results are plain values and arrays: the only classes are the
    # domains and the problem they belong to
    classes = {node.name for node in _tree(PACKAGE / "statphase.py").body
               if isinstance(node, ast.ClassDef)}
    assert classes - STATPHASE_DOMAINS - {"StationaryPhaseProblem"} == set()


def test_fits_and_specfun_define_no_class():
    found = [f"{name}:{node.name}" for name in ("fits.py", "specfun.py")
             for node in ast.walk(_tree(PACKAGE / name)) if isinstance(node, ast.ClassDef)]
    assert found == []


def test_nothing_dispatches_on_the_manifold():
    assert [site for _, site in _isinstance_sites(MANIFOLDS)] == []


def test_only_eigensolve_names_the_label_view():
    found = [path.name for path in MODULES
             if path.name != "eigensolve.py" and "IsotypicLabel" in set(_names(_tree(path)))]
    assert found == []


def test_only_geometry_refuses_a_point():
    found = [f"{path.name}:{node.lineno}" for path in MODULES if path.name != "geometry.py"
             for node in ast.walk(_tree(path))
             if isinstance(node, ast.Raise) and "InvalidPointError" in set(_names(node))]
    assert found == []


def test_only_util_builds_gauss_rules():
    # util's Newton rule builds every Gauss rule; numpy's companion
    # eigensolve stays an oracle of the tests and scripts alone
    found = [path.name for path in MODULES if "leggauss" in set(_names(_tree(path)))]
    assert found == []


def test_statphase_has_one_quadrature_size():
    # a size literal: a shift, or a power of two of 1024 or more; the
    # grouping block of 256 scan points is not a quadrature size
    tree = _tree(PACKAGE / "statphase.py")
    block = [n for n in tree.body if isinstance(n, ast.Assign)
             and [getattr(t, "id", None) for t in n.targets] == ["_BLOCK"]]
    assert len(block) == 1
    names = set(_names(tree))
    sizes = [f"statphase.py:{node.lineno}" for node in ast.walk(tree)
             if (isinstance(node, ast.BinOp) and isinstance(node.op, ast.LShift))
             or (isinstance(node, ast.Constant) and type(node.value) is int
                 and node.value >= 1024 and node.value & (node.value - 1) == 0)]
    assert "_CHUNK" not in names
    assert sizes == [f"statphase.py:{block[0].lineno}"]


# a worker pool, or a setting read from the environment, would be a second
# way to run what the flags and config keys already say
POOL_MODULES = ("concurrent.futures", "threading", "multiprocessing")
ENVIRONMENT_READS = {"os.environ", "os.getenv"}


def test_no_worker_pool_and_no_environment_reads():
    found = []
    for path in MODULES:
        tree = _tree(path)
        found += [f"{path.name}: imports {name}" for name in _imported(tree)
                  if name in ENVIRONMENT_READS
                  or any(name == m or name.startswith(m + ".") for m in POOL_MODULES)]
        found += [f"{path.name}:{node.lineno} reads {node.value.id}.{node.attr}"
                  for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                  and f"{node.value.id}.{node.attr}" in ENVIRONMENT_READS]
    assert found == []


def test_no_parameter_names_a_tolerance():
    found = [f"{command.name} {param.flag}" for command in lab.COMMANDS.values()
             for param in command.params if "tol" in param.key]
    assert found == []


def test_checks_have_one_home():
    found = [f"{path.name}: {name}" for path in MODULES for name in set(_names(_tree(path)))
             if name in ("verdict_from", "tolerances")]
    assert found == []


def _unused_imports(path):
    """Names path imports and never reads; __future__ imports and lines
    marked ``# noqa: F401`` (re-exports) are exempt."""
    lines = path.read_text().splitlines()
    tree = _tree(path)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if (not isinstance(node, (ast.Import, ast.ImportFrom))
                or getattr(node, "module", None) == "__future__"
                or "# noqa: F401" in lines[node.lineno - 1]):
            continue
        for alias in node.names:
            bound = alias.asname or alias.name.partition(".")[0]
            if bound not in read:
                yield f"{path.parent.name}/{path.name}:{node.lineno} {bound}"


def test_no_unused_imports():
    paths = [*MODULES, *ROOT.glob("scripts/*.py"), *ROOT.glob("tests/*.py")]
    assert [hit for path in paths for hit in _unused_imports(path)] == []


def test_no_module_calls_np_vectorize():
    found = [f"{path.name}:{node.lineno}" for path in MODULES for node in ast.walk(_tree(path))
             if isinstance(node, ast.Attribute) and node.attr == "vectorize"]
    assert found == []
