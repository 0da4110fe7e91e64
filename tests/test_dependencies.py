"""Static checks of the library source: numpy is the only declared
dependency, the alpha complex takes pair and triple geometry from its
batched tables, downstream modules read geometry from the complex and
call no corner formula or pair lookup in a loop, every module-level name
is read somewhere, the measures, the volumes and the
gradient read the arc, corner and triangle tables as columns with no walk
over arcs, corners, triangles or boundary edges, only the gradient's two
scatter kernels add into per-ball rows, the CLI and the diagnostics
reach the pipeline stages only through evaluate, no module solves a
linear system besides the candidate-triple table's radical centres, the
numeric modules round only as numpy's array operations do, and some call
passes every defaulted parameter."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import ballmorph

ALLOWED = set(sys.stdlib_module_names) | {"numpy", "ballmorph"}


def test_library_imports_only_stdlib_and_numpy():
    sources = sorted(Path(ballmorph.__file__).parent.glob("*.py"))
    assert sources
    foreign = []
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            foreign += [(path.name, name) for name in names
                        if name.split(".")[0] not in ALLOWED]
    assert foreign == []


def test_no_module_calls_a_linear_solver():
    # geometry.triple_points is the one radical-centre solve: each triple's
    # centre relative to its first member, by Cramer's rule in the plane of
    # the centres.  The quad orthocentres are read off its radical lines, so
    # no module calls np.linalg.solve, inv or lstsq, or imports them.
    calls = []
    for path in sorted(Path(ballmorph.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute) and node.attr in {"solve", "inv", "lstsq"}:
                calls.append((path.name, node.lineno, node.attr))
            elif isinstance(node, ast.ImportFrom) and (node.module or "").endswith("linalg"):
                calls.append((path.name, node.lineno, node.module))
    assert calls == []


# geometry.pair_table and geometry.triple_points are the one pair and the
# one triple kernel: the build calls each once, outside any loop, and the
# stages downstream read the complex's tables.
KERNELS = {"pair_table", "triple_points"}
LOOPS = (ast.For, ast.While, ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)


def kernel_calls(*names):
    """(module, kernel, whether in a loop) of every kernel call."""
    root = Path(ballmorph.__file__).parent
    calls = []
    for name in names:
        tree = ast.parse((root / name).read_text(encoding="utf-8"))
        looped = {id(node) for loop in ast.walk(tree) if isinstance(loop, LOOPS)
                  for node in ast.walk(loop)}
        for node in ast.walk(tree):
            func = node.func if isinstance(node, ast.Call) else None
            called = getattr(func, "id", getattr(func, "attr", None))
            if called in KERNELS:
                calls.append((name, called, id(node) in looped))
    return sorted(calls)


def test_downstream_modules_read_complex_records():
    assert kernel_calls("gradient.py", "intrinsic.py", "measures.py") == []


def test_complex_takes_pairs_from_its_batched_table():
    # The build computes the pair and triple tables in one pass each; no
    # per-pair or per-triple kernel call is made on the way.
    assert kernel_calls("complexes.py") == [("complexes.py", "pair_table", False),
                                            ("complexes.py", "triple_points", False)]


def test_every_module_level_name_is_read():
    # Each function, class and constant defined at module level in the
    # library is loaded (read as a name or an attribute, or imported)
    # somewhere in the library, the tests or the benchmark, not counting
    # the package's re-exports: a name that nothing reads is dead.
    root = Path(ballmorph.__file__).parent
    here = Path(__file__).resolve().parent
    library = [path for path in sorted(root.glob("*.py")) if path.name != "__init__.py"]
    defined = set()
    for path in library:
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.add((path.name, node.name))
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined |= {(path.name, sub.id) for target in targets
                            for sub in ast.walk(target) if isinstance(sub, ast.Name)}
    loaded = set()
    for path in library + sorted(here.glob("*.py")) + sorted(here.parent.glob("perfbench/*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load):
                loaded.add(getattr(node, "id", getattr(node, "attr", None)))
            elif isinstance(node, ast.alias):
                loaded.update(node.name.split("."))
    assert sorted(item for item in defined if item[1] not in loaded) == []


# Names of the boundary's parts that the measures, the volumes and the
# gradient read as table columns, never one by one.
WALKED = {"arcs", "corners", "triangles", "triangle_table", "boundary_edges"}


def test_measures_and_gradient_walk_no_arcs():
    # The exposed boundary is the complex's arc, corner and triangle tables;
    # sigma_i, sigma_ij, sigma_t, nu_t, the volume's corner segments and the
    # arc endpoints read their columns, so no function in measures.py,
    # intrinsic.py or gradient.py has a while loop, or a for loop or
    # comprehension over arcs, corners, triangles or boundary edges.
    root = Path(ballmorph.__file__).parent
    walkers = []
    for name in ("measures.py", "intrinsic.py", "gradient.py"):
        for top in ast.parse((root / name).read_text(encoding="utf-8")).body:
            for node in ast.walk(top):
                over = ({getattr(sub, "id", getattr(sub, "attr", None))
                         for sub in ast.walk(node.iter)}
                        if isinstance(node, (ast.For, ast.comprehension)) else set())
                if isinstance(node, ast.While) or over & WALKED:
                    walkers.append(f"{name}:{getattr(top, 'name', '<module>')}")
    assert sorted(set(walkers)) == []


def test_gradient_scatters_rows_only_in_its_two_kernels():
    # Every gradient term is coefficient rows fed to _pair_forces or
    # _sigma_ij_forces; no other function adds into per-ball rows, by a
    # subscript update (vec[i] += ...) or by np.add.at.
    tree = ast.parse((Path(ballmorph.__file__).parent / "gradient.py")
                     .read_text(encoding="utf-8"))
    writers = set()
    for top in tree.body:
        for node in ast.walk(top):
            update = isinstance(node, ast.AugAssign) and isinstance(node.target, ast.Subscript)
            add_at = (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                      and node.func.attr == "at" and isinstance(node.func.value, ast.Attribute)
                      and node.func.value.attr == "add")
            if update or add_at:
                writers.add(getattr(top, "name", "<module>"))
    assert writers == {"_pair_forces", "_sigma_ij_forces"}


def test_no_loop_calls_a_corner_formula_or_a_pair_record():
    # The corner formulas run once over the complex's corner table and the
    # pair records are read as table columns, so no loop or comprehension
    # downstream of the build calls a sphtri function or a pair lookup.
    root = Path(ballmorph.__file__).parent
    formulas = {node.name for node in ast.parse((root / "sphtri.py").read_text(encoding="utf-8"))
                .body if isinstance(node, ast.FunctionDef)}
    loops = (ast.For, ast.While, ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
    callers = set()
    for name in ("measures.py", "intrinsic.py", "gradient.py"):
        for top in ast.parse((root / name).read_text(encoding="utf-8")).body:
            for loop in (node for node in ast.walk(top) if isinstance(node, loops)):
                for node in ast.walk(loop):
                    func = getattr(node, "func", None) if isinstance(node, ast.Call) else None
                    called = getattr(func, "id", getattr(func, "attr", None))
                    if called in formulas or called == "pair":
                        callers.add(f"{name}:{getattr(top, 'name', '<module>')}")
    assert sorted(callers) == []


def test_cli_import_leaves_numpy_random_unloaded():
    # Only the Monte Carlo oracles draw samples; start-up should not pay
    # for numpy.random.
    env = dict(os.environ, PYTHONPATH=str(Path(ballmorph.__file__).parents[1]))
    code = "import sys, ballmorph.cli; print('numpy.random' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "False"


def test_cli_ops_leave_numpy_ma_and_random_unloaded(tmp_path):
    # A plain np.unique imports numpy.ma, which costs a process 10-15 ms;
    # no grad, fdcheck or compute op should pay for it or for numpy.random.
    env = dict(os.environ, PYTHONPATH=str(Path(ballmorph.__file__).parents[1]))
    data = str(Path(__file__).parent / "data" / "g08.txt")
    code = ("import contextlib, io, sys\n"
            "from ballmorph.cli import main\n"
            "for argv in (['grad'], ['fdcheck'], ['compute', '--json', sys.argv[2]]):\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        assert main(argv + ['--input', sys.argv[1]]) == 0\n"
            "print(sorted({'numpy.ma', 'numpy.random'} & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-c", code, data, str(tmp_path / "out.json")],
                         env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


# Stages downstream of the build that only the pipeline's Evaluation calls.
PIPELINE_STAGES = {"compute_measures", "intrinsic_volumes", "weighted_gauss",
                   "gauss_gradient"}


def test_cli_and_diagnostics_reach_stages_through_evaluate():
    root = Path(ballmorph.__file__).parent
    calls = []
    for name in ("cli.py", "diagnostics.py"):
        for node in ast.walk(ast.parse((root / name).read_text(encoding="utf-8"))):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            called = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if called in PIPELINE_STAGES:
                calls.append((name, node.lineno, called))
    assert calls == []


# The modules from the pair table to the gradient: their outputs must not
# depend on how the interpreter adds or raises floats.
NUMERIC = ("geometry.py", "complexes.py", "measures.py", "intrinsic.py", "gradient.py",
           "sphtri.py")
COMPREHENSIONS = (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)


def test_numeric_modules_round_as_numpy_does():
    # Python's sum of floats rounds differently from 3.12 on, and ** and
    # the math functions on single floats can round unlike numpy's
    # elementwise operations.  So no code in these modules calls the
    # builtin sum, and no comprehension applies ** or a math function
    # element by element.
    root = Path(ballmorph.__file__).parent
    found = set()
    for name in NUMERIC:
        for top in ast.parse((root / name).read_text(encoding="utf-8")).body:
            where = f"{name}:{getattr(top, 'name', '<module>')}"
            for node in ast.walk(top):
                if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "sum":
                    found.add(where)
            for comp in (node for node in ast.walk(top) if isinstance(node, COMPREHENSIONS)):
                for node in ast.walk(comp):
                    power = isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow)
                    func = node.func if isinstance(node, ast.Call) else None
                    if power or getattr(getattr(func, "value", None), "id", None) == "math":
                        found.add(where)
    assert sorted(found) == []


def test_every_defaulted_parameter_is_passed():
    # A parameter with a default that no call sets is a constant in
    # disguise.  Each defaulted parameter of a library function must be
    # passed by some call in the library, the tests or the benchmark, by
    # keyword or by position; a class's __init__ is called by the class
    # name, and a method's positions do not count self.
    root = Path(ballmorph.__file__).parent
    here = Path(__file__).resolve().parent
    knobs = set()
    for path in sorted(root.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        scopes = [(None, tree)] + [(c.name, c) for c in tree.body if isinstance(c, ast.ClassDef)]
        for cls, scope in scopes:
            for func in (f for f in scope.body if isinstance(f, ast.FunctionDef)):
                name = cls if func.name == "__init__" else func.name
                args = func.args.posonlyargs + func.args.args
                first = len(args) - len(func.args.defaults)
                knobs |= {(name, arg.arg, pos - (cls is not None))
                          for pos, arg in enumerate(args) if pos >= first}
                knobs |= {(name, arg.arg, None) for arg, default in
                          zip(func.args.kwonlyargs, func.args.kw_defaults) if default}
    passed = set()
    for path in (sorted(root.glob("*.py")) + sorted(here.glob("*.py"))
                 + sorted(here.parent.glob("perfbench/*.py"))):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", getattr(node.func, "attr", None))
                passed |= {(name, kw.arg) for kw in node.keywords}
                passed |= {(name, pos) for pos in range(len(node.args))}
    assert sorted(f"{name}({arg})" for name, arg, pos in knobs
                  if (name, arg) not in passed and (name, pos) not in passed) == []
