"""Source hygiene: no module of the package imports a name it never uses, and
the elimination kernel, the simplex solve and glue planes, the probe's
point arithmetic, the germ kernel and the box predicates divide no values
and build no Fraction."""

import ast
from pathlib import Path

import pytest

import saet

MODULES = sorted(p for p in Path(saet.__file__).parent.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """Names bound by module-level imports that no Name node of the module
    reads.  ``from __future__`` imports bind nothing."""
    tree = ast.parse(source)
    imported = set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(imported - used)


def test_unused_imports_checker():
    src = ("from __future__ import annotations\n"
           "import os\nimport sys\nfrom a import b, c as d\nsys.exit(d)\n")
    assert unused_imports(src) == ["b", "os"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_has_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def divisions_and_fractions(source: str, name: str) -> list[str]:
    """True divisions (``/``, ``/=``) and ``Fraction(...)`` calls inside the
    module-level function ``name``, or the method ``Class.method``, as
    "line: what"."""
    func = ast.parse(source)
    for part in name.split("."):
        func = next(n for n in func.body if isinstance(n, (ast.FunctionDef, ast.ClassDef))
                    and n.name == part)
    found = []
    for node in ast.walk(func):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div):
            found.append(f"{node.lineno}: /")
        elif isinstance(node, ast.Call):
            callee = node.func
            callee = callee.attr if isinstance(callee, ast.Attribute) else getattr(callee, "id", "")
            if callee == "Fraction":
                found.append(f"{node.lineno}: Fraction(")
    return found


def test_division_checker():
    src = ("def f(a, b):\n    a /= b\n    return a // b + fractions.Fraction(a, b)\n"
           "def g(a, b):\n    return a / b\n")
    assert divisions_and_fractions(src, "f") == ["2: /", "3: Fraction("]
    assert divisions_and_fractions(src, "g") == ["5: /"]
    src = "class C:\n    def m(self, a):\n        return a / 2\n"
    assert divisions_and_fractions(src, "C.m") == ["3: /"]


@pytest.mark.parametrize("module, name", [("rationals", "pivot"), ("rationals", "_rref"),
                                          ("lp", "_simplex")])
def test_elimination_kernel_is_fraction_free(module, name):
    path = Path(saet.__file__).parent / f"{module}.py"
    assert divisions_and_fractions(path.read_text(encoding="utf-8"), name) == []


def interval_uses(source: str, name: str, method: str | None = None) -> list[str]:
    """Reads of ``Interval``, ``interval_sqrt`` or ``sqrt_enclosure`` and
    ``Fraction(...)`` calls inside the module-level class ``name``, or only
    inside its method ``method``, as "line: what"."""
    tree = ast.parse(source)
    scope = next(n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == name)
    if method is not None:
        scope = next(n for n in scope.body if isinstance(n, ast.FunctionDef) and n.name == method)
    found = []
    for node in ast.walk(scope):
        what = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
        if what in ("Interval", "interval_sqrt", "sqrt_enclosure"):
            found.append(f"{node.lineno}: {what}")
        elif isinstance(node, ast.Call) and "Fraction" in (getattr(node.func, "id", None),
                                                            getattr(node.func, "attr", None)):
            found.append(f"{node.lineno}: Fraction(")
    return sorted(found, key=lambda entry: int(entry.split(":")[0]))


def test_interval_checker():
    src = ("class C:\n    def f(self, q):\n        return intervals.sqrt_enclosure(q) * q\n"
           "    def g(self):\n        return Interval(Fraction(1))\n"
           "    def h(self, q):\n        return interval_sqrt(q)\n")
    assert interval_uses(src, "C") == ["3: sqrt_enclosure", "5: Interval", "5: Fraction(",
                                       "7: interval_sqrt"]
    assert interval_uses(src, "C", "f") == ["3: sqrt_enclosure"]
    assert interval_uses(src, "C", "g") == ["5: Interval", "5: Fraction("]
    assert interval_uses(src, "C", "h") == ["7: interval_sqrt"]


def test_clearance_kernel_is_integer():
    # the apex-ball clearances enclose their sums over the integers
    path = Path(saet.__file__).parent / "metric.py"
    assert interval_uses(path.read_text(encoding="utf-8"), "_Clearance") == []


def test_collar_domination_is_exact():
    # a collar's facet domination is decided on rationals, not through an
    # enclosure of a square root
    path = Path(saet.__file__).parent / "carve.py"
    assert interval_uses(path.read_text(encoding="utf-8"), "_ConeCompatibility") == []


@pytest.mark.parametrize("method", ["meets", "_box_data", "certainly_outside_outer",
                                    "certainly_inside_outer_open", "_point_status", "map_box",
                                    "_tube_scale"])
def test_deformation_level_kernel_is_integer(method):
    # each level of the deformation maps decides its reach, outside and
    # inside tests and formulas on integer numerators
    path = Path(saet.__file__).parent / "carve.py"
    assert interval_uses(path.read_text(encoding="utf-8"), "CarveUnit", method) == []


@pytest.mark.parametrize("name", ["_shell_point", "_distance_table", "_dist_sq", "_checkpoints"])
def test_probe_kernel_divides_no_values(name):
    # a probe forms its samples, its squared distances and its segment
    # checkpoints as integer points, with no division and no Fraction
    path = Path(saet.__file__).parent / "probe.py"
    assert divisions_and_fractions(path.read_text(encoding="utf-8"), name) == []


@pytest.mark.parametrize("name", ["_compose", "_germ", "_poly_mul", "_poly_trim", "_order"])
def test_germ_kernel_divides_no_values(name):
    # a germ value is composed, reduced and multiplied on integer
    # coefficients; Fractions are built only by pair() and _lead
    path = Path(saet.__file__).parent / "germs.py"
    assert divisions_and_fractions(path.read_text(encoding="utf-8"), name) == []


@pytest.mark.parametrize("name", ["barycentric_table", "_shared_face_plane",
                                  "_hull_normal_plane", "_centroid", "_plane_row"])
def test_simplex_solve_and_glue_planes_divide_no_values(name):
    # a simplex's forms come from one fraction-free solve, and the glue
    # planes of common_face are built on integer points
    path = Path(saet.__file__).parent / "geometry.py"
    assert divisions_and_fractions(path.read_text(encoding="utf-8"), name) == []


@pytest.mark.parametrize("module, name", [
    ("intervals", "BoxNumerators.of_points"), ("intervals", "BoxNumerators.hull"),
    ("intervals", "BoxNumerators.separating_axis"), ("complexes", "_BucketGrid.key"),
    ("complexes", "_BucketGrid.candidates"), ("complexes", "_meeting_box_pairs")])
def test_box_predicates_divide_no_values(module, name):
    # the box of points, the box of boxes, the box-meets-box test, the
    # bucket of a point and the glue check's sweep read integers only;
    # _bucket_counts, which only chooses the counts, is exempt
    path = Path(saet.__file__).parent / f"{module}.py"
    assert divisions_and_fractions(path.read_text(encoding="utf-8"), name) == []


def module_caches(source: str) -> list[str]:
    """Module-level names bound to a dict, set or list display (or
    comprehension), and every read of ``cache`` or ``lru_cache``, as
    "line: what"."""
    tree = ast.parse(source)
    displays = (ast.Dict, ast.Set, ast.List, ast.DictComp, ast.SetComp, ast.ListComp)
    found = []
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)) and isinstance(node.value, displays):
            found.append(f"{node.lineno}: {type(node.value).__name__}")
    for node in ast.walk(tree):
        what = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
        if what in ("cache", "lru_cache"):
            found.append(f"{node.lineno}: {what}")
    return found


def test_module_cache_checker():
    src = ("import functools\nA = {}\nB: set = {1}\nC = [x for x in ()]\nD = (1,)\n"
           "@functools.lru_cache\ndef f():\n    local = {}\n    return local\n"
           "@cache\ndef g():\n    pass\n")
    assert module_caches(src) == ["2: Dict", "3: Set", "4: ListComp", "6: lru_cache",
                                  "10: cache"]


@pytest.mark.parametrize("module", ["io", "extend"])
def test_function_load_keeps_no_module_cache(module):
    # equal forms are shared within one load only: no table outlives it
    path = Path(saet.__file__).parent / f"{module}.py"
    assert module_caches(path.read_text(encoding="utf-8")) == []


def unreferenced_private_definitions(sources: dict[str, str]) -> list[str]:
    """Private (``_``-prefixed, not dunder) functions, classes and methods,
    at any depth of any of the modules ``sources`` (name: text), whose name
    no Name or Attribute node of any of them reads, as "module:line: name"."""
    trees = {name: ast.parse(text) for name, text in sources.items()}
    read = {getattr(n, "id", None) or getattr(n, "attr", None)
            for tree in trees.values() for n in ast.walk(tree)
            if isinstance(n, (ast.Name, ast.Attribute))}
    return [f"{name}:{n.lineno}: {n.name}" for name, tree in trees.items() for n in ast.walk(tree)
            if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and n.name.startswith("_") and not n.name.endswith("__") and n.name not in read]


def test_private_definition_checker():
    a = ("def _used():\n    pass\ndef _dead():\n    pass\nclass _C:\n"
         "    def _m(self):\n        pass\n    def __init__(self):\n        pass\n")
    b = "from a import _used\nx = _C()._m\n_used()\n"
    assert unreferenced_private_definitions({"a": a, "b": b}) == ["a:3: _dead"]
    assert unreferenced_private_definitions({"a": a}) == ["a:1: _used", "a:3: _dead", "a:5: _C",
                                                          "a:6: _m"]


def test_every_private_definition_is_referenced():
    # a helper that nothing in the package names is dead code
    sources = {p.name: p.read_text(encoding="utf-8")
               for p in Path(saet.__file__).parent.glob("*.py")}
    assert unreferenced_private_definitions(sources) == []
