"""Source hygiene: every module-level import in the package is used,
every top-level ``def`` and ``class`` and every method but a dunder is
read somewhere, and by program code (``src/``, ``bench/``) but where
``TEST_ONLY_ALLOWED`` says, every defaulted parameter is set by some
program call but where ``PARAM_ALLOWED`` says, the package
reads no environment variable, scipy is loaded
and ``solve_ivp`` named only where ``SCIPY_ALLOWED`` and
``SOLVE_IVP_ALLOWED`` say, every ``HamiltonianSpec`` the package
builds passes ``point_gradient``, the integrator sums nothing by
BLAS, every CSV goes through ``cli.write_csv`` (no ``savetxt``), the
package squares by product, never by ``** 2``, it sums floats with
``phase_core.row_sum``, not the builtin ``sum``, but where
``SUM_ALLOWED`` says, the sweep's per-stage path (``PER_STAGE``)
calls no Python-level numpy wrapper, and every ``tetralab`` command the
README shows is one the CLI's parser accepts.

Stdlib ``ast`` checks, so they need no linter.  An import statement with
``# noqa: F401`` on one of its lines is exempt (re-exports, and names
kept for callers that patch them).  Behaviour is chosen by arguments and
config files, not by the environment, so a new variable needs a reason
to join ``ENV_ALLOWED``.  Every trajectory comes from
``dynamics.integrate`` or the ensemble sweep, and a module-level scipy
import is paid by every ``import tetralab``, so a module joins the scipy
lists only with a reason; a fresh ``import tetralab.cli`` loads no scipy
module at all.
"""

import ast
import contextlib
import functools
import io
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from tetralab import cli

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "tetralab"
TESTS = ROOT / "tests"
SOURCES = sorted(p for d in ("src", "tests", "bench")
                 for p in (ROOT / d).rglob("*.py"))
ENV_ALLOWED = set()
ENV_NAMES = {"environ", "environb", "getenv", "getenvb"}
SCIPY_ALLOWED = set()
SOLVE_IVP_ALLOWED = set()


def unused_imports(source):
    """Names bound by top-level imports that the module never reads."""
    tree = ast.parse(source)
    lines = source.splitlines()
    bound = {}
    for node in tree.body:
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        span = lines[node.lineno - 1:node.end_lineno]
        if any("noqa: F401" in line for line in span):
            continue
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            bound[name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted((line, name) for name, line in bound.items()
                  if name not in used)


def test_checker_flags_unused_and_honours_noqa():
    src = ("import math\nimport os\n"
           "from json import (dumps,  # noqa: F401\n    loads)\n"
           "from typing import Optional\n"
           "x: Optional[int] = os.sep\n")
    assert unused_imports(src) == [(1, "math")]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")),
                         ids=lambda p: p.name)
def test_module_imports_are_used(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def read_names(tree, skip=None):
    """Every name read in ``tree`` (a bare name or an attribute), outside
    the subtree ``skip``.  Import statements bind names; they read none."""
    names, stack = set(), [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        stack.extend(ast.iter_child_nodes(node))
    return names


def unreferenced_defs(source, elsewhere):
    """``(line, name)`` of each top-level ``def`` or ``class`` of
    ``source``, and of each ``def`` in a top-level class body but a
    dunder, read neither in ``elsewhere`` nor in ``source`` outside its
    own definition."""
    tree = ast.parse(source)
    funcs = (ast.FunctionDef, ast.AsyncFunctionDef)
    nodes = [node for node in tree.body
             if isinstance(node, funcs + (ast.ClassDef,))]
    nodes += [node for cls in tree.body if isinstance(cls, ast.ClassDef)
              for node in cls.body if isinstance(node, funcs)
              and not (node.name.startswith("__")
                       and node.name.endswith("__"))]
    return sorted((node.lineno, node.name) for node in nodes
                  if node.name not in elsewhere
                  and node.name not in read_names(tree, skip=node))


@functools.lru_cache(maxsize=None)
def _names_in(path):
    return frozenset(read_names(ast.parse(path.read_text(encoding="utf-8"))))


def test_def_checker_flags_unreferenced():
    src = ("def helper():\n    return 1\n"
           "def api():\n    return helper()\n"
           "def recursive(n):\n    return recursive(n - 1)\n"
           "class Model:\n    pass\n"
           "def dead():\n    pass\n"
           "class Base:\n"
           "    def __init__(self):\n        self.used()\n"
           "    def used(self):\n        pass\n"
           "    def dead_method(self):\n        pass\n"
           "class Child(Base):\n"
           "    def dead_method(self):\n        pass\n")
    other = ("from mod import dead, recursive\nimport mod\n"
             "mod.api(mod.Model, mod.Child())\n")
    elsewhere = read_names(ast.parse(other))
    assert unreferenced_defs(src, elsewhere) == [
        (5, "recursive"), (9, "dead"), (16, "dead_method"),
        (19, "dead_method")]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")),
                         ids=lambda p: p.name)
def test_module_defs_are_referenced(path):
    elsewhere = set().union(*(_names_in(p) for p in SOURCES if p != path))
    assert unreferenced_defs(path.read_text(encoding="utf-8"),
                             elsewhere) == []


# (module, name) of each def or method that only tests read, and why a
# program without a reader keeps it
TEST_ONLY_ALLOWED = {
    ("contact.py", "embed"):
        "the symplectization embedding, which the tetragon maps must equal",
    ("contact.py", "regions"):
        "the four regions by name, for tests parametrized over them",
    ("pb4.py", "discrete_bracket"):
        "the per-triangle bracket array, which ROADMAP item 10's LP rows "
        "will read",
    ("pb4.py", "prototype_hamiltonian_pair"):
        "smooth prototype fields for criterion 8's mean-value check",
    ("pb4.py", "max_slope"):
        "the wall witness's analytic slope, checked by criterion 6",
    ("phase_core.py", "volume_factor"):
        "the deformed-volume identity, checked by criterion 8",
}


def defs_read_only_by_tests(source, program, tests):
    """``(line, name)`` of each def ``unreferenced_defs`` finds in
    ``source`` when only the names ``program`` reads count, that the
    names ``tests`` reads include: surface only tests keep alive."""
    return [(line, name) for line, name in unreferenced_defs(source, program)
            if name in tests]


def test_test_only_checker_flags_defs_only_tests_read():
    src = ("def api():\n    return helper()\n"
           "def helper():\n    pass\n"
           "def probe():\n    pass\n"
           "def dead():\n    pass\n"
           "class Model:\n"
           "    def used(self):\n        pass\n"
           "    def peek(self):\n        pass\n")
    program = read_names(ast.parse("import mod\nmod.api(mod.Model().used)\n"))
    tests = read_names(ast.parse("from mod import probe, api\n"
                                 "probe(api(), mod.Model().peek())\n"))
    assert defs_read_only_by_tests(src, program, tests) == [
        (5, "probe"), (12, "peek")]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")),
                         ids=lambda p: p.name)
def test_test_only_defs_are_allowed(path):
    """A def only tests read is program surface no program uses: it
    joins ``TEST_ONLY_ALLOWED`` with a reason, or goes.  The table names
    exactly the module's test-only defs, so an entry whose def got a
    program reader, or went, goes too."""
    program = set().union(*(_names_in(p) for p in SOURCES
                            if p != path and not p.is_relative_to(TESTS)))
    tests = set().union(*(_names_in(p) for p in SOURCES
                          if p.is_relative_to(TESTS)))
    found = defs_read_only_by_tests(path.read_text(encoding="utf-8"),
                                    program, tests)
    assert {name for _, name in found} == {
        name for module, name in TEST_ONLY_ALLOWED if module == path.name}


def defaulted_params(source):
    """``(line, def, parameter, index)`` of each parameter with a default
    of each top-level ``def`` and of each method but a dunder of a
    top-level class; ``index`` is the parameter's position in a call
    (a method's first parameter, its instance, not counted unless it is
    a ``staticmethod``), None for a keyword-only one."""
    tree = ast.parse(source)
    funcs = (ast.FunctionDef, ast.AsyncFunctionDef)
    defs = [(node, 0) for node in tree.body if isinstance(node, funcs)]
    defs += [(node, 0 if "staticmethod" in map(ast.unparse,
                                               node.decorator_list) else 1)
             for cls in tree.body if isinstance(cls, ast.ClassDef)
             for node in cls.body if isinstance(node, funcs)
             and not (node.name.startswith("__")
                      and node.name.endswith("__"))]
    found = []
    for node, bound in defs:
        args = node.args
        positional = args.posonlyargs + args.args
        first = len(positional) - len(args.defaults)
        found += [(node.lineno, node.name, arg.arg, i - bound)
                  for i, arg in enumerate(positional) if i >= first]
        found += [(node.lineno, node.name, arg.arg, None)
                  for arg, default in zip(args.kwonlyargs, args.kw_defaults)
                  if default is not None]
    return found


def calls_by_name(trees):
    """Every call in ``trees`` by the name it calls (a bare name or an
    attribute)."""
    calls = {}
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", getattr(node.func, "attr",
                                                        None))
                calls.setdefault(name, []).append(node)
    return calls


def sets_param(call, name, index):
    """Whether ``call`` passes the parameter ``name`` at position
    ``index``: by keyword, by position, or maybe, through ``*args`` or
    ``**kwargs``."""
    return (any(isinstance(arg, ast.Starred) for arg in call.args)
            or any(k.arg in (None, name) for k in call.keywords)
            or index is not None and index < len(call.args))


def unset_params(source, calls):
    """``(line, def, parameter)`` of each defaulted parameter of
    ``source`` that no call in ``calls`` (``calls_by_name``) sets."""
    return [(line, fn, name) for line, fn, name, index
            in defaulted_params(source)
            if not any(sets_param(call, name, index)
                       for call in calls.get(fn, ()))]


def test_param_checker_flags_defaults_no_call_sets():
    src = ("def api(x, scale=1.0, *, name=''):\n    pass\n"
           "def helper(a, b=0, c=1):\n    pass\n"
           "def spread(a=0, b=1):\n    pass\n"
           "class Model:\n"
           "    def __init__(self, k=1):\n        pass\n"
           "    def run(self, n=1, tol=0.1):\n        pass\n"
           "    @staticmethod\n"
           "    def make(n=1):\n        pass\n")
    program = ("api(1)\napi(2, name='x')\nhelper(1, 2)\n"
               "spread(*args)\nModel().run(5)\nModel.make(3)\n"
               "mod.helper(0, **options)\n")
    calls = calls_by_name([ast.parse(program)])
    assert unset_params(src, calls) == [(1, "api", "scale"),
                                        (10, "run", "tol")]
    calls = calls_by_name([ast.parse("helper(1, c=2)\napi(1, 2.0)\n")])
    assert unset_params(src, calls) == [
        (1, "api", "name"), (3, "helper", "b"), (5, "spread", "a"),
        (5, "spread", "b"), (10, "run", "n"), (10, "run", "tol"),
        (13, "make", "n")]


# (module, def, parameter) of each defaulted parameter only tests set,
# and why a program without a caller that sets it keeps it
PARAM_ALLOWED = {
    ("pb4.py", "estimate_pb4_plus", "warm_start"):
        "a projected warm start for the estimate, which ROADMAP item 4 "
        "gives a program use",
    ("pb4.py", "wall_witness", "delta1"):
        "criterion 6's witness is stated in both ramp heights, delta1 and "
        "delta2",
}


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")),
                         ids=lambda p: p.name)
def test_defaulted_params_are_set_by_the_program(path):
    """A defaulted parameter that no ``src/`` or ``bench/`` call sets is
    an option only tests choose: it joins ``PARAM_ALLOWED`` with a
    reason, or goes.  The defs ``TEST_ONLY_ALLOWED`` names, which only
    tests call, are exempt, and the table names exactly the module's
    unset parameters."""
    calls = calls_by_name(ast.parse(p.read_text(encoding="utf-8"))
                          for p in SOURCES if not p.is_relative_to(TESTS))
    unset = unset_params(path.read_text(encoding="utf-8"), calls)
    assert {(path.name, fn, name) for _, fn, name in unset
            if (path.name, fn) not in TEST_ONLY_ALLOWED} == {
        entry for entry in PARAM_ALLOWED if entry[0] == path.name}


def env_reads(source):
    """``(line, name)`` for every use of ``environ`` or ``getenv``.  The
    name is the variable read, or None unless a string literal is looked
    up by ``getenv``, ``environ.get`` or ``environ[...]``."""
    tree = ast.parse(source)
    parent = {child: node for node in ast.walk(tree)
              for child in ast.iter_child_nodes(node)}
    reads = []
    for node in ast.walk(tree):
        name = getattr(node, "attr", getattr(node, "id", None))
        if name not in ENV_NAMES:
            continue
        up = parent.get(node)
        key = None
        if isinstance(up, ast.Subscript) and up.value is node:
            key = up.slice
        elif name.startswith("getenv"):
            if isinstance(up, ast.Call) and up.func is node and up.args:
                key = up.args[0]
        elif (isinstance(up, ast.Attribute) and up.attr == "get"
              and isinstance(parent.get(up), ast.Call) and parent[up].args):
            key = parent[up].args[0]
        literal = isinstance(key, ast.Constant) and isinstance(key.value, str)
        reads.append((node.lineno, key.value if literal else None))
    return sorted(reads, key=lambda read: read[0])


def test_env_checker_flags_every_read():
    src = ("import os\nfrom os import environ, getenv\n"
           "a = os.environ.get('TETRALAB_OUT', '.')\n"
           "b = os.getenv('TETRALAB_THREADS')\n"
           "c = environ['HOME']\n"
           "d = dict(os.environ)\n"
           "e = getenv(a)\n")
    assert env_reads(src) == [(3, "TETRALAB_OUT"), (4, "TETRALAB_THREADS"),
                              (5, "HOME"), (6, None), (7, None)]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")),
                         ids=lambda p: p.name)
def test_module_reads_only_allowed_env(path):
    reads = env_reads(path.read_text(encoding="utf-8"))
    assert [r for r in reads if r[1] not in ENV_ALLOWED] == []


def module_scipy_imports(source):
    """Lines of the top-level statements that import scipy."""
    lines = []
    for node in ast.parse(source).body:
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            modules = [node.module or ""]
        else:
            continue
        if any(m.split(".")[0] == "scipy" for m in modules):
            lines.append(node.lineno)
    return lines


def solve_ivp_lines(source):
    """Lines that name ``solve_ivp``: imports, bare names, attributes."""
    return sorted({
        node.lineno for node in ast.walk(ast.parse(source))
        if "solve_ivp" in (getattr(node, "id", None),
                           getattr(node, "attr", None))
        or isinstance(node, ast.alias)
        and node.name.split(".")[-1] == "solve_ivp"
    })


def test_scipy_checker_flags_imports_and_solve_ivp():
    src = ("import numpy\nimport scipy.linalg\n"
           "from scipy.integrate import solve_ivp as ivp\n"
           "def f():\n    from scipy import optimize\n"
           "    return scipy.integrate.solve_ivp, optimize\n")
    assert module_scipy_imports(src) == [2, 3]
    assert solve_ivp_lines(src) == [3, 6]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")),
                         ids=lambda p: p.name)
def test_module_uses_scipy_only_where_allowed(path):
    source = path.read_text(encoding="utf-8")
    if path.name not in SCIPY_ALLOWED:
        assert module_scipy_imports(source) == []
    if path.name not in SOLVE_IVP_ALLOWED:
        assert solve_ivp_lines(source) == []


def test_importing_the_cli_loads_no_scipy():
    code = ("import sys, tetralab.cli; print(sorted(m for m in sys.modules "
            "if m.split('.')[0] == 'scipy'))")
    path = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                         os.environ.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", code], cwd=ROOT,
                         env={**os.environ, "PYTHONPATH": path},
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def specs_without_point_gradient(source):
    """Lines of the ``HamiltonianSpec(...)`` calls that pass no
    ``point_gradient=`` keyword."""
    return sorted(
        node.lineno for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call)
        and "HamiltonianSpec" in (getattr(node.func, "id", None),
                                  getattr(node.func, "attr", None))
        and "point_gradient" not in (k.arg for k in node.keywords))


def test_spec_checker_flags_a_missing_point_gradient():
    src = ("a = HamiltonianSpec(chart=c, value=v, gradient=g,\n"
           "                    point_gradient=p)\n"
           "b = HamiltonianSpec(chart=c, value=v, gradient=g)\n"
           "c = phase_core.HamiltonianSpec(c, v, g)\n")
    assert specs_without_point_gradient(src) == [3, 4]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")),
                         ids=lambda p: p.name)
def test_package_specs_pass_point_gradient(path):
    """One-point right-hand sides run on Python floats only for specs
    with ``point_gradient``; a spec without it silently takes the slower
    array path."""
    source = path.read_text(encoding="utf-8")
    assert specs_without_point_gradient(source) == []


def blas_sums(source):
    """Lines that sum in an order of their own: ``np.dot``, ``@`` and
    ``np.linalg.norm`` without ``axis=``.  BLAS does not add terms in
    index order, and a 1-D ``norm`` is a BLAS dot."""
    lines = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(
                node.op, ast.MatMult):
            lines.add(node.lineno)
        if not isinstance(node, ast.Call):
            continue
        name = ast.unparse(node.func)
        if name in ("np.dot", "numpy.dot") or (
                name in ("np.linalg.norm", "numpy.linalg.norm")
                and "axis" not in (k.arg for k in node.keywords)):
            lines.add(node.lineno)
    return sorted(lines)


def test_blas_checker_flags_dot_matmul_and_norm_without_axis():
    src = ("import numpy as np\n"
           "a = np.dot(x, y)\n"
           "b = x @ y\n"
           "c = np.linalg.norm(x)\n"
           "d = np.linalg.norm(x, axis=-1)\n"
           "x @= y\n"
           "e = x.dot\n")
    assert blas_sums(src) == [2, 3, 4, 6]


def test_integrator_sums_in_index_order():
    """The one-point stepper rounds as the sweep's rows do only while
    both add stages in stage order (``_stage_sum``, ``_point_sum``) and
    a row's norm in numpy's order (``_point_norm`` by ``row_sum``)."""
    source = (PACKAGE / "dynamics.py").read_text(encoding="utf-8")
    assert blas_sums(source) == []


def savetxt_calls(source):
    """Lines that call ``savetxt``, as a bare name or an attribute."""
    return sorted(
        node.lineno for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call)
        and "savetxt" in (getattr(node.func, "id", None),
                          getattr(node.func, "attr", None)))


def test_savetxt_checker_flags_calls():
    src = ("import numpy as np\nfrom numpy import savetxt\n"
           "np.savetxt(fh, rows)\n"
           "savetxt(fh, rows, fmt='%.17g')\n"
           "write = np.savetxt\n")
    assert savetxt_calls(src) == [3, 4]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")),
                         ids=lambda p: p.name)
def test_package_writes_csv_only_through_write_csv(path):
    """``cli.write_csv`` writes ``np.savetxt``'s bytes at a fraction of
    its time on the fields' repeated values; a second writer would have
    to keep those bytes too."""
    assert savetxt_calls(path.read_text(encoding="utf-8")) == []


def squares_by_pow(source):
    """Lines that square by ``** 2``.  Python's float ``x ** 2`` calls
    ``pow`` and rounds unlike ``x * x`` on some x, while numpy's array
    ``** 2`` is ``x * x``: a point and the same point in a stack could
    then differ in the last bit."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.BinOp):
            exponent = node.right
        elif isinstance(node, ast.AugAssign):
            exponent = node.value
        else:
            continue
        if (isinstance(node.op, ast.Pow) and isinstance(exponent, ast.Constant)
                and exponent.value == 2):
            lines.append(node.lineno)
    return sorted(lines)


def test_square_checker_flags_pow_two():
    src = ("a = x ** 2\n"
           "b = (x - y) ** 2.0\n"
           "c = x * x + x ** 0.5 + x ** 3\n"
           "x **= 2\n"
           "d = 2 ** x\n")
    assert squares_by_pow(src) == [1, 2, 4]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")),
                         ids=lambda p: p.name)
def test_package_squares_by_product(path):
    """A value the batch contract ties to its rows is squared as ``x *
    x`` on floats and on arrays alike (the rule of ``profiles.py``)."""
    assert squares_by_pow(path.read_text(encoding="utf-8")) == []


# (module, function) that may call the builtin sum, and why
SUM_ALLOWED = {
    # the loop's arclength total, which mirrors no numpy row
    ("contact.py", "RoundedRectangleLoop.point_and_velocity"),
}


SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def scoped_nodes(source):
    """``(node, scope)`` of every node of ``source``'s syntax tree, the
    scope the names of the defs and classes around it, outermost first
    (a def's own name included for its arguments and body)."""
    out = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            out.append((child, scope))
            visit(child, scope + (child.name,) if isinstance(child, SCOPES)
                  else scope)

    visit(ast.parse(source), ())
    return out


def builtin_sums(source):
    """``(line, function)`` of each read of the builtin name ``sum``, the
    function as the dotted path of the defs and classes around it ("" at
    module level).  The builtin adds in index order (and on Python 3.12+
    compensates), while numpy adds a row of 8 or more pairwise: a float
    twin that sums with it parts from its row's last bit."""
    return sorted((node.lineno, ".".join(scope))
                  for node, scope in scoped_nodes(source)
                  if isinstance(node, ast.Name) and node.id == "sum")


def test_sum_checker_flags_builtin_sum():
    src = ("a = sum(x)\n"
           "class Loop:\n"
           "    def total(self):\n"
           "        return sum(v * v for v in self.x)\n"
           "def f(rows):\n"
           "    return list(map(sum, rows)), np.sum(rows), rows.sum()\n"
           "b = math.fsum(x) + row_sum(x)\n")
    assert builtin_sums(src) == [(1, ""), (4, "Loop.total"), (6, "f")]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")),
                         ids=lambda p: p.name)
def test_package_sums_by_row_sum(path):
    """A float twin that sums adds as its numpy row does only through
    ``phase_core.row_sum``, so the package calls the builtin ``sum``
    only where ``SUM_ALLOWED`` names a reason."""
    sums = builtin_sums(path.read_text(encoding="utf-8"))
    assert [(line, fn) for line, fn in sums
            if (path.name, fn) not in SUM_ALLOWED] == []


# (module, function) of each def on the sweep's per-stage path: one
# lockstep trial calls each of them, or a Hamiltonian's batched gradient
# or its helpers, once or more per stage
PER_STAGE = {
    ("dynamics.py", "_trial"), ("dynamics.py", "_stage_sum"),
    ("dynamics.py", "_next_step"), ("dynamics.py", "_step_factor"),
    ("dynamics.py", "ensemble_sweep"),
    ("phase_core.py", "sgrad"), ("phase_core.py", "HamiltonianSpec._evaluate"),
    ("scenarios.py", "_sq"), ("scenarios.py", "add_hamiltonians"),
    ("scenarios.py", "unstable_hamiltonian.gradient"),
    ("scenarios.py", "channel_potential.gradient"),
    ("scenarios.py", "mechanical_hamiltonian.gradient"),
    ("scenarios.py", "wall_perturbation.gradient"),
    ("scenarios.py", "wall_perturbation.terms"),
    ("scenarios.py", "wall_perturbation.reaches"),
    ("scenarios.py", "wall_perturbation.stack_bumps"),
    ("pb4.py", "WallWitness._gradient"), ("pb4.py", "WallWitness.slope"),
    ("profiles.py", "PlateauStack.values_and_slopes"),
}
# numpy functions that run Python code of their own on every call (a
# wrapper or an array-function dispatcher), and the ndarray methods that
# do: each has a C-level form (``x.shape``, ``x.reshape``, a ufunc's
# ``reduce``, ``m.nonzero()[0]``, ``np.empty`` with ``out=``)
WRAPPERS = {f"{mod}.{name}" for mod in ("np", "numpy") for name in (
    "shape", "reshape", "concatenate", "empty_like", "linalg.norm",
    "flatnonzero", "where")}
WRAPPER_METHODS = {"min", "max", "sum", "all", "any"}


def wrapper_calls(source, functions):
    """``(line, function, call)`` of each call of a ``WRAPPERS`` function
    or of any attribute named as a ``WRAPPER_METHODS`` method (``np.sum``
    too) inside a def whose dotted path (the defs and classes around it)
    is in ``functions``, nested defs and lambdas included; and ``(0,
    name, "missing")`` for each name of ``functions`` that the source
    does not define."""
    found, defined = [], set()
    for node, scope in scoped_nodes(source):
        if isinstance(node, SCOPES):
            defined.add(".".join(scope + (node.name,)))
        owner = next((".".join(scope[:i]) for i in range(1, len(scope) + 1)
                      if ".".join(scope[:i]) in functions), None)
        if owner and isinstance(node, ast.Call):
            call = ast.unparse(node.func)
            if call in WRAPPERS or (isinstance(node.func, ast.Attribute)
                                    and node.func.attr in WRAPPER_METHODS):
                found.append((node.lineno, owner, call))
    return sorted(found) + [(0, name, "missing")
                            for name in sorted(set(functions) - defined)]


def test_wrapper_checker_flags_python_level_numpy_calls():
    src = ("import numpy as np\n"
           "def hot(x, m):\n"
           "    a = np.shape(x), x.shape, np.minimum.reduce(x), min(1, 2)\n"
           "    b = np.linalg.norm(x, axis=-1) + x.min() + np.sum(x)\n"
           "    def inner(y):\n"
           "        return np.where(y, 1, 0), m.nonzero()[0]\n"
           "    return lambda: x.any()\n"
           "def cold(x):\n"
           "    return np.shape(x), x.sum()\n"
           "class Spec:\n"
           "    def hot(self, x):\n"
           "        return x.reshape(-1), np.reshape(x, -1)\n")
    assert wrapper_calls(src, {"hot", "Spec.hot", "gone"}) == [
        (3, "hot", "np.shape"), (4, "hot", "np.linalg.norm"),
        (4, "hot", "np.sum"), (4, "hot", "x.min"),
        (6, "hot", "np.where"), (7, "hot", "x.any"),
        (12, "Spec.hot", "np.reshape"), (0, "gone", "missing")]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")),
                         ids=lambda p: p.name)
def test_per_stage_path_makes_no_python_level_numpy_call(path):
    """A lockstep trial of the sweep makes only C-level numpy calls: a
    Python-level wrapper costs its frame on every stage of every trial
    (about half of a trial's Python frames before they went)."""
    functions = {fn for module, fn in PER_STAGE if module == path.name}
    assert wrapper_calls(path.read_text(encoding="utf-8"),
                         functions) == []


def readme_commands(text):
    """The arguments after ``tetralab`` of each line of ``text``'s fenced
    ``sh`` blocks that runs it, comments dropped."""
    return [shlex.split(line, comments=True)[1:]
            for block in re.findall(r"^```sh\n(.*?)^```", text, re.M | re.S)
            for line in block.splitlines() if line.startswith("tetralab ")]


def refused_commands(commands):
    """The commands ``cli.build_parser()`` refuses: an unknown group or
    action, or a ``validate config --command`` outside its choices."""
    refused = []
    for argv in commands:
        try:
            with contextlib.redirect_stderr(io.StringIO()):
                cli.build_parser().parse_args(argv)
        except SystemExit:
            refused.append(" ".join(argv))
    return refused


def test_readme_checker_flags_a_stale_command():
    text = ("```sh\ntetralab scenario run s.json --out o  # a run\n"
            "tetralab chord find c.json\n"
            "tetralab validate config c.json --command chord\n```\n"
            "```\ntetralab unknown outside an sh block\n```\n")
    assert refused_commands(readme_commands(text)) == [
        "chord find c.json", "validate config c.json --command chord"]


def test_readme_commands_parse():
    """The README shows only commands the CLI has, so a command that
    goes takes its example with it."""
    commands = readme_commands((ROOT / "README.md").read_text(
        encoding="utf-8"))
    assert len(commands) >= 4
    assert refused_commands(commands) == []
