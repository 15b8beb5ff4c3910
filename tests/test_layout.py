"""Source layout: each production module computes a quantity by one route, and
the second routes (the oracles) and the check helpers live in `verify`, which
production never imports; every public member of a production module other
than `verify` is referenced from `src/`, and every public method name that
several classes define is listed; importing the CLI loads only the
layers the tables render, the table subcommands load no scipy (spectrum's
eigensolve calls LAPACK in the OpenBLAS numpy bundles), no time operators
and no json, all but spectrum load no mpmath, scipy is imported only in
spectrum's eigensolve fallback, every import made inside a function, every
parameter with a default of the public API, every refusal the CLI makes
itself and every handler of an arithmetic exception is listed here, the
exact layer loads no numpy, the mu/nu quadrature `geometry.mu_nu_numeric`
loads no scipy, spectrum starts no thread, and where numpy bundles its
OpenBLAS, spectrum resolves exactly the two LAPACK routines it calls,
dstebz and dlaebz.  The benchmark's tracer targets that no longer resolve are listed
too."""

import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import ncgrav

SRC = Path(ncgrav.__file__).parent
ORACLES = {"normal_order", "_push_rules", "mul_gen", "_check_tag",
           "TwoFormError", "_monomial_word", "exterior_d_leibniz",
           "_generator", "_add_form", "form_symbol",
           "symbol_d0", "symbol_delta0_const", "symbol_delta0_hybrid",
           "symbol_delta0_power", "symbol_delta0_general",
           "extrema_report", "series_check", "box_newton_oracle",
           "realization_symbol", "realization_product", "realization_agrees"}
# the code that only the registry's checks call
CHECK_HELPERS = {"StaticMetric", "SignatureError", "INTERIOR_MARGIN",
                 "weak_field_check", "fd1", "fd2", "laplacian_flat_radial",
                 "classical_limit_check", "LIMIT_T_SAMPLES", "mG_over_mI",
                 "lam_valuation", "exp_orbital", "virial_check",
                 "ReductionScales", "_stage_two", "reduction_residual"}


def _imports_verify(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            names = [base] + ["%s.%s" % (base, a.name) for a in node.names]
        else:
            continue
        if any("verify" in name.split(".") for name in names):
            return True
    return False


def _defined(tree):
    """Names of every function, class and module-level assignment."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            out.add(node.name)
    for node in tree.body:
        if isinstance(node, ast.Assign):
            out.update(t.id for t in node.targets if isinstance(t, ast.Name))
    return out


def test_oracles_live_only_in_verify():
    trees = {p.name: ast.parse(p.read_text(), filename=str(p))
             for p in sorted(SRC.glob("*.py"))}
    assert [name for name, tree in trees.items()
            if _imports_verify(tree)] == ["cli.py"]
    # ast.walk reaches the methods, so NCOneForm.mul_gen or
    # Coeff.lam_valuation would show here too
    for name, tree in trees.items():
        if name != "verify.py":
            assert not (ORACLES | CHECK_HELPERS) & _defined(tree), name
    assert ORACLES | CHECK_HELPERS <= _defined(trees["verify.py"])


def _public_members(tree):
    """(qualified name, name) of each public function, class and module
    constant of the module, and of each public method of its public
    classes."""
    out = []
    for node in tree.body:
        if isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        else:
            continue
        out += [(name, name) for name in names if not name.startswith("_")]
        if isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            out += [("%s.%s" % (node.name, sub.name), sub.name)
                    for sub in node.body if isinstance(sub, ast.FunctionDef)
                    and not sub.name.startswith("_")]
    return out


def _module_aliases(tree):
    """{name bound in the module: file name} of each module it imports."""
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                path = a.name.split(".")
                out[a.asname or path[0]] = (path[-1] if a.asname
                                            else path[0]) + ".py"
        elif isinstance(node, ast.ImportFrom) and not node.module:
            out.update((a.asname or a.name, a.name + ".py")
                       for a in node.names)
    return out


def _references(tree):
    """Every reference the module makes, except inside a definition of that
    same name (a method that calls its namesake on another class, or a
    function that calls itself, does not reference it): "name" for a name
    it reads or imports, "file:name" for an attribute of an imported module
    (`T.d0` in a module that imports timeops as T is "timeops.py:d0"), and
    ".name" for any other attribute."""
    modules = _module_aliases(tree)
    out = set()

    def visit(node, inside):
        for child in ast.iter_child_nodes(node):
            ref = None
            if isinstance(child, ast.Name):
                ref = name = child.id
            elif isinstance(child, ast.Attribute):
                name, value = child.attr, child.value
                if isinstance(value, ast.Name) and value.id in modules:
                    ref = "%s:%s" % (modules[value.id], name)
                else:
                    ref = "." + name
            if ref is not None and name not in inside:
                out.add(ref)
            if isinstance(child, ast.ImportFrom):
                out.update(a.name for a in child.names)
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                visit(child, inside | {child.name})
            else:
                visit(child, inside)
    visit(tree, frozenset())
    return out


def _unreferenced(trees):
    """"module:member" for each public member of a module other than
    verify.py that no module of trees references: a module-level member by
    its name or as an attribute of its own module, a method as an attribute
    of anything but a module."""
    found = set().union(*map(_references, trees.values()))
    return ["%s:%s" % (name, qual) for name, tree in trees.items()
            if name != "verify.py"
            for qual, member in _public_members(tree)
            if not ({"." + member} if "." in qual else
                    {member, "%s:%s" % (name, member)}) & found]


UNUSED = """
import math
UNUSED_LIMIT = 3
def unused_entry():
    return unused_helper() + math.floor(0.5)
def unused_helper(limit=UNUSED_LIMIT):
    return limit
def unused_recursion(n):
    return unused_recursion(n - 1) if n else 0
class UnusedThing:
    def unused_method(self):
        return self.other.unused_method()
    def unused_helper(self):
        pass
    def floor(self):
        pass
    def _private(self):
        pass
"""


def test_public_members_have_a_caller_in_src():
    # a public member that only the tests reach belongs in a test helper,
    # and one that only the registry's checks reach belongs in verify
    trees = {p.name: ast.parse(p.read_text(), filename=str(p))
             for p in sorted(SRC.glob("*.py"))}
    assert _unreferenced(trees) == []
    # the check fires: nothing references the entry point or the class, the
    # recursion and the method reference only themselves, and a call of the
    # module function unused_helper or of math.floor is no call of the
    # methods of the same names
    trees["unused.py"] = ast.parse(UNUSED)
    assert _unreferenced(trees) == [
        "unused.py:unused_entry", "unused.py:unused_recursion",
        "unused.py:UnusedThing", "unused.py:UnusedThing.unused_method",
        "unused.py:UnusedThing.unused_helper", "unused.py:UnusedThing.floor"]


# every public method name that more than one class in src/ defines, with
# the classes that define it: the caller rule counts any attribute of that
# name as a call of each, so a new shared name needs its line here.  A caller
# in src/ of each (no caller in src/ is marked "tests"):
#   deriv     RadialProfile: ode_residuals; TimeFunction: TimeFunction.stencil
#   evaluate  TimeFunction: verify.classical_limit_check; GridField:
#             field_max_diff
#   monomial  NCElement: NCElement.one; TimeFunction: the registry check
#             timeops.classical-limit-orders
#   one       Coeff: tests and perfbench/test_perfbench.py; NCElement:
#             commutator_d
#   scale     TimeFunction: SeparableField.scale; SeparableField:
#             kg_residual; GridField: box_general
#   stencil   TimeFunction: timeops.d0; GridField: timeops.delta0_general
#   to_text   NCElement: NCOneForm.to_text; NCOneForm: NCOneForm.__repr__
#   zero      NCElement: NCOneForm.coeff; TimeFunction: verify.random_tf
SHARED_METHODS = {
    "deriv": ["geometry.py:RadialProfile", "timeops.py:TimeFunction"],
    "evaluate": ["timeops.py:TimeFunction", "waveops.py:GridField"],
    "monomial": ["exactalg.py:NCElement", "timeops.py:TimeFunction"],
    "one": ["coeff.py:Coeff", "exactalg.py:NCElement"],
    "scale": ["timeops.py:TimeFunction", "waveops.py:SeparableField",
              "waveops.py:GridField"],
    "stencil": ["timeops.py:TimeFunction", "waveops.py:GridField"],
    "to_text": ["exactalg.py:NCElement", "exactalg.py:NCOneForm"],
    "zero": ["exactalg.py:NCElement", "timeops.py:TimeFunction"],
}


def test_shared_method_names_are_listed():
    owners = {}
    for p in sorted(SRC.glob("*.py")):
        for qual, member in _public_members(ast.parse(p.read_text(),
                                                      filename=str(p))):
            if "." in qual:
                owners.setdefault(member, []).append(
                    "%s:%s" % (p.name, qual.split(".")[0]))
    assert {m: q for m, q in owners.items() if len(q) > 1} == SHARED_METHODS


def test_exact_oracles_use_no_production_arithmetic(monkeypatch):
    # the symbol oracles read an element only through coeffs(): with the
    # element and one-form arithmetic refused they still reduce every word
    from ncgrav import exactalg
    from ncgrav import verify as V
    from ncgrav.exactalg import DT, THETA, NCElement, NCOneForm, dx

    def refuse(*_args):
        raise AssertionError("an exact oracle used production arithmetic")

    psis = V.monomials()[::40]
    for owner, names in ((NCElement, ("__mul__", "_combine", "_times")),
                         (NCOneForm, ("__add__", "mul_elem", "lmul")),
                         (exactalg, ("_one_pass", "_s_plus_pass"))):
        for name in names:
            monkeypatch.setattr(owner, name, refuse)
    words = [["t", ("x", 1), ("x", 2)], [DT, "t", ("x", 1), "t"],
             [("x", 2), THETA, "t"], ["t", ("x", 1), dx(1), ("x", 1)]]
    for word in words:
        assert V.normal_order(3, word)
    assert V.mul_gen(V.normal_order(3, [DT, ("x", 3)]), "t", 3)
    for psi in psis:
        assert V.exterior_d_leibniz(V.realization_symbol(psi), 3) \
            or psi == NCElement.one(3)


def _uses_brentq(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) \
                and any(a.name == "brentq" for a in node.names):
            return True
        if isinstance(node, ast.Attribute) and node.attr == "brentq":
            return True
    return False


def test_brentq_only_in_verify():
    # production solves the shell with its own lockstep Brent; scipy's
    # brentq is an oracle (in the tests, or in verify)
    users = [p.name for p in sorted(SRC.glob("*.py"))
             if _uses_brentq(ast.parse(p.read_text(), filename=str(p)))]
    assert set(users) <= {"verify.py"}, users


def _imports(tree):
    """(enclosing function or None, top-level package) of every import in
    the module; a relative import names its module with a leading dot
    (".verify" for `from . import verify`)."""
    out = set()

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Import):
                out.update((scope, a.name.split(".")[0]) for a in child.names)
            elif isinstance(child, ast.ImportFrom) and child.level == 0:
                out.add((scope, child.module.split(".")[0]))
            elif isinstance(child, ast.ImportFrom):
                out.update((scope, "." + (child.module or a.name))
                           for a in child.names)
            visit(child, child.name if isinstance(child, ast.FunctionDef)
                  else scope)
    visit(tree, None)
    return out


# every import made inside a function, as (module, function, package): each
# defers a load to the path that needs it, and a new one needs its line here
FUNCTION_IMPORTS = [
    ("cli.py", "_json_text", "json"),
    ("cli.py", "cmd_verify", ".verify"),
    ("effective.py", "_ratios", "mpmath"),
    ("spectrum.py", "_eigh_tridiagonal", "scipy"),
    ("verify.py", "weak_field_check", "warnings"),
]


def test_function_level_imports_are_listed():
    found = sorted((p.name, scope, package)
                   for p in sorted(SRC.glob("*.py"))
                   for scope, package in _imports(
                       ast.parse(p.read_text(), filename=str(p)))
                   if scope is not None)
    assert found == FUNCTION_IMPORTS


# every `_fail` call in cli.py, as (function, message, exit code): the CLI
# refuses only what concerns its flags and files, and each domain rule lives
# in the library function that owns the quantity; a rule added back to the
# CLI needs its line here
CLI_REFUSALS = [
    ("_write_output", "'cannot write %s: %s' % (path, exc)", "2"),
    ("cmd_dispersion", "'need 0 <= omega-min < omega-max and n >= 2'", "2"),
    ("cmd_mu_nu",
     "'pass exactly one of --n (power law) or --gamma (weak field)'", "2"),
    ("_load_config", "'%s:%d: expected key=value' % (path, lineno)", "2"),
    ("_load_config", "'cannot read config: %s' % exc", "2"),
    ("main", "str(exc)", "1"),
    ("main", "str(exc) or type(exc).__name__", "2"),
]


def test_cli_refusals_are_listed():
    path = SRC / "cli.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    found = [(fn.name, *map(ast.unparse, call.args))
             for fn in tree.body if isinstance(fn, ast.FunctionDef)
             for call in ast.walk(fn) if isinstance(call, ast.Call)
             and getattr(call.func, "id", None) == "_fail"]
    assert sorted(found) == sorted(CLI_REFUSALS)


def _arithmetic_handlers(tree, scope=()):
    """The qualified function of each `except` that names an arithmetic
    exception, alone or in a tuple."""
    out = []
    for child in ast.iter_child_nodes(tree):
        if isinstance(child, ast.ExceptHandler) and child.type is not None:
            types = getattr(child.type, "elts", [child.type])
            if {getattr(t, "id", None) for t in types} & ARITHMETIC:
                out.append(".".join(scope))
        named = isinstance(child, (ast.FunctionDef, ast.ClassDef))
        out += _arithmetic_handlers(
            child, scope + (child.name,) if named else scope)
    return out


ARITHMETIC = {"ArithmeticError", "OverflowError", "ZeroDivisionError",
              "FloatingPointError"}
# every `except` of an arithmetic exception in src/, as (module, function):
# a value that leaves the normal float range is refused by
# `effective._normal_scale`, so a new hand-rolled range refusal needs its
# line here
ARITHMETIC_HANDLERS = [
    ("cli.py", "main"),  # a library error is exit 2, not a range rule
    ("dispersion.py", "_Shell._brent"),
    ("dispersion.py", "_term_finite"),
    ("dispersion.py", "k_squared_closed"),  # m = 0 is valid
    ("effective.py", "_normal_scale"),
    ("effective.py", "dark_energy_estimate"),
]


def test_arithmetic_handlers_are_listed():
    found = sorted((p.name, scope) for p in sorted(SRC.glob("*.py"))
                   for scope in _arithmetic_handlers(
                       ast.parse(p.read_text(), filename=str(p))))
    assert found == ARITHMETIC_HANDLERS


def _defaulted(fn):
    """The parameters of fn that have a default, positional then keyword."""
    a = fn.args
    pos = a.posonlyargs + a.args
    return ([p.arg for p in pos[len(pos) - len(a.defaults):]] if a.defaults
            else []) + [p.arg for p, d in zip(a.kwonlyargs, a.kw_defaults)
                        if d is not None]


def _options(tree):
    """(qualified name, parameter) of each parameter with a default of the
    module's public functions, its public classes' public methods and their
    __init__."""
    out = []
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
            out += [(node.name, arg) for arg in _defaulted(node)]
        if isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            out += [("%s.%s" % (node.name, sub.name), arg)
                    for sub in node.body if isinstance(sub, ast.FunctionDef)
                    and (sub.name == "__init__" or not sub.name.startswith("_"))
                    for arg in _defaulted(sub)]
    return out


# every parameter with a default of the public API, as (module, qualified
# name, parameter): each is a knob some caller in src/, tests/ or perfbench/
# sets or relies on, and a new one needs its line here
OPTIONS = [
    ("cli.py", "main", "argv"),
    ("coeff.py", "Coeff.__init__", "terms"),
    ("coeff.py", "Coeff.from_rational", "im"),
    ("effective.py", "effective_params", "units"),
    ("effective.py", "dark_energy_estimate", "c"),
    ("exactalg.py", "NCElement.monomial", "c"),
    ("exactalg.py", "NCOneForm.__init__", "parts"),
    ("geometry.py", "RadialProfile.__init__", "deriv"),
    ("geometry.py", "RadialProfile.__init__", "deriv2"),
    ("geometry.py", "RadialProfile.__init__", "structure"),
    ("geometry.py", "RadialProfile.power_law", "coef"),
    ("geometry.py", "mu_nu_table", "n"),
    ("geometry.py", "mu_nu_table", "gamma"),
    ("geometry.py", "mu_nu_table", "c"),
    ("spectrum.py", "bohr_oracle", "n_max"),
    ("spectrum.py", "solve_radial", "l"),
    ("spectrum.py", "solve_radial", "grid"),
    ("spectrum.py", "solve_radial", "n_states"),
    ("spectrum.py", "solve_radial", "check_grid"),
    ("spectrum.py", "spectrum_table", "l"),
    ("spectrum.py", "spectrum_table", "n_states"),
    ("timeops.py", "stencil_terms", "out"),
    ("timeops.py", "TimeFunction.__init__", "terms"),
    ("timeops.py", "TimeFunction.mode", "c"),
    ("timeops.py", "TimeFunction.stencil", "deriv_taps"),
    ("verify.py", "random_tf", "nterms"),
    ("verify.py", "reduction_residual", "ablate_gamma_psidot"),
    ("verify.py", "run", "level"),
    ("waveops.py", "SeparableField.__init__", "terms"),
    ("waveops.py", "GridField.__init__", "data"),
    ("waveops.py", "box_general", "grid"),
    ("waveops.py", "box_general", "mode"),
]


def test_options_are_listed():
    found = [(p.name, *option) for p in sorted(SRC.glob("*.py"))
             for option in _options(ast.parse(p.read_text(),
                                              filename=str(p)))]
    assert found == OPTIONS


def test_scipy_only_in_the_eigensolve_fallback():
    # every profile and time part is built in the process (closed forms,
    # their sums and scalings, quadratures): geometry and timeops fit no
    # spline and parse no file; the registry finds its extrema by its own
    # golden-section search, and scipy is only the eigensolve's fallback
    found = {p.name: _imports(ast.parse(p.read_text(), filename=str(p)))
             for p in sorted(SRC.glob("*.py"))}
    users = {(name, scope) for name, imports in found.items()
             for scope, package in imports if package == "scipy"}
    assert users <= {("spectrum.py", "_eigh_tridiagonal")}, users
    for name in ("geometry.py", "timeops.py"):
        assert not {package for _, package in found[name]} \
            & {"json", "scipy"}, name


def test_spectrum_imports_no_threading():
    # solve_radial's grid check certifies the grid of half the spacing by
    # Sturm counts on the calling thread
    tree = ast.parse((SRC / "spectrum.py").read_text())
    assert not {package for _, package in _imports(tree)} \
        & {"threading", "concurrent", "multiprocessing"}


TABLES = [["figure1"], ["dispersion"], ["dispersion", "--m", "0.5"],
          ["mu-nu", "--n", "3"], ["mu-nu", "--gamma", "1e-3"],
          ["dark-energy"], ["spectrum", "--x", "1e-8", "--n-states", "3"]]
NO_SCIPY = """
import os, sys
from ncgrav import cli
layers = sorted(m for m in sys.modules if m.startswith("ncgrav."))
out, tables = sys.argv[1], sys.argv[2:]
rows = []
for i, argv in enumerate(tables):
    code = cli.main(argv.split() + ["--output",
                                    os.path.join(out, "%d.csv" % i)])
    loaded = {m.split(".")[0] for m in sys.modules} & {"scipy", "mpmath"}
    rows.append([code, sorted(loaded)])
late = sorted({"ncgrav.timeops", "ncgrav.waveops", "json"} & set(sys.modules))
import json
print(json.dumps([layers, rows, late]))
"""


def test_spectrum_lapack_resolves_every_routine():
    # where numpy bundles its OpenBLAS, a routine that did not resolve would
    # send every eigensolve to scipy and every grid check to the h/2 solve;
    # the eigensolve asks for eigenvalues only, so dstein is not bound
    import numpy as np
    import pytest
    from ncgrav import spectrum

    bundle = Path(np.__file__).parent.with_name("numpy.libs")
    if not list(bundle.glob("libscipy_openblas64_*")):
        pytest.skip("numpy bundles no ILP64 OpenBLAS here")
    routines = spectrum._lapack()
    assert routines is not None
    assert [r.__name__ for r in routines] == ["scipy_dstebz_64_",
                                              "scipy_dlaebz_64_"]


def test_table_subcommands_load_no_scipy(tmp_path):
    # one fresh interpreter for all seven tables, in order: importing the
    # CLI loads only the layers the tables render; scipy loads only with
    # spectrum's fallback where numpy bundles no OpenBLAS, mpmath only with
    # spectrum's 30-digit effective masses below x = 1e-4, and the time
    # operators and json (looked up before the script imports it) not at all
    proc = subprocess.run(
        [sys.executable, "-c", NO_SCIPY, str(tmp_path),
         *map(" ".join, TABLES)],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": str(SRC.parent)})
    assert proc.returncode == 0, proc.stderr
    layers, rows, late = json.loads(proc.stdout.splitlines()[-1])
    assert layers == ["ncgrav.%s" % name for name in (
        "cli", "dispersion", "effective", "geometry", "spectrum")]
    assert rows == [[0, []]] * (len(TABLES) - 1) + [[0, ["mpmath"]]]
    assert late == []
    assert all((tmp_path / ("%d.csv" % i)).stat().st_size
               for i in range(len(TABLES)))


QUADRATURE_NO_SCIPY = """
import json, sys
import numpy as np
from ncgrav import geometry as G
grid = G.default_log_grid(0.5, 10.0, 50)
mu, nu = G.mu_nu_numeric(G.RadialProfile.power_law(3.0), 1.0, -1.0, 0.5, grid)
for r in (grid, np.array([0.3, 0.77, 12.0])):
    for profile in (mu, nu):
        profile(r), profile.deriv(r)
print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] == "scipy")))
"""


def test_mu_nu_quadrature_loads_no_scipy():
    # the integrator is Gauss-Legendre on numpy; no ODE solver, no spline
    proc = subprocess.run(
        [sys.executable, "-c", QUADRATURE_NO_SCIPY],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": str(SRC.parent)})
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == []


EXACT_NO_NUMPY = """
import json, sys
import ncgrav.exactalg, ncgrav.coeff
print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] == "numpy")))
"""


def test_exact_layer_loads_no_numpy():
    # the exact calculus is pure Python: numpy's import alone would take
    # several times its whole setup
    proc = subprocess.run(
        [sys.executable, "-c", EXACT_NO_NUMPY],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": str(SRC.parent)})
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == []


def test_figure1_columns_make_no_per_point_scalar_call(monkeypatch):
    # both bands of the figure-1 table are whole-array code: neither the
    # scalar m_G nor mpmath runs once per point
    import mpmath

    from ncgrav import effective as E

    def refuse(*_args):
        raise AssertionError("figure1 called a scalar route per point")
    monkeypatch.setattr(E, "_ratios", refuse)
    monkeypatch.setattr(mpmath, "workdps", refuse)
    for x_max, n in ((10.0, 20000), (0.9 * E.SMALL_X, 2000)):
        assert E.figure1_data(x_max, n).shape == (n, 4)


# the targets of perfbench/tracer.py that no longer resolve on ncgrav: the
# benchmark skips each and reports its metrics absent.  A change that
# renames or deletes another traced function edits this list
STALE_TRACER_TARGETS = [
    "ncgrav.coeff:Coeff.__mul__", "ncgrav.coeff:Coeff.__rmul__",
    "ncgrav.coeff:Coeff.__add__", "ncgrav.coeff:Coeff.__neg__",
    "ncgrav.coeff:Coeff.__sub__", "ncgrav.coeff:Coeff.div_i_lam",
    "ncgrav.exactalg:NCElement.shift_t", "ncgrav.exactalg:NCElement.partial_x",
    "ncgrav.exactalg:NCElement.d0", "ncgrav.exactalg:NCElement.delta0_const",
    "ncgrav.exactalg:NCOneForm.mul_gen", "ncgrav.exactalg:normal_order",
    "ncgrav.exactalg:exterior_d_leibniz", "ncgrav.exactalg:exterior_d_formula",
    "ncgrav.dispersion:dispersion_point", "ncgrav.dispersion:solve_k",
    "ncgrav.dispersion:group_velocity",
]


def test_stale_tracer_targets_are_listed():
    # read as text, so the benchmark's own code is not imported
    tracer = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    targets, = [ast.literal_eval(node.value)
                for node in ast.parse(tracer.read_text()).body
                if isinstance(node, ast.Assign)
                and [getattr(t, "id", None) for t in node.targets]
                == ["TARGETS"]]
    stale = []
    for _layer, module, attr, _name in targets:
        owner = importlib.import_module(module)
        for part in attr.split("."):
            owner = getattr(owner, part, None)
        if owner is None:
            stale.append("%s:%s" % (module, attr))
    assert stale == STALE_TRACER_TARGETS
