"""Source layout: each production module computes a quantity by one route, and
the second routes (the oracles) and the check helpers live in `verify`, which
production never imports; the table subcommands load no scipy (spectrum's
eigensolve calls LAPACK in the OpenBLAS numpy bundles), all but spectrum load
no mpmath, and the mu/nu quadrature `geometry.mu_nu_numeric` loads no
scipy."""

import ast
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
           "symbol_delta0_power", "symbol_delta0_general",
           "extrema_report", "series_check", "box_newton_oracle",
           "realization_symbol", "realization_product", "realization_agrees"}


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
    # ast.walk reaches the methods, so NCOneForm.mul_gen would show here too
    for name in ("exactalg.py", "timeops.py", "effective.py", "waveops.py"):
        assert not ORACLES & _defined(trees[name]), name
    assert ORACLES <= _defined(trees["verify.py"])


def test_exact_oracles_use_no_production_arithmetic(monkeypatch):
    # the symbol oracles read an element only through coeffs(): with the
    # element and one-form arithmetic refused they still reduce every word
    from ncgrav import verify as V
    from ncgrav.exactalg import DT, THETA, NCElement, NCOneForm, dx

    def refuse(*_args):
        raise AssertionError("an exact oracle used production arithmetic")

    psis = V.monomials()[::40]
    for cls, names in ((NCElement, ("__mul__", "_combine", "_times",
                                    "shift_t", "partial_x")),
                       (NCOneForm, ("__add__", "mul_elem", "lmul"))):
        for name in names:
            monkeypatch.setattr(cls, name, refuse)
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


TABLES = [["figure1"], ["dispersion"], ["dispersion", "--m", "0.5"],
          ["mu-nu", "--n", "3"], ["mu-nu", "--gamma", "1e-3"],
          ["dark-energy"], ["spectrum", "--x", "1e-8", "--n-states", "3"]]
NO_SCIPY = """
import json, os, sys
from ncgrav import cli
out, tables = sys.argv[1], json.loads(sys.argv[2])
rows = []
for i, argv in enumerate(tables):
    code = cli.main(argv + ["--output", os.path.join(out, "%d.csv" % i)])
    loaded = {m.split(".")[0] for m in sys.modules} & {"scipy", "mpmath"}
    rows.append([code, sorted(loaded)])
print(json.dumps(rows))
"""


def test_table_subcommands_load_no_scipy(tmp_path):
    # one fresh interpreter for all seven tables, in order: scipy loads
    # only with the verify registry (and spectrum's fallback where numpy
    # bundles no OpenBLAS), and mpmath only with spectrum's 30-digit
    # effective masses below x = 1e-4
    proc = subprocess.run(
        [sys.executable, "-c", NO_SCIPY, str(tmp_path), json.dumps(TABLES)],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": str(SRC.parent)})
    assert proc.returncode == 0, proc.stderr
    rows = json.loads(proc.stdout.splitlines()[-1])
    assert rows == [[0, []]] * (len(TABLES) - 1) + [[0, ["mpmath"]]]
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


def test_figure1_columns_make_no_per_point_scalar_call(monkeypatch):
    # both bands of the figure-1 table are whole-array code: neither the
    # scalar m_G nor mpmath runs once per point
    import mpmath

    from ncgrav import effective as E

    def refuse(*_args):
        raise AssertionError("figure1 called a scalar route per point")
    monkeypatch.setattr(E, "_mg_ratio", refuse)
    monkeypatch.setattr(mpmath, "workdps", refuse)
    for x_max, n in ((10.0, 20000), (0.9 * E.SMALL_X, 2000)):
        assert E.figure1_data(x_max, n).shape == (n, 4)
