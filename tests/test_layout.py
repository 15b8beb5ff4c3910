"""Source layout: each production module computes a quantity by one route, and
the second routes (the oracles) live in `verify`, which production never
imports."""

import ast
from pathlib import Path

import ncgrav

SRC = Path(ncgrav.__file__).parent
ORACLES = {"normal_order", "_push_rules", "mul_gen", "_check_tag",
           "TwoFormError", "_monomial_word", "exterior_d_leibniz",
           "symbol_delta0_power", "symbol_delta0_general"}


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
    for name in ("exactalg.py", "timeops.py"):
        assert not ORACLES & _defined(trees[name]), name
    assert ORACLES <= _defined(trees["verify.py"])


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
