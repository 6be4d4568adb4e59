"""Static guards on the package source.

The package makes no BLAS call.  The joint power is an ascending sum over
each cluster's member sectors, so the outputs do not depend on which BLAS
kernel the CPU selects.  A matrix product anywhere in ``src/compbss`` would
bring that dependence back.

The package holds no unreferenced code: every top-level function and class
is read by some name or attribute of ``src/compbss`` outside its own
definition, bar the entry points below.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "compbss"
PRODUCTS = {"matmul", "dot", "vdot", "inner", "einsum", "tensordot"}
# Top-level names that only callers outside the package read: the paper's
# selection and its exhaustive check, and the functions that bench/spans.py
# traces by name.
ENTRY_POINTS = {"heuristic_select", "exhaustive_oracle", "schedule", "evaluate_pattern",
                "build_gain_matrix", "link_geometry"}
_DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _products(tree):
    for node in ast.walk(tree):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            yield node.lineno, "@"
        elif isinstance(node, ast.Attribute) and node.attr in PRODUCTS:
            yield node.lineno, node.attr
        elif isinstance(node, ast.Name) and node.id in PRODUCTS:
            yield node.lineno, node.id
        elif isinstance(node, ast.alias) and node.name in PRODUCTS:
            yield getattr(node, "lineno", 0), node.name


def test_no_matrix_product_in_the_package():
    files = sorted(SRC.glob("*.py"))
    assert files
    found = [f"{path.name}:{line} {name}" for path in files
             for line, name in _products(ast.parse(path.read_text(), filename=str(path)))]
    assert found == []


def test_the_scan_sees_each_form():
    code = ("import numpy as np\nfrom numpy import einsum\n"
            "a @ b\na @= b\nnp.matmul(a, b)\na.dot(b)\nnp.tensordot(a, b)\n")
    assert sorted(name for _, name in _products(ast.parse(code))) == [
        "@", "@", "dot", "einsum", "matmul", "tensordot"]


def _unreferenced(sources):
    """Top-level functions and classes of the modules in ``sources`` (file
    name -> code) that no name or attribute of them reads outside the
    definition itself.  An import or a string (``__all__``) is no read."""
    trees = [ast.parse(code, filename=name) for name, code in sources.items()]
    defined = {node.name for tree in trees for node in tree.body
               if isinstance(node, _DEFINITIONS)}
    read = set()
    for top in (node for tree in trees for node in tree.body):
        names = {node.id if isinstance(node, ast.Name) else node.attr
                 for node in ast.walk(top) if isinstance(node, (ast.Name, ast.Attribute))}
        if isinstance(top, _DEFINITIONS):
            names.discard(top.name)     # a definition's reads of itself do not count
        read |= names
    return sorted(defined - read)


def test_no_unreferenced_code_in_the_package():
    sources = {path.name: path.read_text() for path in sorted(SRC.glob("*.py"))}
    assert _unreferenced(sources) == sorted(ENTRY_POINTS)


def test_the_reference_scan_sees_each_form():
    sources = {
        "a.py": ("__all__ = ['alone', 'only_listed']\n"
                 "def alone():\n    return alone()\n"
                 "def only_listed():\n    pass\n"
                 "def only_imported():\n    pass\n"
                 "def by_attribute():\n    pass\n"
                 "class ByName:\n    pass\n"
                 "def reader():\n    return ByName\n"),
        "b.py": ("from a import only_imported\nimport a\n"
                 "x = a.by_attribute\ny = reader()\n"),
    }
    assert _unreferenced(sources) == ["alone", "only_imported", "only_listed"]
