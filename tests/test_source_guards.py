"""The package makes no BLAS call.

The joint power is an ascending sum over each cluster's member sectors, so
the outputs do not depend on which BLAS kernel the CPU selects.  A matrix
product anywhere in ``src/compbss`` would bring that dependence back.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "compbss"
PRODUCTS = {"matmul", "dot", "vdot", "inner", "einsum", "tensordot"}


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
