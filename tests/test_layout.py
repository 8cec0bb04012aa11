"""The layout of ``src/pncalc`` keeps one product path.

``polyalg._sum_of_products`` is the one function that multiplies and sums
numerators: ``*`` is a call of it with one entry, every summed product
elsewhere is one of its entries, and the reader and the validating
constructor sum their terms in one call each. So no module but ``polyalg``
reads the numerators or the denominator of a polynomial, and none of the
loops that once formed products or sums beside the kernel,
``_add_products``, ``cartan._accumulate`` and the reader's
``_add_scaled``, is defined or named again. The kernel reads a factor that
is the constant 1 as no factor, so neither are the helpers that once
tested a factor for 1 outside it: ``cartan._factor``, ``cartan._times``
and ``Polynomial.is_one``.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "pncalc"
RETIRED = {"_accumulate", "_add_products", "_add_scaled", "_factor", "_times", "is_one"}


def _names(node):
    return {getattr(node, field, None) for field in ("name", "id", "attr")}


def test_only_polyalg_reads_numerators_and_no_retired_product_loop():
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute) and node.attr in ("_nums", "_den"):
                if path.name != "polyalg.py":
                    found.append(f"{path.name}:{node.lineno} reads .{node.attr}")
            if _names(node) & RETIRED:
                found.append(f"{path.name}:{node.lineno} names {_names(node) & RETIRED}")
    assert found == []
    assert len(list(SRC.glob("*.py"))) > 1
