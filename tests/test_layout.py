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
and ``Polynomial.is_one``. The kernel's one size rule, the ratio of
``_packs``, holds in a ring of any width, so ``_PACK_MAX_WIDTH``, the cap
that once kept every ring of more than 3 variables on the tuple path, is not
named again.

The tests draw their polynomials in one place as well: ``tests/strategies.py``
draws integer numerators over a sampled denominator, so no other test module
draws ``st.fractions`` or builds a ``Polynomial`` in a ``.map`` or
``st.builds`` lambda, the nested draws that once took most of Tier-1.
"""

import ast
from pathlib import Path

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "pncalc"
RETIRED = {
    "_PACK_MAX_WIDTH", "_accumulate", "_add_products", "_add_scaled", "_factor", "_times", "is_one"
}


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


def _calls_polynomial(node):
    """Whether ``node`` calls ``Polynomial(...)`` or ``Polynomial.<name>(...)``."""
    calls = (sub.func for sub in ast.walk(node) if isinstance(sub, ast.Call))
    return any(getattr(getattr(f, "value", f), "id", None) == "Polynomial" for f in calls)


def test_only_the_strategies_module_draws_fractions_or_maps_to_polynomials():
    found = []
    for path in sorted(set(TESTS.glob("*.py")) - {TESTS / "strategies.py"}):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute) and _names(node.value) & {"st"}:
                if node.attr == "fractions":
                    found.append(f"{path.name}:{node.lineno} draws st.fractions")
            if isinstance(node, ast.Call) and getattr(node.func, "attr", None) in ("map", "builds"):
                lambdas = [arg for arg in node.args if isinstance(arg, ast.Lambda)]
                if any(_calls_polynomial(arg.body) for arg in lambdas):
                    found.append(f"{path.name}:{node.lineno} builds a Polynomial in a lambda")
    assert found == []
    assert (TESTS / "strategies.py").exists()
