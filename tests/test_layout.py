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

``algebroid_sum`` adds the entries of its two halves as they are, so
``algebroid_pencil``, which multiplied every entry of the second half by a
weight that the sum always set to 1, is not defined again, nor is
``polyalg.Rational``, the alias of ``Fraction`` that only the pencil read.
A test that needs a scaled half builds it.

Every public definition in ``src/pncalc`` has a caller outside ``tests/``
(see :func:`test_every_public_definition_has_a_caller_outside_the_tests`),
so a definition only the tests reach lives in ``tests/oracles.py``.

The tests draw their polynomials in one place as well: ``tests/strategies.py``
draws integer numerators over a sampled denominator, so no other test module
draws ``st.fractions`` or builds a ``Polynomial`` in a ``.map`` or
``st.builds`` lambda, the nested draws that once took most of Tier-1.
"""

import ast
from collections import defaultdict
from functools import cache
from pathlib import Path

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "pncalc"
RETIRED = {
    "_PACK_MAX_WIDTH", "_accumulate", "_add_products", "_add_scaled", "_factor", "_times", "is_one",
    "algebroid_pencil", "Rational",
}


@cache
def _tree(path):
    """The parsed module at ``path``, parsed once per session."""
    return ast.parse(path.read_text(encoding="utf-8"))


def _names(node):
    return {getattr(node, field, None) for field in ("name", "id", "attr")}


def test_only_polyalg_reads_numerators_and_no_retired_product_loop():
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(_tree(path)):
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


CALLERS = (TESTS.parent / "demos", TESTS.parent / "perfbench")
# Public definitions that only the tests reach, each with the reason it stays.
TEST_ONLY = {
    "poisson_nijenhuis.magri_morosi": "perfbench/tracer.py wraps it by a string name; "
    "it moves to tests/oracles.py once ROADMAP item 1a retires that metric",
    "linalg.nullspace": "perfbench/tracer.py wraps it by a string name; "
    "it moves to tests/oracles.py once ROADMAP item 1a retires that metric",
    "groupoid_desk.AffineSubmanifold.tangent_basis": "a basis of the submanifold that "
    "the gate of ROADMAP item 16 names",
    "groupoid_desk.AffineSubmanifold.conormal_basis": "a basis of the submanifold that "
    "the gate of ROADMAP item 16 names",
}


def _definitions(module, tree):
    """(qualified name, node, is a method) for each public top-level function
    or class of ``module`` and each public method of its classes."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield f"{module}.{node.name}", node, False
            for sub in node.body if isinstance(node, ast.ClassDef) else ():
                if isinstance(sub, ast.FunctionDef) and not sub.name.startswith("_"):
                    yield f"{module}.{node.name}.{sub.name}", sub, True


def _module_names(tree):
    """Local name -> pncalc module for each module that ``tree`` imports."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module == "pncalc" or node.level and not node.module):
            names.update({a.asname or a.name: a.name for a in node.names})
        elif isinstance(node, ast.Import):
            for a in node.names:
                if a.name.startswith("pncalc.") and a.asname:
                    names[a.asname] = a.name.split(".")[1]
    return names


def _references(tree):
    """In one file: each (module, name) imported from a pncalc module or read
    as an attribute of one, and the lines where each attribute and each bare
    name is read."""
    modules = _module_names(tree)
    imported, attrs, names = set(), defaultdict(set), defaultdict(set)
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module:
            if node.module.startswith("pncalc.") or node.level:
                imported.update((node.module.split(".")[-1], a.name) for a in node.names)
        elif isinstance(node, ast.Attribute):
            attrs[node.attr].add(node.lineno)
            if isinstance(node.value, ast.Name) and node.value.id in modules:
                imported.add((modules[node.value.id], node.attr))
        elif isinstance(node, ast.Name):
            names[node.id].add(node.lineno)
    return imported, attrs, names


def test_every_public_definition_has_a_caller_outside_the_tests():
    """A top-level function or class is used when a file outside ``tests/``
    imports it from its module or reads it as an attribute of its module, or
    when its own module names it outside its definition. A method is used
    when a file outside ``tests/`` reads an attribute of its name outside its
    definition, so the check is lenient wherever a name is common (``zero``,
    ``dim``)."""
    sources = {path: _tree(path) for path in sorted(SRC.glob("*.py"))}
    others = [path for root in CALLERS for path in sorted(root.glob("*.py"))]
    trees = {**sources, **{path: _tree(path) for path in others}}
    imported, attrs, names = set(), {}, {}
    for path, tree in trees.items():
        found, attrs[path], names[path] = _references(tree)
        imported |= found
    unused = set()
    for path, tree in sources.items():
        for name, node, method in _definitions(path.stem, tree):
            own = range(node.lineno, node.end_lineno + 1)
            if method:
                used = any(
                    read[node.name] if other != path else read[node.name] - set(own)
                    for other, read in attrs.items()
                )
            else:
                used = (path.stem, node.name) in imported or bool(names[path][node.name] - set(own))
            if not used:
                unused.add(name)
    assert sorted(unused) == sorted(TEST_ONLY)
    assert others
