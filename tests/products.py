"""Count the polynomial products pncalc forms.

Every product is one ``(sign, a, b)`` entry with ``b`` given in a call of
the product kernel ``polyalg._sum_of_products``; ``*`` is such a call with
one entry.
"""

import sys

from pncalc import polyalg


def spy_products(monkeypatch, record):
    """Call ``record(a, b)`` for every product formed while the patch holds.

    The kernel is replaced in every pncalc module that holds it by name.
    """
    kernel = polyalg._sum_of_products

    def fused(variables, terms):
        terms = list(terms)
        for _, a, b in terms:
            if b is not None:
                record(a, b)
        return kernel(variables, terms)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "pncalc" and getattr(module, "_sum_of_products", None) is kernel:
            monkeypatch.setattr(module, "_sum_of_products", fused)
