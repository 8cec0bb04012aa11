"""Count the polynomial products pncalc forms.

Every product is one ``(weight, a, b)`` entry with ``b`` given in a call
of the product kernel ``polyalg._sum_of_products``; ``*`` is such a call
with one entry. The kernel reads an entry with a factor that is the
constant 1 as the other factor alone, so such an entry is no product.
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
            if b is not None and a != 1 and b != 1:
                record(a, b)
        return kernel(variables, terms)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "pncalc" and getattr(module, "_sum_of_products", None) is kernel:
            monkeypatch.setattr(module, "_sum_of_products", fused)
