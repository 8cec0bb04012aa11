"""Count the polynomial products pncalc forms, by ``*`` or by the fused kernel.

A product is formed either by ``Polynomial.__mul__`` or as one ``(sign, a, b)``
entry with ``b`` given in a call of ``polyalg._sum_of_products``. A spy that
watches only ``__mul__`` would miss the second kind.
"""

import sys

from pncalc import polyalg
from pncalc.polyalg import Polynomial


def spy_products(monkeypatch, record):
    """Call ``record(a, b)`` for every product formed while the patch holds.

    The kernel is replaced in every pncalc module that holds it by name.
    """
    multiply = Polynomial.__mul__

    def mul(self, other):
        record(self, other)
        return multiply(self, other)

    monkeypatch.setattr(Polynomial, "__mul__", mul)
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
