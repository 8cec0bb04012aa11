"""The one home of the tests' polynomial draws, in the shape pncalc stores.

pncalc keeps a polynomial as nonzero ``int`` numerators over one positive
denominator. :func:`polynomials` draws that shape: one ``st.integers`` draw
picks the denominator from a small set and the number of terms, and one per
term codes its exponents and numerator. The gcd is divided out here with
``math.gcd``, so a draw runs no code under test (``polyalg._reduced``
included) and builds no ``Fraction``; the oracles build those.
``tests/test_layout.py`` keeps ``st.fractions`` and polynomial-building
lambdas out of the other test modules. The draws must keep these shapes:

- wide fractions, numerators up to 10**6 over denominators up to 60 (``KERNEL``);
- mixed denominators within one kernel call, each operand over its own;
- exact cancellation, an entry and its negation among it, and zero operands;
- the constant 1 as ``a``, as ``b`` and as both (``fused_calls`` in ``test_polyalg``);
- dense operands that reach the packed path (``dense=True``);
- rings of 0-6 variables, and the 16-variable ``gradient`` ring, where a
  term names at most three variables (``slots``);
- the ``PAIR`` embeds and merges, projections with no ``y`` exponent (``degree``
  per variable), and tied affine images for ``substitute`` (``slots=1, degree=1``).
"""

from itertools import product
from math import gcd, prod

from hypothesis import strategies as st

from pncalc.polyalg import Polynomial

DENOMINATORS = (1, 2, 3, 4, 6)
# small numerators, which cancel, beside wide ones, over denominators to 60
KERNEL = {"numerators": (6, 10**6), "denominators": (1, 2, 3, 4, 6, 35, 60)}


def _exponents(width, degree, slots):
    """The number of exponent codes and the decoder of one code: a digit per
    variable, 0..degree, or with ``slots`` a digit per slot, naming no
    variable (0) or one variable with an exponent 1..degree."""
    if slots:
        radices = [width * degree + 1] * slots
    else:
        radices = [d + 1 for d in (degree if isinstance(degree, tuple) else (degree,) * width)]

    def decode(code):
        exps = [0] * width
        for i, r in enumerate(radices):
            code, digit = divmod(code, r)
            if not slots:
                exps[i] = digit
            elif digit:
                exps[(digit - 1) // degree] = (digit - 1) % degree + 1
        return tuple(exps)

    return prod(radices), decode


def polynomials(
    ring, *, numerators=7, denominators=DENOMINATORS, terms=5, degree=2, slots=None, dense=False
):
    """Canonical polynomials over the variable tuple ``ring``.

    Numerators are nonzero, of absolute value at most ``numerators`` (a tuple:
    one bound drawn per polynomial), over a denominator from ``denominators``.
    Sparse: at most ``terms`` terms, or (fewest, most), summed where their
    exponents meet; an exponent is at most ``degree`` (one per variable, or an
    ``int``), and with ``slots`` a term names at most that many variables.
    Dense: a term for every monomial of total degree at most ``degree``.
    """
    ring, denominators = tuple(ring), tuple(denominators)
    fewest, most = terms if isinstance(terms, tuple) else (0, terms)
    count, decode = _exponents(len(ring), degree, slots)
    full = dense and [e for e in product(range(degree + 1), repeat=len(ring)) if sum(e) <= degree]

    def with_bound(bound):
        head = st.integers(0, len(denominators) * (1 if dense else most - fewest + 1) - 1)
        code = st.integers(0, 2 * bound * (1 if dense else count) - 1)

        @st.composite
        def draw_polynomial(draw):
            n, i = divmod(draw(head), len(denominators))
            if dense:
                drawn = [(exps, draw(code)) for exps in full]
            else:
                codes = [draw(code) for _ in range(fewest + n)]
                drawn = [(decode(c % count), c // count) for c in codes]
            nums = {}
            for exps, k in drawn:  # code 0, 1, 2, 3, ... is numerator 1, -1, 2, -2, ...
                nums[exps] = nums.get(exps, 0) + (-1 if k % 2 else 1) * (k // 2 + 1)
            nums = {exps: m for exps, m in nums.items() if m}
            g = gcd(denominators[i], *nums.values())
            nums = {exps: m // g for exps, m in nums.items()}
            return Polynomial._trusted(ring, nums, denominators[i] // g)

        return draw_polynomial()

    return st.one_of(*map(with_bound, numerators if isinstance(numerators, tuple) else (numerators,)))
