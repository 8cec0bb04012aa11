"""Exact multivariate polynomial arithmetic over the rationals.

A polynomial is stored sparsely as integer numerators over one common
denominator: a map from exponent vectors to nonzero ``int`` numerators, and
a positive ``int`` denominator shared by every term. The exponent vector is
a tuple of nonnegative ints, one slot per variable of the owning ring. Two
polynomials combine only when their variable tuples are identical;
constants are promoted automatically, so ``p + 1`` and
``Polynomial.constant(vars, 1) + p`` agree.

Equality is structural and, because the representation is canonical,
structural equality coincides with mathematical equality. Every "vanishes
identically" check downstream reduces to ``is_zero`` here, which is what
keeps all of them exact decisions rather than numerical tolerances.

Canonical form: ``variables`` is a tuple of distinct names; the numerator
map sends each exponent vector, a tuple of non-bool nonnegative ``int`` of
length ``len(variables)``, to a nonzero ``int``; the denominator is a
positive ``int`` whose gcd with all the numerators is 1, and the zero
polynomial has denominator 1. The denominator is then the least common
denominator of the coefficients, so each polynomial has exactly one such
form. ``Polynomial(...)`` is the validating entry point for outside input
and brings any accepted input into this form. The arithmetic (``+``, ``-``,
``*``, ``**``, ``partial``, ``gradient``, ``embed``, ``substitute``) builds
its results with the private ``Polynomial._trusted``, which stores the given
numerators and denominator as they are. Nothing mutates a numerator dict
after construction.

The kernels run on ``int`` only. ``-``, ``partial`` and ``embed`` keep the
denominator; ``gradient`` makes one pass over the terms for every partial
that does not vanish; ``**`` squares repeatedly. A result whose
denominator is not 1 is divided by the gcd of its denominator and
numerators, which restores the canonical form. ``Fraction`` appears only at
the boundary: the validating constructor, ``constant_value``, printing,
and ``terms``, a read-only map from exponent vectors to ``Fraction``
coefficients that makes each coefficient when it is read and keeps none;
its ``len`` and truth read the numerators. Code that needs only the
exponents reads ``exponents()``.

Every numerator sum is one call of one function, parsing and the
validating constructor included: the private
``_sum_of_products(variables, terms)`` forms the sum of weight * a * b over
``(weight, a, b)`` entries, in one accumulator (Johnson, "Sparse
polynomial arithmetic", 1974). The weight is a nonzero ``int`` and ``b``
None reads as 1. An entry whose ``a`` or ``b`` is the constant 1 is read
as the other operand with ``b`` None, so no product by a factor 1 is
formed, and no caller needs to test a factor for 1. ``*`` is a call with
one entry and ``+`` a call with two, ``(1, p, None)`` and ``(1, q, None)``;
``substitute`` forms each image power once per call and sums one entry per
term, its numerator times its product of powers, then divides by its own
denominator once. The reader sums one entry per term of a sum and the
validating constructor one per nonzero coefficient, each a numerator times
a monomial over its denominator. A bracket component, a matrix entry or a
pairing downstream is one call with an entry per product. The common
denominator is the ``lcm`` of the product denominators; each product's
numerators are scaled into it, and the result is reduced once.

Entries that share a left operand ``a`` (the same object) of two or more
terms are factored first: their right operands are summed on the ``b`` None
path, B = sum w_i b_i, and a * B is one entry, or none when B is zero. That
never forms more term products, and each term that merges or cancels in B
saves |a| products for one addition; for a monomial the additions cost what
they save, so a monomial is left alone, and the rule has no size constant.
No other intermediate polynomial is formed, so a product cancelled by
another costs its term products and nothing more.

A large call packs exponent vectors (Monagan and Pearce, CASC 2007), with
widths chosen per call. Slot i gets the radix max_a[i] + max_b[i] + 1, for
max_a[i] and max_b[i] the largest exponent of slot i over the call's left
and right operands, and a vector e packs to sum e[i] * R[i], with R[0] = 1
and R[i+1] = R[i] * radix[i]. A product's exponent in slot i is at most
max_a[i] + max_b[i], below its radix, so adding two packed vectors never
carries: the packing is exact, needs no global width and cannot overflow.
A term product is then one ``int`` addition. Each distinct operand is
packed once per call, and each result term is unpacked once. Any other
call adds each product of two terms under its exponent tuple.

Packing costs time per operand term and per result term, and saves time per
term product. So the kernel packs a call in a ring of at least one variable
that forms at least ``2 * T + 16`` term products, T the operand terms
counted entry by entry (``_packs``). Measured on both paths (a shared 2-core
x86 host, Python 3.11):

* Over the 2,683 kernel calls of one seed-7 cycle of each benchmark workload
  that form a product or sum two or more polynomials (before ``*`` joined
  the kernel), the 2,543 below 2 term products per operand term took 2.45
  times as long packed; among them every call in 4 or more variables.
* At 3 variables and at least 64 term products, packed over tuple time
  was 0.65 at 2 term products per operand term, 0.57 at 3, 0.38 at 5 and
  0.33-0.41 from 6 on. Over all ``lie_dense`` calls the rule took 40.0 ms,
  against 39.6 ms for the faster path of each call.
* On one call a * b - c * d in 3 to 8 variables, best of 5: 0.24-0.97 on
  the powers (x_1 + ... + x_n + 1)^k, k = 1 to 4, that the rule admits, but
  on random operands of 8 to 80 terms with exponents 0 to 3, whose products
  rarely collide, 0.32-1.13 in 3 variables, 1.08-1.57 in 6 and 1.22-1.80
  in 8 (4 to 40 term products per operand term): unpacking a result term
  costs one ``divmod`` per slot. The counts cannot tell these shapes apart,
  so the rule reads no width cap. No benchmark call in 4 or more variables
  meets it: in two cycles of seeds 3, 17 and 101 each formed at most 1.5
  term products per operand term.

Moving a polynomial to another ring by variable name (an embedding, a
projection, a rename, or a restriction that sends variables to one) is
``embed``, a map of exponent vectors; ``_exponent_map`` forms that map once
for many polynomials. ``substitute`` is for genuine polynomial images, such
as an affine parametrization or evaluation at a point. The exponent map is
the one sum outside the kernel: it adds the numerators of the terms that
land on one exponent vector itself, because one monomial entry per term
costs more than the move (measured in :meth:`Polynomial.embed`).

The text grammar accepted by :func:`parse_polynomial`:

    expr     := ['-'] term (('+'|'-') term)*
    term     := factor ('*' factor)*
    factor   := base ('^' nonneg-int)?
    base     := rational | identifier | '(' expr ')'
    rational := int ('/' positive-int)?

Parentheses may nest at most ``MAX_NESTING`` deep; deeper input is a
``ParseError``, so a hostile string cannot exhaust the interpreter stack.

The optional leading minus on the first term is an extension of the minimal
grammar so that canonical printing round-trips through the parser.
An identifier is a run of word characters whose first is a letter or ``_``
(:func:`is_identifier`, the rule ``Chart`` applies to coordinate names), and
it must be a declared ring variable; anything else is rejected with its
position. An integer is a run of the decimal digits ``int`` reads
(``str.isdecimal``), so ``x^١٢`` is ``x^12``, and any other digit, such as
a superscript, is a ``ParseError`` at its position.

The reader tokenizes the text once with one compiled pattern and makes one
pass over the tokens. A term goes straight into one exponent vector e and
one numerator/denominator pair n/d, and is one kernel entry: n times the
monomial x^e over d, times the product of the term's parenthesized groups
when it has any. The terms of a sum are one kernel call, except when no
term or one term without groups is left: zero, or n x^e over d reduced,
with no call. Most coefficients in use are one such term: of the 4,482
coefficient strings of 150 ``lie_dense`` documents, 3,870 are a single
constant, 2,604 of them ``0``. ``Polynomial`` arithmetic runs only for a parenthesized group: the group is raised to its
power and multiplied into the term's product of groups.

Input budgets bound the work one coefficient can ask for. Going past one is
an ``InputError``; the reader raises the ``ParseError`` subclass, with the
position of the offending token.

* ``MAX_DIGITS``: the digits of one integer literal, checked before ``int``
  reads it (Python refuses more than 4300).
* ``MAX_EXPONENT``: the exponent of one factor.
* ``MAX_DEGREE``: the total degree of a term, counted before a group is
  raised or multiplied, and of a ``**`` result, checked before any product.
* ``MAX_TERMS``: the term count of a parsed sum, checked once it is summed.
  A product of groups and a ``**`` result are refused before they are
  formed when an upper bound on their term count passes it. The bound is
  the smaller of the count of term pairs (for ``**``, of multisets of terms)
  and the count of monomials in the variables that occur with a degree in
  the range the result can reach. No check runs in ``*``.
"""

from __future__ import annotations

import re
from collections.abc import Mapping
from fractions import Fraction
from math import comb, gcd, lcm
from operator import add, mul, or_

from .errors import InputError, ParseError

MAX_NESTING = 100

# Input budgets (see the module docstring). Each is at least ten times the
# largest value met in the demos, the tests and both benchmark workloads:
# 6 digits, exponent 4, degree 12 and 29 terms.
MAX_DIGITS = 1000
MAX_EXPONENT = 100
MAX_DEGREE = 200
MAX_TERMS = 5000

# The size rule of _sum_of_products (see the module docstring).
_PACK_RATIO = 2
_PACK_MIN = 16


def _check_variables(variables):
    variables = tuple(variables)
    if len(set(variables)) != len(variables):
        raise InputError(f"duplicate variable names: {variables}")
    return variables


def _as_fraction(value):
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise InputError(f"not a rational scalar: {value!r}")


def _shape(poly):
    """Which variables occur in the nonzero ``poly``, and its least and largest term degree."""
    exps = poly._nums.keys()
    degrees = [sum(e) for e in exps]
    return [any(column) for column in zip(*exps)], min(degrees), max(degrees)


def _monomials(width, lo, hi):
    """The number of monomials in ``width`` variables with degree in ``lo..hi``."""
    return comb(hi + width, width) - (comb(lo - 1 + width, width) if lo else 0)


def _product_terms_bound(p, q):
    """An upper bound on the term count of ``p * q``, both nonzero."""
    occurs_p, lo_p, hi_p = _shape(p)
    occurs_q, lo_q, hi_q = _shape(q)
    width = sum(map(or_, occurs_p, occurs_q))
    return min(len(p._nums) * len(q._nums), _monomials(width, lo_p + lo_q, hi_p + hi_q))


def _reduced(variables, nums, den):
    """The canonical polynomial with nonzero numerators ``nums`` over ``den > 0``."""
    if den != 1:
        if not nums:
            den = 1
        else:
            g = gcd(den, *nums.values())
            if g != 1:
                den //= g
                nums = {exps: n // g for exps, n in nums.items()}
    return Polynomial._trusted(variables, nums, den)


def _over(poly, den):
    """``poly`` divided by the positive ``int`` ``den``, in canonical form."""
    return poly if den == 1 else _reduced(poly.variables, poly._nums, poly._den * den)


def _exponent_map(source, target, renames=None):
    """A function moving polynomials over ``source`` to ``target`` as ``embed``
    does, its slots matched once: exponents and numerators add only where two
    variables share a target, and a variable with no image must not occur."""
    index = {v: i for i, v in enumerate(target)}
    renames = renames or {}
    slots = [index.get(renames.get(v, v)) for v in source]
    width = len(target)

    def move(poly):
        nums = {}
        for exps, n in poly._nums.items():
            moved = [0] * width
            for pos, e in enumerate(exps):
                if e:
                    i = slots[pos]
                    if i is None:
                        raise InputError(f"variable {source[pos]!r} has no image in ring {target}")
                    moved[i] += e
            moved = tuple(moved)
            if moved in nums:
                n += nums[moved]
                if not n:
                    del nums[moved]
                    continue
            nums[moved] = n
        return _reduced(target, nums, poly._den)

    return move


def _packs(products, operand_terms, width):
    """Whether :func:`_sum_of_products` packs the exponents of a call.

    ``products`` term products against ``operand_terms`` operand terms,
    counted entry by entry, in ``width`` variables; see the module docstring
    for the measurements behind the rule.
    """
    return 0 < width and products >= _PACK_RATIO * operand_terms + _PACK_MIN


def _sum_of_products(variables, terms):
    """The canonical sum of ``weight * a * b`` over a sequence of ``(weight, a, b)`` entries.

    ``weight`` is a nonzero ``int``, ``a`` and ``b`` are polynomials over
    ``variables`` and ``b`` may be ``None``, read as 1. An entry whose ``a``
    or ``b`` is the constant 1 is read as the other operand with ``b`` None,
    so no product by a factor 1 is formed. Every numerator sum but
    ``embed``'s is one call, parsing and the validating constructor
    included: ``*`` is a call with one entry and ``+`` a call with two, and
    one entry ``(1, a, None)`` or ``(-1, a, None)`` returns ``a`` or ``-a``
    as it stands. Entries that share a left operand of two or more terms
    are factored first, as the module docstring says. Every product is
    summed into one accumulator over the ``lcm`` of the product
    denominators, and the result is reduced once. Every call counts its term
    products for the size rule :func:`_packs`; one it admits packs each
    exponent vector into one ``int`` (:func:`_packed_sum`), and any other
    adds each product of two terms under its exponent tuple.
    """
    width = len(variables)
    groups = len(terms) > 1  # whether an entry can share its left operand
    live, den, products, operand_terms = [], 1, 0, 0
    shared = None  # id(a) -> [a, (w_i, b_i), ...], |a| >= 2, made on the first such entry
    for weight, a, b in terms:
        left = a._nums
        if not left:
            continue
        if b is not None:
            right = b._nums
            if not right:
                continue
            # the constant 1 is the one term (0, ..., 0): 1 over denominator 1
            if len(right) == 1 and b._den == 1 and right.get((0,) * width) == 1:
                b = None
            elif len(left) == 1 and a._den == 1 and left.get((0,) * width) == 1:
                a, left, b = b, right, None
        if b is None:
            d = a._den
            products += len(left)
            operand_terms += len(left)
        else:
            if groups and len(left) > 1:
                if shared is None:
                    shared = {}
                group = shared.get(id(a))
                if group is None:
                    shared[id(a)] = [a, (weight, b)]
                else:
                    group.append((weight, b))
                continue
            d = a._den * b._den
            products += len(left) * len(right)
            operand_terms += len(left) + len(right)
        if d != den:
            den = lcm(den, d)
        live.append((weight, d, a, b))
    for a, *group in shared.values() if shared else ():
        weight, b = group[0]
        if len(group) > 1:  # a * (sum of w_i b_i), summed on the b=None path
            weight, b = 1, _sum_of_products(variables, [(w, b, None) for w, b in group])
            if not b._nums:
                continue
        left, right = a._nums, b._nums
        d = a._den * b._den
        products += len(left) * len(right)
        operand_terms += len(left) + len(right)
        if d != den:
            den = lcm(den, d)
        live.append((weight, d, a, b))
    if not live:
        return Polynomial._trusted(variables, {}, 1)
    if len(live) == 1:
        weight, _, a, b = live[0]
        if b is None and weight == 1:
            return a
        if b is None and weight == -1:
            return -a
    if _packs(products, operand_terms, width):
        return _reduced(variables, _packed_sum(live, den, width), den)
    acc = {}
    get = acc.get
    for weight, d, a, b in live:
        scale = weight if d == den else weight * (den // d)
        if b is None:
            if not acc and scale == 1:  # the first summand seeds the accumulator
                acc.update(a._nums)
                continue
            for exps, n in a._nums.items():
                acc[exps] = get(exps, 0) + scale * n
            continue
        left, right = a._nums.items(), b._nums.items()
        if len(left) > len(right):
            left, right = right, left
        for e1, n1 in left:
            m = scale * n1
            for e2, n2 in right:
                exps = tuple(map(add, e1, e2))
                acc[exps] = get(exps, 0) + m * n2
    if not all(acc.values()):  # drop the numerators that cancelled
        acc = {exps: v for exps, v in acc.items() if v}
    return _reduced(variables, acc, den)


def _packed_sum(live, den, width):
    """The nonzero numerators of the sum of :func:`_sum_of_products`, packed.

    Slot ``i`` of an exponent vector gets the radix ``max_a[i] + max_b[i] + 1``,
    the largest exponents over the call's left and right operands, so a
    product's exponent never reaches its radix and adding two packed vectors
    never carries.
    """
    operands = {}  # id -> each distinct operand, packed once
    for _, _, a, b in live:
        operands[id(a)] = a
        if b is not None:
            operands[id(b)] = b
    top_a, top_b = [0] * width, [0] * width  # the largest exponent per slot
    for _, _, a, b in live:
        top_a = list(map(max, top_a, *a._nums))
        if b is not None:
            top_b = list(map(max, top_b, *b._nums))
    radices = [x + y + 1 for x, y in zip(top_a, top_b)]
    weights, w = [], 1
    for r in radices:
        weights.append(w)
        w *= r
    packed = {
        key: [(sum(map(mul, exps, weights)), n) for exps, n in poly._nums.items()]
        for key, poly in operands.items()
    }
    acc = {}
    get = acc.get
    for weight, d, a, b in live:
        scale = weight if d == den else weight * (den // d)
        left = packed[id(a)]
        if b is None:
            for k, n in left:
                acc[k] = get(k, 0) + scale * n
            continue
        right = packed[id(b)]
        if len(left) > len(right):
            left, right = right, left
        for k1, n1 in left:
            m = scale * n1
            for k2, n2 in right:
                k = k1 + k2
                acc[k] = get(k, 0) + m * n2
    nums = {}
    lower = radices[:-1]  # the last slot is what is left of the packed int
    for k, v in acc.items():
        if v:
            exps = []
            for r in lower:
                k, e = divmod(k, r)
                exps.append(e)
            if width:
                exps.append(k)
            nums[tuple(exps)] = v
    return nums


class _Terms(Mapping):
    """The coefficients of one polynomial, each a ``Fraction`` made on access.

    ``len``, truth and iteration read the numerator map and build nothing.
    """

    __slots__ = ("_nums", "_den")

    def __init__(self, nums, den):
        self._nums = nums
        self._den = den

    def __getitem__(self, exps):
        return Fraction(self._nums[exps], self._den)

    def __iter__(self):
        return iter(self._nums)

    def __len__(self):
        return len(self._nums)

    def __repr__(self):
        return repr(dict(self.items()))


class Polynomial:
    """Immutable sparse polynomial over an ordered variable tuple."""

    __slots__ = ("variables", "_nums", "_den")

    def __init__(self, variables, terms=None):
        variables = _check_variables(variables)
        entries = []
        for exps, coeff in (terms or {}).items():
            exps = tuple(exps)
            if len(exps) != len(variables):
                raise InputError(
                    f"exponent vector {exps} does not match {len(variables)} variables"
                )
            if any(
                isinstance(e, bool) or not isinstance(e, int) or e < 0 for e in exps
            ):
                raise InputError(f"exponents must be nonnegative integers: {exps}")
            coeff = _as_fraction(coeff)
            if coeff:
                monomial = Polynomial._trusted(variables, {exps: 1}, coeff.denominator)
                entries.append((coeff.numerator, monomial, None))
        total = _sum_of_products(variables, entries)
        _set_variables(self, variables)
        _set_nums(self, total._nums)
        _set_den(self, total._den)

    @staticmethod
    def _trusted(variables, nums, den):
        """Wrap numerators and a denominator in canonical form, unchecked."""
        poly = _new(Polynomial)
        _set_variables(poly, variables)
        _set_nums(poly, nums)
        _set_den(poly, den)
        return poly

    @classmethod
    def _scalar(cls, variables, value):
        """The constant ``value`` (an ``int`` or ``Fraction``) over ``variables``."""
        if not value:
            return cls._trusted(variables, {}, 1)
        return cls._trusted(
            variables, {(0,) * len(variables): value.numerator}, value.denominator
        )

    def __setattr__(self, name, value):
        raise AttributeError("Polynomial is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, variables):
        return cls._trusted(_check_variables(variables), {}, 1)

    @classmethod
    def constant(cls, variables, value):
        return cls._scalar(_check_variables(variables), _as_fraction(value))

    @classmethod
    def variable(cls, variables, name):
        variables = _check_variables(variables)
        if name not in variables:
            raise InputError(f"unknown variable {name!r} in ring {variables}")
        exps = tuple(1 if v == name else 0 for v in variables)
        return cls._trusted(variables, {exps: 1}, 1)

    # -- reading -----------------------------------------------------------

    @property
    def terms(self):
        """Read-only map of exponent vectors to nonzero ``Fraction`` coefficients."""
        return _Terms(self._nums, self._den)

    def exponents(self):
        """The exponent vectors of the nonzero terms, as a read-only view."""
        return self._nums.keys()

    # -- predicates --------------------------------------------------------

    def is_zero(self):
        return not self._nums

    def is_constant(self):
        return all(not any(exps) for exps in self._nums)

    def constant_value(self):
        if not self._nums:
            return Fraction(0)
        if not self.is_constant():
            raise InputError(f"not a constant: {self}")
        return Fraction(next(iter(self._nums.values())), self._den)

    def total_degree(self):
        """Largest term degree, or -1 for the zero polynomial."""
        if not self._nums:
            return -1
        return max(sum(exps) for exps in self._nums)

    def degree_in(self, names):
        """Largest combined exponent of the named variables, -1 if zero."""
        idx = [self.variables.index(n) for n in names]
        if not self._nums:
            return -1
        return max(sum(exps[i] for i in idx) for exps in self._nums)

    # -- arithmetic --------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, Polynomial):
            if other.variables == self.variables:
                return other
            if other.is_constant():
                return Polynomial._scalar(self.variables, other.constant_value())
            if self.is_constant():
                return other  # caller re-dispatches from the promoted side
            raise InputError(
                f"variable lists differ: {self.variables} vs {other.variables}"
            )
        if isinstance(other, (int, Fraction)):
            return Polynomial._scalar(self.variables, other)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if other.variables != self.variables:
            return Polynomial.constant(other.variables, self.constant_value()) + other
        return _sum_of_products(self.variables, ((1, self, None), (1, other, None)))

    __radd__ = __add__

    def __neg__(self):
        return Polynomial._trusted(
            self.variables, {exps: -n for exps, n in self._nums.items()}, self._den
        )

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if other.variables != self.variables:
            return Polynomial.constant(other.variables, self.constant_value()) * other
        return _sum_of_products(self.variables, ((1, self, other),))

    __rmul__ = __mul__

    def __pow__(self, n):
        """``self`` to the ``n``-th power, by repeated squaring.

        A power of degree above ``MAX_DEGREE``, or one that could have more
        than ``MAX_TERMS`` terms, is refused before any product is formed.
        The term bound is the smaller of the number of multisets of ``n``
        terms and the number of monomials in the occurring variables with
        degree between ``n`` times the least and the largest term degree.
        """
        if not isinstance(n, int) or n < 0:
            raise InputError(f"polynomial power must be a nonnegative int, got {n!r}")
        if not n:
            return Polynomial._scalar(self.variables, 1)
        if n == 1 or not self._nums:
            return self
        occurs, lo, hi = _shape(self)
        if hi * n > MAX_DEGREE:
            raise InputError(
                f"power {n} of a degree-{hi} polynomial has degree {hi * n}, "
                f"above the budget of {MAX_DEGREE}"
            )
        count = len(self._nums)
        bound = min(comb(count + n - 1, n), _monomials(sum(occurs), lo * n, hi * n))
        if bound > MAX_TERMS:
            raise InputError(
                f"power {n} of a {count}-term polynomial could have {bound} terms, "
                f"above the budget of {MAX_TERMS}"
            )
        result, square = None, self
        while True:
            if n & 1:
                result = square if result is None else result * square
            n >>= 1
            if not n:
                return result
            square = square * square

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.is_constant() and self.constant_value() == other
        if not isinstance(other, Polynomial):
            return NotImplemented
        if self.variables != other.variables:
            if self.is_constant() and other.is_constant():
                return self.constant_value() == other.constant_value()
            return False
        return self._den == other._den and self._nums == other._nums

    __hash__ = None

    # -- calculus ----------------------------------------------------------

    def partial(self, name):
        """Formal partial derivative with respect to the named variable."""
        if name not in self.variables:
            raise InputError(f"unknown variable {name!r} in ring {self.variables}")
        i = self.variables.index(name)
        # Lowering one exponent is injective, so no two terms collide.
        nums = {}
        for exps, n in self._nums.items():
            e = exps[i]
            if e:
                nums[exps[:i] + (e - 1,) + exps[i + 1 :]] = n * e
        return _reduced(self.variables, nums, self._den)

    def gradient(self):
        """The nonzero partials ``[(i, d self/d v_i)]``, ``i`` increasing, in one pass.

        Only the variables that occur get an entry. Each term lowers its
        nonzero exponents in place on one list, one slot at a time; as in
        :meth:`partial`, no two terms collide within one variable.
        """
        if not self.variables:
            return []
        parts = {}
        for exps, n in self._nums.items():
            lowered = list(exps)
            for i, e in enumerate(exps):
                if e:
                    lowered[i] = e - 1
                    nums = parts.get(i)
                    if nums is None:
                        nums = parts[i] = {}
                    nums[tuple(lowered)] = n * e
                    lowered[i] = e
        variables, den = self.variables, self._den
        return [(i, _reduced(variables, parts[i], den)) for i in sorted(parts)]

    def embed(self, variables, renames=None):
        """The same polynomial over another ring, moved by variable name.

        Each variable goes to ``renames[v]``, or else to the target variable
        of the same name; a variable with neither must not occur. This is a
        map of exponent slots with no arithmetic (:func:`_exponent_map`):
        exponents and coefficients add, and may cancel, only where two
        variables share a target.

        The numerators that land on one exponent vector are added there, not
        in :func:`_sum_of_products`. Summed in the kernel, one monomial entry
        per term, pair-groupoid lifts, projections and diagonal restrictions
        of 1-5-term polynomials in 1-4 base variables took 6.5-6.7 us per
        call against 4.2 us here; a lift to the triple chart takes 2.9 us with
        its map formed once per block, against 6.0 us through ``embed`` (best
        of 15 interleaved rounds, shared 2-core x86 host, Python 3.11).
        """
        return _exponent_map(self.variables, _check_variables(variables), renames)(self)

    def substitute(self, target_variables, assignments):
        """Evaluate with each variable replaced by a polynomial over a new ring.

        Variables absent from ``assignments`` must either not occur in the
        polynomial or exist in ``target_variables``, in which case they map
        to themselves. Plain renames and ring extensions therefore need only
        name the variables that actually move.
        """
        target_variables = _check_variables(target_variables)

        def image_of(v):
            if v in assignments:
                img = assignments[v]
                if isinstance(img, (int, Fraction)):
                    img = Polynomial.constant(target_variables, img)
                if img.variables != target_variables:
                    if img.is_constant():
                        img = Polynomial.constant(
                            target_variables, img.constant_value()
                        )
                    else:
                        raise InputError(
                            f"substitution image for {v!r} lives in "
                            f"{img.variables}, expected {target_variables}"
                        )
                return img
            if v in target_variables:
                return Polynomial.variable(target_variables, v)
            raise InputError(
                f"variable {v!r} has no image and is not a target variable"
            )

        # Each image power is formed once; every term's product of powers is
        # one kernel entry, weighted by the term's numerator.
        images, powers, entries = {}, {}, []
        one = Polynomial._scalar(target_variables, 1)
        for exps, n in self._nums.items():
            product = one
            for v, e in zip(self.variables, exps):
                if e:
                    power = powers.get((v, e))
                    if power is None:
                        if v not in images:
                            images[v] = image_of(v)
                        power = powers[v, e] = images[v] ** e
                    product = power if product is one else product * power
            entries.append((n, product, None))
        return _over(_sum_of_products(target_variables, entries), self._den)

    # -- printing ----------------------------------------------------------

    def __str__(self):
        if not self._nums:
            return "0"
        ordered = sorted(
            self._nums.items(),
            key=lambda kv: (-sum(kv[0]), tuple(-e for e in kv[0])),
        )
        pieces = []
        for exps, n in ordered:
            coeff = Fraction(n, self._den)
            factors = []
            for v, e in zip(self.variables, exps):
                if e == 1:
                    factors.append(v)
                elif e > 1:
                    factors.append(f"{v}^{e}")
            mag = abs(coeff)
            if factors and mag == 1:
                body = "*".join(factors)
            elif factors:
                body = "*".join([str(mag)] + factors)
            else:
                body = str(mag)
            pieces.append(("-" if coeff < 0 else "+", body))
        sign, body = pieces[0]
        out = body if sign == "+" else "-" + body
        for sign, body in pieces[1:]:
            out += f" {sign} {body}"
        return out

    def __repr__(self):
        return f"Polynomial({str(self)!r}, vars={','.join(self.variables) or '()'})"


# The slot descriptors' own setters bypass the immutability guard of
# ``__setattr__``, at a fraction of the cost of ``object.__setattr__``.
_new = object.__new__
_set_variables = Polynomial.variables.__set__
_set_nums = Polynomial._nums.__set__
_set_den = Polynomial._den.__set__


# -- reader ----------------------------------------------------------------

# One match per token, leading whitespace skipped: an integer literal (the
# decimal digits ``int`` reads), a word, or any other single character.
# Trailing whitespace matches nothing. ``\s``, ``\d`` and ``\w`` are exactly
# ``str.isspace``, ``str.isdecimal`` and ``str.isalnum`` or ``_``.
_TOKEN = re.compile(r"\s*(?:(\d+)|(\w+)|(\S))")
_WORD = re.compile(r"\w+")


def is_identifier(name):
    """Whether the reader reads ``name`` as one identifier: word characters,
    the first a letter or ``_``. ``Chart`` admits exactly these coordinates."""
    head = name[:1] if isinstance(name, str) else ""
    return (head.isalpha() or head == "_") and _WORD.fullmatch(name) is not None


def parse_polynomial(text, variables):
    """Parse ``text`` into a canonical Polynomial over ``variables``."""
    reader = _Reader(text, _check_variables(variables))
    value, i = reader.sum(0, 0)
    if i != len(reader.tokens):
        pos = reader.position(i)
        raise ParseError(f"trailing input {text[pos:]!r}", pos)
    return value


class _Reader:
    """The tokens of one coefficient text, read left to right in one pass.

    Each token is a ``(digits, word, char)`` triple with one field set.
    """

    __slots__ = ("text", "tokens", "variables", "slots")

    def __init__(self, text, variables):
        self.text = text
        self.tokens = _TOKEN.findall(text)
        self.variables = variables
        self.slots = {v: i for i, v in enumerate(variables)}

    def position(self, i):
        """Where token ``i`` starts in the text; the text's length past the end."""
        for k, match in enumerate(_TOKEN.finditer(self.text)):
            if k == i:
                return match.start(match.lastindex)
        return len(self.text)

    def fail(self, message, i):
        raise ParseError(message, self.position(i))

    def integer(self, i):
        """The integer literal at token ``i``."""
        if i == len(self.tokens) or not self.tokens[i][0]:
            self.fail("expected an integer", i)
        digits = self.tokens[i][0]
        if len(digits) > MAX_DIGITS:
            self.fail(f"integer literal longer than {MAX_DIGITS} digits", i)
        return int(digits)

    def sum(self, i, depth):
        """Read ``expr`` from token ``i``; returns (polynomial, next token).

        A term without parentheses goes straight into one exponent vector
        and one numerator/denominator pair. A parenthesized group is read
        into a polynomial, raised to its power, and multiplied into the
        term's product of groups; only then does ``Polynomial`` arithmetic
        run. Each term is one kernel entry, ``(n, x^e over d, groups or
        None)``, and the sum is one kernel call; ``MAX_TERMS`` is checked on
        its result. No term, or one term without groups, is its own sum and
        makes no call.
        """
        tokens, slots, variables = self.tokens, self.slots, self.variables
        end, width = len(tokens), len(variables)
        start = i
        entries, sign = [], 1
        if i < end and tokens[i][2] == "-":
            sign = -1
            i += 1
        while True:
            num, tden, exps, degree, group = sign, 1, [0] * width, 0, None
            while True:
                if i == end:
                    self.fail("unexpected end of input", i)
                digits, word, char = tokens[i]
                base = i
                i += 1
                if digits:
                    a = int(digits) if len(digits) <= MAX_DIGITS else self.integer(base)
                    b = 1
                    if i < end and tokens[i][2] == "/":
                        b = self.integer(i + 1)
                        if not b:
                            self.fail("zero denominator", i + 1)
                        i += 2
                elif word:
                    if not is_identifier(word):
                        self.fail(f"unexpected character {word[0]!r}", base)
                    slot = slots.get(word)
                    if slot is None:
                        self.fail(
                            f"unknown identifier {word!r} "
                            f"(declared: {', '.join(self.variables)})",
                            base,
                        )
                elif char == "(":
                    if depth == MAX_NESTING:
                        self.fail(
                            f"parentheses nested more than {MAX_NESTING} deep", base
                        )
                    value, i = self.sum(i, depth + 1)
                    if i == end or tokens[i][2] != ")":
                        found = "".join(tokens[i])[0] if i < end else None
                        self.fail(f"expected {')'!r}, found {found!r}", i)
                    i += 1
                else:
                    self.fail(f"unexpected character {char!r}", base)
                power = 1
                if i < end and tokens[i][2] == "^":
                    power = self.integer(i + 1)
                    if power > MAX_EXPONENT:
                        self.fail(
                            f"exponent {power} above the budget of {MAX_EXPONENT}",
                            i + 1,
                        )
                    i += 2
                if digits:
                    num *= a**power
                    tden *= b**power
                elif word:
                    exps[slot] += power
                    degree += power
                else:
                    degree += max(value.total_degree(), 0) * power
                if degree > MAX_DEGREE:
                    self.fail(f"term degree above the budget of {MAX_DEGREE}", base)
                if char:
                    value **= power
                    if group is None:
                        group = value
                    else:
                        if group._nums and value._nums:
                            bound = _product_terms_bound(group, value)
                            if bound > MAX_TERMS:
                                self.fail(
                                    f"product could have {bound} terms, "
                                    f"above the budget of {MAX_TERMS}",
                                    base,
                                )
                        group = group * value
                if i < end and tokens[i][2] == "*":
                    i += 1
                    continue
                break
            if num:
                monomial = Polynomial._trusted(variables, {tuple(exps): 1}, tden)
                entries.append((num, monomial, group))
            if i < end and tokens[i][2] in ("+", "-"):
                sign = 1 if tokens[i][2] == "+" else -1
                i += 1
                continue
            break
        if not entries:
            return Polynomial._trusted(variables, {}, 1), i
        if len(entries) == 1 and entries[0][2] is None:
            # one term without groups, such as a literal: n x^e over d, reduced
            num, monomial, _ = entries[0]
            (exps,) = monomial._nums
            return _reduced(variables, {exps: num}, monomial._den), i
        value = _sum_of_products(variables, entries)
        count = len(value._nums)
        if count > MAX_TERMS:
            self.fail(f"sum of {count} terms, above the budget of {MAX_TERMS}", start)
        return value, i
