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
``*``, ``**``, ``partial``, ``embed``, ``substitute``) builds its results
with the private ``Polynomial._trusted``, which stores the given numerators
and denominator as they are. Nothing mutates a numerator dict after
construction.

The kernels run on ``int`` only. ``+`` adds numerators directly when the
denominators agree and rescales both operands to the ``lcm`` when they
differ; ``*`` sums the products of numerators per exponent vector over the
product of the denominators; ``-``, ``partial`` and ``embed`` keep the
denominator. A result whose denominator is not 1 is divided by the gcd of
its denominator and numerators, which restores the canonical form.
``Fraction`` appears only at the boundary: the validating constructor,
``constant_value``, printing, the per-term constants of ``substitute``,
and ``terms``, a read-only map from exponent vectors to ``Fraction``
coefficients that makes each coefficient when it is read and keeps none;
its ``len`` and truth read the numerators. Code that needs only the
exponents reads ``exponents()``.

Moving a polynomial to another ring by variable name (an embedding, a
projection, a rename, or a diagonal restriction that sends two variables to
one) is ``embed``, a map of exponent vectors. ``substitute`` is for genuine
polynomial images, such as an affine parametrization or evaluation at a
point.

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
Identifiers must be declared ring variables; anything else is rejected with
its position.
"""

from __future__ import annotations

from collections.abc import Mapping
from fractions import Fraction
from math import gcd, lcm
from operator import add

from .errors import InputError, ParseError

Rational = Fraction

MAX_NESTING = 100


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
        clean = {}
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
            if coeff == 0:
                continue
            if exps in clean:
                coeff = clean[exps] + coeff
                if coeff == 0:
                    del clean[exps]
                    continue
            clean[exps] = coeff
        den = lcm(1, *(coeff.denominator for coeff in clean.values()))
        _set_variables(self, variables)
        _set_nums(
            self,
            {
                exps: coeff.numerator * (den // coeff.denominator)
                for exps, coeff in clean.items()
            },
        )
        _set_den(self, den)

    @classmethod
    def _trusted(cls, variables, nums, den):
        """Wrap numerators and a denominator in canonical form, unchecked."""
        poly = object.__new__(cls)
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
        if not other._nums:
            return self
        if not self._nums:
            return other
        den1, den2 = self._den, other._den
        den = den1 if den1 == den2 else lcm(den1, den2)
        scale1, scale2 = den // den1, den // den2
        if scale1 == 1:
            nums = dict(self._nums)
        else:
            nums = {exps: n * scale1 for exps, n in self._nums.items()}
        for exps, n in other._nums.items():
            if scale2 != 1:
                n *= scale2
            if exps in nums:
                n += nums[exps]
                if not n:
                    del nums[exps]
                    continue
            nums[exps] = n
        return _reduced(self.variables, nums, den)

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
        if not (self._nums and other._nums):
            return Polynomial._trusted(self.variables, {}, 1)
        right = other._nums.items()
        acc = {}
        get = acc.get
        for e1, n1 in self._nums.items():
            for e2, n2 in right:
                exps = tuple(map(add, e1, e2))
                acc[exps] = get(exps, 0) + n1 * n2
        nums = {exps: v for exps, v in acc.items() if v}
        return _reduced(self.variables, nums, self._den * other._den)

    __rmul__ = __mul__

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            raise InputError(f"polynomial power must be a nonnegative int, got {n!r}")
        out = Polynomial.constant(self.variables, 1)
        for _ in range(n):
            out = out * self
        return out

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

    def embed(self, variables, renames=None):
        """The same polynomial over another ring, moved by variable name.

        Each variable goes to ``renames[v]``, or else to the target variable
        of the same name; a variable with neither must not occur. This is a
        map of exponent slots with no arithmetic: exponents and coefficients
        add, and may cancel, only where two variables share a target.
        """
        variables = _check_variables(variables)
        index = {v: i for i, v in enumerate(variables)}
        renames = renames or {}
        slots = []
        for pos, v in enumerate(self.variables):
            i = index.get(renames.get(v, v))
            if i is not None:
                slots.append((pos, i))
            elif any(exps[pos] for exps in self._nums):
                raise InputError(f"variable {v!r} has no image in ring {variables}")
        nums = {}
        for exps, n in self._nums.items():
            moved = [0] * len(variables)
            for pos, i in slots:
                moved[i] += exps[pos]
            moved = tuple(moved)
            if moved in nums:
                n += nums[moved]
                if not n:
                    del nums[moved]
                    continue
            nums[moved] = n
        return _reduced(variables, nums, self._den)

    def substitute(self, target_variables, assignments):
        """Evaluate with each variable replaced by a polynomial over a new ring.

        Variables absent from ``assignments`` must either not occur in the
        polynomial or exist in ``target_variables``, in which case they map
        to themselves. Plain renames and ring extensions therefore need only
        name the variables that actually move.
        """
        target_variables = tuple(target_variables)

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

        cache = {}
        out = Polynomial.zero(target_variables)
        for exps, n in self._nums.items():
            term = Polynomial.constant(target_variables, Fraction(n, self._den))
            for v, e in zip(self.variables, exps):
                if e:
                    if v not in cache:
                        cache[v] = image_of(v)
                    term = term * cache[v] ** e
            out = out + term
        return out

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
_set_variables = Polynomial.variables.__set__
_set_nums = Polynomial._nums.__set__
_set_den = Polynomial._den.__set__


# -- parser ----------------------------------------------------------------


class _Tokens:
    def __init__(self, text):
        self.text = text
        self.pos = 0
        self.depth = 0

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self):
        self.skip_ws()
        if self.pos >= len(self.text):
            return None
        return self.text[self.pos]

    def take_number(self):
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == start:
            raise ParseError("expected an integer", start)
        return int(self.text[start : self.pos]), start

    def take_ident(self):
        self.skip_ws()
        start = self.pos
        ch = self.text[self.pos]
        if not (ch.isalpha() or ch == "_"):
            raise ParseError(f"unexpected character {ch!r}", start)
        while self.pos < len(self.text) and (
            self.text[self.pos].isalnum() or self.text[self.pos] == "_"
        ):
            self.pos += 1
        return self.text[start : self.pos], start

    def expect(self, ch):
        got = self.peek()
        if got != ch:
            raise ParseError(f"expected {ch!r}, found {got!r}", self.pos)
        self.pos += 1


def parse_polynomial(text, variables):
    """Parse ``text`` into a canonical Polynomial over ``variables``."""
    variables = tuple(variables)
    toks = _Tokens(text)
    value = _parse_expr(toks, variables)
    toks.skip_ws()
    if toks.pos != len(text):
        raise ParseError(f"trailing input {text[toks.pos:]!r}", toks.pos)
    return value


def _parse_expr(toks, variables):
    negate = False
    if toks.peek() == "-":
        toks.pos += 1
        negate = True
    value = _parse_term(toks, variables)
    if negate:
        value = -value
    while toks.peek() in ("+", "-"):
        op = toks.peek()
        toks.pos += 1
        rhs = _parse_term(toks, variables)
        value = value + rhs if op == "+" else value - rhs
    return value


def _parse_term(toks, variables):
    value = _parse_factor(toks, variables)
    while toks.peek() == "*":
        toks.pos += 1
        value = value * _parse_factor(toks, variables)
    return value


def _parse_factor(toks, variables):
    base = _parse_base(toks, variables)
    if toks.peek() == "^":
        toks.pos += 1
        exp, _ = toks.take_number()
        base = base**exp
    return base


def _parse_base(toks, variables):
    ch = toks.peek()
    if ch is None:
        raise ParseError("unexpected end of input", toks.pos)
    if ch == "(":
        if toks.depth == MAX_NESTING:
            raise ParseError(
                f"parentheses nested more than {MAX_NESTING} deep", toks.pos
            )
        toks.pos += 1
        toks.depth += 1
        value = _parse_expr(toks, variables)
        toks.expect(")")
        toks.depth -= 1
        return value
    if ch.isdigit():
        num, _ = toks.take_number()
        if toks.peek() == "/":
            toks.pos += 1
            den, dpos = toks.take_number()
            if den == 0:
                raise ParseError("zero denominator", dpos)
            return Polynomial.constant(variables, Fraction(num, den))
        return Polynomial.constant(variables, num)
    name, start = toks.take_ident()
    if name not in variables:
        raise ParseError(
            f"unknown identifier {name!r} (declared: {', '.join(variables)})", start
        )
    return Polynomial.variable(variables, name)
