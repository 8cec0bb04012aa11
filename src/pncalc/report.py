"""Uniform result records and the verdict protocol behind them.

Every command produces one Report: the command name, a verdict that is
``pass``, ``fail``, ``error`` or ``internal``, a map of named residuals
(polynomial strings, or computed components for the commands that print
an object rather than test one), and the elapsed wall time. A ``fail``
report always carries at least one entry explaining what was nonzero.

The JSON rendering is byte-stable: keys are sorted, separators are
fixed, and the elapsed time is nulled out, so identical input always
produces identical bytes.

Every check returns a :class:`Verdict`. A verdict class keeps its own
fields and writes one method, ``families()``, which yields ``(label,
value)`` pairs in report order. A value is an algebraic residual with
``is_zero()`` and ``str()`` (a polynomial, multivector, form, section or
extended section), or a plain ``str`` that stands for a failure already
rendered, such as a stage that was skipped. A verdict built on others
yields their families under a prefix (``prefixed``); index maps and
matrices are labelled by ``labelled`` and ``matrix_entries``. From that one
list the base derives everything else:

- ``ok``: every value is zero. It stops at the first nonzero value and
  renders nothing.
- ``residuals()``: the nonzero families as label -> string, in order.
- ``require(message)``: refuses with a ``PreconditionError`` carrying the
  residuals unless ``ok``; a failed hypothesis of the caller.
- ``guard(message)``: raises ``InternalError("message: {residuals}")``
  unless ``ok``; a result pncalc built itself failed its re-check.
"""

from __future__ import annotations

import json

from .errors import InputError, InternalError, PreconditionError

_VERDICTS = ("pass", "fail", "error", "internal")
EXIT_CODES = {"pass": 0, "fail": 1, "error": 2, "internal": 3}


def key_of(idx):
    """The label of a 0-based index tuple: 1-based, comma-separated."""
    return ",".join(str(i + 1) for i in idx)


def labelled(prefix, values):
    """(prefix(i,j,...), value) for an index-keyed map, in index order."""
    return ((f"{prefix}({key_of(idx)})", value) for idx, value in sorted(values.items()))


def matrix_entries(prefix, rows):
    """(prefix[i][j], entry) for a matrix, row by row, 1-based."""
    return (
        (f"{prefix}[{i + 1}][{j + 1}]", entry)
        for i, row in enumerate(rows)
        for j, entry in enumerate(row)
    )


def prefixed(prefix, families):
    """The families of a nested verdict, each label behind ``prefix``."""
    return ((prefix + label, value) for label, value in families)


def _is_zero(value):
    return not isinstance(value, str) and value.is_zero()


def rendered(families):
    """The nonzero families as label -> string, in order."""
    return {label: str(value) for label, value in families if not _is_zero(value)}


class Verdict:
    """Base of every check's result; subclasses define ``families()``."""

    def families(self):
        raise NotImplementedError

    @property
    def ok(self):
        return all(_is_zero(value) for _, value in self.families())

    def residuals(self):
        return rendered(self.families())

    def require(self, message):
        """Refuse, as a failed hypothesis, unless every family vanishes."""
        if not self.ok:
            raise PreconditionError(message, self.residuals())

    def guard(self, message):
        """Raise an internal error unless every family vanishes."""
        if not self.ok:
            raise InternalError("%s: %r" % (message, self.residuals()))


class Report:
    __slots__ = ("command", "verdict", "residuals", "elapsed")

    def __init__(self, command, verdict, residuals=None, elapsed=None):
        if verdict not in _VERDICTS:
            raise InternalError(f"bad verdict {verdict!r}")
        residuals = dict(residuals or {})
        if verdict == "fail" and not residuals:
            raise InternalError("a fail report must name at least one residual")
        for key, value in residuals.items():
            if not isinstance(key, str) or not isinstance(value, str):
                raise InternalError("residual entries must map strings to strings")
        object.__setattr__(self, "command", command)
        object.__setattr__(self, "verdict", verdict)
        object.__setattr__(self, "residuals", residuals)
        object.__setattr__(self, "elapsed", elapsed)

    def __setattr__(self, name, value):
        raise AttributeError("Report is immutable")

    @property
    def ok(self):
        return self.verdict == "pass"

    @property
    def exit_code(self):
        return EXIT_CODES[self.verdict]

    def to_data(self, stable=False):
        return {
            "command": self.command,
            "verdict": self.verdict,
            "residuals": dict(self.residuals),
            "elapsed": None if stable else self.elapsed,
        }

    def render_json(self):
        """Canonical bytes: sorted keys, fixed separators, elapsed nulled."""
        return json.dumps(self.to_data(stable=True), sort_keys=True, indent=2)

    def render_text(self):
        lines = [f"command: {self.command}", f"verdict: {self.verdict}"]
        if self.elapsed is not None:
            lines.append(f"elapsed: {self.elapsed * 1000:.1f} ms")
        if self.residuals:
            lines.append("residuals:")
            for key in self.residuals:
                lines.append(f"  {key} = {self.residuals[key]}")
        return "\n".join(lines)


def from_verdict(command, verdict):
    """Wrap a Verdict: pass, or fail with its nonzero residual families."""
    if verdict.ok:
        return Report(command, "pass", {})
    residuals = verdict.residuals()
    if not residuals:
        raise InternalError(f"{command}: verdict failed without residuals")
    return Report(command, "fail", residuals)


def from_values(command, values):
    """A computation that produced components rather than a yes or no."""
    return Report(command, "pass", {k: str(v) for k, v in values.items()})


def from_exception(command, exc):
    """Map the error taxonomy onto verdicts.

    Bad input is an ``error``, a failed hypothesis a ``fail``, and two
    internal certificates that disagree (a bug, never the data) ``internal``.
    """
    if isinstance(exc, PreconditionError):
        residuals = {"precondition": str(exc)}
        for key, value in exc.residuals.items():
            residuals[str(key)] = str(value)
        return Report(command, "fail", residuals)
    if isinstance(exc, InputError):
        return Report(command, "error", {"error": str(exc)})
    if isinstance(exc, InternalError):
        return Report(command, "internal", {"internal error": str(exc)})
    raise exc
