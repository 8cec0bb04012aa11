"""Uniform result records for the command line and the acceptance suite.

Every command produces one Report: the command name, a verdict that is
``pass``, ``fail``, ``error`` or ``internal``, a map of named residuals
(polynomial strings, or computed components for the commands that print
an object rather than test one), and the elapsed wall time. A ``fail``
report always carries at least one entry explaining what was nonzero.

The JSON rendering is byte-stable: keys are sorted, separators are
fixed, and the elapsed time is nulled out, so identical input always
produces identical bytes.
"""

from __future__ import annotations

import json

from .errors import InputError, InternalError, PreconditionError

_VERDICTS = ("pass", "fail", "error", "internal")
EXIT_CODES = {"pass": 0, "fail": 1, "error": 2, "internal": 3}


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


def from_verdict(command, verdict, elapsed=None):
    """Wrap any verdict object exposing ok and residuals()."""
    if verdict.ok:
        return Report(command, "pass", {}, elapsed)
    residuals = verdict.residuals()
    if not residuals:
        raise InternalError(f"{command}: verdict failed without residuals")
    return Report(command, "fail", residuals, elapsed)


def from_values(command, values, elapsed=None):
    """A computation that produced components rather than a yes or no."""
    return Report(command, "pass", {k: str(v) for k, v in values.items()}, elapsed)


def from_exception(command, exc, elapsed=None):
    """Map the error taxonomy onto verdicts.

    Bad input is an ``error``, a failed hypothesis a ``fail``, and two
    internal certificates that disagree (a bug, never the data) ``internal``.
    """
    if isinstance(exc, PreconditionError):
        residuals = {"precondition": str(exc)}
        for key, value in exc.residuals.items():
            residuals[str(key)] = str(value)
        return Report(command, "fail", residuals, elapsed)
    if isinstance(exc, InputError):
        return Report(command, "error", {"error": str(exc)}, elapsed)
    if isinstance(exc, InternalError):
        return Report(command, "internal", {"internal error": str(exc)}, elapsed)
    raise exc
