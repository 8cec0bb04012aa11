"""Command line front end.

Every command reads one JSON document (see :mod:`pncalc.document`),
runs one check or construction, and prints one report. Exit codes match
the report verdict: 0 when the check passes, 1 when the mathematics
fails (including violated preconditions), 2 when the input cannot be
parsed, 3 when two internal certificates disagree (a bug in pncalc, never
the input). ``--json`` switches the report to a byte-stable JSON rendering.

Checks report residuals; constructions (torsion, koszul, algebroid
diff, dual-poisson, jet-algebroid, base projection) reuse the residual
map to carry the computed components, and pass whenever the inputs met
the hypotheses.

``COMMANDS`` is the single command table: each handler registers itself
with ``@_command``, giving its argv words, help line and option adders.
The parser tree, the one-leaf fast path of ``main`` and ``HANDLERS`` are
all read from it, so a command is named and described in one place.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from . import algebroid as ab
from . import document
from . import groupoid_desk as gd
from . import jacobi as jc
from . import poisson_nijenhuis as pn
from . import report as report_mod
from . import suite as suite_mod
from .errors import InputError, InternalError, PreconditionError
from .report import Report


# -- command table --------------------------------------------------------------


def _json_option(parser):
    parser.add_argument("--json", action="store_true", help="print a byte-stable JSON report")


def _input_option(parser):
    parser.add_argument("--input", required=True, metavar="FILE", help="JSON document")


def _max_order_option(parser):
    parser.add_argument(
        "--max-order", type=int, default=3, metavar="K", help="highest power (default 3)"
    )


_DOCUMENT = (_json_option, _input_option)  # the options of a command reading a document

# argv words -> (handler, help line, option adders), in help order
COMMANDS = {}


def _command(name, help_text, options=_DOCUMENT):
    """Register the decorated handler as the leaf command ``name``."""

    def register(handler):
        COMMANDS[tuple(name.split())] = (handler, help_text, options)
        return handler

    return register


# -- handlers -------------------------------------------------------------------


def _labelled(prefix, values):
    """Nonzero entries of an index-keyed map as prefix(i,j,...), in index order."""
    return {
        f"{prefix}({document.key_of(idx)})": str(value)
        for idx, value in sorted(values.items())
        if not value.is_zero()
    }


def _first_bivector(doc, command):
    return doc.require("bivectors", command)[0]


@_command("check-poisson", "does the bracket of the bivector with itself vanish")
def _check_poisson(doc, args, command):
    return report_mod.from_verdict(command, pn.is_poisson(_first_bivector(doc, command)))


def _torsion_map(doc, command):
    """Nonzero components of the Nijenhuis torsion of the document's tensor."""
    return _labelled("torsion", pn.nijenhuis_torsion(doc.require("tensor11", command)))


@_command("check-nijenhuis", "does the torsion of the (1,1)-tensor vanish")
def _check_nijenhuis(doc, args, command):
    residuals = _torsion_map(doc, command)
    return Report(command, "fail" if residuals else "pass", residuals)


@_command("check-pn", "are the bivector and tensor a compatible pair")
def _check_pn(doc, args, command):
    pi = _first_bivector(doc, command)
    tensor = doc.require("tensor11", command)
    return report_mod.from_verdict(command, pn.is_pn_pair(pi, tensor))


@_command("torsion", "print the nonzero torsion components of the tensor")
def _torsion(doc, args, command):
    return report_mod.from_values(command, _torsion_map(doc, command))


@_command("koszul", "bracket of two one-forms induced by the bivector")
def _koszul(doc, args, command):
    pi = _first_bivector(doc, command)
    forms = doc.require("forms", command)
    if len(forms) < 2:
        raise InputError(f"{command} needs a form block listing two one-forms")
    alpha, beta = forms[0], forms[1]
    for which, form in (("first", alpha), ("second", beta)):
        if form.degree != 1:
            raise InputError(f"{command}: the {which} form must have degree 1")
    bracket = pn.koszul_bracket(pi, alpha, beta)
    return report_mod.from_values(command, _labelled("bracket", bracket.components))


@_command("concomitant", "mixed-pair residuals of the bivector and tensor")
def _concomitant(doc, args, command):
    pi = _first_bivector(doc, command)
    tensor = doc.require("tensor11", command)
    npi = pn.n_bivector(pi, tensor)
    residuals = _labelled("concomitant", pn.concomitant_map(pi, tensor, npi))
    return Report(command, "fail" if residuals else "pass", residuals)


@_command(
    "hierarchy",
    "powers of the tensor applied to the bivector, pairwise brackets",
    _DOCUMENT + (_max_order_option,),
)
def _hierarchy(doc, args, command):
    pi = _first_bivector(doc, command)
    tensor = doc.require("tensor11", command)
    result = pn.hierarchy(pi, tensor, args.max_order)
    if result.ok:
        values = {f"pi_{k}": str(b) for k, b in enumerate(result.bivectors)}
        return report_mod.from_values(command, values)
    return Report(command, "fail", result.residuals())


@_command("complementary", "build the tensor induced by a closed two-form")
def _complementary(doc, args, command):
    pi = _first_bivector(doc, command)
    forms = doc.require("forms", command)
    result = pn.complementary_build(pi, forms[0])
    if result.ok:
        return Report(command, "pass", {"tensor": str(result.tensor)})
    return Report(command, "fail", result.residuals())


@_command("holomorphic", "real/imaginary pair test against an almost complex tensor")
def _holomorphic(doc, args, command):
    bivectors = doc.require("bivectors", command)
    if len(bivectors) < 2:
        raise InputError(
            f"{command} needs a bivector block listing [real, imaginary] parts"
        )
    tensor = doc.require("tensor11", command)
    verdict = pn.holomorphic_check(bivectors[0], bivectors[1], tensor)
    return report_mod.from_verdict(command, verdict)


@_command("algebroid validate", "check the algebroid axioms")
def _algebroid_validate(doc, args, command):
    alg = doc.require("algebroid", command)
    return report_mod.from_verdict(command, ab.algebroid_validate(alg))


@_command("algebroid diff", "apply the differential to the section block")
def _algebroid_diff(doc, args, command):
    alg = doc.require("algebroid", command)
    section = doc.algebroid_section
    if section is None:
        raise InputError(f"{command} needs a section block inside the algebroid block")
    image = ab.algebroid_differential(alg, section)
    return report_mod.from_values(command, _labelled("d", image.components))


@_command("algebroid dual-poisson", "fiberwise-linear bivector on the dual chart")
def _algebroid_dual_poisson(doc, args, command):
    alg = doc.require("algebroid", command)
    dual = ab.dual_linear_poisson(alg)
    values = {"chart": ", ".join(dual.chart.coords)}
    values.update(_labelled("pi", dual.components))
    return report_mod.from_values(command, values)


@_command("algebroid compat", "three compatibility certificates for two structures")
def _algebroid_compat(doc, args, command):
    first, second = doc.require("algebroid_pair", command)
    return report_mod.from_verdict(command, ab.compat_check(first, second))


@_command("algebroid bialgebroid", "is the dual differential a bracket derivation")
def _algebroid_bialgebroid(doc, args, command):
    first, second = doc.require("algebroid_pair", command)
    return report_mod.from_verdict(command, ab.bialgebroid_check(first, second))


@_command("algebroid pn-bialgebroid", "full staged check for a compatible pair")
def _algebroid_pn_bialgebroid(doc, args, command):
    pi = _first_bivector(doc, command)
    tensor = doc.require("tensor11", command)
    return report_mod.from_verdict(command, ab.pn_bialgebroid_check(pi, tensor))


@_command("jacobi check", "do both closedness identities hold")
def _jacobi_check(doc, args, command):
    pair = doc.require("jacobi", command)[0]
    return report_mod.from_verdict(command, jc.is_jacobi(pair))


@_command("jacobi compat", "mixed twisted bracket of two pairs")
def _jacobi_compat(doc, args, command):
    pairs = doc.require("jacobi", command)
    if len(pairs) < 2:
        raise InputError(f"{command} needs a jacobi block listing two pairs")
    return report_mod.from_verdict(command, jc.jacobi_compat(pairs[0], pairs[1]))


@_command("jacobi jet-algebroid", "print the extended-frame algebroid of a pair")
def _jacobi_jet(doc, args, command):
    pair = doc.require("jacobi", command)[0]
    jet = jc.first_jet_algebroid(pair)
    values = {"basis": ", ".join(jet.basis)}
    for k, name in enumerate(jet.basis):
        values[f"anchor({name})"] = "(" + ", ".join(str(e) for e in jet.anchor[k]) + ")"
    for (i, j), row in sorted(jet.structure.items()):
        terms = [
            f"({e})*{name}" for e, name in zip(row, jet.basis) if not e.is_zero()
        ]
        values[f"[{jet.basis[i]},{jet.basis[j]}]"] = " + ".join(terms) if terms else "0"
    return report_mod.from_values(command, values)


def _require_groupoid(doc, command, bivector=False, tensor=False):
    groupoid = doc.require("groupoid", command)
    pi = doc.groupoid_bivector
    n_tensor = doc.groupoid_tensor
    if bivector and pi is None:
        raise InputError(f"{command} needs a bivector inside the pair_groupoid block")
    if tensor and n_tensor is None:
        raise InputError(f"{command} needs a tensor11 inside the pair_groupoid block")
    return groupoid, pi, n_tensor


@_command("groupoid multiplicative", "is the tensor invariant on the multiplication graph")
def _groupoid_multiplicative(doc, args, command):
    groupoid, _, tensor = _require_groupoid(doc, command, tensor=True)
    return report_mod.from_verdict(
        command, gd.multiplicativity_check_tensor(groupoid, tensor)
    )


@_command("groupoid poisson", "is the multiplication graph coisotropic")
def _groupoid_poisson(doc, args, command):
    groupoid, pi, _ = _require_groupoid(doc, command, bivector=True)
    return report_mod.from_verdict(command, gd.poisson_groupoid_check(groupoid, pi))


@_command("groupoid pn", "all four groupoid certificates")
def _groupoid_pn(doc, args, command):
    groupoid, pi, tensor = _require_groupoid(doc, command, bivector=True, tensor=True)
    return report_mod.from_verdict(command, gd.pn_groupoid_check(groupoid, pi, tensor))


@_command("groupoid base", "project the groupoid pair back to the base")
def _groupoid_base(doc, args, command):
    groupoid, pi, tensor = _require_groupoid(doc, command, bivector=True, tensor=True)
    result = gd.base_structure(groupoid, pi, tensor)
    if result.ok:
        values = {"bivector": str(result.pi), "tensor": str(result.tensor)}
        return report_mod.from_values(command, values)
    return Report(command, "fail", result.residuals())


@_command(
    "groupoid coisotropic-invariant", "joint check on a submanifold (default: the unit diagonal)"
)
def _groupoid_coisotropic_invariant(doc, args, command):
    groupoid, pi, tensor = _require_groupoid(doc, command, bivector=True, tensor=True)
    sub = doc.submanifold if doc.submanifold is not None else groupoid.unit_diagonal()
    return report_mod.from_verdict(
        command, gd.coisotropic_invariant_check(pi, tensor, sub)
    )


_command("suite", "run the acceptance battery", (_json_option,))(None)  # main() runs it

# command name -> handler, a view of COMMANDS without suite
HANDLERS = {" ".join(words): entry[0] for words, entry in COMMANDS.items() if entry[0]}

_GROUP_HELP = {
    "algebroid": "anchored bracket structures",
    "jacobi": "bivector and field pairs",
    "groupoid": "pair-groupoid desk checks",
}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="pncalc",
        description="Exact desk checks for bivectors, tensors, algebroids, and groupoids.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")
    group_subs = {}
    for words, (_, help_text, options) in COMMANDS.items():
        parent = sub
        if len(words) == 2:
            group = words[0]
            if group not in group_subs:
                group_parser = sub.add_parser(group, help=_GROUP_HELP[group])
                group_subs[group] = group_parser.add_subparsers(
                    dest="subcommand", required=True, metavar="SUBCOMMAND"
                )
            parent = group_subs[group]
        leaf = parent.add_parser(words[-1], help=help_text)
        for add_option in options:
            add_option(leaf)
    return parser


def _parse_command(argv):
    """The argv words of the command and its parsed options.

    When argv starts with the words of a leaf command and its options parse
    completely, only that leaf's parser is built. Anything else (help at a
    group or the top, unknown commands, unrecognized arguments, which the
    top-level parser reports) goes through the full tree of build_parser(),
    so help and error output are the same either way.
    """
    for size in (1, 2):
        words = tuple(argv[:size])
        if words in COMMANDS:
            leaf = argparse.ArgumentParser(prog=" ".join(("pncalc",) + words))
            for add_option in COMMANDS[words][2]:
                add_option(leaf)
            args, unknown = leaf.parse_known_args(argv[size:])
            if not unknown:
                return words, args
            break
    args = build_parser().parse_args(argv)
    if getattr(args, "subcommand", None):
        return (args.command, args.subcommand), args
    return (args.command,), args


def _emit_suite(reports, as_json):
    if as_json:
        data = [r.to_data(stable=True) for r in reports]
        print(json.dumps(data, sort_keys=True, indent=2))
    else:
        for r in reports:
            detail = r.residuals.get("checked")
            if detail is None and r.residuals:
                key = next(iter(r.residuals))
                detail = f"{key} = {r.residuals[key]}"
            line = f"{r.command}: {r.verdict}"
            if r.elapsed is not None:
                line += f" ({r.elapsed:.2f} s)"
            if detail:
                line += f" -- {detail}"
            print(line)
    return 0 if all(r.ok for r in reports) else 1


def main(argv=None):
    words, args = _parse_command(sys.argv[1:] if argv is None else list(argv))
    handler = COMMANDS[words][0]
    if handler is None:
        return _emit_suite(suite_mod.run_all(), args.json)

    command = " ".join(words)
    started = time.perf_counter()
    try:
        doc = document.load_document(args.input)
        rep = handler(doc, args, command)
    except (PreconditionError, InputError, InternalError) as exc:
        rep = report_mod.from_exception(command, exc)
    elapsed = time.perf_counter() - started
    rep = Report(rep.command, rep.verdict, rep.residuals, elapsed)
    print(rep.render_json() if args.json else rep.render_text())
    return rep.exit_code


if __name__ == "__main__":
    sys.exit(main())
