"""JSON documents describing charts, tensors, algebroids, and groupoids.

A document is one JSON object. It always carries a ``chart`` block naming
the coordinates, plus any of the structure blocks below. Component maps
key polynomial strings by comma-separated 1-based index tuples, and keys
of antisymmetric structures must be strictly increasing; ``"1,2"`` is
accepted where ``"2,1"`` is rejected rather than silently sign-adjusted.

    {
      "chart": {"dim": 3, "coordinates": ["x1", "x2", "x3"]},
      "bivector": {"1,2": "x3", "1,3": "-x2", "2,3": "x1"}
    }

Block shapes:

* ``bivector``: component map, or a list of two such maps where a command
  needs an ordered pair (the holomorphic check reads [real, imaginary]).
* ``tensor11``: dense row matrix ``[["1", "0"], ["0", "1"]]`` or a sparse
  component map keyed ``"i,j"`` with absent entries zero.
* ``form`` / ``multivector``: ``{"degree": k, "components": {...}}``;
  ``form`` may be a list when a command wants several.
* ``algebroid``: ``rank``, ``basis`` names, ``anchor`` as one column per
  basis section (each a list of dim strings), ``structure`` keyed by
  strictly increasing ``"i,j"`` over the basis with one row of rank
  strings per key, and an optional ``section`` block shaped like ``form``.
* ``algebroid_pair``: ``{"first": <algebroid>, "second": <algebroid>}``.
* ``jacobi``: ``{"bivector": {...}, "field": {"i": "..."}}`` or a list of
  two such objects.
* ``pair_groupoid``: the document chart is the base; give ``bivector`` /
  ``tensor11`` blocks to mean the standard difference and block-diagonal
  lifts, or ``total_bivector`` / ``total_tensor11`` keyed on the doubled
  chart (base coordinates then their ``y_`` copies) for arbitrary data.
* ``submanifold``: ``{"constraints": ["x1 - 1", ...]}``, affine-linear
  polynomials cutting the locus; parsed on the doubled chart when a
  ``pair_groupoid`` block is present, on the document chart otherwise.

The ``bivector`` map, the ``components`` of ``form``, ``multivector`` and
``section``, and the jacobi ``field`` share one component grammar: each key
names ``k`` strictly increasing indices over a frame, and each value is a
polynomial string on the chart. The frame is the chart, except for a
``section``, whose indices run over the algebroid basis (1..rank).

``parse_document`` rejects unknown keys, duplicate JSON keys, indices
out of range, non-increasing antisymmetric keys, and a ``chart.dim`` that
is not the integer count of the coordinates, so a typo fails loudly
instead of vanishing into a zero component.
"""

from __future__ import annotations

import json

from . import groupoid_desk
from .algebroid import AlgebroidData, AlgebroidSection
from .cartan import Chart, DiffForm, MultiVector
from .errors import InputError
from .jacobi import JacobiPair
from .poisson_nijenhuis import TensorOneOne
from .polyalg import Polynomial

_BLOCKS = (
    "bivector",
    "tensor11",
    "form",
    "multivector",
    "algebroid",
    "algebroid_pair",
    "jacobi",
    "pair_groupoid",
    "submanifold",
)


def _reject_duplicates(pairs):
    out = {}
    for key, value in pairs:
        if key in out:
            raise InputError(f"duplicate JSON key {key!r}")
        out[key] = value
    return out


def _is_int(value):
    # JSON true and false load as bool, which is a subclass of int
    return isinstance(value, int) and not isinstance(value, bool)


def _expect_object(value, where):
    if not isinstance(value, dict):
        raise InputError(f"{where} must be a JSON object")
    return value


def _check_keys(data, allowed, where):
    extra = sorted(set(data) - set(allowed))
    if extra:
        raise InputError(f"unknown keys in {where}: {', '.join(extra)}")


def _parse_key(key, bound, where, increasing):
    """A comma-separated 1-based index tuple, returned 0-based."""
    if not isinstance(key, str):
        raise InputError(f"{where}: component keys must be strings")
    if key == "":
        return ()
    parts = key.split(",")
    idx = []
    for part in parts:
        part = part.strip()
        if not part or not (part.isdigit() or (part[0] == "-" and part[1:].isdigit())):
            raise InputError(f"{where}: bad index {part!r} in key {key!r}")
        idx.append(int(part))
    for i in idx:
        if not 1 <= i <= bound:
            raise InputError(f"{where}: index {i} out of range 1..{bound} in key {key!r}")
    if increasing and any(a >= b for a, b in zip(idx, idx[1:])):
        raise InputError(f"{where}: key {key!r} must be strictly increasing")
    return tuple(i - 1 for i in idx)


def _parse_components(data, frame, degree, where):
    """Degree-k components over a frame, a Chart or (for a section) an
    AlgebroidData: indices run to frame.rank, values parse on frame.base."""
    data = _expect_object(data, where)
    comps = {}
    for key, text in data.items():
        idx = _parse_key(key, frame.rank, where, increasing=True)
        if len(idx) != degree:
            raise InputError(f"{where}: key {key!r} has {len(idx)} indices, expected {degree}")
        if not isinstance(text, str):
            raise InputError(f"{where}: component {key!r} must be a polynomial string")
        comps[idx] = frame.base.parse(text)
    return comps


def _parse_bivector(data, chart, where="bivector"):
    return MultiVector(chart, 2, _parse_components(data, chart, 2, where))


def _parse_graded(cls, data, frame, where):
    data = _expect_object(data, where)
    _check_keys(data, ("degree", "components"), where)
    degree = data.get("degree")
    if not _is_int(degree) or degree < 0:
        raise InputError(f"{where}: degree must be a nonnegative integer")
    comps = _parse_components(data.get("components", {}), frame, degree, where)
    return cls(frame, degree, comps)


def _one_or_list(block, parse, where):
    """Parse a block given as one object or as a list; list items are named where[i]."""
    if isinstance(block, list):
        return tuple(parse(item, f"{where}[{i}]") for i, item in enumerate(block))
    return (parse(block, where),)


def _parse_tensor11(data, chart, where="tensor11"):
    n = chart.dim
    if isinstance(data, list):
        if len(data) != n or any(not isinstance(r, list) or len(r) != n for r in data):
            raise InputError(f"{where}: expected {n} rows of {n} entries")
        for row in data:
            for entry in row:
                if not isinstance(entry, str):
                    raise InputError(f"{where}: entries must be polynomial strings")
        return TensorOneOne(chart, [[chart.parse(e) for e in row] for row in data])
    data = _expect_object(data, where)
    entries = [[chart.zero() for _ in range(n)] for _ in range(n)]
    for key, text in data.items():
        idx = _parse_key(key, n, where, increasing=False)
        if len(idx) != 2:
            raise InputError(f"{where}: key {key!r} must name a matrix entry i,j")
        if not isinstance(text, str):
            raise InputError(f"{where}: entry {key!r} must be a polynomial string")
        entries[idx[0]][idx[1]] = chart.parse(text)
    return TensorOneOne(chart, entries)


def _parse_algebroid(data, chart, where="algebroid"):
    data = _expect_object(data, where)
    _check_keys(data, ("rank", "basis", "anchor", "structure", "section"), where)
    rank = data.get("rank")
    if not _is_int(rank) or rank < 1:
        raise InputError(f"{where}: rank must be a positive integer")
    basis = data.get("basis")
    if (
        not isinstance(basis, list)
        or len(basis) != rank
        or any(not isinstance(b, str) for b in basis)
    ):
        raise InputError(f"{where}: basis must list {rank} section names")
    anchor = data.get("anchor", [[
        "0" for _ in range(chart.dim)] for _ in range(rank)])
    if not isinstance(anchor, list) or len(anchor) != rank:
        raise InputError(f"{where}: anchor needs one column per basis section")
    cols = []
    for col in anchor:
        if not isinstance(col, list) or len(col) != chart.dim:
            raise InputError(f"{where}: anchor columns need {chart.dim} entries")
        if any(not isinstance(e, str) for e in col):
            raise InputError(f"{where}: anchor entries must be polynomial strings")
        cols.append(tuple(chart.parse(e) for e in col))
    table = {}
    structure = _expect_object(data.get("structure", {}), f"{where}.structure")
    for key, row in structure.items():
        idx = _parse_key(key, rank, f"{where}.structure", increasing=True)
        if len(idx) != 2:
            raise InputError(f"{where}.structure: key {key!r} must name a pair i,j")
        if not isinstance(row, list) or len(row) != rank:
            raise InputError(f"{where}.structure: entry {key!r} needs {rank} components")
        if any(not isinstance(e, str) for e in row):
            raise InputError(f"{where}.structure: components must be polynomial strings")
        table[idx] = tuple(chart.parse(e) for e in row)
    alg = AlgebroidData(chart, rank, basis, cols, table)
    section = None
    if "section" in data:
        section = _parse_graded(AlgebroidSection, data["section"], alg, f"{where}.section")
    return alg, section


def _parse_jacobi(data, chart, where="jacobi"):
    data = _expect_object(data, where)
    _check_keys(data, ("bivector", "field"), where)
    if "bivector" not in data:
        raise InputError(f"{where}: missing bivector")
    pi = _parse_bivector(data["bivector"], chart, f"{where}.bivector")
    field = _parse_components(data.get("field", {}), chart, 1, f"{where}.field")
    return JacobiPair(pi, MultiVector(chart, 1, field))


class Document:
    """Parsed content of one input file.

    Fields are None (or empty tuples) when the block is absent. The
    ``bivectors``, ``forms``, and ``jacobi`` fields are tuples so commands
    that need an ordered pair of inputs read positions 0 and 1.
    """

    __slots__ = (
        "chart",
        "bivectors",
        "tensor11",
        "forms",
        "multivector",
        "algebroid",
        "algebroid_section",
        "algebroid_pair",
        "jacobi",
        "groupoid",
        "groupoid_bivector",
        "groupoid_tensor",
        "submanifold",
    )

    def __init__(self, **fields):
        for name in self.__slots__:
            default = () if name in ("bivectors", "forms", "jacobi") else None
            object.__setattr__(self, name, fields.pop(name, default))
        if fields:
            raise InputError(f"unknown document fields: {sorted(fields)}")

    def __setattr__(self, name, value):
        raise AttributeError("Document is immutable")

    def __eq__(self, other):
        if not isinstance(other, Document):
            return NotImplemented
        return to_data(self) == to_data(other)

    __hash__ = None

    def require(self, field, command):
        """Fetch a block, failing with a message that names the command."""
        value = getattr(self, field)
        if value is None or value == ():
            block = {"bivectors": "bivector", "forms": "form"}.get(field, field)
            raise InputError(f"{command} needs a {block!r} block in the input document")
        return value


def parse_document(data):
    data = _expect_object(data, "document")
    _check_keys(data, ("chart",) + _BLOCKS, "document")
    if "chart" not in data:
        raise InputError("document needs a chart block")
    chart_block = _expect_object(data["chart"], "chart")
    _check_keys(chart_block, ("dim", "coordinates"), "chart")
    coords = chart_block.get("coordinates")
    if not isinstance(coords, list) or any(not isinstance(c, str) for c in coords):
        raise InputError("chart.coordinates must be a list of names")
    chart = Chart(tuple(coords))
    dim = chart_block.get("dim", chart.dim)
    if not _is_int(dim):
        raise InputError("chart.dim must be an integer")
    if dim != chart.dim:
        raise InputError(f"chart.dim is {dim} but {chart.dim} coordinates are given")

    fields = {"chart": chart}

    if "bivector" in data:
        fields["bivectors"] = _one_or_list(
            data["bivector"], lambda b, where: _parse_bivector(b, chart, where), "bivector"
        )
    if "tensor11" in data:
        fields["tensor11"] = _parse_tensor11(data["tensor11"], chart)
    if "form" in data:
        fields["forms"] = _one_or_list(
            data["form"], lambda f, where: _parse_graded(DiffForm, f, chart, where), "form"
        )
    if "multivector" in data:
        fields["multivector"] = _parse_graded(
            MultiVector, data["multivector"], chart, "multivector"
        )
    if "algebroid" in data:
        alg, section = _parse_algebroid(data["algebroid"], chart)
        fields["algebroid"] = alg
        fields["algebroid_section"] = section
    if "algebroid_pair" in data:
        block = _expect_object(data["algebroid_pair"], "algebroid_pair")
        _check_keys(block, ("first", "second"), "algebroid_pair")
        if "first" not in block or "second" not in block:
            raise InputError("algebroid_pair needs first and second blocks")
        first, _ = _parse_algebroid(block["first"], chart, "algebroid_pair.first")
        second, _ = _parse_algebroid(block["second"], chart, "algebroid_pair.second")
        fields["algebroid_pair"] = (first, second)
    if "jacobi" in data:
        fields["jacobi"] = _one_or_list(
            data["jacobi"], lambda j, where: _parse_jacobi(j, chart, where), "jacobi"
        )
    if "pair_groupoid" in data:
        block = _expect_object(data["pair_groupoid"], "pair_groupoid")
        _check_keys(
            block,
            ("bivector", "tensor11", "total_bivector", "total_tensor11"),
            "pair_groupoid",
        )
        groupoid = groupoid_desk.PairGroupoid(chart)
        total = groupoid.total
        pi = tensor = None
        if "bivector" in block and "total_bivector" in block:
            raise InputError("pair_groupoid: give bivector or total_bivector, not both")
        if "tensor11" in block and "total_tensor11" in block:
            raise InputError("pair_groupoid: give tensor11 or total_tensor11, not both")
        if "bivector" in block:
            pi = groupoid_desk.pair_bivector(
                groupoid, _parse_bivector(block["bivector"], chart, "pair_groupoid.bivector")
            )
        elif "total_bivector" in block:
            pi = _parse_bivector(block["total_bivector"], total, "pair_groupoid.total_bivector")
        if "tensor11" in block:
            tensor = groupoid_desk.pair_tensor(
                groupoid, _parse_tensor11(block["tensor11"], chart, "pair_groupoid.tensor11")
            )
        elif "total_tensor11" in block:
            tensor = _parse_tensor11(
                block["total_tensor11"], total, "pair_groupoid.total_tensor11"
            )
        fields["groupoid"] = groupoid
        fields["groupoid_bivector"] = pi
        fields["groupoid_tensor"] = tensor
    if "submanifold" in data:
        block = _expect_object(data["submanifold"], "submanifold")
        _check_keys(block, ("constraints",), "submanifold")
        constraints = block.get("constraints")
        if not isinstance(constraints, list) or any(
            not isinstance(c, str) for c in constraints
        ):
            raise InputError("submanifold.constraints must be a list of polynomial strings")
        ambient = fields["groupoid"].total if fields.get("groupoid") else chart
        fields["submanifold"] = groupoid_desk.AffineSubmanifold(
            ambient, [ambient.parse(c) for c in constraints]
        )

    return Document(**fields)


def loads_document(text):
    try:
        data = json.loads(text, object_pairs_hook=_reject_duplicates)
    except json.JSONDecodeError as exc:
        raise InputError(f"invalid JSON: {exc}") from exc
    return parse_document(data)


def load_document(path):
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    return loads_document(text)


# -- rendering ----------------------------------------------------------------


def key_of(idx):
    """The document key of a 0-based index tuple: 1-based, comma-separated."""
    return ",".join(str(i + 1) for i in idx)


def _components_data(graded):
    return {key_of(idx): str(poly) for idx, poly in sorted(graded.components.items())}


def _graded_data(graded):
    return {"degree": graded.degree, "components": _components_data(graded)}


def _one_or_list_data(blocks):
    return blocks[0] if len(blocks) == 1 else blocks


def _tensor_data(tensor):
    return [[str(e) for e in row] for row in tensor.entries]


def _algebroid_data(alg, section=None):
    out = {
        "rank": alg.rank,
        "basis": list(alg.basis),
        "anchor": [[str(e) for e in col] for col in alg.anchor],
        "structure": {
            key_of(key): [str(e) for e in row]
            for key, row in sorted(alg.structure.items())
        },
    }
    if section is not None:
        out["section"] = _graded_data(section)
    return out


def _jacobi_data(pair):
    return {
        "bivector": _components_data(pair.pi),
        "field": _components_data(pair.e),
    }


def _submanifold_data(sub):
    coords = sub.chart.coords
    out = []
    for row, b in zip(sub.rows, sub.rhs):
        poly = Polynomial.constant(coords, -b)
        for coeff, name in zip(row, coords):
            if coeff:
                poly = poly + Polynomial.variable(coords, name) * coeff
        out.append(str(poly))
    return {"constraints": out}


def to_data(doc):
    """The canonical JSON-ready dict; parse(to_data(doc)) reproduces doc."""
    data = {
        "chart": {"dim": doc.chart.dim, "coordinates": list(doc.chart.coords)}
    }
    if doc.bivectors:
        data["bivector"] = _one_or_list_data([_components_data(b) for b in doc.bivectors])
    if doc.tensor11 is not None:
        data["tensor11"] = _tensor_data(doc.tensor11)
    if doc.forms:
        data["form"] = _one_or_list_data([_graded_data(f) for f in doc.forms])
    if doc.multivector is not None:
        data["multivector"] = _graded_data(doc.multivector)
    if doc.algebroid is not None:
        data["algebroid"] = _algebroid_data(doc.algebroid, doc.algebroid_section)
    if doc.algebroid_pair is not None:
        data["algebroid_pair"] = {
            "first": _algebroid_data(doc.algebroid_pair[0]),
            "second": _algebroid_data(doc.algebroid_pair[1]),
        }
    if doc.jacobi:
        data["jacobi"] = _one_or_list_data([_jacobi_data(p) for p in doc.jacobi])
    if doc.groupoid is not None:
        block = {}
        if doc.groupoid_bivector is not None:
            block["total_bivector"] = _components_data(doc.groupoid_bivector)
        if doc.groupoid_tensor is not None:
            block["total_tensor11"] = _tensor_data(doc.groupoid_tensor)
        data["pair_groupoid"] = block
    if doc.submanifold is not None:
        data["submanifold"] = _submanifold_data(doc.submanifold)
    return data


def render_document(doc):
    """Canonical text form; stable under a parse and render round trip."""
    return json.dumps(to_data(doc), sort_keys=True, indent=2) + "\n"
