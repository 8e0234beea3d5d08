"""Property tests: malformed tensor, witness and matrix JSON never escapes
as a traceback.

Every payload either parses, or the parser raises InputError and the CLI
prints one "error:" line and exits 2 (matrix JSON has no CLI reader, so
there only the parser is run).  A payload parses only if its dims,
indices, rows and cols are JSON integers and no scalar part is a
boolean: nothing is coerced.  Payloads are arbitrary JSON values and
single-field replacements or deletions in a valid file.  Numbers stay
small (plus the infinities and NaN that JSON readers accept), so the
dense-storage cap, a separate ResourceError, is not what runs here.
Examples are derandomized and bounded, so the suite stays deterministic.
"""

import json
import math

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from tenrank.bilinear import matrix_from_json
from tenrank.cli import main
from tenrank.decomp import decomposition_from_json, decomposition_to_json, w_rank3_decomposition
from tenrank.errors import InputError
from tenrank.tensors import tensor_from_json

FUZZ = settings(derandomize=True, max_examples=100, database=None, deadline=None,
                suppress_health_check=[HealthCheck.function_scoped_fixture])

KEYS = ["dims", "entries", "terms", "exact", "i", "re", "im", "a", "b", "c",
        "rows", "cols", "data"]
#: short strings over the characters of rationals and of a few keys
TEXT = st.text(alphabet="0123456789/-+. eEabcijmx", max_size=5)

json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 6) | TEXT
    | st.floats(-8, 8) | st.sampled_from([math.inf, -math.inf, math.nan])
    | st.sampled_from(["1/2", "-3", "0", "1/0", "x"]),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.sampled_from(KEYS) | TEXT, children, max_size=4),
    max_leaves=12,
)

VALID_TENSOR = {"dims": [2, 2, 2], "entries": [{"i": [0, 0, 1], "re": "1"},
                                               {"i": [1, 1, 0], "re": "1/2", "im": "-3"}]}
VALID_WITNESS = decomposition_to_json(w_rank3_decomposition())
VALID_MATRIX = {"rows": 2, "cols": 1, "data": [["1/2"], [{"re": "0", "im": "-3"}]]}


def _paths(value, path=()):
    """Every path to a sub-value of a JSON value, the root included."""
    yield path
    children = value.items() if isinstance(value, dict) else (
        enumerate(value) if isinstance(value, list) else ())
    for key, child in children:
        yield from _paths(child, path + (key,))


def _edited(value, path, replacement, delete):
    if not path:
        return replacement
    head, rest = path[0], path[1:]
    copy = dict(value) if isinstance(value, dict) else list(value)
    if delete and not rest:
        del copy[head]
    else:
        copy[head] = _edited(value[head], rest, replacement, delete)
    return copy


def payloads(valid):
    """Arbitrary JSON, or `valid` with one sub-value replaced or deleted."""
    paths = list(_paths(valid))
    edits = st.builds(lambda path, new, delete: _edited(valid, path, new, delete and bool(path)),
                      st.sampled_from(paths), json_values, st.booleans())
    return json_values | edits


def _parses(parse, payload) -> bool:
    try:
        parse(payload)
    except InputError:
        return False
    return True


def _exact_ints(values) -> bool:
    return all(type(x) is int for x in values)


def _no_bool_scalars(values) -> bool:
    parts = [part for v in values
             for part in ((v.get("re"), v.get("im")) if isinstance(v, dict) else (v,))]
    return not any(isinstance(part, bool) for part in parts)


def _tensor_uncoerced(payload) -> bool:
    entries = payload.get("entries", [])
    return (_exact_ints(payload["dims"]) and all(_exact_ints(e["i"]) for e in entries)
            and _no_bool_scalars(entries))


def _witness_uncoerced(payload) -> bool:
    return _exact_ints(payload["dims"]) and all(
        _no_bool_scalars(term[leg]) for term in payload["terms"] for leg in "abc")


#: a coercion the parsers once accepted: 2.9 read as 2, true as 1
COERCED_TENSOR = {"dims": [2.9, 2, True], "entries": [{"i": [0, 1.7, 0], "re": True}]}
COERCED_WITNESS = {"dims": [2.9, 2, True],
                   "terms": [{"a": [True, "0"], "b": ["1", "0"], "c": ["1"]}]}


def _run(capsys, tmp_path, payload, *argv):
    path = tmp_path / "payload.json"
    path.write_text(json.dumps(payload))
    code = main([arg.replace("FILE", str(path)) for arg in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@FUZZ
@given(payload=payloads(VALID_TENSOR))
@example(payload=None)
@example(payload=[2, 2, 2])
@example(payload={"dims": [math.inf, 2, 2]})
@example(payload={"dims": [2, 2, 2], "entries": [{"i": [0, -math.inf, 0], "re": "1"}]})
@example(payload=COERCED_TENSOR)
@example(payload={"dims": [2, 2, 2], "entries": [{"i": [0, 1, 0], "re": "1", "im": False}]})
@example(payload={"dims": [2, 2, 2], "entries": [{"i": [0, "1", 0], "re": "1"}]})
@example(payload={"dims": [2, 2, True], "entries": [{"i": [0, 1, False], "re": "1"}]})
def test_tensor_json_parses_or_exits_2(payload, capsys, tmp_path):
    code, out, err = _run(capsys, tmp_path, payload, "state", "FILE")
    if _parses(tensor_from_json, payload):
        assert code == 0 and _tensor_uncoerced(payload), payload
    else:
        assert code == 2 and out == "" and err.startswith("error:"), (payload, err)


@FUZZ
@given(payload=payloads(VALID_WITNESS))
@example(payload=None)
@example(payload=[])
@example(payload={"dims": [2, math.inf, 2], "terms": []})
@example(payload={"dims": [0, 2, 2], "terms": []})
@example(payload=COERCED_TENSOR)
@example(payload=COERCED_WITNESS)
@example(payload={"dims": [2, 2, True], "terms": []})
@example(payload={"dims": [2, 2, 2], "terms": [{"a": [1, 0], "b": [1, 0],
                                                "c": [{"re": 1, "im": True}, 0]}]})
def test_witness_json_parses_or_exits_2(payload, capsys, tmp_path):
    code, out, err = _run(capsys, tmp_path, payload, "verify", "W", "--witness", "FILE")
    if _parses(decomposition_from_json, payload):
        assert code in (0, 3) and _witness_uncoerced(payload), payload
    else:
        assert code == 2 and out == "" and err.startswith("error:"), (payload, err)


@FUZZ
@given(payload=payloads(VALID_MATRIX))
@example(payload=None)
@example(payload={"rows": 1.9, "cols": 1, "data": [["1"]]})
@example(payload={"rows": 1, "cols": True, "data": [["1"]]})
@example(payload={"rows": "1", "cols": 1, "data": [["1"]]})
def test_matrix_json_parses_or_raises_input_error(payload):
    if _parses(matrix_from_json, payload):
        rows, cols = payload["rows"], payload["cols"]
        assert _exact_ints([rows, cols]), payload
        assert len(payload["data"]) == rows
        assert all(len(row) == cols and _no_bool_scalars(row) for row in payload["data"])
