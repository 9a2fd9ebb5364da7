import json
import math

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from bergersphere import cli, diameter
from bergersphere.serialize import fmt17, json_text


def _render_reference(obj, level: int, out: list) -> None:
    # the renderer as it was before json.dumps wrote the scalars, one branch per
    # type: the reference for json_text's bytes and exception types
    pad = "  " * (level + 1)  # two spaces per level
    close_pad = "  " * level
    if isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        out.append("{\n")
        for i, (key, value) in enumerate(obj.items()):
            out.append(pad)
            out.append(json.dumps(str(key)))
            out.append(": ")
            _render_reference(value, level + 1, out)
            out.append(",\n" if i < len(obj) - 1 else "\n")
        out.append(close_pad + "}")
    elif isinstance(obj, (list, tuple)):
        if not obj:
            out.append("[]")
            return
        out.append("[\n")
        for i, value in enumerate(obj):
            out.append(pad)
            _render_reference(value, level + 1, out)
            out.append(",\n" if i < len(obj) - 1 else "\n")
        out.append(close_pad + "]")
    elif obj is None:
        out.append("null")
    elif isinstance(obj, bool):
        out.append("true" if obj else "false")
    elif isinstance(obj, int):
        out.append(repr(obj))
    elif isinstance(obj, float):
        out.append(fmt17(obj))
    elif isinstance(obj, str):
        out.append(json.dumps(obj))
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")


def _json_text_reference(obj) -> str:
    out: list = []
    _render_reference(obj, 0, out)
    out.append("\n")
    return "".join(out)


_FLOATS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(allow_nan=False, allow_infinity=False).map(np.float64),
    st.sampled_from([-0.0, 5e-324, -2.225073858507201e-308, 1.7e308, np.float64(-0.0)]),
)
_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(), st.integers(-2**256, 2**256), _FLOATS,
    st.text(), st.sampled_from(['"', "\\", "\n\t\r\b\f", "\x00\x1f\x7f", "\u00e9\u2028", "\ud800"]),
)


def _nested(depth):
    # scalars, and dicts with str keys, lists and tuples of _nested(depth - 1), empty ones too
    if depth == 0:
        return _SCALARS
    kids = _nested(depth - 1)
    return st.one_of(_SCALARS, st.lists(kids, max_size=3), st.lists(kids, max_size=3).map(tuple),
                     st.dictionaries(st.text(), kids, max_size=3))


class TestFmt17:
    def test_round_trip_examples(self):
        for x in (0.1, 1.0, -2.5e-300, 6.283185307179586, 1e17):
            assert float(fmt17(x)) == x

    @given(st.floats(allow_nan=False, allow_infinity=False))
    def test_round_trip(self, x):
        assert float(fmt17(x)) == x

    @pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite(self, x):
        with pytest.raises(ValueError):
            fmt17(x)


class TestJsonText:
    def test_parses_and_preserves_values(self):
        payload = {"a": 1, "b": 0.1, "c": None, "d": [True, "x", 2.5], "e": {}}
        parsed = json.loads(json_text(payload))
        assert parsed == payload | {"d": [True, "x", 2.5]}

    def test_deterministic(self):
        payload = {"rows": [{"x": 1.0 / 3.0, "y": None}], "n": 2}
        assert json_text(payload) == json_text(payload)

    def test_trailing_newline(self):
        assert json_text({"k": 1.5}).endswith("}\n")

    def test_float_digits(self):
        assert '"x": 0.69999999999999996' in json_text({"x": 0.7})

    def test_bool_not_rendered_as_int(self):
        assert json_text({"flag": True}) == '{\n  "flag": true\n}\n'

    def test_rejects_unknown_type(self):
        with pytest.raises(TypeError):
            json_text({"x": object()})


class TestAgainstReference:
    @given(_nested(3))
    @example({"a": [], "b": (), "c": {}, "d": [[], ({},)]})
    @example([])
    @example(())
    def test_same_bytes(self, payload):
        assert json_text(payload) == _json_text_reference(payload)

    @pytest.mark.parametrize("argv", [
        ["--i1", "3", "--i3", "1", "diameter"],
        ["--i1", "1", "--i3", "2", "diameter"],
        ["--i1", "1.7e308", "--i3", "1", "diameter"],
        ["--i1", "5e-324", "--i3", "5e-324", "diameter"],
        ["--i1", "2", "--i3", "1", "exp", "--pbar3", "0.5", "--t", "2"],
        ["--i1", "1e-300", "--i3", "1e-300", "exp", "--pbar3", "1", "--t", "6.3e-150"],
    ])
    def test_real_payloads(self, monkeypatch, capsys, argv):
        # the diameter report and the exp endpoint, as the CLI builds them
        payloads = []

        def capture(payload):
            payloads.append(payload)
            return json_text(payload)
        monkeypatch.setattr(cli, "json_text", capture)
        monkeypatch.setattr(diameter, "json_text", capture)
        assert cli.main(argv) == 0
        [payload] = payloads
        assert capsys.readouterr().out == _json_text_reference(payload)

    @pytest.mark.parametrize("bad", [
        object(), np.int64(1), np.bool_(True), np.float32(0.5), 1j, b"x", {1}, math.nan, -math.inf,
        np.float64(math.inf),
    ], ids=repr)
    @pytest.mark.parametrize("place", [lambda v: v, lambda v: {"k": [1.0, v]}, lambda v: ({}, {"k": v})])
    def test_same_exceptions(self, bad, place):
        with pytest.raises((TypeError, ValueError)) as want:
            _json_text_reference(place(bad))
        with pytest.raises((TypeError, ValueError)) as got:
            json_text(place(bad))
        assert got.type is want.type
