"""The one JSON writer's text equals ``json.dumps(obj, indent=2, sort_keys=True)``."""

import json
import math

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from agorank import dataio

# pieces that an encoder splicing brackets, separators or newlines could get wrong
_TRICKY = [
    '"', "\\", "[", "]", "{", "}", '", "', ",\n", ": ", "\n  ", "\x00", "\x1f", "\x7f",
    "é", " ", "\U0001f600", "\ud800", "\udc00",
]
_TEXT = st.lists(
    st.sampled_from(_TRICKY) | st.characters(exclude_categories=()), max_size=6
).map("".join)
_FLOATS = st.floats() | st.sampled_from([-0.0, 1e16, 5e-324, math.nan, math.inf, -math.inf])
_SCALARS = st.none() | st.booleans() | st.integers() | _FLOATS | _TEXT
_TREES = st.recursive(
    _SCALARS,
    lambda children: (
        st.lists(children, max_size=4)
        | st.lists(children, max_size=4).map(tuple)
        | st.dictionaries(_TEXT, children, max_size=4)
    ),
    max_leaves=30,
)


def dumps(obj):
    return "".join(dataio._json_slabs(obj))


@pytest.fixture(params=["c-encoder", "json-encoder"])
def encoder(request, monkeypatch):
    """Run with the C accelerator, then with the public ``JSONEncoder``
    fallback; slabs are cut every 3 pieces, so small trees cross slab ends."""
    monkeypatch.setattr(dataio, "_SLAB_PIECES", 3)
    if request.param == "json-encoder":
        monkeypatch.setattr(dataio, "c_make_encoder", None)
    dataio._layout.cache_clear()
    yield
    dataio._layout.cache_clear()


@settings(max_examples=300, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(_TREES)
@example([])
@example({})
@example([[], {}, [[]], {"a": {}}])
@example((1, ("x",), ()))
@example({"b": [True, False, None], "a": {"c": [-0.0, 1e16, 5e-324]}})
@example([math.nan, math.inf, -math.inf, {"x": [math.nan]}])
@example({'", "': ['", "', "]", "["], "\ud800": {"\\": '"'}})
def test_equals_json_dumps(encoder, obj):
    assert dumps(obj) == json.dumps(obj, indent=2, sort_keys=True)


def test_output_is_ascii(encoder):
    text = dumps({"é": ["\udc00", "☃"]})
    assert text.isascii()


def test_unserializable_value_raises_type_error(encoder):
    with pytest.raises(TypeError, match="not JSON serializable"):
        dumps({"a": [object()]})


def test_non_str_key_in_a_walked_dict_raises_type_error(encoder):
    with pytest.raises(TypeError, match="keys must be str"):
        dumps({1: []})
