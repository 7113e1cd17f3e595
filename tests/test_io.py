import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mpdesign.io import format_value, render_csv, render_json


def test_numpy_scalars_render_as_plain_numbers():
    text = render_csv(
        ["x", "density", "count"],
        [(np.float64(0.1), np.float64(2.5e-300), np.int64(7)), (np.float64(1.0), 0.0, 3)],
    )
    assert text == "x,density,count\n0.1,2.5e-300,7\n1.0,0.0,3\n"


def test_float_text_round_trips():
    for value in (0.1, 1 / 3, 1e-17, np.float64(2) / 3):
        assert float(format_value(value)) == value
    assert format_value(True) == "True"


JSON_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-(10**40), 10**40),
    st.floats(allow_nan=True, allow_infinity=True),
    st.floats(allow_nan=True, allow_infinity=True).map(np.float64),
    st.text(),
    st.text(st.sampled_from('"\\/\b\f\n\r\t\x00\x1f\x7f éπ€𝄞')),
)
JSON_VALUES = st.recursive(
    JSON_SCALARS,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=3).map(tuple),
        st.dictionaries(st.text(max_size=6), children, max_size=4),
    ),
    max_leaves=40,
)


@given(obj=JSON_VALUES)
@settings(max_examples=500)
def test_render_json_equals_json_dumps(obj):
    assert render_json(obj) == json.dumps(obj, indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize(
    "obj",
    [{2: "int", 1.5: "float", True: "bool"}, {None: 0}],
    ids=["number-keys", "null-key"],
)
def test_render_json_non_string_keys(obj):
    assert render_json(obj) == json.dumps(obj, indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize(
    "obj",
    [np.int64(3), {1, 2}, {"rows": [np.int64(1)]}, {(1, 2): 3}],
    ids=["np.int64", "set", "nested-np.int64", "tuple-key"],
)
def test_render_json_raises_what_json_dumps_raises(obj):
    with pytest.raises(TypeError) as expected:
        json.dumps(obj, indent=2, sort_keys=True)
    with pytest.raises(TypeError, match=re.escape(str(expected.value))):
        render_json(obj)
