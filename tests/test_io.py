import csv
import io
import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mpdesign.io import CampaignDataError, parse_campaign_data, render_csv, render_json


@pytest.mark.parametrize(
    "cell,name",
    [(np.float64(0.1), "float64"), (np.int64(7), "int64"), (np.bool_(True), np.bool_.__name__),
     (None, "NoneType"), (b"x", "bytes")],
    ids=["np.float64", "np.int64", "np.bool_", "None", "bytes"],
)
def test_other_cells_raise_type_error_naming_the_type(cell, name):
    # a NumPy scalar would print as np.float64(...) under NumPy 2, None as ""
    with pytest.raises(TypeError, match=rf"^CSV cells must be str, int, float or bool, not {name}$"):
        render_csv(["x", "y"], [(0.5, 1), (2.0, cell)])


def test_float_text_round_trips():
    values = [0.1, 1 / 3, 1e-17, 2.5e-300, 5e-324, 1e300]
    text = render_csv(["x", "flag"], [(value, True) for value in values])
    rows = list(csv.reader(io.StringIO(text)))[1:]
    assert [float(x) for x, _ in rows] == values
    assert {flag for _, flag in rows} == {"True"}


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


# Flat containers of up to 50 scalars, alone or one or two levels down: the
# C encoder's path when every scalar is an exact type, the Python walk when
# one is a NumPy scalar.
EXACT_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-(10**40), 10**40),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(st.sampled_from('"\\\n\x00 aé𝄞')),
)
FLAT = st.one_of(
    st.lists(EXACT_SCALARS, max_size=50),
    st.lists(EXACT_SCALARS, max_size=50).map(tuple),
    st.dictionaries(st.text(max_size=6), EXACT_SCALARS, max_size=50),
    st.lists(JSON_SCALARS, max_size=50),
)


def _nested(children):
    return st.one_of(
        st.lists(children, max_size=3),
        st.dictionaries(st.text(max_size=4), children, max_size=3),
    )


WIDE_VALUES = st.one_of(FLAT, _nested(FLAT), _nested(_nested(FLAT)))


@given(obj=st.one_of(JSON_VALUES, WIDE_VALUES))
@settings(max_examples=500)
def test_render_json_equals_json_dumps(obj):
    assert render_json(obj) == json.dumps(obj, indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize(
    "obj",
    [{2: "int", 1.5: "float", True: "bool"}, {None: 0}, {2: [1], 1.5: {"a": []}, False: None}],
    ids=["number-keys", "null-key", "number-keys-of-containers"],
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


def reference_csv(header, rows):
    """``render_csv`` as one ``writerow`` per row of cells already made text:
    a float by its shortest round-trip ``repr``, anything else by ``str``."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([repr(v) if isinstance(v, float) else str(v) for v in row])
    return buf.getvalue()


CSV_CELLS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.floats(-(2.0**-1022), 2.0**-1022),  # subnormals
    st.integers(-(10**30), 10**30),
    st.booleans(),
    st.text(st.sampled_from(',"\'\n\r ;aé')),
)


@given(rows=st.lists(st.lists(CSV_CELLS, max_size=5).map(tuple), max_size=8))
@settings(max_examples=500)
def test_render_csv_equals_per_cell_text(rows):
    header = ["a", "b,c", 'd"e']
    assert render_csv(header, rows) == reference_csv(header, rows)


@pytest.mark.parametrize(
    "rows,where",
    [("1,{}\n", "suspected_count for quadrant '1'"),
     (f"1,{2**53}\nclass_name,categorized_count\nPE,{{}}\n", "categorized_count for 'PE'")],
    ids=["suspected", "categorized"],
)
def test_counts_bounded_at_2_53(tmp_path, rows, where):
    # past 2^53 a count is not exact in the float posterior, and past about
    # 1e308 it is not a float at all; a long count is echoed cut short, and
    # one past int()'s 4,300 digits is refused by the same bound
    path = tmp_path / "campaign.csv"
    for count, shown in [
        ("9007199254740992", None),
        ("009007199254740992", None),
        ("9007199254740993", "9007199254740993"),
        ("1" + "0" * 400, "1" + "0" * 31 + "… (401 characters)"),
        ("0" * 5000 + "1" + "0" * 16, "1" + "0" * 16),
        ("1" + "0" * 5000, "1" + "0" * 31 + "… (5001 characters)"),
    ]:
        path.write_text("quadrant_id,suspected_count\n" + rows.format(count))
        if shown is None:
            parse_campaign_data(path, 0.0625, ("PE", "PP"))
            continue
        message = f"{where} must be at most 2**53 = 9007199254740992, got {shown}"
        with pytest.raises(CampaignDataError) as info:
            parse_campaign_data(path, 0.0625, ("PE", "PP"))
        assert str(info.value) == message
