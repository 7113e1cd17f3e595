import numpy as np

from mpdesign.io import format_value, render_csv


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
