import json

import numpy as np

from hypdiss.io import write_atomic, write_csv_atomic, write_json_atomic


def test_write_atomic_text_and_no_leftover(tmp_path):
    path = tmp_path / "out.txt"
    path.write_bytes(b"old contents")
    write_atomic(path, "text \u00e9\n")
    assert path.read_bytes() == b"text \xc3\xa9\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out.txt"]


def test_json_sorted_and_numpy_scalars(tmp_path):
    path = tmp_path / "r.json"
    write_json_atomic(path, {"b": np.float64(0.1), "a": [np.int64(3), 1j], "c": np.arange(2.0)})
    text = path.read_text()
    assert text.endswith("}\n")
    assert json.loads(text) == {"a": [3, {"re": 0.0, "im": 1.0}], "b": 0.1, "c": [0.0, 1.0]}
    assert text.index('"a"') < text.index('"b"') < text.index('"c"')


def test_csv_round_trips_floats(tmp_path):
    path = tmp_path / "r.csv"
    write_csv_atomic(path, ["x", "i", "s"], [(0.1, 2, "a"), (None, 3, "b"), (1 / 3, 4, "c")])
    assert path.read_bytes() == b"x,i,s\r\n0.10000000000000001,2,a\r\n,3,b\r\n0.33333333333333331,4,c\r\n"
