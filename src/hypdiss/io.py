"""Atomic output files.

Every file hypdiss writes is text and goes through `write_atomic`: the UTF-8
bytes land in `<path>.tmp`, which `os.replace` then moves over `<path>`, so a
reader never sees a half-written report.  JSON is written with sorted keys and
CSV floats with 17 significant digits, so identical runs give identical bytes.
"""

import csv
import io
import json
import os

import numpy as np


def write_atomic(path, text):
    """Write text (UTF-8) to path via a temporary file."""
    tmp = f"{path}.tmp"
    with open(tmp, "wb") as f:
        f.write(text.encode())
    os.replace(tmp, path)


def _jsonify(obj):
    if isinstance(obj, dict):
        return {k: _jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonify(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonify(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating, float)):
        return float(obj)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, complex):
        return {"re": obj.real, "im": obj.imag}
    return obj


def write_json_atomic(path, payload):
    write_atomic(path, json.dumps(_jsonify(payload), indent=2, sort_keys=True) + "\n")


def write_csv_atomic(path, header, rows):
    """CSV with a header row; floats round-trip exactly, None is an empty cell."""
    buf = io.StringIO()
    w = csv.writer(buf)
    w.writerow(header)
    for row in rows:
        w.writerow(["" if v is None else format(v, ".17g") if isinstance(v, float) else v for v in row])
    write_atomic(path, buf.getvalue())
