"""Deterministic CSV/JSON writers for command outputs.

CSV files carry '#'-prefixed metadata lines before the column header; float
cells use repr so reruns of the same configuration are byte-identical.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

__all__ = ["write_csv", "write_json", "format_cell"]


def format_cell(value) -> str:
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def write_csv(path, columns: dict, meta: dict = None) -> Path:
    """Write named columns with a metadata header.

    columns maps name -> 1-D array; all columns must share one length.
    """
    path = Path(path)
    names = list(columns)
    arrays = [np.asarray(columns[n]) for n in names]
    lengths = {a.shape[0] for a in arrays}
    if len(lengths) != 1:
        raise ValueError(f"columns differ in length: { {n: a.shape[0] for n, a in zip(names, arrays)} }")
    lines = []
    for key, value in (meta or {}).items():
        lines.append(f"# {key}: {value}")
    lines.append(",".join(names))
    for row in zip(*arrays):
        lines.append(",".join(format_cell(v) for v in row))
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("\n".join(lines) + "\n")
    return path


def _numpy_default(value):
    """JSON form of numpy scalars and arrays (np.float64 is already a float)."""
    if isinstance(value, (np.generic, np.ndarray)):
        return value.tolist()
    raise TypeError(f"{type(value).__name__} is not JSON serializable")


def write_json(path, payload: dict) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True, default=_numpy_default) + "\n")
    return path
