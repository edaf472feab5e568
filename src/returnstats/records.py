"""One serialization idiom for result records.

A record is a dataclass.  Its JSON form is an object of its fields in
declaration order: arrays become lists, records nested objects, ``None``
fields are left out and non-finite floats are written as ``null`` (read
back as nan), so every file parses under a strict RFC 8259 parser.  Its
CSV form is a table of an index column plus float columns written with
``repr``, each cell empty past the end of its column.
"""

from __future__ import annotations

import math
from dataclasses import fields, is_dataclass

import numpy as np

__all__ = ["json_fields", "from_json_fields", "csv_table"]


def _plain(value):
    if is_dataclass(value):
        return json_fields(value)
    if isinstance(value, np.ndarray):
        value = value.tolist()
    if isinstance(value, list):
        return [_plain(v) for v in value]
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return value


def json_fields(record, **extra) -> dict:
    """`record`'s non-None fields, then `extra`, as JSON-ready values."""
    items = [(f.name, getattr(record, f.name)) for f in fields(record)]
    items += extra.items()
    return {name: _plain(v) for name, v in items if v is not None}


def _unplain(value):
    if value is None:
        return math.nan
    if isinstance(value, list):
        return np.array([math.nan if v is None else v for v in value], dtype=float)
    return value


def from_json_fields(cls, d: dict):
    """The `cls` record written as `d` by `json_fields`: lists read as float
    arrays, null as nan; keys that are not fields of `cls` are ignored."""
    return cls(**{f.name: _unplain(d[f.name]) for f in fields(cls) if f.name in d})


def csv_table(index: str, columns: dict, start: int = 1) -> str:
    """CSV of an `index` column counting from `start` and one column per
    entry of `columns`, as many rows as the longest column."""
    cols = [[repr(v) for v in np.asarray(c, dtype=float).tolist()]
            for c in columns.values()]
    lines = [",".join([index, *columns])]
    for i in range(max(map(len, cols))):
        lines.append(",".join([str(start + i), *(c[i] if i < len(c) else "" for c in cols)]))
    return "\n".join(lines) + "\n"
