"""Data type inference for raw string columns.

Data lake tables arrive as untyped CSV; every discovery technique first needs
to know which columns are numeric, which are dates, and which are textual
domains (survey §2.2, "domain discovery ... beyond standard DB data types").
"""

from __future__ import annotations

import math
import re
from enum import Enum

_INT_RE = re.compile(r"^[+-]?\d{1,18}$")
_FLOAT_RE = re.compile(r"^[+-]?(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?$")
_DATE_RES = (
    re.compile(r"^\d{4}-\d{1,2}-\d{1,2}$"),
    re.compile(r"^\d{1,2}/\d{1,2}/\d{2,4}$"),
    re.compile(r"^\d{4}/\d{1,2}/\d{1,2}$"),
)
#: Values treated as missing, here and by :func:`repro.datalake.table.cell_key`.
NULL_TOKENS = frozenset({"", "na", "n/a", "nan", "null", "none", "-", "?"})


class DataType(Enum):
    """Coarse column types used throughout the library."""

    INTEGER = "integer"
    FLOAT = "float"
    DATE = "date"
    TEXT = "text"
    EMPTY = "empty"


def parse_float(value: str) -> float:
    """Parse a cell as float; return NaN for nulls and unparseable text."""
    s = str(value).strip().replace(",", "")
    if s.lower() in NULL_TOKENS:
        return math.nan
    try:
        return float(s)
    except ValueError:
        return math.nan


def classify_value(value: str) -> DataType:
    """Classify a single non-null cell."""
    s = str(value).strip()
    if s.lower() in NULL_TOKENS:
        return DataType.EMPTY
    if _INT_RE.match(s):
        return DataType.INTEGER
    if _FLOAT_RE.match(s.replace(",", "")):
        return DataType.FLOAT
    for rx in _DATE_RES:
        if rx.match(s):
            return DataType.DATE
    return DataType.TEXT


def infer_type(values: list[str], threshold: float = 0.9) -> DataType:
    """Infer the dominant type of a column of raw cells.

    A type wins if at least ``threshold`` of the non-null cells match it;
    INTEGER degrades to FLOAT when mixed with floats; anything else is TEXT.
    """
    counts = {t: 0 for t in DataType}
    non_null = 0
    for v in values:
        t = classify_value(v)
        counts[t] += 1
        if t is not DataType.EMPTY:
            non_null += 1
    if non_null == 0:
        return DataType.EMPTY
    numeric = counts[DataType.INTEGER] + counts[DataType.FLOAT]
    if counts[DataType.INTEGER] >= threshold * non_null:
        return DataType.INTEGER
    if numeric >= threshold * non_null:
        return DataType.FLOAT
    if counts[DataType.DATE] >= threshold * non_null:
        return DataType.DATE
    return DataType.TEXT
