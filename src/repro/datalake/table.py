"""Core table model for the data lake substrate.

Tables in data lakes are typically shared in primitive formats such as CSV
with unreliable or missing metadata (survey §2.1).  We therefore model a
table as a named, column-oriented collection of string cells plus an
optional, possibly-empty metadata record.  Typed views (numeric arrays) are
derived lazily from the raw strings.  :func:`cell_key` is the one cell
rule: every engine that compares cell values keys a raw cell through it,
and a column's cells meet it in one place, :meth:`Column.cell_keys`.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

import numpy as np

from repro.core.errors import SchemaError
from repro.datalake.types import NULL_TOKENS, DataType, infer_type, parse_float

# Underscores are separators: headers like "customer_id" must match the
# query term "customer" (standard IR tokenization for schema text).
_WORD_RE = re.compile(r"[A-Za-z0-9]+")


def normalize_cell(value: str) -> str:
    """Normalize a raw cell: strip, lowercase, collapse inner whitespace."""
    return " ".join(str(value).lower().split())


def cell_key(value) -> str:
    """The key a raw cell matches on: its :func:`normalize_cell` form, or
    ``""`` (matching nothing) for a null token.  A key keys to itself."""
    key = normalize_cell(value)
    return "" if key in NULL_TOKENS else key


def is_null(value: str) -> bool:
    """Return True if a raw cell should be treated as missing."""
    return not cell_key(value)


def tokenize(text: str) -> list[str]:
    """Split text into lowercase word tokens (letters, digits, underscore)."""
    return [m.group(0).lower() for m in _WORD_RE.finditer(str(text))]


@dataclass(frozen=True)
class ColumnRef:
    """Stable address of a column inside a lake: (table name, column index)."""

    table: str
    index: int

    def __str__(self) -> str:
        return f"{self.table}[{self.index}]"


class Column:
    """A single table column: a header plus an ordered list of string cells."""

    def __init__(self, name: str, values: list[str]):
        self.name = str(name)
        self.values = [str(v) for v in values]
        self._dtype: DataType | None = None
        self._value_set: frozenset[str] | None = None
        self._cell_keys: tuple[str, ...] | None = None

    def __len__(self) -> int:
        return len(self.values)

    def __repr__(self) -> str:
        return f"Column({self.name!r}, n={len(self.values)}, dtype={self.dtype.name})"

    @property
    def dtype(self) -> DataType:
        """Inferred data type of this column (cached)."""
        if self._dtype is None:
            self._dtype = infer_type(self.values)
        return self._dtype

    @property
    def is_numeric(self) -> bool:
        return self.dtype in (DataType.INTEGER, DataType.FLOAT)

    def cell_keys(self) -> tuple[str, ...]:
        """Each cell's :func:`cell_key`, row-aligned, ``""`` for a null
        (cached).  Every reader of a column's keys reads this view, so a
        cell is keyed once; a cell that is its own key is kept, not copied."""
        if self._cell_keys is None:
            keys = zip(self.values, map(cell_key, self.values))
            self._cell_keys = tuple([raw if key == raw else key for raw, key in keys])
        return self._cell_keys

    def non_null_values(self) -> list[str]:
        """Cell keys with nulls removed (order preserved)."""
        return [key for key in self.cell_keys() if key]

    def value_set(self) -> frozenset[str]:
        """The distinct set of non-null cell keys (cached)."""
        if self._value_set is None:
            self._value_set = frozenset(filter(None, self.cell_keys()))
        return self._value_set

    def distinct_count(self) -> int:
        return len(self.value_set())

    def null_fraction(self) -> float:
        if not self.values:
            return 0.0
        return self.cell_keys().count("") / len(self.values)

    def numeric_values(self) -> np.ndarray:
        """Parse cells as floats; unparseable/missing cells become NaN."""
        out = np.empty(len(self.values), dtype=np.float64)
        for i, v in enumerate(self.values):
            out[i] = parse_float(v)
        return out

    def tokens(self) -> list[str]:
        """Word tokens across all non-null cells (for text indexing)."""
        toks: list[str] = []
        for v in self.non_null_values():
            toks.extend(tokenize(v))
        return toks


@dataclass
class TableMetadata:
    """Optional, often unreliable metadata attached to a lake table."""

    title: str = ""
    description: str = ""
    tags: list[str] = field(default_factory=list)
    source: str = ""

    def text(self) -> str:
        """All metadata text concatenated (for keyword indexing)."""
        return " ".join([self.title, self.description, " ".join(self.tags)])


class Table:
    """A named, column-oriented table.

    Columns must share the same length.  Cell access is column-major because
    every discovery technique in the survey operates on columns.
    """

    def __init__(
        self,
        name: str,
        columns: list[Column],
        metadata: TableMetadata | None = None,
    ):
        lengths = {len(c) for c in columns}
        if len(lengths) > 1:
            raise SchemaError(
                f"table {name!r}: ragged columns with lengths {sorted(lengths)}"
            )
        self.name = str(name)
        self.columns = list(columns)
        self.metadata = metadata or TableMetadata()

    # -- construction helpers -------------------------------------------------

    @classmethod
    def from_rows(
        cls,
        name: str,
        header: list[str],
        rows: list[list[str]],
        metadata: TableMetadata | None = None,
    ) -> "Table":
        """Build a table from a header and row-major cells."""
        ncols = len(header)
        cols: list[list[str]] = [[] for _ in range(ncols)]
        for row in rows:
            if len(row) != ncols:
                raise SchemaError(
                    f"table {name!r}: row width {len(row)} != header width {ncols}"
                )
            for j, cell in enumerate(row):
                cols[j].append(str(cell))
        columns = [Column(h, c) for h, c in zip(header, cols)]
        return cls(name, columns, metadata)

    @classmethod
    def from_dict(
        cls,
        name: str,
        data: dict[str, list],
        metadata: TableMetadata | None = None,
    ) -> "Table":
        """Build a table from a {column name: values} mapping."""
        columns = [Column(k, [str(v) for v in vs]) for k, vs in data.items()]
        return cls(name, columns, metadata)

    # -- basic accessors -------------------------------------------------------

    @property
    def num_rows(self) -> int:
        return len(self.columns[0]) if self.columns else 0

    @property
    def num_cols(self) -> int:
        return len(self.columns)

    @property
    def header(self) -> list[str]:
        return [c.name for c in self.columns]

    def __repr__(self) -> str:
        return f"Table({self.name!r}, {self.num_rows}x{self.num_cols})"

    def column(self, key: int | str) -> Column:
        """Look a column up by index or (first-match) header name."""
        if isinstance(key, int):
            return self.columns[key]
        for c in self.columns:
            if c.name == key:
                return c
        raise KeyError(f"table {self.name!r} has no column {key!r}")

    def column_index(self, name: str) -> int:
        for i, c in enumerate(self.columns):
            if c.name == name:
                return i
        raise KeyError(f"table {self.name!r} has no column {name!r}")

    def rows(self) -> list[list[str]]:
        """Materialize row-major cells."""
        return [
            [c.values[i] for c in self.columns] for i in range(self.num_rows)
        ]

    def row(self, i: int) -> list[str]:
        return [c.values[i] for c in self.columns]

    def project(self, keys: list[int | str], name: str | None = None) -> "Table":
        """Return a new table with only the selected columns."""
        cols = [self.column(k) for k in keys]
        return Table(name or self.name, cols, self.metadata)

    def text_columns(self) -> list[tuple[int, Column]]:
        """Indices and columns whose dtype is textual/categorical."""
        return [
            (i, c) for i, c in enumerate(self.columns) if not c.is_numeric
        ]

    def numeric_columns(self) -> list[tuple[int, Column]]:
        return [(i, c) for i, c in enumerate(self.columns) if c.is_numeric]
