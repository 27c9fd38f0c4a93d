"""Data lake substrate: tables, typing, CSV IO, catalogs, ontology, corpora."""

from repro.datalake.csvio import read_table_csv, write_table_csv
from repro.datalake.lake import DataLake
from repro.datalake.ontology import Ontology, subsample_ontology
from repro.datalake.table import (
    Column,
    ColumnRef,
    Table,
    TableMetadata,
    cell_key,
    is_null,
    normalize_cell,
    tokenize,
)
from repro.datalake.types import DataType, infer_type, parse_float

__all__ = [
    "Column",
    "ColumnRef",
    "DataLake",
    "DataType",
    "Ontology",
    "Table",
    "TableMetadata",
    "cell_key",
    "infer_type",
    "is_null",
    "normalize_cell",
    "parse_float",
    "read_table_csv",
    "subsample_ontology",
    "tokenize",
    "write_table_csv",
]
