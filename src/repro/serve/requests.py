"""Request decoding: JSON payloads → tables, examples, predictors.

The serving surface (``repro predict`` / ``repro serve``) speaks plain
JSON.  Each request names a ``task`` and carries the task's inputs; the
table rides along either inline (``{"header": [...], "rows": [[...]]}``)
or, for local batch files only, as a CSV path
(``{"csv": "path/to/table.csv"}``; the HTTP server refuses paths so a
network client can never make it read a file).  This module turns
those payloads into the typed example dataclasses the task predictors
consume, and renders :class:`~repro.tasks.Prediction` labels back into
JSON-safe values.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any

import numpy as np

from ..nn import Module
from ..corpus import (
    ColumnTypeExample,
    ImputationExample,
    NLIExample,
    QAExample,
    RetrievalExample,
    Text2SqlExample,
)
from ..sql import SelectQuery
from ..tables import Table, TableContext, load_table
from ..tasks import (
    BiEncoderRetriever,
    CellSelectionQA,
    ColumnTypePredictor,
    NliClassifier,
    SketchParser,
    ValueImputer,
    build_label_set,
    build_value_vocabulary_from_tables,
)

__all__ = ["SERVED_TASKS", "RequestError", "affinity_key", "parse_table",
           "build_example", "build_predictor", "json_safe_label"]

SERVED_TASKS = ("qa", "nli", "imputation", "coltype", "retrieval", "text2sql")


class RequestError(ValueError):
    """A malformed request payload (client error, not a server bug)."""


def _require(payload: dict[str, Any], field: str) -> Any:
    if field not in payload:
        raise RequestError(f"request is missing required field {field!r}")
    return payload[field]


def _require_int(payload: dict[str, Any], field: str) -> int:
    value = _require(payload, field)
    if isinstance(value, bool) or (isinstance(value, float)
                                   and not value.is_integer()):
        raise RequestError(f"field {field!r} must be an integer, "
                           f"got {value!r}")
    try:
        return int(value)
    except (TypeError, ValueError, OverflowError) as error:
        raise RequestError(f"field {field!r} must be an integer, "
                           f"got {value!r}") from error


def parse_table(spec: Any, allow_paths: bool = True) -> Table:
    """Decode a request's table: inline header/rows dict or a CSV path.

    ``allow_paths=False`` refuses the path forms (a bare string or
    ``{"csv": ...}``) before touching the file system.
    """
    if isinstance(spec, Table):
        return spec
    if isinstance(spec, str):
        spec = {"csv": spec}
    if not isinstance(spec, dict):
        raise RequestError("table must be an object or a CSV path string")
    if "csv" in spec:
        if not allow_paths:
            raise RequestError("table must be inline "
                               "({\"header\": [...], \"rows\": [...]}); "
                               "file paths are not accepted here")
        path = Path(spec["csv"])
        if not path.is_file():
            raise RequestError(f"table file not found: {path}")
        return load_table(path, title=spec.get("title", ""))
    header = _require(spec, "header")
    rows = _require(spec, "rows")
    if not isinstance(header, (list, tuple)):
        raise RequestError("table header must be a list of column names")
    if not isinstance(rows, (list, tuple)):
        raise RequestError("table rows must be a list of rows")
    context = TableContext(title=str(spec.get("title", "")),
                           caption=str(spec.get("caption", "")))
    try:
        return Table(header, rows, context=context,
                     table_id=str(spec.get("table_id", "")))
    except (TypeError, ValueError) as error:   # e.g. a row that is a number
        raise RequestError(str(error)) from error


def build_example(task: str, payload: dict[str, Any],
                  allow_paths: bool = True) -> Any:
    """The typed example one request decodes to.

    ``retrieval`` needs no table (the corpus is engine state); every
    other task requires ``payload["table"]``, parsed by
    :func:`parse_table` with ``allow_paths``.
    """
    if task == "retrieval":
        return RetrievalExample(query=str(_require(payload, "query")),
                                positive_table_id="")
    table = parse_table(_require(payload, "table"), allow_paths)
    if task == "qa":
        return QAExample(table, str(_require(payload, "question")), None, ())
    if task == "nli":
        return NLIExample(table, str(_require(payload, "statement")), 0)
    if task == "imputation":
        row, column = _require_int(payload, "row"), _require_int(payload, "column")
        if not (0 <= row < table.num_rows and 0 <= column < table.num_columns):
            raise RequestError(f"cell ({row}, {column}) outside table "
                               f"shape {table.shape}")
        return ImputationExample(table, row, column, "")
    if task == "coltype":
        column = _require_int(payload, "column")
        if not 0 <= column < table.num_columns:
            raise RequestError(f"column {column} outside table "
                               f"shape {table.shape}")
        return ColumnTypeExample(table, column, "")
    if task == "text2sql":
        return Text2SqlExample(table, str(_require(payload, "question")), None)
    raise RequestError(f"unknown task {task!r}; served tasks: "
                       f"{', '.join(SERVED_TASKS)}")


def affinity_key(task: str, example: Any) -> str:
    """The replica-routing key for one decoded request.

    Table-bearing requests key on the *table's* content hash (context
    excluded), so every request touching one table — whatever its task
    or question — prefers the same replica and the fleet caches each
    table's serialization and hidden states exactly once instead of
    N times.  Table-free requests (retrieval) key on the query text.
    Routing by this key is a cache-locality *hint*, never a correctness
    requirement: predictions are byte-identical on every replica.
    """
    from .cache import table_fingerprint

    table = getattr(example, "table", None)
    if isinstance(table, Table):
        return table_fingerprint(table, None)
    return f"{task}:{getattr(example, 'query', '')}"


def build_predictor(task: str, encoder: Module, tables: list[Table],
                    rng: np.random.Generator) -> Module:
    """An untrained-or-bundle predictor head for one served task.

    ``tables`` seeds the data-dependent pieces: the imputer's value
    vocabulary, the column-type label set, and the retriever's corpus.
    """
    if task == "qa":
        return CellSelectionQA(encoder, rng)
    if task == "nli":
        return NliClassifier(encoder, rng)
    if task == "imputation":
        vocabulary = build_value_vocabulary_from_tables(tables)
        if not vocabulary:
            raise RequestError("imputation needs a corpus with non-empty cells")
        return ValueImputer(encoder, vocabulary, rng)
    if task == "coltype":
        labels = build_label_set(
            [ColumnTypeExample(t, c, t.header[c])
             for t in tables for c in range(t.num_columns) if t.header[c]])
        if not labels:
            raise RequestError("coltype needs a corpus with named columns")
        return ColumnTypePredictor(encoder, labels, rng)
    if task == "retrieval":
        if not tables:
            raise RequestError("retrieval needs a corpus to rank against")
        corpus = [t if t.table_id else _with_id(t, f"table-{i}")
                  for i, t in enumerate(tables)]
        return BiEncoderRetriever(encoder, corpus=corpus)
    if task == "text2sql":
        return SketchParser(encoder, rng)
    raise RequestError(f"unknown task {task!r}; served tasks: "
                       f"{', '.join(SERVED_TASKS)}")


def _with_id(table: Table, table_id: str) -> Table:
    clone = Table(table.header, table.rows, context=table.context,
                  table_id=table_id)
    return clone


def json_safe_label(label: Any) -> Any:
    """A Prediction label as a JSON-encodable value."""
    if isinstance(label, SelectQuery):
        return label.render()
    if isinstance(label, tuple):
        return [json_safe_label(part) for part in label]
    if isinstance(label, (np.integer,)):
        return int(label)
    if isinstance(label, (np.floating,)):
        return float(label)
    return label
