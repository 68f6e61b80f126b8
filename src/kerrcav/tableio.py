"""Deterministic tabular output: CSV and JSON with fixed float formatting.

Floats are always written in 17-significant-digit scientific notation so
identical inputs produce byte-identical files; non-finite values render as
"nan"/"inf"/"-inf" (quoted strings in JSON, which has no literals for
them).  Parsing an emitted JSON table and re-emitting it reproduces the
bytes exactly.
"""

import json
import math
from dataclasses import dataclass, field

Cell = float | int | bool | str


@dataclass
class Table:
    columns: list[str]
    rows: list[list[Cell]] = field(default_factory=list)

    def __post_init__(self):
        if not self.columns:
            raise ValueError("a table needs at least one column")
        if not set(map(len, self.rows)) <= {len(self.columns)}:
            raise ValueError(f"every row needs {len(self.columns)} cells")

    def append(self, *cells: Cell) -> None:
        if len(cells) != len(self.columns):
            raise ValueError(f"row has {len(cells)} cells, expected {len(self.columns)}")
        self.rows.append(list(cells))

    def column(self, name: str) -> list[Cell]:
        i = self.columns.index(name)
        return [row[i] for row in self.rows]


def format_float(x: float) -> str:
    """Fixed 17-significant-digit scientific form; 'nan'/'inf'/'-inf' for
    non-finite values (which is how Python formats them)."""
    return f"{x:.16e}"


def _bool_text(cell: bool) -> str:
    return "true" if cell else "false"


def _json_float(cell: float) -> str:
    text = f"{cell:.16e}"
    # JSON has no literal for nan/inf; keep them as strings
    return text if math.isfinite(cell) else f'"{text}"'


# cell text by the cell's type; ``object`` formats any other type
_CSV_CELL = {float: format_float, bool: _bool_text, int: str, str: str,
             object: str}
_JSON_CELL = {float: _json_float, bool: _bool_text, int: str, str: json.dumps,
              object: json.dumps}


def _cell_text(cell: Cell, by_type) -> str:
    text = by_type.get(type(cell))
    if text is not None:
        return text(cell)
    # subclasses format as their base type
    for kind in (bool, int, float):
        if isinstance(cell, kind):
            return by_type[kind](cell)
    return by_type[object](cell)


def _float_texts(values: tuple, quote: bool) -> list[str]:
    """:func:`format_float` of each value; with ``quote``, non-finite texts
    in JSON quotes.  A value repeated across the column is formatted once,
    except zeros: 0.0 and -0.0 are one dict key but two texts."""
    distinct = dict.fromkeys(values)
    if 2 * len(distinct) <= len(values):
        memo = {v: f"{v:.16e}" for v in distinct}
        texts = list(map(memo.__getitem__, values))
        if 0.0 in memo:
            texts = [f"{v:.16e}" if v == 0.0 else t
                     for v, t in zip(values, texts)]
    else:
        texts = ("%.16e\n" * len(values) % values).split("\n")[:-1]
    if quote and not all(map(math.isfinite, distinct)):
        # JSON has no literal for nan/inf; keep them as strings
        texts = [t if math.isfinite(v) else f'"{t}"'
                 for v, t in zip(values, texts)]
    return texts


def _lines(table: Table, sep: str, quote: bool) -> list[str]:
    """The rows as text, built column by column: a column of one type is
    formatted in one pass, each distinct value once."""
    by_type = _JSON_CELL if quote else _CSV_CELL
    columns = []
    for values in zip(*table.rows):
        kinds = set(map(type, values))
        kind = kinds.pop() if len(kinds) == 1 else None
        if kind is float:
            texts = _float_texts(values, quote)
        elif kind in by_type:
            memo = {v: by_type[kind](v) for v in dict.fromkeys(values)}
            texts = list(map(memo.__getitem__, values))
        else:
            texts = [_cell_text(c, by_type) for c in values]
        columns.append(texts)
    return list(map(sep.join, zip(*columns)))


def to_csv(table: Table) -> str:
    lines = [",".join(table.columns)] + _lines(table, ",", quote=False)
    return "\n".join(lines) + "\n"


def to_json(table: Table) -> str:
    lines = ['{"schema": 1,']
    lines.append(f' "columns": {json.dumps(table.columns)},')
    lines.append(' "rows": [')
    lines.append(",\n".join(f" [{line}]"
                            for line in _lines(table, ", ", quote=True)))
    lines.append("]}")
    return "\n".join(lines) + "\n"


def parse_json(text: str) -> Table:
    """Inverse of :func:`to_json`; cell types follow the JSON values."""
    data = json.loads(text)
    if data.get("schema") != 1:
        raise ValueError(f"unsupported table schema: {data.get('schema')!r}")
    return Table(columns=list(data["columns"]),
                 rows=[list(r) for r in data["rows"]])


def render(table: Table, fmt: str) -> str:
    if fmt == "csv":
        return to_csv(table)
    if fmt == "json":
        return to_json(table)
    raise ValueError(f"unknown format {fmt!r} (expected csv or json)")
