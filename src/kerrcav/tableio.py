"""Deterministic tabular output: CSV and JSON with fixed float formatting.

A :class:`Table` holds one typed column per name: a 1-d NumPy array of
floats, integers, booleans or strings, never a mix.  A sweep hands its
result arrays over as they are; ``append`` adds one row at a time for the
one-row records.

Floats are always written as ``"%.16e"`` (17 significant digits) so
identical inputs produce byte-identical files; non-finite values render as
"nan"/"inf"/"-inf" (quoted strings in JSON, which has no literals for
them).  A table renders in blocks of 16,384 cells, the float cells of a
block in one NumPy pass: the value's mantissa times a double-double power
of ten gives the 17-digit integer with a bound on its error (after Adams,
"Ryu: fast float-to-string conversion", PLDI 2018), and table lookups turn
its digit groups and the exponent into the six 4-byte words of a cell's
slot, exactly CPython's text.  Where the bound cannot certify the rounding
(within about 1e-14 of the last digit's halfway point, exact ties
included) the cell falls back to ``"%.16e" %``, as do NaN, infinities and
subnormals, once per distinct value.  The slots go into a row template and
their NUL padding is dropped.  Parsing an emitted JSON table and
re-emitting it reproduces the bytes exactly.
"""

import functools
import json

import numpy as np

Cell = float | int | bool | str

# the Python type of a column by NumPy dtype kind
_KINDS = {"b": bool, "i": int, "u": int, "f": float, "U": str}
_NON_FINITE = ("nan", "inf", "-inf")


def _typed(values) -> np.ndarray:
    """``values`` as a read-only 1-d array of one cell type."""
    if isinstance(values, np.ndarray) and values.dtype.kind in _KINDS:
        array = values
    else:
        kinds = {_KINDS.get(np.dtype(t).kind) for t in set(map(type, values))}
        if None in kinds:
            raise ValueError("a cell must be a float, int, bool or str")
        if len(kinds) > 1:
            names = sorted(k.__name__ for k in kinds)
            raise ValueError(f"a column holds one cell type, got {names}")
        array = np.array(values, dtype=kinds.pop() if kinds else float)
    if array.ndim != 1:
        raise ValueError("a column must be 1-d")
    if array.dtype.kind == "f":
        array = array.astype(np.float64, copy=False)
    if array.dtype.kind == "U" and any("\0" in v for v in array.tolist()):
        raise ValueError("a str cell may not hold a NUL character")
    view = array.view()
    view.flags.writeable = False
    return view


class Table:
    """Named, typed columns of equal length.

    ``rows`` gives the cells row by row; :meth:`from_columns` takes one
    array per column instead.  A column of zero rows has no cell type yet.
    A str cell may not hold a NUL character.
    """

    def __init__(self, columns: list[str], rows=()):
        rows = list(rows)
        if not set(map(len, rows)) <= {len(columns)}:
            raise ValueError(f"every row needs {len(columns)} cells")
        self._set(columns, list(zip(*rows)) or [()] * len(columns))

    @classmethod
    def from_columns(cls, columns: list[str], arrays) -> "Table":
        table = cls.__new__(cls)
        table._set(columns, list(arrays))
        return table

    def _set(self, columns, data):
        if not columns:
            raise ValueError("a table needs at least one column")
        if len(data) != len(columns):
            raise ValueError(f"{len(data)} columns of data for "
                             f"{len(columns)} names")
        self.columns = list(columns)
        self._data = list(map(_typed, data))
        if len(set(map(len, self._data))) > 1:
            raise ValueError("every column needs the same length")

    @property
    def rows(self) -> list[tuple]:
        """The cells row by row, as Python values (a copy)."""
        return list(zip(*(column.tolist() for column in self._data)))

    def append(self, *cells: Cell) -> None:
        """Add one row; for short tables (it rebuilds every column)."""
        if len(cells) != len(self.columns):
            raise ValueError(f"row has {len(cells)} cells, expected {len(self.columns)}")
        self._data = [_typed([*column.tolist(), cell])
                      for column, cell in zip(self._data, cells)]

    def column(self, name: str) -> np.ndarray:
        """The stored (read-only) column."""
        return self._data[self.columns.index(name)]


def format_float(x: float) -> str:
    """Fixed 17-significant-digit scientific form; 'nan'/'inf'/'-inf' for
    non-finite values (which is how Python formats them)."""
    return f"{x:.16e}"


# ---------------------------------------------------------- float cells

_WIDTH = 24  # "-d.dddddddddddddddde-ddd", the longest "%.16e" text
_BLOCK_CELLS = 1 << 14  # cells rendered at once
_K_MIN, _K_MAX = -294, 326  # powers 10^k that bring a normal double to 17 digits
_TINY = 2.2250738585072014e-308  # smallest normal double
_HUGE = 1.7976931348623157e308  # largest finite double
# The scaled value s = x * 10^k in [1e16, 1e17) carries a relative error
# below 2^-104 (table, two products, one sum), so below 5e-15 in units of
# its last digit; a rounding is certified when s sits further than this
# from a halfway point.
_MARGIN = 1e-14


@functools.cache
def _tables():
    """Double-double powers of ten, 10^k = (hi + lo) * 2^exp for k in
    [_K_MIN, _K_MAX]: hi, hi's upper and lower halves (for exact products)
    and lo as float arrays, exp as int32.  Then uint32 words of four ASCII
    bytes each: sign (NUL or "-"), digit, point, digit for 0..100;
    0000..9999; 000e..999e; the exponent 16 - k of each power, its
    hundreds NUL below 100.  Built from Python integers on first use."""
    hi, lo, exp = [], [], []
    for k in range(_K_MIN, _K_MAX + 1):
        if k >= 0:
            num = 10**k
            q = num << 127 >> (num.bit_length() - 1)  # in [2^127, 2^128)
            shift = num.bit_length() - 1
        else:
            den = 10**-k
            q = (1 << (127 + den.bit_length())) // den
            shift = -den.bit_length()
        top = float(q)
        hi.append(top / 2.0**127)
        lo.append(float(q - int(top)) / 2.0**127)
        exp.append(shift)
    hi = np.array(hi)
    split = hi * 134217729.0  # Veltkamp: 2^27 + 1
    hi_hi = split - (split - hi)

    def words(texts):  # four ASCII bytes as one uint32, in memory order
        return np.frombuffer("".join(texts).encode(), np.uint32)

    signed = [f"{16 - k:+04d}" for k in range(_K_MIN, _K_MAX + 1)]
    return (hi, hi_hi, hi - hi_hi, np.array(lo), np.array(exp, np.int32),
            words(s + d[0] + "." + d[-1] for s in "\0-"
                  for d in map("{:02d}".format, range(101))),
            words(map("{:04d}".format, range(10**4))),
            words(map("{:03d}e".format, range(1000))),
            words(e if e[1] != "0" else e[0] + "\0" + e[2:] for e in signed))


def _scaled(f, e, i):
    """x * 10^k as a double-double (hi, lo), for x = f * 2^e and the power
    10^k at index i of the tables (k = i + _K_MIN)."""
    p, p_hi, p_lo, q, exp = (t.take(i) for t in _tables()[:5])
    split = f * 134217729.0
    f_hi = split - (split - f)
    f_lo = f - f_hi
    head = f * p  # Dekker's exact product: head + tail = f * p
    tail = ((f_hi * p_hi - head) + f_hi * p_lo + f_lo * p_hi) + f_lo * p_lo
    tail += f * q
    hi = head + tail
    lo = tail - (hi - head)
    exp += e
    return np.ldexp(hi, exp), np.ldexp(lo, exp)


def _padded(texts: list[str], width: int = 0):
    """Texts as rows of a uint8 array, padded with NUL bytes to the longest
    text or to ``width``."""
    data = [t.encode() for t in texts]
    width = max([width, *map(len, data)])
    return np.frombuffer(b"".join(t.ljust(width, b"\0") for t in data),
                         np.uint8).reshape(len(data), width)


def _float_text(x: float, quote: bool) -> str:
    text = "%.16e" % x
    return f'"{text}"' if quote and text[-1] in "nf" else text


def _float_cells(x: np.ndarray, quote: bool):
    """``"%.16e" % v`` of every float64 in ``x`` as (n, _WIDTH) uint8 slots,
    NUL where a text is shorter; with ``quote``, non-finite texts in JSON
    quotes."""
    *_, heads, quads, tails, exponents = _tables()
    a = np.abs(x)
    normal = (a >= _TINY) & (a <= _HUGE)
    v = np.where(normal, a, 2.0)  # a placeholder clear of powers of ten
    f, e = np.frexp(v)
    # the index k - _K_MIN of 10^k, k = 16 - floor(log10(v)), by truncation
    # (one too high where log10(v) is whole; the check below steps it back)
    i = (16 - _K_MIN + 1 - np.log10(v)).astype(np.intp)
    hi, lo = _scaled(f, e, i)
    # log10 can be one off next to a power of ten: judge from the unrounded
    # s = hi + lo whether it lies in [1e16, 1e17), and rescale where not
    # (1e16 - hi is exact wherever lo can tip the comparison)
    step = (1e16 - hi > lo).astype(np.intp) - (1e17 - hi <= lo)
    fix = np.flatnonzero(step)
    if fix.size:
        i[fix] += step[fix]
        hi[fix], lo[fix] = _scaled(f[fix], e[fix], i[fix])
    whole = np.rint(lo)
    n = hi.astype(np.int64) + whole.astype(np.int64)
    certain = normal & (np.abs(lo - whole) < 0.5 - _MARGIN)
    nonzero = a != 0.0
    n *= nonzero
    # 10^17 (rounded up to 18 digits) is 1.0...0 at 10^(E+1); a zero keeps
    # the placeholder's exponent, 0
    i -= n == 10**17

    # six words: sign and digits 1-2, 3-6, 7-10, 11-14, 15-17 and "e", exponent
    top = n // 10**7
    head = top // 10**8
    low = (n - top * 10**7).astype(np.int32)
    mid = (top - head * 10**8).astype(np.int32)
    buf = np.empty((x.size, 6), np.uint32)
    buf[:, 0] = heads.take(head + 101 * np.signbit(x))
    q = mid // 10**4
    buf[:, 1] = quads.take(q)
    buf[:, 2] = quads.take(mid - q * 10**4)
    q = low // 1000
    buf[:, 3] = quads.take(q)
    buf[:, 4] = tails.take(low - q * 1000)
    buf[:, 5] = exponents.take(i)

    rest = np.flatnonzero(nonzero & ~certain)
    if rest.size:
        bits, index = np.unique(x[rest].view(np.int64), return_inverse=True)
        texts = [_float_text(b, quote) for b in bits.view(np.float64).tolist()]
        buf.view(np.uint8)[rest] = _padded(texts, _WIDTH)[index]
    return buf.view(np.uint8)


def _other_cells(column: np.ndarray, quote: bool):
    """Slots of a bool, int or str column, NUL-padded, each distinct value
    formatted once."""
    if column.dtype.kind == "b":
        return _bool_slots()[column.view(np.uint8)]
    values, index = np.unique(column, return_inverse=True)
    text = json.dumps if quote and column.dtype.kind == "U" else str
    return _padded(list(map(text, values.tolist())))[index]


@functools.cache
def _bool_slots():
    return _padded(["false", "true"])


def _rows(columns: list[np.ndarray], lead: bytes, sep: bytes, end: bytes,
          quote: bool) -> bytes:
    """Every row as ``lead + cells joined by sep + end``: each column's
    fixed-width cell slots written into a row template, then the unused
    (NUL) bytes dropped.  The float cells of all columns form one pass."""
    n = len(columns[0])
    floats = [c for c in columns if c.dtype.kind == "f"]
    if floats:
        float_cells = iter(_float_cells(np.array(floats).T.ravel(), quote)
                           .reshape(n, len(floats), _WIDTH).transpose(1, 0, 2))
    cells = [next(float_cells) if column.dtype.kind == "f"
             else _other_cells(column, quote) for column in columns]
    row = lead + sep.join(bytes(cell.shape[1]) for cell in cells) + end
    text = np.tile(np.frombuffer(row, np.uint8), (n, 1))
    start = len(lead)
    for cell in cells:
        text[:, start:start + cell.shape[1]] = cell
        start += cell.shape[1] + len(sep)
    return text[text != 0].tobytes()


def _body(table: Table, lead: bytes, sep: bytes, end: bytes,
          quote: bool) -> list[bytes]:
    """The rows' text (see :func:`_rows`) in blocks of about _BLOCK_CELLS
    cells, which bounds the working memory of a long table (and keeps a
    block's arrays in cache)."""
    step = max(1, _BLOCK_CELLS // len(table.columns))
    n = len(table._data[0])
    return [_rows([c[i:i + step] for c in table._data], lead, sep, end, quote)
            for i in range(0, n, step)]


def to_csv(table: Table) -> str:
    return render(table, "csv").decode()


def to_json(table: Table) -> str:
    return render(table, "json").decode()


def parse_json(text: str) -> Table:
    """Inverse of :func:`to_json`; cell types follow the JSON values, and a
    column of floats and quoted "nan"/"inf"/"-inf" is a float column."""
    data = json.loads(text)
    if data.get("schema") != 1:
        raise ValueError(f"unsupported table schema: {data.get('schema')!r}")
    rows = [list(r) for r in data["rows"]]
    for i, cells in enumerate(zip(*rows)):
        if all(type(c) is float or c in _NON_FINITE for c in cells):
            for row in rows:
                row[i] = float(row[i])
    return Table(list(data["columns"]), rows)


def render(table: Table, fmt: str) -> bytes:
    """The table in ``fmt`` ("csv" or "json") as the UTF-8 bytes a file
    receives; :func:`to_csv` and :func:`to_json` give the same text as
    str."""
    if fmt == "csv":
        return b"".join([",".join(table.columns).encode(), b"\n",
                         *_body(table, b"", b",", b"\n", quote=False)])
    if fmt == "json":
        rows = _body(table, b" [", b", ", b"],\n", quote=True)
        if rows:
            rows[-1] = rows[-1][:-2]  # no comma after the last row
        head = (f'{{"schema": 1,\n "columns": {json.dumps(table.columns)},'
                '\n "rows": [\n')
        return b"".join([head.encode(), *rows, b"\n]}\n"])
    raise ValueError(f"unknown format {fmt!r} (expected csv or json)")
