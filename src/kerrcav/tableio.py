"""Deterministic tabular output: CSV and JSON with fixed float formatting.

Floats are always written as ``"%.16e"`` (17 significant digits) so
identical inputs produce byte-identical files; non-finite values render as
"nan"/"inf"/"-inf" (quoted strings in JSON, which has no literals for
them).  A column handed over as ``(values, index)`` (:class:`Table`) has
its values formatted once per table, and each row gathers its cell; the
other float cells of a block of rows (:func:`_body`) are formatted in one
NumPy pass (:func:`_float_cells`): for zero and 1e-290 <= |x| <
1e290, |x| times a double-double power of ten (Dekker's exact products,
Numer. Math. 18, 1971) gives the 17-digit integer with a bound on its error
(after Adams, "Ryu: fast float-to-string conversion", PLDI 2018), and table
lookups (:func:`_tables`) turn its digit groups and the exponent into the
six 4-byte words of a cell's slot, exactly CPython's text.  Where the bound
cannot certify the rounding (within about 1e-14 of the last digit's
halfway point, exact ties included) the cell falls back to ``"%.16e" %``,
as do NaN, infinities, subnormals and the normal |x| below 1e-290 or from
1e290 up, once per distinct value.  Parsing an emitted JSON table and
re-emitting it reproduces the bytes exactly.
"""

import functools
import json

import numpy as np

# the Python type of a column by NumPy dtype kind
_KINDS = {"b": bool, "i": int, "u": int, "f": float, "U": str}
_NON_FINITE = ("nan", "inf", "-inf")
_BOOLS = np.frombuffer(b"falsetrue\0", np.uint8).reshape(2, 5)  # bool slots


def _typed(values, size=None) -> np.ndarray:
    """``values`` as a read-only 1-d array of one cell type; with ``size``,
    an index into that many values."""
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
    if size is not None and (array.dtype.kind not in "iu" or array.size and
                             not 0 <= array.min() <= array.max() < size):
        raise ValueError(f"a column index must hold integers in [0, {size})")
    view = array.view()
    view.flags.writeable = False
    return view


def _column(data):
    """A column as (values, index), the column values[index]: an array is
    taken as it is, with index None."""
    values, index = data if isinstance(data, tuple) else (data, None)
    values = _typed(values)
    return values, None if index is None else _typed(index, values.size)


class Table:
    """Named, typed columns of equal length.

    Each column is a 1-d NumPy array of floats, integers, booleans or
    strings, never a mix.  ``rows`` gives the cells row by row (a one-row
    record is ``Table(columns, [row])``); :meth:`from_columns` takes one
    array per column instead, as a sweep hands its result arrays over, or a
    pair ``(values, index)``, the column ``values[index]`` kept encoded
    (:func:`_body`), which ``rows`` and :meth:`column` expand.  A column of
    zero rows has no cell type yet.  A str cell may not hold a NUL
    character, since the row template drops NUL padding (:func:`_rows`).
    """

    def __init__(self, columns: list[str], rows=()):
        rows = list(rows)
        if not set(map(len, rows)) <= {len(columns)}:
            raise ValueError(f"every row needs {len(columns)} cells")
        self._set(columns, list(map(list, zip(*rows))) or [[]] * len(columns))

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
        self._data = list(map(_column, data))
        self._length, *other = {len(v if i is None else i)
                                for v, i in self._data}
        if other:
            raise ValueError("every column needs the same length")

    @property
    def rows(self) -> list[tuple]:
        """The cells row by row, as Python values (a copy)."""
        return list(zip(*((v if i is None else v[i]).tolist()
                          for v, i in self._data)))

    def column(self, name: str) -> np.ndarray:
        """The stored (read-only) column, or an encoded one expanded."""
        values, index = self._data[self.columns.index(name)]
        return values if index is None else _typed(values[index])


def format_float(x: float) -> str:
    """Fixed 17-significant-digit scientific form; 'nan'/'inf'/'-inf' for
    non-finite values (which is how Python formats them)."""
    return f"{x:.16e}"


# ---------------------------------------------------------- float cells

_WIDTH = 24  # "-d.dddddddddddddddde-ddd", the longest "%.16e" text
_BLOCK_CELLS = 1 << 14  # cells rendered at once
_LOW, _HIGH = 1e-290, 1e290  # the |x| of the vector path, besides zero
_K_MIN, _K_MAX = -275, 308  # the powers 10^k that path takes
# There s = |x| * 10^k lies in [1e16, 1e17), no power or partial product is
# subnormal or infinite, and s carries a relative error below 2^-104
# (table, two products, one sum), so below 5e-15 in units of its last
# digit; a rounding is certified when s sits further than this from a
# halfway point.
_MARGIN = 1e-14


@functools.cache
def _tables():
    """The powers 10^k for k in [_K_MIN, _K_MAX] as rows (p, p_hi, p_lo,
    q): p the double nearest 10^k, q the double nearest 10^k - p, and p's
    upper 26 and lower 26 (signed) bits.  Then uint32 words of four ASCII
    bytes each: sign (NUL or "-"), digit, point, digit for 0..100;
    0000..9999; 000e..999e; the exponent 16 - k of each power, its
    hundreds NUL below 100.  Built from Python integers on first use."""
    powers = []
    for k in range(_K_MIN, _K_MAX + 1):
        num, den = (10**k, 1) if k >= 0 else (1, 10**-k)
        p = num / den  # int division rounds correctly
        m, d = p.as_integer_ratio()
        powers.append((p, (num * d - m * den) / (den * d)))
    p, q = np.array(powers).T
    # round to 26 bits: masking, unlike Veltkamp's split, cannot overflow
    p_hi = ((p.view(np.int64) + (1 << 26)) & -(1 << 27)).view(np.float64)

    def words(texts):  # four ASCII bytes as one uint32, in memory order
        return np.frombuffer("".join(texts).encode(), np.uint32)

    signed = [f"{16 - k:+04d}" for k in range(_K_MIN, _K_MAX + 1)]
    return (np.stack([p, p_hi, p - p_hi, q], axis=1),
            words(s + d[0] + "." + d[-1] for s in "\0-"
                  for d in map("{:02d}".format, range(101))),
            words(map("{:04d}".format, range(10**4))),
            words(map("{:03d}e".format, range(1000))),
            words(e if e[1] != "0" else e[0] + "\0" + e[2:] for e in signed))


def _scaled(v, i):
    """v * 10^k as a double-double (hi, lo), for the power at index i of
    the tables (k = i + _K_MIN)."""
    p, p_hi, p_lo, q = _tables()[0].take(i, axis=0).T
    # v's upper 26 and lower 27 bits: with p's 26 and 26, Dekker's partial
    # products and sums are exact, so head + tail = v * p
    v_hi = (v.view(np.int64) & -(1 << 27)).view(np.float64)
    v_lo = v - v_hi
    head = v * p
    tail = ((v_hi * p_hi - head) + v_hi * p_lo + v_lo * p_hi) + v_lo * p_lo
    tail += v * q
    hi = head + tail
    return hi, tail - (hi - head)


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
    fast = (a >= _LOW) & (a < _HIGH)
    v = np.where(fast, a, 2.0)  # a placeholder clear of powers of ten
    # the index k - _K_MIN of 10^k, k = 16 - floor(log10(v)), by truncation
    # (one too high where log10(v) is whole; the check below steps it back)
    i = (16 - _K_MIN + 1 - np.log10(v)).astype(np.intp)
    hi, lo = _scaled(v, i)
    # log10 can be one off next to a power of ten: judge from the unrounded
    # s = hi + lo whether it lies in [1e16, 1e17), and rescale where not
    # (1e16 - hi is exact wherever lo can tip the comparison)
    step = (1e16 - hi > lo).astype(np.intp) - (1e17 - hi <= lo)
    fix = step.nonzero()[0]
    if fix.size:
        i[fix] += step[fix]
        hi[fix], lo[fix] = _scaled(v[fix], i[fix])
    whole = np.rint(lo)
    n = hi.astype(np.int64) + whole.astype(np.int64)
    certain = fast & (np.abs(lo - whole) < 0.5 - _MARGIN)
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

    rest = (nonzero & ~certain).nonzero()[0]
    if rest.size:
        bits, index = np.unique(x[rest].view(np.int64), return_inverse=True)
        texts = [_float_text(b, quote) for b in bits.view(np.float64).tolist()]
        buf.view(np.uint8)[rest] = _padded(texts, _WIDTH)[index]
    return buf.view(np.uint8)


def _encoded(values, index, quote: bool):
    """An encoded column's slots, each value formatted once, and its index;
    a stored bool column is encoded over [False, True] by its uint8 view,
    and a block of a stored int or str one has a slot per row (index None)."""
    kind = values.dtype.kind
    if kind == "b" and index is None:
        return _BOOLS, values.view(np.uint8)
    if kind == "f":
        return _float_cells(values, quote), index
    text = json.dumps if quote or kind == "b" else str
    return _padded(list(map(text, values.tolist()))), index


def _rows(data, rows: slice, lead: bytes, sep: bytes, end: bytes,
          quote: bool) -> bytes:
    """Rows ``rows`` as ``lead + cells joined by sep + end``: each column's
    fixed-width cell slots written into a row template, then the unused
    (NUL) bytes dropped.  The stored float columns form one kernel pass."""
    n = rows.stop - rows.start
    floats = [values[rows] for values, _ in data if values.dtype.kind == "f"]
    if floats:
        float_cells = iter(_float_cells(np.stack(floats, 1).ravel(), quote)
                           .reshape(n, len(floats), _WIDTH).transpose(1, 0, 2))
    cells = [next(float_cells) if values.dtype.kind == "f"
             else _encoded(values[rows], None, quote)[0] if index is None
             else values.take(index[rows], axis=0) for values, index in data]
    row = lead + sep.join(bytes(cell.shape[1]) for cell in cells) + end
    text = np.frombuffer(row, np.uint8)[None].repeat(n, axis=0)
    start = len(lead)
    for cell in cells:
        text[:, start:start + cell.shape[1]] = cell
        start += cell.shape[1] + len(sep)
    return text.tobytes().translate(None, b"\0")


def _body(table: Table, lead: bytes, sep: bytes, end: bytes,
          quote: bool) -> list[bytes]:
    """The rows' text (see :func:`_rows`) in blocks of about _BLOCK_CELLS
    cells, which bounds a long table's working memory (and keeps a block's
    arrays in cache), encoded and bool columns formatted once (_encoded)."""
    data = [(v, i) if i is None and v.dtype.kind != "b"
            else _encoded(v, i, quote) for v, i in table._data]
    n, step = table._length, max(1, _BLOCK_CELLS // len(data))
    return [_rows(data, slice(i, min(i + step, n)), lead, sep, end, quote)
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
    return b"".join(render_blocks(table, fmt))


def render_blocks(table: Table, fmt: str) -> list[bytes]:
    """The bytes of :func:`render` as the blocks they join (header, rows in
    blocks of about _BLOCK_CELLS cells, trailer), to write without a copy."""
    if fmt == "csv":
        return [",".join(table.columns).encode(), b"\n",
                *_body(table, b"", b",", b"\n", quote=False)]
    if fmt == "json":
        rows = _body(table, b" [", b", ", b"],\n", quote=True)
        if rows:
            rows[-1] = rows[-1][:-2]  # no comma after the last row
        head = (f'{{"schema": 1,\n "columns": {json.dumps(table.columns)},'
                '\n "rows": [\n')
        return [head.encode(), *rows, b"\n]}\n"]
    raise ValueError(f"unknown format {fmt!r} (expected csv or json)")
