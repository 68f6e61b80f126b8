"""The one JSON reader behind every input file: sweep and fit configs and
line profiles.

orjson decodes a number to the same double as json, several times faster,
so a file is read by orjson where it can be, in the first of three ways
that applies:

1. A line profile (a read with ``float_keys``) whose every '[' opens an
   array of scalars that is a value of the top object is decoded one array
   at a time, so orjson's working copy of its input (about twice the
   input) is the size of one array, not of the file.
2. Any other document with fewer than ORJSON_MAX_BRACES '{' and '[' is
   decoded whole.
3. The rest, and every file orjson refuses (NaN, Infinity, numbers past
   float range, malformed JSON, a byte-order mark, invalid UTF-8), is read
   again as text by json, so it loads or fails as it always has.  A
   document nested too deeply for json is a ValueError.

The one difference from json: orjson reads an integer outside
[-2^63, 2^64) as the nearest double, where json keeps the Python int.  A
cell read as a float (a rate, a drive, a fit row) has the same bits either
way, and an integer field reports the double it got.

The cell rules of every input file live here too (:func:`_number`: an int
or float, not a bool, and finite), so a bad cell reads the same in a
config, a fit file and a profile, named by its path (``offsets[2]``,
``fit.refl_data[5][1]``, ``C[7]``); so do the configs' header and reader.
"""

import json
import math
import os

import numpy as np

SCHEMA_VERSION = 1

# orjson 3.8 recurses without a limit: a document nested about 10**5 deep
# overflows the C stack and kills the process.  A document (or a skeleton,
# below) with fewer braces than this cannot nest that deep.
ORJSON_MAX_BRACES = 1024


def read_json(path, kind, float_keys=()):
    """The JSON document in the file at ``path``; ``kind`` ("config",
    "profile") names the file in errors.  Given ``float_keys`` it is first
    decoded array by array, and a top-level array under one of them that
    holds numbers only is a float64 array, with the bits float() gives
    each number; every other value is what json.load returns."""
    with open(path, "rb") as fh:
        raw = fh.read()
    # imported here: orjson's import loads uuid and zoneinfo, which a
    # command that reads no file need not pay for
    import orjson

    data = _flat_arrays(orjson, raw, float_keys) if float_keys else None
    if data is None and \
            raw.count(b"{") + raw.count(b"[") < ORJSON_MAX_BRACES:
        try:
            data = orjson.loads(raw)
        except orjson.JSONDecodeError:
            pass
    if data is not None:
        return data
    del raw
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except RecursionError:
            raise ValueError(f"{kind} file {path}: nested too deeply") from None


def _flat_arrays(orjson, raw, float_keys):
    """``raw`` decoded by orjson one array at a time, or None unless each
    '[' opens an array of scalars that is a value of the top object.

    A '[' or '{' between a '[' and the next ']' (a nested array or object,
    as in a fit file's rows) ends the search at once, so the braces counted
    against orjson's recursion are the skeleton's: ``raw`` with the text
    from each '[' to the next ']' replaced by ``[i]``, decoded first.  A
    '[' in a string or in a nested object, or an array under a repeated
    key, leaves its index unfound or the skeleton malformed.  Each text
    must then decode alone.  A text with no '"', 't', 'f' or 'n' byte holds
    no string, true, false or null, so its cells are numbers.
    """
    spans, start = [], raw.find(b"[")
    while start >= 0:
        end = raw.find(b"]", start)
        if end < 0 or raw.find(b"{", start, end) >= 0 \
                or raw.find(b"[", start + 1, end) >= 0:
            return None
        spans.append((start, end + 1))
        start = raw.find(b"[", end)
    pieces, last = [], 0
    for i, (start, end) in enumerate(spans):
        pieces += [raw[last:start], b"[%d]" % i]
        last = end
    skeleton = b"".join(pieces) + raw[last:]
    if skeleton.count(b"{") >= ORJSON_MAX_BRACES:
        return None
    try:
        data = orjson.loads(skeleton)
    except orjson.JSONDecodeError:
        return None
    found = {value[0]: key for key, value in data.items()
             if isinstance(value, list)} if isinstance(data, dict) else {}
    if len(found) != len(spans):
        return None
    view = memoryview(raw)
    for i, (start, end) in enumerate(spans):
        try:
            array = orjson.loads(view[start:end])
        except orjson.JSONDecodeError:
            return None
        if found[i] in float_keys and all(
                raw.find(b, start, end) < 0 for b in (b'"', b"t", b"f", b"n")):
            array = np.fromiter(array, float, len(array))
        data[found[i]] = array
    return data


class ConfigError(ValueError):
    """A value of an input file breaks its rule: ``field_path`` names it
    (``drive.b1_in[0]``, ``C[7]``) and ``detail`` says how."""

    def __init__(self, field_path: str, detail: str):
        self.field_path = field_path
        self.detail = detail
        super().__init__(f"config field {field_path!r}: {detail}")


def _require(mapping, key, path):
    if key not in mapping:
        raise ConfigError(f"{path}.{key}", "missing")
    return mapping[key]


def _number(value, path, minimum=None, strict=False):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(path, f"expected a number, got {value!r}")
    try:
        v = float(value)
    except OverflowError:
        v = math.inf
    if not math.isfinite(v):
        raise ConfigError(path, f"must be finite (got {v!r})")
    if minimum is not None:
        if strict and not v > minimum:
            raise ConfigError(path, f"must be > {minimum} (got {v!r})")
        if not strict and not v >= minimum:
            raise ConfigError(path, f"must be >= {minimum} (got {v!r})")
    return v


def _integer(value, path, minimum):
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(path, f"expected an integer, got {value!r}")
    if value < minimum:
        raise ConfigError(path, f"must be >= {minimum} (got {value})")
    return value


def _floats(values, path_of, minimum=None):
    """A list's cells as finite floats >= minimum; errors name path_of(i)."""
    if {type(v) for v in values} <= {int, float}:
        # the common case in one pass; on any doubt, _number names the cell
        try:
            floats = tuple(map(float, values))
        except OverflowError:
            floats = (math.inf,)
        if all(map(math.isfinite, floats)) and (
                minimum is None or min(floats, default=minimum) >= minimum):
            return floats
    return tuple(_number(v, path_of(i), minimum=minimum)
                 for i, v in enumerate(values))


def _numbers(data, key, minimum=None):
    """``data[key]``, a list (empty if absent), as by :func:`_floats`,
    naming each cell ``key[i]``.  A float64 array the reader decoded is
    taken as it is: orjson refuses the numbers that are not finite."""
    values = data.get(key, [])
    if isinstance(values, np.ndarray):
        return values
    if not isinstance(values, list):
        raise ConfigError(key, f"expected a list, got {values!r}")
    return _floats(values, lambda i: f"{key}[{i}]", minimum)


def _header(data):
    """``data``, a sweep or fit config, if its header is this version's."""
    if not isinstance(data, dict):
        raise ConfigError("$", "top level must be an object")
    schema = data.get("schema")
    if schema != SCHEMA_VERSION:
        raise ConfigError("schema", f"expected {SCHEMA_VERSION}, got {schema!r}")
    return data


def _read_config(path):
    """The parsed config file at ``path``, and its directory."""
    return read_json(path, "config"), os.path.dirname(os.path.abspath(path))
