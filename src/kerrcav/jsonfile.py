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
[-2^63, 2^64) as the nearest double, where json keeps the Python int.
"""

import json

import numpy as np

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
