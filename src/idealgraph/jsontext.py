"""JSON text exactly as ``json.dumps(doc, indent=2)`` writes it.

With ``indent`` set, ``json.dumps`` runs CPython's pure-Python encoder, one
generator step per token. The documents the CLI prints are mostly lists of
ints, which this writer joins in C: a list of ints is one join over
``int.__repr__``, a list of equal-length rows of ints, a list of dicts with
the same str keys and int values (and a dict of ints keyed by ints) one
``%`` template per row, and only other dicts and mixed lists recurse.
Other scalars and non-str keys are written as ``json`` writes them. Only
the commands that print a JSON document import this module, and it imports
``json`` only for a string that needs escaping.
"""

from __future__ import annotations

from itertools import chain

_INF = float("inf")


def _quote(s: str) -> str:
    """``s`` as a JSON string, as ``json`` writes it with ``ensure_ascii``.
    A str of printable ASCII without quotes or backslashes stands as it is;
    any other string goes through ``json``'s C ``encode_basestring_ascii``,
    so only such a string pays for importing ``json`` (2.5-3 ms in a fresh
    process)."""
    if s.isascii() and s.isprintable() and '"' not in s and "\\" not in s:
        return '"' + s + '"'
    from json.encoder import encode_basestring_ascii
    return encode_basestring_ascii(s)


def _number(o: float) -> str:
    if o != o:
        return "NaN"
    if o == _INF:
        return "Infinity"
    if o == -_INF:
        return "-Infinity"
    return float.__repr__(o)


# The writer of each exact scalar type; subclasses take the isinstance tests.
_PLAIN = {str: _quote, int: int.__repr__, float: _number,
          bool: ("false", "true").__getitem__, type(None): lambda o: "null"}


def _json_text(doc) -> str:
    """Exactly ``json.dumps(doc, indent=2)``."""
    return _text(doc, "\n")


def _key(k) -> str:
    if isinstance(k, str):
        return _quote(k)
    if k is None or isinstance(k, (int, float)):
        return '"' + _text(k, "") + '"'
    raise TypeError(f"keys must be str, int, float, bool or None, not {type(k).__name__}")


def _dict_row(dicts: list[dict], nl: str) -> str | None:
    """The ``%`` template of each of ``dicts`` at the indent that ``nl``
    gives, when they have the same str keys in the same order and only exact
    ints as values; else None."""
    keys = tuple(dicts[0])
    if (not keys or set(map(tuple, dicts)) != {keys} or set(map(type, keys)) != {str}
            or set(map(type, chain.from_iterable(map(dict.values, dicts)))) != {int}):
        return None
    cell = "," + nl + "  "
    return ("{" + cell[1:] + cell.join([_quote(k).replace("%", "%%") + ": %d" for k in keys])
            + nl + "}")


def _text(obj, nl: str) -> str:
    """``obj`` written at the indent that ``nl`` (a newline and the
    indent) gives its closing bracket."""
    write = _PLAIN.get(type(obj))
    if write is not None:
        return write(obj)
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        inner = nl + "  "
        sep = "," + inner
        kinds = set(map(type, obj))
        if kinds == {int}:
            body = sep.join(map(int.__repr__, obj))
        elif (kinds <= {list, tuple} and len(set(map(len, obj))) == 1
                and set(map(type, chain.from_iterable(obj))) == {int}):
            cell = "," + inner + "  "
            row = "[" + cell[1:] + cell.join(["%d"] * len(obj[0])) + inner + "]"
            body = sep.join(map(row.__mod__, map(tuple, obj)))
        elif kinds == {dict} and (row := _dict_row(obj, inner)) is not None:
            body = sep.join([row % tuple(d.values()) for d in obj])
        else:
            body = sep.join([_text(x, inner) for x in obj])
        return "[" + inner + body + nl + "]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        inner = nl + "  "
        sep = "," + inner
        if set(map(type, obj)) == {int} == set(map(type, obj.values())):
            body = sep.join(map('"%d": %d'.__mod__, obj.items()))
        else:
            body = sep.join([_key(k) + ": " + _text(v, inner) for k, v in obj.items()])
        return "{" + inner + body + nl + "}"
    # subclasses of str, int and float, tested in json's order
    if isinstance(obj, str):
        return _quote(obj)
    if isinstance(obj, int):
        return int.__repr__(obj)
    if isinstance(obj, float):
        return _number(obj)
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")
