"""The plain YAML subset of a config file, read without PyYAML.

``load(text)`` returns what ``yaml.safe_load(text) or {}`` returns, with the
same types and key order, for a text inside the subset below, and None for
any other text, which the caller then gives to PyYAML.  So no value, error
message or line number depends on which of the two read a config.

The subset:

* printable ASCII and line feeds only (no tab, carriage return, byte-order
  mark or other character), at most 1024 characters a line before its comment;
* a block mapping whose keys sit at column 0, each followed by ``:`` and
  then a space and its value, or by nothing, which gives None unless an
  indented block sequence follows;
* a value is a plain scalar, or a flow sequence ``[...]`` or flow mapping
  ``{...}`` on one line, nested at most 64 deep;
* each item of a block sequence sits at one column, ``- `` and then a
  scalar, a one-line flow collection, or the first ``key: value`` of a block
  mapping whose further keys sit at the column of that first key;
* ``#`` starts a comment at the start of a line or after a space;
* a key is a word, ``[A-Za-z_][A-Za-z0-9_]*``, that YAML 1.1 does not read as
  a boolean or null, and no mapping repeats a key;
* a scalar is such a word, a YAML 1.1 boolean (``true``/``yes``/``on`` and
  ``false``/``no``/``off``, each lower case, capitalized or upper case), a
  null (``null``, ``Null``, ``NULL``), a decimal int or a decimal with a
  fractional part (``-?(0|[1-9][0-9]*)(\\.[0-9]+)?``).
"""

from __future__ import annotations

import re

# a flow indicator, ": " (a colon then a space), a run of scalar characters, or any other
# character, which no rule below accepts
_FLOW_TOKEN = re.compile(r"[\[\]{},]|: |[^ \[\]{},:]+|\S")
# PyYAML refuses a key whose ':' comes more than this many characters after its start, so a
# longer line is left to it
_SIMPLE_KEY_SPAN = 1024
# PyYAML's composer recurses once per level and runs out of stack some hundreds of levels
# down, so deeper flow collections are left to it
_MAX_DEPTH = 64

# The YAML 1.1 booleans and nulls, in each spelling PyYAML's resolver reads
_RESERVED = {spelling: value
             for word, value in (("true", True), ("yes", True), ("on", True),
                                 ("false", False), ("no", False), ("off", False), ("null", None))
             for spelling in (word, word.capitalize(), word.upper())}


class _Refused(Exception):
    """The text leaves the subset."""


def load(text: str) -> dict | None:
    """The config document of ``text``, or None when ``text`` leaves the plain subset."""
    # ASCII from here on, where str.isidentifier() and str.isdigit() mean [A-Za-z_][A-Za-z0-9_]*
    # and [0-9]+
    if not (text.isascii() and text.replace("\n", "").isprintable()):
        return None
    lines = []
    for line in text.split("\n"):
        comment = 0 if line.startswith("#") else line.find(" #")
        content = (line if comment < 0 else line[:comment]).rstrip(" ")
        if len(content) > _SIMPLE_KEY_SPAN:
            return None
        if content:
            stripped = content.lstrip(" ")
            lines.append((len(content) - len(stripped), stripped))
    try:
        return _document(lines)
    except (_Refused, ValueError):  # ValueError: an int too long for int()
        return None


def _document(lines: list[tuple[int, str]]) -> dict:
    doc: dict = {}
    i = 0
    while i < len(lines):
        indent, content = lines[i]
        if indent:
            raise _Refused
        key, value = _entry(content, doc)
        i += 1
        if value:
            doc[key] = _inline(value)
        elif i < len(lines) and lines[i][0]:
            doc[key], i = _sequence(lines, i)
        else:
            doc[key] = None
    return doc


def _sequence(lines: list[tuple[int, str]], i: int) -> tuple[list, int]:
    """The block sequence whose first item is ``lines[i]``, and the index after it."""
    column = lines[i][0]
    items = []
    while i < len(lines) and lines[i][0]:
        indent, content = lines[i]
        if indent != column or not content.startswith("- "):
            raise _Refused
        rest = content[2:].lstrip(" ")
        i += 1
        if _split(rest) is None:
            items.append(_inline(rest))
            continue
        item: dict = {}
        key_column = indent + len(content) - len(rest)
        key, value = _entry(rest, item)
        item[key] = _inline(value) if value else None
        while i < len(lines) and lines[i][0] == key_column:
            key, value = _entry(lines[i][1], item)
            item[key] = _inline(value) if value else None
            i += 1
        items.append(item)
    return items, i


def _split(content: str) -> tuple[str, str] | None:
    """The word key and the value text (empty for none) of a ``key: value`` line, or None."""
    key, colon, value = content.partition(":")
    if not colon or not key.isidentifier() or value[:1] not in ("", " "):
        return None
    return key, value.lstrip(" ")


def _entry(content: str, mapping: dict) -> tuple[str, str]:
    """``_split`` of a line that must be a new ``key: value`` of ``mapping``."""
    entry = _split(content)
    if entry is None:
        raise _Refused
    _check_key(entry[0], mapping)
    return entry


def _check_key(key: str, mapping: dict) -> None:
    if key in _RESERVED or key in mapping or not key.isidentifier():
        raise _Refused


def _inline(text: str):
    """The value of a scalar or of a one-line flow collection."""
    if text[0] not in "[{":
        return _scalar(text)
    tokens = _FLOW_TOKEN.findall(text)
    tokens.append("")  # the end, which no rule accepts as a token
    value, i = _flow(tokens, 0)
    if tokens[i]:
        raise _Refused
    return value


def _flow(tokens: list[str], i: int, depth: int = 1) -> tuple[list | dict, int]:
    """The flow collection opened at ``tokens[i]``, ``depth`` levels down, and the index
    after its close."""
    if depth > _MAX_DEPTH:
        raise _Refused
    close = "]" if tokens[i] == "[" else "}"
    collection: list | dict = [] if close == "]" else {}
    i += 1
    if tokens[i] == close:
        return collection, i + 1
    while True:
        if close == "}":
            key = tokens[i]
            _check_key(key, collection)
            if tokens[i + 1] != ": ":
                raise _Refused
            i += 2
        if tokens[i] in ("[", "{"):
            value, i = _flow(tokens, i, depth + 1)
        else:
            value, i = _scalar(tokens[i]), i + 1
        if close == "]":
            collection.append(value)
        else:
            collection[key] = value
        if tokens[i] == close:
            return collection, i + 1
        if tokens[i] != ",":
            raise _Refused
        i += 1


def _scalar(text: str):
    if text in _RESERVED:
        return _RESERVED[text]
    if text.isidentifier():
        return text
    whole, dot, fraction = text.removeprefix("-").partition(".")
    if whole.isdigit() and (whole == "0" or whole[0] != "0"):
        if not dot:
            return int(text)
        if fraction.isdigit():
            return float(text)
    raise _Refused
