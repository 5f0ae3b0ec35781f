"""Structured documents: the text of ``json.dumps(doc, indent=2,
sort_keys=True) + "\\n"``, passed to ``write`` with at most 256 rows, list
items or mapping entries per write.  Standard library only.
"""

from __future__ import annotations

from collections.abc import Mapping
from functools import lru_cache
from itertools import islice, repeat
from json.encoder import encode_basestring_ascii
from operator import add


class Rows:
    """A document list of rows given by their values: ``dict(zip(keys,
    t))`` per tuple t of ``values``, ``keys`` being distinct str in sorted
    order.  The writer reads ``values`` once, so a one-shot iterator serves
    a document written once.  Iterated, a Rows gives its rows as dicts, and
    it equals a list of those."""

    __slots__ = ("keys", "values")

    def __init__(self, keys, values):
        self.keys, self.values = tuple(keys), values

    def __iter__(self):
        return map(dict, map(zip, repeat(self.keys), self.values))

    def __eq__(self, other):
        if isinstance(other, (Rows, list)):
            return list(self) == list(other)
        return NotImplemented


_CHUNK = 256   # rows, list items and mapping entries per write
_LITERALS = {None: "null", True: "true", False: "false"}


def _row_template(keys, inner):
    """The template of a row of ``keys`` at indent ``inner``: one ``%s``
    per value."""
    # checked before the cache, which a key of a str subclass would hit
    if set(map(type, keys)) - {str}:
        raise TypeError("document keys are str")
    return _template(keys, inner)


@lru_cache(maxsize=256)
def _template(keys, inner):
    if list(keys) != sorted(set(keys)):
        raise ValueError("row keys are distinct and sorted: %r" % (keys,))
    deeper = inner + "  "
    return "{%s%s}" % (deeper, ("," + deeper).join([
        encode_basestring_ascii(name).replace("%", "%%") + ": %s"
        for name in keys]) + inner) if keys else "{}"


class _Writer:
    """One document's text, passed to ``write`` in chunks.

    ``parts`` holds the text since the last chunk, and ``held`` the rows,
    list items and mapping entries in it; the parts are written before
    they would hold over ``_CHUNK``, and ``writes`` counts the writes.
    ``seen`` holds, by id, where in ``parts`` each mapping written since
    the last write lies, so that one met again at the same indent is
    copied, not written again.
    """

    def __init__(self, write):
        self.write = write
        self.parts, self.held, self.writes, self.seen = [], 0, 0, {}

    def hold(self, count):
        """Make room for ``count`` more rows or items."""
        if self.held + count > _CHUNK and self.parts:
            self.write("".join(self.parts))
            self.parts.clear()
            self.seen.clear()
            self.held, self.writes = 0, self.writes + 1
        self.held += count

    def put(self, value, newline):
        """Hold the text of ``value``, whose inner lines start ``newline``:
        a list's items and a mapping's entries ``_CHUNK`` at a time."""
        kind = type(value)
        if kind is str:
            self.parts.append(encode_basestring_ascii(value))
        elif kind is int:
            self.parts.append(int.__repr__(value))
        elif value is None or kind is bool:
            self.parts.append(_LITERALS[value])
        elif kind is Rows:
            self.rows(value.keys, value.values, newline)
        elif kind is list or kind is tuple:
            self.items(value, None, newline)
        elif kind is dict or isinstance(value, Mapping):
            keys = sorted(value)
            if set(map(type, keys)) - {str}:
                raise TypeError("document keys are str")
            done = self.seen.get(id(value))
            if done is not None and done[1] == newline:
                text = "".join(self.parts[done[2]:done[3]])
                self.hold(done[4])   # which may write the parts
                self.parts.append(text)
                return
            start, held, writes = len(self.parts), self.held, self.writes
            self.items(value, keys, newline)
            if self.writes == writes:
                # the value is kept, so that no other takes its id
                self.seen[id(value)] = (value, newline, start, len(self.parts),
                                        self.held - held)
        else:
            raise TypeError("%s is not a document type" % kind.__name__)

    def items(self, value, keys, newline):
        """Hold the items of the list ``value``, or the entries of the
        mapping ``value`` in the order of its ``keys``.  A chunk of str
        items is one join, and a chunk of ``Rows`` may be one ``%``."""
        parts, inner = self.parts, newline + "  "
        sep, size = "," + inner, len(value if keys is None else keys)
        if not size:
            parts.append("[]" if keys is None else "{}")
            return
        lead = ("[" if keys is None else "{") + inner
        for k in range(0, size, _CHUNK):
            if keys is None:
                chunk = value[k:k + _CHUNK]
                heads = [""] * len(chunk)
            else:
                heads = keys[k:k + _CHUNK]
                chunk = list(map(value.__getitem__, heads))
                heads = list(map(add, map(encode_basestring_ascii, heads),
                                 repeat(": ")))
            self.hold(len(chunk))
            kind = type(chunk[0])
            if kind is str and keys is None:
                try:
                    parts.append(lead + sep.join(map(encode_basestring_ascii,
                                                     chunk)))
                    lead = sep
                    continue
                except TypeError:   # not every item is a str
                    pass
            if kind is Rows and self.rows_of(chunk, heads, lead, inner):
                lead = sep
                continue
            for head, item in zip(heads, chunk):
                kind = type(item)
                parts.append(lead + head)
                if kind is str:
                    parts.append(encode_basestring_ascii(item))
                elif kind is int:
                    parts.append(int.__repr__(item))
                else:
                    self.put(item, inner)
                lead = sep
        parts.append(newline + ("]" if keys is None else "}"))

    def rows_of(self, chunk, heads, lead, inner):
        """Hold a chunk of ``Rows`` of one key tuple and at most ``_CHUNK``
        rows in all, given as lists or tuples, by one ``%``; False if the
        chunk is not one."""
        keys, deeper = chunk[0].keys, inner + "  "
        row, lists, values = _row_template(keys, deeper), {}, []
        template = [lead]
        for head, rows in zip(heads, chunk):
            if type(rows) is not Rows or rows.keys != keys or type(
                    rows.values) not in (list, tuple):
                return False
            n = len(rows.values)
            if n not in lists:
                lists[n] = "[" + deeper + ("," + deeper).join(
                    [row] * n) + inner + "]" if n else "[]"
            template += head.replace("%", "%%"), lists[n], "," + inner
            values += rows.values
        if len(values) > _CHUNK:
            return False
        self.hold(len(values))
        template[-1] = ""
        self.parts.append("".join(template) % self.texts(
            values, len(keys), deeper + "  "))
        return True

    def text(self, value, newline):
        """The whole text of ``value``, whose inner lines start
        ``newline``."""
        parts = []
        writer = _Writer(parts.append)
        writer.put(value, newline)
        return "".join(parts + writer.parts)

    def texts(self, rows, width, newline):
        """The texts of the values of ``rows``, ``width`` to a row, as a
        tuple: str and int inline, any other value through ``text``."""
        if set(map(len, rows)) - {width}:
            raise TypeError("a row has other than %d values" % width)
        return tuple([encode_basestring_ascii(v) if type(v) is str
                      else int.__repr__(v) if type(v) is int
                      else self.text(v, newline) for t in rows for v in t])

    def rows(self, keys, values, newline):
        """Hold the rows of ``keys`` from the tuples ``values``, read once,
        by one ``%`` of the row template per ``_CHUNK`` rows: str and int
        values are written inline, any other through ``text``."""
        inner = newline + "  "
        deeper, sep, width = inner + "  ", "," + inner, len(keys)
        row = _row_template(keys, inner)
        values, lead = iter(values), "[" + inner
        for chunk in iter(lambda: list(islice(values, _CHUNK)), []):
            self.hold(len(chunk))
            self.parts.append(lead + sep.join([row] * len(chunk))
                              % self.texts(chunk, width, deeper))
            lead = sep
        self.parts.append("[]" if lead[0] == "[" else newline + "]")


def write_document(doc, write):
    """Pass the text of ``json.dumps(doc, indent=2, sort_keys=True) +
    "\\n"`` to ``write`` in chunks of at most ``_CHUNK`` rows, list items
    and mapping entries, with the text around them.

    A document holds only str, int, bool, None, ``Rows``, and dicts (or
    mappings) with str keys, lists and tuples of these; anything else
    raises TypeError.
    """
    writer = _Writer(write)
    writer.put(doc, "\n")
    writer.parts.append("\n")
    write("".join(writer.parts))


def document_text(doc):
    """The text ``write_document`` writes, joined."""
    parts = []
    write_document(doc, parts.append)
    return "".join(parts)


def document_bytes(doc):
    """``document_text(doc)``, encoded."""
    return document_text(doc).encode()
