"""Canonical byte records, and the log's JSON layout of plain dataclasses.

Every hashed record is built from these helpers so that two
implementations of the same value can never disagree on bytes. Rules:
fixed-width integers are little-endian; variable-length fields are
length-prefixed; composite records carry a short ASCII tag so encodings of
different record types never collide. The wire format is versioned by
WIRE_VERSION. The JSON log's dataclasses go through to_json and from_json.
"""

from __future__ import annotations

import dataclasses
import functools
import typing
from fractions import Fraction

from .errors import EncodingError

WIRE_VERSION = 1


def enc_u16(v: int) -> bytes:
    return v.to_bytes(2, "little")


def enc_u32(v: int) -> bytes:
    return v.to_bytes(4, "little")


def enc_u64(v: int) -> bytes:
    return v.to_bytes(8, "little")


def record(tag: str, *parts: bytes) -> bytes:
    """Tagged canonical record: the length-prefixed tag, the wire version,
    then every part length-prefixed. The tag pins the record type and the
    wire version so cross-type collisions are impossible."""
    t = tag.encode("ascii")
    out = [enc_u32(len(t)), t, enc_u16(WIRE_VERSION)]
    for p in parts:
        out += (len(p).to_bytes(4, "little"), p)
    return b"".join(out)


def record_fields(data: bytes, tag: str, count: int) -> list[bytes]:
    """The parts of a record built by record with exactly `count` of them,
    after validating the tag and the wire version."""
    end = len(data)

    def chunk(pos: int) -> tuple[bytes, int]:
        start = pos + 4
        stop = start + int.from_bytes(data[pos:start], "little")
        if stop > end:
            raise EncodingError("record truncated")
        return data[start:stop], stop

    got, pos = chunk(0)
    if got != tag.encode("ascii"):
        raise EncodingError(f"expected record tag {tag!r}, got {got!r}")
    if pos + 2 > end:
        raise EncodingError("record truncated")
    version = int.from_bytes(data[pos : pos + 2], "little")
    if version != WIRE_VERSION:
        raise EncodingError(f"unsupported wire version {version}")
    fields, pos = [], pos + 2
    for _ in range(count):
        part, pos = chunk(pos)
        fields.append(part)
    if pos != end:
        raise EncodingError(f"trailing bytes in {tag} record")
    return fields


# field type -> (JSON type, writer, reader); None: the value is written and read as it stands
_JSON_KINDS: dict[type, tuple] = {
    int: (int, None, None),
    str: (str, None, None),
    float: ((int, float), None, None),
    bytes: (str, bytes.hex, bytes.fromhex),  # hex text
    Fraction: (str, str, Fraction),  # "n/d" text
}


@functools.cache
def _json_layout(cls: type) -> dict[str, tuple]:
    """cls's fields -> (JSON type, writer, reader), in field order."""
    hints = typing.get_type_hints(cls)
    layout = {f.name: _JSON_KINDS.get(hints[f.name]) for f in dataclasses.fields(cls)}
    if bad := next((name for name, kind in layout.items() if kind is None), None):
        raise TypeError(f"{cls.__name__}.{bad}: no JSON layout for {hints[bad]!r}")
    return layout


def to_json(obj) -> dict:
    """The dataclass obj as the log carries it, one key per field."""
    layout = _json_layout(type(obj)).items()
    return {name: getattr(obj, name) if write is None else write(getattr(obj, name)) for name, (_, write, _) in layout}


def from_json(cls: type, d: dict):
    """Inverse of to_json, ignoring other keys; ValueError naming the first missing or mistyped field."""
    values = {}
    for name, (kind, _, read) in _json_layout(cls).items():
        value = d.get(name)
        try:
            if not isinstance(value, kind):
                raise ValueError
            values[name] = value if read is None else read(value)
        except (ValueError, ZeroDivisionError):  # also hex or "n/d" text that does not parse
            raise ValueError(f"field {name!r} is missing or mistyped") from None
    return cls(**values)


def mistyped_field(d: dict, fields: dict) -> str | None:
    """The first of fields (name -> JSON type) that d lacks or holds with another type."""
    return next((name for name, kind in fields.items() if not isinstance(d.get(name), kind)), None)
