"""Canonical byte encodings.

Every hashed or logged record is built from these helpers so that two
implementations of the same value can never disagree on bytes. Rules:
fixed-width integers are little-endian; variable-length fields are
length-prefixed; composite records carry a short ASCII tag so encodings of
different record types never collide. The wire format is versioned by
WIRE_VERSION.
"""

from __future__ import annotations

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
