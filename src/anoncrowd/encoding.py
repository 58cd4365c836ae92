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


def enc_bytes(b: bytes) -> bytes:
    """Length-prefixed byte string."""
    return enc_u32(len(b)) + b


def canon(*parts: bytes) -> bytes:
    """Unambiguous concatenation: every part is length-prefixed."""
    out = bytearray()
    for p in parts:
        out += enc_u32(len(p))
        out += p
    return bytes(out)


def record(tag: str, *parts: bytes) -> bytes:
    """Tagged canonical record. The tag pins the record type and the wire
    version so cross-type collisions are impossible."""
    t = tag.encode("ascii")
    return enc_bytes(t) + enc_u16(WIRE_VERSION) + canon(*parts)


def record_fields(data: bytes, tag: str, count: int) -> list[bytes]:
    """The parts of a record built by record with exactly `count` of them,
    after validating the tag and the wire version."""
    pos = 0

    def take(n: int) -> bytes:
        nonlocal pos
        if pos + n > len(data):
            raise EncodingError("record truncated")
        pos += n
        return data[pos - n : pos]

    def chunk() -> bytes:
        return take(int.from_bytes(take(4), "little"))

    got = chunk()
    if got != tag.encode("ascii"):
        raise EncodingError(f"expected record tag {tag!r}, got {got!r}")
    version = int.from_bytes(take(2), "little")
    if version != WIRE_VERSION:
        raise EncodingError(f"unsupported wire version {version}")
    fields = [chunk() for _ in range(count)]
    if pos != len(data):
        raise EncodingError(f"trailing bytes in {tag} record")
    return fields
