"""The length-prefixed binary wire codec of the net runtime.

The simulator hands Python objects between processes by reference; a real
deployment (docs/NET.md) must serialise them. Every message travels as one
frame::

    +--------+--------+----------------------+---------+
    | b"RB"  |  0x02  |  payload length (u32)| payload |
    |  2 B   |  1 B   |     big-endian       |   ...   |
    +--------+--------+----------------------+---------+

The payload is a compact binary encoding: single-byte tags, zigzag-varint
integers, raw IEEE-754 doubles, varint length prefixes and count-prefixed
containers, decoded by slicing one shared :class:`memoryview` cursor — no
per-node buffer copies. Besides the plain values it carries *registered
types* (tag ``0x0A``), which round-trip the message dataclasses faithfully
instead of lossily (``canonical()`` flattens objects for hashing; the wire
must rebuild them). The byte after the magic names this one payload format;
a frame carrying any other value is rejected.

Robustness contract: **every** malformed input — truncated, oversized,
wrong magic, wrong format byte, tampered payload, unknown type, hostile
nesting depth — raises :class:`WireError` (a :class:`~repro.errors.
ReproError`) and nothing else. Transports count these as rejections;
nothing on the wire may crash or hang a node
(``tests/test_net_wire.py`` fuzzes exactly this).
"""

from __future__ import annotations

import dataclasses
import struct
from typing import Any, Callable

from repro.errors import ReproError


class WireError(ReproError):
    """A frame or payload violates the wire format (always a rejection)."""


#: Frame magic.
MAGIC = b"RB"
#: The header byte after the magic: the one payload format this codec speaks.
FORMAT = 2
HEADER = struct.Struct(">2sBI")
#: Ceiling on one frame's payload: bounds memory against hostile length
#: prefixes while leaving room for full state-transfer snapshots.
MAX_FRAME = 8 * 1024 * 1024
#: Ceiling on payload nesting: certificates nest a few levels; a hostile
#: payload must not recurse the decoder into a stack overflow.
MAX_DEPTH = 64
#: Ceiling on one varint's byte length (≈ 4700 decimal digits).
MAX_VARINT_BYTES = 2048

#: name -> (class, to_fields, from_fields); class -> (name, to_fields).
_BY_NAME: dict[str, tuple[type, Callable[[Any], tuple], Callable[[tuple], Any]]] = {}
_BY_TYPE: dict[type, tuple[str, Callable[[Any], tuple]]] = {}


def register_wire_type(
    cls: type,
    *,
    name: str | None = None,
    to_fields: Callable[[Any], tuple] | None = None,
    from_fields: Callable[[tuple], Any] | None = None,
) -> type:
    """Register ``cls`` for faithful wire round-trips as a registered type.

    Dataclasses need no adapters: their declared field order is the wire
    field order and the constructor rebuilds them. Non-dataclasses (or
    classes whose constructor differs from their fields) pass explicit
    ``to_fields`` / ``from_fields``.
    """
    wire_name = name if name is not None else cls.__qualname__
    if to_fields is None:
        if not dataclasses.is_dataclass(cls):
            raise WireError(
                f"{cls.__name__} is not a dataclass; pass to_fields/from_fields"
            )
        field_names = tuple(f.name for f in dataclasses.fields(cls))

        def to_fields(obj: Any, _names: tuple[str, ...] = field_names) -> tuple:
            return tuple(getattr(obj, n) for n in _names)

    if from_fields is None:

        def from_fields(fields: tuple, _cls: type = cls) -> Any:
            return _cls(*fields)

    if wire_name in _BY_NAME and _BY_NAME[wire_name][0] is not cls:
        raise WireError(f"wire name {wire_name!r} registered twice")
    _BY_NAME[wire_name] = (cls, to_fields, from_fields)
    _BY_TYPE[cls] = (wire_name, to_fields)
    return cls


# -- the payload encoding ----------------------------------------------------
#
# Single-byte tags; varint(n) is base-128 little-endian with the high bit
# as the continuation flag; zigzag maps signed to unsigned before the
# varint. Containers are count-prefixed (not byte-length-prefixed), so
# the decoder walks a single cursor over one memoryview of the receive
# buffer and copies bytes only at str/bytes leaves.

_T_NONE = 0x00
_T_FALSE = 0x01
_T_TRUE = 0x02
_T_INT = 0x03
_T_FLOAT = 0x04
_T_STR = 0x05
_T_BYTES = 0x06
_T_TUPLE = 0x07
_T_DICT = 0x08
_T_SET = 0x09
_T_REG = 0x0A

_F64 = struct.Struct(">d")


def _write_varint(out: bytearray, n: int) -> None:
    while True:
        low = n & 0x7F
        n >>= 7
        if n:
            out.append(low | 0x80)
        else:
            out.append(low)
            return


def _read_varint(buf: memoryview, pos: int, end: int) -> tuple[int, int]:
    result = 0
    shift = 0
    count = 0
    while True:
        if pos >= end:
            raise WireError("truncated varint")
        byte = buf[pos]
        pos += 1
        count += 1
        if count > MAX_VARINT_BYTES:
            raise WireError("varint exceeds the byte ceiling")
        result |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return result, pos
        shift += 7


def _zigzag(value: int) -> int:
    return value * 2 if value >= 0 else -value * 2 - 1


def _unzigzag(value: int) -> int:
    return value // 2 if value % 2 == 0 else -(value // 2) - 1


def _encode(out: bytearray, value: Any, depth: int) -> None:
    if depth > MAX_DEPTH:
        raise WireError("payload nesting exceeds the depth ceiling")
    if value is None:
        out.append(_T_NONE)
        return
    if isinstance(value, bool):  # must precede int: bool is an int subclass
        out.append(_T_TRUE if value else _T_FALSE)
        return
    if isinstance(value, int):
        if value.bit_length() > 7 * MAX_VARINT_BYTES - 1:
            raise WireError("integer exceeds the varint ceiling")
        out.append(_T_INT)
        _write_varint(out, _zigzag(value))
        return
    if isinstance(value, float):
        out.append(_T_FLOAT)
        out += _F64.pack(value)
        return
    if isinstance(value, str):
        encoded = value.encode("utf-8")
        out.append(_T_STR)
        _write_varint(out, len(encoded))
        out += encoded
        return
    if isinstance(value, bytes):
        out.append(_T_BYTES)
        _write_varint(out, len(value))
        out += value
        return
    registered = _BY_TYPE.get(type(value))
    if registered is not None:
        wire_name, to_fields = registered
        name = wire_name.encode("utf-8")
        out.append(_T_REG)
        _write_varint(out, len(name))
        out += name
        fields = tuple(to_fields(value))
        _write_varint(out, len(fields))
        for field in fields:
            _encode(out, field, depth + 1)
        return
    if isinstance(value, (tuple, list)):
        out.append(_T_TUPLE)
        _write_varint(out, len(value))
        for item in value:
            _encode(out, item, depth + 1)
        return
    if isinstance(value, dict):
        # Canonically sorted by encoded key.
        items = []
        for key, val in value.items():
            key_out = bytearray()
            _encode(key_out, key, depth + 1)
            val_out = bytearray()
            _encode(val_out, val, depth + 1)
            items.append((bytes(key_out), bytes(val_out)))
        out.append(_T_DICT)
        _write_varint(out, len(items))
        for key_bytes, val_bytes in sorted(items):
            out += key_bytes
            out += val_bytes
        return
    if isinstance(value, (set, frozenset)):
        members = []
        for item in value:
            item_out = bytearray()
            _encode(item_out, item, depth + 1)
            members.append(bytes(item_out))
        out.append(_T_SET)
        _write_varint(out, len(members))
        for member in sorted(members):
            out += member
        return
    raise WireError(f"type {type(value).__name__} is not wire-encodable")


def _read_count(buf: memoryview, pos: int, end: int) -> tuple[int, int]:
    """A container/length prefix, sanity-bounded by the remaining bytes."""
    count, pos = _read_varint(buf, pos, end)
    if count > end - pos:
        # Every item/byte needs at least one payload byte, so a count
        # beyond the remainder is a hostile prefix, not a short read.
        raise WireError("declared length exceeds the enclosing payload")
    return count, pos


def _decode(buf: memoryview, pos: int, end: int, depth: int) -> tuple[Any, int]:
    if depth > MAX_DEPTH:
        raise WireError("payload nesting exceeds the depth ceiling")
    if pos >= end:
        raise WireError("truncated payload")
    tag = buf[pos]
    pos += 1
    if tag == _T_NONE:
        return None, pos
    if tag == _T_FALSE:
        return False, pos
    if tag == _T_TRUE:
        return True, pos
    if tag == _T_INT:
        raw, pos = _read_varint(buf, pos, end)
        return _unzigzag(raw), pos
    if tag == _T_FLOAT:
        if pos + 8 > end:
            raise WireError("truncated float")
        return _F64.unpack_from(buf, pos)[0], pos + 8
    if tag == _T_STR:
        length, pos = _read_count(buf, pos, end)
        try:
            return bytes(buf[pos : pos + length]).decode("utf-8"), pos + length
        except UnicodeDecodeError as exc:
            raise WireError(f"malformed str: {exc}") from exc
    if tag == _T_BYTES:
        length, pos = _read_count(buf, pos, end)
        return bytes(buf[pos : pos + length]), pos + length
    if tag == _T_TUPLE:
        count, pos = _read_count(buf, pos, end)
        items = []
        for _ in range(count):
            item, pos = _decode(buf, pos, end, depth + 1)
            items.append(item)
        return tuple(items), pos
    if tag == _T_DICT:
        count, pos = _read_count(buf, pos, end)
        mapping: dict[Any, Any] = {}
        for _ in range(count):
            key, pos = _decode(buf, pos, end, depth + 1)
            value, pos = _decode(buf, pos, end, depth + 1)
            try:
                mapping[key] = value
            except TypeError as exc:
                raise WireError(f"unhashable dict key: {exc}") from exc
        return mapping, pos
    if tag == _T_SET:
        count, pos = _read_count(buf, pos, end)
        members = []
        for _ in range(count):
            member, pos = _decode(buf, pos, end, depth + 1)
            members.append(member)
        try:
            return frozenset(members), pos
        except TypeError as exc:
            raise WireError(f"unhashable set member: {exc}") from exc
    if tag == _T_REG:
        length, pos = _read_count(buf, pos, end)
        try:
            wire_name = bytes(buf[pos : pos + length]).decode("utf-8")
        except UnicodeDecodeError as exc:
            raise WireError(f"malformed type name: {exc}") from exc
        pos += length
        entry = _BY_NAME.get(wire_name)
        if entry is None:
            raise WireError(f"unknown wire type {wire_name!r}")
        count, pos = _read_count(buf, pos, end)
        fields = []
        for _ in range(count):
            field, pos = _decode(buf, pos, end, depth + 1)
            fields.append(field)
        _cls, _to_fields, from_fields = entry
        try:
            return from_fields(tuple(fields)), pos
        except WireError:
            raise
        except Exception as exc:
            raise WireError(f"cannot rebuild {wire_name}: {exc}") from exc
    raise WireError(f"unknown payload tag {tag:#04x}")


def encode_payload(value: Any) -> bytes:
    """Encode one message to payload bytes (no frame header)."""
    out = bytearray()
    _encode(out, value, 0)
    return bytes(out)


def decode_payload(data: bytes | memoryview) -> Any:
    """Decode one payload; any malformation raises :class:`WireError`."""
    buf = data if isinstance(data, memoryview) else memoryview(data)
    try:
        value, pos = _decode(buf, 0, len(buf), 0)
    except WireError:
        raise
    except Exception as exc:  # belt and braces: hostile input never crashes
        raise WireError(f"undecodable payload: {exc}") from exc
    if pos != len(buf):
        raise WireError("trailing bytes after payload")
    return value


def encode_frame(value: Any) -> bytes:
    """Encode one message to a complete wire frame."""
    payload = encode_payload(value)
    if len(payload) > MAX_FRAME:
        raise WireError(
            f"frame payload of {len(payload)} bytes exceeds MAX_FRAME"
        )
    return HEADER.pack(MAGIC, FORMAT, len(payload)) + payload


def _payload_length(data: bytes | bytearray) -> int:
    """Check the frame header at the start of ``data``; its payload length."""
    magic, fmt, length = HEADER.unpack_from(data)
    if magic != MAGIC:
        raise WireError(f"bad frame magic {magic!r}")
    if fmt != FORMAT:
        raise WireError(f"unsupported wire format {fmt}")
    if length > MAX_FRAME:
        raise WireError(f"oversized frame: {length} bytes declared")
    return length


def decode_frame(data: bytes) -> Any:
    """Decode exactly one complete frame (loopback / tests)."""
    if len(data) < HEADER.size:
        raise WireError(f"truncated frame header: {len(data)} bytes")
    length = _payload_length(data)
    if len(data) != HEADER.size + length:
        raise WireError("frame size does not match its declared length")
    return decode_payload(memoryview(data)[HEADER.size :])


class FrameAssembler:
    """Incremental frame parser over a byte stream.

    Feed arbitrary chunks as they arrive; complete frames decode to
    messages, partial frames wait for more bytes. A malformed stream
    raises :class:`WireError` — the caller drops the connection and
    counts a rejection. One assembler per connection: the error leaves
    the buffer unusable by design (resynchronising inside a hostile
    stream is not attempted).
    """

    __slots__ = ("_buffer",)

    def __init__(self) -> None:
        self._buffer = bytearray()

    @property
    def buffered(self) -> int:
        return len(self._buffer)

    def feed(self, data: bytes) -> list[Any]:
        self._buffer += data
        messages: list[Any] = []
        while len(self._buffer) >= HEADER.size:
            frame_end = HEADER.size + _payload_length(self._buffer)
            if len(self._buffer) < frame_end:
                break  # partial frame: wait for more bytes
            # Zero-copy decode: slice a memoryview of the receive buffer
            # instead of copying the payload out. The view must be
            # released before the bytearray can shrink, so decode first,
            # then drop the consumed prefix.
            view = memoryview(self._buffer)
            try:
                message = decode_payload(view[HEADER.size : frame_end])
            finally:
                view.release()
            del self._buffer[:frame_end]
            messages.append(message)
        return messages


def _register_stack_types() -> None:
    """Register every message type the deployed service puts on the wire."""
    from repro.core.certificates import (
        Certificate,
        CertificateDigest,
        SignedMessage,
    )
    from repro.crypto.signatures import Signature
    from repro.messages.consensus import Init, VCurrent, VDecide, VNext
    from repro.net.messages import (
        Hello,
        ReadReply,
        ReadRequest,
        StatusReply,
        StatusRequest,
    )
    from repro.replication.kvstore import Command
    from repro.replication.log import SlotEnvelope
    from repro.service.checkpoint import CheckpointCertificate
    from repro.service.messages import (
        Checkpoint,
        ClientReply,
        ClientRequest,
        StateRequest,
        StateResponse,
    )

    for cls in (
        Signature,
        CertificateDigest,
        SignedMessage,
        Command,
        SlotEnvelope,
        Init,
        VCurrent,
        VNext,
        VDecide,
        ClientRequest,
        ClientReply,
        Checkpoint,
        StateRequest,
        StateResponse,
        CheckpointCertificate,
        Hello,
        ReadRequest,
        ReadReply,
        StatusRequest,
        StatusReply,
    ):
        register_wire_type(cls)
    # Certificate is a plain class sorting its entries itself; shipping
    # the entry tuple is enough to rebuild it canonically.
    register_wire_type(
        Certificate,
        to_fields=lambda cert: (cert.entries,),
        from_fields=lambda fields: Certificate(tuple(fields[0])),
    )


_register_stack_types()
