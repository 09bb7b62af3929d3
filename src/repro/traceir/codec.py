"""The columnar trace IR codec.

A durable trace is a small binary container::

    magic "WTIR" | uvarint version | stream-kind byte | uvarint n
    n x section:  id byte | uvarint length | crc32 (u32 LE) | payload

Event streams use three columnar sections — kind codes, delta+zigzag
encoded site/function ids, and an operand block (per-event counts, a
type-tag column, then the packed values: zigzag varints for integers,
8-byte IEEE doubles for floats).  Scan packs (:mod:`repro.traceir.
pack`) reuse the same container with additional sections and a
distinct stream kind so an event blob can never be misread as a pack.

Decoding is paranoid by construction: every truncation, CRC mismatch,
unknown version/stream/section/tag, duplicate or missing section,
out-of-range id and trailing byte is lifted to a typed, non-retryable
:class:`~repro.resilience.errors.TraceCorruption`.  The decoder never
returns "best effort" events — a blob either round-trips exactly or
it is corrupt.
"""

from __future__ import annotations

import struct
import zlib

from ..instrument.hooks import HookEvent
from ..resilience.errors import TraceCorruption

__all__ = ["TRACEIR_VERSION", "TRACEIR_MAGIC", "STREAM_EVENTS",
           "STREAM_PACK", "EventStreamEncoder", "encode_events",
           "decode_events", "iter_events", "pack_sections",
           "unpack_sections", "write_uvarint", "write_svarint",
           "Reader"]

TRACEIR_MAGIC = b"WTIR"
# v1: events + classic pack sections.  v2 adds the optional semantic
# section (pack section 21) carrying the DB read/write surface the
# semantic oracle families replay over.  Both decode; the version a
# blob was framed with is returned so pack decoding can gate the new
# section on it.
TRACEIR_VERSION = 2
_SUPPORTED_VERSIONS = (1, 2)

# Stream kinds: what the container holds.
STREAM_EVENTS = 0        # a bare HookEvent stream
STREAM_PACK = 1          # a self-contained scan replay pack

# Section ids.  1-15 are event-stream columns, 16+ pack-level tables.
SEC_EVENT_KINDS = 1
SEC_EVENT_IDS = 2
SEC_EVENT_OPERANDS = 3

_EVENT_SECTIONS = (SEC_EVENT_KINDS, SEC_EVENT_IDS, SEC_EVENT_OPERANDS)

_KIND_NAMES = ("instr", "post", "begin", "end")
_KIND_CODES = {name: code for code, name in enumerate(_KIND_NAMES)}

# A section count or per-event operand count past this is framing
# damage, not data: reject before allocating anything proportional.
_MAX_SECTIONS = 64

_TAG_INT = 0
_TAG_FLOAT = 1


# -- varint primitives -----------------------------------------------------

def write_uvarint(out: bytearray, value: int) -> None:
    """LEB128-style unsigned varint."""
    if value < 0:
        raise ValueError("uvarint cannot encode a negative value")
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return


def _zigzag(value: int) -> int:
    return (value << 1) if value >= 0 else ((-value << 1) - 1)


def _unzigzag(value: int) -> int:
    return (value >> 1) if not (value & 1) else -((value + 1) >> 1)


def write_svarint(out: bytearray, value: int) -> None:
    """Zigzag-mapped signed varint (arbitrary-precision safe)."""
    write_uvarint(out, _zigzag(value))


class Reader:
    """Bounds-checked cursor over one section's payload.

    Every overrun raises :class:`TraceCorruption` with the section
    name and the byte offset of the defect.
    """

    __slots__ = ("data", "pos", "section")

    def __init__(self, data: bytes, section: str):
        self.data = data
        self.pos = 0
        self.section = section

    def fail(self, detail: str) -> None:
        raise TraceCorruption(detail, section=self.section,
                              offset=self.pos)

    def u8(self) -> int:
        if self.pos >= len(self.data):
            self.fail("truncated: expected another byte")
        byte = self.data[self.pos]
        self.pos += 1
        return byte

    def uvarint(self) -> int:
        value = 0
        shift = 0
        while True:
            byte = self.u8()
            value |= (byte & 0x7F) << shift
            if not (byte & 0x80):
                return value
            shift += 7
            if shift > 70:
                self.fail("uvarint runs past 10 bytes")

    def svarint(self) -> int:
        return _unzigzag(self.uvarint())

    def f64(self) -> float:
        if self.pos + 8 > len(self.data):
            self.fail("truncated: expected an 8-byte float")
        (value,) = struct.unpack_from("<d", self.data, self.pos)
        self.pos += 8
        return value

    def raw(self, length: int) -> bytes:
        if length < 0 or self.pos + length > len(self.data):
            self.fail(f"truncated: expected {length} more bytes")
        chunk = self.data[self.pos:self.pos + length]
        self.pos += length
        return chunk

    def done(self) -> None:
        if self.pos != len(self.data):
            self.fail(f"{len(self.data) - self.pos} trailing bytes")


# -- container framing -----------------------------------------------------

def pack_sections(stream_kind: int,
                  sections: list[tuple[int, bytes]]) -> bytes:
    """Frame ``(id, payload)`` sections into a versioned container."""
    out = bytearray()
    out += TRACEIR_MAGIC
    write_uvarint(out, TRACEIR_VERSION)
    out.append(stream_kind)
    write_uvarint(out, len(sections))
    for sec_id, payload in sections:
        out.append(sec_id)
        write_uvarint(out, len(payload))
        out += struct.pack("<I", zlib.crc32(payload) & 0xFFFFFFFF)
        out += payload
    return bytes(out)


def unpack_sections(blob: bytes, stream_kind: int,
                    known_sections: tuple = ()
                    ) -> tuple[int, dict[int, bytes]]:
    """Parse and checksum-verify a container.

    Returns ``(version, sections-by-id)`` — every supported version
    decodes, and the caller gates version-specific sections on the
    returned number.  ``known_sections`` is the closed set of legal
    ids for this stream kind — anything else is corruption, not
    forward compatibility (the version header is what moves the
    format forward).
    """
    blob = bytes(blob)
    reader = Reader(blob, "header")
    if reader.raw(4) != TRACEIR_MAGIC:
        reader.pos = 0
        reader.fail("bad magic: not a trace IR blob")
    version = reader.uvarint()
    if version not in _SUPPORTED_VERSIONS:
        reader.fail(f"unsupported trace IR version {version} "
                    f"(this build speaks up to {TRACEIR_VERSION})")
    kind = reader.u8()
    if kind != stream_kind:
        reader.fail(f"stream kind {kind} where {stream_kind} was "
                    "expected")
    count = reader.uvarint()
    if count > _MAX_SECTIONS:
        reader.fail(f"absurd section count {count}")
    sections: dict[int, bytes] = {}
    for _ in range(count):
        sec_id = reader.u8()
        if known_sections and sec_id not in known_sections:
            reader.fail(f"unknown section id {sec_id}")
        if sec_id in sections:
            reader.fail(f"duplicate section id {sec_id}")
        length = reader.uvarint()
        crc_bytes = reader.raw(4)
        payload = reader.raw(length)
        (crc,) = struct.unpack("<I", crc_bytes)
        if zlib.crc32(payload) & 0xFFFFFFFF != crc:
            reader.fail(f"section {sec_id} checksum mismatch")
        sections[sec_id] = payload
    reader.done()
    return version, sections


# -- event stream columns --------------------------------------------------

class EventStreamEncoder:
    """Streaming columnar encoder for a :class:`HookEvent` sequence.

    Events are appended one at a time (so a fuzzing loop never holds
    a second full copy of the trace) and the columns are framed once
    on :meth:`finish`.
    """

    def __init__(self) -> None:
        self._count = 0
        self._kinds = bytearray()
        self._ids = bytearray()
        self._prev_id = 0
        self._counts = bytearray()
        self._tags = bytearray()
        self._values = bytearray()

    def add(self, event: HookEvent) -> None:
        code = _KIND_CODES.get(event.kind)
        if code is None:
            raise ValueError(f"unknown event kind {event.kind!r}")
        self._kinds.append(code)
        ident = event.site_id if event.site_id is not None \
            else event.func_id
        if ident is None or ident < 0:
            raise ValueError("event has no usable site/function id")
        write_svarint(self._ids, ident - self._prev_id)
        self._prev_id = ident
        write_uvarint(self._counts, len(event.operands))
        for operand in event.operands:
            if isinstance(operand, float):
                self._tags.append(_TAG_FLOAT)
                self._values += struct.pack("<d", operand)
            elif isinstance(operand, int):
                self._tags.append(_TAG_INT)
                write_svarint(self._values, operand)
            else:
                raise ValueError(
                    f"unencodable operand type {type(operand).__name__}")
        self._count += 1

    def sections(self) -> list[tuple[int, bytes]]:
        kinds = bytearray()
        write_uvarint(kinds, self._count)
        kinds += self._kinds
        operands = bytes(self._counts) + bytes(self._tags) \
            + bytes(self._values)
        return [(SEC_EVENT_KINDS, bytes(kinds)),
                (SEC_EVENT_IDS, bytes(self._ids)),
                (SEC_EVENT_OPERANDS, operands)]

    def finish(self) -> bytes:
        return pack_sections(STREAM_EVENTS, self.sections())


def encode_events(events) -> bytes:
    """One-shot encode of an in-memory event list."""
    encoder = EventStreamEncoder()
    for event in events:
        encoder.add(event)
    return encoder.finish()


def decode_event_sections(sections: dict[int, bytes]) -> list[HookEvent]:
    """Decode the three event columns out of a parsed container."""
    for sec_id in _EVENT_SECTIONS:
        if sec_id not in sections:
            raise TraceCorruption(
                f"missing event section {sec_id}", section="events")
    kinds = Reader(sections[SEC_EVENT_KINDS], "event-kinds")
    count = kinds.uvarint()
    codes = [kinds.u8() for _ in range(count)]
    kinds.done()
    for code in codes:
        if code >= len(_KIND_NAMES):
            raise TraceCorruption(f"unknown event kind code {code}",
                                  section="event-kinds")
    ids_reader = Reader(sections[SEC_EVENT_IDS], "event-ids")
    ids = []
    prev = 0
    for _ in range(count):
        prev += ids_reader.svarint()
        if prev < 0:
            ids_reader.fail("negative site/function id")
        ids.append(prev)
    ids_reader.done()
    ops = Reader(sections[SEC_EVENT_OPERANDS], "event-operands")
    counts = [ops.uvarint() for _ in range(count)]
    total = sum(counts)
    tags = [ops.u8() for _ in range(total)]
    values = []
    for tag in tags:
        if tag == _TAG_INT:
            values.append(ops.svarint())
        elif tag == _TAG_FLOAT:
            values.append(ops.f64())
        else:
            ops.fail(f"unknown operand type tag {tag}")
    ops.done()
    events: list[HookEvent] = []
    cursor = 0
    for index in range(count):
        kind = _KIND_NAMES[codes[index]]
        operands = tuple(values[cursor:cursor + counts[index]])
        cursor += counts[index]
        if kind in ("instr", "post"):
            events.append(HookEvent(kind, ids[index], None, operands))
        else:
            if operands:
                raise TraceCorruption(
                    "operands on a function-label event",
                    section="event-operands")
            events.append(HookEvent(kind, None, ids[index], ()))
    return events


def decode_events(blob: bytes) -> list[HookEvent]:
    """Decode a bare event-stream blob, or raise ``TraceCorruption``."""
    _, sections = unpack_sections(blob, STREAM_EVENTS, _EVENT_SECTIONS)
    return decode_event_sections(sections)


def iter_events(blob: bytes):
    """Generator flavour of :func:`decode_events`.

    Validation is not lazy — the whole blob is checksummed and decoded
    before the first event is yielded, so a consumer can never observe
    a prefix of a corrupt stream.
    """
    yield from decode_events(blob)
