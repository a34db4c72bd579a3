"""Durable job journal: an append-only, CRC-framed write-ahead log.

Every cold (cache-miss) job's lifecycle transitions are journaled so a
restarted server can rebuild its jobs table exactly (DESIGN.md §4g).
This module frames, replays and compacts opaque JSON records; what a
record *means* lives beside the job model — :mod:`repro.serve.jobs`
builds the ``submit`` / ``start`` / ``preempt`` / ``retry`` /
``complete`` / ``fail`` / ``cancel`` records and applies them, in
journal order, through the one function the live server uses too.  A
``preempt`` record carries ``steps_done`` and the path of the job's
on-disk shadow checkpoint, no rows: the checkpoint restores the sim at
the preemption boundary with its series, every earlier segment's rows,
which makes post-crash resume *bitwise* exact and keeps the journal
growing with steps, not with preemptions × steps.

Framing (binary, little-endian)::

    b"SJ" | length: uint32 | crc32(payload): uint32 | payload (JSON, utf-8)

The same hardening idioms as :mod:`repro.io.checkpoint`:

- **torn tails are expected, not fatal** — a crash mid-append leaves a
  partial frame at the end of the active segment; replay detects it by
  framing/CRC, truncates the segment back to the last valid record with
  a loud warning, and carries on.  Corruption *before* the tail of the
  final segment (bit rot, a truncated earlier segment) is a different
  beast — the replay order would silently change — and raises
  :class:`JournalCorruptError` instead;
- **atomic compaction** — when the log grows past ``compact_bytes`` the
  server rewrites each job as the records that rebuild it into the
  *next* segment via tmp + ``os.replace``, then deletes the older
  segments.  A crash between replace and delete is safe: replay reads
  old segments first, and the compacted segment's ``submit`` starts each
  job over, so its records rebuild the same state.

Appends ``flush()`` to the OS on every record — durable across process
``SIGKILL`` (the crash model the chaos suite exercises).  ``sync()``
additionally ``fsync``s for OS-crash durability and runs at drain and
compaction boundaries, not per append (per-append fsync would put a
disk round-trip inside the submit path and blow the p99 latency gate).
"""

from __future__ import annotations

import json
import os
import re
import struct
import warnings
import zlib

#: Frame magic ("Serve Journal").
MAGIC = b"SJ"

#: Frame header: magic is checked separately; length + crc32 follow.
_HEADER = struct.Struct("<II")

#: Segment filename pattern (index is the rotation generation).
SEGMENT_PATTERN = re.compile(r"^journal-(\d{8})\.wal$")


class JournalCorruptError(RuntimeError):
    """The journal is damaged somewhere replay cannot safely skip."""


def segment_path(directory: str, index: int) -> str:
    return os.path.join(directory, f"journal-{index:08d}.wal")


def list_segments(directory: str) -> list[tuple[int, str]]:
    """``(index, path)`` of every journal segment, oldest first."""
    try:
        entries = os.listdir(directory)
    except FileNotFoundError:
        return []
    found = []
    for entry in entries:
        m = SEGMENT_PATTERN.match(entry)
        if m:
            found.append((int(m.group(1)), os.path.join(directory, entry)))
    return sorted(found)


def frame_record(record: dict) -> bytes:
    """Encode one record into its on-disk frame."""
    payload = json.dumps(record, separators=(",", ":")).encode()
    crc = zlib.crc32(payload) & 0xFFFFFFFF
    return MAGIC + _HEADER.pack(len(payload), crc) + payload


def read_frames(data: bytes):
    """Yield ``(offset, record)`` for every whole, valid frame in
    ``data``; returns the offset where decoding stopped.

    Stops (without raising) at the first torn/corrupt frame — the caller
    decides whether that position is an acceptable torn tail or
    mid-stream corruption.
    """
    offset = 0
    head = len(MAGIC) + _HEADER.size
    while offset + head <= len(data):
        if data[offset:offset + len(MAGIC)] != MAGIC:
            return offset
        length, crc = _HEADER.unpack_from(data, offset + len(MAGIC))
        start = offset + head
        end = start + length
        if end > len(data):
            return offset
        payload = data[start:end]
        if zlib.crc32(payload) & 0xFFFFFFFF != crc:
            return offset
        try:
            record = json.loads(payload)
        except (json.JSONDecodeError, UnicodeDecodeError):
            return offset
        yield offset, record
        offset = end
    # Fewer bytes than a header left over: offset < len(data) flags a
    # torn tail to the caller just like a failed CRC would.
    return offset


class JobJournal:
    """The server's write-ahead log of job transitions.

    One instance per ``--journal-dir``; the loop thread owns it (appends
    are plain buffered writes + flush, no locking needed).
    """

    def __init__(self, directory: str, *, compact_bytes: int = 8 << 20):
        self.directory = directory
        self.compact_bytes = int(compact_bytes)
        os.makedirs(directory, exist_ok=True)
        self._fh = None
        self._segment_index = 0
        self._bytes = 0
        #: True when the last replay truncated a torn tail.
        self.truncated_tail = False

    # -- replay ----------------------------------------------------------------

    def replay(self) -> list[dict]:
        """Read every record from every segment, oldest first.

        A torn final record in the *last* segment is truncated away with
        a loud warning (the crash-mid-append case); damage anywhere else
        raises :class:`JournalCorruptError`.
        """
        segments = list_segments(self.directory)
        records: list[dict] = []
        for pos, (index, path) in enumerate(segments):
            last = pos == len(segments) - 1
            with open(path, "rb") as fh:
                data = fh.read()
            gen = read_frames(data)
            n_before = len(records)
            stop = None
            while True:
                try:
                    _offset, record = next(gen)
                except StopIteration as fin:
                    stop = fin.value
                    break
                records.append(record)
            if stop is None or stop == len(data):
                continue
            if not last:
                raise JournalCorruptError(
                    f"journal segment {path!r} is corrupt at byte {stop} "
                    f"(not the final segment — replay order would be "
                    f"unreliable); refusing to replay"
                )
            # Torn tail of the active segment: truncate back to the last
            # valid frame and keep going — this is the crash-mid-append
            # case the framing exists for.
            warnings.warn(
                f"journal segment {path!r}: torn record at byte {stop} "
                f"of {len(data)} — truncating tail "
                f"({len(records) - n_before} records recovered from this "
                f"segment); a crash mid-append is the expected cause",
                RuntimeWarning,
                stacklevel=2,
            )
            with open(path, "r+b") as fh:
                fh.truncate(stop)
            self.truncated_tail = True
        if segments:
            self._segment_index = segments[-1][0]
        return records

    # -- appending -------------------------------------------------------------

    def open_for_append(self) -> None:
        """Open the newest segment (creating the first) for appending."""
        if self._fh is not None:
            return
        path = segment_path(self.directory, self._segment_index)
        self._fh = open(path, "ab")
        self._bytes = self._fh.tell()

    def append(self, record: dict) -> None:
        """Frame, append and flush one record."""
        if self._fh is None:
            self.open_for_append()
        frame = frame_record(record)
        self._fh.write(frame)
        self._fh.flush()
        self._bytes += len(frame)

    def append_torn(self, record: dict, keep_fraction: float = 0.5) -> None:
        """Write a deliberately torn (partial) frame — the
        ``journal_torn`` fault injection: the bytes a crash mid-append
        would leave behind."""
        if self._fh is None:
            self.open_for_append()
        frame = frame_record(record)
        cut = max(1, int(len(frame) * keep_fraction))
        self._fh.write(frame[:cut])
        self._fh.flush()

    @property
    def should_compact(self) -> bool:
        return self._bytes > self.compact_bytes

    def compact(self, records: list[dict]) -> None:
        """Atomically replace the log with ``records``.

        The caller (the server) supplies the canonical current state —
        :func:`repro.serve.jobs.job_records` of every job it tracks.
        Written to the *next* segment index via tmp + ``os.replace``,
        fsynced, then the older segments are deleted.
        """
        next_index = self._segment_index + 1
        path = segment_path(self.directory, next_index)
        tmp = f"{path}.tmp-{os.getpid()}"
        try:
            with open(tmp, "wb") as fh:
                for record in records:
                    fh.write(frame_record(record))
                fh.flush()
                os.fsync(fh.fileno())
            os.replace(tmp, path)
        finally:
            if os.path.exists(tmp):
                os.unlink(tmp)
        if self._fh is not None:
            self._fh.close()
            self._fh = None
        for index, old in list_segments(self.directory):
            if index < next_index:
                try:
                    os.unlink(old)
                except FileNotFoundError:
                    pass
        self._segment_index = next_index
        self.open_for_append()

    def sync(self) -> None:
        """Flush + fsync the active segment (drain/shutdown barrier)."""
        if self._fh is not None:
            self._fh.flush()
            os.fsync(self._fh.fileno())

    def close(self) -> None:
        if self._fh is not None:
            try:
                self.sync()
            finally:
                self._fh.close()
                self._fh = None

