"""On-disk primitives for the durability layer: framed logs, atomic dirs.

:mod:`repro.engine.persistence` composes three low-level guarantees from
this module, each chosen so that a crash at *any* byte boundary leaves the
store recoverable:

* **Checksummed record framing** — an append-only log is a fixed 8-byte
  magic header followed by records of ``u32 payload length | u32
  crc32(payload) | payload`` (little-endian).  Each record is written with
  a single ``write`` call, so a crashed append can only shorten the file —
  never interleave two records.  :func:`scan_records` exploits exactly
  that asymmetry: damage at the very end of the file (a short record, or a
  checksum mismatch on the *last* record) is a **torn tail** and is
  reported for silent truncation, while damage followed by more log bytes
  cannot be a crashed append and raises
  :class:`~repro.exceptions.WalCorruptionError`.
* **Checksummed manifests** — a small JSON document prefixed by the CRC32
  of its canonical encoding (:func:`write_manifest` /
  :func:`read_manifest`), so a half-written or bit-flipped manifest is
  detected before any array it describes is trusted.
* **Atomic directory publication** — :func:`publish_dir` fsyncs every file
  in a staged temp directory, ``os.rename``\\ s it to its final name (atomic
  on POSIX), and fsyncs the parent directory so the rename itself survives
  a power cut.  A crash before the rename leaves only a ``tmp-*`` orphan
  that recovery sweeps away; a crash after it leaves a complete, verified
  checkpoint.
"""

from __future__ import annotations

import errno
import json
import os
import struct
import zlib

from repro.exceptions import WalCorruptionError

__all__ = [
    "HEADER_SIZE",
    "RECORD_HEADER_SIZE",
    "append_record",
    "file_crc32",
    "fsync_dir",
    "pack_record",
    "publish_dir",
    "read_manifest",
    "scan_records",
    "write_manifest",
]

#: Size of a log file's magic header, in bytes.
HEADER_SIZE = 8

#: Size of each record's ``(length, crc32)`` prefix, in bytes.
RECORD_HEADER_SIZE = 8

_RECORD_HEADER = struct.Struct("<II")


# ----------------------------------------------------------------------
# record framing
# ----------------------------------------------------------------------
def pack_record(payload: bytes) -> bytes:
    """Frame ``payload`` as one log record (length + CRC32 prefix)."""
    return _RECORD_HEADER.pack(len(payload), zlib.crc32(payload)) + payload


def append_record(handle, payload: bytes) -> int:
    """Append one framed record to ``handle`` with a single ``write`` call.

    The single-write discipline is load-bearing: it guarantees a crashed
    append can only leave a *prefix* of the record on disk (the torn-tail
    shape :func:`scan_records` repairs), never a record-sized hole in the
    middle of the log.  A short write (possible on an unbuffered handle)
    raises ``OSError``.  Returns the number of bytes written.
    """
    record = pack_record(payload)
    written = handle.write(record)
    if written != len(record):
        raise OSError(errno.EIO, f"short write: {written} of {len(record)} record bytes")
    return len(record)


def scan_records(
    data: bytes, *, magic: bytes, path: str | None = None
) -> tuple[list[bytes], int]:
    """Parse a framed log; return ``(payloads, valid_length)``.

    ``valid_length`` is the byte length of the longest well-formed prefix —
    ``len(data)`` when the log is clean, less when a torn tail must be
    truncated back to the last whole record.

    Raises
    ------
    WalCorruptionError
        If the magic header is wrong, or a record fails its checksum with
        further log bytes *after* it (mid-log damage — see the module
        docstring for why only the last record may fail silently).
    """
    if not data:
        return [], 0
    if len(data) < len(magic):
        # A crash while writing the header itself: nothing was ever logged.
        return [], 0
    if data[: len(magic)] != magic:
        raise WalCorruptionError(
            f"bad log header {data[:len(magic)]!r} (expected {magic!r})",
            path=path,
            offset=0,
        )
    payloads: list[bytes] = []
    offset = len(magic)
    while offset < len(data):
        header = data[offset : offset + RECORD_HEADER_SIZE]
        if len(header) < RECORD_HEADER_SIZE:
            break  # torn tail: record prefix cut short
        length, checksum = _RECORD_HEADER.unpack(header)
        end = offset + RECORD_HEADER_SIZE + length
        if end > len(data):
            break  # torn tail: payload cut short
        payload = data[offset + RECORD_HEADER_SIZE : end]
        if zlib.crc32(payload) != checksum:
            if end == len(data):
                break  # torn tail: last record's payload damaged mid-write
            raise WalCorruptionError(
                f"checksum mismatch at offset {offset} with "
                f"{len(data) - end} log bytes after the damaged record",
                path=path,
                offset=offset,
            )
        payloads.append(payload)
        offset = end
    return payloads, offset


# ----------------------------------------------------------------------
# durability plumbing
# ----------------------------------------------------------------------
def fsync_dir(path: str | os.PathLike) -> None:
    """fsync a directory so entry creations/renames inside it are durable."""
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def _fsync_file(path: str | os.PathLike) -> None:
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def publish_dir(tmp_dir: str | os.PathLike, final_dir: str | os.PathLike) -> None:
    """Atomically publish a staged directory under its final name.

    Every regular file in ``tmp_dir`` is fsynced, then the directory is
    renamed into place and the parent directory fsynced — the standard
    write-temp/rename/fsync-parent recipe.  Readers either see the old
    world or the complete new one, never a half-written directory.
    """
    for name in os.listdir(tmp_dir):
        entry = os.path.join(tmp_dir, name)
        if os.path.isfile(entry):
            _fsync_file(entry)
    fsync_dir(tmp_dir)
    os.rename(tmp_dir, final_dir)
    fsync_dir(os.path.dirname(os.path.abspath(final_dir)))


def file_crc32(path: str | os.PathLike, chunk_size: int = 1 << 20) -> int:
    """Return the CRC32 of a file's contents (streamed, constant memory)."""
    checksum = 0
    with open(path, "rb") as handle:
        while True:
            chunk = handle.read(chunk_size)
            if not chunk:
                return checksum
            checksum = zlib.crc32(chunk, checksum)


# ----------------------------------------------------------------------
# checksummed manifests
# ----------------------------------------------------------------------
def write_manifest(path: str | os.PathLike, manifest: dict) -> None:
    """Write ``manifest`` as canonical JSON prefixed by its own CRC32 line.

    The first line is the hex CRC32 of everything after it; a manifest that
    was cut short or bit-flipped therefore fails verification instead of
    being half-trusted.
    """
    body = json.dumps(manifest, sort_keys=True, indent=2).encode("utf-8") + b"\n"
    with open(path, "wb") as handle:
        handle.write(f"{zlib.crc32(body):08x}\n".encode("ascii"))
        handle.write(body)


def read_manifest(path: str | os.PathLike) -> dict:
    """Read and verify a :func:`write_manifest` file.

    Raises
    ------
    ValueError
        If the file is missing its checksum line, fails it, or does not
        decode — callers treat any of these as "this checkpoint is not
        trustworthy" and fall back to an older one.
    """
    with open(path, "rb") as handle:
        header = handle.readline()
        body = handle.read()
    try:
        expected = int(header.strip(), 16)
    except ValueError:
        raise ValueError(f"manifest {path} has no checksum line") from None
    if zlib.crc32(body) != expected:
        raise ValueError(f"manifest {path} failed its checksum")
    try:
        return json.loads(body.decode("utf-8"))
    except json.JSONDecodeError as exc:
        raise ValueError(f"manifest {path} is not valid JSON: {exc}") from exc
