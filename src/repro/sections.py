"""The one on-disk container: a JSON header plus aligned array sections.

Two kinds of file share it: the graph artifact store
(:mod:`repro.kg.store`) and model checkpoints (:mod:`repro.nn.checkpoint`).
Each kind is one :class:`Kind` declaration; the byte layout, its
validation and every structural error are written here once.

File format (version 1)
-----------------------
::

    bytes 0..7    magic            (the kind's 8 bytes)
    bytes 8..11   format version   (<u4)
    bytes 12..15  header length    (<u4, bytes of JSON that follow)
    bytes 16..19  header CRC-32    (<u4, over the JSON bytes)
    bytes 20..    JSON header      (the kind's fields + "sections";
                                    sorted keys)
    ...           zero padding to a 64-byte boundary
    ...           sections, each starting on a 64-byte boundary

Every section is a flat little-endian array described by the header's
``sections`` table (``{name: {"dtype", "shape", "offset", "nbytes"}}``;
offsets are relative to the 64-byte-aligned data start).  A kind with
``section_crc`` also records each section's CRC-32 (``"crc32"``) and
verifies it on :func:`read`; one without it is read as zero-copy views
into the caller's buffer (an ``mmap`` for the store, so opening stays
O(header)).  :func:`map_file` opens either kind as such a mapping.

Every structural failure (short file, wrong magic, unsupported version,
corrupted or unreadable header, a section inconsistent with its spec,
truncated, or failing its checksum) raises the kind's error type naming
the defect, never a garbage array.
"""

from __future__ import annotations

import json
import mmap
import os
import zlib
from dataclasses import dataclass
from typing import Dict, Mapping, Tuple, Type

import numpy as np

_FORMAT_VERSION = 1
_ALIGNMENT = 64
_MAGIC_BYTES = 8
_PREAMBLE = _MAGIC_BYTES + 4 + 4 + 4  # magic + version + header length + CRC


@dataclass(frozen=True)
class Kind:
    """One kind of container file."""

    magic: bytes  # 8 bytes
    error: Type[Exception]
    noun: str  # as in "truncated <noun>", "not a TOSG <noun> file"
    remedy: str  # how to write a file this build reads
    missing: str  # the error for a missing file; formatted with ``path``
    section_crc: bool  # record a CRC-32 per section and verify it on read


def _align(offset: int) -> int:
    return (offset + _ALIGNMENT - 1) // _ALIGNMENT * _ALIGNMENT


def _little_endian(array) -> np.ndarray:
    array = np.ascontiguousarray(array)
    if array.dtype.byteorder == ">":  # pragma: no cover - big-endian hosts only
        array = array.astype(array.dtype.newbyteorder("<"))
    return array


def write(
    path: str, kind: Kind, header: Mapping[str, object], arrays: Mapping[str, object]
) -> int:
    """Write ``header`` and ``arrays`` (in order) as one file, atomically.

    The header gains the ``sections`` table; the file is written beside
    ``path`` and renamed over it, so a reader never sees a torn file.
    Returns the file's size in bytes.
    """
    arrays = {name: _little_endian(array) for name, array in arrays.items()}
    sections: Dict[str, Dict[str, object]] = {}
    offset = 0
    for name, array in arrays.items():
        offset = _align(offset)
        sections[name] = {
            "dtype": array.dtype.str,
            "shape": list(array.shape),
            "offset": offset,
            "nbytes": int(array.nbytes),
        }
        if kind.section_crc:
            sections[name]["crc32"] = zlib.crc32(array)
        offset += array.nbytes
    header_bytes = json.dumps({**header, "sections": sections}, sort_keys=True).encode("utf-8")

    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    temp_path = path + ".tmp"
    with open(temp_path, "wb") as handle:
        handle.write(kind.magic)
        preamble_words = [_FORMAT_VERSION, len(header_bytes), zlib.crc32(header_bytes)]
        handle.write(np.asarray(preamble_words, dtype="<u4").tobytes())
        handle.write(header_bytes)
        position = _PREAMBLE + len(header_bytes)
        handle.write(b"\x00" * (_align(position) - position))
        position = 0  # now relative to the data start
        for name, array in arrays.items():
            target = sections[name]["offset"]
            handle.write(b"\x00" * (target - position))
            handle.write(array.tobytes())
            position = target + array.nbytes
    os.replace(temp_path, path)
    return os.path.getsize(path)


def map_file(path: str, kind: Kind) -> mmap.mmap:
    """The file at ``path`` as a read-only mapping; no page is read yet."""
    if not os.path.exists(path):
        raise kind.error(kind.missing.format(path=path))
    with open(path, "rb") as handle:
        try:
            return mmap.mmap(handle.fileno(), 0, access=mmap.ACCESS_READ)
        except ValueError as exc:  # zero-byte file
            raise kind.error(f"{path}: cannot map {kind.noun} file: {exc}") from exc


def _parse(buffer, path: str, kind: Kind) -> Tuple[Dict[str, object], int]:
    """Validate preamble + header; returns ``(header, data_start)``."""
    if len(buffer) < _PREAMBLE:
        raise kind.error(
            f"{path}: file is {len(buffer)} bytes, shorter than the "
            f"{_PREAMBLE}-byte preamble (truncated?)"
        )
    if buffer[:_MAGIC_BYTES] != kind.magic:
        raise kind.error(
            f"{path}: bad magic {bytes(buffer[:_MAGIC_BYTES])!r}; "
            f"not a TOSG {kind.noun} file"
        )
    version, header_length, header_crc = (
        int(word) for word in np.frombuffer(buffer, dtype="<u4", count=3, offset=_MAGIC_BYTES)
    )
    if version != _FORMAT_VERSION:
        raise kind.error(
            f"{path}: {kind.noun} format version {version} is not supported "
            f"(this build reads version {_FORMAT_VERSION}); {kind.remedy}"
        )
    if _PREAMBLE + header_length > len(buffer):
        raise kind.error(
            f"{path}: header overruns the file ({header_length} header bytes "
            f"in a {len(buffer)}-byte file); truncated {kind.noun}"
        )
    header_bytes = buffer[_PREAMBLE : _PREAMBLE + header_length]
    if zlib.crc32(header_bytes) != header_crc:
        raise kind.error(f"{path}: header checksum mismatch; corrupted {kind.noun}")
    try:
        header = json.loads(header_bytes.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise kind.error(f"{path}: unreadable {kind.noun} header: {exc}") from exc
    return header, _align(_PREAMBLE + header_length)


def read_header(buffer, path: str, kind: Kind) -> Dict[str, object]:
    """The validated JSON header of a container file, O(header)."""
    return _parse(buffer, path, kind)[0]


def read(buffer, path: str, kind: Kind) -> Tuple[Dict[str, object], Dict[str, np.ndarray]]:
    """The header and every section, as read-only views into ``buffer``.

    Each section is bounds-checked against the buffer; with
    ``kind.section_crc`` each is also verified against its recorded CRC-32.
    """
    header, data_start = _parse(buffer, path, kind)
    arrays: Dict[str, np.ndarray] = {}
    for name, spec in header["sections"].items():
        dtype = np.dtype(spec["dtype"])
        if dtype.byteorder == ">":  # pragma: no cover - never written by write()
            raise kind.error(
                f"{path}: section {name!r} is big-endian; {kind.noun} files are "
                "little-endian by contract"
            )
        count = int(np.prod(spec["shape"], dtype=np.int64)) if spec["shape"] else 1
        expected = count * dtype.itemsize
        if expected != int(spec["nbytes"]):
            raise kind.error(
                f"{path}: section {name!r} is internally inconsistent "
                f"({spec['nbytes']} bytes for shape {spec['shape']} {dtype})"
            )
        start = data_start + int(spec["offset"])
        end = start + expected
        if end > len(buffer):
            raise kind.error(
                f"{path}: section {name!r} ends at byte {end} but the file has "
                f"only {len(buffer)}; truncated {kind.noun}"
            )
        view = np.frombuffer(buffer, dtype=dtype, count=count, offset=start)
        if kind.section_crc and zlib.crc32(view) != int(spec["crc32"]):
            raise kind.error(
                f"{path}: section {name!r} checksum mismatch; corrupted {kind.noun}"
            )
        arrays[name] = view.reshape(spec["shape"])
    return header, arrays
