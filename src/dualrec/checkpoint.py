"""Deterministic single-file container for model parameters.

Layout: 8-byte magic, little-endian u32 container version, u64 header
length, UTF-8 JSON header, then the raw little-endian float64 payload of
every section in header order. The JSON header carries the model kind,
free-form metadata and the (name, shape) list of sections. Unlike zip
archives there are no timestamps, so identical parameters always produce
identical bytes.
"""

import json
import math
import struct
from collections import Counter

import numpy as np

__all__ = ["save_sections", "load_sections", "save_model_sections", "load_model_sections"]

MAGIC = b"DUALREC\x00"
VERSION = 1


def save_sections(path, kind: str, meta: dict, sections) -> None:
    """Write named float64 arrays in the given order.

    ``sections`` is a sequence of (name, array); the order is recorded in
    the header and preserved on load. A repeated name raises ValueError
    before the file is opened.
    """
    entries = []
    payloads = []
    for name, array in sections:
        arr = np.asarray(array, dtype="<f8")  # keeps 0-d; tobytes() is C order
        entries.append({"name": name, "shape": list(arr.shape)})
        payloads.append(arr.tobytes())
    _check_unique(path, entries)
    header = json.dumps(
        {"kind": kind, "meta": meta, "sections": entries},
        separators=(",", ":"),
        sort_keys=True,
    ).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<IQ", VERSION, len(header)))
        fh.write(header)
        for payload in payloads:
            fh.write(payload)


def _is_shape(shape) -> bool:
    return isinstance(shape, list) and all(
        isinstance(d, int) and not isinstance(d, bool) and d >= 0 for d in shape
    )


def _check_unique(path, entries) -> None:
    counts = Counter(entry["name"] for entry in entries)
    repeated = sorted(name for name, count in counts.items() if count > 1)
    if repeated:
        raise ValueError(f"{path}: repeated checkpoint section names {repeated}")


def _checked_header(path, raw: bytes) -> dict:
    """Decoded JSON header, checked for the fields the reader relies on."""
    try:
        header = json.loads(raw.decode("utf-8"))
    except (ValueError, RecursionError) as exc:  # bad UTF-8 or JSON, or JSON nested too deeply
        raise ValueError(f"{path}: checkpoint header is not JSON: {exc}") from exc
    if not (
        isinstance(header, dict)
        and isinstance(header.get("kind"), str)
        and isinstance(header.get("meta"), dict)
        and isinstance(header.get("sections"), list)
    ):
        raise ValueError(f"{path}: checkpoint header needs a kind, a meta object and sections")
    for entry in header["sections"]:
        if not (isinstance(entry, dict) and isinstance(entry.get("name"), str)
                and _is_shape(entry.get("shape"))):
            raise ValueError(f"{path}: bad checkpoint section entry {entry!r}")
    _check_unique(path, header["sections"])
    return header


def load_sections(path):
    """Read a container; returns (kind, meta, dict name -> array).

    Raises ValueError for anything but one complete container: a wrong
    magic or version, a short fixed header, a header that is not a JSON
    object with a kind, a meta object and (name, shape) sections, a
    repeated section name, a truncated section, or bytes after the last
    section.
    """
    with open(path, "rb") as fh:
        blob = memoryview(fh.read())
    if blob[: len(MAGIC)] != MAGIC:
        raise ValueError(f"{path}: not a dualrec checkpoint")
    start = len(MAGIC) + struct.calcsize("<IQ")
    if len(blob) < start:
        raise ValueError(f"{path}: truncated checkpoint header")
    version, header_len = struct.unpack_from("<IQ", blob, len(MAGIC))
    if version != VERSION:
        raise ValueError(f"{path}: unsupported checkpoint version {version}")
    offset = start + header_len
    if len(blob) < offset:
        raise ValueError(f"{path}: truncated checkpoint header")
    header = _checked_header(path, bytes(blob[start:offset]))
    arrays = {}
    for entry in header["sections"]:
        shape = tuple(entry["shape"])
        end = offset + 8 * math.prod(shape)
        if len(blob) < end:
            raise ValueError(f"{path}: truncated section {entry['name']!r}")
        arrays[entry["name"]] = np.frombuffer(blob[offset:end], dtype="<f8").astype(
            np.float64
        ).reshape(shape)
        offset = end
    if offset != len(blob):
        raise ValueError(f"{path}: {len(blob) - offset} trailing bytes after the last section")
    return header["kind"], header["meta"], arrays


def _check_shapes(path, kind: str, meta: dict, arrays: dict, section_shapes) -> None:
    """Raise ValueError unless ``arrays`` has exactly the shapes ``section_shapes(meta)``."""
    try:
        want = {name: tuple(shape) for name, shape in section_shapes(meta).items()}
    except (LookupError, TypeError, ValueError) as exc:
        raise ValueError(f"{path}: bad {kind} checkpoint meta: {exc!r}") from exc
    got = {name: np.shape(array) for name, array in arrays.items()}
    if got != want:
        bad = sorted(name for name in got.keys() | want.keys() if got.get(name) != want.get(name))
        raise ValueError(f"{path}: sections {bad} have shapes {[got.get(n) for n in bad]}, "
                         f"meta implies {[want.get(n) for n in bad]} (None: no section)")


def save_model_sections(path, kind: str, meta: dict, sections: dict, section_shapes) -> None:
    """Save name -> array ``sections`` that :func:`load_model_sections` will
    accept; anything else raises ValueError before the file is opened."""
    _check_shapes(path, kind, meta, sections, section_shapes)
    save_sections(path, kind, meta, sections.items())


def load_model_sections(path, kind: str, section_shapes):
    """Read a ``kind`` container whose sections are exactly ``section_shapes(meta)``.

    ``section_shapes`` maps the meta object to a dict name -> shape.
    Returns (meta, arrays). Raises ValueError for another kind, a meta
    that ``section_shapes`` cannot read, and a missing section, an extra
    one or a shape other than the one meta implies.
    """
    found, meta, arrays = load_sections(path)
    if found != kind:
        raise ValueError(f"{path}: expected a checkpoint of kind {kind!r}, found {found!r}")
    _check_shapes(path, kind, meta, arrays, section_shapes)
    return meta, arrays
