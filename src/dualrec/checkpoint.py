"""Deterministic single-file container for model parameters and store columns.

Layout: 8-byte magic, little-endian u32 container version, u64 header
length, UTF-8 JSON header, then the raw little-endian 8-byte payload of
every section in header order. The JSON header carries the kind,
free-form metadata and the (name, shape) list of sections. A section is
float64 unless its entry also holds ``"dtype": "<i8"`` (int64), which
only integer sections carry, so float64-only containers, every model
checkpoint among them, keep their bytes. Unlike zip archives there are
no timestamps, so identical arrays always produce identical bytes.
"""

import json
import math
import struct
from collections import Counter

import numpy as np

__all__ = ["as_section", "save_sections", "load_sections", "save_model_sections",
           "load_model_sections"]

MAGIC = b"DUALREC\x00"
VERSION = 1
INT_DTYPE = "<i8"  # the one dtype a section entry names; without one a section is "<f8"


def as_section(array) -> np.ndarray:
    """``array`` as a section holds it: little-endian int64 if it is an
    integer array, else little-endian float64."""
    arr = np.asarray(array)
    return arr.astype(INT_DTYPE if arr.dtype.kind == "i" else "<f8", copy=False)  # keeps 0-d


def save_sections(path, kind: str, meta: dict, sections) -> None:
    """Write named arrays in the given order: integer arrays as int64,
    everything else as float64.

    ``sections`` is a sequence of (name, array); the order is recorded in
    the header and preserved on load. A repeated name raises ValueError
    before the file is opened.
    """
    entries = []
    payloads = []
    for name, array in sections:
        arr = as_section(array)
        entries.append({"name": name, "shape": list(arr.shape)})
        if arr.dtype.kind == "i":
            entries[-1]["dtype"] = INT_DTYPE
        payloads.append(arr.tobytes())  # C order
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
                and _is_shape(entry.get("shape"))
                and ("dtype" not in entry or entry["dtype"] == INT_DTYPE)):
            raise ValueError(f"{path}: bad checkpoint section entry {entry!r}")
    _check_unique(path, header["sections"])
    return header


def load_sections(path):
    """Read a container; returns (kind, meta, dict name -> array).

    Each array is float64, or int64 where its entry says ``"<i8"``.
    Raises ValueError for anything but one complete container: a wrong
    magic or version, a short fixed header, a header that is not a JSON
    object with a kind, a meta object and (name, shape) sections, a
    section entry naming another dtype, a repeated section name, a
    truncated section, or bytes after the last section.
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
        is_int = "dtype" in entry
        arrays[entry["name"]] = np.frombuffer(
            blob[offset:end], dtype=INT_DTYPE if is_int else "<f8"
        ).astype(np.int64 if is_int else np.float64).reshape(shape)
        offset = end
    if offset != len(blob):
        raise ValueError(f"{path}: {len(blob) - offset} trailing bytes after the last section")
    return header["kind"], header["meta"], arrays


def _check_shapes(path, kind: str, meta: dict, arrays: dict, section_shapes) -> None:
    """Raise ValueError unless ``arrays`` has exactly the shapes ``section_shapes(meta)``
    and holds only finite float64 numbers: training never writes NaN or ±inf
    weights, nor integer ones."""
    try:
        want = {name: tuple(shape) for name, shape in section_shapes(meta).items()}
    except (LookupError, TypeError, ValueError) as exc:
        raise ValueError(f"{path}: bad {kind} checkpoint meta: {exc!r}") from exc
    got = {name: np.shape(array) for name, array in arrays.items()}
    if got != want:
        bad = sorted(name for name in got.keys() | want.keys() if got.get(name) != want.get(name))
        raise ValueError(f"{path}: sections {bad} have shapes {[got.get(n) for n in bad]}, "
                         f"meta implies {[want.get(n) for n in bad]} (None: no section)")
    bad = [name for name, array in arrays.items() if np.asarray(array).dtype != np.float64]
    if bad:
        raise ValueError(f"{path}: sections {bad} are not float64")
    bad = [name for name, array in arrays.items() if not np.isfinite(array).all()]
    if bad:
        raise ValueError(f"{path}: sections {bad} hold NaN or infinite values")


def save_model_sections(path, kind: str, meta: dict, sections: dict, section_shapes) -> None:
    """Save name -> array ``sections`` that :func:`load_model_sections` will
    accept; anything else raises ValueError before the file is opened."""
    _check_shapes(path, kind, meta, sections, section_shapes)
    save_sections(path, kind, meta, sections.items())


def load_model_sections(path, kind: str, section_shapes):
    """Read a ``kind`` container whose sections are exactly ``section_shapes(meta)``.

    ``section_shapes`` maps the meta object to a dict name -> shape.
    Returns (meta, arrays). Raises ValueError for another kind, a meta
    that ``section_shapes`` cannot read, a missing section, an extra one,
    a shape other than the one meta implies, a section that is not
    float64, and a NaN or infinite value.
    """
    found, meta, arrays = load_sections(path)
    if found != kind:
        raise ValueError(f"{path}: expected a checkpoint of kind {kind!r}, found {found!r}")
    _check_shapes(path, kind, meta, arrays, section_shapes)
    return meta, arrays
