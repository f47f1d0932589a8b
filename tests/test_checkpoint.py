import json
import struct

import numpy as np
import pytest

from dualrec.checkpoint import MAGIC, VERSION, load_sections, save_sections


def container(header, payload=b"", header_bytes=None):
    """Raw checkpoint bytes around a header object (or given header bytes)."""
    raw = header_bytes if header_bytes is not None else json.dumps(header).encode()
    return MAGIC + struct.pack("<IQ", VERSION, len(raw)) + raw + payload


def good_header(shape=(2,)):
    return {"kind": "mf", "meta": {}, "sections": [{"name": "w", "shape": list(shape)}]}


def test_round_trip(tmp_path):
    path = tmp_path / "a.ckpt"
    arrays = [("w", np.arange(6.0).reshape(2, 3)), ("e", np.zeros((0, 4)))]
    save_sections(path, "mf", {"k": 3}, arrays)
    kind, meta, loaded = load_sections(path)
    assert (kind, meta, list(loaded)) == ("mf", {"k": 3}, ["w", "e"])
    for name, array in arrays:
        np.testing.assert_array_equal(loaded[name], array)
        assert loaded[name].shape == array.shape and loaded[name].flags.writeable


@pytest.mark.parametrize("data", [
    b"",
    b"NOTACKPT" + bytes(12),
    MAGIC + bytes(7),  # 15 bytes: the fixed header is cut short
    MAGIC + struct.pack("<IQ", VERSION, 50) + b"{}",
    MAGIC + struct.pack("<IQ", VERSION + 1, 0),
    container(None, header_bytes=b"\xff\xfe"),
    container(None, header_bytes=b"{not json"),
    container(["kind", "sections"]),
    container({"meta": {}, "sections": []}),
    container({"kind": "mf", "meta": {}}),
    container({"kind": "mf", "meta": [], "sections": []}),
    container({"kind": "mf", "meta": {}, "sections": {"w": [2]}}),
    container({"kind": "mf", "meta": {}, "sections": [["w", [2]]]}),
    container(good_header([-1]), bytes(16)),
    container(good_header([1.5]), bytes(16)),
    container(good_header([True]), bytes(16)),
    container({"kind": "mf", "meta": {}, "sections": [{"name": "w", "shape": "2"}]}, bytes(16)),
    container(good_header([2]), bytes(15)),
    container(good_header([2 ** 40, 2 ** 40]), bytes(16)),
    container(good_header([2]), bytes(17)),
], ids=["empty", "wrong-magic", "short-fixed-header", "short-json-header", "wrong-version",
        "header-not-utf8", "header-not-json", "header-not-object", "no-kind", "no-sections",
        "meta-not-object", "sections-not-list", "section-not-object", "negative-dim",
        "float-dim", "bool-dim", "shape-not-list", "truncated-section", "huge-section",
        "trailing-bytes"])
def test_malformed_containers_raise_value_error(tmp_path, data):
    path = tmp_path / "bad.ckpt"
    path.write_bytes(data)
    with pytest.raises(ValueError, match="bad.ckpt"):
        load_sections(path)
