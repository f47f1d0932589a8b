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


def test_round_trip_keeps_zero_dim_and_strided_arrays(tmp_path):
    path = tmp_path / "a.ckpt"
    strided = np.arange(12.0).reshape(3, 4)[:, ::2].T  # neither C- nor F-contiguous
    save_sections(path, "mf", {}, [("s", np.array(1.5)), ("t", strided)])
    _, _, loaded = load_sections(path)
    assert loaded["s"].shape == () and loaded["s"] == 1.5
    np.testing.assert_array_equal(loaded["t"], strided)


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


def filled(start, shape):
    """Array of exactly representable values start, start + 1/8, ..."""
    return (start + np.arange(int(np.prod(shape))) / 8.0).reshape(shape)


def hand_built_models():
    """An MF branch, an MLP branch with two tower layers and their fusion,
    each parameter filled with distinct exact values (n=3, m=2, K=2, p=2)."""
    from dualrec.fusion import init_fusion
    from dualrec.mf_model import MfParams
    from dualrec.mlp_model import MlpParams

    mf = MfParams(
        user_rating=filled(0.0, (2, 3)), prod_rating=filled(1.0, (2, 2)),
        user_joint=filled(2.0, (2, 3)), prod_joint=filled(3.0, (2, 2)),
        prod_rel=filled(4.0, (2, 2)), proj_rating=filled(5.0, (2, 2)),
        proj_joint=filled(6.0, (2, 2)), head=filled(7.0, (2, 2)),
        reg_w=filled(8.0, (2,)), reg_b=np.array([0.25]),
    )
    mlp = MlpParams(
        user_rating_emb=filled(-1.0, (3, 2)), user_rel_emb=filled(-2.0, (3, 2)),
        prod_rating_emb=filled(-3.0, (2, 2)), prod_rel_emb=filled(-4.0, (2, 2)),
        fusion_w_user=filled(-5.0, (2, 2)), fusion_b_user=filled(-6.0, (2,)),
        fusion_w_prod=filled(-7.0, (2, 2)), fusion_b_prod=filled(-8.0, (2,)),
        tower_w=[filled(-9.0, (4, 3)), filled(-10.0, (3, 2))],
        tower_b=[filled(-11.0, (3,)), filled(-12.0, (2,))],
        head=filled(-13.0, (2, 2)), reg_w=filled(-14.0, (2,)), reg_b=np.array([-0.5]),
    )
    return mf, mlp, init_fusion(mf, mlp, gamma=0.25)


# sha256 of each container; the format must not drift with model refactors
GOLDEN = {
    "mf": "e549cc1a54a91370f9642d050e0498bc735afcda8ee3d8723fbcde47cef60de8",
    "mlp": "4bc87294384603538dab3ca192ace53f5e487f05cb99f6f09e7efb3990df8b0c",
    "fusion": "312d61f362c733ee6fb1af781cdcca6917ff0b000a920ff17cbf9a9a8f459101",
}


@pytest.mark.parametrize("kind", sorted(GOLDEN))
def test_model_checkpoints_keep_their_bytes(tmp_path, kind):
    import hashlib

    from dualrec.fusion import save_fusion
    from dualrec.mf_model import save_mf
    from dualrec.mlp_model import save_mlp

    mf, mlp, fused = hand_built_models()
    save, model = {"mf": (save_mf, mf), "mlp": (save_mlp, mlp),
                   "fusion": (save_fusion, fused)}[kind]
    path = tmp_path / f"{kind}.ckpt"
    save(model, path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == GOLDEN[kind]
