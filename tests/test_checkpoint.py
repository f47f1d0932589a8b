import json
import math
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dualrec.checkpoint import MAGIC, VERSION, load_sections, save_sections
from dualrec.fusion import init_fusion_random, load_fusion, save_fusion
from dualrec.mf_model import load_mf, save_mf
from dualrec.mlp_model import load_mlp, save_mlp

from test_ingest import JSON_VALUES


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
    container(None, header_bytes=b"[" * 100_000 + b"]" * 100_000),
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
    container({"kind": "mf", "meta": {}, "sections": [{"name": "a", "shape": [1]}] * 2},
              bytes(16)),
    *(container({"kind": "mf", "meta": {}, "sections": [good_header()["sections"][0]
                                                          | {"dtype": dtype}]}, bytes(16))
      for dtype in ("<f8", "<f4", "<u8", None, ["<i8"])),
], ids=["empty", "wrong-magic", "short-fixed-header", "short-json-header", "wrong-version",
        "header-not-utf8", "header-not-json", "header-nested-too-deeply", "header-not-object",
        "no-kind", "no-sections", "meta-not-object", "sections-not-list", "section-not-object",
        "negative-dim", "float-dim", "bool-dim", "shape-not-list", "truncated-section",
        "huge-section", "trailing-bytes", "repeated-name", "dtype-f8-named", "dtype-f4",
        "dtype-u8", "dtype-null", "dtype-list"])
def test_malformed_containers_raise_value_error(tmp_path, data):
    path = tmp_path / "bad.ckpt"
    path.write_bytes(data)
    with pytest.raises(ValueError, match="bad.ckpt"):
        load_sections(path)


def test_int64_sections_round_trip_and_only_they_name_a_dtype(tmp_path):
    path = tmp_path / "a.ckpt"
    ints = np.array([[0, -1, 2**62], [7, 2**63 - 1, -(2**63)]])
    save_sections(path, "store", {}, [("i", ints), ("f", np.arange(3.0)),
                                      ("b", np.array([True, False]))])
    header, _ = split_container(path.read_bytes())
    assert header["sections"] == [{"name": "i", "shape": [2, 3], "dtype": "<i8"},
                                  {"name": "f", "shape": [3]}, {"name": "b", "shape": [2]}]
    _, _, loaded = load_sections(path)
    assert loaded["i"].dtype == np.int64 and loaded["i"].tolist() == ints.tolist()
    assert loaded["f"].dtype == loaded["b"].dtype == np.float64
    assert loaded["b"].tolist() == [1.0, 0.0]


def test_save_refuses_a_repeated_name(tmp_path):
    path = tmp_path / "a.ckpt"
    with pytest.raises(ValueError, match=r"repeated checkpoint section names \['a'\]"):
        save_sections(path, "mf", {}, [("a", [0.0]), ("b", [1.0]), ("a", [2.0])])
    assert not path.exists()


def split_container(blob: bytes):
    """(header object, payload bytes) of a well-formed container."""
    start = len(MAGIC) + struct.calcsize("<IQ")
    (header_len,) = struct.unpack_from("<Q", blob, len(MAGIC) + 4)
    return json.loads(blob[start:start + header_len]), blob[start + header_len:]


VALID = container({"kind": "mf", "meta": {"k": 2},
                   "sections": [{"name": "w", "shape": [2, 3]}, {"name": "b", "shape": [2]},
                                {"name": "s", "shape": []}]},
                  np.arange(9.0).tobytes())


def mutated(data) -> bytes:
    """VALID after one drawn change: truncated, one byte flipped, one
    header field set to any JSON value, or one section entry repeated."""
    how = data.draw(st.sampled_from(["truncate", "flip", "field", "repeat"]), label="how")
    if how == "truncate":
        return VALID[: data.draw(st.integers(0, len(VALID) - 1), label="length")]
    if how == "flip":
        at = data.draw(st.integers(0, len(VALID) - 1), label="at")
        mask = data.draw(st.integers(1, 255), label="mask")
        return VALID[:at] + bytes([VALID[at] ^ mask]) + VALID[at + 1:]
    header, payload = split_container(VALID)
    k = data.draw(st.integers(0, len(header["sections"]) - 1), label="section")
    entry = header["sections"][k]
    if how == "field":
        value = data.draw(JSON_VALUES, label="value")
        where = data.draw(st.sampled_from(["kind", "meta", "name", "shape"]), label="field")
        (header if where in ("kind", "meta") else entry)[where] = value
    else:
        header["sections"].append(dict(entry))
        if data.draw(st.booleans(), label="with payload"):
            start = 8 * sum(math.prod(e["shape"]) for e in header["sections"][:k])
            payload += payload[start:start + 8 * math.prod(entry["shape"])]
    return container(header, payload)


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(data=st.data())
def test_load_returns_a_container_or_raises_value_error(tmp_path_factory, data):
    blob = mutated(data)
    path = tmp_path_factory.mktemp("fuzz") / "c.ckpt"
    path.write_bytes(blob)
    try:
        kind, meta, arrays = load_sections(path)
    except ValueError:
        return
    assert isinstance(kind, str) and isinstance(meta, dict)
    assert all(a.dtype == np.float64 for a in arrays.values())
    # every payload byte belongs to exactly one returned array
    assert sum(8 * a.size for a in arrays.values()) == len(split_container(blob)[1])


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
        user_emb=filled(-1.0, (3, 2)), prod_emb=filled(-3.0, (2, 2)),
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
    "mlp": "cb49fb65abfb37ff0de5d0721d2e86552ac8906b2c705366f4cc925c9da9227c",
    "fusion": "7e7d45920dc2ec294bdc369cd06097d740fa5e66ab08332c482c8a356c2784ee",
}


@pytest.mark.parametrize("kind", sorted(GOLDEN))
def test_model_checkpoints_keep_their_bytes(tmp_path, kind):
    import hashlib

    mf, mlp, fused = hand_built_models()
    save, model = {"mf": (save_mf, mf), "mlp": (save_mlp, mlp),
                   "fusion": (save_fusion, fused)}[kind]
    path = tmp_path / f"{kind}.ckpt"
    save(model, path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == GOLDEN[kind]


def split_tables(path):
    """Rewrite an MLP or fusion checkpoint in place into the layout where
    each side kept a rating table and a reliability table, summed by the
    forward pass: the rating part holds the table, the reliability part 0."""
    kind, meta, arrays = load_sections(path)
    sections = []
    for name, array in arrays.items():
        if name.endswith(("user_emb", "prod_emb")):
            stem = name[: -len("emb")]
            sections += [(f"{stem}{part}_emb", array if part == "rating" else 0 * array)
                         for part in ("rating", "rel")]
        else:
            sections.append((name, array))
    save_sections(path, kind, meta, sections)


def edited(path, edit):
    """Rewrite a checkpoint in place after ``edit(meta, arrays)``."""
    kind, meta, arrays = load_sections(path)
    edit(meta, arrays)
    save_sections(path, kind, meta, arrays.items())


def set_section(name, array):
    return lambda meta, arrays: arrays.update({name: array})


def poisoned(**values):
    """An ``edited`` edit that sets the first entry of each named section."""
    def edit(meta, arrays):
        for name, value in values.items():
            arrays[name].flat[0] = value
    return edit


def narrowed_head(width):
    """An ``edited`` edit of an MLP or fused checkpoint: ``predictive_dim``
    becomes ``width`` and every head section the shape that width implies,
    so the sections match the meta but not the last tower width."""
    def edit(meta, arrays):
        k = meta["latent_dim"]
        meta["predictive_dim"] = width
        shapes = {"head": (width, width), "mlp/head": (width, width), "mf/head": (k, width),
                  "reg_w": (width,), "mlp/reg_w": (width,), "mf/reg_w": (width,),
                  "concat_w": (width, k + width)}
        for name in arrays.keys() & shapes.keys():
            arrays[name] = np.zeros(shapes[name])
    return edit


LOADERS = {"mf": (save_mf, load_mf, 0), "mlp": (save_mlp, load_mlp, 1),
           "fusion": (save_fusion, load_fusion, 2)}


@pytest.mark.parametrize("kind, edit", [
    ("fusion", set_section("reg_b", np.array([0.0, 1.0, -1.0]))),
    ("mlp", set_section("extra", np.zeros(2))),
    ("mf", lambda meta, arrays: arrays.pop("prod_rel")),
    ("fusion", lambda meta, arrays: arrays.pop("mlp/tower_b_1")),
    ("mf", lambda meta, arrays: arrays.update(user_rating=arrays["user_rating"].T)),
    ("mlp", set_section("tower_w_0", np.zeros((4, 2)))),
    ("fusion", set_section("concat_w", np.zeros((2, 5)))),
    ("mlp", lambda meta, arrays: meta.update(tower=[3])),
    ("mf", lambda meta, arrays: meta.update(n_users=4)),
    ("fusion", lambda meta, arrays: meta.pop("latent_dim")),
    ("mlp", lambda meta, arrays: meta.update(tower=[])),
    ("mlp", lambda meta, arrays: meta.update(tower=None)),
    ("fusion", lambda meta, arrays: meta.update(gamma=None)),
    ("fusion", lambda meta, arrays: meta.update(global_mean="3.5")),
    ("fusion", lambda meta, arrays: meta.update(gamma=math.inf)),
    ("fusion", lambda meta, arrays: meta.update(gamma=1.5)),
    ("fusion", lambda meta, arrays: meta.update(gamma=-0.25)),
    ("fusion", lambda meta, arrays: meta.update(global_mean=math.nan)),
    ("fusion", lambda meta, arrays: meta.update(global_mean=-7)),
    ("fusion", lambda meta, arrays: meta.update(global_mean=0)),
    ("fusion", lambda meta, arrays: meta.update(global_mean=5.5)),
    ("fusion", lambda meta, arrays: meta.update(global_mean=0.5)),
    ("mlp", lambda meta, arrays: meta.pop("predictive_dim")),
    ("mlp", lambda meta, arrays: meta.update(predictive_dim=3)),
    ("mlp", lambda meta, arrays: meta.update(predictive_dim="x")),
    ("mlp", lambda meta, arrays: meta.update(predictive_dim=2.5)),
    ("mlp", lambda meta, arrays: meta.update(predictive_dim=[2])),
    ("mf", poisoned(user_rating=math.nan)),
    ("mf", poisoned(reg_b=math.inf)),
    ("mlp", poisoned(tower_w_1=-math.inf)),
    ("mlp", poisoned(prod_emb=math.nan)),
    ("fusion", poisoned(concat_w=math.nan)),
    ("fusion", poisoned(**{"mlp/user_emb": math.inf})),
    ("mlp", narrowed_head(1)),
    ("fusion", narrowed_head(1)),
    ("mf", set_section("reg_b", np.array([1]))),
    ("mlp", set_section("tower_b_1", np.array([0, 1]))),
    ("fusion", set_section("mf/head", np.zeros((2, 2), np.int64))),
], ids=["fused-reg_b-shape-3", "mlp-extra-section", "mf-missing-section",
        "fusion-missing-tower-bias", "mf-transposed-table", "mlp-narrow-tower",
        "fusion-wide-concat", "mlp-meta-tower-differs", "mf-meta-users-differ",
        "fusion-meta-without-latent-dim", "mlp-meta-empty-tower", "mlp-meta-tower-null",
        "fusion-meta-gamma-null", "fusion-meta-global-mean-string", "fusion-meta-gamma-inf",
        "fusion-meta-gamma-above-1", "fusion-meta-gamma-below-0", "fusion-meta-global-mean-nan",
        "fusion-meta-global-mean-negative", "fusion-meta-global-mean-zero",
        "fusion-meta-global-mean-above-5", "fusion-meta-global-mean-below-1",
        "mlp-meta-without-predictive-dim",
        "mlp-meta-predictive-dim-differs", "mlp-meta-predictive-dim-string",
        "mlp-meta-predictive-dim-fraction", "mlp-meta-predictive-dim-list",
        "mf-nan-table", "mf-inf-bias", "mlp-minus-inf-tower", "mlp-nan-table",
        "fusion-nan-head", "fusion-inf-branch-table", "mlp-head-narrower-than-tower",
        "fusion-head-narrower-than-tower", "mf-int-bias", "mlp-int-tower-bias",
        "fusion-int-branch-head"])
def test_loaders_check_sections_against_meta(tmp_path, kind, edit):
    save, load, which = LOADERS[kind]
    path = tmp_path / f"{kind}.ckpt"
    save(hand_built_models()[which], path)
    edited(path, edit)
    with pytest.raises(ValueError, match=f"{kind}.ckpt"):
        load(path)


@pytest.mark.parametrize("kind", ["mlp", "fusion"])
def test_split_table_layout_is_rejected(tmp_path, kind):
    save, load, which = LOADERS[kind]
    path = tmp_path / f"{kind}.ckpt"
    save(hand_built_models()[which], path)
    split_tables(path)
    with pytest.raises(ValueError, match=r"sections \[.*'(mlp/)?user_emb'"):
        load(path)



@pytest.mark.parametrize("kind", sorted(LOADERS))
def test_savers_refuse_sections_their_loader_refuses(tmp_path, kind):
    save, _, which = LOADERS[kind]
    model = hand_built_models()[which]
    model.reg_b = 0.6  # a 0-d section where meta implies shape (1,)
    path = tmp_path / f"{kind}.ckpt"
    with pytest.raises(ValueError, match=r"\['reg_b'\] have shapes \[\(\)\]"):
        save(model, path)
    assert not path.exists()


@pytest.mark.parametrize("kind", sorted(LOADERS))
def test_savers_refuse_non_finite_weights(tmp_path, kind):
    save, _, which = LOADERS[kind]
    model = hand_built_models()[which]
    model.reg_w[1] = math.nan
    path = tmp_path / f"{kind}.ckpt"
    with pytest.raises(ValueError, match=r"sections \['reg_w'\] hold NaN or infinite values"):
        save(model, path)
    assert not path.exists()


# A stand-in for a meta size that no loader may accept: among them each size of
# ``small_models`` as a float, and the bool equal to its latent size 1.
REMOVED = object()
NOT_A_SIZE = (st.sampled_from([1.0, 2.0, 3.0, True, False, "2", None, [2], REMOVED])
              | st.floats() | st.integers(max_value=0) | st.text(max_size=2))


def small_models():
    """An MF branch, an MLP branch and their fusion of 2 users, 3 products,
    latent size 1 and tower (2,), so predictive_dim 2."""
    fused = init_fusion_random(2, 3, 1, (2,), seed=0)
    return fused.mf, fused.mlp, fused


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(kind=st.sampled_from(sorted(LOADERS)),
       sizes=st.dictionaries(st.sampled_from(["n_users", "n_products", "latent_dim",
                                              "predictive_dim"]), NOT_A_SIZE, min_size=1))
@example(kind="mf", sizes={"latent_dim": True})
@example(kind="mf", sizes={"n_users": 2.0})
@example(kind="mf", sizes={"predictive_dim": 2.0})
@example(kind="mlp", sizes={"n_users": 2.0})
@example(kind="fusion", sizes={"n_products": 3.0})
def test_a_meta_size_that_is_not_an_integer_never_loads(tmp_path_factory, kind, sizes):
    save, load, which = LOADERS[kind]
    path = tmp_path_factory.mktemp("meta") / f"{kind}.ckpt"
    save(small_models()[which], path)

    def edit(meta, arrays):
        for name, value in sizes.items():
            if value is REMOVED:
                del meta[name]
            else:
                meta[name] = value

    edited(path, edit)
    with pytest.raises(ValueError, match=f"{kind}.ckpt: bad {kind} checkpoint meta"):
        load(path)
