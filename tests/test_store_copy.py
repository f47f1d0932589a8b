"""The columnar copy ``save_store`` writes beside each store file.

``load_store`` reads it instead of decoding the JSON only when it keeps
every rule of a store and holds the sha256 of the JSON bytes and of the
store it gives. Every other copy (missing, stale, edited, truncated,
foreign or rule-breaking) leaves the result exactly what the JSON alone
gives: the same store, or the same ``ValueError`` text.
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dualrec import harness, ingest
from dualrec.checkpoint import load_sections, save_sections
from dualrec.cli import main
from dualrec.ingest import _COLUMNS, _make_store, load_store, save_store, with_reliability
from dualrec.reliability import attach_scores, score_store

from conftest import copy_path
from test_golden_store import GOLDEN, GOLDEN_SCORED, write_rereviewed
from test_ingest import JSON_VALUES
from test_process_entry import run_python

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import gen_reviews  # noqa: E402
from run import WORKLOADS  # noqa: E402


def contents(store):
    """Everything a store holds: its ids, and each column's dtype, shape and bytes."""
    return (store.user_ids, store.product_ids,
            [(name, getattr(store, name).dtype.str, getattr(store, name).shape,
              getattr(store, name).tobytes()) for name in _COLUMNS])


def outcome(path):
    """The contents of the store ``load_store(path)`` returns, or its ValueError text."""
    try:
        return contents(load_store(path))
    except ValueError as exc:
        return str(exc)


def json_outcome(path):
    """:func:`outcome` of ``path`` read from its JSON alone, the copy moved aside meanwhile."""
    copy = copy_path(path)
    aside = copy.with_name(copy.name + ".aside")
    if copy.exists():
        copy.rename(aside)
    try:
        return outcome(path)
    finally:
        if aside.exists():
            aside.rename(copy)


def copy_is_read(path) -> bool:
    return ingest._load_copy(path, Path(path).read_bytes()) is not None


def assert_copy_is_read_as_the_json(path):
    assert copy_is_read(path), path
    assert outcome(path) == json_outcome(path)


def mixed_store():
    """Int and fractional raw ratings, votes, and a partly scored reliability column."""
    store = _make_store(["u0", "u1", "u2"], ["p0", "p1"],
                        [(0, 0, 5, 1, 2, 100), (1, 0, 3.5, 0, 0, 90), (2, 1, 1, 4, 4, 80),
                         (0, 1, 4.0, 0, 3, 70)])
    return with_reliability(store, [0.25, np.nan, 1.0, -0.0])


def test_golden_stores_are_read_from_their_copy_as_from_their_json(tmp_path):
    p = lambda name: tmp_path / name  # noqa: E731
    reviews = write_rereviewed(p("reviews.jsonl"))
    assert main(["ingest", "--input", str(reviews), "--out", str(p("store.json"))]) == 0
    stores = ["store.json"]
    for k, flags in enumerate([""] + list(GOLDEN_SCORED)):  # scored.json, then one per flag set
        stores.append(f"scored{k or ''}.json")
        assert main(["reliability", "--store", str(p("store.json")), "--out", str(p("rel.tsv")),
                     "--store-out", str(p(stores[-1]))] + flags.split()) == 0
    (folds,) = harness.split(load_store(p("scored.json")), harness.SplitSpec(seed=5))
    for name, part in zip(("train", "val", "test"), folds):
        save_store(part, p(f"{name}.json"))
        stores.append(f"{name}.json")
    synth = ["synth", "--users", "50", "--products", "40", "--seed", "7", "--out"]
    assert main(synth + [str(p("synth.json"))]) == 0
    assert main(synth + [str(p("synth-continuous.json")), "--no-quantize"]) == 0
    stores += ["synth.json", "synth-continuous.json"]
    assert set(stores) >= set(GOLDEN) - {"rel.tsv"}
    for name in stores:
        assert_copy_is_read_as_the_json(p(name))


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_benchmark_shaped_stores_are_read_from_their_copy_as_from_their_json(tmp_path,
                                                                            workload):
    reviews = gen_reviews.generate(WORKLOADS[workload].shape, seed=1)
    store = ingest.build_store(ingest.parse_reviews(reviews.lines).records)
    scored = attach_scores(store, score_store(store))
    (folds,) = harness.split(scored, harness.SplitSpec(seed=1))
    for name, part in (("store", store), ("scored", scored), ("train", folds[0])):
        save_store(part, tmp_path / f"{name}.json")
        assert_copy_is_read_as_the_json(tmp_path / f"{name}.json")
        assert outcome(tmp_path / f"{name}.json") == contents(part)


def rewrite_copy(edit, kind="store"):
    """A damage of ``path`` that rewrites its copy as a container of ``kind``
    after ``edit(meta, cols)``; the copy keeps the JSON's digest unless
    ``edit`` changes it."""
    def damage(path):
        _, meta, cols = load_sections(copy_path(path))
        edit(meta, cols)
        save_sections(copy_path(path), kind, meta, cols.items())
    return damage


def set_entry(field, value):
    def edit(meta, cols):
        cols[field][0] = value
    return edit


def resaved_json(change):
    """A damage that rewrites the JSON after ``change(doc)``, keeping the old copy."""
    def damage(path):
        doc = json.loads(path.read_text())
        change(doc)
        path.write_text(json.dumps(doc, separators=(",", ":")) + "\n")
    return damage


DAMAGES = {
    "json-rating-edited": resaved_json(lambda doc: doc["entries"][0].__setitem__(2, 2)),
    "json-score-dropped": resaved_json(lambda doc: doc["reliability"].pop()),
    "json-index-out-of-range": resaved_json(lambda doc: doc["entries"][0].__setitem__(0, 3)),
    "json-not-a-store": lambda path: path.write_text('{"format": "x"}'),
    "json-not-json": lambda path: path.write_bytes(b"\xff{"),
    "json-of-another-store": lambda path: path.write_bytes(
        (path.parent / "other.json").read_bytes()),
    "missing": lambda path: copy_path(path).unlink(),
    "empty": lambda path: copy_path(path).write_bytes(b""),
    "truncated": lambda path: copy_path(path).write_bytes(copy_path(path).read_bytes()[:-9]),
    "garbage": lambda path: copy_path(path).write_bytes(bytes(range(256)) * 4),
    "another-kind": rewrite_copy(lambda meta, cols: None, kind="mf"),
    "layout-2": rewrite_copy(lambda meta, cols: meta.update(layout=2)),
    "layout-true": rewrite_copy(lambda meta, cols: meta.update(layout=True)),
    "digest-of-other-bytes": rewrite_copy(lambda meta, cols: meta.update(sha256="0" * 64)),
    "no-digest": rewrite_copy(lambda meta, cols: meta.pop("sha256")),
    "index-out-of-range": rewrite_copy(set_entry("product", 2)),
    "negative-index": rewrite_copy(set_entry("user", -1)),
    "duplicate-pair": rewrite_copy(lambda meta, cols: cols["product"].__setitem__(3, 0)),
    "score-above-one": rewrite_copy(set_entry("reliability", 1.5)),
    "score-infinite": rewrite_copy(set_entry("reliability", -np.inf)),
    "rating-zero": rewrite_copy(set_entry("raw", 0.0)),
    "rating-half-a-star": rewrite_copy(lambda meta, cols: cols["raw"].__setitem__(1, 0.5)),
    "helpful-over-total": rewrite_copy(set_entry("helpful_yes", 3)),
    "int-flag-not-0-or-1": rewrite_copy(set_entry("raw_is_int", 0.5)),
    "int-flag-on-a-fraction": rewrite_copy(lambda meta, cols: cols["raw_is_int"].fill(1)),
    "float-index-column": rewrite_copy(
        lambda meta, cols: cols.update(user=cols["user"].astype(float))),
    "int-rating-column": rewrite_copy(
        lambda meta, cols: cols.update(raw=cols["raw"].astype(np.int64))),
    "short-column": rewrite_copy(lambda meta, cols: cols.update(unix_time=cols["unix_time"][1:])),
    "two-dimensional-columns": rewrite_copy(
        lambda meta, cols: cols.update({name: col[:, None] for name, col in cols.items()})),
    "missing-column": rewrite_copy(lambda meta, cols: cols.pop("votes_total")),
    "columns-reordered": rewrite_copy(lambda meta, cols: cols.update(user=cols.pop("user"))),
    "repeated-user-id": rewrite_copy(lambda meta, cols: meta["users"].__setitem__(1, "u0")),
    "user-id-with-a-tab": rewrite_copy(lambda meta, cols: meta["users"].__setitem__(1, "u\t1")),
    "product-ids-not-a-list": rewrite_copy(lambda meta, cols: meta.update(products="p0p1")),
}


@pytest.mark.parametrize("damage", DAMAGES)
def test_any_other_copy_gives_what_the_json_gives(tmp_path, damage):
    path = tmp_path / "store.json"
    save_store(mixed_store(), path)
    save_store(ingest.restrict(mixed_store(), [0, 2]), tmp_path / "other.json")
    DAMAGES[damage](path)
    assert not copy_is_read(path)
    assert outcome(path) == json_outcome(path)
    if not damage.startswith("json-"):  # the JSON is untouched, so is the store
        assert outcome(path) == contents(mixed_store())


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(data=st.data())
def test_a_copy_edited_under_its_digest_gives_what_the_json_gives(tmp_path_factory, data):
    """One edit of the copy, its digest kept: a meta value, or one section's
    value, dtype or shape. The digest covers the store the copy gives, so
    even an edit that keeps every rule (another ``unix_time``, say) leaves
    the store the JSON gives."""
    path = tmp_path_factory.mktemp("fuzz") / "store.json"
    save_store(mixed_store(), path)
    _, meta, cols = load_sections(copy_path(path))
    what = data.draw(st.sampled_from(["meta", "value", "dtype", "shape"]), label="what")
    if what == "meta":
        key = data.draw(st.sampled_from(["layout", "users", "products"]), label="key")
        meta[key] = data.draw(JSON_VALUES | st.lists(st.text(max_size=3), max_size=4),
                              label="value")
    else:
        name = data.draw(st.sampled_from(list(cols)), label="section")
        col = cols[name]
        if what == "value":
            value = st.integers(-(2**63), 2**63 - 1) if col.dtype == np.int64 else st.floats()
            col[data.draw(st.integers(0, col.size - 1), label="row")] = data.draw(
                value, label="value")
        elif what == "dtype":
            with np.errstate(invalid="ignore"):  # NaN has no int64
                cols[name] = col.astype(np.float64 if col.dtype == np.int64 else np.int64)
        else:
            shape = data.draw(st.lists(st.integers(0, 5), max_size=2), label="shape")
            cols[name] = np.resize(col, shape)
    save_sections(copy_path(path), ingest.COPY_KIND, meta, cols.items())
    assert outcome(path) == json_outcome(path)


def test_the_damages_start_from_a_copy_that_is_read(tmp_path):
    path = tmp_path / "store.json"
    save_store(mixed_store(), path)
    assert_copy_is_read_as_the_json(path)
    rewrite_copy(lambda meta, cols: None)(path)
    assert_copy_is_read_as_the_json(path)
    assert outcome(path) == contents(mixed_store())


def test_an_int64_time_of_two_to_the_62_round_trips_exactly(tmp_path):
    path = tmp_path / "store.json"
    store = _make_store(["u"], ["p", "q"], [(0, 0, 5, 2**62, 2**62, 2**62),
                                           (0, 1, 1, 0, 2**63 - 1, -(2**63))])
    save_store(store, path)
    assert_copy_is_read_as_the_json(path)
    loaded = load_store(path)
    assert loaded.unix_time.dtype == np.int64
    assert loaded.unix_time.tolist() == [2**62, -(2**63)]
    assert loaded.votes_total.tolist() == [2**62, 2**63 - 1]


def test_a_save_whose_copy_cannot_be_written_still_writes_the_json(tmp_path):
    plain, blocked = tmp_path / "plain.json", tmp_path / "blocked.json"
    save_store(mixed_store(), plain)
    copy_path(blocked).mkdir()  # a directory where the copy would go
    save_store(mixed_store(), blocked)
    assert blocked.read_bytes() == plain.read_bytes()
    assert copy_path(blocked).is_dir() and not copy_is_read(blocked)
    assert outcome(blocked) == contents(mixed_store())


def test_a_save_replaces_the_copy_of_an_earlier_save(tmp_path):
    path = tmp_path / "store.json"
    save_store(mixed_store(), path)
    smaller = ingest.restrict(mixed_store(), [1, 3])
    save_store(smaller, path)
    assert_copy_is_read_as_the_json(path)
    assert outcome(path) == contents(smaller)


def test_a_load_writes_no_copy(tmp_path):
    path = tmp_path / "store.json"
    save_store(mixed_store(), path)
    copy_path(path).unlink()
    load_store(path)
    assert list(tmp_path.iterdir()) == [path]


def test_importing_dualrec_leaves_hashlib_unloaded():
    proc = run_python(["-c", "import sys, dualrec; print('hashlib' in sys.modules)"])
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "False\n", "")
