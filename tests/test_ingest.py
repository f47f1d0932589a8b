import gc
import json
import statistics
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dualrec import ingest
from dualrec.harness import SplitSpec, SyntheticSpec, gen_synthetic, split
from dualrec.ingest import (
    _gc_paused,
    _COLUMNS,
    _score_column,
    ReviewRecord,
    build_store,
    load_store,
    parse_reviews,
    restrict,
    save_store,
    with_reliability,
)
from dualrec.reliability import attach_scores, score_store

from conftest import copy_path, rated, record, scored, store_from, with_scores


def line(user="A2SUAM1J3GNN3B", asin="0000013714", overall=3.0, helpful=(3, 5), when=126472000, **extra):
    doc = {
        "reviewerID": user,
        "asin": asin,
        "overall": overall,
        "helpful": list(helpful),
        "unixReviewTime": when,
        "reviewerName": "J. McDonald",
        "summary": "Heavenly Highway Hymns",
    }
    doc.update(extra)
    return json.dumps(doc)


def valid_store_doc() -> dict:
    return {"format": "dualrec-store", "version": 1, "n_users": 1, "n_products": 1,
            "users": ["u"], "products": ["p"], "entries": [[0, 0, 5, 0, 0, 1]],
            "reliability": [[0, 0, 0.5]]}


def store_text(**changes) -> str:
    """A valid one-entry store document with some fields replaced; None drops one."""
    doc = valid_store_doc() | changes
    return json.dumps({key: value for key, value in doc.items() if value is not None})


class TestParse:
    def test_example_record(self):
        result = parse_reviews([line()])
        assert result.warnings == []
        (rec,) = result.records
        assert rec.rating == 3
        assert rec.helpful_yes == 3
        assert rec.votes_total == 5
        assert rec.unix_time == 126472000

    def test_empty_stream(self):
        result = parse_reviews([])
        assert result.records == [] and result.warnings == []

    def test_votes_exceeding_total_skipped_with_warning(self):
        result = parse_reviews([line(helpful=(7, 5))])
        assert result.records == []
        assert len(result.warnings) == 1
        assert "helpful_yes > votes_total" in result.warnings[0]
        assert result.warnings[0].startswith("line 1:")

    def test_missing_helpful_defaults_to_zero(self):
        doc = json.loads(line())
        del doc["helpful"]
        (rec,) = parse_reviews([json.dumps(doc)]).records
        assert rec.helpful_yes == 0 and rec.votes_total == 0

    def test_bad_lines_reported_with_numbers(self):
        result = parse_reviews([line(), "{oops", line(overall=3.5), line(user="")])
        assert len(result.records) == 1
        assert [w.split(":")[0] for w in result.warnings] == ["line 2", "line 3", "line 4"]

    @pytest.mark.parametrize("overall", ["1e400", "-1e400", "NaN", "Infinity"])
    def test_non_finite_overall_skipped(self, overall):
        bad = line().replace('"overall": 3.0', f'"overall": {overall}')
        result = parse_reviews([line(), bad])
        assert len(result.records) == 1
        assert result.warnings == ["line 2: overall must be an integer in [1, 5]"]

    @pytest.mark.parametrize("field", [{"when": 10**20}, {"when": -(2**63) - 1},
                                       {"helpful": (0, 2**63)}],
                             ids=["late-time", "early-time", "votes"])
    def test_int64_overflow_skipped(self, field):
        result = parse_reviews([line(user="other"), line(**field)])
        assert len(result.records) == 1 and result.n_skipped == 1
        assert result.warnings[0].startswith("line 2: ") and "int64" in result.warnings[0]
        assert build_store(result.records).n_users == 1

    def test_line_nested_too_deeply_is_skipped_and_counted(self):
        result = parse_reviews([line(), "[" * 100_000 + "]" * 100_000, line(user="other")])
        assert len(result.records) == 2 and result.n_skipped == 1
        assert result.warnings == ["line 2: invalid JSON"]

    @pytest.mark.parametrize("extra", [" " + line(), "x"], ids=["second-object", "letter"])
    def test_data_after_the_object_is_invalid_json(self, extra):
        result = parse_reviews([line(), line() + extra])
        assert len(result.records) == 1
        assert result.warnings == ["line 2: invalid JSON"]

    def test_a_number_over_the_int_string_limit_is_invalid_json(self):
        long = line().replace('"unixReviewTime": 126472000', '"unixReviewTime": ' + "9" * 5000)
        result = parse_reviews([line(), long])
        assert len(result.records) == 1
        assert result.warnings == ["line 2: invalid JSON"]

    @pytest.mark.parametrize("key", ["reviewerID", "asin"])
    @pytest.mark.parametrize("value, fault", [
        ("k\t1", "holds a tab or line break"), ("k\n1", "holds a tab or line break"),
        ("k\r1", "holds a tab or line break"), (" k1", "has leading or trailing whitespace"),
        ("k1 ", "has leading or trailing whitespace"),
        ("\u00a0k1", "has leading or trailing whitespace"),
    ], ids=["tab", "newline", "return", "lead", "trail", "nbsp"])
    def test_a_key_that_breaks_a_tsv_row_or_is_padded_is_skipped(self, key, value, fault):
        # the TSV outputs split rows on tabs and line breaks, and predict strips
        # each pairs line, so it could never name a padded key
        doc = json.loads(line())
        doc[key] = value
        result = parse_reviews([line(user="other"), json.dumps(doc)])
        assert len(result.records) == 1
        assert result.warnings == [f"line 2: {key} {fault}"]

    @pytest.mark.parametrize("key, fault", [
        (b"U\xff2".decode("utf-8", "surrogateescape"), "is not valid UTF-8 text"),
        (json.loads('"U\\udcff2"'), "is not valid UTF-8 text"),
        (json.loads('"Zo\\u00eb\\ud83d\\ude00"'), None),
    ], ids=["raw-byte", "json-escape", "json-escaped-pair"])
    def test_a_key_with_a_lone_surrogate_is_not_utf8(self, key, fault):
        # an undecodable byte read with surrogateescape, or an escape the decoder
        # cannot pair, leaves a lone surrogate that no UTF-8 output can write
        assert (ingest._key_fault(key) or [None])[0] == fault

    def test_unreadable_stream_is_fatal(self):
        def boom():
            yield line()
            raise OSError("disk went away")

        with pytest.raises(OSError):
            parse_reviews(boom())


class TestNormalizeRating:
    """A line's ``overall`` enters the store divided by 5; a line whose
    ``overall`` is no integer in [1, 5] is skipped."""

    @pytest.mark.parametrize("raw,expected", [(5, 1.0), (1, 0.2), (3, 0.6)])
    def test_values(self, raw, expected):
        store = build_store(parse_reviews([line(overall=raw)]).records)
        assert store.ratings.tolist() == [expected]

    @pytest.mark.parametrize("raw", [0, 6, 2.5, -1])
    def test_out_of_range_rejected(self, raw):
        result = parse_reviews([line(overall=raw)])
        assert not result.records and result.n_skipped == 1


class TestBuildStore:
    def test_counts(self):
        store = store_from([
            ("u1", "p1", 4, 0, 0, 1),
            ("u1", "p2", 2, 0, 0, 2),
            ("u2", "p1", 5, 0, 0, 3),
        ])
        assert store.n_users == 2
        assert store.n_products == 2
        assert len(store.ratings) == 3

    def test_duplicate_keeps_latest_time(self):
        store = store_from([
            ("u1", "p1", 2, 0, 0, 10),
            ("u1", "p1", 5, 0, 0, 20),
        ])
        assert rated(store)[(0, 0)] == 5

    def test_duplicate_timestamp_tie_keeps_later_input(self):
        store = store_from([
            ("u1", "p1", 2, 0, 0, 10),
            ("u1", "p1", 4, 0, 0, 10),
        ])
        assert rated(store)[(0, 0)] == 4

    def test_no_reliability_means_empty_psi(self):
        store = store_from([("u1", "p1", 4, 0, 0, 1)])
        assert len(scored(store)) == 0
        assert len(store.ratings) == 1

    def test_reliability_key_must_be_rated(self):
        store = store_from([("u1", "p1", 4, 0, 0, 1)])
        with pytest.raises(ValueError, match=r"key \(0, 1\) is not a rated pair"):
            _score_column(store, [(0, 1, 0.5)])

    def test_reliability_pair_given_twice_is_refused(self, tiny_store):
        with pytest.raises(ValueError, match="a reliability pair appears twice"):
            _score_column(tiny_store, [(0, 0, 0.5), (1, 1, 0.5), (0, 0, 0.25)])

    def test_normalized_is_exactly_raw_over_five(self):
        store = store_from([("u1", "p1", r, 0, 0, r) for r in [1]])
        for value, raw in zip(store.ratings.tolist(), store.raw.tolist()):
            assert value == raw / 5

    def test_timeline_sorted_by_time_then_input_order(self, tiny_store):
        timeline = tiny_store.timelines[0]
        assert tiny_store.user[timeline].tolist() == [0, 1, 2]
        assert tiny_store.unix_time[timeline].tolist() == [100, 200, 300]

    def test_index_maps_are_bijections(self, tiny_store):
        for key, idx in tiny_store.user_index.items():
            assert tiny_store.user_ids[idx] == key
        for key, idx in tiny_store.product_index.items():
            assert tiny_store.product_ids[idx] == key


@settings(max_examples=50, deadline=None)
@given(
    rows=st.lists(
        st.tuples(
            st.integers(0, 5),  # user
            st.integers(0, 5),  # product
            st.integers(1, 5),  # rating
            st.integers(0, 4),  # helpful yes (bounded by total below)
            st.integers(4, 9),  # total votes
            st.integers(0, 50),  # time
        ),
        min_size=1,
        max_size=40,
    )
)
def test_store_invariants_hold_for_random_inputs(rows):
    records = [
        record(f"u{u}", f"p{p}", rating, yes, total, when)
        for u, p, rating, yes, total, when in rows
    ]
    store = build_store(records)
    # omega matches the deduplicated record count
    assert len(store.ratings) == len({(r.user_id, r.product_id) for r in records})
    # every timeline is a permutation of the product's reviewer set,
    # non-decreasing in time
    for j, timeline in store.timelines.items():
        reviewers = store.user[timeline].tolist()
        expected = {i for (i, jj) in rated(store) if jj == j}
        assert sorted(reviewers) == sorted(expected)
        times = store.unix_time[timeline].tolist()
        assert all(a <= b for a, b in zip(times, times[1:]))
    # normalization is exact
    for value, raw in zip(store.ratings.tolist(), store.raw.tolist()):
        assert value == raw / 5


class TestRoundTrip:
    def test_save_load_identity(self, tmp_path, tiny_store):
        rel = {pair: 0.25 for pair in list(rated(tiny_store))[:3]}
        store = with_scores(tiny_store, rel)
        path = tmp_path / "store.json"
        save_store(store, path)
        loaded = load_store(path)
        assert loaded.user_ids == store.user_ids
        assert loaded.product_ids == store.product_ids
        assert rated(loaded) == rated(store)
        assert scored(loaded) == scored(store)
        assert ({j: t.tolist() for j, t in loaded.timelines.items()}
                == {j: t.tolist() for j, t in store.timelines.items()})
        for name in _COLUMNS:
            np.testing.assert_array_equal(getattr(loaded, name), getattr(store, name))

    def test_save_is_byte_stable(self, tmp_path, tiny_store):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        save_store(tiny_store, a)
        save_store(load_store(a), b)
        assert a.read_bytes() == b.read_bytes()

    def test_save_bytes_are_pinned(self, tmp_path):
        # int and float raw ratings, a re-review that moves its pair to the
        # later input position, and reliability scores
        store = store_from([
            ("alice", "p1", 5, 3, 5, 100),
            ("bob", "p1", 2.5, 1, 1, 200),
            ("alice", "p2", 4, 0, 0, 110),
            ("carol", "p2", 1, 0, 2, 90),
            ("alice", "p1", 3, 2, 4, 150),
        ])
        store = with_scores(store, {(0, 0): 0.25, (1, 0): 1 / 3, (2, 1): 1.0})
        path = tmp_path / "store.json"
        save_store(store, path)
        assert path.read_bytes() == (
            b'{"format":"dualrec-store","version":1,"n_users":3,"n_products":2,'
            b'"users":["alice","bob","carol"],"products":["p1","p2"],'
            b'"entries":[[1,0,2.5,1,1,200],[0,1,4,0,0,110],[2,1,1,0,2,90],[0,0,3,2,4,150]],'
            b'"reliability":[[0,0,0.25],[1,0,0.3333333333333333],[2,1,1.0]]}\n'
        )

    @pytest.mark.parametrize("entries", [
        [[0, 0, 5, 0, 0]],
        [[0, 0, 5, 0, 0, 1, 2]],
        [7],
        [[5, 7, 5, 0, 0, 1]],
        [[0, -1, 5, 0, 0, 1]],
        [[0, 0, 5, 0, 0, 1], [0, 0, 3, 0, 0, 2]],
    ], ids=["five-fields", "seven-fields", "not-a-row", "outside", "negative", "duplicate"])
    def test_load_rejects_malformed_entries(self, tmp_path, entries):
        doc = {"format": "dualrec-store", "version": 1, "n_users": 1, "n_products": 1,
               "users": ["u"], "products": ["p"], "entries": entries, "reliability": []}
        path = tmp_path / "store.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=f"entry {len(entries) - 1}:"):
            load_store(path)

    def test_non_integral_synthetic_ratings_round_trip(self, tmp_path):
        store = gen_synthetic(SyntheticSpec(8, 6, 2, 0.5, 0.1, seed=4, quantize=False))
        assert any(v != int(v) for v in rated(store).values())
        path = tmp_path / "store.json"
        save_store(store, path)
        assert rated(load_store(path)) == rated(store)

    @pytest.mark.parametrize("row", [
        [0.7, 0, 3, 0, 0, 1],
        [0, True, 3, 0, 0, 1],
        [0, 0, 9, 0, 0, 1],
        [0, 0, 0, 0, 0, 1],
        [0, 0, True, 0, 0, 1],
        [0, 0, 3, -1, 2, 1],
        [0, 0, 3, 0, -2, 1],
        [0, 0, 3, 5, 2, 1],
    ], ids=["float-index", "bool-index", "rating-above-five", "rating-zero", "bool-rating",
            "negative-helpful", "negative-total", "helpful-above-total"])
    def test_load_rejects_wrong_values(self, tmp_path, row):
        doc = {"format": "dualrec-store", "version": 1, "n_users": 1, "n_products": 1,
               "users": ["u"], "products": ["p"], "entries": [row], "reliability": []}
        path = tmp_path / "store.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="entry 0:"):
            load_store(path)

    @pytest.mark.parametrize("text", [
        "[]",
        '{"format": "dualrec-store", "version": 1, "n_users": 1, "n_products": 1,'
        ' "users": ["u"], "products": ["p"], "entries": [[null, 0, 5, 0, 0, 1]]}',
        '{"format": "dualrec-store", "version": 1, "n_users": 1, "n_products": 1,'
        ' "users": ["u"], "products": ["p"], "entries": [[0, 0, "5", 0, 0, 1]]}',
        store_text(entries=None),
        store_text(users=5),
        store_text(version=True),
        store_text(n_users=True),
        store_text(n_products=1.0),
        store_text(reliability=[["0", "0", 0.5]]),
        store_text(reliability=[[False, 0, 0.5]]),
        store_text(reliability=[[0, 0, True]]),
        store_text(reliability=[[0, 0, float("nan")]]),
        store_text(users=["u", "u"], n_users=2),
        store_text(entries=[[0, 0, 5, 0, 0, 2**63]]),
        "[" * 100_000 + "]" * 100_000,
    ], ids=["not-an-object", "null-index", "string-rating", "no-entries", "int-users",
            "bool-version", "bool-count", "float-count", "string-score-index",
            "bool-score-index", "bool-score", "nan-score", "repeated-user-id", "int64-overflow",
            "nested-too-deep"])
    def test_load_rejects_wrongly_typed_fields(self, tmp_path, text):
        path = tmp_path / "store.json"
        path.write_text(text)
        with pytest.raises(ValueError):
            load_store(path)

    def test_load_rejects_other_files(self, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text('{"format": "something-else", "version": 1}')
        with pytest.raises(ValueError):
            load_store(path)


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=7) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=8,
)


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(data=st.data())
def test_load_returns_a_store_or_raises_value_error(tmp_path_factory, data):
    doc = valid_store_doc() | {
        "n_users": 2, "users": ["u", "v"],
        "entries": [[0, 0, 5, 0, 0, 1], [1, 0, 2.5, 1, 3, 1]],
        "reliability": [[0, 0, 0.5], [1, 0, 1.0]],
    }
    value = data.draw(JSON_VALUES, label="value")
    where = data.draw(st.sampled_from(["top", "entries", "reliability"]), label="where")
    if where == "top":
        doc[data.draw(st.sampled_from(sorted(doc)), label="key")] = value
    else:
        row = data.draw(st.sampled_from(doc[where]), label="row")
        row[data.draw(st.integers(0, len(row) - 1), label="field")] = value
    path = tmp_path_factory.mktemp("fuzz") / "store.json"
    path.write_text(json.dumps(doc))
    try:
        store = load_store(path)
    except ValueError:
        return
    assert store.n_users == len(doc["users"])


INT64_EDGES = st.sampled_from([2**63 - 1, 2**63, -(2**63), -(2**63) - 1, 10**20])


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(key=st.sampled_from(["reviewerID", "asin", "overall", "helpful", "unixReviewTime"]),
       value=JSON_VALUES | INT64_EDGES
       | st.lists(st.integers() | INT64_EDGES, min_size=2, max_size=2))
def test_review_line_becomes_a_record_or_a_warning(key, value):
    doc = json.loads(line())
    doc[key] = value
    result = parse_reviews([line(user="other"), json.dumps(doc)])
    assert len(result.records) + result.n_skipped == 2
    build_store(result.records)


@pytest.fixture(params=[True, False], ids=["gc-on", "gc-off"])
def gc_setting(request):
    """Cyclic collection switched on or off for the test, and restored after it."""
    was_enabled = gc.isenabled()
    (gc.enable if request.param else gc.disable)()
    yield request.param
    (gc.enable if was_enabled else gc.disable)()


def scored_rows(n):
    """A store of ``n`` rows over 100 users, each row scored 0.5."""
    store = store_from([(f"u{i % 100}", f"p{i // 100}", 1 + i % 5, i % 3, 3, i) for i in range(n)])
    return with_reliability(store, np.full(n, 0.5))


class TestGcPause:
    """Store IO runs with cyclic collection paused and hands the caller back
    its own setting, also when it raises."""

    @pytest.mark.parametrize("call", ["parse_reviews", "build_store", "save_store", "load_store"])
    def test_the_callers_setting_is_restored(self, tmp_path, tiny_store, gc_setting, call):
        path = tmp_path / "store.json"
        path.write_text(store_text())
        run = {"parse_reviews": lambda: parse_reviews([line(), "{oops"]),
               "build_store": lambda: build_store([record("u", "p")]),
               "save_store": lambda: save_store(tiny_store, path),
               "load_store": lambda: load_store(path)}[call]
        run()
        assert gc.isenabled() is gc_setting

    def test_the_callers_setting_is_restored_when_load_store_raises(self, tmp_path, gc_setting):
        path = tmp_path / "store.json"
        path.write_text(store_text(entries=[[0, 0, 5, 0, 0]]))
        with pytest.raises(ValueError, match="expected 6 fields"):
            load_store(path)
        assert gc.isenabled() is gc_setting

    @pytest.mark.parametrize("gc_setting", [True], ids=["gc-on"], indirect=True)
    @pytest.mark.parametrize("call", ["save_store", "load_store"])
    def test_no_collection_starts_inside_store_io(self, tmp_path, gc_setting, call):
        """The collection owed for the paused allocations starts only at the
        caller's next allocation, after the call has returned."""
        store, path = scored_rows(3000), tmp_path / "store.json"
        save_store(store, path)
        run = {"save_store": lambda: save_store(store, path),
               "load_store": lambda: load_store(path)}[call]
        starts = []

        def count(phase, info):
            if phase == "start":
                starts.append(info["generation"])

        detach = gc.callbacks.remove  # bound now: binding it after the call would allocate
        gc.collect()  # start from an empty young generation
        gc.callbacks.append(count)
        try:
            run()
        finally:
            detach(count)
        assert starts == []


class TestRestrict:
    def test_partition_preserves_contents(self, tiny_store):
        pairs = sorted(rated(tiny_store))
        sub = restrict(tiny_store, tiny_store.pair_order[:2])
        assert sorted(rated(sub)) == pairs[:2]
        assert sub.n_users == tiny_store.n_users
        for pair in pairs[:2]:
            assert rated(sub)[pair] == rated(tiny_store)[pair]

    def test_unknown_pair_rejected(self, tiny_store):
        with pytest.raises(ValueError):
            restrict(tiny_store, [99])

    @pytest.mark.parametrize("rows", [[-1], [[0, 1]]], ids=["negative", "pairs"])
    def test_a_row_outside_the_store_is_refused(self, tiny_store, rows):
        with pytest.raises(ValueError, match=r"rows must be a list of row indices in \[0, 6\)"):
            restrict(tiny_store, rows)


class TestScoreColumn:
    def test_nan_marks_an_unscored_row(self, tiny_store):
        store = with_reliability(tiny_store, [0.25, np.nan, 1.0, np.nan, np.nan, 0.0])
        assert scored(store) == {(0, 0): 0.25, (2, 0): 1.0, (2, 2): 0.0}

    @pytest.mark.parametrize("column, match", [
        (np.full(5, 0.5), r"one score per row, got shape \(5,\)"),
        (np.full((6, 1), 0.5), r"one score per row, got shape \(6, 1\)"),
        ([0.5, 0.5, 1.5, 0.5, 0.5, 0.5], r"score 1.5 outside \[0, 1\]"),
        ([0.5, 0.5, 0.5, 0.5, 0.5, -np.inf], r"score -inf outside \[0, 1\]"),
    ], ids=["short", "two-dimensional", "above-one", "minus-infinity"])
    def test_a_bad_column_is_refused(self, tiny_store, column, match):
        with pytest.raises(ValueError, match=match):
            with_reliability(tiny_store, column)

    def test_rows_in_hand_are_not_searched_for(self, tiny_store, monkeypatch):
        scores = score_store(tiny_store)
        calls = []
        searchsorted = np.searchsorted
        monkeypatch.setattr(np, "searchsorted",
                            lambda *args, **kw: calls.append(args) or searchsorted(*args, **kw))
        store = attach_scores(tiny_store, scores)
        split(store, SplitSpec(0.5, 0.25, 0.25))
        assert calls == []

    def test_only_a_saved_stores_triples_are_turned_into_a_column(self, tmp_path, monkeypatch):
        path = tmp_path / "store.json"
        store = gen_synthetic(SyntheticSpec(8, 6, 2, 0.5, 0.1, seed=4))
        save_store(store, path)

        def refuse(*args):
            raise AssertionError("_score_column called")

        monkeypatch.setattr(ingest, "_score_column", refuse)
        built = build_store([record("u1", "p1"), record("u2", "p1", 4), record("u1", "p2", 5)])
        synthetic = gen_synthetic(SyntheticSpec(8, 6, 2, 0.5, 0.1, seed=4))
        assert scored(synthetic) == scored(store)
        assert restrict(synthetic, [0, 2]).raw.size == 2
        assert scored(with_reliability(built, [0.5, np.nan, 1.0])) == {(0, 0): 0.5, (0, 1): 1.0}
        assert len(split(synthetic, SplitSpec(0.5, 0.25, 0.25))) == 1

        calls = []

        def spy(*args):
            calls.append(args)
            return _score_column(*args)

        monkeypatch.setattr(ingest, "_score_column", spy)
        assert scored(load_store(path)) == scored(store)
        assert calls == []  # the columnar copy holds the column
        copy_path(path).unlink()
        assert scored(load_store(path)) == scored(store)
        assert len(calls) == 1


def test_store_io_is_linear_in_one_products_reviews(tmp_path):
    """save + load + restrict of a one-product store grows about 4x from N
    to 4N reviews; scanning the product's timeline per entry grows it
    about 16x."""

    def one_product(n):
        return store_from([(f"u{i}", "p", 1 + i % 5, i % 3, 3, i // 2) for i in range(n)])

    def seconds(store):
        half = range(0, store.n_users, 2)  # user i's review is row i
        path = tmp_path / "store.json"
        started = time.perf_counter()
        save_store(store, path)
        restrict(load_store(path), half)
        return time.perf_counter() - started

    small, large = one_product(1000), one_product(4000)
    ratios = [seconds(large) / seconds(small) for _ in range(5)]
    ratio = statistics.median(ratios)
    assert ratio <= 8.0, f"4x the reviews took {ratio:.2f}x the time (all: {ratios})"


class TestPairArrays:
    def test_rated_arrays_follow_sorted_pairs(self, tiny_store):
        idx_u, idx_p, values, raw = tiny_store.rated_arrays
        ratings = rated(tiny_store)
        pairs = sorted(ratings)
        assert list(zip(idx_u.tolist(), idx_p.tolist())) == pairs
        assert values.tolist() == [ratings[p] / 5 for p in pairs]
        assert raw.tolist() == [ratings[p] for p in pairs]

    def test_scored_arrays_follow_sorted_reliability_pairs(self, tiny_store):
        assert tiny_store.scored_arrays.idx_u.shape == (0,)
        scores = {(2, 0): 0.25, (0, 0): 0.75}
        store = with_scores(tiny_store, scores)
        idx_u, idx_p, values, raw = store.scored_arrays
        assert list(zip(idx_u.tolist(), idx_p.tolist())) == [(0, 0), (2, 0)]
        assert values.tolist() == [0.75, 0.25]
        assert raw.tolist() == [5.0, 1.0]

    def test_scored_store_sorts_its_pairs_once(self, tiny_store, monkeypatch):
        calls = []
        argsort = np.argsort
        monkeypatch.setattr(np, "argsort", lambda *a, **kw: calls.append(a) or argsort(*a, **kw))
        scores = _score_column(tiny_store, [(0, 0, 0.75), (2, 0, 0.25)])
        with_reliability(tiny_store, scores).rated_arrays
        assert len(calls) == 1

    def test_built_once_and_read_only(self, tiny_store):
        arrays = tiny_store.rated_arrays
        assert tiny_store.rated_arrays is arrays
        with pytest.raises(ValueError):
            arrays.raw[0] = 0.0


class TestRecordValidation:
    @pytest.mark.parametrize("user, product", [("u\t1", "p"), ("u", "p\n2"), ("u", "p\r")])
    def test_keys_that_would_break_a_tsv_row_are_refused(self, user, product):
        with pytest.raises(ValueError, match="ids must hold no tab or line break"):
            build_store([ReviewRecord(user, product, 3, 0, 0, 0)])

    @pytest.mark.parametrize("user, product", [(" u", "p"), ("u", "p "), ("u", "\u3000p")])
    def test_padded_keys_are_refused(self, user, product):
        with pytest.raises(ValueError, match="ids must have no leading or trailing whitespace"):
            build_store([ReviewRecord(user, product, 3, 0, 0, 0)])

    def test_rating_range_enforced(self):
        for rating in (6, 0):
            with pytest.raises(ValueError, match="entry 0: raw rating"):
                build_store([ReviewRecord("u", "p", rating, 0, 0, 0)])

    def test_vote_invariant_enforced(self):
        for yes, total in ((4, 2), (-1, 2), (-2, -1)):
            with pytest.raises(ValueError, match="entry 0: need 0 <= helpful_yes"):
                build_store([ReviewRecord("u", "p", 3, yes, total, 0)])
