"""Tests of the benchmark's own parts.

    PYTHONPATH=src python3 -m pytest perfbench -q
"""

import json
import os

import pytest

import checks
import gen_reviews
import hostspeed
import run
import tracing
from gen_reviews import Shape

SMALL = Shape(60, 20, 400, hot_counts=(40, 20), predict_users=5, predict_per_user=4)


def test_generator_is_deterministic_per_seed():
    a, b = gen_reviews.generate(SMALL, 7), gen_reviews.generate(SMALL, 7)
    assert a == b
    assert gen_reviews.generate(SMALL, 8).lines != a.lines


def test_generator_counts_match_what_ingest_sees():
    ingest = pytest.importorskip("dualrec.ingest")
    reviews = gen_reviews.generate(SMALL, 3)
    parsed = ingest.parse_reviews(reviews.lines)
    assert len(parsed.records) == reviews.n_records
    assert parsed.n_skipped == reviews.n_malformed > 0
    store = ingest.build_store(parsed.records)
    assert len(store.ratings) == reviews.n_ratings
    assert reviews.n_duplicates > 0
    assert max(len(t) for t in store.timelines.values()) == reviews.max_product_reviews == 40
    assert all(u in store.user_index and p in store.product_index for u, p in reviews.pairs)


def _span(sid, parent, start, end, name="f"):
    return {"id": sid, "parent": parent, "run": "r", "name": name,
            "start_ns": start, "end_ns": end}


def test_self_time_subtracts_the_union_of_child_intervals():
    spans = [
        _span("root", None, 0, 100),
        _span("a", "root", 10, 30),
        _span("a1", "a", 12, 18),
        _span("b", "root", 20, 50),  # overlaps a: the union 10..50 counts once
        _span("c", "root", 60, 70),
    ]
    got = tracing.self_times(spans)
    assert got == pytest.approx({"root": 50e-9, "a": 14e-9, "a1": 6e-9, "b": 30e-9,
                                 "c": 10e-9})
    assert tracing.nesting_errors(spans) == []


def test_nesting_errors_flag_a_child_outside_its_parent():
    spans = [_span("root", None, 0, 100), _span("a", "root", 90, 120),
             _span("b", "gone", 1, 2)]
    errors = tracing.nesting_errors(spans)
    assert any("outside its parent" in e for e in errors)
    assert any("unknown parent" in e for e in errors)
    assert min(tracing.self_times(spans).values()) >= 0


def test_descendants_follow_the_tree_at_any_depth():
    spans = [_span("p", None, 0, 100, "pipeline"), _span("i", "p", 0, 40, "stage.ingest"),
             _span("s", "p", 40, 90, "stage.split"), _span("i1", "i", 1, 30, "main"),
             _span("i2", "i1", 2, 10, "save"), _span("s1", "s", 41, 50, "save")]
    assert sorted(s["id"] for s in tracing.descendants(spans, "stage.ingest")) == ["i1", "i2"]


def _rep(traced, pipeline_s, slowdown):
    return run.Rep(traced=traced, pipeline_s=pipeline_s,
                   calibration=[hostspeed.REF_UNIT_S * slowdown] * 3)


def test_times_are_scaled_to_the_reference_host_speed():
    assert hostspeed.slowdown([hostspeed.REF_UNIT_S * k for k in (1.0, 2.0, 3.0)]) == pytest.approx(2.0)
    assert _rep(False, 30.0, 1.5).pipeline_ref_s == pytest.approx(20.0)
    assert hostspeed.sample(2)[0] > 0


def test_overhead_ratio_pairs_adjacent_repetitions():
    reps = [_rep(t, s, k) for t, s, k in
            ((False, 10.0, 1.0), (True, 11.0, 1.0), (True, 26.0, 2.0), (False, 20.0, 1.0))]
    # per pair, at the reference speed: 11/10 and 13/20; their median is the mean
    assert run.overhead_ratio(reps) == pytest.approx((1.1 + 0.65) / 2)


def test_wrappers_return_results_unchanged_and_nest():
    tracer = tracing.Tracer("run", prefix="p.", root_parent="top")

    def rows(n):
        yield from range(n)

    inner = tracer.wrap(lambda x: [x, x], "m.inner", lambda a, k, r: {"n": len(r)})
    outer = tracer.wrap(lambda x: inner(x) + list(traced_rows(x)), "m.outer")
    traced_rows = tracer.wrap(rows, "m.rows")
    assert outer(3) == [3, 3, 0, 1, 2]
    by_name = {s["name"]: s for s in tracer.spans}
    assert by_name["m.outer"]["parent"] == "top"
    assert by_name["m.inner"]["parent"] == by_name["m.rows"]["parent"] == by_name["m.outer"]["id"]
    assert by_name["m.inner"]["n"] == 2
    assert tracing.nesting_errors(tracer.spans) == [
        f"span {by_name['m.outer']['id']} (m.outer) has unknown parent top"
    ]


def _write(path, rows):
    path.write_text("".join("\t".join(row) + "\n" for row in rows), encoding="utf-8")


def test_a_corrupted_prediction_file_fails_the_check(tmp_path):
    pairs = [("A1", "B1"), ("A1", "B2"), ("A2", "B1")]
    good = [(u, p, repr(3.5 + k / 4)) for k, (u, p) in enumerate(pairs)]
    path = tmp_path / "preds.tsv"
    _write(path, good)
    assert checks.predictions(path, pairs) == []
    for corrupt in (good[:2], good[:1] + [("A1", "B2", "5.5")] + good[2:],
                    good[:1] + [("A1", "B2", "nan")] + good[2:],
                    good[:1] + [("A1", "B2", "oops")] + good[2:], [good[1], good[0], good[2]]):
        _write(path, corrupt)
        assert checks.predictions(path, pairs), corrupt


def test_report_must_beat_the_global_mean(tmp_path):
    train = {"entries": [[0, 0, 1, 0, 0, 1], [1, 0, 5, 0, 0, 2]]}  # global mean 3
    test = {"entries": [[0, 1, 5, 0, 0, 3], [1, 1, 1, 0, 0, 4]]}  # its MAE: 2
    path = tmp_path / "report.txt"
    path.write_text("mae\t1.5\nndcg\t0.9\nn_pairs\t2\n", encoding="utf-8")
    assert checks.report(path, train, test) == ([], 1.5, 0.9)
    path.write_text("mae\t2.0\nndcg\t0.9\nn_pairs\t2\n", encoding="utf-8")
    assert checks.report(path, train, test)[0]


def test_benchmark_json_declares_distinct_metric_names():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(names) == len(set(names))
    assert {"setup_s", "pipeline_s"} <= {m["name"] for m in spec["end_to_end"]}


def test_run_refuses_without_program_sources(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "SRC", str(tmp_path))
    assert run.main(["--workload", "hot", "--seed", "1", "--seconds", "1"]) == 2
    assert capsys.readouterr().out == ""
