"""Output checks for each stage of the benchmarked pipeline.

Every check reads the files a stage wrote and returns a list of problems;
an empty list means the stage's output is correct. The checks read the
files directly, without importing ``dualrec``.
"""

import json
import math
import re

_INGEST_LOG = re.compile(
    r"ingested (\d+) records \((\d+) skipped\) -> (\d+) users x (\d+) products, (\d+) ratings"
)


def load_store_doc(path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def ingest_log(stderr: str, n_records: int, n_skipped: int, n_ratings: int) -> list:
    """The ingest summary line must report the generator's counts."""
    found = _INGEST_LOG.search(stderr)
    if found is None:
        return ["ingest printed no summary line"]
    records, skipped, _, _, ratings = (int(g) for g in found.groups())
    want = {"records": (records, n_records), "skipped": (skipped, n_skipped),
            "ratings": (ratings, n_ratings)}
    return [f"ingest {key}: got {got}, expected {exp}" for key, (got, exp) in want.items()
            if got != exp]


def breakdown(path, n_ratings: int) -> tuple:
    """Rows of the reliability TSV: one per rating, every score in [0, 1].

    Returns (problems, zero share, reliable share).
    """
    problems = []
    rows = zero = reliable = 0
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n").split("\t")
        if header[-2:] != ["rel", "label"]:
            return [f"{path}: unexpected header {header}"], 0.0, 0.0
        for line in fh:
            parts = line.rstrip("\n").split("\t")
            rows += 1
            rel = float(parts[-2])
            if not 0.0 <= rel <= 1.0:
                problems.append(f"{path}: score {rel} outside [0, 1]")
            zero += rel == 0.0
            reliable += parts[-1] == "reliable"
    if rows != n_ratings:
        problems.append(f"{path}: {rows} rows for {n_ratings} ratings")
    rows = max(rows, 1)
    return problems, zero / rows, reliable / rows


def scored_store(doc: dict, n_ratings: int) -> list:
    """The scored store holds every rating, each with a score in [0, 1]."""
    problems = []
    if len(doc["entries"]) != n_ratings:
        problems.append(f"scored store has {len(doc['entries'])} entries, expected {n_ratings}")
    if len(doc["reliability"]) != n_ratings:
        problems.append(f"scored store has {len(doc['reliability'])} scores, expected {n_ratings}")
    bad = [v for _, _, v in doc["reliability"] if not 0.0 <= v <= 1.0]
    if bad:
        problems.append(f"{len(bad)} stored scores outside [0, 1]")
    return problems


def split_parts(full: dict, parts: list) -> list:
    """The train, validation and test stores partition the scored store."""
    key = lambda e: (e[0], e[1])  # noqa: E731
    whole = sorted(map(key, full["entries"]))
    joined = sorted(key(e) for part in parts for e in part["entries"])
    if joined != whole:
        return [f"split parts hold {len(joined)} pairs, not the store's {len(whole)}"]
    return []


def report(path, train: dict, test: dict) -> tuple:
    """The evaluate report must beat the global-mean predictor on MAE.

    Returns (problems, test MAE, test NDCG).
    """
    values = {}
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            key, _, value = line.rstrip("\n").partition("\t")
            values[key] = float(value)
    problems = [f"report lacks {key}" for key in ("mae", "ndcg", "n_pairs") if key not in values]
    if problems:
        return problems, math.nan, math.nan
    mae, ndcg = values["mae"], values["ndcg"]
    mean = sum(e[2] for e in train["entries"]) / len(train["entries"])
    baseline = sum(abs(e[2] - mean) for e in test["entries"]) / len(test["entries"])
    if not mae < baseline:
        problems.append(f"test MAE {mae} does not beat the global-mean MAE {baseline}")
    if not 0.0 < ndcg <= 1.0:
        problems.append(f"test NDCG {ndcg} outside (0, 1]")
    if values["n_pairs"] != len(test["entries"]):
        problems.append(f"report covers {values['n_pairs']} pairs of {len(test['entries'])}")
    return problems, mae, ndcg


def predictions(path, pairs: list) -> list:
    """One prediction row per requested pair, in order, each in [1, 5]."""
    problems = []
    with open(path, "r", encoding="utf-8") as fh:
        rows = [line.rstrip("\n").split("\t") for line in fh]
    if len(rows) != len(pairs):
        problems.append(f"{path}: {len(rows)} rows for {len(pairs)} pairs")
    for k, (row, pair) in enumerate(zip(rows, pairs)):
        if len(row) != 3 or tuple(row[:2]) != pair:
            problems.append(f"{path}: row {k + 1} is {row}, expected keys {pair}")
            break
        try:
            value = float(row[2])
        except ValueError:
            problems.append(f"{path}: row {k + 1} has no number: {row[2]!r}")
            break
        if not 1.0 <= value <= 5.0:
            problems.append(f"{path}: row {k + 1} predicts {value}, outside [1, 5]")
            break
    return problems
