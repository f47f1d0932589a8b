"""Error and ranking metrics for rating prediction.

Error metrics (RMSE, MAE) work on flat prediction/truth lists in the raw
1..5 scale. Ranking metrics work per user on (item, predicted, true)
triples: items are ranked by predicted rating descending with ties broken
by ascending item index, relevance means a true rating >= 3, and per-user
values are averaged over users. Users with an empty recommended or
relevant set contribute 0 to the affected average instead of being
skipped.
"""

import math
from dataclasses import dataclass, field

from .linalg import sum_in_order

__all__ = [
    "RELEVANCE_THRESHOLD",
    "EvalReport",
    "rmse",
    "mae",
    "classification_metrics",
    "mean_average_precision",
    "ndcg",
    "check_cutoff",
    "check_threshold",
    "evaluate_predictions",
]

RELEVANCE_THRESHOLD = 3.0
DEFAULT_CUTOFFS = (5, 10)  # the t of each F1@t in a report


def _check_flat(pred, truth):
    if len(pred) != len(truth):
        raise ValueError(f"length mismatch: {len(pred)} predictions, {len(truth)} truths")
    if not pred:
        raise ValueError("empty prediction list")


def rmse(pred, truth) -> float:
    """Root mean squared error over paired lists."""
    _check_flat(pred, truth)
    return math.sqrt(sum_in_order((p - t) ** 2 for p, t in zip(pred, truth)) / len(pred))


def mae(pred, truth) -> float:
    """Mean absolute error over paired lists."""
    _check_flat(pred, truth)
    return sum_in_order(abs(p - t) for p, t in zip(pred, truth)) / len(pred)


def _ranked(items):
    """Items sorted by predicted rating descending, index ascending."""
    return sorted(items, key=lambda row: (-row[1], row[0]))


def _f1(precision: float, recall: float) -> float:
    if precision + recall == 0.0:
        return 0.0
    return 2.0 * precision * recall / (precision + recall)


def _precision_recall(users: dict, threshold: float, cutoff=None):
    """Per-user precision and recall of the recommended set, averaged over
    users. The recommended set is every item predicted >= threshold among
    the user's top-``cutoff`` rows, or among all rows without a cutoff."""
    check_threshold(threshold)
    precision_sum = 0.0
    recall_sum = 0.0
    for rows in users.values():
        top = rows if cutoff is None else _ranked(rows)[:cutoff]
        recommended = {item for item, pred, _ in top if pred >= threshold}
        preferred = {item for item, _, true in rows if true >= threshold}
        hits = len(recommended & preferred)
        precision_sum += hits / len(recommended) if recommended else 0.0
        recall_sum += hits / len(preferred) if preferred else 0.0
    return precision_sum / len(users), recall_sum / len(users)


def classification_metrics(users: dict, threshold: float = RELEVANCE_THRESHOLD):
    """(precision, recall, f1) of the recommended-vs-preferred item sets.

    ``users`` maps a user to its (item, predicted, true) triples. The
    recommended set is everything predicted >= threshold, the preferred
    set everything truly rated >= threshold; per-user precision and
    recall are averaged and F1 comes from the averaged pair.
    """
    if not users:
        raise ValueError("no users to evaluate")
    precision, recall = _precision_recall(users, threshold)
    return precision, recall, _f1(precision, recall)


def mean_average_precision(users: dict, threshold: float = RELEVANCE_THRESHOLD) -> float:
    """Mean over users of average precision at the relevant positions."""
    if not users:
        raise ValueError("no users to evaluate")
    check_threshold(threshold)
    total = 0.0
    for rows in users.values():
        ranked = _ranked(rows)
        relevant = [true >= threshold for _, _, true in ranked]
        n_relevant = sum(relevant)
        if n_relevant == 0:
            continue
        hits = 0
        ap = 0.0
        for pos, is_rel in enumerate(relevant, start=1):
            if is_rel:
                hits += 1
                ap += hits / pos
        total += ap / n_relevant
    return total / len(users)


def _dcg(true_ratings) -> float:
    return sum_in_order((2.0**t - 1.0) / math.log2(1.0 + pos)
                        for pos, t in enumerate(true_ratings, start=1))


def ndcg(users: dict) -> float:
    """Mean normalized discounted cumulative gain over users.

    Gains are the true ratings placed in predicted order, with the
    normalizer being the same gains in true-rating order, so the result
    lives in (0, 1].
    """
    if not users:
        raise ValueError("no users to evaluate")
    total = 0.0
    for rows in users.values():
        dcg = _dcg([true for _, _, true in _ranked(rows)])
        ideal = _dcg(sorted((true for _, _, true in rows), reverse=True))
        total += dcg / ideal
    return total / len(users)


def check_cutoff(cutoff: int) -> None:
    """Raise ValueError unless a top-t cutoff is at least 1."""
    if cutoff < 1:
        raise ValueError(f"cutoff must be >= 1, got {cutoff}")


def check_threshold(threshold: float) -> None:
    """Raise ValueError unless a relevance threshold is a finite number."""
    if not -math.inf < threshold < math.inf:
        raise ValueError(f"threshold must be a finite number, got {threshold}")


def f1_at_cutoff(users: dict, cutoff: int, threshold: float = RELEVANCE_THRESHOLD) -> float:
    """F1 with the recommended set restricted to each user's top-`cutoff`."""
    check_cutoff(cutoff)
    if not users:
        raise ValueError("no users to evaluate")
    return _f1(*_precision_recall(users, threshold, cutoff))


@dataclass
class EvalReport:
    """One evaluation pass: error metrics, ranking metrics and counts."""

    rmse: float
    mae: float
    precision: float
    recall: float
    f1: float
    mean_ap: float
    ndcg: float
    f1_at: dict = field(default_factory=dict)
    n_users: float = 0
    n_pairs: float = 0

    def as_pairs(self) -> list[tuple[str, float]]:
        """Stable (key, value) listing used by both text serializations."""
        out = [
            ("rmse", self.rmse),
            ("mae", self.mae),
            ("precision", self.precision),
            ("recall", self.recall),
            ("f1", self.f1),
            ("map", self.mean_ap),
            ("ndcg", self.ndcg),
        ]
        for cutoff in sorted(self.f1_at):
            out.append((f"f1_at_{cutoff}", self.f1_at[cutoff]))
        out.append(("n_users", self.n_users))
        out.append(("n_pairs", self.n_pairs))
        return out

    def as_kv_text(self) -> str:
        return "".join(f"{key}\t{value!r}\n" for key, value in self.as_pairs())

    def as_tsv(self) -> str:
        pairs = self.as_pairs()
        header = "\t".join(key for key, _ in pairs)
        row = "\t".join(repr(value) for _, value in pairs)
        return f"{header}\n{row}\n"


def evaluate_predictions(
    users: dict,
    cutoffs=DEFAULT_CUTOFFS,
    threshold: float = RELEVANCE_THRESHOLD,
) -> EvalReport:
    """Full report from per-user (item, predicted, true) triples."""
    pred = [p for rows in users.values() for _, p, _ in rows]
    truth = [t for rows in users.values() for _, _, t in rows]
    precision, recall, f1 = classification_metrics(users, threshold)
    return EvalReport(
        rmse=rmse(pred, truth),
        mae=mae(pred, truth),
        precision=precision,
        recall=recall,
        f1=f1,
        mean_ap=mean_average_precision(users, threshold),
        ndcg=ndcg(users),
        f1_at={c: f1_at_cutoff(users, c, threshold) for c in cutoffs},
        n_users=len(users),
        n_pairs=len(pred),
    )
