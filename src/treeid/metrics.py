"""Retrieval quality metrics: Recall@k, Hit Rate@k, NDCG@k, averaged over users.

Relevance is binary, DCG uses the 1 / log2(rank + 1) discount with ranks
starting at 1, and the ideal DCG is truncated at min(|relevant|, k).
"""

from dataclasses import dataclass

import numpy as np

METRICS = ("recall", "hit", "ndcg")


@dataclass(frozen=True)
class EvalReport:
    """Mean metric values per (metric, cutoff) over the evaluated users."""

    values: dict  # (metric name, cutoff) -> float in [0, 1]
    n_users: int

    def value(self, metric: str, cutoff: int) -> float:
        return self.values[(metric, cutoff)]


def check_cutoffs(cutoffs) -> None:
    """Raise ValueError unless every cutoff is >= 1 and listed once."""
    seen = set()
    for k in cutoffs:
        if k < 1:
            raise ValueError(f"cutoff must be >= 1, got {k}")
        if k in seen:
            raise ValueError(f"cutoff {k} is listed twice")
        seen.add(k)


def _check(relevant, k):
    relevant = set(relevant)
    if not relevant:
        raise ValueError("relevant set must be non-empty")
    check_cutoffs((k,))
    return relevant


def recall_at_k(recommended, relevant, k: int) -> float:
    """Fraction of the relevant items found in the top-k recommendations."""
    relevant = _check(relevant, k)
    hits = sum(1 for item in recommended[:k] if item in relevant)
    return hits / len(relevant)


def hit_at_k(recommended, relevant, k: int) -> float:
    """1.0 when any relevant item appears in the top k, else 0.0."""
    relevant = _check(relevant, k)
    return 1.0 if any(item in relevant for item in recommended[:k]) else 0.0


def ndcg_at_k(recommended, relevant, k: int) -> float:
    """Binary-relevance NDCG at cutoff k."""
    relevant = _check(relevant, k)
    dcg = sum(
        1.0 / np.log2(rank + 1.0)
        for rank, item in enumerate(recommended[:k], start=1)
        if item in relevant
    )
    ideal = sum(1.0 / np.log2(rank + 1.0) for rank in range(1, min(len(relevant), k) + 1))
    return float(dcg / ideal)


def evaluate_run(per_user, cutoffs=(20, 50)) -> EvalReport:
    """Unweighted mean of the per-user metrics at every cutoff.

    per_user is an iterable of (recommended item list, relevant item set)
    pairs. Every cutoff is checked before the first user; a malformed user
    aborts the run with its position in the message.
    """
    check_cutoffs(cutoffs)
    sums = {(m, c): 0.0 for m in METRICS for c in cutoffs}
    n_users = 0
    for uid, (recommended, relevant) in enumerate(per_user):
        try:
            for c in cutoffs:
                sums[("recall", c)] += recall_at_k(recommended, relevant, c)
                sums[("hit", c)] += hit_at_k(recommended, relevant, c)
                sums[("ndcg", c)] += ndcg_at_k(recommended, relevant, c)
        except ValueError as e:
            raise ValueError(f"user {uid}: {e}") from e
        n_users += 1
    if n_users == 0:
        raise ValueError("evaluate_run needs at least one user")
    return EvalReport(
        values={key: s / n_users for key, s in sums.items()},
        n_users=n_users,
    )
