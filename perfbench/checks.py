"""Independent oracles the benchmark checks sidkit's outputs against.

Each function reads artifacts the way a user would see them (the TSV and CSV
files) and uses no sidkit code, so a defect in a sidkit reader cannot hide a
defect in the matching writer.
"""

from __future__ import annotations

import csv
import math

import numpy as np


def read_assignment(path) -> dict[str, tuple[int, ...]]:
    """item_id -> codes; a repeated item_id raises ValueError."""
    out: dict[str, tuple[int, ...]] = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            item_id, sid = line.rstrip("\n").split("\t")
            if item_id in out:
                raise ValueError(f"{path}: item {item_id} assigned twice")
            out[item_id] = tuple(int(c) for c in sid.strip("[]").split(","))
    return out


def covers_exactly(path, item_ids) -> bool:
    """Every catalog item appears exactly once and nothing else does."""
    try:
        table = read_assignment(path)
    except ValueError:
        return False
    return len(table) == len(item_ids) and set(table) == set(item_ids)


def codes_matrix(table: dict[str, tuple[int, ...]], item_ids) -> np.ndarray:
    return np.array([table[i] for i in item_ids], dtype=np.int64)


def dense_gini(codes: np.ndarray, level_sizes) -> float:
    """Gini over the dense vector of all prod(level_sizes) SIDs, zeros included.

    With counts x sorted ascending over n SIDs: G = 2 sum_i i x_i / (n S) -
    (n + 1) / n, with 1-based i and S the total; the sums are exact integers.
    """
    flat = np.ravel_multi_index(codes.T, tuple(level_sizes))
    n = int(np.prod(level_sizes))
    x = np.sort(np.bincount(flat, minlength=n)).astype(np.int64)
    ranks = np.arange(1, n + 1, dtype=np.int64)
    weighted = int((ranks * x).sum())
    total = int(x.sum())
    return 2 * weighted / (n * total) - (n + 1) / n


def read_metric_csv(path) -> dict[str, float]:
    with open(path, encoding="utf-8") as fh:
        return {row["metric"]: float(row["value"]) for row in csv.DictReader(fh)}


def objective_never_increases(trace_path) -> bool:
    """The rqkmeans trace (level, step, objective) is non-increasing per level."""
    last: dict[str, float] = {}
    with open(trace_path, encoding="utf-8") as fh:
        for row in csv.DictReader(fh):
            value = float(row["objective"])
            if value > last.get(row["level"], math.inf):
                return False
            last[row["level"]] = value
    return bool(last)


def rqvae_trace(trace_path) -> tuple[list[float], list[float]]:
    """(total_loss, recon_loss) columns of an rqvae trace."""
    total, recon = [], []
    with open(trace_path, encoding="utf-8") as fh:
        for row in csv.DictReader(fh):
            total.append(float(row["total_loss"]))
            recon.append(float(row["recon_loss"]))
    return total, recon


def merge_keeps_prefixes(raw, merged) -> bool:
    """Merge moves items only between siblings and never adds a SID."""
    if set(raw) != set(merged):
        return False
    if any(raw[i][:-1] != merged[i][:-1] for i in raw):
        return False
    return len(set(merged.values())) <= len(set(raw.values()))


def valid_decode(decoded, width: int, level_sizes) -> bool:
    """widths[-1] in-range SIDs, log-probs non-increasing and at most 0."""
    if len(decoded) != width:
        return False
    previous = 0.0
    for sid, logp in decoded:
        codes = sid.codes
        in_range = all(0 <= c < n for c, n in zip(codes, level_sizes))
        if len(codes) != len(level_sizes) or not in_range:
            return False
        if not (logp <= previous and math.isfinite(logp)):
            return False
        previous = logp
    return True
