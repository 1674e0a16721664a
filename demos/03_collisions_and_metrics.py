"""
Collision repair and SID quality metrics
========================================

Popular regions of embedding space pile many items onto one SID.  That is
fine for semantics but bad for retrieval: a beam that decodes one SID gets
an undifferentiated bucket.  Repair policies trade a little semantic purity
for a flatter occupancy histogram.  The metrics quantify both sides.
"""

from sidkit.catalog import SidStructure
from sidkit.collision import (
    apply_knn_policy,
    apply_merge_policy,
    apply_noco_policy,
    apply_random_policy,
    occupancy_stats,
    raw_assignment,
)
from sidkit.quantizer import RqkmeansConfig, train_rqkmeans
from sidkit.sidmetrics import (
    OccupancyVector,
    codebook_utilization,
    consistency,
    embedding_hitrate,
    gini_coefficient,
    pairs_from_sequences,
)
from sidkit.toydata import ToyConfig, make_toy_world

world = make_toy_world(ToyConfig(n_items=2000, n_clusters=20, d_in=16, seed=1))
catalog = world.catalog
structure = SidStructure((8, 8, 8), code_dim=16)
model = train_rqkmeans(catalog.embedding_matrix(), structure, RqkmeansConfig(seed=0))

raw = raw_assignment(catalog, model)
tables = {
    "untouched": apply_noco_policy(raw),
    "knn s=10": apply_knn_policy(catalog, model, sigma=10),
    "random": apply_random_policy(catalog, model),
}

# occupancy tells the fairness story, style consistency the semantic one:
# knn and random flatten the histogram identically, but knn moves each
# overflow item to the sibling code NEAREST its embedding, so far more
# same-style pairs keep sharing a SID
print(f"{'policy':12s} {'gini':>6s} {'util%':>6s} {'max':>4s} {'mean':>6s} "
      f"{'style%':>7s}  notes")
for name, table in tables.items():
    occ = OccupancyVector.from_table(table)
    stats = occupancy_stats(table)
    style = consistency(table, world.labels, "style")
    print(f"{name:12s} {gini_coefficient(occ):6.3f} {codebook_utilization(occ):6.1f} "
          f"{stats.max_occupancy:4d} {stats.mean_occupancy:6.2f} {style:7.1f}  "
          f"{stats.distinct_occupied} distinct SIDs")

# the merge policy goes the other way: instead of splitting hot SIDs it
# folds rare ones into their nearest well-populated sibling, so downstream
# consumers never see a bucket with a handful of stragglers
import numpy as np

from sidkit.catalog import SemanticId
from sidkit.collision import AssignmentTable
from sidkit.quantizer import CodebookStack

small_structure = SidStructure((2, 4), code_dim=1)
books = CodebookStack(small_structure, [np.array([[0.0], [99.0]]),
                                        np.array([[0.0], [1.0], [5.0], [9.0]])])
table = AssignmentTable(small_structure)
for i, last in enumerate([0] * 1 + [1] * 8 + [2] * 2 + [3] * 7):
    table.assign(f"x{i:02d}", SemanticId((0, last)))
print("\nmerge vignette, threshold 5:")
print("  before:", table.occupancy)
merged = apply_merge_policy(table, books, merge_threshold=5)
print("  after :", merged.occupancy)
print("  the 1-item and 2-item SIDs folded into their nearest big sibling")

# raw-embedding ranking as a reference point: the planted interactions jump
# one cluster ahead, and cosine similarity cannot cross that jump, which is
# exactly the gap a sequence scorer over SID streams closes in the next demo
pairs = pairs_from_sequences(world.eval_sequences)
hr = embedding_hitrate(catalog, pairs, k=10)
print(f"\nembedding hitrate@10 (raw-embedding ranking, no SIDs): {hr:.3f}")
