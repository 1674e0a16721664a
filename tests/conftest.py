import numpy as np
import pytest
from hypothesis import strategies as st

from sidkit.catalog import ItemCatalog, ItemRecord, SidStructure
from sidkit.collision import AssignmentTable


@pytest.fixture
def tiny_structure() -> SidStructure:
    return SidStructure((4, 4, 4), code_dim=4)


@pytest.fixture
def flat_structure() -> SidStructure:
    return SidStructure((8192, 8192, 8192), code_dim=64)


def clustered_catalog(
    n_items: int,
    n_clusters: int,
    d_in: int,
    seed: int,
    center_scale: float = 10.0,
    noise: float = 0.3,
) -> tuple[ItemCatalog, np.ndarray]:
    """Well-separated Gaussian clusters with in-cluster companion links."""
    rng = np.random.default_rng(seed)
    centers = rng.standard_normal((n_clusters, d_in)) * center_scale
    labels = np.concatenate(
        [np.arange(n_clusters), rng.integers(n_clusters, size=n_items - n_clusters)]
    )
    ids = [f"item{i:05d}" for i in range(n_items)]
    members: dict[int, list[int]] = {}
    for i, c in enumerate(labels):
        members.setdefault(int(c), []).append(i)
    related = {}
    for rows in members.values():
        for pos, i in enumerate(rows):
            related[i] = ids[rows[(pos + 1) % len(rows)]] if len(rows) > 1 else None
    records = [
        ItemRecord(
            item_id=ids[i],
            embedding=centers[int(labels[i])] + rng.standard_normal(d_in) * noise,
            related_item=related[i],
        )
        for i in range(n_items)
    ]
    return ItemCatalog(records, d_in=d_in), labels


def scorer_count_dicts(scorer) -> dict[tuple[int, ...], dict[int, int]]:
    """A Markov scorer's counts as context -> {next token: count}, rebuilt from
    its sorted table: context columns right-padded with -1, then the token."""
    counts: dict[tuple[int, ...], dict[int, int]] = {}
    for *context, token, count in np.column_stack((scorer._rows, scorer._counts)).tolist():
        counts.setdefault(tuple(t for t in context if t >= 0), {})[token] = count
    return counts


@st.composite
def assignment_tables(draw) -> AssignmentTable:
    """Tables of up to 40 items, possibly none, over 1-3 levels of 2-4 codes
    or over (256,) * 8.  Codes come from each level's first two and last
    code, so SIDs collide, and the ids are inserted in any order."""
    sizes = draw(st.one_of(st.lists(st.integers(2, 4), min_size=1, max_size=3).map(tuple),
                           st.just((256,) * 8)))
    codes = draw(st.lists(st.tuples(*(st.sampled_from(sorted({0, 1, n - 1})) for n in sizes)),
                          max_size=40))
    ids = draw(st.permutations([f"it{i:02d}" for i in range(len(codes))]))
    return AssignmentTable(SidStructure(sizes, code_dim=2), ids, codes)
