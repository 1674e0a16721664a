"""`sidkit.toydata` against the item-by-item recipe in `reference_toydata.py`.

Both build the same world from the same config: the saved catalog is the
same bytes, the cluster map, pair labels and sequences are equal, also for
sequences drawn from a cluster map in another order.  The
worlds range over the cluster count, the item count from one item per
cluster (every cluster a singleton, with no companion link) up, the
embedding width and the seed.
"""

import tempfile
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

from sidkit import toydata
from sidkit.catalog import save_item_catalog

import reference_toydata


def saved(catalog) -> bytes:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "catalog.tsv"
        save_item_catalog(catalog, path)
        return path.read_bytes()


@st.composite
def configs(draw):
    n_clusters = draw(st.integers(2, 12))
    return toydata.ToyConfig(
        n_items=draw(st.integers(n_clusters, 200)),
        n_clusters=n_clusters,
        d_in=draw(st.integers(1, 6)),
        n_train_sequences=draw(st.integers(0, 8)),
        n_eval_sequences=draw(st.integers(0, 4)),
        history_len=draw(st.integers(0, 5)),
        n_targets=draw(st.integers(1, 4)),
        seed=draw(st.integers(0, 2**32 - 1)),
    )


@settings(max_examples=150, deadline=None)
@given(configs())
@example(toydata.ToyConfig(n_items=7, n_clusters=7, d_in=3, n_train_sequences=5,
                           n_eval_sequences=2, seed=11))
def test_world_matches_the_reference(config):
    world = toydata.make_toy_world(config)
    expected = reference_toydata.make_toy_world(config)
    assert saved(world.catalog) == saved(expected.catalog)
    assert world.labels == expected.labels
    assert world.train_sequences == expected.train_sequences
    assert world.eval_sequences == expected.eval_sequences
    _, cluster_of = toydata.make_toy_catalog(config.n_items, config.n_clusters,
                                             config.d_in, config.seed)
    _, expected_clusters = reference_toydata.make_toy_catalog(
        config.n_items, config.n_clusters, config.d_in, config.seed)
    assert list(cluster_of.items()) == list(expected_clusters.items())
    shuffled = dict(reversed(cluster_of.items()))  # pools are sorted whatever the map's order
    args = (config.n_clusters, 5, config.history_len, config.n_targets, config.seed)
    assert (toydata.make_toy_sequences(shuffled, *args)
            == reference_toydata.make_toy_sequences(shuffled, *args))


def test_singleton_clusters_have_no_companion():
    catalog, _ = toydata.make_toy_catalog(6, 6, 2, seed=3)
    assert [rec.related_item for rec in catalog.records()] == [None] * 6
