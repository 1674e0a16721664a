"""Which sidkit functions the traced run wraps, and the per-layer metrics.

A layer is one sidkit module; a span's layer is the part of its name before
the first dot.  Spans named ``stage.*`` are the benchmark's own, one per CLI
call, library step or query, and are the roots every layer span hangs from.

Function metrics ending in ``_s`` are self time (span minus child spans),
summed over every call, except the two marked *inclusive* in ``METRICS``.
"""

from __future__ import annotations

import os

import numpy as np

from sidkit import alignment, autodiff, catalog, cli, collision, quantizer, retrieval, sidmetrics

from tracer import HOOK, Tracer

LAYERS = ("catalog", "quantizer", "collision", "sidmetrics", "alignment", "retrieval",
          "autodiff", "cli")

FUNCTIONS = {
    catalog: ("load_item_catalog", "load_sequences", "save_item_catalog", "save_sequences",
              "flat_tokens_to_sid", "sid_to_flat_tokens"),
    quantizer: ("train_rqkmeans", "lloyd_kmeans", "kmeanspp_init", "residual_assign_batch",
                "train_rqvae", "rqvae_loss", "feature_fidelity", "save_quantizer",
                "load_quantizer"),
    collision: ("raw_assignment", "apply_knn_policy", "apply_merge_policy", "apply_noco_policy",
                "apply_random_policy", "occupancy_stats", "save_assignment", "load_assignment"),
    sidmetrics: ("gini_coefficient", "codebook_utilization", "embedding_hitrate", "consistency",
                 "pairs_from_sequences", "load_pair_labels"),
    alignment: ("train_projection", "projection_loss", "collect_pairs"),
    retrieval: ("train_markov_scorer", "build_useraction_corpus", "save_markov_scorer",
                "load_markov_scorer", "dynamic_beam_search", "evaluate_hr", "sequence_context",
                "save_corpus", "load_corpus"),
    autodiff: ("cosine_warmup_lr", "logsumexp_rows"),
    cli: ("main",),
}

METHODS = (
    (catalog.ItemCatalog, "catalog", ("embedding_matrix",)),
    (quantizer.QuantizerModel, "quantizer", ("assign_batch", "rank_last_level_batch")),
    (collision.AssignmentTable, "collision", ("assign", "items_for_sid", "copy")),
    (sidmetrics.OccupancyVector, "sidmetrics", ("from_table",)),
    (retrieval.MarkovScorer, "retrieval", ("observe", "next_token_log_probs")),
    (autodiff.Tensor, "autodiff", (
        "__add__", "__radd__", "__neg__", "__sub__", "__rsub__", "__mul__", "__truediv__",
        "__rtruediv__", "__pow__", "__matmul__", "relu", "exp", "log", "sqrt", "sum", "mean",
        "gather_rows", "detach", "backward")),
    (autodiff.AdamW, "autodiff", ("step", "zero_grad")),
)

F8 = 8  # bytes per float64


# -- counters computed where the work happens --------------------------------

def _distance_bytes(tracer: Tracer, rows: int, table_rows, dim: int, calls: int = 1) -> None:
    """Bytes of the (N, K, d) float64 temporaries the distance code builds,
    computed from the argument shapes, not measured."""
    for k in table_rows:
        size = rows * int(k) * dim * F8
        tracer.count("quantizer.distance_bytes", calls * size)
        tracer.counts["quantizer.distance_max_bytes"] = max(
            tracer.counts.get("quantizer.distance_max_bytes", 0), size)


def _lloyd(tracer, args, kwargs, result):
    X, k = args[0], args[1]
    _distance_bytes(tracer, X.shape[0], (k,), X.shape[1], calls=len(result[2]))


def _kmeanspp(tracer, args, kwargs, result):
    X, k = args[0], args[1]
    _distance_bytes(tracer, X.shape[0], (1,), X.shape[1], calls=k)


def _residual_assign(tracer, args, kwargs, result):
    Z, books = args[0], args[1]
    _distance_bytes(tracer, Z.shape[0], books.structure.level_sizes, books.dim)


def _rank_last(tracer, args, kwargs, result):
    model, X = args[0], args[1]
    _distance_bytes(tracer, len(X), model.structure.level_sizes, model.codebooks.dim)


def _rqkmeans(tracer, args, kwargs, result):
    tracer.count("quantizer.lloyd_iterations", sum(len(t) for t in result.objective_traces))


def _merge(tracer, args, kwargs, result):
    table, threshold = args[0], args[2]
    tracer.count("collision.merge_small_sids",
                 sum(1 for count in table.occupancy.values() if 0 < count < threshold))
    tracer.count("collision.merge_moved_items",
                 sum(1 for item_id, sid in table.items() if result[item_id] != sid))


def _bytes_read(tracer, args, kwargs, result):
    tracer.count("catalog.bytes_read", os.path.getsize(args[0]))


HOOKS = {
    "quantizer.lloyd_kmeans": _lloyd,
    "quantizer.kmeanspp_init": _kmeanspp,
    "quantizer.residual_assign_batch": _residual_assign,
    "quantizer.QuantizerModel.rank_last_level_batch": _rank_last,
    "quantizer.train_rqkmeans": _rqkmeans,
    "collision.apply_merge_policy": _merge,
    "catalog.load_item_catalog": _bytes_read,
    "catalog.load_sequences": _bytes_read,
}


def install(tracer: Tracer, extra_hooks: dict | None = None) -> None:
    """Wrap every function in FUNCTIONS and METHODS; ``extra_hooks`` adds
    hooks the workload needs (they replace none of HOOKS)."""
    hooks = dict(HOOKS, **(extra_hooks or {}))
    for module, names in FUNCTIONS.items():
        layer = module.__name__.split(".")[-1]
        for attr in names:
            name = f"{layer}.{attr}"
            tracer.install_function(module, attr, name, hooks.get(name))
    for cls, layer, names in METHODS:
        for attr in names:
            name = f"{layer}.{cls.__name__}.{attr}"
            tracer.install_method(cls, attr, name, hooks.get(name))


# -- metric definitions -------------------------------------------------------

# metric -> (how, span names).  self: summed self time; incl: summed span
# duration (children included); calls: number of spans.
METRICS = {
    "quantizer.lloyd_s": ("self", ["quantizer.lloyd_kmeans"]),
    "quantizer.kmeanspp_s": ("self", ["quantizer.kmeanspp_init"]),
    "quantizer.assign_s": ("self", ["quantizer.residual_assign_batch",
                                    "quantizer.QuantizerModel.assign_batch"]),
    "quantizer.rank_last_level_s": ("self", ["quantizer.QuantizerModel.rank_last_level_batch"]),
    "quantizer.save_s": ("self", ["quantizer.save_quantizer"]),
    "quantizer.load_s": ("self", ["quantizer.load_quantizer"]),
    # inclusive: the forward graph is built from autodiff ops
    "quantizer.rqvae_loss_s": ("incl", ["quantizer.rqvae_loss"]),
    "quantizer.fidelity_s": ("self", ["quantizer.feature_fidelity"]),
    "autodiff.backward_s": ("self", ["autodiff.Tensor.backward"]),
    "autodiff.adamw_step_s": ("self", ["autodiff.AdamW.step"]),
    "autodiff.backward_calls": ("calls", ["autodiff.Tensor.backward"]),
    # inclusive: the whole training call, autodiff ops included
    "alignment.train_projection_s": ("incl", ["alignment.train_projection"]),
    "collision.knn_s": ("self", ["collision.apply_knn_policy"]),
    "collision.merge_s": ("self", ["collision.apply_merge_policy"]),
    "collision.table_assign_s": ("self", ["collision.AssignmentTable.assign"]),
    "collision.table_assign_calls": ("calls", ["collision.AssignmentTable.assign"]),
    "collision.load_assignment_s": ("self", ["collision.load_assignment"]),
    "collision.save_assignment_s": ("self", ["collision.save_assignment"]),
    "collision.items_for_sid_s": ("self", ["collision.AssignmentTable.items_for_sid"]),
    "collision.items_for_sid_calls": ("calls", ["collision.AssignmentTable.items_for_sid"]),
    "catalog.load_catalog_s": ("self", ["catalog.load_item_catalog"]),
    "catalog.load_sequences_s": ("self", ["catalog.load_sequences"]),
    "catalog.sid_convert_s": ("self", ["catalog.flat_tokens_to_sid", "catalog.sid_to_flat_tokens"]),
    "sidmetrics.gini_s": ("self", ["sidmetrics.gini_coefficient",
                                   "sidmetrics.OccupancyVector.from_table"]),
    "sidmetrics.hitrate_s": ("self", ["sidmetrics.embedding_hitrate"]),
    "sidmetrics.consistency_s": ("self", ["sidmetrics.consistency"]),
    "retrieval.beam_search_s": ("self", ["retrieval.dynamic_beam_search"]),
    "retrieval.scorer_lookup_s": ("self", ["retrieval.MarkovScorer.next_token_log_probs"]),
    "retrieval.observe_s": ("self", ["retrieval.MarkovScorer.observe",
                                     "retrieval.train_markov_scorer"]),
    "retrieval.corpus_build_s": ("self", ["retrieval.build_useraction_corpus"]),
    "retrieval.scorer_save_s": ("self", ["retrieval.save_markov_scorer"]),
    "retrieval.scorer_load_s": ("self", ["retrieval.load_markov_scorer"]),
}

COUNTERS = ("quantizer.lloyd_iterations", "quantizer.distance_bytes",
            "quantizer.distance_max_bytes", "collision.merge_small_sids",
            "collision.merge_moved_items", "catalog.bytes_read")

SHARES = {
    # metric -> (layers, root stage)
    "share.quantizer_of_tokenize": (("quantizer",), "stage.tokenize"),
    "share.autodiff_of_tokenize": (("autodiff",), "stage.tokenize"),
    "share.retrieval_catalog_of_query": (("retrieval", "catalog"), "stage.query"),
}


def per_layer(tracer: Tracer, untraced_pass_s: float) -> dict[str, float]:
    """Every per-layer metric from the spans of one traced pass.

    ``untraced_pass_s`` is the same pass timed without wrappers; the
    difference is the tracing overhead.
    """
    t = tracer.arrays()
    nid, root = t["name_id"], t["root"]
    layer_of = np.array([n.split(".")[0] for n in tracer.names])
    layer = layer_of[nid]

    def mask(*wanted):
        return np.isin(nid, [tracer.names.index(w) for w in wanted if w in tracer.names])

    out: dict[str, float] = {}
    for lay in LAYERS:
        out[f"{lay}.self_s"] = float(t["self"][layer == lay].sum())
    for metric, (how, wanted) in METRICS.items():
        m = mask(*wanted)
        if how == "calls":
            out[metric] = float(m.sum())
        else:
            out[metric] = float(t["self" if how == "self" else "dur"][m].sum())
    for name in COUNTERS:
        out[name] = float(tracer.counts.get(name, 0))

    under = {stage: mask(stage)[root] for stage in ("stage.align", "stage.query", "stage.tokenize")}
    out["alignment.steps"] = float((mask("autodiff.AdamW.step") & under["stage.align"]).sum())
    queries = float(mask("stage.query").sum())
    lookup_spans = mask("retrieval.MarkovScorer.next_token_log_probs") & under["stage.query"]
    lookups = float(lookup_spans.sum())
    out["retrieval.scorer_calls_per_query"] = lookups / queries if queries else 0.0
    decoded = tracer.counts.get("retrieval.decoded_sids", 0)
    out["retrieval.empty_sid_share"] = (
        tracer.counts.get("retrieval.empty_sids", 0) / decoded if decoded else 0.0)
    for metric, (layers, stage) in SHARES.items():
        total = float(t["dur"][mask(stage)].sum())
        part = float(t["self"][under[stage] & np.isin(layer, layers)].sum())
        out[metric] = part / total if total else 0.0

    traced_pass_s = float(t["dur"][t["parent"] < 0].sum())
    attributed = float(t["self"][np.isin(layer, LAYERS)].sum())
    out["trace.spans"] = float(nid.size)
    out["trace.hook_s"] = float(t["dur"][mask(HOOK)].sum())
    out["trace.untraced_pass_s"] = untraced_pass_s
    out["trace.traced_pass_s"] = traced_pass_s
    out["trace.overhead_s"] = traced_pass_s - untraced_pass_s
    out["trace.overhead_share"] = (traced_pass_s - untraced_pass_s) / untraced_pass_s
    out["trace.attributed_share"] = attributed / traced_pass_s if traced_pass_s else 0.0
    return out
