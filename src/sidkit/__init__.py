"""Hierarchical semantic identifiers for item catalogs, at desk scale.

The pipeline: align item embeddings (alignment), quantize them into per-level
codebooks and assign SIDs (quantizer), repair ID collisions (collision),
measure assignment quality (sidmetrics), and run generative retrieval over
SID token streams (retrieval).  catalog holds the shared data model; toydata
builds synthetic worlds the whole loop can run on.
"""

from .autodiff import AdamW, Tensor, cosine_warmup_lr
from .catalog import (
    InteractionSequence,
    ItemCatalog,
    ItemRecord,
    SemanticId,
    SidStructure,
    flat_tokens_to_sid,
    format_sid_brackets,
    load_item_catalog,
    load_sequences,
    parse_sid_brackets,
    parse_sid_string,
    render_sid_string,
    save_item_catalog,
    save_sequences,
    sid_to_flat_tokens,
)
from .alignment import (
    AlignmentBatch,
    AlignmentConfig,
    ProjectionHead,
    info_nce_loss,
    load_projection,
    save_projection,
    train_projection,
)
from .quantizer import (
    CodebookStack,
    Mlp,
    QuantizerModel,
    RqkmeansConfig,
    RqvaeConfig,
    assign_random,
    feature_fidelity,
    load_quantizer,
    random_model,
    residual_assign,
    residual_assign_batch,
    save_quantizer,
    train_multivq,
    train_rqkmeans,
    train_rqvae,
)
from .collision import (
    AssignmentTable,
    apply_knn_policy,
    apply_merge_policy,
    apply_noco_policy,
    apply_random_policy,
    load_assignment,
    occupancy_stats,
    raw_assignment,
    save_assignment,
)
from .sidmetrics import (
    OccupancyVector,
    PairLabels,
    codebook_utilization,
    consistency,
    embedding_hitrate,
    gini_coefficient,
    load_pair_labels,
    pairs_from_sequences,
    save_pair_labels,
)
from .retrieval import (
    BeamSchedule,
    LabeledSequence,
    MarkovScorer,
    SequenceScorer,
    build_useraction_corpus,
    default_schedule,
    dynamic_beam_search,
    evaluate_hr,
    labeled_from_stream,
    load_markov_scorer,
    masked_batch_loss,
    save_markov_scorer,
    slice_plan,
    sliced_loss,
    train_markov_scorer,
)
from .errors import DataError, NumericError, SidkitError
from .toydata import ToyConfig, ToyWorld, make_toy_catalog, make_toy_sequences, make_toy_world

__version__ = "0.1.0"
