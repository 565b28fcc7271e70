"""Approximate aggregation queries over fixed-radius nearest neighborhoods.

Answers AVG / VAR / PCT / COUNT / SUM aggregates over the neighborhood of a
query object in a learned embedding space, trading a small oracle-labeled
pilot sample against cheap proxy embeddings, with closed-form sample-size
calculators, baselines, an experiment harness, and one-sample hypothesis
tests on top of the estimates.
"""

from .aggregate import AggregationContext, aggregate, relative_error
from .bounds import (
    BoundsInput,
    BoundsOutput,
    min_sizes,
    reconcile_sizes,
)
from .dataset import (
    DataObject,
    Dataset,
    SyntheticGenConfig,
    generate_synthetic,
    load_dataset,
    save_dataset,
)
from .errors import AqnnError, DataError, DegenerateNeighborhoodError, UsageError
from .frnn import (
    NeighborSet,
    exact_frnn,
    pqe_pt,
    prf1,
    top_k_baseline,
)
from .models import CallLedger, EmbeddingModel, embed_many, oracle_model, proxy_model, speedup
from .sprint import (
    QuerySpec,
    SelectionContext,
    SelectionResult,
    SprintConfig,
    draw_pilot,
    draw_sample,
    select_neighbors,
    sprint_c,
    sprint_v,
    ternary_search_max,
    two_phase,
)
from .stats import Hypothesis, TestDecision, ht_accuracy, t_test_one_sample, z_test_proportion

__version__ = "0.1.0"

__all__ = [
    "AggregationContext",
    "AqnnError",
    "BoundsInput",
    "BoundsOutput",
    "CallLedger",
    "DataError",
    "DataObject",
    "Dataset",
    "DegenerateNeighborhoodError",
    "EmbeddingModel",
    "Hypothesis",
    "NeighborSet",
    "QuerySpec",
    "SelectionContext",
    "SelectionResult",
    "SprintConfig",
    "SyntheticGenConfig",
    "TestDecision",
    "UsageError",
    "aggregate",
    "draw_pilot",
    "draw_sample",
    "embed_many",
    "exact_frnn",
    "generate_synthetic",
    "ht_accuracy",
    "load_dataset",
    "min_sizes",
    "oracle_model",
    "pqe_pt",
    "prf1",
    "proxy_model",
    "reconcile_sizes",
    "relative_error",
    "save_dataset",
    "select_neighbors",
    "speedup",
    "sprint_c",
    "sprint_v",
    "t_test_one_sample",
    "ternary_search_max",
    "top_k_baseline",
    "two_phase",
    "z_test_proportion",
]
