"""From-scratch item-based collaborative filtering for implicit feedback.

Trains and evaluates factored item-similarity models (FISM), deep
item-similarity models with a ReLU tower over pooled pairwise
interactions (DeepICF), and an attention-pooled variant (DeepICF_A),
with hand-derived gradients, a leave-one-out ranking harness, and the
ItemPop/ItemKNN heuristic baselines.
"""

from deepicf.data import (InteractionDataset, LooSplit, leave_one_out_split,
                          load_split, parse_interactions,
                          sample_training_instances, save_split)
from deepicf.errors import (CheckpointError, ConfigError, DataError,
                            DeepIcfError, EvalError, ModelError,
                            TrainingDiverged)
from deepicf.evaluation import (EvalReport, ItemKnnModel, evaluate,
                                item_knn_fit_and_score, item_pop_scorer,
                                metrics_at_k, model_scorer_factory,
                                rank_test_item)
from deepicf.model import (ModelConfig, ModelParams, Variant, backward,
                           init_params, predict_logit, score_items)
from deepicf.training import (AdagradState, TrainReport, apply_batch, fit,
                              loss_with_reg, pretrain_and_init, train_epoch)

__version__ = "0.1.0"

__all__ = [
    "AdagradState", "CheckpointError", "ConfigError", "DataError",
    "DeepIcfError", "EvalError", "EvalReport", "InteractionDataset",
    "ItemKnnModel", "LooSplit", "ModelConfig", "ModelError", "ModelParams",
    "TrainReport", "TrainingDiverged", "Variant", "apply_batch", "backward",
    "evaluate", "fit", "init_params", "item_knn_fit_and_score",
    "item_pop_scorer", "leave_one_out_split", "load_split", "loss_with_reg",
    "metrics_at_k", "model_scorer_factory", "parse_interactions",
    "predict_logit", "pretrain_and_init", "rank_test_item",
    "sample_training_instances", "save_split", "score_items", "train_epoch",
]
