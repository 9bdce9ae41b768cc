"""Set-to-arrangement ranking: train a pointer-style arranger directly on
ground-truth permutations, and evaluate rankers under both conventional and
click-model simulation metrics with exact permutation oracles."""

from .arranger import arrange_greedy, permutation_log_prob, step_scores
from .autodiff import Tape, Tensor, grad_check
from .baseline import score_all
from .clickmodels import (ClickModelSpec, MetricScore, examination_prob, load_click_spec,
                          ndcg_reduction_check, oracle_permutation, r_cm, r_ndcg,
                          relevance_prob)
from .data import (DatasetSplit, Instance, UserLog, generate_synthetic, read_dataset,
                   temporal_split, write_dataset)
from .evaluation import (accuracy_at_position, evaluate, export_attention,
                         export_attention_weights, score_rankings)
from .loss import LossReport, listwise_loss
from .model import (ModelDims, batch_loss, init_params, instance_loss, rank_instance,
                    rank_instances, read_instance)
from .params import ParamStore, load_checkpoint, save_checkpoint
from .permutation import Permutation
from .reader import (CandidateSet, ReaderOutput, UserContext, encode_candidates,
                     encode_candidates_mlp, encode_history, encode_history_mlp)
from .training import TrainConfig, ensure_oracles, learning_rate, load_model, save_model, train

__all__ = [name for name in dir() if not name.startswith("_")]
