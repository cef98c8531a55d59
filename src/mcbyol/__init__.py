"""Bayesian twin-network pretraining with SG-MCMC posterior sampling,
snapshot ensembles, and uncertainty-aware downstream evaluation."""

from .autodiff import Tape, Tensor
from .config import ModelSection, RunConfig, SamplerSection
from .data import Dataset, augment_pair, make_clusters, make_ood, minibatch_keys, minibatches
from .diagnostics import ChainStats, QuadraticTarget, run_chain
from .finetune import finetune, subset_labels
from .metrics import accuracy, aggregate_seeds, auroc, entropy_histogram, nll
from .model import (TwinModel, byol_loss_one_direction, byol_loss_symmetrized,
                    ema_update, init_twin)
from .params import ParamVector
from .posterior import (PosteriorEnsemble, Snapshot, bma_predict, collect,
                        load_ensemble, predictive_entropy, save_ensemble)
from .sampler import (SamplerState, cyclic_lr, make_state, posterior_grad, sghmc_step,
                      sgld_step, should_yield)

__version__ = "0.1.0"
