"""BiLSTM-CNN-CRF sequence tagger: layers, CRF inference, training, and
model serialization.

Re-exported here are the entry points; everything else lives in the
submodules. Each layer has one batched implementation; the per-sentence
oracles the tests check them against are in tests/oracles.py.
"""

from . import crf, layers, model, serialize, training
from .model import ModelParams, TrainConfig, batch_nll_and_grads, init_model, tag
from .serialize import load_model, save_model
from .training import FitResult, GridResult, evaluate, fit, grid_search

__all__ = [
    "crf", "layers", "model", "serialize", "training",
    "ModelParams", "TrainConfig", "batch_nll_and_grads", "init_model", "tag",
    "load_model", "save_model",
    "FitResult", "GridResult", "evaluate", "fit", "grid_search",
]
