"""Model persistence: save/load trained predictors.

Training the Table I models takes a multi-scale harvest; operators want to
train once and reuse across scheduler restarts (and the paper's on-line
variant wants to checkpoint).  Models are plain-Python/numpy objects, so
pickle round-trips them faithfully; the wrapper adds a format header so a
stale or foreign file fails loudly instead of mysteriously.
"""

from __future__ import annotations

import pickle
from typing import Union

from .predictors import ModelSet

__all__ = ["save_model_set", "load_model_set", "FORMAT_VERSION"]

#: Bumped whenever the pickled layout changes incompatibly (2: k-NN
#: models carry their distance-kernel constants).
FORMAT_VERSION = 2

_MAGIC = "repro-modelset"


def save_model_set(models: ModelSet, path) -> None:
    """Serialize a trained :class:`ModelSet` to ``path``."""
    if not isinstance(models, ModelSet):
        raise TypeError(f"expected ModelSet, got {type(models).__name__}")
    payload = {
        "magic": _MAGIC,
        "version": FORMAT_VERSION,
        "models": models,
        "table1": [r.row() for r in models.table1()],
    }
    with open(path, "wb") as fh:
        pickle.dump(payload, fh, protocol=pickle.HIGHEST_PROTOCOL)


def load_model_set(path) -> ModelSet:
    """Load a :class:`ModelSet` written by :func:`save_model_set`.

    Raises ``ValueError`` on wrong magic or incompatible version.
    """
    with open(path, "rb") as fh:
        payload = pickle.load(fh)
    if not isinstance(payload, dict) or payload.get("magic") != _MAGIC:
        raise ValueError(f"{path!r} is not a repro model-set file")
    version = payload.get("version")
    if version != FORMAT_VERSION:
        raise ValueError(
            f"model-set format version {version} unsupported "
            f"(expected {FORMAT_VERSION})")
    models = payload["models"]
    if not isinstance(models, ModelSet):
        raise ValueError("corrupt model-set payload")
    return models
