"""Artificial-neural-network training as a FREERIDE-G reduction.

Section 2.2 of the paper lists "artificial neural networks [14]" among the
canonical generalized reductions.  Full-batch gradient descent on a
one-hidden-layer MLP maps directly onto the middleware:

- Each epoch is one pass: every node runs forward/backward over its local
  samples and accumulates the **gradient sums** (plus the loss) into a
  replicated reduction object whose size depends only on the network
  shape — the **constant object size** class.
- The global reduction adds the per-node gradients; the master applies the
  update and broadcasts fresh weights — merge work proportional to the
  node count: **linear-constant** global reduction.

Because full-batch gradients are exact sums over samples, training is
bit-for-bit invariant to the data partitioning, which the tests assert.
"""

from __future__ import annotations

from typing import Any, Dict

import numpy as np

from repro.middleware.api import GeneralizedReduction
from repro.middleware.instrument import OpCounter
from repro.middleware.reduction import ArrayReductionObject
from repro.simgrid.errors import ConfigurationError

__all__ = ["NeuralNetTraining"]


class NeuralNetTraining(GeneralizedReduction):
    """One-hidden-layer MLP classifier trained with batch gradient descent.

    Consumes labelled training records (features + class label in the last
    column, as produced by
    :func:`repro.datagen.points.make_training_dataset`).

    Parameters
    ----------
    hidden:
        Hidden-layer width.
    num_epochs:
        Passes over the data.
    learning_rate:
        Batch gradient-descent step size.
    seed:
        Weight-initialization seed.
    """

    name = "neuralnet"
    broadcasts_result = True  # updated weights every epoch
    multi_pass_hint = True

    def __init__(
        self,
        hidden: int = 16,
        num_epochs: int = 8,
        learning_rate: float = 0.2,
        seed: int = 37,
    ) -> None:
        if hidden <= 0 or num_epochs <= 0:
            raise ConfigurationError("hidden width and epochs must be positive")
        if learning_rate <= 0:
            raise ConfigurationError("learning rate must be positive")
        self.hidden = hidden
        self.num_epochs = num_epochs
        self.learning_rate = learning_rate
        self.seed = seed
        self._num_dims = 0
        self._num_classes = 0
        self._epoch = 0
        self.w1: np.ndarray | None = None
        self.b1: np.ndarray | None = None
        self.w2: np.ndarray | None = None
        self.b2: np.ndarray | None = None
        self._loss_history: list[float] = []

    # ------------------------------------------------------------------
    # GeneralizedReduction interface
    # ------------------------------------------------------------------

    def begin(self, meta: Dict[str, Any]) -> None:
        self._num_dims = int(meta["num_dims"])
        self._num_classes = int(meta["num_classes"])
        rng = np.random.default_rng(self.seed)
        scale_in = 1.0 / np.sqrt(self._num_dims)
        scale_hidden = 1.0 / np.sqrt(self.hidden)
        self.w1 = rng.normal(0.0, scale_in, size=(self._num_dims, self.hidden))
        self.b1 = np.zeros(self.hidden)
        self.w2 = rng.normal(0.0, scale_hidden, size=(self.hidden, self._num_classes))
        self.b2 = np.zeros(self._num_classes)
        self._epoch = 0
        self._loss_history = []

    @property
    def num_params(self) -> int:
        """Total trainable parameters (= reduction-object entries - 1)."""
        return (
            self._num_dims * self.hidden
            + self.hidden
            + self.hidden * self._num_classes
            + self._num_classes
        )

    def make_local_object(self) -> ArrayReductionObject:
        # [grad w1 | grad b1 | grad w2 | grad b2 | loss]
        return ArrayReductionObject.zeros(self.num_params + 1)

    def process_chunk(
        self, obj: ArrayReductionObject, payload: np.ndarray, ops: OpCounter
    ) -> None:
        assert self.w1 is not None and self.w2 is not None
        records = np.asarray(payload, dtype=np.float64)
        x = records[:, : self._num_dims]
        labels = records[:, self._num_dims].astype(np.int64)
        n = x.shape[0]
        onehot = np.zeros((n, self._num_classes))
        onehot[np.arange(n), np.clip(labels, 0, self._num_classes - 1)] = 1.0

        # Forward.
        hidden_pre = x @ self.w1 + self.b1
        hidden = np.tanh(hidden_pre)
        logits = hidden @ self.w2 + self.b2
        shifted = logits - logits.max(axis=1, keepdims=True)
        exp = np.exp(shifted)
        probs = exp / exp.sum(axis=1, keepdims=True)
        loss = -np.log(
            np.maximum(probs[np.arange(n), np.clip(labels, 0, self._num_classes - 1)], 1e-300)
        ).sum()

        # Backward (sums, not means: associative across chunks).
        dlogits = probs - onehot
        grad_w2 = hidden.T @ dlogits
        grad_b2 = dlogits.sum(axis=0)
        dhidden = (dlogits @ self.w2.T) * (1.0 - hidden**2)
        grad_w1 = x.T @ dhidden
        grad_b1 = dhidden.sum(axis=0)

        contribution = np.concatenate(
            [grad_w1.ravel(), grad_b1, grad_w2.ravel(), grad_b2, [loss]]
        )
        obj.accumulate(contribution, count=float(n))

        d, h, o = self._num_dims, self.hidden, self._num_classes
        # Two GEMMs forward, three backward — strongly FLOP-dominated.
        gemm = float(n) * (d * h + h * o)
        ops.charge(
            flop=5.0 * gemm + 12.0 * n * (h + o),
            mem=float(n) * (d + h + o) + float(self.num_params),
            branch=2.0 * float(n),
        )

    def object_nbytes(self, obj: ArrayReductionObject) -> float:
        return obj.nbytes

    combine = GeneralizedReduction.merge_local

    def update(self, combined: ArrayReductionObject, ops: OpCounter) -> bool:
        assert self.w1 is not None and self.w2 is not None
        d, h, o = self._num_dims, self.hidden, self._num_classes
        n = max(combined.count, 1.0)
        flat = combined.values
        cut1 = d * h
        cut2 = cut1 + h
        cut3 = cut2 + h * o
        step = self.learning_rate / n
        self.w1 = self.w1 - step * flat[:cut1].reshape(d, h)
        self.b1 = self.b1 - step * flat[cut1:cut2]
        self.w2 = self.w2 - step * flat[cut2:cut3].reshape(h, o)
        self.b2 = self.b2 - step * flat[cut3:-1]
        self._loss_history.append(float(flat[-1]) / n)

        ops.charge(flop=2.0 * self.num_params, mem=2.0 * self.num_params)
        self._epoch += 1
        return self._epoch < self.num_epochs

    def result(self) -> Dict[str, Any]:
        assert self.w1 is not None
        return {
            "weights": {
                "w1": self.w1.copy(),
                "b1": self.b1.copy(),
                "w2": self.w2.copy(),
                "b2": self.b2.copy(),
            },
            "loss_history": list(self._loss_history),
            "epochs": self._epoch,
        }

    def predict(self, x: np.ndarray) -> np.ndarray:
        """Class predictions for a feature matrix (utility for tests)."""
        assert self.w1 is not None and self.w2 is not None
        hidden = np.tanh(np.asarray(x, dtype=np.float64) @ self.w1 + self.b1)
        logits = hidden @ self.w2 + self.b2
        return np.argmax(logits, axis=1)
