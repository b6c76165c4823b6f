"""Data-parallel training with (optionally compressed) gradient exchange.

``DataParallelTrainer`` runs W logical workers in-process.  Every step:

1. each worker runs forward/backward on its own shard's minibatch,
   producing real per-layer gradients;
2. per layer, each worker's gradient goes through its *own* compression
   state (error feedback or DGC momentum correction -- state is per
   worker, as in the real systems) and is encoded;
3. the aggregated (mean of decoded) gradient is applied by a single
   shared optimizer -- BSP semantics, exactly what CaSync provides.

With ``compression=None`` this is lossless synchronous data-parallel SGD,
the non-compression baseline of Fig. 13.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional, Tuple

import numpy as np

from ..algorithms.base import CompressionAlgorithm
from ..algorithms.feedback import DGCMomentum, ErrorFeedback
from .layers import Sequential, SoftmaxCrossEntropy, softmax
from .optim import Adam, SGD

__all__ = ["WorkerCompressionState", "DataParallelTrainer", "TrainLog"]


class WorkerCompressionState:
    """Per-worker compression wrapper: plain, error-feedback, or DGC."""

    def __init__(self, algorithm: Optional[CompressionAlgorithm],
                 feedback: str = "error"):
        self.algorithm = algorithm
        if algorithm is None:
            self._state = None
        elif feedback == "dgc":
            self._state = DGCMomentum(algorithm, momentum=0.5)
        elif feedback == "error":
            self._state = ErrorFeedback(algorithm)
        elif feedback == "none":
            self._state = None
        else:
            raise ValueError(f"unknown feedback mode {feedback!r}")
        self._feedback = feedback

    def roundtrip(self, name: str, grad: np.ndarray) -> np.ndarray:
        """What the aggregator receives from this worker for ``grad``."""
        if self.algorithm is None:
            return grad
        flat = grad.ravel()
        if self._state is None:
            decoded = self.algorithm.decode(self.algorithm.encode(flat))
        else:
            _buf, decoded = self._state.compress(name, flat,
                                                 return_decoded=True)
        return decoded.reshape(grad.shape)


@dataclass
class TrainLog:
    """Per-evaluation-point training trajectory."""

    steps: List[int] = field(default_factory=list)
    losses: List[float] = field(default_factory=list)
    metrics: List[float] = field(default_factory=list)  # accuracy/perplexity


class DataParallelTrainer:
    """Synchronous data-parallel training over W in-process workers."""

    def __init__(self, build_model: Callable[[], Sequential],
                 num_workers: int = 4, batch_size: int = 32,
                 lr: float = 0.1, momentum: float = 0.0,
                 algorithm: Optional[CompressionAlgorithm] = None,
                 feedback: str = "error", optimizer: str = "sgd",
                 seed: int = 0):
        if num_workers < 1:
            raise ValueError("need at least one worker")
        self.model = build_model()
        self.loss_fn = SoftmaxCrossEntropy()
        if optimizer == "sgd":
            self.optimizer = SGD(self.model.parameters(), lr=lr,
                                 momentum=momentum)
        elif optimizer == "adam":
            self.optimizer = Adam(self.model.parameters(), lr=lr)
        else:
            raise ValueError(f"unknown optimizer {optimizer!r}")
        self.num_workers = num_workers
        self.batch_size = batch_size
        self.rng = np.random.default_rng(seed)
        self.workers = [WorkerCompressionState(algorithm, feedback)
                        for _ in range(num_workers)]
        self.steps_taken = 0

    def step(self, shard_batches: List[Tuple[np.ndarray, np.ndarray]]
             ) -> float:
        """One BSP step over per-worker minibatches; returns mean loss."""
        if len(shard_batches) != self.num_workers:
            raise ValueError(
                f"need {self.num_workers} worker batches, "
                f"got {len(shard_batches)}")
        params = self.model.parameters()
        aggregated = [np.zeros_like(p.value) for p in params]
        total_loss = 0.0
        for w, (x, y) in enumerate(shard_batches):
            self.model.zero_grad()
            logits = self.model.forward(x)
            total_loss += self.loss_fn.forward(logits, y)
            self.model.backward(self.loss_fn.backward())
            for i, param in enumerate(params):
                received = self.workers[w].roundtrip(
                    f"{param.name}#{i}", param.grad)
                aggregated[i] += received
        for i, param in enumerate(params):
            param.grad[...] = aggregated[i] / self.num_workers
        self.optimizer.step()
        self.steps_taken += 1
        return total_loss / self.num_workers

    # -- evaluation ------------------------------------------------------------

    def accuracy(self, x: np.ndarray, y: np.ndarray) -> float:
        logits = self.model.forward(x)
        return float((logits.argmax(axis=1) == y).mean())

    def perplexity(self, x: np.ndarray, y: np.ndarray) -> float:
        logits = self.model.forward(x)
        probs = softmax(logits)
        picked = probs[np.arange(len(y)), y]
        return float(np.exp(-np.log(np.maximum(picked, 1e-12)).mean()))
