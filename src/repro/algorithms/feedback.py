"""Training-side compression state: error feedback and DGC momentum correction.

Compression codecs in this package are pure functions; the stateful parts
of the published algorithms -- carrying the quantization/sparsification
residual into the next iteration (1-bit SGD, TBQ, GradDrop, AdaComp) and
DGC's momentum correction -- live here, keyed by tensor name.  The
convergence experiments (Fig. 13) rely on these wrappers; the throughput
simulator does not (residual arithmetic is a constant-cost elementwise add
folded into the encode pass count).
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple, Union

import numpy as np

from .base import CompressionAlgorithm

__all__ = ["ErrorFeedback", "DGCMomentum"]


class ErrorFeedback:
    """Residual (error) feedback around any compression codec.

    For each named tensor, the quantization error ``g' - decode(encode(g'))``
    (where ``g' = g + residual``) is accumulated locally and re-injected the
    next time that tensor is compressed.  This is the standard trick that
    makes aggressive compression converge (Seide et al. 2014; Strom 2015).
    """

    def __init__(self, algorithm: CompressionAlgorithm):
        self.algorithm = algorithm
        self._residuals: Dict[str, np.ndarray] = {}

    def compress(self, name: str, gradient: np.ndarray, *,
                 return_decoded: bool = False
                 ) -> Union[np.ndarray, Tuple[np.ndarray, np.ndarray]]:
        """Compress ``gradient`` with residual correction; returns the buffer.

        The residual needs ``decode(buffer)``; with ``return_decoded`` that
        decode is handed back too, as ``(buffer, decoded)``, so a caller
        that needs what the receiver sees does not decode a second time.
        The default (buffer only) keeps the public ``compress`` contract
        that existing callers and tracers rely on;
        ``WorkerCompressionState.roundtrip`` always sets it to True.
        """
        grad = np.ascontiguousarray(gradient, dtype=np.float32).ravel()
        residual = self._residuals.get(name)
        if residual is not None:
            if residual.size != grad.size:
                raise ValueError(
                    f"tensor {name!r} changed size: "
                    f"{residual.size} -> {grad.size}")
            grad = grad + residual
        encode_named = getattr(self.algorithm, "encode_named", None)
        if encode_named is not None:
            buffer = encode_named(name, grad)  # adaptive codecs track by name
        else:
            buffer = self.algorithm.encode(grad)
        decoded = self.algorithm.decode(buffer)
        self._residuals[name] = grad - decoded
        return (buffer, decoded) if return_decoded else buffer

    def residual(self, name: str) -> Optional[np.ndarray]:
        return self._residuals.get(name)

    def reset(self) -> None:
        self._residuals.clear()


class DGCMomentum:
    """DGC's momentum correction + factor masking (Lin et al., 2018, §3).

    Plain error feedback under a momentum optimizer loses the momentum that
    the unsent coordinates would have accumulated.  DGC fixes this by
    accumulating *velocity* locally::

        u_t = m * u_{t-1} + g_t          (momentum accumulation)
        v_t = v_{t-1} + u_t              (velocity accumulation)
        send sparsify(v_t); clear u, v at sent coordinates

    Optionally clips the local gradient to bound staleness effects.
    """

    def __init__(self, algorithm: CompressionAlgorithm, momentum: float = 0.9,
                 clip_norm: Optional[float] = None):
        if not 0 <= momentum < 1:
            raise ValueError(f"momentum must be in [0, 1), got {momentum}")
        self.algorithm = algorithm
        self.momentum = float(momentum)
        self.clip_norm = clip_norm
        self._u: Dict[str, np.ndarray] = {}
        self._v: Dict[str, np.ndarray] = {}

    def compress(self, name: str, gradient: np.ndarray, *,
                 return_decoded: bool = False
                 ) -> Union[np.ndarray, Tuple[np.ndarray, np.ndarray]]:
        """Compress with momentum correction; returns the buffer.

        ``return_decoded`` works as in :meth:`ErrorFeedback.compress`.
        """
        grad = np.ascontiguousarray(gradient, dtype=np.float32).ravel()
        if self.clip_norm is not None:
            norm = float(np.linalg.norm(grad))
            if norm > self.clip_norm:
                grad = grad * (self.clip_norm / norm)
        u = self._u.get(name)
        v = self._v.get(name)
        if u is None:
            u = np.zeros_like(grad)
            v = np.zeros_like(grad)
        u = self.momentum * u + grad
        v = v + u
        buffer = self.algorithm.encode(v)
        decoded = self.algorithm.decode(buffer)
        sent = decoded != 0
        u[sent] = 0.0
        v[sent] = 0.0
        self._u[name] = u
        self._v[name] = v
        return (buffer, decoded) if return_decoded else buffer

    def reset(self) -> None:
        self._u.clear()
        self._v.clear()
