"""BYOL (Grill et al. 2020) — extension objective beyond the paper's two.

The paper's Sec. II-A cites BYOL among the modern CSSL family; this module
adds it so the Table VI objective-swap experiment can be extended to a third
loss.  BYOL predicts the representation of one view from the other, but the
target comes from a *momentum (EMA) copy* of the encoder rather than a
stop-gradient of the live one:

``L = || normalize(h(f(x1))) - normalize(f_ema(x2)) ||^2`` (symmetrized).

The EMA target network is refreshed by every ``encode`` call (i.e. once
per training step, before the online network encodes the views), which
matches the usual per-step momentum update without requiring optimizer
hooks.  Refreshing first also means the target copies the online
BatchNorm buffers before that step's encodes move them.
"""

from __future__ import annotations

import numpy as np

from repro.nn.mlp import MLP
from repro.ssl.base import CSSLObjective
from repro.ssl.encoder import Encoder
from repro.tensor import engine, ops
from repro.tensor.tensor import Tensor, no_grad
from repro.utils.rng import fallback_rng


class BYOL(CSSLObjective):
    """BYOL objective with momentum coefficient ``tau``."""

    def __init__(self, encoder: Encoder, tau: float = 0.99,
                 rng: np.random.Generator | None = None):
        super().__init__(encoder)
        if not 0.0 <= tau < 1.0:
            raise ValueError("tau must be in [0, 1)")
        rng = rng or fallback_rng()
        d = encoder.output_dim
        # Bottleneck predictor, a quarter of the representation width; a
        # registered submodule, so Module.state_dict walks it.
        self.predictor = MLP([d, max(d // 4, 4), d], batch_norm=True, rng=rng)  # repro-lint: disable=SER002
        self.tau = tau
        self._target = encoder.copy()
        self._target.eval()

    def __setattr__(self, name, value):
        # The EMA target is deliberately NOT a registered submodule: its
        # parameters must never reach the optimizer.
        if name == "_target":
            object.__setattr__(self, name, value)
            return
        super().__setattr__(name, value)

    def state_dict(self) -> dict[str, np.ndarray]:
        """The online state plus the EMA target's, under ``target.``."""
        state = super().state_dict()
        for name, value in self._target.state_dict().items():
            state["target." + name] = value
        return state

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        online = {k: v for k, v in state.items() if not k.startswith("target.")}
        super().load_state_dict(online)
        self._target.load_state_dict(
            {k[len("target."):]: v for k, v in state.items()
             if k.startswith("target.")})

    def momentum_update(self) -> None:
        """``theta_target <- tau * theta_target + (1 - tau) * theta_online``."""
        cap = engine.active_capture()
        if cap is not None:
            cap.mark_unsafe("BYOL's momentum update is a non-op side effect "
                            "a tape replay would skip")
        online = dict(self.encoder.named_parameters())
        for name, target_param in self._target.named_parameters():
            # Sanctioned rebind: the EMA target is only ever run under
            # no_grad, so no op has saved it for backward.
            target_param.data = (self.tau * target_param.data  # repro-lint: disable=AD001
                                 + (1.0 - self.tau) * online[name].data)
        online_buffers = dict(self.encoder.named_buffers())
        for name, buf in self._target.named_buffers():
            # Running stats track the online network directly.
            np.copyto(buf, online_buffers[name])

    def target_representation(self, x: np.ndarray) -> np.ndarray:
        with no_grad():
            return self._target(Tensor(x)).numpy()

    @staticmethod
    def _normalized_mse(prediction: Tensor, target: np.ndarray) -> Tensor:
        # Fused normalize-both + squared-distance kernel (one tape node).
        return ops.normalized_mse(prediction, Tensor(target), axis=1).mean()

    def encode(self, x1: np.ndarray, x2: np.ndarray) -> tuple[Tensor, Tensor]:
        """One momentum step, then the online encodes (which move the
        BatchNorm buffers the target copies)."""
        self.momentum_update()
        return super().encode(x1, x2)

    def pair_loss(self, x1: np.ndarray, x2: np.ndarray, z1: Tensor,
                  z2: Tensor) -> Tensor:
        p1 = self.predictor(z1)
        p2 = self.predictor(z2)
        t1 = self.target_representation(x1)
        t2 = self.target_representation(x2)
        return (self._normalized_mse(p1, t2) + self._normalized_mse(p2, t1)) * 0.5

    def align(self, current: Tensor, target: np.ndarray) -> Tensor:
        """BYOL-style alignment for distillation: normalized MSE through
        the predictor (equivalent to negative cosine up to an affine map)."""
        return self._normalized_mse(self.predictor(current), target)
