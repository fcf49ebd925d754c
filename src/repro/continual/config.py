"""Experiment configuration and model construction.

One :class:`ContinualConfig` fully determines a run: model architecture,
optimization, memory/selection/replay hyper-parameters, and evaluation.
Defaults are CI scale (seconds per run on CPU); Sec. IV-A5 values are noted
per field.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from repro.optim import OPTIMIZERS
from repro.replay.losses import REPLAY_LOSSES
from repro.replay.noise import NOISE_MODES
from repro.replay.sampling import SAMPLING_POLICIES
from repro.selection import STRATEGIES
from repro.ssl.barlow import BarlowTwins
from repro.ssl.base import CSSLObjective
from repro.ssl.byol import BYOL
from repro.ssl.encoder import BACKBONES, Encoder, build_backbone
from repro.ssl.simsiam import SimSiam
from repro.ssl.vae import VAEObjective

#: Objective name -> class (``ContinualConfig.objective``, Table VI).  The
#: CSSL objectives wrap an :class:`Encoder`; ``"vae"`` is built on the
#: flattened input instead (see :func:`build_objective`).
OBJECTIVES = {"simsiam": SimSiam, "barlow": BarlowTwins, "byol": BYOL,
              "vae": VAEObjective}


@dataclass(frozen=True)
class ContinualConfig:
    """All hyper-parameters of a continual run.

    Attributes
    ----------
    epochs, batch_size, lr, weight_decay, optimizer:
        Optimization (paper: SGD for images, Adam for tabular, 150–1000
        epochs depending on the dataset; CI scale uses a handful;
        optimizer names: :data:`repro.optim.OPTIMIZERS`).  SGD keeps its
        own momentum of 0.9, and every run anneals the rate with
        :class:`~repro.optim.CosineLR` over ``epochs``.
    backbone, representation_dim, objective:
        Model: backbone name (:data:`repro.ssl.encoder.BACKBONES`),
        representation width ``d`` (paper: 2048 image / 128 tabular), and
        CSSL objective (:data:`OBJECTIVES`: ``"simsiam"``, ``"barlow"`` or
        ``"byol"``, Table VI; ``"vae"`` builds the pre-CSSL VAE objective
        instead).
    memory_budget:
        Total stored samples ``s`` across all increments (paper: 256–960).
    replay_batch_size:
        Stored samples replayed per training step (Fig. 10's knob).
    selection:
        Table V strategy name (``"high-entropy"`` is EDSR's;
        :data:`repro.selection.STRATEGIES`).
    replay_loss:
        Table IV loss name: ``"css"``, ``"dis"``, or ``"rpl"`` (EDSR's;
        :data:`repro.replay.losses.REPLAY_LOSSES`).
    noise_neighbors:
        ``k`` for the noise scale ``r(x)`` — the paper's only
        hyper-parameter (Fig. 6; paper uses 10 or 100).
    noise_mode:
        ``"vector"`` (default): ``r(x)`` is the per-dimension std of the
        kNN representations, so the noise follows the local manifold;
        ``"scalar"``: isotropic noise with the dimension-averaged std.
    replay_sampling:
        ``"uniform"`` (paper default) or ``"similarity"`` — the Sec. IV-F
        extension that replays stored samples most similar to the current
        new-data batch.
    knn_k:
        Probe neighbourhood for evaluation (Sec. IV-A5's KNN classifier).
    probe:
        Evaluation probe fitted per accuracy-matrix cell, by registry name
        (:data:`repro.eval.protocol.PROBE_REGISTRY`): ``"knn"`` (paper
        default, parameter-free), ``"linear"`` (SGD softmax head), or
        ``"ridge"`` (closed-form streaming probe — cheap enough to re-probe
        every seen increment at every boundary).
    use_tape:
        Capture the training step once per batch shape and replay the
        recorded program on subsequent steps (``repro.tensor.tape``).
        Replay is bit-for-bit identical to eager dispatch and only engages
        for tape-safe methods; disable to force eager execution everywhere.
    scenario, scenario_seed:
        Stream shape by registry name
        (:data:`repro.scenarios.registry.SCENARIO_REGISTRY`) that
        :func:`~repro.continual.trainer.run_method` trains over:
        ``"class_incremental"`` (default; one segment per task),
        ``"task_free"``, ``"blurry"``, ``"domain_incremental"``, or
        ``"long_sequence"``.
        ``scenario_seed`` keys every stream builder's randomness —
        streams are pure functions of ``(scenario_seed, params)``,
        independent of the training seed.
    blur_ratio:
        Fraction of each task's training data donated to its neighbour
        tasks under the ``blurry`` scenario (``[0, 1)``).
    segments_per_task, drift_threshold:
        ``task_free`` knobs: how many unsignalled segments each base
        task is sliced into, and the
        :class:`~repro.scenarios.drift.DriftDetector` firing threshold
        for self-triggered boundaries.
    domain_count, domain_shift:
        ``domain_incremental`` knobs: number of domains and the
        nuisance-transform strength
        (:func:`repro.data.synthetic.apply_domain_shift`).
    long_cycles:
        ``long_sequence`` knob: how many times the base task order is
        cycled (5 base tasks × 4 cycles = the 20-segment stream).
    """

    epochs: int = 6
    batch_size: int = 32
    lr: float = 0.05
    weight_decay: float = 5e-4
    optimizer: str = "sgd"

    backbone: str = "tiny-conv"
    representation_dim: int = 32
    objective: str = "simsiam"

    memory_budget: int = 20
    replay_batch_size: int = 16
    selection: str = "high-entropy"
    replay_loss: str = "rpl"
    noise_neighbors: int = 30
    noise_mode: str = "vector"
    replay_sampling: str = "uniform"

    knn_k: int = 20
    probe: str = "knn"

    use_tape: bool = True

    scenario: str = "class_incremental"
    scenario_seed: int = 0
    blur_ratio: float = 0.3
    segments_per_task: int = 3
    drift_threshold: float = 0.7
    domain_count: int = 4
    domain_shift: float = 0.75
    long_cycles: int = 4

    def __post_init__(self):
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.batch_size < 2:
            raise ValueError("batch_size must be >= 2 (BatchNorm needs a batch)")
        if self.lr <= 0:
            raise ValueError("lr must be positive")
        if self.memory_budget < 0:
            raise ValueError("memory_budget must be >= 0")
        if self.replay_batch_size < 0:
            raise ValueError("replay_batch_size must be >= 0")
        if self.noise_neighbors < 0:
            raise ValueError("noise_neighbors must be >= 0")
        if self.representation_dim < 2:
            raise ValueError("representation_dim must be >= 2")
        if not 0.0 <= self.blur_ratio < 1.0:
            raise ValueError("blur_ratio must be in [0, 1)")
        if self.segments_per_task < 1:
            raise ValueError("segments_per_task must be >= 1")
        if self.drift_threshold <= 0:
            raise ValueError("drift_threshold must be positive")
        if self.domain_count < 1:
            raise ValueError("domain_count must be >= 1")
        if self.domain_shift < 0:
            raise ValueError("domain_shift must be >= 0")
        if self.long_cycles < 1:
            raise ValueError("long_cycles must be >= 1")
        # Late imports: repro.eval.protocol transitively builds on the nn
        # stack, which imports this module's package, and the scenario
        # registry sits above this package in the layering.
        from repro.eval.protocol import PROBE_REGISTRY
        from repro.scenarios.registry import SCENARIO_REGISTRY
        for name, table in (("objective", OBJECTIVES),
                            ("optimizer", OPTIMIZERS),
                            ("backbone", BACKBONES),
                            ("selection", STRATEGIES),
                            ("replay_loss", REPLAY_LOSSES),
                            ("replay_sampling", SAMPLING_POLICIES),
                            ("noise_mode", NOISE_MODES),
                            ("probe", PROBE_REGISTRY),
                            ("scenario", SCENARIO_REGISTRY)):
            value = getattr(self, name)
            if value not in table:
                raise ValueError(f"unknown {name} {value!r}; registered: "
                                 f"{', '.join(table)}")

    def with_overrides(self, **kwargs) -> "ContinualConfig":
        """Functional update — configs are frozen."""
        return replace(self, **kwargs)


def build_objective(config: ContinualConfig, sample_shape: tuple[int, ...],
                    rng: np.random.Generator) -> CSSLObjective:
    """Construct the CSSL objective for data of ``sample_shape`` (no batch dim).

    Image data (C, H, W) gets the configured conv backbone; tabular data
    (F,) always gets the MLP backbone regardless of ``config.backbone``.
    ``config.objective == "vae"`` builds the VAE objective (the pre-CSSL
    UCL substrate) on the flattened input instead.
    """
    if config.objective == "vae":
        input_dim = int(np.prod(sample_shape))
        return VAEObjective(input_dim, config.representation_dim, rng=rng)
    if len(sample_shape) == 3:
        channels, height, width = sample_shape
        if height != width:
            raise ValueError(f"images must be square, got {sample_shape}")
        backbone = build_backbone(config.backbone, rng, in_channels=channels,
                                  image_size=height)
    elif len(sample_shape) == 1:
        backbone = build_backbone("mlp", rng, input_dim=sample_shape[0],
                                  hidden_dim=max(config.representation_dim, 32))
    else:
        raise ValueError(f"unsupported sample shape {sample_shape}")

    encoder = Encoder(backbone, config.representation_dim, rng=rng)
    return OBJECTIVES[config.objective](encoder, rng=rng)
