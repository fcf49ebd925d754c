"""Config validation tests."""

import pytest

from repro.continual import ContinualConfig
from repro.continual.config import OBJECTIVES
from repro.optim import OPTIMIZERS
from repro.replay.losses import REPLAY_LOSSES
from repro.replay.noise import NOISE_MODES
from repro.replay.sampling import SAMPLING_POLICIES
from repro.selection import STRATEGIES
from repro.ssl.encoder import BACKBONES

COMPONENT_TABLES = {"selection": STRATEGIES, "replay_loss": REPLAY_LOSSES,
                    "replay_sampling": SAMPLING_POLICIES,
                    "noise_mode": NOISE_MODES, "objective": OBJECTIVES,
                    "optimizer": OPTIMIZERS, "backbone": BACKBONES}


class TestValidation:
    @pytest.mark.parametrize("field,value", [
        ("epochs", 0),
        ("batch_size", 1),
        ("lr", 0.0),
        ("lr", -0.1),
        ("memory_budget", -1),
        ("replay_batch_size", -1),
        ("noise_neighbors", -5),
        ("representation_dim", 1),
    ])
    def test_rejects_invalid_values(self, field, value):
        with pytest.raises(ValueError):
            ContinualConfig(**{field: value})

    def test_with_overrides_also_validates(self):
        config = ContinualConfig()
        with pytest.raises(ValueError):
            config.with_overrides(epochs=0)

    @pytest.mark.parametrize("field", sorted(COMPONENT_TABLES))
    def test_rejects_unknown_component_name(self, field):
        with pytest.raises(ValueError, match=f"unknown {field} 'bogus'"):
            ContinualConfig(**{field: "bogus"})

    @pytest.mark.parametrize("field", sorted(COMPONENT_TABLES))
    def test_accepts_every_registered_component_name(self, field):
        for name in COMPONENT_TABLES[field]:
            assert getattr(ContinualConfig(**{field: name}), field) == name

    def test_boundary_values_accepted(self):
        ContinualConfig(memory_budget=0, replay_batch_size=0, noise_neighbors=0)
