"""Every live state_dict in the codebase must satisfy the checkpoint contract.

This is the runtime half of SER001: the lint rule statically screens
``state_dict`` implementations, these tests feed the *actual* trained state
of every method, buffer, and result through
:func:`repro.runtime.check_serializable` (i.e. full flattening), then verify
method state round-trips onto a freshly built method.
"""

import numpy as np
import pytest

from repro.continual import ContinualTrainer, build_objective, make_method
from repro.memory import MemoryBuffer, MemoryRecord
from repro.runtime import check_serializable
from repro.utils import get_rng_state

ALL_METHODS = ["finetune", "si", "der", "lump", "cassle", "edsr",
               "lin", "pfr", "curl"]


def config_for(name, config):
    """curl (generative replay) needs the VAE objective."""
    if name == "curl":
        import dataclasses
        return dataclasses.replace(config, objective="vae")
    return config


def trained_method(name, config, sequence, seed=3):
    """Run one full task so buffers/snapshots/importances are populated."""
    config = config_for(name, config)
    rng = np.random.default_rng(seed)
    objective = build_objective(config, sequence[0].train.x.shape[1:], rng)
    method = make_method(name, objective, config, rng)
    trainer = ContinualTrainer(method, config, rng, verbose=False)
    trainer.run(sequence[:2])
    return method, rng


class TestMethodStateSerializable:
    @pytest.mark.parametrize("name", ALL_METHODS)
    def test_trained_state_flattens(self, name, fast_config, tiny_sequence):
        method, _rng = trained_method(name, fast_config, tiny_sequence)
        check_serializable(method.state_dict())

    @pytest.mark.parametrize("name", ALL_METHODS)
    def test_state_roundtrips_onto_fresh_method(self, name, fast_config,
                                                tiny_sequence):
        config = config_for(name, fast_config)
        method, _ = trained_method(name, fast_config, tiny_sequence)
        state = method.state_dict()
        rng = np.random.default_rng(99)
        objective = build_objective(config,
                                    tiny_sequence[0].train.x.shape[1:], rng)
        fresh = make_method(name, objective, config, rng)
        fresh.load_state_dict(state)
        for (n, a), (_n, b) in zip(fresh.objective.named_parameters(),
                                   method.objective.named_parameters()):
            np.testing.assert_array_equal(a.data, b.data, err_msg=n)
        # The restored state must itself be checkpointable again.
        check_serializable(fresh.state_dict())


class TestOtherStateSerializable:
    def test_buffer_state_flattens(self):
        buffer = MemoryBuffer(50, 5)
        buffer.add(MemoryRecord(task_id=0, samples=np.zeros((5, 4)),
                                noise_scales=np.ones(5),
                                labels=np.zeros(5, dtype=np.int64)))
        check_serializable(buffer.state_dict())

    def test_rng_state_flattens(self):
        # PCG64 state contains arbitrary-precision ints; the manifest is JSON
        # so they serialize exactly.
        check_serializable({"rng": get_rng_state(np.random.default_rng(5))})
