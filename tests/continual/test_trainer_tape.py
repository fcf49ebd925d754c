"""Tape integration with the continual trainer: taped runs are bit-for-bit
identical to eager ones, the tape only engages for tape-safe methods, and
``--no-tape`` / ``use_tape=False`` forces eager everywhere.
"""

import numpy as np

from repro.continual import ContinualTrainer, build_objective, make_method

SEED = 31337


def fresh_trainer(name, config, sequence, **kwargs):
    rng = np.random.default_rng(SEED)
    objective = build_objective(config, sequence[0].train.x.shape[1:], rng)
    method = make_method(name, objective, config, rng)
    return ContinualTrainer(method, config, rng, verbose=False, **kwargs)


def assert_same_weights(a, b):
    for (name, pa), (_n, pb) in zip(a.objective.named_parameters(),
                                    b.objective.named_parameters()):
        np.testing.assert_array_equal(pa.data, pb.data, err_msg=name)


class TestTapedTrainer:
    def test_taped_run_is_bit_for_bit_eager(self, fast_config, tiny_sequence):
        assert fast_config.use_tape  # tape defaults on
        eager = fresh_trainer("finetune",
                              fast_config.with_overrides(use_tape=False),
                              tiny_sequence)
        expected = eager.run(tiny_sequence)

        taped = fresh_trainer("finetune", fast_config, tiny_sequence)
        result = taped.run(tiny_sequence)

        np.testing.assert_array_equal(result.accuracy_matrix,
                                      expected.accuracy_matrix)
        assert_same_weights(taped.method, eager.method)
        # the tape actually carried steps: at least one capture per batch
        # shape and replays for every repeated shape
        stats = taped._taped_step.stats
        assert stats["captures"] >= 1
        assert stats["replays"] > stats["captures"]
        assert stats["eager"] == 0

    def test_methods_overriding_batch_loss_stay_eager(self, fast_config,
                                                      tiny_sequence):
        trainer = fresh_trainer("der", fast_config, tiny_sequence)
        assert not trainer.method.tape_safe
        trainer.run(tiny_sequence)
        assert trainer._taped_step is None

    def test_finetune_is_tape_safe(self, fast_config, tiny_sequence):
        trainer = fresh_trainer("finetune", fast_config, tiny_sequence)
        assert trainer.method.tape_safe

    def test_use_tape_false_disables_taping(self, fast_config, tiny_sequence):
        trainer = fresh_trainer("finetune",
                                fast_config.with_overrides(use_tape=False),
                                tiny_sequence)
        trainer.run(tiny_sequence)
        assert trainer._taped_step is None

    def test_anomaly_mode_guardrails_never_tape(self, fast_config,
                                                tiny_sequence):
        from repro.runtime import GuardrailPolicy

        policy = GuardrailPolicy(max_skips_per_task=3)
        trainer = fresh_trainer("finetune", fast_config, tiny_sequence,
                                guardrails=policy)
        trainer.run(tiny_sequence)
        assert trainer._taped_step is None
