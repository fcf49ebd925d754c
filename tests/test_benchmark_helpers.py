"""Tests for the benchmark harness helpers (benchmarks/common.py)."""

import pytest

from benchmarks import common
from repro.continual import ContinualConfig


class TestConfigFor:
    def test_known_datasets_get_overrides(self):
        config = common.config_for("tiny-imagenet-like")
        assert config.noise_neighbors == 10
        assert config.memory_budget == 60

    def test_unknown_dataset_returns_base(self):
        base = ContinualConfig(epochs=3)
        assert common.config_for("mnist-like", base) is base

    def test_custom_base_preserved(self):
        base = ContinualConfig(epochs=99, objective="barlow")
        config = common.config_for("cifar10-like", base)
        assert config.epochs == 99
        assert config.objective == "barlow"
        assert config.noise_neighbors == common.DATASET_OVERRIDES["cifar10-like"]["noise_neighbors"]

    def test_every_table2_dataset_has_overrides(self):
        for dataset in ("cifar10-like", "cifar100-like", "tiny-imagenet-like",
                        "domainnet-like"):
            assert dataset in common.DATASET_OVERRIDES


class TestEmit:
    def test_emit_writes_result_file(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(common, "RESULTS_DIR", tmp_path)
        common.emit("unit_test_block", "row1\nrow2")
        assert (tmp_path / "unit_test_block.txt").read_text() == "row1\nrow2\n"
        assert "row1" in capsys.readouterr().out


class FakeRun:
    """A finished run with fixed final Acc and Fgt (fractions)."""

    def __init__(self, acc: float, fgt: float):
        self._acc, self._fgt = acc, fgt

    def acc(self) -> float:
        return self._acc

    def fgt(self) -> float:
        return self._fgt


class TestPairedVerdict:
    def test_mean_standard_error_and_wins(self):
        out = common.paired_verdict([1.0, 2.0, 3.0, -1.0], direction=1.0)
        assert out["mean_diff"] == pytest.approx(1.25)
        # sample std (ddof=1) of the four differences, over sqrt(4)
        assert out["se"] == pytest.approx(1.707825127659933 / 2.0)
        assert out["wins"] == 3
        assert out["n"] == 4
        assert out["verdict"] == "inside noise"  # 1.25 < 2 * 0.854

    def test_holds_at_two_standard_errors_in_the_papers_direction(self):
        assert common.paired_verdict([1.0, 2.0, 3.0], 1.0)["verdict"] == "holds"
        # Fgt: lower is the paper's direction.
        out = common.paired_verdict([-1.0, -2.0, -3.0], -1.0)
        assert out["verdict"] == "holds"
        assert out["wins"] == 3

    def test_reversed_at_two_standard_errors_the_other_way(self):
        assert common.paired_verdict([-1.0, -2.0, -3.0], 1.0)["verdict"] == "reversed"
        out = common.paired_verdict([1.0, 2.0, 3.0], -1.0)
        assert out["verdict"] == "reversed"
        assert out["wins"] == 0

    def test_inside_noise_below_two_standard_errors(self):
        out = common.paired_verdict([2.0, -1.0, 1.5, -2.0], 1.0)
        assert 0 < out["mean_diff"] < 2 * out["se"]
        assert out["verdict"] == "inside noise"
        assert out["wins"] == 2

    def test_zero_standard_error(self):
        same = common.paired_verdict([0.5, 0.5, 0.5], 1.0)
        assert same["se"] == 0.0 and same["verdict"] == "holds"
        assert common.paired_verdict([0.5, 0.5], -1.0)["verdict"] == "reversed"
        tie = common.paired_verdict([0.0, 0.0, 0.0], 1.0)
        assert tie["se"] == 0.0 and tie["verdict"] == "inside noise"
        assert tie["wins"] == 0

    def test_needs_two_seeds(self):
        with pytest.raises(ValueError):
            common.paired_verdict([1.0], 1.0)


class TestPairedCheck:
    def test_loggable_dict_from_a_stubbed_runner(self):
        calls = []
        table = {"edsr": [(0.93, 0.02), (0.92, 0.03), (0.95, 0.01)],
                 "finetune": [(0.90, 0.05), (0.91, 0.04), (0.90, 0.06)]}

        def run(method, dataset, seed):
            calls.append((method, dataset, seed))
            return FakeRun(*table[method][seed])

        log = common.paired_check(["edsr"], ["finetune"], ["set"],
                                  seeds=[0, 1, 2], run=run)
        # Every method ran on the same seeds, each once.
        assert sorted(calls) == sorted((m, "set", s) for m in table
                                       for s in (0, 1, 2))
        assert all(isinstance(v, (int, float, str)) for v in log.values())
        assert log["edsr-vs-finetune/set/acc/mean_diff"] == pytest.approx(3.0)
        assert log["edsr-vs-finetune/set/acc/wins"] == 3
        assert log["edsr-vs-finetune/set/acc/verdict"] == "holds"
        assert log["edsr-vs-finetune/set/fgt/mean_diff"] == pytest.approx(-3.0)
        assert log["edsr-vs-finetune/set/fgt/verdict"] == "holds"
        assert log["edsr-vs-finetune/set/fgt/n"] == 3
        assert len(log) == 2 * 5
