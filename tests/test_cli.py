"""Tests for the command-line interface."""

import json

import numpy as np
import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_parses_config_flags(self):
        args = build_parser().parse_args([
            "run", "edsr", "cifar10-like", "--epochs", "3", "--selection", "random",
            "--replay-loss", "dis", "--seed", "5"])
        assert args.method == "edsr"
        assert args.epochs == 3
        assert args.selection == "random"
        assert args.seed == 5

    def test_rejects_unknown_method(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "icarl", "cifar10-like"])

    def test_compare_default_methods(self):
        args = build_parser().parse_args(["compare", "cifar10-like"])
        assert "edsr" in args.methods


class TestCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "cifar10-like" in out
        assert "edsr" in out

    def test_run_finetune_tiny(self, capsys, tmp_path):
        output = tmp_path / "r.json"
        code = main(["run", "finetune", "cifar10-like", "--epochs", "1",
                     "--output", str(output)])
        assert code == 0
        out = capsys.readouterr().out
        assert "Acc =" in out
        payload = json.loads(output.read_text())
        assert payload["n_tasks"] == 5

    def test_run_multitask(self, capsys):
        assert main(["run", "multitask", "cifar10-like", "--epochs", "1"]) == 0
        assert "Acc =" in capsys.readouterr().out

    def test_compare_prints_table(self, capsys):
        code = main(["compare", "cifar10-like", "--methods", "finetune", "cassle",
                     "--epochs", "1"])
        assert code == 0
        out = capsys.readouterr().out
        assert "finetune" in out
        assert "cassle" in out

    def test_tabular_benchmark_defaults_to_adam(self, capsys):
        assert main(["run", "finetune", "tabular", "--epochs", "1"]) == 0
        assert "Acc =" in capsys.readouterr().out


class TestNameTables:
    """The component names the CLI offers, pinned byte for byte."""

    LIST_OUTPUT = (
        "benchmarks: cifar10-like, cifar100-like, domainnet-like, "
        "tiny-imagenet-like, tabular\n"
        "methods:    finetune, si, der, lump, cassle, edsr, lin, pfr, curl, "
        "multitask\n"
        "selection:  random, kmeans, min-var, distant, high-entropy\n"
        "replay:     css, dis, rpl (x uniform/similarity sampling)\n"
        "objectives: simsiam, barlow, byol, vae\n"
        "probes:     knn, linear, ridge\n"
        "scenarios:  class_incremental, task_free, blurry, domain_incremental, "
        "long_sequence\n")

    def test_list_output(self, capsys):
        assert main(["list"]) == 0
        assert capsys.readouterr().out == self.LIST_OUTPUT

    def test_run_help_choices(self, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")
        with pytest.raises(SystemExit):
            main(["run", "--help"])
        lines = [line.strip() for line in capsys.readouterr().out.splitlines()]
        assert "--probe {knn,linear,ridge}" in lines
        assert ("--scenario {class_incremental,task_free,blurry,"
                "domain_incremental,long_sequence}") in lines


class TestScenarioFlags:
    def test_run_parses_scenario_flags(self):
        args = build_parser().parse_args([
            "run", "edsr", "cifar10-like", "--scenario", "task_free",
            "--segments-per-task", "2", "--drift-threshold", "0.9",
            "--scenario-seed", "4"])
        assert args.scenario == "task_free"
        assert args.segments_per_task == 2
        assert args.drift_threshold == 0.9
        assert args.scenario_seed == 4

    @pytest.mark.parametrize("command", [
        ["compare", "cifar10-like"],
        ["sweep", "cifar10-like", "out"],
    ])
    @pytest.mark.parametrize("flag", [
        ["--scenario", "task_free"], ["--scenario-seed", "1"],
        ["--blur-ratio", "0.2"], ["--segments-per-task", "2"],
        ["--drift-threshold", "0.9"], ["--domain-count", "2"],
        ["--domain-shift", "0.5"], ["--long-cycles", "2"],
    ])
    def test_scenario_flags_are_run_only(self, command, flag):
        # compare/sweep train the class_incremental stream only; a scenario
        # flag there must be rejected, not silently dropped.
        with pytest.raises(SystemExit):
            build_parser().parse_args(command + flag)

    @pytest.mark.parametrize("flag", [
        ["--scenario", "task_free"], ["--output", "{tmp}/out.json"],
        ["--transfer-output", "{tmp}/t.json"], ["--checkpoint-dir", "{tmp}/ck"],
        ["--resume"], ["--guardrails"], ["--max-grad-norm", "0"],
        ["--max-batch-skips", "1"], ["--lr-backoff", "0.5"],
        ["--max-restores", "1"],
    ], ids=lambda flag: flag[0])
    def test_multitask_rejects_scenario(self, capsys, tmp_path, flag):
        # Multitask writes no result, stream or checkpoint and runs no
        # guardrails; these flags must be refused, not silently dropped.
        code = main(["run", "multitask", "cifar10-like", "--epochs", "1"]
                    + [arg.format(tmp=tmp_path) for arg in flag])
        assert code == 2
        assert flag[0] in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_rejects_unknown_scenario(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["run", "edsr", "cifar10-like", "--scenario", "nope"])

    def test_list_shows_scenarios(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "task_free" in out and "blurry" in out

    def test_scenario_run_writes_transfer_matrix(self, capsys, tmp_path):
        output = tmp_path / "r.json"
        code = main(["run", "finetune", "cifar10-like", "--epochs", "1",
                     "--scenario", "blurry", "--output", str(output)])
        assert code == 0
        out = capsys.readouterr().out
        assert "transfer[blurry]" in out
        transfer_path = tmp_path / "r-transfer.json"
        assert transfer_path.exists()
        payload = json.loads(transfer_path.read_text())
        assert payload["scenario"] == "blurry"
        assert payload["rows_recorded"] == payload["n_rows"] == 5
        assert payload["summary"]["final_accuracy"] is not None
        # The result JSON rides along unchanged.
        assert json.loads(output.read_text())["n_tasks"] == 5

    def test_transfer_output_flag_overrides_the_default_path(self, capsys,
                                                             tmp_path):
        transfer_path = tmp_path / "tm.json"
        code = main(["run", "finetune", "cifar10-like", "--epochs", "1",
                     "--scenario", "class_incremental",
                     "--transfer-output", str(transfer_path)])
        assert code == 0
        assert transfer_path.exists()
        assert "transfer matrix written to" in capsys.readouterr().out


class TestFaultToleranceFlags:
    def test_run_parses_checkpoint_flags(self):
        args = build_parser().parse_args([
            "run", "edsr", "cifar10-like", "--checkpoint-dir", "runs/x",
            "--resume", "--guardrails", "--lr-backoff", "0.25"])
        assert args.checkpoint_dir == "runs/x"
        assert args.resume and args.guardrails
        assert args.lr_backoff == 0.25

    def test_resume_without_checkpoint_dir_is_an_error(self, capsys):
        code = main(["run", "finetune", "cifar10-like", "--epochs", "1",
                     "--resume"])
        assert code == 2
        assert "--checkpoint-dir" in capsys.readouterr().err

    def test_run_writes_checkpoints_and_resumes(self, capsys, tmp_path):
        ckpt = tmp_path / "run"
        base = ["run", "finetune", "cifar10-like", "--epochs", "1",
                "--checkpoint-dir", str(ckpt)]
        assert main(base) == 0
        manifests = sorted(p.name for p in ckpt.glob("ckpt-*.json"))
        assert manifests  # one per task
        assert (ckpt / "events.jsonl").exists()
        capsys.readouterr()
        # Resuming a complete run reruns nothing and prints the same result.
        assert main(base + ["--resume"]) == 0
        assert "Acc =" in capsys.readouterr().out

    def test_guardrails_run_completes(self, capsys):
        assert main(["run", "finetune", "cifar10-like", "--epochs", "1",
                     "--guardrails"]) == 0
        assert "Acc =" in capsys.readouterr().out

    def test_compare_resume_skips_cached_methods(self, capsys, tmp_path):
        ckpt = tmp_path / "cmp"
        base = ["compare", "cifar10-like", "--methods", "finetune",
                "--epochs", "1", "--checkpoint-dir", str(ckpt)]
        assert main(base) == 0
        assert (ckpt / "finetune" / "result.json").exists()
        capsys.readouterr()
        assert main(base + ["--resume"]) == 0
        out = capsys.readouterr().out
        assert "finetune" in out

    @staticmethod
    def _compare_resume_restores(capsys, tmp_path, damage):
        """Damage a finished ``compare`` run's result.json, then check
        ``--resume`` rebuilds it from the checkpoints."""
        ckpt = tmp_path / "cmp"
        base = ["compare", "cifar10-like", "--methods", "finetune",
                "--epochs", "1", "--checkpoint-dir", str(ckpt)]
        assert main(base) == 0
        result_path = ckpt / "finetune" / "result.json"
        written = json.loads(result_path.read_text())
        damage(result_path)
        capsys.readouterr()

        assert main(base + ["--resume"]) == 0
        assert "resuming from checkpoints" in capsys.readouterr().out
        restored = json.loads(result_path.read_text())
        assert restored["accuracy_matrix"] == written["accuracy_matrix"]
        events = [json.loads(line) for line in
                  (ckpt / "finetune" / "events.jsonl").read_text().splitlines()]
        resume = [e for e in events if e["kind"] == "resume"]
        assert resume and resume[-1]["task_index"] == written["n_tasks"]

    def test_compare_resume_restores_a_torn_result_from_checkpoints(
            self, capsys, tmp_path):
        def torn(path):
            data = path.read_bytes()
            path.write_bytes(data[:len(data) // 2])

        self._compare_resume_restores(capsys, tmp_path, torn)

    def test_compare_resume_restores_a_self_contradicting_result(
            self, capsys, tmp_path):
        def matrix_rows_short(path):
            payload = json.loads(path.read_text())
            payload["accuracy_matrix"] = payload["accuracy_matrix"][:2]
            path.write_text(json.dumps(payload))

        self._compare_resume_restores(capsys, tmp_path, matrix_rows_short)
