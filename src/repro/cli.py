"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``run``      train one method on one benchmark, print Acc/Fgt and the
             accuracy matrix, optionally save the result JSON; with
             ``--checkpoint-dir`` the run checkpoints atomically after every
             task and ``--resume`` continues a killed run bit-for-bit;
             ``--guardrails`` enables NaN/divergence recovery; ``--scenario``
             picks the stream shape (task-free, blurry, domain-incremental,
             long streams; default class-incremental) and prints the
             transfer summary and writes the serialized transfer matrix
             next to the result; ``run multitask`` refuses the stream,
             output, checkpoint and guardrail flags it cannot honour;
``compare``  train several methods on one benchmark and print a ranking
             table (a single-seed Table III slice); ``--checkpoint-dir`` +
             ``--resume`` checkpoint each method in its own subdirectory and
             skip methods whose results are already complete (an
             unreadable result resumes from its checkpoints);
``sweep``    run methods x seeds, saving one result JSON per run into a
             directory; ``--resume`` skips runs whose JSON already exists;
``report``   render a directory of saved results as a markdown report;
``list``     show available benchmarks, methods, selection strategies,
             replay losses, and objectives;
``lint``     run the repo-specific static analysis — single-file rules
             (DET001/AD001/AD002/API001/SER001/PERF001/TAPE001/RB001)
             and whole-program dataflow rules (DET002/TAPE002/SER002)
             — plus the gradcheck-coverage audit; its flags come from
             ``repro.analysis.build_parser``; exits non-zero on any
             violation not silenced by an inline suppression comment.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from repro import analysis
from repro.continual import ContinualConfig, run_method, run_multitask
from repro.continual.config import OBJECTIVES
from repro.continual.registry import METHODS as METHOD_CLASSES
from repro.data import load_image_benchmark, load_tabular_benchmark
from repro.data.registry import IMAGE_PRESETS
from repro.eval.protocol import PROBE_REGISTRY
from repro.replay.losses import REPLAY_LOSSES
from repro.replay.sampling import SAMPLING_POLICIES
from repro.scenarios import SCENARIO_REGISTRY
from repro.selection import STRATEGIES
from repro.utils import format_table
from repro.utils.serialization import (load_result, save_result,
                                       save_transfer_matrix)

METHODS = list(METHOD_CLASSES)

#: ``repro run`` flags that multitask cannot honour: it trains the joint
#: upper bound in memory, with no stream, result file, checkpoints or
#: guardrails, so each is refused rather than dropped.
_NOT_FOR_MULTITASK = (
    "--scenario", "--output", "--transfer-output", "--checkpoint-dir",
    "--resume", "--guardrails", "--max-grad-norm", "--max-batch-skips",
    "--lr-backoff", "--max-restores",
)


def _load_benchmark(name: str, scale: str, n_tasks: int | None):
    if name == "tabular":
        return load_tabular_benchmark(scale)
    return load_image_benchmark(name, scale, n_tasks=n_tasks)


def _config_from_args(args: argparse.Namespace) -> ContinualConfig:
    overrides = {}
    for field in ("epochs", "batch_size", "lr", "memory_budget", "replay_batch_size",
                  "noise_neighbors", "selection", "replay_loss", "objective",
                  "replay_sampling", "use_tape", "probe",
                  "scenario", "scenario_seed", "blur_ratio", "segments_per_task",
                  "drift_threshold", "domain_count", "domain_shift", "long_cycles"):
        value = getattr(args, field, None)
        if value is not None:
            overrides[field] = value
    if args.benchmark == "tabular" and "lr" not in overrides:
        overrides.update(optimizer="adam", lr=1e-3)
    return ContinualConfig().with_overrides(**overrides)


def _add_fault_tolerance_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--checkpoint-dir", dest="checkpoint_dir",
                        help="write atomic per-task checkpoints + event log here")
    parser.add_argument("--resume", action="store_true",
                        help="continue from the last good checkpoint in "
                             "--checkpoint-dir (bit-for-bit)")
    parser.add_argument("--guardrails", action="store_true",
                        help="enable divergence guardrails (skip batch -> "
                             "restore with LR backoff -> abort with report)")
    parser.add_argument("--max-grad-norm", dest="max_grad_norm", type=float,
                        help="gradient-norm explosion threshold (implies --guardrails)")
    parser.add_argument("--max-batch-skips", dest="max_batch_skips", type=int,
                        help="skipped batches per task before a restore "
                             "(implies --guardrails)")
    parser.add_argument("--lr-backoff", dest="lr_backoff", type=float,
                        help="LR factor applied per restore (implies --guardrails)")
    parser.add_argument("--max-restores", dest="max_restores", type=int,
                        help="restores per task before aborting (implies --guardrails)")


def _guardrails_from_args(args: argparse.Namespace):
    from repro.runtime import GuardrailPolicy

    overrides = {}
    if args.max_grad_norm is not None:
        overrides["max_grad_norm"] = args.max_grad_norm
    if args.max_batch_skips is not None:
        overrides["max_skips_per_task"] = args.max_batch_skips
    if args.lr_backoff is not None:
        overrides["lr_backoff"] = args.lr_backoff
    if args.max_restores is not None:
        overrides["max_restores_per_task"] = args.max_restores
    if not args.guardrails and not overrides:
        return None
    return GuardrailPolicy(**overrides)


def _add_config_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--epochs", type=int)
    parser.add_argument("--batch-size", dest="batch_size", type=int)
    parser.add_argument("--lr", type=float)
    parser.add_argument("--memory-budget", dest="memory_budget", type=int)
    parser.add_argument("--replay-batch-size", dest="replay_batch_size", type=int)
    parser.add_argument("--noise-neighbors", dest="noise_neighbors", type=int)
    parser.add_argument("--selection", choices=list(STRATEGIES))
    parser.add_argument("--replay-loss", dest="replay_loss", choices=list(REPLAY_LOSSES))
    parser.add_argument("--replay-sampling", dest="replay_sampling",
                        choices=list(SAMPLING_POLICIES))
    parser.add_argument("--objective", choices=list(OBJECTIVES))
    parser.add_argument("--probe", choices=list(PROBE_REGISTRY),
                        help="evaluation probe fitted per accuracy-matrix "
                             "cell: knn (paper default), linear (SGD softmax "
                             "head), or ridge (closed-form streaming probe)")
    parser.add_argument("--no-tape", dest="use_tape", action="store_const",
                        const=False, default=None,
                        help="disable tape capture/replay of the training "
                             "step (force eager dispatch)")
    parser.add_argument("--scale", default="ci", choices=["ci", "paper"])
    parser.add_argument("--n-tasks", dest="n_tasks", type=int)
    parser.add_argument("--seed", type=int, default=0)


def _add_scenario_arguments(parser: argparse.ArgumentParser) -> None:
    """Stream-shape flags; only ``run`` takes them."""
    parser.add_argument("--scenario", choices=list(SCENARIO_REGISTRY),
                        help="stream shape from the scenario registry; also "
                             "prints the transfer summary and writes the "
                             "transfer matrix (default: class_incremental, "
                             "no transfer output)")
    parser.add_argument("--scenario-seed", dest="scenario_seed", type=int,
                        help="seed for the stream builders (independent of "
                             "the training --seed)")
    parser.add_argument("--blur-ratio", dest="blur_ratio", type=float,
                        help="blurry scenario: fraction of each task's data "
                             "donated to neighbour tasks")
    parser.add_argument("--segments-per-task", dest="segments_per_task", type=int,
                        help="task-free scenario: unsignalled segments per "
                             "base task")
    parser.add_argument("--drift-threshold", dest="drift_threshold", type=float,
                        help="task-free scenario: drift-detector firing "
                             "threshold")
    parser.add_argument("--domain-count", dest="domain_count", type=int,
                        help="domain-incremental scenario: number of domains")
    parser.add_argument("--domain-shift", dest="domain_shift", type=float,
                        help="domain-incremental scenario: nuisance-transform "
                             "strength")
    parser.add_argument("--long-cycles", dest="long_cycles", type=int,
                        help="long-sequence scenario: cycles over the base "
                             "task order")


def _transfer_output_path(args: argparse.Namespace):
    """Where the serialized TransferMatrix lands for a scenario run."""
    import pathlib

    if args.transfer_output:
        return pathlib.Path(args.transfer_output)
    if args.output:
        out = pathlib.Path(args.output)
        return out.with_name(out.stem + "-transfer.json")
    return pathlib.Path("transfer-matrix.json")


def _command_run(args: argparse.Namespace) -> int:
    if args.method == "multitask":
        for flag in _NOT_FOR_MULTITASK:
            value = getattr(args, flag[2:].replace("-", "_"))
            if value is not None and value is not False:
                print("error: multitask is the joint-training upper bound "
                      f"and takes no {flag}", file=sys.stderr)
                return 2
    sequence = _load_benchmark(args.benchmark, args.scale, args.n_tasks)
    config = _config_from_args(args)
    if args.resume and not args.checkpoint_dir:
        print("error: --resume requires --checkpoint-dir", file=sys.stderr)
        return 2
    if args.method == "multitask":
        result = run_multitask(sequence, config, seed=args.seed, verbose=True)
        print(f"Acc = {100 * result.acc():.2f}%")
        return 0
    result, transfer = run_method(args.method, sequence, config,
                                  seed=args.seed, verbose=True,
                                  checkpoint_dir=args.checkpoint_dir,
                                  resume=args.resume,
                                  guardrails=_guardrails_from_args(args))
    print(f"\nAcc = {100 * result.acc():.2f}%   Fgt = {100 * result.fgt():.2f}%   "
          f"time = {result.elapsed_seconds:.1f}s")
    with np.printoptions(precision=3, nanstr="  .  "):
        print(result.accuracy_matrix)
    if args.scenario is not None:
        summary = transfer.summary()
        cells = "   ".join(
            f"{key} = {100 * value:.2f}%" if value is not None else f"{key} = n/a"
            for key, value in summary.items())
        print(f"transfer[{args.scenario}]: {cells}")
        transfer_path = _transfer_output_path(args)
        save_transfer_matrix(transfer, transfer_path)
        print(f"transfer matrix written to {transfer_path}")
    if args.output:
        save_result(result, args.output)
        print(f"result written to {args.output}")
    return 0


def _command_compare(args: argparse.Namespace) -> int:
    import pathlib

    sequence = _load_benchmark(args.benchmark, args.scale, args.n_tasks)
    config = _config_from_args(args)
    if args.resume and not args.checkpoint_dir:
        print("error: --resume requires --checkpoint-dir", file=sys.stderr)
        return 2
    guardrails = _guardrails_from_args(args)
    rows = []
    for method in args.methods:
        if method == "multitask":
            result = run_multitask(sequence, config, seed=args.seed)
            rows.append(["multitask", f"{100 * result.acc():.2f}", "-",
                         f"{result.elapsed_seconds:.1f}"])
            continue
        method_dir = result_path = None
        if args.checkpoint_dir:
            method_dir = pathlib.Path(args.checkpoint_dir) / method
            result_path = method_dir / "result.json"
        if args.resume and result_path is not None and result_path.exists():
            try:
                result = load_result(result_path)
            except (OSError, ValueError, KeyError) as exc:
                # A torn file counts as missing: resume restores the run
                # from its checkpoints instead.
                print(f"{method}: unreadable {result_path} ({exc}); "
                      f"resuming from checkpoints")
                result = None
            if result is not None and result.complete:
                print(f"{method}: complete result found, skipping training")
                rows.append([method, f"{100 * result.acc():.2f}",
                             f"{100 * result.fgt():.2f}",
                             f"{result.elapsed_seconds:.1f}"])
                continue
        result, _ = run_method(method, sequence, config, seed=args.seed,
                               checkpoint_dir=method_dir, resume=args.resume,
                               guardrails=guardrails)
        if result_path is not None:
            save_result(result, result_path)
        rows.append([method, f"{100 * result.acc():.2f}", f"{100 * result.fgt():.2f}",
                     f"{result.elapsed_seconds:.1f}"])
    print(format_table(["method", "Acc %", "Fgt %", "time s"], rows,
                       title=f"{args.benchmark} ({args.scale} scale, seed {args.seed})"))
    return 0


def _command_sweep(args: argparse.Namespace) -> int:
    import pathlib

    sequence = _load_benchmark(args.benchmark, args.scale, args.n_tasks)
    config = _config_from_args(args)
    out_dir = pathlib.Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for method in args.methods:
        for seed in range(args.seeds):
            path = out_dir / f"{method}_seed{seed}.json"
            if args.resume and path.exists():
                print(f"{method} seed {seed}: result exists, skipping -> {path}")
                continue
            result, _ = run_method(method, sequence, config, seed=seed)
            save_result(result, path)
            print(f"{method} seed {seed}: Acc={100 * result.acc():.2f} "
                  f"Fgt={100 * result.fgt():.2f} -> {path}")
    return 0


def _command_report(args: argparse.Namespace) -> int:
    from repro.utils.report import build_report, write_report

    if args.output:
        path = write_report(args.results_dir, args.output, title=args.title)
        print(f"report written to {path}")
    else:
        print(build_report(args.results_dir, title=args.title))
    return 0


def _command_list(_args: argparse.Namespace) -> int:
    print("benchmarks:", ", ".join(sorted(IMAGE_PRESETS)) + ", tabular")
    print("methods:   ", ", ".join(METHODS + ["multitask"]))
    print("selection: ", ", ".join(STRATEGIES))
    print("replay:    ", ", ".join(REPLAY_LOSSES),
          f"(x {'/'.join(SAMPLING_POLICIES)} sampling)")
    print("objectives:", ", ".join(OBJECTIVES))
    print("probes:    ", ", ".join(PROBE_REGISTRY))
    print("scenarios: ", ", ".join(SCENARIO_REGISTRY))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="EDSR (ICDE 2024) reproduction — unsupervised continual learning")
    subparsers = parser.add_subparsers(dest="command", required=True)

    run_parser = subparsers.add_parser("run", help="train one method on one benchmark")
    run_parser.add_argument("method", choices=METHODS + ["multitask"])
    run_parser.add_argument("benchmark")
    run_parser.add_argument("--output", help="write the result JSON here")
    run_parser.add_argument("--transfer-output", dest="transfer_output",
                            help="write the serialized transfer matrix here "
                                 "(default: next to --output, else "
                                 "./transfer-matrix.json)")
    _add_config_arguments(run_parser)
    _add_scenario_arguments(run_parser)
    _add_fault_tolerance_arguments(run_parser)
    run_parser.set_defaults(handler=_command_run)

    compare_parser = subparsers.add_parser("compare", help="rank several methods")
    compare_parser.add_argument("benchmark")
    compare_parser.add_argument("--methods", nargs="+",
                                default=["finetune", "lump", "cassle", "edsr"],
                                choices=METHODS + ["multitask"])
    _add_config_arguments(compare_parser)
    _add_fault_tolerance_arguments(compare_parser)
    compare_parser.set_defaults(handler=_command_compare)

    sweep_parser = subparsers.add_parser("sweep", help="run methods x seeds, save JSONs")
    sweep_parser.add_argument("benchmark")
    sweep_parser.add_argument("out_dir")
    sweep_parser.add_argument("--methods", nargs="+",
                              default=["finetune", "cassle", "edsr"],
                              choices=METHODS)
    sweep_parser.add_argument("--seeds", type=int, default=2)
    sweep_parser.add_argument("--resume", action="store_true",
                              help="skip runs whose result JSON already exists")
    _add_config_arguments(sweep_parser)
    sweep_parser.set_defaults(handler=_command_sweep)

    report_parser = subparsers.add_parser("report", help="markdown report from saved results")
    report_parser.add_argument("results_dir")
    report_parser.add_argument("--output", help="write here instead of stdout")
    report_parser.add_argument("--title", default="Experiment report")
    report_parser.set_defaults(handler=_command_report)

    # The lint flags live in one table; its parser also brings -h/--help,
    # which a second help option here would conflict with.
    lint_flags = analysis.build_parser()
    lint_parser = subparsers.add_parser(
        "lint", parents=[lint_flags], add_help=False,
        help="static analysis + gradcheck-coverage audit",
        description=lint_flags.description)
    lint_parser.set_defaults(handler=analysis.lint)

    list_parser = subparsers.add_parser("list", help="show available components")
    list_parser.set_defaults(handler=_command_list)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.handler(args)


if __name__ == "__main__":
    sys.exit(main())
