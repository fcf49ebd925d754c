"""Rule registry for the repro linter.

Codes
-----
- ``DET001`` — seedless/global RNG (:class:`SeedlessRNGRule`)
- ``AD001``  — in-place ``Tensor.data`` mutation (:class:`InplaceMutationRule`)
- ``AD002``  — late-binding grad_fn closure (:class:`LateBindingClosureRule`)
- ``API001`` — ``__all__`` export hygiene (:class:`ExportHygieneRule`)
- ``SER001`` — non-serializable ``state_dict`` values
  (:class:`StateDictSerializableRule`)
- ``PERF001`` — per-element loops / dtype promotion in hot modules
  (:class:`HotLoopDtypeRule`)
- ``TAPE001`` — op dispatch bypassing ``apply_ctx``'s capture hook
  (:class:`TapeBypassRule`)
- ``RB001`` — checkpoint-path writes bypassing the atomic writer
  (:class:`RobustIORule`)

Whole-program (dataflow/call-graph) rules:

- ``DET002`` — unseeded RNG / wall-clock *value* reaching an engine op,
  Tensor, or memory-selection sink (:class:`RNGTaintRule`)
- ``TAPE002`` — tensor-valued control flow in capture-reachable functions
  not declared via ``mark_unsafe`` (:class:`ShapeStabilityRule`)
- ``SER002`` — ``__init__`` attributes of state-carrying classes missing
  from their ``state_dict``/``load_state_dict`` pair
  (:class:`CheckpointContractRule`)
- ``PERF002`` — raw numpy allocation reachable from the tape-replay path
  outside the arena API (:class:`AllocDisciplineRule`)
"""

from __future__ import annotations

from repro.analysis.rules.alloc_discipline import AllocDisciplineRule
from repro.analysis.rules.api import ExportHygieneRule
from repro.analysis.rules.autograd import InplaceMutationRule, LateBindingClosureRule
from repro.analysis.rules.checkpoint_contract import CheckpointContractRule
from repro.analysis.rules.determinism import SeedlessRNGRule
from repro.analysis.rules.perf import HotLoopDtypeRule
from repro.analysis.rules.rng_flow import RNGTaintRule
from repro.analysis.rules.robustness import RobustIORule
from repro.analysis.rules.serialization import StateDictSerializableRule
from repro.analysis.rules.tape import TapeBypassRule
from repro.analysis.rules.tape_flow import ShapeStabilityRule

__all__ = [
    "AllocDisciplineRule",
    "CheckpointContractRule",
    "ExportHygieneRule",
    "HotLoopDtypeRule",
    "InplaceMutationRule",
    "LateBindingClosureRule",
    "RNGTaintRule",
    "RobustIORule",
    "SeedlessRNGRule",
    "ShapeStabilityRule",
    "StateDictSerializableRule",
    "TapeBypassRule",
    "default_rules",
    "rules_by_code",
]

_RULE_CLASSES = (SeedlessRNGRule, InplaceMutationRule, LateBindingClosureRule,
                 ExportHygieneRule, StateDictSerializableRule, HotLoopDtypeRule,
                 TapeBypassRule, RobustIORule, RNGTaintRule,
                 ShapeStabilityRule, CheckpointContractRule,
                 AllocDisciplineRule)


def default_rules():
    """Fresh instances of every registered rule."""
    return [cls() for cls in _RULE_CLASSES]


def rules_by_code(codes):
    """Instantiate only the rules whose code is in ``codes`` (case-insensitive)."""
    wanted = {c.strip().upper() for c in codes}
    chosen = [cls() for cls in _RULE_CLASSES if cls.code in wanted]
    known = {cls.code for cls in _RULE_CLASSES}
    unknown = wanted - known
    if unknown:
        raise ValueError(f"unknown lint rule code(s): {', '.join(sorted(unknown))}; "
                         f"known: {', '.join(sorted(known))}")
    return chosen
