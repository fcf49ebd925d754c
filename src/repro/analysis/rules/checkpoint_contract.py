"""SER002 — checkpoint completeness for state-carrying classes.

A class that offers both ``state_dict`` and ``load_state_dict`` is
promising round-trip serialization: save → restore → identical behaviour.
Every attribute it initialises in ``__init__`` is part of that promise
unless it is (a) covered by the pair, (b) reconstructed from constructor
arguments (the caller re-passes those), or (c) explicitly declared
transient.  An attribute that is none of these — a counter, an
accumulator dict, a schedule position — silently resets on restore and
the resumed run diverges from the uninterrupted one.

Coverage is computed syntactically but transitively: an attribute counts
as covered when its name appears as a ``self.X`` access or an ``"X"``
string constant anywhere in the ``state_dict``/``load_state_dict``
bodies, in any same-class helper method those bodies call (``self.m()``),
or when either body defers to ``super().state_dict()`` /
``super().load_state_dict()`` and a base class covers it.

Attributes assigned *directly from a constructor parameter*
(``self.lr = lr``) are exempt: the caller rebuilds the object with the
same arguments before loading, so the value survives without living in
the state dict.  Attributes whose value is an expression — even one
mentioning a parameter (``self.steps = int(total * warmup)``) — are
*not* exempt; only the unambiguous bare-name pass-through is.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.index import ClassInfo, ProjectIndex
from repro.analysis.linter import ProjectRule, Violation

_PAIR = ("state_dict", "load_state_dict")


def _init_attrs(init: ast.FunctionDef | ast.AsyncFunctionDef,
                self_name: str) -> dict[str, ast.stmt]:
    """``self.X = ...`` assignments in ``__init__``, name → first stmt."""
    out: dict[str, ast.stmt] = {}
    for node in ast.walk(init):
        targets: list[ast.expr] = []
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
            targets = [node.target]
        for target in targets:
            if (isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == self_name
                    and target.attr not in out):
                out[target.attr] = node
    return out


def _param_names(func: ast.FunctionDef | ast.AsyncFunctionDef) -> set[str]:
    args = func.args
    names = {a.arg for a in args.args + args.posonlyargs + args.kwonlyargs}
    if args.vararg:
        names.add(args.vararg.arg)
    if args.kwarg:
        names.add(args.kwarg.arg)
    return names


def _is_param_passthrough(stmt: ast.stmt, params: set[str]) -> bool:
    value = getattr(stmt, "value", None)
    return isinstance(value, ast.Name) and value.id in params


class _Coverage:
    """Names mentioned by the checkpoint pair, transitively through
    same-class helper calls and ``super()`` deferral."""

    def __init__(self, index: ProjectIndex):
        self.index = index

    def of_class(self, cls: ClassInfo,
                 _seen: frozenset = frozenset()) -> set[str]:
        if cls.fq in _seen:
            return set()
        covered: set[str] = set()
        defers = False
        for method_name in _PAIR:
            func = self._method_node(cls, method_name)
            if func is None:
                continue
            names, sup = self._of_method(cls, func, visited=set())
            covered |= names
            defers = defers or sup
        # Key lists held in class attributes the pair iterates
        # (``_keys = ("lr",)`` + ``for key in self._keys``):
        # string constants in a referenced class-level assignment count.
        for node in cls.node.body:
            if isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) \
                    else [node.target]
                names = {t.id for t in targets if isinstance(t, ast.Name)}
                if names & covered and node.value is not None:
                    for const in ast.walk(node.value):
                        if isinstance(const, ast.Constant) \
                                and isinstance(const.value, str):
                            covered.add(const.value)
        if defers:
            for base_name in cls.base_names:
                base = self.index.classes.get(base_name) \
                    or self._by_bare_name(base_name)
                if base is not None:
                    covered |= self.of_class(base, _seen | {cls.fq})
        return covered

    # ------------------------------------------------------------------
    def _of_method(self, cls: ClassInfo, func, visited: set[str]
                   ) -> tuple[set[str], bool]:
        if func.name in visited:
            return set(), False
        visited.add(func.name)
        covered: set[str] = set()
        defers = False
        self_name = func.args.args[0].arg if func.args.args else "self"
        for node in ast.walk(func):
            if (isinstance(node, ast.Attribute)
                    and isinstance(node.value, ast.Name)
                    and node.value.id == self_name):
                covered.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                covered.add(node.value)
            elif isinstance(node, ast.Call) \
                    and isinstance(node.func, ast.Attribute):
                recv = node.func.value
                if isinstance(recv, ast.Name) and recv.id == self_name:
                    helper = self._method_node(cls, node.func.attr)
                    if helper is not None:
                        names, sup = self._of_method(cls, helper, visited)
                        covered |= names
                        defers = defers or sup
                elif (isinstance(recv, ast.Call)
                        and isinstance(recv.func, ast.Name)
                        and recv.func.id == "super"
                        and node.func.attr in _PAIR):
                    defers = True
        return covered, defers

    def _method_node(self, cls: ClassInfo, name: str):
        fq = cls.methods.get(name)
        if fq is None:
            return None
        info = self.index.functions.get(fq)
        return info.node if info is not None else None

    def _by_bare_name(self, base_name: str) -> ClassInfo | None:
        tail = base_name.rsplit(".", 1)[-1]
        for fq in sorted(self.index.classes):
            if fq.rsplit(".", 1)[-1] == tail:
                return self.index.classes[fq]
        return None


class CheckpointContractRule(ProjectRule):
    code = "SER002"

    def check_project(self, index: ProjectIndex) -> Iterator[Violation]:
        coverage = _Coverage(index)
        for fq in sorted(index.classes):
            cls = index.classes[fq]
            if not all(name in cls.methods for name in _PAIR):
                continue
            init_fq = cls.methods.get("__init__")
            if init_fq is None:
                continue
            init_func = index.functions[init_fq].node
            self_name = init_func.args.args[0].arg \
                if init_func.args.args else "self"
            params = _param_names(init_func)
            covered = coverage.of_class(cls)
            for attr, stmt in sorted(_init_attrs(init_func, self_name).items()):
                if attr.startswith("__"):
                    continue
                if attr in covered:
                    continue
                if _is_param_passthrough(stmt, params):
                    continue
                yield Violation(
                    path=cls.module.path, line=stmt.lineno, code=self.code,
                    message=(f"{cls.name}.{attr} is initialised in __init__ "
                             f"but never saved or restored by the class's "
                             f"state_dict/load_state_dict pair; a resumed run "
                             f"silently resets it — include it in the "
                             f"checkpoint, or suppress with a comment "
                             f"explaining why it is transient"))
