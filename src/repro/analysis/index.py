"""Whole-program index: symbol tables, import resolution, call graph.

:class:`ProjectIndex` parses every file once (in parallel when asked —
``pool.map`` over a sorted file list keeps the output order deterministic
regardless of worker count) and derives what the whole-program rules
consume:

- a dotted module name per file (``src/repro/nn/conv.py`` ->
  ``repro.nn.conv``; files under a ``tests`` tree -> ``tests.…``);
- per-module import tables, so :meth:`ModuleInfo.resolve` maps any
  ``Name``/``Attribute`` chain to its fully-qualified dotted target
  (``np.random.rand`` -> ``numpy.random.rand``, a bare ``default_rng``
  imported from ``numpy.random`` -> ``numpy.random.default_rng``);
- a function table keyed by fully-qualified name
  (``repro.nn.dropout.Dropout.forward``) holding the AST and the owning
  :class:`~repro.analysis.linter.ModuleSource`;
- a class table with resolved project bases and ``self.attr`` types
  inferred from ``self.attr = ClassName(...)`` assignments in
  ``__init__``;
- a call graph over those functions.  Resolution is best-effort and
  *over*-approximate where it must guess: ``self.m()`` binds through the
  enclosing class and its project bases; ``obj.m()`` binds through
  ``obj``'s inferred type when one is known, otherwise through every
  project class that defines ``m`` (class-hierarchy-analysis style),
  excluding ubiquitous builtin-collection names (``append``, ``get``,
  ``items``, ...) that would connect everything to everything.

Reachability queries (:meth:`ProjectIndex.reachable_from`) power the
TAPE002 capture-path and PERF002 replay-path rules.
"""

from __future__ import annotations

import ast
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

from repro.analysis.linter import ModuleSource

__all__ = ["ClassInfo", "FunctionInfo", "ModuleInfo", "ProjectIndex",
           "parse_sources"]

#: Method names shared with builtin collections/ndarray; an unresolved
#: ``x.append(...)`` must not link to every project class defining one.
_COMMON_METHODS = {
    "append", "extend", "add", "update", "get", "items", "keys", "values",
    "pop", "copy", "clear", "sum", "mean", "max", "min", "join", "split",
    "format", "astype", "reshape", "close", "send", "recv", "put", "read",
    "write", "setdefault", "sort", "index", "count", "item", "any", "all",
}

_PARALLEL_MIN_FILES = 12


def _parse_one(path_str: str) -> ModuleSource:
    return ModuleSource.parse(Path(path_str))


def parse_sources(files: Sequence[Path], jobs: int | None = None
                  ) -> list[ModuleSource]:
    """Parse ``files`` (sorted order preserved), in parallel when asked.

    ``jobs=None`` picks ``min(cpu_count, 4)``; parallelism only engages
    above a small file-count threshold because process startup dwarfs the
    parse time of a handful of files.  ``pool.map`` over the sorted input
    returns results in input order, so the output is deterministic for
    every job count.
    """
    files = [Path(f) for f in files]
    if jobs is None:
        jobs = min(os.cpu_count() or 1, 4)
    if jobs <= 1 or len(files) < _PARALLEL_MIN_FILES:
        return [ModuleSource.parse(f) for f in files]
    import multiprocessing

    ctx = multiprocessing.get_context("fork") \
        if "fork" in multiprocessing.get_all_start_methods() \
        else multiprocessing.get_context("spawn")
    with ctx.Pool(processes=jobs) as pool:
        return pool.map(_parse_one, [str(f) for f in files])


def module_name_for(path: Path) -> str:
    """Dotted module name for a file, anchored at ``repro``/``tests``."""
    parts = list(path.parts)
    stem_parts: list[str] = []
    for anchor in ("repro", "tests"):
        if anchor in parts:
            stem_parts = parts[len(parts) - 1 - parts[::-1].index(anchor):]
            break
    if not stem_parts:
        stem_parts = parts[-2:] if len(parts) >= 2 else parts[-1:]
    stem_parts = [p[:-3] if p.endswith(".py") else p for p in stem_parts]
    if stem_parts and stem_parts[-1] == "__init__":
        stem_parts = stem_parts[:-1]
    return ".".join(stem_parts)


@dataclass
class FunctionInfo:
    """One function or method, addressable by fully-qualified name."""

    fq: str                       # "repro.nn.dropout.Dropout.forward"
    name: str                     # "forward"
    qualname: str                 # "Dropout.forward"
    module: "ModuleInfo"
    node: ast.FunctionDef | ast.AsyncFunctionDef
    cls: str | None = None        # owning class fq, methods only


@dataclass
class ClassInfo:
    """One class: methods, resolved project bases, inferred attr types."""

    fq: str
    name: str
    module: "ModuleInfo"
    node: ast.ClassDef
    base_names: list[str] = field(default_factory=list)  # resolved dotted
    methods: dict[str, str] = field(default_factory=dict)  # name -> func fq
    attr_types: dict[str, str] = field(default_factory=dict)  # attr -> class fq


@dataclass
class ModuleInfo:
    """One parsed module plus its import table."""

    name: str
    source: ModuleSource
    imports: dict[str, str] = field(default_factory=dict)
    top_level: dict[str, str] = field(default_factory=dict)  # name -> fq

    @property
    def path(self) -> Path:
        return self.source.path

    def resolve(self, node: ast.expr) -> str:
        """Fully-qualified dotted name for a Name/Attribute chain.

        Unresolvable heads (builtins, locals) pass through unchanged, so
        callers can still match on the syntactic dotted form.
        """
        parts: list[str] = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if not isinstance(node, ast.Name):
            return ".".join(reversed(parts))
        head = node.id
        resolved = self.imports.get(head) or self.top_level.get(head) or head
        return ".".join([resolved] + list(reversed(parts)))

    def _build_imports(self) -> None:
        package = self.name.rsplit(".", 1)[0] if "." in self.name else self.name
        for node in ast.walk(self.source.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    self.imports[alias.asname or alias.name.split(".")[0]] = \
                        alias.name if alias.asname else alias.name.split(".")[0]
                    if alias.asname:
                        self.imports[alias.asname] = alias.name
            elif isinstance(node, ast.ImportFrom):
                base = node.module or ""
                if node.level:
                    anchor_parts = self.name.split(".")
                    anchor = anchor_parts[:len(anchor_parts) - node.level]
                    base = ".".join(anchor + ([node.module] if node.module else []))
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    self.imports[alias.asname or alias.name] = \
                        f"{base}.{alias.name}" if base else alias.name


class ProjectIndex:
    """The whole-program view the project rules run against."""

    def __init__(self):
        self.modules: dict[str, ModuleInfo] = {}
        self.by_path: dict[Path, ModuleInfo] = {}
        self.functions: dict[str, FunctionInfo] = {}
        self.classes: dict[str, ClassInfo] = {}
        self.calls: dict[str, set[str]] = {}
        self.method_index: dict[str, set[str]] = {}

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def build(cls, sources: Iterable[ModuleSource] | Sequence[Path],
              jobs: int | None = None) -> "ProjectIndex":
        """Index pre-parsed sources, or parse paths (optionally parallel)."""
        materialized = list(sources)
        if materialized and not isinstance(materialized[0], ModuleSource):
            materialized = parse_sources(sorted(Path(p) for p in materialized),
                                         jobs=jobs)
        index = cls()
        for source in materialized:
            module = ModuleInfo(name=module_name_for(source.path), source=source)
            module._build_imports()
            index.modules[module.name] = module
            index.by_path[source.path] = module
        for module in index.modules.values():
            index._collect_symbols(module)
        for module in index.modules.values():
            index._infer_attr_types(module)
        for info in list(index.functions.values()):
            index.calls[info.fq] = index._callees(info)
        return index

    def _collect_symbols(self, module: ModuleInfo) -> None:
        for node in module.source.tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                fq = f"{module.name}.{node.name}"
                self.functions[fq] = FunctionInfo(
                    fq=fq, name=node.name, qualname=node.name,
                    module=module, node=node)
                module.top_level[node.name] = fq
            elif isinstance(node, ast.ClassDef):
                cls_fq = f"{module.name}.{node.name}"
                info = ClassInfo(fq=cls_fq, name=node.name, module=module,
                                 node=node)
                for base in node.bases:
                    info.base_names.append(module.resolve(base))
                for item in node.body:
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        fn_fq = f"{cls_fq}.{item.name}"
                        self.functions[fn_fq] = FunctionInfo(
                            fq=fn_fq, name=item.name,
                            qualname=f"{node.name}.{item.name}",
                            module=module, node=item, cls=cls_fq)
                        info.methods[item.name] = fn_fq
                        self.method_index.setdefault(item.name, set()).add(fn_fq)
                self.classes[cls_fq] = info
                module.top_level[node.name] = cls_fq

    def _infer_attr_types(self, module: ModuleInfo) -> None:
        for info in self.classes.values():
            if info.module is not module:
                continue
            init_fq = info.methods.get("__init__")
            if init_fq is None:
                continue
            for node in ast.walk(self.functions[init_fq].node):
                if not isinstance(node, ast.Assign):
                    continue
                # Look through conditional values: the Call arm wins
                # (``self.f = Wrapped(fn) if flag else fn``).
                candidates = [node.value]
                if isinstance(node.value, ast.IfExp):
                    candidates = [node.value.body, node.value.orelse]
                target_cls = None
                for value in candidates:
                    if isinstance(value, ast.Call):
                        resolved = module.resolve(value.func)
                        if resolved in self.classes:
                            target_cls = resolved
                            break
                if target_cls is None:
                    continue
                for target in node.targets:
                    if (isinstance(target, ast.Attribute)
                            and isinstance(target.value, ast.Name)
                            and target.value.id == "self"):
                        info.attr_types[target.attr] = target_cls

    # ------------------------------------------------------------------
    # Call resolution
    # ------------------------------------------------------------------
    def resolve_method(self, cls_fq: str, name: str,
                       _seen: frozenset = frozenset()) -> str | None:
        """Find ``name`` on ``cls_fq`` or its project bases (MRO-ish)."""
        if cls_fq in _seen:
            return None
        info = self.classes.get(cls_fq)
        if info is None:
            return None
        if name in info.methods:
            return info.methods[name]
        for base in info.base_names:
            found = self.resolve_method(base, name, _seen | {cls_fq})
            if found is not None:
                return found
        return None

    def _callable_target(self, fq: str) -> str | None:
        """Map a resolved dotted name to a function fq, if it is one."""
        if fq in self.functions:
            return fq
        if fq in self.classes:
            for entry in ("__init__", "__call__"):
                target = self.resolve_method(fq, entry)
                if target is not None:
                    return target
        return None

    def _callees(self, info: FunctionInfo) -> set[str]:
        module = info.module
        out: set[str] = set()

        # Local variable types from ``v = ClassName(...)`` assignments.
        local_types: dict[str, str] = {}
        for node in ast.walk(info.node):
            if (isinstance(node, ast.Assign)
                    and isinstance(node.value, ast.Call)):
                cls_fq = module.resolve(node.value.func)
                if cls_fq in self.classes:
                    for target in node.targets:
                        if isinstance(target, ast.Name):
                            local_types[target.id] = cls_fq

        for node in ast.walk(info.node):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            # super().m(...) -> first project base defining m
            if (isinstance(func, ast.Attribute)
                    and isinstance(func.value, ast.Call)
                    and isinstance(func.value.func, ast.Name)
                    and func.value.func.id == "super" and info.cls):
                for base in self.classes[info.cls].base_names:
                    target = self.resolve_method(base, func.attr)
                    if target is not None:
                        out.add(target)
                        break
                continue
            if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
                recv = func.value.id
                if recv == "self" and info.cls:
                    target = self.resolve_method(info.cls, func.attr)
                    if target is not None:
                        out.add(target)
                        continue
                    # self.attr unknown: fall through to attr-type lookup
                recv_cls = local_types.get(recv)
                if recv_cls is not None:
                    target = self.resolve_method(recv_cls, func.attr)
                    if target is not None:
                        out.add(target)
                        continue
            # self.attr(...) through the inferred attribute type
            if (isinstance(func, ast.Attribute)
                    and isinstance(func.value, ast.Attribute)
                    and isinstance(func.value.value, ast.Name)
                    and func.value.value.id == "self" and info.cls):
                attr_cls = self.classes[info.cls].attr_types.get(func.value.attr)
                if attr_cls is not None:
                    target = self.resolve_method(attr_cls, func.attr)
                    if target is not None:
                        out.add(target)
                        continue
            # Direct call on an inferred-type instance: obj(...) -> __call__
            if isinstance(func, ast.Name) and func.id in local_types:
                target = self.resolve_method(local_types[func.id], "__call__")
                if target is not None:
                    out.add(target)
                    continue
            # self.attr(...) where the attr's type is a project class
            if (isinstance(func, ast.Attribute)
                    and isinstance(func.value, ast.Name)
                    and func.value.id == "self" and info.cls):
                attr_cls = self.classes[info.cls].attr_types.get(func.attr)
                if attr_cls is not None:
                    target = self.resolve_method(attr_cls, "__call__") \
                        or self.resolve_method(attr_cls, "forward")
                    if target is not None:
                        out.add(target)
                        continue
            resolved = module.resolve(func)
            target = self._callable_target(resolved)
            if target is not None:
                out.add(target)
                continue
            # CHA fallback: an unresolved method call links to every project
            # class defining the method — over-approximate by design.
            if isinstance(func, ast.Attribute) \
                    and not func.attr.startswith("__") \
                    and func.attr not in _COMMON_METHODS:
                out |= self.method_index.get(func.attr, set())
        out.discard(info.fq)
        return out

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def reachable_from(self, roots: Iterable[str]) -> set[str]:
        """Transitive closure over the call graph from ``roots`` (inclusive)."""
        seen: set[str] = set()
        stack = [fq for fq in roots if fq in self.functions]
        while stack:
            fq = stack.pop()
            if fq in seen:
                continue
            seen.add(fq)
            stack.extend(self.calls.get(fq, ()) - seen)
        return seen

    def functions_in_module(self, module: ModuleInfo) -> list[FunctionInfo]:
        return [f for f in self.functions.values() if f.module is module]
