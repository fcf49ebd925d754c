"""ProjectIndex construction: module naming, import resolution, call graph."""

import textwrap
from pathlib import Path

from repro.analysis.index import ProjectIndex, parse_sources
from repro.analysis.linter import ModuleSource, module_name_for

REPO_ROOT = Path(__file__).resolve().parents[2]
SRC_ROOT = REPO_ROOT / "src" / "repro"


def write(path, source):
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(source), encoding="utf-8")
    return path


class TestModuleNaming:
    def test_anchored_at_repro(self):
        assert module_name_for(Path("src/repro/nn/conv.py")) == "repro.nn.conv"

    def test_package_init_names_the_package(self):
        assert module_name_for(Path("src/repro/nn/__init__.py")) == "repro.nn"

    def test_tests_tree(self):
        assert module_name_for(Path("tests/analysis/test_x.py")) == \
            "tests.analysis.test_x"


class TestImportResolution:
    def test_aliased_and_from_imports(self, tmp_path):
        path = write(tmp_path / "repro" / "mod.py", """\
            import numpy as np
            from numpy.random import default_rng
            from repro.tensor import engine
        """)
        index = ProjectIndex.build([ModuleSource.parse(path)])
        module = index.modules["repro.mod"]
        import ast
        assert module.resolve(ast.parse("np.random.rand", mode="eval").body) \
            == "numpy.random.rand"
        assert module.resolve(ast.parse("default_rng", mode="eval").body) \
            == "numpy.random.default_rng"
        assert module.resolve(ast.parse("engine.apply", mode="eval").body) \
            == "repro.tensor.engine.apply"

    def test_relative_import(self, tmp_path):
        path = write(tmp_path / "repro" / "pkg" / "mod.py", """\
            from .sibling import helper
        """)
        index = ProjectIndex.build([ModuleSource.parse(path)])
        module = index.modules["repro.pkg.mod"]
        assert module.imports["helper"] == "repro.pkg.sibling.helper"


class TestCallGraph:
    def test_self_method_and_reachability(self, tmp_path):
        path = write(tmp_path / "repro" / "mod.py", """\
            class Runner:
                def entry(self):
                    return self.inner()

                def inner(self):
                    return leaf()

            def leaf():
                return 1

            def unrelated():
                return 2
        """)
        index = ProjectIndex.build([ModuleSource.parse(path)])
        reachable = index.reachable_from({"repro.mod.Runner.entry"})
        assert "repro.mod.Runner.inner" in reachable
        assert "repro.mod.leaf" in reachable
        assert "repro.mod.unrelated" not in reachable

    def test_attr_type_through_conditional(self, tmp_path):
        path = write(tmp_path / "repro" / "mod.py", """\
            class Wrapped:
                def __call__(self):
                    return target()

            def target():
                return 1

            class Holder:
                def __init__(self, flag):
                    self.fn = Wrapped() if flag else target

                def run(self):
                    return self.fn()
        """)
        index = ProjectIndex.build([ModuleSource.parse(path)])
        reachable = index.reachable_from({"repro.mod.Holder.run"})
        assert "repro.mod.Wrapped.__call__" in reachable
        assert "repro.mod.target" in reachable

    def test_replay_chain_in_real_tree(self):
        """TapedFunction -> capture / Tape.replay -> Op kernels, and a
        layer forward (TAPE002's capture surface) -> apply_ctx -> the
        capture hook."""
        sources = parse_sources(sorted(SRC_ROOT.rglob("*.py")))
        index = ProjectIndex.build(sources)
        reachable = index.reachable_from(
            {"repro.tensor.tape.TapedFunction.__call__"})
        assert "repro.tensor.tape.capture" in reachable
        assert "repro.tensor.tape.Tape.replay" in reachable
        assert "repro.tensor.engine.Op.forward" in reachable
        assert "repro.tensor.engine.Op.backward" in reachable
        dispatched = index.reachable_from({"repro.nn.conv.Conv2d.forward"})
        assert "repro.tensor.engine.apply_ctx" in dispatched
        assert "repro.tensor.tape.Tape.record_apply" in dispatched
