"""Each lint rule must fire on a synthetic violation and stay quiet on the fix.

These tests write small Python files into tmp_path and lint them directly,
so every rule's positive case, negative case, and suppression path is
pinned independently of the state of the real tree.
"""

import textwrap

import pytest

from repro.analysis import lint_file, run_lint
from repro.analysis.rules import (
    ExportHygieneRule,
    InplaceMutationRule,
    LateBindingClosureRule,
    SeedlessRNGRule,
    default_rules,
    rules_by_code,
)


def write(path, source):
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(source), encoding="utf-8")
    return path


def codes(violations):
    return [v.code for v in violations]


class TestDET001:
    def test_fires_on_seedless_default_rng(self, tmp_path):
        path = write(tmp_path / "mod.py", """\
            import numpy as np
            rng = np.random.default_rng()
        """)
        found = lint_file(path, [SeedlessRNGRule()])
        assert codes(found) == ["DET001"]
        assert found[0].line == 2
        assert "seed" in found[0].message

    def test_fires_on_legacy_global_call(self, tmp_path):
        path = write(tmp_path / "mod.py", """\
            import numpy as np
            np.random.seed(0)
            x = np.random.rand(3)
        """)
        assert codes(lint_file(path, [SeedlessRNGRule()])) == ["DET001", "DET001"]

    def test_fires_on_imported_default_rng(self, tmp_path):
        path = write(tmp_path / "mod.py", """\
            from numpy.random import default_rng
            rng = default_rng()
        """)
        assert codes(lint_file(path, [SeedlessRNGRule()])) == ["DET001"]

    def test_quiet_on_seeded_and_types(self, tmp_path):
        path = write(tmp_path / "mod.py", """\
            import numpy as np
            rng = np.random.default_rng(42)
            seq = np.random.SeedSequence(1)
            gen = np.random.Generator(np.random.PCG64(0))
        """)
        assert lint_file(path, [SeedlessRNGRule()]) == []

    def test_exempt_inside_utils_rng(self, tmp_path):
        path = write(tmp_path / "utils" / "rng.py", """\
            import numpy as np
            rng = np.random.default_rng()
        """)
        assert lint_file(path, [SeedlessRNGRule()]) == []

    def test_suppression_comment(self, tmp_path):
        path = write(tmp_path / "mod.py", """\
            import numpy as np
            rng = np.random.default_rng()  # repro-lint: disable=DET001
        """)
        assert lint_file(path, [SeedlessRNGRule()]) == []


class TestAD001:
    def test_fires_on_rebind_in_differentiable_dir(self, tmp_path):
        path = write(tmp_path / "nn" / "mod.py", """\
            def step(param, update):
                param.data = update
        """)
        found = lint_file(path, [InplaceMutationRule()])
        assert codes(found) == ["AD001"]
        assert "param.data" in found[0].message

    def test_fires_on_subscript_and_augassign(self, tmp_path):
        path = write(tmp_path / "ssl" / "mod.py", """\
            def corrupt(x, mask, delta):
                x.data[mask] = 0.0
                x.data += delta
        """)
        assert codes(lint_file(path, [InplaceMutationRule()])) == ["AD001", "AD001"]

    def test_quiet_outside_differentiable_dirs(self, tmp_path):
        path = write(tmp_path / "optim" / "mod.py", """\
            def step(param, lr):
                param.data = param.data - lr * param.grad
        """)
        assert lint_file(path, [InplaceMutationRule()]) == []

    def test_quiet_on_reads(self, tmp_path):
        path = write(tmp_path / "nn" / "mod.py", """\
            def snapshot(param):
                copy = param.data.copy()
                return copy
        """)
        assert lint_file(path, [InplaceMutationRule()]) == []

    def test_suppression_comment(self, tmp_path):
        path = write(tmp_path / "nn" / "mod.py", """\
            def load(param, state):
                param.data = state.copy()  # repro-lint: disable=AD001
        """)
        assert lint_file(path, [InplaceMutationRule()]) == []


class TestAD002:
    def test_fires_on_late_binding_grad_fn(self, tmp_path):
        path = write(tmp_path / "mod.py", """\
            def concat(tensors):
                parents = []
                for i, t in enumerate(tensors):
                    def grad_fn(g):
                        return g[i]
                    parents.append((t, grad_fn))
                return parents
        """)
        found = lint_file(path, [LateBindingClosureRule()])
        assert codes(found) == ["AD002"]
        assert "'i'" in found[0].message
        assert "default argument" in found[0].message

    def test_fires_on_lambda(self, tmp_path):
        path = write(tmp_path / "mod.py", """\
            def build(items):
                fns = []
                for item in items:
                    fns.append(lambda g: g * item)
                return fns
        """)
        assert codes(lint_file(path, [LateBindingClosureRule()])) == ["AD002"]

    def test_quiet_when_bound_as_default(self, tmp_path):
        path = write(tmp_path / "mod.py", """\
            def concat(tensors):
                parents = []
                for i, t in enumerate(tensors):
                    def grad_fn(g, i=i):
                        return g[i]
                    parents.append((t, grad_fn))
                return parents
        """)
        assert lint_file(path, [LateBindingClosureRule()]) == []

    def test_quiet_when_loop_var_not_referenced(self, tmp_path):
        path = write(tmp_path / "mod.py", """\
            def build(n):
                fns = []
                for i in range(n):
                    fns.append(lambda g: g * 2.0)
                return fns
        """)
        assert lint_file(path, [LateBindingClosureRule()]) == []

    def test_quiet_when_shadowed_locally(self, tmp_path):
        path = write(tmp_path / "mod.py", """\
            def build(items):
                fns = []
                for i in items:
                    def fn(g):
                        i = g + 1
                        return i
                    fns.append(fn)
                return fns
        """)
        assert lint_file(path, [LateBindingClosureRule()]) == []


class TestAPI001:
    def test_fires_on_phantom_export(self, tmp_path):
        path = write(tmp_path / "mod.py", """\
            __all__ = ["real", "phantom"]

            def real():
                return 1
        """)
        found = lint_file(path, [ExportHygieneRule()])
        assert codes(found) == ["API001"]
        assert "phantom" in found[0].message

    def test_fires_on_duplicate(self, tmp_path):
        path = write(tmp_path / "mod.py", """\
            __all__ = ["f", "f"]

            def f():
                return 1
        """)
        found = lint_file(path, [ExportHygieneRule()])
        assert codes(found) == ["API001"]
        assert "twice" in found[0].message

    def test_fires_on_import_missing_from_all_in_init(self, tmp_path):
        path = write(tmp_path / "pkg" / "__init__.py", """\
            from repro.something import exported, hidden

            __all__ = ["exported"]
        """)
        found = lint_file(path, [ExportHygieneRule()])
        assert codes(found) == ["API001"]
        assert "hidden" in found[0].message

    def test_quiet_on_consistent_module(self, tmp_path):
        path = write(tmp_path / "pkg" / "__init__.py", """\
            import os
            from repro.something import exported

            __all__ = ["exported", "helper"]

            def helper():
                return os.name
        """)
        assert lint_file(path, [ExportHygieneRule()]) == []

    def test_lazy_getattr_module_exempt_from_existence(self, tmp_path):
        path = write(tmp_path / "pkg" / "__init__.py", """\
            __all__ = ["lazy_thing"]

            def __getattr__(name):
                raise AttributeError(name)
        """)
        assert lint_file(path, [ExportHygieneRule()]) == []

    def test_quiet_without_all(self, tmp_path):
        path = write(tmp_path / "mod.py", """\
            def anything():
                return 1
        """)
        assert lint_file(path, [ExportHygieneRule()]) == []


class TestRunner:
    def test_run_lint_walks_directories_sorted(self, tmp_path):
        write(tmp_path / "b.py", "import numpy as np\nx = np.random.rand()\n")
        write(tmp_path / "a.py", "import numpy as np\ny = np.random.default_rng()\n")
        found = run_lint([tmp_path])
        assert [v.path.name for v in found] == ["a.py", "b.py"]
        assert all(v.code == "DET001" for v in found)

    def test_violation_format_is_grep_friendly(self, tmp_path):
        path = write(tmp_path / "mod.py", "import numpy as np\nz = np.random.rand()\n")
        violation = run_lint([path])[0]
        assert violation.format().startswith(f"{path}:2: DET001 ")

    def test_missing_path_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            run_lint([tmp_path / "nope"])

    def test_disable_all_suppresses_everything(self, tmp_path):
        path = write(tmp_path / "mod.py",
                     "import numpy as np\n"
                     "q = np.random.rand()  # repro-lint: disable=all\n")
        assert run_lint([path]) == []

    def test_rules_by_code_selects_and_validates(self):
        assert [r.code for r in rules_by_code(["det001", "AD002"])] == ["DET001", "AD002"]
        with pytest.raises(ValueError, match="unknown lint rule"):
            rules_by_code(["NOPE99"])

    def test_default_rules_cover_all_documented_codes(self):
        assert {r.code for r in default_rules()} == {"DET001", "AD001", "AD002", "API001",
                                                     "SER001", "PERF001", "PERF002",
                                                     "TAPE001", "RB001",
                                                     "DET002", "TAPE002", "SER002"}
