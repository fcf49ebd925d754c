"""ProjectIndex construction, call-graph resolution, and the incremental cache."""

import json
import textwrap
import time
from pathlib import Path

from repro.analysis import run_lint
from repro.analysis.cache import (LintCache, file_digest, project_fingerprint,
                                  rules_fingerprint)
from repro.analysis.index import ProjectIndex, module_name_for, parse_sources
from repro.analysis.linter import LintStats, ModuleSource
from repro.analysis.rules import default_rules, rules_by_code

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
        """The slice PERF002 walks: Tape.replay -> ... -> the arena API."""
        sources = parse_sources(sorted(SRC_ROOT.rglob("*.py")))
        index = ProjectIndex.build(sources)
        reachable = index.reachable_from({"repro.tensor.tape.Tape.replay"})
        assert "repro.tensor.tape.Tape._replay_planned" in reachable
        assert "repro.tensor.engine.Op.forward" in reachable
        assert "repro.tensor.memplan.acquire" in reachable
        assert "repro.tensor.memplan.Arena.view" in reachable


class TestParallelParse:
    def test_jobs_two_matches_serial_order(self):
        files = sorted(SRC_ROOT.rglob("*.py"))[:20]
        serial = parse_sources(files, jobs=1)
        parallel = parse_sources(files, jobs=2)
        assert [s.path for s in serial] == [s.path for s in parallel]
        assert [s.text for s in serial] == [s.text for s in parallel]

    def test_run_lint_jobs_two_matches_serial(self, tmp_path):
        for i in range(14):  # above the parallel-parse threshold
            write(tmp_path / f"m{i:02d}.py", f"""\
                import numpy as np
                x{i} = np.random.default_rng()
            """)
        serial = run_lint([tmp_path], rules_by_code(["DET001"]), jobs=1)
        parallel = run_lint([tmp_path], rules_by_code(["DET001"]), jobs=2)
        assert [(v.path, v.line, v.code) for v in serial] == \
            [(v.path, v.line, v.code) for v in parallel]
        assert len(serial) == 14


class TestCache:
    def _violating(self, tmp_path, name="mod.py"):
        return write(tmp_path / name, """\
            import numpy as np
            rng = np.random.default_rng()
        """)

    def test_warm_run_hits_and_agrees(self, tmp_path):
        path = self._violating(tmp_path)
        cache_path = tmp_path / "cache.json"
        rules = default_rules
        cold = run_lint([path], rules(), cache=LintCache(cache_path))
        warm_cache = LintCache(cache_path)
        warm = run_lint([path], rules(), cache=warm_cache)
        assert [(v.line, v.code) for v in cold] == \
            [(v.line, v.code) for v in warm]
        assert warm_cache.hits > 0
        assert warm_cache.misses == 0

    def test_edit_invalidates_only_that_file(self, tmp_path):
        a = self._violating(tmp_path, "a.py")
        b = write(tmp_path / "b.py", "x = 1\n")
        cache_path = tmp_path / "cache.json"
        run_lint([tmp_path], rules_by_code(["DET001"]),
                 cache=LintCache(cache_path))
        b.write_text("y = 2\n")
        warm = LintCache(cache_path)
        run_lint([tmp_path], rules_by_code(["DET001"]), cache=warm)
        assert warm.hits == 1   # a.py unchanged
        assert warm.misses >= 1  # b.py re-linted

    def test_project_results_invalidate_on_any_edit(self, tmp_path):
        write(tmp_path / "first.py", """\
            class Counter:
                def __init__(self):
                    self.count = 0

                def state_dict(self):
                    return {}

                def load_state_dict(self, state):
                    pass
        """)
        other = write(tmp_path / "other.py", "x = 1\n")
        cache_path = tmp_path / "cache.json"
        rules = lambda: rules_by_code(["SER002"])
        first = run_lint([tmp_path], rules(), cache=LintCache(cache_path))
        assert [(Path(v.path).name, v.code) for v in first] == \
            [("first.py", "SER002")]
        # Editing *any* file must re-run whole-program rules: a cache that
        # served the first run's project results would miss this one.
        other.write_text(textwrap.dedent("""\
            class Clock:
                def __init__(self):
                    self.ticks = 0

                def state_dict(self):
                    return {}

                def load_state_dict(self, state):
                    pass
        """))
        second = run_lint([tmp_path], rules(), cache=LintCache(cache_path))
        assert sorted((Path(v.path).name, v.code) for v in second) == \
            [("first.py", "SER002"), ("other.py", "SER002")]

    def test_rule_edit_invalidates_via_fingerprint(self):
        base = rules_fingerprint(rules_by_code(["DET001"]))
        more = rules_fingerprint(rules_by_code(["DET001", "SER002"]))
        assert base != more

    def test_corrupt_cache_starts_cold(self, tmp_path):
        path = self._violating(tmp_path)
        cache_path = tmp_path / "cache.json"
        cache_path.write_text("{not json")
        violations = run_lint([path], rules_by_code(["DET001"]),
                              cache=LintCache(cache_path))
        assert [v.code for v in violations] == ["DET001"]
        json.loads(cache_path.read_text())  # rewritten valid

    def test_fingerprints_are_content_keyed(self, tmp_path):
        assert file_digest(b"abc") != file_digest(b"abd")
        assert project_fingerprint({"a": "1"}) != \
            project_fingerprint({"a": "2"})


class TestWarmSpeedup:
    def test_warm_cache_is_at_least_5x_faster_on_src(self, tmp_path):
        cache_path = tmp_path / "cache.json"
        stats_cold = LintStats()
        run_lint([SRC_ROOT], default_rules(), cache=LintCache(cache_path),
                 stats=stats_cold)
        stats_warm = LintStats()
        run_lint([SRC_ROOT], default_rules(), cache=LintCache(cache_path),
                 stats=stats_warm)
        assert stats_warm.cache_hit_rate == 1.0
        assert stats_cold.elapsed_seconds >= 5 * stats_warm.elapsed_seconds, (
            f"cold {stats_cold.elapsed_seconds:.3f}s vs "
            f"warm {stats_warm.elapsed_seconds:.3f}s")
