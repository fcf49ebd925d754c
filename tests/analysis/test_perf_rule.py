"""PERF001 — hot-path loop / dtype-promotion rule tests.

PERF001 is scoped to the ``repro.tensor``/``repro.nn``/``repro.ssl``
packages, so the synthetic files are written into matching
``repro/<package>/`` subdirectories of tmp_path.
"""

import textwrap

from repro.analysis import lint_file
from repro.analysis.rules import HotLoopDtypeRule


def write(path, source):
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(source), encoding="utf-8")
    return path


def codes(violations):
    return [v.code for v in violations]


class TestPerElementLoops:
    def test_fires_on_range_over_size(self, tmp_path):
        path = write(tmp_path / "repro" / "tensor" / "mod.py", """\
            def f(x):
                total = 0.0
                for i in range(x.size):
                    total += x.flat[i]
                return total
        """)
        found = lint_file(path, [HotLoopDtypeRule()])
        assert codes(found) == ["PERF001"]
        assert found[0].line == 3
        assert "per-element" in found[0].message

    def test_fires_on_range_over_shape_subscript(self, tmp_path):
        path = write(tmp_path / "repro" / "nn" / "mod.py", """\
            def f(x):
                for i in range(x.shape[0]):
                    x[i] = 0.0
        """)
        assert codes(lint_file(path, [HotLoopDtypeRule()])) == ["PERF001"]

    def test_fires_on_len_of_attribute(self, tmp_path):
        path = write(tmp_path / "repro" / "ssl" / "mod.py", """\
            def f(t):
                for i in range(len(t.data)):
                    pass
        """)
        assert codes(lint_file(path, [HotLoopDtypeRule()])) == ["PERF001"]

    def test_quiet_on_structural_loops(self, tmp_path):
        path = write(tmp_path / "repro" / "nn" / "mod.py", """\
            def f(dims, layers, kernel):
                for i in range(len(dims) - 1):
                    pass
                for k in range(kernel):
                    pass
                for layer in layers:
                    pass
        """)
        assert lint_file(path, [HotLoopDtypeRule()]) == []

    def test_quiet_outside_hot_dirs(self, tmp_path):
        path = write(tmp_path / "repro" / "benchmarks" / "mod.py", """\
            def f(x):
                for i in range(x.size):
                    pass
        """)
        assert lint_file(path, [HotLoopDtypeRule()]) == []

    def test_suppression_comment_silences(self, tmp_path):
        path = write(tmp_path / "repro" / "tensor" / "mod.py", """\
            def f(x):
                for i in range(x.size):  # repro-lint: disable=PERF001
                    pass
        """)
        assert lint_file(path, [HotLoopDtypeRule()]) == []


class TestDtypePromotion:
    def test_fires_on_dtype_less_constructors(self, tmp_path):
        path = write(tmp_path / "repro" / "tensor" / "mod.py", """\
            import numpy as np

            def f(n):
                a = np.zeros(n)
                b = np.eye(n)
                c = np.arange(n)
                return a, b, c
        """)
        found = lint_file(path, [HotLoopDtypeRule()])
        assert codes(found) == ["PERF001"] * 3
        assert all("float64" in v.message for v in found)

    def test_quiet_with_explicit_dtype(self, tmp_path):
        path = write(tmp_path / "repro" / "tensor" / "mod.py", """\
            import numpy as np

            def f(n, ref):
                a = np.zeros(n, dtype=np.float32)
                b = np.ones(n, dtype=ref.dtype)
                c = np.zeros_like(ref)
                return a, b, c
        """)
        assert lint_file(path, [HotLoopDtypeRule()]) == []

    def test_quiet_on_non_numpy_calls(self, tmp_path):
        path = write(tmp_path / "repro" / "nn" / "mod.py", """\
            def f(pool):
                return pool.zeros(3), zeros(3)
        """)
        assert lint_file(path, [HotLoopDtypeRule()]) == []

    def test_fires_in_ssl_dir(self, tmp_path):
        path = write(tmp_path / "repro" / "ssl" / "mod.py", """\
            import numpy as np
            EYE = np.eye(4)
        """)
        assert codes(lint_file(path, [HotLoopDtypeRule()])) == ["PERF001"]
