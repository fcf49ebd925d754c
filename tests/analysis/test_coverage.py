"""Tests for the gradcheck-coverage auditor on a synthetic package."""

import textwrap

from repro.analysis import audit_gradcheck_coverage, differentiable_surface, gradchecked_names


def build_src(tmp_path):
    tensor_dir = tmp_path / "src" / "tensor"
    tensor_dir.mkdir(parents=True)
    (tensor_dir / "ops.py").write_text(textwrap.dedent("""\
        from fake.engine import apply


        def foo(x):
            return apply("foo", x)


        def bar(x):
            return apply("bar", x)


        def composite(x):
            return foo(bar(x))


        def _private_helper(x):
            return apply("hidden", x)
    """))
    (tensor_dir / "tensor.py").write_text(textwrap.dedent("""\
        from fake import engine


        class Tensor:
            def __add__(self, other):
                return engine.apply("add", self, other)

            def sum(self):
                return engine.apply("sum", self)

            def detach(self):
                return Tensor()
    """))
    return tmp_path / "src"


def build_tests(tmp_path, body):
    tests_dir = tmp_path / "tests"
    tests_dir.mkdir(exist_ok=True)
    (tests_dir / "test_grads.py").write_text(textwrap.dedent(body))
    return tests_dir


class TestSurfaceEnumeration:
    def test_public_ops_and_taping_methods_only(self, tmp_path):
        surface = differentiable_surface(build_src(tmp_path))
        assert set(surface) == {"foo", "bar", "composite", "__add__", "sum"}
        assert surface["foo"] == "ops.foo"
        assert surface["__add__"] == "Tensor.__add__"
        # _private_helper is underscore-private; detach never tapes an op.
        assert "_private_helper" not in surface
        assert "detach" not in surface


class TestCoverageAttribution:
    def test_only_gradcheck_tests_count(self, tmp_path):
        src = build_src(tmp_path)
        tests = build_tests(tmp_path, """\
            from fake.tensor import check_gradients, ops


            def test_foo_grad(x):
                check_gradients(lambda t: ops.foo(t) + t, [x])


            def test_bar_values_only(x):
                assert ops.bar(x) is not None
        """)
        report = audit_gradcheck_coverage(src, tests)
        # foo and __add__ are exercised inside a gradcheck test; bar is only
        # touched by a value test and composite/sum not at all.
        assert report.covered == {"foo", "__add__"}
        assert report.uncovered == ["bar", "composite", "sum"]
        assert not report.ok

    def test_full_coverage_reports_ok(self, tmp_path):
        src = build_src(tmp_path)
        tests = build_tests(tmp_path, """\
            from fake.tensor import check_gradients, ops


            def test_everything(x):
                check_gradients(
                    lambda t: (ops.composite(ops.foo(t)) + ops.bar(t)).sum(), [x])
        """)
        report = audit_gradcheck_coverage(src, tests)
        assert report.ok
        assert report.uncovered == []
        assert "5/5" in report.format()

    def test_format_lists_uncovered_labels(self, tmp_path):
        src = build_src(tmp_path)
        tests = build_tests(tmp_path, """\
            def test_nothing():
                assert True
        """)
        report = audit_gradcheck_coverage(src, tests)
        text = report.format()
        assert "0/5" in text
        assert "UNCOVERED ops.bar" in text
        assert "UNCOVERED Tensor.sum" in text

    def test_gradchecked_names_sees_parametrize_decorators(self, tmp_path):
        tests = build_tests(tmp_path, """\
            import pytest
            from fake.tensor import check_gradients, ops


            @pytest.mark.parametrize("fn", [ops.foo, ops.bar])
            def test_parametrized(fn, x):
                check_gradients(fn, [x])
        """)
        names = gradchecked_names(tests)
        assert {"foo", "bar"} <= names
