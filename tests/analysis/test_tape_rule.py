"""TAPE001 — apply_ctx-bypass rule tests.

The rule flags bare ``_REGISTRY`` subscripts and direct ``.forward`` /
``.backward`` calls on registry lookups anywhere except the engine and the
tape replayer themselves (the two files that *are* the choke point).
"""

import textwrap

from repro.analysis import lint_file
from repro.analysis.rules import TapeBypassRule


def write(path, source):
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(source), encoding="utf-8")
    return path


def codes(violations):
    return [v.code for v in violations]


class TestRegistrySubscript:
    def test_fires_on_bare_name_subscript(self, tmp_path):
        path = write(tmp_path / "mod.py", """\
            def dispatch(name, x):
                op = _REGISTRY[name]
                return op
        """)
        found = lint_file(path, [TapeBypassRule()])
        assert codes(found) == ["TAPE001"]
        assert found[0].line == 2
        assert "get_op" in found[0].message

    def test_fires_on_attribute_subscript(self, tmp_path):
        path = write(tmp_path / "mod.py", """\
            from repro.tensor import engine

            def dispatch(name):
                return engine._REGISTRY[name]
        """)
        assert codes(lint_file(path, [TapeBypassRule()])) == ["TAPE001"]


class TestDirectForward:
    def test_fires_on_get_op_forward(self, tmp_path):
        path = write(tmp_path / "mod.py", """\
            from repro.tensor.engine import Context, get_op

            def sneaky(name, x):
                ctx = Context()
                return get_op(name).forward(ctx, x)
        """)
        found = lint_file(path, [TapeBypassRule()])
        assert codes(found) == ["TAPE001"]
        assert "tape" in found[0].message

    def test_fires_on_engine_get_op_forward(self, tmp_path):
        path = write(tmp_path / "mod.py", """\
            from repro.tensor import engine

            def sneaky(name, ctx, x):
                return engine.get_op(name).forward(ctx, x)
        """)
        assert codes(lint_file(path, [TapeBypassRule()])) == ["TAPE001"]

    def test_fires_on_registry_subscript_backward(self, tmp_path):
        path = write(tmp_path / "mod.py", """\
            def sneaky(name, ctx, grad):
                return _REGISTRY[name].backward(ctx, grad)
        """)
        # both the subscript and the direct backward call are reported
        assert codes(lint_file(path, [TapeBypassRule()])) == ["TAPE001", "TAPE001"]

    def test_quiet_on_module_forward(self, tmp_path):
        # Module.forward / self.forward are the nn API, not dispatch bypass
        path = write(tmp_path / "mod.py", """\
            class Layer:
                def __call__(self, x):
                    return self.forward(x)

            def run(layer, x):
                return layer.forward(x)
        """)
        assert lint_file(path, [TapeBypassRule()]) == []


class TestScoping:
    def test_engine_and_tape_modules_are_exempt(self, tmp_path):
        source = """\
            def dispatch(name, ctx, x):
                return _REGISTRY[name].forward(ctx, x)
        """
        for name in ("engine.py", "tape.py"):
            path = write(tmp_path / "repro" / "tensor" / name, source)
            assert lint_file(path, [TapeBypassRule()]) == []
        # same code outside repro.tensor is not exempt
        path = write(tmp_path / "repro" / "nn" / "engine.py", source)
        assert codes(lint_file(path, [TapeBypassRule()])) == ["TAPE001", "TAPE001"]

    def test_suppression_comment(self, tmp_path):
        path = write(tmp_path / "mod.py", """\
            def dispatch(name):
                return _REGISTRY[name]  # repro-lint: disable=TAPE001
        """)
        assert lint_file(path, [TapeBypassRule()]) == []
