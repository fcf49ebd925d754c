"""Meta-tests on the public API surface.

Guards the contract a downstream user relies on: everything exported in
``__all__`` resolves, every public module is documented, the README's
quickstart snippet actually runs, and training needs no scipy.
"""

import importlib
import pkgutil
import subprocess
import sys

import pytest

import repro


PACKAGES = [
    "repro",
    "repro.tensor",
    "repro.nn",
    "repro.optim",
    "repro.data",
    "repro.augment",
    "repro.ssl",
    "repro.selection",
    "repro.memory",
    "repro.replay",
    "repro.continual",
    "repro.eval",
    "repro.utils",
]


class TestExports:
    @pytest.mark.parametrize("package_name", PACKAGES)
    def test_all_exports_resolve(self, package_name):
        package = importlib.import_module(package_name)
        for name in getattr(package, "__all__", []):
            assert hasattr(package, name), f"{package_name}.__all__ lists missing {name!r}"

    @pytest.mark.parametrize("package_name", PACKAGES)
    def test_every_module_documented(self, package_name):
        package = importlib.import_module(package_name)
        assert package.__doc__, f"{package_name} has no module docstring"
        for info in pkgutil.iter_modules(package.__path__):
            if info.name == "__main__":
                continue
            module = importlib.import_module(f"{package_name}.{info.name}")
            assert module.__doc__, f"{module.__name__} has no module docstring"

    def test_version_exposed(self):
        assert repro.__version__


class TestPublicClassesDocumented:
    def test_top_level_exports_have_docstrings(self):
        undocumented = [
            name for name in repro.__all__
            if name != "__version__" and not (getattr(repro, name).__doc__ or "").strip()
        ]
        assert not undocumented, f"undocumented public symbols: {undocumented}"


class TestQuickstartSnippet:
    def test_readme_quickstart_runs(self):
        """The exact flow shown in README's Quickstart section."""
        from repro import ContinualConfig, load_image_benchmark, run_method

        sequence = load_image_benchmark("cifar10-like", scale="ci")
        result, _ = run_method("edsr", sequence, ContinualConfig(epochs=1), seed=0)
        assert 0.0 <= result.acc() <= 1.0
        assert result.accuracy_matrix.shape == (5, 5)


#: Build the image benchmark and train EDSR for one epoch on two tasks
#: (new-data distillation and noisy replay included), then list every
#: loaded module whose name starts with ``scipy``.
NO_SCIPY_SCRIPT = """
import sys
from repro import ContinualConfig, load_image_benchmark, run_method
from repro.data.splits import TaskSequence

sequence = load_image_benchmark("cifar10-like", scale="ci")
two_tasks = TaskSequence(sequence.tasks[:2], name=sequence.name)
config = ContinualConfig(epochs=1, batch_size=64, representation_dim=16)
run_method("edsr", two_tasks, config, seed=0)
print(sorted(name for name in sys.modules if name.startswith("scipy")))
"""


def test_training_loads_no_scipy_module():
    """scipy is a test-only dependency: no runtime path imports it."""
    output = subprocess.run([sys.executable, "-c", NO_SCIPY_SCRIPT],
                            check=True, capture_output=True, text=True)
    assert output.stdout.strip() == "[]"


#: The same short EDSR run on image or tabular data (``argv[1]``), then
#: whether ``numpy.ma`` is loaded.
NO_NUMPY_MA_SCRIPT = """
import sys
from repro import ContinualConfig, load_image_benchmark, run_method
from repro.data import load_tabular_benchmark
from repro.data.splits import TaskSequence

sequence = (load_image_benchmark("cifar10-like", scale="ci")
            if sys.argv[1] == "image" else load_tabular_benchmark("ci"))
two_tasks = TaskSequence(sequence.tasks[:2], name=sequence.name)
config = ContinualConfig(epochs=1, batch_size=64, representation_dim=16)
run_method("edsr", two_tasks, config, seed=0)
print("numpy.ma" in sys.modules)
"""


@pytest.mark.parametrize("data", ["image", "tabular"])
def test_training_loads_no_numpy_ma(data):
    """``np.unique`` imports ``numpy.ma``; no runtime path calls it."""
    output = subprocess.run([sys.executable, "-c", NO_NUMPY_MA_SCRIPT, data],
                            check=True, capture_output=True, text=True)
    assert output.stdout.strip() == "False"
