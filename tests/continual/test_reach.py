"""What the program's runs reach.

A module fixture wraps ``engine.apply_ctx`` to record op names and trains
one-epoch runs on ``tiny_sequence``:

- every CLI method under ``objective="vae"``, fused;
- :data:`REACH_RUNS`, once fused and once under ``no_fusion()``.

Between them these runs dispatch every op the package registers, so an
op that none of them dispatches is code no run reaches.  The VAE runs
double as the check that each CLI method trains on the VAE objective.
"""

import numpy as np
import pytest

from repro.cli import METHODS
from repro.continual import run_method
from repro.tensor import engine

#: The fewest runs that, fused and unfused, dispatch every registered op:
#: EDSR on the VAE (the MLP stack and the distillation head), LIN on BYOL
#: (the conv stack, BYOL's normalized MSE and LIN's similarity matrix)
#: and Finetune scored by the linear probe (its log-softmax).
REACH_RUNS = [("edsr", {"objective": "vae"}),
              ("lin", {"objective": "byol"}),
              ("finetune", {"probe": "linear"})]


@pytest.fixture(scope="module")
def reach(tiny_sequence, fast_config):
    """The dispatched op names, and each VAE run's result or exception."""
    seen = set()
    dispatch = engine.apply_ctx

    def recording(name, *inputs, **params):
        seen.add(name)
        return dispatch(name, *inputs, **params)

    config = fast_config.with_overrides(epochs=1)
    vae_runs = {}
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(engine, "apply_ctx", recording)
        for method in METHODS:
            try:
                vae_runs[method], _ = run_method(
                    method, tiny_sequence,
                    config.with_overrides(objective="vae"), seed=0)
            except Exception as exc:  # reported by the test of that method
                vae_runs[method] = exc
        # EDSR's fused VAE run is among the runs above.
        for method, overrides in REACH_RUNS[1:]:
            run_method(method, tiny_sequence,
                       config.with_overrides(**overrides), seed=0)
        with engine.no_fusion():
            for method, overrides in REACH_RUNS:
                run_method(method, tiny_sequence,
                           config.with_overrides(**overrides), seed=0)
    return seen, vae_runs


def test_every_registered_op_is_reached(reach):
    seen, _ = reach
    # Ops the test suite registers for itself live outside the package.
    library = {name for name, op in engine.registered_ops().items()
               if op.__module__.startswith("repro.")}
    assert sorted(library - seen) == [], "registered ops no run dispatches"
    assert seen == library


@pytest.mark.parametrize("method", METHODS)
def test_every_cli_method_trains_under_vae(reach, method):
    _, vae_runs = reach
    result = vae_runs[method]
    if isinstance(result, Exception):
        raise result
    assert result.complete
    assert np.isfinite(result.acc())


def test_curl_rejects_a_non_vae_objective(tiny_sequence, fast_config):
    with pytest.raises(TypeError, match="VAEObjective"):
        run_method("curl", tiny_sequence, fast_config.with_overrides(epochs=1),
                   seed=0)
