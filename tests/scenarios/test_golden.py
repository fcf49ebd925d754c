"""Golden pins for the image path: the digests of whole continual runs.

Each case trains one method on ``tiny_sequence`` through the scenario path
(conv, max-pool, batch-norm and, for EDSR, distillation plus noisy replay)
and pins two sha256 digests, the same two ``benchmarks/e2e/child.py``
computes: the bytes of the float64 accuracy matrix, and the sorted-key JSON
of the last checkpoint manifest's per-array ``checksums``.  Manifests also
carry wall-clock fields, so their raw bytes are never compared.

The end-to-end benchmark compares digests only among the runs of one
invocation, never across commits, so a kernel change that moves numerics
would pass it as long as accuracy stays within its bound.  These pins close
that gap.  A pin moves only in a commit that says why numerics moved.
"""

import hashlib
import json

import numpy as np
import pytest

from repro.runtime import CheckpointManager
from repro.scenarios import run_scenario_method

SEED = 3

#: method -> (matrix sha256, manifest-checksums sha256)
GOLDEN = {
    "finetune": (
        "1ea4909a9d47a00e627102bd5b41cc01e8d2b3df802061d8c6307e19a8582d7e",
        "68e86726bd60cd8780031f07a303b5443c55beed2ef536a43bc433bcb815c465"),
    "edsr": (
        "518f2dc616b65fc1d6fda6e04b518752a1855acc14234b3058fa76dfa72a89ca",
        "222586a8b4635fab312cceff1a7f348fe66513484d0178ae71efd613f638bb40"),
}


def run_digests(method, config, sequence, directory) -> tuple[str, str]:
    result, _ = run_scenario_method(method, sequence, config, seed=SEED,
                                    checkpoint_dir=directory)
    matrix = np.ascontiguousarray(result.accuracy_matrix, dtype=np.float64)
    last = CheckpointManager(directory).manifest_paths()[-1]
    checksums = json.loads(last.read_text(encoding="utf-8"))["checksums"]
    return (hashlib.sha256(matrix.tobytes()).hexdigest(),
            hashlib.sha256(json.dumps(checksums, sort_keys=True).encode())
            .hexdigest())


@pytest.mark.parametrize("method", sorted(GOLDEN))
def test_image_run_digests_are_pinned(method, fast_config, tiny_sequence,
                                      tmp_path):
    config = fast_config.with_overrides(epochs=1,
                                        scenario="class_incremental")
    assert run_digests(method, config, tiny_sequence, tmp_path) == \
        GOLDEN[method]
