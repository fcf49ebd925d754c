"""Class-incremental artifact pins: checkpoints keep the pre-scenario bytes.

A ``TaskSequence`` run is the ``class_incremental`` stream run.  The pins
below were computed from the separate classic trainer loop that predates
the stream loop (its result JSON, checkpoints and manifests were byte for
byte those of the ``class_incremental`` stream path, whose transfer matrix
is pinned too), so a checkpoint written today resumes exactly as one
written before streams existed.  Each case pins the sha256 of the result
JSON (``elapsed_seconds`` zeroed), every ``ckpt-*.npz``, every canonical
manifest and ``transfer-matrix.json``.
"""

import hashlib
import json

import numpy as np
import pytest

from repro.continual import run_method
from repro.utils.serialization import save_result

SEED = 77

#: method -> artifact name -> sha256
ARTIFACTS = {
    "finetune": {
        "result.json":
            "44199bfbc4422101be2f2d3550dd12b08b1605eea1b9c96194ecf8031d83caba",
        "ckpt-00000.npz":
            "f10e8eed152e8b96e40914287d520a419197f377b5a767c8d66525f455a73691",
        "ckpt-00000.json":
            "af40014b45688b867c609cfcf55949ec96926342f084e3e67a1495c8a75985df",
        "ckpt-00001.npz":
            "56559c8c2d36feaa30c450ae8bf577c26fbbf688bab9882d26d9be303c936404",
        "ckpt-00001.json":
            "a5701583c047e40ce8b3cba6217710698a5fca001e1b4ee50e0122bc54b7ee93",
        "ckpt-00002.npz":
            "0fd2c56644cda7dfeb37a261c5fdc792a8aad2db5dfb438b2553ef06e90ffae1",
        "ckpt-00002.json":
            "56d2c547cb9945a953039bc4a28a7743d079e347438a71ca7f00dd8e58c10c4b",
        "transfer-matrix.json":
            "3d9d5a75106e8198a92cffb25bb8fbef5d24727d76f54a9784ce6a03694c6363",
    },
    "edsr": {
        "result.json":
            "0c3e2fdbd368015c392850802bf3170d669594e9c179ec505071b9f3eef65d8f",
        "ckpt-00000.npz":
            "ddd7bc8225112b3bce726e5575566dd0a4460020e47e9c989a45361f6f409a6d",
        "ckpt-00000.json":
            "448f23041c35a5772a1b12fbaff42be5ace4f5bc2ec5da7652450fb7eadba2c9",
        "ckpt-00001.npz":
            "6192bff0871c08260810a5cba873acc15973fcf7dd587cc24e3259173de74f3a",
        "ckpt-00001.json":
            "208ca959bfe22919784ab972fe863767e7edd99770ba389da9adf63b6437b63c",
        "ckpt-00002.npz":
            "a24ff557a1daa1e1c66b0000f92a64c39a50f967b99589811c72ab47c78f4552",
        "ckpt-00002.json":
            "8dee36267b5b69880f3395905bd0ad7492252e0b7fcde9583eed827be1a767ed",
        "transfer-matrix.json":
            "6fa9550e1eb2974e78f8e6fbbcc33ffc8b4467a76c38ecf18e43f52277e4f56f",
    },
}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def canonical_manifest(path) -> bytes:
    """Manifest bytes with the one wall-clock field zeroed.

    ``elapsed_seconds`` is real timing — it differs even between two runs
    of the same seed — so the pin covers everything else.
    """
    manifest = json.loads(path.read_text(encoding="utf-8"))
    manifest["tree"]["result"]["elapsed_seconds"] = 0.0
    return json.dumps(manifest, sort_keys=True).encode("utf-8")


@pytest.mark.parametrize("method", ["finetune", "edsr"])
def test_class_incremental_artifacts_are_pinned(method, fast_config,
                                                tiny_sequence, tmp_path):
    config = fast_config.with_overrides(epochs=1)
    run_dir = tmp_path / "run"
    result, _ = run_method(method, tiny_sequence, config, seed=SEED,
                           checkpoint_dir=run_dir)

    result.elapsed_seconds = 0.0
    save_result(result, tmp_path / "result.json")
    digests = {"result.json": sha256((tmp_path / "result.json").read_bytes()),
               "transfer-matrix.json":
                   sha256((run_dir / "transfer-matrix.json").read_bytes())}
    for path in run_dir.glob("ckpt-*"):
        data = (canonical_manifest(path) if path.suffix == ".json"
                else path.read_bytes())
        digests[path.name] = sha256(data)
    assert digests == ARTIFACTS[method]


def test_matrix_final_rows_match_the_classic_triangle(fast_config,
                                                      tiny_sequence):
    config = fast_config.with_overrides(epochs=1,
                                        scenario="class_incremental")
    result, transfer = run_method("finetune", tiny_sequence, config,
                                  seed=SEED)
    # The lower triangle of the transfer matrix's final view IS the
    # result's accuracy matrix: row i, columns 0..i.
    for i in range(result.n_tasks):
        np.testing.assert_array_equal(transfer.final[i, :i + 1],
                                      result.accuracy_matrix[i, :i + 1])
    # And the future columns were probed too (the result matrix leaves
    # them undefined).
    assert np.isfinite(transfer.final).all()
    assert np.isnan(result.accuracy_matrix[0, 1:]).all()
