"""Class-incremental artifact pins: every artifact of a ``TaskSequence`` run.

A ``TaskSequence`` run is the ``class_incremental`` stream run.  Each case
pins the sha256 of the result JSON (``elapsed_seconds`` zeroed), every
``ckpt-*.npz``, every canonical manifest and ``transfer-matrix.json``.

Finetune's result JSON and ``transfer-matrix.json`` pins still date from
the separate classic trainer loop that predates the stream loop: they were
computed from it before it was deleted, so today's numerics are the
classic loop's.  EDSR's pins after task 0 moved when ``L_css`` and
``L_dis`` began to share one live-encoder pass per view.  The ``ckpt-*`` pins were re-pinned when every checkpoint
began to hold the run's transfer matrix, stream identity and controller
state (checkpoint schema 2); every array checksum of the older manifests
is unchanged, and the only new arrays are ``state/transfer/online`` and
``state/transfer/final``.  EDSR's ``ckpt-00001.npz`` and ``ckpt-00002.npz``
pins moved once more when ``ContinualMethod`` took over the memory and the
old model: the base writes ``old_objective`` and ``buffer`` before CaSSLe
adds ``head``, so the archive members changed order while every array, and
every manifest's ``checksums`` map, stayed the same.  All six ``ckpt-*.npz``
pins moved again when the archives began to be stored uncompressed
(``np.savez``); their arrays, and so every manifest pin, did not change.
The six manifest pins moved when manifests began to carry a digest of
their other fields (checkpoint schema 3): ``canonical_manifest`` drops the
digest, and with ``schema_version`` set back to 2 every canonical manifest
hashes to its previous pin.
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
            "e826c6c2f1bbcbe1f190b9762904398dd67515a1e88bfde30b213397d43db68f",
        "ckpt-00000.json":
            "96d7d65e7d2be46db04fa0e65a4ca64f5a9e17619bb13ffc555fcfff54dfa911",
        "ckpt-00001.npz":
            "975abefc6061b6c3bb9fda574eff26636b2785e07fbc55b958dd8d133cbf7647",
        "ckpt-00001.json":
            "afffdad7a2059b88089d57604b9ace62f92f26d92c1f482e6857ff24f14004a6",
        "ckpt-00002.npz":
            "fee405b820b3fe2c21901218afdf07ec7043e6c9deffaf2d035a4115207e0746",
        "ckpt-00002.json":
            "abd8282dee11e50a80b222511ad03dbe67e62ec70e3a37ac98b86cff36eb2594",
        "transfer-matrix.json":
            "3d9d5a75106e8198a92cffb25bb8fbef5d24727d76f54a9784ce6a03694c6363",
    },
    "edsr": {
        "result.json":
            "6088821b8483285322afb45ef6232d64103351955402b15ed6c35db7d63ded27",
        "ckpt-00000.npz":
            "98ba2976b67e4851283ba67444e9155d8b38fd7a54b58cb50e3fdc974bffff11",
        "ckpt-00000.json":
            "cc558906d2cbb595c8a59e37180e156f4f865a1a0f04df17c4ab37653f689227",
        "ckpt-00001.npz":
            "0b4a52aef1662cc7f36bf8af0cba7c8bac7cb3f6c8cf3ca334bcecdd65d5b574",
        "ckpt-00001.json":
            "e51ec666d70b0f04aab527628045d18c78988e036bf2c5490018ad713ab6aafe",
        "ckpt-00002.npz":
            "632e19836926a617515734c76474b8a1fe024981e53fa0047077aa6aaf66cd85",
        "ckpt-00002.json":
            "43c390f0ae7f812f7ec955994ffc6073802bbabaf2a98a8b90576c72f4bf21ca",
        "transfer-matrix.json":
            "11176b1ed4141979ef15c7e08b160fe4060c5bb48fb59052b304e695aead765d",
    },
}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def canonical_manifest(path) -> bytes:
    """Manifest bytes with the one wall-clock field zeroed.

    ``elapsed_seconds`` is real timing — it differs even between two runs
    of the same seed — so the pin covers everything else.  The manifest's
    ``digest`` covers ``elapsed_seconds`` too, so it is dropped.
    """
    manifest = json.loads(path.read_text(encoding="utf-8"))
    manifest["tree"]["result"]["elapsed_seconds"] = 0.0
    del manifest["digest"]
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
