"""Golden pins: the digests of whole continual runs.

Each case trains one checkpointed run at ``fast_config`` scale with
``epochs=1`` and pins sha256 digests of its artifacts:

- the bytes of the float64 accuracy matrix;
- the sorted-key JSON of the last checkpoint manifest's per-array
  ``checksums`` (manifests also carry wall-clock fields, so their raw bytes
  are never compared);
- the bytes of ``transfer-matrix.json``.

The first two are the digests ``benchmarks/e2e/child.py`` computes.
``GOLDEN`` holds the two image-path cases on ``class_incremental``.
``MATRIX_GOLDEN`` holds every (scenario, method) cell that
``test_scenario_matrix.py`` trains, so each cell trains once and is both
smoke-checked and pinned.  ``OBJECTIVE_GOLDEN`` holds finetune, CaSSLe and
EDSR on ``class_incremental`` under the other two CSSL objectives,
BarlowTwins and BYOL, so every objective's ``L_css`` is pinned under a
method that uses only it and under the two that add ``L_dis``.
``MULTITASK_GOLDEN`` pins the joint-training
upper bound, which has no checkpoints: the bytes of its per-task
accuracies under two probes (the KNN cells saturate at 1.0 on this
sequence; the linear probe's do not).

The end-to-end benchmark compares digests only among the runs of one
invocation, never across commits, so a change that moves numerics would
pass it as long as accuracy stays within its bound.  These pins close that
gap.  A pin moves only in a commit that says why numerics moved.  The
manifest-checksum digests were re-pinned once without a numerics change,
when the run state gained the transfer matrix: the only new checksums are
``state/transfer/online`` and ``state/transfer/final``.  Every CaSSLe, PFR
and EDSR pin moved once, when ``L_css`` and ``L_dis`` began to share one
live-encoder pass per view (so the encoder's BatchNorm running statistics
move once per view, not twice); every finetune pin, under all three
objectives, held.  The CURL pin moved once, when its generated replay
batch began to draw its latents from the run generator (which every
checkpoint records) instead of the old model's deep-copied one (which
none did, so a task-free resume diverged).  The three BYOL manifest pins
moved once, when BYOL's checkpoints began to carry its EMA target (a
resume had rebuilt it from the initial encoder); their matrix pins held.
"""

import hashlib
import json

import numpy as np
import pytest

from repro.continual import run_method, run_multitask
from repro.runtime import CheckpointManager

SEED = 3

#: method -> (matrix sha256, manifest-checksums sha256)
GOLDEN = {
    "finetune": (
        "1ea4909a9d47a00e627102bd5b41cc01e8d2b3df802061d8c6307e19a8582d7e",
        "4422c64fbbca0c9b4d15f0afa3ec2e1a6bed46db975677d095d8a4e7b119bb18"),
    "edsr": (
        "9c6f0772902cd53f58ad4e86022557000a35e0e1e0bffe0657bdf31365379e5c",
        "86c1aa619d5fec96b1667505dd06312fe4645fc18cf69ce9bf43897eac0168dc"),
}

#: (scenario, method) -> (matrix, manifest-checksums, transfer-matrix.json)
#: sha256 for the smoke runs of ``test_scenario_matrix.py``
MATRIX_GOLDEN = {
    ("class_incremental", "finetune"): (
        "1ea4909a9d47a00e627102bd5b41cc01e8d2b3df802061d8c6307e19a8582d7e",
        "4422c64fbbca0c9b4d15f0afa3ec2e1a6bed46db975677d095d8a4e7b119bb18",
        "11f394ac100385d3e6643ec43a24c7a8ee303f8d1f72de8d674535b1eaf2412c"),
    ("class_incremental", "edsr"): (
        "9c6f0772902cd53f58ad4e86022557000a35e0e1e0bffe0657bdf31365379e5c",
        "86c1aa619d5fec96b1667505dd06312fe4645fc18cf69ce9bf43897eac0168dc",
        "f3407503e2b813f8666a3967bd76ad415a0f7bc9ff6a74ca032662c73a25dcfa"),
    ("class_incremental", "der"): (
        "4ac980378ad60e68b7728a5dcdd436f8d73697ca2774809867f264e67148ae91",
        "fb10d1a1ebf925b589b2e6ac4e6099e953c6a247c9c96a6a9375f6a1a4c07f82",
        "8a468bc81ad3c9e0d242d083c3663843b77d78528773347496a80363f65fbecc"),
    ("class_incremental", "lump"): (
        "7fc890ec7e16ba3f55404b6997420f786fd11756ae9971000cfcdc15aefd7e4b",
        "e84fe5d30e167b9db6a8e6324ffbef69a57f480dfefe383e9b5b703a7d128574",
        "46313cc768a15e85ae324d8f658191b444c0e8a80b35018d88c32875e5e7217d"),
    ("class_incremental", "si"): (
        "1ea4909a9d47a00e627102bd5b41cc01e8d2b3df802061d8c6307e19a8582d7e",
        "cf3ab5463a9e26f7d3dde760cd08ec22abaf0afd22ea263370bf869ceeeb5942",
        "e23d9ddd814ffd2ffc8faeb1398885c08f7f235f611fc331cf2e309ebb0e34be"),
    ("class_incremental", "cassle"): (
        "206f6cb29a6520fdac5557eb34b636efa36e40cd77a6a8cb1ba78a476ca391cd",
        "eee2160bebd870baf60d7795d730c5fbf97cec6cdd3996929497701a2878861a",
        "ef82f8aca192d50f49715d2452313b89d8f49d8a2aae6acee55f919d1a64ea55"),
    ("class_incremental", "lin"): (
        "5ceb41901ee6dc9faf91423c6f86b8f461b6a7418a7d6a38779371bc314c9354",
        "81c0c97263e37b5c63f5b96fb3c75b037786a2f7256e85f557f4e40709c25751",
        "9a859ab8e14d503d2ff503f654da577cbe0d97528441b7fd7791b3189f509798"),
    ("class_incremental", "pfr"): (
        "7b5c5dd8b49b78d8973e64c5cc1d80a12ce00093ecf89d499ef894a03374bb13",
        "b8d37597a5265cf816142b536799d8a12fc61657c59017a78edd3cec5f258898",
        "365fba590a278f95415a3e26114a13658794e353ddf81573158577604b93be2b"),
    ("class_incremental", "curl"): (
        "c59430cdefb6c8e1f670b16e5dc89fc5bf434e909c04a3327bf970c5c65c7363",
        "11fc4e8037b398f1261cc5f728a6ec23a6bd28e649727fdf2fea8c92789ced31",
        "67a1b226a3f068c06b7022642ed227d31f2de270918de645b9c30d57a81ba1e9"),
    ("task_free", "finetune"): (
        "3be6bf8074873ed5c52e200c32c9054806538ad7a5ecb1ccf550b4f875013f50",
        "13049932f7eb6777d840cdbf6d440c83c3de9f5ac8b9549f3a41fc772211f1f9",
        "89309d052a050b3720c34af9d6674ad2be887160713b5a02e8e096e82e446626"),
    ("task_free", "edsr"): (
        "ee0a399704a39b6a75341b3bf28fda7e996ac5f8ebc0ec55114b2702e85abb88",
        "f17145924892025bd62f1d82f78d29399ed93401a785930454561ef228387686",
        "39801cbb74349cfc402c940f8d2b095ce44fa1292dc72b27ce701b72ade99cca"),
    ("task_free", "der"): (
        "8b2cc649e9063550eb445456303067d5beea4f276ef6624532e5dbb6883d8253",
        "108b7f33ac42d32e795ff37fb938e13e64a3b20745b5cd46b8b78b8c1e230596",
        "67d7fbf3dc48c3fa10fe4a7af5e6c79f943c83b369edf6168f8dc5192b637c6f"),
    ("task_free", "lump"): (
        "8dcdb5c6ed8390511b661cdb3552ec4575bb24bf16bfda79567940fc4c9e63ad",
        "ee15a66d9a6706cb5290ffd9d398af59463a1caea1a27cec5d06edd19204b4ad",
        "fe44a0258e0b4bb4ccf9595a65023933e4805d85b9113de7085df59e8c811a9d"),
    ("blurry", "finetune"): (
        "b37108abc3c599ccc8ae0bc8455e8fb719d74ab30b0f9aa4e74af4e9ddc354a6",
        "cfc69b7bc025529f1985f516c48954a31e9022e97c641f6f81fc47fa49442bc9",
        "849ad46159b5436c90da5bb4db3065b6c072fe0f518bca27997e32a3e7d23b08"),
    ("blurry", "edsr"): (
        "e248f980dda0dbb434b5d9a26600b9a5f1288125f0063d439c9a8e8b6ee8b32e",
        "7ab5fbaa0827ce6a7b8d7657402030c31a3629a72e125487a8636ac0ccdc3bfb",
        "0a3054ac97278a7a6b6e72ae8403e2d476b225b0ae6d77f9288afeb714158cf2"),
    ("blurry", "der"): (
        "ec4b349f80b4637fafeef4778c0676bd54f31f2bf591725440ab6e1590d8fb43",
        "2fb0c8ab21d633b258f70455a18344d18800dc7c40ca17588ae654ee246b0a4f",
        "14313ea2e87c7c796e32782dc31ea2379b1468b4427f2123affcb4ed5474daf6"),
    ("blurry", "lump"): (
        "e248f980dda0dbb434b5d9a26600b9a5f1288125f0063d439c9a8e8b6ee8b32e",
        "525bdab8a6c8aa021fb21df0cbeae9e04d40798af5ae35ce504d1d4a3bbe62c6",
        "9c7d6a5d5898a40247efdbbe5dad70352b8a38d1eac762640a633782e9f35dba"),
    ("domain_incremental", "finetune"): (
        "ff8805b8bd239a2bc16157233e33355211ee451e2bc5f0aece7b9b0507e4af73",
        "db5df5a41fab5e3c422c753ddc69da37ee10b252c9f5cd59d97160a04b2cfb44",
        "8cc09e328a24b876fb8fa4a0bd8837cfc54c08cd034edad0df0bf469c24c1f4d"),
    ("domain_incremental", "edsr"): (
        "1df58a746740ce6c387b661eb7c04bafed4fab737d9aee4bf8d0705745738550",
        "30a2ae975c3ab6635ef3fa68210ea2099b7e9354b0651025ff5bb108c2f001af",
        "1cbc1b9457a42730cff37a27de892cb6dc8ecb93d239e55f24cabe1492bc6a35"),
    ("domain_incremental", "der"): (
        "111b116e4b5e7f839c8209db91a893838619a11c62e12ed8b961db4d138936c2",
        "a9bd3d6896ffe0455e1dedbb7faf93c51362c78d23841eb32786518c5b79d5d2",
        "4a151f4b12a771808c8a2a1e5b478c9556026a104c0c31584817fe01a6f11fae"),
    ("domain_incremental", "lump"): (
        "712125560765705c22428f6edf4e50d3001540c8af51e2ef97a10583c5e0c9b3",
        "8893a77f3742e4232e43b534c969b3a552ecff27269d637ae1f51acacb6c6f04",
        "6b1d988861b5e29bd5ac2ac91a08970c93648f4d6f89fe39b4e356bc02663a83"),
    ("long_sequence", "finetune"): (
        "f90987be2cc4ccb3e2f7c49846d92b39d0c8e140c0c5b10c0e12e0794e897bc5",
        "05f9c2e90cac99caf0697869e1f7aa0b6a1d00b734d057f4875a6961a19d80b4",
        "e5f5360f018e8c3efad19f1fc6d042f36c93a52f0f4fb21d4beffae9b42a33f0"),
    ("long_sequence", "edsr"): (
        "ba9e1fd003bda7ddf888277490bcd161d576befdcfbaf13915483c776845ca8e",
        "b369853f248d145e7f609be1484eda609a6022b88baac9ea58c4649fb39d9061",
        "e10ee9929bf54b77c390377593936345320d84b649167d47a328eec274c7341c"),
    ("long_sequence", "der"): (
        "0a4351b5c8260b82609e2f34241d28f782e1c14b8b2d55e2c18b9fef82c5e365",
        "76e20ce9ff13f1831d6837b33953a502c22f35eaaeca08d73018b123b1cbf10f",
        "f1ab89d70f4b78b34c50d08c42df81e7f55e063ea87785db5dc9387cd033a046"),
    ("long_sequence", "lump"): (
        "675c36db034d33829ddb5be2c80e9228f27a1df097d3c79cdf6df0f66a2072c6",
        "e265b41532bf5057652bd7b1c59b2eb62c6cd1ec165a809b80a69a8438b1b935",
        "4edb50c51be574b2c2a50e0bde17544dc4e0511292f30116c48139310c3f7446"),
}

#: (objective, method) -> (matrix sha256, manifest-checksums sha256)
OBJECTIVE_GOLDEN = {
    ("barlow", "finetune"): (
        "21794191f431a9d2272101ded67e5e880a1093b15ec1cf2aa87ea8295b8676f8",
        "780402ee0416cc2bfe9f4bd73cfae649a147a45ebbf59c37920ef4e8552f156c"),
    ("barlow", "cassle"): (
        "d3b2a5ca139cde1ca30dd3ee1067f5cfc1bbae13ef83b47bc2759c8b11799891",
        "c2d5731fd3baa1875cdf4ca645d9f571f0e9045cd5fad89f250f646eaf4dcb17"),
    ("barlow", "edsr"): (
        "eb31c3a7e74807e87645e282031b4b17a33f7b0841b095fe575c62b319ae8749",
        "d821d0df0a092572b48e46817102a94d6aab7303c730ca6640479e4603e4c485"),
    ("byol", "finetune"): (
        "940e1f589b672c085c3c6649e1a07e21a1cca76719de0ab870c08c1bb056de0a",
        "7ff07d3cdaafcb0c33270a2f4917903e5b050613dbd8057633441946e50970f7"),
    ("byol", "cassle"): (
        "b965aa8fb820203f12bba650c1ba9cd0a046007e0509c574c38c54234cc7d895",
        "0eccec88e7d706c58d3d244e9ffecff09a58f2d87a7ea58c020657e012fd1f53"),
    ("byol", "edsr"): (
        "607edf9d137f258813527c1ee07d5444ab37cad0bac962120ea1e79e97e94b01",
        "073ec2bf8e1a46c72364d4bcaae39a8cc368014d7deb77b4e494c6828d229eb5"),
}

#: probe -> sha256 of ``run_multitask``'s float64 per-task accuracies
MULTITASK_GOLDEN = {
    "knn": "cc143326a2646c605ea66139d7b440df7cbde18c050f1f8cf4dd30f42cfe7123",
    "linear": "fe7552dc45fc605563c512e2475b3d76d85fe57165426cdbcc393c93bf54a819",
}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def last_checksums(directory):
    """The per-array ``checksums`` of the last checkpoint manifest."""
    last = CheckpointManager(directory).manifest_paths()[-1]
    return json.loads(last.read_text(encoding="utf-8"))["checksums"]


def run_digests(method, config, sequence, directory):
    """Train one checkpointed run; return its result, matrix and digests."""
    result, transfer = run_method(method, sequence, config, seed=SEED,
                                  checkpoint_dir=directory)
    matrix = np.ascontiguousarray(result.accuracy_matrix, dtype=np.float64)
    checksums = last_checksums(directory)
    digests = (sha256(matrix.tobytes()),
               sha256(json.dumps(checksums, sort_keys=True).encode()),
               sha256((directory / "transfer-matrix.json").read_bytes()))
    return result, transfer, digests


@pytest.mark.parametrize("method", sorted(GOLDEN))
def test_image_run_digests_are_pinned(method, fast_config, tiny_sequence,
                                      tmp_path):
    config = fast_config.with_overrides(epochs=1,
                                        scenario="class_incremental")
    _, _, digests = run_digests(method, config, tiny_sequence, tmp_path)
    assert digests[:2] == GOLDEN[method]


@pytest.mark.parametrize("objective,method", sorted(OBJECTIVE_GOLDEN))
def test_objective_run_digests_are_pinned(objective, method, fast_config,
                                          tiny_sequence, tmp_path):
    config = fast_config.with_overrides(epochs=1, objective=objective,
                                        scenario="class_incremental")
    _, _, digests = run_digests(method, config, tiny_sequence, tmp_path)
    assert digests[:2] == OBJECTIVE_GOLDEN[objective, method]


@pytest.mark.parametrize("probe", sorted(MULTITASK_GOLDEN))
def test_multitask_accuracies_are_pinned(probe, fast_config, tiny_sequence):
    config = fast_config.with_overrides(epochs=1, probe=probe)
    result = run_multitask(tiny_sequence, config, seed=SEED)
    per_task = np.asarray(result.per_task, dtype=np.float64)
    assert sha256(per_task.tobytes()) == MULTITASK_GOLDEN[probe]
