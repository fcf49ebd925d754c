"""Property tests: streams are pure functions of (seed, params).

The resume contract requires that a scenario stream rebuilt anywhere —
another process, after a crash — is bit-for-bit the stream the run
started with.  Hypothesis
drives the builders across their parameter space; a subprocess check
pins cross-process stability of the full construction pipeline.
"""

import hashlib
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.loader import DataLoader
from repro.scenarios import blurry_stream, task_free_stream

SEEDS = st.integers(min_value=0, max_value=2**31 - 1)


def stream_digest(stream) -> str:
    """A byte-level fingerprint of every segment's training arrays."""
    digest = hashlib.sha256()
    for segment in stream.segments:
        digest.update(segment.task.train.x.tobytes())
        digest.update(segment.task.train.y.tobytes())
        digest.update(str(segment.source_task).encode())
    return digest.hexdigest()


class TestBuilderPurity:
    @settings(max_examples=20, deadline=None)
    @given(seed=SEEDS, ratio=st.floats(min_value=0.0, max_value=0.9,
                                       allow_nan=False))
    def test_blurry_is_pure_in_seed_and_ratio(self, tiny_sequence, seed,
                                              ratio):
        first = blurry_stream(tiny_sequence, ratio=ratio, seed=seed)
        second = blurry_stream(tiny_sequence, ratio=ratio, seed=seed)
        assert stream_digest(first) == stream_digest(second)

    @settings(max_examples=20, deadline=None)
    @given(seed=SEEDS, segments=st.integers(min_value=1, max_value=5))
    def test_task_free_is_pure_in_seed_and_segments(self, tiny_sequence,
                                                    seed, segments):
        first = task_free_stream(tiny_sequence, segments_per_task=segments,
                                 seed=seed)
        second = task_free_stream(tiny_sequence, segments_per_task=segments,
                                  seed=seed)
        assert stream_digest(first) == stream_digest(second)

    @settings(max_examples=20, deadline=None)
    @given(seed=SEEDS, ratio=st.floats(min_value=0.0, max_value=0.9,
                                       allow_nan=False))
    def test_blurry_conserves_the_label_multiset(self, tiny_sequence, seed,
                                                 ratio):
        stream = blurry_stream(tiny_sequence, ratio=ratio, seed=seed)
        labels = np.concatenate([seg.task.train.y for seg in stream.segments])
        base = np.concatenate([t.train.y for t in tiny_sequence])
        np.testing.assert_array_equal(np.sort(labels), np.sort(base))

    @settings(max_examples=20, deadline=None)
    @given(seed=SEEDS, segments=st.integers(min_value=1, max_value=5))
    def test_task_free_conserves_samples_and_segment_count(
            self, tiny_sequence, seed, segments):
        stream = task_free_stream(tiny_sequence, segments_per_task=segments,
                                  seed=seed)
        assert len(stream) == segments * len(tiny_sequence)
        total = sum(len(t.train) for t in tiny_sequence)
        assert sum(len(seg.task.train) for seg in stream.segments) == total

    @settings(max_examples=10, deadline=None)
    @given(seed=SEEDS)
    def test_different_seeds_differ(self, tiny_sequence, seed):
        a = task_free_stream(tiny_sequence, segments_per_task=3, seed=seed)
        b = task_free_stream(tiny_sequence, segments_per_task=3, seed=seed + 1)
        assert stream_digest(a) != stream_digest(b)


class TestLoaderConsistency:
    """Seed-keyed loaders over stream segments iterate identically
    everywhere — the property a resumed run needs to replay its batches
    bit-for-bit."""

    @settings(max_examples=15, deadline=None)
    @given(seed=SEEDS, epoch=st.integers(min_value=0, max_value=8))
    def test_batch_label_sequence_is_pure(self, tiny_sequence, seed, epoch):
        stream = blurry_stream(tiny_sequence, ratio=0.3, seed=7)
        segment = stream.segments[1]
        sequences = []
        for _ in range(2):
            loader = DataLoader(segment.task.train, batch_size=16, seed=seed)
            loader.set_epoch(epoch)
            sequences.append([y.tolist() for _, y in loader])
        assert sequences[0] == sequences[1]

    @settings(max_examples=10, deadline=None)
    @given(seed=SEEDS)
    def test_set_epoch_reshuffles_consistently(self, tiny_sequence, seed):
        stream = task_free_stream(tiny_sequence, segments_per_task=2, seed=3)
        loader = DataLoader(stream.segments[0].task.train, batch_size=8,
                            seed=seed)
        orders = []
        for epoch in (0, 1, 0):
            loader.set_epoch(epoch)
            orders.append(np.concatenate([y for _, y in loader]))
        np.testing.assert_array_equal(orders[0], orders[2])
        # Epoch 1 is a different permutation of the same multiset.
        np.testing.assert_array_equal(np.sort(orders[0]), np.sort(orders[1]))


SUBPROCESS_SCRIPT = """
import hashlib
from repro.data.splits import class_incremental_split
from repro.data.synthetic import SyntheticImageConfig, make_image_dataset
from repro.scenarios import blurry_stream, task_free_stream

config = SyntheticImageConfig(n_classes=6, train_per_class=20,
                              test_per_class=10, image_size=8, seed=7,
                              name="tiny")
train, test = make_image_dataset(config)
sequence = class_incremental_split(train, test, 3)
for stream in (blurry_stream(sequence, ratio=0.3, seed=13),
               task_free_stream(sequence, segments_per_task=3, seed=13)):
    digest = hashlib.sha256()
    for segment in stream.segments:
        digest.update(segment.task.train.x.tobytes())
        digest.update(segment.task.train.y.tobytes())
        digest.update(str(segment.source_task).encode())
    print(digest.hexdigest())
"""


@pytest.mark.slow
def test_streams_are_identical_across_processes(tiny_sequence):
    blurry = blurry_stream(tiny_sequence, ratio=0.3, seed=13)
    free = task_free_stream(tiny_sequence, segments_per_task=3, seed=13)
    expected = [stream_digest(blurry), stream_digest(free)]
    output = subprocess.run(
        [sys.executable, "-c", SUBPROCESS_SCRIPT], check=True,
        capture_output=True, text=True).stdout.split()
    assert output == expected
