"""``sorted_unique`` against ``np.unique`` on integer label arrays."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.utils.arrays import sorted_unique

#: Label arrays: empty, one value, repeats and negatives, in two dtypes.
LABELS = hnp.arrays(
    dtype=st.sampled_from([np.int64, np.int32]),
    shape=st.integers(0, 40),
    elements=st.integers(-5, 5))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(labels=LABELS)
def test_sorted_unique_matches_np_unique(labels):
    got = sorted_unique(labels)
    want = np.unique(labels)
    assert got.dtype == want.dtype
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def test_sorted_unique_edge_cases():
    assert sorted_unique(np.array([], dtype=np.int64)).tolist() == []
    assert sorted_unique(np.array([7])).tolist() == [7]
    assert sorted_unique(np.array([3, 3, 3])).tolist() == [3]
    assert sorted_unique(np.array([2, -1, 2, -3, -1])).tolist() == [-3, -1, 2]
    # A 2-D input is flattened, as np.unique does.
    assert sorted_unique(np.array([[1, 0], [1, 2]])).tolist() == [0, 1, 2]
