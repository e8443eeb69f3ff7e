"""Working set of the frame-sized pipelines: fit, score_frame and the
synthetic generator's backbone reuse one buffer across their elementwise
steps, so each holds a bounded number of frame-sized arrays at once.

numpy reports its buffers to tracemalloc, so the traced peak above the
start counts the arrays a call holds at its widest point."""

import tracemalloc

import numpy as np
import pytest

from tsadeval import data_io
from tsadeval.data_io import MvtsFrame
from tsadeval.pca_baseline import fit, score_frame

ROWS, CHANNELS = 50_000, 8


def working_set(call) -> int:
    """Peak traced bytes above the start while call runs."""
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        call()
        return tracemalloc.get_traced_memory()[1] - start
    finally:
        if not tracing:
            tracemalloc.stop()


@pytest.fixture(scope="module")
def frame():
    rng = np.random.default_rng(0)
    return MvtsFrame(rng.standard_normal((ROWS, CHANNELS)))


@pytest.fixture(scope="module")
def model(frame):
    return fit(frame)


# (largest multiple of the frame's bytes, a call on the frame); the arrays
# each holds at its peak are named in its docstring
CASES = {
    "fit": (2.9, lambda frame, model: fit(frame)),
    "score_frame": (4.0, lambda frame, model: score_frame(model, frame)),
    "_backbone": (
        2.5,
        lambda frame, model: data_io._backbone(
            ROWS, CHANNELS, np.random.default_rng(1)
        ),
    ),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_frame_sized_arrays_are_reused(case, frame, model):
    bound, call = CASES[case]
    call(frame, model)  # a first call pays for any lazy imports
    ratio = working_set(lambda: call(frame, model)) / frame.values.nbytes
    assert ratio < bound, f"{case} held {ratio:.2f} frames at its peak"
