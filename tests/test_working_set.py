"""Working set of the frame-sized pipelines: fit, score_frame and the
synthetic generator's backbone reuse one buffer across their elementwise
steps, so each holds a bounded number of frame-sized arrays at once. A
frame keeps one copy of the values it is given, and load_frame makes no
second one.

numpy reports its buffers to tracemalloc, so the traced peak above the
start counts the arrays a call holds at its widest point."""

import tracemalloc

import numpy as np
import pytest

from tsadeval import data_io
from tsadeval.data_io import MvtsFrame, load_frame, write_frame
from tsadeval.metrics import LabelSeries
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


@pytest.fixture(scope="module")
def csvs(frame, tmp_path_factory):
    """The frame as a CSV with a label column, the same with every body cell
    quoted, and the frame as a CSV without labels."""
    folder = tmp_path_factory.mktemp("frames")
    labels = LabelSeries(np.arange(ROWS) % 100 < 3)
    names = ("labelled", "quoted", "plain")
    paths = {name: folder / f"{name}.csv" for name in names}
    write_frame(MvtsFrame(frame.values, labels=labels), paths["labelled"])
    header, *body = paths["labelled"].read_text().splitlines()
    quoted = ('"' + line.replace(",", '","') + '"' for line in body)
    paths["quoted"].write_text("\n".join([header, *quoted]) + "\n")
    write_frame(frame, paths["plain"])
    return paths


# (largest multiple of the frame's bytes, a call on the frame); the arrays
# each holds at its peak are named in its docstring. A frame's own copy is
# one frame; load_frame's parsed block is one more (with a label column, a
# ninth column), and a second copy anywhere on the load path passes 2.5.
CASES = {
    "fit": (2.9, lambda frame, model, csvs: fit(frame)),
    "score_frame": (4.0, lambda frame, model, csvs: score_frame(model, frame)),
    "_backbone": (
        2.5,
        lambda frame, model, csvs: data_io._backbone(
            ROWS, CHANNELS, np.random.default_rng(1)
        ),
    ),
    "MvtsFrame": (1.3, lambda frame, model, csvs: MvtsFrame(frame.values)),
    "load_frame-labelled": (
        2.5, lambda frame, model, csvs: load_frame(csvs["labelled"])
    ),
    "load_frame-plain": (
        2.5, lambda frame, model, csvs: load_frame(csvs["plain"])
    ),
    # csv.reader's records, converted a block of rows at a time
    "load_frame-quoted": (
        2.5, lambda frame, model, csvs: load_frame(csvs["quoted"])
    ),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_frame_sized_arrays_are_reused(case, frame, model, csvs):
    bound, call = CASES[case]
    call(frame, model, csvs)  # a first call pays for any lazy imports
    ratio = working_set(lambda: call(frame, model, csvs)) / frame.values.nbytes
    assert ratio < bound, f"{case} held {ratio:.2f} frames at its peak"
