"""Every CLI command's output files, pinned byte for byte by SHA-256.

Each case runs one or more commands at small fixed sizes in a fresh
directory, with the manifest timestamp pinned and relative paths (the
report records input paths as given), then hashes every file the commands
left behind. A refactor that keeps behaviour keeps these hashes; a change
that alters any output on purpose must say so and update them.
"""

import hashlib
import json
import sys

import pytest

from tsadeval.cli import main

TIMESTAMP = "2026-01-01T00:00:00+00:00"

LABELS = [0] * 60
for _start, _end in [(5, 9), (20, 29), (45, 47)]:
    LABELS[_start : _end + 1] = [1] * (_end - _start + 1)
PREDICTIONS = [1 if i % 7 == 0 or 22 <= i <= 24 else 0 for i in range(60)]
# a few tied values, higher inside the events
SCORES = [round((i * 37 % 11) / 10 + 0.8 * LABELS[i], 2) for i in range(60)]
SPEC = {
    "total_points": 400,
    "event_lengths": [20, 10, 30],
    "n_channels": 3,
    "anomaly_signal": "mean-shift",
    "seed": 7,
}
# end-exclusive bounds; the second event is one point short of the labels
EVENTS_END_EXCLUSIVE = [(5, 10), (20, 29), (45, 48)]

INPUTS = {
    "labels.csv": "label\n" + "".join(f"{v}\n" for v in LABELS),
    "predictions.csv": "prediction\n" + "".join(f"{v}\n" for v in PREDICTIONS),
    "scores.csv": "score\n" + "".join(f"{v!r}\n" for v in SCORES),
    "spec.json": json.dumps(SPEC, sort_keys=True) + "\n",
    "events.csv": "start,end\n"
    + "".join(f"{s},{e}\n" for s, e in EVENTS_END_EXCLUSIVE),
}

SYNTH = [
    "synth", "--spec", "spec.json", "--out-file", "test.csv",
    "--train-points", "300", "--train-out", "train.csv",
    "--events-out", "synth_events.csv",
]

CASES = {
    "evaluate-predictions": (
        [["evaluate", "--labels", "labels.csv",
          "--predictions", "predictions.csv", "--out", "out"]],
        {
            "out/report.csv": (
                "eb358bdfe24a4e983354b6ac9a0ed42b728be0c6c8a5d4af395f5453dca89836"
            ),
            "out/report.json": (
                "489fb8ca6e969bc76fbbd692c8c5bff7b60a992de8834e4ec7a43c346154b851"
            ),
        },
    ),
    "evaluate-scores": (
        [["evaluate", "--labels", "labels.csv", "--scores", "scores.csv",
          "--out", "out"]],
        {
            "out/report.csv": (
                "27049a0effd66417640d80ae8ded73c2036584add46ec6245191f7a7ea7684f6"
            ),
            "out/report.json": (
                "296616d3c0b92dd124c74536e3673fe49372707919beb02d779508f6b8922e75"
            ),
        },
    ),
    "attack-single-segment": (
        [["attack", "--total-points", "300", "--segment-length", "30",
          "--alpha", "10", "--trials", "200", "--seed", "5",
          "--protocols", "point-adjust,composite", "--out", "out"]],
        {
            "out/distribution.csv": (
                "b65146358987f5661cbae31f64d802aec83cc22d5f13b63617d97475663d5679"
            ),
            "out/report.json": (
                "bd73a261eb325d38e0cdc37dcc2a4fd859a2ff669a0e88c1948783f2a3951a22"
            ),
        },
    ),
    "attack-synthetic-spec": (
        [["attack", "--synthetic-spec", "spec.json", "--alpha", "15",
          "--trials", "50", "--seed", "3", "--out", "out"]],
        {
            "out/report.json": (
                "1692c01f28e0e2c94fa1b6bfed1234c24bbd47908c232abf8d2813bb76d8061c"
            ),
        },
    ),
    "attack-cdf-bernoulli": (
        [["attack-cdf", "--total-points", "200", "--segment-length", "20",
          "--alpha", "8", "--model", "bernoulli-approx", "--out", "out"]],
        {
            "out/distribution.csv": (
                "ce1ef09ebe47befd6eb6a06f363cc96d3aa8cc088a17fe566c675a815ef732df"
            ),
            "out/report.json": (
                "4c4fa3d9b2bc7c7bfba371593ca488ed13fdd79db1b24f43454df79f250c9c6e"
            ),
        },
    ),
    "attack-cdf-hypergeometric": (
        [["attack-cdf", "--total-points", "200", "--segment-length", "20",
          "--alpha", "8", "--model", "exact-hypergeometric", "--out", "out"]],
        {
            "out/distribution.csv": (
                "9095f818e74bec0a5ab4204967f052c875724059e50c4decf38785b6287fdd2b"
            ),
            "out/report.json": (
                "22d2ea078d57939ef7402dcd1227cebaef598b672bc1ffb4c7d691af2f6c3eda"
            ),
        },
    ),
    "attack-worst": (
        [["attack-worst", "--segment-length", "20", "--contamination", "0.05",
          "--alpha-max", "30", "--alpha-step", "3", "--out", "out"]],
        {
            "out/report.json": (
                "3817faf5435e2f3ebdd0da59cd659e900486ce7bd051d810a9bb1e3625b0d16d"
            ),
            "out/worst_case.csv": (
                "b8a69e6ba8808bac0e52215ea304a74f2ba81b87d08c4afa107401becd353b8c"
            ),
        },
    ),
    "far-study": (
        [["far-study", "--far-points", "8", "--shapes", "1000:500,1000:10",
          "--out", "out"]],
        {
            "out/far_study.csv": (
                "961765392f23ee0204faf881e3a7a8039c7af1ad61768185c0ed82a0a5868d71"
            ),
            "out/report.json": (
                "642d08e509529cdb7ae9deb010e7160bfb1e0ac275d03e7f143b8e53370dde4d"
            ),
        },
    ),
    "synth": (
        [SYNTH],
        {
            "synth_events.csv": (
                "1a8ce8b7d077e6b0d18c0ba6cf2b2a382bf69073e405d724a8b100bb65cbe4e3"
            ),
            "test.csv": (
                "a89e816e14ff90b39f38d8264768e48e5598f94e96e1a8a9d19e385deea4e90c"
            ),
            "test.csv.manifest.json": (
                "595903f08c51109a871262ab7754b74ab82c1be4f4533958f7c2c70c5fd06c92"
            ),
            "train.csv": (
                "a639abdc800fd46af1c2b0552c117cf136d6a486ac06d09e3041b0848ec4b4ac"
            ),
        },
    ),
    "baseline": (
        [SYNTH, ["baseline", "--train", "train.csv", "--test", "test.csv",
                 "--out", "out"]],
        {
            "out/model.npz": (
                "7a482b5a52d8acefe15acdf83adefdf5f55eed300041a56b96025f89bd9d8906"
            ),
            "out/report.csv": (
                "2137687993a9f439bbda218c88ef2cf0cc7af1ea4acce40ae4b713537c9131e8"
            ),
            "out/report.json": (
                "523af2d83a16d02b74bd2ca9a86cb00f40b12a089a53725bebe231a27729adfc"
            ),
            "out/scores.csv": (
                "a279ca03f3bdf0aa6c2fee6e08cbff20d9d7286a0d4d8d7a4ae9c840b41a43a5"
            ),
            "synth_events.csv": (
                "1a8ce8b7d077e6b0d18c0ba6cf2b2a382bf69073e405d724a8b100bb65cbe4e3"
            ),
            "test.csv": (
                "a89e816e14ff90b39f38d8264768e48e5598f94e96e1a8a9d19e385deea4e90c"
            ),
            "test.csv.manifest.json": (
                "595903f08c51109a871262ab7754b74ab82c1be4f4533958f7c2c70c5fd06c92"
            ),
            "train.csv": (
                "a639abdc800fd46af1c2b0552c117cf136d6a486ac06d09e3041b0848ec4b4ac"
            ),
        },
    ),
    "check-labels": (
        [["check-labels", "--labels", "labels.csv", "--events", "events.csv",
          "--end-exclusive", "--out", "out"]],
        {
            "out/report.json": (
                "62715e793b6e551bded61cae7a0da86b76e06d97727fca43be12311454440430"
            ),
        },
    ),
}


def _sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("case", sorted(CASES))
def test_outputs_match_pinned_hashes(case, tmp_path, monkeypatch):
    runs, expected = CASES[case]
    monkeypatch.setenv("TSADEVAL_TIMESTAMP", TIMESTAMP)
    monkeypatch.delenv("TSADEVAL_OUT", raising=False)
    monkeypatch.chdir(tmp_path)
    for name, text in INPUTS.items():
        (tmp_path / name).write_text(text)
    for argv in runs:
        # the manifest records sys.argv, not the argv given to main
        monkeypatch.setattr(sys, "argv", ["tsadeval", *argv])
        assert main(argv) == 0
    produced = {
        path.relative_to(tmp_path).as_posix(): _sha256(path)
        for path in sorted(tmp_path.rglob("*"))
        if path.is_file() and path.relative_to(tmp_path).as_posix() not in INPUTS
    }
    assert produced == expected
