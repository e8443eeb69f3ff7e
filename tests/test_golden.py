"""Every CLI command's output files, pinned byte for byte by SHA-256.

Each case runs one or more commands at small fixed sizes in a fresh
directory, with the manifest timestamp pinned and relative paths (the
report records input paths as given), then hashes every file the commands
left behind and compares everything they printed to stdout. A refactor
that keeps behaviour keeps these hashes and that text; a change that
alters any output on purpose must say so and update them.
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
    # no events: every threshold scores point-wise F1 0, so the sweep's
    # first candidate, +inf, wins
    "normal_labels.csv": "label\n" + "0\n" * len(LABELS),
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
                "747a197acacbc9babf18e886bef380f1ce5ec543a871467766489636aec55a29"
            ),
        },
        (
            "protocol        precision     recall         f1        far\n"
            "----------------------------------------------------------\n"
            "point-wise       0.500000   0.333333   0.400000   0.142857\n"
            "point-adjust     0.714286   0.833333   0.769231   0.142857  (deprecated)\n"
            "composite        0.500000   0.666667   0.571429   0.142857\n"
            "event-wise       0.214286   0.666667   0.324324   0.142857\n"
        ),
    ),
    "evaluate-scores": (
        [["evaluate", "--labels", "labels.csv", "--scores", "scores.csv",
          "--out", "out"]],
        {
            "out/report.csv": (
                "27049a0effd66417640d80ae8ded73c2036584add46ec6245191f7a7ea7684f6"
            ),
            "out/report.json": (
                "f53bed0f4d0d74b9ed16cc1a376317733e7032f799f387b090a7fcd5cd62d050"
            ),
        },
        (
            "protocol        precision     recall         f1        far\n"
            "----------------------------------------------------------\n"
            "point-wise       1.000000   0.722222   0.838710   0.000000\n"
            "point-adjust     1.000000   1.000000   1.000000   0.000000  (deprecated)\n"
            "composite        1.000000   1.000000   1.000000   0.000000\n"
            "event-wise       1.000000   1.000000   1.000000   0.000000\n"
        ),
    ),
    "evaluate-scores-fixed-subset": (
        [["evaluate", "--labels", "labels.csv", "--scores", "scores.csv",
          "--threshold-policy", "fixed:0.9",
          "--protocols", "event-wise,point-wise", "--out", "out"]],
        {
            "out/report.csv": (
                "fae9f14e53f96991fa1204efbaf9a51a6e0a4dc7a0b11e3692c4be3dc41f81a3"
            ),
            "out/report.json": (
                "a6a51513e2c79043dd1624277f7aac530e48986f84b9fb834a77a43a7e61b606"
            ),
        },
        (
            "protocol        precision     recall         f1        far\n"
            "----------------------------------------------------------\n"
            "event-wise       0.312500   1.000000   0.476190   0.166667\n"
            "point-wise       0.708333   0.944444   0.809524   0.166667\n"
        ),
    ),
    "evaluate-scores-all-normal": (
        [["evaluate", "--labels", "normal_labels.csv", "--scores", "scores.csv",
          "--out", "out"]],
        {
            "out/report.csv": (
                "90f282c272042364602950b28d1b8012246215886a0c3ff6c7d1fc953bfa0419"
            ),
            "out/report.json": (
                "5bdc6e4e874ecd66362b0fd2e6b6e98cde8b00f539159ca1d7f6aaa46e46d93d"
            ),
        },
        (
            "protocol        precision     recall         f1        far\n"
            "----------------------------------------------------------\n"
            "point-wise       0.000000   0.000000   0.000000   0.000000\n"
            "point-adjust     0.000000   0.000000   0.000000   0.000000  (deprecated)\n"
            "composite        0.000000   0.000000   0.000000   0.000000\n"
            "event-wise       0.000000   0.000000   0.000000   0.000000\n"
        ),
    ),
    # every point flagged
    "evaluate-scores-fixed-neg-inf": (
        [["evaluate", "--labels", "labels.csv", "--scores", "scores.csv",
          "--threshold-policy", "fixed:-inf", "--out", "out"]],
        {
            "out/report.csv": (
                "60442b316e6c3a81948233926116086dbd5e32d4810cb33a09556e7e4fe11f29"
            ),
            "out/report.json": (
                "b90bb7f8431d8cd6fcf1578c5833765685903559a0d90858e5f7f5c328bea03a"
            ),
        },
        (
            "protocol        precision     recall         f1        far\n"
            "----------------------------------------------------------\n"
            "point-wise       0.300000   1.000000   0.461538   1.000000\n"
            "point-adjust     0.300000   1.000000   0.461538   1.000000  (deprecated)\n"
            "composite        0.300000   1.000000   0.461538   1.000000\n"
            "event-wise       0.000000   1.000000   0.000000   1.000000\n"
        ),
    ),
    "attack-single-segment": (
        [["attack", "--total-points", "300", "--segment-length", "30",
          "--alpha", "10", "--trials", "200", "--seed", "5",
          "--protocols", "point-adjust,composite", "--out", "out"]],
        {
            "out/distribution.csv": (
                "731f593a55f104c41d10308741e28c9bbf198bba6190f9f3c3853dfcea0999f6"
            ),
            "out/report.json": (
                "47f48ca4aa99ff070375577145e5c0ccce7f847661f79a992dd3e9a05b42a672"
            ),
        },
        (
            "random flagger, alpha=10, 200 trials over 300 points / 1 event(s)\n"
            "  point-adjust   mean F1 0.561619  median 0.869565  q95 0.895522  (deprecated)\n"
            "  composite      mean F1 0.173515  median 0.181818  q95 0.461538\n"
        ),
    ),
    "attack-synthetic-spec": (
        [["attack", "--synthetic-spec", "spec.json", "--alpha", "15",
          "--trials", "50", "--seed", "3", "--out", "out"]],
        {
            "out/report.json": (
                "c01cf722d6ad64698926e46fb03a16f18ff4f093b190738d37bf1542df1d4702"
            ),
        },
        (
            "random flagger, alpha=15, 50 trials over 400 points / 3 event(s)\n"
            "  point-wise     mean F1 0.062933  median 0.053333  q95 0.121333\n"
            "  point-adjust   mean F1 0.647230  median 0.588292  q95 0.916031  (deprecated)\n"
            "  composite      mean F1 0.238115  median 0.222222  q95 0.433918\n"
            "  event-wise     mean F1 0.194660  median 0.215096  q95 0.343484\n"
        ),
    ),
    "attack-cdf-bernoulli": (
        [["attack-cdf", "--total-points", "200", "--segment-length", "20",
          "--alpha", "8", "--model", "bernoulli-approx", "--out", "out"]],
        {
            "out/distribution.csv": (
                "08cebb7420ef637b4a1f92b416c934e137178100940a65dd9f62dfe65195fd27"
            ),
            "out/report.json": (
                "65cc5b5d810dcb3568e4e7f5cfd969fc18905f1954aac75edc4835cf9ce179be"
            ),
        },
        (
            "P(F1=0) = 0.430467, mean F1 = 0.489014 (bernoulli-approx)\n"
        ),
    ),
    "attack-cdf-hypergeometric": (
        [["attack-cdf", "--total-points", "200", "--segment-length", "20",
          "--alpha", "8", "--model", "exact-hypergeometric", "--out", "out"]],
        {
            "out/distribution.csv": (
                "f849a8b9227330b16837ff5804039b7edeed14eb536cd71790fa752eeb54fc29"
            ),
            "out/report.json": (
                "ca9fda832c90b020d7969b38970bbb6ae864a30c9e76ef9eacd8a3975890fd48"
            ),
        },
        (
            "P(F1=0) = 0.423644, mean F1 = 0.494690 (exact-hypergeometric)\n"
        ),
    ),
    "attack-worst": (
        [["attack-worst", "--segment-length", "20", "--contamination", "0.05",
          "--alpha-max", "30", "--alpha-step", "3", "--out", "out"]],
        {
            "out/report.json": (
                "dcd242803d1fafd89df46b19bfd723845d4d6ac4755ccf427f71e804241d5a20"
            ),
            "out/worst_case.csv": (
                "b8a69e6ba8808bac0e52215ea304a74f2ba81b87d08c4afa107401becd353b8c"
            ),
        },
        (
            "10 rows; at alpha=28: P(perfect recall)=0.762173, worst F1=0.597015\n"
        ),
    ),
    "far-study": (
        [["far-study", "--far-points", "8", "--shapes", "1000:500,1000:10",
          "--out", "out"]],
        {
            "out/far_study.csv": (
                "961765392f23ee0204faf881e3a7a8039c7af1ad61768185c0ed82a0a5868d71"
            ),
            "out/report.json": (
                "78de82e4ba123a2f5a4eed4280443aa3c3802a9d02b3fd2f3f9920a0900e738e"
            ),
        },
        (
            "8 x 2 expected-F1 grid written; F1 spans [0.090041, 0.993976]\n"
        ),
    ),
    "synth": (
        [SYNTH],
        {
            "synth_events.csv": (
                "1a8ce8b7d077e6b0d18c0ba6cf2b2a382bf69073e405d724a8b100bb65cbe4e3"
            ),
            "test.csv": (
                "174676d99ef694b8b992a93f476252618acf51dd3261b6007af2f9b787e11c4a"
            ),
            "test.csv.manifest.json": (
                "4aa1219cb50cf3d94716fd78faefdcd7810e7abcb8665ae89d73888a4218a693"
            ),
            "train.csv": (
                "1dbfd80c1829da06d9021955c8ae5da9f4aa95d1bd44f9523e819bf3a4a18f67"
            ),
        },
        (
            "wrote train.csv, test.csv, synth_events.csv; 3 events over 400 points\n"
        ),
    ),
    "baseline": (
        [SYNTH, ["baseline", "--train", "train.csv", "--test", "test.csv",
                 "--out", "out"]],
        {
            "out/model.npz": (
                "c3c4e3b1d8960cbcd97ff1b886dd48592e294c27036c172d16c570153132e19e"
            ),
            "out/report.csv": (
                "2137687993a9f439bbda218c88ef2cf0cc7af1ea4acce40ae4b713537c9131e8"
            ),
            "out/report.json": (
                "bf6464b09160028aa312c4e776acb1b1c08d4231beedfdc95447a01a16a22b62"
            ),
            "out/scores.csv": (
                "9ff3fefdd7d075bda262622f796f66aa8c29a615f8c06e658a77eee99d40f78d"
            ),
            "synth_events.csv": (
                "1a8ce8b7d077e6b0d18c0ba6cf2b2a382bf69073e405d724a8b100bb65cbe4e3"
            ),
            "test.csv": (
                "174676d99ef694b8b992a93f476252618acf51dd3261b6007af2f9b787e11c4a"
            ),
            "test.csv.manifest.json": (
                "4aa1219cb50cf3d94716fd78faefdcd7810e7abcb8665ae89d73888a4218a693"
            ),
            "train.csv": (
                "1dbfd80c1829da06d9021955c8ae5da9f4aa95d1bd44f9523e819bf3a4a18f67"
            ),
        },
        (
            "wrote train.csv, test.csv, synth_events.csv; 3 events over 400 points\n"
            "PCA baseline: 2 of 3 components, threshold 1.03182\n"
            "protocol        precision     recall         f1        far\n"
            "----------------------------------------------------------\n"
            "point-wise       0.750000   0.650000   0.696429   0.038235\n"
            "point-adjust     0.821918   1.000000   0.902256   0.038235  (deprecated)\n"
            "composite        0.750000   1.000000   0.857143   0.038235\n"
            "event-wise       0.721324   1.000000   0.838103   0.038235\n"
        ),
    ),
    "check-labels": (
        [["check-labels", "--labels", "labels.csv", "--events", "events.csv",
          "--end-exclusive", "--out", "out"]],
        {
            "out/report.json": (
                "7dedca201d961e2afad5cda901f56af0ab56fefa6e5243135c641a99dce48899"
            ),
        },
        (
            "1 points only in the integrated labels, 0 only in the reconstruction, across 1 runs\n"
        ),
    ),
}


def _sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("case", sorted(CASES))
def test_outputs_match_pinned_hashes(case, tmp_path, monkeypatch, capsys):
    runs, expected, stdout = CASES[case]
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
    assert capsys.readouterr().out == stdout
