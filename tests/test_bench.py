"""tools/bench.py, the writer of BENCH_<label>.json files, on tiny sizes."""

import importlib.util
import json
import math
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture
def bench(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT))
    spec = importlib.util.spec_from_file_location(
        "bench", ROOT / "tools" / "bench.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_writes_every_workload_and_refuses_to_overwrite(bench, tmp_path):
    from perfbench.run import WORKLOAD_NAMES
    from perfbench.test_perfbench import TINY

    path = bench.write_bench("tiny", 0, 3, tmp_path, TINY)
    assert path == tmp_path / "BENCH_tiny.json"
    record = json.loads(path.read_text())
    assert set(record) == {
        "label", "seed", "seconds", "commit", "dirty", "cores", "python",
        "numpy", "workloads",
    }
    assert [record[key] for key in ("label", "seed", "seconds")] == [
        "tiny", 3, 0
    ]
    assert record["cores"] >= 1
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert list(record["workloads"]) == list(WORKLOAD_NAMES)
    for workload in record["workloads"].values():
        assert workload["correct"] and workload["failed"] == 0
        assert workload["attempted"] >= 2
        for key in ("end_to_end", "per_layer"):
            metrics = workload[key]
            assert list(metrics) == [m["name"] for m in spec[key]]
            assert all(math.isfinite(m["value"]) for m in metrics.values())
    with pytest.raises(FileExistsError):
        bench.write_bench("tiny", 0, 3, tmp_path, TINY)
    assert json.loads(path.read_text()) == record
