"""The benchmark's own tests; run with ``python3 -m pytest perfbench``."""

import json
import subprocess
import sys
from pathlib import Path

import compare
import run

HERE = Path(__file__).resolve().parent


def test_smoke_mode_prints_every_metric_and_catches_altered_csv():
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--smoke"],
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "smoke: ok" in proc.stdout


def test_benchmark_json_matches_the_tables():
    committed = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert committed == run.benchmark_json()


def test_compare_refuses_a_different_blas_configuration(tmp_path):
    result = {
        "workload": "logistic_smallbatch", "trace": 0,
        "provenance": {"kernel_backend": "numpy", "blas": "openblas 0.3", "blas_threads": "2"},
        "metrics": {"wall_s": {"value": 1.0, "unit": "s"}},
    }
    other = json.loads(json.dumps(result))
    other["provenance"]["blas_threads"] = "1"
    paths = [tmp_path / "a.json", tmp_path / "b.json"]
    for path, data in zip(paths, (result, other)):
        path.write_text(json.dumps(data))
    assert compare.main([str(p) for p in paths]) == 2
    assert compare.main([str(paths[0]), str(paths[0])]) == 0
