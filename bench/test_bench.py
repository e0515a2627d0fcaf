"""The benchmark's own tests: smoke runs against the pins and BENCHMARK.json.

    python3 -m pytest -q bench/test_bench.py

Each workload runs once per trace mode at smoke size (small boxes, a few
seconds in all); the result must be correct and carry exactly the metric
names and units BENCHMARK.json declares.
"""

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path.insert(0, str(BENCH))

import surfaces  # noqa: E402


def bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "bench" / "run.py"), *args],
        capture_output=True, text=True, timeout=170, cwd=cwd,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_is_correct_and_complete(workload, trace):
    proc = bench("--workload", workload, "--seed", "3", "--seconds", "0",
                 "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, proc.stderr
    assert result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }


def test_without_sources_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "g0-wide", "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_generator_is_seeded_and_stays_in_the_pinned_universe():
    first = surfaces.sample(random.Random(11), 20)
    assert first == surfaces.sample(random.Random(11), 20)
    assert first != surfaces.sample(random.Random(12), 20)
    assert set(first) <= set(surfaces.universe())


def test_generator_agrees_with_the_engine_on_semi_fano():
    sys.path.insert(0, str(ROOT / "src"))
    from semifano.cli import parse_input
    from semifano.fans import is_semi_fano, validate_fan

    for rays in {rays for rays, _ in surfaces.universe()}:
        assert min(surfaces.self_intersections(rays)) >= -2
        fan, _, _ = parse_input(surfaces.document(rays))
        assert validate_fan(fan) == []
        assert is_semi_fano(fan)[0]
