"""The benchmark's own test: reduced-size runs emit every declared metric
with its unit, and a corrupted result fails the correctness gate.

    python3 -m pytest perfbench/test_perfbench.py -q
"""

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def _bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def _result(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def test_spec_names_the_workloads_and_metrics_the_code_emits():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.E2E_UNITS
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.per_layer_units()


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_small_run_emits_every_metric_with_its_unit(workload, trace):
    proc = _bench("--workload", workload, "--seed", "5", "--seconds", "1",
                  "--trace", str(trace), "--small")
    assert proc.returncode == 0, proc.stderr
    result = _result(proc.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_corrupted_record_drives_error_rate_above_zero(monkeypatch, capsys):
    from repro.network import sweep

    original = sweep.run_point

    def corrupted(spec, *args, **kwargs):
        rec = original(spec, *args, **kwargs)
        return replace(rec, delivered=rec.delivered + 1) if spec.load > 0.5 else rec

    monkeypatch.setattr(sweep, "run_point", corrupted)
    # run.main points these at the benchmark's own directories; undo that
    for var in ("TMPDIR", "REPRO_CACHE_DIR", "REPRO_BACKEND", "REPRO_NATIVE_CFLAGS"):
        monkeypatch.delenv(var, raising=False)
    assert run.main(["--workload", "sf-sweep", "--seed", "5", "--seconds", "1",
                     "--trace", "0", "--small"]) == 0
    result = _result(capsys.readouterr().out)
    assert result["correct"] is False
    assert 0 < result["failed"] <= result["attempted"]


def test_corrupted_count_fails_paper_math(tmp_path):
    workload = WORKLOADS["paper-math"](5, tmp_path, small=True)
    workload.setup()
    result = workload.run_pass()
    assert workload.check(result) == []
    rows, counts = result.outputs
    f = workload.reps[-1]
    v, e, sq, av, ae = counts[f]
    counts[f] = (v, e + 1, sq, av, ae)
    assert workload.check(result) == [f"edges {f}", "pass outputs differ from the first pass"]


def test_fails_without_the_program_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", "sf-sweep", "--seed", "1", "--seconds", "1",
                  "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert not proc.stdout.strip()


def test_host_clock_scales_by_the_nearest_chunks():
    from hostclock import MIN_SAMPLES, REF_CHUNK_S, HostClock

    m = MIN_SAMPLES
    clock = HostClock()
    assert clock.norm(1.0, 3.0) == 2.0  # no chunks taken: raw length
    # a host running at half speed from t=2m on
    clock.times = [float(t) for t in range(4 * m)]
    clock.chunks = [REF_CHUNK_S] * (2 * m) + [2 * REF_CHUNK_S] * (2 * m)
    assert clock.norm(0.0, m / 2) == pytest.approx(m / 2)
    assert clock.norm(3.5 * m, 4 * m - 1.0) == pytest.approx((0.5 * m - 1) / 2)
    # a short interval borrows its MIN_SAMPLES nearest chunks
    assert clock.norm(3 * m + 0.2, 3 * m + 0.4) == pytest.approx(0.1)
    assert clock.scale(1.0, 3 * m, 3 * m) == 0.5
    # a long interval is scaled piece by piece, so it adds up over a change
    whole = clock.norm(0.0, 4 * m - 1.0)
    assert whole == pytest.approx(clock.norm(0.0, 2.0 * m) + clock.norm(2.0 * m, 4 * m - 1.0))
    assert (4 * m - 1.0) / 2 < whole < 4 * m - 1.0
    # at either end the window widens inwards
    assert clock.local_chunk(0.0, 0.0) == REF_CHUNK_S
    assert clock.local_chunk(4 * m - 1.0, 4 * m - 1.0) == 2 * REF_CHUNK_S
    # straddling the change: the middle half holds as many fast as slow chunks
    assert clock.local_chunk(2.0 * m, 2.0 * m) == pytest.approx(1.5 * REF_CHUNK_S)


def test_chunks_stay_out_of_the_work_clock():
    from hostclock import HostClock

    clock = HostClock()
    clock.tick()
    assert not clock.chunks  # sampling is off
    clock.start(timer=False)
    start = clock.now()
    for _ in range(5):
        clock.tick()
    stop = clock.now()
    clock.stop()
    assert len(clock.chunks) == 5
    assert stop - start < 0.2 * sum(clock.chunks)
