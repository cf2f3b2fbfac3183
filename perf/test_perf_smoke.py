"""Smoke test of the stopwatch benchmark: ``run.py --smoke`` on a small
untrained rig with shrunken workloads, checked against ``BENCHMARK.json``.

Collected by the tier-1 ``pytest`` run from the repo root.  The benchmark
runs in a subprocess, so a shim it failed to restore could not leak into the
rest of the suite.
"""

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from shim import SpanRecorder, Target, installed  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def run_py(*args, cwd=REPO, script=os.path.join(HERE, "run.py")):
    return subprocess.run([sys.executable, script, *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.fixture(scope="module")
def contract():
    with open(os.path.join(REPO, "BENCHMARK.json")) as handle:
        return json.load(handle)


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    out = tmp_path_factory.mktemp("perf") / "smoke.json"
    proc = run_py("--smoke", "--seconds", "0.2", "--out", str(out))
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(out.read_text()), proc.stdout, out


def test_every_workload_and_metric_of_the_contract_is_reported(contract, smoke):
    summary, _stdout, _path = smoke
    assert summary["claim"] is None
    assert list(summary["workloads"]) == [w["name"] for w in contract["workloads"]]
    for entry in summary["workloads"].values():
        for kind in ("end_to_end", "per_layer"):
            metrics = entry[kind]["metrics"]
            assert list(metrics) == [m["name"] for m in contract[kind]]
            for spec in contract[kind]:
                assert metrics[spec["name"]]["unit"] == spec["unit"]
                assert isinstance(metrics[spec["name"]]["value"], (int, float))
            assert entry[kind]["correct"] and entry[kind]["failed"] == 0
            assert entry[kind]["attempted"] >= 1


def test_names_and_units_are_well_formed(contract):
    names = [w["name"] for w in contract["workloads"]]
    names += [m["name"] for kind in ("end_to_end", "per_layer") for m in contract[kind]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    assert "setup_s" in [m["name"] for m in contract["end_to_end"]]
    assert all(0 <= m["bound"] <= 0.25 for m in contract["end_to_end"])


def test_last_line_of_a_single_run_is_the_result_object(contract):
    proc = run_py("--smoke", "--workload", "serve_closed_b16", "--seed", "3",
                  "--seconds", "0.1", "--trace", "0")
    assert proc.returncode == 0, proc.stderr[-2000:]
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(line) == RESULT_KEYS
    assert set(line["metrics"]) == {m["name"] for m in contract["end_to_end"]}
    assert all(metric["value"] > 0 for metric in line["metrics"].values())


def test_span_self_times_sum_to_the_traced_total(smoke):
    summary, _stdout, _path = smoke
    for name, entry in summary["workloads"].items():
        traced = entry["per_layer"]
        assert traced["spans"] > 0
        assert traced["self_sum_s"] == pytest.approx(traced["root_total_s"], rel=0.01), name
        assert not traced["unstable_counts"], name


def test_compare_of_a_file_with_itself_passes(smoke):
    _summary, _stdout, path = smoke
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "compare.py"), str(path), str(path)],
        capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "regressed" not in proc.stdout


def test_fails_without_printing_a_result_when_the_program_is_missing(tmp_path):
    shutil.copy(os.path.join(REPO, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perf",
                    ignore=shutil.ignore_patterns("__pycache__", "out"))
    proc = run_py("--workload", "decode_b1", "--seed", "0", "--seconds", "1",
                  "--trace", "0", cwd=tmp_path,
                  script=str(tmp_path / "perf" / "run.py"))
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())


class _Layer:
    def work(self, n):
        return self.inner(n) + 1

    def inner(self, n):
        return n * 2


class _Inherits(_Layer):
    pass


def test_shim_records_parents_and_restores_the_originals():
    before = (_Layer.__dict__["work"], _Layer.__dict__["inner"])
    recorder = SpanRecorder()
    targets = [Target(_Layer, "work", "outer"), Target(_Inherits, "inner", "inner")]
    with installed(recorder, targets):
        assert _Layer().work(3) == 7      # inner is not wrapped on _Layer
        assert _Inherits().work(3) == 7   # ... but is on the subclass
    assert (_Layer.__dict__["work"], _Layer.__dict__["inner"]) == before
    assert "inner" not in _Inherits.__dict__
    assert [span[0] for span in recorder.spans] == ["outer", "outer", "inner"]
    assert [span[3] for span in recorder.spans] == [-1, -1, 1]
    summary = recorder.summary()
    assert summary["outer"]["self_s"] <= summary["outer"]["total_s"]
    assert (sum(row["self_s"] for row in summary.values())
            == pytest.approx(recorder.root_total_s()))


def test_shim_restores_even_when_the_block_raises():
    original = _Layer.__dict__["work"]
    with pytest.raises(ZeroDivisionError):
        with installed(SpanRecorder(), [Target(_Layer, "work", "outer")]):
            1 / 0
    assert _Layer.__dict__["work"] is original
