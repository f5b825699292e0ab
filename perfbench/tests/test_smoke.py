"""Smoke test of the benchmark at tiny input sizes.

    python3 -m pytest perfbench/tests -q
"""
import dataclasses
import json
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))

import calibrate  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

import cliquedyn as cd  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(autouse=True)
def _spans_to_tmp(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "OUT_DIR", tmp_path)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", workloads.NAMES)
def test_every_named_metric_is_emitted(name, trace):
    lines, summary = run.run(name, seed=3, seconds=0.2, trace=bool(trace), scale="tiny")
    group = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(summary) == {"correct", "attempted", "failed", "metrics"}
    assert summary["correct"] and summary["failed"] == 0 and summary["attempted"] >= 1
    assert {m["name"]: m["unit"] for m in group} == {
        key: metric["unit"] for key, metric in summary["metrics"].items()
    }
    assert any("failed_ratio 0.0" in line for line in lines)
    json.dumps(summary)


def test_workload_names_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.NAMES)


def test_same_seed_same_digest():
    digests = []
    for _ in range(2):
        lines, _ = run.run("converge", seed=5, seconds=0.1, trace=False, scale="tiny")
        digests += [line for line in lines if "output_digest" in line]
    assert len(digests) == 2 and digests[0] == digests[1]


def test_reference_clock_reads_inside_long_requests(monkeypatch):
    monkeypatch.setattr(calibrate, "READING_EVERY_S", 0.02)
    clock = calibrate.ReferenceClock()
    raws = []
    for index in range(3):
        clock.start(index)
        end = time.perf_counter() + 0.1
        while time.perf_counter() < end:
            pass
        raws.append(clock.stop())
    clock.finish()
    assert len(clock.scaled) == 3 and all(s > 0 for s in clock.scaled)
    assert len(clock.readings) > 1 + 3  # not only one reading after each request
    assert all(r < 0.1 for r in raws)  # the readings' own time is left out


def test_tampered_certificate_fails_the_checker():
    g = cd.complement(cd.cycle_graph(8))
    doc = cd.classify_behavior(g).to_json()
    workloads.check_behavior(g, doc)
    mapping = doc["certificate"]["mapping"]
    mapping[0], mapping[1] = mapping[1], mapping[0]
    with pytest.raises(workloads.CheckFailed):
        workloads.check_behavior(g, doc)


def test_tampered_output_raises_failed_ratio(monkeypatch):
    real = cd.classify_behavior

    def tampered(g, limits=cd.DEFAULT_LIMITS):
        bogus = cd.OctahedronCertificate(3, tuple(range(6)))
        result = real(g, limits)
        return dataclasses.replace(result, status="divergent", certificate=bogus, detected_at=0,
                                   tail=None, period=None, limit=None, trace=result.trace[:1])

    monkeypatch.setattr(cd, "classify_behavior", tampered)
    lines, summary = run.run("converge", seed=3, seconds=0.1, trace=False, scale="tiny")
    assert not summary["correct"]
    assert summary["failed"] == summary["attempted"]
    assert any("failed_ratio 1.0" in line for line in lines)


def test_wrong_class_list_fails_the_checker():
    wl = workloads.build("enumerate", "tiny")
    specs = next(wl.inputs(1))
    cubic, quartic = wl.call(specs)
    wl.check(specs, (cubic, quartic))
    with pytest.raises(workloads.CheckFailed):
        wl.check(specs, (cubic[:-1], quartic))
    with pytest.raises(workloads.CheckFailed):
        wl.check(specs, (cubic[:-1] + [cd.complement(cubic[0])], quartic))


def test_tampered_census_cubic_record_fails_the_checker():
    wl = workloads.build("census-cubic", "tiny")
    spec = next(wl.inputs(1))
    report = json.loads(wl.call(spec))
    wl.check(spec, json.dumps(report))
    helly = next(r for r in report["records"] if r["helly"])
    helly["cover_violations"] = 1
    with pytest.raises(workloads.CheckFailed):
        wl.check(spec, json.dumps(report))


def test_tampered_census_report_fails_the_checker():
    wl = workloads.build("stream-checks", "tiny")
    spec = next(wl.inputs(1))
    report = json.loads(wl.call(spec))
    wl.check(spec, json.dumps(report))
    report["totals"]["helly_complement"] = 1
    with pytest.raises(workloads.CheckFailed):
        wl.check(spec, json.dumps(report))
