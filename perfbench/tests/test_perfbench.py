"""Tests of the benchmark itself: its arithmetic, its metric catalogue, and
a smoke-sized run of every workload.

Run from the repository root: ``python3 -m pytest perfbench/tests``.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench.metrics import END_TO_END, LAYER_MAP, NAME, PER_LAYER, SPEC
from perfbench.spans import SpanRecord, SpanRecorder, covered, percentile, self_times
from perfbench.speed import REF_MS, Gauge, Reference, at_reference, window_median

ROOT = Path(__file__).resolve().parents[2]
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


# -- arithmetic ----------------------------------------------------------------


def test_percentile_interpolates_between_ranks():
    assert percentile([4, 1, 3, 2], 50) == 2.5
    assert percentile([1, 2, 3, 4, 5], 95) == pytest.approx(4.8)
    assert percentile([7], 95) == 7
    assert percentile(range(1, 101), 0) == 1
    assert percentile(range(1, 101), 100) == 100


def test_percentile_matches_inclusive_quartiles():
    values = [3.1, 0.2, 9.9, 4.4, 5.0, 1.7, 8.3]
    assert [percentile(values, q) for q in (25, 50, 75)] == pytest.approx(
        statistics.quantiles(values, n=4, method="inclusive")
    )


def test_percentile_rejects_bad_input():
    with pytest.raises(ValueError):
        percentile([], 50)
    with pytest.raises(ValueError):
        percentile([1], 101)


def test_covered_merges_overlapping_intervals():
    assert covered([]) == 0
    assert covered([(0, 1), (2, 3)]) == 2
    assert covered([(0, 2), (1, 3), (5, 6)]) == 4
    assert covered([(0, 10), (2, 3)]) == 10


def test_self_time_subtracts_children_once():
    spans = [
        SpanRecord(0, "facade.search", 0.0, 10.0),
        SpanRecord(1, "query.tus", 1.0, 4.0, parent=0),
        SpanRecord(2, "query.santos", 3.0, 6.0, parent=0),  # overlaps tus
        SpanRecord(3, "inner", 1.5, 2.0, parent=1),
    ]
    selfs = self_times(spans)
    assert selfs[0] == pytest.approx(5.0)  # 10 - union[1, 6]
    assert selfs[1] == pytest.approx(2.5)
    assert selfs[2] == pytest.approx(3.0)
    assert selfs[3] == pytest.approx(0.5)


def test_window_median_takes_readings_from_both_sides_of_a_segment():
    readings = [1.0, 9.0, 2.0, 3.0, 4.0, 100.0]
    # segment 2 lies between readings 2 and 3: two at or before, two after
    assert window_median(readings, 2, window=4) == 3.5  # median of 9, 2, 3, 4
    assert window_median(readings, 0, window=4) == 2.0  # median of 1, 9, 2
    assert window_median(readings, 5, window=4) == 52.0  # median of 4, 100
    assert window_median([2.0], 0) == 2.0


def test_at_reference_scales_by_the_reading():
    assert at_reference(10.0, REF_MS) == 10.0
    assert at_reference(10.0, 2 * REF_MS) == 5.0  # host ran at half speed
    assert at_reference(0.3, REF_MS / 2) == pytest.approx(0.6)


def test_gauge_reads_when_due_or_forced():
    gauge = Gauge(Reference(), every_s=3600)
    assert gauge.segment == 0 and len(gauge.readings) == 1
    gauge.tick()
    assert gauge.segment == 0
    gauge.tick(force=True)
    assert gauge.segment == 1
    assert all(r > 0 for r in gauge.readings)
    assert gauge.around(0) == statistics.median(gauge.readings)


def test_recorder_nests_spans_under_one_request():
    rec = SpanRecorder()
    with rec.span("facade.search"):
        with rec.span("query.tus"):
            rec.count("minhash.signatures_built")
            rec.count("minhash.signatures_built", 2)
    with rec.span("facade.keyword_search"):
        pass
    rec.count("dropped")  # no open span
    root, child, other = rec.spans
    assert child.parent == root.id and root.parent is None
    assert child.request == root.request != other.request
    assert child.counts == {"minhash.signatures_built": 3}
    assert root.end >= child.end >= child.start >= root.start


def test_patched_restores_own_and_inherited_attributes():
    class Base:
        def f(self):
            return "base"

        @classmethod
        def make(cls):
            return "made"

    class Child(Base):
        pass

    rec = SpanRecorder()
    make = Base.__dict__["make"].__func__
    patches = [
        (Child, "f", rec.wrap(Child.f, "child.f")),
        (Base, "make", classmethod(rec.wrap(make, "make"))),
    ]
    with rec.patched(patches):
        assert Child().f() == "base"
        assert Base.make() == "made"
    assert [s.name for s in rec.spans] == ["child.f", "make"]
    assert "f" not in Child.__dict__
    assert Base.make() == "made" and len(rec.spans) == 2


# -- metric catalogue ----------------------------------------------------------


def test_metric_names_are_well_formed_and_unique():
    names = [m["name"] for m in END_TO_END + PER_LAYER]
    assert len(names) == len(set(names))
    for name in names + WORKLOADS:
        assert NAME.fullmatch(name), name


def test_benchmark_json_shape():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    for m in END_TO_END:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    for m in PER_LAYER:
        assert set(m) == {"name", "unit", "better"}
    setup = next(m for m in END_TO_END if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in END_TO_END)


def test_layer_map_covers_every_per_layer_metric():
    assert set(LAYER_MAP) == {m["name"] for m in PER_LAYER}
    e2e = {m["name"] for m in END_TO_END}
    for name, entry in LAYER_MAP.items():
        assert entry["moves"] and set(entry["moves"]) <= e2e, name
        assert entry["workloads"] and set(entry["workloads"]) <= set(WORKLOADS), name


# -- smoke runs ----------------------------------------------------------------


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_emits_every_metric(workload, trace):
    proc = subprocess.run(
        [
            sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
            "--seconds", "0.4", "--trace", str(trace), "--smoke",
        ],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    specs = PER_LAYER if trace else END_TO_END
    assert list(result["metrics"]) == [m["name"] for m in specs]
    for spec in specs:
        got = result["metrics"][spec["name"]]
        assert got["unit"] == spec["unit"]
        assert isinstance(got["value"], (int, float))
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())
