"""Tests for the paired benchmark gate's decision rules (scripts/bench_pair.py),
fed synthetic perfbench last-line records."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "scripts" / "bench_pair.py"
_SPEC = importlib.util.spec_from_file_location("bench_pair", _PATH)
bench_pair = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pair)

SPEC = {
    "workloads": [{"name": "lake"}],
    "end_to_end": [
        {"name": "setup_s", "better": "lower", "bound": 0.25},
        {"name": "qps", "better": "higher", "bound": 0.25},
    ],
    "per_layer": [
        {"name": "query.mate.p50_ms", "better": "lower"},
        {"name": "query.pexeso.p50_ms", "better": "lower"},
        {"name": "index.mate.mb", "better": "lower"},
    ],
}

END_TO_END = {"setup_s": 1.0, "qps": 100.0}
TRACED = {"query.mate.p50_ms": 2.0, "query.pexeso.p50_ms": 0.0, "index.mate.mb": 1.0}


def record(metrics, correct=True, attempted=100, failed=0):
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": "x"} for name, v in metrics.items()},
    }


def runs(head_traced=None, head_end_to_end=None, head_last=None, pairs=3):
    """``pairs`` pairs per trace mode; both sides read the base values
    unless overridden.  ``head_last`` replaces the last head run's record."""
    out = []
    for trace, base_metrics, head_metrics in (
        (0, END_TO_END, {**END_TO_END, **(head_end_to_end or {})}),
        (1, TRACED, {**TRACED, **(head_traced or {})}),
    ):
        for _ in range(pairs):
            out.append({"workload": "lake", "trace": trace, "side": "base",
                        "result": record(base_metrics)})
            out.append({"workload": "lake", "trace": trace, "side": "head",
                        "result": record(head_metrics)})
    if head_last is not None:
        out[-1]["result"] = head_last(out[-1]["result"])
    return out


def failures(rows):
    return [r["check"] for r in rows if not r["ok"]]


def test_identical_runs_pass():
    rows = bench_pair.decide(SPEC, runs())
    assert not failures(rows)
    checks = {r["check"] for r in rows}
    assert {"setup_s", "qps", "query.mate.p50_ms"} <= checks
    # Per-layer metrics other than engine p50s are reported, not gated.
    assert "index.mate.mb" not in checks


def test_changes_within_bounds_pass():
    rows = bench_pair.decide(
        SPEC,
        runs(
            head_end_to_end={"setup_s": 1.2, "qps": 80.0},
            head_traced={"query.mate.p50_ms": 2.6},
        ),
    )
    assert not failures(rows)


def test_head_run_not_correct_fails():
    rows = bench_pair.decide(SPEC, runs(head_last=lambda r: {**r, "correct": False}))
    assert failures(rows) == ["runs not correct"]


def test_base_run_not_correct_does_not_fail():
    rs = runs()
    rs[0]["result"]["correct"] = False
    assert not failures(bench_pair.decide(SPEC, rs))


def test_run_without_result_fails():
    rows = bench_pair.decide(SPEC, runs(head_last=lambda r: None))
    assert failures(rows) == ["runs without a result"]


def test_higher_failed_share_fails():
    rows = bench_pair.decide(SPEC, runs(head_last=lambda r: {**r, "failed": 1}))
    assert failures(rows) == ["failed/attempted"]


@pytest.mark.parametrize(
    "change, metric",
    [({"setup_s": 1.3}, "setup_s"), ({"qps": 70.0}, "qps")],
)
def test_end_to_end_median_beyond_bound_fails(change, metric):
    rows = bench_pair.decide(SPEC, runs(head_end_to_end=change))
    assert failures(rows) == [metric]


def test_engine_p50_beyond_bound_fails():
    rows = bench_pair.decide(SPEC, runs(head_traced={"query.mate.p50_ms": 2.8}))
    assert failures(rows) == ["query.mate.p50_ms"]


def test_engine_with_zero_base_p50_not_gated():
    rows = bench_pair.decide(SPEC, runs(head_traced={"query.pexeso.p50_ms": 5.0}))
    assert not failures(rows)
    assert "query.pexeso.p50_ms" not in {r["check"] for r in rows}


def test_one_slow_run_does_not_move_the_median():
    rows = bench_pair.decide(
        SPEC, runs(head_last=lambda r: record({**TRACED, "query.mate.p50_ms": 10.0}))
    )
    assert not failures(rows)


def _commit_repo(path: Path) -> str:
    """A throwaway repository with one commit; returns its hash."""

    def git(*args: str) -> str:
        return bench_pair.git(
            "-c", "user.name=t", "-c", "user.email=t@example.com", *args, cwd=path
        )

    git("init", "-q")
    (path / "BENCHMARK.json").write_text('{"workloads": []}\n')
    (path / "sub").mkdir()
    (path / "sub" / "f.txt").write_text("committed\n")
    git("add", "-A")
    git("commit", "-q", "-m", "one")
    return git("rev-parse", "HEAD")


def test_checkout_extracts_git_archive(tmp_path):
    """The base is the commit's ``git archive``, extracted at ``dest``:
    committed files only, no ``.git``, and removed on exit."""
    repo = tmp_path / "repo"
    repo.mkdir()
    commit = _commit_repo(repo)
    (repo / "sub" / "f.txt").write_text("uncommitted\n")
    dest = tmp_path / "tmp" / "base"
    with bench_pair.checkout(commit, dest, repo=repo) as base:
        assert base == dest
        assert (base / "sub" / "f.txt").read_text() == "committed\n"
        assert (base / "BENCHMARK.json").is_file()
        assert not (base / ".git").exists()
    assert not dest.exists()
    assert dest.parent.is_dir()
