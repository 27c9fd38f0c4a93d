"""Satellite: hammer the observability singletons from many threads while
an HTTP scraper reads /metrics — totals must stay consistent and no request
may error."""

import json
import threading
import urllib.request

import pytest

from repro import obs
from repro.obs.server import ObservabilityServer

N_THREADS = 8
N_ITERS = 200


@pytest.fixture(autouse=True)
def clean_obs():
    # DiscoverySystem no longer resets the sampler on every __init__, so
    # the rate=0.5 configured below would leak into later test modules.
    was_enabled = obs.TRACER.enabled
    rate, slow_ms = obs.SAMPLER.rate, obs.SAMPLER.slow_ms
    obs.reset()
    yield
    obs.QUERY_LOG.configure(capacity=1024, sink="")
    obs.configure_sampling(rate=rate, slow_ms=slow_ms)
    if not was_enabled:
        obs.TRACER.disable()
    obs.reset()


def test_concurrent_writers_and_scraper():
    obs.QUERY_LOG.configure(capacity=N_THREADS * N_ITERS + 10)
    obs.TRACER.enable()
    obs.configure_sampling(rate=0.5, slow_ms=None, seed=2)
    start = threading.Barrier(N_THREADS + 1)
    errors: list[BaseException] = []

    def worker(tid: int) -> None:
        try:
            start.wait()
            for i in range(N_ITERS):
                obs.METRICS.inc("conc.queries")
                obs.METRICS.observe("conc.latency_ms", float(i % 17))
                obs.METRICS.set_gauge(f"conc.worker.{tid}", i)
                with obs.TRACER.span("conc.query", worker=tid):
                    pass
                obs.QUERY_LOG.append(
                    obs.QueryRecord(
                        engine=f"e{tid % 3}",
                        query=f"w{tid}.q{i}",
                        latency_ms=0.1,
                    )
                )
        except BaseException as exc:  # pragma: no cover - failure path
            errors.append(exc)

    threads = [
        threading.Thread(target=worker, args=(tid,)) for tid in range(N_THREADS)
    ]
    for t in threads:
        t.start()

    with ObservabilityServer(port=0) as srv:
        start.wait()
        scrapes = 0
        while any(t.is_alive() for t in threads):
            with urllib.request.urlopen(srv.url + "/metrics", timeout=5) as r:
                assert r.status == 200
            with urllib.request.urlopen(srv.url + "/querylog?n=5", timeout=5) as r:
                json.loads(r.read().decode())
            scrapes += 1
        for t in threads:
            t.join()
        # One final consistent scrape after all writers are done.
        with urllib.request.urlopen(srv.url + "/metrics", timeout=5) as r:
            body = r.read().decode()
        with urllib.request.urlopen(srv.url + "/slo", timeout=5) as r:
            slo = json.loads(r.read().decode())

    assert not errors, errors
    assert scrapes >= 1
    total = N_THREADS * N_ITERS
    assert f"repro_conc_queries_total {total}" in body
    assert obs.METRICS.snapshot()["counters"]["conc.queries"] == total
    assert obs.QUERY_LOG.total == total
    assert len(obs.QUERY_LOG.records()) == total
    # Sampling decisions happened once per root span, under contention.
    stats = obs.SAMPLER.stats()
    assert stats["decisions"] == total
    assert stats["kept"] + stats["dropped"] == total
    assert len(obs.TRACER.roots()) == stats["kept"]
    assert slo["ok"] is True


def test_concurrent_readers_share_one_summary():
    """A record summarizes its kept hits when ``results`` is first read,
    then drops them.  Threads that read a fresh record at once must each
    see the full summary, never an empty one made from hits another reader
    already dropped."""
    import sys

    from repro.search.explain import summarize_results
    from repro.search.keyword import KeywordHit

    hits = tuple(KeywordHit(f"t{i}", 1.0 / (i + 1)) for i in range(20))
    want = summarize_results(hits)
    records = [obs.QueryRecord(engine="keyword", hits=hits) for _ in range(N_ITERS)]
    # Every thread waits at the barrier before each record, so all of them
    # race on each record's first read.
    each = threading.Barrier(N_THREADS)
    wrong: list[int] = []
    errors: list[BaseException] = []

    def reader() -> None:
        try:
            bad = 0
            for record in records:
                each.wait(timeout=10)
                bad += record.results != want
            wrong.append(bad)
        except BaseException as exc:  # pragma: no cover - failure path
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=reader) for _ in range(N_THREADS)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert not errors, errors
    assert wrong == [0] * N_THREADS
    assert all(r.results == want and r.hits == () for r in records)
