"""Tests for the SLO engine: objectives, burn-rate windows, CLI exit codes."""

import json

import pytest

from repro.core.config import ConfigError, DiscoveryConfig
from repro.obs import health
from repro.obs.health import SloObjective, evaluate, percentile
from repro.obs.querylog import QueryRecord

NOW = 1_700_000_000.0


def record(engine="join", latency_ms=10.0, status="ok", age_s=1.0):
    return QueryRecord(
        engine=engine,
        query="q",
        latency_ms=latency_ms,
        status=status,
        ts=NOW - age_s,
    )


class TestPercentile:
    def test_empty_is_zero(self):
        assert percentile([], 95) == 0.0

    def test_nearest_rank(self):
        vals = list(range(1, 101))
        assert percentile(vals, 50) == 50
        assert percentile(vals, 95) == 95
        assert percentile(vals, 100) == 100

    def test_single_value(self):
        assert percentile([42.0], 95) == 42.0


class TestSloObjective:
    def test_parse_full_spec(self):
        obj = SloObjective.parse("join:250:0.01:600")
        assert obj == SloObjective("join", 250.0, 0.01, 600.0)

    def test_parse_defaults(self):
        obj = SloObjective.parse(":100:")
        assert obj.engine == "*"
        assert obj.p95_ms == 100.0
        assert obj.error_rate is None
        assert obj.window_s == 3600.0

    def test_parse_skipped_latency(self):
        obj = SloObjective.parse("keyword::0.05")
        assert obj.p95_ms is None
        assert obj.error_rate == 0.05

    @pytest.mark.parametrize(
        "spec", ["join", "join:-5:0.1", "join:100:2", "join:100:0.1:0:extra"]
    )
    def test_parse_rejects_bad_specs(self, spec):
        with pytest.raises(ValueError):
            SloObjective.parse(spec)

    def test_validate_rejects_bad_window(self):
        with pytest.raises(ValueError):
            SloObjective(window_s=0).validate()


class TestEvaluate:
    def test_healthy_log_is_ok(self):
        records = [record(latency_ms=5.0) for _ in range(50)]
        report = evaluate(records, now=NOW)
        assert report.ok
        assert not report.breaches()
        assert {s.signal for s in report.statuses} == {"latency", "errors"}

    def test_no_data_is_ok(self):
        report = evaluate([], now=NOW)
        assert report.ok
        for status in report.statuses:
            assert status.long_window.events == 0
            assert status.long_window.burn == 0.0

    def test_latency_breach(self):
        objectives = (SloObjective("*", p95_ms=100.0, error_rate=None),)
        records = [record(latency_ms=900.0) for _ in range(20)]
        report = evaluate(records, objectives, now=NOW)
        (status,) = report.statuses
        assert status.breached
        assert status.signal == "latency"
        # All 20 requests are slow against a 5% budget: burn = 1/0.05 = 20.
        assert status.long_window.burn == pytest.approx(20.0)
        assert status.observed_p95_ms == pytest.approx(900.0)

    def test_error_breach(self):
        objectives = (SloObjective("*", p95_ms=None, error_rate=0.05),)
        records = [
            record(status="error" if i % 2 else "ok") for i in range(40)
        ]
        report = evaluate(records, objectives, now=NOW)
        (status,) = report.statuses
        assert status.breached
        assert status.long_window.bad == 20
        assert status.long_window.burn == pytest.approx(0.5 / 0.05)

    def test_partial_federated_query_counts_as_error(self):
        """A federated query that lost an engine is logged ``partial``; the
        error objective counts it as bad, exactly like ``error``."""
        objectives = (SloObjective("*", p95_ms=None, error_rate=0.05),)
        records = [
            record(engine="federated", status="partial" if i % 2 else "ok")
            for i in range(40)
        ]
        report = evaluate(records, objectives, now=NOW)
        (status,) = report.statuses
        assert status.breached
        assert status.long_window.bad == 20
        assert status.short_window.bad == 20

    def test_old_incident_does_not_page(self):
        """Multi-window: bad events outside the short window stay quiet."""
        objectives = (
            SloObjective("*", p95_ms=100.0, error_rate=None, window_s=3600.0),
        )
        # Short window is 3600/12 = 300s; the incident ended 1000s ago.
        records = [record(latency_ms=900.0, age_s=1000.0) for _ in range(20)]
        report = evaluate(records, objectives, now=NOW)
        (status,) = report.statuses
        assert status.long_window.burn >= 1.0
        assert status.short_window.events == 0
        assert not status.breached

    def test_engine_scoped_objective_ignores_other_engines(self):
        objectives = (SloObjective("join", p95_ms=100.0, error_rate=None),)
        records = [record(engine="keyword", latency_ms=900.0)] * 10 + [
            record(engine="join", latency_ms=5.0)
        ] * 10
        report = evaluate(records, objectives, now=NOW)
        (status,) = report.statuses
        assert not status.breached
        assert status.long_window.events == 10

    def test_burn_threshold_raises_the_bar(self):
        objectives = (SloObjective("*", p95_ms=100.0, error_rate=None),)
        # 10% slow -> burn 2.0: breaches at threshold 1, not at 3.
        records = [
            record(latency_ms=900.0 if i < 2 else 5.0) for i in range(20)
        ]
        assert evaluate(records, objectives, now=NOW, burn_threshold=3.0).ok
        assert not evaluate(records, objectives, now=NOW, burn_threshold=1.0).ok

    def test_report_to_dict_and_render(self):
        records = [record(latency_ms=900.0, status="error")] * 5
        report = evaluate(records, now=NOW)
        payload = report.to_dict()
        json.dumps(payload)  # must be serializable
        assert payload["ok"] is False
        assert payload["statuses"][0]["long"]["events"] == 5
        text = report.render()
        assert "BREACH" in text
        assert "latency" in text and "errors" in text


class TestConfigIntegration:
    def test_default_config_carries_objectives(self):
        config = DiscoveryConfig()
        assert config.slos == health.DEFAULT_OBJECTIVES
        assert config.trace_sample_rate == 1.0
        assert config.slow_query_ms > 0

    def test_bad_sample_rate_rejected(self):
        with pytest.raises(ConfigError):
            DiscoveryConfig(trace_sample_rate=2.0).validate()

    def test_bad_objective_rejected(self):
        with pytest.raises(ConfigError):
            DiscoveryConfig(
                slos=(SloObjective(p95_ms=-1.0),)
            ).validate()
