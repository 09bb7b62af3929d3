"""Tests for the metrics module."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.metrics import Confusion, MetricsTable


def test_confusion_counts():
    c = Confusion()
    c.record(True, True)    # TP
    c.record(True, False)   # FN
    c.record(False, True)   # FP
    c.record(False, False)  # TN
    assert (c.tp, c.fn, c.fp, c.tn) == (1, 1, 1, 1)
    assert c.total == 4


def test_perfect_scores():
    c = Confusion(tp=10, tn=10)
    assert c.precision == 1.0
    assert c.recall == 1.0
    assert c.f1 == 1.0


def test_zero_denominators():
    c = Confusion()
    assert c.precision == 0.0
    assert c.recall == 0.0
    assert c.f1 == 0.0


def test_paper_total_row():
    # WASAI's Table 4 totals: 1,643 TP, 0 FP, 27 FN over 3,340.
    c = Confusion(tp=1643, fp=0, tn=1670, fn=27)
    assert c.precision == 1.0
    assert round(c.recall, 3) == 0.984
    assert round(c.f1, 3) == 0.992


def test_merged():
    a = Confusion(tp=1, fp=2, tn=3, fn=4)
    b = Confusion(tp=10, fp=20, tn=30, fn=40)
    m = a.merged(b)
    assert (m.tp, m.fp, m.tn, m.fn) == (11, 22, 33, 44)


def test_metrics_table_totals():
    table = MetricsTable("tool", ("a", "b"))
    table.record("a", True, True)
    table.record("b", True, False)
    total = table.total()
    assert total.tp == 1
    assert total.fn == 1
    text = table.format()
    assert "tool" in text
    assert "Total" in text


@settings(max_examples=50, deadline=None)
@given(tp=st.integers(0, 50), fp=st.integers(0, 50),
       tn=st.integers(0, 50), fn=st.integers(0, 50))
def test_property_f1_is_harmonic_mean(tp, fp, tn, fn):
    c = Confusion(tp, fp, tn, fn)
    p, r = c.precision, c.recall
    if p + r:
        assert abs(c.f1 - 2 * p * r / (p + r)) < 1e-12
    assert 0.0 <= c.f1 <= 1.0


def test_percentile_interpolates():
    from repro.metrics import percentile
    samples = [1.0, 2.0, 3.0, 4.0]
    assert percentile([], 50) == 0.0
    assert percentile([7.0], 95) == 7.0
    assert percentile(samples, 0) == 1.0
    assert percentile(samples, 100) == 4.0
    assert percentile(samples, 50) == 2.5
    assert abs(percentile(samples, 95) - 3.85) < 1e-9
    # Unsorted input is handled (sorted internally).
    assert percentile([4.0, 1.0, 3.0, 2.0], 50) == 2.5


def test_throughput_latency_percentiles():
    from repro.metrics import ThroughputStats
    stats = ThroughputStats()
    for sample in (0.1, 0.2, 0.3, 0.4):
        stats.record_latency("task", sample)
    stats.record_latency("fuzz", 0.05)
    tiles = stats.latency_percentiles()
    assert tiles["task"]["n"] == 4
    assert abs(tiles["task"]["p50_s"] - 0.25) < 1e-9
    assert tiles["task"]["max_s"] == 0.4
    assert tiles["fuzz"]["p50_s"] == 0.05
    as_dict = stats.as_dict()
    assert as_dict["latency"]["task"]["n"] == 4
    text = stats.format()
    assert "latency task" in text
    assert "p95=" in text


@settings(max_examples=100, deadline=None)
@given(stages=st.dictionaries(
    st.sampled_from(["task", "setup", "fuzz", "scan", "job"]),
    st.lists(st.floats(0.0, 1e4, allow_nan=False), max_size=40)))
def test_property_latency_percentiles_match_percentile(stages):
    """One sort per stage gives exactly what a ``percentile`` call per
    tile gives."""
    from repro.metrics import ThroughputStats, percentile
    stats = ThroughputStats()
    for stage, samples in stages.items():
        for sample in samples:
            stats.record_latency(stage, sample)
    assert stats.latency_percentiles() == {
        stage: {"n": len(samples), "p50_s": percentile(samples, 50),
                "p95_s": percentile(samples, 95), "max_s": max(samples)}
        for stage, samples in stages.items() if samples}


def test_metrics_table_family_fp_query():
    table = MetricsTable("wasai", ("token_arith", "permission"))
    table.record("token_arith", True, True)    # TP
    table.record("token_arith", False, True)   # FP on a clean variant
    table.record("permission", False, False)   # TN
    assert table.false_positives() == {"token_arith": 1}
    assert table.false_positives(("permission",)) == {}
    assert table.false_positives(("token_arith",)) == {"token_arith": 1}
    text = table.format()
    assert "TP=" in text and "FP=" in text and "FN=" in text
