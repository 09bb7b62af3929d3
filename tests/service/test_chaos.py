"""The chaos harness itself: the quick and ci schedules must pass
end-to-end.

This is the meta-test behind the CI chaos-drill job — a live daemon
(real HTTP, real workers, real store) marched through worker kills,
disk faults and a breaker trip/recovery cycle, with the drill's own
invariant assertions doing the heavy lifting.
"""

import pytest

from repro.service import run_chaos_drill
from repro.service.chaos import CHAOS_SCHEDULES


@pytest.mark.parametrize("schedule", ("quick", "ci"))
def test_quick_chaos_drill_passes(tmp_path, schedule):
    report = run_chaos_drill(schedule, keep_dir=str(tmp_path / "drill"))
    assert report.ok, report.format()
    assert [p["name"] for p in report.phases] == \
        list(CHAOS_SCHEDULES[schedule])
    # The drill's /stats snapshot proves healing actually happened —
    # a green drill with zero healing events tested nothing.
    resilience = report.stats["resilience"]
    assert resilience["worker_restarts"] >= 1
    assert resilience["breaker_trips"] >= 1
    assert resilience["breaker_recoveries"] >= 1
    assert report.stats["shed"] >= 1
    # Keep-dir post-mortem artifacts survive the run.
    assert (tmp_path / "drill" / "chaos.db.jsonl").exists()


def test_unknown_schedule_is_rejected():
    for schedule in ("nonsense", "fleet"):
        with pytest.raises(ValueError):
            run_chaos_drill(schedule)


def test_report_format_names_every_phase(tmp_path):
    report = run_chaos_drill("quick", keep_dir=str(tmp_path / "d"))
    text = report.format()
    for phase in CHAOS_SCHEDULES["quick"]:
        assert phase in text
    assert "PASSED" in text
    doc = report.to_doc()
    assert doc["ok"] is True
    assert doc["schedule"] == "quick"
