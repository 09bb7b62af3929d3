"""CircuitBreaker / BreakerBoard: the per-stage failure gates.

Pure state machines over an injectable clock — every transition is
driven deterministically, no sleeps.
"""

from repro.service import BreakerBoard, CircuitBreaker


class FakeClock:
    def __init__(self):
        self.now = 1000.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


def _breaker(clock, threshold=3, cooldown_s=10.0, max_cooldown_s=60.0):
    return CircuitBreaker("solve", threshold=threshold,
                          cooldown_s=cooldown_s,
                          max_cooldown_s=max_cooldown_s, clock=clock)


def test_trips_only_after_consecutive_threshold():
    clock = FakeClock()
    breaker = _breaker(clock)
    assert breaker.record_failure() is False
    assert breaker.record_failure() is False
    assert breaker.state == "closed"
    assert breaker.record_failure() is True     # third consecutive
    assert breaker.state == "open"
    assert breaker.trips == 1


def test_success_resets_the_consecutive_count():
    clock = FakeClock()
    breaker = _breaker(clock)
    breaker.record_failure()
    breaker.record_failure()
    breaker.record_success()
    # The streak restarted: two more failures are not enough.
    breaker.record_failure()
    assert breaker.record_failure() is False
    assert breaker.state == "closed"


def test_cooldown_half_opens_and_probe_slot_is_single():
    clock = FakeClock()
    breaker = _breaker(clock, threshold=1, cooldown_s=10.0)
    breaker.record_failure()
    assert breaker.state == "open"
    assert breaker.try_probe() is False         # still cooling down
    clock.advance(10.0)
    assert breaker.state == "half_open"
    assert breaker.try_probe() is True          # exactly one probe
    assert breaker.try_probe() is False         # slot already taken


def test_probe_success_closes_and_resets_cooldown():
    clock = FakeClock()
    breaker = _breaker(clock, threshold=1, cooldown_s=10.0)
    breaker.record_failure()
    clock.advance(10.0)
    assert breaker.try_probe()
    assert breaker.record_success() is True
    assert breaker.state == "closed"
    assert breaker.recoveries == 1
    assert breaker.cooldown_s == 10.0           # back to the base


def test_probe_failure_reopens_with_doubled_capped_cooldown():
    clock = FakeClock()
    breaker = _breaker(clock, threshold=1, cooldown_s=10.0,
                       max_cooldown_s=25.0)
    breaker.record_failure()                    # open, cooldown 10
    clock.advance(10.0)
    assert breaker.record_failure() is True     # failed probe: reopen
    assert breaker.cooldown_s == 20.0
    clock.advance(20.0)
    assert breaker.record_failure() is True
    assert breaker.cooldown_s == 25.0           # capped, not 40
    assert breaker.trips == 3


def test_board_forces_blackbox_only_for_gated_stages():
    clock = FakeClock()
    board = BreakerBoard(threshold=1, cooldown_s=10.0, clock=clock)
    # A broken deploy stage does not gate the symbolic side.
    board.record_failure("deploy")
    assert board.open_stages() == ["deploy"]
    assert board.force_blackbox() is False
    # A broken solver does.
    board.record_failure("solve")
    assert board.force_blackbox() is True
    assert set(board.open_stages()) == {"deploy", "solve"}


def test_board_half_open_lets_exactly_one_probe_through():
    clock = FakeClock()
    board = BreakerBoard(threshold=1, cooldown_s=10.0, clock=clock)
    board.record_failure("solve")
    clock.advance(10.0)
    # First caller of the half-open window is the probe (not forced);
    # everyone else in the window stays black-box.
    assert board.force_blackbox() is False
    assert board.force_blackbox() is True
    board.record_success("solve")
    assert board.force_blackbox() is False
    assert board.snapshot()["solve"]["state"] == "closed"
