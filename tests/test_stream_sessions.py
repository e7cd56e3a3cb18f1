"""Tests for per-worker session capacity accounting."""

import pytest

from repro.errors import ValidationError
from repro.stream import SessionLedger


class TestLifecycle:
    def test_login_grants_capacity(self):
        ledger = SessionLedger()
        ledger.login(3, capacity=2)
        assert ledger.capacity(3) == 2
        assert ledger.online() == [3]

    def test_logout_releases_remaining(self):
        ledger = SessionLedger()
        sid = ledger.login(0, capacity=2)
        assert ledger.logout(sid) == (0, 2)
        assert ledger.capacity(0) == 0
        assert ledger.online() == []

    def test_logout_is_idempotent(self):
        ledger = SessionLedger()
        sid = ledger.login(0, capacity=1)
        ledger.logout(sid)
        assert ledger.logout(sid) == (-1, 0)

    def test_unknown_session_releases_nothing(self):
        ledger = SessionLedger()
        assert ledger.logout(99) == (-1, 0)

    def test_negative_capacity_rejected(self):
        ledger = SessionLedger()
        with pytest.raises(ValidationError):
            ledger.login(0, capacity=-1)

    def test_open_sessions_counts_grants(self):
        ledger = SessionLedger()
        a = ledger.login(0, capacity=1)
        ledger.login(1, capacity=1)
        assert ledger.open_sessions() == 2
        ledger.logout(a)
        assert ledger.open_sessions() == 1

    def test_session_worker(self):
        ledger = SessionLedger()
        sid = ledger.login(7, capacity=1)
        assert ledger.session_worker(sid) == 7
        ledger.logout(sid)
        assert ledger.session_worker(sid) is None


class TestSingleSession:
    """Each worker has at most one open session: a second login while
    the first is open is an error, never a silent re-grant."""

    def test_second_login_of_online_worker_raises(self):
        ledger = SessionLedger()
        ledger.login(0, capacity=1)
        with pytest.raises(ValidationError, match="already online"):
            ledger.login(0, capacity=1)

    def test_second_login_leaves_the_open_session_intact(self):
        ledger = SessionLedger()
        sid = ledger.login(0, capacity=2)
        with pytest.raises(ValidationError):
            ledger.login(0, capacity=3)
        assert ledger.capacity(0) == 2
        assert ledger.open_sessions() == 1
        assert ledger.logout(sid) == (0, 2)

    def test_zero_capacity_session_still_blocks_a_second_login(self):
        ledger = SessionLedger()
        ledger.login(0, capacity=0)
        with pytest.raises(ValidationError):
            ledger.login(0, capacity=1)

    def test_relogin_after_logout_opens_a_fresh_session(self):
        ledger = SessionLedger()
        first = ledger.login(0, capacity=1)
        ledger.consume(0, 1)
        assert ledger.logout(first) == (0, 0)
        second = ledger.login(0, capacity=2)
        assert second != first
        assert ledger.capacity(0) == 2
        assert ledger.session_worker(second) == 0


class TestConsume:
    def test_consume_draws_down_the_open_session(self):
        ledger = SessionLedger()
        sid = ledger.login(0, capacity=3)
        ledger.consume(0, 2)
        assert ledger.capacity(0) == 1
        assert ledger.logout(sid) == (0, 1)

    def test_exhausted_worker_leaves_online_order(self):
        ledger = SessionLedger()
        ledger.login(0, capacity=1)
        ledger.login(1, capacity=1)
        ledger.consume(0, 1)
        assert ledger.online() == [1]

    def test_overconsume_raises(self):
        ledger = SessionLedger()
        ledger.login(0, capacity=1)
        with pytest.raises(ValidationError):
            ledger.consume(0, 2)

    def test_failed_consume_leaves_capacity(self):
        ledger = SessionLedger()
        ledger.login(0, capacity=2)
        with pytest.raises(ValidationError):
            ledger.consume(0, 3)
        assert ledger.capacity(0) == 2
        assert ledger.online() == [0]

    def test_consume_without_session_raises(self):
        ledger = SessionLedger()
        with pytest.raises(ValidationError):
            ledger.consume(0, 1)

    def test_consume_zero_is_noop(self):
        ledger = SessionLedger()
        ledger.login(0, capacity=1)
        ledger.consume(0, 0)
        assert ledger.capacity(0) == 1


class TestOnlineOrder:
    def test_presence_order_survives_logout_and_relogin(self):
        ledger = SessionLedger()
        ledger.login(5, capacity=1)
        two = ledger.login(2, capacity=1)
        ledger.login(7, capacity=1)
        ledger.logout(two)
        assert ledger.online() == [5, 7]
        ledger.login(2, capacity=1)
        ledger.login(3, capacity=1)
        # The re-login joins the end; the others keep their places.
        assert ledger.online() == [5, 7, 2, 3]

    def test_zero_capacity_login_not_online(self):
        ledger = SessionLedger()
        ledger.login(0, capacity=0)
        assert ledger.online() == []
