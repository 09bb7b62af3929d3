"""Integration tests for the local blockchain and eosio.token."""

import weakref

import pytest

from repro.eosio import (Action, ApplyContext, Asset, Chain, Encoder, N,
                         NativeContract, TokenContract, deploy_token,
                         issue_to, token_balance)
from repro.eosio.errors import AssertionFailure


@pytest.fixture
def chain():
    chain = Chain()
    deploy_token(chain, "eosio.token")
    issue_to(chain, "eosio.token", "alice", "100.0000 EOS")
    chain.create_account("bob")
    return chain


def transfer_data(from_, to, quantity, memo=""):
    return (Encoder().name(from_).name(to)
            .asset(Asset.from_string(quantity)).string(memo).bytes())


def test_issue_creates_balance(chain):
    assert token_balance(chain, "eosio.token", "alice") \
        == Asset.from_string("100.0000 EOS")


def test_transfer_moves_funds(chain):
    result = chain.push_action("eosio.token", "transfer", ["alice"],
                               transfer_data("alice", "bob", "25.0000 EOS"))
    assert result.success, result.error
    assert token_balance(chain, "eosio.token", "alice") \
        == Asset.from_string("75.0000 EOS")
    assert token_balance(chain, "eosio.token", "bob") \
        == Asset.from_string("25.0000 EOS")


def test_transfer_requires_authorization(chain):
    result = chain.push_action("eosio.token", "transfer", ["bob"],
                               transfer_data("alice", "bob", "1.0000 EOS"))
    assert not result.success
    assert "MissingAuthorization" in result.error
    # Nothing moved.
    assert token_balance(chain, "eosio.token", "alice") \
        == Asset.from_string("100.0000 EOS")


def test_overdrawn_transfer_reverts(chain):
    result = chain.push_action("eosio.token", "transfer", ["alice"],
                               transfer_data("alice", "bob", "999.0000 EOS"))
    assert not result.success
    assert "overdrawn" in result.error


def test_transfer_to_missing_account_fails(chain):
    result = chain.push_action("eosio.token", "transfer", ["alice"],
                               transfer_data("alice", "nobody", "1.0000 EOS"))
    assert not result.success


def test_notifications_reach_payer_and_payee(chain):
    result = chain.push_action("eosio.token", "transfer", ["alice"],
                               transfer_data("alice", "bob", "1.0000 EOS"))
    receivers = [(r.receiver, r.is_notification) for r in result.records]
    # token executes, then alice and bob are notified (no contracts
    # deployed there, so only the token's record appears).
    assert receivers[0] == (N("eosio.token"), False)


class RecordingContract(NativeContract):
    """Remembers every apply() it receives."""

    def __init__(self):
        self.seen = []

    def apply(self, chain, ctx):
        self.seen.append((ctx.receiver, ctx.code, ctx.action_name,
                          ctx.is_notification))


def test_notification_preserves_code(chain):
    listener = RecordingContract()
    chain.set_contract("bob", listener)
    chain.push_action("eosio.token", "transfer", ["alice"],
                      transfer_data("alice", "bob", "1.0000 EOS"))
    assert listener.seen == [
        (N("bob"), N("eosio.token"), N("transfer"), True)]


class ForwardingContract(NativeContract):
    """The fake.notif agent: forwards token notifications (§2.3.2)."""

    def __init__(self, victim):
        self.victim = victim

    def apply(self, chain, ctx):
        if ctx.code == N("eosio.token") and ctx.is_notification:
            ctx.add_recipient(self.victim)


def test_forwarded_notification_keeps_original_code(chain):
    victim = RecordingContract()
    chain.set_contract("victim", victim)
    chain.set_contract("fake.notif", ForwardingContract(N("victim")))
    issue_to(chain, "eosio.token", "attacker", "10.0000 EOS")
    chain.push_action("eosio.token", "transfer", ["attacker"],
                      transfer_data("attacker", "fake.notif", "1.0000 EOS"))
    # The victim sees code == eosio.token although it received no EOS.
    assert victim.seen == [
        (N("victim"), N("eosio.token"), N("transfer"), True)]
    assert token_balance(chain, "eosio.token", "victim").amount == 0


class InlineRewarder(NativeContract):
    """Sends an inline token transfer when poked (Rollback surface)."""

    def apply(self, chain, ctx):
        if ctx.action_name != N("poke") or ctx.receiver != ctx.code:
            return
        ctx.add_inline_action(Action(
            "eosio.token", "transfer", [ctx.receiver],
            transfer_data("rewarder", "bob", "5.0000 EOS")))


def test_inline_action_executes_in_same_transaction(chain):
    chain.set_contract("rewarder", InlineRewarder())
    issue_to(chain, "eosio.token", "rewarder", "10.0000 EOS")
    result = chain.push_action("rewarder", "poke", ["bob"], b"")
    assert result.success, result.error
    assert token_balance(chain, "eosio.token", "bob") \
        == Asset.from_string("5.0000 EOS")


class RevertingAttacker(NativeContract):
    """Sends an inline transfer, then asserts false: everything must
    roll back (the Rollback exploit shape of Listing 4)."""

    def apply(self, chain, ctx):
        from repro.eosio.errors import AssertionFailure
        if ctx.action_name != N("poke") or ctx.receiver != ctx.code:
            return
        ctx.add_inline_action(Action(
            "eosio.token", "transfer", [ctx.receiver],
            transfer_data("attacker", "bob", "5.0000 EOS")))
        raise AssertionFailure("revert to dodge the loss")


def test_failed_transaction_rolls_back_inline_effects(chain):
    chain.set_contract("attacker", RevertingAttacker())
    issue_to(chain, "eosio.token", "attacker", "10.0000 EOS")
    result = chain.push_action("attacker", "poke", ["bob"], b"")
    assert not result.success
    assert token_balance(chain, "eosio.token", "bob").amount == 0
    assert token_balance(chain, "eosio.token", "attacker") \
        == Asset.from_string("10.0000 EOS")


class TrackedFailure(AssertionFailure):
    """An assertion failure that records a weak reference to itself."""

    raised: list = []

    def __init__(self, message):
        super().__init__(message)
        TrackedFailure.raised.append(weakref.ref(self))


class FailingContract(NativeContract):
    def apply(self, chain, ctx):
        if ctx.receiver == ctx.code:
            raise TrackedFailure("always fails")


def test_failed_action_leaves_no_reference_cycle(chain):
    """A failed action's exception dies with its transaction.  A frame
    of the failed call stack that kept it would close a cycle through
    the traceback, holding the whole stack and its trace until a full
    garbage collection."""
    TrackedFailure.raised.clear()
    chain.set_contract("failer", FailingContract())
    result = chain.push_action("failer", "poke", ["bob"], b"")
    assert "always fails" in result.error
    assert len(TrackedFailure.raised) == 1
    assert TrackedFailure.raised[0]() is None


class DeferredRewarder(NativeContract):
    """Schedules the reward as a deferred action (the paper's patch)."""

    def apply(self, chain, ctx):
        from repro.eosio.errors import AssertionFailure
        if ctx.action_name != N("poke") or ctx.receiver != ctx.code:
            return
        ctx.add_deferred_action(Action(
            "eosio.token", "transfer", [ctx.receiver],
            transfer_data("rewarder", "bob", "5.0000 EOS")))


def test_deferred_action_runs_as_separate_transaction(chain):
    chain.set_contract("rewarder", DeferredRewarder())
    issue_to(chain, "eosio.token", "rewarder", "10.0000 EOS")
    result = chain.push_action("rewarder", "poke", ["bob"], b"")
    assert result.success
    assert len(result.deferred) == 1
    assert result.deferred[0].success
    assert token_balance(chain, "eosio.token", "bob") \
        == Asset.from_string("5.0000 EOS")


def test_inline_action_needs_senders_authority(chain):
    class Impersonator(NativeContract):
        def apply(self, chain_, ctx):
            if ctx.receiver != ctx.code:
                return
            # Tries to move alice's funds without her authority.
            ctx.add_inline_action(Action(
                "eosio.token", "transfer", [N("alice")],
                transfer_data("alice", "bob", "1.0000 EOS")))

    chain.set_contract("imposter", Impersonator())
    result = chain.push_action("imposter", "poke", ["bob"], b"")
    assert not result.success
    assert token_balance(chain, "eosio.token", "alice") \
        == Asset.from_string("100.0000 EOS")


def test_unknown_account_fails(chain):
    result = chain.push_action("ghost", "noop", [], b"")
    assert not result.success
    assert "UnknownAccount" in result.error


def test_action_pack_roundtrip():
    from repro.eosio.host import _decode_packed_action
    action = Action("eosio.token", "transfer", ["alice"],
                    transfer_data("alice", "bob", "1.0000 EOS"))
    decoded = _decode_packed_action(action.pack())
    assert decoded.account == action.account
    assert decoded.name == action.name
    assert decoded.authorization == action.authorization
    assert decoded.data == action.data


def test_fake_token_with_same_symbol(chain):
    """An attacker-deployed token can mint 'EOS' under its own code."""
    deploy_token(chain, "fake.token")
    issue_to(chain, "fake.token", "attacker", "1000000.0000 EOS")
    assert token_balance(chain, "fake.token", "attacker") \
        == Asset.from_string("1000000.0000 EOS")
    # Official EOS balances are untouched.
    assert token_balance(chain, "eosio.token", "attacker").amount == 0
