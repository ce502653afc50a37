"""When an owner stops waiting on a validation round.

A round is decided at its threshold approval, and a tx round also at the
rejection that leaves it short of the threshold; a block round short of
the threshold waits for every reply or its timeout.
"""
from heapq import heappop

from chainsim.consensus import EconomyLedger, apply_finalization_fees
from chainsim.engine import Simulation, ValidationRound
from chainsim.identity import hash_bytes
from chainsim.simnet import TAG_VALIDATE_REQUEST, ContextCounters, Network
from chainsim.storage import (
    DECISION_APPROVE,
    DECISION_REJECT,
    DECISION_SILENT,
    new_block,
    new_transaction,
)
from conftest import BARE_THRESHOLD, BARE_VALIDATORS, bare_simulation


def step(sim: Simulation) -> None:
    """Run the next queued event."""
    sim.now, _, fn = heappop(sim._heap)
    fn()


def run_round(sim: Simulation, tx) -> tuple[ValidationRound, list]:
    """Start a round for `tx` and run until it is decided; also return the
    ticket decisions of each result it reports."""
    results = []

    def on_result(tickets, approved):
        decisions = [t.decision for t in tickets]
        # the verdict and the signature count agree with the tickets
        assert approved == (decisions.count(DECISION_APPROVE) >= sim.cfg.signature_threshold)
        assert tx.signatures == len(decisions) - decisions.count(DECISION_SILENT)
        results.append(decisions)

    round_ = ValidationRound(sim, tx, ContextCounters(), on_result=on_result)
    round_.start()
    while not results:
        step(sim)
    return round_, results


def test_round_is_decided_at_the_threshold_approval(monkeypatch):
    late = []   # replies that land after the round is decided
    reply = ValidationRound._reply

    def watched(round_, ticket, decision):
        if round_.done:
            late.append(ticket)
        reply(round_, ticket, decision)

    monkeypatch.setattr(ValidationRound, "_reply", watched)
    sim = bare_simulation()
    tx = new_transaction(0, 1, 1, sim.genesis.id, seq=0, created_at=0)
    round_, results = run_round(sim, tx)
    decided = results[0]
    assert decided.count(DECISION_APPROVE) == BARE_THRESHOLD
    assert decided.count(DECISION_SILENT) == BARE_VALIDATORS - BARE_THRESHOLD
    # the rest of the replies land, and a timeout fires: nothing changes
    while sim._heap:
        step(sim)
    round_._timeout()
    assert late
    assert all(t.decision == DECISION_SILENT for t in late)
    assert results == [decided]
    assert [t.decision for t in round_.tickets] == decided
    # only the approvers that replied in time earn a validation fee
    cfg = sim.cfg
    ledger = EconomyLedger.create(cfg.nodes, cfg.initial_balance)
    apply_finalization_fees(ledger, tx.owner, round_.tickets, cfg, is_block=False)
    for ticket in round_.tickets:
        # every validator also earns the routing fee of the search that found it
        earned = ledger.balances[ticket.validator] - cfg.initial_balance - cfg.routing_fee
        assert earned == (cfg.validation_fee if ticket.decision == DECISION_APPROVE else 0)


def watch_requests(monkeypatch) -> list:
    """Record the round of every validate-request, in send order."""
    requests = []
    send = Network.send

    def watched_send(net, src, dst, tag, size, context, handler, payload=None):
        if tag == TAG_VALIDATE_REQUEST:
            requests.append(handler.func.__self__)
        send(net, src, dst, tag, size, context, handler, payload)

    monkeypatch.setattr(Network, "send", watched_send)
    return requests


def test_failed_tx_round_is_decided_at_the_rejection_that_dooms_it(monkeypatch):
    requests = watch_requests(monkeypatch)
    sim = bare_simulation()
    # an amount other than 1 is invalid, so every honest validator rejects
    tx = new_transaction(0, 1, 2, sim.genesis.id, seq=0, created_at=0)
    round_, results = run_round(sim, tx)
    # 12 validators and a threshold of 10: the third rejection decides it
    rejections = BARE_VALIDATORS - BARE_THRESHOLD + 1
    decided = results[0]
    assert decided.count(DECISION_REJECT) == rejections
    assert decided.count(DECISION_SILENT) == BARE_VALIDATORS - rejections
    # some validators are found only after the decision, and get no request
    found_after = round_.unresolved
    assert found_after > 0
    sent_before = len(requests)
    while sim._heap:
        step(sim)
    round_._timeout()
    assert requests.count(round_) == sent_before == BARE_VALIDATORS - found_after
    assert results == [decided]


def test_block_round_short_of_the_threshold_waits_for_every_reply():
    sim = bare_simulation()
    # a block two above its parent is invalid, so every honest validator rejects
    tx_ids = [hash_bytes(b"tx", bytes([i])) for i in range(sim.cfg.block_size_min)]
    block = new_block(0, sim.genesis.id, 2, tx_ids, created_at=0)
    round_, results = run_round(sim, block)
    assert results == [[DECISION_REJECT] * BARE_VALIDATORS]
    assert round_.pending_replies == 0
