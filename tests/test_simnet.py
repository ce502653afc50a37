"""Latency model, message delivery, and per-context accounting."""
import heapq
import statistics

import pytest

from chainsim.rng import substream
from chainsim.simnet import (
    BadSampleFile,
    ContextCounters,
    LatencyMatrix,
    Network,
    UnknownAddress,
    build_latency_matrix,
    load_latency_samples,
)


class MiniClock:
    """Standalone heap scheduler for exercising the network in isolation."""

    def __init__(self):
        self.now = 0
        self._heap = []
        self._seq = 0

    def schedule_at(self, fire_time, fn):
        self._seq += 1
        heapq.heappush(self._heap, (fire_time, self._seq, fn))

    def run(self):
        while self._heap:
            self.now, _, fn = heapq.heappop(self._heap)
            fn()


def fixed_network(n: int, latency_ms: int) -> tuple[Network, MiniClock]:
    clock = MiniClock()
    matrix = build_latency_matrix(n, seed=0, samples=[float(latency_ms)])
    net = Network(matrix, clock=lambda: clock.now, schedule_at=clock.schedule_at)
    return net, clock


def test_matrix_is_symmetric_and_complete():
    matrix = build_latency_matrix(3, seed=1)
    assert len(matrix.all_values()) == 3
    for a in range(3):
        for b in range(3):
            assert matrix.latency(a, b) == matrix.latency(b, a)
    assert matrix.latency(1, 1) == 0


def test_flat_layout_symmetric_with_zero_diagonal():
    n = 7
    matrix = build_latency_matrix(n, seed=3)
    values = matrix.values
    assert len(values) == n * n
    for a in range(n):
        assert values[a * n + a] == 0
        for b in range(n):
            assert values[a * n + b] == values[b * n + a] == matrix.latency(a, b)
    assert matrix.all_values() == [values[a * n + b]
                                   for a in range(n) for b in range(a + 1, n)]


def test_pairs_drawn_in_row_order():
    # integral samples inside [5, 300] pass the clamp and rounding unchanged
    samples = [float(ms) for ms in range(5, 300, 7)]
    rng = substream(9, "latency")
    expected = [int(samples[rng.randrange(len(samples))])
                for a in range(6) for b in range(a + 1, 6)]
    assert build_latency_matrix(6, seed=9, samples=samples).all_values() == expected


def test_matrix_deterministic_per_seed():
    assert build_latency_matrix(10, seed=4).values == build_latency_matrix(10, seed=4).values
    assert build_latency_matrix(10, seed=4).values != build_latency_matrix(10, seed=5).values


def test_builtin_median_near_configured():
    # 142 nodes give 10011 pairwise draws
    matrix = build_latency_matrix(142, seed=2, median_ms=50.0)
    values = matrix.all_values()
    assert len(values) == 142 * 141 // 2
    assert abs(statistics.median(values) - 50.0) <= 5.0
    assert min(values) >= 5 and max(values) <= 300


def test_percentile_endpoints():
    matrix = LatencyMatrix(n=3, values=[0, 10, 20, 10, 0, 30, 20, 30, 0])
    assert matrix.percentile(0.0) == 10
    assert matrix.percentile(0.5) == 20
    assert matrix.percentile(1.0) == 30


def test_delivery_time_is_additive():
    net, clock = fixed_network(2, latency_ms=40)
    seen = []
    clock.schedule_at(100, lambda: net.send(
        0, 1, "tag", 10, ContextCounters(),
        handler=lambda: seen.append(clock.now)))
    clock.run()
    assert seen == [140]


@pytest.mark.parametrize("with_context", [False, True])
@pytest.mark.parametrize("src, dst, error", [
    (0, 1, None),
    (2, 0, None),
    (1, 2, None),
    (0, -1, UnknownAddress),
    (-1, 0, UnknownAddress),
    (0, 3, UnknownAddress),
    (3, 0, UnknownAddress),
    (1, 1, ValueError),
])
def test_send_is_a_one_hop_send_path(src, dst, error, with_context):
    matrix = build_latency_matrix(3, seed=1)
    outcomes = []
    for one_hop in (lambda net, ctx, done: net.send(src, dst, "tag", 9, ctx, done),
                    lambda net, ctx, done: net.send_path([src, dst], "tag", 9, ctx, done)):
        clock = MiniClock()
        clock.now = 100
        net = Network(matrix, clock=lambda: clock.now, schedule_at=clock.schedule_at)
        ctx = ContextCounters() if with_context else None
        seen = []
        raised = None
        try:
            one_hop(net, ctx, lambda: seen.append(clock.now))
        except Exception as exc:
            raised = type(exc)
        clock.run()
        outcomes.append((raised, seen, net.total_messages, net.total_bytes,
                         net.contexted_messages, net.uncontexted_messages,
                         net.delivered_messages, ctx))
    assert outcomes[0] == outcomes[1]
    raised, seen, *counters, ctx = outcomes[0]
    assert raised is error
    if error is None:
        assert seen == [100 + matrix.latency(src, dst)]
        assert counters == [1, 9, int(with_context), int(not with_context), 1]
        assert ctx == (ContextCounters(messages=1, bytes=9) if with_context else None)
    else:
        assert seen == [] and counters == [0, 0, 0, 0, 0]
        assert ctx == (ContextCounters() if with_context else None)


def test_unregistered_and_self_sends_rejected():
    net, _ = fixed_network(2, latency_ms=10)
    with pytest.raises(UnknownAddress):
        net.send(0, 9, "tag", 1, None, None)
    for src, dst in ((0, -1), (-1, 0)):   # a list index would wrap round
        with pytest.raises(UnknownAddress):
            net.send(src, dst, "tag", 1, None, None)
    with pytest.raises(ValueError):
        net.send(0, 0, "tag", 1, None, None)


def test_context_counts_track_hops_and_reply():
    net, clock = fixed_network(5, latency_ms=10)
    path = list(range(5))   # 4 inter-owner hops
    counters = ContextCounters()

    def reply():
        net.send(path[-1], path[0], "reply", 41, counters, handler=None)

    net.send_path(path, "route", 72, counters, on_done=reply)
    clock.run()
    assert counters.messages == 4 + 1
    assert counters.bytes == 4 * 72 + 41
    assert net.delivered_messages == 5
    net.check_accounting()


@pytest.mark.parametrize("hops, error", [
    ([9, 0, 1], UnknownAddress),     # unregistered first hop
    ([0, 9, 1], UnknownAddress),     # unregistered hop in the middle
    ([0, 1, 9], UnknownAddress),     # unregistered last hop
    ([0, 1, 1, 2], ValueError),      # two consecutive equal hops
    ([0, -1, 1], UnknownAddress),    # negative hop, which a list index would wrap
])
def test_bad_path_raises_before_any_accounting(hops, error):
    net, clock = fixed_network(3, latency_ms=10)
    ctx = ContextCounters()
    net.send(0, 1, "a", 5, ctx, None)
    net.send(1, 2, "b", 7, None, None)

    def state():
        return (net.total_messages, net.total_bytes, net.uncontexted_messages,
                ctx.messages, ctx.bytes, len(clock._heap))

    before = state()
    for context in (ctx, None):
        with pytest.raises(error):
            net.send_path(hops, "route", 72, context,
                          on_done=lambda: None)
    assert state() == before
    net.check_accounting()


def test_single_owner_path_costs_nothing():
    net, clock = fixed_network(2, latency_ms=10)
    done = []
    net.send_path([0], "route", 72, None, on_done=lambda: done.append(True))
    clock.run()
    assert done == [True]
    assert net.total_messages == 0


def test_accounting_totals_split_by_context():
    net, clock = fixed_network(3, latency_ms=10)
    c1 = ContextCounters()
    net.send(0, 1, "a", 5, c1, None)
    net.send(1, 2, "b", 7, None, None)
    clock.run()
    assert net.total_messages == 2
    assert net.uncontexted_messages == 1
    assert c1.bytes == 5
    net.check_accounting()


def test_load_latency_samples_errors(tmp_path):
    good = tmp_path / "good.txt"
    good.write_text("10\n20.5\n\n30\n")
    assert load_latency_samples(str(good)) == [10.0, 20.5, 30.0]
    bad = tmp_path / "bad.txt"
    bad.write_text("10\nnope\n")
    with pytest.raises(BadSampleFile):
        load_latency_samples(str(bad))
    neg = tmp_path / "neg.txt"
    neg.write_text("-5\n")
    with pytest.raises(BadSampleFile):
        load_latency_samples(str(neg))
    for name, text in (("nan", "10\nnan\n"), ("inf", "inf\n"), ("ninf", "10\n-inf\n")):
        non_finite = tmp_path / f"{name}.txt"
        non_finite.write_text(text)
        with pytest.raises(BadSampleFile):
            load_latency_samples(str(non_finite))
    empty = tmp_path / "empty.txt"
    empty.write_text("\n")
    with pytest.raises(BadSampleFile):
        load_latency_samples(str(empty))
