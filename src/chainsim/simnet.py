"""Simulated middleware: addressed messages with pairwise latency injection.

Latency is drawn once per unordered node pair and fixed for the run, so
delivery is FIFO per ordered pair.  Every send increments global and
per-context counters; nothing is ever lost.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from .identity import Address
from .rng import substream

TAG_ROUTE = "overlay-route"
TAG_ANNOUNCE = "announce"
TAG_VALIDATE_REQUEST = "validate-request"
TAG_VALIDATE_REPLY = "validate-reply"
TAG_NOTIFY = "notify"

LATENCY_MIN_MS = 5
LATENCY_MAX_MS = 300
DEFAULT_MEDIAN_MS = 50.0
DEFAULT_SIGMA = 0.5


class UnknownAddress(Exception):
    def __init__(self, address: Address):
        super().__init__(f"address not registered: {address}")
        self.address = address


class BadSampleFile(Exception):
    pass


@dataclass(frozen=True)
class Envelope:
    src: Address
    dst: Address
    tag: str
    size: int
    context: str | None
    send_time: int
    deliver_time: int
    payload: object = None


@dataclass
class LatencyMatrix:
    n: int
    values: dict[tuple[int, int], int]

    def latency(self, a: int, b: int) -> int:
        if a == b:
            return 0
        return self.values[(a, b) if a < b else (b, a)]

    def all_values(self) -> list[int]:
        return list(self.values.values())

    def percentile(self, q: float) -> int:
        ordered = sorted(self.values.values())
        index = max(0, math.ceil(q * len(ordered)) - 1)
        return ordered[index]


def load_latency_samples(path: str) -> list[float]:
    samples = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            try:
                value = float(line)
            except ValueError:
                raise BadSampleFile(f"non-numeric latency sample: {line!r}") from None
            if value <= 0:
                raise BadSampleFile(f"latency sample must be positive: {line!r}")
            samples.append(value)
    if not samples:
        raise BadSampleFile(f"no latency samples in {path}")
    return samples


def build_latency_matrix(n: int, seed: int, samples: list[float] | None = None,
                         median_ms: float = DEFAULT_MEDIAN_MS,
                         sigma: float = DEFAULT_SIGMA) -> LatencyMatrix:
    """One latency draw per unordered pair, fixed for the whole run.

    Builtin model: log-normal around `median_ms`, truncated to
    [5 ms, 300 ms].  A sample list replaces the builtin model and is drawn
    from uniformly with replacement.
    """
    if n < 2:
        raise ValueError("need at least 2 nodes")
    rng = substream(seed, "latency")
    mu = math.log(median_ms)
    values: dict[tuple[int, int], int] = {}
    for a in range(n):
        for b in range(a + 1, n):
            if samples is not None:
                ms = samples[rng.randrange(len(samples))]
            else:
                ms = rng.lognormvariate(mu, sigma)
            ms = min(max(ms, LATENCY_MIN_MS), LATENCY_MAX_MS)
            values[(a, b)] = max(1, round(ms))
    return LatencyMatrix(n=n, values=values)


@dataclass
class ContextCounters:
    messages: int = 0
    bytes: int = 0


class Network:
    """Delivery queue facade over the engine's scheduler."""

    def __init__(self, matrix: LatencyMatrix, clock: Callable[[], int],
                 schedule_at: Callable[[int, Callable[[], None]], None],
                 addresses: list[Address]):
        self.matrix = matrix
        self._clock = clock
        self._schedule_at = schedule_at
        self._registered = set(addresses)
        self.total_messages = 0
        self.total_bytes = 0
        self.delivered_messages = 0
        self.uncontexted_messages = 0
        self.per_context: dict[str, ContextCounters] = {}

    def send(self, src: Address, dst: Address, tag: str, size: int,
             context: str | None, handler: Callable[[Envelope], None] | None,
             payload: object = None) -> Envelope:
        if src not in self._registered:
            raise UnknownAddress(src)
        if dst not in self._registered:
            raise UnknownAddress(dst)
        if src == dst:
            raise ValueError("self-sends are disallowed")
        now = self._clock()
        env = Envelope(
            src=src, dst=dst, tag=tag, size=size, context=context,
            send_time=now,
            deliver_time=now + self.matrix.latency(src.node_index, dst.node_index),
            payload=payload,
        )
        self.total_messages += 1
        self.total_bytes += size
        if context is None:
            self.uncontexted_messages += 1
        else:
            counters = self.per_context.setdefault(context, ContextCounters())
            counters.messages += 1
            counters.bytes += size

        def deliver():
            self.delivered_messages += 1
            if handler is not None:
                handler(env)

        self._schedule_at(env.deliver_time, deliver)
        return env

    def send_path(self, path: list[Address], tag: str, size: int,
                  context: str | None,
                  on_done: Callable[[], None] | None = None) -> None:
        """Send a hop-by-hop routing chain; one envelope per inter-owner hop.

        Intermediate hops carry no handler, so the whole chain is accounted
        up front and a single event fires when the last hop lands.
        """
        if len(path) < 2:
            if on_done is not None:
                self._schedule_at(self._clock(), on_done)
            return
        for addr in path:
            if addr not in self._registered:
                raise UnknownAddress(addr)
        arrival = self._clock()
        hops = 0
        for src, dst in zip(path, path[1:]):
            if src == dst:
                raise ValueError("self-sends are disallowed")
            arrival += self.matrix.latency(src.node_index, dst.node_index)
            hops += 1
        self.total_messages += hops
        self.total_bytes += size * hops
        if context is None:
            self.uncontexted_messages += hops
        else:
            counters = self.per_context.setdefault(context, ContextCounters())
            counters.messages += hops
            counters.bytes += size * hops

        def final():
            self.delivered_messages += hops
            if on_done is not None:
                on_done()

        self._schedule_at(arrival, final)

    def context_counters(self, context: str) -> ContextCounters:
        return self.per_context.get(context, ContextCounters())

    def check_accounting(self) -> None:
        total_ctx = sum(c.messages for c in self.per_context.values())
        assert total_ctx + self.uncontexted_messages == self.total_messages, (
            "per-context message counts do not sum to the total"
        )
