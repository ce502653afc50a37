"""Simulated middleware: addressed messages with pairwise latency injection.

Latency is drawn once per unordered node pair and fixed for the run, so
delivery is FIFO per ordered pair.  The latencies sit in one flat,
row-major n x n table and a node's address is its index, so a message's
latency is a single list index.
Every send increments the global counters, the counters of its tag and,
when it carries one, the counters of the operation it serves; nothing is
ever lost.  A message with a handler is one scheduled event, the
handler's call when it lands; a message nobody waits for is only counted.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

from .rng import substream

TAG_ROUTE = "overlay-route"
TAG_ANNOUNCE = "announce"
TAG_VALIDATE_REQUEST = "validate-request"
TAG_VALIDATE_REPLY = "validate-reply"
TAG_NOTIFY = "notify"
TAG_PART = "part"

# the builtin log-normal model's median and shape
MEDIAN_LATENCY_MS = 50.0
LATENCY_SHAPE = 0.5
LATENCY_MIN_MS = 5
LATENCY_MAX_MS = 300


class UnknownAddress(Exception):
    def __init__(self, address: int):
        super().__init__(f"no node at address {address}")
        self.address = address


class BadSampleFile(ValueError):
    """Latency samples, from a file or a list, that no run can use."""


@dataclass
class LatencyMatrix:
    """Symmetric pairwise latencies with a zero diagonal.

    `values` is row-major: the latency between nodes a and b is
    `values[a * n + b]`.
    """
    n: int
    values: list[int]

    def latency(self, a: int, b: int) -> int:
        return self.values[a * self.n + b]

    def all_values(self) -> list[int]:
        """One latency per unordered pair (a < b), row by row."""
        n, values = self.n, self.values
        out: list[int] = []
        for a in range(n - 1):
            out += values[a * n + a + 1:(a + 1) * n]
        return out

    def percentile(self, q: float) -> int:
        ordered = sorted(self.all_values())
        index = max(0, math.ceil(q * len(ordered)) - 1)
        return ordered[index]


def check_latency_sample(value: float, text: str | None = None) -> float:
    """`value`, refused unless it is a positive, finite latency; `text` is how it was written."""
    if not math.isfinite(value) or value <= 0:
        raise BadSampleFile("latency sample must be positive and finite: "
                            f"{value if text is None else text!r}")
    return value


def load_latency_samples(path: str) -> list[float]:
    samples = []
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except UnicodeDecodeError as exc:
        raise BadSampleFile(f"{path} is not UTF-8 text: {exc}") from None
    for line in lines:
        line = line.strip()
        if not line:
            continue
        try:
            value = float(line)
        except ValueError:
            raise BadSampleFile(f"non-numeric latency sample: {line!r}") from None
        samples.append(check_latency_sample(value, line))
    if not samples:
        raise BadSampleFile(f"no latency samples in {path}")
    return samples


def build_latency_matrix(n: int, seed: int,
                         samples: list[float] | None = None) -> LatencyMatrix:
    """One latency draw per unordered pair, fixed for the whole run.

    Builtin model: log-normal around MEDIAN_LATENCY_MS with shape
    LATENCY_SHAPE.  A sample list replaces the builtin model and is drawn
    from uniformly with replacement; it must be non-empty and each sample
    positive and finite.  Either is clamped to [5 ms, 300 ms].
    """
    if n < 2:
        raise ValueError("need at least 2 nodes")
    if samples is not None:
        if not samples:
            raise BadSampleFile("no latency samples")
        for value in samples:
            check_latency_sample(value)
    rng = substream(seed, "latency")
    mu = math.log(MEDIAN_LATENCY_MS)
    values = [0] * (n * n)
    for a in range(n):
        row = []
        for _ in range(a + 1, n):
            if samples is not None:
                ms = samples[rng.randrange(len(samples))]
            else:
                ms = rng.lognormvariate(mu, LATENCY_SHAPE)
            ms = min(max(ms, LATENCY_MIN_MS), LATENCY_MAX_MS)
            row.append(max(1, round(ms)))
        # row a right of the diagonal, and its mirror: column a below it
        values[a * n + a + 1:(a + 1) * n] = row
        values[(a + 1) * n + a::n] = row
    return LatencyMatrix(n=n, values=values)


@dataclass(slots=True)
class ContextCounters:
    """Traffic of one operation: a tx slot or a block attempt.

    The operation owns this object and hands it to every send it makes;
    nothing else refers to it, so it is freed with the operation's last
    message.
    """
    messages: int = 0
    bytes: int = 0


class Network:
    """Delivery queue facade over the engine's scheduler.

    `clock` is the engine (or any object with the same two members): the
    network reads its `now` at each send and binds its `schedule_at` once,
    here, so a scheduler patched before construction sees every message.
    """

    def __init__(self, matrix: LatencyMatrix, clock):
        self._latency = matrix.values
        self._n = matrix.n
        self._clock = clock
        self._schedule_at = clock.schedule_at
        self.total_messages = 0
        self.total_bytes = 0
        self.uncontexted_messages = 0
        self.contexted_messages = 0
        # tag -> [messages, bytes] sent with that tag
        self.traffic_by_tag: dict[str, list[int]] = {}

    def round_trip(self, a: int, b: int) -> int:
        """Time from a send a -> b until a reply sent on its arrival lands at a."""
        return 2 * self._latency[a * self._n + b]

    def send(self, src: int, dst: int, tag: str, size: int,
             context: ContextCounters | None,
             handler: Callable[[], None] | None,
             payload: object = None) -> None:
        """One message src -> dst, the same as `send_path([src, dst], ...)`.

        `payload` is not read.
        """
        n = self._n
        # a negative address would silently wrap as a list index
        if not 0 <= src < n:
            raise UnknownAddress(src)
        if not 0 <= dst < n:
            raise UnknownAddress(dst)
        if dst == src:
            raise ValueError("self-sends are disallowed")
        self._post(self._clock.now + self._latency[src * n + dst], tag, 1, size,
                   context, handler)

    def send_path(self, path: Sequence[int], tag: str, size: int,
                  context: ContextCounters | None,
                  on_done: Callable[[], None] | None = None) -> None:
        """Send a hop-by-hop routing chain; one message per inter-owner hop.

        Intermediate hops carry no handler, so the whole chain is accounted
        up front and a single event fires when the last hop lands.  The
        path is checked hop by hop in the same walk that sums the latency,
        and the first bad hop raises before any counter moves.
        """
        if len(path) < 2:
            if on_done is not None:
                self._schedule_at(self._clock.now, on_done)
            return
        latency, n = self._latency, self._n
        src = path[0]
        if not 0 <= src < n:
            raise UnknownAddress(src)
        arrival = self._clock.now
        for dst in path[1:]:
            if not 0 <= dst < n:
                raise UnknownAddress(dst)
            if dst == src:
                raise ValueError("self-sends are disallowed")
            arrival += latency[src * n + dst]
            src = dst
        self._post(arrival, tag, len(path) - 1, size, context, on_done)

    def _post(self, arrival: int, tag: str, hops: int, size: int,
              context: ContextCounters | None,
              handler: Callable[[], None] | None) -> None:
        """Account `hops` messages of `size` bytes; `handler`, if any, runs at `arrival`."""
        self.total_messages += hops
        self.total_bytes += size * hops
        traffic = self.traffic_by_tag.get(tag)
        if traffic is None:
            self.traffic_by_tag[tag] = [hops, size * hops]
        else:
            traffic[0] += hops
            traffic[1] += size * hops
        if context is None:
            self.uncontexted_messages += hops
        else:
            self.contexted_messages += hops
            context.messages += hops
            context.bytes += size * hops
        if handler is not None:
            self._schedule_at(arrival, handler)

    def check_accounting(self) -> None:
        assert self.contexted_messages + self.uncontexted_messages == self.total_messages, (
            "operation and uncontexted message counts do not sum to the total"
        )
