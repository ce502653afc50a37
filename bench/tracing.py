"""Per-layer tracing of chainsim from outside the package.

`instrument` replaces the public functions of each chainsim module with
wrappers that open a span around the call and record counts at the same
boundary.  Nothing under src/ is edited: the wrappers are installed at run
time in the names the callers look up, so a module that imported a
function by name gets the wrapper in its own namespace too.

Spans are aggregated per name as they close (calls, total time, self
time) instead of being kept one by one: a traced run closes millions of
spans, and the per-layer metrics need only the sums.  A span's self time
is its duration minus the time covered by its direct child spans.
"""
from __future__ import annotations

import time
from collections import defaultdict

# Message tags whose counts and bytes are reported (chainsim.simnet TAG_*).
REPORTED_TAGS = ("overlay-route", "announce", "notify", "validate-request", "validate-reply")
CONTROLLER_HANDLERS = ("on_tx_timer", "on_tx_result", "on_block_result", "on_block_notify")


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self._stack: list[list] = []   # open spans: [name, start, time covered by children]
        self.calls: dict[str, int] = defaultdict(int)
        self.total_s: dict[str, float] = defaultdict(float)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)

    def reset(self) -> None:
        """Drop every figure recorded so far, keeping the same dicts."""
        if self._stack:
            raise RuntimeError("cannot reset while a span is open")
        for table in (self.calls, self.total_s, self.self_s, self.counts):
            table.clear()

    def enter(self, name: str) -> None:
        self._stack.append([name, self.clock(), 0.0])

    def exit(self) -> None:
        name, start, covered = self._stack.pop()
        duration = self.clock() - start
        self.calls[name] += 1
        self.total_s[name] += duration
        self.self_s[name] += duration - covered
        if self._stack:
            self._stack[-1][2] += duration

    def wrap(self, name: str, fn):
        """Return `fn` with every call recorded as a span called `name`."""
        enter, exit_ = self.enter, self.exit

        def traced(*args, **kwargs):
            enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                exit_()

        return traced


def _extends(tracker, new_tail, old_tail) -> bool:
    """True when `old_tail` is an ancestor of (or is) `new_tail`."""
    cur = new_tail
    while cur.height > old_tail.height:
        cur = tracker.blocks[cur.parent]
    return cur.id == old_tail.id


def instrument(tracer: Tracer):
    """Install span wrappers on chainsim's public functions.

    Must run before the Simulation is built, because the network binds the
    engine's `schedule_at` at construction.  Returns a function that puts
    every original back.
    """
    import chainsim
    from chainsim import config, consensus, controller, engine, identity, overlay, simnet, storage

    saved = []
    enter, exit_, counts = tracer.enter, tracer.exit, tracer.counts

    def patch(owner, attr, new) -> None:
        saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def patch_everywhere(modules, attr, name) -> None:
        traced = tracer.wrap(name, getattr(modules[0], attr))
        for module in modules:
            patch(module, attr, traced)

    # identity, config, simnet setup and consensus: plain spans
    patch_everywhere((identity, engine, consensus, controller), "hash_bytes", "identity.hash_bytes")
    patch_everywhere((config, chainsim), "parse_config", "config.parse")
    patch_everywhere((simnet, engine), "build_latency_matrix", "simnet.latency_matrix")
    patch_everywhere((consensus, engine), "select_validators", "consensus.select_validators")
    patch_everywhere((consensus, engine), "validate_entity", "consensus.validate_entity")
    for handler in CONTROLLER_HANDLERS:
        patch(controller, handler, tracer.wrap(f"controller.{handler}", getattr(controller, handler)))
    patch(storage.ReplicaStore, "store",
          tracer.wrap("storage.replica_store", storage.ReplicaStore.store))
    patch(engine.Simulation, "run", tracer.wrap("engine.run", engine.Simulation.run))

    # engine: every scheduled handler runs inside a span
    schedule_at = engine.Simulation.schedule_at

    def traced_schedule_at(sim, fire_time, fn):
        def handler():
            enter("engine.handler")
            try:
                fn()
            finally:
                exit_()
        schedule_at(sim, fire_time, handler)
        depth = len(sim._heap)
        if depth > counts["engine.heap_peak"]:
            counts["engine.heap_peak"] = depth

    patch(engine.Simulation, "schedule_at", traced_schedule_at)

    begin_tx = engine.Simulation.begin_tx_validation
    begin_block = engine.Simulation.begin_block_validation

    def traced_begin_tx(sim, state, tx, retry=False):
        if tx.attempt > 0:
            counts["controller.tx_retries"] += 1
        begin_tx(sim, state, tx, retry)

    def traced_begin_block(sim, state, block, retries):
        if retries > 0:
            counts["controller.block_retries"] += 1
        begin_block(sim, state, block, retries)

    patch(engine.Simulation, "begin_tx_validation", traced_begin_tx)
    patch(engine.Simulation, "begin_block_validation", traced_begin_block)

    # controller: pool scans
    pending_pool = controller.pending_pool

    def traced_pending_pool(state):
        counts["controller.pending_pool.scanned"] += len(state.own_finalized)
        enter("controller.pending_pool")
        try:
            return pending_pool(state)
        finally:
            exit_()

    patch(controller, "pending_pool", traced_pending_pool)
    patch(engine, "pending_pool", traced_pending_pool)

    # storage: chain updates and reorgs
    chain_add = storage.ChainTracker.add

    def traced_chain_add(tracker, info):
        old_tail = tracker.tail
        enter("storage.chain_add")
        try:
            chain_add(tracker, info)
        finally:
            exit_()
        if tracker.tail is not old_tail and not _extends(tracker, tracker.tail, old_tail):
            counts["storage.reorgs"] += 1

    patch(storage.ChainTracker, "add", traced_chain_add)

    # overlay: searches and announcements with their hop counts
    search = overlay.SkipGraph.search_num_id
    announce = overlay.SkipGraph.announce

    def traced_search(graph, start, target):
        enter("overlay.search")
        try:
            result = search(graph, start, target)
        finally:
            exit_()
        counts["overlay.search.hops"] += result.hop_count
        return result

    def traced_announce(graph, identifier, owner, kind):
        enter("overlay.announce")
        try:
            path = announce(graph, identifier, owner, kind)
        finally:
            exit_()
        counts["overlay.announce.hops"] += max(0, len(path) - 1)
        return path

    patch(overlay.SkipGraph, "search_num_id", traced_search)
    patch(overlay.SkipGraph, "announce", traced_announce)

    # simnet: messages and bytes by tag
    send = simnet.Network.send
    send_path = simnet.Network.send_path

    def traced_send(net, src, dst, tag, size, context, handler, payload=None):
        enter("simnet.send")
        try:
            env = send(net, src, dst, tag, size, context, handler, payload)
        finally:
            exit_()
        counts[f"simnet.msgs.{tag}"] += 1
        counts[f"simnet.bytes.{tag}"] += size
        return env

    def traced_send_path(net, path, tag, size, context, on_done=None):
        enter("simnet.send_path")
        try:
            send_path(net, path, tag, size, context, on_done)
        finally:
            exit_()
        hops = len(path) - 1 if len(path) >= 2 else 0
        counts[f"simnet.msgs.{tag}"] += hops
        counts[f"simnet.bytes.{tag}"] += size * hops

    patch(simnet.Network, "send", traced_send)
    patch(simnet.Network, "send_path", traced_send_path)

    def restore() -> None:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)

    return restore


def traced_messages(tracer: Tracer) -> int:
    """Messages counted by the send wrappers, over every tag."""
    return sum(v for k, v in tracer.counts.items() if k.startswith("simnet.msgs."))


def layer_metrics(tracer: Tracer, sim, report) -> dict[str, float]:
    """Per-layer figures of one traced run, named by module."""
    t, c = tracer, tracer.counts

    def calls_and_self(span: str) -> dict[str, float]:
        return {f"{span}.calls": t.calls[span], f"{span}.self_s": t.self_s[span]}

    def hops_mean(span: str) -> float:
        return c[f"{span}.hops"] / t.calls[span] if t.calls[span] else 0.0

    finalized = report.finalized_tx_count + report.finalized_block_count
    rounds = t.calls["consensus.select_validators"]
    out = {
        "engine.events": sim.events_processed,
        "engine.loop_self_s": t.self_s["engine.run"],
        "engine.heap_peak": c["engine.heap_peak"],
        "engine.sim_end_s": sim.now / 1000,
        **calls_and_self("storage.chain_add"),
        "storage.reorgs": c["storage.reorgs"],
        **calls_and_self("storage.replica_store"),
        "storage.node_store_max_kb": max(s.store.byte_count for s in sim.nodes) / 1024,
        **calls_and_self("consensus.select_validators"),
        **calls_and_self("consensus.validate_entity"),
        "consensus.round_yield": finalized / rounds if rounds else 0.0,
        "consensus.fork_waste": ((report.finalized_block_count - report.chain_block_count)
                                 / report.finalized_block_count),
        **calls_and_self("overlay.search"),
        "overlay.search.hops_mean": hops_mean("overlay.search"),
        **calls_and_self("overlay.announce"),
        "overlay.announce.hops_mean": hops_mean("overlay.announce"),
        "overlay.vertices": len(sim.overlay),
        **calls_and_self("simnet.send"),
        **calls_and_self("simnet.send_path"),
    }
    for tag in REPORTED_TAGS:
        out[f"simnet.msgs.{tag}"] = c[f"simnet.msgs.{tag}"]
        out[f"simnet.bytes.{tag}"] = c[f"simnet.bytes.{tag}"]
    for handler in CONTROLLER_HANDLERS:
        out[f"controller.{handler}.self_s"] = t.self_s[f"controller.{handler}"]
    out.update(calls_and_self("controller.pending_pool"))
    out["controller.pending_pool.scanned"] = c["controller.pending_pool.scanned"]
    out["controller.tx_retries"] = c["controller.tx_retries"]
    out["controller.block_retries"] = c["controller.block_retries"]
    out.update(calls_and_self("identity.hash_bytes"))
    return out
