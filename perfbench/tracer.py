"""Outside-in layer tracer for the benchmark.

Nothing in ``src/`` knows about it. While installed, the tracer swaps
the public entry points of each ``repro`` layer for wrappers that open
a span (name, start, end, parent span, trace id) around the real call
and bump work counters; :meth:`LayerTracer.uninstall` puts every
original back. Spans and counts stay in memory; the harness writes them
out when the run ends.

A layer's *self* time is its spans' durations minus the part their
child spans cover; the *unattributed* remainder of a step is the root
span's self time, i.e. the wall time no wrapped layer call covers.
"""

from __future__ import annotations

import builtins
import importlib
import json
import sys
import time
import weakref
from collections import defaultdict
from contextlib import contextmanager

_perf = time.perf_counter

ROOT_SETUP = "root.setup"
ROOT_STEP = "root.step"

#: Raw spans kept per phase for the written trace; the aggregates
#: (busy, self time, counts) always cover every span.
MAX_RAW_SPANS = 20_000

_PARTIAL_KINDS = ("fq.partial", "fq.shard_partial")

_MISSING = object()  # an attribute the patched namespace did not have


# -- post-call hooks: (ledger, args, kwargs, result) -> None ------------------

def _query_result(ledger, args, kwargs, result):
    ledger.counts["store.records_examined"] += result.records_examined


def _envelope_bytes(ledger, args, kwargs, result):
    ledger.counts["crypto.aead_bytes"] += result.size


def _opened_bytes(ledger, args, kwargs, result):
    ledger.counts["crypto.aead_bytes"] += args[0].size


def _sealed_hex_bytes(ledger, args, kwargs, result):
    ledger.counts["crypto.aead_bytes"] += len(result) // 2


def _agreement(ledger, args, kwargs, result):
    ledger.counts["keymgmt.agreements"] += 1


def _mask_elements(ledger, args, kwargs, result):
    ledger.counts["commons.mask_elements"] += sum(len(row) for row in result)


def _gate_partial(ledger, args, kwargs, result):
    ledger.counts["gate.partials"] += 1


def _journal_record(ledger, args, kwargs, result):
    ledger.counts["journal.records"] += 1
    ledger.counts["journal.bytes"] += len(
        json.dumps(args[1], separators=(",", ":")))


def _wire_call(ledger, args, kwargs, result):
    ledger.counts["wire.calls"] += 1


def _window_closed(ledger, args, kwargs, result):
    ledger.counts["standing.windows_closed"] += 1


def _sent(ledger, args, kwargs, result):
    ledger.counts["network.messages"] += 1
    ledger.counts["network.bytes"] += (
        args[4] if len(args) > 4 else kwargs.get("size_bytes", 0))


def _pushed(ledger, args, kwargs, result):
    pushed = getattr(result, "pushed", None)
    ledger.counts["sync.objects_pushed"] += (
        1 if pushed is None else len(pushed))


# (module, attribute path, span name, post-call hook). A bare function
# name is patched in every ``repro`` module that binds it, so callers
# that imported it by name are traced too.
SPANS = (
    ("repro.store.catalog", "Catalog.query", "store.query", _query_result),
    ("repro.store.catalog", "Collection.insert_many", "store.ingest", None),
    ("repro.store.catalog", "Collection.insert", "store.ingest", None),
    ("repro.store.encoding", "decode_page", "store.decode_page", None),
    ("repro.policy.sticky", "DataEnvelope.create", "crypto.aead",
     _envelope_bytes),
    ("repro.policy.sticky", "DataEnvelope.create_bundle", "crypto.aead",
     _envelope_bytes),
    ("repro.policy.sticky", "DataEnvelope.open", "crypto.aead",
     _opened_bytes),
    ("repro.policy.sticky", "DataEnvelope.open_bundle", "crypto.aead",
     _opened_bytes),
    ("repro.fedquery.gate", "seal_records", "crypto.aead", _sealed_hex_bytes),
    ("repro.crypto.keys", "KeyRing.x3dh_initiate", "crypto.dh", _agreement),
    ("repro.crypto.keys", "KeyRing.x3dh_respond", "crypto.dh", None),
    ("repro.crypto.keys", "generate_exchange_keypair", "crypto.dh", None),
    ("repro.keymgmt.directory", "KeyDirectory.activate", "keymgmt.activate",
     None),
    ("repro.fedquery.fleet", "Fleet.advance_epoch", "keymgmt.rotate", None),
    ("repro.fedquery.fleet", "Fleet.revoke", "keymgmt.revoke", None),
    ("repro.commons.aggregation", "AggregationNode.mask_elements_many",
     "commons.mask", _mask_elements),
    ("repro.fedquery.gate", "masked_contribution", "gate.contribution",
     _gate_partial),
    ("repro.fedquery.gate", "net_recovery_mask", "gate.recovery", None),
    ("repro.fedquery.gate", "dp_noise_share", "gate.noise", None),
    ("repro.fedquery.coordinator", "Coordinator.run", "coordinator.flat_run",
     None),
    ("repro.fedquery.hierarchy", "HierarchicalCoordinator.run",
     "coordinator.tree_run", None),
    ("repro.fedquery.journal", "QueryJournal.append", "journal.append",
     _journal_record),
    ("repro.fedquery.spec", "wire_size", "wire.encode", _wire_call),
    ("repro.fedquery.standing", "_CellSubscription.close_window",
     "standing.window_close", _window_closed),
    ("repro.infrastructure.network", "Network.send", "network.send", _sent),
    ("repro.sim.events", "EventLoop.run_until", "sim.run_until", None),
    ("repro.sync.vault", "VaultClient.push_many", "sync.push", _pushed),
    ("repro.sync.vault", "VaultClient.push", "sync.push", _pushed),
)

# Count-only wrappers (no span): calls too small to time one by one.
COUNTS = (
    ("repro.hardware.flash", "NandFlash.read_page", "store.pages_read"),
    ("repro.hardware.flash", "NandFlash.write_page", "store.pages_written"),
    ("repro.infrastructure.cloud", "CloudProvider.put_object", "cloud.puts"),
)

# Instances whose own counters are read at block boundaries.
TRACKED = (
    ("repro.store.page_cache", "PageCache"),
    ("repro.sim.world", "World"),
    ("repro.fedquery.journal", "QueryJournal"),
)

#: Modules whose ``pow`` lookups the traced run shadows to count
#: modular exponentiations.
MODEXP_MODULES = ("repro.crypto.keys", "repro.crypto.signing",
                  "repro.crypto.shamir")


class Ledger:
    """Accumulated spans and counts of one phase (set-up or loop)."""

    def __init__(self) -> None:
        self.busy: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, float] = defaultdict(float)
        self.spans: list[tuple] = []
        self.roots = 0

    def to_dict(self) -> dict:
        return {
            "roots": self.roots,
            "busy_s": dict(self.busy),
            "self_s": dict(self.self_time),
            "calls": dict(self.calls),
            "counts": dict(self.counts),
            "spans": {
                "fields": ["id", "parent", "trace", "name", "start", "end"],
                "rows": self.spans,
            },
        }


class LayerTracer:
    """Span and count recorder over monkeypatched ``repro`` entry points.

    :meth:`install` patches, :meth:`uninstall` restores; between the
    two, every wrapped call lands in :attr:`ledger`. Network handlers
    registered while installed stay wrapped for the endpoint's life and
    pass straight through whenever the tracer is uninstalled.
    """

    def __init__(self) -> None:
        self.enabled = False
        self.ledger = Ledger()
        self._stack: list[list] = []
        self._depth: dict[str, int] = defaultdict(int)
        self._next_id = 0
        self._trace_id = 0
        self._saved: list[tuple[object, str, object]] = []
        self._instances: dict[str, list] = {name: [] for _, name in TRACKED}
        self._external_start: dict[str, float] | None = None

    # -- span primitives -------------------------------------------------------

    def _enter(self, name: str) -> None:
        self._next_id += 1
        self._stack.append([name, _perf(), 0.0, self._next_id])
        self._depth[name] += 1

    def _exit(self) -> None:
        end = _perf()
        name, start, child, span_id = self._stack.pop()
        duration = end - start
        ledger = self.ledger
        ledger.self_time[name] += duration - child
        depth = self._depth[name] - 1
        self._depth[name] = depth
        if depth == 0:
            ledger.busy[name] += duration
            ledger.calls[name] += 1
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[2] += duration
        if len(ledger.spans) < MAX_RAW_SPANS:
            ledger.spans.append((
                span_id, parent[3] if parent is not None else None,
                self._trace_id, name, start, end,
            ))

    @contextmanager
    def root(self, name: str):
        """A root span: one trace id for everything it causes."""
        self._trace_id += 1
        self.ledger.roots += 1
        self._enter(name)
        try:
            yield
        finally:
            self._exit()

    # -- wrappers --------------------------------------------------------------

    def _span_wrapper(self, fn, name, hook):
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            tracer._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit()
            if hook is not None and tracer._depth[name] == 0:
                hook(tracer.ledger, args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _count_wrapper(self, fn, counter):
        tracer = self

        def wrapper(*args, **kwargs):
            if tracer.enabled:
                tracer.ledger.counts[counter] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def _track_wrapper(self, init, bucket):
        instances = self._instances[bucket]

        def wrapper(obj, *args, **kwargs):
            init(obj, *args, **kwargs)
            instances.append(weakref.ref(obj))

        wrapper.__wrapped__ = init
        return wrapper

    def wrap_handler(self, handler):
        """A network handler wrapped in a span named by its endpoint."""
        from repro.fedquery.cell import CellQueryAgent
        from repro.fedquery.coordinator import Coordinator
        from repro.fedquery.hierarchy import HierarchicalCoordinator
        from repro.fedquery.standing import StandingCoordinator

        owner = getattr(handler, "__self__", None)
        if isinstance(owner, CellQueryAgent):
            name, collects = "cell.handle", False
        elif isinstance(owner, StandingCoordinator):
            name, collects = "standing.handle", True
        elif isinstance(owner, (Coordinator, HierarchicalCoordinator)):
            name, collects = "coordinator.handle", True
        else:
            name, collects = "network.handle", False
        tracer = self

        def wrapped(sender, payload):
            if not tracer.enabled:
                return handler(sender, payload)
            counts = tracer.ledger.counts
            if name == "cell.handle":
                counts["cell.messages"] += 1
            elif collects and isinstance(payload, dict) \
                    and payload.get("kind") in _PARTIAL_KINDS:
                counts["coordinator.partials"] += 1
                if payload.get("status") == "ok":
                    counts["coordinator.partials_ok"] += 1
            tracer._enter(name)
            try:
                return handler(sender, payload)
            finally:
                tracer._exit()

        return wrapped

    # -- install / uninstall ---------------------------------------------------

    def _patch(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, owner.__dict__.get(attr, _MISSING)))
        setattr(owner, attr, value)

    def _patch_callable(self, module_name: str, path: str, make) -> None:
        module = importlib.import_module(module_name)
        if "." not in path:
            original = getattr(module, path)
            wrapper = make(original)
            for loaded_name, loaded in list(sys.modules.items()):
                if loaded_name.split(".")[0] == "repro" \
                        and loaded.__dict__.get(path) is original:
                    self._patch(loaded, path, wrapper)
            return
        class_name, attr = path.split(".")
        owner = getattr(module, class_name)
        raw = owner.__dict__[attr]
        if isinstance(raw, classmethod):
            self._patch(owner, attr, classmethod(make(raw.__func__)))
        else:
            self._patch(owner, attr, make(raw))

    def install(self) -> None:
        """Patch every traced entry point and start recording."""
        if self.enabled:
            return
        for module_name, path, name, hook in SPANS:
            self._patch_callable(
                module_name, path,
                lambda fn, n=name, h=hook: self._span_wrapper(fn, n, h))
        for module_name, path, counter in COUNTS:
            self._patch_callable(
                module_name, path,
                lambda fn, c=counter: self._count_wrapper(fn, c))
        for module_name, class_name in TRACKED:
            owner = getattr(importlib.import_module(module_name), class_name)
            self._patch(owner, "__init__",
                        self._track_wrapper(owner.__dict__["__init__"],
                                            class_name))
        network = importlib.import_module("repro.infrastructure.network")
        register = network.Network.__dict__["register"]
        tracer = self

        def traced_register(net, address, handler, *args, **kwargs):
            return register(net, address, tracer.wrap_handler(handler),
                            *args, **kwargs)

        self._patch(network.Network, "register", traced_register)

        def counting_pow(*args):
            tracer.ledger.counts["crypto.modexp_calls"] += 1
            return builtins.pow(*args)

        for module_name in MODEXP_MODULES:
            self._patch(importlib.import_module(module_name), "pow",
                        counting_pow)
        self.enabled = True
        self._external_start = self._external()

    def uninstall(self) -> None:
        """Stop recording and restore every patched attribute."""
        if self.enabled:
            end = self._external()
            for key, value in end.items():
                self.ledger.counts[key] += value - self._external_start[key]
            self.enabled = False
        while self._saved:
            owner, attr, original = self._saved.pop()
            if original is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    @contextmanager
    def installed(self):
        try:
            self.install()
            yield self
        finally:
            self.uninstall()

    @contextmanager
    def aside(self):
        """Installed, but recording into a throwaway ledger: the objects
        created are tracked and their handlers wrapped, while the
        current phase records nothing of it."""
        kept = self.ledger
        self.ledger = Ledger()
        try:
            with self.installed():
                yield self
        finally:
            self.ledger = kept

    # -- counters read from the program's own objects --------------------------

    def _live(self, bucket: str) -> list:
        alive = []
        refs = self._instances[bucket]
        for ref in refs:
            obj = ref()
            if obj is not None:
                alive.append(obj)
        refs[:] = [weakref.ref(obj) for obj in alive]
        return alive

    def _external(self) -> dict[str, float]:
        from repro.crypto.primitives import hmac_invocations

        hits = misses = 0
        for cache in self._live("PageCache"):
            snapshot = cache.snapshot()
            hits += snapshot["hits"]
            misses += snapshot["misses"]
        events = reasks = 0
        for world in self._live("World"):
            events += world.loop.events_executed
            metric = world.obs.metrics.get("fedquery.reasks")
            if metric is not None:
                reasks += metric.value
        return {
            "crypto.hmac_calls": hmac_invocations(),
            "store.cache_hits": hits,
            "store.cache_misses": misses,
            "sim.events_executed": events,
            "coordinator.reasks": reasks,
        }

    def journal_records(self) -> int:
        """Records held by every journal created while traced."""
        return sum(len(journal) for journal in self._live("QueryJournal"))

    def new_phase(self) -> Ledger:
        """Start a fresh ledger; returns the finished one."""
        finished = self.ledger
        self.ledger = Ledger()
        return finished


# -- layer metrics from a ledger ----------------------------------------------

#: Per-step busy time: metric -> span names (outermost calls only).
BUSY_METRICS = {
    "store.query_s": ("store.query",),
    "store.ingest_s": ("store.ingest",),
    "store.decode_page_s": ("store.decode_page",),
    "crypto.aead_s": ("crypto.aead",),
    "crypto.dh_s": ("crypto.dh",),
    "keymgmt.activate_s": ("keymgmt.activate",),
    "keymgmt.rotate_s": ("keymgmt.rotate",),
    "keymgmt.revoke_s": ("keymgmt.revoke",),
    "commons.mask_s": ("commons.mask",),
    "gate.s": ("gate.contribution", "gate.recovery", "gate.noise"),
    "cell.handle_s": ("cell.handle",),
    "coordinator.flat_run_s": ("coordinator.flat_run",),
    "coordinator.tree_run_s": ("coordinator.tree_run",),
    "journal.append_s": ("journal.append",),
    "wire.encode_s": ("wire.encode",),
    "standing.window_close_s": ("standing.window_close",),
    "network.send_s": ("network.send",),
    "sync.push_s": ("sync.push",),
}

#: Per-step self time: metric -> span names.
SELF_METRICS = {
    "coordinator.self_s": ("coordinator.flat_run", "coordinator.tree_run",
                           "coordinator.handle"),
    "standing.drive_self_s": ("standing.handle",),
    "sim.loop_self_s": ("sim.run_until",),
}

#: Per-step work counts, read straight from the ledger.
COUNT_METRICS = (
    "store.records_examined", "store.pages_read", "store.pages_written",
    "crypto.aead_bytes", "crypto.hmac_calls", "crypto.modexp_calls",
    "keymgmt.agreements", "commons.mask_elements", "gate.partials",
    "cell.messages", "coordinator.reasks", "journal.records",
    "journal.bytes", "wire.calls", "standing.windows_closed",
    "network.messages", "network.bytes", "sim.events_executed",
    "sync.objects_pushed", "cloud.puts",
)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def loop_metrics(ledger: Ledger) -> dict[str, float]:
    """Per-step layer metrics of a loop-phase ledger."""
    steps = max(1, ledger.roots)
    metrics = {
        name: sum(ledger.busy.get(span, 0.0) for span in spans) / steps
        for name, spans in BUSY_METRICS.items()
    }
    metrics.update({
        name: sum(ledger.self_time.get(span, 0.0) for span in spans) / steps
        for name, spans in SELF_METRICS.items()
    })
    metrics.update({
        name: ledger.counts.get(name, 0) / steps for name in COUNT_METRICS
    })
    counts = ledger.counts
    metrics["store.cache_hit_ratio"] = _ratio(
        counts.get("store.cache_hits", 0),
        counts.get("store.cache_hits", 0) + counts.get("store.cache_misses", 0))
    metrics["coordinator.useful_partial_ratio"] = _ratio(
        counts.get("coordinator.partials_ok", 0),
        counts.get("coordinator.partials", 0))
    root_wall = ledger.busy.get(ROOT_STEP, 0.0)
    unattributed = ledger.self_time.get(ROOT_STEP, 0.0)
    metrics["trace.step_s"] = root_wall / steps
    metrics["trace.unattributed_s"] = unattributed / steps
    metrics["trace.unattributed_share"] = _ratio(unattributed, root_wall)
    return metrics


#: Set-up phase metrics: metric -> (kind, key).
SETUP_METRICS = {
    "setup.crypto.dh_s": ("busy", "crypto.dh"),
    "setup.crypto.modexp_calls": ("count", "crypto.modexp_calls"),
    "setup.crypto.hmac_calls": ("count", "crypto.hmac_calls"),
    "setup.keymgmt.activate_s": ("busy", "keymgmt.activate"),
    "setup.keymgmt.agreements": ("count", "keymgmt.agreements"),
    "setup.store.ingest_s": ("busy", "store.ingest"),
    "setup.store.pages_written": ("count", "store.pages_written"),
    "setup.network.messages": ("count", "network.messages"),
}


#: Every per-layer metric of a traced run, with its unit.
LAYER_UNITS = {
    **dict.fromkeys((*BUSY_METRICS, *SELF_METRICS, "trace.step_s",
                     "trace.unattributed_s"), "s/step"),
    **dict.fromkeys(COUNT_METRICS, "count/step"),
    **dict.fromkeys(("store.cache_hit_ratio",
                     "coordinator.useful_partial_ratio",
                     "trace.unattributed_share", "trace.overhead_ratio",
                     "setup.unattributed_share", "setup.overhead_ratio"),
                    "ratio"),
    "journal.records_at_end": "count",
    **{name: "s" if kind == "busy" else "count"
       for name, (kind, _) in SETUP_METRICS.items()},
    "setup.traced_s": "s",
}


def setup_metrics(ledger: Ledger) -> dict[str, float]:
    """Layer metrics of one traced set-up."""
    metrics = {}
    for name, (kind, key) in SETUP_METRICS.items():
        source = ledger.busy if kind == "busy" else ledger.counts
        metrics[name] = source.get(key, 0)
    root_wall = ledger.busy.get(ROOT_SETUP, 0.0)
    metrics["setup.traced_s"] = root_wall
    metrics["setup.unattributed_share"] = _ratio(
        ledger.self_time.get(ROOT_SETUP, 0.0), root_wall)
    return metrics
