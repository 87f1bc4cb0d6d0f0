"""Smoke-size checks of the benchmark itself.

Each workload runs a few steps at smoke size, so the whole module takes
seconds. The work counters the traced run reports must repeat exactly
for the same seed, a second seed must run without a failed operation,
traced and untraced blocks must see the same key events, the units
must match ``BENCHMARK.json`` and the tracer must leave no patch behind.
"""

from __future__ import annotations

import collections
import importlib
import json
import pathlib

import pytest

from perfbench import harness
from perfbench.harness import END_TO_END_UNITS, run_workload, traced_block
from perfbench.tracer import COUNTS, LAYER_UNITS, MODEXP_MODULES, SPANS, \
    TRACKED
from perfbench.workloads import WORKLOADS

BENCHMARK_JSON = pathlib.Path(__file__).resolve().parent.parent \
    / "BENCHMARK.json"

SMOKE_STEPS = {"cell-day": 2, "fleet-oneshot": 8, "standing-tenants": 4}

REPEATED_COUNTS = (
    "crypto.hmac_calls", "crypto.modexp_calls", "store.pages_read",
    "store.pages_written", "network.messages", "network.bytes",
    "journal.records", "sim.events_executed", "keymgmt.agreements",
    "setup.crypto.hmac_calls", "setup.crypto.modexp_calls",
    "setup.keymgmt.agreements", "setup.store.pages_written",
)


@pytest.fixture(autouse=True)
def _trace_files_in_tmp(tmp_path, monkeypatch):
    monkeypatch.setattr(harness, "OUT_DIR", tmp_path)


def _traced(name: str, seed: int):
    return run_workload(name, seed, 0, trace=True, smoke=True,
                        steps=SMOKE_STEPS[name])


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_counts_repeat_exactly(name):
    first = _traced(name, seed=7)
    second = _traced(name, seed=7)
    assert first.failed == second.failed == 0
    for metric in REPEATED_COUNTS:
        assert first.metrics[metric] == second.metrics[metric], metric


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_second_seed_fails_nothing(name):
    result = run_workload(name, 8, 0, trace=False, smoke=True,
                          steps=SMOKE_STEPS[name])
    assert result.attempted > 0
    assert result.failed == 0
    assert set(result.metrics) == set(END_TO_END_UNITS)
    assert all(value > 0 for value in result.metrics.values())


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_and_untraced_blocks_see_the_same_key_events(name):
    workload = WORKLOADS[name](seed=1)
    seen = {True: collections.Counter(), False: collections.Counter()}
    # Four blocks: traced, untraced, untraced, traced; a pass restarts
    # the workload's own step index.
    for index in range(4 * workload.block):
        seen[traced_block(index, workload.block)].update(
            workload.key_events(index % (workload.pass_steps or index + 1)))
    assert seen[True] == seen[False]


def test_a_run_starts_over_when_its_inputs_run_out():
    steps = 2 * WORKLOADS["standing-tenants"](seed=2, smoke=True).pass_steps
    result = run_workload("standing-tenants", 2, 0, trace=False, smoke=True,
                          steps=steps + 1)
    assert result.failed == 0
    assert result.detail["timed_passes"] == 2
    assert result.detail["timed_steps"] == steps


def test_units_match_benchmark_json():
    declared = json.loads(BENCHMARK_JSON.read_text())
    assert {metric["name"]: metric["unit"]
            for metric in declared["end_to_end"]} == END_TO_END_UNITS
    assert {metric["name"]: metric["unit"]
            for metric in declared["per_layer"]} == LAYER_UNITS
    assert set(_traced("cell-day", seed=5).metrics) == set(LAYER_UNITS)


def _current(module_name: str, path: str):
    owner = importlib.import_module(module_name)
    for part in path.split("."):
        owner = owner.__dict__[part] if isinstance(owner, type) \
            else getattr(owner, part)
    return owner


def test_tracer_leaves_no_patch_behind():
    patched = [(module, path) for module, path, *_ in SPANS + COUNTS]
    patched += [(module, f"{name}.__init__") for module, name in TRACKED]
    patched += [
        ("repro.infrastructure.network", "Network.register"),
        # bindings of patched functions outside their defining module
        ("repro.store.log_store", "decode_page"),
        ("repro.keymgmt.directory", "generate_exchange_keypair"),
        ("repro.fedquery.coordinator", "wire_size"),
    ]
    before = {key: _current(*key) for key in patched}
    _traced("fleet-oneshot", seed=3)
    for key, original in before.items():
        assert _current(*key) is original, key
    for module_name in MODEXP_MODULES:
        assert "pow" not in vars(importlib.import_module(module_name))
