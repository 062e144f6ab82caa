"""Self-tests of the benchmark. Run explicitly (about a minute)::

    python -m pytest perfbench/tests -q

They are not in the tier-1 ``testpaths``: they time things, start a live
fleet on loopback, and fork a process pool.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from importlib import import_module
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT))

from perfbench.harness import bootstrap  # noqa: E402

bootstrap()

from perfbench import spec, trace  # noqa: E402
from perfbench.protocol import run_workload  # noqa: E402
from perfbench.workloads import QUICK_SCALE  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9_.-]+$")


@pytest.fixture(scope="module")
def quick_out(tmp_path_factory) -> Path:
    """One ``--quick`` pass over everything, shared by the tests below."""
    out = tmp_path_factory.mktemp("perfbench_out")
    done = subprocess.run(
        [sys.executable, "-m", "perfbench", "--quick", "--out", str(out)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stdout[-3000:] + done.stderr[-3000:]
    return out


def test_quick_pass_fails_no_operation(quick_out):
    e2e = json.loads((quick_out / "e2e.json").read_text())
    assert set(e2e["workloads"]) == set(spec.WORKLOADS)
    for name, entry in e2e["workloads"].items():
        assert entry["attempted"] >= 1
        assert entry["ops_failed_ratio"] == 0, (name, entry["notes"])
    layers = json.loads((quick_out / "layers.json").read_text())
    for name, entry in layers["workloads"].items():
        assert entry["metrics"]["ops_failed_ratio"] == 0, (name,
                                                           entry["notes"])
    census = json.loads((quick_out / "census.json").read_text())
    assert census["engine_divergence"] and census["fallback_reasons"]
    assert sum(census["fallback_counts"].values()) == len(
        census["fallback_reasons"])


def test_every_emitted_name_is_in_benchmark_json(quick_out):
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert benchmark == spec.benchmark_json()
    gated = {m["name"] for m in benchmark["end_to_end"]}
    layered = {m["name"] for m in benchmark["per_layer"]}
    assert {w["name"] for w in benchmark["workloads"]} == set(spec.WORKLOADS)
    e2e = json.loads((quick_out / "e2e.json").read_text())
    layers = json.loads((quick_out / "layers.json").read_text())
    for entry in e2e["workloads"].values():
        assert set(entry["metrics"]) == gated
    for entry in layers["workloads"].values():
        assert set(entry["metrics"]) == layered
    for name in gated | layered | set(spec.WORKLOADS):
        assert NAME.match(name) and len(name) <= 64, name


def test_layer_facts_the_issue_names(quick_out):
    layers = json.loads((quick_out / "layers.json").read_text())["workloads"]
    for name, entry in layers.items():
        calls = entry["metrics"]["obs.calls"]
        assert (calls > 0) == (name == "observed"), (name, calls)
        assert entry["metrics"]["trace.overhead_ratio"] > 0
    fallback = {n: e["metrics"]["sim.batch.fallback"]
                for n, e in layers.items()}
    assert fallback["batch_packet"] == 0
    assert fallback["observed"] == fallback["impaired_fallback"] == 1
    assert layers["observed"]["fallback_reason"] == "telemetry attached"
    assert layers["live_fleet"]["metrics"]["live.clock.probe_share"] > 0


def test_self_time_never_exceeds_span_time(quick_out):
    for name in spec.WORKLOADS:
        traced = json.loads((quick_out / f"trace_{name}.json").read_text())
        assert traced["spans_total"] > 0
        for layer, row in traced["layers"].items():
            assert 0 <= row["self_s"] <= row["total_s"] + 1e-12, (name, layer)
        for _id, _callable, start, end, _parent in traced["spans"]:
            assert end >= start

    tracer = trace.Tracer()
    leaf = tracer.wrap(lambda: sum(range(2000)), "net.link", "leaf")
    root = tracer.wrap(lambda: [leaf() for _ in range(50)], "sim.events",
                       "root")
    root()
    table = tracer.layer_table()
    assert table["net.link"]["calls"] == 50
    assert table["sim.events"]["self_s"] <= table["sim.events"]["total_s"]
    assert (table["sim.events"]["self_s"] + table["net.link"]["self_s"]
            <= table["sim.events"]["total_s"] + 1e-12)
    parents = {row[4] for row in tracer.spans()}
    assert parents == {-1, tracer.spans()[-1][0]}


def test_tracing_wrappers_are_removed():
    def current():
        found = {}
        for groups in trace.TARGETS.values():
            for module_name, class_name, names in groups:
                module = import_module(module_name)
                owner = (vars(getattr(module, class_name)) if class_name
                         else vars(module))
                for name in names:
                    found[(module_name, class_name, name)] = owner[name]
        return found

    import repro.bench.parallel as parallel
    before = current()
    imported = parallel.build_session
    tracer = trace.install()
    try:
        during = current()
        assert all(during[key] is not before[key] for key in before)
        assert parallel.build_session is not imported
    finally:
        tracer.remove()
    after = current()
    assert all(after[key] is before[key] for key in before)
    assert parallel.build_session is imported


def test_wrong_pin_fails_every_operation(tmp_path):
    expected = json.loads((ROOT / "perfbench" / "expected.json").read_text())
    for pin in expected["entries"]["ref_packet"][f"{QUICK_SCALE:g}"]:
        pin["fingerprint"] = "0" * 64
    wrong = tmp_path / "expected.json"
    wrong.write_text(json.dumps(expected))
    bad = run_workload("ref_packet", spec.DEFAULT_SEED, 2.0, quick=True,
                       expected=str(wrong))
    assert not bad.correct and bad.failed == bad.attempted
    assert any("fingerprint" in note for note in bad.notes)
    good = run_workload("ref_packet", spec.DEFAULT_SEED, 2.0, quick=True)
    assert good.correct and good.failed == 0
