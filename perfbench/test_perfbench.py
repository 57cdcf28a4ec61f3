"""Checks of the benchmark's trace seam and workload generator.

Run from the repository root:  python3 -m pytest -q perfbench
"""

import json
import signal
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import fracdg  # noqa: E402
from fracdg import kernel, stepper  # noqa: E402
from fracdg.mesh import graded_mesh  # noqa: E402
from fracdg.problems import two_mode_problem  # noqa: E402
from probe import REFERENCE_S, SpeedProbe, Timing  # noqa: E402
from run import END_TO_END  # noqa: E402
from tracing import BRANCHES, TRACED, Tracer, layer_metrics  # noqa: E402
from workloads import WORKLOADS, diagnostic_trials  # noqa: E402


def test_traced_solve_reproduces_baseline_branch_counts():
    # graded N=72, p=2, gamma=2.3: the ROADMAP baseline of 72 local / 214 near / 2342 far
    N = 72
    mesh = graded_mesh(1.0, N, 2.3, 2)
    tracer = Tracer()
    tracer.install()
    try:
        stepper.solve(stepper.mode_problems(two_mode_problem(-0.7)), mesh, -0.7)
    finally:
        assert tracer.restore() == []
    counts = {b: tracer.total(f"kernel.memory_block.{b}", 0) for b in BRANCHES}
    assert counts == {"local": 72, "near": 214, "far": 2342}
    # each (j, n) block is built exactly once, as test_history_cost_scaling requires
    assert sum(counts.values()) == N * (N + 1) // 2
    assert len(tracer.block_keys) == N * (N + 1) // 2
    assert tracer.total("kernel.memory_block.near", 0, parent="stepper.solve") == 214


def test_restore_puts_back_every_binding():
    originals = {
        (module, function): getattr(getattr(fracdg, module), function)
        for module, function in TRACED
    }
    tracer = Tracer()
    tracer.install()
    try:
        assert stepper.memory_block is not originals[("kernel", "memory_block")]
        assert kernel.memory_block is not originals[("kernel", "memory_block")]
        assert fracdg.solve is not originals[("stepper", "solve")]
    finally:
        assert tracer.restore() == []
    for (module, function), original in originals.items():
        assert getattr(getattr(fracdg, module), function) is original
    assert stepper.memory_block is originals[("kernel", "memory_block")]
    assert fracdg.solve is originals[("stepper", "solve")]


def test_diagnostic_trials_vary_values_not_sizes():
    first, again, other = (diagnostic_trials(s) for s in (1, 1, 2))
    for a, b, c in zip(first, again, other):
        assert a.alpha == b.alpha and np.array_equal(a.mesh.nodes, b.mesh.nodes)
        assert a.alpha != c.alpha
        assert np.array_equal(a.mesh.degrees, c.mesh.degrees)
        assert len(a.modes) == len(c.modes)


def test_benchmark_json_lists_what_the_benchmark_reports():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(w["name"], w["why"]) for w in spec["workloads"]] == [
        (w.name, w.why) for w in WORKLOADS.values()
    ]
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(END_TO_END.items())
    reported = layer_metrics(Tracer(), Tracer(), 1, 0, 0.0)
    assert [m["name"] for m in spec["per_layer"]] == list(reported)
    assert all(m["unit"] == reported[m["name"]][1] for m in spec["per_layer"])


def test_scaled_time_removes_the_probes_and_rescales():
    # 1 s of CPU, of which ten probes took 2e-4 s each: the machine runs at
    # REFERENCE_S / 2e-4 of the reference speed
    timing = Timing(1.0, 1.0, [2e-4] * 10)
    assert timing.scaled == pytest.approx((1.0 - 2e-3) * REFERENCE_S / 2e-4)
    # one probe that was preempted is trimmed away
    slow_probe = Timing(1.0, 1.0, [2e-4] * 9 + [5e-2])
    assert slow_probe.scaled == pytest.approx((1.0 - 9 * 2e-4 - 5e-2) * REFERENCE_S / 2e-4)


def test_probe_samples_the_work_and_uninstalls():
    before = signal.getsignal(signal.SIGPROF)
    with SpeedProbe() as probe:
        _, timing = probe.time(lambda: sum(i * i for i in range(2_000_000)))
    assert signal.getsignal(signal.SIGPROF) is before
    assert signal.getitimer(signal.ITIMER_PROF) == (0.0, 0.0)
    assert len(timing.probes) >= 5 and all(p > 0 for p in timing.probes)
    assert 0 < timing.scaled
