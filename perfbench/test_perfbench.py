"""Tests of the benchmark itself.  Run with  python3 -m pytest perfbench"""

import json
import shutil
import subprocess
import sys
from types import SimpleNamespace

import numpy as np
import pytest

import generate
import run

workloads = run.load_package()
import tracing  # noqa: E402  (needs the package path load_package sets up)
from sarrusjump import analysis  # noqa: E402


@pytest.mark.parametrize("workload", generate.WORKLOADS)
def test_generator_is_deterministic_per_seed(workload):
    first = generate.generate(workload, 7)
    assert generate.generate(workload, 7) == first
    assert generate.inputs_hash(generate.generate(workload, 7)) == generate.inputs_hash(first)
    assert generate.inputs_hash(generate.generate(workload, 8)) != generate.inputs_hash(first)


def test_jump_oracle_flags_perturbed_v0(tmp_path):
    specs = generate.generate("jump_traj", 3)[:1]  # the reference config
    reference = workloads.build("jump_traj", specs, workloads.prepare("jump_traj", specs),
                                tmp_path)[0]
    code = reference.run()
    assert reference.check(code) == []
    summary = json.loads((tmp_path / "summary.json").read_text())
    summary["v0_mps"] *= 1.01
    problems = workloads.check_jump_summary(summary, 9.81, reference=True)
    assert any("h_max" in p for p in problems) and any("t_aer" in p for p in problems)


def test_oracles_flag_perturbed_results():
    assert workloads.check_round_trip(0.012, 0.012 * (1 + 1e-5)) == []
    assert workloads.check_round_trip(0.012, 0.012 * (1 + 2e-4))
    rising = SimpleNamespace(eta=np.array([70.0, 71.0]), status=["ok", "ok"])
    assert workloads.check_sensitivity("m5", rising)
    assert workloads.check_sensitivity("m3", rising) == []
    fit = SimpleNamespace(C1=1.0, C2=2.0, C0=3.0)
    spec = {"C1": 1.0, "C2": 2.0, "C0": 3.0}
    assert workloads.check_fits(fit, fit, spec) == []
    assert workloads.check_fits(fit, fit, dict(spec, C2=2.01))
    wrong_center = [analysis.Equilibrium(1.39, analysis.CENTER, (0j, 0j))]
    right_center = [analysis.Equilibrium(1.3067, analysis.CENTER, (0j, 0j))]
    assert workloads.check_equilibria(wrong_center, right_center)


@pytest.mark.parametrize("workload, n_ops", [("jump_traj", 2), ("design_sweep", 2),
                                             ("design_maps", 5)])
def test_smoke_run_has_no_failures(workload, n_ops, tmp_path, monkeypatch):
    monkeypatch.setattr(run, "WARMUP_OPS", n_ops)
    specs = generate.generate(workload, 1)
    ops = workloads.build(workload, specs, workloads.prepare(workload, specs), tmp_path)
    plain = run.run_phase(ops, 0.0)
    assert len(plain.scaled) == n_ops and plain.problems == []

    originals = {t[:2]: getattr(*t[:2]) for t in tracing.TARGETS}
    work = []
    for _ in range(2):
        with tracing.Tracer().installed() as tracer:
            traced = run.run_phase(ops, 0.0, tracer=tracer)
        assert traced.problems == []
        work.append(tracing.op_work(tracer.spans, n_ops))
    assert work[0] == work[1]
    assert all(getattr(*key) is fn for key, fn in originals.items())
    metrics = tracing.layer_metrics(tracer.spans, n_ops, [1.0] * n_ops)
    if workload == "jump_traj":
        assert metrics["serialize.bytes"][0] > 0 and metrics["dynamics.rk4_steps"][0] > 0
    else:
        assert metrics["serialize.bytes"][0] == 0


def test_parse_importtime_attributes_first_scipy_touch():
    stderr = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |     numpy.core",
        "import time:        50 |        150 |   numpy",
        "import time:        30 |         30 |       scipy._lib",
        "import time:        20 |         50 |     scipy",
        "import time:        10 |         60 |   scipy.optimize",
        "import time:         5 |        215 | sarrusjump",
    ])
    assert run.parse_importtime(stderr) == pytest.approx((215e-6, 60e-6))


def test_command_prints_result_last(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(run.BENCH_DIR / "run.py"), "--workload", "design_maps",
         "--seed", "2", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == {m["name"] for m in json.loads(
        (run.ROOT / "BENCHMARK.json").read_text())["end_to_end"]}


def test_command_fails_without_package_sources(tmp_path):
    shutil.copytree(run.BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "design_maps", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_tail_counts_samples_beyond_it():
    assert run.tail([float(i) for i in range(10)]) == (9.0, 100.0, 0)
    assert run.tail([float(i) for i in range(40)]) == (29.0, 75.0, 10)
