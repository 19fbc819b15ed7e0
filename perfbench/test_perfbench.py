"""Tests of the benchmark itself: span arithmetic, metric names, checks, smoke.

Run from the repository root with ``python3 -m pytest perfbench``.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import spans  # noqa: E402


def _benchmark_json():
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def test_self_time_subtracts_direct_children_only():
    rows = [
        ["outer", 0.0, 10.0, -1, 1, None],
        ["child", 1.0, 4.0, 0, 1, None],
        ["grandchild", 2.0, 3.0, 1, 1, None],
        ["child", 5.0, 6.0, 0, 1, None],
    ]
    assert spans.self_times(rows) == [6.0, 2.0, 1.0, 1.0]


def test_tracer_nests_spans_and_restores_attributes():
    class Mod:
        @staticmethod
        def leaf(x):
            return x + 1

        @staticmethod
        def top(x):
            return Mod.leaf(x) * 2

    tracer = spans.Tracer()
    tracer.wrap(Mod, "leaf", "m.leaf",
                extra=lambda a, kw, res, pre: {"arg": a[0]})
    tracer.wrap(Mod, "top", "m.top")
    tracer.op = 7
    assert Mod.top(3) == 8
    tracer.active = False
    assert Mod.top(3) == 8
    tracer.unwrap()
    assert [s[0] for s in tracer.spans] == ["m.top", "m.leaf"]
    assert tracer.spans[1][3] == 0 and tracer.spans[1][4] == 7
    assert tracer.spans[1][5] == {"arg": 3}
    assert not hasattr(Mod.leaf, "__wrapped__")


def test_per_layer_names_and_units_match_benchmark_json():
    declared = {m["name"]: m["unit"] for m in _benchmark_json()["per_layer"]}
    produced = spans.layer_metrics([], 0)
    assert set(produced) == set(declared)
    assert {k: spans.unit(k) for k in produced} == declared


def test_distinct_ratio_counts_pairs_per_solve():
    rows = [["solver.solve_spiral", 0.0, 9.0, -1, 1, None]]
    for nu_r in [(0.5, 1.0), (0.5, 1.0), (0.5, 2.0), (0.5, 1.0)]:
        rows.append(["outer.decay_slope", 1.0, 2.0, 0, 1, {"nuR": nu_r}])
    rows.append(["outer.decay_slope", 2.0, 3.0, 0, 1, None])  # it raised
    m = spans.layer_metrics(rows, 1)
    assert m["outer.decay_slope.distinct_ratio"] == 2 / 5
    assert m["outer.decay_slope.calls"] == 5


def test_csv_roundtrip_catches_a_changed_digit(tmp_path):
    from cglspiral import field
    rng = np.random.default_rng(0)
    values = rng.normal(size=(3, 4)) + 1j * rng.normal(size=(3, 4))
    grid = field.FieldGrid(nx=4, ny=3, extent=2.0, t=0.0, chirality=1, n=1,
                           q=0.5, k=0.1, omega=0.5,
                           x=np.linspace(-2.0, 2.0, 4),
                           y=np.linspace(-2.0, 2.0, 3), values=values)
    path = tmp_path / "g.csv"
    field.export(grid, path)
    assert checks.csv_roundtrip(path, grid) == []
    lines = path.read_text().splitlines()
    cells = lines[5].split(",")
    cells[2] = repr(float(cells[2]) * (1.0 + 1e-15))
    lines[5] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")
    assert checks.csv_roundtrip(path, grid)


def test_far_field_endpoint_matches_large_argument_limit():
    # V0 -> -1 - 1/(2R) as R grows, for any order
    f, v = checks.far_field_endpoint(1, 0.5, 0.1, 4000.0)
    R = 0.1 * 0.5 * 4000.0
    assert v == pytest.approx(0.1 * (-1.0 - 1.0 / (2.0 * R)), rel=1e-4)
    assert 0.0 < f < 1.0


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", "work",
                                                  "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cold_n2",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_smoke_run_passes_every_check():
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--smoke"],
                          cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    assert proc.returncode == 0, proc.stderr[-2000:]
    summary = json.loads(proc.stdout.splitlines()[-1])
    assert summary["correct"]
    for name, res in summary["workloads"].items():
        assert res["failed"] == 0 and res["attempted"] >= 1, name
