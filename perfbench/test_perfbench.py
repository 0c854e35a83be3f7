"""Self-tests of the benchmark's own arithmetic and tracing.

    python3 -m pytest -q perfbench
"""

import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import spans  # noqa: E402
from spans import Span  # noqa: E402


def test_self_time_subtracts_the_union_of_direct_children():
    tree = [
        Span("root", "engine", 0.0, 10.0),
        Span("a", "rng", 1.0, 4.0, parent=0),
        Span("b", "transform", 3.0, 6.0, parent=0),   # overlaps a
        Span("c", "rng", 8.0, 9.0, parent=0),
        Span("a.child", "io", 2.0, 3.0, parent=1),    # grandchild of root
    ]
    assert spans.self_times(tree) == pytest.approx([4.0, 2.0, 3.0, 1.0, 1.0])
    assert spans.busy(tree, "rng") == pytest.approx(4.0)
    assert spans.union_length([(0.0, 1.0), (0.5, 2.0), (3.0, 4.0)]) == pytest.approx(3.0)


def test_path_steps_of_a_tiny_curve():
    # 4 paths: 4 alive at step 1, 3 at step 2, 1 at step 3
    assert spans.path_steps([1, 2, 3], [3, 1, 0], 4) == 8
    with pytest.raises(ValueError):
        spans.path_steps([1, 3], [3, 1], 4)


def test_engine_layer_counts_and_self_time():
    tree = [
        Span("cli.estimate_survival", "engine", 0.0, 5.0,
             counts={"path_steps": 8, "path_slots": 12}),
        Span("mc.path_uniform_block", "rng", 0.5, 1.5, parent=0, counts={"words": 16}),
        Span("InnovationSpec.transform", "transform", 1.5, 2.0, parent=0,
             counts={"samples": 16, "kind": "gaussian"}),
    ]
    got = spans.layer_metrics(tree, path_steps=8)
    assert got["engine.self_s"] == pytest.approx(3.5)
    assert got["engine.live_fraction"] == pytest.approx(8 / 12)
    assert got["rng.useful_word_ratio"] == pytest.approx(0.5)
    assert got["transform.samples_per_s.gaussian"] == pytest.approx(32.0)
    assert got["transform.samples_per_s.two_point"] == 0.0


def test_missing_entry_points_mark_the_layer_absent():
    from arsurvival import mc

    layers = {
        "rng": [("arsurvival.mc", "path_uniform_block", spans._words),
                ("arsurvival.mc", "no_such_block", spans._words)],
        "gone": [("arsurvival.mc", "no_such_function", None),
                 ("arsurvival.no_such_module", "f", None)],
    }
    original = mc.path_uniform_block
    with spans.Tracer(layers) as tracer:
        assert mc.path_uniform_block is not original
    assert mc.path_uniform_block is original
    assert tracer.absent == ["gone"]
    assert tracer.missing == ["arsurvival.mc.no_such_block", "arsurvival.mc.no_such_function",
                              "arsurvival.no_such_module.f"]


def test_every_layer_target_exists_and_method_wrappers_are_removed():
    from arsurvival.innovations import InnovationSpec

    with spans.Tracer(spans.LAYERS) as tracer:
        pass
    assert tracer.absent == [] and tracer.missing == []
    assert "transform" in vars(InnovationSpec)


def test_benchmark_json_lists_every_per_layer_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == spans.UNITS
    assert set(spans.layer_metrics([], 0)) | {"trace.overhead_s"} == set(spans.UNITS)
