"""Tests for the benchmark's own logic: tail selection, self time, op counts.

Run:  python3 -m pytest perfbench/tests
"""

import threading

import pytest

import opcount
import stats
from instrument import fold_times
from tracing import END, PARENT, START, Tracer, covered
from voxcnn import graph


@pytest.mark.parametrize(
    "n, expected",
    [(19, None), (20, "50"), (99, "50"), (100, "90"), (199, "90"), (200, "95"),
     (999, "95"), (1000, "99"), (9999, "99"), (10000, "99.9"), (100000, "99.99")],
)
def test_tail_percentile_keeps_ten_samples_beyond(n, expected):
    assert stats.tail_percentile(n) == expected
    if expected is not None:
        assert stats.samples_beyond(expected, n) >= 10


def test_nearest_rank_percentile():
    values = list(range(1, 201))  # 1..200
    assert stats.nearest_rank(values, "95") == 190
    assert stats.nearest_rank(values, "50") == 100
    assert stats.nearest_rank(reversed(values), "99") == 198
    assert stats.nearest_rank([7.0], "99.9") == 7.0


def _span(tracer, name, start, end, parent=None, thread=0):
    tracer.spans.append([name, start, end, parent, thread, None])
    return len(tracer.spans) - 1


def test_self_time_subtracts_union_of_children():
    t = Tracer()
    root = _span(t, "root", 0.0, 10.0)
    _span(t, "a", 1.0, 4.0, root, thread=1)
    _span(t, "b", 3.0, 6.0, root, thread=2)  # overlaps a on another thread
    child = _span(t, "c", 8.0, 9.0, root)
    _span(t, "grandchild", 8.2, 8.8, child)
    self_times = t.self_times()
    assert self_times[root] == pytest.approx(10.0 - 5.0 - 1.0)
    assert self_times[child] == pytest.approx(1.0 - 0.6)
    assert self_times[1] == pytest.approx(3.0)


def test_covered_clips_to_parent_interval():
    assert covered([(-1.0, 2.0), (1.5, 3.0), (5.0, 20.0)], 0.0, 10.0) == pytest.approx(3.0 + 5.0)
    assert covered([], 0.0, 1.0) == 0.0


def test_busy_counts_recursive_spans_once():
    t = Tracer()
    outer = _span(t, "graph.forward_infer", 0.0, 4.0)
    _span(t, "graph.forward_infer", 1.0, 2.0, outer)
    _span(t, "graph.forward_infer", 5.0, 6.0)
    assert t.busy("graph.forward_infer") == pytest.approx(5.0)
    assert t.calls("graph.forward_infer") == 3


def test_worker_thread_spans_take_the_open_main_span_as_parent():
    t = Tracer()
    main = t.open("evaluate.run_rkfold")
    seen = []

    def worker():
        idx = t.open("graph.build")
        inner = t.open("rng.substream")
        t.close(inner)
        t.close(idx)
        seen.extend([idx, inner])

    th = threading.Thread(target=worker)
    th.start()
    th.join(timeout=10)
    assert not th.is_alive()
    t.close(main)
    build, inner = seen
    assert t.spans[build][PARENT] == main
    assert t.spans[inner][PARENT] == build
    assert all(s[END] >= s[START] for s in t.spans)


def test_fold_times_split_at_each_build():
    t = Tracer()
    plan = _span(t, "evaluate.run_rkfold", 0.0, 10.0)
    for thread, (a, b) in ((1, (0.5, 4.0)), (1, (4.5, 9.0)), (2, (0.6, 5.0))):
        _span(t, "graph.build", a, a + 0.1, plan, thread)
        _span(t, "train.train", a + 0.1, b - 0.5, plan, thread)
        _span(t, "graph.forward_infer", b - 0.5, b, plan, thread)
    folds, plan_s = fold_times(t)
    assert sorted(folds) == pytest.approx([3.5, 4.4, 4.5])
    assert plan_s == pytest.approx(10.0)


def test_op_count_formula_matches_brute_force_on_tiny_model():
    check = opcount.brute_force_check()
    assert check["formula"] == check["brute"]
    assert check["brute"]["forward_macs"] > 0


def test_op_count_formula_for_plain_and_residual_convs():
    spec = graph.spec_from_dict({
        "name": "t", "input_dims": [16, 16, 16, 1],
        "layers": [{"kind": "conv3d", "filters": 4, "k": 3, "activation": "relu"},
                   {"kind": "residual_block", "filters": 8, "stride": 2},
                   {"kind": "global_avg_pool3d"}, {"kind": "dense", "units": 3}],
    })
    conv = 14**3 * 27 * 1 * 4
    block = 7**3 * (27 * 4 * 8 + 27 * 8 * 8 + 1 * 4 * 8)  # two 3x3x3 convs and the projection
    assert opcount.forward_macs(spec) == conv + block
    assert opcount.vjp_macs(spec) == 2 * (conv + block)
    assert opcount.max_window_elems(spec) == 14**3 * 27 * 1


def test_resnet_pet_surgery_conv_count():
    base = graph.build_resnet18_3d((32, 32, 32, 1))
    shapes = opcount.conv_shapes(graph.ModelSpec("cut", base.input_dims, base.layers[:-6]))
    # stem + 3 stages x 2 blocks x 2 convs + 2 projections
    assert len(shapes) == 1 + 12 + 2
    assert shapes[0] == opcount.ConvShape((16, 16, 16), 7, 1, 64)
