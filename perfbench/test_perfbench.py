"""Tests of the benchmark itself: python3 -m pytest perfbench -q"""

import json
import random
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import mfkit as mk  # noqa: E402

import run  # noqa: E402
import workloads  # noqa: E402
from reference import REFERENCE_S, Yardstick  # noqa: E402
from check import MFData, certificate_problems, factorisation_problems  # noqa: E402
from tracer import PER_LAYER  # noqa: E402


def gf101_point_object():
    curve = mk.default_curve(mk.Field(101))
    return mk.catalog_mf(curve, "point", mk.rational_points(curve)[7])


def first_term(entries):
    for i, row in enumerate(entries):
        for j, e in enumerate(row):
            if e:
                return i, j, next(iter(e))
    raise AssertionError("no nonzero entry")


def test_checker_accepts_catalog_objects_and_rejects_a_changed_coefficient():
    for M in (gf101_point_object(), mk.catalog_mf(mk.default_curve(), "lb-2e")):
        data = MFData.of(M)
        assert factorisation_problems(data) == []
        i, j, exp = first_term(data.beta)
        data.beta[i][j][exp] += 1
        assert factorisation_problems(data)


def test_checker_rejects_a_certificate_with_one_entry_changed():
    M = gf101_point_object()
    res = mk.is_stably_isomorphic(M, M, seed=3)
    assert res.status == "yes"
    assert certificate_problems(res.forward, res.backward) == []
    f0 = res.forward.f0
    i, j, exp = first_term([[e.terms for e in row] for row in f0.entries])
    terms = dict(f0.entries[i][j].terms)
    terms[exp] = (terms[exp] + 1) % 101 or 1
    f0.entries[i][j] = mk.Poly(f0.ring, terms)
    assert certificate_problems(res.forward, res.backward)


def test_tail_needs_forty_samples_and_never_falls_below_the_median():
    rng = random.Random(5)
    assert run.tail([1.0] * 39) is None
    assert run.tail(list(range(40)))[0] == 75
    assert run.tail(list(range(100)))[0] == 90
    assert run.tail(list(range(1000)))[0] == 99
    for n in (40, 57, 99, 100, 196, 999, 1000, 4100):
        samples = [rng.lognormvariate(0, 2) for _ in range(n)]
        q, value = run.tail(samples)
        assert value >= run.statistics.median(samples)
        assert sum(x >= value for x in samples) >= 10
        assert q in (75, 90, 99)


def test_yardstick_scales_each_moment_by_the_slices_around_it():
    ruler = Yardstick()
    ruler.starts = [float(t) for t in range(20)]
    ruler.durations = [REFERENCE_S] * 10 + [2 * REFERENCE_S] * 10
    assert ruler.scale(3.5) == 1.0
    assert ruler.scale(16.5) == 0.5
    assert ruler.scale(100.0) == 0.5  # after the last slice, the last five count
    ruler.measure()
    assert len(ruler.durations) == 21 and ruler.durations[-1] > 0


def test_same_seed_gives_the_same_op_list():
    for name, cls in workloads.WORKLOADS.items():
        a = [op.key for op in cls(mk, 7).ops]
        assert a == [op.key for op in cls(mk, 7).ops], name
        assert a != [op.key for op in cls(mk, 8).ops], name
        assert len(set(a)) == len(a), name


def test_benchmark_json_lists_the_metrics_the_runs_print():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [m["name"] for m in bench["end_to_end"]] == list(run.END_TO_END)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in bench["per_layer"]} == PER_LAYER
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
