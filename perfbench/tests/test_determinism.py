"""Determinism of the benchmark: a traced run is a function of its seed.

Run with `python3 -m pytest perfbench/tests` from the repository root.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import run  # noqa: E402
import workloads as wl  # noqa: E402


SPEC = run.load_json(run.BENCH / "spec.json")


@pytest.fixture(scope="module")
def engine():
    return run.load_engine()


def _work(engine, tmp_path, name):
    return wl.WORKLOADS[name](engine, str(tmp_path), SPEC)


def _traced(engine, tmp_path, name, seed):
    tracer, _, _, plain, traced = run.traced_run(
        _work(engine, tmp_path, name), seed, 1, SPEC)
    counters = {k: v for k, v in tracer.layer_metrics().items()
                if not k.endswith("_s")}
    return counters, traced.verdicts, plain.verdicts


@pytest.mark.parametrize("name", ["locus-stream", "quotient-charts",
                                  "hm-crossval"])
def test_same_seed_gives_same_counters_and_verdicts(engine, tmp_path, name):
    counters1, verdicts1, untraced1 = _traced(engine, tmp_path, name, 7)
    counters2, verdicts2, _ = _traced(engine, tmp_path, name, 7)
    assert counters1["cones.dd_calls"] > 0
    assert counters1 == counters2
    assert verdicts1 == verdicts2
    assert verdicts1 == untraced1


@pytest.mark.parametrize("name", sorted(wl.WORKLOADS))
def test_different_seeds_give_different_instances(engine, tmp_path, name):
    work = _work(engine, tmp_path, name)

    def inputs(seed):
        return [op.inputs for k in range(2) for op in work.round(seed, k)]

    assert inputs(1) == inputs(1)
    assert inputs(1) != inputs(2)


def test_hm_rounds_have_the_same_verdicts_for_every_seed(engine, tmp_path):
    # every hm-crossval round re-presents one catalogue under isomorphisms,
    # so a run's failed share does not depend on its seed or its length
    work = _work(engine, tmp_path, "hm-crossval")

    def verdicts(seed, k):
        tally = run.Tally()
        watch = run.Stopwatch(SPEC["reference_nominal_s"],
                              SPEC["traced_operation_limit_s"])
        for op in work.round(seed, k):
            tally.add(op.family, run.judge(op, *watch.run(op)))
        return tally.verdicts

    first = verdicts(1, 0)
    assert any(kinds for _, kinds in first)
    assert verdicts(2, 3) == first
