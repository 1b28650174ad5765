"""Tests of the benchmark harness itself: generator, checks and tracing.

Run with `PYTHONPATH=src python -m pytest perfbench`.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import os
import sys

import pytest

import reference as ref
import run
import spans
import workloads

if run.SRC not in sys.path:
    sys.path.insert(0, run.SRC)
cli = importlib.import_module("quandles.cli")


def _argv_and_files(calls):
    return [(c.stratum, c.argv, json.dumps(c.files, sort_keys=True)) for c in calls]


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_generator_is_deterministic_and_strata_do_not_depend_on_the_seed(workload):
    first = workloads.generate(workload, workloads.DEFAULT_SEED)
    again = workloads.generate(workload, workloads.DEFAULT_SEED)
    held_out = workloads.generate(workload, workloads.HELD_OUT_SEED)
    assert _argv_and_files(first) == _argv_and_files(again)
    assert _argv_and_files(first) != _argv_and_files(held_out)
    assert workloads.stratum_counts(first) == workloads.stratum_counts(held_out)
    assert [c.stratum for c in first] == [c.stratum for c in held_out]


def test_reference_model_matches_the_documented_examples():
    six_cubic = ref.QuotientModel(6, [{0: 1, 1: 1, 2: 1}])
    assert six_cubic.order == 36
    assert six_cubic.depth == 2
    assert six_cubic.level_counts() == [1, 3, 9, 9]
    assert ref.QuotientModel(4, [{0: 2, 1: 1}]).order == 1
    assert ref.gcd_chain(12, 1) == [12, 6, 3]
    with pytest.raises(ref.Unsupported):
        ref.QuotientModel(12, [{0: 4, 1: 3, 2: 2}])


def _small_calls(tmp_path, seed, count=12):
    calls = workloads.generate("small-mixed", seed)[:count]
    run.write_inputs(calls, str(tmp_path))
    return calls


class _Corrupting:
    """A stand-in for the cli module that alters the output of one call."""

    def __init__(self, victim, alter):
        self.victim = victim
        self.alter = alter

    def main(self, argv):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
        text = out.getvalue()
        print(self.alter(text) if argv == self.victim else text, end="")
        return code


def _first_json_call(calls):
    return next(k for k, c in enumerate(calls) if c.code == 0 and c.stratum == "build")


def test_a_wrong_output_counts_as_failed(tmp_path):
    calls = _small_calls(tmp_path, workloads.HELD_OUT_SEED)
    victim = _first_json_call(calls)
    fake = _Corrupting(calls[victim].resolved_argv(str(tmp_path)),
                       lambda text: text.replace('"order": ', '"order": 1'))
    judge = run.Judge(calls)
    passes, failed = run.timed_loop(fake, calls, judge, str(tmp_path), seconds=0)
    attempted = sum(len(p) for p in passes)
    assert failed == len(passes) and failed / attempted > 0
    assert judge.failures[0][0] == "build"


def test_a_byte_different_output_fails_the_pinned_digest(tmp_path):
    calls = _small_calls(tmp_path, workloads.DEFAULT_SEED)
    with open(run.DIGESTS, encoding="utf-8") as handle:
        pinned = json.load(handle)["small-mixed"]
    victim = _first_json_call(calls)
    reformat = lambda text: json.dumps(json.loads(text), indent=1) + "\n"  # noqa: E731
    fake = _Corrupting(calls[victim].resolved_argv(str(tmp_path)), reformat)
    _, failed = run.timed_loop(fake, calls, run.Judge(calls), str(tmp_path), seconds=0)
    assert failed == 0  # the same answer, so the reference check alone accepts it
    _, failed = run.timed_loop(fake, calls, run.Judge(calls, pinned), str(tmp_path), seconds=0)
    assert failed >= 1


def test_untraced_run_leaves_every_binding_untouched(tmp_path):
    calls = _small_calls(tmp_path, workloads.DEFAULT_SEED)
    before = spans.binding_snapshot()
    run.timed_loop(cli, calls, run.Judge(calls), str(tmp_path), seconds=0)
    after = spans.binding_snapshot()
    assert after.keys() == before.keys()
    assert all(after[k] is v for k, v in before.items())


def test_traced_run_restores_bindings_and_self_times_add_up(tmp_path):
    calls = _small_calls(tmp_path, workloads.DEFAULT_SEED, count=30)
    before = spans.binding_snapshot()
    tracer = spans.Tracer()
    passes, wall, attempted, failed = run.traced_loop(cli, calls, run.Judge(calls),
                                                      str(tmp_path), 0, tracer)
    after = spans.binding_snapshot()
    assert all(after[k] is v for k, v in before.items())
    assert (passes, attempted, failed) == (1, 60, 0)
    assert tracer.absent == []
    self_sum = sum(s for _, s in tracer.self_times())
    assert self_sum == pytest.approx(tracer.root_seconds(), rel=1e-9)
    metrics = tracer.metrics(passes)
    assert metrics["cli.calls"][0] == 30
    assert metrics["tmodule.build.self_s"][0] > 0
    assert all(end >= start for _, start, end, _, _ in tracer.spans)


def test_bindings_are_restored_when_a_call_raises():
    before = spans.binding_snapshot()
    quandle = importlib.import_module("quandles.quandle")
    with pytest.raises(ValueError):
        with spans.Tracer() as tracer:
            quandle.connected_components(quandle.trivial_quandle(2), [])
    after = spans.binding_snapshot()
    assert all(after[k] is v for k, v in before.items())
    name, start, end, parent, _ = tracer.spans[0]
    assert name == "quandle.connected_components" and end >= start and parent == -1


def test_a_missing_binding_is_reported_as_absent():
    bindings = spans.BINDINGS + (("quandles.quandle", "refine_twice", "quandle.refine_twice"),
                                 ("quandles.gone", "f", "gone.f"))
    tracer = spans.Tracer(bindings)
    with tracer:
        code = cli.main(["components", "--dihedral", "6", "--format", "json"])
    assert code == 0
    assert tracer.absent == ["quandles.quandle.refine_twice", "quandles.gone.f"]
    assert tracer.metrics(1)["trace.absent"][0] == 2


def test_every_call_of_a_pass_passes_its_checks(tmp_path):
    for workload in ("small-mixed",):
        calls = workloads.generate(workload, workloads.HELD_OUT_SEED)
        run.write_inputs(calls, str(tmp_path))
        judge = run.Judge(calls)
        _, failed = run.timed_loop(cli, calls, judge, str(tmp_path), seconds=0)
        assert failed == 0, judge.failures[:3]


def test_digests_cover_every_call_at_the_default_seed():
    with open(run.DIGESTS, encoding="utf-8") as handle:
        pinned = json.load(handle)
    for workload in workloads.WORKLOADS:
        assert len(pinned[workload]) == len(workloads.generate(workload, workloads.DEFAULT_SEED))


def test_benchmark_refuses_to_run_without_the_package_source(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "SRC", str(tmp_path / "src"))
    assert run.main(["--workload", "small-mixed", "--seconds", "0"]) == 2
    assert not os.path.exists(tmp_path / "src")
