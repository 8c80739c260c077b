"""Tests of the benchmark itself: python3 -m pytest perfbench -q"""

from __future__ import annotations

import json
import os
import re
import sys
import types

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def test_self_time_subtracts_direct_children_only():
    spans = [
        tracing.Span("op", None, 0.0, 10.0),
        tracing.Span("control.fbsm_solve", 0, 1.0, 9.0),
        tracing.Span("integrate.simulate", 1, 1.0, 4.0),
        tracing.Span("control.backward_sweep", 1, 4.0, 8.0),
        tracing.Span("runner.write_trajectory_csv", 0, 9.0, 9.5),
    ]
    assert tracing.self_times(spans) == [1.5, 1.0, 3.0, 4.0, 0.5]
    totals = tracing.totals_by_name(spans + [tracing.Span("integrate.simulate", 1, 8.0, 9.0, work=7)])
    assert totals["integrate.simulate"] == {"calls": 2, "self_s": 4.0, "work": 7}
    assert sum(tracing.self_times(spans)) == spans[0].duration


def test_recorder_nests_spans_by_call_stack():
    rec = tracing.Recorder()
    rec.call("outer", lambda: rec.call("inner", lambda: None))
    assert [(s.name, s.parent) for s in rec.spans] == [("outer", None), ("inner", 0)]


def test_missing_wrapped_function_fails_loudly_and_restores_the_rest():
    present = types.SimpleNamespace(simulate=lambda: 1)
    original = present.simulate
    hooks = [
        tracing.Hook("runner", "simulate", "integrate.simulate"),
        tracing.Hook("runner", "renamed_away", "control.fbsm_solve"),
    ]
    with pytest.raises(tracing.TraceError, match="renamed_away"):
        with tracing.Patched({"runner": present}, hooks, tracing.Recorder()):
            pass
    assert present.simulate is original


def test_layer_never_reached_fails_loudly():
    spans = [tracing.Span("op", None, 0.0, 1.0)]
    with pytest.raises(tracing.TraceError, match="control.backward_sweep"):
        tracing.require_called(spans, ["control.backward_sweep"])


def test_program_hooks_name_existing_functions():
    prog = workloads.import_program()
    def wrapped(hook):
        return hasattr(getattr(prog[hook.module], hook.attr), "__wrapped__")

    with tracing.Patched(prog, workloads.HOOKS, tracing.Recorder()):
        assert all(wrapped(h) for h in workloads.HOOKS)
    assert not any(wrapped(h) for h in workloads.HOOKS)


def test_metric_names_and_units_are_well_formed():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    declared = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    assert declared == run.END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    names = [*run.END_TO_END, *run.PER_LAYER, *run.MANIFEST_ONLY, *workloads.WORKLOADS]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name
    for unit in [*run.END_TO_END.values(), *run.PER_LAYER.values(), *run.MANIFEST_ONLY.values()]:
        assert re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", unit), unit


def test_same_seed_same_inputs():
    for workload in workloads.WORKLOADS.values():
        assert workloads.draw_pool(workload, 7) == workloads.draw_pool(workload, 7)
        assert workloads.draw_pool(workload, 7) != workloads.draw_pool(workload, 8)


def test_config_error_counts_as_failed_op(tmp_path):
    prog = workloads.import_program()
    workload = workloads.WORKLOADS["simulate"]
    bad = workloads.draw_pool(workload, 1)[0].replace("dt = 0.05", "dt = 0.07")
    case = workloads.build_case(prog, bad, workload)
    assert isinstance(case.error, prog["config"].ConfigError)
    records = run.measure(prog, workload, [case], 0.0, str(tmp_path))
    assert len(records) == 1
    assert records[0]["errors"] and "ConfigError" in records[0]["errors"][0]
    assert "seconds" not in records[0]


def test_reference_matches_rk4_on_a_short_two_strain_run():
    from oracles import max_rel_err, reference_terminal, terminal_of

    prog = workloads.import_program()
    text = workloads.draw_pool(workloads.WORKLOADS["simulate"], 3)[0]
    text = text.replace("horizon = 730", "horizon = 250")
    cfg = prog["config"].parse_config_text(text)
    grid = cfg.grid()
    schedule = prog["control"].ControlSchedule.constant(grid, cfg.control_value)
    traj = prog["integrate"].simulate(
        cfg.initial_state(), cfg.strain_params(), schedule, cfg.seed_events(), grid
    )
    ref = reference_terminal(prog["dynamics"], cfg, cfg.control_value)
    assert max_rel_err(terminal_of(traj), ref, cfg.population) < workloads.REF_TOLERANCE


def test_setup_rep_between_ops_keeps_the_running_modules():
    workload = workloads.WORKLOADS["many_strains"]
    clock = run.SetupClock(workload, workloads.draw_pool(workload, 1))
    prog, cases = clock.start()
    clock._last = 0.0
    assert clock.between_ops()
    assert len(clock.seconds) == run.SETUP_REPS_AT_START + 1
    assert sys.modules["multistrain.control"] is prog["control"]
    assert not clock.between_ops()  # not due again within the probe period


def test_host_sampler_takes_its_own_time_off_the_op():
    with run.HostSampler() as sampler:
        t0 = run.time.perf_counter()
        while run.time.perf_counter() - t0 < 1.2:
            pass
    assert len(sampler.samples) >= 2
    assert 0.0 < sampler.stolen < 0.5
    assert all(s > 0 for s in sampler.samples)
