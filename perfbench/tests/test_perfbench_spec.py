import json
import re
from collections import Counter
from pathlib import Path

import bench
import run
import tracing

BENCHMARK = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
METRICS = BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def test_every_metric_has_a_valid_name_unit_and_direction():
    names = [m["name"] for m in METRICS]
    assert len(names) == len(set(names))
    for m in METRICS:
        assert NAME.fullmatch(m["name"]), m
        assert UNIT.fullmatch(m["unit"]), m
        assert m["better"] in ("higher", "lower"), m


def test_bounds_and_setup_time():
    bounds = {m["name"]: m["bound"] for m in BENCHMARK["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    setup = next(m for m in BENCHMARK["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")


def test_benchmark_json_names_the_workloads_bench_defines():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(bench.WORKLOADS)


def test_traced_run_reports_every_per_layer_metric():
    produced = set(tracing.layer_metrics([], Counter(), 1))
    produced |= {"trace.root_s", "trace.spans", "trace.overhead_s", "trace.overhead_ratio"}
    assert produced == {m["name"] for m in BENCHMARK["per_layer"]}
