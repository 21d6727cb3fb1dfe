"""Self-tests of the benchmark's own code: python3 -m pytest -q perfbench"""

import json
import re
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def test_self_time_subtracts_nested_children():
    # root [0, 10] has children [1, 4] and [5, 9]; [5, 9] has a child [6, 8]
    spans = [
        ["kernel.psd_check", 0.0, 10.0, -1, 0],
        ["matrices.truncation", 1.0, 4.0, 0, 0],
        ["linalg.eigh", 5.0, 9.0, 0, 0],
        ["linalg.norm", 6.0, 8.0, 2, 0],
    ]
    assert tracing.self_times(spans) == pytest.approx([3.0, 3.0, 2.0, 2.0])


def test_self_time_counts_overlapping_children_once():
    spans = [["a.x", 0.0, 10.0, -1, 0], ["b.y", 2.0, 6.0, 0, 0], ["b.z", 4.0, 8.0, 0, 0]]
    assert tracing.self_times(spans)[0] == pytest.approx(4.0)


def test_layer_metrics_busy_counts_outermost_span_of_a_layer():
    rec = tracing.Recorder()
    rec.spans = [
        ["kernel.psd_check", 0.0, 10.0, -1, 0],
        ["kernel.self_adjoint_check", 1.0, 2.0, 0, 0],
        ["linalg.eigh", 3.0, 7.0, 0, 0],
    ]
    m = tracing.layer_metrics(rec)
    assert m["kernel.busy_s"] == pytest.approx(10.0)
    assert m["kernel.self_s"] == pytest.approx(6.0)
    assert m["linalg.self_s"] == pytest.approx(4.0)
    assert m["trace.busy_s"] == pytest.approx(10.0)


@pytest.mark.parametrize("text", ["NaN", "[1.0, NaN]", '{"r": Infinity}', "-Infinity"])
def test_strict_json_rejects_non_finite_constants(text):
    with pytest.raises(ValueError):
        checks.strict_loads(text)


def test_strict_json_accepts_finite_reports():
    assert checks.strict_loads('{"value": [1.5, -2.0], "error_radius": 1e-300}')["value"] == [1.5, -2.0]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_inputs_other_seed_other_inputs(workload):
    make = workloads.SPECS[workload]
    first, again, other = (workloads.spec_digest(make(s)) for s in (5, 5, 6))
    assert first == again
    assert first != other


def test_cli_inputs_are_byte_identical_files(tmp_path):
    files = []
    for sub in ("a", "b"):
        (tmp_path / sub).mkdir()
        workloads.build_cli_cold(workloads.spec_cli_cold(9), ROOT, tmp_path / sub, in_process=True)
        files.append({p.name: p.read_bytes() for p in sorted((tmp_path / sub).iterdir())})
    assert files[0] == files[1]


def test_every_metric_name_is_well_formed_and_produced():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [m["name"] for key in ("end_to_end", "per_layer") for m in bench[key]]
    names += [w["name"] for w in bench["workloads"]]
    assert all(NAME.fullmatch(n) and len(n) <= 64 for n in names)
    assert len(names) == len(set(names))
    produced = set(tracing.layer_metrics(tracing.Recorder())) | {
        "cli.import_s", "cli.import_scipy_s", "trace.overhead_ratio"}
    assert {m["name"] for m in bench["per_layer"]} <= produced
    assert all(NAME.fullmatch(n) for n in produced)


def test_recorder_install_is_undone():
    import dskernel
    import dskernel.cli
    import dskernel.kernel
    import dskernel.symmetry

    before = (dskernel.kernel_eval, dskernel.symmetry.kernel_eval, dskernel.cli.main,
              dskernel.kernel.np, dskernel.SequenceRule.value)
    rec = tracing.Recorder()
    rec.install()
    try:
        assert dskernel.symmetry.kernel_eval is not before[1]
        assert dskernel.kernel.np.linalg.eigh is not before[3].linalg.eigh
        dskernel.psd_check(dskernel.DenseMatrix([[2.0, 0.0], [0.0, 1.0]]), 2)
    finally:
        rec.uninstall()
    after = (dskernel.kernel_eval, dskernel.symmetry.kernel_eval, dskernel.cli.main,
             dskernel.kernel.np, dskernel.SequenceRule.value)
    assert all(a is b for a, b in zip(before, after))
    names = [s[0] for s in rec.spans]
    assert names[0] == "kernel.psd_check" and "linalg.eigh" in names
    assert rec.counts["linalg.flops_computed"] >= 8


def test_percentile_is_unchanged_by_repeating_cycles():
    cycle = [5.0, 1.0, 9.0, 3.0, 7.0, 2.0, 8.0]
    for q in (50, 90):
        assert run.percentile(cycle, q) == run.percentile(cycle * 3, q)


def test_scipy_import_share_takes_outermost_scipy_imports():
    log = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:        10 |         10 |       scipy._lib",
        "import time:        20 |         30 |     scipy",
        "import time:         5 |          5 |     numpy.core",
        "import time:       100 |        135 |   scipy.special",
        "import time:        40 |        175 | dskernel.rules",
    ])
    assert run.scipy_import_share(log) == pytest.approx(135e-6)


def test_disc_check_flags_only_a_disc_that_misses():
    assert checks.disc_check(1.0 + 0j, 1e-3, checks.mpc(1.0005)) is None
    assert checks.disc_check(1.0 + 0j, 1e-4, checks.mpc(1.0005)) is not None
    assert checks.disc_check(complex("nan"), 1.0, checks.mpc(0.0)) is not None


def test_schedule_splits_every_round_answers_from_rotating_groups():
    A = workloads.Answer
    answers = [A("a", None, None), A("g0", None, None, group=0), A("g1", None, None, group=1),
               A("b", None, None), A("g0b", None, None, group=0)]
    assert run.schedule(answers) == ([0, 3], [[1, 4], [2]])
    assert run.schedule(answers[:1] + answers[3:4]) == ([0, 1], [])
