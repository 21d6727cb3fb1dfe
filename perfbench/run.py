#!/usr/bin/env python3
"""Run one dskernel benchmark workload and print its metrics.

    python3 perfbench/run.py --workload cli_cold --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  The run sets up (imports, seeded input
generation, warm-up), then runs a closed loop with one client: each round
runs the answers without a group plus one group of the others, the groups in
turn, until every answer ran at least twice and then while rounds still end
within --seconds.  Every answer is checked after the loop.  With
``--trace 0`` the last stdout line is a JSON object with the end-to-end
metrics; with ``--trace 1`` each round runs untraced and then traced, once
per group, and the per-layer metrics come from the traced rounds.  Lines
before it, starting with ``#``, give the environment, sample counts, error
rates and probe outcomes.  Results and spans are also written under
``.perfbench_out/``.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
SETUP_SAMPLES = 3
#: runs with --trace 0 repeat every answer at least this often (best of k, k >= 2)
MIN_REPEATS = 2


def pin_blas_threads() -> int:
    """Pin every BLAS thread pool to nproc; must run before numpy is imported."""
    n = len(os.sched_getaffinity(0))
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(n)
    return n


def environment(seed: int, threads: int) -> dict:
    import mpmath
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    commit = "unavailable (not a git checkout)"
    if (ROOT / ".git").exists():
        r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        commit = r.stdout.strip() if r.returncode == 0 else commit
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "dskernel").glob("*.py")):
        digest.update(path.name.encode() + path.read_bytes())
    return {
        "python": platform.python_version(), "numpy": numpy.__version__, "scipy": scipy.__version__,
        "mpmath": mpmath.__version__, "blas": blas, "nproc": threads,
        "blas_threads": {v: os.environ[v] for v in BLAS_THREAD_VARS},
        "seed": seed, "git_commit": commit, "src_sha256": digest.hexdigest(),
        "machine": platform.machine(),
    }


def setup(workload: str, seed: int, scratch: Path, in_process: bool):
    """Seeded inputs, answers and warm-up: everything before the first timed answer."""
    import workloads as wl

    spec = wl.SPECS[workload](seed)
    if workload == "cli_cold":
        answers, probes = wl.build_cli_cold(spec, ROOT, scratch, in_process)
        answers[0].call()  # imports (or byte-compiles) dskernel and warms the file cache
    elif workload == "certify_large":
        answers, probes = wl.build_certify_large(spec), []
        wl.warmup_certify_large()
    else:
        answers, probes = wl.build_eval_sweep(spec)
        wl.warmup_eval_sweep()
    return answers, probes


def schedule(answers) -> tuple[list[int], list[list[int]]]:
    """Indices of the answers that run every round, and of each rotating group."""
    always = [i for i, a in enumerate(answers) if a.group is None]
    groups = sorted({a.group for a in answers if a.group is not None})
    return always, [[i for i, a in enumerate(answers) if a.group == g] for g in groups]


def one_round(answers, indices, recorder=None) -> tuple[list, list]:
    from checks import Raised

    lat, outs = [], []
    for i in indices:
        if recorder is not None:
            recorder.answer += 1
        t0 = time.perf_counter()
        try:
            out = answers[i].call()
        except Exception as exc:  # the answer failed; its check reports it
            out = Raised(exc)
        lat.append((i, time.perf_counter() - t0))
        outs.append((i, out))
    return lat, outs


def closed_loop(answers, seconds: float, recorder=None) -> dict:
    """Rounds of the every-round answers plus one group, the groups in turn.

    Untraced runs go on until every answer has run MIN_REPEATS times, then
    while rounds still end within ``seconds``; where the group would not
    fit, the every-round answers run alone.  With a recorder, each round runs
    untraced and then traced, once per group.
    """
    always, groups = schedule(answers)
    groups = groups or [[]]
    res = {"lat": [[] for _ in answers], "outs": [], "untraced_s": 0.0, "traced_s": 0.0}
    cost: dict = {}  # last duration of the every-round answers ("always") and of each group
    start, k = time.perf_counter(), 0
    while True:
        g = k % len(groups)
        indices = always + groups[g]
        if recorder is None and min(len(r) for r in res["lat"]) >= MIN_REPEATS:
            left = seconds - (time.perf_counter() - start)
            if left < cost["always"]:
                return res
            if left < cost["always"] + cost[g]:
                indices = always
        lat, outs = one_round(answers, indices)
        for i, t in lat:
            res["lat"][i].append(t)
        res["outs"] += outs
        cost["always"] = sum(t for i, t in lat if answers[i].group is None)
        if indices is not always:
            cost[g] = sum(t for i, t in lat if answers[i].group is not None)
            k += 1
        if recorder is not None:
            res["untraced_s"] += sum(t for _, t in lat)
            recorder.install()
            try:
                lat, outs = one_round(answers, indices, recorder)
            finally:
                recorder.uninstall()
            res["traced_s"] += sum(t for _, t in lat)
            res["outs"] += outs
            if k >= len(groups):
                return res


def judge(answers, outs) -> list:
    """(kind, reason) for every output whose check fails."""
    from checks import Raised

    fails = []
    for i, out in outs:
        a = answers[i]
        if isinstance(out, Raised):
            reason = f"raised {out!r}"
        else:
            try:
                reason = a.check(out)
            except Exception as exc:  # malformed output the check could not read
                reason = f"unreadable output ({type(exc).__name__}: {exc})"
        if reason:
            fails.append((a.kind, reason))
    return fails


def run_probes(probes) -> list:
    _, outs = one_round(probes, range(len(probes)))
    fails = dict(judge(probes, outs))
    return [(p.kind, fails.get(p.kind)) for p in probes]


def setup_samples(args, own: float) -> list:
    """This run's set-up time plus fresh-process repeats of the same set-up."""
    samples = [own]
    for _ in range(SETUP_SAMPLES - 1):
        r = subprocess.run([sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
                            "--seed", str(args.seed), "--setup-probe"],
                           cwd=ROOT, capture_output=True, text=True, check=True)
        samples.append(json.loads(r.stdout.strip().splitlines()[-1])["setup_s"])
    return samples


def cli_import_times(repeats: int = 3) -> tuple[float, float]:
    """Median time of ``import dskernel.cli`` in a fresh interpreter, and its scipy share."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    code = ("import time, sys; t = time.perf_counter(); import dskernel.cli; "
            "sys.stdout.write(repr(time.perf_counter() - t))")
    total, scipy = [], []
    for _ in range(repeats):
        r = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env, capture_output=True,
                           text=True, check=True)
        total.append(float(r.stdout))
        r = subprocess.run([sys.executable, "-X", "importtime", "-c", "import dskernel.cli"], cwd=ROOT,
                           env=env, capture_output=True, text=True, check=True)
        scipy.append(scipy_import_share(r.stderr))
    return statistics.median(total), statistics.median(scipy)


def scipy_import_share(importtime: str) -> float:
    """Seconds spent in outermost scipy imports (cumulative) of an -X importtime log.

    The log lists each import after the ones it triggered, indented by depth,
    so the parent of a line is the next line with a smaller depth.
    """
    rows = []
    for line in importtime.splitlines():
        fields = line.removeprefix("import time:").split("|")
        if len(fields) == 3 and fields[1].strip().isdigit():
            name = fields[2].rstrip()
            rows.append((int(fields[1]), len(name) - len(name.lstrip()), name.strip()))
    is_scipy = [n == "scipy" or n.startswith("scipy.") for _, _, n in rows]
    total = 0
    for i, (cum, depth, _) in enumerate(rows):
        if not is_scipy[i]:
            continue
        j, d, outermost = i + 1, depth, True
        while j < len(rows) and d > 0:
            if rows[j][1] < d:
                d = rows[j][1]
                outermost = outermost and not is_scipy[j]
            j += 1
        total += cum if outermost else 0
    return total / 1e6


def percentile(values: list, q: float) -> float:
    """Nearest-rank percentile: repeating whole cycles leaves it unchanged."""
    return sorted(values)[max(0, math.ceil(q / 100.0 * len(values)) - 1)]


def load_benchmark_names(kind: str) -> list:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [(m["name"], m["unit"]) for m in spec[kind]]


def report(args, env, metrics: dict, names: list, attempted: int, fails: list, extra: dict) -> None:
    out = {"correct": not fails, "attempted": attempted, "failed": len(fails),
           "metrics": {n: {"value": metrics[n], "unit": u} for n, u in names}}
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": env, "result": out,
              "failures": [{"kind": k, "reason": r} for k, r in fails], **extra}
    path = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1, default=str) + "\n")
    print(f"# environment: {json.dumps(env, sort_keys=True)}")
    for k, r in fails[:20]:
        print(f"# FAILED {k}: {r}")
    for line in extra.get("notes", []):
        print(f"# {line}")
    for n, u in names:
        print(f"# {n} = {metrics[n]:.6g} {u}")
    print(f"# full record: {path.relative_to(ROOT)}")
    sys.stdout.write(json.dumps(out) + "\n")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=("cli_cold", "certify_large", "eval_sweep"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", dest="setup_probe",
                   help="only set up, print the set-up time and exit (used for repeats)")
    args = p.parse_args(argv)
    if not (ROOT / "src" / "dskernel" / "__init__.py").is_file() or not (ROOT / "BENCHMARK.json").is_file():
        print(f"perfbench: {ROOT} is not a dskernel checkout (src/dskernel and BENCHMARK.json needed)",
              file=sys.stderr)
        return 2
    threads = pin_blas_threads()
    sys.path.insert(0, str(ROOT / "src"))
    os.chdir(ROOT)
    OUT_DIR.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT_DIR))
    try:
        return run(args, threads, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def run(args, threads: int, scratch: Path) -> int:
    traced = bool(args.trace)
    answers, probes = setup(args.workload, args.seed, scratch, in_process=traced)
    own_setup = time.perf_counter() - _T0
    if args.setup_probe:
        print(json.dumps({"setup_s": own_setup}))
        return 0
    recorder = None
    if traced:
        import tracing
        recorder = tracing.Recorder()
    res = closed_loop(answers, args.seconds, recorder)
    # an answer's latency is the best of its repeats
    repeats = res["lat"]
    best = [min(r) for r in repeats]
    lat = [t for r in repeats for t in r]
    if args.workload == "cli_cold" and not traced:
        peak_kb = max((out.maxrss_kb for _, out in res["outs"] if hasattr(out, "maxrss_kb")), default=0)
    else:
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    fails = judge(answers, res["outs"])
    env = environment(args.seed, threads)
    attempted = len(res["outs"])
    counts = sorted({len(r) for r in repeats})
    notes = [f"timed answers: {len(lat)}, each of {len(answers)} answers repeated "
             f"{' or '.join(map(str, counts))} times, "
             f"{sum(lat):.3f} s in all ({len(lat) / sum(lat):.4g} answers/s before best-of-k)",
             f"error_rate (timed answers) = {len(fails) / attempted:.4g} ({len(fails)}/{attempted})"]
    extra: dict = {"notes": notes}
    if traced:
        metrics = tracing.layer_metrics(recorder)
        metrics["cli.import_s"], metrics["cli.import_scipy_s"] = cli_import_times()
        metrics["trace.overhead_ratio"] = res["traced_s"] / res["untraced_s"] - 1.0
        recorder.write(OUT_DIR / f"{args.workload}-seed{args.seed}-spans.jsonl")
        notes.append(f"tracing overhead: {metrics['trace.overhead_ratio']:.3%} "
                     f"({len(recorder.spans)} spans over {len(res['outs']) - len(lat)} traced answers)")
        report(args, env, metrics, load_benchmark_names("per_layer"), attempted, fails, extra)
        return 0
    probe_results = run_probes(probes)
    probe_fails = sum(1 for _, r in probe_results if r)
    setups = setup_samples(args, own_setup)
    metrics = {
        "answers_per_s": len(best) / sum(best),
        "answer_ms_p50": 1e3 * percentile(best, 50),
        "answer_ms_p90": 1e3 * percentile(best, 90),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": peak_kb / 1024.0,
    }
    notes.append(f"answers_per_s, answer_ms_p50 and answer_ms_p90 from {len(best)} answers, "
                 f"each the best of its {' or '.join(map(str, counts))} repeats; "
                 f"setup_s is the median of {len(setups)} set-ups: {[round(s, 3) for s in setups]}")
    total = attempted + len(probes)
    notes.append(f"probes (untimed): {probe_fails}/{len(probes)} failed; error_rate (answers + probes) = "
                 f"{(len(fails) + probe_fails) / total:.4g} ({len(fails) + probe_fails}/{total})")
    notes += [f"probe {k}: {'FAILED ' + r if r else 'ok'}" for k, r in probe_results]
    extra["probes"] = [{"kind": k, "reason": r} for k, r in probe_results]
    extra["latency_by_kind"] = latency_by_kind(answers, repeats)
    report(args, env, metrics, load_benchmark_names("end_to_end"), attempted, fails, extra)
    return 0


def latency_by_kind(answers, repeats) -> dict:
    by: dict = {}
    for a, r in zip(answers, repeats):
        by.setdefault(a.kind, []).extend(r)
    return {k: {"n": len(v), "best_ms": 1e3 * min(v), "median_ms": 1e3 * statistics.median(v)}
            for k, v in by.items()}


if __name__ == "__main__":
    sys.exit(main())
