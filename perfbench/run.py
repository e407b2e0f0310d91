"""Daisy session benchmark: closed-loop query replay, end-to-end and per layer.

Usage (from the repository root)::

    python3 perfbench/run.py --workload mixed_spj --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --smoke --trace 1

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
ones from traced replays (untraced replays between them give the tracing
overhead).
Human-readable lines come first; the last line of standard output is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``.  README.md
describes the workloads, the metrics and the layer to end-to-end map.
"""
from __future__ import annotations

import time

PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import shlex  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from collections import defaultdict  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

# The benchmark fixes its own Spark configuration rather than inheriting the
# test suites' defaults; every result records it.
SPARK_CONF = {
    "master": "local[4]",
    "driver_memory": "2g",
    # the whole heap is committed and touched at start, so peak RSS does not
    # hinge on when the garbage collector chose to grow the heap
    "driver_java_options": "-Xms2g -XX:+AlwaysPreTouch",
    "spark.sql.shuffle.partitions": "8",
    "spark.sql.autoBroadcastJoinThreshold": "-1",
    "spark.sql.execution.arrow.pyspark.enabled": "true",
    # the status tracker keeps 1000 jobs by default; a run launches more
    "spark.ui.retainedJobs": "200000",
    "spark.ui.retainedStages": "200000",
}
WORK_DIR = ROOT / ".perfbench"

import harness  # noqa: E402  (imports repro: fails before Spark starts without src/)
import workloads  # noqa: E402
from tracer import JobGroups, Tracer  # noqa: E402

E2E_UNITS = {
    "setup_s": "s",
    "workload_s": "s",
    "first_answer_s": "s",
    "query_p50_s": "s",
    "spark_jobs": "count",
    "offline_s": "s",
    "peak_rss_mb": "MB",
}


def start_spark(tmp: Path):
    java_opts = f"-Djava.io.tmpdir={tmp} -XX:-UsePerfData {SPARK_CONF['driver_java_options']}"
    args = [
        "--master", SPARK_CONF["master"],
        "--driver-memory", SPARK_CONF["driver_memory"],
        "--driver-java-options", shlex.quote(java_opts),
        "--conf", "spark.driver.host=127.0.0.1",
        "--conf", "spark.ui.enabled=false",
        "--conf", "spark.ui.showConsoleProgress=false",
        "--conf", f"spark.local.dir={shlex.quote(str(tmp))}",
    ]
    for k in ("spark.ui.retainedJobs", "spark.ui.retainedStages"):
        args += ["--conf", f"{k}={SPARK_CONF[k]}"]
    os.environ["PYSPARK_SUBMIT_ARGS"] = " ".join(args + ["pyspark-shell"])
    os.environ["TMPDIR"] = str(tmp)
    os.environ["SPARK_LOCAL_DIRS"] = str(tmp)  # would override spark.local.dir
    from pyspark.sql import SparkSession

    builder = SparkSession.builder.appName("perfbench")
    for k in ("spark.sql.shuffle.partitions", "spark.sql.autoBroadcastJoinThreshold",
              "spark.sql.execution.arrow.pyspark.enabled"):
        builder = builder.config(k, SPARK_CONF[k])
    spark = builder.getOrCreate()
    spark.sparkContext.setLogLevel("ERROR")
    return spark


def stop_spark(spark) -> None:
    """Stop the context, then end the JVM and wait for it."""
    from pyspark import SparkContext

    gateway = SparkContext._gateway
    spark.stop()
    if gateway is not None:
        gateway.shutdown()
        proc = getattr(gateway, "proc", None)
        if proc is not None:
            proc.stdin.close()
            proc.wait(timeout=60)
        SparkContext._gateway = None
        SparkContext._jvm = None


def peak_rss_mb(spark) -> float:
    """High-water RSS of the driver JVM plus this Python process, in MB."""
    jvm_pid = spark.sparkContext._jvm.java.lang.ProcessHandle.current().pid()
    total_kb = 0
    for pid in (jvm_pid, "self"):
        with open(f"/proc/{pid}/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    total_kb += int(line.split()[1])
    return total_kb / 1024


# ---------------------------------------------------------------------- #
def run_workload(spark, groups: JobGroups, name: str, args, spark_s: float) -> tuple:
    """Warm up, run the offline reference, then replay the session for ``args.seconds``."""
    checks = harness.Checks()
    t = time.perf_counter()
    wl = workloads.build(name, args.seed, smoke=args.smoke)
    datagen_s = time.perf_counter() - t

    phases = {}
    # Warm-up replays, checked but not timed, come before and after the
    # offline reference.  The fresh JVM compiles Spark's and Daisy's code
    # paths during the first, and the replay right after the reference ran
    # 10-40% slower than the ones after it.  Smoke runs skip them.
    warm = [] if args.smoke else [harness.replay(spark, groups, wl, f"{name}:warm0")]
    t = time.perf_counter()
    ref = harness.run_offline(spark, groups, wl, name)
    phases["offline"] = time.perf_counter() - t
    if not args.smoke:
        warm.append(harness.replay(spark, groups, wl, f"{name}:warm1"))
    for rp in warm:
        harness.check(rp, ref, wl, checks)

    # Untraced runs take medians over at least 3 replays.  Traced runs
    # alternate traced and untraced replays, which give the tracing overhead.
    min_replays = 2 if args.trace else 1 if args.smoke else 3
    t_measure = time.perf_counter()
    replays: list[harness.Replay] = []
    while True:
        tag = f"{name}:r{len(replays)}"
        tracer = Tracer(groups, tag) if args.trace and len(replays) % 2 == 0 else None
        rp = harness.replay(spark, groups, wl, tag, tracer=tracer)
        harness.check(rp, ref, wl, checks)
        replays.append(rp)
        if len(replays) >= min_replays and time.perf_counter() - t_measure >= args.seconds:
            break
    phases["measure"] = time.perf_counter() - t_measure
    inits = [(r.init_s, r.init_jobs) for r in replays]
    # a replay with a failed query is a failed check, and its timings are left out
    plain = [r for r in replays if not r.traced and r.ok]
    traced = [r for r in replays if r.traced]
    if args.trace:
        metrics = layer_metrics(groups, wl, plain, traced, ref, checks)
        metrics.update({
            "setup.spark_s": spark_s,
            "setup.datagen_s": datagen_s,
            "setup.session_init_s": _median(s for s, _ in inits),
            "setup.session_init_jobs": _median(j for _, j in inits),
        })
        dump_spans(name, args.seed, traced)
    else:
        metrics = {
            "setup_s": spark_s + datagen_s + _median(s for s, _ in inits),
            "workload_s": _median(r.workload_s for r in plain),
            "first_answer_s": _median(r.latencies[0] for r in plain),
            "query_p50_s": _median(x for r in plain for x in r.latencies),
            "spark_jobs": _median(r.spark_jobs for r in plain),
            "offline_s": ref.clean_s + ref.query_s,
        }
    info = dict(
        workload=name, seed=args.seed, smoke=args.smoke, sizes=wl.sizes,
        phases_s={k: round(v, 3) for k, v in phases.items()},
        replays=len(replays), traced_replays=len(traced),
        query_samples=sum(len(r.latencies) for r in plain),
        per_query_s=[[round(x, 3) for x in r.latencies] for r in replays],
        jobs_per_query=[[len(ids) for ids in r.job_ids] for r in replays],
        repaired_per_query=replays[0].repaired,
    )
    return metrics, checks, info


def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else float("nan")


def layer_metrics(groups, wl, plain, traced, ref, checks) -> dict:
    per = [_replay_layers(groups, wl, r, checks) for r in traced]
    out = {k: _median(p[k] for p in per) for k in per[0]}
    out.update({
        "cost.self_s": _median(r.cost_s for r in plain),
        "cost.would_switch_at": _median(r.would_switch_at for r in plain),
        "offline.clean_s": ref.clean_s,
        "offline.query_s": ref.query_s,
        "offline.jobs": ref.jobs,
        "spark.tasks": _median(groups.tasks([j for ids in r.job_ids for j in ids]) for r in plain),
        "trace.overhead_s": _median(r.workload_s for r in traced)
        - _median(r.workload_s for r in plain),
    })
    return out


def _replay_layers(groups, wl, rp: harness.Replay, checks: harness.Checks) -> dict:
    tr = rp.tracer
    tr.finish()
    selfs = tr.self_seconds()
    self_s: dict[str, float] = defaultdict(float)
    jobs: dict[str, int] = defaultdict(int)
    for sp in tr.spans:
        self_s[sp.layer] += selfs[sp.id]
        jobs[sp.layer] += sp.jobs
    by_name = defaultdict(list)
    for sp in tr.spans:
        by_name[sp.name].append(sp)
    # every query's time must be charged to some layer, not to the gaps
    for root in by_name["query"]:
        checks.add(selfs[root.id] <= 0.1 * root.seconds,
                   f"{wl.name} q{root.query}: spans cover under 90% of the traced latency")
    cleans = by_name["operators.clean_sigma"]
    n_rows = len(wl.tables[wl.cleaned_table])
    repaired_by_query: dict[int, int] = defaultdict(int)
    for sp in cleans:
        repaired_by_query[sp.query] += sp.info["repaired"]
    updates = by_name["update.apply_repairs"]
    dc_modes = [m for m in rp.dc_modes if m is not None]
    return {
        "relax.self_s": self_s["relax"],
        "relax.jobs": jobs["relax"],
        "relax.iters": sum(sp.info["iters"] for sp in by_name["relax.relax_fd"]),
        "relax.region_frac": _mean((sp.info["answer"] + sp.info["extras"]) / n_rows
                                   for sp in cleans),
        "relax.extras_per_answer": _mean(sp.info["extras"] / sp.info["answer"]
                                         for sp in cleans if sp.info["answer"]),
        "detect.self_s": self_s["detect"],
        "detect.jobs": jobs["detect"],
        "repair.self_s": self_s["repair"],
        "repair.jobs": jobs["repair"],
        "repair.tuples": sum(sp.info["repaired"] for sp in cleans),
        "repair.cand_width": rp.cand_width,
        "update.self_s": self_s["update"],
        "update.jobs": jobs["update"],
        "update.calls": len(updates),
        "update.noop_frac": _mean(float(repaired_by_query[sp.query] == 0) for sp in updates),
        "operators.self_s": self_s["operators"],
        "operators.jobs": jobs["operators"],
        "daisy.self_s": self_s["daisy"],
        "daisy.jobs": jobs["daisy"],
        "daisy.clean_dc_s": sum(sp.seconds for sp in by_name["daisy._clean_dc"]),
        "thetajoin.detect_s": sum(sp.seconds for sp in by_name["thetajoin.detect"]),
        "thetajoin.detect_jobs": sum(sp.jobs for sp in by_name["thetajoin.detect"]),
        "thetajoin.estimate_s": sum(sp.seconds for sp in by_name["thetajoin.accuracy"]),
        "thetajoin.pairs_scanned": rp.pairs_scanned,
        "thetajoin.full_frac": _mean(float(m == "full") for m in dc_modes),
        "repair_dc.self_s": self_s["repair_dc"],
        "repair_dc.jobs": jobs["repair_dc"],
        "result.s": self_s["result"],
        "result.jobs": jobs["result"],
    }


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def dump_spans(name: str, seed: int, traced: list[harness.Replay]) -> None:
    WORK_DIR.mkdir(exist_ok=True)
    path = WORK_DIR / f"spans-{name}-seed{seed}.json"
    path.write_text(json.dumps([r.tracer.dump() for r in traced]))
    print(f"# spans written to {path.relative_to(ROOT)}")


# ---------------------------------------------------------------------- #
def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=[*workloads.NAMES, "all"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10.0,
                   help="measure by replaying the session until this many seconds passed")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="tiny sizes of every workload")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    names = list(workloads.NAMES) if args.workload == "all" else [args.workload]
    tmp = WORK_DIR / f"tmp-{os.getpid()}"
    tmp.mkdir(parents=True, exist_ok=True)
    try:
        spark = start_spark(tmp)
        spark_s = time.perf_counter() - PROCESS_START
        try:
            groups = JobGroups(spark.sparkContext)
            results = [(n, *run_workload(spark, groups, n, args, spark_s)) for n in names]
            rss = peak_rss_mb(spark)
            n_jobs = groups.verify_complete()
        finally:
            stop_spark(spark)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    attempted = sum(c.attempted for _, _, c, _ in results)
    failed = sum(c.failed for _, _, c, _ in results)
    metrics_out = {}
    for name, metrics, checks, info in results:
        if not args.trace:
            metrics["peak_rss_mb"] = rss
        print("# " + json.dumps(dict(info, spark_conf=SPARK_CONF, jobs_in_process=n_jobs)))
        error_rate = checks.failed / checks.attempted if checks.attempted else 1.0
        for note in checks.notes:
            print(f"# FAILED CHECK: {note}")
        print(f"{name}  error_rate {error_rate:.4f} ratio  "
              f"({checks.failed}/{checks.attempted} checks failed)")
        for k, v in metrics.items():
            unit = E2E_UNITS.get(k) or layer_unit(k)
            print(f"{name}  {k} {v:.6g} {unit}")
            key = k if len(names) == 1 else f"{name}.{k}"
            metrics_out[key] = {"value": v, "unit": unit}
    print(json.dumps({"correct": failed == 0 and attempted > 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics_out}))
    return 0


def layer_unit(name: str) -> str:
    if name.endswith(("_s", ".s")):
        return "s"
    if name.endswith(("_frac", ".extras_per_answer")):
        return "ratio"
    if name.endswith("would_switch_at"):
        return "query"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
