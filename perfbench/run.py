#!/usr/bin/env python3
"""Runs one benchmark workload and prints its result as the last line of stdout.

    python3 perfbench/run.py --workload pipeline|engine --seed N \\
        --seconds S --trace 0|1

Builds the program from source on first use (build.py), runs the benchmark JVM
(perfbench.Main), and turns its report into one JSON object with
the keys correct, attempted, failed and metrics. With --trace 0 the metrics
are the end_to_end metrics of BENCHMARK.json, with --trace 1 its per_layer
metrics. The full report (raw samples, quartiles, failures, host and
configuration) is written to .bench_build/perfbench/results/.

--graph and --inject-wrong-kappa exist for the self-tests in tests/.
"""
import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.dont_write_bytecode = True
sys.path.insert(0, str(Path(__file__).resolve().parent))
import build  # noqa: E402

ROOT = build.ROOT
RUN_TIMEOUT_S = 165
HEAP = "2g"
MODULE_OPENS = [
    "java.lang", "java.lang.invoke", "java.lang.reflect", "java.io", "java.net",
    "java.nio", "java.util", "java.util.concurrent", "java.util.concurrent.atomic",
    "sun.nio.ch", "sun.nio.cs", "sun.security.action", "sun.util.calendar",
]


def log(msg):
    print(f"[perfbench] {msg}", file=sys.stderr, flush=True)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    p.add_argument("--workload", required=True, choices=["pipeline", "engine"])
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, choices=["0", "1"])
    p.add_argument("--graph", help="tiny graph instead of the proxy: complete:N or figure3")
    p.add_argument("--inject-wrong-kappa", action="store_true",
                   help="corrupt one κ of the first operation")
    return p.parse_args(argv)


def summarize(values):
    """Median and quartiles as statistics.quantiles(n=4) gives them."""
    q = statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3
    return {"value": statistics.median(values), "n": len(values), "q1": q[0], "q3": q[2]}


def result_of(report, spec, trace):
    """The result line: metrics of the requested kind from the JVM's samples."""
    declared = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    unknown = sorted(set(report["samples"]) - set(declared))
    if unknown:
        raise RuntimeError(f"the JVM reported undeclared metrics: {unknown}")
    metrics, stats = {}, {}
    for m in spec["per_layer" if trace else "end_to_end"]:
        values = report["samples"].get(m["name"])
        if not values:
            if not trace:
                raise RuntimeError(f"the JVM did not measure {m['name']}")
            # A layer this workload does not run: no jobs, no time.
            values = [0.0]
            stats[m["name"]] = {"not_run": True}
        else:
            stats[m["name"]] = summarize(values)
        metrics[m["name"]] = {"value": statistics.median(values), "unit": m["unit"]}
    result = {
        "correct": bool(report["reference_sound"]) and report["attempted"] > 0,
        "attempted": int(report["attempted"]),
        "failed": int(report["failed"]),
        "metrics": metrics,
    }
    return result, stats


def main(argv):
    a = parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    def stop(signum, frame):
        raise SystemExit(128 + signum)

    # A SIGTERM to this process raises SystemExit here, which takes the
    # compiler (subprocess.run kills it) or the benchmark JVM down with it.
    signal.signal(signal.SIGTERM, stop)
    try:
        classes = build.build()
        jars = build.spark_jars()
        java = build.java()
    except build.BuildError as e:
        log(f"build error: {e}")
        return 2

    tag = f"{a.workload}-seed{a.seed}-trace{a.trace}" + (f"-{a.graph.replace(':', '')}" if a.graph else "")
    results = build.BUILD / "results"
    results.mkdir(parents=True, exist_ok=True)
    report_path = results / f"{tag}.json"
    report_path.unlink(missing_ok=True)
    tmp = build.BUILD / "tmp" / f"{tag}-{os.getpid()}"
    tmp.mkdir(parents=True, exist_ok=True)

    # A fixed heap and a compacting collector keep GC work, and the heap
    # measured after the final full GC, the same from run to run.
    cmd = [java, f"-Xms{HEAP}", f"-Xmx{HEAP}", "-XX:+UseParallelGC", "-Xss8m", "-XX:-UsePerfData"]
    cmd += [f"--add-opens=java.base/{p}=ALL-UNNAMED" for p in MODULE_OPENS]
    cmd += [f"-Djava.io.tmpdir={tmp}", f"-Dspark.local.dir={tmp}",
            f"-Dspark.sql.warehouse.dir={tmp / 'warehouse'}",
            "-Dspark.driver.host=127.0.0.1",
            f"-Dlog4j2.configurationFile={ROOT / 'perfbench' / 'log4j2.properties'}",
            "-cp", f"{classes}{os.pathsep}{jars}/*", "perfbench.Main",
            "--workload", a.workload, "--seed", str(a.seed), "--seconds", str(a.seconds),
            "--trace", a.trace, "--report", str(report_path)]
    if a.graph:
        cmd += ["--graph", a.graph]
    if a.inject_wrong_kappa:
        cmd += ["--inject-wrong-kappa"]

    log(f"running {tag}")
    t0 = time.monotonic()
    env = dict(os.environ, SPARK_LOCAL_DIRS=str(tmp))
    proc = subprocess.Popen(cmd, cwd=tmp, env=env, stdout=sys.stderr, stderr=sys.stderr,
                            start_new_session=True)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        log(f"benchmark JVM stopped after {time.monotonic() - t0:.0f} s")
        return 3
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    if code != 0 or not report_path.exists():
        log(f"benchmark JVM failed with exit code {code}")
        return 4

    report = json.loads(report_path.read_text())
    try:
        result, stats = result_of(report, spec, a.trace == "1")
    except RuntimeError as e:
        log(str(e))
        return 5
    report["result"], report["stats"] = result, stats
    report_path.write_text(json.dumps(report, indent=1))
    for f in report["failures"][:10]:
        log(f"failure: {f}")
    log(f"report: {report_path.relative_to(ROOT)}")
    print(json.dumps(report["config"]))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
