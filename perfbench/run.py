#!/usr/bin/env python3
"""Run one workload of the Loom benchmark and print its result line.

Usage (from the root of the repository):

    python3 perfbench/run.py --workload dblp-bfs-w1k --seed 7 --seconds 30 --trace 0

The first run in a checkout compiles the program's sources together with the
benchmark (sbt, in perfbench/); later runs reuse that build until a source
file changes. The benchmark itself runs in a fresh JVM with a local-mode
SparkSession. The last line of standard output is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
See perfbench/README.md for the workloads and metrics.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
REPO_DIR = os.path.dirname(BENCH_DIR)
TARGET = os.path.join(BENCH_DIR, "target")
STAMP = os.path.join(TARGET, "perfbench-build.stamp")
CLASSPATH = os.path.join(TARGET, "perfbench-classpath.txt")
RUN_DIR = os.path.join(TARGET, "run")

BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170

# Module openings Spark needs on Java 17 (as spark-submit passes them).
JAVA_OPENS = [
    "-XX:+IgnoreUnrecognizedVMOptions",
    *("--add-opens=java.base/%s=ALL-UNNAMED" % p for p in (
        "java.lang", "java.lang.invoke", "java.lang.reflect", "java.io", "java.net",
        "java.nio", "java.util", "java.util.concurrent", "java.util.concurrent.atomic",
        "jdk.internal.ref", "sun.nio.ch", "sun.nio.cs", "sun.security.action",
        "sun.util.calendar")),
    "-Djdk.reflect.useDirectMethodHandle=false",
]


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def source_files():
    roots = [os.path.join(REPO_DIR, "src", "main"), os.path.join(BENCH_DIR, "src"),
             os.path.join(BENCH_DIR, "project")]
    files = [os.path.join(BENCH_DIR, "build.sbt")]
    for root in roots:
        for d, dirs, names in os.walk(root):
            dirs[:] = sorted(x for x in dirs if x != "target")
            files += [os.path.join(d, n) for n in sorted(names)]
    return [f for f in files if os.path.isfile(f)]


def build_stamp():
    h = hashlib.sha256(REPO_DIR.encode())
    for f in source_files():
        h.update(os.path.relpath(f, REPO_DIR).encode())
        with open(f, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def ensure_built():
    """Compile with sbt unless the current sources were built already."""
    stamp = build_stamp()
    if os.path.exists(STAMP) and os.path.exists(CLASSPATH):
        with open(STAMP) as fh:
            if fh.read().strip() == stamp:
                with open(CLASSPATH) as cp:
                    return cp.read().strip()
    if shutil.which("sbt") is None:
        fail("sbt is not on PATH; it is needed to build the benchmark")
    env = dict(os.environ)
    env.setdefault("COURSIER_MODE", "offline")
    cmd = ["sbt", "--batch", "-Dsbt.log.noformat=true", "-Dsbt.server.forcestart=false",
           "compile", "export Runtime/fullClasspath"]
    try:
        out = subprocess.run(cmd, cwd=BENCH_DIR, env=env, stdin=subprocess.DEVNULL,
                             stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
                             timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("build timed out")
    lines = [l for l in out.stdout.splitlines() if l.strip()]
    sys.stderr.write("\n".join(lines[:-1]) + "\n")
    if out.returncode != 0 or not lines or "classes" not in lines[-1]:
        fail("build failed (sbt exit code %d)" % out.returncode)
    classpath = lines[-1].strip()
    os.makedirs(TARGET, exist_ok=True)
    with open(CLASSPATH, "w") as fh:
        fh.write(classpath + "\n")
    with open(STAMP, "w") as fh:
        fh.write(stamp + "\n")
    return classpath


def check_result(line):
    res = json.loads(line)
    if set(res) != {"correct", "attempted", "failed", "metrics"}:
        raise ValueError("unexpected keys %s" % sorted(res))
    if not isinstance(res["attempted"], int) or res["attempted"] < 1:
        raise ValueError("attempted must be a positive integer")
    for name, m in res["metrics"].items():
        if set(m) != {"value", "unit"} or not isinstance(m["value"], (int, float)):
            raise ValueError("bad metric %s" % name)
    return res


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=7,
                    help="generation seed n; the stream order seed is n + 4")
    ap.add_argument("--gen-seed", type=int, help="override the generation seed")
    ap.add_argument("--order-seed", type=int, help="override the stream order seed")
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not os.path.isdir(os.path.join(REPO_DIR, "src", "main", "scala", "repro")):
        fail("program sources (src/main/scala/repro) not found next to perfbench/")
    if shutil.which("java") is None:
        fail("java is not on PATH")

    classpath = ensure_built()
    gen_seed = args.gen_seed if args.gen_seed is not None else args.seed
    order_seed = args.order_seed if args.order_seed is not None else args.seed + 4

    tmp = os.path.join(RUN_DIR, "tmp")
    shutil.rmtree(tmp, ignore_errors=True)
    os.makedirs(tmp)
    # A fixed, pre-touched heap on transparent huge pages and the throughput
    # collector: pass times of the memory-bound partitioners vary least so.
    cmd = ["java", "-Xms3g", "-Xmx3g", "-XX:+AlwaysPreTouch", "-XX:+UseTransparentHugePages",
           "-XX:+UseParallelGC", "-Djava.io.tmpdir=" + tmp,
           "-Dlog4j.configurationFile=" + os.path.join(BENCH_DIR, "src", "main", "resources",
                                                       "log4j2.properties"),
           *JAVA_OPENS, "-cp", classpath, "loombench.Main",
           "--workload", args.workload, "--gen-seed", str(gen_seed),
           "--order-seed", str(order_seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--out", RUN_DIR]
    env = dict(os.environ, SPARK_LOCAL_DIRS=os.path.join(RUN_DIR, "spark"))
    proc = subprocess.Popen(cmd, cwd=REPO_DIR, env=env, stdin=subprocess.DEVNULL,
                            stdout=subprocess.PIPE, stderr=sys.stderr, text=True)

    def stop(signum, _frame):
        proc.kill()
        proc.wait()
        sys.exit(128 + signum)

    signal.signal(signal.SIGTERM, stop)
    signal.signal(signal.SIGINT, stop)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        shutil.rmtree(os.path.join(RUN_DIR, "spark"), ignore_errors=True)

    lines = out.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(out)
        fail("benchmark exited with code %d" % proc.returncode)
    try:
        check_result(lines[-1])
    except ValueError as e:
        sys.stderr.write(out)
        fail("malformed result line: %s" % e)
    sys.stdout.write(out)
    sys.stdout.flush()


if __name__ == "__main__":
    main()
