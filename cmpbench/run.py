"""Run one COMPARE benchmark workload.

    python3 cmpbench/run.py --workload flight-scan --seed 1 --seconds 10 --trace 0
    python3 cmpbench/run.py --self-test      # the result check's own test

Builds the program from source if needed (see build.py), then runs the
workload in one driver JVM (`repro.cmpbench.Main`). Metric lines go to
stdout; the last stdout line is the JSON result. Spark's own logging is
limited to errors on stderr by cmpbench/log4j2.properties.
"""

import argparse
import os
import signal
import subprocess
import sys

sys.dont_write_bytecode = True  # keep the checkout free of __pycache__
import build  # noqa: E402

# A run must end within 180 s (900 s when it builds, which takes well under
# a minute), so the benchmark JVM is stopped after this many seconds.
RUN_DEADLINE_S = 170
# Spark task threads (local[N]) when the machine has that many cores. Half of
# a 4-core VM: the driver, GC and JIT threads and the host's other tenants
# then rarely make a task wait. Two busy processes beside a run slowed a query
# by 6-16% at local[2] and by 50-63% at local[4]; unloaded, local[2] is
# 0-13% slower.
TASK_THREADS = 2
# Spark's standard JDK 17+ module opens (what spark-class adds itself).
MODULE_OPENS = [
    "java.base/java.lang", "java.base/java.lang.invoke", "java.base/java.lang.reflect",
    "java.base/java.io", "java.base/java.net", "java.base/java.nio",
    "java.base/java.util", "java.base/java.util.concurrent",
    "java.base/java.util.concurrent.atomic", "java.base/jdk.internal.ref",
    "java.base/sun.nio.ch", "java.base/sun.nio.cs", "java.base/sun.security.action",
    "java.base/sun.util.calendar", "java.security.jgss/sun.security.krb5",
]


def git_sha() -> str:
    """HEAD of the checkout, or "none" when the checkout is not its own git repository."""
    try:
        done = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=build.ROOT, text=True,
                              stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "none"
    lines = done.stdout.split()
    if done.returncode != 0 or len(lines) != 2 or os.path.realpath(lines[0]) != str(build.ROOT):
        return "none"
    return lines[1]


def cores() -> int:
    """TASK_THREADS, capped by the machine's cores and by SPARK_GRAFT_CPUS when set."""
    n = min(os.cpu_count() or 1, TASK_THREADS)
    want = os.environ.get("SPARK_GRAFT_CPUS", "").strip()
    return max(1, min(n, int(want))) if want.isdigit() else n


def java_cmd(main: str, args: list) -> list:
    out = build.OUT
    tmp = out / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    # Parallel GC: stop-the-world collections only, so no concurrent GC
    # threads compete with Spark's task threads for the cores (steadier
    # latencies than G1 on a 4-core machine); as many GC threads as task threads.
    return (["java", f"-Xmx{os.environ.get('SPARK_DRIVER_MEM', '3g')}", "-XX:+UseParallelGC",
             f"-XX:ParallelGCThreads={cores()}", "-XX:-UsePerfData",
             f"-Djava.io.tmpdir={tmp}",
             f"-Dlog4j2.configurationFile={build.BENCH / 'log4j2.properties'}",
             "-Djdk.reflect.useDirectMethodHandle=false"]
            + [f"--add-opens={m}=ALL-UNNAMED" for m in MODULE_OPENS]
            + ["-cp", build.classpath(build.CLASSES), main] + args)


def run_java(cmd: list, timeout: float) -> int:
    # On SIGTERM, unwind through the `finally` below so the JVM is stopped too.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    proc = subprocess.Popen(cmd, cwd=build.ROOT)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        sys.stderr.write(f"benchmark JVM exceeded {timeout:.0f} s; stopped\n")
        return 124
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", help="flight-scan, flight-pairs or sql-lookup")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--self-test", action="store_true")
    a = ap.parse_args()
    if not a.self_test and a.workload is None:
        ap.error("--workload is required")

    try:
        build.build()
    except build.BuildError as e:
        sys.stderr.write(f"build failed: {e}\n")
        return 2
    if a.self_test:
        return run_java(java_cmd("repro.cmpbench.ResultCheckTest", []), RUN_DEADLINE_S)

    args = ["--workload", a.workload, "--seed", str(a.seed), "--seconds", str(a.seconds),
            "--trace", str(a.trace), "--cores", str(cores()), "--git-sha", git_sha(),
            "--source-sha", build.STAMP.read_text().strip()[:16], "--out", str(build.OUT)]
    return run_java(java_cmd("repro.cmpbench.Main", args), RUN_DEADLINE_S)


if __name__ == "__main__":
    sys.exit(main())
