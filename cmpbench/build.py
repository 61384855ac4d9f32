"""Build file of the COMPARE benchmark.

Compiles the program (`src/main/scala`) and the benchmark's own sources
(`cmpbench/src`, `cmpbench/test`) with the Scala compiler that ships in the
Spark distribution, into `.bench_build/cmpbench/classes` of the checkout.
A stamp over every source file skips the compile when nothing changed.

    python3 cmpbench/build.py          # build (or confirm up to date)
"""

import hashlib
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "cmpbench"
OUT = ROOT / ".bench_build" / "cmpbench"
CLASSES = OUT / "classes"
STAMP = OUT / "classes.stamp"
SOURCE_DIRS = [ROOT / "src" / "main" / "scala", BENCH / "src", BENCH / "test"]


class BuildError(Exception):
    pass


def spark_jars() -> Path:
    """Jars of the Spark distribution at $SPARK_HOME."""
    jars = Path(os.environ.get("SPARK_HOME", "")) / "jars"
    if not os.environ.get("SPARK_HOME") or not any(jars.glob("spark-sql_*.jar")):
        raise BuildError("set SPARK_HOME to a Spark distribution (its jars/ holds spark-sql_*.jar)")
    return jars


def classpath(*extra: Path) -> str:
    return os.pathsep.join([str(p) for p in extra] + [str(spark_jars() / "*")])


def sources() -> list:
    program = SOURCE_DIRS[0]
    if not program.is_dir() or not any(program.rglob("*.scala")):
        raise BuildError(f"program sources not found under {program}")
    return sorted(p for d in SOURCE_DIRS if d.is_dir() for p in d.rglob("*.scala"))


def source_digest(files: list) -> str:
    h = hashlib.sha256()
    for f in files:
        h.update(str(f.relative_to(ROOT)).encode())
        h.update(f.read_bytes())
    return h.hexdigest()


def build() -> Path:
    """Compile if needed; return the classes directory."""
    files = sources()
    digest = source_digest(files + [Path(__file__).resolve()])
    if CLASSES.is_dir() and STAMP.is_file() and STAMP.read_text() == digest:
        return CLASSES
    shutil.rmtree(CLASSES, ignore_errors=True)
    CLASSES.mkdir(parents=True)
    args_file = OUT / "scalac.args"
    args_file.write_text("\n".join(str(f) for f in files) + "\n")
    cmd = ["java", "-Xss8m", "-Xmx2g", "-XX:-UsePerfData", "-cp", classpath(), "scala.tools.nsc.Main",
           "-nowarn", "-classpath", classpath(), "-d", str(CLASSES), f"@{args_file}"]
    done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    if done.returncode != 0:
        sys.stderr.write(done.stdout)
        raise BuildError(f"scalac failed with exit code {done.returncode}")
    STAMP.write_text(digest)
    return CLASSES


if __name__ == "__main__":
    try:
        print(build())
    except BuildError as e:
        sys.exit(f"build failed: {e}")
