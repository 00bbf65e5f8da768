#!/usr/bin/env python3
"""Build file of the benchmark.

Compiles the repository's main Scala sources (src/main/scala) together with
the benchmark's own sources (perfbench/src/main/scala) using the Scala compiler
that ships in the Spark distribution's jars, so no build tool and no
dependency resolution is involved. Output lands in
.bench_build/perfbench/classes-<hash> under the repository root, keyed by
a hash of every compiled source, so an unchanged tree is not rebuilt.

    python3 perfbench/build.py      # builds, prints the classes directory
"""
import hashlib
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build" / "perfbench"
SOURCE_DIRS = [ROOT / "src" / "main" / "scala", ROOT / "perfbench" / "src" / "main" / "scala"]
COMPILE_TIMEOUT_S = 600


class BuildError(Exception):
    pass


def java() -> str:
    home = os.environ.get("JAVA_HOME")
    exe = Path(home) / "bin" / "java" if home else None
    found = str(exe) if exe and exe.exists() else shutil.which("java")
    if not found:
        raise BuildError("no java: set JAVA_HOME or put java on PATH")
    return found


def spark_jars() -> Path:
    """The jars directory of the Spark distribution: $SPARK_HOME/jars, else
    the one next to the spark-submit on PATH."""
    home = os.environ.get("SPARK_HOME")
    if not home and shutil.which("spark-submit"):
        home = str(Path(shutil.which("spark-submit")).resolve().parent.parent)
    jars = Path(home) / "jars" if home else None
    if not jars or not any(jars.glob("scala-compiler-*.jar")):
        raise BuildError("no Spark distribution with a Scala compiler: set SPARK_HOME")
    return jars


def sources() -> list:
    missing = [d for d in SOURCE_DIRS if not d.is_dir()]
    if missing:
        raise BuildError("source directory missing: " + ", ".join(map(str, missing)))
    return sorted(p for d in SOURCE_DIRS for p in d.rglob("*.scala"))


def build() -> Path:
    """Compile if needed; return the classes directory."""
    files = sources()
    jars = spark_jars()
    h = hashlib.sha256()
    for name in sorted(j.name for j in jars.glob("*.jar")):
        h.update(name.encode())
    for f in files:
        h.update(str(f.relative_to(ROOT)).encode())
        h.update(f.read_bytes())
    out = BUILD / f"classes-{h.hexdigest()[:16]}"
    if (out / ".built").exists():
        return out
    tmp = out.with_name(out.name + ".tmp")
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir(parents=True)
    argfile = tmp / "sources.txt"
    argfile.write_text("\n".join(str(f) for f in files) + "\n")
    cmd = [java(), "-Xss8m", "-Xmx1g", "-XX:-UsePerfData", f"-Djava.io.tmpdir={tmp}", "-cp", f"{jars}/*",
           "scala.tools.nsc.Main", "-usejavacp", "-nowarn", "-d", str(tmp), f"@{argfile}"]
    print(f"[perfbench] compiling {len(files)} Scala sources", file=sys.stderr, flush=True)
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=COMPILE_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BuildError(f"compile took longer than {COMPILE_TIMEOUT_S} s")
    if done.returncode != 0:
        raise BuildError(f"compile failed with exit code {done.returncode}")
    (tmp / ".built").touch()
    shutil.rmtree(out, ignore_errors=True)
    tmp.rename(out)
    return out


if __name__ == "__main__":
    try:
        print(build())
    except BuildError as e:
        print(f"[perfbench] build error: {e}", file=sys.stderr)
        sys.exit(2)
