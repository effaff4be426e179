#!/usr/bin/env python3
"""Build and run the CLX benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The first run builds the repository's sources together with the harness in
this directory (sbt, offline) into `.bench_build/`; later runs reuse the
build while no source file has changed. The run itself is one JVM; its
result is the last line of stdout. Workloads and metrics are described in
BENCHMARK.json.
"""

import argparse
import hashlib
import json
import os
import signal
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
BUILD = ROOT / ".bench_build"
WORKLOADS = ("longtail_100k", "corpus47")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840
JVM_OPTS = [
    "-Xms2g", "-Xmx2g",
    "-XX:-UsePerfData",  # no hsperfdata files outside the checkout
    "-Dfile.encoding=UTF-8",
]


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def sources():
    """Every file the build reads, in a stable order."""
    files = [BENCH / "build.sbt", BENCH / "project" / "build.properties"]
    for top in (ROOT / "src" / "main", BENCH / "src" / "main"):
        files += sorted(p for p in top.rglob("*") if p.is_file())
    return files


def build():
    """Compile with sbt unless the last build saw the same sources; returns the
    runtime classpath."""
    if not (ROOT / "src" / "main" / "scala").is_dir():
        fail("no program sources at src/main/scala; run from the root of a checkout")
    digest = hashlib.sha256()
    for f in sources():
        digest.update(str(f.relative_to(ROOT)).encode())
        digest.update(f.read_bytes())
    stamp = digest.hexdigest()
    stamp_file, cp_file = BUILD / "stamp", BUILD / "classpath"
    if stamp_file.is_file() and cp_file.is_file() and stamp_file.read_text() == stamp:
        return cp_file.read_text()
    BUILD.mkdir(exist_ok=True)
    env = dict(os.environ)
    env.setdefault("COURSIER_MODE", "offline")
    # sbt keeps its own state under the build directory too.
    cmd = ["sbt", "--batch", "-Dsbt.log.noformat=true",
           f"-Dsbt.global.base={BUILD / 'sbt-global'}", f"-Dsbt.boot.directory={BUILD / 'sbt-boot'}",
           f"-Dsbt.ivy.home={BUILD / 'ivy'}", "compile", "export Runtime/fullClasspath"]
    proc = subprocess.run(cmd, cwd=BENCH, env=env, stdin=subprocess.DEVNULL,
                          capture_output=True, text=True, timeout=BUILD_TIMEOUT_S)
    sys.stderr.write(proc.stdout[-4000:] + proc.stderr[-4000:])
    lines = [l for l in proc.stdout.splitlines() if l.strip()]
    if proc.returncode != 0 or not lines or lines[-1].startswith("["):
        fail(f"build failed (exit {proc.returncode})")
    cp = lines[-1].strip()
    cp_file.write_text(cp)
    stamp_file.write_text(stamp)
    return cp


def expected_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()

    classpath = build()
    scratch = BUILD / "run"
    tmp = scratch / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    java = Path(os.environ["JAVA_HOME"]) / "bin" / "java" if "JAVA_HOME" in os.environ else "java"
    cmd = [str(java), *JVM_OPTS, f"-Djava.io.tmpdir={tmp}", "-cp", classpath, "perfbench.Main",
           "--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--scratch", str(scratch)]
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, start_new_session=True)

    def stop(*_):
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail("stopped")

    signal.signal(signal.SIGTERM, stop)
    signal.signal(signal.SIGINT, stop)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    lines = out.splitlines()
    sys.stderr.write("".join(l + "\n" for l in lines[:-1]))
    if proc.returncode != 0 or not lines:
        fail(f"benchmark exited with {proc.returncode}")
    result = json.loads(lines[-1])
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != expected_metrics(args.trace):
        fail("reported metrics differ from BENCHMARK.json")
    print(lines[-1])


if __name__ == "__main__":
    main()
