#!/usr/bin/env python3
"""Runs one benchmark workload and prints its result as the last line.

Usage, from the repository root:

    python3 perfbench/run.py --workload fig3-mc --seed 1 --seconds 10 --trace 0

The first run compiles the program and the benchmark with sbt, offline, and
stores the class path under the build directory (`$CARGO_TARGET_DIR`, by
default `.bench_build`). Later runs reuse it while the sources are unchanged,
so they pay for one JVM start, not for sbt. The workload runs in a single JVM
with a local Spark master of at most 4 cores.
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
BUILD = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build") / "perfbench"
HEAP = "3g"
SBT_TIMEOUT_S = 840
JAVA_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def source_key():
    """Hash of everything the build reads, and of where the checkout is."""
    files = [ROOT / "build.sbt", ROOT / "project" / "build.properties",
             BENCH / "build.sbt", BENCH / "project" / "build.properties"]
    for d in (ROOT / "src" / "main", BENCH / "src"):
        files += sorted(p for p in d.rglob("*") if p.is_file())
    h = hashlib.sha256(str(ROOT).encode())
    for f in files:
        h.update(str(f.relative_to(ROOT)).encode())
        h.update(f.read_bytes())
    return h.hexdigest()


def run(cmd, cwd, timeout, env=None, stdout=subprocess.PIPE, stderr=None):
    """Runs `cmd` in its own process group, killing the group on timeout."""
    proc = subprocess.Popen(cmd, cwd=cwd, env=env, stdout=stdout, stderr=stderr,
                            start_new_session=True, text=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail(f"{cmd[0]} did not finish within {timeout} s")
    return proc.returncode, out


def classpath():
    """The benchmark's class path, compiled with sbt when the sources changed."""
    key_file, cp_file = BUILD / "source.sha256", BUILD / "classpath.txt"
    key = source_key()
    if key_file.exists() and cp_file.exists() and key_file.read_text() == key:
        return cp_file.read_text()
    BUILD.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, COURSIER_MODE="offline")
    if "SBT_OPTS" not in env:
        opts = ["-Dsbt.offline=true", "-Xmx2g"]
        repos = Path.home() / ".sbt" / "repositories"
        if repos.exists():
            opts += ["-Dsbt.override.build.repos=true", f"-Dsbt.repository.config={repos}"]
        env["SBT_OPTS"] = " ".join(opts)
    log = BUILD / "sbt.log"
    with open(log, "w") as f:
        code, _ = run(["sbt", "--batch", "-Dsbt.log.noformat=true", "-J-XX:-UsePerfData",
                       f"-Dsbt.global.base={BUILD / 'sbt-global'}",
                       "compile", "export Runtime/fullClasspath"],
                      cwd=BENCH, timeout=SBT_TIMEOUT_S, env=env, stdout=f, stderr=subprocess.STDOUT)
    lines = log.read_text().splitlines()
    if code != 0 or not lines or lines[-1].startswith("["):
        sys.stderr.write("\n".join(lines[-40:]) + "\n")
        fail(f"sbt build failed (log: {log})")
    cp_file.write_text(lines[-1])
    key_file.write_text(key)
    return lines[-1]


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args()

    if not (ROOT / "build.sbt").exists() or not (ROOT / "src" / "main" / "scala").is_dir():
        fail(f"no program sources next to {BENCH.name}/ (expected build.sbt and src/main/scala in {ROOT})")
    declared = spec["per_layer"] if a.trace else spec["end_to_end"]

    cp = classpath()
    work = BUILD / "work"
    (work / "tmp").mkdir(parents=True, exist_ok=True)
    spans = BUILD / "spans" / f"{a.workload}-seed{a.seed}.jsonl"
    cmd = ["java", f"-Xms{HEAP}", f"-Xmx{HEAP}", "-XX:-UsePerfData",
           f"-Dlog4j2.configurationFile={BENCH / 'log4j2.properties'}",
           f"-Djava.io.tmpdir={work / 'tmp'}",
           "-cp", cp, "perfbench.Main",
           "--workload", a.workload, "--seed", str(a.seed), "--seconds", str(a.seconds),
           "--trace", str(a.trace), "--spans", str(spans), "--work-dir", str(work)]
    code, out = run(cmd, cwd=ROOT, timeout=JAVA_TIMEOUT_S)
    lines = out.strip().splitlines()
    if code != 0 or not lines:
        sys.stderr.write(out)
        fail(f"benchmark JVM exited with code {code}")
    raw = json.loads(lines[-1])

    metrics = {}
    for m in declared:
        if m["name"] in raw["metrics"]:
            value = raw["metrics"][m["name"]]
        elif a.trace:
            value = 0.0  # a layer this workload does not call
        else:
            fail(f"end-to-end metric {m['name']} missing from the run")
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    if a.trace:
        print(f"perfbench: spans written to {spans}", file=sys.stderr)
    print(json.dumps({"correct": raw["correct"], "attempted": raw["attempted"],
                      "failed": raw["failed"], "metrics": metrics}))


if __name__ == "__main__":
    main()
