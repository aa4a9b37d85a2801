#!/usr/bin/env python3
"""ADCMiner benchmark runner.

Run from the repository root:

    python3 adcbench/run.py --workload tax-sample-scan --seed 1 --seconds 20 --trace 0

Builds the miner and the benchmark from source when they changed (into
$CARGO_TARGET_DIR, default .bench_build), then runs one closed-loop
measurement in a fresh JVM. The last line of standard output is the JSON
result. Maintenance modes:

    --record [--master local[1]]   mine every seed pool once, write
                                   adcbench/records/<workload>.<master>.json
    --write-expected               check that all records agree and write
                                   adcbench/expected.json from them
"""
import argparse
import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
EXPECTED = HERE / "expected.json"
RECORDS = HERE / "records"
WORKLOADS = ["tax-sample-scan", "adult-enum", "voter-f3-vios"]
RUN_TIMEOUT_S = 160
RECORD_TIMEOUT_S = 1800
JVM_OPTS = [
    "-Xmx2g",
    "-Dspark.driver.host=127.0.0.1",
    "--add-opens=java.base/java.lang=ALL-UNNAMED",
    "--add-opens=java.base/java.lang.invoke=ALL-UNNAMED",
    "--add-opens=java.base/java.lang.reflect=ALL-UNNAMED",
    "--add-opens=java.base/java.io=ALL-UNNAMED",
    "--add-opens=java.base/java.net=ALL-UNNAMED",
    "--add-opens=java.base/java.nio=ALL-UNNAMED",
    "--add-opens=java.base/java.util=ALL-UNNAMED",
    "--add-opens=java.base/java.util.concurrent=ALL-UNNAMED",
    "--add-opens=java.base/java.util.concurrent.atomic=ALL-UNNAMED",
    "--add-opens=java.base/jdk.internal.ref=ALL-UNNAMED",
    "--add-opens=java.base/sun.nio.ch=ALL-UNNAMED",
    "--add-opens=java.base/sun.nio.cs=ALL-UNNAMED",
    "--add-opens=java.base/sun.security.action=ALL-UNNAMED",
    "--add-opens=java.base/sun.util.calendar=ALL-UNNAMED",
]


def fail(msg):
    print(f"adcbench: {msg}", file=sys.stderr)
    sys.exit(2)


def sources():
    files = sorted((ROOT / "src" / "main" / "scala").rglob("*.scala"))
    if not files:
        fail(f"no miner sources under {ROOT / 'src/main/scala'}; run from a full checkout")
    return files + sorted((HERE / "src").glob("*.scala")) + [HERE / "build.sh"]


def source_sha(files):
    h = hashlib.sha256()
    for f in files:
        h.update(str(f.relative_to(ROOT)).encode() + b"\0" + f.read_bytes() + b"\0")
    return h.hexdigest()


def build(build_dir, sha):
    """Compile into build_dir/classes unless the stamp matches the sources."""
    classes = build_dir / "classes"
    stamp = build_dir / "classes.sha256"
    if stamp.exists() and stamp.read_text() == sha and classes.is_dir():
        return classes
    t0 = time.time()
    print("adcbench: building miner and benchmark", file=sys.stderr)
    subprocess.run(["bash", str(HERE / "build.sh"), str(classes)], cwd=ROOT, check=True,
                   stdout=sys.stderr, timeout=850, env={**os.environ, "SPARK_HOME": str(spark_home())})
    stamp.write_text(sha)
    print(f"adcbench: built in {time.time() - t0:.1f} s", file=sys.stderr)
    return classes


def commit():
    if not (ROOT / ".git").exists():
        return "unknown"
    r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    return r.stdout.strip() or "unknown"


def spark_home():
    """$SPARK_HOME, else the first spark-submit on PATH inside a Spark distribution."""
    homes = [Path(os.environ["SPARK_HOME"])] if os.environ.get("SPARK_HOME") else []
    for d in os.environ.get("PATH", "").split(os.pathsep):
        submit = Path(d) / "spark-submit"
        if d and submit.is_file():
            homes.append(submit.resolve().parent.parent)
    for home in homes:
        if any((home / "jars").glob("spark-core_*.jar")):
            return home
    fail("Spark not found: set SPARK_HOME or put spark-submit on PATH")


def run_jvm(build_dir, classes, args, timeout):
    jars = spark_home() / "jars"
    tmp = build_dir / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    cmd = ["java", *JVM_OPTS,
           f"-Djava.io.tmpdir={tmp}",
           f"-Dspark.local.dir={tmp}",
           f"-Dspark.sql.warehouse.dir={build_dir / 'warehouse'}",
           f"-Dlog4j2.configurationFile={HERE / 'log4j2.properties'}",
           "-cp", f"{classes}:{jars}/*", "adcbench.Bench", *args]
    return subprocess.run(cmd, cwd=build_dir, stdout=subprocess.PIPE, text=True, timeout=timeout)


def nproc():
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()


def write_expected():
    """Merge records; every record of a workload must give the same digests."""
    out = {}
    for path in sorted(RECORDS.glob("*.json")):
        rec = json.loads(path.read_text())
        pools = {p["seed"]: {"dcs": p["dcs"], "sha256": p["sha256"]} for p in rec["pools"]}
        prev = out.setdefault(rec["workload"], pools)
        if prev != pools:
            fail(f"{path.name} disagrees with another record of {rec['workload']}")
    missing = [w for w in WORKLOADS if w not in out]
    if missing:
        fail(f"no records for {missing}")
    sizes = {len(p) for p in out.values()}
    if len(sizes) != 1:
        fail("records differ in pool count")
    doc = {"pool_size": sizes.pop(),
           "workloads": {w: [dict(seed=s, **out[w][s]) for s in sorted(out[w])] for w in WORKLOADS}}
    EXPECTED.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"wrote {EXPECTED}")


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", choices=["0", "1"], default="0")
    ap.add_argument("--master", default=None, help="Spark master (default local[nproc])")
    ap.add_argument("--record", action="store_true")
    ap.add_argument("--write-expected", action="store_true")
    a = ap.parse_args()
    if a.write_expected:
        return write_expected()
    if not a.workload:
        fail("--workload is required")

    files = sources()
    sha = source_sha(files)
    build_dir = (ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")).resolve()
    build_dir.mkdir(parents=True, exist_ok=True)
    classes = build(build_dir, sha)
    master = a.master or f"local[{nproc()}]"
    common = ["--workload", a.workload, "--master", master, "--commit", commit(), "--source-sha", sha]

    if a.record:
        pool_size = json.loads(EXPECTED.read_text())["pool_size"] if EXPECTED.exists() else 8
        r = run_jvm(build_dir, classes, common + ["--record", "1", "--pools", str(pool_size)],
                    RECORD_TIMEOUT_S)
        if r.returncode != 0:
            fail(f"record run exited with {r.returncode}")
        RECORDS.mkdir(exist_ok=True)
        out = RECORDS / f"{a.workload}.{master.replace('[', '').replace(']', '').replace('*', 'all')}.json"
        out.write_text(r.stdout.strip().splitlines()[-1] + "\n")
        print(f"wrote {out}")
        return

    if not EXPECTED.exists():
        fail(f"missing {EXPECTED}")
    exp = json.loads(EXPECTED.read_text())
    pool = a.seed % exp["pool_size"]
    want = next(p for p in exp["workloads"][a.workload] if p["seed"] == pool)
    results = build_dir / "results" / f"{a.workload}.seed{a.seed}.trace{a.trace}.json"
    r = run_jvm(build_dir, classes, common + [
        "--pool", str(pool), "--seconds", str(a.seconds), "--trace", a.trace,
        "--expect-dcs", str(want["dcs"]), "--expect-sha", want["sha256"],
        "--results", str(results)], RUN_TIMEOUT_S)
    lines = r.stdout.strip().splitlines()
    if r.returncode != 0 or not lines:
        sys.stderr.write(r.stdout)
        fail(f"benchmark JVM exited with {r.returncode}")
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("malformed result line")
    sys.stdout.write("\n".join(lines) + "\n")


if __name__ == "__main__":
    main()
