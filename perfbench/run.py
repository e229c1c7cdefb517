#!/usr/bin/env python3
"""The repository's benchmark: build perfbench, run one workload, check it.

    python3 perfbench/run.py --workload NAME --seed N --seconds T --trace 0|1

Builds the coperf library and the perfbench binary from source (Release,
into $CARGO_TARGET_DIR or .bench_build), runs the workload, compares its
output digests with the ones pinned in perfbench/pinned.json, and prints
one JSON line {"correct", "attempted", "failed", "metrics"} last. With
--trace 0 the metrics are the end-to-end ones of BENCHMARK.json, with
--trace 1 its per-layer ledger. Exits 0 only when every check passed.

    --pin      record this run's digests in pinned.json instead of checking
    --selftest build and run the tests of the benchmark's helpers
"""
import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
PINNED = os.path.join(HERE, "pinned.json")
# setup_s is the median of this many cold set-ups, each in a fresh process.
SETUP_SAMPLES = 11
CALL_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build(build_dir):
    """Configures (once) and builds the perfbench binary; returns its directory."""
    out = os.path.join(build_dir, "perfbench")
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", out, "-j", str(os.cpu_count() or 1)],
                   check=True, stdout=sys.stderr)
    return out


def git_sha():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    res = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                         capture_output=True, text=True)
    return res.stdout.strip() or "unknown"


def call(binary, args):
    """Runs the perfbench binary; forwards its '#' notes and returns its record."""
    res = subprocess.run([binary] + args, capture_output=True, text=True,
                         timeout=CALL_TIMEOUT_S)
    sys.stderr.write(res.stderr)
    lines = res.stdout.strip().splitlines()
    for line in lines[:-1]:
        print(line)
    if res.returncode != 0 or not lines:
        raise RuntimeError(f"perfbench {args[0]} exited {res.returncode}")
    return json.loads(lines[-1])


def load_json(path, default=None):
    if not os.path.exists(path):
        if default is not None:
            return default
        raise FileNotFoundError(path)
    with open(path) as f:
        return json.load(f)


def check_metrics(metrics, spec):
    """The metrics must be exactly the ones BENCHMARK.json declares, with
    the declared units; returns them in declaration order."""
    declared = {m["name"]: m["unit"] for m in spec}
    if set(metrics) != set(declared):
        raise ValueError("metrics differ from BENCHMARK.json: missing "
                         f"{sorted(set(declared) - set(metrics))}, extra "
                         f"{sorted(set(metrics) - set(declared))}")
    for name, unit in declared.items():
        if metrics[name]["unit"] != unit:
            raise ValueError(f"{name}: unit {metrics[name]['unit']} != {unit}")
    return {name: metrics[name] for name in declared}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--pin", action="store_true")
    ap.add_argument("--selftest", action="store_true")
    a = ap.parse_args()

    bench = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    out = build(build_dir)
    if a.selftest:
        return subprocess.run([os.path.join(out, "perfbench_util_test")]).returncode
    names = [w["name"] for w in bench["workloads"]]
    if a.workload not in names:
        ap.error(f"--workload must be one of {names}")
    binary = os.path.join(out, "perfbench")

    tmpdir = os.path.join(build_dir, f"tmp-{os.getpid()}")
    os.makedirs(tmpdir, exist_ok=True)
    try:
        common = ["--workload", a.workload, "--seed", str(a.seed)]
        rec = call(binary, ["run"] + common + [
            "--seconds", str(a.seconds), "--trace", str(a.trace),
            "--tmpdir", tmpdir, "--git-sha", git_sha()])
        metrics = rec["metrics"]
        if not a.trace:
            samples = [rec["setup_s"]] + [
                call(binary, ["setup"] + common)["setup_s"]
                for _ in range(SETUP_SAMPLES - 1)]
            metrics["setup_s"]["value"] = statistics.median(samples)
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)

    input_set = rec["stamp"]["input_set"]
    digests = {f"{a.workload}/{input_set}": rec["digest"]}
    if rec["probe_digest"]:
        digests[f"probe/{input_set}"] = rec["probe_digest"]
    pinned = load_json(PINNED, default={})
    failed = rec["failed"]
    if a.pin:
        if failed:
            log("refusing to pin a run whose own checks failed")
            return 1
        pinned.update(digests)
        with open(PINNED, "w") as f:
            json.dump(dict(sorted(pinned.items())), f, indent=1)
            f.write("\n")
    for key, digest in digests.items():
        expect = pinned.get(key)
        status = "ok" if digest == expect else "MISMATCH"
        print(f"# digest {key}: {digest} (pinned {expect}) {status}")
        if digest != expect:
            failed = rec["attempted"]

    spec = bench["per_layer"] if a.trace else bench["end_to_end"]
    print("# stamp " + json.dumps(rec["stamp"]))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": rec["attempted"],
        "failed": failed,
        "metrics": check_metrics(metrics, spec),
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (subprocess.SubprocessError, RuntimeError, ValueError, OSError) as e:
        log(f"perfbench: {e}")
        sys.exit(2)
