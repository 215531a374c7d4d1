#!/usr/bin/env python3
"""Build and run the Chorus benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Run from the root of a Chorus checkout.  The first form builds
perfbench/main.exe with dune (into $CARGO_TARGET_DIR, default
.bench_build) and runs it with the given arguments; the benchmark's
last line of output is one JSON object.  --selftest is the benchmark's
own determinism test (see README.md).  Exits non-zero when the build
fails or any correctness check fails.
"""

import json
import os
import subprocess
import sys

sys.dont_write_bytecode = True

WORKLOADS = ["kv-read", "kv-write", "fs-kernel"]

# Metrics that must repeat exactly for a fixed seed and size: every
# end-to-end metric but the two host timings, and every per-layer metric
# but the host timings (units ns and ms) and the tracing slowdown.
HOST_TIMED = {"ops_per_host_s", "setup_s", "obs.traced_slowdown"}


def exact(metrics):
    return {k: v for k, v in metrics.items() if k not in HOST_TIMED}


def fail(msg):
    print("run.py: " + msg, file=sys.stderr)
    sys.exit(2)


def build():
    """Build main.exe from source and return its path."""
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        fail("run from the root of a Chorus checkout (no dune-project or lib/ here)")
    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    cmd = ["dune", "build", "--root", ".", "--build-dir", build_dir,
           "--cache", "disabled", "--display", "quiet",
           "./perfbench/main.exe"]
    try:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
    except OSError as e:
        fail("cannot run dune: %s" % e)
    if done.returncode != 0:
        fail("build failed")
    return os.path.join(build_dir, "default", "perfbench", "main.exe")


def run_once(exe, workload, seed, seconds, trace):
    """One fresh process; returns (correct, digest line, metrics other
    than host timings in ns or ms)."""
    out = subprocess.run(
        [exe, "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        stdout=subprocess.PIPE, text=True).stdout.splitlines()
    digest = next((l for l in out if l.startswith("virtual_digest")), "")
    result = json.loads(out[-1]) if out else {"metrics": {}}
    metrics = {k: v["value"] for k, v in result["metrics"].items()
               if v["unit"] not in ("ns", "ms")}
    return result.get("correct") is True, digest, metrics


def selftest(exe):
    """Reduced-size runs of each workload, each in a fresh process: two
    runs of one seed agree on every exact metric, end to end and per
    layer; a second seed changes the virtual outputs; and the traced
    run's virtual outputs equal the untraced run's."""
    seconds = 0.5
    ok = True
    for w in WORKLOADS:
        a = run_once(exe, w, 1, seconds, 0)
        b = run_once(exe, w, 1, seconds, 0)
        c = run_once(exe, w, 2, seconds, 0)
        t = run_once(exe, w, 1, seconds, 1)
        u = run_once(exe, w, 1, seconds, 1)
        checks = [
            ("correct", a[0] and b[0] and c[0] and t[0] and u[0]),
            ("same seed, same digest", a[1] == b[1] != ""),
            ("same seed, same exact metrics",
             exact(a[2]) == exact(b[2]) and exact(t[2]) == exact(u[2])),
            ("other seed, other digest", a[1] != c[1]),
            ("traced digest equals untraced",
             t[1].split()[1:2] == t[1].split()[3:4] == a[1].split()[1:2]),
        ]
        for name, passed in checks:
            print("%-10s %-32s %s" % (w, name, "ok" if passed else "FAIL"))
            ok = ok and passed
    print("selftest " + ("passed" if ok else "FAILED"))
    return 0 if ok else 1


def main():
    args = sys.argv[1:]
    exe = build()
    if args == ["--selftest"]:
        sys.exit(selftest(exe))
    sys.stdout.flush()
    sys.exit(subprocess.run([exe] + args).returncode)


if __name__ == "__main__":
    main()
