#!/usr/bin/env python3
"""Build and run the repository benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload <name> [--seed N] [--seconds S] [--trace 0|1] [--smoke]

Run from the root of a checkout. Builds `perfbench` (this directory's own
cargo package) and the shipped `semisort-cli` and `semisortd` binaries into
$CARGO_TARGET_DIR (default `.bench_build`), then runs one measurement. The
last line of standard output is the result object
`{"correct", "attempted", "failed", "metrics"}`; the line before it is a
detail record with the machine fingerprint and every metric's sample count
and quartiles. Build output goes to standard error. A traced run leaves one
Chrome trace per backend in $CARGO_TARGET_DIR/perfbench-traces/. Exits
non-zero, without a result, when the program cannot be built or the run
fails to finish.
"""

import argparse
import hashlib
import json
import os
import pathlib
import shutil
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("uniform-light", "exp-heavy")
# Seed used while tuning nothing: keep it for confirming a claim.
HELD_OUT_SEED = 20150613
RUN_TIMEOUT_S = 170


def source_digest():
    """A digest of the program's sources, standing in for the commit when
    the checkout is not a git repository."""
    h = hashlib.sha256()
    for top in ("crates", "src", "perfbench"):
        base = ROOT / top
        if not base.is_dir():
            continue
        for path in sorted(base.rglob("*")):
            if path.is_file() and path.suffix in (".rs", ".toml", ".lock", ".py") and "target" not in path.parts:
                h.update(str(path.relative_to(ROOT)).encode())
                h.update(path.read_bytes())
    for name in ("Cargo.toml", "Cargo.lock"):
        if (ROOT / name).is_file():
            h.update((ROOT / name).read_bytes())
    return "src-" + h.hexdigest()[:16]


def commit():
    try:
        out = subprocess.run(["git", "rev-parse", "--short=12", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip() + "+" + source_digest()
    except (OSError, subprocess.SubprocessError):
        pass
    return source_digest()


def cargo(args, env):
    """Run one cargo build; its output goes to stderr."""
    r = subprocess.run(["cargo", "build", "--release", "--offline", "--quiet"] + args,
                       cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr)
    return r.returncode == 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=None,
                    help="measurement window (default: run_seconds of BENCHMARK.json)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny inputs, for checking that every metric is produced")
    args = ap.parse_args()

    spec_path = ROOT / "BENCHMARK.json"
    try:
        spec = json.loads(spec_path.read_text())
    except (OSError, ValueError) as e:
        print(f"cannot read {spec_path}: {e}", file=sys.stderr)
        return 1
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    metrics = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]

    env = dict(os.environ)
    target = pathlib.Path(env.get("CARGO_TARGET_DIR") or ".bench_build")
    if not target.is_absolute():
        target = ROOT / target
    env["CARGO_TARGET_DIR"] = str(target)
    if not (ROOT / "Cargo.toml").is_file() or not (ROOT / "crates").is_dir():
        print("the program's sources are not here: run from the root of a checkout", file=sys.stderr)
        return 1
    if not cargo(["--manifest-path", str(HERE / "Cargo.toml")], env):
        print("building perfbench failed", file=sys.stderr)
        return 1
    if not cargo(["-p", "semisort-repro", "--bin", "semisort-cli", "-p", "semisortd", "--bin", "semisortd"], env):
        print("building semisort-cli / semisortd failed", file=sys.stderr)
        return 1

    release = target / "release"
    work = target / "perfbench-work" / str(os.getpid())
    work.mkdir(parents=True, exist_ok=True)
    env["PERFBENCH_COMMIT"] = commit()
    cmd = [str(release / "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(seconds), "--trace", str(args.trace),
           "--cli", str(release / "semisort-cli"),
           "--semisortd", str(release / "semisortd"),
           "--work-dir", str(work), "--metrics", ",".join(metrics)]
    if args.smoke:
        cmd.append("--smoke")
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        print(f"perfbench did not finish within {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    finally:
        # Keep the traced run's Chrome traces; drop the rest of the scratch.
        traces = target / "perfbench-traces"
        for t in work.glob("trace-*.json"):
            traces.mkdir(parents=True, exist_ok=True)
            t.replace(traces / f"{args.workload}-seed{args.seed}-{t.name}")
        shutil.rmtree(work, ignore_errors=True)
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stdout.write(out)
        print(f"perfbench exited with {proc.returncode}", file=sys.stderr)
        return 1
    sys.stdout.write(out)
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
