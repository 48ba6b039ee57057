#!/usr/bin/env python3
"""Same-machine A/B gate: the working tree against a base revision.

    python3 scripts/perf_ab.py <base-rev>

Builds the benchmark (`perfbench/`) twice, each into a temporary
directory of its own: the base revision from a `git archive` of it, and
the change from the working tree, uncommitted edits included. For every
workload in BENCHMARK.json it then runs PAIRS pairs of invocations, one
per side, alternating which side goes first, each measuring for SECONDS
of host time. Every end-to-end metric's median over the change's
invocations is gated against the base's median on that metric's
BENCHMARK.json bound and direction.

Prints each workload's metrics as median [q1, q3] per side, how many
of the PAIRS pairs the change won in the metric's better direction (a
tie counts for neither side), and a verdict. Exits 1 when a gate fails (a metric past its bound, an
invocation that is not correct or lost requests, a build that fails),
0 otherwise. Leaves nothing in the repository.
"""

import json
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

# Interleaved pairs per workload. Raise it if an unchanged tree fails;
# never loosen a bound.
PAIRS = 10
# Host seconds each invocation measures for. At 0 (three short runs), a
# self-A/B of one binary read `wide_rr` setup_s 26% apart.
SECONDS = 2

ROOT = Path(__file__).resolve().parent.parent


def build(src, target):
    """Builds src's benchmark into target; returns the binary's path."""
    subprocess.run(
        ["cargo", "build", "--release", "--quiet", "--offline",
         "--manifest-path", str(src / "perfbench" / "Cargo.toml"),
         "--target-dir", str(target)],
        check=True,
    )
    return target / "release" / "rpu-perfbench"


def invoke(exe, workload):
    """One benchmark invocation's result object, or None if it failed."""
    out = subprocess.run(
        [str(exe), "--workload", workload, "--seconds", str(SECONDS)],
        capture_output=True, text=True,
    )
    try:
        result = json.loads(out.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        return None
    ok = out.returncode == 0 and result["correct"] is True and result["failed"] == 0
    return result if ok else None


def quartiles(xs):
    q1, median, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return median, q1, q3


def main(argv):
    if len(argv) != 2:
        print("usage: python3 scripts/perf_ab.py <base-rev>", file=sys.stderr)
        return 2
    started = time.monotonic()
    base_rev = subprocess.run(
        ["git", "-C", str(ROOT), "rev-parse", "--verify", argv[1] + "^{commit}"],
        check=True, capture_output=True, text=True,
    ).stdout.strip()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    failed = False
    with tempfile.TemporaryDirectory(prefix="perf_ab-") as tmp:
        tmp = Path(tmp)
        base_src = tmp / "base"
        base_src.mkdir()
        archive = subprocess.run(
            ["git", "-C", str(ROOT), "archive", base_rev],
            check=True, capture_output=True,
        ).stdout
        subprocess.run(["tar", "-x", "-C", str(base_src)], input=archive, check=True)
        print(f"building base {base_rev[:12]} and the working tree", flush=True)
        exes = {
            "base": build(base_src, tmp / "base-target"),
            "change": build(ROOT, tmp / "change-target"),
        }
        for workload in (w["name"] for w in spec["workloads"]):
            results = {"base": [], "change": []}
            for pair in range(PAIRS):
                for side in ("base", "change") if pair % 2 == 0 else ("change", "base"):
                    results[side].append(invoke(exes[side], workload))
            print(f"\n{workload} ({PAIRS} pairs, --seconds {SECONDS})")
            bad = {side: sum(r is None for r in runs) for side, runs in results.items()}
            for side, n in bad.items():
                if n:
                    print(f"  FAIL: {n} of {PAIRS} {side} invocations not correct")
            if any(bad.values()):
                failed = True
                continue
            print(f"  {'metric':<16}{'base median [q1, q3]':>34}"
                  f"{'change median [q1, q3]':>34}{'change':>9}{'bound':>7}{'wins':>7}  verdict")
            for m in spec["end_to_end"]:
                name = m["name"]
                values = {side: [r["metrics"][name]["value"] for r in runs]
                          for side, runs in results.items()}
                base = quartiles(values["base"])
                change = quartiles(values["change"])
                sign = 1 if m["better"] == "lower" else -1
                wins = sum(sign * (b - c) > 0 for b, c in zip(values["base"], values["change"]))
                rel = (change[0] - base[0]) / base[0]
                worse = rel if m["better"] == "lower" else -rel
                verdict = "ok" if worse <= m["bound"] else "FAIL"
                failed |= verdict == "FAIL"
                cells = ["{:.4g} [{:.4g}, {:.4g}]".format(*q) for q in (base, change)]
                print(f"  {name:<16}{cells[0]:>34}{cells[1]:>34}"
                      f"{rel:>+9.1%}{m['bound']:>7.0%}{f'{wins}/{PAIRS}':>7}  {verdict}")
    verdict = "FAIL" if failed else "ok"
    print(f"\nperf A/B vs {base_rev[:12]}: {verdict} ({time.monotonic() - started:.0f} s)")
    return 1 if failed else 0


if __name__ == "__main__":
    try:
        sys.exit(main(sys.argv))
    except subprocess.CalledProcessError as e:
        print(f"FAIL: {' '.join(map(str, e.cmd))} exited {e.returncode}", file=sys.stderr)
        sys.exit(1)
