#!/usr/bin/env python3
"""Sampling profile of one perfbench workload, with no `perf` needed.

    python3 scripts/profile.py <workload> [seconds]

Builds the benchmark (`perfbench/`) from the working tree into a
temporary directory, with line tables and frame pointers. Compiles a
small LD_PRELOAD sampler with `cc`: a CPU-time timer
(`CLOCK_PROCESS_CPUTIME_ID`, 1 kHz) raises SIGPROF, and the handler
records the interrupted PC plus three return addresses found by walking
the frame pointers. Each process writes its `/proc/self/maps` and its
samples at exit. The benchmark's child processes inherit the sampler,
so every measured run is sampled. The script then resolves the
addresses with `addr2line -f -i -C` and prints:

- the top functions by self samples (the innermost inlined frame at
  the PC), each with its most common caller chains;
- the top functions by inclusive samples (anywhere in a sample's
  inlined PC frames or its three callers);
- the top source lines by self samples (the `file:line` of the
  innermost inlined frame at the PC), which splits a function's total
  between the inlined code it is made of.

Needs `cargo`, `cc` and `addr2line` on x86-64 Linux. Leaves nothing in
the repository. `seconds` (default 2) is passed to `--seconds`.
"""

import collections
import os
import re
import struct
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TOP = 15
CHAINS = 3

SAMPLER = r"""
#define _GNU_SOURCE
#include <pthread.h>
#include <signal.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <sys/syscall.h>
#include <time.h>
#include <ucontext.h>
#include <unistd.h>

#define MAX 200000
static uintptr_t buf[MAX][4];
static volatile size_t n;
static uintptr_t stack_hi;
static long main_tid;
static timer_t timer;

static void on_prof(int sig, siginfo_t *si, void *ctx) {
    (void)sig; (void)si;
    if (n >= MAX) return;
    const greg_t *r = ((ucontext_t *)ctx)->uc_mcontext.gregs;
    uintptr_t *s = buf[n++], sp = r[REG_RSP], *fp = (uintptr_t *)r[REG_RBP];
    s[0] = r[REG_RIP];
    int walk = syscall(SYS_gettid) == main_tid;
    for (int i = 1; i < 4; i++) {
        /* Follow the chain only upward within the main thread's stack. */
        walk = walk && (uintptr_t)fp >= sp && (uintptr_t)fp + 16 <= stack_hi
            && ((uintptr_t)fp & 7) == 0;
        s[i] = walk ? fp[1] : 0;
        if (walk) { sp = (uintptr_t)fp + 16; fp = (uintptr_t *)fp[0]; }
    }
}

__attribute__((constructor)) static void start(void) {
    pthread_attr_t a; void *lo; size_t size;
    if (pthread_getattr_np(pthread_self(), &a) == 0) {
        pthread_attr_getstack(&a, &lo, &size);
        stack_hi = (uintptr_t)lo + size;
        pthread_attr_destroy(&a);
    }
    main_tid = syscall(SYS_gettid);
    struct sigaction sa = {0};
    sa.sa_sigaction = on_prof;
    sa.sa_flags = SA_SIGINFO | SA_RESTART;
    sigaction(SIGPROF, &sa, 0);
    struct sigevent ev = {0};
    ev.sigev_notify = SIGEV_SIGNAL;
    ev.sigev_signo = SIGPROF;
    struct itimerspec its = {{0, 1000000}, {0, 1000000}};
    if (timer_create(CLOCK_PROCESS_CPUTIME_ID, &ev, &timer) == 0)
        timer_settime(timer, 0, &its, 0);
}

__attribute__((destructor)) static void stop(void) {
    timer_delete(timer);
    const char *dir = getenv("PROFILE_DIR");
    char path[4096], line[4096];
    if (!dir || n == 0) return;
    snprintf(path, sizeof path, "%s/%d.prof", dir, (int)getpid());
    FILE *out = fopen(path, "w"), *maps = fopen("/proc/self/maps", "r");
    if (!out || !maps) return;
    while (fgets(line, sizeof line, maps)) fprintf(out, "map %s", line);
    for (size_t i = 0; i < n; i++)
        fprintf(out, "s %lx %lx %lx %lx\n", buf[i][0], buf[i][1], buf[i][2], buf[i][3]);
    fclose(maps);
    fclose(out);
}
"""


def build(tmp):
    """Builds perfbench with frame pointers and line tables."""
    env = dict(
        os.environ,
        RUSTFLAGS="-C force-frame-pointers=yes",
        CARGO_PROFILE_RELEASE_DEBUG="line-tables-only",
        CARGO_PROFILE_RELEASE_STRIP="none",
    )
    subprocess.run(
        ["cargo", "build", "--release", "--quiet", "--offline",
         "--manifest-path", str(ROOT / "perfbench" / "Cargo.toml"),
         "--target-dir", str(tmp / "target")],
        check=True, env=env,
    )
    sampler = tmp / "sampler.so"
    (tmp / "sampler.c").write_text(SAMPLER)
    subprocess.run(
        ["cc", "-O2", "-shared", "-fPIC", "-o", str(sampler), str(tmp / "sampler.c"),
         "-lpthread", "-lrt"],
        check=True,
    )
    return tmp / "target" / "release" / "rpu-perfbench", sampler


def load_segments(path):
    """(file offset, vaddr, size) of each PT_LOAD segment of an ELF64."""
    with open(path, "rb") as f:
        head = f.read(64)
        phoff, = struct.unpack_from("<Q", head, 32)
        phentsize, phnum = struct.unpack_from("<HH", head, 54)
        f.seek(phoff)
        table = f.read(phentsize * phnum)
    segs = []
    for i in range(phnum):
        p_type, _, p_offset, p_vaddr, _, p_filesz = struct.unpack_from(
            "<IIQQQQ", table, i * phentsize)
        if p_type == 1:
            segs.append((p_offset, p_vaddr, p_filesz))
    return segs


def read_profiles(prof_dir, exe):
    """Yields each sample as a tuple of link-time addresses in `exe`
    (None for a frame outside it or missing)."""
    segs = load_segments(exe)
    exe = os.path.realpath(exe)
    for prof in Path(prof_dir).glob("*.prof"):
        maps, raw = [], []
        for line in prof.read_text().splitlines():
            f = line.split()
            if f[0] == "s":
                raw.append([int(x, 16) for x in f[1:]])
            elif len(f) >= 7 and os.path.realpath(f[6]) == exe:
                lo, hi = (int(x, 16) for x in f[1].split("-"))
                maps.append((lo, hi, int(f[3], 16)))

        def link(addr):
            for lo, hi, off in maps:
                if lo <= addr < hi:
                    file_off = addr - lo + off
                    for p_off, p_vaddr, size in segs:
                        if p_off <= file_off < p_off + size:
                            return file_off - p_off + p_vaddr
            return None

        for pc, *returns in raw:
            # A return address points after its call: look up the call.
            yield (link(pc),) + tuple(link(a - 1) if a else None for a in returns)


HASH = re.compile(r"::h[0-9a-f]{16}$")


def short(name):
    """Drops a demangled name's hash and generic arguments:
    `advance<fleet::Closure>` reads `advance`."""
    out, depth, prev = [], 0, ""
    for c in HASH.sub("", name):
        if c == "<" and (depth or prev.isalnum() or prev == "_"):
            depth += 1
        elif c == ">" and depth and prev != "-":
            depth -= 1
        elif not depth:
            out.append(c)
        prev = c
    return "".join(out)


def source_line(loc):
    """`file:line` relative to the repository, or to the toolchain's
    `library/` for the standard library; drops a discriminator."""
    loc = loc.split(" (discriminator")[0]
    root = f"{ROOT}/"
    if loc.startswith(root):
        return loc[len(root):]
    at = loc.find("/library/")
    return loc[at + 1:] if at >= 0 else loc


def resolve(exe, addrs):
    """Maps each address to its inlined frames, innermost first, and to
    the innermost frame's source line."""
    addrs = sorted(addrs)
    out = subprocess.run(
        ["addr2line", "-a", "-f", "-i", "-C", "-e", str(exe)],
        input="\n".join(hex(a) for a in addrs), check=True, capture_output=True, text=True,
    ).stdout.splitlines()
    frames, lines, cur = {}, {}, None
    i = 0
    while i < len(out):
        if out[i].startswith("0x"):
            cur = int(out[i], 16)
            frames[cur] = []
            i += 1
            continue
        frames[cur].append(short(out[i]))
        if i + 1 < len(out):
            lines.setdefault(cur, source_line(out[i + 1]))
        i += 2  # a name, then its file:line
    return frames, lines


def report(samples, frames, lines):
    total = len(samples)
    if total == 0:
        print("no samples recorded")
        return
    name = lambda a: frames.get(a, ["?"])[0] if a is not None else "?"
    self_count = collections.Counter()
    chains = collections.defaultdict(collections.Counter)
    inclusive = collections.Counter()
    by_line = collections.Counter()
    for s in samples:
        pc_frames = frames.get(s[0], ["?"]) if s[0] is not None else ["(outside perfbench)"]
        leaf = pc_frames[0]
        self_count[leaf] += 1
        by_line[lines.get(s[0], "?") if s[0] is not None else "(outside perfbench)"] += 1
        callers = pc_frames[1:] + [name(a) for a in s[1:] if a is not None]
        chains[leaf][" <- ".join(callers[:4]) or "(no callers)"] += 1
        seen = set(pc_frames)
        for a in s[1:]:
            if a is not None:
                seen.update(frames.get(a, []))
        inclusive.update(seen)
    print(f"{total} samples (1 ms of process CPU time each)")
    print(f"\ntop {TOP} functions by self samples, with their caller chains:")
    for fn, c in self_count.most_common(TOP):
        print(f"{100 * c / total:6.2f}%  {fn}")
        for chain, k in chains[fn].most_common(CHAINS):
            print(f"{'':9}{100 * k / total:6.2f}%  <- {chain}")
    print(f"\ntop {TOP} functions by inclusive samples (PC frames + 3 callers):")
    for fn, c in inclusive.most_common(TOP):
        print(f"{100 * c / total:6.2f}%  {fn}")
    print(f"\ntop {TOP} source lines by self samples (innermost inlined frame at the PC):")
    for line, c in by_line.most_common(TOP):
        print(f"{100 * c / total:6.2f}%  {line}")


def main(argv):
    if len(argv) not in (2, 3):
        print("usage: python3 scripts/profile.py <workload> [seconds]", file=sys.stderr)
        return 2
    workload, seconds = argv[1], argv[2] if len(argv) == 3 else "2"
    with tempfile.TemporaryDirectory(prefix="rpu-profile-") as tmp:
        tmp = Path(tmp)
        exe, sampler = build(tmp)
        prof_dir = tmp / "profiles"
        prof_dir.mkdir()
        env = dict(os.environ, LD_PRELOAD=str(sampler), PROFILE_DIR=str(prof_dir))
        run = subprocess.run(
            [str(exe), "--workload", workload, "--seconds", seconds],
            env=env, capture_output=True, text=True,
        )
        if run.returncode != 0:
            print(run.stderr, file=sys.stderr)
            return 1
        samples = list(read_profiles(prof_dir, exe))
        addrs = {a for s in samples for a in s if a is not None}
        report(samples, *(resolve(exe, addrs) if addrs else ({}, {})))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
