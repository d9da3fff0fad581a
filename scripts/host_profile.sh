#!/usr/bin/env bash
# host_profile.sh -- COMMAND [ARGS...]
#
# Sample where a command spends host CPU time, without perf or any other
# profiler installed. The script compiles a small SIGPROF sampler with the
# system C compiler into a temp dir and runs COMMAND under LD_PRELOAD with
# it. The sampler arms ITIMER_PROF (every millisecond of process CPU time)
# and records the call stack of whichever thread the signal lands on. At
# exit each process writes its stacks and its /proc/self/maps; child
# processes started by fork+exec are sampled too.
# The report maps every frame to a symbol through `nm` and prints the top 25
# symbols by self samples (the interrupted frame) and by inclusive samples
# (anywhere on the stack, once per sample).
#
# It measures the host clock only and is not a gate. Build RelWithDebInfo
# (the default) so symbols are present; inlined functions are charged to
# their caller. Example:
#   scripts/host_profile.sh -- .bench_build/hostbench/hostbench \
#       --workload service_stream --seed 1 --seconds 5
set -euo pipefail

[[ "${1:-}" == "--" ]] && shift
if [[ $# -eq 0 ]]; then
  echo "usage: host_profile.sh -- COMMAND [ARGS...]" >&2
  exit 2
fi

WORK=$(mktemp -d)
trap 'rm -rf "$WORK"' EXIT

cat > "$WORK/sampler.c" <<'EOF'
#define _GNU_SOURCE
#include <execinfo.h>
#include <signal.h>
#include <stdatomic.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <sys/time.h>
#include <unistd.h>

enum { kWords = 1 << 22, kDepth = 64 };
static uintptr_t buf[kWords];  /* per sample: depth, then depth frames */
static atomic_size_t used;
static atomic_size_t dropped;

static void on_prof(int sig, siginfo_t* si, void* uc) {
  (void)sig; (void)si; (void)uc;
  void* frames[kDepth + 2];
  const int n = backtrace(frames, kDepth + 2);
  if (n <= 2) return;
  /* Frames 0 and 1 are this handler and the signal trampoline. */
  const size_t depth = (size_t)(n - 2);
  const size_t at = atomic_fetch_add(&used, depth + 1);
  if (at + depth + 1 > kWords) { atomic_fetch_add(&dropped, 1); return; }
  buf[at] = depth;
  for (size_t i = 0; i < depth; ++i) buf[at + 1 + i] = (uintptr_t)frames[i + 2];
}

__attribute__((constructor)) static void start(void) {
  void* warm[4];
  backtrace(warm, 4);  /* load the unwinder outside the signal handler */
  struct sigaction sa;
  memset(&sa, 0, sizeof sa);
  sa.sa_sigaction = on_prof;
  sa.sa_flags = SA_SIGINFO | SA_RESTART;
  sigaction(SIGPROF, &sa, NULL);
  struct itimerval it = {{0, 1000}, {0, 1000}};
  setitimer(ITIMER_PROF, &it, NULL);
}

__attribute__((destructor)) static void stop(void) {
  struct itimerval off;
  memset(&off, 0, sizeof off);
  setitimer(ITIMER_PROF, &off, NULL);
  const char* dir = getenv("HOST_PROFILE_DIR");
  if (!dir) return;
  char path[4096];
  snprintf(path, sizeof path, "%s/samples.%d", dir, (int)getpid());
  FILE* f = fopen(path, "wb");
  if (!f) return;
  size_t n = atomic_load(&used);
  if (n > kWords) n = kWords;
  fwrite(buf, sizeof buf[0], n, f);
  fclose(f);
  snprintf(path, sizeof path, "%s/maps.%d", dir, (int)getpid());
  FILE* out = fopen(path, "w");
  FILE* in = fopen("/proc/self/maps", "r");
  char line[4096];
  while (out && in && fgets(line, sizeof line, in)) fputs(line, out);
  if (in) fclose(in);
  if (out) fclose(out);
  if (atomic_load(&dropped) > 0)
    fprintf(stderr, "host_profile: buffer full, %zu samples dropped\n",
            atomic_load(&dropped));
}
EOF
cc -O2 -shared -fPIC -o "$WORK/libsampler.so" "$WORK/sampler.c"
mkdir "$WORK/out"

status=0
HOST_PROFILE_DIR="$WORK/out" \
  LD_PRELOAD="$WORK/libsampler.so${LD_PRELOAD:+:$LD_PRELOAD}" "$@" || status=$?

python3 - "$WORK/out" <<'EOF'
import bisect, collections, glob, os, struct, subprocess, sys

out_dir = sys.argv[1]
TOP = 25
symtabs = {}

def symbols(path):
    """Sorted (address, name) of the text symbols `nm` finds in `path`."""
    if path not in symtabs:
        rows = []
        for extra in ([], ["-D"]):
            res = subprocess.run(["nm", "-C", "--defined-only"] + extra + [path],
                                 capture_output=True, text=True)
            for line in res.stdout.splitlines():
                parts = line.split(" ", 2)
                if len(parts) == 3 and parts[1] in "tTwWiI":
                    # A stripped library exports only some functions: an
                    # address may lie in an internal one after the export.
                    name = parts[2] if not extra else (
                        f"{parts[2]}? [{os.path.basename(path)}]")
                    rows.append((int(parts[0], 16), name))
            if rows:
                break
        rows.sort()
        symtabs[path] = ([a for a, _ in rows], [n for _, n in rows])
    return symtabs[path]

def is_pie(path):
    with open(path, "rb") as f:
        head = f.read(18)
    return len(head) == 18 and struct.unpack("<H", head[16:18])[0] == 3

def load_maps(path):
    """Executable file mappings as (start, end, bias, file)."""
    maps = []
    for line in open(path):
        parts = line.split(None, 5)
        if len(parts) < 6 or "x" not in parts[1] or not parts[5].startswith("/"):
            continue
        start, end = (int(x, 16) for x in parts[0].split("-"))
        file = parts[5].strip()
        try:
            bias = start - int(parts[2], 16) if is_pie(file) else 0
        except OSError:
            continue
        maps.append((start, end, bias, file))
    maps.sort()
    return maps, [m[0] for m in maps], {}

def name_of(maps, addr):
    maps, starts, cache = maps
    if addr in cache:
        return cache[addr]
    cache[addr] = lookup(maps, starts, addr)
    return cache[addr]

def lookup(maps, starts, addr):
    i = bisect.bisect_right(starts, addr) - 1
    if i < 0 or addr >= maps[i][1]:
        return "[unknown]"
    _, _, bias, file = maps[i]
    addrs, names = symbols(file)
    j = bisect.bisect_right(addrs, addr - bias) - 1
    return names[j] if j >= 0 else f"[{os.path.basename(file)}]"

self_count, incl_count = collections.Counter(), collections.Counter()
total = 0
for samples in sorted(glob.glob(os.path.join(out_dir, "samples.*"))):
    pid = samples.rsplit(".", 1)[1]
    maps = load_maps(os.path.join(out_dir, f"maps.{pid}"))
    data = open(samples, "rb").read()
    words = struct.unpack(f"<{len(data) // 8}Q", data)
    i, n_proc = 0, 0
    while i < len(words):
        depth = words[i]
        frames = words[i + 1:i + 1 + depth]
        i += 1 + depth
        # Callers' frames are return addresses: look up the call instruction.
        names = [name_of(maps, a if k == 0 else a - 1)
                 for k, a in enumerate(frames)]
        if not names:
            continue
        n_proc += 1
        self_count[names[0]] += 1
        for name in set(names):
            incl_count[name] += 1
    print(f"pid {pid}: {n_proc} samples")
    total += n_proc

for title, counter in (("self", self_count), ("inclusive", incl_count)):
    print(f"\ntop {TOP} by {title} samples (of {total}):")
    for name, n in counter.most_common(TOP):
        print(f"{100.0 * n / max(total, 1):6.1f}% {n:8d}  {name[:110]}")
EOF
exit $status
