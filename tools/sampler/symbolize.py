#!/usr/bin/env python3
"""Summarize a sampler.<pid>.txt written by tools/sampler/sampler.c.

    python3 tools/sampler/symbolize.py sampler.<pid>.txt [--top N]

Each sampled instruction pointer is mapped to its file through the
recorded /proc/self/maps and symbolized with `addr2line -f -i -C`, which
also names the functions it was inlined into. Prints two tables: `self`
counts each sample once under its innermost function, and `inclusive`
counts it under every function of its inline chain (so a helper inlined
into a hot loop shows under both).
"""
import argparse
import collections
import subprocess


def load(path):
    maps, ips = [], []
    for line in open(path):
        kind, rest = line.rstrip("\n").split(" ", 1)
        if kind == "map":
            f = rest.split(maxsplit=5)
            lo, hi = (int(x, 16) for x in f[0].split("-"))
            maps.append((lo, hi, int(f[2], 16), f[5] if len(f) > 5 else ""))
        else:
            ips.append(int(rest, 16))
    return maps, ips


def load_bias(maps, path):
    """Where the ELF file at `path` was loaded: 0 for a fixed-address
    executable, else the start of its mapping at file offset 0."""
    with open(path, "rb") as f:
        if f.read(18)[16] == 2:  # e_type ET_EXEC
            return 0
    return min(lo - off for lo, _, off, p in maps if p == path and off == 0)


def symbolize(path, addrs):
    out = subprocess.run(
        ["addr2line", "-a", "-f", "-i", "-C", "-e", path] + [hex(a) for a in addrs],
        capture_output=True, text=True, check=True).stdout.splitlines()
    # Per address: the address line, then one (function, file:line) pair
    # per frame of its inline chain, innermost first.
    chains, cur, want_func = {}, None, True
    for line in out:
        if want_func and line.startswith("0x"):
            cur = chains.setdefault(int(line, 16), [])
        elif want_func:
            cur.append(line)
            want_func = False
        else:
            want_func = True
    return chains


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("file")
    ap.add_argument("--top", type=int, default=25)
    args = ap.parse_args()
    maps, ips = load(args.file)
    by_file = collections.defaultdict(list)
    for ip in ips:
        m = next((m for m in maps if m[0] <= ip < m[1]), None)
        by_file[m[3] if m and m[3].startswith("/") else "?"].append(ip)
    chain_of = {}
    for path, file_ips in by_file.items():
        if path == "?":
            continue
        bias = load_bias(maps, path)
        vaddrs = sorted({ip - bias for ip in file_ips})
        chains = symbolize(path, vaddrs)
        for ip in set(file_ips):
            chain_of[ip] = chains.get(ip - bias) or ["?? " + path]
    samples = [chain_of.get(ip, ["??"]) for ip in ips]
    n = len(samples)
    print(f"{n} samples")
    self_c = collections.Counter(c[0] for c in samples)
    incl_c = collections.Counter(f for c in samples for f in set(c))
    for title, counter in (("self", self_c), ("inclusive", incl_c)):
        print(f"\n{title}:")
        for name, k in counter.most_common(args.top):
            print(f"{100 * k / max(n, 1):6.1f}%  {k:7d}  {name}")


if __name__ == "__main__":
    main()
