#!/usr/bin/env python3
"""Turn pcsample output files into a flat profile.

    python3 tools/pcsample/symbolize.py [--top N] [--match=S] OUT.1234 [OUT.1235 ...]

Each file holds one process's samples (see pcsample.c).  A sample is
charged to the function of the executable that contains it, found with
`nm -n` over the executable recorded in the file, or to the name of the
shared object it fell in.  The profile sums every file given and prints
each function's share of the samples, largest first, after one line per
file with its sample count and command line.  `--match=S` keeps only the
files whose command line contains S (e.g. `--match=--child` keeps a
pipeline run's children and leaves out their parent).
"""

import argparse
import bisect
import collections
import os
import subprocess
import sys


def read_args(path):
    """The command line recorded in [path], or "" (files written before
    pcsample recorded it)."""
    with open(path) as f:
        for line in f:
            tag, _, rest = line.rstrip("\n").partition(" ")
            if tag == "args":
                return rest
            if tag == "pc":
                break
    return ""


def read_sample_file(path):
    exe, maps, pcs = None, [], []
    with open(path) as f:
        for line in f:
            tag, _, rest = line.rstrip("\n").partition(" ")
            if tag == "pc":
                pcs.append(int(rest, 16))
            elif tag == "map":
                fields = rest.split(None, 5)
                lo, hi = (int(x, 16) for x in fields[0].split("-"))
                offset = int(fields[2], 16)
                name = fields[5].strip() if len(fields) > 5 else ""
                maps.append((lo, hi, offset, name))
            elif tag == "exe":
                exe = rest
    return exe, maps, pcs


_symbols = {}


def symbols(exe):
    """Sorted (address, name) of the text symbols of [exe]."""
    if exe not in _symbols:
        out = subprocess.run(
            ["nm", "-n", "--defined-only", exe], capture_output=True, text=True, check=True
        ).stdout
        table = []
        for line in out.splitlines():
            parts = line.split()
            # OCaml's per-module code_begin markers share an address
            # with the module's first function.
            if len(parts) == 3 and parts[1] in "tTwW" and not parts[2].endswith("code_begin"):
                table.append((int(parts[0], 16), parts[2]))
        _symbols[exe] = ([a for a, _ in table], [n for _, n in table])
    return _symbols[exe]


def is_pie(exe):
    with open(exe, "rb") as f:
        header = f.read(18)
    return header[16] == 3  # e_type ET_DYN; ET_EXEC (2) maps at its link addresses


def profile(paths):
    counts = collections.Counter()
    total = 0
    for path in paths:
        exe, maps, pcs = read_sample_file(path)
        print(f"{len(pcs):8d}  {os.path.basename(path)}  {read_args(path)}")
        exe_maps = [m for m in maps if m[3] == exe]
        bias = 0
        if exe_maps and is_pie(exe):
            bias = min(lo - offset for lo, _, offset, _ in exe_maps)
        addrs, names = symbols(exe) if exe_maps else ([], [])
        for pc in pcs:
            total += 1
            where = next((m for m in maps if m[0] <= pc < m[1]), None)
            if where is None:
                counts["[unmapped]"] += 1
            elif where[3] == exe:
                i = bisect.bisect_right(addrs, pc - bias) - 1
                counts[names[i] if i >= 0 else "[" + os.path.basename(exe) + "]"] += 1
            else:
                counts["[" + (os.path.basename(where[3]) or "anon") + "]"] += 1
    return counts, total


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--top", type=int, default=40, help="rows to print (default 40)")
    ap.add_argument("--match", metavar="S", help="only files whose command line contains S")
    ap.add_argument("files", nargs="+", help="pcsample output files")
    args = ap.parse_args()
    files = [p for p in args.files if args.match is None or args.match in read_args(p)]
    counts, total = profile(files)
    if total == 0:
        sys.exit("no samples")
    print(f"{total} samples from {len(files)} file(s)")
    for name, n in counts.most_common(args.top):
        print(f"{100.0 * n / total:6.2f}% {n:8d}  {name}")


if __name__ == "__main__":
    main()
