#!/usr/bin/env python3
"""Link census: every strong function the src/ libraries define must be
linked into at least one shipped binary.

Reads `nm --defined-only -C` of each library and binary. A library symbol
of type T (a strong, global function) that no binary defines is unlinked:
no shipped program runs it. Each unlinked function must be listed in
tools/link_census_allow.txt with a one-line reason, and each entry there
must still name an unlinked function, so the list cannot go stale.

Build the libraries and binaries at -O0 with -ffunction-sections and link
with -Wl,--gc-sections: at -O0 no caller hides a callee by inlining it, and
the linker drops every function section nothing reaches. The census cannot
see functions defined inline in headers (they are weak, not T), code with
internal linkage (t) or dead branches inside a linked function, virtual
functions kept only because a linked vtable names them, types that nothing
uses, or data.

Run: python3 tools/link_census.py --lib LIB.a... --bin BIN...
Exit 0 when every unlinked function is allowed, 1 otherwise, 2 on usage.
"""

import argparse
import os
import subprocess
import sys

ALLOW_FILE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                          "link_census_allow.txt")


def run_nm(path):
    return subprocess.run(["nm", "--defined-only", "-C", path], check=True,
                          capture_output=True, text=True).stdout


def parse_nm(text, types=None):
    """Symbol names from nm output, keeping only `types` when given.

    nm prints "ADDRESS TYPE NAME" (an undefined symbol has no address; an
    archive adds "member.o:" headers and blank lines). Demangled names may
    contain spaces, so NAME is everything after the type letter.
    """
    names = set()
    for line in text.splitlines():
        parts = line.split(" ", 2)
        if len(parts) != 3 or len(parts[1]) != 1:
            continue
        if types is None or parts[1] in types:
            names.add(parts[2])
    return names


def parse_allow(text):
    """{symbol: reason} from "SYMBOL  # reason" lines; '#' lines and blank
    lines are comments. Raises ValueError on an entry without a reason."""
    allowed = {}
    for number, line in enumerate(text.splitlines(), 1):
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        symbol, sep, reason = line.rpartition(" # ")
        if not sep or not symbol.strip() or not reason.strip():
            raise ValueError(f"line {number}: want 'SYMBOL  # reason', "
                             f"got {line!r}")
        allowed[symbol.strip()] = reason.strip()
    return allowed


def census(libs, bins):
    """Strong library functions that no binary defines, sorted."""
    defined = set()
    for path in libs:
        defined |= parse_nm(run_nm(path), types={"T"})
    linked = set()
    for path in bins:
        linked |= parse_nm(run_nm(path))
    return sorted(defined - linked)


def main(argv):
    parser = argparse.ArgumentParser(prog="link_census.py")
    parser.add_argument("--lib", nargs="+", required=True)
    parser.add_argument("--bin", nargs="+", required=True)
    args = parser.parse_args(argv[1:])
    try:
        with open(ALLOW_FILE) as fh:
            allowed = parse_allow(fh.read())
    except (OSError, ValueError) as err:
        print(f"link_census: {ALLOW_FILE}: {err}")
        return 2

    unlinked = census(args.lib, args.bin)
    unlisted = [name for name in unlinked if name not in allowed]
    stale = sorted(set(allowed) - set(unlinked))
    print(f"link census: {len(unlinked)} unlinked src/ function(s) across "
          f"{len(args.lib)} libraries and {len(args.bin)} binaries, "
          f"{len(unlinked) - len(unlisted)} allowed")
    for name in unlinked:
        print(f"  {'allowed' if name in allowed else 'UNLINKED'}  {name}")
    for name in stale:
        print(f"  STALE    {name}  (allowed, but linked or gone)")
    if unlisted:
        print(f"FAIL: {len(unlisted)} function(s) no shipped binary runs; "
              f"delete them, or list each in {ALLOW_FILE} with a reason")
    if stale:
        print(f"FAIL: {len(stale)} stale entr(y/ies) in {ALLOW_FILE}")
    return int(bool(unlisted or stale))


if __name__ == "__main__":
    sys.exit(main(sys.argv))
