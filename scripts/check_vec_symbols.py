#!/usr/bin/env python3
"""Check that the x86 vec backend objects define no shared weak symbols.

Usage: check_vec_symbols.py [BUILD_DIR]    (default: build)

Each backend TU in src/vec/ is compiled with its own -m<isa> flags. The
linker merges a weak (W/V) or unique (u) symbol with every other TU's copy
of the same name and may keep the ISA-specific copy for the whole
program: an AVX-512 std::min instantiated by a backend would then crash a
baseline host. So every such symbol a backend object defines, guard
variables and TLS wrappers included, must name that backend's own
dvafs::vec::<backend>:: namespace -- as its scope, or (as in
dvafs::eval_gate_kind<dvafs::vec::avx2::bword>) as a template argument,
which equally makes the symbol unique to the backend
(src/vec/backend_prelude.h).

The script runs `nm -C --defined-only` on every backend_avx2.cpp.o and
backend_avx512.cpp.o under BUILD_DIR and lists each offending symbol.

Exit codes: 0 ok, 1 a symbol outside its backend namespace, 2 an object
missing or nm failed.
"""

import pathlib
import subprocess
import sys

BACKENDS = ("avx2", "avx512")
SHARED_TYPES = {"W", "V", "u"}


def shared_symbols(obj: pathlib.Path) -> "list[str]":
    try:
        out = subprocess.run(
            ["nm", "-C", "--defined-only", str(obj)],
            capture_output=True, text=True, check=True,
        ).stdout
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"check_vec_symbols: nm failed on {obj}: {e}", file=sys.stderr)
        sys.exit(2)
    names = []
    for line in out.splitlines():
        parts = line.split(maxsplit=2)
        if len(parts) == 3 and parts[1] in SHARED_TYPES:
            names.append(parts[2])
    return names


def main() -> int:
    build = pathlib.Path(sys.argv[1] if len(sys.argv) > 1 else "build")
    bad = 0
    for backend in BACKENDS:
        objs = sorted(build.rglob(f"backend_{backend}.cpp.o"))
        if not objs:
            print(f"check_vec_symbols: no backend_{backend}.cpp.o under "
                  f"{build}", file=sys.stderr)
            return 2
        scope = f"dvafs::vec::{backend}::"
        for obj in objs:
            names = shared_symbols(obj)
            outside = [n for n in names if scope not in n]
            for n in outside:
                print(f"{obj}: {n}")
            bad += len(outside)
            print(f"check_vec_symbols: {obj.name}: {len(names)} weak/unique "
                  f"symbols, {len(outside)} outside {scope}")
    if bad:
        print(f"check_vec_symbols: {bad} shared symbol(s) would let the "
              "linker pick ISA-specific code program-wide", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
