#!/usr/bin/env python3
"""Exhaustive search for short kernel elements of the composite map over a
small parameter grid.  Each hit is a freely reduced pure braid word whose
image re-verified as the identity matrix; a hit that failed re-verification
is marked NOT VERIFIED.

stdout is deterministic; the wall-clock time of each cell goes to stderr.
Exit code 0 iff every hit re-verified.
"""
import argparse
import sys
import time

from mnmap import search_kernel


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-n", type=int, default=4)
    parser.add_argument("--max-d", type=int, default=2)
    parser.add_argument("--max-len", type=int, default=6)
    args = parser.parse_args(argv)

    all_verified = True
    for n in range(2, args.max_n + 1):
        for k in range(1, n + 2):
            for d in range(1, args.max_d + 1):
                start = time.perf_counter()
                try:
                    hits = search_kernel(n=n, k=k, d=d, max_len=args.max_len)
                except ValueError as err:
                    print(f"n={n} k={k} d={d}: skipped ({err})")
                    continue
                elapsed = time.perf_counter() - start
                print(f"n={n} k={k} d={d} (len<={args.max_len}): "
                      f"{len(hits)} hits")
                print(f"n={n} k={k} d={d}: {elapsed:.1f}s", file=sys.stderr)
                for result in hits:
                    all_verified &= result.verified
                    mark = "" if result.verified else "  NOT VERIFIED"
                    print(f"  {result.word}{mark}")
    if not all_verified:
        print("hits failed re-verification: see NOT VERIFIED above")
    return 0 if all_verified else 1


if __name__ == "__main__":
    sys.exit(main())
