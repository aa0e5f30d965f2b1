#!/usr/bin/env python3
"""Run both unfaithfulness verifications end to end and print their reports.

stdout is deterministic; the wall-clock time of each check goes to stderr.
Exit code 0 iff every report passed.
"""
import json
import sys
import time

from mnmap import verify_theorem1, verify_theorem2


def main() -> int:
    all_passed = True

    print("== lifted Burau-kernel witness through the composite map (k=6) ==")
    baseline = None
    for d in (1, 2, 3, 5):
        start = time.perf_counter()
        report = verify_theorem1(d)
        elapsed = time.perf_counter() - start
        all_passed &= report.passed
        if baseline is None:
            baseline = report.image
            print(f"witness length: {len(report.witness)} letters")
        same = report.image == baseline
        print(f"d={d}: passed={report.passed} image_constant={same}")
        print(f"d={d}: {elapsed:.4f}s", file=sys.stderr)
        all_passed &= same

    print()
    print("== sigma_k^-2m on 2m+1 strands, d=1 ==")
    for m in (1, 2, 3):
        for k in range(1, 2 * m + 1):
            report = verify_theorem2(m, k)
            all_passed &= report.passed
            print(f"m={m} k={k}: {json.dumps(report.to_json_obj())}")

    print()
    print("all passed" if all_passed else "FAILURES above")
    return 0 if all_passed else 1


if __name__ == "__main__":
    sys.exit(main())
