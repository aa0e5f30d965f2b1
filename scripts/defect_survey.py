#!/usr/bin/env python3
"""Survey the letter-wise cancellation defect of the projection stage.

For each supported generator index i, the images of sigma_i and sigma_i^-1
are concatenated and pushed through the matrix map.  Away from the
distinguished letters i in {k-1, k} the result is exactly the identity; at
the distinguished letters it is not, and this script prints those defect
matrices for inspection.
"""
import argparse

from mnmap import cancellation_defect
from mnmap.maps import pk_supports


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-n", type=int, default=5)
    parser.add_argument("--max-d", type=int, default=2)
    args = parser.parse_args()

    for n in range(2, args.max_n + 1):
        for k in range(1, n + 2):
            for d in range(1, args.max_d + 1):
                for i in range(1, n + 1):
                    if not pk_supports(i, k, n):
                        continue  # no image under the case table
                    distinguished = i in (k - 1, k)
                    defect = cancellation_defect(i, k, n, d)
                    if defect.is_identity():
                        status = "identity"
                    else:
                        status = "DEFECT"
                    print(f"n={n} k={k} d={d} i={i}"
                          f"{' (distinguished)' if distinguished else ''}:"
                          f" {status}")
                    if status == "DEFECT":
                        print(defect)
                        print()


if __name__ == "__main__":
    main()
