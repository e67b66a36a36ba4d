"""Differential check of ``tables._float_text``, the bulk float formatter, against
``float.__repr__``.

``structured_floats()`` is the fixed sample that tier-1 checks. Run as a script,
this checks COUNT uniformly drawn float64 bit patterns, half of them over every
float64 and half with the exponents of [2**-33, 2**54), which the bulk path
formats itself, then the structured sample. It exits 1 at the first batch with a
mismatch, and where the bulk path is off (no x87 long double):

    PYTHONPATH=src python tests/bulk_repr_check.py 10000000
"""
import sys

import numpy as np

from fwcsim import tables


def structured_floats() -> np.ndarray:
    """About 137,000 values where shortest round-trip digits are hard to get: each
    decade from 1e-12 to 1e17 and its float neighbours, powers of two times 1, 3,
    5 and 7 and their neighbours, integers, values rounded to 1 to 12 decimals,
    the products of a fine grid, the negatives of all these, and 0, -0.0, inf,
    nan and subnormals."""
    rng = np.random.default_rng(33)
    decades = 10.0 ** np.arange(-12, 18)
    twos = np.ldexp(1.0, np.arange(-60, 64))[:, None] * np.array([1.0, 3.0, 5.0, 7.0])
    ints = np.concatenate([np.arange(20_000.0), rng.integers(0, 2**53, 20_000).astype(float)])
    rounded = [np.round(rng.uniform(0, 10.0 ** rng.integers(0, 8)), k)
               for k in range(1, 13) for _ in range(1000)]
    grid = 0.005 * np.arange(5001) * np.array([[1.0], [3e-7], [7e9]])
    hard = np.concatenate([decades, twos.ravel()])
    sample = np.concatenate([hard, np.nextafter(hard, 0), np.nextafter(hard, np.inf),
                             ints, rounded, grid.ravel(),
                             [0.0, np.inf, np.nan, 5e-324, 2.2250738585072014e-308]])
    return np.concatenate([sample, -sample])


def mismatches(values: np.ndarray) -> list[tuple[str, str]]:
    """(bulk text, repr) of each value whose two texts differ."""
    want = list(map(float.__repr__, values.tolist()))
    return [(got, rep) for got, rep in zip(tables._float_text(values), want) if got != rep]


def main(count: int, batch: int = 200_000) -> int:
    if not tables._BULK_REPR:
        print("the bulk path is off on this host (no x87 long double): nothing checked")
        return 1
    rng = np.random.default_rng(2018)
    checked = 0
    for size in [min(batch, count - done) for done in range(0, count, batch)]:
        bits = rng.integers(0, 2**64, size, dtype=np.uint64)
        exponents = rng.integers(1023 - 33, 1023 + 54, (size + 1) // 2, dtype=np.uint64)
        bits[::2] = bits[::2] & np.uint64(2**64 - 1 - (0x7FF << 52)) | exponents << np.uint64(52)
        values = bits.view(np.float64)
        if bad := mismatches(values):
            print(f"{len(bad)} mismatches in {size} bit patterns, first {bad[:3]}")
            return 1
        checked += size
    values = structured_floats()
    if bad := mismatches(values):
        print(f"{len(bad)} mismatches in the structured sample, first {bad[:3]}")
        return 1
    print(f"{checked} bit patterns and {len(values)} structured values format as repr")
    return 0


if __name__ == "__main__":
    sys.exit(main(int(sys.argv[1]) if len(sys.argv) > 1 else 10_000_000))
