"""Randomized cross-validation of the combinatorial calculus against the
dense operator oracle.

For each random type, ``hotypes.verify`` decides every (input, output)
contraction three ways: by the signalling algorithm, by the critical-set
test, and by brute numerics (sampled maps must contract to channels without
signalling from the closed input, or an explicit witness map must break the
channel law).  Any disagreement is a bug and exits 1; a type the oracle
refuses (too many dense bytes) exits 2 with ``error: <type>: <reason>``.
"""

from __future__ import annotations

import argparse
import random
import sys

from hotypes import Arrow, Elementary, Label, bar, io_partition, tensor, verify

NAMES = [c for c in "ABCDEFGHJKLMNOPQRSTUVWXYZ"]


def random_type_with_io(rng: random.Random, max_systems: int, dims):
    """Random relabeled type with at least one input and one output."""

    def build(n: int, fresh) -> object:
        roll = rng.random()
        if n == 1:
            if roll < 0.6:
                return Elementary(fresh())
            return bar(build(1, fresh))
        split = rng.randint(1, n - 1)
        left, right = build(split, fresh), build(n - split, fresh)
        if roll < 0.6:
            return Arrow(left, right)
        return tensor(left, right)

    while True:
        counter = iter(NAMES)

        def fresh() -> Label:
            return Label(next(counter), rng.choice(list(dims)))

        x = build(rng.randint(2, max_systems), fresh)
        analysis = io_partition(x)
        if analysis.inputs and analysis.outputs:
            return x


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--types", type=int, default=20)
    parser.add_argument("--trials", type=int, default=20)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--max-systems", type=int, default=4)
    parser.add_argument("--tol", type=float, default=1e-9)
    args = parser.parse_args(argv)

    rng = random.Random(args.seed)
    pairs_checked = 0
    disagreements = 0
    for index in range(args.types):
        x = random_type_with_io(rng, args.max_systems, (2,))
        try:
            report = verify(x, trials=args.trials, seed=args.seed + 1000 * index, tol=args.tol)
        except ValueError as exc:
            print(f"error: {x}: {exc}", file=sys.stderr)
            return 2
        pairs_checked += len(report.pairs)
        disagreements += report.failures
        if not (report.lambda_ok and report.basis_ok):
            print(f"DISAGREE (normalization or basis dimension) {x}")
        for entry in report.pairs:
            if "error" in entry:
                print(f"DISAGREE ({entry['error']}) {x} {entry['pair']}")

    print(
        f"{args.types} types, {pairs_checked} contractions, "
        f"{args.trials} samples each: {disagreements} disagreements"
    )
    return 0 if disagreements == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
