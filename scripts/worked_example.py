"""Walk through the two-independent-channels example end to end.

The type (A->B)*(C->D) is a pair of channels with no cross-talk.  Chaining
B into C (or D into A) is fine; closing a loop through one channel, or
through both at once, is not.  The script shows the word-set evidence for
each verdict and confirms the admissible cases numerically.
"""

from __future__ import annotations

from hotypes import (
    ContractionSpec,
    build_D,
    check_contraction,
    io_partition,
    parse_type,
    render_type,
    signalling_matrix,
    verify,
)
from hotypes.strings import critical_set_multi


def main() -> None:
    x = parse_type("(A->B)*(C->D)")
    analysis = io_partition(x)
    print(f"type      {render_type(x, sugar=True)}")
    print(f"inputs    {[a.name for a in analysis.inputs_ordered()]}")
    print(f"outputs   {[a.name for a in analysis.outputs_ordered()]}")
    print(f"lambda    {analysis.lam}")
    print(f"words     {build_D(x).render()}")
    print()

    for pairs in (["C:B"], ["A:D"], ["A:B"], ["C:B", "A:D"]):
        spec = ContractionSpec.from_text(",".join(pairs), x)
        verdict = check_contraction(x, spec)
        obstruction = critical_set_multi(x, spec.pairs)
        print(f"contract {', '.join(pairs)}:")
        print(f"  obstruction set {obstruction.render()}")
        if verdict.admissible:
            ins = [a.name for a in verdict.result_in]
            outs = [a.name for a in verdict.result_out]
            print(f"  admissible, result {ins} -> {outs}")
        else:
            print(f"  inadmissible ({verdict.reason.value}), witness {verdict.witness}")
    print()

    print("signalling matrix:")
    for row in signalling_matrix(x):
        print(f"  {row.source.name} -> {row.target.name}: {row.relation.value}")
    print()

    print("numerical confirmation (20 seeded samples):")
    pairs = ContractionSpec.from_text("C:B", x).pairs + ContractionSpec.from_text("A:B", x).pairs
    chain, loop = verify(x, pairs, trials=20).pairs
    print(f"  chaining B into C: worst channel residual {chain['worst_channel_residual']:.3g}")
    print(f"  looping B back into A: explicit map breaks the channel law by {loop['violation_margin']:.3g}")


if __name__ == "__main__":
    main()
