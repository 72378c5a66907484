"""The strategy language, step by step.

Each strategy is a tiny program that computes a 1-based index for its seat.
The only exotic primitive is sim, which runs another program (usually the
rival's published source) inside the caller's own fuel budget.  This script
evaluates a few programs by hand and watches the fuel meter.
"""
from opencomp import (
    EXPLOITER_SOURCE, EvalEnv, RuntimeFault, Side, evaluate, parse_program,
    pretty, rps,
)


def env(opponent, me, fuel=1000):
    return EvalEnv(
        game=rps(), side=Side.ROW,
        opponent_source=opponent, self_source=me, fuel=fuel,
    )


def show(label, source, opponent="const 1", fuel=1000):
    try:
        result = evaluate(source, env(opponent, source, fuel))
    except RuntimeFault as fault:
        print(f"{label:<28} fault: {fault} (fuel {fault.fuel_used})")
        return
    detail = ""
    if result.strategy is not None:
        detail = f" strategy={result.strategy}"
    if result.witness is not None:
        detail += f" witness={result.witness}"
    print(f"{label:<28} {result.kind.value}{detail} fuel={result.fuel_used}")


def main():
    print("=== plain programs ===\n")
    show("const 2", "const 2")
    show("bestresp(const 1)", "bestresp(const 1)")
    show("if 1 < 2 then 1 else 3", "if 1 < 2 then 1 else 3")

    print("\n=== watching the rival ===\n")
    print("the exploiter's source:")
    print(" ", EXPLOITER_SOURCE, "\n")
    show("exploiter vs rock", EXPLOITER_SOURCE, opponent="const 1")
    show("exploiter vs scissors", EXPLOITER_SOURCE, opponent="const 3")
    print()
    print("it simulates the rival, sees the halt, and best-responds.")

    print("\n=== non-halting rivals ===\n")
    show("loop alone", "loop")
    print("  (two identical machine states two steps apart: a proof)")
    show("grow alone", "grow", fuel=600)
    print("  (every state is new, so only the fuel limit stops it)")
    show("exploiter vs loop", EXPLOITER_SOURCE, opponent="loop")
    show("exploiter vs grow", EXPLOITER_SOURCE, opponent="grow", fuel=600)
    print()
    print("a proven non-halt inside sim surfaces as 'exhausted', so the")
    print("exploiter shrugs and plays rock; against grow the open budget")
    print("means the simulation drains everything and nobody answers.")

    print("\n=== mutual simulation ===\n")
    show("exploiter vs exploiter", EXPLOITER_SOURCE, opponent=EXPLOITER_SOURCE,
         fuel=2000)
    print()
    print("each level of simulation spawns the next; the shared fuel pool")
    print("empties with no verdict at any level.")

    print("\n=== budgets make failure observable ===\n")
    capped = ("match sim(opp, self, 50) "
              "{ halted(k) => bestresp(k) | exhausted => const 3 }")
    show("capped sim vs grow", capped, opponent="grow")
    print()
    print("an integer budget lets the caller survive a stuck rival: the")
    print("child is cut off at 50 steps and the exhausted branch runs.")

    print("\n=== proofs and pretty-printing ===\n")
    witness = evaluate("loop", env("const 1", "loop")).witness
    print("witness for loop:", witness)
    tree = parse_program("match sim( opp,self , rest){halted(k)=>k|exhausted=>2}")
    print("canonical form:  ", pretty(tree.ast))


if __name__ == "__main__":
    main()
