"""Self-test of the benchmark: every item once on a second seed, plus proof
that the checker turns a wrong pinned value, a stalled blocker family and a
raising item into failures rather than passes or crashes.

    python3 perfbench/selftest.py [--seed 2]

Exits with code 0 only if every item passes and every planted fault is
reported as a failure.
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction

import run
from tracing import NULL, Tracer


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=2)
    args = parser.parse_args(argv)
    try:
        run.load_hatlab()
    except run.BenchError as exc:
        print(f"selftest: {exc}", file=sys.stderr)
        return 2
    import workloads
    from hatlab import construct_blockers

    problems = []

    def expect(cond: bool, what: str) -> None:
        print(f"{'ok  ' if cond else 'FAIL'} {what}", flush=True)
        if not cond:
            problems.append(what)

    for wl in workloads.WORKLOADS.values():
        inputs = wl.setup(args.seed, NULL)
        # traced, so the span and patch code paths run too
        p = run.run_pass(wl, inputs, Tracer(), workloads.EXPECTED, "selftest")
        for o in p["outcomes"]:
            expect(o["ok"], f"{wl.name} {o['item']}: {o['detail']}")
        for name, ok, detail in wl.post_check(inputs, p["state"]) if wl.post_check else []:
            expect(ok, f"{wl.name} untimed check {name}: {detail}")

    solve = workloads.SOLVE
    inputs = solve.setup(args.seed, NULL)
    target = "exact_p(2,3,dictator)"
    wrong = dict(workloads.EXPECTED, **{target: Fraction(1, 2)})
    item = next(i for i in solve.items if i.name == target)
    one = workloads.Workload("solve-wrong-pin", 1, solve.setup, (item,))
    p = run.run_pass(one, inputs, NULL, wrong, "wrong-pin")
    expect(not p["outcomes"][0]["ok"], f"a wrong pinned value is a failure: {p['outcomes'][0]['detail']}")

    blockers = workloads.BLOCKERS
    inputs = blockers.setup(args.seed, NULL)
    stalled = construct_blockers(workloads.CERTIFY_N, args.seed, workloads.DELTA, stall_limit=0)
    certify = next(i for i in blockers.items if i.name.startswith("certify_family"))
    ok, detail, _ = certify.run(inputs, {"family": stalled}, NULL, workloads.EXPECTED)
    expect(stalled.stalled and not ok, f"a stalled family is a failure: {detail}")

    # certify_family without a constructed family in the pass state raises KeyError
    one = workloads.Workload("blockers-raise", 1, blockers.setup, (certify,))
    p = run.run_pass(one, inputs, NULL, workloads.EXPECTED, "raise")
    expect(not p["outcomes"][0]["ok"], f"a raising item is a failure: {p['outcomes'][0]['detail']}")

    print(f"selftest: {len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
