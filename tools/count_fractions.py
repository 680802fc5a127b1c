"""Count the Fraction constructions of the exact-sweep requests.

    python3 tools/count_fractions.py [--seed 11] [--rounds 2] [CHECKOUT]

CHECKOUT is the root of a source tree (default: this one).  Its `src` and
`perfbench` go first on sys.path, so the script counts whichever checkout it
is given.  It serves the perfbench exact-sweep schedule for the seed and
round count in process, each request under its kind's cProfile profile, and
prints one JSON line: the number of Fraction.__new__ calls made while
serving (schedule drawing excluded), the same number per request kind, the
request count and the round digests, so two checkouts can be compared on
the same outputs.
"""

import argparse
import cProfile
import json
import pstats
import sys
from pathlib import Path


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--rounds", type=int, default=2)
    parser.add_argument("checkout", nargs="?", type=Path, default=Path(__file__).resolve().parents[1])
    args = parser.parse_args()
    root = args.checkout.resolve()
    sys.path[:0] = [str(root / "src"), str(root / "perfbench")]
    import workloads

    requests = workloads.schedule("exact-sweep", args.seed, args.rounds)
    profiles = {request.kind: cProfile.Profile() for request in requests}
    outputs = [profiles[r.kind].runcall(workloads.serve, r) for r in requests]
    per_kind = {
        kind: sum(
            ncalls
            for (path, _, name), (_, ncalls, *_) in pstats.Stats(profile).stats.items()
            if path.endswith("fractions.py") and name == "__new__"
        )
        for kind, profile in sorted(profiles.items())
    }
    calls = sum(per_kind.values())
    per_round: dict[int, list] = {}
    for request, output in zip(requests, outputs):
        per_round.setdefault(request.round, []).append([request.label(), output])
    digests = [workloads.digest(per_round[r]) for r in sorted(per_round)]
    summary = {
        "fraction_new_calls": calls,
        "fraction_new_calls_per_kind": per_kind,
        "requests": len(requests),
        "round_digests": digests,
    }
    print(json.dumps(summary))


if __name__ == "__main__":
    main()
