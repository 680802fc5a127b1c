"""Write the exact part of the seed-7 battery output that Tier-1 pins.

    python3 tools/pin_battery_output.py

Runs the claim battery (`polydiff verify --model all --seed 7`) in process
and writes each claim's id, kind and status, and every detail leaf that is
not a float, to tests/data/battery_seed7_exact.json, one claim per line.
`tests/test_acceptance.py::test_battery_exact_output_is_pinned` compares
the battery with that file; run this after a change that moves a value on
purpose, and name the move in the change's description.
"""

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from polydiff.claims import run_claims  # noqa: E402
from test_acceptance import PINNED, SEED, exact_part  # noqa: E402


def main() -> None:
    claims = exact_part(run_claims(seed=SEED).results)
    lines = ",\n".join(json.dumps(claim, sort_keys=True) for claim in claims)
    PINNED.write_text(f"[\n{lines}\n]\n")
    print(f"{len(claims)} claims written to {PINNED.relative_to(ROOT)}")


if __name__ == "__main__":
    main()
