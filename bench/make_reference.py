"""Write the committed reference outputs the benchmark checks against.

    python3 bench/make_reference.py

For every workload and each seed in ``SEEDS``, evaluates the action once and
stores every ``ActionBreakdown`` entry, value and ``eps`` slot, per
monomial, in ``bench/reference/<workload>.json``.  Regenerate only when a
change is meant to alter the outputs, and say so in the change.
"""

import json

from workloads import WORKLOADS, REFERENCE_DIR, Workload, encode, reference_path

SEEDS = range(32)


def main():
    REFERENCE_DIR.mkdir(exist_ok=True)
    for name in WORKLOADS:
        seeds = {str(seed): encode(Workload(name, seed).evaluate()) for seed in SEEDS}
        text = json.dumps({"workload": name, "seeds": seeds}, separators=(",", ":"))
        reference_path(name).write_text(text + "\n")
        print(f"{name}: {len(SEEDS)} seeds")


if __name__ == "__main__":
    main()
