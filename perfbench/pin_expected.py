"""Regenerate ``expected.json``: the pinned simulated outputs (cycles,
bursts, metadata bytes per scheme) of every input variant of the
pipeline workloads.

    python3 perfbench/pin_expected.py

Run it only when a deliberate model change moves these numbers, and say
so in the commit; the benchmark fails any pass that disagrees.
"""

from __future__ import annotations

import json

from helpers import PINNED_KEYS, import_program


def main() -> int:
    import_program()
    import pipelines

    pinned = {}
    for workload in pipelines.CONFIGS:
        pinned[workload] = {}
        for variant in range(pipelines.VARIANTS):
            results = pipelines.build(workload, variant).run()
            rows = pipelines.summarize(results)
            problems = pipelines.scheme_invariants(rows, f"{workload}/{variant}")
            if problems:
                raise SystemExit("refusing to pin outputs that break the "
                                 "paper's invariants: " + "; ".join(problems))
            pinned[workload][str(variant)] = {
                scheme: {key: row[key] for key in PINNED_KEYS}
                for scheme, row in rows.items()}
            print(workload, variant, pinned[workload][str(variant)], flush=True)
    with open(pipelines.EXPECTED_PATH, "w") as f:
        json.dump(pinned, f, indent=1, sort_keys=True)
        f.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
