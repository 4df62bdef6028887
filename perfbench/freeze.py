"""Write reference.json from the current program's outputs for seed 42.

    python3 perfbench/freeze.py

Run it at the commit whose outputs are the reference.  The frozen values
are the X, Q, Qbar and Y counts and residuals of `count`, the fiber-sweep
counts, the recipe counts, the classification of every discriminant in the
disc range and the names of the derivations.  The file is written only if
the outputs pass every identity check in `checks.py`.
"""

from __future__ import annotations

import json
import sys

import checks
import run


SEED = 42


def main() -> int:
    with run.work_dir("freeze") as work:
        run.setup(SEED, work, sweep=True)
        count = run.execute("count-scan", work, traced=False)
        sweep = run.execute("fiber-sweep", work, traced=False)
        recipes = run.execute("recipes-disc", work, traced=False)

    count_doc = json.loads(count.procs[0].stdout)
    cubic_doc, verra_doc, disc_doc, groth_doc = (json.loads(p.stdout) for p in recipes.procs)
    ref = {
        "seed": SEED,
        "count": {
            str(r["p"]): {"counts": r["counts"], "residuals": r["residuals"]}
            for r in count_doc["reports"]
        },
        "sweep": {str(r["p"]): r for r in sweep.sweep["reports"]},
        "cubic": {str(r["p"]): r["counts"] for r in cubic_doc["reports"]},
        "verra": {str(r["p"]): r["counts"] for r in verra_doc["reports"]},
        "disc": {
            "range": list(run.DISC_RANGE),
            "classes": "".join(checks.CLASS_CODES[v["classification"]] for v in disc_doc["verdicts"]),
        },
        "groth": [d["name"] for d in groth_doc["derivations"]],
    }

    tally = checks.Tally()
    for ex, workload in ((count, "count-scan"), (sweep, "fiber-sweep"), (recipes, "recipes-disc")):
        run.check_execution(tally, workload, ex, ref, ref)
    if tally.failed:
        for message in tally.messages:
            print(f"freeze: check failed: {message}", file=sys.stderr)
        return 1
    with open(run.REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(ref, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {run.REFERENCE}: {tally.attempted} checks pass")
    return 0


if __name__ == "__main__":
    sys.exit(main())
