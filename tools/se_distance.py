"""How far the ``simulate`` estimates moved, in combined standard errors.

    python tools/se_distance.py BEFORE AFTER

BEFORE and AFTER are two ``tools/out_bytes.py`` directories.  For each
``simulate_*.out`` whose bytes differ between them, prints the largest
|a - b| / hypot(se_a, se_b) over the mean welfare, the mean weak OPT and
the weak ratio, each with its own standard error.  A change of the Monte
Carlo stream moves every estimate once; a move past ``LIMIT`` combined
standard errors is more than a new stream explains.

Exits 1 when a distance exceeds ``LIMIT`` or a ``simulate`` output is
missing from AFTER.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

LIMIT = 4.0
# (estimate, its standard error) in a simulate report
PAIRS = (("mean_alg_welfare", "se_alg"), ("mean_weak_opt", "se_weak"),
         ("ratio_weak", "ratio_weak_se"))


def distance(before: dict, after: dict) -> tuple[float, str]:
    """The largest |a - b| / hypot(se_a, se_b) over ``PAIRS`` and the
    estimate it is at: 0 for equal values (even at zero or infinite
    standard errors), inf for unequal ones at zero standard error."""
    worst = (0.0, PAIRS[0][0])
    for value, se in PAIRS:
        a, b = before[value], after[value]
        if a == b:
            continue
        d = abs(a - b) / math.hypot(before[se], after[se])
        d = math.inf if math.isnan(d) else d
        worst = max(worst, (d, value))
    return worst


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("before", type=Path)
    ap.add_argument("after", type=Path)
    args = ap.parse_args(argv)
    moved, failed = 0, []
    for old in sorted(args.before.glob("simulate_*.out")):
        new = args.after / old.name
        name = old.name[:-len(".out")]
        if not new.exists():
            print(f"{name}: missing from {args.after}")
            failed.append(name)
            continue
        if old.read_bytes() == new.read_bytes():
            continue
        d, value = distance(json.loads(old.read_text()),
                            json.loads(new.read_text()))
        moved += 1
        print(f"{name}: {d:.3f} SE ({value})")
        if d > LIMIT:
            failed.append(name)
    print(f"{moved} simulate outputs moved, {len(failed)} past {LIMIT:g} SE "
          f"or missing" + (f": {', '.join(failed)}" if failed else ""))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
