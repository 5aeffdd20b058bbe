"""Write curve_pool.json: the rate_curve workload's parameter points and the
reference output of each, as computed by the program in this checkout.

    python3 perfbench/make_reference.py

Points are drawn once, from a fixed seed, over a region of the validated
domain where both of ``_cutoff``'s paths run: bisection between listed
distances, and extension beyond the last one (cutoffs past 180 km).  They
are sorted by the number of rate evaluations a curve costs and split into
equal strata.  Regenerate only when a change to the rate formulas is
intended; the benchmark checks every curve against this file.
"""

from __future__ import annotations

import json
import random
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from tracing import Tracer  # noqa: E402
from workloads import POOL_PATH, call_cli, parse_curve, point_config  # noqa: E402

POOL_SEED = 2014
STRATA = 8
PER_STRATUM = 8


def draw_points(rng: random.Random, n: int) -> list[dict]:
    return [
        {
            "alpha_db_per_km": round(rng.uniform(0.15, 0.25), 4),
            "e_mis": round(rng.uniform(0.005, 0.035), 5),
            "p_dark": float(f"{10 ** rng.uniform(-7.0, -4.5):.3e}"),
        }
        for _ in range(n)
    ]


def reference(point: dict, workdir: Path, tracer: Tracer) -> dict:
    cfg, out = workdir / "point.cfg", workdir / "curve.csv"
    cfg.write_text(point_config(point), encoding="utf-8")
    with tracer.operation(0):
        _, res = call_cli(("keyrate-curve", "--config", str(cfg), "--out", str(out)), out)
    if res.rc != 0:
        raise RuntimeError(f"keyrate-curve failed for {point}")
    rows, cutoffs = parse_curve(res)
    return {**point, "rows": [list(r) for r in rows], **cutoffs}


def main() -> int:
    points = draw_points(random.Random(POOL_SEED), STRATA * PER_STRATUM)
    tracer = Tracer()
    tracer.install()
    refs = []
    try:
        with tempfile.TemporaryDirectory(dir=ROOT) as tmp:
            for point in points:
                tracer.spans.clear()
                ref = reference(point, Path(tmp), tracer)
                summary = tracer.summary()
                ref["evaluations"] = sum(summary.get(name, (0, 0))[0] for name in
                                         ("rates.key_rate", "rates.bb84_reference_rate"))
                refs.append(ref)
    finally:
        tracer.uninstall()
    refs.sort(key=lambda r: (r["evaluations"], r["alpha_db_per_km"]))
    for i, ref in enumerate(refs):
        ref["id"] = i
        ref["stratum"] = i // PER_STRATUM
    extended = sum(r["cutoff_bb84_km"] > 180.0 for r in refs)
    header = {"about": "rate_curve parameter points and reference outputs; "
                       "written by perfbench/make_reference.py", "pool_seed": POOL_SEED}
    points = ",\n".join(json.dumps(ref) for ref in refs)  # one point per line
    POOL_PATH.write_text(json.dumps(header)[:-1] + ', "points": [\n' + points + "\n]}\n",
                         encoding="utf-8")
    print(f"{len(refs)} points, {extended} with a BB84 cutoff past 180 km; "
          f"evaluations per curve {refs[0]['evaluations']}..{refs[-1]['evaluations']}")
    for s in range(STRATA):
        group = refs[s * PER_STRATUM:(s + 1) * PER_STRATUM]
        print(f"stratum {s}: evaluations {group[0]['evaluations']}..{group[-1]['evaluations']}, "
              f"cutoffs past 180 km: {sum(r['cutoff_bb84_km'] > 180.0 for r in group)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
