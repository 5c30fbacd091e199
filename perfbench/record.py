"""Summarize benchmark result documents and record a trajectory point.

    python3 perfbench/record.py .perfbench_out/*.json
    python3 perfbench/record.py --point 0 --commit <sha> .perfbench_out/*.json

Reads the result documents that run.py writes.  For every workload and
end-to-end metric it prints the median, the quartiles (as
``statistics.quantiles(values, n=4)`` gives them) and the spread, the
distance between the quartiles as a share of the median, next to the
metric's bound; runs of the held-out seed named in reference.json are
listed apart.  With ``--point`` it also writes into reference.json the
behaviour digests of every seed seen and the numbers as trajectory point
``--point``; an existing point of that number is replaced.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference.json"


def stats(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0, "n": len(values)}


def summarize(docs: list[dict], spec: dict, held_out: int | None) -> dict:
    """Per workload: end-to-end stats, per-layer medians and diagnostics.

    Runs of the held-out seed are kept apart: their end-to-end values are
    listed on their own and do not enter the stats.
    """
    out: dict[str, dict] = {}
    for w in spec["workloads"]:
        name = w["name"]
        plain = [d for d in docs if d["workload"] == name and not d["trace"]
                 and d["seed"] != held_out]
        traced = [d for d in docs if d["workload"] == name and d["trace"]]
        entry = {"seeds": sorted(d["seed"] for d in plain), "end_to_end": {},
                 "per_layer": {}, "diagnostics": {}}
        if plain:
            first = min(plain, key=lambda d: d["seed"])
            entry["loop"] = first["loop"]
            entry["configs"] = {"seed": first["seed"], "generator": first["configs"]}
        for m in spec["end_to_end"]:
            values = [d["metrics"][m["name"]] for d in plain if m["name"] in d["metrics"]]
            if values:
                entry["end_to_end"][m["name"]] = dict(stats(values), unit=m["unit"],
                                                      bound=m["bound"])
        for m in spec["per_layer"]:
            values = [d["metrics"].get(m["name"], 0) for d in traced]
            if values:
                entry["per_layer"][m["name"]] = statistics.median(values)
        for key in ("growth_exponent", "cores_total", "success_rate_m4", "success_rate_m8",
                    "set_best_p50_ms", "set_best_p99_ms"):
            values = [d["diagnostics"][key] for d in plain if d["diagnostics"].get(key) is not None]
            if values:
                entry["diagnostics"][key] = stats(values)
        for d in docs:
            if d["workload"] == name and not d["trace"] and d["seed"] == held_out:
                entry["held_out"] = {"seed": held_out, "end_to_end": d["metrics"]}
        entry["failed"] = sum(d["failed"] for d in docs if d["workload"] == name)
        entry["attempted"] = sum(d["attempted"] for d in docs if d["workload"] == name)
        out[name] = entry
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("results", nargs="+", type=Path)
    parser.add_argument("--point", type=int, help="write reference.json as this trajectory point")
    parser.add_argument("--commit", help="the commit the numbers were measured on")
    args = parser.parse_args(argv)
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    docs = [json.loads(p.read_text()) for p in args.results]
    reference = json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}
    summary = summarize(docs, spec, reference.get("held_out_seed"))

    for name, entry in summary.items():
        print(f"{name}: seeds {entry['seeds']}, failed {entry['failed']}/{entry['attempted']}")
        for metric, s in entry["end_to_end"].items():
            flag = "" if s["spread"] <= s["bound"] / 3 else "  <-- above bound/3"
            print(f"  {metric:14s} median {s['median']:12.6g}  q1 {s['q1']:12.6g}  "
                  f"q3 {s['q3']:12.6g}  spread {s['spread']:.4f}  bound {s['bound']}{flag}")
        for key, s in entry["diagnostics"].items():
            print(f"  [diag] {key:20s} median {s['median']:.4g}  spread {s['spread']:.4f}")

    if args.point is None:
        return 0
    digests = reference.setdefault("digests", {})
    for d in docs:
        seen = digests.setdefault(d["workload"], {}).setdefault(str(d["seed"]), {})
        for doc_name, value in d["digests"].items():
            if seen.setdefault(doc_name, value) != value:
                print(f"conflicting digest: {d['workload']} seed {d['seed']} {doc_name}",
                      file=sys.stderr)
                return 1
    point = {"point": args.point, "commit": args.commit, "workloads": summary}
    trajectory = [p for p in reference.get("trajectory", []) if p["point"] != args.point]
    reference["trajectory"] = sorted(trajectory + [point], key=lambda p: p["point"])
    REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    print(f"wrote trajectory point {args.point} and digests to {REFERENCE.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
