#!/usr/bin/env python3
"""Compare two suite results (``run.py`` output files): ``compare.py A B``.

One row per (workload, end-to-end metric): both medians with their
quartiles, the ratio B/A *with its base*, the metric's bound and a
verdict.  ``A`` is the parent, ``B`` the change.

* ``regressed``  — B's median is worse than A's by more than the bound;
* ``improved``   — B's median is better by more than the distance
  between A's own quartiles and every run of B beats every run of A;
* ``unchanged``  — neither;
* ``unresolved`` — the run-to-run spread of either side exceeds the
  bound, so the medians cannot carry a verdict — unless every run of B
  reads better (``improved``) or worse (``regressed``, if beyond the
  bound) than every run of A.

Exit status: 1 on any regression or a higher ``failed_share``, 2 when the
two files were recorded on different hosts, 0 otherwise.  Run with
``PYTHONPATH=src``.
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.obs.runmeta import compatible, format_meta


def verdict(a: dict, b: dict) -> str:
    """One metric's verdict (see the module docstring)."""
    sign = 1.0 if a["better"] == "lower" else -1.0
    # B's median against A's as a share of A's, positive when B is worse
    worse_by = sign * (b["median"] - a["median"]) / a["median"]
    spread = max(
        (side["q3"] - side["q1"]) / side["median"] for side in (a, b)
    )
    parent_iqr = (a["q3"] - a["q1"]) / a["median"]
    if sign > 0:
        all_better = max(b["values"]) < min(a["values"])
        all_worse = min(b["values"]) > max(a["values"])
    else:
        all_better = min(b["values"]) > max(a["values"])
        all_worse = max(b["values"]) < min(a["values"])
    if spread > a["bound"]:
        if all_better:
            return "improved"
        if all_worse and worse_by > a["bound"]:
            return "regressed"
        return "unresolved"
    if worse_by > a["bound"]:
        return "regressed"
    if -worse_by > parent_iqr and all_better:
        return "improved"
    return "unchanged"


def _cell(e: dict) -> str:
    return f"{e['median']:.5g} [{e['q1']:.5g}..{e['q3']:.5g}] {e['unit']}"


def compare(a: dict, b: dict) -> tuple[list[str], bool]:
    """Report lines and whether anything regressed."""
    lines = [
        f"A (base): {format_meta(a.get('meta'))}",
        f"B       : {format_meta(b.get('meta'))}",
        "",
        f"{'workload':<14}{'metric':<24}{'A median [q1..q3]':<34}"
        f"{'B median [q1..q3]':<34}{'B/A':>7}  {'bound':>6}  verdict",
    ]
    bad = False
    for name, wa in a["workloads"].items():
        wb = b["workloads"].get(name)
        if wb is None:
            lines.append(f"{name:<14}missing from B")
            bad = True
            continue
        for metric, ea in wa["end_to_end"].items():
            eb = wb["end_to_end"][metric]
            what = verdict(ea, eb)
            bad |= what == "regressed"
            lines.append(
                f"{name:<14}{metric:<24}{_cell(ea):<34}{_cell(eb):<34}"
                f"{eb['median'] / ea['median']:>6.3f}x  "
                f"{ea['bound']:>6.0%}  {what}"
            )
        if wb["failed_share"] > wa["failed_share"]:
            lines.append(
                f"{name:<14}failed_share {wa['failed_share']:.3g} -> "
                f"{wb['failed_share']:.3g}  regressed"
            )
            bad = True
        if wa["noisy"] or wb["noisy"]:
            lines.append(f"{name:<14}(marked noisy by its drift probes)")
    return lines, bad


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter
    )
    parser.add_argument("a", help="suite result of the parent (the base)")
    parser.add_argument("b", help="suite result of the change")
    args = parser.parse_args(argv)
    with open(args.a) as fa, open(args.b) as fb:
        a, b = json.load(fa), json.load(fb)
    reason = compatible(a.get("meta"), b.get("meta"))
    if reason:
        print(f"not comparable: {reason}", file=sys.stderr)
        return 2
    lines, bad = compare(a, b)
    print("\n".join(lines))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
