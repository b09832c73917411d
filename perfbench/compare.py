"""Compare two perfbench result files: ``compare.py A.json B.json``.

A is the parent, B the change.  Refuses when the two were not measured on
the same host with the same settings.  Otherwise prints one row per
(workload, end-to-end metric).  What is compared is each side's ``value``,
for a host-time metric the median of its repetitions:

* ``better``       every run of B reads better than every run of A, or B's
                   median is better by more than the bound;
* ``within bound`` B's median is no worse than A's by more than the bound;
* ``REGRESSED``    B's median is worse than A's by more than the bound, or
                   B does not have the metric (no repetition ended);
* ``unresolved``   within the bound, but the ``spread`` of either side (the
                   interquartile range of its runs as a share of their
                   median) is wider than the bound: not agreement.

``model_err`` and ``failed_share`` are simulated and exact per seed, bound 0:
``identical``, or ``better`` / ``REGRESSED`` on any difference.  Then lists
every digest and ``*.count.*`` difference (a simulator-only speed-up leaves
them identical).  Exits 1 on any ``REGRESSED`` row, 2 when the files cannot
be compared.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

#: Fingerprint fields that must match; git sha and code version may differ,
#: since comparing two commits is the point.
HOST_FIELDS = ("platform", "cpu", "nproc", "python", "numpy", "workers",
               "seed", "repeats")
#: ``setup_s`` may also move by this much in absolute terms.
SETUP_FLOOR_S = 0.10


def exact_verdict(a, b) -> str:
    """The row label of a simulated metric; ``None`` reads "unvalidated"."""
    if a == b:
        return "identical" if a is not None else "unvalidated"
    return "REGRESSED" if b is None or (a is not None and b > a) else "better"


def verdict(a: dict, b: dict, bound: dict) -> tuple[str, float]:
    """The row label and the relative change of B's median against A's."""
    sign = 1.0 if bound["better"] == "lower" else -1.0
    change = (b["value"] - a["value"]) / a["value"]
    worse_by = sign * change
    allowed = bound["bound"]
    if bound["name"] == "setup_s":
        allowed = max(allowed, SETUP_FLOOR_S / a["value"])
    all_better = (
        max(b["runs"]) < min(a["runs"]) if sign > 0
        else min(b["runs"]) > max(a["runs"])
    )
    if worse_by > allowed:
        return "REGRESSED", change
    if all_better or worse_by < -allowed:
        return "better", change
    if max(a["spread"], b["spread"]) > allowed:
        return "unresolved", change
    return "within bound", change


def compare(a: dict, b: dict, out=sys.stdout) -> int:
    differing = [
        f"{key}: {a['fingerprint'].get(key)!r} != {b['fingerprint'].get(key)!r}"
        for key in HOST_FIELDS
        if a["fingerprint"].get(key) != b["fingerprint"].get(key)
    ]
    if differing:
        print("refusing to compare, fingerprints differ:", *differing,
              sep="\n  ", file=out)
        return 2
    missing = sorted(set(a["workloads"]) ^ set(b["workloads"]))
    if missing:
        print(f"refusing to compare, workloads in one file only: {missing}",
              file=out)
        return 2

    def shown(entry) -> str:
        value = entry and entry["value"]
        return "-" if value is None else f"{value:.4f}"

    status = 0
    exact: list[str] = []
    print(f"{'workload':<14} {'metric':<18} {'A':>12} {'B':>12} "
          f"{'change':>8}  verdict", file=out)
    for name, wa in a["workloads"].items():
        wb = b["workloads"][name]
        for metric, bound in a["bounds"].items():
            ea, eb = wa["end_to_end"].get(metric), wb["end_to_end"].get(metric)
            change = ""
            if ea is None:
                label = "unresolved"  # the parent has nothing to compare with
            elif eb is None:
                label = "REGRESSED"
            elif bound["bound"] == 0:
                label = exact_verdict(ea["value"], eb["value"])
            else:
                label, moved = verdict(ea, eb, bound)
                change = f"{100 * moved:+.1f}%"
            if label == "REGRESSED":
                status = 1
            print(f"{name:<14} {metric:<18} {shown(ea):>12} {shown(eb):>12} "
                  f"{change:>8}  {label}", file=out)
        for kind in ("counts", "digests"):
            for key in sorted(set(wa[kind]) | set(wb[kind])):
                if wa[kind].get(key) != wb[kind].get(key):
                    exact.append(f"{name} {kind[:-1]} {key}: "
                                 f"{wa[kind].get(key)} -> {wb[kind].get(key)}")
    if exact:
        print(f"{len(exact)} simulated values differ (a simulator-only "
              "speed-up leaves all of them identical):", file=out)
        for line in exact:
            print(f"  {line}", file=out)
    else:
        print("every count and every digest are identical", file=out)
    return status


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    a, b = (json.loads(Path(path).read_text()) for path in argv)
    return compare(a, b)


if __name__ == "__main__":
    sys.exit(main())
