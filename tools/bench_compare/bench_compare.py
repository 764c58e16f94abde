#!/usr/bin/env python3
"""Compare a perf-bench JSON against its committed baseline.

Usage:
    bench_compare.py BASELINE.json CURRENT.json [--tolerance 0.15]
    bench_compare.py BASELINE.json RUN1.json RUN2.json ... --runs N \\
        [--max-cv 0.10]

Both files are flat-ish JSON emitted by bench/perf_models or
bench/perf_parallel. The comparator walks the two documents in lockstep
and classifies every leaf by its key:

  * higher-is-better  -- keys ending in ``rows_per_s``, ``speedup`` or
    ``qps``: FAIL when current < baseline * (1 - tolerance).
  * latency           -- keys ending in ``p50_us``, ``p99_us``, ``p50_ms``
    or ``p99_ms`` (checked BEFORE the generic ``_us``/``_ms`` suffixes):
    lower-is-better, but gated by its own ``--latency-tol`` (default
    +-50%). Tail percentiles of a queueing system are far noisier than
    batch medians — a p99 that must sit inside a 15% band would flake on
    every loaded CI host — yet an order-of-magnitude latency blow-up
    should still fail, so the class exists with a wide band instead of
    being exempted.
  * lower-is-better   -- keys ending in ``_ms``, ``_s`` or ``_us``
    (checked after the higher-is-better and latency suffixes, since
    ``rows_per_s`` also ends in ``_s`` and ``p99_us`` in ``_us``): FAIL
    when current > baseline * (1 + tolerance).
  * statistical       -- keys ending in ``coverage`` gate on an ABSOLUTE
    two-sided band (``--stat-abs-tol``, default +-0.02): a coverage drop
    from 0.93 to 0.90 is a 3-point miscoverage regression no matter how
    small it looks relatively, and a large coverage GAIN usually means the
    intervals ballooned. Keys ending in ``width_v`` gate on a two-sided
    RELATIVE band (``--stat-rel-tol``, default +-10%): narrower intervals
    with held coverage would be an improvement, but a silent width change
    in either direction means the predictor's statistical behaviour moved
    and the baseline must be regenerated deliberately.
  * config            -- integer or string leaves that carry no timing
    suffix (``threads``, ``n_train``, ``artifact_bytes``, model names):
    FAIL on any mismatch. Comparing runs with different shapes or thread
    counts is meaningless, so shape drift is an error, not a regression.
    A FLOAT leaf with no unit suffix is a metric nobody classified, not a
    config: it FAILs as such, since exact-matching a measurement would
    fail on every noisy run.

Lists of objects are matched by their ``name`` field when present (so
reordering the model zoo does not break the diff), positionally
otherwise.

Repeat mode (``--runs N``) takes N current-run files from repeated
invocations of the same bench, averages every timing leaf before the
baseline diff, and reports the per-metric coefficient of variation
(sample stddev / mean). The CV report is the evidence for promoting the
+-15% comparator from soft-fail to hard gate: a metric whose CV across
repeats approaches the tolerance band cannot gate anything. ``--max-cv``
turns that judgment into a failure; latency-class keys can carry their
own (looser) ``--latency-max-cv``. Config leaves must be identical
across repeats — differing thread counts or shapes mean the runs are not
repeats at all.

Exit codes: 0 = within tolerance, 1 = regression, config mismatch, or CV
over --max-cv, 2 = usage / unreadable / unparseable input.
"""

import argparse
import collections
import json
import math
import sys

# Per-class gate widths: perf (one-sided relative), latency (one-sided
# relative, wider — tail percentiles), stat_abs (two-sided absolute,
# coverage points), stat_rel (two-sided relative, width).
Tolerances = collections.namedtuple("Tolerances",
                                    ["perf", "latency", "stat_abs",
                                     "stat_rel"])

HIGHER_BETTER_SUFFIXES = ("rows_per_s", "speedup", "qps")
LATENCY_SUFFIXES = ("p50_us", "p99_us", "p50_ms", "p99_ms")
LOWER_BETTER_SUFFIXES = ("_ms", "_s", "_us")
STAT_ABS_SUFFIXES = ("coverage",)
STAT_REL_SUFFIXES = ("width_v",)


def classify(key):
    """Return 'higher', 'latency', 'lower', 'stat_abs', 'stat_rel', or
    'config'."""
    for suffix in STAT_ABS_SUFFIXES:
        if key.endswith(suffix):
            return "stat_abs"
    for suffix in STAT_REL_SUFFIXES:
        if key.endswith(suffix):
            return "stat_rel"
    for suffix in HIGHER_BETTER_SUFFIXES:
        if key.endswith(suffix):
            return "higher"
    # Latency percentiles must outrank the raw unit suffixes: "p99_us"
    # also ends in "_us" but gates on the wider latency band.
    for suffix in LATENCY_SUFFIXES:
        if key.endswith(suffix):
            return "latency"
    for suffix in LOWER_BETTER_SUFFIXES:
        if key.endswith(suffix):
            return "lower"
    return "config"


def unclassified_float(path, *values):
    """The failure for an unsuffixed float leaf, or None when the leaf is a
    genuine (integer / string / bool) config value."""
    if any(isinstance(v, float) for v in values):
        return ("unclassified float metric '%s': give it a unit suffix" %
                path)
    return None


def pair_lists(base, cur):
    """Pair list elements by 'name' when both sides have one, else by index."""
    if (base and cur and all(isinstance(x, dict) and "name" in x for x in base)
            and all(isinstance(x, dict) and "name" in x for x in cur)):
        cur_by_name = {x["name"]: x for x in cur}
        pairs = []
        for b in base:
            pairs.append((b["name"], b, cur_by_name.get(b["name"])))
        return pairs
    return [(str(i), b, cur[i] if i < len(cur) else None)
            for i, b in enumerate(base)]


def compare(base, cur, tols, path, failures, notes):
    if isinstance(base, dict):
        if not isinstance(cur, dict):
            failures.append("%s: baseline is an object, current is %s" %
                            (path, type(cur).__name__))
            return
        for key, bval in base.items():
            sub = "%s.%s" % (path, key) if path else key
            if key not in cur:
                failures.append("%s: missing from current run" % sub)
                continue
            compare(bval, cur[key], tols, sub, failures, notes)
        for key in cur:
            if key not in base:
                notes.append("%s.%s: new key, not in baseline (ignored)" %
                             (path, key))
        return

    if isinstance(base, list):
        if not isinstance(cur, list):
            failures.append("%s: baseline is a list, current is %s" %
                            (path, type(cur).__name__))
            return
        for label, bval, cval in pair_lists(base, cur):
            sub = "%s[%s]" % (path, label)
            if cval is None:
                failures.append("%s: missing from current run" % sub)
                continue
            compare(bval, cval, tols, sub, failures, notes)
        return

    # Leaf. The class is decided by the last path component.
    key = path.rsplit(".", 1)[-1].rsplit("]", 1)[-1] or path
    kind = classify(key)

    if kind == "config" or isinstance(base, (str, bool)):
        unclassified = unclassified_float(path, base, cur)
        if unclassified:
            failures.append(unclassified)
        elif base != cur:
            failures.append("%s: config mismatch (baseline %r, current %r); "
                            "re-pin the run or regenerate the baseline" %
                            (path, base, cur))
        return

    if not isinstance(base, (int, float)) or not isinstance(cur, (int, float)):
        failures.append("%s: non-numeric perf leaf (baseline %r, current %r)" %
                        (path, base, cur))
        return

    if kind == "stat_abs":
        # Two-sided ABSOLUTE band: coverage lives on [0, 1] and its target
        # (1 - alpha) is an absolute promise, so the gate is in coverage
        # points, not percent-of-baseline.
        delta = cur - base
        if abs(delta) > tols.stat_abs:
            failures.append(
                "%s: STATISTICAL SHIFT %.6g -> %.6g (|delta| %.4f exceeds "
                "the +-%.4f absolute band)" %
                (path, base, cur, abs(delta), tols.stat_abs))
        elif delta != 0.0:
            notes.append("%s: within stat band %.6g -> %.6g (delta %+.4f)" %
                         (path, base, cur, delta))
    elif kind == "stat_rel":
        # Two-sided RELATIVE band: a width change in EITHER direction means
        # the predictor's statistical behaviour moved — narrower is only a
        # win when deliberate, so it still trips the gate.
        rel = (cur - base) / base if base != 0.0 else float("inf")
        if abs(rel) > tols.stat_rel:
            failures.append(
                "%s: STATISTICAL SHIFT %.6g -> %.6g (%+.1f%% exceeds the "
                "+-%.0f%% relative band)" %
                (path, base, cur, 100.0 * rel, 100.0 * tols.stat_rel))
        elif rel != 0.0:
            notes.append("%s: within stat band %.6g -> %.6g (%+.1f%%)" %
                         (path, base, cur, 100.0 * rel))
    elif kind == "higher":
        floor = base * (1.0 - tols.perf)
        if cur < floor:
            failures.append(
                "%s: REGRESSION %.6g -> %.6g (floor %.6g, -%.0f%%)" %
                (path, base, cur, floor, 100.0 * (1.0 - cur / base)))
        elif cur > base:
            notes.append("%s: improved %.6g -> %.6g" % (path, base, cur))
    else:  # lower-is-better; latency class gets its own (wider) band
        slack = tols.latency if kind == "latency" else tols.perf
        ceiling = base * (1.0 + slack)
        if cur > ceiling:
            failures.append(
                "%s: REGRESSION %.6g -> %.6g (ceiling %.6g, +%.0f%%)" %
                (path, base, cur, ceiling, 100.0 * (cur / base - 1.0)))
        elif cur < base:
            notes.append("%s: improved %.6g -> %.6g" % (path, base, cur))


def aggregate(docs, path, cvs, failures):
    """Merge N repeat-run documents: timing leaves -> mean (CV recorded in
    ``cvs``), config leaves -> verified-identical value. Structure mismatches
    across repeats land in ``failures``."""
    first = docs[0]

    if isinstance(first, dict):
        if not all(isinstance(d, dict) for d in docs):
            failures.append("%s: repeat runs disagree on structure" % path)
            return first
        merged = {}
        for key in first:
            sub = "%s.%s" % (path, key) if path else key
            missing = [d for d in docs if key not in d]
            if missing:
                failures.append("%s: missing from %d repeat run(s)" %
                                (sub, len(missing)))
                continue
            merged[key] = aggregate([d[key] for d in docs], sub, cvs,
                                    failures)
        return merged

    if isinstance(first, list):
        if not all(isinstance(d, list) and len(d) == len(first)
                   for d in docs):
            failures.append("%s: repeat runs disagree on list length" % path)
            return first
        merged = []
        for label, bval, _ in pair_lists(first, first):
            sub = "%s[%s]" % (path, label)
            if (isinstance(bval, dict) and "name" in bval):
                group = []
                for d in docs:
                    match = [x for x in d
                             if isinstance(x, dict) and
                             x.get("name") == bval["name"]]
                    if not match:
                        failures.append("%s: missing from a repeat run" % sub)
                        break
                    group.append(match[0])
                if len(group) == len(docs):
                    merged.append(aggregate(group, sub, cvs, failures))
            else:
                idx = int(label)
                merged.append(aggregate([d[idx] for d in docs], sub, cvs,
                                        failures))
        return merged

    # Leaf: timing keys average, everything else must agree exactly.
    key = path.rsplit(".", 1)[-1].rsplit("]", 1)[-1] or path
    if classify(key) == "config" or isinstance(first, (str, bool)):
        unclassified = unclassified_float(path, *docs)
        if unclassified:
            failures.append(unclassified)
        elif any(d != first for d in docs):
            failures.append(
                "%s: config differs across repeat runs (%s); repeats must "
                "share shapes and thread counts" %
                (path, ", ".join(repr(d) for d in docs)))
        return first
    if not all(isinstance(d, (int, float)) for d in docs):
        failures.append("%s: non-numeric perf leaf in a repeat run" % path)
        return first
    mean = sum(docs) / len(docs)
    if len(docs) > 1:
        var = sum((d - mean) ** 2 for d in docs) / (len(docs) - 1)
        if mean != 0.0:
            cvs[path] = math.sqrt(var) / abs(mean)
        else:
            cvs[path] = 0.0 if var == 0.0 else float("inf")
    return mean


def load(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        print("bench_compare: cannot read %s: %s" % (path, exc),
              file=sys.stderr)
        raise SystemExit(2)


def main(argv):
    parser = argparse.ArgumentParser(
        description="diff a bench JSON against its committed baseline")
    parser.add_argument("baseline")
    parser.add_argument("current", nargs="+",
                        help="one run, or N repeat runs with --runs N")
    parser.add_argument("--tolerance", type=float, default=0.15,
                        help="relative slack before a delta fails "
                             "(default 0.15 = 15%%)")
    parser.add_argument("--latency-tol", type=float, default=0.50,
                        help="one-sided relative slack for latency-class "
                             "keys (p50_us/p99_us/p50_ms/p99_ms; default "
                             "0.50 = 50%%)")
    parser.add_argument("--stat-abs-tol", type=float, default=0.02,
                        help="two-sided ABSOLUTE band for coverage-class "
                             "stats (default 0.02 = 2 coverage points)")
    parser.add_argument("--stat-rel-tol", type=float, default=0.10,
                        help="two-sided RELATIVE band for width-class "
                             "stats (default 0.10 = 10%%)")
    parser.add_argument("--runs", type=int, default=None,
                        help="repeat mode: expect this many current-run "
                             "files, average timings, report per-metric CV")
    parser.add_argument("--max-cv", type=float, default=None,
                        help="fail when any metric's coefficient of "
                             "variation across repeats exceeds this "
                             "(requires --runs)")
    parser.add_argument("--latency-max-cv", type=float, default=None,
                        help="CV gate for latency-class keys only "
                             "(default: --max-cv). Tail percentiles are "
                             "legitimately noisier than batch medians, so "
                             "a serve gate can hold timings to a tight CV "
                             "while allowing p99 more spread")
    args = parser.parse_args(argv)
    if not 0.0 <= args.tolerance < 1.0:
        parser.error("--tolerance must be in [0, 1)")
    if args.latency_tol < 0.0:
        parser.error("--latency-tol must be >= 0")
    if not 0.0 <= args.stat_abs_tol <= 1.0:
        parser.error("--stat-abs-tol must be in [0, 1]")
    if args.stat_rel_tol < 0.0:
        parser.error("--stat-rel-tol must be >= 0")
    if args.runs is None:
        if len(args.current) != 1:
            parser.error("%d current files given; pass --runs %d for "
                         "repeat mode" % (len(args.current),
                                          len(args.current)))
    elif args.runs < 2:
        parser.error("--runs must be >= 2")
    elif len(args.current) != args.runs:
        parser.error("--runs %d but %d current files given" %
                     (args.runs, len(args.current)))
    if args.max_cv is not None and args.runs is None:
        parser.error("--max-cv requires --runs")
    if args.latency_max_cv is not None and args.max_cv is None:
        parser.error("--latency-max-cv requires --max-cv")

    base = load(args.baseline)
    docs = [load(path) for path in args.current]

    failures, notes = [], []
    cvs = {}
    if args.runs is not None:
        cur = aggregate(docs, "", cvs, failures)
        label = "mean of %d runs" % args.runs
    else:
        cur = docs[0]
        label = args.current[0]
    tols = Tolerances(perf=args.tolerance, latency=args.latency_tol,
                      stat_abs=args.stat_abs_tol,
                      stat_rel=args.stat_rel_tol)
    compare(base, cur, tols, "", failures, notes)

    for path in sorted(cvs):
        flag = ""
        key = path.rsplit(".", 1)[-1].rsplit("]", 1)[-1] or path
        if classify(key) == "latency" and args.latency_max_cv is not None:
            cv_gate = args.latency_max_cv
            gate_name = "--latency-max-cv"
        else:
            cv_gate = args.max_cv
            gate_name = "--max-cv"
        if cv_gate is not None and cvs[path] > cv_gate:
            failures.append("%s: CV %.1f%% across %d runs exceeds the "
                            "%.1f%% %s gate; metric too noisy to "
                            "compare" % (path, 100.0 * cvs[path], args.runs,
                                         100.0 * cv_gate, gate_name))
            flag = "  <-- over %s" % gate_name
        print("  cv: %-60s %6.2f%%%s" % (path, 100.0 * cvs[path], flag))

    for note in notes:
        print("  note: %s" % note)
    if failures:
        print("bench_compare: %d failure(s) vs %s (tolerance %.0f%%):" %
              (len(failures), args.baseline, 100.0 * args.tolerance))
        for failure in failures:
            print("  FAIL: %s" % failure)
        return 1
    print("bench_compare: %s within %.0f%% of %s" %
          (label, 100.0 * args.tolerance, args.baseline))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
