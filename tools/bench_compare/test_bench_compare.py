#!/usr/bin/env python3
"""Self-test for bench_compare.py (pytest-style test_* functions).

Runs under pytest when available, but needs nothing beyond the standard
library: ``python3 test_bench_compare.py`` discovers and runs every
``test_*`` function itself, so CI registers it as a plain ctest command.
Each test builds small in-memory documents (or temp files for the
end-to-end exit-code checks) shaped like the real BENCH_*.json emitters,
with special weight on the BENCH_serve.json shape: latency-class keys,
per-scenario coverage/width stat gating, and exact integer overload
counts.
"""

import json
import os
import sys
import tempfile

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import bench_compare as bc


DEFAULT_TOLS = bc.Tolerances(perf=0.15, latency=0.50, stat_abs=0.02,
                             stat_rel=0.10)


def run_compare(base, cur, tols=DEFAULT_TOLS):
    failures, notes = [], []
    bc.compare(base, cur, tols, "", failures, notes)
    return failures, notes


# --- classify: suffix precedence ------------------------------------------

def test_classify_latency_outranks_unit_suffixes():
    # "p99_us" ends in "_us" and "p50_ms" in "_ms"; both must land in the
    # latency class, not the tight lower-is-better class.
    assert bc.classify("p50_us") == "latency"
    assert bc.classify("p99_us") == "latency"
    assert bc.classify("p50_ms") == "latency"
    assert bc.classify("p99_ms") == "latency"
    assert bc.classify("par_ms") == "lower"
    assert bc.classify("seq_ms") == "lower"


def test_classify_existing_classes_unchanged():
    assert bc.classify("rows_per_s") == "higher"
    assert bc.classify("qps") == "higher"
    assert bc.classify("speedup") == "higher"
    assert bc.classify("coverage") == "stat_abs"
    assert bc.classify("mean_width_v") == "stat_rel"
    assert bc.classify("threads") == "config"
    assert bc.classify("max_queue_depth") == "config"


# --- latency band ----------------------------------------------------------

def test_latency_within_wide_band_passes():
    failures, _ = run_compare({"p99_us": 100.0}, {"p99_us": 140.0})
    assert failures == []


def test_latency_blowup_fails():
    failures, _ = run_compare({"p99_us": 100.0}, {"p99_us": 151.0})
    assert len(failures) == 1
    assert "REGRESSION" in failures[0]


def test_latency_improvement_is_a_note_not_failure():
    failures, notes = run_compare({"p50_us": 100.0}, {"p50_us": 60.0})
    assert failures == []
    assert any("improved" in n for n in notes)


def test_latency_band_independent_of_perf_tolerance():
    # 30% slower p99 passes even when the perf band is squeezed to 5%.
    tight_perf = bc.Tolerances(perf=0.05, latency=0.50, stat_abs=0.02,
                               stat_rel=0.10)
    failures, _ = run_compare({"p99_us": 100.0, "par_ms": 10.0},
                              {"p99_us": 130.0, "par_ms": 10.0}, tight_perf)
    assert failures == []
    failures, _ = run_compare({"par_ms": 10.0}, {"par_ms": 11.0}, tight_perf)
    assert len(failures) == 1  # same 10% delta fails the 5% perf band


# --- statistical bands (serve stats blocks) --------------------------------

def test_coverage_gates_absolutely_both_directions():
    failures, _ = run_compare({"coverage": 0.93}, {"coverage": 0.915})
    assert failures == []
    failures, _ = run_compare({"coverage": 0.93}, {"coverage": 0.905})
    assert len(failures) == 1 and "STATISTICAL SHIFT" in failures[0]
    # A large coverage GAIN trips the gate too (ballooned intervals).
    failures, _ = run_compare({"coverage": 0.93}, {"coverage": 0.96})
    assert len(failures) == 1


def test_width_gates_relatively_both_directions():
    failures, _ = run_compare({"mean_width_v": 0.0148},
                              {"mean_width_v": 0.0155})
    assert failures == []
    failures, _ = run_compare({"mean_width_v": 0.0148},
                              {"mean_width_v": 0.0165})
    assert len(failures) == 1 and "STATISTICAL SHIFT" in failures[0]
    failures, _ = run_compare({"mean_width_v": 0.0148},
                              {"mean_width_v": 0.0130})
    assert len(failures) == 1  # silently narrower is also a shift


# --- config / integer exactness (overload + cache blocks) ------------------

def test_integer_counters_gate_exactly():
    base = {"overload": {"accepted": 8, "shed_queue_full": 5,
                         "max_queue_depth": 8}}
    ok = {"overload": {"accepted": 8, "shed_queue_full": 5,
                       "max_queue_depth": 8}}
    failures, _ = run_compare(base, ok)
    assert failures == []
    off_by_one = {"overload": {"accepted": 8, "shed_queue_full": 5,
                               "max_queue_depth": 9}}
    failures, _ = run_compare(base, off_by_one)
    assert len(failures) == 1 and "config mismatch" in failures[0]


def test_unsuffixed_float_leaf_is_an_error_not_config():
    # A float ratio with no unit suffix (e.g. "vs_exact") is a metric, not
    # a config value: it must fail as unclassified even when both sides
    # agree, instead of posing as a config mismatch on every noisy run.
    for cur in (13.5968, 14.2):
        failures, _ = run_compare({"fit": {"vs_exact": 13.5968}},
                                  {"fit": {"vs_exact": cur}})
        assert failures == ["unclassified float metric 'fit.vs_exact': "
                            "give it a unit suffix"]
    # Integer and string leaves stay config.
    failures, _ = run_compare({"threads": 2, "predictor": "CQR"},
                              {"threads": 2, "predictor": "CQR"})
    assert failures == []
    failures = []
    bc.aggregate([{"vs_exact": 1.5}, {"vs_exact": 1.5}], "", {}, failures)
    assert failures == ["unclassified float metric 'vs_exact': give it a "
                        "unit suffix"]


def test_missing_key_fails_new_key_is_note():
    failures, _ = run_compare({"qps": 100.0, "threads": 2}, {"threads": 2})
    assert any("missing" in f for f in failures)
    failures, notes = run_compare({"threads": 2},
                                  {"threads": 2, "qps": 100.0})
    assert failures == []
    assert any("new key" in n for n in notes)


# --- serve-shaped document end to end --------------------------------------

def serve_doc(qps, p99, coverage, width):
    return {
        "threads": 2,
        "wave_queries": 1024,
        "scenarios": [
            {"name": "batch16_w1", "threads": 1, "max_batch_rows": 16,
             "qps": qps, "p50_us": 5.0, "p99_us": p99,
             "coverage": coverage, "mean_width_v": width},
            {"name": "batch256_wmax", "threads": 2, "max_batch_rows": 256,
             "qps": 1.2 * qps, "p50_us": 6.0, "p99_us": 2.0 * p99,
             "coverage": coverage, "mean_width_v": width},
        ],
        "overload": {"submitted": 13, "accepted": 8, "shed_queue_full": 5,
                     "served_ok": 8, "batches": 2, "max_queue_depth": 8},
        "cache": {"installs": 3, "hits": 2, "misses": 1, "evictions": 1},
    }


def test_serve_document_within_bands_passes():
    base = serve_doc(400000.0, 10.0, 0.9697, 0.0148)
    cur = serve_doc(380000.0, 13.0, 0.9609, 0.0151)
    failures, _ = run_compare(base, cur)
    assert failures == []


def test_serve_scenarios_pair_by_name_despite_reorder():
    base = serve_doc(400000.0, 10.0, 0.9697, 0.0148)
    cur = serve_doc(400000.0, 10.0, 0.9697, 0.0148)
    cur["scenarios"].reverse()
    failures, _ = run_compare(base, cur)
    assert failures == []


def test_serve_per_scenario_coverage_drift_fails():
    base = serve_doc(400000.0, 10.0, 0.9697, 0.0148)
    cur = serve_doc(400000.0, 10.0, 0.9697, 0.0148)
    cur["scenarios"][1]["coverage"] = 0.9400  # one width drifts: serving bug
    failures, _ = run_compare(base, cur)
    assert len(failures) == 1
    assert "batch256_wmax" in failures[0]


# --- repeat mode -----------------------------------------------------------

def test_aggregate_averages_latency_and_checks_config():
    docs = [{"p99_us": 10.0, "threads": 2}, {"p99_us": 14.0, "threads": 2}]
    cvs, failures = {}, []
    merged = bc.aggregate(docs, "", cvs, failures)
    assert failures == []
    assert merged["p99_us"] == 12.0
    assert merged["threads"] == 2
    assert cvs["p99_us"] > 0.0
    docs[1]["threads"] = 4
    failures = []
    bc.aggregate(docs, "", {}, failures)
    assert any("config differs" in f for f in failures)


# --- CLI exit codes --------------------------------------------------------

def run_main(baseline_doc, current_docs, extra_args=()):
    with tempfile.TemporaryDirectory() as tmp:
        base_path = os.path.join(tmp, "baseline.json")
        with open(base_path, "w", encoding="utf-8") as fh:
            json.dump(baseline_doc, fh)
        cur_paths = []
        for i, doc in enumerate(current_docs):
            path = os.path.join(tmp, "run%d.json" % i)
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(doc, fh)
            cur_paths.append(path)
        return bc.main([base_path] + cur_paths + list(extra_args))


def test_main_passes_and_fails_on_latency():
    base = serve_doc(400000.0, 10.0, 0.9697, 0.0148)
    assert run_main(base, [serve_doc(400000.0, 12.0, 0.9697, 0.0148)]) == 0
    assert run_main(base, [serve_doc(400000.0, 16.0, 0.9697, 0.0148)]) == 1
    # the same 60% blow-up passes under a loosened --latency-tol
    assert run_main(base, [serve_doc(400000.0, 16.0, 0.9697, 0.0148)],
                    ["--latency-tol", "0.75"]) == 0


def test_main_repeat_mode_max_cv_gate():
    base = serve_doc(400000.0, 10.0, 0.9697, 0.0148)
    steady = [serve_doc(400000.0, 10.0, 0.9697, 0.0148),
              serve_doc(404000.0, 10.1, 0.9697, 0.0148),
              serve_doc(396000.0, 9.9, 0.9697, 0.0148)]
    assert run_main(base, steady, ["--runs", "3", "--max-cv", "0.10"]) == 0
    noisy = [serve_doc(400000.0, 10.0, 0.9697, 0.0148),
             serve_doc(400000.0, 30.0, 0.9697, 0.0148),
             serve_doc(400000.0, 10.0, 0.9697, 0.0148)]
    assert run_main(base, noisy, ["--runs", "3", "--max-cv", "0.10"]) == 1


def test_main_latency_max_cv_exempts_only_latency_keys():
    base = serve_doc(400000.0, 10.0, 0.9697, 0.0148)
    # p99 spread ~35% CV, qps steady: fails a flat --max-cv 0.10, passes
    # once latency keys get their own wider CV gate.
    runs = [serve_doc(400000.0, 7.0, 0.9697, 0.0148),
            serve_doc(400000.0, 10.0, 0.9697, 0.0148),
            serve_doc(400000.0, 13.0, 0.9697, 0.0148)]
    assert run_main(base, runs, ["--runs", "3", "--max-cv", "0.10"]) == 1
    assert run_main(base, runs, ["--runs", "3", "--max-cv", "0.10",
                                 "--latency-max-cv", "0.80"]) == 0
    # a qps spread that large is NOT exempted by --latency-max-cv
    noisy_qps = [serve_doc(300000.0, 10.0, 0.9697, 0.0148),
                 serve_doc(400000.0, 10.0, 0.9697, 0.0148),
                 serve_doc(500000.0, 10.0, 0.9697, 0.0148)]
    assert run_main(base, noisy_qps,
                    ["--runs", "3", "--max-cv", "0.10",
                     "--latency-max-cv", "0.80"]) == 1


def main():
    tests = [(name, fn) for name, fn in sorted(globals().items())
             if name.startswith("test_") and callable(fn)]
    failed = []
    for name, fn in tests:
        try:
            fn()
            print("PASS %s" % name)
        except AssertionError:
            import traceback
            traceback.print_exc()
            failed.append(name)
            print("FAIL %s" % name)
    print("%d/%d passed" % (len(tests) - len(failed), len(tests)))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
