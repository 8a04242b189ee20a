#!/usr/bin/env python3
"""CI benchmark-regression gate.

Compares the BENCH_*.json reports produced by the gated benchmarks
against the committed baselines in bench/baselines/ and fails when a
gated metric regressed beyond its tolerance.

Only *ratio* and *overhead* metrics are gated: they are dimensionless,
so they survive the move between developer machines and CI runners.
Raw nanosecond metrics are recorded in the reports for forensics but
never gated.

Check kinds:
  higher_better    current must stay >= max(floor, min_fraction * base)
  lower_better     current must stay <= ceiling and
                   <= (1 + slack) * base
  max_slack        current must stay <= base + slack (absolute units,
                   e.g. percentage points of overhead)
  absolute_ceiling current must stay <= ceiling, ignoring the
                   baseline value entirely. For metrics whose
                   acceptable range is a contract, not a trend —
                   e.g. the server's shed rate under the smoke load,
                   or queue depth relative to the watermark, which
                   must NEVER exceed 1.0 regardless of history.

Usage:
  picoeval-bench-gate.py [--results DIR] [--baselines DIR]
                         [--benches A,B,...]
  picoeval-bench-gate.py --update-baselines [--results DIR]
                         [--baselines DIR] [--benches A,B,...]
  picoeval-bench-gate.py --self-test

--benches restricts the gate to a comma-separated subset of bench
names (the CI bench-gate job excludes server_load, which only the
server-smoke job produces).

--update-baselines copies the current reports (of --benches, or of
every bench) over the baselines after a deliberate performance
change; commit the result. If a selected report is missing it names
it, copies nothing and exits 2.
--self-test proves the gate trips: it replays every baseline against
itself (must pass), then against a copy with each gated metric pushed
just beyond its tolerance (every check must fail). It also updates a
subset of baselines into a scratch directory and checks that an
update with a missing report copies nothing.

Standard library only.
"""

import argparse
import json
import os
import shutil
import sys

# ---------------------------------------------------------------------
# Gate specification: one entry per gated metric.
# Tolerances are deliberately wide — CI runners are noisy; the gate is
# for catching real regressions (2x slowdowns, lost speedups), not for
# flagging 10% jitter.
GATES = [
    {
        "bench": "cheetah_speedup",
        "metric": "allconfigs_cost_vs_single",
        "kind": "lower_better",
        "slack": 0.75,   # tolerate up to 1.75x the baseline ratio
        "ceiling": 8.0,  # paper's claim: a small multiple of one run
    },
    {
        "bench": "cheetah_speedup",
        "metric": "singlepass_vs_perconfig_speedup",
        "kind": "higher_better",
        "min_fraction": 0.4,
        "floor": 3.0,    # 20 configs in one pass must beat 3x
    },
    {
        "bench": "cheetah_speedup",
        "metric": "sweep_vs_oracle_speedup",
        "kind": "higher_better",
        "min_fraction": 0.4,
        "floor": 2.0,    # the production sweep must beat one CacheSim
                         # pass per configuration by >= 2x
    },
    {
        "bench": "cheetah_speedup",
        "metric": "parallel_sweep_speedup_4j",
        "kind": "higher_better",
        "min_fraction": 0.4,
        "floor": 1.0,    # the 4-job sweep must never lose to 1 job
    },
    {
        "bench": "observability_overhead",
        "metric": "overhead.percent",
        "kind": "max_slack",
        "slack": 10.0,   # percentage points over baseline
    },
    {
        "bench": "observability_overhead",
        "metric": "server.overhead.percent",
        "kind": "max_slack",
        "slack": 10.0,   # request-scoped tracing on the serving path
    },
    {
        "bench": "observability_overhead",
        "metric": "rankcheck.overhead.percent",
        "kind": "max_slack",
        "slack": 10.0,   # lock-rank checker A/B (0% in Release —
                         # the checker is compiled out entirely)
    },
    {
        "bench": "verifier_overhead",
        "metric": "overhead.percent",
        "kind": "max_slack",
        "slack": 15.0,
    },
    {
        "bench": "policy_sweep",
        "metric": "setresident_vs_oracle_speedup",
        "kind": "higher_better",
        "min_fraction": 0.4,
        "floor": 1.3,   # one all-geometry pass must beat the
                        # per-config oracle loop
    },
    # Serving-layer contracts (produced by the server-smoke job's
    # chaos load run, not the bench-gate job). These are absolute:
    # the smoke load is sized so a healthy server sheds only a
    # fraction of it, and the bounded queue's peak may never pass
    # its watermark no matter what the baseline recorded.
    {
        "bench": "server_load",
        "metric": "shed.rate",
        "kind": "absolute_ceiling",
        "ceiling": 0.90,  # some shedding is the design working;
                          # shedding ~everything is an outage
    },
    {
        "bench": "server_load",
        "metric": "deadline.rate",
        "kind": "absolute_ceiling",
        "ceiling": 0.90,
    },
    {
        "bench": "server_load",
        "metric": "queue.peak_over_watermark",
        "kind": "absolute_ceiling",
        "ceiling": 1.0,   # BoundedQueue invariant: peak <= watermark
    },
]

# Every report the gate job must produce, gated metric or not.
EXPECTED_BENCHES = sorted({g["bench"] for g in GATES})


def report_name(bench):
    return "BENCH_%s.json" % bench


def load_report(directory, bench):
    path = os.path.join(directory, report_name(bench))
    with open(path, "r", encoding="utf-8") as f:
        doc = json.load(f)
    if doc.get("schema") != "picoeval-bench-v1":
        raise ValueError("%s: unexpected schema %r"
                         % (path, doc.get("schema")))
    return doc


def check_metric(gate, base, cur):
    """Return (ok, limit_description)."""
    kind = gate["kind"]
    if kind == "higher_better":
        limit = max(gate.get("floor", 0.0),
                    gate.get("min_fraction", 0.0) * base)
        return cur >= limit, ">= %.3f" % limit
    if kind == "lower_better":
        limit = (1.0 + gate["slack"]) * base
        ceiling = gate.get("ceiling")
        if ceiling is not None:
            limit = min(limit, max(ceiling, base))
        return cur <= limit, "<= %.3f" % limit
    if kind == "max_slack":
        limit = base + gate["slack"]
        return cur <= limit, "<= %.3f" % limit
    if kind == "absolute_ceiling":
        limit = gate["ceiling"]
        return cur <= limit, "<= %.3f" % limit
    raise ValueError("unknown check kind %r" % kind)


def run_gate(results_dir, baselines_dir, out=sys.stdout,
             benches=None):
    """Compare results against baselines; return the failure count."""
    failures = 0
    rows = []
    for bench in (benches if benches is not None
                  else EXPECTED_BENCHES):
        try:
            current = load_report(results_dir, bench)
        except (OSError, ValueError, json.JSONDecodeError) as e:
            rows.append((bench, "<report>", "-", "-", "-",
                         "FAIL (%s)" % e))
            failures += 1
            continue
        try:
            baseline = load_report(baselines_dir, bench)
        except (OSError, ValueError, json.JSONDecodeError) as e:
            rows.append((bench, "<baseline>", "-", "-", "-",
                         "FAIL (%s)" % e))
            failures += 1
            continue
        for gate in (g for g in GATES if g["bench"] == bench):
            metric = gate["metric"]
            base = baseline.get("metrics", {}).get(metric)
            cur = current.get("metrics", {}).get(metric)
            if base is None or cur is None:
                rows.append((bench, metric, str(base), str(cur), "-",
                             "FAIL (metric missing)"))
                failures += 1
                continue
            ok, limit = check_metric(gate, float(base), float(cur))
            rows.append((bench, metric, "%.3f" % float(base),
                         "%.3f" % float(cur), limit,
                         "ok" if ok else "FAIL"))
            if not ok:
                failures += 1

    widths = [max(len(str(r[i])) for r in rows + [HEADER])
              for i in range(6)]
    for row in [HEADER] + rows:
        out.write("  ".join(str(c).ljust(w)
                            for c, w in zip(row, widths)).rstrip()
                  + "\n")
    out.write("\n%d check(s) failed\n" % failures)
    return failures


HEADER = ("bench", "metric", "baseline", "current", "limit", "status")


def update_baselines(results_dir, baselines_dir, benches=None,
                     out=sys.stdout, err=sys.stderr):
    """Copy the selected reports over their baselines, or none of
    them when one is missing. Returns 0, or 2 on a missing report."""
    benches = benches if benches is not None else EXPECTED_BENCHES
    for bench in benches:
        src = os.path.join(results_dir, report_name(bench))
        if not os.path.isfile(src):
            err.write("no report %s; no baseline updated\n" % src)
            return 2
    os.makedirs(baselines_dir, exist_ok=True)
    for bench in benches:
        src = os.path.join(results_dir, report_name(bench))
        dst = os.path.join(baselines_dir, report_name(bench))
        shutil.copyfile(src, dst)
        out.write("baseline updated: %s\n" % dst)
    return 0


def inflate(gate, value):
    """Push a metric just past its tolerance, in the bad direction."""
    kind = gate["kind"]
    if kind == "higher_better":
        limit = max(gate.get("floor", 0.0),
                    gate.get("min_fraction", 0.0) * value)
        return limit * 0.9
    if kind == "lower_better":
        limit = (1.0 + gate["slack"]) * value
        ceiling = gate.get("ceiling")
        if ceiling is not None:
            limit = min(limit, max(ceiling, value))
        return limit * 1.1
    if kind == "max_slack":
        return value + gate["slack"] + 1.0
    if kind == "absolute_ceiling":
        return gate["ceiling"] * 1.1 + 0.1
    raise ValueError(kind)


def self_test(baselines_dir, tmp_dir):
    """Prove the gate passes on pristine data and trips on regressed
    data. Returns 0 on success."""
    import io

    # 1. Baselines against themselves: must be clean.
    buf = io.StringIO()
    if run_gate(baselines_dir, baselines_dir, out=buf) != 0:
        print(buf.getvalue())
        print("self-test FAILED: pristine baselines did not pass")
        return 1

    # 2. Regress every gated metric past its tolerance: every gated
    #    check must fail.
    os.makedirs(tmp_dir, exist_ok=True)
    for bench in EXPECTED_BENCHES:
        doc = load_report(baselines_dir, bench)
        for gate in (g for g in GATES if g["bench"] == bench):
            metric = gate["metric"]
            doc["metrics"][metric] = inflate(
                gate, float(doc["metrics"][metric]))
        with open(os.path.join(tmp_dir, report_name(bench)), "w",
                  encoding="utf-8") as f:
            json.dump(doc, f)
    buf = io.StringIO()
    failed = run_gate(tmp_dir, baselines_dir, out=buf)
    if failed != len(GATES):
        print(buf.getvalue())
        print("self-test FAILED: expected %d tripped checks, got %d"
              % (len(GATES), failed))
        return 1

    # 3. Update a subset of baselines into a scratch directory: only
    #    the selected reports are copied. Then select one report the
    #    results lack: nothing is copied and the update exits 2.
    subset = [b for b in EXPECTED_BENCHES if b != "server_load"]
    results = os.path.join(tmp_dir, "update-results")
    target = os.path.join(tmp_dir, "update-baselines")
    for d in (results, target):
        shutil.rmtree(d, ignore_errors=True)
        os.makedirs(d)
    for bench in subset:
        shutil.copyfile(os.path.join(baselines_dir, report_name(bench)),
                        os.path.join(results, report_name(bench)))
    buf = io.StringIO()
    rc = update_baselines(results, target, subset, out=buf, err=buf)
    if rc != 0 or sorted(os.listdir(target)) != sorted(
            report_name(b) for b in subset):
        print(buf.getvalue())
        print("self-test FAILED: subset update copied %s (exit %d)"
              % (sorted(os.listdir(target)), rc))
        return 1
    shutil.rmtree(target)
    rc = update_baselines(results, target, EXPECTED_BENCHES, out=buf,
                          err=buf)
    if rc != 2 or os.path.exists(target):
        print(buf.getvalue())
        print("self-test FAILED: update with a missing report exited "
              "%d and %s" % (rc, "copied files" if os.path.exists(target)
                             else "copied nothing"))
        return 1

    print("self-test passed: pristine baselines clean, "
          "%d inflated metric(s) all tripped, subset update and "
          "missing-report refusal checked" % len(GATES))
    return 0


def main():
    repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    ap = argparse.ArgumentParser(
        description="benchmark regression gate")
    ap.add_argument("--results", default=".",
                    help="directory holding the BENCH_*.json reports")
    ap.add_argument("--baselines",
                    default=os.path.join(repo, "bench", "baselines"),
                    help="committed baseline directory")
    ap.add_argument("--update-baselines", action="store_true",
                    help="overwrite baselines with current results")
    ap.add_argument("--self-test", action="store_true",
                    help="verify the gate trips on inflated results")
    ap.add_argument("--benches",
                    help="comma-separated subset of benches to gate "
                         "(default: all)")
    args = ap.parse_args()

    benches = None
    if args.benches:
        benches = sorted(set(args.benches.split(",")))
        unknown = [b for b in benches if b not in EXPECTED_BENCHES]
        if unknown:
            print("unknown bench(es): %s (known: %s)"
                  % (", ".join(unknown),
                     ", ".join(EXPECTED_BENCHES)),
                  file=sys.stderr)
            return 2

    if args.self_test:
        return self_test(args.baselines,
                         os.path.join(args.results,
                                      "bench-gate-selftest"))
    if args.update_baselines:
        return update_baselines(args.results, args.baselines, benches)
    return 1 if run_gate(args.results, args.baselines,
                         benches=benches) else 0


if __name__ == "__main__":
    sys.exit(main())
