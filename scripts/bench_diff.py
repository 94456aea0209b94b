#!/usr/bin/env python3
"""Compare two BENCH_*.json files and fail on modeled-time regressions.

Usage:
    scripts/bench_diff.py BASELINE.json CANDIDATE.json [--threshold PCT]

Both files must be `pgraph-bench` schema version 1 documents, as written
by any harness bench via `--json <path>` (src/trace/bench_json.*).  Rows
are matched by label; a candidate row whose modeled_ns exceeds the
baseline's by more than --threshold percent is a regression, and a
baseline row missing from the candidate is an error (renamed or dropped
configurations must regenerate the baseline deliberately).  A NaN or
infinite modeled_ns on either side is a failure, never a silent pass
(NaN compares false against every threshold).  Breakdown fields are
validated tolerantly: absent or non-finite per-category entries are
warned about and ignored, since partial reports are still comparable
on modeled time.  Row `extra` counters present in the candidate but not
in the baseline (e.g. new fault telemetry after a tooling upgrade) are
warned about, never failed: the chaos invariance gate compares a
faulted-but-zero-rate candidate against a fault-free baseline, and new
telemetry keys must not break it.

`--threshold 0` is the bit-for-bit gate: every field the baseline
records, except the host-clock `wall_ms`, must be equal in the candidate
-- modeled_ns, breakdown_ns, messages, bytes, barriers, extras,
attribution and the document's params alike -- so a change in either
direction fails.  Keys only the candidate has (e.g. a `Scrub: 0`
breakdown entry, or `digests` from a `--digest` run) are warned about,
never failed.

Serving benches additionally report tail-latency extras (keys starting
with `latency_p`, e.g. latency_p50_ns/p95/p99).  When such a key is
present in both rows it is gated too, with a percentile-aware tolerance:
the base allowance is --latency-threshold percent (default 15), widened
x1.5 for p95 and x2 for p99 keys, because deeper tail percentiles are
order statistics of fewer samples and flap harder than medians under
benign model changes.  Resilience benches report `availability` (a
fraction, gated on absolute decrease beyond 0.02) and `crashed` (gated
on a 0 -> 1 flip) extras the same way.  Other extras stay
informational.

Exit codes: 0 ok, 1 regression/missing rows, 2 malformed input.
Only the Python standard library is used.
"""

import argparse
import json
import math
import sys

SCHEMA = "pgraph-bench"
VERSION = 1


def load(path):
    try:
        with open(path, "r", encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        sys.exit(f"bench_diff: cannot read {path}: {e}")
    if not isinstance(doc, dict) or doc.get("schema") != SCHEMA:
        sys.exit(f"bench_diff: {path}: not a {SCHEMA} document")
    if doc.get("version") != VERSION:
        sys.exit(
            f"bench_diff: {path}: schema version {doc.get('version')!r}, "
            f"expected {VERSION}"
        )
    rows = doc.get("rows")
    if not isinstance(rows, list):
        sys.exit(f"bench_diff: {path}: missing rows array")
    by_label = {}
    for i, row in enumerate(rows):
        label = row.get("label")
        t = row.get("modeled_ns")
        if (
            not isinstance(label, str)
            or isinstance(t, bool)
            or not isinstance(t, (int, float))
        ):
            sys.exit(f"bench_diff: {path}: row {i} lacks label/modeled_ns")
        if label in by_label:
            sys.exit(f"bench_diff: {path}: duplicate row label {label!r}")
        check_breakdown(path, i, row)
        extra = row.get("extra")
        if extra is not None and not isinstance(extra, dict):
            sys.exit(f"bench_diff: {path}: row {i} extra is not an object")
        by_label[label] = (float(t), dict(extra or {}), row)
    return doc, by_label


def latency_tolerance(key, base_pct):
    """Percentile-aware allowance for a latency_p* extra, in percent.

    Deeper tail percentiles are order statistics of fewer samples, so the
    p95/p99 gates are wider than the median's to keep the CI gate from
    flapping on benign changes.
    """
    if "p99" in key:
        return 2.0 * base_pct
    if "p95" in key:
        return 1.5 * base_pct
    return base_pct


def check_latency_extras(label, extras_base, extras_cand, base_pct):
    """Gate latency_p* extras present in both rows; return failure count.

    Only growth fails; improvements and keys missing from either side are
    fine (a baseline predating latency extras must not fail candidates
    that report them -- the key-set warning already covers that case).
    """
    failures = 0
    for key in sorted(extras_base):
        if not key.startswith("latency_p") or key not in extras_cand:
            continue
        vb, vc = extras_base[key], extras_cand[key]
        if (
            isinstance(vb, bool)
            or isinstance(vc, bool)
            or not isinstance(vb, (int, float))
            or not isinstance(vc, (int, float))
            or not math.isfinite(float(vb))
            or not math.isfinite(float(vc))
        ):
            print(f"NON-FINITE  {label!r} {key}: baseline {vb!r}, candidate {vc!r}")
            failures += 1
            continue
        if vb <= 0.0:
            continue
        pct = 100.0 * (float(vc) - float(vb)) / float(vb)
        allow = latency_tolerance(key, base_pct)
        if pct > allow:
            print(
                f"REGRESSION  {label!r} {key}: {vb:.6g} -> {vc:.6g} "
                f"(+{pct:.2f}% > {allow:g}%)"
            )
            failures += 1
    return failures


def check_resilience_extras(label, extras_base, extras_cand):
    """Gate availability/crash extras present in both rows; return failures.

    Availability is a fraction in [0, 1]: an absolute drop beyond 0.02 is
    a regression (serving less of the offered load under the same fault
    plan), growth is always fine.  A `crashed` flag flipping 0 -> 1 fails
    outright: a configuration that used to survive its fault plan must
    keep surviving it.  Keys missing from either side stay informational,
    matching the latency-extras policy.
    """
    failures = 0
    for key, drop_allowed in (("availability", 0.02),):
        if key not in extras_base or key not in extras_cand:
            continue
        vb, vc = extras_base[key], extras_cand[key]
        if (
            isinstance(vb, bool)
            or isinstance(vc, bool)
            or not isinstance(vb, (int, float))
            or not isinstance(vc, (int, float))
            or not math.isfinite(float(vb))
            or not math.isfinite(float(vc))
        ):
            print(f"NON-FINITE  {label!r} {key}: baseline {vb!r}, candidate {vc!r}")
            failures += 1
            continue
        drop = float(vb) - float(vc)
        if drop > drop_allowed:
            print(
                f"REGRESSION  {label!r} {key}: {vb:.4f} -> {vc:.4f} "
                f"(-{drop:.4f} > {drop_allowed:g} absolute)"
            )
            failures += 1
    if "crashed" in extras_base and "crashed" in extras_cand:
        cb, cc = extras_base["crashed"], extras_cand["crashed"]
        if not cb and cc:
            print(f"REGRESSION  {label!r} crashed: 0 -> 1")
            failures += 1
    return failures


def check_scrub_extras(label, extras_base, extras_cand):
    """Gate scrub_*/certify_* extras present in both rows; return failures.

    These counters come from deterministic seeded fault plans, so they
    must reproduce EXACTLY: a changed detection/heal/escape count under
    the same plan means the defense chain changed behaviour, which must be
    a deliberate baseline regeneration, never drift.  Only integral values
    are gated (fractional keys like scrub_overhead_pct track modeled time
    and move with benign model changes); availability is gated separately
    by check_resilience_extras, and certify_failures/certify_escapes
    additionally fail on any 0 -> nonzero flip even if the baseline never
    recorded a zero explicitly.  Keys missing from either side stay
    informational, matching the latency-extras policy.
    """
    failures = 0
    for key in sorted(extras_base):
        if not (key.startswith("scrub_") or key.startswith("certify_")):
            continue
        if key not in extras_cand:
            continue
        vb, vc = extras_base[key], extras_cand[key]
        if (
            isinstance(vb, bool)
            or isinstance(vc, bool)
            or not isinstance(vb, (int, float))
            or not isinstance(vc, (int, float))
            or not math.isfinite(float(vb))
            or not math.isfinite(float(vc))
        ):
            print(f"NON-FINITE  {label!r} {key}: baseline {vb!r}, candidate {vc!r}")
            failures += 1
            continue
        if float(vb) != int(vb) or float(vc) != int(vc):
            continue  # fractional: informational only
        if int(vb) != int(vc):
            print(
                f"REGRESSION  {label!r} {key}: {int(vb)} -> {int(vc)} "
                f"(deterministic counter changed; regenerate the baseline "
                f"if intended)"
            )
            failures += 1
    for key in ("certify_failures", "certify_escapes"):
        vc = extras_cand.get(key)
        if (
            isinstance(vc, (int, float))
            and not isinstance(vc, bool)
            and math.isfinite(float(vc))
            and float(vc) > 0.0
            and float(extras_base.get(key, 0) or 0) == 0.0
        ):
            print(f"REGRESSION  {label!r} {key}: 0 -> {vc:g}")
            failures += 1
    return failures


def exact_diffs(base, cand, path):
    """Fields of `base` (bar wall_ms) that `cand` lacks or holds a
    different value for, as (path, baseline, candidate) tuples, plus the
    paths of keys only `cand` has.  Objects recurse; anything else must
    compare equal, so a NaN on either side is always a difference."""
    diffs, cand_only = [], []
    if isinstance(base, dict) and isinstance(cand, dict):
        for key, vb in base.items():
            if key == "wall_ms":
                continue
            sub = f"{path}.{key}" if path else key
            if key not in cand:
                diffs.append((sub, vb, "<missing>"))
                continue
            d, c = exact_diffs(vb, cand[key], sub)
            diffs += d
            cand_only += c
        cand_only += [
            f"{path}.{key}" if path else key for key in cand if key not in base
        ]
    elif base != cand or isinstance(base, bool) != isinstance(cand, bool):
        diffs.append((path, base, cand))
    return diffs, cand_only


def check_exact(label, base, cand):
    """Bit-for-bit gate (--threshold 0); return the failure count."""
    diffs, cand_only = exact_diffs(base, cand, "")
    for path, vb, vc in diffs:
        print(f"MISMATCH  {label!r} {path}: baseline {vb!r}, candidate {vc!r}")
    if cand_only:
        print(
            f"bench_diff: warning: {label!r}: candidate-only field(s) "
            f"{cand_only}; regenerate the baseline to track them",
            file=sys.stderr,
        )
    return len(diffs)


def check_breakdown(path, i, row):
    """Tolerant validation of a row's optional per-category breakdown.

    Absent breakdowns and absent/non-finite entries are fine (warn and
    ignore); a breakdown that is present but not an object is malformed.
    """
    bd = row.get("breakdown")
    if bd is None:
        return
    if not isinstance(bd, dict):
        sys.exit(f"bench_diff: {path}: row {i} breakdown is not an object")
    for key, v in bd.items():
        if (
            isinstance(v, bool)
            or not isinstance(v, (int, float))
            or not math.isfinite(float(v))
        ):
            print(
                f"bench_diff: warning: {path}: row {i} breakdown[{key!r}] "
                f"= {v!r} is not finite; ignored",
                file=sys.stderr,
            )


def main():
    ap = argparse.ArgumentParser(
        description="fail when modeled times regress vs a baseline"
    )
    ap.add_argument("baseline")
    ap.add_argument("candidate")
    ap.add_argument(
        "--threshold",
        type=float,
        default=5.0,
        metavar="PCT",
        help="allowed modeled-time growth per row, percent (default 5); "
        "0 requires every baseline field but wall_ms to match exactly",
    )
    ap.add_argument(
        "--latency-threshold",
        type=float,
        default=15.0,
        metavar="PCT",
        help="base allowed growth for latency_p* extras, percent "
        "(default 15; widened x1.5 for p95, x2 for p99)",
    )
    args = ap.parse_args()

    base_doc, base = load(args.baseline)
    cand_doc, cand = load(args.candidate)
    if base_doc.get("bench") != cand_doc.get("bench"):
        print(
            f"bench_diff: comparing different benches: "
            f"{base_doc.get('bench')!r} vs {cand_doc.get('bench')!r}",
            file=sys.stderr,
        )
        return 1

    exact = args.threshold == 0
    failures = 0
    if exact:
        failures += check_exact(
            "<document>",
            {k: v for k, v in base_doc.items() if k != "rows"},
            {k: v for k, v in cand_doc.items() if k != "rows"},
        )
    for label, (t_base, extras_base, row_base) in base.items():
        if label not in cand:
            print(f"MISSING  {label!r}: row absent from candidate")
            failures += 1
            continue
        t_cand, extras_cand, row_cand = cand[label]
        if exact:
            mismatches = check_exact(label, row_base, row_cand)
            if not mismatches:
                print(f"ok  {label!r}: identical")
            failures += mismatches
            continue
        new_extras = sorted(extras_cand.keys() - extras_base.keys())
        if new_extras:
            print(
                f"bench_diff: warning: {label!r}: candidate-only extra "
                f"counter(s) {new_extras}; regenerate the baseline to "
                f"track them",
                file=sys.stderr,
            )
        if not math.isfinite(t_base) or not math.isfinite(t_cand):
            print(
                f"NON-FINITE  {label!r}: baseline {t_base!r}, "
                f"candidate {t_cand!r}"
            )
            failures += 1
            continue
        if t_base <= 0.0:
            # Rows without a modeled time (informational extras) can't
            # regress; only report if one appears from nowhere.
            continue
        pct = 100.0 * (t_cand - t_base) / t_base
        if pct > args.threshold:
            print(
                f"REGRESSION  {label!r}: {t_base:.6g} ns -> {t_cand:.6g} ns "
                f"(+{pct:.2f}% > {args.threshold:g}%)"
            )
            failures += 1
        else:
            print(f"ok  {label!r}: {pct:+.2f}%")
        failures += check_latency_extras(
            label, extras_base, extras_cand, args.latency_threshold
        )
        failures += check_resilience_extras(label, extras_base, extras_cand)
        failures += check_scrub_extras(label, extras_base, extras_cand)
    extra = [label for label in cand if label not in base]
    if extra:
        print(f"note: {len(extra)} new row(s) not in baseline: {extra}")

    if failures:
        print(f"bench_diff: {failures} failure(s)", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
