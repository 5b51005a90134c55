//! The bench-regression sentry behind the `bench_check` binary.
//!
//! Compares a fresh `bench_vm` report (`BENCH_vm.json`, schema v3)
//! against a committed baseline and fails loudly on regressions. Two
//! kinds of check:
//!
//! - **strict** — metrics the cost model makes bit-deterministic
//!   (work units, rescued units and fractions, cascade verdicts and
//!   stage indices, fused/unfused op counts) must match the baseline
//!   exactly; any drift is a semantic change, not jitter.
//! - **banded** — wall-clock figures may regress up to a tolerance
//!   (`--wall-tol`, default 20%; CI uses a wider band for shared
//!   runners). Sub-10µs measurements are skipped entirely: at that
//!   scale the timer reads scheduling, not the kernel. Improvements
//!   never fail.
//!
//! The sentry also appends each run to `BENCH_history.jsonl` — one
//! JSON line per run, keyed on the schema-v2 `meta` block plus the git
//! revision — the per-PR perf trajectory (rescued fractions, kernel
//! scaling) the ROADMAP tracks.

use lip_obs::json::Json;

/// Tolerances for the banded checks.
#[derive(Clone, Debug)]
pub struct Tolerances {
    /// Allowed fractional wall-clock regression (0.20 = +20%).
    pub wall_tol: f64,
    /// Allowed fractional drop in within-run speedup ratios.
    pub ratio_tol: f64,
    /// Wall measurements below this (ns) are not band-checked.
    pub min_wall_ns: f64,
}

impl Default for Tolerances {
    fn default() -> Self {
        Tolerances {
            wall_tol: 0.20,
            ratio_tol: 0.40,
            min_wall_ns: 10_000.0,
        }
    }
}

/// One failed check.
#[derive(Clone, Debug)]
pub struct Violation {
    /// Which entry failed (`results stencil/bytecode`, …).
    pub what: String,
    /// Human-readable account of expected vs got.
    pub detail: String,
    /// `true` for strict (determinism) checks, `false` for bands.
    pub strict: bool,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "[{}] {}: {}",
            if self.strict { "STRICT" } else { "BAND" },
            self.what,
            self.detail
        )
    }
}

/// Compares `current` against `baseline` (both parsed `BENCH_vm.json`
/// documents) and returns every violated check, strict first.
pub fn compare(current: &Json, baseline: &Json, tol: &Tolerances) -> Vec<Violation> {
    let mut v = Vec::new();
    check_meta(current, baseline, &mut v);
    check_results(current, baseline, tol, &mut v);
    check_fused(current, baseline, tol, &mut v);
    check_reduction(current, baseline, tol, &mut v);
    check_pred(current, baseline, tol, &mut v);
    check_fission(current, baseline, tol, &mut v);
    v.sort_by_key(|x| !x.strict);
    v
}

fn strict(v: &mut Vec<Violation>, what: &str, detail: String) {
    v.push(Violation {
        what: what.to_owned(),
        detail,
        strict: true,
    });
}

fn band(v: &mut Vec<Violation>, what: &str, detail: String) {
    v.push(Violation {
        what: what.to_owned(),
        detail,
        strict: false,
    });
}

/// Finds the entry of `block` whose `keys` fields all match `want`.
fn find_entry<'a>(doc: &'a Json, block: &str, keys: &[(&str, &Json)]) -> Option<&'a Json> {
    doc.get(block)?.as_arr()?.iter().find(|e| {
        keys.iter()
            .all(|(k, want)| e.get(k).map(|got| got == *want).unwrap_or(false))
    })
}

/// Iterates baseline entries of an array block, locating the matching
/// current entry by the values of `key_fields`; a baseline entry with
/// no current counterpart is itself a strict violation (a kernel or
/// backend silently dropped from the bench).
fn for_matched(
    current: &Json,
    baseline: &Json,
    block: &str,
    key_fields: &[&str],
    v: &mut Vec<Violation>,
    mut f: impl FnMut(&str, &Json, &Json, &mut Vec<Violation>),
) {
    let Some(base_entries) = baseline.get(block).and_then(|b| b.as_arr()) else {
        return;
    };
    for base in base_entries {
        let keys: Vec<(&str, &Json)> = key_fields
            .iter()
            .filter_map(|k| base.get(k).map(|val| (*k, val)))
            .collect();
        let label = format!(
            "{block} {}",
            keys.iter()
                .map(|(_, val)| val
                    .as_str()
                    .map(str::to_owned)
                    .unwrap_or(format!("{val:?}")))
                .collect::<Vec<_>>()
                .join("/")
        );
        match find_entry(current, block, &keys) {
            None => strict(v, &label, "entry missing from current run".into()),
            Some(cur) => f(&label, cur, base, v),
        }
    }
}

/// Strict equality of field `k` (numbers, strings, nulls, booleans).
fn check_exact(label: &str, k: &str, cur: &Json, base: &Json, v: &mut Vec<Violation>) {
    let (c, b) = (cur.get(k), base.get(k));
    if c != b {
        strict(v, label, format!("{k}: baseline {b:?}, current {c:?}"));
    }
}

/// Banded wall check on field `k`: only a regression beyond
/// `wall_tol` fails, and only above the measurement floor.
fn check_wall(
    label: &str,
    k: &str,
    cur: &Json,
    base: &Json,
    tol: &Tolerances,
    v: &mut Vec<Violation>,
) {
    let (Some(c), Some(b)) = (
        cur.get(k).and_then(Json::as_f64),
        base.get(k).and_then(Json::as_f64),
    ) else {
        return;
    };
    if b < tol.min_wall_ns || c < tol.min_wall_ns {
        return;
    }
    let limit = b * (1.0 + tol.wall_tol);
    if c > limit {
        band(
            v,
            label,
            format!(
                "{k}: {c:.0} ns vs baseline {b:.0} ns (+{:.1}% > +{:.0}% tolerance)",
                100.0 * (c / b - 1.0),
                100.0 * tol.wall_tol
            ),
        );
    }
}

/// Banded ratio check on field `k`: a drop beyond `ratio_tol` fails,
/// guarded by the wall floor on `wall_field` when given.
fn check_ratio(
    label: &str,
    k: &str,
    wall_field: &str,
    cur: &Json,
    base: &Json,
    tol: &Tolerances,
    v: &mut Vec<Violation>,
) {
    let (Some(c), Some(b)) = (
        cur.get(k).and_then(Json::as_f64),
        base.get(k).and_then(Json::as_f64),
    ) else {
        return;
    };
    if let Some(w) = base.get(wall_field).and_then(Json::as_f64) {
        if w < tol.min_wall_ns {
            return;
        }
    }
    if c < b * (1.0 - tol.ratio_tol) {
        band(
            v,
            label,
            format!(
                "{k}: {c:.3} vs baseline {b:.3} (-{:.1}% > -{:.0}% tolerance)",
                100.0 * (1.0 - c / b),
                100.0 * tol.ratio_tol
            ),
        );
    }
}

fn check_meta(current: &Json, baseline: &Json, v: &mut Vec<Violation>) {
    // A baseline from a different schema or session shape isn't
    // comparable — flag it rather than drowning in spurious diffs.
    for k in ["schema_version", "nthreads", "fission"] {
        let (c, b) = (current.path(&["meta", k]), baseline.path(&["meta", k]));
        if c != b {
            strict(v, "meta", format!("{k}: baseline {b:?}, current {c:?}"));
        }
    }
}

fn check_results(current: &Json, baseline: &Json, tol: &Tolerances, v: &mut Vec<Violation>) {
    for_matched(
        current,
        baseline,
        "results",
        &["kernel", "backend"],
        v,
        |label, cur, base, v| {
            check_exact(label, "work_units", cur, base, v);
            check_wall(label, "wall_ns", cur, base, tol, v);
            check_ratio(label, "speedup_vs_treewalk", "wall_ns", cur, base, tol, v);
        },
    );
}

fn check_fused(current: &Json, baseline: &Json, tol: &Tolerances, v: &mut Vec<Violation>) {
    for_matched(
        current,
        baseline,
        "fused_results",
        &["kernel"],
        v,
        |label, cur, base, v| {
            check_exact(label, "ops_unfused", cur, base, v);
            check_exact(label, "ops_fused", cur, base, v);
            check_wall(label, "unfused_wall_ns", cur, base, tol, v);
            check_wall(label, "fused_wall_ns", cur, base, tol, v);
        },
    );
}

fn check_reduction(current: &Json, baseline: &Json, tol: &Tolerances, v: &mut Vec<Violation>) {
    for_matched(
        current,
        baseline,
        "reduction_results",
        &["kernel"],
        v,
        |label, cur, base, v| {
            // The measured shape (size, operator, element type) is
            // part of the row's identity; silently changing it would
            // make the wall bands compare different workloads.
            check_exact(label, "elems", cur, base, v);
            check_exact(label, "op", cur, base, v);
            check_exact(label, "ty", cur, base, v);
            check_wall(label, "boxed_wall_ns", cur, base, tol, v);
            check_wall(label, "simd_wall_ns", cur, base, tol, v);
            check_ratio(
                label,
                "speedup_vs_boxed",
                "boxed_wall_ns",
                cur,
                base,
                tol,
                v,
            );
        },
    );
}

fn check_pred(current: &Json, baseline: &Json, tol: &Tolerances, v: &mut Vec<Violation>) {
    for_matched(
        current,
        baseline,
        "pred_results",
        &["kernel", "backend"],
        v,
        |label, cur, base, v| {
            check_exact(label, "verdict", cur, base, v);
            check_exact(label, "passed_stage", cur, base, v);
            check_exact(label, "failed_stage", cur, base, v);
            check_wall(label, "wall_ns", cur, base, tol, v);
        },
    );
}

fn check_fission(current: &Json, baseline: &Json, tol: &Tolerances, v: &mut Vec<Violation>) {
    for_matched(
        current,
        baseline,
        "fission_results",
        &["kernel"],
        v,
        |label, cur, base, v| {
            check_exact(label, "fragments", cur, base, v);
            check_exact(label, "parallel_fragments", cur, base, v);
            check_exact(label, "rescued_units", cur, base, v);
            check_exact(label, "loop_units", cur, base, v);
            // The rescued fraction is the trajectory metric the ROADMAP
            // tracks: deterministic, so any drop is a real regression.
            let (c, b) = (
                cur.get("rescued_fraction").and_then(Json::as_f64),
                base.get("rescued_fraction").and_then(Json::as_f64),
            );
            if let (Some(c), Some(b)) = (c, b) {
                if c < b - 1e-9 {
                    strict(
                        v,
                        label,
                        format!("rescued_fraction regressed: {c:.3} vs baseline {b:.3}"),
                    );
                }
            }
            check_wall(label, "fissioned_wall_ns", cur, base, tol, v);
            check_wall(label, "sequential_wall_ns", cur, base, tol, v);
        },
    );
}

/// Sanity-validates a `BENCH_serve.json` document (schema v1): the
/// `meta` block names the serve bench, both legs are present with
/// positive throughput and ordered quantiles, cache-hit rates are
/// rates, and the warm leg is not slower than the cold leg it is
/// supposed to amortize. There is no baseline comparison — serve
/// throughput is machine-bound — so every violation here is a malformed
/// or self-contradictory report, and strict.
pub fn validate_serve(doc: &Json) -> Vec<Violation> {
    let mut v = Vec::new();
    if doc.path(&["meta", "bench"]).and_then(Json::as_str) != Some("serve") {
        strict(
            &mut v,
            "meta",
            "missing `\"bench\": \"serve\"` marker".into(),
        );
    }
    let legs = doc.get("legs").and_then(Json::as_arr).unwrap_or(&[]);
    for name in ["cold", "warm"] {
        let Some(leg) = legs
            .iter()
            .find(|l| l.get("leg").and_then(Json::as_str) == Some(name))
        else {
            strict(&mut v, name, "leg missing from report".into());
            continue;
        };
        let num = |k: &str| leg.get(k).and_then(Json::as_f64);
        match num("throughput_rps") {
            Some(t) if t > 0.0 => {}
            other => strict(
                &mut v,
                name,
                format!("throughput_rps not positive: {other:?}"),
            ),
        }
        match (num("p50_ns"), num("p99_ns")) {
            (Some(p50), Some(p99)) if p50 <= p99 => {}
            other => strict(
                &mut v,
                name,
                format!("p50/p99 missing or inverted: {other:?}"),
            ),
        }
        match num("cache_hit_rate") {
            Some(r) if (0.0..=1.0).contains(&r) => {}
            other => strict(
                &mut v,
                name,
                format!("cache_hit_rate not a rate: {other:?}"),
            ),
        }
    }
    match doc.get("warm_over_cold_throughput").and_then(Json::as_f64) {
        Some(r) if r >= 1.0 => {}
        Some(r) => strict(
            &mut v,
            "warm_over_cold_throughput",
            format!("warm leg slower than cold ({r:.3}x) — caching amortizes nothing"),
        ),
        None => strict(&mut v, "warm_over_cold_throughput", "field missing".into()),
    }
    v
}

/// One `BENCH_history.jsonl` line for a serve run: git revision, the
/// `meta` block verbatim, both legs verbatim, and the warm/cold ratio.
/// Distinguished from `bench_vm` lines by `"bench": "serve"`.
pub fn serve_history_line(doc: &Json, rev: &str, unix_secs: u64) -> String {
    format!(
        "{{\"rev\": \"{}\", \"unix_secs\": {unix_secs}, \"bench\": \"serve\", \"meta\": {}, \
         \"legs\": {}, \"warm_over_cold_throughput\": {}}}",
        rev.replace('"', ""),
        render_json(doc.get("meta").unwrap_or(&Json::Null)),
        render_json(doc.get("legs").unwrap_or(&Json::Null)),
        render_json(doc.get("warm_over_cold_throughput").unwrap_or(&Json::Null)),
    )
}

/// Returns `doc` with every number stored under a `*wall_ns` key
/// multiplied by `factor` — the artificial-regression hook behind
/// `bench_check --inject-wall`, used by CI to prove the gate trips.
pub fn inject_wall(doc: Json, factor: f64) -> Json {
    fn walk(j: Json, factor: f64, under_wall: bool) -> Json {
        match j {
            Json::Num(n) if under_wall => Json::Num(n * factor),
            Json::Arr(items) => Json::Arr(
                items
                    .into_iter()
                    .map(|i| walk(i, factor, under_wall))
                    .collect(),
            ),
            Json::Obj(members) => Json::Obj(
                members
                    .into_iter()
                    .map(|(k, val)| {
                        let wall = k.ends_with("wall_ns");
                        (k, walk(val, factor, wall))
                    })
                    .collect(),
            ),
            other => other,
        }
    }
    walk(doc, factor, false)
}

/// One `BENCH_history.jsonl` line for this run: the git revision, the
/// run's `meta` block verbatim, and the compact per-kernel figures
/// worth trending (wall and work units per backend, fused speedups,
/// rescued fractions). Single-line JSON, parseable by
/// [`lip_obs::json::Json::parse`].
pub fn history_line(doc: &Json, rev: &str, unix_secs: u64) -> String {
    fn num(j: &Json, k: &str) -> String {
        j.get(k)
            .and_then(Json::as_f64)
            .map(|n| {
                if n.fract() == 0.0 {
                    format!("{n:.0}")
                } else {
                    format!("{n:.3}")
                }
            })
            .unwrap_or("null".into())
    }
    let mut out = format!(
        "{{\"rev\": \"{}\", \"unix_secs\": {unix_secs}, \"meta\": ",
        rev.replace('"', "")
    );
    out.push_str(&render_json(doc.get("meta").unwrap_or(&Json::Null)));
    out.push_str(", \"kernels\": [");
    let mut first = true;
    for (block, fields) in [
        (
            "results",
            &["wall_ns", "work_units", "speedup_vs_treewalk"][..],
        ),
        (
            "fused_results",
            &["fused_wall_ns", "speedup_vs_unfused"][..],
        ),
        (
            "reduction_results",
            &["simd_wall_ns", "speedup_vs_boxed"][..],
        ),
        (
            "fission_results",
            &["rescued_fraction", "speedup_vs_sequential"][..],
        ),
    ] {
        for e in doc.get(block).and_then(Json::as_arr).unwrap_or(&[]).iter() {
            if !std::mem::take(&mut first) {
                out.push_str(", ");
            }
            let backend = e
                .get("backend")
                .and_then(Json::as_str)
                .map(|b| format!(", \"backend\": \"{b}\""))
                .unwrap_or_default();
            out.push_str(&format!(
                "{{\"block\": \"{block}\", \"kernel\": \"{}\"{backend}",
                e.get("kernel").and_then(Json::as_str).unwrap_or("?")
            ));
            for f in fields {
                out.push_str(&format!(", \"{f}\": {}", num(e, f)));
            }
            out.push('}');
        }
    }
    out.push_str("]}");
    out
}

/// Re-renders a parsed value as compact JSON (used for the `meta`
/// block in history lines).
fn render_json(j: &Json) -> String {
    match j {
        Json::Null => "null".into(),
        Json::Bool(b) => b.to_string(),
        Json::Num(n) => {
            if n.fract() == 0.0 && n.abs() < 9e15 {
                format!("{n:.0}")
            } else {
                format!("{n}")
            }
        }
        Json::Str(s) => format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\"")),
        Json::Arr(items) => format!(
            "[{}]",
            items.iter().map(render_json).collect::<Vec<_>>().join(", ")
        ),
        Json::Obj(members) => format!(
            "{{{}}}",
            members
                .iter()
                .map(|(k, val)| format!("\"{k}\": {}", render_json(val)))
                .collect::<Vec<_>>()
                .join(", ")
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc() -> Json {
        Json::parse(
            r#"{
              "meta": {"schema_version": 4, "nthreads": 1, "fission": true},
              "results": [
                {"kernel": "stencil", "backend": "bytecode", "wall_ns": 100000.0, "work_units": 19459, "speedup_vs_treewalk": 2.5}
              ],
              "fused_results": [
                {"kernel": "stencil", "unfused_wall_ns": 100000.0, "fused_wall_ns": 80000.0, "speedup_vs_unfused": 1.25, "ops_unfused": 24, "ops_fused": 14}
              ],
              "reduction_results": [
                {"kernel": "merge_int_add", "elems": 65536, "op": "add", "ty": "int", "boxed_wall_ns": 800000.0, "simd_wall_ns": 100000.0, "speedup_vs_boxed": 8.0}
              ],
              "pred_results": [
                {"kernel": "solvh", "backend": "compiled", "wall_ns": 170000.0, "verdict": "pass", "passed_stage": 1, "failed_stage": null},
                {"kernel": "hoist_indirect", "backend": "compiled", "wall_ns": 300.0, "verdict": "fail", "passed_stage": null, "failed_stage": 0}
              ],
              "fission_results": [
                {"kernel": "hoist_indirect", "fragments": 2, "parallel_fragments": 1, "rescued_units": 13312, "loop_units": 26627, "rescued_fraction": 0.500, "fissioned_wall_ns": 350000000.0, "sequential_wall_ns": 640000000.0}
              ]
            }"#,
        )
        .expect("test doc parses")
    }

    #[test]
    fn identical_runs_pass_clean() {
        let d = doc();
        assert!(compare(&d, &d, &Tolerances::default()).is_empty());
    }

    #[test]
    fn injected_wall_regression_trips_the_band() {
        let d = doc();
        let slow = inject_wall(d.clone(), 1.30);
        let v = compare(&slow, &d, &Tolerances::default());
        assert!(!v.is_empty());
        assert!(v.iter().all(|x| !x.strict), "{v:?}");
        assert!(v.iter().any(|x| x.what.contains("stencil")));
        // …and stays clean under a band wide enough for the injection.
        let wide = Tolerances {
            wall_tol: 0.50,
            ..Tolerances::default()
        };
        assert!(compare(&slow, &d, &wide).is_empty());
    }

    #[test]
    fn tiny_walls_are_not_band_checked() {
        let d = doc();
        let slow = inject_wall(d.clone(), 1.30);
        let v = compare(&slow, &d, &Tolerances::default());
        // hoist_indirect/compiled (300 ns) is below the floor.
        assert!(v
            .iter()
            .all(|x| !x.what.contains("pred_results hoist_indirect")));
    }

    #[test]
    fn reduction_merge_rows_are_gated() {
        let base = doc();
        // A slower flat merge trips the wall band…
        let slow = inject_wall(base.clone(), 1.30);
        let v = compare(&slow, &base, &Tolerances::default());
        assert!(v
            .iter()
            .any(|x| !x.strict && x.what.contains("merge_int_add")));
        // …and changing the measured shape is a strict violation.
        let mut cur = doc();
        if let Json::Obj(members) = &mut cur {
            let block = members
                .iter_mut()
                .find(|(k, _)| k == "reduction_results")
                .unwrap();
            if let Json::Arr(rows) = &mut block.1 {
                if let Json::Obj(row) = &mut rows[0] {
                    row.iter_mut().find(|(k, _)| k == "elems").unwrap().1 = Json::Num(16.0);
                }
            }
        }
        let v = compare(&cur, &base, &Tolerances::default());
        assert!(v.iter().any(|x| x.strict && x.detail.contains("elems")));
    }

    #[test]
    fn work_unit_drift_is_strict() {
        let base = doc();
        let mut cur = doc();
        if let Json::Obj(members) = &mut cur {
            let results = members.iter_mut().find(|(k, _)| k == "results").unwrap();
            if let Json::Arr(rows) = &mut results.1 {
                if let Json::Obj(row) = &mut rows[0] {
                    row.iter_mut().find(|(k, _)| k == "work_units").unwrap().1 = Json::Num(1.0);
                }
            }
        }
        let v = compare(&cur, &base, &Tolerances::default());
        assert!(v
            .iter()
            .any(|x| x.strict && x.detail.contains("work_units")));
    }

    #[test]
    fn rescued_fraction_drop_is_strict_and_rise_is_fine() {
        let base = doc();
        let drop = Json::parse(&doc_with_fraction(0.25)).unwrap();
        let v = compare(&drop, &base, &Tolerances::default());
        assert!(v
            .iter()
            .any(|x| x.strict && x.detail.contains("rescued_fraction regressed")));
        // A higher fraction changes rescued_units too in a real run;
        // here only the fraction rises, so only the unit equality
        // (intentionally) still trips — the fraction itself must not.
        let rise = Json::parse(&doc_with_fraction(0.75)).unwrap();
        let v = compare(&rise, &base, &Tolerances::default());
        assert!(!v.iter().any(|x| x.detail.contains("regressed")));
    }

    fn doc_with_fraction(f: f64) -> String {
        format!(
            r#"{{
              "meta": {{"schema_version": 4, "nthreads": 1, "fission": true}},
              "fission_results": [
                {{"kernel": "hoist_indirect", "fragments": 2, "parallel_fragments": 1, "rescued_units": 13312, "loop_units": 26627, "rescued_fraction": {f:.3}, "fissioned_wall_ns": 350000000.0, "sequential_wall_ns": 640000000.0}}
              ]
            }}"#
        )
    }

    #[test]
    fn missing_kernel_is_strict() {
        let base = doc();
        let cur = Json::parse(r#"{"meta": {"schema_version": 4, "nthreads": 1, "fission": true}}"#)
            .unwrap();
        let v = compare(&cur, &base, &Tolerances::default());
        assert!(v.iter().any(|x| x.detail.contains("missing")));
    }

    fn serve_doc(ratio: f64) -> Json {
        Json::parse(&format!(
            r#"{{
              "meta": {{"schema_version": 1, "bench": "serve", "pool": 4, "clients": 4, "requests_per_leg": 64, "kernel_n": 64, "sample_budget_ms": 200}},
              "legs": [
                {{"leg": "cold", "requests": 64, "wall_ns": 90000000, "throughput_rps": 711.0, "p50_ns": 5000000, "p99_ns": 9000000, "cache_hit_rate": 0.0}},
                {{"leg": "warm", "requests": 64, "wall_ns": 30000000, "throughput_rps": 2133.0, "p50_ns": 1500000, "p99_ns": 4000000, "cache_hit_rate": 0.9844}}
              ],
              "warm_over_cold_throughput": {ratio:.3}
            }}"#
        ))
        .expect("serve doc parses")
    }

    #[test]
    fn well_formed_serve_report_validates() {
        assert!(validate_serve(&serve_doc(3.0)).is_empty());
    }

    #[test]
    fn serve_validation_catches_missing_legs_and_inverted_ratio() {
        let v = validate_serve(&serve_doc(0.8));
        assert!(v
            .iter()
            .any(|x| x.detail.contains("warm leg slower than cold")));
        let empty = Json::parse(r#"{"meta": {"bench": "vm"}}"#).unwrap();
        let v = validate_serve(&empty);
        assert!(v.iter().any(|x| x.what == "meta"));
        assert!(v.iter().any(|x| x.what == "cold"));
        assert!(v.iter().any(|x| x.what == "warm"));
    }

    #[test]
    fn serve_history_line_is_one_parseable_json_line() {
        let line = serve_history_line(&serve_doc(3.0), "abc1234", 1_700_000_000);
        assert!(!line.contains('\n'));
        let parsed = Json::parse(&line).expect("history line parses");
        assert_eq!(parsed.get("bench").and_then(Json::as_str), Some("serve"));
        assert_eq!(
            parsed.get("legs").and_then(Json::as_arr).map(<[Json]>::len),
            Some(2)
        );
        assert_eq!(
            parsed
                .get("warm_over_cold_throughput")
                .and_then(Json::as_f64),
            Some(3.0)
        );
    }

    #[test]
    fn history_line_is_one_parseable_json_line() {
        let line = history_line(&doc(), "abc1234", 1_700_000_000);
        assert!(!line.contains('\n'));
        let parsed = Json::parse(&line).expect("history line parses");
        assert_eq!(parsed.get("rev").unwrap().as_str(), Some("abc1234"));
        assert_eq!(
            parsed.path(&["meta", "schema_version"]).unwrap().as_u64(),
            Some(4)
        );
        assert!(!parsed.get("kernels").unwrap().as_arr().unwrap().is_empty());
    }
}
