//! `bench_check --a FILE… --b FILE… [--counts-only]` compares two sets
//! of `bench_e2e` runs under the metrics `BENCHMARK.json` (read from
//! the working directory) lists. A FILE is captured `bench_e2e`
//! stdout; only its report lines (`"bench": "bench_e2e"`) are read,
//! grouped by `(workload, traced)`, paired `A[i]` : `B[i]` in file order.
//! Prints a markdown row per (workload, metric) — each side's
//! q1 / median / q3, the median's move, "B wins k of n" — end-to-end
//! first, then per-layer timings, worst relative move first; a number
//! `BENCHMARK.json` does not list gets no direction and no gate.
//! Exit 1: failed operations on B; a count-unit metric or a row's
//! `outcome` / `test_units` / `loop_units` differing between any two
//! runs (they repeat exactly, whatever the run length or core count);
//! unless `--counts-only`, a median worse than its `bound`. Exit 2:
//! usage, runs of different `seed` / `smoke`, a `(workload, traced)` on
//! one side only, a listed metric missing from a report.

use std::collections::BTreeMap;

use lip_obs::json::Json;

const USAGE: &str = "usage: bench_check --a FILE… --b FILE… [--counts-only]";
const REBASELINE: &str = "cargo run --release --manifest-path bench_e2e/Cargo.toml -- \
    --all --seed 7 --seconds 2 | grep '\"bench\": \"bench_e2e\"' > BENCH_e2e.jsonl";
/// A report's metric sections, indexed by its `traced` flag.
const SECTIONS: [&str; 2] = ["end_to_end", "per_layer"];

/// A metric as `BENCHMARK.json` lists it.
struct Metric {
    name: String,
    unit: String,
    higher: bool,
    bound: Option<f64>,
}

/// The listed metrics of each of [`SECTIONS`].
type Spec = [Vec<Metric>; 2];
/// One side's reports by `(workload, traced)`, in file order.
type Side = BTreeMap<(String, bool), Vec<Json>>;

/// What a comparison prints and what it fails on: `(table, failures)`.
type Outcome = (Vec<String>, Vec<String>);

fn parse_spec(text: &str) -> Option<Spec> {
    let doc = Json::parse(text)?;
    let metric = |m: &Json| {
        let field = |f: &str| m.get(f).and_then(Json::as_str);
        let better = field("better").filter(|b| ["lower", "higher"].contains(b))?;
        Some(Metric {
            name: field("name")?.to_owned(),
            unit: field("unit")?.to_owned(),
            higher: better == "higher",
            bound: m.get("bound").and_then(Json::as_f64),
        })
    };
    let section =
        |key: &str| -> Option<Vec<Metric>> { doc.get(key)?.as_arr()?.iter().map(metric).collect() };
    Some([section(SECTIONS[0])?, section(SECTIONS[1])?])
}

fn load(captures: &[String]) -> Result<Side, String> {
    let mut side = Side::new();
    let is_report = |r: &Json| r.get("bench").and_then(Json::as_str) == Some("bench_e2e");
    let lines = captures.iter().flat_map(|c| c.lines());
    for report in lines.filter_map(Json::parse).filter(is_report) {
        let workload = report.get("workload").and_then(Json::as_str);
        let key = workload.zip(report.get("traced").and_then(Json::as_bool));
        let (w, traced) = key.ok_or("a report line without `workload` / `traced`")?;
        side.entry((w.to_owned(), traced)).or_default().push(report);
    }
    let none = "no bench_e2e report line in a side's files";
    (!side.is_empty()).then_some(side).ok_or(none.into())
}

/// `[q1, median, q3]`, linearly interpolated; `v` is not empty.
fn quartiles(mut v: Vec<f64>) -> [f64; 3] {
    v.sort_by(f64::total_cmp);
    [0.25, 0.5, 0.75].map(|p| {
        let pos = p * (v.len() - 1) as f64;
        let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
        v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
    })
}

/// The first row two reports differ in, on what repeats exactly.
fn row_drift(base: &Json, other: &Json) -> Option<String> {
    let [x, y] = [base, other].map(|r| r.get("rows").and_then(Json::as_arr).unwrap_or(&[]));
    let key = |r: &Json| ["name", "outcome", "test_units", "loop_units"].map(|f| r.get(f).cloned());
    let i = (0..x.len().max(y.len())).find(|&i| x.get(i).map(key) != y.get(i).map(key))?;
    let name = x.get(i).or(y.get(i))?.get("name").and_then(Json::as_str);
    Some(name.unwrap_or("?").to_owned())
}

fn compare(spec: &Spec, a: &Side, b: &Side, counts_only: bool) -> Result<Outcome, String> {
    let one_sided = |k: &&(String, bool)| !(a.contains_key(*k) && b.contains_key(*k));
    if let Some((w, t)) = a.keys().chain(b.keys()).find(one_sided) {
        return Err(format!("({w}, traced {t}) has reports on one side only"));
    }
    // (worse by, row): end-to-end rows stay first, in report order.
    let (mut rows, mut failures): (Vec<(f64, String)>, Vec<String>) = (Vec::new(), Vec::new());
    for (key @ (w, traced), ra) in a {
        let (rb, section, listed) = (&b[key], SECTIONS[*traced as usize], &spec[*traced as usize]);
        let all = || ra.iter().chain(rb);
        let tag = if *traced { " (traced)" } else { "" };
        let mut fail = |what: String| failures.push(format!("{w}{tag} {what}"));
        let meta = |r: &Json, field: &str| r.path(&["meta", field]).cloned();
        let same = |field: &str| all().all(|r| meta(r, field) == meta(&ra[0], field));
        if !(same("seed") && same("smoke")) {
            return Err(format!("{w}: runs differ in `seed` or `smoke`"));
        }
        let absent = |m: &&Metric| all().any(|r| r.path(&[section, &m.name]).is_none());
        if let Some(m) = listed.iter().find(absent) {
            return Err(format!("{w}: a `{section}` report lacks `{}`", m.name));
        }
        let clean = |r: &Json| meta(r, "ops_failed") == Some(Json::Num(0.0));
        if !rb.iter().all(clean) {
            fail("has failed operations on B".into());
        }
        if let Some(row) = all().find_map(|r| row_drift(&ra[0], r)) {
            fail(format!("row `{row}`: outcome or test / loop units differ"));
        }
        for (name, shown) in ra[0].get(section).and_then(Json::as_obj).unwrap_or(&[]) {
            let m = listed.iter().find(|m| m.name == *name);
            let unit = m.map_or(shown.get("unit").and_then(Json::as_str), |m| Some(&m.unit));
            let value = |r: &Json| r.path(&[section, name, "value"]).and_then(Json::as_f64);
            if unit == Some("count") {
                if let Some(now) = all().map(value).find(|now| *now != value(&ra[0])) {
                    fail(format!("`{name}`: {:?} became {now:?}", value(&ra[0])));
                }
                continue;
            }
            let nums = |runs: &[Json]| runs.iter().map(value).collect::<Option<Vec<f64>>>();
            let (Some(va), Some(vb)) = (nums(ra), nums(rb)) else {
                continue; // `null` in a run: the workload has nothing for this metric
            };
            // +1: a larger value is worse; 0: no direction listed.
            let sign = m.map_or(0.0, |m| if m.higher { -1.0 } else { 1.0 });
            let better = |(x, y): &(&f64, &f64)| sign * (*y - *x) < 0.0;
            let wins = va.iter().zip(&vb).filter(better).count();
            let wins = m.map_or("-".into(), |_| format!("{wins}/{}", va.len().min(vb.len())));
            let (qa @ [_, ma, _], qb @ [_, mb, _]) = (quartiles(va), quartiles(vb));
            let delta = if ma == mb { 0.0 } else { mb / ma - 1.0 };
            let text = |q: [f64; 3]| format!("{:.4} / {:.4} / {:.4}", q[0], q[1], q[2]);
            let (unit, qa, qb, pct) = (unit.unwrap_or("?"), text(qa), text(qb), 100.0 * delta);
            let row = format!("| {w} | `{name}` ({unit}) | {qa} | {qb} | {pct:+.1} % | {wins} |");
            rows.push((if *traced { sign * delta } else { f64::INFINITY }, row));
            let bound = m.and_then(|m| m.bound).filter(|_| !counts_only);
            if let Some(bound) = bound.filter(|bound| sign * delta > *bound) {
                fail(format!("`{name}`: median {pct:+.1} %, bound {bound}"));
            }
        }
    }
    rows.sort_by(|x, y| y.0.total_cmp(&x.0));
    Ok((rows.into_iter().map(|(_, row)| row).collect(), failures))
}

fn parse_args(args: impl Iterator<Item = String>) -> Result<([Vec<String>; 2], bool), String> {
    let (mut files, mut side, mut counts_only) = ([vec![], vec![]], None, false);
    for arg in args {
        match (arg.as_str(), side) {
            ("--a", _) => side = Some(0),
            ("--b", _) => side = Some(1),
            ("--counts-only", _) => (counts_only, side) = (true, None),
            (file, Some(i)) if !file.starts_with("--") => files[i].push(arg),
            _ => return Err(format!("unexpected argument `{arg}`\n{USAGE}")),
        }
    }
    let complete = files.iter().all(|side| !side.is_empty());
    complete.then_some((files, counts_only)).ok_or(USAGE.into())
}

fn run() -> Result<Outcome, String> {
    let ([a, b], counts_only) = parse_args(std::env::args().skip(1))?;
    let read = |p: &String| std::fs::read_to_string(p).map_err(|e| format!("reading {p}: {e}"));
    let spec = read(&"BENCHMARK.json".into())?;
    let spec = parse_spec(&spec).ok_or("BENCHMARK.json: not two lists of metrics")?;
    let side = |files: &[String]| load(&files.iter().map(read).collect::<Result<Vec<_>, _>>()?);
    compare(&spec, &side(&a)?, &side(&b)?, counts_only)
}

fn main() {
    let (table, failures) = run().unwrap_or_else(|e| {
        eprintln!("bench_check: {e}");
        std::process::exit(2)
    });
    println!("| workload | metric | A q1 / median / q3 | B q1 / median / q3 | median Δ | B wins |");
    println!("|---|---|---|---|---|---|");
    table.iter().for_each(|row| println!("{row}"));
    if failures.is_empty() {
        return println!("OK: no failed operation, no count or row drift, no gated regression");
    }
    failures.iter().for_each(|f| eprintln!("FAIL: {f}"));
    eprintln!("if the drift is intended, regenerate the committed baseline:\n  {REBASELINE}");
    std::process::exit(1);
}

#[cfg(test)]
mod tests {
    use super::*;

    const SPEC: &str = r#"{"end_to_end": [
        {"name": "op_ms_geomean", "unit": "ms", "better": "lower", "bound": 0.25},
        {"name": "ops_per_s", "unit": "1/s", "better": "higher", "bound": 0.25}],
      "per_layer": [{"name": "vm.ops_fused", "unit": "count", "better": "lower"},
        {"name": "vm.compile_us", "unit": "us", "better": "lower"},
        {"name": "vm.peephole_us", "unit": "us", "better": "lower"}]}"#;
    /// One captured run: table and contract lines around two reports.
    const CAPTURE: &str = r#"== hot_small (untraced) seed <seed> nproc 2
op_ms_geomean                              <op_ms> ms
{"bench": "bench_e2e", "workload": "hot_small", "traced": false, "meta": {"seed": <seed>, "smoke": <smoke>, "ops_failed": <failed>}, "end_to_end": {"op_ms_geomean": {"value": <op_ms>, "unit": "ms"}, "ops_per_s": {"value": <ops_per_s>, "unit": "1/s"}, "pass.ops_per_s": {"value": <pass_ops>, "unit": "1/s"}}, "per_layer": {}, "rows": [{"name": "stencil", "outcome": "static_parallel", "test_units": <test_units>, "loop_units": 4866}]}
{"correct": true, "attempted": 9, "failed": <failed>, "metrics": {"op_ms_geomean": {"value": <op_ms>, "unit": "ms"}}}
{"bench": "bench_e2e", "workload": "hot_small", "traced": true, "meta": {"seed": <seed>, "smoke": <smoke>, "ops_failed": 0}, "end_to_end": {}, "per_layer": {"vm.ops_fused": {"value": <fused>, "unit": "count"}, "vm.compile_us": {"value": <compile_us>, "unit": "us"}, "vm.peephole_us": {"value": <peephole_us>, "unit": "us"}, "serve.p99_us": {"value": null, "unit": "us"}}, "rows": []}"#;
    const DEFAULTS: &str = "seed=7 smoke=false failed=0 op_ms=1.0 ops_per_s=100.0 pass_ops=50.0 \
        test_units=12 fused=280 compile_us=4.0 peephole_us=2.0";

    /// [`CAPTURE`] with `sets` (`"op_ms=1.3 fused=281"`) over [`DEFAULTS`].
    fn capture(sets: &str) -> String {
        let fill = |text: String, set: &str| {
            let (key, value) = set.split_once('=').unwrap();
            assert!(DEFAULTS.contains(&format!("{key}=")), "no <{key}>");
            text.replace(&format!("<{key}>"), value)
        };
        let sets = sets.split_whitespace().chain(DEFAULTS.split_whitespace());
        sets.fold(CAPTURE.to_owned(), fill)
    }

    fn check(spec: &str, a: &[String], b: &[String], counts_only: bool) -> Result<Outcome, String> {
        let spec = parse_spec(spec).unwrap();
        compare(&spec, &load(a)?, &load(b)?, counts_only)
    }

    /// What one run with `sets` fails on against the default run.
    fn fails(sets: &str, counts_only: bool) -> String {
        let out = check(SPEC, &[capture("")], &[capture(sets)], counts_only);
        out.unwrap().1.join("\n")
    }

    #[test]
    fn identical_sides_pass_and_an_unlisted_number_is_shown_ungated() {
        let runs = [capture(""), capture("")];
        let (table, failures) = check(SPEC, &runs, &runs, false).unwrap();
        // Report lines only; no row for the count and the `null`.
        assert_eq!((table.len(), failures.len()), (5, 0), "{failures:?}");
        let (table, failures) = check(SPEC, &runs[..1], &[capture("pass_ops=1")], false).unwrap();
        assert!(table[2].starts_with("| hot_small | `pass.ops_per_s` (1/s) |"));
        assert!(table[2].ends_with("| -98.0 % | - |") && failures.is_empty());
    }

    #[test]
    fn a_median_past_its_bound_trips_naming_workload_and_metric() {
        let slower = "hot_small `op_ms_geomean`: median +30.0 %, bound 0.25";
        assert_eq!(fails("op_ms=1.3", false), slower);
        assert_eq!(fails("op_ms=1.3", true), "", "--counts-only");
        // `ops_per_s` is judged in its `higher` direction.
        assert!(fails("ops_per_s=70", false).contains("`ops_per_s`: median -30.0 %"));
        assert_eq!(fails("ops_per_s=130", false), "");
        // Within the bound, an improvement, an ungated layer timing.
        assert_eq!(fails("op_ms=1.2 ops_per_s=80 compile_us=40", false), "");
        assert_eq!(fails("op_ms=0.1 ops_per_s=900", false), "");
    }

    #[test]
    fn count_drift_row_drift_and_failed_operations_trip_even_counts_only() {
        assert!(fails("fused=281", true).starts_with("hot_small (traced) `vm.ops_fused`"));
        assert!(fails("test_units=13", true).starts_with("hot_small row `stencil`"));
        assert!(fails("failed=1", true).ends_with("failed operations on B"));
    }

    #[test]
    fn runs_that_cannot_be_paired_are_usage_errors() {
        let err = |spec: &str, b: String| check(spec, &[capture("")], &[b], true).unwrap_err();
        assert!(err(SPEC, capture("seed=8")).contains("`seed` or `smoke`"));
        assert!(err(SPEC, capture("smoke=true")).contains("`seed` or `smoke`"));
        let untraced = capture("").replace("\"traced\": true", "\"traced\": false");
        assert!(err(SPEC, untraced).contains("traced true) has reports on one side"));
        let renamed = SPEC.replace("vm.compile_us", "vm.lower_us");
        assert!(err(&renamed, capture("")).contains("lacks `vm.lower_us`"));
    }

    #[test]
    fn quartiles_wins_and_worst_layer_first_over_several_runs() {
        let a = [1, 2, 3, 4].map(|ms| capture(&format!("op_ms={ms}")));
        let b = [1, 1, 2, 6].map(|ms| capture(&format!("op_ms={ms} compile_us=4.4 peephole_us=3")));
        let (table, _) = check(SPEC, &a, &b, false).unwrap();
        let row = "| hot_small | `op_ms_geomean` (ms) | 1.7500 / 2.5000 / 3.2500 | \
            1.0000 / 1.5000 / 3.0000 | -40.0 % | 2/4 |";
        assert_eq!(table[0], row);
        // +50 % before +10 %, against report order.
        assert!(table[3].contains("vm.peephole_us") && table[4].contains("vm.compile_us"));
    }

    #[test]
    fn the_committed_baseline_reports_every_listed_metric() {
        let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../../");
        let read = |file: &str| std::fs::read_to_string(format!("{root}{file}")).unwrap();
        let runs = [read("BENCH_e2e.jsonl")];
        let (_, failures) = check(&read("BENCHMARK.json"), &runs, &runs, false).unwrap();
        assert_eq!((load(&runs).unwrap().len(), failures), (10, vec![]));
    }
}
