//! Self-tests of the benchmark: its estimators on synthetic samples, its
//! determinism checks on real (cut-down) runs, and its output against
//! `BENCHMARK.json`. They use `--quick`: one pass over a tenth of the runs.

use std::collections::BTreeSet;
use std::time::Duration;

use ftvod_benchmark::bench::{run_traced, run_untraced, Options};
use ftvod_benchmark::compare::{compare, judge, Verdict};
use ftvod_benchmark::harness::{pass, run_sliced};
use ftvod_benchmark::json::Json;
use ftvod_benchmark::metrics::{def, manifest, Tier, METRICS};
use ftvod_benchmark::runs::{check, fold, prepare, Instrument, RunKind};
use ftvod_benchmark::spans::Spans;
use ftvod_benchmark::stats::{quantile, supports_quantile, tail_quantile, unit_min_sum};
use ftvod_benchmark::traced::traced_pass;
use ftvod_benchmark::workloads::Workload;

fn quick(workload: Workload) -> Options {
    Options {
        workload,
        seed: 0,
        seconds: 1.0,
        quick: true,
    }
}

fn digest_sliced(kind: RunKind, seed: u64, slice: Option<Duration>) -> u64 {
    let mut run = prepare(kind, seed, Instrument::default());
    run_sliced(&mut run, slice, |_, _, _| {});
    fold(&run, &check(&run)).digest
}

#[test]
fn sliced_run_until_matches_one_unsliced_call() {
    for (kind, seed) in [
        (RunKind::Fig4Lan, 3),
        (RunKind::Fig5Wan, 3),
        (RunKind::Chaos, 2),
        (RunKind::MultiDc, 1),
    ] {
        let whole = digest_sliced(kind, seed, None);
        for ms in [1000, 4000, 333] {
            assert_eq!(
                whole,
                digest_sliced(kind, seed, Some(Duration::from_millis(ms))),
                "{kind:?} seed {seed} in {ms} ms slices"
            );
        }
    }
}

#[test]
fn digests_are_equal_across_passes_and_under_tracing() {
    for workload in [Workload::ChaosOracle, Workload::PaperFigs] {
        let runs = workload.runs(0, true);
        let first = pass(workload, &runs, true, Instrument::default());
        let second = pass(workload, &runs, true, Instrument::default());
        assert_eq!(first.digest(), second.digest(), "{}", workload.name());
        assert_eq!(first.outcomes, second.outcomes, "{}", workload.name());
        let traced = traced_pass(workload, &runs, true, &mut Spans::new());
        assert_eq!(
            first.digest(),
            traced.pass.digest(),
            "{}: profiling and slicing must be passive",
            workload.name()
        );
        // Another seed is another input.
        let other = pass(
            workload,
            &workload.runs(1, true),
            true,
            Instrument::default(),
        );
        assert_ne!(first.digest(), other.digest(), "{}", workload.name());
    }
}

#[test]
fn quantile_rule_needs_ten_samples_beyond() {
    let samples: Vec<f64> = (1..=200).map(f64::from).collect();
    assert_eq!(quantile(&samples, 0.5), Some(100.0));
    assert_eq!(quantile(&samples, 0.95), Some(190.0));
    assert_eq!(quantile(&samples, 1.0), Some(200.0));
    assert_eq!(quantile(&[], 0.5), None);
    // p95 of 200 samples is rank 190: exactly ten lie beyond it.
    assert!(supports_quantile(200, 0.95));
    assert!(!supports_quantile(199, 0.95));
    assert!(supports_quantile(20, 0.5));
    assert!(!supports_quantile(19, 0.5));
    assert!(!supports_quantile(0, 0.5));
    assert_eq!(tail_quantile(&samples, 0.95), Some(190.0));
    assert_eq!(tail_quantile(&samples[..199], 0.95), None);
    // Order of arrival does not matter.
    let mut shuffled = samples.clone();
    shuffled.reverse();
    shuffled.swap(3, 77);
    assert_eq!(quantile(&shuffled, 0.95), Some(190.0));
}

#[test]
fn unit_min_takes_each_units_fastest_pass() {
    // Noise only adds: a slow stretch in one pass must not reach the sum
    // as long as another pass ran that unit undisturbed.
    let truth = [100u64, 200, 300, 400];
    let passes = vec![
        vec![100, 950, 300, 400],
        vec![180, 200, 300, 1400],
        vec![100, 200, 900, 400],
    ];
    assert_eq!(unit_min_sum(&passes), truth.iter().sum::<u64>());
    // The whole-pass minimum is worse than the per-unit minimum.
    let best_pass: u64 = passes.iter().map(|p| p.iter().sum()).min().unwrap();
    assert!(best_pass > unit_min_sum(&passes));
    assert_eq!(unit_min_sum(&[]), 0);
    assert_eq!(unit_min_sum(&[vec![7, 8]]), 15);
}

fn is_name(text: &str) -> bool {
    !text.is_empty()
        && text.len() <= 64
        && text.as_bytes()[0].is_ascii_alphanumeric()
        && text
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || b"_.-".contains(&b))
}

#[test]
fn the_table_fits_the_driver_contract() {
    let mut seen = BTreeSet::new();
    for d in METRICS {
        assert!(is_name(d.name), "{}", d.name);
        assert!(seen.insert(d.name), "{} is defined twice", d.name);
        assert!(
            !d.unit.is_empty()
                && d.unit.len() <= 16
                && d.unit
                    .bytes()
                    .all(|b| b.is_ascii_alphanumeric() || b"_/%.-".contains(&b)),
            "{}: unit {}",
            d.name,
            d.unit
        );
        assert!((0.0..=0.25).contains(&d.bound), "{}", d.name);
        if d.tier == Tier::EndToEnd {
            assert!(d.bound > 0.0, "{} needs a bound", d.name);
        }
    }
    let gated = |tier| METRICS.iter().filter(|d| d.tier == tier).count();
    assert!((1..=16).contains(&gated(Tier::EndToEnd)));
    assert!((1..=128).contains(&gated(Tier::PerLayer)));
    let setup = def("setup_s").expect("setup_s is required");
    assert_eq!((setup.unit, setup.tier), ("s", Tier::EndToEnd));
    for w in Workload::ALL {
        assert!(is_name(w.name()));
        assert!(
            w.why().len() <= 200 && !w.why().contains('\n'),
            "{}",
            w.name()
        );
    }
}

#[test]
fn benchmark_json_is_the_manifest_of_this_build() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let on_disk = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
    assert_eq!(
        on_disk,
        manifest(),
        "regenerate with `ftvod-benchmark manifest > BENCHMARK.json`"
    );
    assert!(on_disk.len() <= 64 * 1024);
    let doc = Json::parse(&on_disk).expect("BENCHMARK.json parses");
    let keys: Vec<&str> = doc
        .as_object()
        .expect("an object")
        .keys()
        .map(String::as_str)
        .collect();
    assert_eq!(
        keys,
        [
            "command",
            "end_to_end",
            "paths",
            "per_layer",
            "run_seconds",
            "workloads"
        ]
    );
}

/// The metric names `BENCHMARK.json` lists under `key`.
fn listed(key: &str) -> BTreeSet<String> {
    let doc = Json::parse(&manifest()).expect("the manifest parses");
    let Some(Json::Array(rows)) = doc.get(key) else {
        panic!("no {key} in the manifest");
    };
    rows.iter()
        .map(|row| row.get("name").and_then(Json::as_str).unwrap().to_owned())
        .collect()
}

/// The `metrics` of a driver line as `(name, unit)`, after checking the
/// line has exactly the four keys of the contract.
fn driver_metrics(line: &str) -> BTreeSet<(String, String)> {
    let doc = Json::parse(line).expect("the driver line parses");
    let keys: Vec<&String> = doc.as_object().unwrap().keys().collect();
    assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
    assert!(doc.get("attempted").and_then(Json::as_f64).unwrap() >= 1.0);
    doc.get("metrics")
        .and_then(Json::as_object)
        .unwrap()
        .iter()
        .map(|(name, entry)| {
            let value = entry.get("value").and_then(Json::as_f64);
            assert!(value.is_some_and(f64::is_finite), "{name} has no value");
            let unit = entry.get("unit").and_then(Json::as_str).unwrap();
            assert_eq!(unit, def(name).unwrap().unit);
            (name.clone(), unit.to_owned())
        })
        .collect()
}

#[test]
fn every_listed_metric_is_printed_on_every_workload() {
    for workload in Workload::ALL {
        let result = run_untraced(quick(workload));
        assert!(result.correct, "{}: {:?}", workload.name(), result.notes);
        assert_eq!(result.failed, 0);
        assert_eq!(result.missing(), Vec::<&str>::new(), "{}", workload.name());
        let printed: BTreeSet<String> = driver_metrics(&result.render_driver_line())
            .into_iter()
            .map(|(name, _)| name)
            .collect();
        assert_eq!(printed, listed("end_to_end"), "{}", workload.name());
        // End-to-end metrics the driver gates on are never zero.
        for v in &result.values.0 {
            if v.def.tier == Tier::EndToEnd {
                assert!(v.value > 0.0, "{} on {}", v.def.name, workload.name());
            }
        }
        // The table names every value and the out line carries them all.
        let text = result.render_text();
        let out = Json::parse(&result.render_out_line()).expect("the out line parses");
        for v in &result.values.0 {
            assert!(text.contains(v.def.name));
            assert!(out.get("metrics").unwrap().get(v.def.name).is_some());
        }

        let (traced, spans) = run_traced(quick(workload));
        assert!(traced.correct, "{}: {:?}", workload.name(), traced.notes);
        assert_eq!(traced.missing(), Vec::<&str>::new(), "{}", workload.name());
        assert_eq!(traced.digest, result.digest, "{}", workload.name());
        let printed: BTreeSet<String> = driver_metrics(&traced.render_driver_line())
            .into_iter()
            .map(|(name, _)| name)
            .collect();
        assert_eq!(printed, listed("per_layer"), "{}", workload.name());
        let trace = Json::parse(&spans.to_chrome_json()).expect("the trace file parses");
        let Some(Json::Array(events)) = trace.get("traceEvents") else {
            panic!("no traceEvents");
        };
        assert!(events.len() > spans.all().len());
        assert!(spans.all().iter().any(|s| s.name == "VodSim::run_until"
            && s.events.is_some_and(|n| n > 0)
            && s.parent.is_some()));
    }
}

#[test]
fn a_metric_without_samples_is_omitted_not_zero() {
    let steady = run_untraced(quick(Workload::SteadyFleet));
    for absent in ["takeover_p50_s", "takeover_p95_s", "oracle_fail_units"] {
        assert_eq!(steady.values.get(absent), None, "{absent} on steady_fleet");
    }
    // The ~120 sessions that start in the first 16 s cannot carry a p95
    // (it needs 200).
    assert_eq!(steady.values.get("ttff_p95_s"), None);
    assert!(steady.values.get("ttff_p50_s").is_some());

    let (traced, _) = run_traced(quick(Workload::SteadyFleet));
    for absent in [
        "oracle.busy_ms",
        "oracle.fail_runs",
        "trace.record_overhead_share",
        "gcs.views_installed",
        "server.takeover_resume_p50_s",
        "paper.takeover_err",
    ] {
        assert_eq!(traced.values.get(absent), None, "{absent} on steady_fleet");
    }
    assert!(traced.values.get("simnet.scale_exponent").is_some());
    // A count of things that did not happen is a true zero and stays.
    assert_eq!(traced.values.get("trace.events_recorded"), Some(0.0));

    let figs = run_untraced(quick(Workload::PaperFigs));
    assert!(figs.values.get("takeover_p50_s").is_some());
    let (figs_traced, _) = run_traced(quick(Workload::PaperFigs));
    assert!(figs_traced.values.get("paper.takeover_err").is_some());
    assert_eq!(figs_traced.values.get("simnet.scale_exponent"), None);
}

#[test]
fn compare_judges_under_the_bounds() {
    let wall = def("wall_s").unwrap();
    let verdict = |d, a: &[f64], b: &[f64]| judge(d, a, b).unwrap();
    assert_eq!(wall.bound, 0.2);
    assert_eq!(verdict(wall, &[10.0], &[11.9]).verdict, Verdict::Same);
    assert_eq!(verdict(wall, &[10.0], &[12.1]).verdict, Verdict::Worse);
    assert!(verdict(wall, &[10.0], &[12.1]).regression);
    assert_eq!(verdict(wall, &[10.0], &[7.0]).verdict, Verdict::Better);
    // Runs that spread wider than the bound hide a small difference.
    let noisy = [6.0, 8.0, 10.0, 12.0, 14.0];
    assert_eq!(verdict(wall, &noisy, &[10.5]).verdict, Verdict::Unresolved);
    assert_eq!(verdict(wall, &noisy, &[20.0]).verdict, Verdict::Worse);

    // setup_s has an absolute floor of 0.05 s on top of its 25 %.
    let setup = def("setup_s").unwrap();
    assert_eq!(verdict(setup, &[0.002], &[0.02]).verdict, Verdict::Same);
    assert_eq!(verdict(setup, &[0.002], &[0.06]).verdict, Verdict::Worse);

    // Simulated time must be equal to be the same.
    let takeover = def("takeover_p50_s").unwrap();
    assert_eq!(verdict(takeover, &[0.35], &[0.35]).verdict, Verdict::Same);
    let slower = verdict(takeover, &[0.35], &[0.36]);
    assert_eq!((slower.verdict, slower.regression), (Verdict::Worse, false));
    assert!(verdict(takeover, &[0.35], &[0.40]).regression);
    assert_eq!(verdict(takeover, &[0.35], &[0.30]).verdict, Verdict::Better);
    // Higher is better for the shares.
    let shown = def("displayed_share").unwrap();
    assert_eq!(verdict(shown, &[0.98], &[0.99]).verdict, Verdict::Better);
    assert!(verdict(shown, &[0.98], &[0.90]).regression);
}

#[test]
fn compare_reads_what_out_writes() {
    let a = run_untraced(quick(Workload::PaperFigs)).render_out_line();
    let (table, regression) = compare(&a, &a).expect("the lines parse");
    assert!(!regression);
    assert!(table.contains("counters_digest"));
    for name in ["ttff_p50_s", "takeover_p50_s", "displayed_share", "wall_s"] {
        let line = table.lines().find(|l| l.contains(name)).expect(name);
        assert!(line.ends_with("same"), "{line}");
    }
    // A different seed is a different input: the digests differ.
    let mut other = quick(Workload::PaperFigs);
    other.seed = 1;
    let b = run_untraced(other).render_out_line();
    let (table, _) = compare(&a, &b).expect("the lines parse");
    assert!(table
        .lines()
        .any(|l| l.contains("counters_digest") && l.ends_with("differs")));
    assert!(compare("{", &a).is_err());
}
