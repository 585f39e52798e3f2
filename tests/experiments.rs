//! The figure gate: every row of `ftvod_core::experiments` runs, renders
//! exactly what `tests/golden/experiments.txt` pins (the file
//! `scripts/golden.sh` compares `ftvod-cli experiment all` with) and
//! reaches the verdict recorded for it — so `cargo test` enforces the
//! paper's bands, and a change that moves a figure has to re-bless the
//! golden file and say why.

use ftvod::vod::experiments::{run, TABLE};

#[test]
fn every_experiment_renders_the_golden_file_and_meets_its_expectations() {
    let report = run(TABLE);
    for row in TABLE {
        assert!(
            report.checks().iter().any(|c| c.experiment == row.id),
            "{} made no check",
            row.id
        );
    }
    assert!(report.gate().is_ok(), "{}", report.summary());

    let golden = include_str!("golden/experiments.txt");
    let first_difference = report
        .text()
        .lines()
        .zip(golden.lines())
        .position(|(ours, pinned)| ours != pinned)
        .unwrap_or_else(|| report.text().lines().count().min(golden.lines().count()));
    assert!(
        report.text() == golden,
        "rendering differs from tests/golden/experiments.txt at line {}:\n  now:    {:?}\n  golden: {:?}\n\
         (sh scripts/golden.sh --bless regenerates it; say why in the PR)",
        first_difference + 1,
        report.text().lines().nth(first_difference),
        golden.lines().nth(first_difference),
    );
}
