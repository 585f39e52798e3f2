//! Flash-crowd integration: the predictive placement policy plus the
//! prefix-cache tier must beat the reactive baseline end to end on a
//! real fleet run — fewer unserved client-seconds, an earlier first
//! bring-up of the shocked movie, prefix transmissions actually
//! happening and handing off, and every oracle invariant green.

use ftvod_core::campaign::{self, Outcome};
use ftvod_core::oracle::summary_token;
use ftvod_core::{PolicyKind, VodEvent};

const SEED: u64 = 42;

struct FlashRun {
    outcome: Outcome,
    prefix_serve_events: usize,
    prefix_handoff_events: usize,
    /// Prefix serves and handoffs summed from the servers' own counters.
    server_prefix_counts: (u64, u64),
    render: String,
}

fn run_flash(policy: PolicyKind, prefix: bool) -> FlashRun {
    let wired = campaign::flash(policy, prefix, SEED);
    let mut sim = wired.builder.build();
    sim.run_until(wired.end);
    let outcome = wired.judge(&sim);
    let count = |wanted: fn(&VodEvent) -> bool| {
        sim.trace()
            .with_recorder(|rec| rec.events().filter(|(_, e)| wanted(e)).count())
            .expect("recording on")
    };
    let render = format!("{}\n{}", outcome.fleet.render(), outcome.run);
    let server_prefix_counts = wired
        .plan
        .profile
        .server_nodes()
        .into_iter()
        .filter_map(|node| sim.server_stats(node))
        .fold((0, 0), |(serves, handoffs), stats| {
            (
                serves + stats.prefix_serves.total(),
                handoffs + stats.prefix_handoffs.total(),
            )
        });
    FlashRun {
        server_prefix_counts,
        prefix_serve_events: count(|e| matches!(e, VodEvent::PrefixServe { .. })),
        prefix_handoff_events: count(|e| matches!(e, VodEvent::PrefixHandoff { .. })),
        outcome,
        render,
    }
}

#[test]
fn predictive_with_prefix_cache_dominates_reactive_on_the_flash_crowd() {
    let reactive = run_flash(PolicyKind::Reactive, false);
    let predictive = run_flash(PolicyKind::Predictive, true);

    // Safety first: every invariant, including prefix-handoff-complete,
    // holds for both runs.
    let (r, p) = (&reactive.outcome, &predictive.outcome);
    assert_eq!(summary_token(&r.oracle), "PASS", "reactive run unsafe");
    assert_eq!(summary_token(&p.oracle), "PASS", "predictive run unsafe");

    // The headline: strictly fewer unserved client-seconds and a
    // strictly earlier first bring-up of the shocked movie.
    assert!(
        p.fleet.unserved_seconds < r.fleet.unserved_seconds,
        "predictive+prefix must cut unserved time: {:.3}s vs reactive {:.3}s",
        p.fleet.unserved_seconds,
        r.fleet.unserved_seconds
    );
    let (p_first, r_first) = (
        p.first_tail_bringup.expect("predictive reacted"),
        r.first_tail_bringup.expect("reactive reacted"),
    );
    assert!(
        p_first < r_first,
        "predictive must bring up the shocked movie earlier: {p_first} vs {r_first}"
    );

    // The prefix tier actually carried load: serve + handoff events in
    // the trace, mirrored in the run report's attribution.
    assert!(predictive.prefix_serve_events > 0, "no prefix serves");
    assert!(predictive.prefix_handoff_events > 0, "no prefix handoffs");
    assert_eq!(p.run.prefix_serves, predictive.prefix_serve_events as u64);
    assert_eq!(
        p.run.prefix_handoffs,
        predictive.prefix_handoff_events as u64
    );
    assert!(
        p.run.prefix_seconds_avoided > 0.0,
        "prefix serving should be credited with avoided waiting time"
    );
    // The servers' own counters agree with the trace.
    assert_eq!(
        predictive.server_prefix_counts,
        (p.run.prefix_serves, p.run.prefix_handoffs)
    );

    // The reactive baseline, with no prefix cache configured, must not
    // fabricate prefix activity.
    assert_eq!(reactive.prefix_serve_events, 0);
    assert_eq!(r.run.prefix_serves, 0);

    // Both placement policies keep every client served eventually.
    assert_eq!(p.fleet.never_served, 0);
    assert_eq!(r.fleet.never_served, 0);

    // The report breaks down bring-ups by trigger: the predictive run's
    // bring-ups credit the forecast.
    let forecast_bringups = p.run.bringup_triggers.get("forecast").copied().unwrap_or(0);
    assert!(
        forecast_bringups > 0,
        "predictive bring-ups must be attributed to the forecast trigger: {:?}",
        p.run.bringup_triggers
    );
}

#[test]
fn the_flash_crowd_run_is_byte_deterministic() {
    let a = run_flash(PolicyKind::Predictive, true);
    let b = run_flash(PolicyKind::Predictive, true);
    assert_eq!(
        a.render, b.render,
        "double run must render byte-identically"
    );
    assert_eq!(a.outcome.oracle, b.outcome.oracle);
    assert_eq!(a.prefix_serve_events, b.prefix_serve_events);
}
