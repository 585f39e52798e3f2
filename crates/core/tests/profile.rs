//! Integration tests for the self-profiling subsystem: the trace ring
//! buffer's overflow accounting, the determinism contract on profile
//! counters (same seed, same counters, byte for byte), and the
//! zero-perturbation guarantee (profiling never changes what the
//! simulation computes).

use std::collections::BTreeMap;

use ftvod_core::campaign::{self, CHAOS_FAULTS, CHAOS_SYNC};
use ftvod_core::protocol::ClientId;
use ftvod_core::scenario::{presets, ScenarioBuilder};
use simnet::{NodeId, SimTime};

const END: SimTime = SimTime::from_secs(92);
const SERVERS: [NodeId; 3] = [NodeId(1), NodeId(2), NodeId(3)];

/// A capacity far below the Fig-4 event volume, forcing eviction.
const TINY_CAPACITY: usize = 64;

/// When the ring buffer overflows, eviction is accounted deterministically:
/// two same-seed runs drop the same number of events and retain the same
/// window, byte for byte.
#[test]
fn ring_buffer_overflow_accounting_is_deterministic() {
    let run = || {
        let (mut builder, _, _) = presets::fig4_lan(42);
        builder.record_events(TINY_CAPACITY);
        let mut sim = builder.build();
        sim.run_until(END);
        let (len, capacity, dropped) = sim
            .trace()
            .with_recorder(|rec| (rec.len(), rec.capacity(), rec.dropped()))
            .expect("recording enabled");
        let jsonl = sim.events_jsonl().expect("recording enabled");
        (len, capacity, dropped, jsonl)
    };
    let (len, capacity, dropped, jsonl) = run();
    assert_eq!(capacity, TINY_CAPACITY);
    assert_eq!(len, TINY_CAPACITY, "buffer should be full");
    assert!(
        dropped > 0,
        "scenario should overflow a {TINY_CAPACITY}-slot buffer"
    );
    assert_eq!(
        jsonl.lines().count(),
        TINY_CAPACITY,
        "JSONL is the retained window"
    );

    let (len2, _, dropped2, jsonl2) = run();
    assert_eq!(len, len2, "retained count diverged across same-seed runs");
    assert_eq!(
        dropped, dropped2,
        "drop accounting diverged across same-seed runs"
    );
    assert_eq!(
        jsonl, jsonl2,
        "retained window diverged across same-seed runs"
    );
}

/// Builds `builder` with cost profiling on, runs it to `end` and returns
/// the deterministic side of its profile report.
fn profiled_counters(mut builder: ScenarioBuilder, end: SimTime) -> BTreeMap<String, u64> {
    builder.profile_costs();
    let mut sim = builder.build();
    sim.run_until(end);
    sim.profile_report().expect("profiling enabled").counters
}

/// The profile counter table — scheduler event counts, span counts,
/// network totals — is identical across repeated same-seed runs, on the
/// paper's LAN failover and on a multi-fault chaos campaign (two
/// crash/restart cycles and four loss bursts, built as `prop_chaos.rs`
/// builds it). Only the wall-clock side of the report may vary.
#[test]
fn profile_counters_are_deterministic_across_runs() {
    assert_deterministic("fig4_lan", || {
        profiled_counters(presets::fig4_lan(42).0, END)
    });
    assert_deterministic("chaos seed 1", || {
        let (wired, _) = campaign::chaos(8, CHAOS_FAULTS, CHAOS_SYNC, 1);
        profiled_counters(wired.builder, SimTime::from_secs(45))
    });
}

/// Runs `counters` twice: the run must have crashed a server, installed
/// views and played frames, and the two tables must be equal.
fn assert_deterministic(name: &str, counters: impl Fn() -> BTreeMap<String, u64>) {
    let first = counters();
    let count = |key: &str| first.get(key).copied().unwrap_or(0);
    assert!(
        count("sched.events_total") > 0,
        "{name}: scheduler dispatched no events"
    );
    assert!(
        count("span.client.playback.count") > 0,
        "{name}: client playback recorded no spans"
    );
    assert!(
        count("span.gcs.view_change.count") > 0,
        "{name}: the crash installed no views"
    );
    assert!(count("sched.crash_events") > 0, "{name}: nothing crashed");
    assert_eq!(
        first,
        counters(),
        "{name}: counters diverged across same-seed runs"
    );
}

/// The zero-overhead-when-off contract's other half: when profiling is
/// on, it is strictly passive. Client and server statistics are
/// bit-identical with and without profiling — no RNG draw, timer, or
/// message depends on it.
#[test]
fn profiling_does_not_perturb_simulation() {
    let run = |profiled: bool| {
        let (mut builder, _, _) = presets::fig4_lan(42);
        if profiled {
            builder.profile_costs();
        }
        let mut sim = builder.build();
        sim.run_until(END);
        let client = sim.client_stats(ClientId(1)).expect("client exists");
        let servers: Vec<_> = SERVERS.iter().map(|&n| sim.server_stats(n)).collect();
        (client, servers)
    };
    let profiled = run(true);
    let plain = run(false);
    assert_eq!(profiled.0, plain.0, "client stats diverged under profiling");
    assert_eq!(profiled.1, plain.1, "server stats diverged under profiling");
}

/// Disabled profiling stays disabled: no report, handle reports off. This is the configuration every non-perf run uses, so it
/// must never silently flip on.
#[test]
fn profiling_is_off_by_default() {
    let (builder, _, _) = presets::fig4_lan(42);
    let mut sim = builder.build();
    sim.run_until(SimTime::from_secs(10));
    assert!(!sim.profile().is_enabled());
    assert!(sim.profile_report().is_none());
}
