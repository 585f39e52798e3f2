//! Integration tests for the observability subsystem: the determinism
//! contract (tracing never perturbs the simulation), byte-identical
//! exports across same-seed runs, and end-to-end report correlation on
//! the paper's LAN crash scenario.

use std::time::Duration;

use ftvod_core::metrics::Histogram;
use ftvod_core::oracle::{summary_token, OracleConfig, OracleReport};
use ftvod_core::protocol::{ClientId, VcrCmd};
use ftvod_core::scenario::{presets, ScenarioBuilder};
use ftvod_core::trace::DEFAULT_EVENT_CAPACITY;
use media::{FrameNo, Movie, MovieId, MovieSpec};
use proptest::prelude::*;
use simnet::{LinkProfile, NodeId, SimTime};

const END: SimTime = SimTime::from_secs(92);
const SERVERS: [NodeId; 3] = [NodeId(1), NodeId(2), NodeId(3)];

/// Same seed, recording enabled in both runs: the exported JSONL streams
/// must be byte-identical (satellite 3a). This is what makes a trace file
/// a reproducible artifact rather than a log.
#[test]
fn same_seed_jsonl_is_byte_identical() {
    let mut exports = Vec::new();
    for _ in 0..2 {
        let (mut builder, _, _) = presets::fig4_lan(11);
        builder.record_events(DEFAULT_EVENT_CAPACITY);
        let mut sim = builder.build();
        sim.run_until(END);
        exports.push(sim.events_jsonl().expect("recording enabled"));
    }
    assert!(!exports[0].is_empty(), "scenario produced no events");
    assert_eq!(exports[0], exports[1], "same-seed exports diverged");
}

/// The zero-cost guarantee, proven end to end: running the Fig-4 LAN
/// scenario with the recorder installed yields bit-identical client and
/// server statistics to running it without. Tracing is strictly passive —
/// it touches no RNG draw, timer, or send.
#[test]
fn tracer_does_not_perturb_simulation() {
    let run = |record: bool| {
        let (mut builder, _, _) = presets::fig4_lan(42);
        if record {
            builder.record_events(DEFAULT_EVENT_CAPACITY);
        }
        let mut sim = builder.build();
        sim.run_until(END);
        let client = sim.client_stats(ClientId(1)).expect("client exists");
        let servers: Vec<_> = SERVERS.iter().map(|&n| sim.server_stats(n)).collect();
        (client, servers)
    };
    let traced = run(true);
    let plain = run(false);
    assert_eq!(traced.0, plain.0, "client stats diverged under tracing");
    assert_eq!(traced.1, plain.1, "server stats diverged under tracing");
}

/// The Fig-4 LAN crash produces a takeover the report can fully explain:
/// a crash-triggered ownership change with a positive view-change phase
/// and a positive resume phase whose sum is the total interruption.
#[test]
fn lan_crash_report_breaks_down_takeover_latency() {
    let (mut builder, crash_at, _) = presets::fig4_lan(42);
    builder.record_events(DEFAULT_EVENT_CAPACITY);
    let mut sim = builder.build();
    sim.run_until(END);

    let report = sim.report().expect("recording enabled");
    let crash_takeover = report
        .takeovers
        .iter()
        .find(|t| t.trigger == "crash")
        .expect("crash takeover correlated");

    assert_eq!(crash_takeover.client, ClientId(1));
    assert!(
        (crash_takeover.triggered_s - crash_at.as_secs_f64()).abs() < 1e-6,
        "takeover trigger should be the scripted crash time"
    );
    assert!(
        crash_takeover.view_change_s > 0.0,
        "view change took no time"
    );
    assert!(crash_takeover.resume_s >= 0.0);
    assert!(
        (crash_takeover.view_change_s + crash_takeover.resume_s - crash_takeover.total_s).abs()
            < 1e-9,
        "breakdown phases must sum to the total"
    );
    // The paper's headline: takeover is sub-second on a LAN, invisible to
    // a human observer.
    assert!(
        crash_takeover.total_s < 5.0,
        "LAN takeover unreasonably slow: {:.3}s",
        crash_takeover.total_s
    );
    assert!(
        report.views_installed > 0 && report.events_seen > 0,
        "report should have consumed GCS and network events"
    );
}

/// Every layer shows up in the JSONL export: network, GCS membership,
/// server session management, and client playback each contribute at
/// least one event kind on the crash scenario.
#[test]
fn jsonl_covers_all_layers() {
    let (mut builder, _, _) = presets::fig4_lan(42);
    builder.record_events(DEFAULT_EVENT_CAPACITY);
    let mut sim = builder.build();
    sim.run_until(END);
    let jsonl = sim.events_jsonl().expect("recording enabled");

    for needle in [
        "\"ev\":\"net_delivered\"",   // network layer
        "\"ev\":\"node_crashed\"",    // fault injection
        "\"ev\":\"view_installed\"",  // GCS membership
        "\"ev\":\"session_started\"", // server layer
        "\"ev\":\"open_requested\"",  // client layer
        "\"ev\":\"band_changed\"",    // flow control
    ] {
        assert!(jsonl.contains(needle), "export missing {needle}");
    }
    for line in jsonl.lines() {
        assert!(
            line.starts_with("{\"t_us\":") && line.ends_with('}'),
            "malformed JSONL line: {line}"
        );
    }
}

/// FNV-1a, 64 bit: a checksum of an export, to pin it without its bytes.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// One scripted session issues all six VCR commands — `SetQuality` both
/// ways, which no golden reaches — and its whole trace is pinned: the
/// checksum was taken before the client's decisions became a plain value
/// (`client/session.rs`), so any change in what the client does, or in
/// the order it does it, shows here. It was re-taken when the ring stopped
/// keeping sends and control deliveries: the old export less those lines.
#[test]
fn every_vcr_command_keeps_the_trace_byte_identical() {
    let c1 = ClientId(1);
    let movie = Movie::generate(
        MovieId(1),
        &MovieSpec::paper_default().with_duration(Duration::from_secs(60)),
    );
    let mut builder = ScenarioBuilder::new(26);
    builder
        .network(LinkProfile::lan())
        .movie(movie, &SERVERS[..2])
        .server(SERVERS[0])
        .server(SERVERS[1])
        .client(c1, NodeId(100), MovieId(1), SimTime::from_secs(2))
        .record_events(DEFAULT_EVENT_CAPACITY);
    for (at, cmd) in [
        (8, VcrCmd::Pause),
        (11, VcrCmd::Resume),
        (14, VcrCmd::SetQuality(15)),
        (18, VcrCmd::SetSpeed(150)),
        (22, VcrCmd::Seek(FrameNo(1200))),
        (26, VcrCmd::SetQuality(30)),
        (30, VcrCmd::Stop),
    ] {
        builder.vcr_at(SimTime::from_secs(at), c1, cmd);
    }
    let mut sim = builder.build();
    sim.run_until(SimTime::from_secs(34));
    let jsonl = sim.events_jsonl().expect("recording enabled");
    let issued = jsonl.matches("\"ev\":\"vcr\"").count();
    assert_eq!(issued, 7, "every scripted command is traced");
    assert_eq!((jsonl.len(), jsonl.lines().count()), (110_049, 1_169));
    assert_eq!(fnv1a(jsonl.as_bytes()), 0xe174_f8f3_0491_8804);
}

/// The trace's end comes from the network's clock of its last send or
/// delivery, which the recorder is not handed. Here the owner crashes and
/// the run stops before the takeover, at a tick: the last kept event (a
/// heartbeat dropped at the dead node) is 100 ms before the last datagram
/// sent, and the oracle's verdict on the repair names where the trace
/// ends. Every value below is the one the recorder computed when it was
/// handed every send and every control delivery.
#[test]
fn sends_after_the_last_kept_event_end_the_trace() {
    let movie = Movie::generate(
        MovieId(1),
        &MovieSpec::paper_default().with_duration(Duration::from_secs(60)),
    );
    let mut builder = ScenarioBuilder::new(26);
    builder
        .network(LinkProfile::lan())
        .movie(movie, &SERVERS[..2])
        .server(SERVERS[0])
        .server(SERVERS[1])
        .client(ClientId(1), NodeId(100), MovieId(1), SimTime::from_secs(2))
        .crash_at(SimTime::from_secs(30), SERVERS[1])
        .record_events(DEFAULT_EVENT_CAPACITY);
    let mut sim = builder.build();
    sim.run_until(SimTime::from_millis(30_300));
    let (latest, last_kept, oracle) = sim
        .trace()
        .with_recorder(|rec| {
            let last_kept = rec.events().last().map(|(at, _)| at);
            let oracle = OracleReport::check(rec, &OracleConfig::paper_default());
            (rec.latest_at(), last_kept, oracle)
        })
        .expect("recording enabled");
    assert_eq!(last_kept, Some(SimTime::from_micros(30_200_433)));
    assert_eq!(latest, SimTime::from_micros(30_300_000));
    let report = sim.report().expect("recording enabled");
    assert_eq!(report.events_seen, 1_045);
    let verdicts = oracle
        .verdicts()
        .map(|(name, verdict)| format!("{name}={verdict:?}"));
    let repair = "re-served-after-fault=Inconclusive(\"trace ends 9700000us before \
                  c1's repair deadline (n2 crash at 30000000us)\")";
    assert_eq!(verdicts[3], repair);
    assert_eq!(summary_token(&oracle), "PASS");
    let json = report.to_json();
    assert_eq!(
        (json.len(), fnv1a(json.as_bytes())),
        (821, 0x39db_21e8_b576_7928)
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Satellite 3b: histogram quantiles are monotone in `q` and bounded
    /// by the observed min/max, for arbitrary finite samples.
    #[test]
    fn histogram_quantiles_are_monotone_and_bounded(
        samples in prop::collection::vec(0.0f64..10_000.0, 1..200),
        qs in prop::collection::vec(0.0f64..=1.0, 2..20),
    ) {
        let mut hist = Histogram::new();
        for &s in &samples {
            hist.record(s);
        }
        let min = hist.min().unwrap();
        let max = hist.max().unwrap();

        let mut sorted_qs = qs;
        sorted_qs.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let mut prev = f64::NEG_INFINITY;
        for &q in &sorted_qs {
            let v = hist.quantile(q).unwrap();
            prop_assert!(v >= prev, "quantile not monotone: q={q} v={v} prev={prev}");
            prop_assert!(v >= min, "q={q} v={v} below min={min}");
            prop_assert!(v <= max, "q={q} v={v} above max={max}");
            prev = v;
        }
    }
}
