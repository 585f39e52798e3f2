//! The rows that move one knob the paper fixed (A1–A4, FD) or measure
//! something the paper only motivates (E1–E3).

use std::time::Duration;

use simnet::{LinkProfile, SimTime};

use super::report::say;
use super::{
    crash_runs, crash_scenario, deployment, fmt_f, mean, outage, total, viewer, Report, Run,
    CLIENT, CRASH_AT, CRASH_RUN_END,
};
use crate::client::ClientStats;
use crate::config::{ReplicationConfig, ResumePolicy, VodConfig, DEFAULT_RATE_FPS};
use crate::protocol::{ClientId, VcrCmd};
use crate::scenario::{presets, VodSim};
use crate::server::Emergency;
use crate::workload::{fleet_builder, FleetProfile, FleetReport};

/// The paper synchronizes server state every half second; the interval
/// bounds the staleness of the resume offset at takeover and therefore
/// the duplicate burst, while shorter intervals cost proportionally more
/// control bandwidth.
pub(super) fn a1_sync_interval(r: &mut Report) {
    struct Point {
        ms: u64,
        dups: f64,
        stalls: u64,
        /// Sync bytes per video byte.
        overhead: f64,
    }
    let points = [100u64, 250, 500, 1000, 2000].map(|ms| {
        let cfg = VodConfig::paper_default().with_sync_interval(Duration::from_millis(ms));
        // Average the duplicate burst over a few seeds (it depends on
        // where the crash falls inside the sync period).
        let runs = crash_runs(50..55, &LinkProfile::lan(), &cfg, 2);
        let bytes = |sim: &VodSim, class| sim.net_stats().class(class).sent_bytes as f64;
        Point {
            ms,
            dups: mean(&runs, |(_, stats)| stats.late.in_window(30.0, 40.0) as f64),
            stalls: total(&runs, |(_, stats)| stats.stalls.total()),
            overhead: mean(&runs, |(sim, _)| {
                bytes(sim, "vod-sync") / bytes(sim, "video")
            }),
        }
    });
    r.table(
        "interval\tduplicates\tstalls\tsync/video",
        points.iter().map(|p| {
            let (dups, permille) = (fmt_f(p.dups), p.overhead * 1000.0);
            format!("{}ms\t{dups}\t{}\t{permille:.3}‰", p.ms, p.stalls)
        }),
    );

    let [shortest, _, paper, _, longest] = &points;
    let (few, many) = (fmt_f(shortest.dups), fmt_f(longest.dups));
    r.check(
        "staler state ⇒ larger duplicate burst at takeover",
        "grows with the interval",
        format!("{few} → {many} dups (100ms → 2s)"),
        longest.dups > shortest.dups,
    );
    let (dear, cheap) = (shortest.overhead * 1000.0, longest.overhead * 1000.0);
    r.check(
        "shorter interval ⇒ more control bandwidth",
        "shrinks with the interval",
        format!("{dear:.3}‰ → {cheap:.3}‰"),
        shortest.overhead > longest.overhead,
    );
    r.check(
        "the paper's 500 ms point stays smooth and cheap",
        "0 stalls, ≪ 1% overhead",
        format!("{} stalls, {:.3}‰", paper.stalls, paper.overhead * 1000.0),
        paper.stalls == 0 && paper.overhead < 0.004,
    );
}

/// Sweeps (q, f) through the crash scenario (seed 6) and reports refill
/// speed, overflow discards and the peak bandwidth surplus.
pub(super) fn a2_emergency(r: &mut Report) {
    struct Point {
        q: u32,
        f: f64,
        /// Frames delivered beyond the nominal 150 (5 s × 30 fps) in the
        /// five seconds after the crash: the burst's direct signature.
        surplus_5s: u64,
        overflow: u64,
        stalls: u64,
    }
    let points = [(2u32, 0.5), (6, 0.8), (12, 0.8), (24, 0.8), (40, 0.9)].map(|(q, f)| {
        let cfg = VodConfig::paper_default().with_emergency(q, q / 2, f);
        let mut sim = crash_scenario(6, LinkProfile::lan(), cfg, 2).build();
        sim.run_until(CRASH_AT);
        let received_at_crash = viewer(&sim).frames_received;
        sim.run_until(CRASH_AT + Duration::from_secs(5));
        let received_5s = viewer(&sim).frames_received;
        sim.run_until(CRASH_RUN_END);
        let stats = viewer(&sim);
        Point {
            q,
            f,
            surplus_5s: (received_5s - received_at_crash).saturating_sub(150),
            overflow: stats.overflow.in_window(30.0, 55.0),
            stalls: stats.stalls.total(),
        }
    });
    r.table(
        "q\tf\tburst total\tsurplus in 5s\toverflow\tstalls\tpeak bw",
        points.iter().map(|p| {
            let burst = Emergency::total_for(p.f, p.q);
            let peak = 100.0 * f64::from(p.q) / 30.0;
            format!(
                "{}\t{}\t{burst}\t{}\t{}\t{}\t{peak:.0}%",
                p.q, p.f, p.surplus_5s, p.overflow, p.stalls
            )
        }),
    );

    // The q=40 row realizes a smaller surplus and fewer discards than the
    // paper's q=12: neither predicate has held at any commit that builds
    // offline. ROADMAP item 1 lists both as open evidence.
    const SINCE: &str = "PR 2 or earlier (ed41d1b, the oldest commit that builds offline)";
    let [weakest, _, paper, _, strongest] = &points;
    let surplus = [weakest, paper, strongest].map(|p| p.surplus_5s);
    r.check(
        "higher base quantity delivers a larger refill burst",
        "grows with q",
        format!(
            "{} vs {} vs {} surplus frames",
            surplus[0], surplus[1], surplus[2]
        ),
        surplus[0] <= surplus[1] && surplus[1] <= surplus[2],
    );
    r.known_deviation(SINCE);
    r.check(
        "aggressive bursts risk more overflow discards",
        "grows with q",
        format!("{} (q=12) vs {} (q=40)", paper.overflow, strongest.overflow),
        strongest.overflow >= paper.overflow,
    );
    r.known_deviation(SINCE);
    r.check(
        "the paper's q=12 point stays within 40% surplus and smooth",
        "≤ 40% peak, 0 stalls",
        format!("{:.0}% peak, {} stalls", 100.0 * 12.0 / 30.0, paper.stalls),
        paper.stalls == 0,
    );
}

/// * **Overflow policy** (D4): discard incremental frames before I
///   frames. The alternative sacrifices whatever is newest, including I
///   frames — whose loss makes a whole GOP undecodable.
/// * **Takeover resume** (D5): resume from the last synchronized offset
///   vs optimistically skipping ahead.
pub(super) fn a3_policies(r: &mut Report) {
    // Loss + jitter stresses both policies.
    let runs = |cfg: VodConfig| crash_runs(200..208, &LinkProfile::wan(), &cfg, 2);
    let paper = runs(VodConfig::paper_default());
    let naive = runs(VodConfig::paper_default().with_naive_overflow());
    let optimistic = runs(VodConfig::paper_default().with_resume(ResumePolicy::SkipAhead));
    let sum = |runs: &[Run], f: fn(&ClientStats) -> u64| total(runs, |(_, stats)| f(stats));
    let i_frames_lost = |runs| sum(runs, |s| s.i_frames_evicted);
    let overflow = |runs| sum(runs, |s| s.overflow.total());
    let skipped = |runs| sum(runs, |s| s.skipped.total());
    let late = |runs| sum(runs, |s| s.late.total());
    let stalls = |runs| sum(runs, |s| s.stalls.total());

    let d4 = |name, runs| {
        let (lost, overflow, skipped) = (i_frames_lost(runs), overflow(runs), skipped(runs));
        format!("{name}\t{lost}\t{overflow}\t{skipped}")
    };
    r.table(
        "D4 overflow policy\tI-frames lost\toverflow\tskipped",
        [
            d4("prefer incremental (paper)", &paper),
            d4("drop newest (naive)", &naive),
        ],
    );
    r.check(
        "paper policy never sacrifices an I frame",
        "0",
        i_frames_lost(&paper),
        i_frames_lost(&paper) == 0,
    );
    r.check(
        "naive policy does lose I frames under pressure",
        "> 0",
        i_frames_lost(&naive),
        i_frames_lost(&naive) > 0,
    );

    say!(r);
    let d5 = |name, runs| {
        let (late, skipped, stalls) = (late(runs), skipped(runs), stalls(runs));
        format!("{name}\t{late}\t{skipped}\t{stalls}")
    };
    r.table(
        "D5 takeover resume\tduplicates(late)\tskipped\tstalls",
        [
            d5("conservative (paper)", &paper),
            d5("skip ahead (optimistic)", &optimistic),
        ],
    );
    let (late, late_opt) = (late(&paper), late(&optimistic));
    let (skipped, skipped_opt) = (skipped(&paper), skipped(&optimistic));
    r.check(
        "conservative resume duplicates rather than skips",
        "more late, fewer skipped",
        format!("late {late} vs {late_opt}, skipped {skipped} vs {skipped_opt}"),
        late > late_opt && skipped <= skipped_opt,
    );
    // Until PR 7 the conservative resume skipped 349 frames against the
    // optimistic 453; its eight membership fixes moved the conservative
    // runs to 501. ROADMAP item 1 carries this as takeover evidence.
    r.known_deviation("PR 7 (ecfd58f)");
}

/// Runs the WAN failover scenario over the best-effort path and over the
/// same path with an ATM-style reservation, and prints the reservation
/// sizing the service would request: one CBR channel at the stream rate
/// plus a VBR channel of at most 40 % for emergency periods (§4.1).
pub(super) fn a4_qos(r: &mut Report) {
    struct Path {
        name: &'static str,
        loss_pct: f64,
        skipped: u64,
        late: u64,
        stalls: u64,
        /// Skips caused by network loss (total minus overflow discards).
        lost_frames: u64,
    }
    let path = |name, link: LinkProfile| {
        let runs = crash_runs(300..305, &link, &VodConfig::paper_default(), 2);
        let n = runs.len() as u64;
        Path {
            name,
            loss_pct: mean(&runs, |(sim, _)| {
                let video = sim.net_stats().class("video");
                100.0 * video.dropped_loss as f64 / video.sent_msgs.max(1) as f64
            }),
            skipped: total(&runs, |(_, s)| s.skipped.total()) / n,
            late: total(&runs, |(_, s)| s.late.total()) / n,
            stalls: total(&runs, |(_, s)| s.stalls.total()),
            lost_frames: total(&runs, |(_, s)| {
                s.skipped.total().saturating_sub(s.overflow.total())
            }),
        }
    };
    let best_effort = path("best effort (UDP/IP)", LinkProfile::wan());
    let reserved = path("ATM-style reservation", LinkProfile::wan_reserved());
    r.table(
        "path\tloss\tskipped\tlate\tstalls",
        [&best_effort, &reserved].map(|p| {
            format!(
                "{}\t{:.2}%\t{}\t{}\t{}",
                p.name, p.loss_pct, p.skipped, p.late, p.stalls
            )
        }),
    );

    let cfg = VodConfig::paper_default();
    let vbr_pct = 100 * cfg.emergency_base_severe / DEFAULT_RATE_FPS;
    say!(
        r,
        "reservation the service would request (paper §4.1):\n  \
         CBR channel: 1400 kbps (the stream's mean rate)\n  \
         VBR channel: up to {vbr_pct} % of CBR, carrying the decaying emergency bursts\n"
    );

    let (lost, lost_best_effort) = (reserved.lost_frames, best_effort.lost_frames);
    r.check(
        "reservation eliminates loss-induced skips",
        "0 lost frames",
        format!("{lost} lost (vs {lost_best_effort} best effort)"),
        lost == 0 && lost_best_effort > 0,
    );
    r.check(
        "remaining skips are overflow after refills, not loss",
        "overflow only",
        format!("{} skipped, {lost} from loss", reserved.skipped),
        lost == 0,
    );
    r.check(
        "failover stays smooth either way",
        "no prolonged freeze",
        format!(
            "{} vs {} stalled frames",
            reserved.stalls, best_effort.stalls
        ),
        reserved.stalls == 0,
    );
    r.check(
        "emergency VBR surplus within the paper's bound",
        "≤ 40 %",
        format!("{vbr_pct} %"),
        vbr_pct <= 40,
    );
}

/// Shorter timeouts shrink the irregularity period but, on a jittery
/// network, raise the rate of false suspicions (spurious view changes
/// that churn the membership). This sweep quantifies both sides on a
/// three-replica WAN deployment, four seeded crash runs per point.
pub(super) fn fd_timeout(r: &mut Report) {
    struct Point {
        timeout_ms: u64,
        takeover_s: f64,
        stalls: u64,
        /// Redistributions per surviving server: membership churn beyond
        /// the baseline formation + the one legitimate failure.
        churn: f64,
    }
    let points = [150u64, 250, 400, 800, 1600].map(|timeout_ms| {
        let mut cfg = VodConfig::paper_default();
        cfg.gcs = cfg
            .gcs
            .with_suspect_timeout(Duration::from_millis(timeout_ms));
        // High jitter stresses the detector: heartbeats bunch up.
        let link = LinkProfile::wan()
            .with_loss(0.02)
            .with_jitter(Duration::from_millis(60));
        // Average over seeds: jitter-driven suspicions are bursty.
        let runs = crash_runs(400..404, &link, &cfg, 3);
        let survivors = [presets::nodes::S1, presets::nodes::S2];
        let redistributions =
            |sim: &VodSim, s| sim.server_stats(s).map_or(0, |stats| stats.redistributions);
        Point {
            timeout_ms,
            takeover_s: mean(&runs, |(_, stats)| outage(stats, 29.0, 34.0)),
            stalls: total(&runs, |(_, stats)| stats.stalls.total()),
            churn: mean(&runs, |(sim, _)| {
                total(&survivors, |&s| redistributions(sim, s)) as f64 / 2.0
            }),
        }
    });
    r.table(
        "timeout\ttakeover\tstalls\tredistributions/srv",
        points.iter().map(|p| {
            let (takeover, churn) = (fmt_f(p.takeover_s), fmt_f(p.churn));
            format!("{}ms\t{takeover}s\t{}\t{churn}", p.timeout_ms, p.stalls)
        }),
    );

    let [fastest, .., slowest] = &points;
    // Corrected in PR 17. The check compared the sweep's two end points
    // (3.0 s at 150 ms vs 1.8 s at 1600 ms), but the paper's sentence is
    // about the detection time-out's contribution to a *real* takeover,
    // and the sweep is a U-curve: at 150 ms the "takeover" is dominated by
    // spurious view changes (the churn column), not by detection. The
    // sentence is judged where the detector is stable: every point whose
    // churn is the baseline's.
    let stable: Vec<&Point> = points.iter().filter(|p| p.churn <= slowest.churn).collect();
    let arm: Vec<String> = stable
        .iter()
        .map(|p| format!("{}s", fmt_f(p.takeover_s)))
        .collect();
    let (arm, from) = (arm.join(" → "), stable[0].timeout_ms);
    r.check(
        "longer timeout ⇒ longer takeover, absent false suspicions",
        "affected by the time-out",
        format!("{arm} ({from}ms → {}ms)", slowest.timeout_ms),
        stable.len() >= 3 && stable.windows(2).all(|w| w[0].takeover_s < w[1].takeover_s),
    );
    let (most, least) = (fmt_f(fastest.churn), fmt_f(slowest.churn));
    r.check(
        "shorter timeout ⇒ more membership churn on a jittery WAN",
        "monotone-ish",
        format!("{most} vs {least} redistributions/server"),
        fastest.churn >= slowest.churn,
    );
    let paper = &points[2];
    r.check(
        "the default 400 ms sits below the buffer budget",
        "sub-second takeover",
        format!("{}s", fmt_f(paper.takeover_s)),
        paper.takeover_s < 1.5,
    );
}

/// The viewer switches to 1.5× and later to 0.75× playback (seed 23);
/// the delivered frame rate must converge to the new consumption and the
/// buffers must stay between the water marks throughout.
pub(super) fn e1_speed_control(r: &mut Report) {
    let mut builder = deployment(
        23,
        LinkProfile::lan(),
        VodConfig::paper_default(),
        2,
        1,
        240,
    );
    builder
        .vcr_at(SimTime::from_secs(30), CLIENT, VcrCmd::SetSpeed(150))
        .vcr_at(SimTime::from_secs(60), CLIENT, VcrCmd::SetSpeed(75));
    let mut sim = builder.build();

    // Sample the delivered rate in 2-second windows.
    let mut csv = String::from("time_s,delivered_fps\n");
    let mut prev_received = 0u64;
    let mut rates: Vec<(u64, f64)> = Vec::new();
    for t in (2..=90u64).step_by(2) {
        sim.run_until(SimTime::from_secs(t));
        let received = viewer(&sim).frames_received;
        let rate = (received - prev_received) as f64 / 2.0;
        prev_received = received;
        rates.push((t, rate));
        csv.push_str(&format!("{t},{rate:.1}\n"));
    }
    r.artifact("ext_speed_rate.csv", csv);
    r.table(
        "t(s)\tfps\tphase\t",
        rates.iter().map(|&(t, rate)| {
            let phase = match t {
                0..=29 => "1.0x",
                30..=59 => "1.5x",
                _ => "0.75x",
            };
            let (fps, bar) = (fmt_f(rate), "#".repeat((rate / 2.0) as usize));
            format!("{t}\t{fps}\t{phase}\t{bar}")
        }),
    );

    let window_rate = |from: u64, to: u64| {
        let window: Vec<f64> = rates
            .iter()
            .filter(|&&(t, _)| t > from && t <= to)
            .map(|&(_, rate)| rate)
            .collect();
        mean(&window, |&rate| rate)
    };
    let stats = viewer(&sim);

    for (label, paper, window, band) in [
        ("steady rate at 1.0x", "≈ 30 fps", (14, 30), 27.0..33.0),
        ("steady rate at 1.5x", "≈ 45 fps", (44, 60), 40.0..50.0),
        ("steady rate at 0.75x", "≈ 22.5 fps", (74, 90), 19.0..26.0),
    ] {
        let rate = window_rate(window.0, window.1);
        let measured = format!("{} fps", fmt_f(rate));
        r.check(label, paper, measured, band.contains(&rate));
    }
    r.check(
        "no visible jitter across both steps",
        "0 stalls",
        stats.stalls.total(),
        stats.stalls.total() == 0,
    );
    let occupancy = stats.sw_occupancy.mean_in_window(44.0, 90.0);
    r.check(
        "buffers stay in a healthy band after the steps",
        "between the water marks",
        format!("mean sw {}", fmt_f(occupancy.unwrap_or(0.0))),
        occupancy.is_some_and(|m| (5.0..37.0).contains(&m)),
    );
}

/// Quantifies the load limit of one server on the simulated 100 Mbps LAN
/// (egress serialization is modeled per sender: one 1.4 Mbps stream ≈
/// 175 KB/s, a 100 Mbps NIC ≈ 12.5 MB/s ≈ 71 streams before control
/// traffic) and then shows the fix: the same client count served
/// smoothly once a second replica shares the load.
pub(super) fn e2_server_capacity(r: &mut Report) {
    const MAX_CLIENTS: u32 = 96;
    struct Load {
        clients: u32,
        starving: usize,
        row: String,
    }
    let load = |clients: u32, servers: u32, seed: u64, note: &str| {
        let cfg = VodConfig::paper_default();
        let mut sim = deployment(seed, LinkProfile::lan(), cfg, servers, clients, 90).build();
        sim.run_until(SimTime::from_secs(40));
        let viewers: Vec<ClientStats> = (1..=clients)
            .map(|c| sim.client_stats(ClientId(c)).expect("client exists"))
            .collect();
        let fps = |stats: &ClientStats| stats.frames_received as f64 / 38.0;
        // A viewer below ~27 fps sustained cannot keep a 30 fps movie
        // smooth for long.
        let starving = viewers
            .iter()
            .filter(|&stats| fps(stats) < 27.0 || stats.stalls.total() > 30)
            .count();
        let mean_fps = fmt_f(mean(&viewers, fps));
        let row = format!("{clients}\t{servers}\t{starving}\t{mean_fps}\t{note}");
        Load {
            clients,
            starving,
            row,
        }
    };
    let single: Vec<Load> = (16..=MAX_CLIENTS)
        .step_by(16)
        .map(|clients| load(clients, 1, 40 + u64::from(clients), ""))
        .collect();
    // The fix: same worst-case client count, two replicas.
    let relieved = load(MAX_CLIENTS, 2, 99, "<< second replica added");
    r.table(
        "clients\tservers\tstarving\tmean fps\t",
        single.iter().chain([&relieved]).map(|l| l.row.clone()),
    );

    let saturated = single.iter().find(|l| l.starving > 0);
    let below = single.iter().rev().find(|l| l.starving == 0);
    let (measured, near_the_limit) = match (saturated, below) {
        (Some(sat), Some(ok)) => (
            format!("smooth at {}, starving at {}", ok.clients, sat.clients),
            sat.clients > 32 && sat.clients <= 96,
        ),
        (Some(sat), None) => (format!("starving already at {}", sat.clients), false),
        (None, _) => (format!("no saturation up to {MAX_CLIENTS}"), false),
    };
    r.check(
        "a single server saturates near the NIC limit",
        "≈ 70 clients",
        measured,
        near_the_limit,
    );
    let starving = relieved.starving;
    r.check(
        "bringing up a second server restores everyone",
        "0 starving",
        format!("{starving} starving at {MAX_CLIENTS} clients with 2 replicas"),
        starving == 0,
    );
}

/// Runs the same Zipf(1.2) population (seed 7) twice — once with the
/// single-copy initial placement frozen, once with the demand-driven
/// replica manager enabled. (The wall-time half of the old
/// `ext_fleet_scale` bench is what the repo benchmark's `steady_fleet`
/// workload measures.)
pub(super) fn e3_fleet_scale(r: &mut Report) {
    let mut profile = FleetProfile::small_fleet();
    profile.servers = 6;
    profile.clients = 180;
    profile.catalog_size = 6;
    profile.zipf_exponent = 1.2;
    // Fleet-wide capacity is ample (6 * 45 = 270 slots for 180 sessions),
    // but a single-copy hot movie bottlenecks on its lone holder.
    profile.sessions_per_server = Some(45);
    let fleet = |replication: Option<ReplicationConfig>| {
        let (builder, plan) = fleet_builder(&profile, 7, replication);
        let mut sim = builder.build();
        let end = profile.run_until();
        sim.run_until(end);
        FleetReport::from_sim(&plan, &sim, end)
    };
    let fixed = fleet(None);
    let dynamic = fleet(Some(ReplicationConfig::paper_default()));
    r.table(
        "placement\tserved\tnever served\tunserved time\tp99 ttff",
        [("static", &fixed), ("dynamic", &dynamic)].map(|(name, fleet)| {
            let p99 = fleet.p99_ttff();
            format!(
                "{name}\t{}\t{}\t{:.1}s\t{}",
                fleet.served,
                fleet.never_served,
                fleet.unserved_seconds,
                p99.map_or_else(|| "-".to_owned(), |v| format!("{v:.3}s"))
            )
        }),
    );

    let (with, without) = (dynamic.unserved_seconds, fixed.unserved_seconds);
    r.check(
        "dynamic replication reduces unserved client time",
        "(extension) below static",
        format!("dynamic {with:.1}s vs static {without:.1}s"),
        with < without,
    );
}
