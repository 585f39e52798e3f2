//! Property-based tests for the chaos engine's determinism contract:
//! the same seed must reproduce the exact fault plan *and* the exact
//! campaign trace, byte for byte — the replay guarantee every failing
//! seed reported by `ftvod-cli chaos` rests on.

use proptest::prelude::*;

use ftvod_core::campaign::{self, CHAOS_FAULTS, CHAOS_SYNC};
use ftvod_core::chaos::{ChaosFault, ChaosPlan, ChaosProfile, MIN_UP};
use simnet::{NodeId, SimTime};

fn server_nodes(n: u32) -> Vec<NodeId> {
    (1..=n).map(NodeId).collect()
}

/// Builds and runs a small chaos campaign (8 sessions, cut at 45 s),
/// returning the rendered plan and the full event trace as JSON Lines.
fn small_campaign(seed: u64) -> (String, String) {
    let (wired, faults) = campaign::chaos(8, CHAOS_FAULTS, CHAOS_SYNC, seed);
    let mut sim = wired.builder.build();
    sim.run_until(SimTime::from_secs(45));
    let jsonl = sim.events_jsonl().expect("recording was enabled");
    (faults.render(), jsonl)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Same seed, same servers, same profile: the generated plan must be
    /// byte-identical — fault kinds, victims, times and durations.
    #[test]
    fn chaos_plans_are_seed_deterministic(
        seed in 0u64..1_000_000,
        faults in 1u32..12,
        servers in 3u32..8,
    ) {
        let mut profile = ChaosProfile::default_campaign();
        profile.faults = faults;
        let nodes = server_nodes(servers);
        let a = ChaosPlan::generate(&profile, &nodes, seed);
        let b = ChaosPlan::generate(&profile, &nodes, seed);
        prop_assert_eq!(a.render(), b.render(), "same seed must reproduce the plan");
        prop_assert_eq!(a, b);
    }

    /// The survivability floor holds for every seed: at no instant does
    /// the plan crash the fleet below `MIN_UP` live servers.
    #[test]
    fn chaos_plans_respect_the_survivability_floor(
        seed in 0u64..1_000_000,
        faults in 1u32..12,
    ) {
        let mut profile = ChaosProfile::default_campaign();
        profile.faults = faults;
        let nodes = server_nodes(4);
        let plan = ChaosPlan::generate(&profile, &nodes, seed);
        // Sweep the crash/restart intervals: the number of concurrently
        // down servers never exceeds fleet size minus the floor.
        let downs: Vec<(SimTime, SimTime)> = plan
            .faults
            .iter()
            .filter_map(|f| match f {
                ChaosFault::CrashRestart { at, restart_at, .. } => Some((*at, *restart_at)),
                _ => None,
            })
            .collect();
        for &(start, _) in &downs {
            let concurrent = downs
                .iter()
                .filter(|&&(s, e)| s <= start && start < e)
                .count() as u32;
            prop_assert!(
                concurrent <= 4 - MIN_UP,
                "{concurrent} servers down at {start:?} violates MIN_UP={MIN_UP}"
            );
        }
    }
}

proptest! {
    // Full campaigns are costly; a handful of cases is enough to catch
    // any nondeterminism in the sim/chaos/trace pipeline.
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Same seed ⇒ byte-identical campaign: the rendered plan *and* the
    /// complete JSONL event trace of two independent runs must match.
    #[test]
    fn chaos_campaigns_are_byte_deterministic(seed in 0u64..10_000) {
        let (plan_a, trace_a) = small_campaign(seed);
        let (plan_b, trace_b) = small_campaign(seed);
        prop_assert_eq!(plan_a, plan_b, "plan must be reproducible");
        prop_assert!(trace_a == trace_b, "trace must be byte-identical");
        prop_assert!(!trace_a.is_empty());
    }
}

/// Different seeds draw different campaigns (spot check, not a law: two
/// specific seeds could collide, these do not).
#[test]
fn distinct_seeds_draw_distinct_plans() {
    let profile = ChaosProfile::default_campaign();
    let nodes = server_nodes(4);
    let a = ChaosPlan::generate(&profile, &nodes, 1);
    let b = ChaosPlan::generate(&profile, &nodes, 2);
    assert_ne!(a.render(), b.render(), "seeds 1 and 2 must differ");
}
