//! Chaos engine: seeded fault campaigns against a running deployment.
//!
//! [`ChaosPlan::generate`] expands one `(profile, seed)` pair into a
//! deterministic schedule of crash/restart cycles, pairwise partitions
//! with their heals, and transient loss bursts, mirroring the seed→plan
//! design of [`crate::workload`]: a fixed number of draws per fault slot,
//! so the same seed always yields the same plan, element for element.
//!
//! The planner keeps campaigns *survivable by construction*: a crash is
//! downgraded to a loss burst when it would leave fewer than [`MIN_UP`]
//! servers alive at any instant (the paper's fault model assumes at most
//! `k − 1` of `k` replicas fail), and a node is never crashed again while
//! a previous crash/restart cycle on it is still open. The downgrade
//! consumes the slot's draws all the same, so the decision never perturbs
//! later slots.
//!
//! [`ChaosPlan::apply`] scripts the plan onto a [`ScenarioBuilder`]; the
//! trace of the resulting run can then be checked against the paper's
//! safety invariants by [`crate::oracle`].

use std::time::Duration;

use simnet::{LinkProfile, NodeId, SimRng, SimTime};

use crate::scenario::ScenarioBuilder;

/// Domain-separation constant mixed into the seed so the chaos stream is
/// independent of both the network simulator's and the workload's draws
/// for the same seed.
const CHAOS_STREAM: u64 = 0x43_48_41_4f_53; // "CHAOS"

/// Faults are injected no earlier than this (scenario time).
pub const WINDOW_START: Duration = Duration::from_secs(10);
/// Faults are injected no later than this (scenario time).
pub const WINDOW_END: Duration = Duration::from_secs(40);
/// Shortest crash → restart delay.
pub const RESTART_MIN: Duration = Duration::from_secs(5);
/// Longest crash → restart delay.
pub const RESTART_MAX: Duration = Duration::from_secs(15);
/// Shortest partition duration.
pub const PARTITION_MIN: Duration = Duration::from_secs(4);
/// Longest partition duration.
pub const PARTITION_MAX: Duration = Duration::from_secs(10);
/// Shortest loss-burst duration.
pub const BURST_MIN: Duration = Duration::from_secs(2);
/// Longest loss-burst duration.
pub const BURST_MAX: Duration = Duration::from_secs(6);
/// Survivability floor: a crash is downgraded to a burst rather than let
/// the number of live servers drop below this at any instant.
pub const MIN_UP: u32 = 2;

/// Shape of a chaos campaign: how many fault slots to draw. Everything
/// else about a campaign is a constant of this module.
#[derive(Clone, Debug, PartialEq)]
pub struct ChaosProfile {
    /// Number of fault slots to draw (some may be downgraded to bursts).
    pub faults: u32,
}

impl ChaosProfile {
    /// The default campaign: six fault slots over seconds 10–40 of the
    /// run, crash/restart cycles of 5–15 s, partitions of 4–10 s and
    /// loss bursts of 2–6 s, never dropping below two live servers.
    pub fn default_campaign() -> Self {
        ChaosProfile { faults: 6 }
    }
}

/// One scheduled fault of a [`ChaosPlan`].
#[derive(Clone, Debug, PartialEq)]
pub enum ChaosFault {
    /// Crash `node` at `at` and boot a fresh replacement at `restart_at`
    /// (which rejoins through the view-synchronous merge).
    CrashRestart {
        /// When the node fails.
        at: SimTime,
        /// The failing server.
        node: NodeId,
        /// When the replacement process boots.
        restart_at: SimTime,
    },
    /// Cut the network between `a` and `b` at `at`; heal exactly this cut
    /// (and no other) at `heal_at`.
    Partition {
        /// When the cut appears.
        at: SimTime,
        /// One side (a single isolated server in generated plans).
        a: Vec<NodeId>,
        /// The other side.
        b: Vec<NodeId>,
        /// When this cut is removed.
        heal_at: SimTime,
    },
    /// Degrade the default link profile (correlated loss burst) from `at`
    /// until `until`, then restore the normal profile.
    Burst {
        /// When the degradation starts.
        at: SimTime,
        /// When the normal profile is restored.
        until: SimTime,
    },
}

impl ChaosFault {
    /// When the fault is injected.
    pub fn at(&self) -> SimTime {
        match *self {
            ChaosFault::CrashRestart { at, .. }
            | ChaosFault::Partition { at, .. }
            | ChaosFault::Burst { at, .. } => at,
        }
    }
}

/// A fully materialized fault campaign: every crash, restart, partition,
/// heal and burst derived from one `(profile, seed)` pair.
#[derive(Clone, Debug, PartialEq)]
pub struct ChaosPlan {
    /// The profile the plan was generated from.
    pub profile: ChaosProfile,
    /// The servers the campaign targets.
    pub servers: Vec<NodeId>,
    /// The scheduled faults, in injection order.
    pub faults: Vec<ChaosFault>,
}

impl ChaosPlan {
    /// Generates the campaign against `servers`. Exactly five draws are
    /// consumed per fault slot regardless of the kind chosen or any
    /// survivability downgrade, so two plans from the same seed are
    /// identical element for element.
    ///
    /// # Panics
    ///
    /// Panics if `servers` is empty.
    pub fn generate(profile: &ChaosProfile, servers: &[NodeId], seed: u64) -> Self {
        assert!(!servers.is_empty(), "chaos needs at least one server");
        let mut rng = SimRng::seed_from_u64(seed ^ CHAOS_STREAM);
        let window = (WINDOW_END - WINDOW_START).as_secs_f64();
        let span = |min: Duration, max: Duration, u: f64| {
            Duration::from_secs_f64(
                min.as_secs_f64() + (max.as_secs_f64() - min.as_secs_f64()).max(0.0) * u,
            )
        };
        // Open crash intervals so far, for the survivability floor:
        // (node, down_from, up_again).
        let mut downtimes: Vec<(NodeId, SimTime, SimTime)> = Vec::new();
        let mut faults = Vec::with_capacity(profile.faults as usize);
        for _ in 0..profile.faults {
            // Draw schedule (always 5 draws, branches notwithstanding):
            // kind, time, target, a reserved aux draw, duration.
            let u_kind = rng.gen_f64();
            let u_time = rng.gen_f64();
            let u_target = rng.gen_f64();
            let _reserved = rng.gen_f64();
            let u_dur = rng.gen_f64();
            let at = SimTime::from_secs_f64(WINDOW_START.as_secs_f64() + window * u_time);
            let target =
                servers[((u_target * servers.len() as f64) as usize).min(servers.len() - 1)];
            if u_kind < 0.4 {
                let restart_at = at + span(RESTART_MIN, RESTART_MAX, u_dur);
                if Self::crash_is_survivable(servers.len(), &downtimes, target, at, restart_at) {
                    downtimes.push((target, at, restart_at));
                    faults.push(ChaosFault::CrashRestart {
                        at,
                        node: target,
                        restart_at,
                    });
                } else {
                    // Unsurvivable: fall through to a burst of the same
                    // length (the draws are already consumed either way).
                    faults.push(ChaosFault::Burst {
                        at,
                        until: restart_at,
                    });
                }
            } else if u_kind < 0.7 && servers.len() >= 2 {
                let rest: Vec<NodeId> = servers.iter().copied().filter(|&s| s != target).collect();
                faults.push(ChaosFault::Partition {
                    at,
                    a: vec![target],
                    b: rest,
                    heal_at: at + span(PARTITION_MIN, PARTITION_MAX, u_dur),
                });
            } else {
                faults.push(ChaosFault::Burst {
                    at,
                    until: at + span(BURST_MIN, BURST_MAX, u_dur),
                });
            }
        }
        faults.sort_by_key(|f| f.at());
        ChaosPlan {
            profile: profile.clone(),
            servers: servers.to_vec(),
            faults,
        }
    }

    /// Whether crashing `node` over `[at, restart_at)` keeps at least
    /// [`MIN_UP`] servers alive throughout and does not overlap an open
    /// crash/restart cycle on the same node.
    fn crash_is_survivable(
        total: usize,
        downtimes: &[(NodeId, SimTime, SimTime)],
        node: NodeId,
        at: SimTime,
        restart_at: SimTime,
    ) -> bool {
        let overlaps = |from: SimTime, to: SimTime| at < to && from < restart_at;
        let mut concurrent = 0u32;
        for &(other, from, to) in downtimes {
            if overlaps(from, to) {
                if other == node {
                    return false; // cycle on this node still open
                }
                concurrent += 1;
            }
        }
        // Conservative: count every overlapping downtime as simultaneous.
        total as u32 > MIN_UP + concurrent
    }

    /// Number of faults of each kind `(crash_restarts, partitions,
    /// bursts)`.
    pub fn kind_counts(&self) -> (u32, u32, u32) {
        let mut counts = (0, 0, 0);
        for fault in &self.faults {
            match fault {
                ChaosFault::CrashRestart { .. } => counts.0 += 1,
                ChaosFault::Partition { .. } => counts.1 += 1,
                ChaosFault::Burst { .. } => counts.2 += 1,
            }
        }
        counts
    }

    /// The degraded link profile used for loss bursts: `normal` plus a
    /// Gilbert–Elliott chain producing correlated drop runs (~8% average
    /// loss). The chain is tuned to stay below the failure detector's
    /// false-suspicion threshold (8 consecutive heartbeat losses): drop
    /// runs average two packets at 50% loss, so bursts stress
    /// retransmission and refill without splitting the membership — a
    /// split would be a *virtual partition* the oracle cannot excuse.
    pub fn degraded_profile(normal: &LinkProfile) -> LinkProfile {
        normal.clone().with_burst_loss(0.1, 0.5, 0.5)
    }

    /// A browned-out inter-DC profile: the WAN baseline plus the same
    /// Gilbert–Elliott correlated-loss chain as
    /// [`ChaosPlan::degraded_profile`], for per-pair link overrides
    /// ([`simnet::Simulation::set_link_overrides_at`]) so only cross-site
    /// traffic suffers.
    pub fn brownout_profile() -> LinkProfile {
        LinkProfile::wan().with_burst_loss(0.1, 0.5, 0.5)
    }

    /// Scripts the whole campaign onto `builder`. `normal` must be the
    /// builder's link profile; bursts swap in
    /// [`ChaosPlan::degraded_profile`] and swap `normal` back afterwards.
    pub fn apply(&self, builder: &mut ScenarioBuilder, normal: &LinkProfile) {
        let degraded = Self::degraded_profile(normal);
        for fault in &self.faults {
            match fault {
                ChaosFault::CrashRestart {
                    at,
                    node,
                    restart_at,
                } => {
                    builder.crash_at(*at, *node);
                    builder.restart_at(*restart_at, *node);
                }
                ChaosFault::Partition { at, a, b, heal_at } => {
                    builder.partition_at(*at, a, b);
                    builder.heal_at(*heal_at, a, b);
                }
                ChaosFault::Burst { at, until } => {
                    builder.network_at(*at, degraded.clone());
                    builder.network_at(*until, normal.clone());
                }
            }
        }
    }

    /// Renders the plan deterministically (integer microseconds only):
    /// equal plans produce byte-identical text.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let (crashes, partitions, bursts) = self.kind_counts();
        let _ = writeln!(
            out,
            "chaos plan: {} fault(s) = {crashes} crash/restart, {partitions} partition, {bursts} burst",
            self.faults.len()
        );
        for fault in &self.faults {
            match fault {
                ChaosFault::CrashRestart {
                    at,
                    node,
                    restart_at,
                } => {
                    let _ = writeln!(
                        out,
                        "  {}us crash {node} restart {}us",
                        at.as_micros(),
                        restart_at.as_micros()
                    );
                }
                ChaosFault::Partition { at, a, b, heal_at } => {
                    let side = |nodes: &[NodeId]| {
                        nodes
                            .iter()
                            .map(|n| n.0.to_string())
                            .collect::<Vec<_>>()
                            .join(",")
                    };
                    let _ = writeln!(
                        out,
                        "  {}us partition [{}]|[{}] heal {}us",
                        at.as_micros(),
                        side(a),
                        side(b),
                        heal_at.as_micros()
                    );
                }
                ChaosFault::Burst { at, until } => {
                    let _ = writeln!(
                        out,
                        "  {}us burst until {}us",
                        at.as_micros(),
                        until.as_micros()
                    );
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn servers(n: u32) -> Vec<NodeId> {
        (1..=n).map(NodeId).collect()
    }

    #[test]
    fn plans_are_reproducible_and_seed_sensitive() {
        let profile = ChaosProfile::default_campaign();
        let a = ChaosPlan::generate(&profile, &servers(4), 42);
        let b = ChaosPlan::generate(&profile, &servers(4), 42);
        assert_eq!(a, b);
        assert_eq!(a.render(), b.render());
        let c = ChaosPlan::generate(&profile, &servers(4), 43);
        assert_ne!(a, c);
    }

    #[test]
    fn plan_respects_the_profile_bounds() {
        let profile = ChaosProfile::default_campaign();
        for seed in 0..32 {
            let plan = ChaosPlan::generate(&profile, &servers(4), seed);
            assert_eq!(plan.faults.len(), 6);
            let lo = SimTime::ZERO + WINDOW_START;
            let hi = SimTime::ZERO + WINDOW_END;
            for fault in &plan.faults {
                assert!(fault.at() >= lo && fault.at() <= hi);
                match fault {
                    ChaosFault::CrashRestart { at, restart_at, .. } => {
                        let gap = restart_at.saturating_since(*at);
                        assert!(gap >= RESTART_MIN && gap <= RESTART_MAX);
                    }
                    ChaosFault::Partition { at, heal_at, a, b } => {
                        let gap = heal_at.saturating_since(*at);
                        assert!(gap >= PARTITION_MIN && gap <= PARTITION_MAX);
                        assert_eq!(a.len(), 1);
                        assert_eq!(b.len(), 3);
                        assert!(!b.contains(&a[0]));
                    }
                    ChaosFault::Burst { at, until } => {
                        assert!(*until > *at);
                    }
                }
            }
            for pair in plan.faults.windows(2) {
                assert!(pair[0].at() <= pair[1].at(), "faults must be time-ordered");
            }
        }
    }

    #[test]
    fn crashes_never_drop_below_the_floor() {
        // With only two servers and a floor of MIN_UP = 2, every crash
        // slot must be downgraded: no CrashRestart may survive planning.
        let profile = ChaosProfile::default_campaign();
        for seed in 0..64 {
            let plan = ChaosPlan::generate(&profile, &servers(2), seed);
            let (crashes, _, _) = plan.kind_counts();
            assert_eq!(crashes, 0, "seed {seed} crashed below the floor");
        }
        // With four servers at most two may ever be down at once.
        for seed in 0..64 {
            let plan = ChaosPlan::generate(&profile, &servers(4), seed);
            let cycles: Vec<(SimTime, SimTime)> = plan
                .faults
                .iter()
                .filter_map(|f| match f {
                    ChaosFault::CrashRestart { at, restart_at, .. } => Some((*at, *restart_at)),
                    _ => None,
                })
                .collect();
            // Max simultaneous downtime is reached at some interval start:
            // count how many cycles contain each start instant.
            for &(start, _) in &cycles {
                let down = cycles
                    .iter()
                    .filter(|&&(b0, b1)| b0 <= start && start < b1)
                    .count();
                assert!(down <= 2, "seed {seed}: three servers down at once");
            }
        }
    }

    #[test]
    fn degraded_profile_adds_burst_loss() {
        let normal = LinkProfile::lan();
        let degraded = ChaosPlan::degraded_profile(&normal);
        assert!(degraded.burst.is_some());
        assert_eq!(normal.burst, None);
    }
}
