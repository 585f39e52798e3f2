//! Hot-path cost accounting for the simulation event loop.
//!
//! [`SimProfile`] counts what the scheduler actually does — events
//! dispatched per kind, messages routed, timer-queue operations, peak
//! queue depth — and attributes the wall-clock time spent inside the
//! dispatch loop. Profiling is off by default and costs nothing until
//! [`Simulation::enable_profiling`](crate::Simulation::enable_profiling)
//! is called: every update in the engine is gated on the profile's
//! presence, so a run without profiling executes the exact same
//! instructions as before the feature existed.
//!
//! # Determinism contract
//!
//! All counters are pure functions of the event sequence: two runs with
//! the same seed produce byte-identical counter values. The only
//! non-deterministic field is [`SimProfile::dispatch_ns`], which is
//! measured host wall-clock and varies run to run. Consumers that need
//! reproducible output (the perf regression gate) must exclude it.

/// Deterministic counters plus wall-clock for the simulation hot path.
///
/// Obtained from [`Simulation::profile`](crate::Simulation::profile)
/// after [`Simulation::enable_profiling`](crate::Simulation::enable_profiling).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SimProfile {
    /// `Deliver` events dispatched (including those dropped because the
    /// destination node was dead — the scheduler still paid for them).
    pub deliver_events: u64,
    /// Timer events that reached a live process handler.
    pub timer_fired: u64,
    /// Timer events squashed at pop because they had been cancelled.
    pub timer_squashed: u64,
    /// Timer events discarded because their node was crashed or absent.
    pub timer_dead: u64,
    /// `Start` events dispatched (boots and post-crash restarts).
    pub start_events: u64,
    /// `Crash` events dispatched.
    pub crash_events: u64,
    /// `Partition` events dispatched.
    pub partition_events: u64,
    /// `Heal` events dispatched (two empty sides heal every cut).
    pub heal_events: u64,
    /// Link-profile change events dispatched: default-profile
    /// replacements and per-link override installs and removals.
    pub profile_change_events: u64,
    /// Datagrams submitted to the network router (before loss/partition
    /// decisions).
    pub msgs_routed: u64,
    /// `SetTimer` effects applied.
    pub timers_set: u64,
    /// `CancelTimer` effects applied.
    pub timers_cancelled: u64,
    /// High-water mark of the event-queue length.
    pub peak_queue_depth: u64,
    /// Host wall-clock nanoseconds spent inside the dispatch loop.
    ///
    /// The single non-deterministic field: everything else on this struct
    /// is reproducible from the seed.
    pub dispatch_ns: u64,
}

impl SimProfile {
    /// Total events dispatched, across every kind.
    pub fn events_total(&self) -> u64 {
        self.deliver_events
            + self.timer_fired
            + self.timer_squashed
            + self.timer_dead
            + self.start_events
            + self.crash_events
            + self.partition_events
            + self.heal_events
            + self.profile_change_events
    }

    /// The deterministic counters as stable `(name, value)` pairs, in a
    /// fixed order suitable for tables and serialized reports.
    /// `dispatch_ns` is deliberately excluded: it is wall-clock.
    pub fn counters(&self) -> Vec<(&'static str, u64)> {
        vec![
            ("deliver_events", self.deliver_events),
            ("timer_fired", self.timer_fired),
            ("timer_squashed", self.timer_squashed),
            ("timer_dead", self.timer_dead),
            ("start_events", self.start_events),
            ("crash_events", self.crash_events),
            ("partition_events", self.partition_events),
            ("heal_events", self.heal_events),
            ("profile_change_events", self.profile_change_events),
            ("msgs_routed", self.msgs_routed),
            ("timers_set", self.timers_set),
            ("timers_cancelled", self.timers_cancelled),
            ("peak_queue_depth", self.peak_queue_depth),
            ("events_total", self.events_total()),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_total_sums_every_kind() {
        let p = SimProfile {
            deliver_events: 1,
            timer_fired: 2,
            timer_squashed: 3,
            timer_dead: 4,
            start_events: 5,
            crash_events: 6,
            partition_events: 7,
            heal_events: 8,
            profile_change_events: 9,
            ..SimProfile::default()
        };
        assert_eq!(p.events_total(), 45);
    }

    #[test]
    fn counters_exclude_wall_clock() {
        let p = SimProfile {
            dispatch_ns: 123_456,
            ..SimProfile::default()
        };
        assert!(p.counters().iter().all(|(name, _)| *name != "dispatch_ns"));
    }
}
