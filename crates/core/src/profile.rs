//! Per-subsystem cost accounting: where does simulator wall-clock go?
//!
//! PR 1's trace subsystem observes *protocol* events; this module observes
//! *cost*. A [`ProfileHandle`] is threaded through the scenario harness
//! into servers and clients (mirroring
//! [`TraceHandle`](crate::trace::TraceHandle)); the instrumented hot paths
//! open a [`SpanGuard`] around their work and the guard attributes the
//! elapsed host wall-clock to a [`Subsystem`]. Together with the
//! scheduler-level counters of [`simnet::SimProfile`] this answers "which
//! layer is the bottleneck?" — the prerequisite for the ROADMAP's ~1M
//! session scaling work.
//!
//! # Zero-overhead-when-off contract
//!
//! A disabled handle ([`ProfileHandle::disabled`]) holds `None`: opening a
//! span is a no-op that performs no clock read and no allocation, exactly
//! like the trace layer's disabled path. Profiling never touches RNG,
//! timers or messages, so enabling it cannot change simulation behaviour:
//! span/event *counts* are deterministic given the seed, and only the
//! wall-clock nanosecond fields differ between runs.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;
use std::time::Instant;

use simnet::{NetStats, SimProfile};

/// The instrumented layers of the stack, from scheduler to client.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Subsystem {
    /// The simnet dispatch loop itself (filled from
    /// [`SimProfile::dispatch_ns`], not from spans).
    SimnetScheduler,
    /// GCS view-change handling inside the server (membership events).
    GcsViewChange,
    /// The server's periodic state-synchronization work.
    ServerSync,
    /// The server's takeover/load-exchange work after failures.
    ServerTakeover,
    /// The client's display-tick playback path (decode, refill, flow
    /// control).
    ClientPlayback,
}

impl Subsystem {
    /// Every subsystem, in display order.
    pub const ALL: [Subsystem; 5] = [
        Subsystem::SimnetScheduler,
        Subsystem::GcsViewChange,
        Subsystem::ServerSync,
        Subsystem::ServerTakeover,
        Subsystem::ClientPlayback,
    ];

    /// Stable dotted name, used in reports and the benchmark's layers.
    pub fn name(self) -> &'static str {
        match self {
            Subsystem::SimnetScheduler => "simnet.scheduler",
            Subsystem::GcsViewChange => "gcs.view_change",
            Subsystem::ServerSync => "server.sync",
            Subsystem::ServerTakeover => "server.takeover",
            Subsystem::ClientPlayback => "client.playback",
        }
    }

    fn index(self) -> usize {
        match self {
            Subsystem::SimnetScheduler => 0,
            Subsystem::GcsViewChange => 1,
            Subsystem::ServerSync => 2,
            Subsystem::ServerTakeover => 3,
            Subsystem::ClientPlayback => 4,
        }
    }
}

/// Aggregate cost of one subsystem: how often it ran and for how long.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SpanStats {
    /// Number of spans recorded. Deterministic given the seed.
    pub count: u64,
    /// Total host wall-clock nanoseconds inside those spans.
    /// Non-deterministic; excluded from counter comparisons.
    pub wall_ns: u64,
}

/// The shared recorder behind a [`ProfileHandle`].
#[derive(Debug, Default)]
pub struct Profiler {
    spans: [SpanStats; 5],
}

impl Profiler {
    fn record(&mut self, sub: Subsystem, started: Instant) {
        let slot = &mut self.spans[sub.index()];
        slot.count += 1;
        slot.wall_ns += started.elapsed().as_nanos() as u64;
    }
}

/// A cheap, cloneable handle to a shared [`Profiler`] — or to nothing.
///
/// Mirrors [`TraceHandle`](crate::trace::TraceHandle): components hold one
/// by value and open spans unconditionally; when the handle is disabled
/// the span is inert.
#[derive(Clone, Debug, Default)]
pub struct ProfileHandle {
    inner: Option<Rc<RefCell<Profiler>>>,
}

impl ProfileHandle {
    /// A handle that records nothing, at no cost.
    pub fn disabled() -> Self {
        ProfileHandle { inner: None }
    }

    /// A recording handle keeping aggregate per-subsystem totals.
    pub fn enabled() -> Self {
        ProfileHandle {
            inner: Some(Rc::default()),
        }
    }

    /// Whether this handle records anything.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Opens a span attributing wall-clock to `sub` until the guard drops.
    /// On a disabled handle this reads no clock and allocates nothing.
    #[inline]
    pub fn span(&self, sub: Subsystem) -> SpanGuard {
        SpanGuard {
            inner: self
                .inner
                .as_ref()
                .map(|rc| (Rc::clone(rc), sub, Instant::now())),
        }
    }

    /// Aggregate stats for `sub`, or zeros when disabled.
    pub fn stats(&self, sub: Subsystem) -> SpanStats {
        self.inner
            .as_ref()
            .map(|rc| rc.borrow().spans[sub.index()])
            .unwrap_or_default()
    }
}

/// Records elapsed wall-clock for one subsystem invocation on drop.
#[derive(Debug)]
pub struct SpanGuard {
    inner: Option<(Rc<RefCell<Profiler>>, Subsystem, Instant)>,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some((rc, sub, started)) = self.inner.take() {
            rc.borrow_mut().record(sub, started);
        }
    }
}

/// A merged cost report: scheduler counters, per-subsystem span counts
/// and network totals on the deterministic side; wall-clock attribution
/// on the other.
///
/// `counters` are byte-identical across runs of the same seed; `wall_ns`
/// is not.
#[derive(Clone, Debug, Default)]
pub struct ProfileReport {
    /// Deterministic counters, keyed by stable dotted names
    /// (`sched.deliver_events`, `span.server.sync.count`,
    /// `net.video.sent_msgs`, …).
    pub counters: BTreeMap<String, u64>,
    /// Wall-clock nanoseconds per subsystem name. Never compared exactly.
    pub wall_ns: BTreeMap<String, u64>,
}

impl ProfileReport {
    /// Builds a report from the three cost sources of a run. Any source
    /// may be absent (e.g. scheduler profiling without subsystem spans).
    pub fn collect(
        sched: Option<&SimProfile>,
        spans: &ProfileHandle,
        net: Option<&NetStats>,
    ) -> Self {
        let mut report = ProfileReport::default();
        if let Some(p) = sched {
            for (name, value) in p.counters() {
                report.counters.insert(format!("sched.{name}"), value);
            }
            report
                .wall_ns
                .insert(Subsystem::SimnetScheduler.name().to_string(), p.dispatch_ns);
        }
        if spans.is_enabled() {
            for sub in Subsystem::ALL {
                if sub == Subsystem::SimnetScheduler {
                    continue;
                }
                let stats = spans.stats(sub);
                report
                    .counters
                    .insert(format!("span.{}.count", sub.name()), stats.count);
                report.wall_ns.insert(sub.name().to_string(), stats.wall_ns);
            }
        }
        if let Some(net) = net {
            for (class, c) in net.iter() {
                report
                    .counters
                    .insert(format!("net.{class}.sent_msgs"), c.sent_msgs);
                report
                    .counters
                    .insert(format!("net.{class}.sent_bytes"), c.sent_bytes);
                report
                    .counters
                    .insert(format!("net.{class}.delivered_msgs"), c.delivered_msgs);
                report.counters.insert(
                    format!("net.{class}.dropped"),
                    c.dropped_loss + c.dropped_partition + c.dropped_dead,
                );
            }
        }
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_handle_is_inert() {
        let handle = ProfileHandle::disabled();
        assert!(!handle.is_enabled());
        drop(handle.span(Subsystem::ServerSync));
        assert_eq!(handle.stats(Subsystem::ServerSync), SpanStats::default());
    }

    #[test]
    fn spans_accumulate_counts() {
        let handle = ProfileHandle::enabled();
        for _ in 0..3 {
            drop(handle.span(Subsystem::ClientPlayback));
        }
        assert_eq!(handle.stats(Subsystem::ClientPlayback).count, 3);
        assert_eq!(handle.stats(Subsystem::ServerSync).count, 0);
    }

    #[test]
    fn report_merges_all_sources() {
        let handle = ProfileHandle::enabled();
        drop(handle.span(Subsystem::GcsViewChange));
        let sched = SimProfile {
            deliver_events: 7,
            dispatch_ns: 1_000,
            ..SimProfile::default()
        };
        let report = ProfileReport::collect(Some(&sched), &handle, None);
        assert_eq!(report.counters["sched.deliver_events"], 7);
        assert_eq!(report.counters["span.gcs.view_change.count"], 1);
        assert_eq!(report.wall_ns["simnet.scheduler"], 1_000);
        assert!(!report.counters.contains_key("sched.dispatch_ns"));
    }
}
