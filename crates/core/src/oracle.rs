//! Trace-driven safety oracle: checks the paper's safety invariants
//! against a run's recorded event stream, independently of the code that
//! produced the behaviour. It reads the fold the recorder advances as each
//! event is recorded, so it judges the whole run at any ring size.
//!
//! The oracle judges five core invariants:
//!
//! 1. **Exclusive service** — after a convergence window, at most one
//!    server transmits to a given client at a time (§5.2: the membership
//!    protocol hands each session to exactly one replica). Overlaps whose
//!    two servers were partitioned from each other are excused: with the
//!    network split, *both* components legitimately believe they own the
//!    client until the heal.
//! 2. **Bounded frame gaps** — the frame-number sequence a client receives
//!    may contain duplicates but never a forward jump larger than the
//!    server sync skew allows (§6.1.1: "the clients may receive duplicate
//!    frames, but no frames are skipped").
//! 3. **Replica coverage** — while a movie has active viewers, at least
//!    one live server holds it (modulo a grace window for takeovers).
//! 4. **Re-served after failure** — every client whose serving server
//!    crashed receives usable video again within a bound (§6: service
//!    continues despite failures).
//! 5. **Prefix handoff complete** — a client bridged by the prefix-cache
//!    tier must be handed off to the owning replica promptly: once a real
//!    session starts for a prefix-served client, the prefix span must
//!    close within the convergence window (no client is left streaming
//!    from a prefix source after the replica is up).
//!
//! Multi-datacenter traces (those carrying `SiteDefined` events) are
//! additionally judged on three site-aware invariants:
//!
//! 6. **Re-served after site fault** — clients served by a site when the
//!    *whole* site faults (every member crashed, or cut from every other
//!    site's servers) receive usable video again within the re-based
//!    bound. A site-level partition excuses the repair until its heal,
//!    exactly like a pairwise cut in invariant 4.
//! 7. **Geo-affinity restored** — a client homed in a faulted site that
//!    was rescued by a remote site must return to a home-site server
//!    within the bound of the fault healing (§5.2's redistribution,
//!    extended across datacenters).
//! 8. **No degraded serving while the home DC is healthy** — a
//!    reduced-quality rescue serve may only happen during (or in the
//!    wake of) a fault of the client's home site.
//!
//! Prefix serves also feed invariant 3: a live prefix source counts as
//! coverage for its movie, but only until the advertised prefix runs out
//! (`prefix_frames / rate_fps` seconds after the serve started).
//!
//! Verdicts are three-valued: a [`Verdict::Fail`] is a genuine safety
//! violation; [`Verdict::Inconclusive`] means the trace ends before a
//! deadline it would be judged against (the run ended mid-repair). Only
//! `Fail` makes [`OracleReport::pass`] false.

use std::collections::BTreeMap;
use std::fmt;
use std::time::Duration;

use media::MovieId;
use simnet::{NodeId, SimTime};

use crate::fold::{pair, ServeSpan, SessionFold};
use crate::protocol::ClientId;
use crate::trace::TraceRecorder;

/// Tunable bounds of the oracle's invariants.
#[derive(Clone, Debug, PartialEq)]
pub struct OracleConfig {
    /// How long two servers may *both* transmit to one client around a
    /// handoff before the overlap counts as a violation (covers the view
    /// change plus in-flight frames).
    pub convergence: Duration,
    /// Largest tolerated forward jump in the received frame sequence,
    /// in missed frames. The paper bounds the resume-offset error by the
    /// 500 ms sync interval; at 30 fps that is 15 frames — 45 gives the
    /// conservative-takeover path three sync rounds of slack.
    pub max_gap_frames: u64,
    /// How quickly a client whose server crashed must receive usable
    /// video again.
    pub reserve_bound: Duration,
    /// How long a watched movie may be without any live holder before
    /// invariant 3 fires (covers detection plus replica bring-up).
    pub coverage_grace: Duration,
}

impl OracleConfig {
    /// Bounds matched to the paper's operating point (500 ms sync, 30 fps,
    /// crash detection within seconds).
    pub fn paper_default() -> Self {
        OracleConfig {
            convergence: Duration::from_secs(2),
            max_gap_frames: 45,
            reserve_bound: Duration::from_secs(10),
            coverage_grace: Duration::from_secs(15),
        }
    }
}

impl Default for OracleConfig {
    fn default() -> Self {
        OracleConfig::paper_default()
    }
}

/// Outcome of one invariant check.
#[derive(Clone, Debug, PartialEq)]
pub enum Verdict {
    /// The invariant held throughout the trace.
    Pass,
    /// The invariant was violated; the detail names the first witness.
    Fail(String),
    /// The trace ends before the deadline the invariant is judged
    /// against (the run stopped mid-repair). Not counted as a failure.
    Inconclusive(String),
}

impl Verdict {
    /// Whether this verdict is a genuine violation.
    pub fn is_fail(&self) -> bool {
        matches!(self, Verdict::Fail(_))
    }
}

impl fmt::Display for Verdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Verdict::Pass => write!(f, "pass"),
            Verdict::Fail(detail) => write!(f, "FAIL: {detail}"),
            Verdict::Inconclusive(detail) => write!(f, "inconclusive: {detail}"),
        }
    }
}

/// Per-invariant verdicts of one oracle pass.
#[derive(Clone, Debug, PartialEq)]
pub struct OracleReport {
    /// Invariant 1: at most one server per client (post-convergence).
    pub exclusive_service: Verdict,
    /// Invariant 2: no over-large forward jump in received frames.
    pub bounded_gaps: Verdict,
    /// Invariant 3: live replica coverage while a movie has viewers.
    pub replica_coverage: Verdict,
    /// Invariant 4: faulted clients re-served within the bound.
    pub reserved_after_fault: Verdict,
    /// Invariant 5: prefix-served clients handed off to the owning
    /// replica within the convergence window of their session start.
    /// Vacuously `Pass` when the trace has no prefix events.
    pub prefix_handoff: Verdict,
    /// Invariant 6: clients served by a site at the moment the whole site
    /// faults (site partition or correlated site crash) receive usable
    /// video again within the re-based bound — the site-level partition
    /// itself excuses the repair until its heal, like any other cut.
    /// Vacuously `Pass` when the trace defines no sites.
    pub reserved_after_site_fault: Verdict,
    /// Invariant 7: after a site fault heals, clients homed in the site
    /// that were rescued by a remote site return to a home-site server
    /// within the re-based bound (geo-affinity is restored, §5.2's
    /// redistribution extended across datacenters).
    pub geo_affinity_restored: Verdict,
    /// Invariant 8: a degraded (reduced-quality) rescue serve may happen
    /// only while the client's home site is actually faulted — never
    /// while the home datacenter is healthy.
    pub degraded_only_when_home_down: Verdict,
}

impl OracleReport {
    /// Whether no invariant failed (inconclusive verdicts count as pass).
    pub fn pass(&self) -> bool {
        !self.verdicts().iter().any(|(_, v)| v.is_fail())
    }

    /// The verdicts with their stable display names, in report order.
    pub fn verdicts(&self) -> [(&'static str, &Verdict); 8] {
        [
            ("exclusive-service", &self.exclusive_service),
            ("bounded-gaps", &self.bounded_gaps),
            ("replica-coverage", &self.replica_coverage),
            ("re-served-after-fault", &self.reserved_after_fault),
            ("prefix-handoff-complete", &self.prefix_handoff),
            (
                "re-served-after-site-fault",
                &self.reserved_after_site_fault,
            ),
            ("geo-affinity-restored", &self.geo_affinity_restored),
            (
                "no-degraded-while-home-healthy",
                &self.degraded_only_when_home_down,
            ),
        ]
    }

    /// Judges every invariant over the run `recorder` has recorded so
    /// far: all of it, evicted or not, as the recorder folds each event in
    /// when it is pushed. Transmissions, cuts and uncovered windows still
    /// open close at the latest time of any recorded event; an obligation
    /// whose deadline lies past it and is not met yet is
    /// [`Verdict::Inconclusive`].
    pub fn check(recorder: &TraceRecorder, cfg: &OracleConfig) -> Self {
        Judge::new(recorder.fold()).judge(cfg)
    }
}

impl fmt::Display for OracleReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let verdict = if self.pass() { "PASS" } else { "FAIL" };
        writeln!(f, "  oracle: {verdict}")?;
        for (name, v) in self.verdicts() {
            writeln!(f, "    {name}: {v}")?;
        }
        Ok(())
    }
}

/// What the checks read: the fold, with every transmission, cut and
/// window still open closed at the latest event. The fold itself stays as
/// it is, so a run may be judged and then go on.
struct Judge<'a> {
    fold: &'a SessionFold,
    /// Per-client transmission intervals.
    spans: BTreeMap<ClientId, Vec<ServeSpan>>,
    /// Cuts between unordered server pairs: `(a, b) -> [[from, to)]`.
    cuts: BTreeMap<(NodeId, NodeId), Vec<(SimTime, SimTime)>>,
    /// Windows during which some watched movie had no live holder:
    /// `(movie, from, to)`.
    uncovered: Vec<(MovieId, SimTime, SimTime)>,
    /// Windows during which an entire site was faulted.
    site_faults: BTreeMap<u32, Vec<(SimTime, SimTime)>>,
}

impl<'a> Judge<'a> {
    fn new(fold: &'a SessionFold) -> Self {
        let trace_end = fold.latest_at;
        let mut spans = fold.spans.clone();
        for (client, open) in &fold.open_spans {
            for (&server, &start) in open {
                spans.entry(*client).or_default().push(ServeSpan {
                    server,
                    start,
                    end: trace_end,
                });
            }
        }
        let mut cuts = fold.cuts.clone();
        for (&key, &(from, _)) in &fold.open_cuts {
            cuts.entry(key).or_default().push((from, trace_end));
        }
        let mut uncovered = fold.uncovered.clone();
        for (&movie, &from) in &fold.uncovered_since {
            uncovered.push((movie, from, trace_end));
        }
        let mut site_faults = fold.site_faults.clone();
        for (&site, &from) in &fold.site_fault_since {
            if trace_end > from {
                site_faults.entry(site).or_default().push((from, trace_end));
            }
        }
        Judge {
            fold,
            spans,
            cuts,
            uncovered,
            site_faults,
        }
    }

    fn judge(&self, cfg: &OracleConfig) -> OracleReport {
        OracleReport {
            exclusive_service: self.check_exclusive_service(cfg),
            bounded_gaps: self.check_bounded_gaps(cfg),
            replica_coverage: self.check_replica_coverage(cfg),
            reserved_after_fault: self.check_reserved_after_fault(cfg),
            prefix_handoff: self.check_prefix_handoff(cfg),
            reserved_after_site_fault: self.check_reserved_after_site_fault(cfg),
            geo_affinity_restored: self.check_geo_affinity_restored(cfg),
            degraded_only_when_home_down: self.check_degraded_only_when_home_down(cfg),
        }
    }

    /// Crash events, in the order recorded.
    fn crashes(&self) -> impl Iterator<Item = (SimTime, NodeId)> + 'a {
        self.fold
            .failures
            .iter()
            .filter(|&&(_, _, kind)| kind == "crash")
            .map(|&(at, node, _)| (at, node))
    }

    /// Where `client`'s video frames land, from its latest session start.
    fn client_node(&self, client: ClientId) -> Option<NodeId> {
        let starts = self.fold.starts.get(&client)?;
        starts.last().map(|start| start.client_node)
    }

    /// Whether servers `a` and `b` were partitioned from each other at any
    /// point during `[from, to)`.
    fn partitioned_during(&self, a: NodeId, b: NodeId, from: SimTime, to: SimTime) -> bool {
        self.cuts
            .get(&pair(a, b))
            .is_some_and(|cuts| cuts.iter().any(|&(s, e)| s < to && from < e))
    }

    fn check_exclusive_service(&self, cfg: &OracleConfig) -> Verdict {
        for (client, spans) in &self.spans {
            for (i, x) in spans.iter().enumerate() {
                for y in &spans[i + 1..] {
                    if x.server == y.server {
                        continue;
                    }
                    let from = x.start.max(y.start);
                    let to = x.end.min(y.end);
                    if to.saturating_since(from) <= cfg.convergence {
                        continue;
                    }
                    if self.partitioned_during(x.server, y.server, from, to) {
                        // Both partition components legitimately serve the
                        // client until the heal reconciles them.
                        continue;
                    }
                    return Verdict::Fail(format!(
                        "{client} served by {} and {} concurrently for {}us (from {}us)",
                        x.server,
                        y.server,
                        to.saturating_since(from).as_micros(),
                        from.as_micros()
                    ));
                }
            }
        }
        Verdict::Pass
    }

    fn check_bounded_gaps(&self, cfg: &OracleConfig) -> Verdict {
        for &(at, client, missed) in &self.fold.gaps {
            if missed <= cfg.max_gap_frames {
                continue;
            }
            if self.double_served_across_cut(client, at) {
                // Two partition components each stream their own position
                // to the client, and the interleaving can jump arbitrarily
                // even though neither stream skips a frame. The paper's
                // no-skip guarantee is per-stream until the heal
                // reconciles ownership, so such jumps are excused — the
                // same excuse exclusive service grants a split fleet.
                continue;
            }
            return Verdict::Fail(format!(
                "{client} skipped {missed} frame(s) at {}us (bound {})",
                at.as_micros(),
                cfg.max_gap_frames
            ));
        }
        Verdict::Pass
    }

    /// Whether `client` was, at instant `at`, inside two transmission
    /// spans from servers that were partitioned from each other during
    /// the spans' overlap.
    fn double_served_across_cut(&self, client: ClientId, at: SimTime) -> bool {
        let Some(spans) = self.spans.get(&client) else {
            return false;
        };
        let covering: Vec<&ServeSpan> = spans
            .iter()
            .filter(|s| s.start <= at && at < s.end)
            .collect();
        covering.iter().enumerate().any(|(i, x)| {
            covering[i + 1..].iter().any(|y| {
                x.server != y.server
                    && self.partitioned_during(
                        x.server,
                        y.server,
                        x.start.max(y.start),
                        x.end.min(y.end),
                    )
            })
        })
    }

    fn check_replica_coverage(&self, cfg: &OracleConfig) -> Verdict {
        for &(movie, from, to) in &self.uncovered {
            let span = to.saturating_since(from);
            if span > cfg.coverage_grace {
                return Verdict::Fail(format!(
                    "{movie} had viewers but no live holder for {}us from {}us (grace {}us)",
                    span.as_micros(),
                    from.as_micros(),
                    cfg.coverage_grace.as_micros()
                ));
            }
        }
        Verdict::Pass
    }

    /// The repair deadline for a crash at `crash_at`, re-based past every
    /// disruption that begins inside the *original* repair window. A
    /// compounding fault — another server crashing, or a partition cutting
    /// the fleet mid-repair — can legitimately take out the very replica
    /// that was about to take over, so each such disruption excuses the
    /// repair until it clears (a cut's heal, a crash itself) plus one
    /// bound. The deadline is the *maximum of the excuses*, not a chain:
    /// the old sweep re-armed eligibility from the already-extended
    /// deadline, so a partition heal and a crash landing in the same sync
    /// window double-extended the bound — each excuse stretched the window
    /// the next one had to land in, and an unrepaired client could ride a
    /// cascade of unrelated faults indefinitely.
    fn rebased_deadline(&self, crash_at: SimTime, cfg: &OracleConfig) -> SimTime {
        // Eligibility is judged against the original window only.
        let original = crash_at + cfg.reserve_bound;
        let mut deadline = original;
        for (at, _) in self.crashes() {
            if at > crash_at && at <= original {
                deadline = deadline.max(at + cfg.reserve_bound);
            }
        }
        for cuts in self.cuts.values() {
            for &(begins, clears) in cuts {
                if clears > crash_at && begins <= original {
                    deadline = deadline.max(clears + cfg.reserve_bound);
                }
            }
        }
        deadline
    }

    /// The repair check of invariants 4 and 6: the first client, in id
    /// order, that a server the fault `hit` was serving at `at`, whose
    /// session was not over by `deadline`, and that got no usable frame in
    /// `(at, deadline]`.
    fn unrepaired(
        &self,
        at: SimTime,
        deadline: SimTime,
        hit: impl Fn(NodeId) -> bool,
    ) -> Option<ClientId> {
        self.spans.iter().find_map(|(&client, spans)| {
            let affected = spans
                .iter()
                .any(|s| hit(s.server) && s.start < at && s.end >= at);
            let repaired = !affected
                || self.over_by(client, deadline)
                || self.usable_frames_in(client, at, deadline) > 0;
            (!repaired).then_some(client)
        })
    }

    fn check_reserved_after_fault(&self, cfg: &OracleConfig) -> Verdict {
        let trace_end = self.fold.latest_at;
        for (crash_at, node) in self.crashes() {
            let deadline = self.rebased_deadline(crash_at, cfg);
            let Some(client) = self.unrepaired(crash_at, deadline, |s| s == node) else {
                continue;
            };
            if trace_end < deadline {
                return Verdict::Inconclusive(format!(
                    "trace ends {}us before {client}'s repair deadline ({} crash at {}us)",
                    deadline.saturating_since(trace_end).as_micros(),
                    node,
                    crash_at.as_micros()
                ));
            }
            return Verdict::Fail(format!(
                "{client} not re-served by {}us after {} crashed at {}us \
                 (bound {}us, re-based past overlapping faults)",
                deadline.as_micros(),
                node,
                crash_at.as_micros(),
                cfg.reserve_bound.as_micros()
            ));
        }
        Verdict::Pass
    }

    /// Invariant 5: once a real session starts for a prefix-served
    /// client, the prefix span must close within the convergence window
    /// — no client keeps streaming from a prefix source after the owning
    /// replica is up. Spans whose client never got a session are judged
    /// by coverage (the prefix simply runs out), not here.
    fn check_prefix_handoff(&self, cfg: &OracleConfig) -> Verdict {
        let trace_end = self.fold.latest_at;
        for span in &self.fold.prefix_spans {
            let started = self.fold.starts.get(&span.client).and_then(|starts| {
                starts
                    .iter()
                    .map(|start| start.at)
                    .find(|&t| t >= span.start)
            });
            let Some(started) = started else {
                continue;
            };
            let deadline = started + cfg.convergence;
            if span.end.is_some_and(|end| end <= deadline) {
                continue;
            }
            if span.end.is_none() && trace_end < deadline {
                return Verdict::Inconclusive(format!(
                    "trace ends {}us before {}'s prefix-handoff deadline \
                     (session started at {}us)",
                    deadline.saturating_since(trace_end).as_micros(),
                    span.client,
                    started.as_micros()
                ));
            }
            let end = span.end.unwrap_or(trace_end);
            return Verdict::Fail(format!(
                "{} still on prefix source {} {}us past its handoff deadline \
                 (session started at {}us, prefix since {}us)",
                span.client,
                span.server,
                end.saturating_since(deadline).as_micros(),
                started.as_micros(),
                span.start.as_micros()
            ));
        }
        Verdict::Pass
    }

    /// Invariant 6: clients a site was serving when the whole site
    /// faulted must receive usable video again within the re-based bound.
    /// A site-level partition's cuts begin inside the original window and
    /// clear at the heal, so [`Self::rebased_deadline`] automatically
    /// stretches the deadline to heal + bound — the "site-level partition
    /// excuse". A correlated site *crash* gets no such excuse: a remote
    /// datacenter must rescue the clients within the plain bound.
    fn check_reserved_after_site_fault(&self, cfg: &OracleConfig) -> Verdict {
        let trace_end = self.fold.latest_at;
        for (site, windows) in &self.site_faults {
            let Some((servers, _)) = self.fold.sites.get(site) else {
                continue;
            };
            for &(from, _to) in windows {
                let deadline = self.rebased_deadline(from, cfg);
                let hit = |s: NodeId| servers.contains(&s);
                let Some(client) = self.unrepaired(from, deadline, hit) else {
                    continue;
                };
                if trace_end < deadline {
                    return Verdict::Inconclusive(format!(
                        "trace ends {}us before {client}'s rescue deadline \
                         (site {site} faulted at {}us)",
                        deadline.saturating_since(trace_end).as_micros(),
                        from.as_micros()
                    ));
                }
                return Verdict::Fail(format!(
                    "{client} not re-served by {}us after site {site} faulted at {}us \
                     (bound {}us, re-based past overlapping faults)",
                    deadline.as_micros(),
                    from.as_micros(),
                    cfg.reserve_bound.as_micros()
                ));
            }
        }
        Verdict::Pass
    }

    /// Invariant 7: a client homed in a faulted site that was riding a
    /// remote rescue when the fault healed must be back on a home-site
    /// server within the re-based bound of the heal.
    fn check_geo_affinity_restored(&self, cfg: &OracleConfig) -> Verdict {
        let trace_end = self.fold.latest_at;
        for (site, windows) in &self.site_faults {
            let Some((servers, homed_nodes)) = self.fold.sites.get(site) else {
                continue;
            };
            for &(_from, to) in windows {
                if to >= trace_end {
                    // The fault never healed inside the trace; there is
                    // nothing to restore yet.
                    continue;
                }
                let deadline = self.rebased_deadline(to, cfg);
                for (client, spans) in &self.spans {
                    let homed = self
                        .client_node(*client)
                        .is_some_and(|node| homed_nodes.contains(&node));
                    if !homed {
                        continue;
                    }
                    let remote_at_heal = spans
                        .iter()
                        .any(|s| !servers.contains(&s.server) && s.start <= to && s.end > to);
                    if !remote_at_heal {
                        continue;
                    }
                    if self.over_by(*client, deadline) {
                        continue;
                    }
                    let returned = spans
                        .iter()
                        .any(|s| servers.contains(&s.server) && s.start <= deadline && s.end > to);
                    if returned {
                        continue;
                    }
                    if trace_end < deadline {
                        return Verdict::Inconclusive(format!(
                            "trace ends {}us before {client}'s affinity deadline \
                             (site {site} healed at {}us)",
                            deadline.saturating_since(trace_end).as_micros(),
                            to.as_micros()
                        ));
                    }
                    return Verdict::Fail(format!(
                        "{client} still served remotely {}us after its home site {site} \
                         healed at {}us (bound {}us)",
                        deadline.saturating_since(to).as_micros(),
                        to.as_micros(),
                        cfg.reserve_bound.as_micros()
                    ));
                }
            }
        }
        Verdict::Pass
    }

    /// Invariant 8: every degraded serve must fall inside a fault window
    /// of the client's home site (plus one bound of post-heal slack for
    /// sessions admitted before the views re-merge). A degraded serve for
    /// a client homed to no site, or while its home site is healthy, is a
    /// violation.
    fn check_degraded_only_when_home_down(&self, cfg: &OracleConfig) -> Verdict {
        for &(at, client) in &self.fold.degraded_serves {
            let Some(node) = self.client_node(client) else {
                return Verdict::Fail(format!(
                    "{client} degraded-served at {}us before any recorded session",
                    at.as_micros()
                ));
            };
            let home = self
                .fold
                .sites
                .iter()
                .find(|(_, (_, homed))| homed.contains(&node))
                .map(|(&site, _)| site);
            let Some(home) = home else {
                return Verdict::Fail(format!(
                    "{client} degraded-served at {}us but is homed to no site",
                    at.as_micros()
                ));
            };
            let excused = self.site_faults.get(&home).is_some_and(|windows| {
                windows
                    .iter()
                    .any(|&(from, to)| at >= from && at <= to + cfg.reserve_bound)
            });
            if !excused {
                return Verdict::Fail(format!(
                    "{client} degraded-served at {}us while its home site {home} was healthy",
                    at.as_micros()
                ));
            }
        }
        Verdict::Pass
    }

    /// Whether `client`'s session was over for good by `deadline`: a
    /// session that was over anyway needs no repair.
    fn over_by(&self, client: ClientId, deadline: SimTime) -> bool {
        self.fold
            .session_over
            .get(&client)
            .is_some_and(|&over| over <= deadline)
    }

    /// Usable (non-late) video frames that reached `client` in `(from,
    /// to]`: arrivals at its node minus its late discards in the window.
    fn usable_frames_in(&self, client: ClientId, from: SimTime, to: SimTime) -> u64 {
        let Some(node) = self.client_node(client) else {
            return 0;
        };
        let arrivals = self
            .fold
            .video_arrivals
            .get(&node)
            .map_or(0, |ts| ts.iter().filter(|&&t| t > from && t <= to).count());
        let late = self
            .fold
            .late_discards
            .get(&client)
            .map_or(0, |ts| ts.iter().filter(|&&t| t > from && t <= to).count());
        (arrivals as u64).saturating_sub(late as u64)
    }
}

/// Renders the verdicts as one stable summary token, e.g.
/// `"PASS"` or `"FAIL[exclusive-service,re-served-after-fault]"`.
pub fn summary_token(report: &OracleReport) -> String {
    if report.pass() {
        "PASS".to_owned()
    } else {
        let failed: Vec<&str> = report
            .verdicts()
            .iter()
            .filter(|(_, v)| v.is_fail())
            .map(|(name, _)| *name)
            .collect();
        let mut out = String::from("FAIL[");
        out.push_str(&failed.join(","));
        out.push(']');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    use crate::protocol::{TrafficClass, VcrCmd};
    use crate::trace::{SiteDef, VodEvent};
    use media::FrameNo;
    use simnet::{DropReason, Endpoint, Port};

    fn t(s: f64) -> SimTime {
        SimTime::from_secs_f64(s)
    }

    fn recorder(events: Vec<(SimTime, VodEvent)>) -> TraceRecorder {
        let mut rec = TraceRecorder::new(1 << 12);
        for (at, event) in events {
            rec.push(at, event);
        }
        rec
    }

    fn started(at: f64, server: u32, client: u32) -> (SimTime, VodEvent) {
        (
            t(at),
            VodEvent::SessionStarted {
                server: NodeId(server),
                client: ClientId(client),
                client_node: NodeId(100 + client),
                movie: MovieId(1),
                resume_frame: FrameNo(0),
            },
        )
    }

    fn stopped(at: f64, server: u32, client: u32) -> (SimTime, VodEvent) {
        (
            t(at),
            VodEvent::SessionStopped {
                server: NodeId(server),
                client: ClientId(client),
            },
        )
    }

    #[test]
    fn clean_handoff_passes_all_invariants() {
        let report = OracleReport::check(
            &recorder(vec![
                (t(0.0), VodEvent::NodeStarted { node: NodeId(1) }),
                (t(0.0), VodEvent::NodeStarted { node: NodeId(2) }),
                started(1.0, 1, 7),
                stopped(20.0, 1, 7),
                started(20.5, 2, 7),
                (
                    t(40.0),
                    VodEvent::SessionEnded {
                        server: NodeId(2),
                        client: ClientId(7),
                    },
                ),
            ]),
            &OracleConfig::paper_default(),
        );
        assert!(report.pass(), "{report}");
        assert_eq!(report.exclusive_service, Verdict::Pass);
    }

    #[test]
    fn long_double_service_fails_exclusivity() {
        let report = OracleReport::check(
            &recorder(vec![
                started(1.0, 1, 7),
                started(2.0, 2, 7),
                stopped(30.0, 1, 7),
                stopped(31.0, 2, 7),
            ]),
            &OracleConfig::paper_default(),
        );
        assert!(report.exclusive_service.is_fail(), "{report}");
        assert!(!report.pass());
        assert_eq!(summary_token(&report), "FAIL[exclusive-service]");
    }

    #[test]
    fn partition_excuses_double_service() {
        let report = OracleReport::check(
            &recorder(vec![
                started(1.0, 1, 7),
                (
                    t(1.5),
                    VodEvent::Partitioned {
                        a: vec![NodeId(1)].into(),
                        b: vec![NodeId(2), NodeId(100 + 7)].into(),
                    },
                ),
                started(2.0, 2, 7),
                (
                    t(30.0),
                    VodEvent::Healed {
                        a: vec![NodeId(1)].into(),
                        b: vec![NodeId(2), NodeId(100 + 7)].into(),
                    },
                ),
                stopped(30.1, 1, 7),
            ]),
            &OracleConfig::paper_default(),
        );
        assert_eq!(report.exclusive_service, Verdict::Pass, "{report}");
    }

    #[test]
    fn oversized_frame_jump_fails_bounded_gaps() {
        let report = OracleReport::check(
            &recorder(vec![(
                t(5.0),
                VodEvent::FrameGap {
                    client: ClientId(3),
                    from_frame: FrameNo(100),
                    to_frame: FrameNo(400),
                },
            )]),
            &OracleConfig::paper_default(),
        );
        assert!(report.bounded_gaps.is_fail());
        // A within-bound jump passes.
        let small = OracleReport::check(
            &recorder(vec![(
                t(5.0),
                VodEvent::FrameGap {
                    client: ClientId(3),
                    from_frame: FrameNo(100),
                    to_frame: FrameNo(110),
                },
            )]),
            &OracleConfig::paper_default(),
        );
        assert_eq!(small.bounded_gaps, Verdict::Pass);
    }

    #[test]
    fn losing_every_holder_fails_coverage() {
        let mut events = vec![
            (t(0.0), VodEvent::NodeStarted { node: NodeId(1) }),
            started(1.0, 1, 7),
            (t(5.0), VodEvent::NodeCrashed { node: NodeId(1) }),
        ];
        // Pad the trace far past the grace window so the uncovered span is
        // closed at a late trace end.
        events.push((
            t(60.0),
            VodEvent::FrameGap {
                client: ClientId(7),
                from_frame: FrameNo(0),
                to_frame: FrameNo(1),
            },
        ));
        let report = OracleReport::check(&recorder(events), &OracleConfig::paper_default());
        assert!(report.replica_coverage.is_fail(), "{report}");
    }

    #[test]
    fn unrepaired_crash_fails_reserved_and_truncated_trace_is_inconclusive() {
        let base = vec![
            (t(0.0), VodEvent::NodeStarted { node: NodeId(1) }),
            started(1.0, 1, 7),
            (t(5.0), VodEvent::NodeCrashed { node: NodeId(1) }),
        ];
        // Trace ends before the deadline: inconclusive, still passes.
        let short = OracleReport::check(&recorder(base.clone()), &OracleConfig::paper_default());
        assert!(matches!(
            short.reserved_after_fault,
            Verdict::Inconclusive(_)
        ));
        assert!(short.pass());
        // Trace extends past the deadline with no delivery: fail.
        let mut long = base.clone();
        long.push((
            t(60.0),
            VodEvent::FrameGap {
                client: ClientId(7),
                from_frame: FrameNo(0),
                to_frame: FrameNo(1),
            },
        ));
        let report = OracleReport::check(&recorder(long), &OracleConfig::paper_default());
        assert!(report.reserved_after_fault.is_fail(), "{report}");
        // A timely video delivery to the client's node repairs it.
        let mut repaired = base;
        repaired.push((
            t(9.0),
            VodEvent::NetDelivered {
                sent_at: t(8.9),
                from: Endpoint::new(NodeId(2), Port(1)),
                to: Endpoint::new(NodeId(107), Port(1)),
                class: TrafficClass::Video,
            },
        ));
        repaired.push((
            t(60.0),
            VodEvent::FrameGap {
                client: ClientId(7),
                from_frame: FrameNo(0),
                to_frame: FrameNo(1),
            },
        ));
        let report = OracleReport::check(&recorder(repaired), &OracleConfig::paper_default());
        assert_eq!(report.reserved_after_fault, Verdict::Pass, "{report}");
    }

    /// Sick trace for the deadline re-basing: a partition heal inside the
    /// original repair window excuses the repair until heal + bound, but a
    /// *later* crash landing only inside that already-extended window must
    /// NOT extend it again. The old chained sweep double-extended here and
    /// blessed a repair that arrived a full bound late.
    #[test]
    fn compounding_faults_extend_once_not_chained() {
        // Crash at 5s → original window ends at 15s (bound 10s). A cut
        // heals at 14s → excused until 24s. A second crash at 20s is
        // outside the original window; under the old chaining it stretched
        // the deadline to 30s, so the repair at 27s passed.
        let events = vec![
            (t(0.0), VodEvent::NodeStarted { node: NodeId(1) }),
            started(1.0, 1, 7),
            (t(5.0), VodEvent::NodeCrashed { node: NodeId(1) }),
            (
                t(6.0),
                VodEvent::Partitioned {
                    a: vec![NodeId(2)].into(),
                    b: vec![NodeId(3)].into(),
                },
            ),
            (
                t(14.0),
                VodEvent::Healed {
                    a: vec![NodeId(2)].into(),
                    b: vec![NodeId(3)].into(),
                },
            ),
            (t(20.0), VodEvent::NodeCrashed { node: NodeId(3) }),
            (
                t(27.0),
                VodEvent::NetDelivered {
                    sent_at: t(26.9),
                    from: Endpoint::new(NodeId(2), Port(1)),
                    to: Endpoint::new(NodeId(107), Port(1)),
                    class: TrafficClass::Video,
                },
            ),
            (
                t(60.0),
                VodEvent::FrameGap {
                    client: ClientId(7),
                    from_frame: FrameNo(0),
                    to_frame: FrameNo(1),
                },
            ),
        ];
        let report = OracleReport::check(&recorder(events), &OracleConfig::paper_default());
        assert!(report.reserved_after_fault.is_fail(), "{report}");
        // The same trace with the repair inside the single-excuse window
        // (before 24s) passes.
        let events_ok = vec![
            (t(0.0), VodEvent::NodeStarted { node: NodeId(1) }),
            started(1.0, 1, 7),
            (t(5.0), VodEvent::NodeCrashed { node: NodeId(1) }),
            (
                t(6.0),
                VodEvent::Partitioned {
                    a: vec![NodeId(2)].into(),
                    b: vec![NodeId(3)].into(),
                },
            ),
            (
                t(14.0),
                VodEvent::Healed {
                    a: vec![NodeId(2)].into(),
                    b: vec![NodeId(3)].into(),
                },
            ),
            (
                t(23.0),
                VodEvent::NetDelivered {
                    sent_at: t(22.9),
                    from: Endpoint::new(NodeId(2), Port(1)),
                    to: Endpoint::new(NodeId(107), Port(1)),
                    class: TrafficClass::Video,
                },
            ),
            (
                t(60.0),
                VodEvent::FrameGap {
                    client: ClientId(7),
                    from_frame: FrameNo(0),
                    to_frame: FrameNo(1),
                },
            ),
        ];
        let report = OracleReport::check(&recorder(events_ok), &OracleConfig::paper_default());
        assert_eq!(report.reserved_after_fault, Verdict::Pass, "{report}");
    }

    /// A client's own VCR stop ends its service obligation for good. A
    /// later `SessionStarted` against it is a stale-record resurrection
    /// (a replica that missed the removal re-serving a client that quit)
    /// and must not re-arm the re-served-after-fault demand — even if
    /// the resurrecting server then crashes with the zombie open.
    #[test]
    fn client_stop_is_terminal_despite_resurrection() {
        let report = OracleReport::check(
            &recorder(vec![
                (t(0.0), VodEvent::NodeStarted { node: NodeId(1) }),
                (t(0.0), VodEvent::NodeStarted { node: NodeId(2) }),
                started(1.0, 1, 7),
                (
                    t(20.0),
                    VodEvent::VcrIssued {
                        client: ClientId(7),
                        cmd: VcrCmd::Stop,
                    },
                ),
                started(21.0, 2, 7),
                (t(25.0), VodEvent::NodeCrashed { node: NodeId(2) }),
                (
                    t(60.0),
                    VodEvent::FrameGap {
                        client: ClientId(8),
                        from_frame: FrameNo(0),
                        to_frame: FrameNo(1),
                    },
                ),
            ]),
            &OracleConfig::paper_default(),
        );
        assert_eq!(report.reserved_after_fault, Verdict::Pass, "{report}");
    }

    /// The control for the terminal-stop rule: a *server-side* end
    /// superseded by a later start is a corrected takeover, and the
    /// client still demands repair when that server crashes.
    #[test]
    fn server_side_end_is_superseded_by_restart() {
        let report = OracleReport::check(
            &recorder(vec![
                (t(0.0), VodEvent::NodeStarted { node: NodeId(1) }),
                (t(0.0), VodEvent::NodeStarted { node: NodeId(2) }),
                started(1.0, 1, 7),
                (
                    t(20.0),
                    VodEvent::SessionEnded {
                        server: NodeId(1),
                        client: ClientId(7),
                    },
                ),
                started(21.0, 2, 7),
                (t(25.0), VodEvent::NodeCrashed { node: NodeId(2) }),
                (
                    t(60.0),
                    VodEvent::FrameGap {
                        client: ClientId(8),
                        from_frame: FrameNo(0),
                        to_frame: FrameNo(1),
                    },
                ),
            ]),
            &OracleConfig::paper_default(),
        );
        assert!(report.reserved_after_fault.is_fail(), "{report}");
    }

    fn prefix_serve(at: f64, server: u32, client: u32) -> (SimTime, VodEvent) {
        (
            t(at),
            VodEvent::PrefixServe {
                server: NodeId(server),
                client: ClientId(client),
                client_node: NodeId(100 + client),
                movie: MovieId(1),
                from_frame: FrameNo(0),
                prefix_frames: 300, // 10 s at 30 fps
                rate_fps: 30,
            },
        )
    }

    fn prefix_handoff(at: f64, server: u32, client: u32, to_owner: u32) -> (SimTime, VodEvent) {
        (
            t(at),
            VodEvent::PrefixHandoff {
                server: NodeId(server),
                client: ClientId(client),
                movie: MovieId(1),
                frames_sent: 30,
                served_us: 1_000_000,
                to_owner: NodeId(to_owner),
            },
        )
    }

    #[test]
    fn prompt_prefix_handoff_passes_and_a_stuck_one_fails() {
        // Serve the prefix at 1 s, real session at 3 s, handoff at 3.5 s:
        // inside the convergence window.
        let report = OracleReport::check(
            &recorder(vec![
                prefix_serve(1.0, 2, 7),
                started(3.0, 1, 7),
                prefix_handoff(3.5, 2, 7, 1),
                stopped(20.0, 1, 7),
            ]),
            &OracleConfig::paper_default(),
        );
        assert_eq!(report.prefix_handoff, Verdict::Pass, "{report}");
        // The same trace with the prefix span never closing: the client
        // rides the prefix source long past the deadline.
        let report = OracleReport::check(
            &recorder(vec![
                prefix_serve(1.0, 2, 7),
                started(3.0, 1, 7),
                stopped(20.0, 1, 7),
            ]),
            &OracleConfig::paper_default(),
        );
        assert!(report.prefix_handoff.is_fail(), "{report}");
        assert_eq!(summary_token(&report), "FAIL[prefix-handoff-complete]");
    }

    #[test]
    fn truncated_prefix_handoff_is_inconclusive_and_no_session_is_vacuous() {
        // The trace ends 0.5 s after the session start, before the 2 s
        // convergence deadline: not enough evidence either way.
        let report = OracleReport::check(
            &recorder(vec![prefix_serve(1.0, 2, 7), started(3.0, 1, 7)]),
            &OracleConfig::paper_default(),
        );
        assert!(
            matches!(report.prefix_handoff, Verdict::Inconclusive(_)),
            "{report}"
        );
        assert!(report.pass());
        // A prefix span with no session at all is not this invariant's
        // problem (coverage judges the runway instead).
        let report = OracleReport::check(
            &recorder(vec![
                prefix_serve(1.0, 2, 7),
                (
                    t(30.0),
                    VodEvent::FrameGap {
                        client: ClientId(7),
                        from_frame: FrameNo(0),
                        to_frame: FrameNo(1),
                    },
                ),
            ]),
            &OracleConfig::paper_default(),
        );
        assert_eq!(report.prefix_handoff, Verdict::Pass, "{report}");
    }

    /// The only holder crashes at 5 s; a prefix source bridges the viewer
    /// from 5.5 s with a 10 s prefix (runway ends at 15.5 s). The bridge
    /// counts as coverage while it lasts, so the uncovered clock starts
    /// at the first event past the runway, not at the crash — but no
    /// longer than the advertised prefix.
    #[test]
    fn prefix_serve_covers_a_movie_only_until_the_prefix_runs_out() {
        let holder_back = |at: f64| {
            vec![
                (t(at), VodEvent::NodeStarted { node: NodeId(3) }),
                (
                    t(at),
                    VodEvent::ReplicaBringUp {
                        server: NodeId(3),
                        movie: MovieId(1),
                        demand: 1,
                        replicas: 1,
                        policy: crate::forecast::PolicyKind::Predictive,
                        trigger: crate::forecast::BringUpTrigger::Forecast,
                        forecast: crate::forecast::PopState::Hot,
                    },
                ),
            ]
        };
        let base = |bridge: bool, back_at: f64| {
            let mut events = vec![
                (t(0.0), VodEvent::NodeStarted { node: NodeId(1) }),
                started(1.0, 1, 7),
                (t(5.0), VodEvent::NodeCrashed { node: NodeId(1) }),
            ];
            if bridge {
                events.push(prefix_serve(5.5, 2, 7));
            }
            // A video delivery just past the runway re-evaluates coverage
            // (and repairs invariant 4 along the way).
            events.push((
                t(16.0),
                VodEvent::NetDelivered {
                    sent_at: t(15.9),
                    from: Endpoint::new(NodeId(2), Port(1)),
                    to: Endpoint::new(NodeId(107), Port(1)),
                    class: TrafficClass::Video,
                },
            ));
            events.extend(holder_back(back_at));
            events.push((
                t(60.0),
                VodEvent::FrameGap {
                    client: ClientId(7),
                    from_frame: FrameNo(0),
                    to_frame: FrameNo(1),
                },
            ));
            events
        };
        // Bridged: uncovered only from the end of the runway (16 s) to
        // the replacement holder at 22 s — inside the 15 s grace.
        let report =
            OracleReport::check(&recorder(base(true, 22.0)), &OracleConfig::paper_default());
        assert_eq!(report.replica_coverage, Verdict::Pass, "{report}");
        // Unbridged: the same holder gap runs 5 s → 22 s and fails.
        let report =
            OracleReport::check(&recorder(base(false, 22.0)), &OracleConfig::paper_default());
        assert!(report.replica_coverage.is_fail(), "{report}");
        // Bridged but with the holder back only at 35 s: the prefix ran
        // out at 15.5 s and cannot stretch further — 16 s → 35 s blows
        // the grace window despite the bridge.
        let report =
            OracleReport::check(&recorder(base(true, 35.0)), &OracleConfig::paper_default());
        assert!(report.replica_coverage.is_fail(), "{report}");
    }

    /// Two sites: east = servers 1,2 homing client node 107; west =
    /// servers 3,4 (no homed clients).
    fn two_sites() -> Vec<(SimTime, VodEvent)> {
        vec![
            (
                t(0.0),
                VodEvent::SiteDefined {
                    site: Box::new(SiteDef {
                        index: 0,
                        name: "east".into(),
                        servers: vec![NodeId(1), NodeId(2)],
                        clients: vec![NodeId(107)],
                    }),
                },
            ),
            (
                t(0.0),
                VodEvent::SiteDefined {
                    site: Box::new(SiteDef {
                        index: 1,
                        name: "west".into(),
                        servers: vec![NodeId(3), NodeId(4)],
                        clients: vec![],
                    }),
                },
            ),
            (t(0.0), VodEvent::NodeStarted { node: NodeId(1) }),
            (t(0.0), VodEvent::NodeStarted { node: NodeId(2) }),
            (t(0.0), VodEvent::NodeStarted { node: NodeId(3) }),
            (t(0.0), VodEvent::NodeStarted { node: NodeId(4) }),
        ]
    }

    fn crashed(at: f64, node: u32) -> (SimTime, VodEvent) {
        (t(at), VodEvent::NodeCrashed { node: NodeId(node) })
    }

    fn video_to(at: f64, node: u32) -> (SimTime, VodEvent) {
        (
            t(at),
            VodEvent::NetDelivered {
                sent_at: t(at - 0.1),
                from: Endpoint::new(NodeId(3), Port(1)),
                to: Endpoint::new(NodeId(node), Port(1)),
                class: TrafficClass::Video,
            },
        )
    }

    fn pad(at: f64) -> (SimTime, VodEvent) {
        (
            t(at),
            VodEvent::FrameGap {
                client: ClientId(99),
                from_frame: FrameNo(0),
                to_frame: FrameNo(1),
            },
        )
    }

    /// A correlated site crash must not strand the site's clients: a
    /// cross-DC rescue delivery inside the bound passes invariant 6, and
    /// a trace running past the deadline with no delivery fails it.
    #[test]
    fn site_crash_needs_a_cross_dc_rescue() {
        let base = |rescued: bool| {
            let mut events = two_sites();
            events.push(started(1.0, 1, 7));
            events.push(crashed(5.0, 1));
            events.push(crashed(5.0, 2));
            if rescued {
                events.push(video_to(9.0, 107));
            }
            events.push(pad(60.0));
            events
        };
        let report = OracleReport::check(&recorder(base(true)), &OracleConfig::paper_default());
        assert_eq!(report.reserved_after_site_fault, Verdict::Pass, "{report}");
        let report = OracleReport::check(&recorder(base(false)), &OracleConfig::paper_default());
        assert!(report.reserved_after_site_fault.is_fail(), "{report}");
    }

    /// A site *partition* (as opposed to a crash) carries its own excuse:
    /// the cuts heal at the site's recovery, so the deadline re-bases to
    /// heal + bound and a post-heal repair still passes.
    #[test]
    fn site_partition_excuses_the_rescue_until_the_heal() {
        let mut events = two_sites();
        events.push(started(1.0, 1, 7));
        // Site 0 cut from every other site's server at 5 s, healed at 20 s.
        events.push((
            t(5.0),
            VodEvent::Partitioned {
                a: vec![NodeId(1), NodeId(2)].into(),
                b: vec![NodeId(3), NodeId(4)].into(),
            },
        ));
        // The partition also interrupts the stream (the movie group split
        // away from the client's record holder, say).
        events.push(stopped(5.0, 1, 7));
        events.push((
            t(20.0),
            VodEvent::Healed {
                a: vec![NodeId(1), NodeId(2)].into(),
                b: vec![NodeId(3), NodeId(4)].into(),
            },
        ));
        // Re-served at 25 s: past fault + bound (15 s), inside heal +
        // bound (30 s).
        events.push(video_to(25.0, 107));
        events.push(pad(60.0));
        let report = OracleReport::check(&recorder(events), &OracleConfig::paper_default());
        assert_eq!(report.reserved_after_site_fault, Verdict::Pass, "{report}");
    }

    /// Invariant 7: a home-site client rescued remotely during a site
    /// crash must be handed back to a home server within one bound of the
    /// site's recovery.
    #[test]
    fn geo_affinity_must_be_restored_after_the_heal() {
        let base = |returned: bool| {
            let mut events = two_sites();
            events.push(started(1.0, 1, 7));
            events.push(crashed(5.0, 1));
            events.push(crashed(5.0, 2));
            // Remote rescue by west server 3.
            events.push(started(8.0, 3, 7));
            events.push(video_to(9.0, 107));
            // East recovers at 30 s.
            events.push((t(30.0), VodEvent::NodeRestarted { node: NodeId(1) }));
            if returned {
                events.push(stopped(31.0, 3, 7));
                events.push(started(32.0, 1, 7));
            }
            events.push(pad(60.0));
            events
        };
        let report = OracleReport::check(&recorder(base(true)), &OracleConfig::paper_default());
        assert_eq!(report.geo_affinity_restored, Verdict::Pass, "{report}");
        let report = OracleReport::check(&recorder(base(false)), &OracleConfig::paper_default());
        assert!(report.geo_affinity_restored.is_fail(), "{report}");
        assert_eq!(
            summary_token(&report),
            "FAIL[geo-affinity-restored]",
            "{report}"
        );
    }

    /// Invariant 8: degraded serves are legitimate only inside (or in the
    /// immediate wake of) a home-site fault window.
    #[test]
    fn degraded_serving_requires_a_home_site_fault() {
        let degraded = |at: f64, client: u32| {
            (
                t(at),
                VodEvent::DegradedServe {
                    server: NodeId(3),
                    client: ClientId(client),
                    movie: MovieId(1),
                    rate_fps: 15,
                },
            )
        };
        // During the fault: excused.
        let mut events = two_sites();
        events.push(started(1.0, 1, 7));
        events.push(crashed(5.0, 1));
        events.push(crashed(5.0, 2));
        events.push(started(8.0, 3, 7));
        events.push(degraded(8.0, 7));
        events.push(video_to(9.0, 107));
        events.push((t(30.0), VodEvent::NodeRestarted { node: NodeId(1) }));
        events.push(stopped(31.0, 3, 7));
        events.push(started(32.0, 1, 7));
        events.push(pad(60.0));
        let report = OracleReport::check(&recorder(events), &OracleConfig::paper_default());
        assert_eq!(
            report.degraded_only_when_home_down,
            Verdict::Pass,
            "{report}"
        );
        // While the home site is healthy: violation.
        let mut events = two_sites();
        events.push(started(1.0, 3, 7));
        events.push(degraded(1.0, 7));
        events.push(pad(60.0));
        let report = OracleReport::check(&recorder(events), &OracleConfig::paper_default());
        assert!(report.degraded_only_when_home_down.is_fail(), "{report}");
        // For a client homed to no site: violation.
        let mut events = two_sites();
        events.push(started(1.0, 3, 9));
        events.push(degraded(1.0, 9));
        events.push(pad(60.0));
        let report = OracleReport::check(&recorder(events), &OracleConfig::paper_default());
        assert!(report.degraded_only_when_home_down.is_fail(), "{report}");
    }

    /// Site-less traces judge the three site invariants vacuously.
    #[test]
    fn site_invariants_are_vacuous_without_sites() {
        let report = OracleReport::check(
            &recorder(vec![started(1.0, 1, 7), stopped(20.0, 1, 7)]),
            &OracleConfig::paper_default(),
        );
        assert_eq!(report.reserved_after_site_fault, Verdict::Pass);
        assert_eq!(report.geo_affinity_restored, Verdict::Pass);
        assert_eq!(report.degraded_only_when_home_down, Verdict::Pass);
    }

    /// The single-extension rule survives site-level faults: a site
    /// partition (multi-node sides) overlapping a single-server crash
    /// excuses the repair until heal + bound, but a later fault landing
    /// only inside that extended window must not stretch it again.
    #[test]
    fn site_partition_overlapping_a_crash_extends_once_not_chained() {
        let base = |repair_at: f64| {
            let mut events = two_sites();
            events.push(started(1.0, 1, 7));
            // Single-server crash at 5 s: original window ends at 15 s.
            events.push(crashed(5.0, 1));
            // A site partition begins inside the window and heals at
            // 14 s: excused until 24 s.
            events.push((
                t(6.0),
                VodEvent::Partitioned {
                    a: vec![NodeId(1), NodeId(2)].into(),
                    b: vec![NodeId(3), NodeId(4)].into(),
                },
            ));
            events.push((
                t(14.0),
                VodEvent::Healed {
                    a: vec![NodeId(1), NodeId(2)].into(),
                    b: vec![NodeId(3), NodeId(4)].into(),
                },
            ));
            // A second crash at 20 s sits outside the *original* window;
            // under the old chained sweep it stretched the deadline to
            // 30 s.
            events.push(crashed(20.0, 4));
            events.push(video_to(repair_at, 107));
            events.push(pad(60.0));
            events
        };
        // Repair at 23 s: inside the single-excuse window — both the
        // per-crash and the site-level invariant pass.
        let report = OracleReport::check(&recorder(base(23.0)), &OracleConfig::paper_default());
        assert_eq!(report.reserved_after_fault, Verdict::Pass, "{report}");
        assert_eq!(report.reserved_after_site_fault, Verdict::Pass, "{report}");
        // Repair at 27 s: only valid under chained extension — fail.
        let report = OracleReport::check(&recorder(base(27.0)), &OracleConfig::paper_default());
        assert!(report.reserved_after_fault.is_fail(), "{report}");
    }

    /// A seeded trace over three servers, three movies and six clients:
    /// the nine coverage-relevant kinds at random, each followed by a burst
    /// of datagram events — the 95 % of a real trace a sweep must now skip
    /// — that spans several seconds, so short prefixes run out between two
    /// relevant events. Nodes crash (prefix sources included) more often
    /// than they come back, so movies do lose their last live holder, with
    /// and without viewers. Returns the trace and how many relevant events
    /// it holds.
    fn coverage_trace(seed: u64) -> (TraceRecorder, usize) {
        use crate::forecast::{BringUpTrigger, PolicyKind, PopState};
        let mut rng = simnet::SimRng::seed_from_u64(seed);
        let mut rec = TraceRecorder::new(1 << 16);
        let mut now = 0u64;
        let mut relevant = 0;
        let mut bridge = (NodeId(1), ClientId(1), MovieId(1));
        for _ in 0..60 {
            let mut pick = |bound: u64| rng.gen_u64_below(bound);
            let at = SimTime::from_micros(now);
            let kind = pick(14);
            let (server, client, movie) = if kind == 13 {
                // A hand-off names the bridge it ends.
                bridge
            } else {
                let server = NodeId(1 + pick(3) as u32);
                let client = ClientId(1 + pick(6) as u32);
                (server, client, MovieId(1 + pick(3) as u32))
            };
            if matches!(kind, 11 | 12) {
                bridge = (server, client, movie);
            }
            let client_node = NodeId(100 + client.0);
            let (demand, replicas, policy, forecast) =
                (1, 1, PolicyKind::Predictive, PopState::Hot);
            rec.push(
                at,
                match kind {
                    0 => VodEvent::NodeStarted { node: server },
                    1 => VodEvent::NodeRestarted { node: server },
                    2..=4 => VodEvent::NodeCrashed { node: server },
                    5 | 6 => VodEvent::SessionStarted {
                        server,
                        client,
                        client_node,
                        movie,
                        resume_frame: FrameNo(0),
                    },
                    7 => VodEvent::SessionEnded { server, client },
                    8 => VodEvent::ReplicaBringUp {
                        server,
                        movie,
                        demand,
                        replicas,
                        policy,
                        trigger: BringUpTrigger::Forecast,
                        forecast,
                    },
                    9 | 10 => VodEvent::ReplicaRetire {
                        server,
                        movie,
                        demand,
                        replicas,
                        policy,
                        forecast,
                    },
                    11 | 12 => VodEvent::PrefixServe {
                        server,
                        client,
                        client_node,
                        movie,
                        from_frame: FrameNo(0),
                        // 0.1 s to 3 s of video.
                        prefix_frames: 3 + pick(88),
                        rate_fps: 30,
                    },
                    _ => VodEvent::PrefixHandoff {
                        server,
                        client,
                        movie,
                        frames_sent: 1,
                        served_us: 1_000,
                        to_owner: server,
                    },
                },
            );
            relevant += 1;
            for _ in 0..20 + pick(150) {
                // Same-instant runs and steps of up to 50 ms.
                now += pick(3) * pick(25_000);
                let (at, sent_at) = (SimTime::from_micros(now), SimTime::from_micros(now));
                let from = Endpoint::new(server, Port(1));
                let to = Endpoint::new(client_node, Port(1));
                let class = [TrafficClass::Video, TrafficClass::VodSync][pick(2) as usize];
                rec.push(
                    at,
                    if pick(2) == 0 {
                        VodEvent::NetDropped {
                            from,
                            to,
                            class,
                            reason: DropReason::Loss,
                        }
                    } else {
                        VodEvent::NetDelivered {
                            sent_at,
                            from,
                            to,
                            class,
                        }
                    },
                );
            }
        }
        (rec, relevant)
    }

    /// Differential test of the coverage sweep that runs only when it can
    /// change something against the sweep after every event it replaced.
    #[test]
    fn coverage_swept_on_demand_matches_a_sweep_after_every_event() {
        let cfg = OracleConfig {
            // Tight enough that the generated windows decide the verdict.
            coverage_grace: Duration::from_secs(8),
            ..OracleConfig::paper_default()
        };
        // [events, uncovered windows, ... opened by a run-out, failing
        // coverage verdicts, passing ones] over all seeds.
        let mut covered = [0usize; 5];
        for seed in 0..300 {
            let (rec, relevant) = coverage_trace(seed);
            let on_demand = Judge::new(rec.fold());
            let reference = SessionFold::sweep_every_event(rec.events());
            let every_event = Judge::new(&reference);
            assert_eq!(on_demand.uncovered, every_event.uncovered, "seed {seed}");
            let report = on_demand.judge(&cfg);
            assert_eq!(
                report.to_string(),
                every_event.judge(&cfg).to_string(),
                "seed {seed}"
            );
            let relevant_instants: BTreeSet<SimTime> = rec
                .events()
                .filter(|(_, e)| {
                    !matches!(
                        e,
                        VodEvent::NetDropped { .. } | VodEvent::NetDelivered { .. }
                    )
                })
                .map(|(at, _)| at)
                .collect();
            covered[0] += rec.len() - relevant;
            covered[1] += on_demand.uncovered.len();
            covered[2] += on_demand
                .uncovered
                .iter()
                .filter(|(_, from, _)| !relevant_instants.contains(from))
                .count();
            covered[3] += usize::from(report.replica_coverage.is_fail());
            covered[4] += usize::from(!report.replica_coverage.is_fail());
        }
        let [skipped, windows, by_run_out, fail, pass] = covered;
        assert!(skipped > 1_000_000, "{covered:?}");
        assert!(windows > 500 && by_run_out > 50, "{covered:?}");
        assert!(fail > 20 && pass > 20, "{covered:?}");
    }

    /// The ring takes events in any order: one that steps back in time to
    /// where a prefix had not yet run out is judged there, as before.
    #[test]
    fn a_step_back_in_time_rejudges_coverage() {
        let events = vec![
            started(1.0, 1, 7),
            crashed(2.0, 1),
            prefix_serve(2.0, 2, 7), // runs out at 12 s
            pad(13.0),               // past the run-out: uncovered from 13 s
            pad(11.0),               // back before it: covered again
            pad(14.0),
            pad(40.0),
        ];
        let rec = recorder(events);
        let on_demand = Judge::new(rec.fold());
        let reference = SessionFold::sweep_every_event(rec.events());
        assert_eq!(on_demand.uncovered, Judge::new(&reference).uncovered);
        assert_eq!(
            on_demand.uncovered,
            [
                // The crash opens a window that the bridge closes at once.
                (MovieId(1), t(2.0), t(2.0)),
                (MovieId(1), t(13.0), t(11.0)),
                (MovieId(1), t(14.0), t(40.0))
            ]
        );
    }

    #[test]
    fn display_is_deterministic() {
        let report = OracleReport::check(&recorder(vec![]), &OracleConfig::paper_default());
        let text = format!("{report}");
        assert!(text.contains("oracle: PASS"));
        assert!(text.contains("exclusive-service: pass"));
        assert_eq!(text, format!("{report}"));
    }
}
