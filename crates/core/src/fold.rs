//! The one fold over a run's event stream. The recorder hands it every
//! event as it is pushed, so it has seen the whole run however much of it
//! the ring has evicted since. The safety oracle and the run report read
//! this fold and never the ring: the oracle closes what is still open at
//! the latest event and judges, the report correlates session moves with
//! the failures behind them.

use std::collections::{BTreeMap, BTreeSet};
use std::time::Duration;

use media::{FrameNo, MovieId};
use simnet::{NodeId, SimTime};

use crate::client::Band;
use crate::protocol::{is_movie_group, ClientId, TrafficClass, VcrCmd};
use crate::trace::{DiscardKind, EmergencyWindow, GlitchWindow, RunReport, VodEvent};

/// Whether the fold reads `event` beyond its timestamp. Of the network's
/// datagram events it reads only the delivery of a video frame.
fn read_by_fold(event: &VodEvent) -> bool {
    match event {
        VodEvent::NetSent { .. } | VodEvent::NetDropped { .. } => false,
        VodEvent::NetDelivered { class, .. } => *class == TrafficClass::Video,
        _ => true,
    }
}

/// The key of the unordered server pair `{a, b}`.
pub(crate) fn pair(a: NodeId, b: NodeId) -> (NodeId, NodeId) {
    (a.min(b), a.max(b))
}

/// A server began (or resumed) transmitting to a client.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Start {
    pub(crate) at: SimTime,
    pub(crate) server: NodeId,
    /// Where the client's video frames land.
    pub(crate) client_node: NodeId,
    pub(crate) movie: MovieId,
    pub(crate) resume_frame: FrameNo,
}

/// One closed transmission interval: `server` transmitted to the client
/// over `[start, end)`.
#[derive(Clone, Copy, Debug)]
pub(crate) struct ServeSpan {
    pub(crate) server: NodeId,
    pub(crate) start: SimTime,
    pub(crate) end: SimTime,
}

/// One prefix-serve interval: `server` bridged the client with cached
/// prefix frames from `start` until the handoff (or the source's crash).
#[derive(Clone, Copy, Debug)]
pub(crate) struct PrefixSpan {
    pub(crate) client: ClientId,
    pub(crate) server: NodeId,
    pub(crate) start: SimTime,
    /// `None` while still open.
    pub(crate) end: Option<SimTime>,
}

/// Everything the oracle and the run report read, advanced one event at a
/// time by [`SessionFold::observe`].
#[derive(Debug, Default)]
pub(crate) struct SessionFold {
    /// The latest time of any event observed, read or not: where whatever
    /// is still open closes.
    pub(crate) latest_at: SimTime,

    // Read by both the oracle and the report.
    /// Session (re)starts per client, in the order observed.
    pub(crate) starts: BTreeMap<ClientId, Vec<Start>>,
    /// Crashes and graceful shutdowns: `(at, node, "crash" | "shutdown")`.
    pub(crate) failures: Vec<(SimTime, NodeId, &'static str)>,
    /// Video datagram arrival times per destination node.
    pub(crate) video_arrivals: BTreeMap<NodeId, Vec<SimTime>>,
    /// Late-discard times per client.
    pub(crate) late_discards: BTreeMap<ClientId, Vec<SimTime>>,
    /// Prefix-serve intervals (closed by handoff or source crash).
    pub(crate) prefix_spans: Vec<PrefixSpan>,
    /// Degraded (reduced-quality) rescue serves: `(at, client)`.
    pub(crate) degraded_serves: Vec<(SimTime, ClientId)>,
    /// Replica bring-up decisions: `(at, server, movie, trigger)`.
    pub(crate) bringups: Vec<(SimTime, NodeId, MovieId, &'static str)>,

    // The oracle's.
    /// Closed transmission intervals per client.
    pub(crate) spans: BTreeMap<ClientId, Vec<ServeSpan>>,
    /// Open transmissions: client → server → since.
    pub(crate) open_spans: BTreeMap<ClientId, BTreeMap<NodeId, SimTime>>,
    /// Healed cuts between unordered server pairs: `(a, b) -> [[from, to)]`.
    pub(crate) cuts: BTreeMap<(NodeId, NodeId), Vec<(SimTime, SimTime)>>,
    /// Cuts not healed yet: when they began, and how many partitions
    /// still sever the pair. Overlapping partitions may cut the same pair,
    /// and the network reopens it only when the last of them heals.
    pub(crate) open_cuts: BTreeMap<(NodeId, NodeId), (SimTime, u32)>,
    /// Frame-sequence jumps observed at clients: `(at, client, missed)`.
    pub(crate) gaps: Vec<(SimTime, ClientId, u64)>,
    /// When each client's session was over for good (server-side end,
    /// client stop, or end of movie) — excuses for invariant 4.
    pub(crate) session_over: BTreeMap<ClientId, SimTime>,
    /// Clients whose own actions ended the session (VCR stop, end of
    /// movie). Unlike a server-side end, this is ground truth of intent:
    /// a later `SessionStarted` against it is a stale-record resurrection
    /// by a replica that missed the removal, not renewed demand, and must
    /// not re-arm invariant 4.
    stopped_for_good: BTreeSet<ClientId>,
    /// Closed windows during which some watched movie had no live holder:
    /// `(movie, from, to)`.
    pub(crate) uncovered: Vec<(MovieId, SimTime, SimTime)>,
    /// Movies without a live holder now, and since when.
    pub(crate) uncovered_since: BTreeMap<MovieId, SimTime>,
    /// Site definitions: site index → (server nodes, homed client nodes).
    /// Empty for single-datacenter traces.
    pub(crate) sites: BTreeMap<u32, (BTreeSet<NodeId>, BTreeSet<NodeId>)>,
    /// Closed windows during which an entire site was faulted — every
    /// member either not live or cut from all other sites' servers.
    pub(crate) site_faults: BTreeMap<u32, Vec<(SimTime, SimTime)>>,
    /// Sites faulted now, and since when.
    pub(crate) site_fault_since: BTreeMap<u32, SimTime>,
    /// The union of all site servers: the "other sites" a faulted site
    /// must be cut from.
    all_site_servers: BTreeSet<NodeId>,
    live: BTreeSet<NodeId>,
    holders: BTreeMap<MovieId, BTreeSet<NodeId>>,
    viewers: BTreeMap<MovieId, BTreeSet<ClientId>>,
    /// Open prefix serves: (client, source) → index into `prefix_spans`.
    open_prefix: BTreeMap<(ClientId, NodeId), usize>,
    /// Per movie, each open prefix serve's run-out: the instant the
    /// advertised prefix ends at the nominal rate.
    prefix_cover: BTreeMap<MovieId, BTreeMap<(ClientId, NodeId), SimTime>>,
    /// When coverage was last judged, and the earliest prefix run-out
    /// that still counted then: no later instant up to it can flip a
    /// movie's coverage by itself.
    swept_at: SimTime,
    next_run_out: Option<SimTime>,

    // The report's.
    /// The report's counters, histograms and windows: everything but the
    /// correlations [`RunReport::from_recorder`] adds.
    pub(crate) tally: RunReport,
    /// Movie-group view installs: `(at, node)`.
    pub(crate) movie_views: Vec<(SimTime, NodeId)>,
    /// Emergency bursts not ended yet: client → (granted at, server, base).
    open_grants: BTreeMap<ClientId, (SimTime, NodeId, u32)>,
    /// When each client fell below the low water mark, until it refills.
    refill_start: BTreeMap<ClientId, SimTime>,
}

impl SessionFold {
    /// Folds in one event, which happened at `at`, in the order the run
    /// recorded them.
    pub(crate) fn observe(&mut self, at: SimTime, event: &VodEvent) {
        self.latest_at = self.latest_at.max(at);
        if !read_by_fold(event) {
            return;
        }
        // Only liveness and connectivity transitions can change a site's
        // fault status; skip the per-site sweep elsewhere.
        let site_relevant = matches!(
            event,
            VodEvent::NodeStarted { .. }
                | VodEvent::NodeRestarted { .. }
                | VodEvent::NodeCrashed { .. }
                | VodEvent::Partitioned { .. }
                | VodEvent::Healed { .. }
                | VodEvent::SessionStarted { .. }
                | VodEvent::SiteDefined { .. }
        );
        // The arms below that write `live`, `holders`, `viewers` or
        // `prefix_cover`, which is all that coverage reads besides `at`.
        let coverage_relevant = matches!(
            event,
            VodEvent::NodeStarted { .. }
                | VodEvent::NodeRestarted { .. }
                | VodEvent::NodeCrashed { .. }
                | VodEvent::SessionStarted { .. }
                | VodEvent::SessionEnded { .. }
                | VodEvent::ReplicaBringUp { .. }
                | VodEvent::ReplicaRetire { .. }
                | VodEvent::PrefixServe { .. }
                | VodEvent::PrefixHandoff { .. }
        );
        match event {
            VodEvent::NetDelivered {
                sent_at,
                to,
                class: TrafficClass::Video,
                ..
            } => {
                self.tally
                    .delivery_latency
                    .record(at.saturating_since(*sent_at).as_secs_f64());
                self.video_arrivals.entry(to.node).or_default().push(at);
            }
            VodEvent::NodeStarted { node } | VodEvent::NodeRestarted { node } => {
                self.live.insert(*node);
            }
            VodEvent::NodeCrashed { node } => {
                self.live.remove(node);
                // The crash terminates whatever the node was serving...
                for (client, open) in &mut self.open_spans {
                    if let Some(start) = open.remove(node) {
                        self.spans.entry(*client).or_default().push(ServeSpan {
                            server: *node,
                            start,
                            end: at,
                        });
                    }
                }
                // ...including any prefix bridging it was doing.
                let prefix_spans = &mut self.prefix_spans;
                self.open_prefix.retain(|&(_, server), &mut idx| {
                    if server == *node {
                        prefix_spans[idx].end = Some(at);
                        false
                    } else {
                        true
                    }
                });
                for sources in self.prefix_cover.values_mut() {
                    sources.retain(|&(_, server), _| server != *node);
                }
                self.failures.push((at, *node, "crash"));
            }
            VodEvent::ShutdownStarted { server } => {
                self.failures.push((at, *server, "shutdown"));
            }
            VodEvent::Partitioned { a, b } => {
                for &x in a {
                    for &y in b {
                        self.open_cuts.entry(pair(x, y)).or_insert((at, 0)).1 += 1;
                    }
                }
            }
            VodEvent::Healed { a, b } => {
                let heal_all = a.is_empty() && b.is_empty();
                let healed: Vec<(NodeId, NodeId)> = if heal_all {
                    self.open_cuts.keys().copied().collect()
                } else {
                    a.iter()
                        .flat_map(|&x| b.iter().map(move |&y| pair(x, y)))
                        .collect()
                };
                for key in healed {
                    let Some((from, severing)) = self.open_cuts.get_mut(&key) else {
                        continue;
                    };
                    *severing -= 1;
                    if heal_all || *severing == 0 {
                        let from = *from;
                        self.open_cuts.remove(&key);
                        self.cuts.entry(key).or_default().push((from, at));
                    }
                }
            }
            VodEvent::Suspected { .. } => self.tally.suspicions += 1,
            VodEvent::ViewInstalled { node, group, .. } => {
                self.tally.views_installed += 1;
                if is_movie_group(*group) {
                    self.movie_views.push((at, *node));
                }
            }
            VodEvent::SessionStarted {
                server,
                client,
                client_node,
                movie,
                resume_frame,
            } => {
                self.open_spans
                    .entry(*client)
                    .or_default()
                    .entry(*server)
                    .or_insert(at);
                // Transmitting proves the server is up, even if no boot of
                // it was recorded.
                self.live.insert(*server);
                self.holders.entry(*movie).or_default().insert(*server);
                self.viewers.entry(*movie).or_default().insert(*client);
                self.starts.entry(*client).or_default().push(Start {
                    at,
                    server: *server,
                    client_node: *client_node,
                    movie: *movie,
                    resume_frame: *resume_frame,
                });
                // A session (re)start supersedes an earlier server-side
                // "over" (a wrong end corrected by a takeover) — but never
                // the client's own stop.
                if !self.stopped_for_good.contains(client) {
                    self.session_over.remove(client);
                }
            }
            VodEvent::SessionStopped { server, client } => self.close_span(*client, *server, at),
            VodEvent::SessionEnded { server, client } => {
                self.close_span(*client, *server, at);
                self.session_over.entry(*client).or_insert(at);
                if let Some(start) = self.starts.get(client).and_then(|s| s.last()) {
                    if let Some(watching) = self.viewers.get_mut(&start.movie) {
                        watching.remove(client);
                    }
                }
            }
            VodEvent::ReplicaBringUp {
                server,
                movie,
                trigger,
                ..
            } => {
                self.holders.entry(*movie).or_default().insert(*server);
                self.bringups.push((at, *server, *movie, trigger.as_str()));
            }
            VodEvent::ReplicaRetire { server, movie, .. } => {
                if let Some(set) = self.holders.get_mut(movie) {
                    set.remove(server);
                }
                self.tally.replica_retires += 1;
            }
            VodEvent::PrefixServe {
                server,
                client,
                movie,
                prefix_frames,
                rate_fps,
                ..
            } => {
                self.open_prefix
                    .insert((*client, *server), self.prefix_spans.len());
                self.prefix_spans.push(PrefixSpan {
                    client: *client,
                    server: *server,
                    start: at,
                    end: None,
                });
                let runs_out = at
                    + Duration::from_micros(
                        prefix_frames * 1_000_000 / u64::from((*rate_fps).max(1)),
                    );
                self.prefix_cover
                    .entry(*movie)
                    .or_default()
                    .insert((*client, *server), runs_out);
            }
            VodEvent::PrefixHandoff {
                server,
                client,
                movie,
                served_us,
                ..
            } => {
                if let Some(idx) = self.open_prefix.remove(&(*client, *server)) {
                    self.prefix_spans[idx].end = Some(at);
                }
                if let Some(sources) = self.prefix_cover.get_mut(movie) {
                    sources.remove(&(*client, *server));
                }
                self.tally.prefix_handoffs += 1;
                self.tally.prefix_seconds_avoided +=
                    Duration::from_micros(*served_us).as_secs_f64();
            }
            VodEvent::DegradedServe { client, .. } => self.degraded_serves.push((at, *client)),
            VodEvent::FrameGap {
                client,
                from_frame,
                to_frame,
            } => {
                let missed = to_frame.0.saturating_sub(from_frame.0).saturating_sub(1);
                self.gaps.push((at, *client, missed));
            }
            VodEvent::FrameDiscarded { client, kind, .. } => match kind {
                DiscardKind::Late => self.late_discards.entry(*client).or_default().push(at),
                DiscardKind::Overflow => self.tally.overflow_frames += 1,
            },
            VodEvent::VcrIssued {
                client,
                cmd: VcrCmd::Stop,
            }
            | VodEvent::MovieEnded { client } => {
                self.session_over.entry(*client).or_insert(at);
                self.stopped_for_good.insert(*client);
            }
            VodEvent::SiteDefined { site } => {
                self.all_site_servers.extend(site.servers.iter().copied());
                self.sites.insert(
                    site.index,
                    (
                        site.servers.iter().copied().collect(),
                        site.clients.iter().copied().collect(),
                    ),
                );
            }
            VodEvent::EmergencyGranted {
                server,
                client,
                base,
            } => {
                self.tally.emergencies_granted += 1;
                self.open_grants.insert(*client, (at, *server, *base));
            }
            VodEvent::EmergencyEnded { client, .. } => {
                if let Some((started, server, base)) = self.open_grants.remove(client) {
                    let started_s = started.as_secs_f64();
                    self.tally.emergency_windows.push(EmergencyWindow {
                        client: *client,
                        server,
                        started_s,
                        duration_s: at.as_secs_f64() - started_s,
                        base,
                    });
                }
            }
            VodEvent::EmergencyRequested { .. } => self.tally.emergencies_requested += 1,
            VodEvent::RetryBackoff { delay, .. } => {
                self.tally.retry_backoffs += 1;
                self.tally.retry_wait.record(delay.as_secs_f64());
            }
            VodEvent::StreamResumed { client, gap_s } => {
                self.tally.glitches.push(GlitchWindow {
                    client: *client,
                    resumed_s: at.as_secs_f64(),
                    gap_s: *gap_s,
                });
            }
            VodEvent::BandChanged { client, to, .. } => {
                if matches!(to, Band::Normal | Band::AboveHigh) {
                    if let Some(started) = self.refill_start.remove(client) {
                        self.tally
                            .refill_time
                            .record(at.as_secs_f64() - started.as_secs_f64());
                    }
                } else {
                    self.refill_start.entry(*client).or_insert(at);
                }
            }
            _ => {}
        }
        if site_relevant && !self.sites.is_empty() {
            self.sweep_sites(at);
        }
        // Coverage transitions. A live prefix source counts, but only
        // until its advertised prefix runs out, so besides the events
        // above the first event past a run-out re-judges too (as does one
        // that steps back before the last sweep: the ring takes any
        // order). Anywhere else a sweep would change nothing.
        if coverage_relevant
            || at < self.swept_at
            || self.next_run_out.is_some_and(|runs_out| at > runs_out)
        {
            self.sweep_coverage(at);
        }
    }

    /// Closes `server`'s transmission to `client`, if open.
    fn close_span(&mut self, client: ClientId, server: NodeId, end: SimTime) {
        if let Some(start) = self
            .open_spans
            .get_mut(&client)
            .and_then(|open| open.remove(&server))
        {
            self.spans
                .entry(client)
                .or_default()
                .push(ServeSpan { server, start, end });
        }
    }

    /// Site-fault transitions: a site is faulted while every member is
    /// either down or cut from every other site's servers.
    fn sweep_sites(&mut self, at: SimTime) {
        for (&site, (members, _)) in &self.sites {
            let others: Vec<NodeId> = self
                .all_site_servers
                .iter()
                .copied()
                .filter(|n| !members.contains(n))
                .collect();
            let faulted = !members.is_empty()
                && members.iter().all(|&m| {
                    !self.live.contains(&m)
                        || (!others.is_empty()
                            && others
                                .iter()
                                .all(|&o| self.open_cuts.contains_key(&pair(m, o))))
                });
            if faulted {
                self.site_fault_since.entry(site).or_insert(at);
            } else if let Some(from) = self.site_fault_since.remove(&site) {
                // Zero-length windows (definition precedes the members'
                // boot events at the same instant) carry no information
                // and must not excuse anything.
                if at > from {
                    self.site_faults.entry(site).or_default().push((from, at));
                }
            }
        }
    }

    /// Opens an uncovered window for each watched movie without a live
    /// holder or an unexpired prefix source, and closes it once one is
    /// back.
    fn sweep_coverage(&mut self, at: SimTime) {
        self.swept_at = at;
        self.next_run_out = self
            .prefix_cover
            .values()
            .flat_map(BTreeMap::values)
            .copied()
            .filter(|&runs_out| at <= runs_out)
            .min();
        for (movie, watching) in &self.viewers {
            let covered = watching.is_empty()
                || self
                    .holders
                    .get(movie)
                    .is_some_and(|h| h.iter().any(|s| self.live.contains(s)))
                || self
                    .prefix_cover
                    .get(movie)
                    .is_some_and(|sources| sources.values().any(|&runs_out| at <= runs_out));
            if covered {
                if let Some(from) = self.uncovered_since.remove(movie) {
                    self.uncovered.push((*movie, from, at));
                }
            } else {
                self.uncovered_since.entry(*movie).or_insert(at);
            }
        }
    }

    /// The fold of `events` with coverage re-judged after every event it
    /// reads, not only where that can change it: the reference the
    /// on-demand sweep of [`SessionFold::observe`] is tested against.
    #[cfg(test)]
    pub(crate) fn sweep_every_event<'a>(
        events: impl Iterator<Item = (SimTime, &'a VodEvent)>,
    ) -> Self {
        let mut fold = SessionFold::default();
        for (at, event) in events {
            fold.observe(at, event);
            if read_by_fold(event) {
                fold.sweep_coverage(at);
            }
        }
        fold
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Observes a partition (`cut`) or a heal of `a | b` at `at` seconds.
    fn observe(fold: &mut SessionFold, at: u64, cut: bool, a: &[u32], b: &[u32]) {
        let nodes = |ids: &[u32]| ids.iter().copied().map(NodeId).collect();
        let (a, b) = (nodes(a), nodes(b));
        let event = if cut {
            VodEvent::Partitioned { a, b }
        } else {
            VodEvent::Healed { a, b }
        };
        fold.observe(SimTime::from_secs(at), &event);
    }

    fn cuts(fold: &SessionFold, a: u32, b: u32) -> Vec<(u64, u64)> {
        let secs = |t: SimTime| t.as_micros() / 1_000_000;
        let cuts = &fold.cuts[&(NodeId(a), NodeId(b))];
        cuts.iter().map(|&(s, e)| (secs(s), secs(e))).collect()
    }

    /// Two overlapping partitions both sever servers 1 and 2: the pair
    /// stays cut until the second heals, as the network routes it.
    #[test]
    fn a_pair_stays_cut_until_its_last_partition_heals() {
        let mut fold = SessionFold::default();
        observe(&mut fold, 10, true, &[1], &[2, 3]);
        observe(&mut fold, 12, true, &[2], &[1, 3]);
        observe(&mut fold, 14, false, &[1], &[2, 3]);
        observe(&mut fold, 18, false, &[2], &[1, 3]);
        assert_eq!(cuts(&fold, 1, 2), [(10, 18)]);
        assert_eq!(cuts(&fold, 1, 3), [(10, 14)]);
        assert_eq!(cuts(&fold, 2, 3), [(12, 18)]);
        assert!(fold.open_cuts.is_empty());

        // A heal of two empty sides clears every cut, however many
        // partitions sever it.
        observe(&mut fold, 20, true, &[1], &[2]);
        observe(&mut fold, 21, true, &[2], &[1]);
        observe(&mut fold, 22, false, &[], &[]);
        assert_eq!(cuts(&fold, 1, 2), [(10, 18), (20, 22)]);
        assert!(fold.open_cuts.is_empty());
    }
}
