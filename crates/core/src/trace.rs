//! Unified cross-layer observability: structured events, a bounded
//! recorder, JSON-Lines export and derived run reports.
//!
//! Every layer of the stack emits [`VodEvent`]s — the network
//! ([`simnet::TraceEvent`]), the group communication service
//! ([`gcs::GcsTrace`]), the servers and the clients — into one shared
//! [`TraceRecorder`] reached through cheap clonable [`TraceHandle`]s.
//!
//! The recorder keeps the latest events in a bounded ring and folds every
//! event into one running summary as it is pushed. The [`RunReport`] and
//! the safety oracle ([`OracleReport::check`](crate::oracle::OracleReport::check))
//! read that fold, not the ring, so they cover the whole run however much
//! of it the ring has evicted.
//!
//! # Zero-cost guarantee
//!
//! A disabled handle ([`TraceHandle::disabled`]) is a `None`: emitting
//! through it is a single branch and the event is never even constructed
//! ([`TraceHandle::emit`] takes a closure). Scenarios that do not opt in
//! via [`ScenarioBuilder::record_events`](crate::scenario::ScenarioBuilder::record_events)
//! pay nothing.
//!
//! # Determinism contract
//!
//! Tracing is strictly passive. Recording an event touches no RNG, no
//! timers and no messages, so a run with a recorder installed is
//! bit-identical to the same run without one — and two runs with the same
//! seed produce byte-identical JSONL streams. Timestamps are serialized as
//! integer microseconds to keep the export free of float formatting
//! ambiguity.

use std::cell::RefCell;
use std::collections::{BTreeMap, VecDeque};
use std::fmt;
use std::fmt::Write as _;
use std::rc::Rc;

use gcs::{GcsTrace, GroupId, View};
use media::{FrameNo, FrameType, MovieId};
use simnet::{DropReason, Endpoint, NodeId, SimTime, TraceEvent};

use crate::client::Band;
use crate::fold::SessionFold;
use crate::forecast::{BringUpTrigger, PolicyKind, PopState};
use crate::json::escape;
use crate::metrics::Histogram;
use crate::protocol::{ClientId, TrafficClass, VcrCmd};

/// Default ring-buffer capacity of a recorder: comfortably holds every
/// event of a 90-second, few-client scenario while bounding memory for
/// larger ones.
pub const DEFAULT_EVENT_CAPACITY: usize = 262_144;

/// Why a received frame was discarded by the client.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum DiscardKind {
    /// Arrived at or behind the display position (stragglers and network
    /// duplicates).
    Late,
    /// Evicted because the software buffer was full.
    Overflow,
}

impl DiscardKind {
    /// Stable lower-snake-case name, used by the JSONL export.
    pub fn name(self) -> &'static str {
        match self {
            DiscardKind::Late => "late",
            DiscardKind::Overflow => "overflow",
        }
    }
}

/// One structured observability event, spanning every layer of the stack.
///
/// An event says what happened; when it happened (simulated time) is
/// stamped by whoever records it ([`TraceHandle::emit`],
/// [`TraceRecorder::push`]). Identity fields use the same
/// types the layers themselves use; the JSONL export renders them
/// compactly (nodes and groups as numbers, endpoints as `"n1:2"` strings).
#[derive(Clone, PartialEq, Debug)]
pub enum VodEvent {
    // ---------------- network (from `simnet::TraceEvent`) ----------------
    /// A datagram was submitted to the network.
    NetSent {
        /// Source endpoint.
        from: Endpoint,
        /// Destination endpoint.
        to: Endpoint,
        /// Traffic class.
        class: TrafficClass,
        /// Payload size in bytes.
        bytes: usize,
    },
    /// A datagram reached a live destination process.
    NetDelivered {
        /// When it was sent (so the delivery time minus `sent_at` is the
        /// latency).
        sent_at: SimTime,
        /// Source endpoint.
        from: Endpoint,
        /// Destination endpoint.
        to: Endpoint,
        /// Traffic class.
        class: TrafficClass,
    },
    /// A datagram was dropped.
    NetDropped {
        /// Source endpoint.
        from: Endpoint,
        /// Destination endpoint.
        to: Endpoint,
        /// Traffic class.
        class: TrafficClass,
        /// Why it was dropped.
        reason: DropReason,
    },
    /// A node booted.
    NodeStarted {
        /// The node.
        node: NodeId,
    },
    /// A node crashed.
    NodeCrashed {
        /// The node.
        node: NodeId,
    },
    /// A previously crashed node booted again with a fresh process (the
    /// repair side of a crash/repair cycle).
    NodeRestarted {
        /// The node.
        node: NodeId,
    },
    /// A network partition came up.
    Partitioned {
        /// One side of the cut.
        a: Box<[NodeId]>,
        /// The other side.
        b: Box<[NodeId]>,
    },
    /// A partition was healed (empty sides: all partitions at once).
    Healed {
        /// One side of the former cut.
        a: Box<[NodeId]>,
        /// The other side.
        b: Box<[NodeId]>,
    },
    /// An inter-site WAN link was browned out: per-link overrides were
    /// installed between the two node sets.
    WanDegraded {
        /// One side of the affected links.
        a: Box<[NodeId]>,
        /// The other side.
        b: Box<[NodeId]>,
    },
    /// A browned-out WAN link was restored to its base profile.
    WanRestored {
        /// One side of the affected links.
        a: Box<[NodeId]>,
        /// The other side.
        b: Box<[NodeId]>,
    },
    /// A site (datacenter) of the deployment, emitted once at build time
    /// so trace consumers (the oracle, reports) can reconstruct the
    /// topology from the event stream alone.
    SiteDefined {
        /// The site (boxed: one event per site and run, and inline it
        /// would be the widest variant by far).
        site: Box<SiteDef>,
    },
    // ---------------- GCS (from `gcs::GcsTrace`) ----------------
    /// A node's failure detector started suspecting a peer.
    Suspected {
        /// The suspecting node.
        node: NodeId,
        /// The suspected peer.
        peer: NodeId,
    },
    /// A node installed a new group view.
    ViewInstalled {
        /// The installing node.
        node: NodeId,
        /// The group.
        group: GroupId,
        /// The view: its epoch, coordinator and members.
        view: Box<View>,
    },
    /// A node asked to join a group.
    JoinRequested {
        /// The joining node.
        node: NodeId,
        /// The group.
        group: GroupId,
    },
    /// A node asked to leave a group.
    LeaveRequested {
        /// The leaving node.
        node: NodeId,
        /// The group.
        group: GroupId,
    },
    // ---------------- server ----------------
    /// A server began (or resumed) transmitting to a client: fresh
    /// adoption, crash takeover or load-balance migration.
    SessionStarted {
        /// The serving node.
        server: NodeId,
        /// The client.
        client: ClientId,
        /// The node the client runs on (where video frames go).
        client_node: NodeId,
        /// The movie.
        movie: MovieId,
        /// The frame transmission (re)starts from.
        resume_frame: FrameNo,
    },
    /// A server stopped transmitting to a client because ownership moved
    /// elsewhere (the session itself lives on).
    SessionStopped {
        /// The releasing server.
        server: NodeId,
        /// The client.
        client: ClientId,
    },
    /// A session ended for good (stop command or end of movie).
    SessionEnded {
        /// The serving node.
        server: NodeId,
        /// The client.
        client: ClientId,
    },
    /// A movie-group view change started a state-exchange round.
    StateExchangeStarted {
        /// The server starting its round.
        server: NodeId,
        /// The movie group's movie.
        movie: MovieId,
        /// The new view's epoch.
        epoch: u64,
        /// Number of replicas in the new view.
        members: usize,
    },
    /// A state-exchange round gathered all expected reports (or timed out)
    /// and client ownership was redistributed.
    Redistributed {
        /// The server that recomputed the assignment.
        server: NodeId,
        /// The movie concerned.
        movie: MovieId,
        /// The epoch the assignment was computed in.
        epoch: u64,
        /// Sessions this server owns after the redistribution.
        owned: usize,
    },
    /// A server granted an emergency burst to a client (paper §4.1).
    EmergencyGranted {
        /// The granting server.
        server: NodeId,
        /// The client.
        client: ClientId,
        /// Base quantity (extra frames in the first second).
        base: u32,
    },
    /// An emergency burst decayed to zero; normal flow control resumes.
    EmergencyEnded {
        /// The server.
        server: NodeId,
        /// The client.
        client: ClientId,
    },
    /// A server began a graceful shutdown, handing its clients over.
    ShutdownStarted {
        /// The server.
        server: NodeId,
    },
    /// The replica manager decided this server should bring up a replica
    /// of a hot movie; the server joined the movie group and the next
    /// redistribution hands it a share of the sessions (DESIGN.md §5d).
    ReplicaBringUp {
        /// The server bringing up the replica.
        server: NodeId,
        /// The movie.
        movie: MovieId,
        /// Observed demand (sessions plus waiting clients) at decision
        /// time.
        demand: u32,
        /// Replica count after the bring-up.
        replicas: u32,
        /// The placement policy that made the decision.
        policy: PolicyKind,
        /// What tripped it (reactive streak, forecast, orphan rescue).
        trigger: BringUpTrigger,
        /// The movie's forecast state at decision time.
        forecast: PopState,
    },
    /// The replica manager decided this server should retire its replica
    /// of a cold movie; the server detaches gracefully (fresh offsets
    /// published first) and the survivors redistribute its sessions.
    ReplicaRetire {
        /// The retiring server.
        server: NodeId,
        /// The movie.
        movie: MovieId,
        /// Observed demand at decision time.
        demand: u32,
        /// Replica count after the retire.
        replicas: u32,
        /// The placement policy that made the decision.
        policy: PolicyKind,
        /// The movie's forecast state at decision time.
        forecast: PopState,
    },
    /// A server began feeding a waiting client the cached prefix of a
    /// movie it does not replicate, hiding the bring-up latency of the
    /// predicted replica (DESIGN.md §5h).
    PrefixServe {
        /// The prefix source.
        server: NodeId,
        /// The client.
        client: ClientId,
        /// Node the client runs on.
        client_node: NodeId,
        /// The movie.
        movie: MovieId,
        /// First frame transmitted.
        from_frame: FrameNo,
        /// Exclusive end of the cached range (frames from the movie
        /// start).
        prefix_frames: u64,
        /// Transmission rate, frames per second.
        rate_fps: u32,
    },
    /// A rescue admission was served at reduced quality: the client's
    /// home site was unreachable and a remote server admitted it beyond
    /// its normal capacity at a degraded frame rate (the paper's §5
    /// quality adaptation applied to cross-DC failover).
    DegradedServe {
        /// The remote server doing the rescue.
        server: NodeId,
        /// The rescued client.
        client: ClientId,
        /// The movie.
        movie: MovieId,
        /// The reduced transmission rate, frames per second.
        rate_fps: u32,
    },
    /// A prefix transmission ended: the client's replica is up
    /// (`to_owner` is a real server), or the session is gone or the
    /// cached range ran out (`to_owner` is the unserved sentinel).
    PrefixHandoff {
        /// The prefix source.
        server: NodeId,
        /// The client.
        client: ClientId,
        /// The movie.
        movie: MovieId,
        /// Frames transmitted from the cache.
        frames_sent: u64,
        /// How long the prefix transmission ran, in microseconds.
        served_us: u64,
        /// Where the client's session landed.
        to_owner: NodeId,
    },
    // ---------------- client ----------------
    /// A client asked the (abstract) server group to open a session.
    OpenRequested {
        /// The client.
        client: ClientId,
        /// The requested movie.
        movie: MovieId,
        /// The requested start position.
        start_at: FrameNo,
    },
    /// The first frame of a session reached the client.
    FirstFrame {
        /// The client.
        client: ClientId,
        /// The frame number.
        frame: FrameNo,
    },
    /// Frames started arriving again after a service interruption (a gap
    /// longer than the glitch threshold while playing).
    StreamResumed {
        /// The client.
        client: ClientId,
        /// Length of the preceding gap, in seconds.
        gap_s: f64,
    },
    /// The client's combined buffer occupancy crossed into a different
    /// Figure-2 band (water-mark / critical-threshold crossing).
    BandChanged {
        /// The client.
        client: ClientId,
        /// Band before.
        from: Band,
        /// Band after.
        to: Band,
        /// Occupancy (frames, software buffer + decoder) after the change.
        occupancy: usize,
    },
    /// The client issued an emergency flow-control request.
    EmergencyRequested {
        /// The client.
        client: ClientId,
        /// Whether the severe tier (occupancy under 15%) fired.
        severe: bool,
    },
    /// The client discarded a received frame.
    FrameDiscarded {
        /// The client.
        client: ClientId,
        /// The frame number.
        frame: FrameNo,
        /// The frame type (I/P/B).
        ftype: FrameType,
        /// Why it was discarded.
        kind: DiscardKind,
    },
    /// The received frame-number sequence jumped forward past at least one
    /// frame the client never saw. Duplicates and reordering within the
    /// buffer window do *not* produce this event — only a frame arriving
    /// beyond `highest seen + 1`. The safety oracle checks these jumps
    /// against the sync-skew bound (paper §6.1.1: duplicates allowed,
    /// gaps bounded by the 500 ms skew).
    FrameGap {
        /// The client.
        client: ClientId,
        /// Highest frame number received before the jump.
        from_frame: FrameNo,
        /// The frame number that arrived next.
        to_frame: FrameNo,
    },
    /// The client issued a VCR command.
    VcrIssued {
        /// The client.
        client: ClientId,
        /// The command.
        cmd: VcrCmd,
    },
    /// The movie played to its end.
    MovieEnded {
        /// The client.
        client: ClientId,
    },
    /// The client re-sent its OPEN after a seeded exponential-backoff
    /// wait — emitted at the moment of the retry so RunReport can
    /// attribute rescue latency to backoff waiting.
    RetryBackoff {
        /// The client.
        client: ClientId,
        /// Retry attempt number (1 = first re-send).
        attempt: u32,
        /// How long the client waited before this retry.
        delay: std::time::Duration,
    },
}

/// What [`VodEvent::SiteDefined`] says about one site.
#[derive(Clone, PartialEq, Debug)]
pub struct SiteDef {
    /// The site's index in the topology.
    pub index: u32,
    /// The site's name.
    pub name: String,
    /// The server nodes of the site.
    pub servers: Vec<NodeId>,
    /// Client nodes homed to the site.
    pub clients: Vec<NodeId>,
}

// An event is at most 40 bytes and a recorded one, with its time, 48: a
// run records hundreds of thousands of events and every byte of one is
// written, and most of them read back, once per event.
const _: () = assert!(std::mem::size_of::<VodEvent>() <= 40);
const _: () = assert!(std::mem::size_of::<(SimTime, VodEvent)>() <= 48);

fn write_nodes(out: &mut String, nodes: &[NodeId]) {
    out.push('[');
    for (i, n) in nodes.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{}", n.0);
    }
    out.push(']');
}

fn frame_type_name(ftype: FrameType) -> &'static str {
    match ftype {
        FrameType::I => "I",
        FrameType::P => "P",
        FrameType::B => "B",
    }
}

/// The typed form of the class name the network reports for a datagram
/// of [`VodWire`](crate::protocol::VodWire).
fn wire_class(name: &str) -> TrafficClass {
    TrafficClass::from_name(name).expect("a traffic class of VodWire")
}

impl VodEvent {
    /// Translates a network-layer trace event.
    ///
    /// # Panics
    ///
    /// Panics on a datagram whose class is not a [`TrafficClass`] — the
    /// network carried something other than
    /// [`VodWire`](crate::protocol::VodWire).
    pub fn from_net(event: &TraceEvent) -> Self {
        match event {
            TraceEvent::Sent {
                from,
                to,
                class,
                bytes,
            } => VodEvent::NetSent {
                from: *from,
                to: *to,
                class: wire_class(class),
                bytes: *bytes,
            },
            TraceEvent::Delivered {
                sent_at,
                from,
                to,
                class,
            } => VodEvent::NetDelivered {
                sent_at: *sent_at,
                from: *from,
                to: *to,
                class: wire_class(class),
            },
            TraceEvent::Dropped {
                from,
                to,
                class,
                reason,
            } => VodEvent::NetDropped {
                from: *from,
                to: *to,
                class: wire_class(class),
                reason: *reason,
            },
            TraceEvent::NodeStarted { node } => VodEvent::NodeStarted { node: *node },
            TraceEvent::NodeCrashed { node } => VodEvent::NodeCrashed { node: *node },
            TraceEvent::NodeRestarted { node } => VodEvent::NodeRestarted { node: *node },
            TraceEvent::Partitioned { a, b } => VodEvent::Partitioned {
                a: a[..].into(),
                b: b[..].into(),
            },
            TraceEvent::Healed { a, b } => VodEvent::Healed {
                a: a[..].into(),
                b: b[..].into(),
            },
            TraceEvent::LinkOverride {
                a,
                b,
                degraded: true,
            } => VodEvent::WanDegraded {
                a: a[..].into(),
                b: b[..].into(),
            },
            TraceEvent::LinkOverride { a, b, .. } => VodEvent::WanRestored {
                a: a[..].into(),
                b: b[..].into(),
            },
        }
    }

    /// Translates a GCS-layer trace event observed on `node`.
    pub fn from_gcs(node: NodeId, event: &GcsTrace) -> Self {
        match event {
            GcsTrace::Suspected { peer } => VodEvent::Suspected { node, peer: *peer },
            GcsTrace::ViewInstalled { group, view } => VodEvent::ViewInstalled {
                node,
                group: *group,
                view: Box::new(view.clone()),
            },
            GcsTrace::JoinRequested { group } => VodEvent::JoinRequested {
                node,
                group: *group,
            },
            GcsTrace::LeaveRequested { group } => VodEvent::LeaveRequested {
                node,
                group: *group,
            },
        }
    }

    /// Appends this event, recorded at `at`, to `out` as one JSON object
    /// (no trailing newline). Every value is produced from integer or
    /// static-string data, so equal event streams render byte-identically.
    pub fn write_json(&self, at: SimTime, out: &mut String) {
        let _ = write!(out, "{{\"t_us\":{}", at.as_micros());
        match self {
            VodEvent::NetSent {
                from,
                to,
                class,
                bytes,
            } => {
                let _ = write!(
                    out,
                    ",\"ev\":\"net_sent\",\"from\":\"{from}\",\"to\":\"{to}\",\"class\":\"{}\",\"bytes\":{bytes}",
                    class.name()
                );
            }
            VodEvent::NetDelivered {
                sent_at,
                from,
                to,
                class,
            } => {
                let _ = write!(
                    out,
                    ",\"ev\":\"net_delivered\",\"from\":\"{from}\",\"to\":\"{to}\",\"class\":\"{}\",\"latency_us\":{}",
                    class.name(),
                    at.saturating_since(*sent_at).as_micros()
                );
            }
            VodEvent::NetDropped {
                from,
                to,
                class,
                reason,
            } => {
                let _ = write!(
                    out,
                    ",\"ev\":\"net_dropped\",\"from\":\"{from}\",\"to\":\"{to}\",\"class\":\"{}\",\"reason\":\"{}\"",
                    class.name(),
                    reason.name()
                );
            }
            VodEvent::NodeStarted { node } => {
                let _ = write!(out, ",\"ev\":\"node_started\",\"node\":{}", node.0);
            }
            VodEvent::NodeCrashed { node } => {
                let _ = write!(out, ",\"ev\":\"node_crashed\",\"node\":{}", node.0);
            }
            VodEvent::NodeRestarted { node } => {
                let _ = write!(out, ",\"ev\":\"node_restarted\",\"node\":{}", node.0);
            }
            VodEvent::Partitioned { a, b } => {
                out.push_str(",\"ev\":\"partitioned\",\"a\":");
                write_nodes(out, a);
                out.push_str(",\"b\":");
                write_nodes(out, b);
            }
            VodEvent::Healed { a, b } => {
                out.push_str(",\"ev\":\"healed\",\"a\":");
                write_nodes(out, a);
                out.push_str(",\"b\":");
                write_nodes(out, b);
            }
            VodEvent::WanDegraded { a, b } => {
                out.push_str(",\"ev\":\"wan_degraded\",\"a\":");
                write_nodes(out, a);
                out.push_str(",\"b\":");
                write_nodes(out, b);
            }
            VodEvent::WanRestored { a, b } => {
                out.push_str(",\"ev\":\"wan_restored\",\"a\":");
                write_nodes(out, a);
                out.push_str(",\"b\":");
                write_nodes(out, b);
            }
            VodEvent::SiteDefined { site } => {
                let _ = write!(
                    out,
                    ",\"ev\":\"site_defined\",\"site\":{},\"name\":\"{}\",\"servers\":",
                    site.index,
                    escape(&site.name)
                );
                write_nodes(out, &site.servers);
                out.push_str(",\"clients\":");
                write_nodes(out, &site.clients);
            }
            VodEvent::Suspected { node, peer } => {
                let _ = write!(
                    out,
                    ",\"ev\":\"suspected\",\"node\":{},\"peer\":{}",
                    node.0, peer.0
                );
            }
            VodEvent::ViewInstalled {
                node, group, view, ..
            } => {
                let _ = write!(
                    out,
                    ",\"ev\":\"view_installed\",\"node\":{},\"group\":{},\"epoch\":{},\"coordinator\":{},\"members\":",
                    node.0, group.0, view.id.epoch, view.id.coordinator.0
                );
                write_nodes(out, &view.members);
            }
            VodEvent::JoinRequested { node, group } => {
                let _ = write!(
                    out,
                    ",\"ev\":\"join_requested\",\"node\":{},\"group\":{}",
                    node.0, group.0
                );
            }
            VodEvent::LeaveRequested { node, group } => {
                let _ = write!(
                    out,
                    ",\"ev\":\"leave_requested\",\"node\":{},\"group\":{}",
                    node.0, group.0
                );
            }
            VodEvent::SessionStarted {
                server,
                client,
                client_node,
                movie,
                resume_frame,
            } => {
                let _ = write!(
                    out,
                    ",\"ev\":\"session_started\",\"server\":{},\"client\":{},\"client_node\":{},\"movie\":{},\"resume_frame\":{}",
                    server.0, client.0, client_node.0, movie.0, resume_frame.0
                );
            }
            VodEvent::SessionStopped { server, client } => {
                let _ = write!(
                    out,
                    ",\"ev\":\"session_stopped\",\"server\":{},\"client\":{}",
                    server.0, client.0
                );
            }
            VodEvent::SessionEnded { server, client } => {
                let _ = write!(
                    out,
                    ",\"ev\":\"session_ended\",\"server\":{},\"client\":{}",
                    server.0, client.0
                );
            }
            VodEvent::StateExchangeStarted {
                server,
                movie,
                epoch,
                members,
            } => {
                let _ = write!(
                    out,
                    ",\"ev\":\"state_exchange_started\",\"server\":{},\"movie\":{},\"epoch\":{epoch},\"members\":{members}",
                    server.0, movie.0
                );
            }
            VodEvent::Redistributed {
                server,
                movie,
                epoch,
                owned,
            } => {
                let _ = write!(
                    out,
                    ",\"ev\":\"redistributed\",\"server\":{},\"movie\":{},\"epoch\":{epoch},\"owned\":{owned}",
                    server.0, movie.0
                );
            }
            VodEvent::EmergencyGranted {
                server,
                client,
                base,
            } => {
                let _ = write!(
                    out,
                    ",\"ev\":\"emergency_granted\",\"server\":{},\"client\":{},\"base\":{base}",
                    server.0, client.0
                );
            }
            VodEvent::EmergencyEnded { server, client } => {
                let _ = write!(
                    out,
                    ",\"ev\":\"emergency_ended\",\"server\":{},\"client\":{}",
                    server.0, client.0
                );
            }
            VodEvent::ShutdownStarted { server } => {
                let _ = write!(out, ",\"ev\":\"shutdown_started\",\"server\":{}", server.0);
            }
            VodEvent::ReplicaBringUp {
                server,
                movie,
                demand,
                replicas,
                policy,
                trigger,
                forecast,
            } => {
                let _ = write!(
                    out,
                    ",\"ev\":\"replica_bring_up\",\"server\":{},\"movie\":{},\"demand\":{demand},\"replicas\":{replicas},\"policy\":\"{}\",\"trigger\":\"{}\",\"forecast\":\"{}\"",
                    server.0,
                    movie.0,
                    policy.as_str(),
                    trigger.as_str(),
                    forecast.as_str()
                );
            }
            VodEvent::ReplicaRetire {
                server,
                movie,
                demand,
                replicas,
                policy,
                forecast,
            } => {
                let _ = write!(
                    out,
                    ",\"ev\":\"replica_retire\",\"server\":{},\"movie\":{},\"demand\":{demand},\"replicas\":{replicas},\"policy\":\"{}\",\"forecast\":\"{}\"",
                    server.0,
                    movie.0,
                    policy.as_str(),
                    forecast.as_str()
                );
            }
            VodEvent::DegradedServe {
                server,
                client,
                movie,
                rate_fps,
            } => {
                let _ = write!(
                    out,
                    ",\"ev\":\"degraded_serve\",\"server\":{},\"client\":{},\"movie\":{},\"rate_fps\":{rate_fps}",
                    server.0, client.0, movie.0
                );
            }
            VodEvent::PrefixServe {
                server,
                client,
                client_node,
                movie,
                from_frame,
                prefix_frames,
                rate_fps,
            } => {
                let _ = write!(
                    out,
                    ",\"ev\":\"prefix_serve\",\"server\":{},\"client\":{},\"client_node\":{},\"movie\":{},\"from_frame\":{},\"prefix_frames\":{prefix_frames},\"rate_fps\":{rate_fps}",
                    server.0, client.0, client_node.0, movie.0, from_frame.0
                );
            }
            VodEvent::PrefixHandoff {
                server,
                client,
                movie,
                frames_sent,
                served_us,
                to_owner,
            } => {
                let _ = write!(
                    out,
                    ",\"ev\":\"prefix_handoff\",\"server\":{},\"client\":{},\"movie\":{},\"frames_sent\":{frames_sent},\"served_us\":{served_us},\"to_owner\":{}",
                    server.0, client.0, movie.0, to_owner.0
                );
            }
            VodEvent::OpenRequested {
                client,
                movie,
                start_at,
            } => {
                let _ = write!(
                    out,
                    ",\"ev\":\"open_requested\",\"client\":{},\"movie\":{},\"start_at\":{}",
                    client.0, movie.0, start_at.0
                );
            }
            VodEvent::FirstFrame { client, frame } => {
                let _ = write!(
                    out,
                    ",\"ev\":\"first_frame\",\"client\":{},\"frame\":{}",
                    client.0, frame.0
                );
            }
            VodEvent::StreamResumed { client, gap_s } => {
                let _ = write!(
                    out,
                    ",\"ev\":\"stream_resumed\",\"client\":{},\"gap_us\":{}",
                    client.0,
                    (gap_s * 1e6).round() as u64
                );
            }
            VodEvent::BandChanged {
                client,
                from,
                to,
                occupancy,
            } => {
                let _ = write!(
                    out,
                    ",\"ev\":\"band_changed\",\"client\":{},\"from\":\"{}\",\"to\":\"{}\",\"occupancy\":{occupancy}",
                    client.0,
                    from.name(),
                    to.name()
                );
            }
            VodEvent::EmergencyRequested { client, severe } => {
                let _ = write!(
                    out,
                    ",\"ev\":\"emergency_requested\",\"client\":{},\"severe\":{severe}",
                    client.0
                );
            }
            VodEvent::FrameDiscarded {
                client,
                frame,
                ftype,
                kind,
            } => {
                let _ = write!(
                    out,
                    ",\"ev\":\"frame_discarded\",\"client\":{},\"frame\":{},\"ftype\":\"{}\",\"kind\":\"{}\"",
                    client.0,
                    frame.0,
                    frame_type_name(*ftype),
                    kind.name()
                );
            }
            VodEvent::FrameGap {
                client,
                from_frame,
                to_frame,
            } => {
                let _ = write!(
                    out,
                    ",\"ev\":\"frame_gap\",\"client\":{},\"from_frame\":{},\"to_frame\":{}",
                    client.0, from_frame.0, to_frame.0
                );
            }
            VodEvent::VcrIssued { client, cmd } => {
                let _ = write!(out, ",\"ev\":\"vcr\",\"client\":{},\"cmd\":\"", client.0);
                match cmd {
                    VcrCmd::Pause => out.push_str("pause\""),
                    VcrCmd::Resume => out.push_str("resume\""),
                    VcrCmd::Seek(frame) => {
                        let _ = write!(out, "seek\",\"frame\":{}", frame.0);
                    }
                    VcrCmd::SetQuality(fps) => {
                        let _ = write!(out, "set_quality\",\"max_fps\":{fps}");
                    }
                    VcrCmd::SetSpeed(pct) => {
                        let _ = write!(out, "set_speed\",\"percent\":{pct}");
                    }
                    VcrCmd::Stop => out.push_str("stop\""),
                }
            }
            VodEvent::MovieEnded { client } => {
                let _ = write!(out, ",\"ev\":\"movie_ended\",\"client\":{}", client.0);
            }
            VodEvent::RetryBackoff {
                client,
                attempt,
                delay,
            } => {
                let _ = write!(
                    out,
                    ",\"ev\":\"retry_backoff\",\"client\":{},\"attempt\":{attempt},\"delay_us\":{}",
                    client.0,
                    delay.as_micros()
                );
            }
        }
        out.push('}');
    }
}

/// Events per chunk of a [`TraceRecorder`]: 48 KiB of timed events, well under
/// the size (128 KiB in glibc) from which an allocator maps a block of its
/// own. A chunk is then carved from the heap's free lists and returned to
/// them, so a process that records run after run touches fresh,
/// kernel-zeroed pages in the first run only; and a chunk boundary is
/// still crossed only once in a thousand pushes. (Chunks of 4 096
/// 88-byte events, each mapped and unmapped, measured 4 % *slower* than
/// the one growing block they replaced — DESIGN.md §5c.)
const CHUNK_EVENTS: usize = 1024;

/// A bounded ring buffer of [`VodEvent`]s, and the fold of every event
/// ever pushed. When full, the oldest events are evicted and counted in
/// [`TraceRecorder::dropped`]; the fold has seen them already.
///
/// The events sit in fixed-size chunks, so recording never copies what is
/// already recorded; eviction advances an offset into the oldest chunk and
/// frees the chunk once the offset reaches its end.
#[derive(Debug)]
pub struct TraceRecorder {
    /// Oldest first, each event with its time; every chunk but the last
    /// holds `CHUNK_EVENTS`.
    chunks: VecDeque<Vec<(SimTime, VodEvent)>>,
    /// Evicted events at the front of the oldest chunk.
    head: usize,
    len: usize,
    capacity: usize,
    dropped: u64,
    fold: SessionFold,
}

impl TraceRecorder {
    /// Creates a recorder holding at most `capacity` events.
    pub fn new(capacity: usize) -> Self {
        TraceRecorder {
            chunks: VecDeque::new(),
            head: 0,
            len: 0,
            capacity: capacity.max(1),
            dropped: 0,
            fold: SessionFold::default(),
        }
    }

    /// Folds the event, which happened at `at`, in and appends it,
    /// evicting the oldest if the buffer is full.
    pub fn push(&mut self, at: SimTime, event: VodEvent) {
        self.fold.observe(at, &event);
        if self.len == self.capacity {
            self.dropped += 1;
            self.len -= 1;
            self.head += 1;
            if self.head == CHUNK_EVENTS {
                self.chunks.pop_front();
                self.head = 0;
            }
        }
        match self.chunks.back_mut() {
            Some(chunk) if chunk.len() < CHUNK_EVENTS => chunk.push((at, event)),
            _ => {
                let mut chunk = Vec::with_capacity(CHUNK_EVENTS);
                chunk.push((at, event));
                self.chunks.push_back(chunk);
            }
        }
        self.len += 1;
    }

    /// The retained events with their times, oldest first.
    pub fn events(&self) -> impl Iterator<Item = (SimTime, &VodEvent)> {
        let mut skip = self.head;
        self.chunks
            .iter()
            .flat_map(move |chunk| &chunk[std::mem::take(&mut skip)..])
            .map(|(at, event)| (*at, event))
    }

    /// The fold of every event ever pushed.
    pub(crate) fn fold(&self) -> &SessionFold {
        &self.fold
    }

    /// The latest timestamp of any event ever pushed (time zero before
    /// the first).
    pub fn latest_at(&self) -> SimTime {
        self.fold.latest_at
    }

    /// Number of retained events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether nothing was recorded (or everything was evicted).
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Maximum number of retained events.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Events evicted because the buffer was full.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Renders the retained events as JSON Lines, one object per line.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::with_capacity(self.len * 96);
        for (at, event) in self.events() {
            event.write_json(at, &mut out);
            out.push('\n');
        }
        out
    }
}

/// A cheap, clonable handle through which components emit [`VodEvent`]s.
///
/// A disabled handle (the default) drops events without constructing them;
/// an enabled one appends to a shared [`TraceRecorder`].
#[derive(Clone, Debug, Default)]
pub struct TraceHandle {
    inner: Option<Rc<RefCell<TraceRecorder>>>,
}

impl TraceHandle {
    /// A handle that discards everything at the cost of one branch.
    pub fn disabled() -> Self {
        TraceHandle::default()
    }

    /// A handle recording into a fresh ring buffer of `capacity` events.
    pub fn recording(capacity: usize) -> Self {
        TraceHandle {
            inner: Some(Rc::new(RefCell::new(TraceRecorder::new(capacity)))),
        }
    }

    /// Whether events are being recorded.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Records the event produced by `make` as happening at `at` — `make`
    /// is only invoked when the handle is enabled, keeping the disabled
    /// path free of event construction.
    pub fn emit(&self, at: SimTime, make: impl FnOnce() -> VodEvent) {
        if let Some(recorder) = &self.inner {
            recorder.borrow_mut().push(at, make());
        }
    }

    /// Runs `f` against the recorder, if one is attached.
    pub fn with_recorder<R>(&self, f: impl FnOnce(&TraceRecorder) -> R) -> Option<R> {
        self.inner.as_ref().map(|rc| f(&rc.borrow()))
    }

    /// Renders the recorded events as JSON Lines.
    pub fn to_jsonl(&self) -> Option<String> {
        self.with_recorder(TraceRecorder::to_jsonl)
    }

    /// Derives a [`RunReport`] from the recorded events.
    pub fn report(&self) -> Option<RunReport> {
        self.with_recorder(RunReport::from_recorder)
    }
}

/// One takeover (or migration), broken down the way the paper reports it:
/// how long until the surviving replicas agreed on a new view, and how
/// long from there until video flowed to the client again.
#[derive(Clone, Debug)]
pub struct TakeoverBreakdown {
    /// The affected client.
    pub client: ClientId,
    /// The server that previously transmitted to the client.
    pub from_server: Option<NodeId>,
    /// The server that took over.
    pub to_server: NodeId,
    /// What moved the session: `"crash"`, `"shutdown"` or `"rebalance"`.
    pub trigger: &'static str,
    /// When the trigger happened (seconds; for `"rebalance"`, when the new
    /// session started).
    pub triggered_s: f64,
    /// Trigger → new movie-group view installed at the adopting server.
    pub view_change_s: f64,
    /// View installed → first video frame delivered to the client.
    pub resume_s: f64,
    /// Trigger → first video frame delivered (view_change + resume).
    pub total_s: f64,
    /// The frame transmission resumed from.
    pub resume_frame: FrameNo,
}

/// A service interruption observed at a client: a gap between consecutive
/// frames long enough to be user-visible.
#[derive(Clone, Copy, Debug)]
pub struct GlitchWindow {
    /// The client.
    pub client: ClientId,
    /// When frames started arriving again (seconds).
    pub resumed_s: f64,
    /// Length of the gap (seconds).
    pub gap_s: f64,
}

/// A completed emergency burst window at a server.
#[derive(Clone, Copy, Debug)]
pub struct EmergencyWindow {
    /// The client the burst served.
    pub client: ClientId,
    /// The granting server.
    pub server: NodeId,
    /// When the burst started (seconds).
    pub started_s: f64,
    /// Grant → decay-to-zero (seconds).
    pub duration_s: f64,
    /// Base quantity of the burst.
    pub base: u32,
}

/// The paper's headline numbers, derived from the fold of a run's event
/// stream: per-takeover latency breakdowns, latency histograms, glitch
/// windows, duplicate-frame counts and emergency durations.
#[derive(Clone, Debug, Default)]
pub struct RunReport {
    /// Failure-driven session moves, with their latency breakdown.
    pub takeovers: Vec<TakeoverBreakdown>,
    /// Session moves with no preceding failure (load balancing).
    pub migrations: u64,
    /// End-to-end latency of delivered video frames (seconds).
    pub delivery_latency: Histogram,
    /// Trigger-to-resume totals of the takeovers above (seconds).
    pub takeover_latency: Histogram,
    /// Time from falling below the low water mark back to the normal band
    /// (seconds) — the paper's buffer-refill time.
    pub refill_time: Histogram,
    /// Service interruptions observed at clients.
    pub glitches: Vec<GlitchWindow>,
    /// Frames discarded on arrival as late (stragglers and duplicates).
    pub late_frames: u64,
    /// Frames evicted because the software buffer overflowed.
    pub overflow_frames: u64,
    /// Emergency requests issued by clients.
    pub emergencies_requested: u64,
    /// Emergency bursts granted by servers.
    pub emergencies_granted: u64,
    /// Completed emergency burst windows.
    pub emergency_windows: Vec<EmergencyWindow>,
    /// Replica bring-ups decided by the dynamic replica manager.
    pub replica_bringups: u64,
    /// Replica retires decided by the dynamic replica manager.
    pub replica_retires: u64,
    /// Bring-up counts keyed by the decision trigger's stable name
    /// (`reactive-streak`, `forecast`, `orphan-rescue`).
    pub bringup_triggers: BTreeMap<&'static str, u64>,
    /// Bring-up decision → first session started on the new replica
    /// (seconds), keyed by the decision trigger's stable name. Bring-ups
    /// whose replica never started a session inside the recorded window
    /// contribute no sample.
    pub bringup_latency: BTreeMap<&'static str, Histogram>,
    /// Prefix-cache serves started by servers.
    pub prefix_serves: u64,
    /// Prefix serves handed off (to the owning replica or dropped).
    pub prefix_handoffs: u64,
    /// Total seconds clients spent receiving prefix frames instead of
    /// waiting unserved — the unserved time the prefix tier avoided.
    pub prefix_seconds_avoided: f64,
    /// Rescue admissions served at reduced quality (degraded mode).
    pub degraded_serves: u64,
    /// Client OPEN retries sent after an exponential-backoff wait.
    pub retry_backoffs: u64,
    /// Per-retry backoff waits (seconds) — the share of rescue latency
    /// spent waiting between OPEN attempts rather than in the network.
    pub retry_wait: Histogram,
    /// Suspicions raised by failure detectors.
    pub suspicions: u64,
    /// Views installed across all nodes and groups.
    pub views_installed: u64,
    /// Events the run recorded, retained or evicted: all of them are
    /// folded into the report.
    pub events_seen: u64,
    /// Of those, events the ring buffer evicted.
    pub events_dropped: u64,
    /// Safety-oracle verdicts, when an oracle pass ran over the same
    /// trace (see [`crate::oracle`]). `None` for plain reports.
    pub oracle: Option<crate::oracle::OracleReport>,
}

impl RunReport {
    /// Derives the report from a recorder's fold of every event it was
    /// pushed, evicted or not.
    pub fn from_recorder(recorder: &TraceRecorder) -> Self {
        let fold = recorder.fold();
        let mut report = RunReport {
            late_frames: fold.late_discards.values().map(|ts| ts.len() as u64).sum(),
            replica_bringups: fold.bringups.len() as u64,
            prefix_serves: fold.prefix_spans.len() as u64,
            degraded_serves: fold.degraded_serves.len() as u64,
            events_seen: recorder.len() as u64 + recorder.dropped(),
            events_dropped: recorder.dropped(),
            ..fold.tally.clone()
        };

        // Correlate each session move after the first with its trigger:
        // the latest crash/shutdown of the previous owner while it served
        // the client, if any — then split the trigger→resume interval at
        // the adopting server's next movie-group view install.
        for (client, history) in &fold.starts {
            for pair in history.windows(2) {
                let (prev, next) = (pair[0], pair[1]);
                let started_s = next.at.as_secs_f64();
                let trigger = fold
                    .failures
                    .iter()
                    .rfind(|&&(t, node, _)| node == prev.server && prev.at <= t && t <= next.at);
                let Some(&(triggered, _, kind)) = trigger else {
                    report.migrations += 1;
                    continue;
                };
                let triggered_s = triggered.as_secs_f64();
                let view_s = fold
                    .movie_views
                    .iter()
                    .find(|&&(t, node)| node == next.server && t > triggered && t <= next.at)
                    .map_or(started_s, |&(t, _)| t.as_secs_f64());
                let resumed = fold
                    .video_arrivals
                    .get(&next.client_node)
                    .and_then(|times| times.iter().find(|&&t| t >= next.at));
                let Some(resumed) = resumed else {
                    // The stream never restarted inside the recorded
                    // window; report the takeover as unresolved by
                    // skipping it (the migration/takeover counters would
                    // otherwise claim a resume that never happened).
                    report.migrations += 1;
                    continue;
                };
                let resumed_s = resumed.as_secs_f64();
                let breakdown = TakeoverBreakdown {
                    client: *client,
                    from_server: Some(prev.server),
                    to_server: next.server,
                    trigger: kind,
                    triggered_s,
                    view_change_s: view_s - triggered_s,
                    resume_s: resumed_s - view_s,
                    total_s: resumed_s - triggered_s,
                    resume_frame: next.resume_frame,
                };
                report.takeover_latency.record(breakdown.total_s);
                report.takeovers.push(breakdown);
            }
        }

        // Attribute each bring-up its time-to-first-session: the first
        // session the new replica starts for that movie at or after the
        // decision. A bring-up whose replica never serves inside the
        // recorded window contributes no latency sample.
        for &(decided, server, movie, trigger) in &fold.bringups {
            *report.bringup_triggers.entry(trigger).or_default() += 1;
            let first = fold
                .starts
                .values()
                .flatten()
                .filter(|s| s.server == server && s.movie == movie && s.at >= decided)
                .map(|s| s.at)
                .min();
            if let Some(started) = first {
                report
                    .bringup_latency
                    .entry(trigger)
                    .or_default()
                    .record(started.as_secs_f64() - decided.as_secs_f64());
            }
        }
        report
    }

    /// Total seconds of user-visible service interruption.
    pub fn glitch_seconds(&self) -> f64 {
        // Not `sum()`: std sums no floats to `-0.0`, which prints as `-0.00`.
        self.glitches.iter().fold(0.0, |total, g| total + g.gap_s)
    }

    /// One-line summary for the end of a CLI run.
    pub fn summary_line(&self) -> String {
        let p99d = self
            .delivery_latency
            .quantile(0.99)
            .map_or_else(|| "-".to_owned(), |v| format!("{:.1}ms", v * 1e3));
        let p99t = self
            .takeover_latency
            .quantile(0.99)
            .map_or_else(|| "-".to_owned(), |v| format!("{v:.2}s"));
        format!(
            "report: takeovers={} migrations={} p99_delivery={} p99_takeover={} glitch={:.2}s late_frames={} emergencies={}",
            self.takeovers.len(),
            self.migrations,
            p99d,
            p99t,
            self.glitch_seconds(),
            self.late_frames,
            self.emergencies_granted,
        )
    }

    /// Renders the whole report as one machine-readable JSON object.
    ///
    /// All durations are integer microseconds (`*_us`) so equal reports
    /// render byte-identically — the same convention as
    /// [`VodEvent::write_json`]. Oracle verdicts, when present, appear
    /// under `"oracle"` with their stable invariant names.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"schema\":\"ftvod-report/v1\"");
        let _ = write!(out, ",\"takeovers\":[");
        for (i, t) in self.takeovers.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"client\":{},\"from_server\":{},\"to_server\":{},\
                 \"trigger\":\"{}\",\"triggered_us\":{},\"view_change_us\":{},\
                 \"resume_us\":{},\"total_us\":{},\"resume_frame\":{}}}",
                t.client.0,
                t.from_server
                    .map_or_else(|| "null".to_owned(), |n| n.0.to_string()),
                t.to_server.0,
                t.trigger,
                secs_to_us(t.triggered_s),
                secs_to_us(t.view_change_s),
                secs_to_us(t.resume_s),
                secs_to_us(t.total_s),
                t.resume_frame.0,
            );
        }
        let _ = write!(out, "],\"migrations\":{}", self.migrations);
        for (name, hist) in [
            ("delivery_latency", &self.delivery_latency),
            ("takeover_latency", &self.takeover_latency),
            ("refill_time", &self.refill_time),
        ] {
            let _ = write!(out, ",\"{name}\":");
            write_histogram_json(&mut out, hist);
        }
        let _ = write!(out, ",\"glitches\":[");
        for (i, g) in self.glitches.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"client\":{},\"resumed_us\":{},\"gap_us\":{}}}",
                g.client.0,
                secs_to_us(g.resumed_s),
                secs_to_us(g.gap_s),
            );
        }
        let _ = write!(
            out,
            "],\"glitch_us\":{},\"late_frames\":{},\"overflow_frames\":{},\
             \"emergencies_requested\":{},\"emergencies_granted\":{}",
            secs_to_us(self.glitch_seconds()),
            self.late_frames,
            self.overflow_frames,
            self.emergencies_requested,
            self.emergencies_granted,
        );
        let _ = write!(out, ",\"emergency_windows\":[");
        for (i, w) in self.emergency_windows.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"client\":{},\"server\":{},\"started_us\":{},\
                 \"duration_us\":{},\"base\":{}}}",
                w.client.0,
                w.server.0,
                secs_to_us(w.started_s),
                secs_to_us(w.duration_s),
                w.base,
            );
        }
        let _ = write!(
            out,
            "],\"replica_bringups\":{},\"replica_retires\":{}",
            self.replica_bringups, self.replica_retires,
        );
        out.push_str(",\"bringup_triggers\":{");
        for (i, (name, count)) in self.bringup_triggers.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{name}\":{count}");
        }
        out.push_str("},\"bringup_latency\":{");
        for (i, (name, hist)) in self.bringup_latency.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{name}\":");
            write_histogram_json(&mut out, hist);
        }
        let _ = write!(
            out,
            "}},\"prefix_serves\":{},\"prefix_handoffs\":{},\
             \"prefix_avoided_us\":{}",
            self.prefix_serves,
            self.prefix_handoffs,
            secs_to_us(self.prefix_seconds_avoided),
        );
        let _ = write!(
            out,
            ",\"degraded_serves\":{},\"retry_backoffs\":{},\"retry_wait\":",
            self.degraded_serves, self.retry_backoffs,
        );
        write_histogram_json(&mut out, &self.retry_wait);
        let _ = write!(
            out,
            ",\"suspicions\":{},\"views_installed\":{},\
             \"events_seen\":{},\"events_dropped\":{}",
            self.suspicions, self.views_installed, self.events_seen, self.events_dropped,
        );
        match &self.oracle {
            None => out.push_str(",\"oracle\":null"),
            Some(oracle) => {
                let _ = write!(
                    out,
                    ",\"oracle\":{{\"pass\":{},\"verdicts\":[",
                    oracle.pass()
                );
                for (i, (name, verdict)) in oracle.verdicts().iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    let (status, detail) = match verdict {
                        crate::oracle::Verdict::Pass => ("pass", None),
                        crate::oracle::Verdict::Fail(d) => ("fail", Some(d)),
                        crate::oracle::Verdict::Inconclusive(d) => ("inconclusive", Some(d)),
                    };
                    let _ = write!(
                        out,
                        "{{\"invariant\":\"{name}\",\"status\":\"{status}\",\"detail\":"
                    );
                    match detail {
                        None => out.push_str("null"),
                        Some(d) => {
                            out.push('"');
                            out.push_str(&escape(d));
                            out.push('"');
                        }
                    }
                    out.push('}');
                }
                out.push_str("]}");
            }
        }
        out.push('}');
        out
    }
}

/// Seconds to integer microseconds, the JSON duration convention.
fn secs_to_us(seconds: f64) -> u64 {
    (seconds * 1e6).round().max(0.0) as u64
}

/// Appends a histogram as `{"count":…,"min_us":…,…}` (or `null` when it
/// has no samples).
fn write_histogram_json(out: &mut String, hist: &Histogram) {
    if hist.is_empty() {
        out.push_str("null");
        return;
    }
    let _ = write!(
        out,
        "{{\"count\":{},\"min_us\":{},\"max_us\":{},\"mean_us\":{},\
         \"p50_us\":{},\"p90_us\":{},\"p99_us\":{}}}",
        hist.count(),
        secs_to_us(hist.min().expect("non-empty")),
        secs_to_us(hist.max().expect("non-empty")),
        secs_to_us(hist.mean().expect("non-empty")),
        secs_to_us(hist.quantile(0.5).expect("non-empty")),
        secs_to_us(hist.quantile(0.9).expect("non-empty")),
        secs_to_us(hist.quantile(0.99).expect("non-empty")),
    );
}

fn write_histogram_line(
    f: &mut fmt::Formatter<'_>,
    label: &str,
    unit_ms: bool,
    hist: &Histogram,
) -> fmt::Result {
    write!(f, "  {label}: ")?;
    if hist.is_empty() {
        return writeln!(f, "no samples");
    }
    let scale = if unit_ms { 1e3 } else { 1.0 };
    let unit = if unit_ms { "ms" } else { "s" };
    for (name, q) in [("p50", 0.5), ("p90", 0.9), ("p99", 0.99)] {
        let v = hist.quantile(q).expect("non-empty") * scale;
        write!(f, "{name}={v:.2}{unit} ")?;
    }
    writeln!(
        f,
        "max={:.2}{unit} (n={})",
        hist.max().expect("non-empty") * scale,
        hist.count()
    )
}

impl fmt::Display for RunReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "run report ({} events, {} evicted)",
            self.events_seen, self.events_dropped
        )?;
        writeln!(
            f,
            "  session moves: {} takeover(s), {} migration(s)",
            self.takeovers.len(),
            self.migrations
        )?;
        for t in &self.takeovers {
            let from = t
                .from_server
                .map_or_else(|| "?".to_owned(), |n| n.to_string());
            writeln!(
                f,
                "    {} {} of {} at {:.3}s -> {}: view change {:.3}s + resume {:.3}s = {:.3}s (frame {})",
                t.client,
                t.trigger,
                from,
                t.triggered_s,
                t.to_server,
                t.view_change_s,
                t.resume_s,
                t.total_s,
                t.resume_frame.0
            )?;
        }
        write_histogram_line(f, "delivery latency", true, &self.delivery_latency)?;
        write_histogram_line(f, "takeover latency", false, &self.takeover_latency)?;
        write_histogram_line(f, "refill time", false, &self.refill_time)?;
        writeln!(
            f,
            "  glitches: {} window(s), {:.2}s total",
            self.glitches.len(),
            self.glitch_seconds()
        )?;
        writeln!(
            f,
            "  frames discarded: {} late, {} overflow",
            self.late_frames, self.overflow_frames
        )?;
        writeln!(
            f,
            "  emergencies: {} requested, {} granted, {} completed window(s)",
            self.emergencies_requested,
            self.emergencies_granted,
            self.emergency_windows.len()
        )?;
        writeln!(
            f,
            "  replication: {} bring-up(s), {} retire(s)",
            self.replica_bringups, self.replica_retires
        )?;
        for (name, count) in &self.bringup_triggers {
            write!(f, "    {name}: {count} bring-up(s)")?;
            match self.bringup_latency.get(name).filter(|h| !h.is_empty()) {
                Some(hist) => writeln!(
                    f,
                    ", first session p50={:.2}s max={:.2}s (n={})",
                    hist.quantile(0.5).expect("non-empty"),
                    hist.max().expect("non-empty"),
                    hist.count()
                )?,
                None => writeln!(f, ", never served in window")?,
            }
        }
        if self.prefix_serves > 0 || self.prefix_handoffs > 0 {
            writeln!(
                f,
                "  prefix cache: {} serve(s), {} handoff(s), {:.2}s unserved time avoided",
                self.prefix_serves, self.prefix_handoffs, self.prefix_seconds_avoided
            )?;
        }
        if self.degraded_serves > 0 {
            writeln!(
                f,
                "  degraded mode: {} rescue serve(s)",
                self.degraded_serves
            )?;
        }
        if self.retry_backoffs > 0 {
            let total: f64 = self.retry_wait.mean().unwrap_or(0.0) * self.retry_wait.count() as f64;
            writeln!(
                f,
                "  open retries: {} after backoff, {:.2}s total wait",
                self.retry_backoffs, total
            )?;
        }
        writeln!(
            f,
            "  gcs: {} suspicion(s), {} view(s) installed",
            self.suspicions, self.views_installed
        )?;
        if let Some(oracle) = &self.oracle {
            write!(f, "{oracle}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(us: u64) -> SimTime {
        SimTime::from_micros(us)
    }

    #[test]
    fn disabled_handle_never_builds_events() {
        let handle = TraceHandle::disabled();
        let mut built = false;
        handle.emit(t(0), || {
            built = true;
            VodEvent::NodeCrashed { node: NodeId(1) }
        });
        assert!(!built, "closure must not run on a disabled handle");
        assert!(handle.to_jsonl().is_none());
        assert!(handle.report().is_none());
    }

    #[test]
    fn ring_buffer_evicts_oldest() {
        let handle = TraceHandle::recording(2);
        for i in 0..5u32 {
            handle.emit(t(u64::from(i)), || VodEvent::NodeStarted {
                node: NodeId(i),
            });
        }
        handle
            .with_recorder(|rec| {
                assert_eq!(rec.len(), 2);
                assert_eq!(rec.dropped(), 3);
                let (first, _) = rec.events().next().unwrap();
                assert_eq!(first, t(3), "oldest retained event");
            })
            .unwrap();
    }

    /// A report covers the whole run however small the ring: five glitches
    /// through a ring of two are five. And a run without one prints
    /// `0.00`, not the `-0.00` that summing no glitches used to.
    #[test]
    fn a_report_covers_evicted_events_and_no_glitch_is_not_negative() {
        let glitch = || VodEvent::StreamResumed {
            client: ClientId(1),
            gap_s: 0.5,
        };
        let whole = TraceHandle::recording(8);
        let evicted = TraceHandle::recording(2);
        for i in 0..5 {
            whole.emit(t(i), glitch);
            evicted.emit(t(i), glitch);
        }
        let (whole, mut evicted) = (whole.report().unwrap(), evicted.report().unwrap());
        assert_eq!((evicted.events_seen, evicted.events_dropped), (5, 3));
        assert_eq!(evicted.glitches.len(), 5);
        evicted.events_dropped = 0;
        assert_eq!(evicted.to_json(), whole.to_json());
        let none = TraceHandle::recording(1).report().unwrap();
        assert!(none.glitch_seconds().is_sign_positive());
        for text in [none.summary_line(), none.to_string()] {
            assert!(!text.contains("-0.00"), "{text}");
        }
        assert!(none.summary_line().contains(" glitch=0.00s "));
    }

    #[test]
    fn jsonl_is_one_valid_object_per_line() {
        let handle = TraceHandle::recording(16);
        handle.emit(t(2500), || VodEvent::NetDelivered {
            sent_at: t(2000),
            from: Endpoint::new(NodeId(1), simnet::Port(2)),
            to: Endpoint::new(NodeId(100), simnet::Port(2)),
            class: TrafficClass::Video,
        });
        handle.emit(t(3000), || VodEvent::VcrIssued {
            client: ClientId(1),
            cmd: VcrCmd::Seek(FrameNo(42)),
        });
        let jsonl = handle.to_jsonl().unwrap();
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(
            lines[0],
            "{\"t_us\":2500,\"ev\":\"net_delivered\",\"from\":\"n1:2\",\"to\":\"n100:2\",\"class\":\"video\",\"latency_us\":500}"
        );
        assert_eq!(
            lines[1],
            "{\"t_us\":3000,\"ev\":\"vcr\",\"client\":1,\"cmd\":\"seek\",\"frame\":42}"
        );
        for line in lines {
            assert!(line.starts_with('{') && line.ends_with('}'));
            assert_eq!(
                line.matches('{').count(),
                line.matches('}').count(),
                "balanced braces: {line}"
            );
        }
    }

    /// One event of the ten kinds the ring property pushes: four the
    /// fold skips, six it reads, two of those owning heap memory.
    fn ring_event(kind: u64, at: SimTime) -> VodEvent {
        let from = Endpoint::new(NodeId(1), simnet::Port(1));
        let to = Endpoint::new(NodeId(100), simnet::Port(2));
        let node = NodeId(kind as u32);
        match kind {
            0 | 1 => VodEvent::NetSent {
                from,
                to,
                class: [TrafficClass::GcsHb, TrafficClass::Video][kind as usize],
                bytes: 64,
            },
            2..=4 => VodEvent::NetDelivered {
                sent_at: at,
                from,
                to,
                class: [
                    TrafficClass::GcsHb,
                    TrafficClass::VodSync,
                    TrafficClass::Video,
                ][kind as usize - 2],
            },
            5 => VodEvent::NetDropped {
                from,
                to,
                class: TrafficClass::Video,
                reason: DropReason::Loss,
            },
            6 => VodEvent::NodeCrashed { node },
            7 => VodEvent::FrameGap {
                client: ClientId(7),
                from_frame: FrameNo(1),
                to_frame: FrameNo(3),
            },
            8 => VodEvent::Partitioned {
                a: [node].into(),
                b: [NodeId(2), NodeId(3)].into(),
            },
            _ => VodEvent::ViewInstalled {
                node,
                group: GroupId(11),
                view: Box::new(View::new(
                    gcs::ViewId {
                        epoch: 2,
                        coordinator: node,
                    },
                    vec![node, NodeId(4)],
                )),
            },
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(3))]

        /// Differential test of the chunked ring against the plain
        /// `VecDeque` of timed events it replaced, at capacities that put
        /// eviction before, on and after a chunk boundary. After every
        /// push the counters and the oldest retained event agree; after every
        /// fourth, and the two after a chunk is freed, so does the order
        /// of all retained events; every 193rd push and at the end the
        /// JSONL is the model's, byte for byte.
        #[test]
        fn the_chunked_ring_is_the_plain_ring_it_replaced(seed in 0u64..1 << 32) {
            const C: usize = CHUNK_EVENTS;
            // [chunks freed by eviction, pushes that stepped back in time].
            let mut seen = [0usize; 2];
            for capacity in [1, C - 1, C, C + 1, 3 * C + 7] {
                let mut rng = simnet::SimRng::seed_from_u64(seed ^ capacity as u64);
                let mut ring = TraceRecorder::new(capacity);
                let mut model: VecDeque<(SimTime, VodEvent)> = VecDeque::new();
                let (mut dropped, mut latest, mut now) = (0u64, SimTime::ZERO, 0u64);
                proptest::prop_assert!(ring.is_empty() && ring.latest_at() == latest);
                for serial in 0..(capacity + C + 61) as u64 {
                    // Mostly forwards, sometimes back; `serial` in the low
                    // digits makes every timestamp identify its event.
                    now = (now + rng.gen_u64_below(4)).saturating_sub(rng.gen_u64_below(2));
                    let at = SimTime::from_micros(now * 100_000 + serial);
                    let event = ring_event(rng.gen_u64_below(10), at);
                    seen[1] += usize::from(at < latest);
                    latest = latest.max(at);
                    if model.len() == capacity {
                        model.pop_front().expect("capacity is at least 1");
                        dropped += 1;
                        seen[0] += usize::from((dropped as usize).is_multiple_of(C));
                    }
                    model.push_back((at, event.clone()));
                    ring.push(at, event);

                    proptest::prop_assert_eq!(ring.len(), model.len());
                    proptest::prop_assert_eq!(ring.dropped(), dropped);
                    proptest::prop_assert_eq!(ring.capacity(), capacity);
                    proptest::prop_assert!(!ring.is_empty());
                    proptest::prop_assert_eq!(ring.latest_at(), latest);
                    proptest::prop_assert_eq!(
                        ring.events().next(),
                        model.front().map(|(at, event)| (*at, event))
                    );
                    if serial % 4 != 0 && (dropped == 0 || dropped as usize % C > 1) {
                        continue;
                    }
                    proptest::prop_assert!(
                        ring.events().eq(model.iter().map(|(at, event)| (*at, event))),
                        "capacity {capacity}, push {serial}: retained events differ"
                    );
                    if serial % 193 == 0 || serial as usize == capacity + C + 60 {
                        let mut jsonl = String::new();
                        for (at, event) in &model {
                            event.write_json(*at, &mut jsonl);
                            jsonl.push('\n');
                        }
                        proptest::prop_assert_eq!(ring.to_jsonl(), jsonl);
                    }
                }
            }
            let [chunks_freed, stepped_back] = seen;
            proptest::prop_assert!(chunks_freed >= 5, "{seen:?}");
            proptest::prop_assert!(stepped_back > 100, "{seen:?}");
        }
    }

    /// Every traffic class and every variant this PR shrank renders the
    /// bytes the 88-byte event rendered: the fixture is the output of the
    /// parent commit (7f78600) for the same thirty events.
    #[test]
    fn shrunk_events_render_the_bytes_they_rendered_before() {
        let from = Endpoint::new(NodeId(1), simnet::Port(2));
        let to = Endpoint::new(NodeId(100), simnet::Port(1));
        let mut events = Vec::new();
        // In the fixture's order: "video", "gcs-hb", "gcs-ctl", "vod-ctl",
        // "vod-sync", "vod-flow" when the class was still a string.
        let classes = [
            TrafficClass::Video,
            TrafficClass::GcsHb,
            TrafficClass::GcsCtl,
            TrafficClass::VodCtl,
            TrafficClass::VodSync,
            TrafficClass::VodFlow,
        ];
        for (i, class) in classes.into_iter().enumerate() {
            let at = t(1000 + i as u64);
            events.push((
                at,
                VodEvent::NetSent {
                    from,
                    to,
                    class,
                    bytes: 100 + i,
                },
            ));
            events.push((
                at,
                VodEvent::NetDelivered {
                    sent_at: t(900),
                    from,
                    to,
                    class,
                },
            ));
            events.push((
                at,
                VodEvent::NetDropped {
                    from,
                    to,
                    class,
                    reason: DropReason::Partition,
                },
            ));
        }
        assert_eq!(events.len(), 3 * TrafficClass::ALL.len());
        let (a, b) = (vec![NodeId(1), NodeId(2)], vec![NodeId(3)]);
        let (boxed_a, boxed_b): (Box<[NodeId]>, Box<[NodeId]>) =
            (a.clone().into(), b.clone().into());
        events.push((
            t(2000),
            VodEvent::Partitioned {
                a: boxed_a.clone(),
                b: boxed_b.clone(),
            },
        ));
        events.push((
            t(2001),
            VodEvent::Healed {
                a: [].into(),
                b: [].into(),
            },
        ));
        events.push((
            t(2002),
            VodEvent::WanDegraded {
                a: boxed_a.clone(),
                b: boxed_b.clone(),
            },
        ));
        events.push((
            t(2003),
            VodEvent::WanRestored {
                a: boxed_b,
                b: boxed_a,
            },
        ));
        events.push((
            t(0),
            VodEvent::SiteDefined {
                site: Box::new(SiteDef {
                    index: 1,
                    name: "east \"coast\"".to_owned(),
                    servers: a.clone(),
                    clients: vec![NodeId(100), NodeId(101)],
                }),
            },
        ));
        events.push((
            t(2004),
            VodEvent::ViewInstalled {
                node: NodeId(2),
                group: GroupId(11),
                view: Box::new(View::new(
                    gcs::ViewId {
                        epoch: 7,
                        coordinator: NodeId(1),
                    },
                    a,
                )),
            },
        ));
        let bands = [
            Band::Normal,
            Band::BelowLow,
            Band::CriticalMild,
            Band::CriticalSevere,
            Band::AboveHigh,
            Band::Normal,
        ];
        for (i, pair) in bands.windows(2).enumerate() {
            events.push((
                t(3000 + i as u64),
                VodEvent::BandChanged {
                    client: ClientId(5),
                    from: pair[0],
                    to: pair[1],
                    occupancy: 10 + i,
                },
            ));
        }
        events.push((
            t(4000),
            VodEvent::PrefixHandoff {
                server: NodeId(3),
                client: ClientId(5),
                movie: MovieId(2),
                frames_sent: 42,
                served_us: 1_400_017,
                to_owner: NodeId(1),
            },
        ));
        let mut rec = TraceRecorder::new(events.len());
        for (at, event) in events {
            rec.push(at, event);
        }
        assert_eq!(
            rec.to_jsonl(),
            include_str!("../tests/fixtures/trace_events_pr23.jsonl")
        );
    }

    #[test]
    fn report_correlates_a_crash_takeover() {
        let handle = TraceHandle::recording(64);
        let client_node = NodeId(100);
        let video = |sent_us: u64| VodEvent::NetDelivered {
            sent_at: t(sent_us),
            from: Endpoint::new(NodeId(2), simnet::Port(2)),
            to: Endpoint::new(client_node, simnet::Port(2)),
            class: TrafficClass::Video,
        };
        let start = |server: u32, frame: u64| VodEvent::SessionStarted {
            server: NodeId(server),
            client: ClientId(1),
            client_node,
            movie: MovieId(1),
            resume_frame: FrameNo(frame),
        };
        handle.emit(t(1_000_000), || start(2, 0));
        handle.emit(t(1_100_000), || video(1_099_000));
        handle.emit(t(40_000_000), || VodEvent::NodeCrashed { node: NodeId(2) });
        handle.emit(t(40_400_000), || VodEvent::ViewInstalled {
            node: NodeId(1),
            group: crate::protocol::movie_group(MovieId(1)),
            view: Box::new(View::new(
                gcs::ViewId {
                    epoch: 3,
                    coordinator: NodeId(1),
                },
                vec![NodeId(1)],
            )),
        });
        handle.emit(t(40_600_000), || start(1, 1170));
        handle.emit(t(40_650_000), || video(40_648_000));
        let report = handle.report().unwrap();
        assert_eq!(report.takeovers.len(), 1);
        assert_eq!(report.migrations, 0);
        let takeover = &report.takeovers[0];
        assert_eq!(takeover.trigger, "crash");
        assert_eq!(takeover.from_server, Some(NodeId(2)));
        assert_eq!(takeover.to_server, NodeId(1));
        assert!((takeover.view_change_s - 0.4).abs() < 1e-9);
        assert!((takeover.resume_s - 0.25).abs() < 1e-9);
        assert!((takeover.total_s - 0.65).abs() < 1e-9);
        assert_eq!(takeover.resume_frame, FrameNo(1170));
        assert_eq!(report.takeover_latency.count(), 1);
        assert_eq!(report.delivery_latency.count(), 2);
        let line = report.summary_line();
        assert!(line.contains("takeovers=1"), "{line}");
        let pretty = report.to_string();
        assert!(pretty.contains("crash of n2"), "{pretty}");
    }

    /// A move away from a server that crashed and restarted *before* the
    /// session began on it is a migration: the old crash is no trigger.
    #[test]
    fn report_counts_a_move_off_a_restarted_server_as_migration() {
        let handle = TraceHandle::recording(64);
        let start = |server: u32| VodEvent::SessionStarted {
            server: NodeId(server),
            client: ClientId(1),
            client_node: NodeId(100),
            movie: MovieId(1),
            resume_frame: FrameNo(0),
        };
        handle.emit(t(1_000_000), || start(1));
        handle.emit(t(5_000_000), || VodEvent::NodeCrashed { node: NodeId(2) });
        handle.emit(t(10_000_000), || VodEvent::NodeRestarted {
            node: NodeId(2),
        });
        handle.emit(t(20_000_000), || start(2));
        handle.emit(t(40_000_000), || start(3));
        handle.emit(t(40_100_000), || VodEvent::NetDelivered {
            sent_at: t(40_099_000),
            from: Endpoint::new(NodeId(3), simnet::Port(2)),
            to: Endpoint::new(NodeId(100), simnet::Port(2)),
            class: TrafficClass::Video,
        });
        let report = handle.report().unwrap();
        assert!(report.takeovers.is_empty(), "{report}");
        assert_eq!(report.migrations, 2);
    }

    #[test]
    fn report_counts_rebalance_as_migration() {
        let handle = TraceHandle::recording(64);
        let start = |server: u32| VodEvent::SessionStarted {
            server: NodeId(server),
            client: ClientId(1),
            client_node: NodeId(100),
            movie: MovieId(1),
            resume_frame: FrameNo(0),
        };
        handle.emit(t(1_000_000), || start(1));
        handle.emit(t(64_000_000), || start(3));
        handle.emit(t(64_100_000), || VodEvent::NetDelivered {
            sent_at: t(64_099_000),
            from: Endpoint::new(NodeId(3), simnet::Port(2)),
            to: Endpoint::new(NodeId(100), simnet::Port(2)),
            class: TrafficClass::Video,
        });
        let report = handle.report().unwrap();
        assert!(report.takeovers.is_empty());
        assert_eq!(report.migrations, 1);
    }

    #[test]
    fn report_tracks_refill_and_emergency_windows() {
        let handle = TraceHandle::recording(64);
        handle.emit(t(10_000_000), || VodEvent::BandChanged {
            client: ClientId(1),
            from: Band::Normal,
            to: Band::CriticalSevere,
            occupancy: 2,
        });
        handle.emit(t(10_100_000), || VodEvent::EmergencyRequested {
            client: ClientId(1),
            severe: true,
        });
        handle.emit(t(10_200_000), || VodEvent::EmergencyGranted {
            server: NodeId(1),
            client: ClientId(1),
            base: 12,
        });
        handle.emit(t(12_000_000), || VodEvent::BandChanged {
            client: ClientId(1),
            from: Band::CriticalSevere,
            to: Band::BelowLow,
            occupancy: 15,
        });
        handle.emit(t(13_000_000), || VodEvent::BandChanged {
            client: ClientId(1),
            from: Band::BelowLow,
            to: Band::Normal,
            occupancy: 28,
        });
        handle.emit(t(18_200_000), || VodEvent::EmergencyEnded {
            server: NodeId(1),
            client: ClientId(1),
        });
        let report = handle.report().unwrap();
        assert_eq!(report.refill_time.count(), 1);
        assert!((report.refill_time.max().unwrap() - 3.0).abs() < 1e-9);
        assert_eq!(report.emergencies_requested, 1);
        assert_eq!(report.emergencies_granted, 1);
        assert_eq!(report.emergency_windows.len(), 1);
        assert!((report.emergency_windows[0].duration_s - 8.0).abs() < 1e-9);
    }
}
