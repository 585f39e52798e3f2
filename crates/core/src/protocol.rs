//! Wire protocol of the VoD service.
//!
//! Two planes, mirroring the paper's architecture (§2, §5):
//!
//! * the **data plane**: [`VideoPacket`]s carrying one MPEG frame each,
//!   sent over plain (unreliable) datagrams on [`VIDEO_PORT`];
//! * the **control plane**: [`ControlPayload`]s multicast through the
//!   group communication service on [`GCS_PORT`] — connection
//!   establishment, flow control, VCR commands and the servers' periodic
//!   state synchronization.
//!
//! [`VodWire`] is the top-level message enum the whole simulation runs on.

use std::fmt;

use gcs::{GcsPacket, GroupId};
use media::{FrameMeta, FrameNo, MovieId};
use simnet::{NodeId, Payload, Port, SimTime};

/// Port carrying group-communication datagrams on every node.
pub const GCS_PORT: Port = Port(1);

/// Port carrying video frames on every node.
pub const VIDEO_PORT: Port = Port(2);

/// The group of all VoD servers; clients contact it to open a session
/// without knowing any server identity (paper §5.1).
pub const SERVER_GROUP: GroupId = GroupId(1);

/// First movie-group id; movie groups run up to [`SESSION_GROUP_BASE`].
const MOVIE_GROUP_BASE: u64 = 10;

/// First session-group id.
const SESSION_GROUP_BASE: u64 = 1_000_000;

/// The movie group of `movie`: all servers holding a replica.
pub fn movie_group(movie: MovieId) -> GroupId {
    GroupId(MOVIE_GROUP_BASE + u64::from(movie.0))
}

/// The session group of `client`: the client plus the server currently
/// transmitting to it.
pub fn session_group(client: ClientId) -> GroupId {
    GroupId(SESSION_GROUP_BASE + u64::from(client.0))
}

/// Whether `group` is a movie group (as opposed to the server group or a
/// session group) — used when classifying view changes in trace analysis.
pub fn is_movie_group(group: GroupId) -> bool {
    movie_of_group(group).is_some()
}

/// Inverse of [`movie_group`]: the movie whose replicas form `group`.
pub fn movie_of_group(group: GroupId) -> Option<MovieId> {
    (MOVIE_GROUP_BASE..SESSION_GROUP_BASE)
        .contains(&group.0)
        .then(|| MovieId((group.0 - MOVIE_GROUP_BASE) as u32))
}

/// Inverse of [`session_group`]: the client whose session `group` is.
pub fn client_of_session_group(group: GroupId) -> Option<ClientId> {
    let client = group.0.checked_sub(SESSION_GROUP_BASE)?;
    u32::try_from(client).ok().map(ClientId)
}

/// Identifier of a VoD client (one session each).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct ClientId(pub u32);

impl fmt::Debug for ClientId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "c{}", self.0)
    }
}

impl fmt::Display for ClientId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "c{}", self.0)
    }
}

impl From<u32> for ClientId {
    fn from(raw: u32) -> Self {
        ClientId(raw)
    }
}

/// Everything a replica needs to know about one client, shared in the
/// movie group every sync interval (paper §5.2: "offsets of its clients in
/// the movie and their current transmission rates: a total of a few dozens
/// of bytes").
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct ClientRecord {
    /// The client.
    pub client: ClientId,
    /// Node the client runs on (video frames are addressed to it).
    pub client_node: NodeId,
    /// The client's session group.
    pub session_group: GroupId,
    /// Movie being watched.
    pub movie: MovieId,
    /// Next frame to transmit.
    pub next_frame: FrameNo,
    /// Current base transmission rate, frames per second.
    pub rate_fps: u32,
    /// Client capability cap (quality adaptation, §4.3).
    pub max_fps: u32,
    /// The server currently responsible for this client.
    pub owner: NodeId,
    /// Epoch of the movie-group view in which `owner` was (re)assigned.
    /// Redistribution decisions carry the new view's epoch, so they
    /// dominate any periodic report from before the membership change when
    /// replicas merge concurrent records.
    pub assigned_epoch: u64,
    /// Freshness within an epoch: simulation time of the last update by
    /// the owner.
    pub updated_at: SimTime,
    /// Whether the stream is paused (VCR).
    pub paused: bool,
}

/// A record is its own live record: callers of
/// [`TakeoverTable::step`](crate::server::TakeoverTable::step) that keep
/// plain records as their sessions pass them as they are.
impl AsRef<ClientRecord> for ClientRecord {
    fn as_ref(&self) -> &ClientRecord {
        self
    }
}

impl ClientRecord {
    /// Nominal wire size of one record (the paper: "a few dozens of
    /// bytes").
    pub const WIRE_BYTES: usize = 44;
}

/// Connection establishment: a client's request to the abstract server
/// group (paper §3: "clients connect to the VoD service and request a
/// movie").
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct OpenRequest {
    /// The requesting client.
    pub client: ClientId,
    /// Node the client runs on.
    pub client_node: NodeId,
    /// Movie to watch.
    pub movie: MovieId,
    /// The session group the client has created and joined.
    pub session_group: GroupId,
    /// Client capability cap in frames per second.
    pub max_fps: u32,
    /// Frame to start from.
    pub start_at: FrameNo,
}

/// A client's flow-control request (paper Figure 2).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum FlowRequest {
    /// Increase the transmission rate by one frame per second.
    Increase,
    /// Decrease the transmission rate by one frame per second.
    Decrease,
    /// Buffer occupancy fell below a critical threshold; the server
    /// responds with a decaying burst (§4.1). `severe` selects the larger
    /// base quantity (occupancy under 15 % rather than under 30 %).
    Emergency {
        /// Below the 15 % threshold (vs merely below 30 %).
        severe: bool,
    },
}

/// VCR-style commands (paper §3: "full VCR-like control ... in accordance
/// with the ATM Forum VoD specs").
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum VcrCmd {
    /// Freeze transmission.
    Pause,
    /// Resume transmission after a pause.
    Resume,
    /// Random access: continue from an arbitrary frame.
    Seek(FrameNo),
    /// Adjust the quality cap (maximum frames per second).
    SetQuality(u32),
    /// Playback-speed control in percent of normal (200 = double speed,
    /// 50 = slow motion); paper §3 lists speed control among the client's
    /// control messages.
    SetSpeed(u32),
    /// End the session.
    Stop,
}

/// Control-plane payloads carried by the group communication service.
#[derive(Clone, PartialEq, Debug)]
pub enum ControlPayload {
    /// Client → server group: open a session (non-member send).
    Open(OpenRequest),
    /// Server → movie group: periodic/state-exchange client records.
    Sync {
        /// The reporting server.
        server: NodeId,
        /// Movie group this report concerns.
        movie: MovieId,
        /// View epoch this report was generated in (used to collect the
        /// state-exchange round that follows a membership change).
        view_epoch: u64,
        /// Records of the clients this server currently owns.
        records: Vec<ClientRecord>,
    },
    /// Server → movie group: a client's session ended (stop or departure).
    Remove {
        /// Movie group concerned.
        movie: MovieId,
        /// The client to forget.
        client: ClientId,
    },
    /// Client → session group: flow control.
    Flow {
        /// The sending client.
        client: ClientId,
        /// The request.
        req: FlowRequest,
    },
    /// Client → session group: VCR command.
    Vcr {
        /// The sending client.
        client: ClientId,
        /// The command.
        cmd: VcrCmd,
    },
    /// Server → session group: the movie finished.
    EndOfMovie {
        /// The client whose movie ended.
        client: ClientId,
    },
    /// Server → server group: per-movie demand observed at the sender,
    /// shared at the sync cadence. Input of the dynamic replica manager
    /// (DESIGN.md §5d): every server aggregates the latest report of each
    /// peer into a fleet-wide demand picture and deterministically elects
    /// who brings up or retires a replica.
    Demand {
        /// The reporting server.
        server: NodeId,
        /// One entry per movie the sender holds (empty when it holds
        /// none; the report still advertises the sender's zero load).
        entries: Vec<DemandEntry>,
        /// Movies the sender holds a *prefix* for in its prefix cache
        /// (DESIGN.md §5h). Empty when the tier is disabled, so the
        /// report costs nothing extra in that case. Coordinators use
        /// this to route waiting clients to a prefix source while a
        /// predicted replica is still coming up.
        prefixes: Vec<MovieId>,
    },
    /// Coordinator → server group: `target` should serve `record`'s
    /// client the cached prefix of its movie while the real replica
    /// comes up (only the target acts on it).
    PrefixAssign {
        /// The prefix source elected by the coordinator.
        target: NodeId,
        /// The waiting client's record (carries movie, node, offset and
        /// rate).
        record: ClientRecord,
    },
    /// Coordinator → server group: `target` must stop prefix-serving
    /// `client` — either its replica is up (`owner` is the serving
    /// server) or the session is gone (`owner` is the unserved
    /// sentinel).
    PrefixRelease {
        /// The prefix source being released.
        target: NodeId,
        /// The client concerned.
        client: ClientId,
        /// Movie the prefix was served from.
        movie: MovieId,
        /// Where the client's session landed.
        owner: NodeId,
    },
}

/// One movie's demand as observed by a single server.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct DemandEntry {
    /// The movie.
    pub movie: MovieId,
    /// Sessions of this movie the reporting server currently owns.
    pub sessions: u32,
    /// Clients of this movie waiting unserved (admission control); the
    /// record set converges on every replica, so aggregators take the
    /// maximum across reporters rather than the sum.
    pub waiting: u32,
}

impl DemandEntry {
    /// Nominal wire size of one entry.
    pub const WIRE_BYTES: usize = 12;
}

impl Payload for ControlPayload {
    fn size_bytes(&self) -> usize {
        match self {
            ControlPayload::Open(_) => 32,
            ControlPayload::Sync { records, .. } => 16 + records.len() * ClientRecord::WIRE_BYTES,
            ControlPayload::Remove { .. } => 12,
            ControlPayload::Flow { .. } => 8,
            ControlPayload::Vcr { .. } => 12,
            ControlPayload::EndOfMovie { .. } => 8,
            ControlPayload::Demand {
                entries, prefixes, ..
            } => 12 + entries.len() * DemandEntry::WIRE_BYTES + prefixes.len() * 4,
            ControlPayload::PrefixAssign { .. } => 8 + ClientRecord::WIRE_BYTES,
            ControlPayload::PrefixRelease { .. } => 20,
        }
    }

    fn class(&self) -> &'static str {
        let class = match self {
            ControlPayload::Open(_) | ControlPayload::EndOfMovie { .. } => TrafficClass::VodCtl,
            ControlPayload::Flow { .. } | ControlPayload::Vcr { .. } => TrafficClass::VodFlow,
            ControlPayload::Sync { .. }
            | ControlPayload::Remove { .. }
            | ControlPayload::Demand { .. }
            | ControlPayload::PrefixAssign { .. }
            | ControlPayload::PrefixRelease { .. } => TrafficClass::VodSync,
        };
        class.name()
    }
}

/// The traffic classes a [`VodWire`] datagram can report as its
/// [`Payload::class`], typed: a trace event records its class in one byte
/// and renders it by [`TrafficClass::name`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum TrafficClass {
    /// GCS liveness: heartbeats, acks and announces (named by `gcs`).
    GcsHb,
    /// Video frames.
    Video,
    /// GCS membership and retransmission control (named by `gcs`).
    GcsCtl,
    /// Session open and end-of-movie.
    VodCtl,
    /// Replica state: sync, removal, demand and the prefix tier.
    VodSync,
    /// Flow control and VCR commands.
    VodFlow,
}

impl TrafficClass {
    /// Every class, the most frequent on the wire first.
    pub const ALL: [TrafficClass; 6] = [
        TrafficClass::GcsHb,
        TrafficClass::Video,
        TrafficClass::GcsCtl,
        TrafficClass::VodCtl,
        TrafficClass::VodSync,
        TrafficClass::VodFlow,
    ];

    /// The name [`Payload::class`] reports, the network statistics are
    /// keyed by and the JSONL export prints.
    pub const fn name(self) -> &'static str {
        match self {
            TrafficClass::GcsHb => "gcs-hb",
            TrafficClass::Video => "video",
            TrafficClass::GcsCtl => "gcs-ctl",
            TrafficClass::VodCtl => "vod-ctl",
            TrafficClass::VodSync => "vod-sync",
            TrafficClass::VodFlow => "vod-flow",
        }
    }

    /// The class `name` names; `None` for a name no [`VodWire`] reports.
    pub fn from_name(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|class| class.name() == name)
    }
}

/// One video frame on the wire (data plane, unreliable).
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct VideoPacket {
    /// Destination client.
    pub client: ClientId,
    /// Movie the frame belongs to.
    pub movie: MovieId,
    /// The frame itself (metadata stands in for the bitstream).
    pub frame: FrameMeta,
}

impl Payload for VideoPacket {
    fn size_bytes(&self) -> usize {
        // UDP/IP header + tiny app header + the encoded frame.
        28 + 12 + self.frame.size as usize
    }

    fn class(&self) -> &'static str {
        TrafficClass::Video.name()
    }
}

/// Top-level wire type of the simulation: either a GCS packet carrying a
/// control payload, or a raw video frame.
#[derive(Clone, PartialEq, Debug)]
pub enum VodWire {
    /// Group-communication traffic (control plane).
    Gcs(GcsPacket<ControlPayload>),
    /// Video frames (data plane).
    Video(VideoPacket),
}

impl Payload for VodWire {
    fn size_bytes(&self) -> usize {
        match self {
            VodWire::Gcs(pkt) => pkt.size_bytes(),
            VodWire::Video(pkt) => pkt.size_bytes(),
        }
    }

    fn class(&self) -> &'static str {
        match self {
            VodWire::Gcs(pkt) => pkt.class(),
            VodWire::Video(pkt) => pkt.class(),
        }
    }
}

impl From<GcsPacket<ControlPayload>> for VodWire {
    fn from(pkt: GcsPacket<ControlPayload>) -> Self {
        VodWire::Gcs(pkt)
    }
}

impl From<VideoPacket> for VodWire {
    fn from(pkt: VideoPacket) -> Self {
        VodWire::Video(pkt)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use media::FrameType;

    #[test]
    fn group_id_scheme_is_disjoint() {
        assert_ne!(SERVER_GROUP, movie_group(MovieId(0)));
        assert_ne!(movie_group(MovieId(5)), session_group(ClientId(5)));
        assert_eq!(movie_group(MovieId(3)), GroupId(13));
        assert_eq!(session_group(ClientId(2)), GroupId(1_000_002));
    }

    #[test]
    fn group_ids_map_back_to_what_they_name() {
        let g = session_group(ClientId(17));
        assert_eq!(client_of_session_group(g), Some(ClientId(17)));
        assert_eq!(client_of_session_group(movie_group(MovieId(3))), None);
        assert_eq!(movie_of_group(movie_group(MovieId(3))), Some(MovieId(3)));
        assert_eq!(movie_of_group(g), None);
        for group in [SERVER_GROUP, GroupId(0), GroupId(9)] {
            assert_eq!(movie_of_group(group), None, "{group}");
            assert_eq!(client_of_session_group(group), None, "{group}");
            assert!(!is_movie_group(group), "{group}");
        }
        // Both ends of the movie range, and the first session id after it.
        for movie in [MovieId(0), MovieId(999_989)] {
            assert_eq!(movie_of_group(movie_group(movie)), Some(movie));
            assert!(is_movie_group(movie_group(movie)));
        }
        assert_eq!(movie_group(MovieId(0)), GroupId(10));
        assert_eq!(movie_group(MovieId(999_989)), GroupId(999_999));
        assert_eq!(movie_of_group(GroupId(1_000_000)), None);
        assert_eq!(session_group(ClientId(0)), GroupId(1_000_000));
        for client in [ClientId(0), ClientId(u32::MAX)] {
            assert_eq!(client_of_session_group(session_group(client)), Some(client));
        }
        let past_the_last_client = GroupId(session_group(ClientId(u32::MAX)).0 + 1);
        assert_eq!(client_of_session_group(past_the_last_client), None);
    }

    #[test]
    fn sync_payload_size_is_a_few_dozen_bytes_per_client() {
        let record = ClientRecord {
            client: ClientId(1),
            client_node: NodeId(100),
            session_group: session_group(ClientId(1)),
            movie: MovieId(1),
            next_frame: FrameNo(900),
            rate_fps: 30,
            max_fps: 30,
            owner: NodeId(1),
            assigned_epoch: 3,
            updated_at: SimTime::from_secs(30),
            paused: false,
        };
        let payload = ControlPayload::Sync {
            server: NodeId(1),
            movie: MovieId(1),
            view_epoch: 2,
            records: vec![record],
        };
        assert_eq!(payload.size_bytes(), 16 + 44);
        assert_eq!(payload.class(), "vod-sync");
    }

    #[test]
    fn demand_payload_sizes_per_entry() {
        let payload = ControlPayload::Demand {
            server: NodeId(1),
            entries: vec![
                DemandEntry {
                    movie: MovieId(1),
                    sessions: 9,
                    waiting: 2,
                },
                DemandEntry {
                    movie: MovieId(2),
                    sessions: 0,
                    waiting: 0,
                },
            ],
            prefixes: Vec::new(),
        };
        assert_eq!(payload.size_bytes(), 12 + 2 * DemandEntry::WIRE_BYTES);
        assert_eq!(payload.class(), "vod-sync");
        let empty = ControlPayload::Demand {
            server: NodeId(2),
            entries: Vec::new(),
            prefixes: Vec::new(),
        };
        assert_eq!(empty.size_bytes(), 12);
        // Prefix advertisements cost 4 bytes per cached movie.
        let with_prefixes = ControlPayload::Demand {
            server: NodeId(2),
            entries: Vec::new(),
            prefixes: vec![MovieId(3), MovieId(7)],
        };
        assert_eq!(with_prefixes.size_bytes(), 12 + 8);
    }

    #[test]
    fn prefix_payload_sizes_and_class() {
        let record = ClientRecord {
            client: ClientId(1),
            client_node: NodeId(100),
            session_group: session_group(ClientId(1)),
            movie: MovieId(1),
            next_frame: FrameNo(0),
            rate_fps: 30,
            max_fps: 30,
            owner: NodeId(u32::MAX),
            assigned_epoch: 3,
            updated_at: SimTime::from_secs(30),
            paused: false,
        };
        let assign = ControlPayload::PrefixAssign {
            target: NodeId(2),
            record,
        };
        assert_eq!(assign.size_bytes(), 8 + ClientRecord::WIRE_BYTES);
        assert_eq!(assign.class(), "vod-sync");
        let release = ControlPayload::PrefixRelease {
            target: NodeId(2),
            client: ClientId(1),
            movie: MovieId(1),
            owner: NodeId(3),
        };
        assert_eq!(release.size_bytes(), 20);
        assert_eq!(release.class(), "vod-sync");
    }

    #[test]
    fn video_packet_size_tracks_frame() {
        let pkt = VideoPacket {
            client: ClientId(1),
            movie: MovieId(1),
            frame: FrameMeta {
                no: FrameNo(0),
                ftype: FrameType::I,
                size: 10_000,
            },
        };
        assert_eq!(pkt.size_bytes(), 10_040);
        assert_eq!(pkt.class(), "video");
    }

    #[test]
    fn wire_delegates_class() {
        let video = VodWire::Video(VideoPacket {
            client: ClientId(1),
            movie: MovieId(1),
            frame: FrameMeta {
                no: FrameNo(0),
                ftype: FrameType::B,
                size: 100,
            },
        });
        assert_eq!(video.class(), "video");
        let hb: VodWire = GcsPacket::Heartbeat.into();
        assert_eq!(hb.class(), "gcs-hb");
        let flow: VodWire = GcsPacket::AppMsg {
            group: session_group(ClientId(1)),
            origin: NodeId(100),
            seq: 1,
            payload: ControlPayload::Flow {
                client: ClientId(1),
                req: FlowRequest::Increase,
            },
        }
        .into();
        assert_eq!(flow.class(), "vod-flow");
        // What the trace's one-byte class rests on: every name a wire
        // message reports is a `TrafficClass`, `gcs`'s two included.
        let join: VodWire = GcsPacket::JoinReq {
            group: SERVER_GROUP,
            joiner: NodeId(1),
        }
        .into();
        assert_eq!(join.class(), "gcs-ctl");
        for wire in [&video, &hb, &flow, &join] {
            let class = TrafficClass::from_name(wire.class()).expect("typed");
            assert_eq!(class.name(), wire.class());
        }
        for class in TrafficClass::ALL {
            assert_eq!(TrafficClass::from_name(class.name()), Some(class));
        }
        assert_eq!(TrafficClass::from_name("gcs"), None);
    }
}
