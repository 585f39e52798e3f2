//! The VoD client: buffering, flow control, display and VCR operations.
//!
//! The client is *oblivious to server identity* (paper §5.3): it contacts
//! the abstract server group to open a session, joins its own session
//! group, and from then on only consumes whatever video frames arrive and
//! multicasts flow-control/VCR messages into the session group — whichever
//! server currently serves it receives them.
//!
//! Every decision is [`ClientSession`]'s, a plain value (`session.rs`);
//! [`VodClient`] is the process around it: the GCS node, the timers, the
//! trace and the profile.

mod buffer;
mod flow;
pub mod session;

pub use buffer::{FeedSummary, InsertOutcome, SoftwareBuffer};
pub use flow::{Band, FlowController};
pub use session::ClientSession;

use gcs::{GcsEvent, GcsNode};
use media::GopPattern;
use simnet::{Context, Endpoint, NodeId, Process, SimTime, Timer};

use crate::config::VodConfig;
use crate::metrics::{Cumulative, TimeSeries};
use crate::profile::{ProfileHandle, Subsystem};
use crate::protocol::{
    session_group, ClientId, ControlPayload, VcrCmd, VodWire, GCS_PORT, SERVER_GROUP,
};
use crate::trace::{TraceHandle, VodEvent};
use session::{Action, ClientTimer, Input};

/// Timer tags: the GCS node's tick, then the session's timers, each at
/// `GCS_TICK + 1 +` its place in [`TIMERS`] (declaration order).
const GCS_TICK: u64 = 1;
const TIMERS: [ClientTimer; 3] = [
    ClientTimer::Display,
    ClientTimer::Sample,
    ClientTimer::Retry,
];

/// Everything the client knows about the movie it wants to watch (from the
/// catalog listing; it never holds the frame data itself).
#[derive(Clone, Debug, PartialEq)]
pub struct WatchRequest {
    /// The movie to watch.
    pub movie: media::MovieId,
    /// The movie's nominal frame rate.
    pub movie_fps: u32,
    /// The movie's GOP structure (used to derive the effective display
    /// rate under quality adaptation).
    pub gop: GopPattern,
    /// This client's capability cap in frames per second (§4.3).
    pub max_fps: u32,
    /// Nominal stream bitrate, used to express the hardware buffer's byte
    /// capacity in frames for the combined-occupancy flow control.
    pub bitrate_bps: u64,
}

impl WatchRequest {
    /// Watch `movie` at full quality from the beginning.
    pub fn full_quality(movie: &media::Movie) -> Self {
        WatchRequest {
            movie: movie.id(),
            movie_fps: movie.fps(),
            gop: movie.gop().clone(),
            max_fps: movie.fps(),
            bitrate_bps: movie.target_bitrate_bps(),
        }
    }
}

/// Counters and series recorded by a client — the exact quantities plotted
/// in the paper's Figures 4 and 5. `PartialEq` backs the determinism
/// contract: tests compare full stats between traced and untraced runs.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ClientStats {
    /// Video packets that reached this client.
    pub frames_received: u64,
    /// Frames discarded because they arrived after their display position
    /// (duplicates included) — Figure 4(b).
    pub late: Cumulative,
    /// Frames discarded due to software-buffer overflow — Figure 5(b).
    pub overflow: Cumulative,
    /// All frames never displayed: overflow discards plus positions passed
    /// over because the frame never arrived — Figures 4(a)/5(a).
    pub skipped: Cumulative,
    /// Display ticks with an empty decoder (visible freeze).
    pub stalls: Cumulative,
    /// Software-buffer occupancy samples (frames) — Figure 4(c).
    pub sw_occupancy: TimeSeries,
    /// Hardware-buffer occupancy samples (bytes) — Figure 4(d).
    pub hw_occupancy: TimeSeries,
    /// Emergency requests issued.
    pub emergencies: Cumulative,
    /// I frames sacrificed by the overflow policy (the paper reports none).
    pub i_frames_evicted: u64,
    /// Arrival time of the first video frame.
    pub first_frame_at: Option<SimTime>,
    /// Arrival time of the most recent video frame.
    pub last_frame_at: Option<SimTime>,
    /// Interruptions of the video stream longer than 200 ms:
    /// `(start_seconds, duration_seconds)` — the irregularity periods of
    /// §4.2 (takeovers, migrations).
    pub interruptions: Vec<(f64, f64)>,
}

/// The client process: a [`ClientSession`] and the effects it asks for.
pub struct VodClient {
    session: ClientSession,
    gcs: GcsNode<ControlPayload>,
    trace: TraceHandle,
    profile: ProfileHandle,
    /// The actions of the step being applied, reused across steps.
    actions: Vec<Action>,
}

impl std::fmt::Debug for VodClient {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "VodClient({})", self.session.id())
    }
}

impl VodClient {
    /// Creates a client that will watch per `request`, using `servers` as
    /// the bootstrap set for contacting the VoD service. `retry_seed`
    /// seeds the re-OPEN backoff jitter ([`ClientSession::new`]).
    pub(crate) fn new(
        cfg: VodConfig,
        id: ClientId,
        node: NodeId,
        servers: Vec<NodeId>,
        request: WatchRequest,
        retry_seed: u64,
    ) -> Self {
        VodClient {
            session: ClientSession::new(&cfg, id, node, request, retry_seed),
            gcs: GcsNode::new(cfg.gcs, node, GCS_PORT, GCS_TICK, servers),
            trace: TraceHandle::disabled(),
            profile: ProfileHandle::disabled(),
            actions: Vec::new(),
        }
    }

    /// Installs a trace handle: client-side events (water-mark crossings,
    /// emergency requests, frame discards, VCR commands) and this node's
    /// GCS events flow into it. Tracing is passive and does not change the
    /// client's behaviour.
    pub(crate) fn with_trace(mut self, trace: TraceHandle) -> Self {
        self.trace = trace.clone();
        if trace.is_enabled() {
            let node = self.gcs.node();
            self.gcs
                .set_tracer(move |at, event| trace.emit(at, || VodEvent::from_gcs(node, event)));
        }
        self
    }

    /// Installs a profile handle: the client's display-tick playback path
    /// opens cost spans on it. Profiling is passive and does not change
    /// the client's behaviour.
    pub(crate) fn with_profile(mut self, profile: ProfileHandle) -> Self {
        self.profile = profile;
        self
    }

    /// The session: what the client knows, and its statistics.
    pub fn session(&self) -> &ClientSession {
        &self.session
    }

    /// VCR (paper §3): pause, resume, seek, quality, speed or stop.
    pub fn vcr(&mut self, ctx: &mut Context<'_, VodWire>, cmd: VcrCmd) {
        self.step(ctx, Input::Vcr(cmd));
    }

    /// Steps the session and applies its actions in emission order.
    fn step(&mut self, ctx: &mut Context<'_, VodWire>, input: Input) {
        let now = ctx.now();
        self.session.step(now, input, &mut self.actions);
        let group = session_group(self.session.id());
        for action in self.actions.drain(..) {
            match action {
                // Self-delivery events are irrelevant to the client.
                Action::Multicast(payload) => drop(self.gcs.multicast(ctx, group, payload)),
                Action::Open(open) => {
                    self.gcs
                        .send_to_group(ctx, SERVER_GROUP, ControlPayload::Open(open));
                }
                Action::Arm(timer, after) => {
                    ctx.set_timer_after(after, GCS_TICK + 1 + timer as u64);
                }
                Action::LeaveSession => self.gcs.leave(ctx, group),
                Action::Trace(event) => self.trace.emit(now, || event),
            }
        }
    }

    fn on_gcs(&mut self, ctx: &mut Context<'_, VodWire>, events: Vec<GcsEvent<ControlPayload>>) {
        for event in events {
            self.step(ctx, Input::Gcs(event));
        }
    }
}

impl Process<VodWire> for VodClient {
    fn on_start(&mut self, ctx: &mut Context<'_, VodWire>) {
        self.gcs.start(ctx);
        let events = self.gcs.create_group(session_group(self.session.id()));
        self.on_gcs(ctx, events);
        self.step(ctx, Input::Start);
    }

    fn on_datagram(
        &mut self,
        ctx: &mut Context<'_, VodWire>,
        from: Endpoint,
        _to: Endpoint,
        msg: VodWire,
    ) {
        match msg {
            VodWire::Video(pkt) => self.step(ctx, Input::Video(pkt)),
            VodWire::Gcs(pkt) => {
                let events = self.gcs.on_packet(ctx, from, pkt);
                self.on_gcs(ctx, events);
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, VodWire>, timer: Timer) {
        let Some(&session_timer) = TIMERS.get(timer.tag.wrapping_sub(GCS_TICK + 1) as usize) else {
            let events = self.gcs.on_timer(ctx, timer);
            return self.on_gcs(ctx, events);
        };
        let _span = (session_timer == ClientTimer::Display)
            .then(|| self.profile.span(Subsystem::ClientPlayback));
        self.step(ctx, Input::Timer(session_timer));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use media::{Movie, MovieId, MovieSpec};
    use std::time::Duration;

    #[test]
    fn full_quality_request_mirrors_the_movie() {
        let movie = Movie::generate(
            MovieId(1),
            &MovieSpec::paper_default().with_duration(Duration::from_secs(4)),
        );
        let request = WatchRequest::full_quality(&movie);
        assert_eq!(request.movie, movie.id());
        assert_eq!(request.movie_fps, 30);
        assert_eq!(request.max_fps, 30);
        assert_eq!(request.bitrate_bps, 1_400_000);
    }
}
