//! The server session: every per-client decision a server makes, as a
//! plain value.
//!
//! A [`ServerSession`] is one served client: its record, the emergency
//! burst in progress, the quality filter and the rate ceiling of the
//! stream. It has no effects and reads no clock:
//! [`ServerSession::start`] returns the actions that open the stream, and
//! [`ServerSession::step`] takes the time and one [`Input`] — a
//! flow-control request, a VCR command, one of its own timers or a view of
//! the client's session group — and appends the [`Action`]s that follow.
//! [`VodServer`] is the shell that performs them; the tests of
//! `tests/prop_server.rs` are another caller.
//!
//! The actions of one step are a sequence, not a set: the shell applies
//! them in emission order, because every send, timer arm and cancel takes
//! the simulator's next sequence number and every trace event its place
//! in the record.
//!
//! [`VodServer`]: super::VodServer

use std::sync::{Arc, OnceLock};
use std::time::Duration;

use gcs::{GroupId, View};
use media::{Movie, QualityFilter};
use simnet::{NodeId, SimTime};

use super::takeover::{self, Resume};
use super::Emergency;
use crate::config::{VodConfig, DEGRADED_FPS, MAX_RATE_FPS, MIN_RATE_FPS};
use crate::protocol::{ClientRecord, FlowRequest, VcrCmd, VideoPacket};
use crate::trace::VodEvent;

/// The pause between two frames of a stream sent at `fps`, which is held to
/// 1..=240. The float conversion ran once per frame; the table holds the
/// results of the same expression.
pub(super) fn frame_interval(fps: u32) -> Duration {
    static INTERVALS: OnceLock<[Duration; 240]> = OnceLock::new();
    let table = INTERVALS.get_or_init(|| {
        std::array::from_fn(|i| Duration::from_secs_f64(1.0 / f64::from(i as u32 + 1)))
    });
    table[fps.clamp(1, 240) as usize - 1]
}

/// The session's own timers.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ServerTimer {
    /// Transmit the next frame.
    Send,
    /// Decay the emergency quantity by one second's factor.
    Decay,
}

/// What a session reacts to.
#[derive(Clone, PartialEq, Debug)]
pub enum Input {
    /// The client's flow-control request (paper §4).
    Flow(FlowRequest),
    /// The client's VCR command (paper §3).
    Vcr(VcrCmd),
    /// One of the session's timers fired.
    Timer(ServerTimer),
    /// A view of the client's session group installed.
    SessionView(View),
}

/// What the shell does, in the order the session emits it.
#[derive(Clone, PartialEq, Debug)]
pub enum Action {
    /// Send the frame to the client's node, then arm the send timer after
    /// the duration plus a scheduling jitter the shell draws.
    Send(NodeId, VideoPacket, Duration),
    /// Arm the timer to fire after the duration.
    Arm(ServerTimer, Duration),
    /// Cancel the send timer, if one is armed.
    Disarm,
    /// Multicast `EndOfMovie` to the client's session group.
    EndOfMovie(GroupId),
    /// Join the client's session group through the client's node (paper
    /// §5.2: "to take over a client, a server simply joins the client's
    /// session group and resumes the video transmission").
    JoinSession(GroupId, NodeId),
    /// End the session and tell the movie group; no action follows.
    End,
    /// Record the event as happening at the step's `now`.
    Trace(VodEvent),
}

/// One served client's stream state and decisions (see the module docs).
/// The server that runs it is its record's owner.
#[derive(Clone, PartialEq, Debug)]
pub struct ServerSession {
    movie: Arc<Movie>,
    record: ClientRecord,
    emergency: Emergency,
    /// Emergency base quantities: severe, mild.
    bases: (u32, u32),
    filter: QualityFilter,
    /// The highest rate flow control may raise the stream to: a degraded
    /// rescue ([`Resume::degraded`]) stays at its reduced quality.
    ceiling: u32,
    /// The session emitted [`Action::End`] and ignores every input.
    closed: bool,
}

/// The session's live record, as the takeover table reads it.
impl AsRef<ClientRecord> for ServerSession {
    fn as_ref(&self) -> &ClientRecord {
        &self.record
    }
}

impl ServerSession {
    /// The session streaming `movie` as `how` settled it
    /// ([`takeover::Action::Start`]); appends the actions that open the
    /// stream to `out`.
    pub fn start(cfg: &VodConfig, movie: Arc<Movie>, how: Resume, out: &mut Vec<Action>) -> Self {
        let (record, degraded) = (how.record, how.degraded);
        if !record.paused {
            out.push(Action::Arm(ServerTimer::Send, Duration::ZERO));
        }
        let (group, client_node) = (record.session_group, record.client_node);
        out.push(Action::JoinSession(group, client_node));
        out.push(Action::Trace(VodEvent::SessionStarted {
            server: record.owner,
            client: record.client,
            client_node: record.client_node,
            movie: record.movie,
            resume_frame: record.next_frame,
        }));
        if degraded {
            out.push(Action::Trace(VodEvent::DegradedServe {
                server: record.owner,
                client: record.client,
                movie: record.movie,
                rate_fps: record.rate_fps,
            }));
        }
        ServerSession {
            movie,
            record,
            emergency: Emergency::new(cfg.emergency_decay),
            bases: (cfg.emergency_base_severe, cfg.emergency_base_mild),
            filter: how.filter,
            ceiling: if degraded { DEGRADED_FPS } else { MAX_RATE_FPS },
            closed: false,
        }
    }

    /// The record the stream runs on: offset, rate, quality and play
    /// state as of the last step.
    pub fn record(&self) -> &ClientRecord {
        &self.record
    }

    /// Advances the session by `input`, appending what the shell must do
    /// to `out` in the order it must be done. `now` is the step's time;
    /// none of today's decisions reads it. Total: any input in any state
    /// is accepted, and one that does not apply does nothing.
    pub fn step(&mut self, _now: SimTime, input: Input, out: &mut Vec<Action>) {
        match input {
            _ if self.closed => {}
            Input::Flow(req) => self.on_flow(req, out),
            Input::Vcr(cmd) => self.on_vcr(cmd, out),
            // A send timer that fires on a paused stream is stale: the
            // pause disarmed it.
            Input::Timer(ServerTimer::Send) if !self.record.paused => self.send(out),
            Input::Timer(ServerTimer::Send) => {}
            Input::Timer(ServerTimer::Decay) => {
                if self.emergency.decay_step() > 0 {
                    out.push(Action::Arm(ServerTimer::Decay, Duration::from_secs(1)));
                } else {
                    let (server, client) = (self.record.owner, self.record.client);
                    out.push(Action::Trace(VodEvent::EmergencyEnded { server, client }));
                }
            }
            // The client itself is gone (crash, departure or partition):
            // the session is over, and the other replicas are told.
            Input::SessionView(view) => {
                if view.contains(self.record.owner) && !view.contains(self.record.client_node) {
                    self.end(out);
                }
            }
        }
    }

    fn end(&mut self, out: &mut Vec<Action>) {
        self.closed = true;
        out.push(Action::End);
    }

    fn on_flow(&mut self, req: FlowRequest, out: &mut Vec<Action>) {
        // Paper §4.1: "while the emergency quantity is greater than zero,
        // the server ignores all flow control requests from the client".
        if self.emergency.is_active() {
            return;
        }
        let rate = &mut self.record.rate_fps;
        match req {
            FlowRequest::Increase => *rate = rate.saturating_add(1).min(self.ceiling),
            FlowRequest::Decrease => *rate = rate.saturating_sub(1).max(MIN_RATE_FPS),
            FlowRequest::Emergency { severe } => {
                let base = if severe { self.bases.0 } else { self.bases.1 };
                if self.emergency.trigger(base) {
                    let (server, client) = (self.record.owner, self.record.client);
                    out.push(Action::Trace(VodEvent::EmergencyGranted {
                        server,
                        client,
                        base,
                    }));
                    // A burst starts only once the last one decayed to zero,
                    // which is when its decay timer stopped re-arming.
                    out.push(Action::Arm(ServerTimer::Decay, Duration::from_secs(1)));
                }
            }
        }
    }

    fn on_vcr(&mut self, cmd: VcrCmd, out: &mut Vec<Action>) {
        let (gop, fps) = (self.movie.gop(), self.movie.fps());
        match cmd {
            VcrCmd::Pause => {
                self.record.paused = true;
                out.push(Action::Disarm);
            }
            VcrCmd::Resume if self.record.paused => {
                self.record.paused = false;
                out.push(Action::Arm(ServerTimer::Send, Duration::ZERO));
            }
            VcrCmd::Resume => {}
            VcrCmd::Seek(position) => self.record.next_frame = position,
            VcrCmd::SetQuality(max_fps) => {
                let (filter, cap) = takeover::quality(gop, fps, max_fps);
                self.record.max_fps = max_fps;
                self.record.rate_fps = self.record.rate_fps.min(cap);
                self.filter = filter;
            }
            // Jump the base rate straight to the new consumption; the flow
            // control fine-tunes from there.
            VcrCmd::SetSpeed(percent) => {
                let hint = fps.saturating_mul(percent) / 100;
                self.record.rate_fps = hint.clamp(MIN_RATE_FPS, MAX_RATE_FPS);
            }
            VcrCmd::Stop => self.end(out),
        }
    }

    /// Transmits the next frame the quality filter lets through, or ends
    /// the session at the end of the movie.
    fn send(&mut self, out: &mut Vec<Action>) {
        loop {
            let no = self.record.next_frame;
            let Some(frame) = self.movie.frame(no) else {
                out.push(Action::EndOfMovie(self.record.session_group));
                return self.end(out);
            };
            self.record.next_frame = no.plus(1);
            if self.filter.should_send(no) {
                let packet = VideoPacket {
                    client: self.record.client,
                    movie: self.record.movie,
                    frame,
                };
                let (to, extra) = (self.record.client_node, self.emergency.current());
                let fps = self.record.rate_fps.saturating_add(extra);
                return out.push(Action::Send(to, packet, frame_interval(fps)));
            }
        }
    }
}
