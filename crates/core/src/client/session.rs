//! The client session: every decision the client makes, as a plain value.
//!
//! A [`ClientSession`] owns the watch request, the software buffer, the
//! decoder model, the flow controller, the statistics, the playback flags
//! and the re-OPEN back-off ladder. It has no effects and reads no clock:
//! [`ClientSession::step`] takes the time and one [`Input`] — the start, a
//! video frame, a GCS upcall, one of its own timers or a VCR command — and
//! appends the [`Action`]s that follow. [`VodClient`] is the shell that
//! performs them; the tests of `tests/prop_client.rs` are another caller.
//!
//! The actions of one step are a sequence, not a set: the shell applies
//! them in emission order, because the order of trace events, timer arms
//! and sends is what the traces and the benchmark digests pin.
//!
//! [`VodClient`]: super::VodClient

use std::time::Duration;

use gcs::GcsEvent;
use media::{DisplayOutcome, FrameMeta, FrameNo, HardwareDecoder, QualityFilter};
use simnet::{NodeId, SimRng, SimTime};

use super::{Band, ClientStats, FlowController, InsertOutcome, SoftwareBuffer, WatchRequest};
use crate::config::{VodConfig, SAMPLE_INTERVAL};
use crate::protocol::{
    session_group, ClientId, ControlPayload, FlowRequest, OpenRequest, VcrCmd, VideoPacket,
};
use crate::trace::{DiscardKind, VodEvent};

/// Domain-separation constant for the client's private retry RNG, so the
/// backoff draws are independent of every other seeded stream.
const RETRY_STREAM: u64 = 0x52_45_54_52_59; // "RETRY"

/// Ceiling of the exponential backoff: 1 s, 2 s, 4 s, then 8 s forever.
const RETRY_MAX_EXP: u32 = 3;

/// The session's own timers.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ClientTimer {
    /// Show the next frame.
    Display,
    /// Sample the buffer occupancies.
    Sample,
    /// The re-OPEN watchdog.
    Retry,
}

/// What a session reacts to.
#[derive(Clone, PartialEq, Debug)]
pub enum Input {
    /// The client boots: open the session.
    Start,
    /// A video frame arrived.
    Video(VideoPacket),
    /// An upcall from the client's GCS node.
    Gcs(GcsEvent<ControlPayload>),
    /// One of the session's timers fired.
    Timer(ClientTimer),
    /// The viewer issued a VCR command (paper §3).
    Vcr(VcrCmd),
}

/// What the shell does, in the order the session emits it.
#[derive(Clone, PartialEq, Debug)]
pub enum Action {
    /// Multicast the payload to the client's session group.
    Multicast(ControlPayload),
    /// Send the OPEN to the server group as a non-member.
    Open(OpenRequest),
    /// Arm the timer to fire after the duration.
    Arm(ClientTimer, Duration),
    /// Leave the session group.
    LeaveSession,
    /// Record the event as happening at the step's `now`.
    Trace(VodEvent),
}

/// One client's session state and decisions (see the module docs).
#[derive(Clone, PartialEq, Debug)]
pub struct ClientSession {
    id: ClientId,
    node: NodeId,
    request: WatchRequest,
    /// Playback speed in percent of normal (100 = real time).
    speed_percent: u32,
    buffer: SoftwareBuffer,
    decoder: HardwareDecoder,
    flow: FlowController,
    stats: ClientStats,
    last_band: Band,
    /// Highest frame number ever received, for gap detection. Reset on
    /// seek (a jump the client asked for is not a service gap).
    highest_frame: Option<FrameNo>,
    display_interval: Duration,
    paused: bool,
    ended: bool,
    stopped: bool,
    /// Private RNG for re-OPEN backoff jitter. Deliberately separate from
    /// the simulation RNG: backoff draws happen only on this client's
    /// retry path, so they cannot perturb any other component's stream.
    retry_rng: SimRng,
    /// Re-OPEN attempts since the stream was last healthy.
    retry_attempt: u32,
    /// The wait that preceded the currently armed retry timer.
    retry_wait: Duration,
}

impl ClientSession {
    /// A session of client `id` on `node` that will watch per `request`.
    /// `retry_seed` seeds the re-OPEN backoff jitter (the scenario seed;
    /// two runs of one seed retry identically, different seeds diverge).
    pub fn new(
        cfg: &VodConfig,
        id: ClientId,
        node: NodeId,
        request: WatchRequest,
        retry_seed: u64,
    ) -> Self {
        let filter = QualityFilter::new(&request.gop, request.movie_fps, request.max_fps);
        let effective_fps = filter.effective_fps(request.movie_fps).max(1.0);
        // Combined capacity: software frames plus the hardware buffer
        // expressed in (mean-size) frames — together about 2.4 s of video
        // at the paper's operating point.
        let mean_frame =
            (request.bitrate_bps as f64 / 8.0 / f64::from(request.movie_fps.max(1))).max(1.0);
        let hw_frames = (cfg.hw_buffer_bytes as f64 / mean_frame).floor() as usize;
        let flow = FlowController::new(cfg, cfg.sw_buffer_frames + hw_frames);
        let buffer =
            SoftwareBuffer::with_policy(cfg.sw_buffer_frames, cfg.overflow_prefers_incremental);
        let seed = retry_seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ RETRY_STREAM ^ u64::from(id.0);
        ClientSession {
            id,
            node,
            request,
            speed_percent: 100,
            buffer,
            decoder: HardwareDecoder::new(cfg.hw_buffer_bytes),
            last_band: flow.band(0),
            flow,
            stats: ClientStats::default(),
            highest_frame: None,
            display_interval: Duration::from_secs_f64(1.0 / effective_fps),
            paused: false,
            ended: false,
            stopped: false,
            retry_rng: SimRng::seed_from_u64(seed),
            retry_attempt: 0,
            retry_wait: Duration::from_secs(1),
        }
    }

    /// This client's id.
    pub fn id(&self) -> ClientId {
        self.id
    }

    /// The statistics recorded so far.
    pub fn stats(&self) -> &ClientStats {
        &self.stats
    }

    /// The software buffer: what arrived and is not yet decoded.
    pub fn buffer(&self) -> &SoftwareBuffer {
        &self.buffer
    }

    /// The hardware decoder: its occupancy and the frames displayed.
    pub fn decoder(&self) -> &HardwareDecoder {
        &self.decoder
    }

    /// Whether the server signalled the end of the movie.
    pub fn ended(&self) -> bool {
        self.ended
    }

    /// Advances the session by `input` at `now`, appending what the shell
    /// must do to `out` in the order it must be done. Total: any input in
    /// any state is accepted, and one that does not apply does nothing.
    pub fn step(&mut self, now: SimTime, input: Input, out: &mut Vec<Action>) {
        match input {
            Input::Start if !self.stopped => {
                self.open(out);
                out.push(Action::Arm(ClientTimer::Sample, SAMPLE_INTERVAL));
                self.retry_wait = self.next_backoff();
                out.push(Action::Arm(ClientTimer::Retry, self.retry_wait));
            }
            Input::Video(pkt) => self.on_video(now, pkt, out),
            Input::Gcs(GcsEvent::Deliver {
                payload: ControlPayload::EndOfMovie { client },
                ..
            }) if client == self.id => {
                self.ended = true;
                out.push(Action::Trace(VodEvent::MovieEnded { client }));
            }
            Input::Timer(timer) if !self.stopped => self.on_timer(now, timer, out),
            Input::Vcr(cmd) => self.on_vcr(cmd, out),
            // Views are deliberately ignored: the client is oblivious to
            // which server is on the other end of its session group.
            _ => {}
        }
    }

    /// The wait before the next re-OPEN: `min(1s·2^attempt, 8s)` with
    /// ±25 % jitter from the private seeded RNG.
    fn next_backoff(&mut self) -> Duration {
        let base = Duration::from_secs(1u64 << self.retry_attempt.min(RETRY_MAX_EXP));
        base.mul_f64(0.75 + 0.5 * self.retry_rng.gen_f64())
    }

    fn open(&self, out: &mut Vec<Action>) {
        let open = OpenRequest {
            client: self.id,
            client_node: self.node,
            movie: self.request.movie,
            session_group: session_group(self.id),
            max_fps: self.request.max_fps,
            start_at: self.buffer.next_feed(),
        };
        out.push(Action::Trace(VodEvent::OpenRequested {
            client: open.client,
            movie: open.movie,
            start_at: open.start_at,
        }));
        out.push(Action::Open(open));
    }

    fn on_video(&mut self, at: SimTime, pkt: VideoPacket, out: &mut Vec<Action>) {
        if self.stopped || pkt.client != self.id || pkt.movie != self.request.movie {
            return;
        }
        let (client, frame) = (self.id, pkt.frame);
        self.stats.frames_received += 1;
        let first = self.stats.first_frame_at.is_none();
        if first {
            self.stats.first_frame_at = Some(at);
            let frame = frame.no;
            out.push(Action::Trace(VodEvent::FirstFrame { client, frame }));
        }
        if let Some(last) = self.stats.last_frame_at {
            let gap = at.saturating_since(last);
            if gap > Duration::from_millis(200) && !self.paused {
                let gap_s = gap.as_secs_f64();
                self.stats.interruptions.push((last.as_secs_f64(), gap_s));
                out.push(Action::Trace(VodEvent::StreamResumed { client, gap_s }));
            }
        }
        self.stats.last_frame_at = Some(at);
        if first {
            out.push(Action::Arm(ClientTimer::Display, self.display_interval));
        }
        let discarded = |frame: FrameMeta, kind| {
            Action::Trace(VodEvent::FrameDiscarded {
                client,
                frame: frame.no,
                ftype: frame.ftype,
                kind,
            })
        };
        match self.buffer.insert(frame) {
            InsertOutcome::Late => {
                self.stats.late.add(at, 1);
                out.push(discarded(frame, DiscardKind::Late));
            }
            InsertOutcome::Accepted { evicted } => {
                // Only accepted frames advance the gap tracker: a frame the
                // buffer rejects as late is a stale leftover (in flight
                // across a seek or a takeover) and says nothing about what
                // the stream skipped.
                let (highest, to_frame) = (self.highest_frame, frame.no);
                if let Some(from_frame) = highest.filter(|h| to_frame.0 > h.0.saturating_add(1)) {
                    out.push(Action::Trace(VodEvent::FrameGap {
                        client,
                        from_frame,
                        to_frame,
                    }));
                }
                self.highest_frame = Some(highest.map_or(to_frame, |h| h.max(to_frame)));
                if let Some(evicted) = evicted {
                    // Counted in `skipped` when the feed passes over the
                    // evicted position, so only `overflow` records it here.
                    self.stats.overflow.add(at, 1);
                    if evicted.ftype.is_intra() {
                        self.stats.i_frames_evicted += 1;
                    }
                    out.push(discarded(evicted, DiscardKind::Overflow));
                }
            }
        }
        self.feed_decoder(at, out);
        let combined = self.buffer.occupancy() + self.decoder.queued_frames();
        if let Some(req) = self.flow.on_frame_received(at, combined) {
            if let FlowRequest::Emergency { severe } = req {
                self.stats.emergencies.add(at, 1);
                out.push(Action::Trace(VodEvent::EmergencyRequested {
                    client,
                    severe,
                }));
            }
            out.push(Action::Multicast(ControlPayload::Flow { client, req }));
        }
    }

    /// Streams the buffer into the decoder, counts the positions passed
    /// over, and emits a [`VodEvent::BandChanged`] when the combined
    /// occupancy moved into a different Figure-2 band since the last look.
    fn feed_decoder(&mut self, now: SimTime, out: &mut Vec<Action>) {
        let summary = self.buffer.feed(&mut self.decoder);
        if summary.passed_gaps > 0 {
            self.stats.skipped.add(now, summary.passed_gaps);
        }
        let occupancy = self.buffer.occupancy() + self.decoder.queued_frames();
        let band = self.flow.band(occupancy);
        if band != self.last_band {
            out.push(Action::Trace(VodEvent::BandChanged {
                client: self.id,
                from: self.last_band,
                to: band,
                occupancy,
            }));
            self.last_band = band;
        }
    }

    fn on_timer(&mut self, now: SimTime, timer: ClientTimer, out: &mut Vec<Action>) {
        match timer {
            ClientTimer::Display => {
                if !self.paused {
                    // A stall after the movie ended is just the natural
                    // drain, not visible jitter.
                    if self.decoder.tick_display() == DisplayOutcome::Stalled && !self.ended {
                        self.stats.stalls.add(now, 1);
                    }
                    self.feed_decoder(now, out);
                }
                out.push(Action::Arm(ClientTimer::Display, self.display_interval));
            }
            ClientTimer::Sample => {
                let (sw, hw) = (self.buffer.occupancy(), self.decoder.occupied());
                self.stats.sw_occupancy.push(now, sw as f64);
                self.stats.hw_occupancy.push(now, hw as f64);
                out.push(Action::Arm(ClientTimer::Sample, SAMPLE_INTERVAL));
            }
            ClientTimer::Retry if self.ended => {}
            ClientTimer::Retry => {
                let silent = self
                    .stats
                    .last_frame_at
                    .is_none_or(|at| now.saturating_since(at) > Duration::from_secs(5));
                if self.stats.frames_received == 0 || (silent && !self.paused) {
                    // Still connecting, or the whole replica set may have
                    // been lost (beyond the paper's k−1 assumption):
                    // re-open from our current position so a freshly
                    // brought-up or remote-site server can resume the
                    // session. Retries back off exponentially (1 s, 2 s,
                    // 4 s, capped at 8 s) with ±25 % seeded jitter, so a
                    // site's worth of stranded clients does not re-OPEN in
                    // lockstep against the surviving datacenter.
                    self.retry_attempt += 1;
                    out.push(Action::Trace(VodEvent::RetryBackoff {
                        client: self.id,
                        attempt: self.retry_attempt,
                        delay: self.retry_wait,
                    }));
                    self.open(out);
                    self.retry_wait = self.next_backoff();
                } else {
                    // Healthy (or paused): plain 2 s watchdog, and the
                    // next outage starts its backoff ladder from the
                    // bottom.
                    self.retry_attempt = 0;
                    self.retry_wait = Duration::from_secs(2);
                }
                out.push(Action::Arm(ClientTimer::Retry, self.retry_wait));
            }
        }
    }

    /// A VCR command (paper §3: full VCR-like control): the local effect,
    /// then the command to the session group.
    fn on_vcr(&mut self, cmd: VcrCmd, out: &mut Vec<Action>) {
        match cmd {
            VcrCmd::Pause => self.paused = true,
            VcrCmd::Resume => self.paused = false,
            // Local buffers are flushed; the emergency mechanism refills
            // them (§4.1).
            VcrCmd::Seek(position) => {
                self.buffer.reset_to(position);
                self.decoder.flush();
                self.ended = false;
                self.highest_frame = None;
            }
            // The quality cap (§4.3) and the playback speed change the
            // display clock at once; the flow control pulls the
            // transmission rate to the new consumption, helped by a
            // server-side rate hint carried in the command.
            VcrCmd::SetQuality(max_fps) => self.request.max_fps = max_fps,
            VcrCmd::SetSpeed(0) => return,
            VcrCmd::SetSpeed(percent) => self.speed_percent = percent,
            VcrCmd::Stop => self.stopped = true,
        }
        if let VcrCmd::SetQuality(_) | VcrCmd::SetSpeed(_) = cmd {
            self.recompute_display_interval();
        }
        let client = self.id;
        out.push(Action::Trace(VodEvent::VcrIssued { client, cmd }));
        out.push(Action::Multicast(ControlPayload::Vcr { client, cmd }));
        if cmd == VcrCmd::Stop {
            // Membership is the liveness signal (paper §5.2): the Stop
            // above can die with a crashing server before it reaches the
            // other replicas, and a survivor would then resurrect the
            // session from a stale record and stream to us forever.
            // Leaving the session group makes that impossible — any
            // would-be resurrector installs a view without this node and
            // ends the session instead.
            out.push(Action::LeaveSession);
        }
    }

    fn recompute_display_interval(&mut self) {
        let request = &self.request;
        let filter = QualityFilter::new(&request.gop, request.movie_fps, request.max_fps);
        let effective = filter.effective_fps(request.movie_fps).max(1.0)
            * f64::from(self.speed_percent)
            / 100.0;
        self.display_interval = Duration::from_secs_f64(1.0 / effective.max(0.5));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use media::{Movie, MovieId, MovieSpec};

    fn session(max_fps: u32) -> ClientSession {
        let movie = Movie::generate(
            MovieId(1),
            &MovieSpec::paper_default().with_duration(Duration::from_secs(4)),
        );
        let mut request = WatchRequest::full_quality(&movie);
        request.max_fps = max_fps;
        let cfg = VodConfig::paper_default();
        ClientSession::new(&cfg, ClientId(1), NodeId(100), request, 0)
    }

    /// The display clock after `cmd`, as the next display tick arms it.
    fn display_interval(s: &mut ClientSession, cmd: Option<VcrCmd>) -> f64 {
        let mut out = Vec::new();
        if let Some(cmd) = cmd {
            s.step(SimTime::ZERO, Input::Vcr(cmd), &mut out);
        }
        out.clear();
        s.step(SimTime::ZERO, Input::Timer(ClientTimer::Display), &mut out);
        match out[..] {
            [.., Action::Arm(ClientTimer::Display, after)] => after.as_secs_f64(),
            _ => panic!("the display tick re-arms: {out:?}"),
        }
    }

    #[test]
    fn display_interval_tracks_quality_and_speed() {
        let mut s = session(30);
        let full = display_interval(&mut s, None);
        assert!((full - 1.0 / 30.0).abs() < 1e-9);
        // Halving the quality roughly halves the display rate (the GOP
        // rounding makes it 16 of 30).
        assert!(display_interval(&mut s, Some(VcrCmd::SetQuality(15))) > full);
        // Double speed at full quality halves the interval again.
        display_interval(&mut s, Some(VcrCmd::SetQuality(30)));
        let double = display_interval(&mut s, Some(VcrCmd::SetSpeed(200)));
        assert!((double - 1.0 / 60.0).abs() < 1e-9);
        // A zero speed is dropped: the clock stays where it was.
        assert_eq!(display_interval(&mut s, Some(VcrCmd::SetSpeed(0))), double);
    }

    #[test]
    fn fresh_session_reports_zeroed_state() {
        let s = session(30);
        assert_eq!(s.id(), ClientId(1));
        assert_eq!(s.buffer().occupancy(), 0);
        assert_eq!((s.decoder().occupied(), s.decoder().displayed()), (0, 0));
        assert!(!s.ended());
        assert_eq!(s.stats(), &ClientStats::default());
    }

    #[test]
    fn capped_request_lowers_the_display_clock() {
        // 10 fps of a 30 fps MPEG-1 GOP keeps 5 of 15 frames → 10 fps.
        assert!((display_interval(&mut session(10), None) - 0.1).abs() < 0.02);
    }
}
