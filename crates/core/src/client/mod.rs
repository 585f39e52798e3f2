//! The VoD client: buffering, flow control, display and VCR operations.
//!
//! The client is *oblivious to server identity* (paper §5.3): it contacts
//! the abstract server group to open a session, joins its own session
//! group, and from then on only consumes whatever video frames arrive and
//! multicasts flow-control/VCR messages into the session group — whichever
//! server currently serves it receives them.

mod buffer;
mod flow;

pub use buffer::{FeedSummary, InsertOutcome, SoftwareBuffer};
pub use flow::{Band, FlowController};

use std::time::Duration;

use gcs::{GcsEvent, GcsNode};
use media::{DisplayOutcome, FrameNo, GopPattern, HardwareDecoder, QualityFilter};
use simnet::{Context, Endpoint, NodeId, Process, SimRng, SimTime, Timer};

use crate::config::VodConfig;
use crate::metrics::{Cumulative, TimeSeries};
use crate::profile::{ProfileHandle, Subsystem};
use crate::protocol::{
    session_group, ClientId, ControlPayload, OpenRequest, VcrCmd, VideoPacket, VodWire, GCS_PORT,
    SERVER_GROUP,
};
use crate::trace::{DiscardKind, TraceHandle, VodEvent};

/// Timer tags used by the client process.
mod tag {
    pub const GCS_TICK: u64 = 1;
    pub const DISPLAY: u64 = 2;
    pub const SAMPLE: u64 = 3;
    pub const OPEN_RETRY: u64 = 4;
}

/// Domain-separation constant for the client's private retry RNG, so the
/// backoff draws are independent of every other seeded stream.
const RETRY_STREAM: u64 = 0x52_45_54_52_59; // "RETRY"

/// Ceiling of the exponential backoff: 1 s, 2 s, 4 s, then 8 s forever.
const RETRY_MAX_EXP: u32 = 3;

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
    /// Frame to start from.
    pub start_at: FrameNo,
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
            start_at: FrameNo::ZERO,
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

/// The client process.
pub struct VodClient {
    id: ClientId,
    cfg: VodConfig,
    request: WatchRequest,
    /// Playback speed in percent of normal (100 = real time).
    speed_percent: u32,
    gcs: GcsNode<ControlPayload>,
    buffer: SoftwareBuffer,
    decoder: HardwareDecoder,
    flow: FlowController,
    stats: ClientStats,
    trace: TraceHandle,
    profile: ProfileHandle,
    last_band: Band,
    /// Highest frame number ever received, for gap detection. Reset on
    /// seek (a jump the client asked for is not a service gap).
    highest_frame: Option<FrameNo>,
    display_interval: Duration,
    display_started: bool,
    paused: bool,
    ended: bool,
    stopped: bool,
    /// Private RNG for re-OPEN backoff jitter. Deliberately separate from
    /// the simulation RNG: backoff draws happen only on this client's
    /// retry path, so they cannot perturb any other component's stream.
    retry_rng: SimRng,
    /// Re-OPEN attempts since the stream was last healthy.
    retry_attempt: u32,
    /// The wait that preceded the currently armed OPEN_RETRY timer.
    retry_wait: Duration,
}

impl std::fmt::Debug for VodClient {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("VodClient")
            .field("id", &self.id)
            .field("movie", &self.request.movie)
            .field("received", &self.stats.frames_received)
            .finish()
    }
}

impl VodClient {
    /// Creates a client that will watch per `request`, using `servers` as
    /// the bootstrap set for contacting the VoD service.
    pub fn new(
        cfg: VodConfig,
        id: ClientId,
        node: NodeId,
        servers: Vec<NodeId>,
        request: WatchRequest,
    ) -> Self {
        let filter = QualityFilter::new(&request.gop, request.movie_fps, request.max_fps);
        let effective_fps = filter.effective_fps(request.movie_fps).max(1.0);
        // Combined capacity: software frames plus the hardware buffer
        // expressed in (mean-size) frames — together about 2.4 s of video
        // at the paper's operating point.
        let mean_frame =
            (request.bitrate_bps as f64 / 8.0 / f64::from(request.movie_fps.max(1))).max(1.0);
        let hw_frames = (cfg.hw_buffer_bytes as f64 / mean_frame).floor() as usize;
        let total_frames = cfg.sw_buffer_frames + hw_frames;
        let flow = FlowController::new(&cfg, total_frames);
        let last_band = flow.band(0);
        VodClient {
            id,
            buffer: SoftwareBuffer::with_policy(
                cfg.sw_buffer_frames,
                cfg.overflow_prefers_incremental,
            ),
            decoder: HardwareDecoder::new(cfg.hw_buffer_bytes),
            flow,
            gcs: GcsNode::new(cfg.gcs.clone(), node, GCS_PORT, tag::GCS_TICK, servers),
            cfg,
            request,
            speed_percent: 100,
            stats: ClientStats::default(),
            trace: TraceHandle::disabled(),
            profile: ProfileHandle::disabled(),
            last_band,
            highest_frame: None,
            display_interval: Duration::from_secs_f64(1.0 / effective_fps),
            display_started: false,
            paused: false,
            ended: false,
            stopped: false,
            retry_rng: SimRng::seed_from_u64(RETRY_STREAM ^ u64::from(id.0)),
            retry_attempt: 0,
            retry_wait: Duration::from_secs(1),
        }
    }

    /// Reseeds the private re-OPEN backoff RNG from the scenario seed, so
    /// two runs of the same seed produce identical retry schedules and
    /// different seeds diverge. Call before the client starts.
    #[must_use]
    pub fn with_retry_seed(mut self, seed: u64) -> Self {
        self.retry_rng = SimRng::seed_from_u64(
            seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ RETRY_STREAM ^ u64::from(self.id.0),
        );
        self
    }

    /// The wait before the next re-OPEN: `min(1s·2^attempt, 8s)` with
    /// ±25 % jitter from the private seeded RNG.
    fn next_backoff(&mut self) -> Duration {
        let exp = self.retry_attempt.min(RETRY_MAX_EXP);
        let base = Duration::from_secs(1u64 << exp);
        base.mul_f64(0.75 + 0.5 * self.retry_rng.gen_f64())
    }

    /// Installs a trace handle: client-side events (water-mark crossings,
    /// emergency requests, frame discards, VCR commands) and this node's
    /// GCS events flow into it. Tracing is passive and does not change the
    /// client's behaviour.
    pub fn with_trace(mut self, trace: TraceHandle) -> Self {
        self.trace = trace.clone();
        if trace.is_enabled() {
            let node = self.gcs.node();
            self.gcs
                .set_tracer(move |event| trace.emit(|| VodEvent::from_gcs(node, event)));
        }
        self
    }

    /// Installs a profile handle: the client's display-tick playback path
    /// opens cost spans on it. Profiling is passive and does not change
    /// the client's behaviour.
    pub fn with_profile(mut self, profile: ProfileHandle) -> Self {
        self.profile = profile;
        self
    }

    /// This client's id.
    pub fn id(&self) -> ClientId {
        self.id
    }

    /// The statistics recorded so far.
    pub fn stats(&self) -> &ClientStats {
        &self.stats
    }

    /// Frames displayed so far.
    pub fn displayed(&self) -> u64 {
        self.decoder.displayed()
    }

    /// Current software-buffer occupancy in frames.
    pub fn sw_occupancy(&self) -> usize {
        self.buffer.occupancy()
    }

    /// Current hardware-buffer occupancy in bytes.
    pub fn hw_occupancy(&self) -> u64 {
        self.decoder.occupied()
    }

    /// Whether the server signalled the end of the movie.
    pub fn ended(&self) -> bool {
        self.ended
    }

    /// VCR: pause playback (paper §3: full VCR-like control).
    pub fn pause(&mut self, ctx: &mut Context<'_, VodWire>) {
        self.paused = true;
        self.send_vcr(ctx, VcrCmd::Pause);
    }

    /// VCR: resume after a pause.
    pub fn resume(&mut self, ctx: &mut Context<'_, VodWire>) {
        self.paused = false;
        self.send_vcr(ctx, VcrCmd::Resume);
    }

    /// VCR: random access to an arbitrary position. Local buffers are
    /// flushed; the emergency mechanism refills them (§4.1).
    pub fn seek(&mut self, ctx: &mut Context<'_, VodWire>, position: FrameNo) {
        self.buffer.reset_to(position);
        self.decoder.flush();
        self.ended = false;
        self.highest_frame = None;
        self.send_vcr(ctx, VcrCmd::Seek(position));
    }

    /// VCR: adjust the quality cap (maximum frames per second, §4.3).
    pub fn set_quality(&mut self, ctx: &mut Context<'_, VodWire>, max_fps: u32) {
        self.request.max_fps = max_fps;
        self.recompute_display_interval();
        self.send_vcr(ctx, VcrCmd::SetQuality(max_fps));
    }

    /// VCR: playback-speed control (paper §3), in percent of normal speed.
    /// The display clock changes immediately; the flow control pulls the
    /// transmission rate to the new consumption, helped by a server-side
    /// rate hint carried in the command.
    ///
    /// # Panics
    ///
    /// Panics if `percent` is zero.
    pub fn set_speed(&mut self, ctx: &mut Context<'_, VodWire>, percent: u32) {
        assert!(percent > 0, "playback speed must be positive");
        self.speed_percent = percent;
        self.recompute_display_interval();
        self.send_vcr(ctx, VcrCmd::SetSpeed(percent));
    }

    /// Current playback speed in percent of normal.
    pub fn speed_percent(&self) -> u32 {
        self.speed_percent
    }

    fn recompute_display_interval(&mut self) {
        let filter = QualityFilter::new(
            &self.request.gop,
            self.request.movie_fps,
            self.request.max_fps,
        );
        let effective = filter.effective_fps(self.request.movie_fps).max(1.0)
            * f64::from(self.speed_percent)
            / 100.0;
        self.display_interval = Duration::from_secs_f64(1.0 / effective.max(0.5));
    }

    /// VCR: end the session.
    pub fn stop(&mut self, ctx: &mut Context<'_, VodWire>) {
        self.stopped = true;
        self.send_vcr(ctx, VcrCmd::Stop);
        // Membership is the liveness signal (paper §5.2): the Stop above
        // can die with a crashing server before it reaches the other
        // replicas, and a survivor would then resurrect the session from
        // a stale record and stream to us forever. Leaving the session
        // group makes that impossible — any would-be resurrector installs
        // a view without this node and ends the session instead.
        self.gcs.leave(ctx, session_group(self.id));
    }

    fn send_vcr(&mut self, ctx: &mut Context<'_, VodWire>, cmd: VcrCmd) {
        let group = session_group(self.id);
        let payload = ControlPayload::Vcr {
            client: self.id,
            cmd,
        };
        let (at, client) = (ctx.now(), self.id);
        self.trace.emit(|| VodEvent::VcrIssued { at, client, cmd });
        // Self-delivery events are irrelevant to the client.
        let _ = self.gcs.multicast(ctx, group, payload);
    }

    fn send_open(&mut self, ctx: &mut Context<'_, VodWire>) {
        let open = OpenRequest {
            client: self.id,
            client_node: ctx.node(),
            movie: self.request.movie,
            session_group: session_group(self.id),
            max_fps: self.request.max_fps,
            start_at: self.buffer.next_feed(),
        };
        let at = ctx.now();
        self.trace.emit(|| VodEvent::OpenRequested {
            at,
            client: open.client,
            movie: open.movie,
            start_at: open.start_at,
        });
        self.gcs
            .send_to_group(ctx, SERVER_GROUP, ControlPayload::Open(open));
    }

    fn handle_video(&mut self, ctx: &mut Context<'_, VodWire>, pkt: VideoPacket) {
        if self.stopped || pkt.client != self.id || pkt.movie != self.request.movie {
            return;
        }
        let now = ctx.now();
        let client = self.id;
        self.stats.frames_received += 1;
        if self.stats.first_frame_at.is_none() {
            self.stats.first_frame_at = Some(now);
            let frame = pkt.frame.no;
            self.trace.emit(|| VodEvent::FirstFrame {
                at: now,
                client,
                frame,
            });
        }
        if let Some(last) = self.stats.last_frame_at {
            let gap = now.saturating_since(last);
            if gap > Duration::from_millis(200) && !self.paused {
                self.stats
                    .interruptions
                    .push((last.as_secs_f64(), gap.as_secs_f64()));
                self.trace.emit(|| VodEvent::StreamResumed {
                    at: now,
                    client,
                    gap_s: gap.as_secs_f64(),
                });
            }
        }
        self.stats.last_frame_at = Some(now);
        if !self.display_started {
            self.display_started = true;
            ctx.set_timer_after(self.display_interval, tag::DISPLAY);
        }
        match self.buffer.insert(pkt.frame) {
            InsertOutcome::Late => {
                self.stats.late.add(now, 1);
                self.trace.emit(|| VodEvent::FrameDiscarded {
                    at: now,
                    client,
                    frame: pkt.frame.no,
                    ftype: pkt.frame.ftype,
                    kind: DiscardKind::Late,
                });
            }
            InsertOutcome::Accepted { evicted } => {
                // Only accepted frames advance the gap tracker: a frame the
                // buffer rejects as late is a stale leftover (in flight
                // across a seek or a takeover) and says nothing about what
                // the stream skipped.
                let frame_no = pkt.frame.no;
                match self.highest_frame {
                    Some(highest) if frame_no.0 > highest.0 + 1 => {
                        self.trace.emit(|| VodEvent::FrameGap {
                            at: now,
                            client,
                            from_frame: highest,
                            to_frame: frame_no,
                        });
                        self.highest_frame = Some(frame_no);
                    }
                    Some(highest) => self.highest_frame = Some(highest.max(frame_no)),
                    None => self.highest_frame = Some(frame_no),
                }
                if let Some(evicted) = evicted {
                    // Counted in `skipped` when the feed passes over the
                    // evicted position, so only `overflow` records it here.
                    self.stats.overflow.add(now, 1);
                    if evicted.ftype.is_intra() {
                        self.stats.i_frames_evicted += 1;
                    }
                    self.trace.emit(|| VodEvent::FrameDiscarded {
                        at: now,
                        client,
                        frame: evicted.no,
                        ftype: evicted.ftype,
                        kind: DiscardKind::Overflow,
                    });
                }
            }
        }
        self.feed_decoder(now);
        self.note_band(now);
        let combined = self.buffer.occupancy() + self.decoder.queued_frames();
        if let Some(req) = self.flow.on_frame_received(now, combined) {
            if let crate::protocol::FlowRequest::Emergency { severe } = req {
                self.stats.emergencies.add(now, 1);
                self.trace.emit(|| VodEvent::EmergencyRequested {
                    at: now,
                    client,
                    severe,
                });
            }
            let payload = ControlPayload::Flow {
                client: self.id,
                req,
            };
            let _ = self.gcs.multicast(ctx, session_group(self.id), payload);
        }
    }

    /// Emits a [`VodEvent::BandChanged`] when the combined occupancy moved
    /// into a different Figure-2 band since the last check.
    fn note_band(&mut self, now: SimTime) {
        let occupancy = self.buffer.occupancy() + self.decoder.queued_frames();
        let band = self.flow.band(occupancy);
        if band != self.last_band {
            let from = self.last_band;
            self.last_band = band;
            let client = self.id;
            self.trace.emit(|| VodEvent::BandChanged {
                at: now,
                client,
                from,
                to: band,
                occupancy,
            });
        }
    }

    fn feed_decoder(&mut self, now: SimTime) {
        let summary = self.buffer.feed(&mut self.decoder);
        if summary.passed_gaps > 0 {
            self.stats.skipped.add(now, summary.passed_gaps);
        }
    }

    fn handle_events(&mut self, now: SimTime, events: Vec<GcsEvent<ControlPayload>>) {
        for event in events {
            if let GcsEvent::Deliver {
                payload: ControlPayload::EndOfMovie { client },
                ..
            } = event
            {
                if client == self.id {
                    self.ended = true;
                    self.trace.emit(|| VodEvent::MovieEnded { at: now, client });
                }
            }
            // View events are deliberately ignored: the client is oblivious
            // to which server is on the other end of its session group.
        }
    }
}

impl Process<VodWire> for VodClient {
    fn on_start(&mut self, ctx: &mut Context<'_, VodWire>) {
        self.gcs.start(ctx);
        let events = self.gcs.create_group(session_group(self.id));
        self.handle_events(ctx.now(), events);
        self.send_open(ctx);
        ctx.set_timer_after(self.cfg.sample_interval, tag::SAMPLE);
        let wait = self.next_backoff();
        self.retry_wait = wait;
        ctx.set_timer_after(wait, tag::OPEN_RETRY);
    }

    fn on_datagram(
        &mut self,
        ctx: &mut Context<'_, VodWire>,
        from: Endpoint,
        _to: Endpoint,
        msg: VodWire,
    ) {
        match msg {
            VodWire::Video(pkt) => self.handle_video(ctx, pkt),
            VodWire::Gcs(pkt) => {
                let events = self.gcs.on_packet(ctx, from, pkt);
                self.handle_events(ctx.now(), events);
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, VodWire>, timer: Timer) {
        match timer.tag {
            tag::GCS_TICK => {
                let events = self.gcs.on_timer(ctx, timer);
                self.handle_events(ctx.now(), events);
            }
            tag::DISPLAY => {
                let _span = self.profile.span(Subsystem::ClientPlayback);
                if self.stopped {
                    return;
                }
                let now = ctx.now();
                if !self.paused {
                    match self.decoder.tick_display() {
                        DisplayOutcome::Displayed(_) => {}
                        DisplayOutcome::Stalled => {
                            // A stall after the movie ended is just the
                            // natural drain, not visible jitter.
                            if !self.ended {
                                self.stats.stalls.add(now, 1);
                            }
                        }
                    }
                    self.feed_decoder(now);
                    self.note_band(now);
                }
                ctx.set_timer_after(self.display_interval, tag::DISPLAY);
            }
            tag::SAMPLE => {
                if self.stopped {
                    return;
                }
                let now = ctx.now();
                self.stats
                    .sw_occupancy
                    .push(now, self.buffer.occupancy() as f64);
                self.stats
                    .hw_occupancy
                    .push(now, self.decoder.occupied() as f64);
                ctx.set_timer_after(self.cfg.sample_interval, tag::SAMPLE);
            }
            tag::OPEN_RETRY => {
                if self.stopped || self.ended {
                    return;
                }
                let now = ctx.now();
                let silent = self
                    .stats
                    .last_frame_at
                    .is_none_or(|at| now.saturating_since(at) > Duration::from_secs(5));
                let unserved = self.stats.frames_received == 0;
                if unserved || (silent && !self.paused) {
                    // Still connecting, or the whole replica set may have
                    // been lost (beyond the paper's k−1 assumption):
                    // re-open from our current position so a freshly
                    // brought-up or remote-site server can resume the
                    // session. Retries back off exponentially (1 s, 2 s,
                    // 4 s, capped at 8 s) with ±25 % seeded jitter, so a
                    // site's worth of stranded clients does not re-OPEN in
                    // lockstep against the surviving datacenter.
                    self.retry_attempt += 1;
                    let (client, attempt, waited) = (self.id, self.retry_attempt, self.retry_wait);
                    self.trace.emit(|| VodEvent::RetryBackoff {
                        at: now,
                        client,
                        attempt,
                        delay: waited,
                    });
                    self.send_open(ctx);
                    let wait = self.next_backoff();
                    self.retry_wait = wait;
                    ctx.set_timer_after(wait, tag::OPEN_RETRY);
                } else {
                    // Healthy (or paused): plain 2 s watchdog, and the
                    // next outage starts its backoff ladder from the
                    // bottom.
                    self.retry_attempt = 0;
                    self.retry_wait = Duration::from_secs(2);
                    ctx.set_timer_after(Duration::from_secs(2), tag::OPEN_RETRY);
                }
            }
            _ => debug_assert!(false, "unknown timer tag {}", timer.tag),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use media::{Movie, MovieId, MovieSpec};

    fn movie() -> Movie {
        Movie::generate(
            MovieId(1),
            &MovieSpec::paper_default().with_duration(Duration::from_secs(4)),
        )
    }

    fn client(request: WatchRequest) -> VodClient {
        VodClient::new(
            VodConfig::paper_default(),
            ClientId(1),
            NodeId(100),
            vec![NodeId(1), NodeId(2)],
            request,
        )
    }

    #[test]
    fn full_quality_request_mirrors_the_movie() {
        let movie = movie();
        let request = WatchRequest::full_quality(&movie);
        assert_eq!(request.movie, movie.id());
        assert_eq!(request.movie_fps, 30);
        assert_eq!(request.max_fps, 30);
        assert_eq!(request.start_at, FrameNo::ZERO);
        assert_eq!(request.bitrate_bps, 1_400_000);
    }

    #[test]
    fn display_interval_tracks_quality_and_speed() {
        let movie = movie();
        let mut c = client(WatchRequest::full_quality(&movie));
        let full = c.display_interval;
        assert!((full.as_secs_f64() - 1.0 / 30.0).abs() < 1e-9);
        // Halving the quality roughly halves the display rate (the GOP
        // rounding makes it 16 of 30).
        c.request.max_fps = 15;
        c.recompute_display_interval();
        assert!(c.display_interval > full);
        // Double speed halves the interval again.
        c.request.max_fps = 30;
        c.speed_percent = 200;
        c.recompute_display_interval();
        assert!((c.display_interval.as_secs_f64() - 1.0 / 60.0).abs() < 1e-9);
    }

    #[test]
    fn fresh_client_reports_zeroed_state() {
        let movie = movie();
        let c = client(WatchRequest::full_quality(&movie));
        assert_eq!(c.id(), ClientId(1));
        assert_eq!(c.sw_occupancy(), 0);
        assert_eq!(c.hw_occupancy(), 0);
        assert_eq!(c.displayed(), 0);
        assert!(!c.ended());
        assert_eq!(c.speed_percent(), 100);
        assert_eq!(c.stats().frames_received, 0);
        assert!(c.stats().interruptions.is_empty());
    }

    #[test]
    fn retry_backoff_is_seeded_bounded_and_reproducible() {
        let movie = movie();
        let draws = |seed: u64| -> Vec<Duration> {
            let mut c = client(WatchRequest::full_quality(&movie)).with_retry_seed(seed);
            (0..6u32)
                .map(|attempt| {
                    c.retry_attempt = attempt;
                    c.next_backoff()
                })
                .collect()
        };
        let a = draws(7);
        let b = draws(7);
        let c = draws(8);
        assert_eq!(a, b, "same seed, same schedule");
        assert_ne!(a, c, "different seeds diverge");
        for (attempt, delay) in a.iter().enumerate() {
            let base = (1u64 << (attempt as u32).min(RETRY_MAX_EXP)) as f64;
            let secs = delay.as_secs_f64();
            assert!(secs >= base * 0.75 - 1e-9, "attempt {attempt}: {secs}");
            assert!(secs <= base * 1.25 + 1e-9, "attempt {attempt}: {secs}");
        }
        // The cap holds: attempts past the ladder top stay under 10 s.
        assert!(a[5].as_secs_f64() <= 8.0 * 1.25 + 1e-9);
    }

    #[test]
    fn capped_request_lowers_the_display_clock() {
        let movie = movie();
        let mut request = WatchRequest::full_quality(&movie);
        request.max_fps = 10;
        let c = client(request);
        // 10 fps of a 30 fps MPEG-1 GOP keeps 5 of 15 frames → 10 fps.
        assert!((c.display_interval.as_secs_f64() - 0.1).abs() < 0.02);
    }
}
