//! Property-based tests for the client datapath, the client session and
//! the deterministic redistribution function.
//!
//! The client session (`client/session.rs`) is driven on its own: no
//! simulation, no GCS, no clock — inputs go in through `step` and the
//! actions are checked.
//!
//! * **Totality** — no sequence of inputs panics it: frames for another
//!   client or movie, frame numbers within a few steps of `u64::MAX`,
//!   views naming strangers, `EndOfMovie` for others, timers in any order,
//!   duplicated and stale VCR commands, a zero speed, repeated `Stop`. A
//!   frame for someone else changes nothing, and after `Stop` nothing
//!   re-OPENs or arms a timer.
//! * **The re-OPEN ladder** — seeded, bounded, and reset by one frame.
//! * **Known deviations** (ROADMAP item 1a) — today's session where it
//!   loses the client's state across a takeover, pinned so the fix starts
//!   from a failing test.

use std::time::Duration;

use proptest::prelude::*;

use ftvod_core::client::session::{Action, ClientTimer, Input};
use ftvod_core::client::{
    ClientSession, FlowController, InsertOutcome, SoftwareBuffer, WatchRequest,
};
use ftvod_core::config::VodConfig;
use ftvod_core::protocol::{
    session_group, ClientId, ControlPayload, FlowRequest, VcrCmd, VideoPacket,
};
use ftvod_core::server::assign_clients_with_capacity;
use gcs::{GcsEvent, View, ViewId};
use media::{FrameMeta, FrameNo, FrameType, HardwareDecoder, Movie, MovieId, MovieSpec};
use simnet::{NodeId, SimTime};

/// The session under test: client 7 on node 100, watching movie 1.
const ME: ClientId = ClientId(7);
const MY_NODE: NodeId = NodeId(100);
const MOVIE: MovieId = MovieId(1);

fn frame(no: u64, intra: bool) -> FrameMeta {
    FrameMeta {
        no: FrameNo(no),
        ftype: if intra { FrameType::I } else { FrameType::B },
        size: 2_000,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Buffer accounting: every inserted frame is exactly one of
    /// late / evicted / still-buffered / fed; occupancy never exceeds the
    /// capacity; the feed point never moves backwards.
    #[test]
    fn buffer_accounting_is_total(
        arrivals in prop::collection::vec((0u64..400, any::<bool>()), 1..300),
        capacity in 2usize..50,
        drains in 0u32..200,
    ) {
        let mut buffer = SoftwareBuffer::new(capacity);
        let mut decoder = HardwareDecoder::new(1_000_000);
        let mut late = 0u64;
        let mut evicted = 0u64;
        let mut fed = 0u64;
        let mut inserted = 0u64;
        let mut last_feed_point = FrameNo::ZERO;
        for (i, (no, intra)) in arrivals.into_iter().enumerate() {
            inserted += 1;
            match buffer.insert(frame(no, intra)) {
                InsertOutcome::Late => late += 1,
                InsertOutcome::Accepted { evicted: Some(_) } => evicted += 1,
                InsertOutcome::Accepted { evicted: None } => {}
            }
            prop_assert!(buffer.occupancy() <= capacity);
            let summary = buffer.feed(&mut decoder);
            fed += u64::from(summary.fed);
            prop_assert!(buffer.next_feed() >= last_feed_point, "feed point went back");
            last_feed_point = buffer.next_feed();
            if (i as u32).is_multiple_of(3) {
                for _ in 0..(drains % 4) {
                    let _ = decoder.tick_display();
                }
            }
        }
        prop_assert_eq!(
            inserted,
            late + evicted + fed + buffer.occupancy() as u64,
            "every frame must be accounted for exactly once"
        );
    }

    /// Totality at the top of the numbering: frame numbers within a few
    /// steps of `u64::MAX`, duplicates, seeks and buffers down to one frame
    /// never panic, keep the accounting identity above (a seek discards
    /// what was buffered), and the feed point only moves back by a seek.
    #[test]
    fn buffer_survives_the_last_frame_numbers(
        script in prop::collection::vec((0u64..6, any::<bool>(), 0u8..10), 1..200),
        capacity in 1usize..4,
    ) {
        let mut buffer = SoftwareBuffer::new(capacity);
        let mut decoder = HardwareDecoder::new(1_000_000);
        let (mut inserted, mut late, mut evicted, mut fed, mut sought_away) =
            (0u64, 0u64, 0u64, 0u64, 0u64);
        let mut last_feed_point = FrameNo::ZERO;
        for (back, intra, action) in script {
            let no = u64::MAX - back;
            if action == 0 {
                sought_away += buffer.occupancy() as u64;
                buffer.reset_to(FrameNo(no));
                last_feed_point = FrameNo(no);
                continue;
            }
            inserted += 1;
            match buffer.insert(frame(no, intra)) {
                InsertOutcome::Late => late += 1,
                InsertOutcome::Accepted { evicted: Some(_) } => evicted += 1,
                InsertOutcome::Accepted { evicted: None } => {}
            }
            prop_assert!(buffer.occupancy() <= capacity);
            // Not after every insert, so frames pile up and overflow.
            if action % 2 == 0 {
                fed += u64::from(buffer.feed(&mut decoder).fed);
                prop_assert!(buffer.next_feed() >= last_feed_point, "feed point went back");
                last_feed_point = buffer.next_feed();
                let _ = decoder.tick_display();
            }
        }
        prop_assert_eq!(
            inserted,
            late + evicted + fed + sought_away + buffer.occupancy() as u64,
            "every frame must be accounted for exactly once"
        );
    }

    /// Under the paper's policy an I frame is evicted only when the buffer
    /// holds nothing but I frames.
    #[test]
    fn i_frames_survive_unless_alone(
        arrivals in prop::collection::vec((0u64..200, any::<bool>()), 1..200),
        capacity in 2usize..20,
    ) {
        let mut buffer = SoftwareBuffer::new(capacity);
        for (no, intra) in arrivals {
            let inserting_all_intra = intra;
            match buffer.insert(frame(no, intra)) {
                InsertOutcome::Accepted { evicted: Some(e) } if e.ftype.is_intra() => {
                    // Only legal if every remaining frame is also intra
                    // (we cannot see inside, but the evicted-I case
                    // requires the insert itself to have been intra-only
                    // pressure; a B frame in the buffer would have been
                    // chosen instead).
                    prop_assert!(
                        inserting_all_intra || e.no == FrameNo(no),
                        "evicted an I frame while incremental frames existed"
                    );
                }
                _ => {}
            }
        }
    }

    /// The flow controller only ever emits the request its stateless
    /// decision table prescribes, and only at evaluation boundaries.
    #[test]
    fn flow_controller_matches_decision_table(
        occupancies in prop::collection::vec(0usize..80, 1..400),
    ) {
        let cfg = VodConfig::paper_default();
        let mut fc = FlowController::new(&cfg, 78);
        let oracle = FlowController::new(&cfg, 78);
        let mut frames_since = 0u32;
        let mut prev_eval = 0usize;
        for (i, occ) in occupancies.into_iter().enumerate() {
            let now = SimTime::from_millis(33 * i as u64);
            let got = fc.on_frame_received(now, occ);
            frames_since += 1;
            if frames_since < oracle.check_every(occ) {
                prop_assert_eq!(got, None, "request before the evaluation boundary");
            } else {
                frames_since = 0;
                let want = oracle.decision(occ, prev_eval);
                prev_eval = occ;
                match (got, want) {
                    // Emergencies may be downgraded by the cooldown.
                    (Some(FlowRequest::Increase), Some(FlowRequest::Emergency { .. })) => {}
                    (g, w) => prop_assert_eq!(g, w, "decision mismatch at occupancy {}", occ),
                }
            }
        }
    }

    /// Redistribution is deterministic, total and balanced.
    #[test]
    fn assignment_is_balanced_total_deterministic(
        clients in prop::collection::btree_set(0u32..500, 1..60),
        servers in prop::collection::btree_set(0u32..40, 1..8),
    ) {
        let clients: Vec<ClientId> = clients.into_iter().map(ClientId).collect();
        let servers: Vec<NodeId> = servers.into_iter().map(NodeId).collect();
        let a = assign_clients_with_capacity(&clients, &servers, None).0;
        prop_assert_eq!(a.len(), clients.len(), "every client assigned");
        let mut shuffled_clients = clients.clone();
        shuffled_clients.reverse();
        let mut shuffled_servers = servers.clone();
        shuffled_servers.reverse();
        let b = assign_clients_with_capacity(&shuffled_clients, &shuffled_servers, None).0;
        prop_assert_eq!(&a, &b, "input order must not matter");
        let mut counts = std::collections::BTreeMap::new();
        for owner in a.values() {
            *counts.entry(*owner).or_insert(0usize) += 1;
        }
        let max = counts.values().copied().max().unwrap_or(0);
        let min = servers
            .iter()
            .map(|s| counts.get(s).copied().unwrap_or(0))
            .min()
            .unwrap_or(0);
        prop_assert!(max - min <= 1, "unbalanced: {counts:?}");
    }
}

fn session(retry_seed: u64) -> ClientSession {
    let movie = Movie::generate(
        MOVIE,
        &MovieSpec::paper_default().with_duration(Duration::from_secs(4)),
    );
    let request = WatchRequest::full_quality(&movie);
    ClientSession::new(
        &VodConfig::paper_default(),
        ME,
        MY_NODE,
        request,
        retry_seed,
    )
}

fn video(client: ClientId, movie: MovieId, no: u64) -> Input {
    let frame = frame(no, no.is_multiple_of(15));
    Input::Video(VideoPacket {
        client,
        movie,
        frame,
    })
}

fn step(session: &mut ClientSession, now: SimTime, input: Input) -> Vec<Action> {
    let mut out = Vec::new();
    session.step(now, input, &mut out);
    out
}

/// The wait of the retry timer the actions arm, if they arm it.
fn retry_armed(actions: &[Action]) -> Option<Duration> {
    actions.iter().find_map(|action| match action {
        Action::Arm(ClientTimer::Retry, after) => Some(*after),
        _ => None,
    })
}

/// A session-group view of the client and `servers`.
fn session_view(epoch: u64, servers: &[u32]) -> Input {
    let mut members: Vec<NodeId> = servers.iter().copied().map(NodeId).collect();
    members.push(MY_NODE);
    let view = View::new(
        ViewId {
            epoch,
            coordinator: members[0],
        },
        members,
    );
    Input::Gcs(GcsEvent::View {
        group: session_group(ME),
        view,
    })
}

fn end_of_movie(client: ClientId) -> Input {
    Input::Gcs(GcsEvent::Deliver {
        group: session_group(client),
        sender: NodeId(1),
        payload: ControlPayload::EndOfMovie { client },
    })
}

fn vcr_of(pick: u64) -> VcrCmd {
    let arg = pick / 8;
    match pick % 8 {
        0 => VcrCmd::Pause,
        1 => VcrCmd::Resume,
        2 => VcrCmd::Seek(FrameNo(arg % 200)),
        3 => VcrCmd::Seek(FrameNo(u64::MAX - arg % 4)),
        4 => VcrCmd::SetQuality((arg % 64) as u32),
        5 => VcrCmd::SetSpeed((arg % 4) as u32 * 100),
        6 => VcrCmd::SetSpeed(arg as u32),
        _ => VcrCmd::Stop,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Any input in any order: nothing panics, a frame for another client
    /// or movie leaves the session as it was, a zero speed is dropped, and
    /// once stopped the session never re-OPENs or arms a timer.
    #[test]
    fn session_is_total(
        script in prop::collection::vec((0u8..15, any::<u64>(), any::<u8>()), 1..250),
        retry_seed in any::<u64>(),
    ) {
        let mut s = session(retry_seed);
        let (mut now, mut next_frame, mut last_vcr) = (SimTime::ZERO, 0u64, VcrCmd::Pause);
        let mut stopped = false;
        for (kind, a, dt) in script {
            now += Duration::from_millis(u64::from(dt) * 40);
            let stranger = ClientId(8 + (a % 3) as u32);
            let input = match kind {
                0 => Input::Start,
                // Mostly in order, with gaps, duplicates and stragglers.
                1 | 2 => {
                    next_frame = (next_frame + a % 4).saturating_sub(1);
                    video(ME, MOVIE, next_frame)
                }
                3 => video(ME, MOVIE, u64::MAX - a % 5),
                4 => video(stranger, MOVIE, a % 200),
                5 => video(ME, MovieId(2 + (a % 3) as u32), a % 200),
                6 => session_view(a % 10, &[(a % 4) as u32 + 1, 50]),
                7 => end_of_movie(ME),
                8 => end_of_movie(stranger),
                9 => Input::Timer(ClientTimer::Display),
                10 => Input::Timer(ClientTimer::Sample),
                11 => Input::Timer(ClientTimer::Retry),
                12 => {
                    last_vcr = vcr_of(a);
                    Input::Vcr(last_vcr)
                }
                13 => Input::Vcr(last_vcr),
                _ => Input::Vcr(VcrCmd::Stop),
            };
            let before = s.clone();
            let out = step(&mut s, now, input.clone());
            match input {
                Input::Video(pkt) if pkt.client != ME || pkt.movie != MOVIE => {
                    prop_assert_eq!(&s, &before, "a frame for someone else moved the session");
                    prop_assert!(out.is_empty());
                }
                Input::Vcr(VcrCmd::SetSpeed(0)) => {
                    prop_assert_eq!(&s, &before, "a zero speed changed the session");
                    prop_assert!(out.is_empty(), "a zero speed was sent: {:?}", out);
                }
                Input::Vcr(VcrCmd::Stop) => stopped = true,
                _ => {}
            }
            if stopped {
                prop_assert!(
                    !out.iter().any(|a| matches!(a, Action::Open(_) | Action::Arm(..))),
                    "stopped, yet {:?}",
                    out
                );
            }
        }
    }
}

/// The re-OPEN ladder through `step`: while unserved, each retry re-OPENs
/// and waits 1, 2, 4, 8, 8 s, each ±25 % from a seeded stream; one frame
/// puts the session back on the plain 2 s watchdog.
#[test]
fn retry_backoff_is_seeded_bounded_and_reset_by_a_frame() {
    let ladder = |seed: u64| -> (ClientSession, SimTime, Vec<Duration>) {
        let mut s = session(seed);
        let out = step(&mut s, SimTime::ZERO, Input::Start);
        assert!(matches!(out[..2], [Action::Trace(_), Action::Open(_)]));
        let mut waits = vec![retry_armed(&out).expect("start arms the retry")];
        let mut now = SimTime::ZERO;
        for _ in 0..4 {
            now += *waits.last().unwrap();
            let out = step(&mut s, now, Input::Timer(ClientTimer::Retry));
            assert!(
                out.iter().any(|a| matches!(a, Action::Open(_))),
                "unserved: re-OPEN"
            );
            waits.push(retry_armed(&out).expect("the retry re-arms"));
        }
        (s, now, waits)
    };
    let (mut s, now, waits) = ladder(7);
    assert_eq!(waits, ladder(7).2, "same seed, same schedule");
    assert_ne!(waits, ladder(8).2, "different seeds diverge");
    for (wait, base) in waits.iter().zip([1.0, 2.0, 4.0, 8.0, 8.0]) {
        let secs = wait.as_secs_f64();
        assert!(
            (0.75 * base..=1.25 * base).contains(&secs),
            "{secs} s on the {base} s rung"
        );
    }
    let now = now + Duration::from_millis(100);
    let _ = step(&mut s, now, video(ME, MOVIE, 0));
    let out = step(
        &mut s,
        now + Duration::from_secs(1),
        Input::Timer(ClientTimer::Retry),
    );
    assert_eq!(
        out,
        [Action::Arm(ClientTimer::Retry, Duration::from_secs(2))]
    );
}

/// **Known deviation** (ROADMAP item 1a; seed 513): a session-group view
/// that brings in a new server — a takeover or a migration — is ignored.
/// The client does not republish its `(position, paused, quality)`, so a
/// VCR command lost in the view change stays lost: the new server resumes
/// from its record. Item 1a makes this step multicast that state.
#[test]
fn known_deviation_view_adding_a_server_does_not_republish_client_state() {
    let mut s = session(0);
    let _ = step(&mut s, SimTime::ZERO, Input::Start);
    let _ = step(&mut s, SimTime::from_millis(1), session_view(2, &[2]));
    let mut now = SimTime::from_millis(500);
    for no in 0..30 {
        now += Duration::from_millis(33);
        let _ = step(&mut s, now, video(ME, MOVIE, no));
    }
    let _ = step(&mut s, now, Input::Vcr(VcrCmd::Pause));
    // Server 2 crashes; server 3 takes the session over.
    let out = step(&mut s, now + Duration::from_secs(1), session_view(4, &[3]));
    assert_eq!(
        out,
        [],
        "item 1a: multicast (position, paused, quality) here"
    );
}

/// **Known deviation** (ROADMAP item 1a): once the movie has ended the
/// retry timer returns without re-arming, and a later `Seek` clears
/// `ended` but arms nothing. The server closed the session at the end, so
/// nothing ever re-OPENs it: the viewer who seeks back after the credits
/// waits forever.
#[test]
fn known_deviation_seek_after_movie_end_has_no_open_watchdog() {
    let mut s = session(0);
    let _ = step(&mut s, SimTime::ZERO, Input::Start);
    let mut now = SimTime::from_millis(500);
    for no in 0..30 {
        now += Duration::from_millis(33);
        let _ = step(&mut s, now, video(ME, MOVIE, no));
    }
    let _ = step(&mut s, now, end_of_movie(ME));
    assert!(s.ended());
    now += Duration::from_secs(2);
    assert_eq!(step(&mut s, now, Input::Timer(ClientTimer::Retry)), []);
    let out = step(&mut s, now, Input::Vcr(VcrCmd::Seek(FrameNo(10))));
    assert!(!s.ended(), "the seek clears the end");
    assert_eq!(out.len(), 2, "the command is traced and multicast: {out:?}");
    // Nothing re-OPENs, however long the viewer waits.
    for tick in 1..=600u64 {
        let at = now + Duration::from_millis(100 * tick);
        for timer in [ClientTimer::Display, ClientTimer::Sample] {
            let out = step(&mut s, at, Input::Timer(timer));
            assert!(!out.iter().any(|a| matches!(a, Action::Open(_))), "{out:?}");
            assert_eq!(retry_armed(&out), None);
        }
    }
}
