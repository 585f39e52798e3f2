//! Property-based tests for the client datapath and the deterministic
//! redistribution function.

use proptest::prelude::*;

use ftvod_core::client::{FlowController, InsertOutcome, SoftwareBuffer};
use ftvod_core::config::VodConfig;
use ftvod_core::protocol::{ClientId, FlowRequest};
use ftvod_core::server::assign_clients;
use media::{FrameMeta, FrameNo, FrameType, HardwareDecoder};
use simnet::{NodeId, SimTime};

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
        let a = assign_clients(&clients, &servers);
        prop_assert_eq!(a.len(), clients.len(), "every client assigned");
        let mut shuffled_clients = clients.clone();
        shuffled_clients.reverse();
        let mut shuffled_servers = servers.clone();
        shuffled_servers.reverse();
        let b = assign_clients(&shuffled_clients, &shuffled_servers);
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
