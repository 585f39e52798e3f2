//! Randomized protocol tests: under arbitrary crash schedules and message
//! bursts on a LAN, surviving members must converge to the same view and
//! agree on the per-sender delivery sequences (view synchrony).

mod common;

use std::time::Duration;

use common::*;
use gcs::GroupId;
use proptest::prelude::*;
use simnet::{LinkProfile, NodeId, SimTime, Simulation};

const G: GroupId = GroupId(77);

#[derive(Clone, Debug)]
struct Crash {
    victim_index: usize,
    at_ms: u64,
}

fn crash_strategy(n: usize) -> impl Strategy<Value = Vec<Crash>> {
    prop::collection::vec(
        (0..n, 500u64..4_000).prop_map(|(victim_index, at_ms)| Crash {
            victim_index,
            at_ms,
        }),
        0..2,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn survivors_agree_on_views_and_deliveries(
        n in 2usize..5,
        crashes in crash_strategy(4),
        bursts in prop::collection::vec((0usize..4, 300u64..4_000, 0u64..100), 0..30),
        seed in 0u64..500,
    ) {
        let mut sim = Simulation::new(seed);
        sim.set_default_profile(LinkProfile::lan());
        let ids: Vec<NodeId> = (1..=n as u32).map(NodeId).collect();
        for &id in &ids {
            sim.add_node(id, App::new(id, ids.clone()));
        }
        sim.run_until(SimTime::from_millis(100));
        create(&mut sim, ids[0], G);
        for &id in &ids[1..] {
            join(&mut sim, id, G, &[ids[0]]);
        }
        // Schedule crashes (skip duplicates and never kill everyone).
        let mut crashed: Vec<NodeId> = Vec::new();
        for crash in &crashes {
            let victim = ids[crash.victim_index % n];
            if !crashed.contains(&victim) && crashed.len() + 1 < n {
                crashed.push(victim);
                sim.crash_at(SimTime::from_millis(crash.at_ms), victim);
            }
        }
        // Scripted multicast bursts from (possibly crashed) members.
        let mut events: Vec<(u64, NodeId, u64)> = bursts
            .into_iter()
            .map(|(who, at, v)| (at, ids[who % n], v))
            .collect();
        events.sort();
        for (at, who, v) in events {
            sim.run_until(SimTime::from_millis(at));
            if sim.is_alive(who) {
                let member = sim
                    .with_process(who, |a: &App| {
                        a.gcs.status(G) == gcs::GroupStatus::Member
                    })
                    .unwrap_or(false);
                if member {
                    say(&mut sim, who, G, v);
                }
            }
        }
        // Let everything settle.
        sim.run_for(Duration::from_secs(6));

        let survivors: Vec<NodeId> = ids
            .iter()
            .copied()
            .filter(|id| !crashed.contains(id))
            .collect();
        // 1. All survivors share the same final view: exactly the survivors.
        let mut final_views = Vec::new();
        for &s in &survivors {
            let view = view_at(&sim, s, G).expect("survivor has a view");
            prop_assert_eq!(
                view.members.clone(),
                survivors.clone(),
                "survivor {} has wrong membership",
                s
            );
            final_views.push(view.id);
        }
        prop_assert!(
            final_views.windows(2).all(|w| w[0] == w[1]),
            "survivors disagree on the view id: {final_views:?}"
        );
        // 2. Survivors delivered identical FIFO sequences from every
        //    surviving sender (messages from crashed senders may be cut
        //    short, but surviving-sender streams must agree everywhere).
        for &sender in &survivors {
            let sequences: Vec<Vec<u64>> = survivors
                .iter()
                .map(|&r| {
                    sim.with_process(r, |a: &App| a.delivered_from(G, sender))
                        .expect("survivor process")
                })
                .collect();
            for w in sequences.windows(2) {
                prop_assert_eq!(&w[0], &w[1], "delivery mismatch from {}", sender);
            }
        }
    }
}
