//! Stress and adversarial-schedule tests for the group communication
//! substrate: large groups, cascading coordinator failures, membership
//! churn and partitions under active traffic.

mod common;

use std::time::Duration;

use common::*;
use gcs::{GroupId, GroupStatus};
use simnet::{LinkProfile, NodeId, SimTime, Simulation};

const G: GroupId = GroupId(300);

fn lan_sim(seed: u64, n: u32) -> (Simulation<Wire>, Vec<NodeId>) {
    let mut sim = Simulation::new(seed);
    sim.set_default_profile(LinkProfile::lan());
    let ids = boot(&mut sim, n);
    (sim, ids)
}

fn form(sim: &mut Simulation<Wire>, ids: &[NodeId]) {
    sim.run_until(SimTime::from_millis(100));
    create(sim, ids[0], G);
    for &id in &ids[1..] {
        join(sim, id, G, &[ids[0]]);
    }
    sim.run_for(Duration::from_secs(3));
}

#[test]
fn eight_member_group_forms_and_agrees() {
    let (mut sim, ids) = lan_sim(1, 8);
    form(&mut sim, &ids);
    let vids: Vec<_> = ids
        .iter()
        .map(|&id| view_at(&sim, id, G).expect("view").id)
        .collect();
    assert!(
        vids.windows(2).all(|w| w[0] == w[1]),
        "ids differ: {vids:?}"
    );
    for &id in &ids {
        assert_eq!(view_at(&sim, id, G).unwrap().members, ids);
    }
}

#[test]
fn cascading_coordinator_failures() {
    // Kill coordinators in succession: n1, then n2, then n3. Leadership
    // must walk down the id order without losing the group.
    let (mut sim, ids) = lan_sim(2, 5);
    form(&mut sim, &ids);
    for (i, victim) in [NodeId(1), NodeId(2), NodeId(3)].into_iter().enumerate() {
        sim.crash_at(sim.now(), victim);
        sim.run_for(Duration::from_secs(2));
        let survivors: Vec<NodeId> = ids.iter().copied().skip(i + 1).collect();
        for &s in &survivors {
            let view = view_at(&sim, s, G).unwrap();
            assert_eq!(view.members, survivors, "after killing {victim}");
            assert_eq!(
                view.id.coordinator, survivors[0],
                "leadership must pass to the min survivor"
            );
        }
    }
}

#[test]
fn rapid_churn_converges() {
    // Nodes join and leave in quick succession; the final membership must
    // match the final intent.
    let (mut sim, ids) = lan_sim(3, 6);
    sim.run_until(SimTime::from_millis(100));
    create(&mut sim, ids[0], G);
    for &id in &ids[1..4] {
        join(&mut sim, id, G, &[ids[0]]);
    }
    sim.run_for(Duration::from_secs(2));
    // Burst: 5 and 6 join while 2 and 3 leave.
    join(&mut sim, NodeId(5), G, &[NodeId(1)]);
    sim.invoke(NodeId(2), |app: &mut App, ctx| app.gcs.leave(ctx, G))
        .unwrap();
    join(&mut sim, NodeId(6), G, &[NodeId(1)]);
    sim.invoke(NodeId(3), |app: &mut App, ctx| app.gcs.leave(ctx, G))
        .unwrap();
    sim.run_for(Duration::from_secs(4));
    let want = vec![NodeId(1), NodeId(4), NodeId(5), NodeId(6)];
    for &id in &want {
        assert_eq!(
            view_at(&sim, id, G).unwrap().members,
            want,
            "churn did not converge at {id}"
        );
    }
    for &gone in &[NodeId(2), NodeId(3)] {
        assert_eq!(
            sim.with_process(gone, |a: &App| a.gcs.status(G)).unwrap(),
            GroupStatus::Idle,
            "leaver {gone} still thinks it is in"
        );
    }
}

#[test]
fn traffic_during_partition_respects_view_synchrony() {
    // Four members, sender on each side of a partition; after the heal,
    // both sides' messages converge and every member ends with identical
    // per-sender sequences.
    let (mut sim, ids) = lan_sim(4, 4);
    form(&mut sim, &ids);
    let side_a = [NodeId(1), NodeId(2)];
    let side_b = [NodeId(3), NodeId(4)];
    sim.partition_at(sim.now(), &side_a, &side_b);
    sim.run_for(Duration::from_secs(2));
    // Each side multicasts within its component view.
    for v in 0..10 {
        say(&mut sim, NodeId(1), G, 100 + v);
        say(&mut sim, NodeId(3), G, 300 + v);
        sim.run_for(Duration::from_millis(30));
    }
    sim.run_for(Duration::from_secs(1));
    // Side A delivered only A's stream; side B only B's.
    let a_sees_b = sim
        .with_process(NodeId(1), |a: &App| a.delivered_from(G, NodeId(3)).len())
        .unwrap();
    assert_eq!(a_sees_b, 0, "partition leaked messages");
    sim.heal_all_at(sim.now());
    sim.run_for(Duration::from_secs(5));
    // Merged: everyone in one view again.
    for &id in &ids {
        assert_eq!(view_at(&sim, id, G).unwrap().members, ids);
    }
    // Messages sent after the merge flow to everyone.
    say(&mut sim, NodeId(1), G, 999);
    say(&mut sim, NodeId(4), G, 888);
    sim.run_for(Duration::from_secs(1));
    for &id in &ids {
        let from_1 = sim
            .with_process(id, |a: &App| a.delivered_from(G, NodeId(1)))
            .unwrap();
        assert_eq!(from_1.last(), Some(&999), "post-merge send missing at {id}");
        let from_4 = sim
            .with_process(id, |a: &App| a.delivered_from(G, NodeId(4)))
            .unwrap();
        assert_eq!(from_4.last(), Some(&888), "post-merge send missing at {id}");
    }
}

#[test]
fn double_partition_and_heal() {
    // Partition, heal, partition differently, heal again.
    let (mut sim, ids) = lan_sim(5, 4);
    form(&mut sim, &ids);
    sim.partition_at(sim.now(), &[NodeId(1)], &[NodeId(2), NodeId(3), NodeId(4)]);
    sim.run_for(Duration::from_secs(3));
    assert_eq!(
        view_at(&sim, NodeId(1), G).unwrap().members,
        vec![NodeId(1)]
    );
    sim.heal_all_at(sim.now());
    sim.run_for(Duration::from_secs(4));
    for &id in &ids {
        assert_eq!(
            view_at(&sim, id, G).unwrap().members,
            ids,
            "first heal at {id}"
        );
    }
    sim.partition_at(sim.now(), &[NodeId(1), NodeId(4)], &[NodeId(2), NodeId(3)]);
    sim.run_for(Duration::from_secs(3));
    assert_eq!(
        view_at(&sim, NodeId(1), G).unwrap().members,
        vec![NodeId(1), NodeId(4)]
    );
    assert_eq!(
        view_at(&sim, NodeId(2), G).unwrap().members,
        vec![NodeId(2), NodeId(3)]
    );
    sim.heal_all_at(sim.now());
    sim.run_for(Duration::from_secs(5));
    for &id in &ids {
        assert_eq!(
            view_at(&sim, id, G).unwrap().members,
            ids,
            "second heal at {id}"
        );
    }
}

#[test]
fn high_rate_multicast_under_light_loss() {
    let mut sim = Simulation::new(6);
    sim.set_default_profile(LinkProfile::lan().with_loss(0.02));
    let ids = boot(&mut sim, 4);
    form(&mut sim, &ids);
    // 500 messages at 5 ms spacing from one sender.
    for v in 0..500 {
        say(&mut sim, NodeId(2), G, v);
        sim.run_for(Duration::from_millis(5));
    }
    sim.run_for(Duration::from_secs(2));
    for &id in &ids {
        let got = sim
            .with_process(id, |a: &App| a.delivered_from(G, NodeId(2)))
            .unwrap();
        assert_eq!(got.len(), 500, "receiver {id} missed messages");
        assert!(got.windows(2).all(|w| w[0] < w[1]), "FIFO violated at {id}");
    }
}

#[test]
fn crash_during_view_change_is_survived() {
    // Kill a second member while the view change for the first kill is in
    // flight (the coordinator must re-run with a higher epoch).
    let (mut sim, ids) = lan_sim(7, 5);
    form(&mut sim, &ids);
    let t = sim.now();
    sim.crash_at(t, NodeId(5));
    // 450 ms later: right around the detection/flush of the first crash.
    sim.crash_at(t + Duration::from_millis(450), NodeId(4));
    sim.run_for(Duration::from_secs(4));
    let survivors = vec![NodeId(1), NodeId(2), NodeId(3)];
    for &s in &survivors {
        assert_eq!(view_at(&sim, s, G).unwrap().members, survivors, "at {s}");
    }
    let _ = ids;
}

#[test]
fn concurrent_senders_under_churn() {
    // Three members multicast concurrently while a fourth crashes and a
    // fifth joins; every stream stays in per-sender order at the others.
    let (mut sim, ids) = lan_sim(8, 5);
    sim.run_until(SimTime::from_millis(100));
    create(&mut sim, ids[0], G);
    for &id in &ids[1..4] {
        join(&mut sim, id, G, &[ids[0]]);
    }
    sim.run_for(Duration::from_secs(2));
    sim.crash_at(sim.now() + Duration::from_millis(700), NodeId(4));
    let streams = [(NodeId(2), 100u64), (NodeId(3), 300), (NodeId(1), 500)];
    for v in 0..30u64 {
        for (sender, base) in streams {
            say(&mut sim, sender, G, base + v);
        }
        if v == 15 {
            join(&mut sim, NodeId(5), G, &[NodeId(1)]);
        }
        sim.run_for(Duration::from_millis(40));
    }
    sim.run_for(Duration::from_secs(3));
    let survivors = [NodeId(1), NodeId(2), NodeId(3), NodeId(5)];
    // Each sender's stream is intact and in order at every old survivor,
    // the sender's own loopback deliveries included.
    for (sender, base) in streams {
        for &id in &survivors[..3] {
            let fifo = sim
                .with_process(id, |a: &App| a.delivered_from(G, sender))
                .unwrap();
            let want: Vec<u64> = (base..base + 30).collect();
            assert_eq!(fifo, want, "stream of {sender} at {id}");
        }
    }
    // Everyone (including the joiner) converged to the same view.
    for &id in &survivors {
        assert_eq!(view_at(&sim, id, G).unwrap().members, survivors.to_vec());
    }
}
