//! The housekeeping tick sleeps while a node has no group and no deferred
//! state, and having slept cannot be told from having ticked: it wakes on
//! the grid its first `start` laid down, with the tick count it would
//! have reached.
//!
//! The literals below were printed by this script on the commit before
//! the tick learned to sleep (every node ticking for the whole run).

mod common;

use std::time::Duration;

use common::*;
use gcs::{GcsEvent, GcsPacket, GroupId, GroupStatus, ViewId};
use simnet::{Context, Endpoint, LinkProfile, NodeId, Process, SimTime, Simulation, Timer};

const G: GroupId = GroupId(100);
const TICK_US: u64 = 50_000;
/// The node that leaves, sleeps and returns.
const SLEEPER: NodeId = NodeId(3);

/// An [`App`] that also keeps the instants: of its ticks, of the views it
/// installs and of the acks it receives from [`SLEEPER`] (sent on every
/// fourth tick, so their arrival gives the sender's tick count away).
struct Probe {
    app: App,
    ticks_us: Vec<u64>,
    /// `(instant, epoch, members)`.
    installs: Vec<(u64, u64, Vec<u32>)>,
    sleeper_acks_us: Vec<u64>,
}

impl Probe {
    fn new(node: NodeId, bootstrap: Vec<NodeId>) -> Self {
        Probe {
            app: App::new(node, bootstrap),
            ticks_us: Vec::new(),
            installs: Vec::new(),
            sleeper_acks_us: Vec::new(),
        }
    }

    fn record(&mut self, now: SimTime, events: Vec<GcsEvent<Chat>>) {
        for event in &events {
            if let GcsEvent::View { view, .. } = event {
                let members = view.members.iter().map(|n| n.0).collect();
                self.installs
                    .push((now.as_micros(), view.id.epoch, members));
            }
        }
        self.app.record(events);
    }
}

impl Process<Wire> for Probe {
    fn on_start(&mut self, ctx: &mut Context<'_, Wire>) {
        self.app.gcs.start(ctx);
    }

    fn on_datagram(&mut self, ctx: &mut Context<'_, Wire>, from: Endpoint, _: Endpoint, msg: Wire) {
        if from.node == SLEEPER && matches!(msg, GcsPacket::Ack { .. }) {
            self.sleeper_acks_us.push(ctx.now().as_micros());
        }
        let events = self.app.gcs.on_packet(ctx, from, msg);
        self.record(ctx.now(), events);
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, Wire>, timer: Timer) {
        self.ticks_us.push(ctx.now().as_micros());
        let events = self.app.gcs.on_timer(ctx, timer);
        self.record(ctx.now(), events);
    }
}

/// Three probes booted at 0, 7 and 13 ms (so their grids never coincide)
/// on a link with a fixed 1.1 ms delay, no jitter and no loss.
fn staggered() -> (Simulation<Wire>, Vec<NodeId>) {
    let mut sim = Simulation::new(1);
    sim.set_default_profile(LinkProfile::ideal().with_base_delay(Duration::from_micros(1_100)));
    let ids: Vec<NodeId> = (1..=3).map(NodeId).collect();
    for (&id, boot_ms) in ids.iter().zip([0, 7, 13]) {
        sim.start_node_at(
            SimTime::from_millis(boot_ms),
            id,
            Probe::new(id, ids.clone()),
        );
    }
    (sim, ids)
}

fn invoke(
    sim: &mut Simulation<Wire>,
    node: NodeId,
    f: impl FnOnce(&mut Probe, &mut Context<'_, Wire>),
) {
    sim.invoke(node, f).expect("node is up");
}

fn probe<R>(sim: &Simulation<Wire>, node: NodeId, f: impl FnOnce(&Probe) -> R) -> R {
    sim.with_process(node, f).expect("node is up")
}

#[test]
fn sleep_is_invisible() {
    let (mut sim, ids) = staggered();
    sim.run_until(SimTime::from_millis(100));
    invoke(&mut sim, ids[0], |p, _| {
        let events = p.app.gcs.create_group(G);
        p.app.record(events);
    });
    for &id in &ids[1..] {
        invoke(&mut sim, id, |p, ctx| p.app.gcs.join(ctx, G, &[NodeId(1)]));
    }
    sim.run_until(SimTime::from_secs(3));
    invoke(&mut sim, SLEEPER, |p, ctx| p.app.gcs.leave(ctx, G));
    // Off the sleeper's grid (13 ms + k·50 ms), two seconds later.
    let rejoin = SimTime::from_micros(6_020_000);
    sim.run_until(rejoin);
    invoke(&mut sim, SLEEPER, |p, ctx| {
        p.app.gcs.join(ctx, G, &[NodeId(1)])
    });
    sim.run_until(SimTime::from_secs(9));

    // What the other two saw is what they saw when the sleeper ticked
    // through: the same views at the same instants (n2's arrive one link
    // delay after n1 computed them)...
    let installs = |at_us: u64| {
        vec![
            (152_200 + at_us, 2, vec![1, 2, 3]),
            (3_052_200 + at_us, 3, vec![1, 2]),
            // The leaver's own singleton is merged back in and leaves
            // again before its force-quit: a detour, but the parent's.
            (3_552_200 + at_us, 5, vec![1, 2, 3]),
            (3_602_200 + at_us, 6, vec![1, 2]),
            (6_052_200 + at_us, 7, vec![1, 2, 3]),
        ]
    };
    assert_eq!(probe(&sim, ids[0], |p| p.installs.clone()), installs(0));
    assert_eq!(probe(&sim, ids[1], |p| p.installs.clone()), installs(1_100));
    // ...and the sleeper's acks after its return leave it on ticks 124,
    // 128, ... of its grid: multiples of `ACK_EVERY_TICKS`, so the count
    // was restored, not restarted.
    let first_ack_us = 13_000 + 124 * TICK_US + 1_100;
    for &id in &ids[..2] {
        let acks = probe(&sim, id, |p| p.sleeper_acks_us.clone());
        let back: Vec<u64> = acks.into_iter().filter(|&at| at > 6_000_000).collect();
        let expected: Vec<u64> = (0..14).map(|i| first_ack_us + i * 4 * TICK_US).collect();
        assert_eq!(back, expected, "at n{}", id.0);
    }

    // The sleeper itself: always on its grid, silent from the force-quit
    // of its leave (a second after it asked) to the first grid instant
    // after the join, a member again at the end.
    let ticks = probe(&sim, SLEEPER, |p| p.ticks_us.clone());
    assert!(
        ticks.iter().all(|at| at % TICK_US == 13_000),
        "off the grid"
    );
    let asleep: Vec<u64> = ticks
        .iter()
        .copied()
        .filter(|&at| (4_100_000..6_020_000).contains(&at))
        .collect();
    assert_eq!(asleep, Vec::<u64>::new(), "ticked with no group");
    let woke = ticks.iter().copied().find(|&at| at > 6_020_000);
    assert_eq!(woke, Some(13_000 + 121 * TICK_US));
    // 179 grid instants fit in the 9 s; 39 of them were slept through.
    assert_eq!(ticks.len(), 179 - 39);
    assert_eq!(
        probe(&sim, SLEEPER, |p| p.installs.last().cloned()),
        Some((6_053_300, 7, vec![1, 2, 3]))
    );
}

#[test]
fn a_node_never_in_a_group_keeps_ticking() {
    // `create_group` takes no context, so nothing could wake such a node:
    // it stays awake (`membership.rs::two_singletons_merge` depends on it).
    let (mut sim, ids) = staggered();
    sim.run_until(SimTime::from_secs(2));
    let ticks = probe(&sim, ids[0], |p| p.ticks_us.len());
    assert_eq!(ticks, 40);
    // ...and when it then creates a group, it announces it: a second
    // creator merges in.
    for &id in &ids[..2] {
        invoke(&mut sim, id, |p, _| {
            let events = p.app.gcs.create_group(G);
            p.app.record(events);
        });
    }
    sim.run_until(SimTime::from_secs(6));
    for &id in &ids[..2] {
        let members = probe(&sim, id, |p| p.app.last_view(G).map(|v| v.members.clone()));
        assert_eq!(members, Some(ids[..2].to_vec()), "at n{}", id.0);
    }
}

#[test]
fn start_wakes_a_sleeper_that_creates_a_group() {
    // A node that slept has a context-free `create_group` too; `start` in
    // the same handler arms its tick again.
    const OWN: GroupId = GroupId(101);
    let (mut sim, ids) = staggered();
    sim.run_until(SimTime::from_millis(100));
    // A group of one dissolves on `leave`: asleep from the next tick on.
    invoke(&mut sim, SLEEPER, |p, ctx| {
        let events = p.app.gcs.create_group(G);
        p.app.record(events);
        p.app.gcs.leave(ctx, G);
    });
    sim.run_until(SimTime::from_secs(2));
    assert_eq!(probe(&sim, SLEEPER, |p| p.ticks_us.len()), 2);
    invoke(&mut sim, SLEEPER, |p, ctx| {
        let events = p.app.gcs.create_group(OWN);
        p.app.record(events);
        p.app.gcs.start(ctx);
        // Idempotent: one timer, however often it is called.
        p.app.gcs.start(ctx);
    });
    invoke(&mut sim, ids[0], |p, ctx| {
        p.app.gcs.join(ctx, OWN, &[SLEEPER])
    });
    sim.run_until(SimTime::from_secs(4));
    let ticks = probe(&sim, SLEEPER, |p| p.ticks_us.clone());
    assert_eq!(ticks.len(), 2 + 40, "one tick per grid instant since 2 s");
    assert!(
        ticks.iter().all(|at| at % TICK_US == 13_000),
        "off the grid"
    );
    let members = probe(&sim, SLEEPER, |p| {
        p.app.last_view(OWN).map(|v| v.members.clone())
    });
    assert_eq!(members, Some(vec![ids[0], SLEEPER]));
}

/// A `Prepare` naming a node for a group it has no state for is refused
/// (membership requires consent), but it leaves the node idle state for
/// the group, which remembers the proposal's epoch: the node reports no
/// view, ticks on from then, and a later `create_group` installs the
/// epoch after the refused one. ROADMAP item 4(e) will revisit this idle
/// state.
#[test]
fn a_refused_prepare_leaves_idle_state_that_remembers_its_epoch() {
    const OWN: GroupId = GroupId(101);
    const EPOCH: u64 = 41;
    let (mut sim, ids) = staggered();
    sim.run_until(SimTime::from_millis(100));
    // A group of one dissolves on `leave`: asleep from the next tick on.
    invoke(&mut sim, SLEEPER, |p, ctx| {
        let events = p.app.gcs.create_group(OWN);
        p.app.record(events);
        p.app.gcs.leave(ctx, OWN);
    });
    sim.run_until(SimTime::from_secs(2));
    assert_eq!(probe(&sim, SLEEPER, |p| p.ticks_us.len()), 2);
    let prepare = GcsPacket::Prepare {
        group: G,
        vid: ViewId {
            epoch: EPOCH,
            coordinator: ids[0],
        },
        candidates: vec![ids[0], SLEEPER],
    };
    invoke(&mut sim, SLEEPER, |p, ctx| {
        let events = p
            .app
            .gcs
            .on_packet(ctx, Endpoint::new(ids[0], GCS_PORT), prepare);
        p.record(ctx.now(), events);
    });
    let (status, view) = probe(&sim, SLEEPER, |p| {
        (p.app.gcs.status(G), p.app.gcs.view(G).cloned())
    });
    assert_eq!((status, view), (GroupStatus::Idle, None));
    sim.run_until(SimTime::from_secs(4));
    assert_eq!(
        probe(&sim, SLEEPER, |p| p.ticks_us.len()),
        2 + 40,
        "one tick per grid instant since the prepare"
    );
    invoke(&mut sim, SLEEPER, |p, ctx| {
        let events = p.app.gcs.create_group(G);
        p.record(ctx.now(), events);
    });
    let installed = probe(&sim, SLEEPER, |p| p.installs.last().cloned());
    assert_eq!(installed, Some((4_000_000, EPOCH + 1, vec![SLEEPER.0])));
}
