//! Totality of the endpoint: no sequence of packets — stale, future or
//! foreign view ids, origins outside the view, sender ids at the top of
//! the id space, repeated or far-ahead sequence numbers, installs that cut
//! below what the receiver itself has sent — may panic a [`gcs::GcsNode`],
//! talk it out of its own view or make it size a table by an id's value.
//!
//! Senders whose ids agree in their low 16 bits, `u32::MAX` among them,
//! may cost the failure detector's hashed table probes, never an entry
//! beyond one per id.
//!
//! The packets are forged: handed to a member of a settled three-member
//! group as if they had arrived from an arbitrary endpoint, with the
//! housekeeping tick running in between so that whatever they queue
//! (elections, flushes, NAKs, install re-sends) also executes. Two shapes
//! are left out because they *legitimately* remove the target — an
//! `Install` whose view omits it and a `LeaveReq` in its name — so that
//! "still a member" is the right thing to ask at the end.

mod common;

use std::collections::BTreeSet;
use std::time::Duration;

use common::*;
use gcs::proto::{ProtoAction, ProtoConfig, ProtoEvent, ProtoMsg, ProtoNode};
use gcs::{GcsPacket, GroupId, GroupStatus, View, ViewId};
use proptest::prelude::*;
use simnet::{Endpoint, LinkProfile, NodeId, SimTime, Simulation};

const G: GroupId = GroupId(40);
/// A group nobody created: packets for it must fall on the floor.
const STRANGE: GroupId = GroupId(41);

/// Raw material of one forged packet; [`forge`] picks what it needs.
#[derive(Clone, Copy, Debug)]
struct Draw {
    kind: u8,
    from: u32,
    who: u32,
    epoch: u64,
    seq: u64,
    members: u8,
    strange: bool,
    pause_ms: u64,
}

/// Sequence numbers and epochs: zero, the neighbourhood of what a settled
/// node holds, and far ahead of any window. (`u64::MAX` is left to
/// [`the_top_of_the_counters_neither_panics_nor_evicts`]: an install at
/// the last epoch can never be superseded, so "recovers" is not a fair
/// question after one.)
const NUMBERS: [u64; 8] = [0, 1, 2, 3, 4, 7, 1_000, 1 << 40];

/// Forged sender and subject ids: the members, two foreigners, and ids no
/// table indexed by them would survive (`u32::MAX` × 8 bytes is 32 GiB).
const IDS: [u32; 8] = [1, 2, 3, 4, 5, 1 << 20, u32::MAX - 1, u32::MAX];

fn draw() -> impl Strategy<Value = Draw> {
    (
        (0u8..9, 0usize..IDS.len(), 0usize..IDS.len()),
        (0usize..NUMBERS.len(), 0usize..NUMBERS.len()),
        (0u8..32, 0u8..8, 0u64..120),
    )
        .prop_map(
            |((kind, from, who), (epoch, seq), (members, strange, pause_ms))| Draw {
                kind,
                from: IDS[from],
                who: IDS[who],
                epoch: NUMBERS[epoch],
                seq: NUMBERS[seq],
                members,
                strange: strange == 0,
                pause_ms,
            },
        )
}

/// The subset of nodes 1..=5 named by the low bits of `mask`, plus
/// `always` (nodes 4 and 5 do not exist: foreigners).
fn node_set(mask: u8, always: Option<NodeId>) -> Vec<NodeId> {
    let mut nodes: Vec<NodeId> = (1..=5u32)
        .filter(|id| mask & (1 << (id - 1)) != 0)
        .map(NodeId)
        .collect();
    nodes.extend(always);
    nodes
}

fn forge(d: Draw, target: NodeId) -> Wire {
    let group = if d.strange { STRANGE } else { G };
    let who = NodeId(d.who);
    let vid = ViewId {
        epoch: d.epoch,
        coordinator: NodeId(d.from),
    };
    let floors = vec![(who, d.epoch), (target, d.seq)];
    let held = vec![(who, d.seq, Chat(9_000 + d.seq))];
    match d.kind {
        0 => GcsPacket::Heartbeat,
        1 => GcsPacket::JoinReq { group, joiner: who },
        // Never in the target's own name (see the module docs).
        2 if who == target => GcsPacket::Heartbeat,
        2 => GcsPacket::LeaveReq { group, leaver: who },
        3 => GcsPacket::AppMsg {
            group,
            origin: who,
            seq: d.seq,
            payload: Chat(8_000 + d.seq),
        },
        // Inverted ranges included.
        4 => GcsPacket::Nak {
            group,
            origin: who,
            from_seq: d.seq,
            to_seq: d.epoch,
        },
        5 => GcsPacket::Ack {
            group,
            delivered: floors,
        },
        6 => GcsPacket::Prepare {
            group,
            vid,
            candidates: node_set(d.members, None),
        },
        7 => GcsPacket::FlushAck {
            group,
            vid,
            delivered: floors,
            held,
        },
        // Always lists the target; the cut may sit below what the target
        // itself has sent.
        _ => GcsPacket::Install {
            group,
            view: View::new(vid, node_set(d.members, Some(target))),
            cut: floors,
            fill: held,
        },
    }
}

/// A settled three-member group, every member having sent twice.
fn settled(seed: u64) -> (Simulation<Wire>, Vec<NodeId>) {
    let mut sim = Simulation::new(seed);
    sim.set_default_profile(LinkProfile::lan());
    let ids = boot(&mut sim, 3);
    sim.run_until(SimTime::from_millis(100));
    create(&mut sim, ids[0], G);
    for &id in &ids[1..] {
        join(&mut sim, id, G, &[ids[0]]);
    }
    sim.run_for(Duration::from_secs(3));
    // Everyone has sent something, so every own horizon is above zero.
    for &id in &ids {
        say(&mut sim, id, G, u64::from(id.0));
        say(&mut sim, id, G, 10 + u64::from(id.0));
    }
    sim.run_for(Duration::from_millis(300));
    (sim, ids)
}

/// Epochs and sequence numbers at `u64::MAX`: the `+ 1` of the election,
/// the expulsion re-form, the install's cut and the next multicast must
/// not overflow (a debug build panics on it), and the target stays in the
/// view it is listed in.
#[test]
fn the_top_of_the_counters_neither_panics_nor_evicts() {
    const TOP: u64 = u64::MAX;
    for target in 1..=3u32 {
        let target = NodeId(target);
        let (mut sim, ids) = settled(u64::from(target.0));
        let others: Vec<NodeId> = ids.iter().copied().filter(|&n| n != target).collect();
        let vid = |coordinator| ViewId {
            epoch: TOP,
            coordinator,
        };
        let forged: Vec<(NodeId, Wire)> = vec![
            // A foreign coordinator at the last epoch: the merge election
            // has no epoch above it to propose.
            (
                NodeId(5),
                GcsPacket::Announce {
                    group: G,
                    vid: vid(NodeId(5)),
                    members: vec![NodeId(4), NodeId(5)],
                },
            ),
            // A listed member announcing a view without the target: the
            // expulsion re-form has none either.
            (
                others[0],
                GcsPacket::Announce {
                    group: G,
                    vid: vid(others[0]),
                    members: others.clone(),
                },
            ),
            (
                others[0],
                GcsPacket::Prepare {
                    group: G,
                    vid: vid(others[0]),
                    candidates: ids.clone(),
                },
            ),
            (
                others[0],
                GcsPacket::FlushAck {
                    group: G,
                    vid: vid(target),
                    delivered: vec![(others[0], TOP), (target, TOP)],
                    held: vec![(others[0], TOP, Chat(1))],
                },
            ),
            // The install itself: every cut at the top, one of them filled.
            (
                others[0],
                GcsPacket::Install {
                    group: G,
                    view: View::new(vid(others[0]), ids.clone()),
                    cut: ids.iter().map(|&n| (n, TOP)).collect(),
                    fill: vec![(others[0], TOP, Chat(2))],
                },
            ),
            (
                others[1],
                GcsPacket::AppMsg {
                    group: G,
                    origin: others[1],
                    seq: TOP,
                    payload: Chat(3),
                },
            ),
            (
                others[1],
                GcsPacket::Ack {
                    group: G,
                    delivered: vec![(others[0], TOP), (others[1], TOP), (target, TOP)],
                },
            ),
        ];
        for (from, pkt) in forged {
            sim.invoke(target, |app: &mut App, ctx| {
                let events = app.gcs.on_packet(ctx, Endpoint::new(from, GCS_PORT), pkt);
                app.record(events);
            })
            .expect("target is up");
            // Let the ticks act on it: elections, flush timeouts, NAKs.
            sim.run_for(Duration::from_millis(700));
            let member = sim
                .with_process(target, |app: &App| app.gcs.is_member(G))
                .unwrap();
            assert!(member, "n{} left its own view", target.0);
        }
        // Its own sequence counter sits at the top now; sending still
        // loops back instead of overflowing.
        say(&mut sim, target, G, 7_777);
        say(&mut sim, target, G, 7_778);
        sim.run_for(Duration::from_secs(5));
        let (member, echoed) = sim
            .with_process(target, |app: &App| {
                (app.gcs.is_member(G), app.delivered_from(G, target))
            })
            .unwrap();
        assert!(member, "n{} left its own view", target.0);
        assert_eq!(echoed[echoed.len() - 2..], [7_777, 7_778]);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn forged_packets_neither_panic_nor_evict(
        script in prop::collection::vec(draw(), 1..40),
        setup in (0u64..1_000, 1u32..4),
        collisions in 0u32..64,
    ) {
        let (seed, target) = setup;
        let target = NodeId(target);
        let (mut sim, ids) = settled(seed);
        // Everyone the target can have heard of: the members, and whoever
        // a forged packet came from, named or listed in a view (1..=5).
        let mut named: BTreeSet<u32> = ids.iter().map(|n| n.0).chain(1..=5).collect();

        // First a heartbeat from each of `collisions` senders whose ids
        // agree in their low 16 bits, down from `u32::MAX`: whatever a hash
        // of an id keeps of those bits alone collides.
        for k in 0..collisions {
            let from = Endpoint::new(NodeId(u32::MAX - (k << 16)), GCS_PORT);
            named.insert(from.node.0);
            sim.invoke(target, |app: &mut App, ctx| {
                let events = app.gcs.on_packet(ctx, from, GcsPacket::Heartbeat);
                app.record(events);
            })
            .expect("target is up");
        }

        for d in script {
            named.extend([d.from, d.who]);
            let from = Endpoint::new(NodeId(d.from), GCS_PORT);
            let pkt = forge(d, target);
            sim.invoke(target, |app: &mut App, ctx| {
                let events = app.gcs.on_packet(ctx, from, pkt);
                app.record(events);
            })
            .expect("target is up");
            let sane = sim
                .with_process(target, |app: &App| {
                    app.gcs.view(G).is_some_and(|v| v.contains(target))
                        && app.gcs.status(STRANGE) == GroupStatus::Idle
                })
                .unwrap();
            prop_assert!(sane, "after {:?}", d);
            sim.run_for(Duration::from_millis(d.pause_ms));
        }

        // Long enough to abandon a forged flush, expel forged-in foreigners
        // and finish the view changes that takes.
        sim.run_for(Duration::from_secs(12));
        let (member, status) = sim
            .with_process(target, |app: &App| (app.gcs.is_member(G), app.gcs.status(G)))
            .unwrap();
        prop_assert!(member, "target left its own view");
        prop_assert_eq!(status, GroupStatus::Member);
        // One liveness entry per peer it heard of, however large the id.
        let tracked = sim
            .with_process(target, |app: &App| app.gcs.peers_tracked())
            .unwrap();
        prop_assert!(tracked <= named.len(), "{tracked} peers tracked, {} named", named.len());
        // And it still works: a fresh multicast loops back.
        say(&mut sim, target, G, 7_777);
        let echoed = sim
            .with_process(target, |app: &App| app.delivered_from(G, target))
            .unwrap();
        prop_assert_eq!(echoed.last(), Some(&7_777));
    }
}

/// Raw material of one [`ProtoEvent`]; [`proto_event`] picks what it needs.
#[derive(Clone, Copy, Debug)]
struct Step {
    kind: u8,
    msg: u8,
    from: u32,
    who: u32,
    epoch: u64,
    members: u8,
    reversed: bool,
}

/// Ids of the machine's peers, the id space's top included; the machine
/// itself is one of them.
const PEERS: [u32; 6] = [1, 2, 3, 4, u32::MAX - 1, u32::MAX];

/// Stale, current and future epochs, up to the last one.
const EPOCHS: [u64; 7] = [0, 1, 2, 3, 9, u64::MAX - 1, u64::MAX];

fn step() -> impl Strategy<Value = Step> {
    (
        (0u8..26, 0u8..6, 0usize..PEERS.len()),
        (0usize..PEERS.len(), 0usize..EPOCHS.len()),
        (0u8..64, 0u8..4),
    )
        .prop_map(
            |((kind, msg, from), (who, epoch), (members, reversed))| Step {
                kind,
                msg,
                from: PEERS[from],
                who: PEERS[who],
                epoch: EPOCHS[epoch],
                members,
                reversed: reversed == 0,
            },
        )
}

/// The subset of [`PEERS`] named by the bits of `mask`: empty, without the
/// machine or with it, in ascending order or reversed.
fn peer_list(mask: u8, reversed: bool) -> Vec<NodeId> {
    let mut ids: Vec<NodeId> = (0..PEERS.len())
        .filter(|i| mask & (1 << i) != 0)
        .map(|i| NodeId(PEERS[i]))
        .collect();
    if reversed {
        ids.reverse();
    }
    ids
}

/// The event `d` names; the last five kinds feed `previous` again
/// (duplicated installs, repeated joins and leaves).
fn proto_event(d: Step, previous: Option<&ProtoEvent>) -> ProtoEvent {
    let (from, who) = (NodeId(d.from), NodeId(d.who));
    let vid = ViewId {
        epoch: d.epoch,
        coordinator: who,
    };
    let peers = peer_list(d.members, d.reversed);
    let msg = match d.msg {
        0 => ProtoMsg::JoinReq { joiner: who },
        1 => ProtoMsg::LeaveReq { leaver: who },
        2 => ProtoMsg::Prepare {
            vid,
            candidates: peers.clone(),
        },
        // Mostly for proposals this machine never made.
        3 => ProtoMsg::FlushAck { vid },
        4 => ProtoMsg::Install {
            view: View::new(vid, peers.clone()),
        },
        _ => ProtoMsg::Announce {
            vid,
            members: peers.clone(),
        },
    };
    match d.kind {
        0..=5 => ProtoEvent::Deliver { from, msg },
        // Strangers, the machine itself and the top of the id space.
        6 => ProtoEvent::Suspect(who),
        7 => ProtoEvent::Unsuspect(who),
        8 => ProtoEvent::Create,
        9 => ProtoEvent::RequestJoin { contacts: peers },
        10 => ProtoEvent::RequestLeave,
        11 | 12 => ProtoEvent::DoElection,
        13 => ProtoEvent::FlushTimeout { silent: peers },
        14 => ProtoEvent::AbandonFlush,
        15 => ProtoEvent::SingletonForm,
        16 => ProtoEvent::JoinRetry,
        17 => ProtoEvent::LeaveRetry,
        18 => ProtoEvent::ForceLeave,
        19 => ProtoEvent::DoAnnounce,
        20 => ProtoEvent::ExpireForeign(who),
        _ => previous.cloned().unwrap_or(ProtoEvent::Create),
    }
}

/// Feeds `events` to a fresh machine for `node`, checking after every step
/// the shapes of its actions that the live node's interpreter relies on:
/// - `Dissolve` is the last action of a step;
/// - a view installed without the node is followed directly by `Dissolve`;
/// - `Create` and `SingletonForm` do nothing but install `[node]`;
/// - every `Prepare` comes after the `Propose` of its round.
///
/// And that the machine holds no view without itself. Returns every
/// step's actions and the final machine.
fn drive(
    node: NodeId,
    events: &[ProtoEvent],
) -> Result<(Vec<Vec<ProtoAction>>, ProtoNode), TestCaseError> {
    let bootstrap = PEERS.iter().copied().map(NodeId).collect();
    let mut machine = ProtoNode::new(ProtoConfig::default(), node, bootstrap);
    let mut trace = Vec::with_capacity(events.len());
    for (i, event) in events.iter().enumerate() {
        let actions = machine.step(event.clone());
        if let Some(k) = actions.iter().position(|a| *a == ProtoAction::Dissolve) {
            prop_assert_eq!(
                k + 1,
                actions.len(),
                "step {} ({:?}): {:?}",
                i,
                event,
                actions
            );
        }
        for (k, action) in actions.iter().enumerate() {
            match action {
                ProtoAction::Install { view } => {
                    let dissolves = actions.get(k + 1) == Some(&ProtoAction::Dissolve);
                    prop_assert!(
                        view.contains(node) || dissolves,
                        "step {i} ({event:?}) installed {view:?} without {node:?}"
                    );
                }
                ProtoAction::Send {
                    msg: ProtoMsg::Prepare { vid, .. },
                    ..
                } => {
                    let proposed = &ProtoAction::Propose { vid: *vid };
                    prop_assert!(
                        actions[..k].contains(proposed),
                        "step {i} ({event:?}) prepared {vid:?} unproposed: {actions:?}"
                    );
                }
                _ => {}
            }
        }
        if matches!(event, ProtoEvent::Create | ProtoEvent::SingletonForm) {
            let alone = |a: &ProtoAction| matches!(a, ProtoAction::Install { view } if view.members == [node]);
            prop_assert!(
                actions.iter().all(alone),
                "step {i} ({event:?}): {actions:?}"
            );
        }
        let group = &machine.group;
        if matches!(group.status, GroupStatus::Member | GroupStatus::Flushing) {
            prop_assert!(
                group.view.contains(node),
                "step {i} ({event:?}) left {node:?} in {:?}",
                group.view
            );
        }
        trace.push(actions);
    }
    Ok((trace, machine))
}

/// Drives the script twice through [`drive`], as `node` or as the highest
/// id, and checks that both runs agree.
fn total_and_deterministic(script: Vec<Step>, at_the_top: bool) -> Result<(), TestCaseError> {
    let node = NodeId(if at_the_top { u32::MAX } else { 2 });
    let mut events: Vec<ProtoEvent> = Vec::with_capacity(script.len());
    for d in script {
        let event = proto_event(d, events.last());
        events.push(event);
    }
    let once = drive(node, &events)?;
    let twice = drive(node, &events)?;
    prop_assert_eq!(once, twice);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn proto_node_step_is_total(
        script in prop::collection::vec(step(), 1..120),
        at_the_top in any::<bool>(),
    ) {
        total_and_deterministic(script, at_the_top)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20_000))]

    /// The same property at 20 000 cases (about a second in a release
    /// build).
    #[test]
    #[ignore = "release-build sweep; run with --ignored"]
    fn proto_node_step_is_total_at_twenty_thousand_cases(
        script in prop::collection::vec(step(), 1..120),
        at_the_top in any::<bool>(),
    ) {
        total_and_deterministic(script, at_the_top)?;
    }
}
