//! Differential test of [`GcsNode::on_ack`] against the body it replaced.
//!
//! The replacement keeps the stored floors when a report repeats them,
//! updates them in place when it does not, skips the stability computation
//! when nothing is buffered and otherwise works each sender's stable floor
//! out on demand instead of building a map of them. All of it is only
//! sound if no observable state depends on the skipped work, so the old
//! body stays here as the oracle: two endpoints with one identity are fed
//! the same random interleaving of acks, multicasts, foreign messages,
//! NAKs and clock steps; after every step their buffers and floors are
//! equal, and at the end so is everything each of them put on the wire.

use simnet::{LinkProfile, Process, SimRng, Simulation};

use super::*;

#[derive(Clone, Debug, PartialEq)]
struct Num(u64);

impl Payload for Num {
    fn size_bytes(&self) -> usize {
        8
    }
}

type Wire = GcsPacket<Num>;

const G: GroupId = GroupId(9);
const ME: NodeId = NodeId(1);
/// The endpoint under test sends from here, the oracle from [`OLD`]; the
/// peers sort what arrives by the port it came from.
const NEW: Port = Port(7);
const OLD: Port = Port(8);

impl GcsNode<Num> {
    /// `on_ack` as of PR 15 — before PR 16's early returns and PR 19's
    /// on-demand floors — verbatim.
    fn on_ack_parent(
        &mut self,
        ctx: &mut Context<'_, Wire>,
        group: GroupId,
        member: NodeId,
        delivered: Vec<(NodeId, u64)>,
    ) {
        let node = self.node;
        let ticks = self.ticks;
        if self.status(group) == GroupStatus::Idle {
            return;
        }
        let mut tail_naks: Vec<(NodeId, u64, u64)> = Vec::new();
        {
            let state = self.group_mut(group);
            for &(sender, floor) in &delivered {
                if sender == node {
                    continue;
                }
                let recv = state.recv.get_or_insert_with(sender, || RecvState::new(1));
                let mine = recv.next - 1;
                if floor > mine && !recv.buf.contains_key(&recv.next) {
                    let last = state.last_nak_tick.get(&sender).copied().unwrap_or(0);
                    if ticks.saturating_sub(last) >= 2 {
                        state.last_nak_tick.insert(sender, ticks.max(1));
                        tail_naks.push((sender, recv.next, floor));
                    }
                }
            }
        }
        for (origin, from_seq, to_seq) in tail_naks {
            self.emit(
                ctx,
                origin,
                GcsPacket::Nak {
                    group,
                    origin,
                    from_seq,
                    to_seq,
                },
            );
        }
        let Some(state) = self.groups.get_mut(&group) else {
            return;
        };
        state
            .ack_floors
            .insert(member, delivered.into_iter().collect());
        let members = state.mem.view.members.clone();
        if members.is_empty() {
            return;
        }
        let mut stable: BTreeMap<NodeId, u64> = BTreeMap::new();
        let senders: BTreeSet<NodeId> = state
            .recv
            .keys()
            .copied()
            .chain(std::iter::once(node))
            .collect();
        for sender in senders {
            let mut min_floor = u64::MAX;
            for &m in &members {
                let floor = if m == node {
                    if sender == node {
                        state.next_seq - 1
                    } else {
                        state.recv.get(&sender).map_or(0, |r| r.next - 1)
                    }
                } else {
                    state
                        .ack_floors
                        .get(&m)
                        .and_then(|f| f.get(&sender).copied())
                        .unwrap_or(0)
                };
                min_floor = min_floor.min(floor);
            }
            if min_floor > 0 && min_floor < u64::MAX {
                stable.insert(sender, min_floor);
            }
        }
        if let Some(&floor) = stable.get(&node) {
            state.send_buf.retain(|&seq, _| seq > floor);
        }
        state
            .retained
            .retain(|&(sender, seq), _| seq > stable.get(&sender).copied().unwrap_or(0));
    }
}

/// Both endpoints, on one simulated node.
struct Pair {
    new: GcsNode<Num>,
    old: GcsNode<Num>,
}

impl Process<Wire> for Pair {
    fn on_datagram(&mut self, _: &mut Context<'_, Wire>, _: Endpoint, _: Endpoint, _: Wire) {}
    fn on_timer(&mut self, _: &mut Context<'_, Wire>, _: simnet::Timer) {}
}

/// A peer: keeps what each endpoint sent it, apart.
#[derive(Default)]
struct Sink {
    from_new: Vec<Wire>,
    from_old: Vec<Wire>,
}

impl Process<Wire> for Sink {
    fn on_datagram(&mut self, _: &mut Context<'_, Wire>, from: Endpoint, _: Endpoint, msg: Wire) {
        if from.port == NEW {
            self.from_new.push(msg);
        } else {
            self.from_old.push(msg);
        }
    }
    fn on_timer(&mut self, _: &mut Context<'_, Wire>, _: simnet::Timer) {}
}

/// An endpoint that is a settled member of `G` with `members`.
fn member(port: Port, members: &[NodeId]) -> GcsNode<Num> {
    let mut gcs = GcsNode::new(GcsConfig::new(), ME, port, 1, members.to_vec());
    let state = gcs.group_mut(G);
    state.mem.status = GroupStatus::Member;
    state.mem.had_view = true;
    state.mem.view = View::new(ViewId::default(), members.to_vec());
    gcs
}

/// Everything `on_ack` reads or writes.
type Books = (
    VecMap<u64, Num>,
    VecMap<(NodeId, u64), Num>,
    VecMap<NodeId, VecMap<NodeId, u64>>,
    Vec<(NodeId, u64, Vec<u64>)>,
    VecMap<NodeId, u64>,
);

fn books(gcs: &GcsNode<Num>) -> Books {
    let state = &gcs.groups[&G];
    let recv = state
        .recv
        .iter()
        .map(|(&n, r)| (n, r.next, r.buf.keys().copied().collect()))
        .collect();
    (
        state.send_buf.clone(),
        state.retained.clone(),
        state.ack_floors.clone(),
        recv,
        state.last_nak_tick.clone(),
    )
}

/// Runs `steps` random steps on a group of `size`; returns how many acks
/// `[arrived while something was retained, released something, left both
/// `send_buf` and `retained` holding messages]`. With `laggard` the last
/// member never acks, so no floor of it is known, nothing is ever stable
/// and both buffers only grow: every ack takes the path behind the
/// nothing-buffered early return. With `outsider` the view does not list
/// this node (a forged install could leave it so).
fn run(seed: u64, size: u32, steps: usize, laggard: bool, outsider: bool) -> [u64; 3] {
    let members: Vec<NodeId> = (1..=size).map(NodeId).collect();
    let peers = &members[1..];
    let ackers = &peers[..peers.len() - usize::from(laggard)];
    let view = if outsider { peers } else { &members[..] };
    let mut sim: Simulation<Wire> = Simulation::new(seed);
    sim.set_default_profile(LinkProfile::ideal());
    sim.add_node(
        ME,
        Pair {
            new: member(NEW, view),
            old: member(OLD, view),
        },
    );
    for &peer in peers {
        sim.add_node(peer, Sink::default());
    }
    sim.run_for(std::time::Duration::from_millis(1));
    let mut rng = SimRng::seed_from_u64(seed);
    let mut pick = |bound: u64| rng.gen_u64_below(bound);
    let mut covered = [0; 3];
    let mut last_report: Vec<(NodeId, u64)> = Vec::new();
    for step in 0..steps {
        let kind = pick(10);
        let from_whom = if kind <= 3 { ackers } else { peers };
        let peer = from_whom[pick(from_whom.len() as u64) as usize];
        let from = Endpoint::new(peer, NEW);
        // The report of an ack step: fresh floors for some of the
        // senders, the previous report again, or that report reordered or
        // with an entry doubled (a forged shape the rebuild collapses).
        let report: Vec<(NodeId, u64)> = match pick(4) {
            0 => last_report.clone(),
            1 => {
                let mut again = last_report.clone();
                again.reverse();
                if let Some(&first) = again.first() {
                    if pick(2) == 0 {
                        again.push((first.0, pick(5)));
                    }
                }
                again
            }
            _ => {
                let mut fresh = Vec::new();
                for &n in &members {
                    if pick(4) != 0 {
                        fresh.push((n, pick(5)));
                    }
                }
                fresh
            }
        };
        let seq = 1 + pick(5);
        let hop = pick(3);
        let (before, after, both_held) = sim
            .invoke(ME, |pair: &mut Pair, ctx| {
                let before = pair.old.groups[&G].retained.len();
                match kind {
                    0..=3 => {
                        pair.new.on_ack(ctx, G, peer, report.clone());
                        pair.old.on_ack_parent(ctx, G, peer, report.clone());
                    }
                    4 | 5 => {
                        let payload = Num(step as u64);
                        for gcs in [&mut pair.new, &mut pair.old] {
                            gcs.multicast(ctx, G, payload.clone()).expect("member");
                        }
                    }
                    6 | 7 => {
                        let pkt = GcsPacket::AppMsg {
                            group: G,
                            origin: peer,
                            seq,
                            payload: Num(1_000 + seq),
                        };
                        for gcs in [&mut pair.new, &mut pair.old] {
                            gcs.on_packet(ctx, from, pkt.clone());
                        }
                    }
                    8 => {
                        let pkt = GcsPacket::Nak {
                            group: G,
                            origin: ME,
                            from_seq: seq,
                            to_seq: seq + hop,
                        };
                        for gcs in [&mut pair.new, &mut pair.old] {
                            gcs.on_packet(ctx, from, pkt.clone());
                        }
                    }
                    // The NAK rate limit runs on the tick count.
                    _ => {
                        pair.new.ticks += hop;
                        pair.old.ticks += hop;
                    }
                }
                assert_eq!(
                    books(&pair.new),
                    books(&pair.old),
                    "seed {seed}, {size} members, step {step} (kind {kind})"
                );
                let state = &pair.old.groups[&G];
                let both_held = !state.send_buf.is_empty() && !state.retained.is_empty();
                (before, state.retained.len(), both_held)
            })
            .expect("host is up");
        if kind <= 3 {
            last_report = report;
            covered[0] += u64::from(before > 0);
            covered[1] += u64::from(after < before);
            covered[2] += u64::from(both_held);
        }
    }
    sim.run_for(std::time::Duration::from_millis(1));
    for &peer in peers {
        let (new, old) = sim
            .with_process(peer, |s: &Sink| (s.from_new.clone(), s.from_old.clone()))
            .expect("peer is up");
        assert_eq!(new, old, "seed {seed}: wire traffic to {peer} differs");
    }
    covered
}

/// Sums [`run`] over 200 seeds.
fn sweep(size: u32, laggard: bool, outsider: bool) -> [u64; 3] {
    let mut total = [0; 3];
    for seed in 0..200 {
        let covered = run(seed, size, 300, laggard, outsider);
        for (sum, n) in total.iter_mut().zip(covered) {
            *sum += n;
        }
    }
    total
}

#[test]
fn on_ack_matches_the_body_it_replaced() {
    // The session-group shape (a client and its server), a small server
    // group and a fully replicated one.
    for size in [2, 4, 8] {
        let [with_retained, released, both_held] = sweep(size, false, false);
        // The case the early return must not swallow is well covered:
        // acks that arrive while messages are retained, and release some.
        assert!(with_retained > 5_000, "{size} members: {with_retained}");
        assert!(released > 500, "{size} members: {released}");
        assert!(both_held > 5_000, "{size} members: {both_held}");
    }
}

#[test]
fn on_ack_matches_it_while_both_buffers_stay_held() {
    for size in [3, 8] {
        let [with_retained, released, both_held] = sweep(size, true, false);
        assert_eq!(released, 0, "{size} members: nothing can become stable");
        assert!(
            with_retained > 15_000 && both_held > 15_000,
            "{size} members: {with_retained}, {both_held}"
        );
    }
}

#[test]
fn on_ack_matches_it_when_the_view_does_not_list_this_node() {
    let [with_retained, released, _] = sweep(4, false, true);
    assert!(
        with_retained > 5_000 && released > 500,
        "{with_retained}, {released}"
    );
}

/// A group with traffic in flight: the node holds two unstable messages of
/// its own and eight of a peer's, and that peer's acks — sent before it saw
/// any of them, alternately before and after its own first — deliver
/// nothing again. In the larger group the other members have not acked at
/// all.
#[test]
fn stale_acks_at_a_group_holding_messages_deliver_nothing_more() {
    const ACKS: u64 = 10_000;
    const HELD: u64 = 8;
    for size in [2, 8] {
        let members: Vec<NodeId> = (1..=size).map(NodeId).collect();
        let (peer, mut gcs) = (members[1], member(NEW, &members));
        let mut sim: Simulation<Wire> = Simulation::new(4);
        sim.set_default_profile(LinkProfile::ideal());
        sim.add_node(ME, Sink::default());
        sim.run_for(std::time::Duration::from_millis(1));
        let from = Endpoint::new(peer, NEW);
        let delivered = sim.invoke(ME, |_: &mut Sink, ctx| {
            let mut events = Vec::new();
            for v in 0..2 {
                events.extend(gcs.multicast(ctx, G, Num(v)).expect("member"));
            }
            for seq in 1..=HELD {
                let (group, origin, payload) = (G, peer, Num(seq));
                let msg = GcsPacket::AppMsg {
                    group,
                    origin,
                    seq,
                    payload,
                };
                events.extend(gcs.on_packet(ctx, from, msg));
            }
            for i in 0..ACKS {
                let (group, delivered) = (G, vec![(peer, i % 2), (ME, 0)]);
                events.extend(gcs.on_packet(ctx, from, GcsPacket::Ack { group, delivered }));
            }
            events.retain(|e| matches!(e, GcsEvent::Deliver { .. }));
            events.len() as u64
        });
        assert_eq!(delivered, Some(2 + HELD), "{size} members");
        let state = &gcs.groups[&G];
        // Nothing of its own is stable, and of the peer's at most the
        // first, which the two-member group's only other member acked.
        let held = (state.send_buf.len(), state.retained.len() as u64);
        assert_eq!(held, (2, HELD - u64::from(size == 2)), "{size} members");
    }
}
