//! The delivery plane against a model. [`Channel`]s of two to four
//! members exchange their datagrams through a network that the property
//! loses, duplicates and reorders at will; between datagrams the
//! coordinator changes the view, with or without one member, over a
//! reliable control plane. After every step:
//! - each member's deliveries from each sender are that sender's
//!   multicasts in order, each once: a reference FIFO queue per sender;
//! - members that adopt the same cut delivered the same messages in the
//!   old view, exactly those up to the cut, and none was forced past;
//! - a member's send buffer and retained set hold exactly the messages
//!   that are above the last adopted cut and above every floor that, at
//!   some ack since, each member of the view had reached by its latest
//!   report (the member's own floor being what it sent or delivered).
//!
//! Once the network is reliable again, every member has delivered every
//! member's multicasts and holds nothing.
//!
//! Beside each channel runs a shadow fed the same inputs that never takes
//! the fast path of a repeated ack: after every step both did the same and
//! hold the same. A second property does the same under forged inputs the
//! model's world never makes (floors above anything sent, cuts adopted
//! again in the same view, views changed without a cut). Both count the
//! acks whose passes were skipped, and each asserts it met some.

use std::collections::{BTreeMap, BTreeSet};

use proptest::prelude::*;
use proptest::test_runner::TestRng;

use super::*;

/// A payload: its sender, and its place among the sender's multicasts.
type Msg = (NodeId, u64);

const G: GroupId = GroupId(5);

/// One member: its channel and what the model knows of it.
struct Member {
    ch: Channel<Msg>,
    /// The same channel, stepped with the same inputs, never skipping the
    /// passes of a repeated ack.
    shadow: Channel<Msg>,
    status: GroupStatus,
    /// Per sender, how many of its messages the member delivered; its
    /// own, how many it multicast (it delivers them at once).
    delivered: BTreeMap<NodeId, u64>,
    /// Per other member, the floors of its latest ack processed since the
    /// last adopted cut.
    reports: BTreeMap<NodeId, BTreeMap<NodeId, u64>>,
    /// Per sender, the floor below which nothing need be held: the last
    /// cut, raised by every ack since.
    stable: BTreeMap<NodeId, u64>,
}

struct World {
    view: View,
    members: BTreeMap<NodeId, Member>,
    /// Datagrams in flight: `(from, to, packet)`.
    net: Vec<(NodeId, NodeId, GcsPacket<Msg>)>,
    tick: u64,
    /// Acks that skipped both passes.
    skips: u64,
}

impl World {
    fn new(size: u32) -> Self {
        let ids: Vec<NodeId> = (1..=size).map(NodeId).collect();
        let member = || Member {
            ch: Channel::default(),
            shadow: Channel::default(),
            status: GroupStatus::Member,
            delivered: BTreeMap::new(),
            reports: BTreeMap::new(),
            stable: BTreeMap::new(),
        };
        World {
            view: View::new(ViewId::default(), ids.clone()),
            members: ids.iter().map(|&id| (id, member())).collect(),
            net: Vec::new(),
            tick: 2,
            skips: 0,
        }
    }

    /// Steps `id`'s channel with `input`, puts its sends in flight and
    /// checks its deliveries against the reference queues; returns the
    /// cut it computed.
    fn step(
        &mut self,
        id: NodeId,
        input: Input<'_, Msg>,
        round: Option<&FlushRound>,
    ) -> Result<Option<Cut<Msg>>, TestCaseError> {
        let ack = match &input {
            Input::Packet(from, GcsPacket::Ack { delivered, .. }) => {
                Some((*from, delivered.clone()))
            }
            _ => None,
        };
        let member = self.members.get_mut(&id).expect("a member");
        let cx = Cx {
            me: id,
            group: G,
            status: member.status,
            view: &self.view,
            round,
        };
        let (out, skipped) = step_twice(&mut member.ch, &mut member.shadow, self.tick, cx, input)?;
        self.skips += u64::from(skipped);
        prop_assert_eq!(out.forced, 0, "{:?} forced a gap closed", id);
        for action in out.actions {
            match action {
                Action::Send(to, pkt) => self.net.push((id, to, pkt)),
                Action::Deliver(sender, msg) => {
                    let count = member.delivered.entry(sender).or_default();
                    *count += 1;
                    prop_assert_eq!(msg, (sender, *count), "{:?}: FIFO order", id);
                }
            }
        }
        if let Some((from, floors)) = ack {
            member.reports.insert(from, floors.into_iter().collect());
            // What the ack made stable, by every member's latest floor.
            for (&sender, &mine) in &member.delivered {
                let reported = |m| member.reports.get(&m).and_then(|f| f.get(&sender));
                let floor_at = |m| {
                    if m == id {
                        mine
                    } else {
                        reported(m).map_or(0, |&f| f)
                    }
                };
                let floor = self.view.members.iter().map(|&m| floor_at(m)).min();
                let stable = member.stable.entry(sender).or_default();
                *stable = (*stable).max(floor.unwrap_or(0));
            }
        }
        Ok(out.cut)
    }

    /// Every member holds, in its send buffer and retained set, exactly
    /// what the model says some member may still need.
    fn check_held(&self) -> Result<(), TestCaseError> {
        for (&id, member) in &self.members {
            let stable = |sender| member.stable.get(&sender).copied().unwrap_or(0);
            let above =
                |(&sender, &upto)| (stable(sender) + 1..=upto).map(move |seq| (sender, seq));
            let unstable: BTreeSet<(NodeId, u64)> =
                member.delivered.iter().flat_map(above).collect();
            let own = member.ch.send_buf.keys().map(|&seq| (id, seq));
            let held: BTreeSet<(NodeId, u64)> =
                own.chain(member.ch.retained.keys().copied()).collect();
            prop_assert_eq!(held, unstable, "{:?}: held", id);
        }
        Ok(())
    }

    /// Hands the datagram at `index` to its destination, keeping a copy in
    /// flight when `duplicate`. One to a leaver (a NAK a stale ack named it
    /// in, say) is lost.
    fn deliver(&mut self, index: usize, duplicate: bool) -> Result<(), TestCaseError> {
        let (from, to, pkt) = if duplicate {
            self.net[index].clone()
        } else {
            self.net.remove(index)
        };
        if self.members.contains_key(&to) {
            self.step(to, Input::Packet(from, pkt), None)?;
        }
        Ok(())
    }

    /// The coordinator changes the view, `leaving` crashing out of it: the
    /// candidates flush, the coordinator completes the round and everyone
    /// adopts its cut. Control datagrams are reliable here; the leaver's
    /// datagrams in flight are lost with it.
    fn change_view(&mut self, leaving: Option<NodeId>) -> Result<(), TestCaseError> {
        let old = self.view.members.clone();
        let coordinator = old[0];
        let mut candidates = old.clone();
        candidates.retain(|&m| Some(m) != leaving);
        let vid = ViewId {
            epoch: self.view.id.epoch + 1,
            coordinator,
        };
        let next = View::new(vid, candidates.clone());
        let round = FlushRound {
            vid,
            candidates: candidates.clone(),
            acked: BTreeSet::from([coordinator]),
        };
        for id in &candidates {
            self.members.get_mut(id).expect("a member").status = GroupStatus::Flushing;
        }
        self.step(coordinator, Input::Propose, Some(&round))?;
        let to = coordinator;
        for &id in &candidates[1..] {
            self.step(id, Input::Flush { to, vid }, None)?;
            let (from, to, report) = self.net.pop().expect("a flush report");
            prop_assert_eq!(to, coordinator);
            self.step(coordinator, Input::Packet(from, report), Some(&round))?;
        }
        let cut = self.step(coordinator, Input::Complete(&next), None)?;
        let cut = cut.expect("the round was open");
        if let Some(gone) = leaving {
            self.members.remove(&gone);
            self.net.retain(|&(from, to, _)| from != gone && to != gone);
        }
        self.view = next;
        for &id in &candidates {
            self.members.get_mut(&id).expect("a member").status = GroupStatus::Member;
            self.step(id, Input::Adopt(cut.clone()), None)?;
            // The cut made everything delivered so far stable.
            let member = self.members.get_mut(&id).expect("a member");
            member.reports.clear();
            member.stable.clone_from(&member.delivered);
            self.step(id, Input::Resume, None)?;
        }
        // View synchrony: the survivors delivered the same messages in the
        // old view, exactly those up to the cut. (A stale ack naming an
        // earlier leaver can put it in the cut too, at 0.)
        let first = &self.members[&coordinator].delivered;
        for &id in &candidates {
            let delivered = &self.members[&id].delivered;
            prop_assert_eq!(delivered, first, "{:?} and {:?} differ", id, coordinator);
            for &(sender, horizon) in cut.cut.iter().filter(|(s, _)| old.contains(s)) {
                let seen = delivered.get(&sender).copied().unwrap_or(0);
                prop_assert_eq!(seen, horizon, "{:?}: {:?} against the cut", id, sender);
            }
        }
        Ok(())
    }

    /// Runs `script`: each step is `(kind, who, which)`, the kind of step,
    /// the member it is about and the datagram it picks.
    fn run(&mut self, script: &[(u8, usize, usize)]) -> Result<(), TestCaseError> {
        for &(kind, who, which) in script {
            let members = self.view.members.clone();
            let id = members[who % members.len()];
            match kind {
                0..=7 => {
                    let k = self.members[&id].delivered.get(&id).map_or(1, |k| k + 1);
                    self.step(id, Input::Multicast((id, k)), None)?;
                }
                8..=21 if !self.net.is_empty() => {
                    self.deliver(which % self.net.len(), kind >= 19)?;
                }
                22..=27 if !self.net.is_empty() => {
                    self.net.remove(which % self.net.len());
                }
                28..=37 => {
                    self.tick += 1;
                    let pass = if kind < 33 { Pass::Acks } else { Pass::Naks };
                    self.step(id, Input::Tick(pass), None)?;
                }
                38 | 39 => {
                    // The coordinator stays; the view keeps two members.
                    let leaves = kind == 39 && id != members[0] && members.len() > 2;
                    self.change_view(leaves.then_some(id))?;
                }
                _ => {}
            }
            self.check_held()?;
        }
        self.settle()
    }

    /// The network turns reliable: acks and NAKs flow until every gap is
    /// filled and everything is stable.
    fn settle(&mut self) -> Result<(), TestCaseError> {
        for _ in 0..20 {
            self.tick += 2;
            for id in self.view.members.clone() {
                self.step(id, Input::Tick(Pass::Acks), None)?;
                self.step(id, Input::Tick(Pass::Naks), None)?;
            }
            while !self.net.is_empty() {
                self.deliver(0, false)?;
            }
            self.check_held()?;
        }
        for (&id, member) in &self.members {
            for (&sender, them) in &self.members {
                let count = |m: &Member| m.delivered.get(&sender).copied();
                prop_assert_eq!(count(member), count(them), "{:?} from {:?}", id, sender);
            }
            prop_assert!(member.ch.send_buf.is_empty() && member.ch.retained.is_empty());
        }
        Ok(())
    }
}

/// Steps `ch` and `shadow` with `input`, the shadow on the full path
/// whatever the input; checks that both did and hold the same, and says
/// whether `ch` skipped the passes of a repeated ack.
fn step_twice(
    ch: &mut Channel<Msg>,
    shadow: &mut Channel<Msg>,
    tick: u64,
    cx: Cx<'_>,
    input: Input<'_, Msg>,
) -> Result<(Out<Msg>, bool), TestCaseError> {
    let skipped = match &input {
        Input::Packet(from, GcsPacket::Ack { delivered, .. }) => {
            cx.status != GroupStatus::Idle && ch.view == *cx.view && ch.repeats(*from, delivered)
        }
        _ => false,
    };
    let (mut out, mut full) = (Out::default(), Out::default());
    ch.step(tick, cx, input.clone(), &mut out);
    // A version the shadow's reports were not stamped with: none repeats.
    shadow.version += 1;
    shadow.step(tick, cx, input, &mut full);
    prop_assert_eq!(&out.actions, &full.actions, "skipped: {}", skipped);
    prop_assert_eq!((out.forced, &out.cut), (full.forced, &full.cut));
    prop_assert_eq!(books(ch), books(shadow), "skipped: {}", skipped);
    Ok((out, skipped))
}

/// What a channel and its shadow must agree on: all of it but the fast
/// path's own bookkeeping (the version and what the reports were stamped
/// with).
fn books(ch: &Channel<Msg>) -> Channel<Msg> {
    let mut books = ch.clone();
    books.version = 0;
    for report in books.reports.values_mut() {
        report.seen = 0;
    }
    books
}

/// Runs `run` on `cases` inputs drawn from `strategy` as `proptest!` draws
/// them for a property named `name`, and returns the sum of the counts it
/// returns: a property whose every case passes and that must not be
/// vacuous over all of them.
fn counted<S: Strategy>(
    name: &str,
    cases: u32,
    strategy: S,
    mut run: impl FnMut(S::Value) -> Result<u64, TestCaseError>,
) -> u64 {
    let mut total = 0;
    for case in 0..cases {
        let input = strategy.generate(&mut TestRng::for_case(name, case));
        match run(input) {
            Ok(count) => total += count,
            Err(e) => panic!("property '{name}' failed at case {case}/{cases}: {e}"),
        }
    }
    total
}

#[test]
fn channels_deliver_fifo_view_synchronously_and_hold_only_the_unstable() {
    let script = prop::collection::vec((0u8..40, 0usize..4, 0usize..1024), 1..240);
    let skips = counted("model", 256, (2u32..5, script), |(size, script)| {
        let mut world = World::new(size);
        world.run(&script)?;
        Ok(world.skips)
    });
    assert!(skips > 0, "no repeated ack skipped the passes");
}

/// The channel of [`ME`] and its shadow, fed forged steps `(kind, who, a,
/// mask)`: acks (the peer's last one again, or new floors, any of them
/// above what was sent), messages past gaps, multicasts, both passes,
/// cuts adopted in a new view or again in the same one, views changed
/// without a cut, and the status flipping between member and flushing
/// (which only buffers). Returns the acks that skipped the passes.
fn forged(script: &[(u8, u8, u8, u8)]) -> Result<u64, TestCaseError> {
    const ME: NodeId = NodeId(1);
    let ids = [ME, NodeId(2), NodeId(3), NodeId(4)];
    let (mut ch, mut shadow) = (Channel::default(), Channel::default());
    let mut view = View::new(ViewId::default(), ids.to_vec());
    let mut status = GroupStatus::Member;
    let mut last: BTreeMap<NodeId, Vec<(NodeId, u64)>> = BTreeMap::new();
    let (mut tick, mut sent, mut skips) = (2, 0, 0);
    for &(kind, who, a, mask) in script {
        let peer = ids[1 + usize::from(who) % 3];
        let chosen = ids.iter().enumerate().filter(|(k, _)| mask & (1 << k) != 0);
        let floors: Vec<(NodeId, u64)> = chosen
            .map(|(k, &id)| (id, u64::from(a.wrapping_add(k as u8) % 8)))
            .collect();
        let new_view = |epoch: u8| {
            let members = ids
                .iter()
                .enumerate()
                .filter(|(k, _)| *k == 0 || mask & (16 << k) != 0);
            let vid = ViewId {
                epoch: u64::from(epoch),
                coordinator: ME,
            };
            View::new(vid, members.map(|(_, &id)| id).collect())
        };
        let input = match kind {
            0..=3 => {
                let again = last.get(&peer).filter(|_| kind < 3).cloned();
                let delivered = again.unwrap_or(floors);
                last.insert(peer, delivered.clone());
                Input::Packet(
                    peer,
                    GcsPacket::Ack {
                        group: G,
                        delivered,
                    },
                )
            }
            4 => {
                let seq = 1 + u64::from(a % 6);
                let (group, origin, payload) = (G, peer, (peer, seq));
                Input::Packet(
                    peer,
                    GcsPacket::AppMsg {
                        group,
                        origin,
                        seq,
                        payload,
                    },
                )
            }
            5 => {
                sent += 1;
                Input::Multicast((ME, sent))
            }
            6 => {
                tick += 1;
                Input::Tick(if mask & 1 == 0 {
                    Pass::Acks
                } else {
                    Pass::Naks
                })
            }
            7 => {
                if a % 2 == 0 {
                    view = new_view(a);
                }
                let fill = floors.iter().map(|&(s, q)| (s, q, (s, q))).collect();
                let was_member = mask & 0x80 != 0;
                let cut = floors;
                Input::Adopt(Cut {
                    cut,
                    fill,
                    was_member,
                })
            }
            8 => {
                view = new_view(a);
                continue;
            }
            _ => {
                status = match status {
                    GroupStatus::Member => GroupStatus::Flushing,
                    _ => GroupStatus::Member,
                };
                continue;
            }
        };
        let cx = Cx {
            me: ME,
            group: G,
            status,
            view: &view,
            round: None,
        };
        let (_, skipped) = step_twice(&mut ch, &mut shadow, tick, cx, input)?;
        skips += u64::from(skipped);
    }
    Ok(skips)
}

#[test]
fn a_repeated_ack_skips_only_passes_that_would_do_nothing() {
    let script = prop::collection::vec((0u8..10, 0u8..3, 0u8..8, 0u8..=255), 1..200);
    let skips = counted("forged", 512, script, |script| forged(&script));
    assert!(skips > 0, "no repeated ack skipped the passes");
}
