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

use std::collections::{BTreeMap, BTreeSet};

use proptest::prelude::*;

use super::*;

/// A payload: its sender, and its place among the sender's multicasts.
type Msg = (NodeId, u64);

const G: GroupId = GroupId(5);

/// One member: its channel and what the model knows of it.
struct Member {
    ch: Channel<Msg>,
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
}

impl World {
    fn new(size: u32) -> Self {
        let ids: Vec<NodeId> = (1..=size).map(NodeId).collect();
        let member = || Member {
            ch: Channel::default(),
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
        let mut out = Out::default();
        member.ch.step(self.tick, cx, input, &mut out);
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn channels_deliver_fifo_view_synchronously_and_hold_only_the_unstable(
        size in 2u32..5,
        script in prop::collection::vec((0u8..40, 0usize..4, 0usize..1024), 1..240),
    ) {
        World::new(size).run(&script)?;
    }
}
