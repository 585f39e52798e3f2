//! The delivery plane of the GCS as a plain value: per-sender FIFO
//! reliable multicast within a view, and the cut that carries it across a
//! view change.
//!
//! One [`Channel`] per group holds everything the plane decides with:
//! this node's sequence numbers and send buffer, a receive state per
//! sender, the delivered messages kept until they are stable, the floors
//! the other members last acknowledged, the NAK clocks, the sends queued
//! while the group has no view to send in, and the flushed messages of the
//! round this node coordinates. [`Channel::step`] is its one mutating
//! entry point. Time is an argument (the housekeeping tick count), the
//! group's membership is read from a [`Cx`], and everything the step
//! wants done is an [`Action`] that the live [`GcsNode`](crate::GcsNode)
//! carries out in emission order, as it carries out the actions of
//! [`Membership`](crate::proto::Membership)'s step.
//!
//! Whatever it is fed, a step keeps three promises:
//! - between two adopted cuts, each sender's messages are delivered in
//!   sequence order and once; a gap is skipped only by adopting a cut above
//!   it, and the skipped messages are counted in [`Out::forced`]. (A cut
//!   drops the receive state of every sender outside its view, so a later
//!   message of such a sender is taken as its first: a known deviation,
//!   pinned by this module's tests.)
//! - a message leaves the send buffer or the retained set only once every
//!   member of the view has reported a floor at or above it, or an adopted
//!   cut covers it;
//! - a table grows by one entry per message held or per sender named,
//!   never by the value of a sequence number or an id.

use std::collections::{BTreeMap, VecDeque};
use std::ops::RangeInclusive;

use simnet::{NodeId, VecMap};

use crate::packet::GcsPacket;
use crate::proto::{FlushRound, GroupStatus};
use crate::types::{GroupId, View, ViewId};

/// What a step reads of its group's membership.
#[derive(Clone, Copy, Debug)]
pub struct Cx<'a> {
    /// This node.
    pub me: NodeId,
    /// The channel's group: a packet of any other group is dropped.
    pub group: GroupId,
    /// This node's membership status in the group.
    pub status: GroupStatus,
    /// The installed view.
    pub view: &'a View,
    /// The view change this node coordinates, while one is open.
    pub round: Option<&'a FlushRound>,
}

/// One input of [`Channel::step`].
#[derive(Clone, Debug)]
pub enum Input<'a, P> {
    /// The application multicasts a payload: sent at once by a member
    /// (behind anything still queued), queued while the node joins or
    /// flushes.
    Multicast(P),
    /// A packet from a node. Only the `AppMsg`, `Ack`, `Nak` and
    /// `FlushAck` of the channel's group mean anything to the channel; a
    /// `FlushAck` is a candidate's flush report, folded into the round
    /// this node coordinates when the round is the one acked and lists
    /// the candidate.
    Packet(NodeId, GcsPacket<P>),
    /// One of the periodic passes.
    Tick(Pass),
    /// This node proposed a view change: its own flush report, its floors
    /// and every message it holds, opens the round it coordinates.
    Propose,
    /// This node promised view change `vid`: its flush report goes to `to`,
    /// the round's coordinator, in a `FlushAck`.
    Flush {
        /// The coordinator.
        to: NodeId,
        /// The promised view change.
        vid: ViewId,
    },
    /// The round this node coordinates completed as this view: its cut
    /// and fill come back in [`Out::cut`].
    Complete(&'a View),
    /// The round this node coordinates timed out: its flushed messages go.
    Abandon,
    /// Adopt the installed view's cut: merge the fill, deliver up to the
    /// cut (a joiner starts at it), keep receive state for the members of
    /// [`Cx::view`] only and forget the old view's books.
    Adopt(Cut<P>),
    /// The group has a view to send in again (an install, or an abandoned
    /// flush): multicast what was queued.
    Resume,
}

/// A periodic pass of [`Input::Tick`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Pass {
    /// Report this node's floors to every other member (stability).
    Acks,
    /// NAK again the gaps that persist: the NAK or its answer may have
    /// been lost.
    Naks,
}

/// What a step asks its driver to do.
#[derive(Clone, PartialEq, Debug)]
pub enum Action<P> {
    /// Put the packet on the wire to the node.
    Send(NodeId, GcsPacket<P>),
    /// Hand the application a payload multicast by the node.
    Deliver(NodeId, P),
}

/// The message-plane freight of an install: per sender, the delivery
/// horizon of the previous view, and the messages below it some member
/// may lack.
#[derive(Clone, PartialEq, Debug)]
pub struct Cut<P> {
    /// `(sender, seq)`: what the previous view delivers up to.
    pub cut: Vec<(NodeId, u64)>,
    /// Messages at or below the cut.
    pub fill: Vec<(NodeId, u64, P)>,
    /// Whether the node had a view of the group before: it delivers up to
    /// the cut, where a joiner starts at it.
    pub was_member: bool,
}

impl<P: Clone> Cut<P> {
    /// The `Install` packet of `view` in `group` that carries this cut.
    pub(crate) fn install(&self, group: GroupId, view: View) -> GcsPacket<P> {
        let (cut, fill) = (self.cut.clone(), self.fill.clone());
        GcsPacket::Install {
            group,
            view,
            cut,
            fill,
        }
    }
}

/// The output of a step. One value can serve every step: the driver
/// drains the actions after each.
#[derive(Debug)]
pub struct Out<P> {
    /// The actions, in emission order.
    pub actions: Vec<Action<P>>,
    /// Messages skipped to close gaps no member could fill (possible only
    /// across partition merges). Steps add to it: a driver that never
    /// resets it reads the total.
    pub forced: u64,
    /// The cut and fill an [`Input::Complete`] computed.
    pub cut: Option<Cut<P>>,
}

impl<P> Default for Out<P> {
    fn default() -> Self {
        Out {
            actions: Vec::new(),
            forced: 0,
            cut: None,
        }
    }
}

#[derive(Clone, PartialEq, Eq, Hash, Debug)]
struct RecvState<P> {
    /// Next sequence number to deliver from this sender.
    next: u64,
    /// Out-of-order buffer.
    buf: VecMap<u64, P>,
}

impl<P> RecvState<P> {
    /// `sender`'s receive state, made on its first mention (a message, a
    /// floor in an ack, a fill or a cut): delivery starts at sequence 1.
    fn of(recv: &mut VecMap<NodeId, Self>, sender: NodeId) -> &mut Self {
        recv.get_or_insert_with(sender, || RecvState {
            next: 1,
            buf: VecMap::new(),
        })
    }
}

/// A member's last ack: its floors as the ack listed them, and what the
/// ack passes made of them.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
struct Report {
    floors: Vec<(NodeId, u64)>,
    /// [`Channel::version`] when the passes last ran on this report.
    seen: u64,
    /// Whether the tail-gap loop then found a gap.
    gap: bool,
}

impl Report {
    /// The floor reported for `sender` (the last one, were it named
    /// twice), 0 when it is not named.
    fn floor(&self, sender: NodeId) -> u64 {
        let named = self.floors.iter().rev().find(|(s, _)| *s == sender);
        named.map_or(0, |&(_, floor)| floor)
    }
}

/// The flushed freight of the round this node coordinates.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
struct Round<P> {
    /// Per sender, the highest floor a report named.
    floors: BTreeMap<NodeId, u64>,
    /// Every message a report held.
    pool: BTreeMap<(NodeId, u64), P>,
}

impl<P> Round<P> {
    fn absorb(&mut self, delivered: Vec<(NodeId, u64)>, held: Vec<(NodeId, u64, P)>) {
        for (sender, floor) in delivered {
            let entry = self.floors.entry(sender).or_insert(0);
            *entry = (*entry).max(floor);
        }
        for (sender, seq, payload) in held {
            self.pool.insert((sender, seq), payload);
        }
    }
}

/// One group's delivery plane (see the module docs).
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct Channel<P> {
    next_seq: u64,
    send_buf: VecMap<u64, P>,
    recv: VecMap<NodeId, RecvState<P>>,
    retained: VecMap<(NodeId, u64), P>,
    /// Each other member's last ack since the last adopted cut.
    reports: VecMap<NodeId, Report>,
    /// Counts the changes to what the ack passes read besides the reports:
    /// the receive states and buffers, the send buffer and the view.
    version: u64,
    /// The view the ack passes last read.
    view: View,
    last_nak_tick: VecMap<NodeId, u64>,
    pending: VecDeque<P>,
    round: Option<Round<P>>,
    /// Whether a receive buffer may hold a message: set whenever one
    /// might, exact after each NAK pass.
    naks_due: bool,
}

/// A channel that has sent and received nothing.
impl<P> Default for Channel<P> {
    fn default() -> Self {
        Channel {
            next_seq: 1,
            send_buf: VecMap::new(),
            recv: VecMap::new(),
            retained: VecMap::new(),
            reports: VecMap::new(),
            version: 0,
            view: View::default(),
            last_nak_tick: VecMap::new(),
            pending: VecDeque::new(),
            round: None,
            naks_due: false,
        }
    }
}

impl<P: Clone> Channel<P> {
    /// Whether the NAK pass ([`Pass::Naks`]) can have work: a receive
    /// buffer may hold a message. A driver may skip the pass while this
    /// is false.
    pub(crate) fn naks_due(&self) -> bool {
        self.naks_due
    }

    /// Steps the channel with `input` at housekeeping tick `tick`,
    /// appending what it asks for to `out`.
    pub fn step(&mut self, tick: u64, cx: Cx<'_>, input: Input<'_, P>, out: &mut Out<P>) {
        match input {
            Input::Multicast(payload) => match cx.status {
                GroupStatus::Idle => {}
                GroupStatus::Joining | GroupStatus::Flushing => self.pending.push_back(payload),
                GroupStatus::Member => {
                    self.resume(cx, out);
                    self.multicast(cx, payload, out);
                }
            },
            Input::Packet(from, packet) => match packet {
                GcsPacket::AppMsg {
                    group,
                    origin,
                    seq,
                    payload,
                } if group == cx.group => self.on_app_msg(tick, cx, origin, seq, payload, out),
                // An inverted range names no message (and would panic
                // `range`).
                GcsPacket::Nak {
                    group,
                    origin,
                    from_seq,
                    to_seq,
                } if group == cx.group && origin == cx.me && from_seq <= to_seq => {
                    for (&seq, payload) in self.send_buf.range(from_seq..=to_seq) {
                        let msg = app_msg(cx, seq, payload.clone());
                        out.actions.push(Action::Send(from, msg));
                    }
                }
                GcsPacket::Ack { group, delivered } if group == cx.group => {
                    self.on_ack(tick, cx, from, delivered, out);
                }
                GcsPacket::FlushAck {
                    group,
                    vid,
                    delivered,
                    held,
                } if group == cx.group => {
                    let open = cx
                        .round
                        .is_some_and(|fl| fl.vid == vid && fl.candidates.contains(&from));
                    if let (true, Some(round)) = (open, &mut self.round) {
                        round.absorb(delivered, held);
                    }
                }
                _ => {}
            },
            Input::Tick(Pass::Acks) => self.tick_acks(cx, out),
            Input::Tick(Pass::Naks) => self.tick_naks(tick, cx, out),
            Input::Propose => {
                let (delivered, held) = (self.floors(cx.me), self.held(cx.me));
                let (floors, pool) = (BTreeMap::new(), BTreeMap::new());
                self.round
                    .insert(Round { floors, pool })
                    .absorb(delivered, held);
            }
            Input::Flush { to, vid } => {
                let (delivered, held) = (self.floors(cx.me), self.held(cx.me));
                let report = GcsPacket::FlushAck {
                    group: cx.group,
                    vid,
                    delivered,
                    held,
                };
                out.actions.push(Action::Send(to, report));
            }
            Input::Complete(view) => out.cut = self.complete(view),
            Input::Abandon => self.round = None,
            Input::Adopt(cut) => self.adopt(cx, cut, out),
            Input::Resume => self.resume(cx, out),
        }
    }

    /// Highest contiguously delivered sequence per sender, this node's own
    /// sends first.
    fn floors(&self, me: NodeId) -> Vec<(NodeId, u64)> {
        let mut floors = Vec::with_capacity(1 + self.recv.len());
        floors.push((me, self.next_seq - 1));
        for (&sender, state) in &self.recv {
            if sender != me {
                floors.push((sender, state.next - 1));
            }
        }
        floors
    }

    /// Everything this node holds that may be unstable: its own sent
    /// messages, then the retained (delivered) and buffered (undelivered)
    /// ones of the other senders.
    fn held(&self, me: NodeId) -> Vec<(NodeId, u64, P)> {
        let own = self.send_buf.iter().map(|(&seq, p)| (me, seq, p.clone()));
        let retained = self.retained.iter().map(|(&(s, q), p)| (s, q, p.clone()));
        let buffered = self.recv.iter().flat_map(|(&sender, state)| {
            state
                .buf
                .iter()
                .map(move |(&seq, p)| (sender, seq, p.clone()))
        });
        own.chain(retained).chain(buffered).collect()
    }

    fn multicast(&mut self, cx: Cx<'_>, payload: P, out: &mut Out<P>) {
        self.version += 1;
        let seq = self.next_seq;
        // Saturating here and below: only a forged `u64::MAX` cut or
        // sequence number gets a counter this far, and it must not panic.
        self.next_seq = seq.saturating_add(1);
        self.send_buf.insert(seq, payload.clone());
        for &member in cx.view.members.iter().filter(|&&m| m != cx.me) {
            out.actions
                .push(Action::Send(member, app_msg(cx, seq, payload.clone())));
        }
        out.actions.push(Action::Deliver(cx.me, payload));
    }

    /// Multicasts what was queued, in the order it was.
    fn resume(&mut self, cx: Cx<'_>, out: &mut Out<P>) {
        while let Some(payload) = self.pending.pop_front() {
            self.multicast(cx, payload, out);
        }
    }

    fn on_app_msg(
        &mut self,
        tick: u64,
        cx: Cx<'_>,
        origin: NodeId,
        seq: u64,
        payload: P,
        out: &mut Out<P>,
    ) {
        if origin == cx.me || cx.status == GroupStatus::Idle {
            return;
        }
        let recv = RecvState::of(&mut self.recv, origin);
        if seq < recv.next {
            return; // duplicate / already delivered
        }
        self.version += 1;
        recv.buf.insert(seq, payload);
        // Flushing and joining nodes only buffer.
        if cx.status == GroupStatus::Member {
            deliver(recv, &mut self.retained, origin, u64::MAX, out);
        }
        self.naks_due |= !recv.buf.is_empty();
        // NAK any remaining gap now, even on the node's first two ticks
        // when this sender was never asked; the NAK pass repeats it.
        if let Some(&first) = recv.buf.keys().next() {
            if first > recv.next {
                let gap = recv.next..=first - 1;
                nak(&mut self.last_nak_tick, tick, cx, origin, gap, true, out);
            }
        }
    }

    fn on_ack(
        &mut self,
        tick: u64,
        cx: Cx<'_>,
        member: NodeId,
        delivered: Vec<(NodeId, u64)>,
        out: &mut Out<P>,
    ) {
        let node = cx.me;
        if cx.status == GroupStatus::Idle {
            return;
        }
        if self.view != *cx.view {
            self.view.clone_from(cx.view);
            self.version += 1;
        }
        // Most acks repeat the previous report (liveness, no news).
        if self.repeats(member, &delivered) {
            return;
        }
        // Tail-gap detection: if any member (in particular the sender
        // itself, whose floor equals its send horizon) has delivered
        // further than we have, the missing suffix will never be revealed
        // by a successor packet — NAK it now.
        let mut gap = false;
        for &(sender, floor) in &delivered {
            if sender == node {
                continue;
            }
            let recv = RecvState::of(&mut self.recv, sender);
            let next = recv.next;
            if floor >= next && !recv.buf.contains_key(&next) {
                gap = true;
                nak(
                    &mut self.last_nak_tick,
                    tick,
                    cx,
                    sender,
                    next..=floor,
                    false,
                    out,
                );
            }
        }
        let (floors, seen) = (delivered, self.version);
        self.reports.insert(member, Report { floors, seen, gap });
        // Stability only ever releases buffered messages; with none held
        // there is nothing a floor could release.
        if self.send_buf.is_empty() && self.retained.is_empty() {
            return;
        }
        // Stability: a message is stable once every current member has
        // delivered it; only then may retained copies be dropped.
        let members = &cx.view.members;
        if members.is_empty() {
            return;
        }
        let (recv, reports, own_floor) = (&self.recv, &self.reports, self.next_seq - 1);
        // The highest sequence number of `sender` — this node, or one it
        // has a receive state for, which everything in `retained` came
        // through — that every member has delivered; 0 when none has.
        let stable = |sender: NodeId| {
            let floor_at = |m: NodeId| match (m == node, sender == node) {
                (true, true) => own_floor,
                (true, false) => recv.get(&sender).map_or(0, |r| r.next - 1),
                (false, _) => reports.get(&m).map_or(0, |report| report.floor(sender)),
            };
            match members.iter().map(|&m| floor_at(m)).min() {
                Some(floor) if floor < u64::MAX => floor,
                _ => 0,
            }
        };
        let own = stable(node);
        if own > 0 {
            self.send_buf.retain(|&seq, _| seq > own);
        }
        // `retained` is sorted by sender: one floor per run of keys.
        let mut run: Option<(NodeId, u64)> = None;
        self.retained.retain(|&(sender, seq), _| {
            let floor = match run {
                Some((of, floor)) if of == sender => floor,
                _ => run.insert((sender, stable(sender))).1,
            };
            seq > floor
        });
    }

    /// Whether `delivered`, `member`'s ack, repeats the report the ack
    /// passes last ran on and found no gap in, with nothing else they read
    /// changed since (the view is compared on the way in). Then the
    /// tail-gap loop would find no gap again, and the stability pass,
    /// which released all the reports allowed when it last ran, would
    /// release nothing.
    fn repeats(&self, member: NodeId, delivered: &[(NodeId, u64)]) -> bool {
        self.reports.get(&member).is_some_and(|report| {
            report.seen == self.version && !report.gap && report.floors == delivered
        })
    }

    fn tick_acks(&self, cx: Cx<'_>, out: &mut Out<P>) {
        if cx.status != GroupStatus::Member || cx.view.len() <= 1 {
            return;
        }
        let mut floors = self.floors(cx.me);
        let mut peers = cx.view.members.iter().filter(|&&m| m != cx.me).peekable();
        while let Some(&member) = peers.next() {
            // The last ack takes the vector; a session group has one.
            let delivered = if peers.peek().is_some() {
                floors.clone()
            } else {
                std::mem::take(&mut floors)
            };
            let group = cx.group;
            out.actions
                .push(Action::Send(member, GcsPacket::Ack { group, delivered }));
        }
    }

    fn tick_naks(&mut self, tick: u64, cx: Cx<'_>, out: &mut Out<P>) {
        let member = cx.status == GroupStatus::Member;
        let mut held = false;
        for (&sender, recv) in &self.recv {
            let Some(&first) = recv.buf.keys().next() else {
                continue;
            };
            held = true;
            if member && first > recv.next {
                let gap = recv.next..=first - 1;
                nak(&mut self.last_nak_tick, tick, cx, sender, gap, false, out);
            }
        }
        self.naks_due = held;
    }

    /// The cut and fill of the round this node coordinated, now complete
    /// as `view`: per sender, the highest floor a candidate reported,
    /// extended through the pooled messages (anything contiguously
    /// available to the coordinator can be delivered by all), and the
    /// pooled messages up to it.
    fn complete(&mut self, view: &View) -> Option<Cut<P>> {
        let Round { floors, pool } = self.round.take()?;
        let mut cut: BTreeMap<NodeId, u64> = view.members.iter().map(|&m| (m, 0)).collect();
        cut.extend(floors);
        for (sender, horizon) in cut.iter_mut() {
            while let Some(next) = horizon.checked_add(1) {
                if !pool.contains_key(&(*sender, next)) {
                    break;
                }
                *horizon = next;
            }
        }
        let fill = pool
            .into_iter()
            .filter(|((sender, seq), _)| *seq <= cut.get(sender).copied().unwrap_or(0))
            .map(|((sender, seq), p)| (sender, seq, p))
            .collect();
        Some(Cut {
            cut: cut.into_iter().collect(),
            fill,
            was_member: true,
        })
    }

    fn adopt(&mut self, cx: Cx<'_>, cut: Cut<P>, out: &mut Out<P>) {
        // Merge the fill into receive buffers.
        for (sender, seq, payload) in cut.fill {
            if sender == cx.me {
                continue;
            }
            let recv = RecvState::of(&mut self.recv, sender);
            if seq >= recv.next {
                recv.buf.get_or_insert_with(seq, || payload);
            }
        }
        let horizons: BTreeMap<NodeId, u64> = cut.cut.into_iter().collect();
        for (sender, horizon) in horizons {
            if sender == cx.me {
                // Our own messages up to the cut are stable. That is all
                // of them when we flushed for this view (we stop sending
                // once we promise); an install we never flushed for may
                // cut below what we have sent since, and that tail stays
                // ours to retransmit, its numbers taken.
                self.next_seq = self.next_seq.max(horizon.saturating_add(1));
                self.send_buf.retain(|&seq, _| seq > horizon);
                continue;
            }
            let recv = RecvState::of(&mut self.recv, sender);
            if cut.was_member {
                // Deliver up to the cut (the fill guarantees the messages
                // exist except across lossy merges).
                deliver(recv, &mut self.retained, sender, horizon, out);
                if recv.next <= horizon {
                    out.forced = out.forced.saturating_add(horizon - recv.next + 1);
                    recv.next = horizon.saturating_add(1);
                }
            } else {
                // Joiners start fresh at the cut.
                recv.buf.retain(|&seq, _| seq > horizon);
                recv.next = recv.next.max(horizon.saturating_add(1));
            }
        }
        // Keep receive state only for members of the new view. What the
        // old view delivered is stable by the cut.
        self.recv.retain(|sender, _| cx.view.contains(*sender));
        self.naks_due |= self.recv.values().any(|state| !state.buf.is_empty());
        self.retained.clear();
        self.reports.clear();
        self.last_nak_tick.clear();
        if cx.round.is_none() {
            self.round = None;
        }
    }
}

/// This node's message `seq` of `cx`'s group.
fn app_msg<P>(cx: Cx<'_>, seq: u64, payload: P) -> GcsPacket<P> {
    let (group, origin) = (cx.group, cx.me);
    GcsPacket::AppMsg {
        group,
        origin,
        seq,
        payload,
    }
}

/// Delivers `sender`'s buffered messages in sequence, up to `horizon`,
/// keeping a copy of each until it is stable.
fn deliver<P: Clone>(
    recv: &mut RecvState<P>,
    retained: &mut VecMap<(NodeId, u64), P>,
    sender: NodeId,
    horizon: u64,
    out: &mut Out<P>,
) {
    while recv.next <= horizon {
        let Some(payload) = recv.buf.remove(&recv.next) else {
            break;
        };
        retained.insert((sender, recv.next), payload.clone());
        recv.next = recv.next.saturating_add(1);
        out.actions.push(Action::Deliver(sender, payload));
    }
}

/// The gap-NAK rule, one for all three sites (a message past a gap, an
/// ack naming a floor past ours, the NAK pass): ask `sender` for its
/// messages in `gap`, unless it was asked within the last two ticks.
/// An `eager` site may also ask a sender never asked before, which only
/// matters on ticks 0 and 1: a message past a gap does, so a gap a node
/// sees on its first two ticks is asked for at once rather than at tick 2.
/// Dropping that exception moves the chaos goldens (seed 220 of the
/// 1000-campaign sweep passes, 1012 of the 100-campaign one fails), so it
/// stays; the stamp is at least 1, so 0 keeps meaning "never asked".
fn nak<P>(
    asked: &mut VecMap<NodeId, u64>,
    tick: u64,
    cx: Cx<'_>,
    sender: NodeId,
    gap: RangeInclusive<u64>,
    eager: bool,
    out: &mut Out<P>,
) {
    let last = asked.get(&sender).copied().unwrap_or(0);
    if tick.saturating_sub(last) >= 2 || (eager && last == 0) {
        asked.insert(sender, tick.max(1));
        let nak = GcsPacket::Nak {
            group: cx.group,
            origin: sender,
            from_seq: *gap.start(),
            to_seq: *gap.end(),
        };
        out.actions.push(Action::Send(sender, nak));
    }
}

#[cfg(test)]
mod model;

#[cfg(test)]
mod tests {
    use super::*;

    const G: GroupId = GroupId(3);
    const ME: NodeId = NodeId(1);
    const PEER: NodeId = NodeId(2);

    fn pair() -> View {
        View::new(ViewId::default(), vec![ME, PEER])
    }

    /// One step of a member of `view`; returns its actions.
    fn step(
        ch: &mut Channel<u64>,
        tick: u64,
        view: &View,
        input: Input<'_, u64>,
    ) -> Vec<Action<u64>> {
        let cx = Cx {
            me: ME,
            group: G,
            status: GroupStatus::Member,
            view,
            round: None,
        };
        let mut out = Out::default();
        ch.step(tick, cx, input, &mut out);
        out.actions
    }

    fn app(seq: u64) -> Input<'static, u64> {
        let (group, origin, payload) = (G, PEER, seq);
        Input::Packet(
            PEER,
            GcsPacket::AppMsg {
                group,
                origin,
                seq,
                payload,
            },
        )
    }

    fn ack(delivered: Vec<(NodeId, u64)>) -> Input<'static, u64> {
        Input::Packet(
            PEER,
            GcsPacket::Ack {
                group: G,
                delivered,
            },
        )
    }

    /// The `(to, from_seq, to_seq)` of every NAK among `actions`.
    fn naks(actions: &[Action<u64>]) -> Vec<(NodeId, u64, u64)> {
        let nak = |action: &Action<u64>| match action {
            Action::Send(
                to,
                GcsPacket::Nak {
                    from_seq, to_seq, ..
                },
            ) => Some((*to, *from_seq, *to_seq)),
            _ => None,
        };
        actions.iter().filter_map(nak).collect()
    }

    #[test]
    fn a_gap_is_naked_at_most_every_two_ticks_by_one_clock_for_all_three_sites() {
        let view = pair();
        // On tick 1, only a message past a gap asks for a sender never
        // asked before.
        let mut ch = Channel::default();
        assert_eq!(naks(&step(&mut ch, 1, &view, app(3))), [(PEER, 1, 2)]);
        let mut ch = Channel::default();
        assert_eq!(naks(&step(&mut ch, 1, &view, ack(vec![(PEER, 4)]))), []);
        let mut ch = Channel::default();
        step(&mut ch, 2, &view, ack(vec![(PEER, 4)]));
        step(&mut ch, 1, &view, app(3));
        assert!(ch.naks_due());
        let mut ch = Channel::default();
        let mut out = Out::default();
        let cx = |status| Cx {
            me: ME,
            group: G,
            status,
            view: &view,
            round: None,
        };
        ch.step(0, cx(GroupStatus::Flushing), app(3), &mut out);
        ch.step(
            1,
            cx(GroupStatus::Member),
            Input::Tick(Pass::Naks),
            &mut out,
        );
        assert_eq!(naks(&out.actions), [(PEER, 1, 2)]);
        assert_eq!(naks(&step(&mut ch, 1, &view, Input::Tick(Pass::Naks))), []);
        // From tick 2 on, each site asks once every two ticks, and an
        // ask by any of them silences the others.
        let mut ch = Channel::default();
        assert_eq!(naks(&step(&mut ch, 2, &view, app(3))), [(PEER, 1, 2)]);
        assert_eq!(naks(&step(&mut ch, 3, &view, app(5))), []);
        assert_eq!(naks(&step(&mut ch, 3, &view, ack(vec![(PEER, 9)]))), []);
        assert_eq!(naks(&step(&mut ch, 3, &view, Input::Tick(Pass::Naks))), []);
        assert_eq!(
            naks(&step(&mut ch, 4, &view, ack(vec![(PEER, 9)]))),
            [(PEER, 1, 9)]
        );
        assert_eq!(naks(&step(&mut ch, 5, &view, Input::Tick(Pass::Naks))), []);
        assert_eq!(
            naks(&step(&mut ch, 6, &view, Input::Tick(Pass::Naks))),
            [(PEER, 1, 2)]
        );
        assert_eq!(naks(&step(&mut ch, 7, &view, app(7))), []);
        assert_eq!(naks(&step(&mut ch, 8, &view, app(8))), [(PEER, 1, 2)]);
    }

    #[test]
    fn every_site_starts_a_sender_at_sequence_one() {
        let view = pair();
        let (x, y, z) = (NodeId(7), NodeId(8), NodeId(9));
        let mut ch = Channel::default();
        // An ack naming a sender never heard from: its floor here is 0,
        // so the tail-gap NAK asks from 1, and the next ack reports 0.
        let actions = step(&mut ch, 2, &view, ack(vec![(x, 2)]));
        assert_eq!(naks(&actions), [(x, 1, 2)]);
        let acks = step(&mut ch, 2, &view, Input::Tick(Pass::Acks));
        let report = vec![(ME, 0), (x, 0)];
        let expected = GcsPacket::Ack {
            group: G,
            delivered: report,
        };
        assert_eq!(acks, [Action::Send(PEER, expected)]);
        // A message: sequence 1 is delivered at once.
        assert_eq!(step(&mut ch, 2, &view, app(1)), [Action::Deliver(PEER, 1)]);
        // A fill and a cut: `y`'s 1 is delivered, `z` owes 1..=2.
        let cut = Cut {
            cut: vec![(y, 1), (z, 2)],
            fill: vec![(y, 1, 10)],
            was_member: true,
        };
        let mut out = Out::default();
        let cx = Cx {
            me: ME,
            group: G,
            status: GroupStatus::Member,
            view: &view,
            round: None,
        };
        ch.step(2, cx, Input::Adopt(cut), &mut out);
        assert_eq!(out.actions, [Action::Deliver(y, 10)]);
        assert_eq!(out.forced, 2);
    }

    /// A known deviation: a cut drops the receive state of a sender
    /// outside the view it installs, so that sender's message 1, seen
    /// again (a late copy, or a retransmission a stale ack's NAK asked
    /// for), is delivered again. Members of a live run do take messages
    /// from outside their view: refusing them moves the chaos and fleet
    /// goldens, so the fix is a change of behaviour of its own.
    #[test]
    fn known_deviation_a_sender_dropped_by_a_cut_starts_over_at_one() {
        let x = NodeId(7);
        let with_x = View::new(ViewId::default(), vec![ME, PEER, x]);
        let msg = || {
            let (group, origin, seq, payload) = (G, x, 1, 1);
            Input::Packet(
                x,
                GcsPacket::AppMsg {
                    group,
                    origin,
                    seq,
                    payload,
                },
            )
        };
        let mut ch = Channel::default();
        assert_eq!(step(&mut ch, 2, &with_x, msg()), [Action::Deliver(x, 1)]);
        assert_eq!(step(&mut ch, 2, &with_x, msg()), []);
        let cut = Cut {
            cut: vec![(x, 1)],
            fill: Vec::new(),
            was_member: true,
        };
        assert_eq!(step(&mut ch, 3, &pair(), Input::Adopt(cut)), []);
        assert_eq!(step(&mut ch, 3, &pair(), msg()), [Action::Deliver(x, 1)]);
    }

    #[test]
    fn a_fresh_channel_reports_its_own_floor_zero() {
        let view = pair();
        let acks = step(&mut Channel::default(), 0, &view, Input::Tick(Pass::Acks));
        let expected = GcsPacket::Ack {
            group: G,
            delivered: vec![(ME, 0)],
        };
        assert_eq!(acks, [Action::Send(PEER, expected)]);
    }
}
