//! The per-node group communication endpoint.
//!
//! [`GcsNode`] is designed to be *embedded* in a [`simnet::Process`]: the
//! application reserves one port and one timer tag for the GCS, forwards
//! matching datagrams to [`GcsNode::on_packet`] and the tick timer to
//! [`GcsNode::on_timer`], and reacts to the [`GcsEvent`]s these calls
//! return.
//!
//! # Protocol overview
//!
//! * **Failure detection** — heartbeats to every known peer; a peer silent
//!   for [`GcsConfig::suspect_timeout`] is suspected (any packet refreshes
//!   liveness).
//! * **Reliable FIFO multicast** — per-(group, sender) sequence numbers;
//!   receivers buffer out-of-order packets and NAK gaps back to the origin;
//!   senders retransmit from a send buffer; cumulative ACKs establish
//!   stability and garbage-collect retained messages. A node delivers its
//!   own multicasts immediately (loopback).
//! * **View-synchronous membership** — the minimum live member coordinates
//!   a two-phase view change (`Prepare` → `FlushAck` → `Install`).
//!   Candidates stop delivering when they promise, report their delivery
//!   floors and hand over all unstable messages; the coordinator computes a
//!   per-sender *cut* (the maximum delivered floor, extended through the
//!   pooled messages) and distributes the messages needed to bring every
//!   member up to the cut. All members of two consecutive views therefore
//!   deliver the same set of messages in between — the property the VoD
//!   servers rely on when agreeing on client migration.
//! * **Join / leave / merge** — joiners solicit membership via `JoinReq`
//!   (falling back to a singleton view when nobody answers); coordinators
//!   periodically announce their view to non-members, and the minimum
//!   coordinator merges components after a partition heals. After a merge,
//!   messages that became stable on one side only may be unrecoverable for
//!   the other; the node then *forces the gap closed* and counts it in
//!   [`GcsNode::forced_gaps`] — applications that exchange full state on
//!   every view change (as the VoD servers do) are unaffected.

use std::collections::{BTreeMap, BTreeSet, HashMap, VecDeque};
use std::error::Error;
use std::fmt;
use std::hash::{BuildHasherDefault, Hasher};
use std::ops::Bound;

use simnet::{Context, Endpoint, NodeId, Payload, Port, SimTime, Timer, VecMap};

use crate::packet::GcsPacket;
use crate::proto::{
    Env, ForeignView, GroupStatus, Membership, ProtoAction, ProtoConfig, ProtoEvent, ProtoMsg,
};
use crate::types::{
    GcsConfig, GcsEvent, GroupId, View, ViewId, ACK_EVERY_TICKS, FLUSH_TIMEOUT_TICKS,
    FOREIGN_EXPIRY_TICKS, HB_EVERY_TICKS, JOIN_RETRY_TICKS, SINGLETON_FORM_TICKS, TICK_PERIOD,
};

/// Error returned when multicasting to a group the node is not (and is not
/// becoming) a member of.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NotMemberError {
    /// The group that rejected the send.
    pub group: GroupId,
}

impl fmt::Display for NotMemberError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "not a member of group {}", self.group)
    }
}

impl Error for NotMemberError {}

/// A structured, passive observability event from the GCS layer, delivered
/// with the simulated time it happened at to the tracer installed with
/// [`GcsNode::set_tracer`].
///
/// Tracing cannot perturb the protocol: events are only constructed when a
/// tracer is installed, and the tracer receives shared references — it has
/// no channel back into the endpoint.
#[derive(Clone, Debug)]
pub enum GcsTrace {
    /// The local failure detector started suspecting `peer`.
    Suspected {
        /// The peer that went quiet.
        peer: NodeId,
    },
    /// A new view was installed locally (joins, leaves, crashes and merges
    /// all end in one of these).
    ViewInstalled {
        /// The group the view belongs to.
        group: GroupId,
        /// The freshly installed view.
        view: View,
    },
    /// The local node asked to join `group`.
    JoinRequested {
        /// The group being joined.
        group: GroupId,
    },
    /// The local node asked to leave `group`.
    LeaveRequested {
        /// The group being left.
        group: GroupId,
    },
}

type GcsTracer = Box<dyn FnMut(SimTime, &GcsTrace)>;

/// Hashes a [`NodeId`] with one multiply (Fibonacci hashing), halves
/// swapped so that the well-mixed high half picks the bucket. Ids come off
/// the wire, but a table keyed by them holds one entry per distinct id, so
/// colliding ids cost probes, never memory.
#[derive(Default)]
struct IdHasher(u64);

impl Hasher for IdHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.write_u32(u32::from(byte));
        }
    }

    fn write_u32(&mut self, n: u32) {
        self.0 = (self.0 ^ u64::from(n)).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }

    fn finish(&self) -> u64 {
        self.0.rotate_left(32)
    }
}

struct RecvState<P> {
    /// Next sequence number to deliver from this sender.
    next: u64,
    /// Out-of-order buffer.
    buf: VecMap<u64, P>,
}

impl<P> RecvState<P> {
    fn new(next: u64) -> Self {
        RecvState {
            next,
            buf: VecMap::new(),
        }
    }
}

/// Message-plane freight of an in-progress view change. The membership
/// half of the round (proposal id, candidates, acks) lives in the
/// group's [`Membership::flush`]; the two are created and consumed
/// together.
struct VcData<P> {
    delivered_max: BTreeMap<NodeId, u64>,
    pool: BTreeMap<(NodeId, u64), P>,
    start_tick: u64,
    /// Tick of the most recent `Prepare` (re)transmission; lost prepares
    /// and flush-acks are re-solicited every couple of ticks.
    last_prepare_tick: u64,
}

impl<P> VcData<P> {
    fn new(ticks: u64) -> Self {
        VcData {
            delivered_max: BTreeMap::new(),
            pool: BTreeMap::new(),
            start_tick: ticks,
            last_prepare_tick: ticks,
        }
    }

    /// Folds one flush report (our own or a candidate's) into the round.
    fn absorb(&mut self, delivered: Vec<(NodeId, u64)>, held: Vec<(NodeId, u64, P)>) {
        for (sender, floor) in delivered {
            let entry = self.delivered_max.entry(sender).or_insert(0);
            *entry = (*entry).max(floor);
        }
        for (sender, seq, payload) in held {
            self.pool.insert((sender, seq), payload);
        }
    }
}

struct GroupState<P> {
    /// The membership plane: the pure state machine the model checker
    /// explores, changed only by [`GcsNode::step`] (see [`crate::proto`]).
    mem: Membership,
    promised_tick: u64,
    leave_tick: u64,
    last_leave_send_tick: u64,
    join_start_tick: u64,
    last_join_send_tick: u64,
    next_seq: u64,
    send_buf: VecMap<u64, P>,
    recv: VecMap<NodeId, RecvState<P>>,
    retained: VecMap<(NodeId, u64), P>,
    ack_floors: VecMap<NodeId, VecMap<NodeId, u64>>,
    pending_sends: VecDeque<P>,
    /// Message-plane half of an in-progress view change; `Some` exactly
    /// when [`Membership::flush`] is.
    vc: Option<VcData<P>>,
    /// Freshness clocks for the foreign entries in [`Membership::foreign`]
    /// (time stays out of the pure machine).
    foreign_seen: VecMap<NodeId, u64>,
    last_nak_tick: VecMap<NodeId, u64>,
    /// A freshly computed install, blindly retransmitted a few ticks in a
    /// row so that a single lost datagram cannot strand a member in the
    /// old view (installs are idempotent).
    install_resend: Option<InstallResend<P>>,
}

struct InstallResend<P> {
    view: View,
    cut: Vec<(NodeId, u64)>,
    fill: Vec<(NodeId, u64, P)>,
    remaining: u8,
}

/// The message-plane freight of an install: per sender, the delivery
/// horizon of the previous view, and the messages below it some member
/// may lack.
struct Cut<P> {
    cut: Vec<(NodeId, u64)>,
    fill: Vec<(NodeId, u64, P)>,
    /// Whether the node had a view of the group before: it delivers up to
    /// the cut, where a joiner starts at it.
    was_member: bool,
}

/// Where the housekeeping timer stands.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum TickState {
    /// [`GcsNode::start`] has not run: nothing arms the timer.
    Unstarted,
    /// One tick timer is pending.
    Armed,
    /// The node ran out of work and let its timer lapse; the next entry
    /// point that gives it work re-arms it on the same grid.
    Asleep,
}

/// What the groups give the housekeeping passes to do, as of the last walk
/// over them ([`GcsNode::walk_groups`]). Only membership input raises a
/// flag, and it forces the next walk.
#[derive(Clone, Copy, Default)]
struct Busy {
    /// A flush is coordinated or a fresh install is re-sent.
    resends: bool,
    /// A group is being joined or left.
    joins: bool,
    /// A foreign view's freshness clock runs.
    foreign: bool,
    /// A flush can time out.
    flushing: bool,
}

impl Busy {
    fn any(self) -> bool {
        self.resends || self.joins || self.foreign || self.flushing
    }
}

/// The housekeeping passes a tick runs only when they can act, one bit
/// each in what [`GcsNode::tick`] reports having run.
#[derive(Clone, Copy)]
enum Pass {
    Detector,
    Naks,
    Resends,
    Joins,
    Prune,
    ViewChanges,
}

impl Pass {
    fn bit(self) -> u8 {
        1 << self as u8
    }
}

impl<P> GroupState<P> {
    fn new() -> Self {
        GroupState {
            mem: Membership::new(),
            promised_tick: 0,
            leave_tick: 0,
            last_leave_send_tick: 0,
            join_start_tick: 0,
            last_join_send_tick: 0,
            next_seq: 1,
            send_buf: VecMap::new(),
            recv: VecMap::new(),
            retained: VecMap::new(),
            ack_floors: VecMap::new(),
            pending_sends: VecDeque::new(),
            vc: None,
            foreign_seen: VecMap::new(),
            last_nak_tick: VecMap::new(),
            install_resend: None,
        }
    }

    /// Highest contiguously delivered sequence per sender (self included).
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

    /// Everything this node holds that may be unstable: own sent messages
    /// plus retained (delivered) and buffered (undelivered) foreign ones.
    fn held(&self, me: NodeId) -> Vec<(NodeId, u64, P)>
    where
        P: Clone,
    {
        let mut held: Vec<(NodeId, u64, P)> = self
            .send_buf
            .iter()
            .map(|(&seq, p)| (me, seq, p.clone()))
            .collect();
        for (&(sender, seq), p) in &self.retained {
            held.push((sender, seq, p.clone()));
        }
        for (&sender, state) in &self.recv {
            for (&seq, p) in &state.buf {
                held.push((sender, seq, p.clone()));
            }
        }
        held
    }
}

/// A group communication endpoint, embedded into one simulated process.
///
/// See the crate-level documentation for the protocol description and
/// the crate examples for the embedding pattern.
pub struct GcsNode<P: Payload> {
    node: NodeId,
    port: Port,
    tick_tag: u64,
    config: GcsConfig,
    bootstrap: Vec<NodeId>,
    ticks: u64,
    tick_state: TickState,
    /// Instant of tick number `ticks`: the last one that fired, or that
    /// would have fired had the node not been asleep.
    last_tick: SimTime,
    /// Whether this node has ever held group state. One that has not keeps
    /// ticking: [`GcsNode::create_group`] has no context to wake it from.
    had_group: bool,
    /// When each peer was last heard from, stamped by every packet. Only
    /// looked up, never walked, so its order decides nothing.
    last_heard: HashMap<NodeId, SimTime, BuildHasherDefault<IdHasher>>,
    suspected: BTreeSet<NodeId>,
    groups: VecMap<GroupId, GroupState<P>>,
    next_nonmember_id: u64,
    nonmember_seen: VecMap<(NodeId, u64), u64>,
    forced_gaps: u64,
    views_installed: u64,
    /// Events produced in contexts that cannot return them directly
    /// (e.g. flush abandonment inside a tick); drained into the next batch.
    deferred_events: Vec<GcsEvent<P>>,
    tracer: Option<GcsTracer>,
    /// Last simulated time observed through a [`Context`]: the time every
    /// trace event is stamped with, also from entry points without a
    /// context (e.g. [`GcsNode::create_group`]).
    trace_now: SimTime,
    /// Membership input since the last tick: a packet that can change a
    /// view, a suspicion cleared by a packet, an application request, or a
    /// pass of the last tick that changed a view (see [`GcsNode::tick`]).
    input: bool,
    /// The other members of every group's view, ascending without repeats:
    /// whom the failure detector watches. Rebuilt on membership input.
    watched: Vec<NodeId>,
    /// The same for the groups this node is a member of (or flushing in):
    /// whom heartbeats go to.
    hb_peers: Vec<NodeId>,
    /// The failure detector can next act once the clock is past this: the
    /// earliest instant an unsuspected peer's silence can exceed the
    /// timeout, from `last_heard` at its last run (those only grow).
    fd_due: SimTime,
    /// Whether some receive buffer may hold a message (NAK work).
    naks_due: bool,
    /// Refreshed on membership input and while a flag is raised.
    busy: Busy,
}

impl<P: Payload> fmt::Debug for GcsNode<P> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("GcsNode")
            .field("node", &self.node)
            .field("groups", &self.groups.len())
            .field("suspected", &self.suspected)
            .finish()
    }
}

impl<P: Payload> GcsNode<P> {
    /// Creates an endpoint for `node`, exchanging GCS packets on `port` and
    /// driving itself from the application timer with tag `tick_tag`.
    ///
    /// `bootstrap` is the set of nodes contacted for joins, announces and
    /// non-member sends — typically "every node that might ever run a
    /// server". The local node may be included; it is skipped on send.
    pub fn new(
        config: GcsConfig,
        node: NodeId,
        port: Port,
        tick_tag: u64,
        bootstrap: Vec<NodeId>,
    ) -> Self {
        GcsNode {
            node,
            port,
            tick_tag,
            config,
            bootstrap,
            ticks: 0,
            tick_state: TickState::Unstarted,
            last_tick: SimTime::ZERO,
            had_group: false,
            last_heard: HashMap::default(),
            suspected: BTreeSet::new(),
            groups: VecMap::new(),
            next_nonmember_id: 1,
            nonmember_seen: VecMap::new(),
            forced_gaps: 0,
            views_installed: 0,
            deferred_events: Vec::new(),
            tracer: None,
            trace_now: SimTime::ZERO,
            input: true,
            watched: Vec::new(),
            hb_peers: Vec::new(),
            fd_due: SimTime::ZERO,
            naks_due: false,
            busy: Busy::default(),
        }
    }

    /// Installs a tracer receiving the current time and a [`GcsTrace`] for
    /// every suspicion, view install and join/leave request. Tracing is
    /// passive: events are constructed only while a tracer is installed and
    /// the tracer cannot influence the protocol.
    pub fn set_tracer(&mut self, tracer: impl FnMut(SimTime, &GcsTrace) + 'static) {
        self.tracer = Some(Box::new(tracer));
    }

    /// Runs `make` and hands the event, stamped with `trace_now`, to the
    /// tracer — only when one is installed, so the disabled path costs a
    /// single branch.
    fn trace(&mut self, make: impl FnOnce() -> GcsTrace) {
        if let Some(tracer) = self.tracer.as_mut() {
            tracer(self.trace_now, &make());
        }
    }

    /// The node this endpoint lives on.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// The port GCS packets travel on.
    pub fn port(&self) -> Port {
        self.port
    }

    /// Currently installed view of `group`, if this node is a member (or
    /// flushing toward the next view).
    pub fn view(&self, group: GroupId) -> Option<&View> {
        let state = self.groups.get(&group)?;
        match state.mem.status {
            GroupStatus::Member | GroupStatus::Flushing if state.mem.had_view => {
                Some(&state.mem.view)
            }
            _ => None,
        }
    }

    /// Membership status for `group`.
    pub fn status(&self, group: GroupId) -> GroupStatus {
        self.groups
            .get(&group)
            .map_or(GroupStatus::Idle, |g| g.mem.status)
    }

    /// Whether this node currently belongs to an installed view of `group`.
    pub fn is_member(&self, group: GroupId) -> bool {
        self.view(group).is_some_and(|v| v.contains(self.node))
    }

    /// Nodes currently suspected by the local failure detector.
    pub fn suspected(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.suspected.iter().copied()
    }

    /// Number of peers the failure detector keeps a last-heard time for:
    /// one per distinct peer heard from or sharing a view, whatever the
    /// value of its id.
    pub fn peers_tracked(&self) -> usize {
        self.last_heard.len()
    }

    /// Number of messages skipped to close unrecoverable gaps (possible
    /// only across partition merges; see the module docs).
    pub fn forced_gaps(&self) -> u64 {
        self.forced_gaps
    }

    /// Number of views this node has installed across all groups.
    pub fn views_installed(&self) -> u64 {
        self.views_installed
    }

    /// Makes sure the housekeeping timer is armed. Call it from
    /// [`Process::on_start`](simnet::Process::on_start); calling it again
    /// is harmless (an armed node is left alone, a sleeping one is woken).
    ///
    /// The tick runs every [`TICK_PERIOD`] from the first `start`
    /// while the node has work. A node that has left its last group and
    /// holds no deferred state lets the timer lapse; [`GcsNode::join`],
    /// [`GcsNode::multicast`], [`GcsNode::on_packet`] and `start` re-arm
    /// it for the next instant of the *same* grid with the tick count it
    /// would have reached, so having slept is not observable.
    pub fn start<M>(&mut self, ctx: &mut Context<'_, M>)
    where
        M: Payload + From<GcsPacket<P>>,
    {
        self.trace_now = ctx.now();
        match self.tick_state {
            TickState::Unstarted => self.last_tick = ctx.now(),
            TickState::Asleep => self.catch_up(ctx.now()),
            TickState::Armed => return,
        }
        self.arm(ctx);
    }

    /// Whether every housekeeping pass of a tick would be a no-op, now and
    /// until an entry point gives the node state again.
    fn idle(&self) -> bool {
        self.had_group
            && self.groups.is_empty()
            && self.nonmember_seen.is_empty()
            && self.deferred_events.is_empty()
    }

    /// Advances a sleeping node's tick count over the grid instants that
    /// passed, so tick stamps taken by the caller are the ones an awake
    /// node would take.
    fn catch_up(&mut self, now: SimTime) {
        if self.tick_state == TickState::Asleep {
            let tick = (TICK_PERIOD.as_micros() as u64).max(1);
            let slept = now.saturating_since(self.last_tick).as_micros() as u64 / tick;
            self.ticks += slept;
            self.last_tick = SimTime::from_micros(self.last_tick.as_micros() + slept * tick);
        }
    }

    /// Arms the timer for the grid instant after `last_tick`.
    fn arm<M: Payload>(&mut self, ctx: &mut Context<'_, M>) {
        self.tick_state = TickState::Armed;
        ctx.set_timer_at(self.last_tick + TICK_PERIOD, self.tick_tag);
    }

    /// Re-arms a sleeping node (already caught up) that was given work.
    fn wake_if_busy<M: Payload>(&mut self, ctx: &mut Context<'_, M>) {
        if self.tick_state == TickState::Asleep && !self.idle() {
            self.arm(ctx);
        }
    }

    /// Creates `group` with this node as its only member, effective
    /// immediately. Use when the caller owns the group's identity — e.g. a
    /// VoD client creating its own session group.
    ///
    /// There is no context here to arm the tick from: on a node that may
    /// have gone to sleep, call [`GcsNode::start`] in the same handler.
    pub fn create_group(&mut self, group: GroupId) -> Vec<GcsEvent<P>> {
        self.input = true;
        self.group_mut(group);
        // The step can only install `[node]` bare: nothing is sent and
        // nothing is queued in a group that had no view, so no context is
        // needed to carry it out.
        let actions = self.step(group, ProtoEvent::Create);
        actions
            .into_iter()
            .filter_map(|action| match action {
                ProtoAction::Install { view } => Some(self.surface(group, view)),
                _ => None,
            })
            .collect()
    }

    /// Starts joining `group`. Join requests go to the bootstrap set plus
    /// `contacts` (nodes known to be members — e.g. the client of a session
    /// group). If nobody answers within
    /// [`SINGLETON_FORM_TICKS`], a singleton view is formed.
    pub fn join<M>(&mut self, ctx: &mut Context<'_, M>, group: GroupId, contacts: &[NodeId])
    where
        M: Payload + From<GcsPacket<P>>,
    {
        self.catch_up(ctx.now());
        let ticks = self.ticks;
        self.input = true;
        // Only an idle node starts joining.
        let idle = self.group_mut(group).mem.status == GroupStatus::Idle;
        let contacts = contacts.to_vec();
        let actions = self.step(group, ProtoEvent::RequestJoin { contacts });
        self.wake_if_busy(ctx);
        if !idle {
            return;
        }
        let state = self.group_mut(group);
        state.join_start_tick = ticks;
        state.last_join_send_tick = ticks;
        self.trace_now = ctx.now();
        self.trace(|| GcsTrace::JoinRequested { group });
        self.carry_out(ctx, group, actions, None);
    }

    /// Requests a graceful departure from `group`. The node keeps operating
    /// until a view excluding it is installed (or a local timeout forces
    /// the exit).
    pub fn leave<M>(&mut self, ctx: &mut Context<'_, M>, group: GroupId)
    where
        M: Payload + From<GcsPacket<P>>,
    {
        let ticks = self.ticks;
        self.input = true;
        // Not in the group: nothing to leave.
        if self.status(group) == GroupStatus::Idle {
            return;
        }
        let actions = self.step(group, ProtoEvent::RequestLeave);
        // A sole member dissolves at once; anyone else is now leaving.
        if actions.last() != Some(&ProtoAction::Dissolve) {
            let state = self.group_mut(group);
            state.leave_tick = ticks;
            state.last_leave_send_tick = ticks;
            self.trace_now = ctx.now();
            self.trace(|| GcsTrace::LeaveRequested { group });
        }
        self.carry_out(ctx, group, actions, None);
    }

    /// Reliably multicasts `payload` in `group` (FIFO per sender, view
    /// synchronous). The local node delivers its own message immediately —
    /// the returned events include that self-delivery.
    ///
    /// While a view change or join is in progress the message is queued and
    /// sent in the next view.
    ///
    /// # Errors
    ///
    /// Returns [`NotMemberError`] if the node is neither a member of
    /// `group` nor in the process of joining it.
    pub fn multicast<M>(
        &mut self,
        ctx: &mut Context<'_, M>,
        group: GroupId,
        payload: P,
    ) -> Result<Vec<GcsEvent<P>>, NotMemberError>
    where
        M: Payload + From<GcsPacket<P>>,
    {
        // Sending creates no group, so whether there is work is known now.
        self.catch_up(ctx.now());
        self.wake_if_busy(ctx);
        match self.status(group) {
            GroupStatus::Idle => Err(NotMemberError { group }),
            GroupStatus::Joining | GroupStatus::Flushing => {
                self.group_mut(group).pending_sends.push_back(payload);
                Ok(Vec::new())
            }
            GroupStatus::Member => Ok(self.do_multicast(ctx, group, payload)),
        }
    }

    /// Best-effort send from a non-member to every member of `group`
    /// (duplicate-suppressed at the receivers). Used by clients to contact
    /// the abstract server group without joining it.
    pub fn send_to_group<M>(&mut self, ctx: &mut Context<'_, M>, group: GroupId, payload: P)
    where
        M: Payload + From<GcsPacket<P>>,
    {
        let msg_id = self.next_nonmember_id;
        self.next_nonmember_id += 1;
        let origin = self.node;
        let targets: Vec<NodeId> = self
            .bootstrap
            .iter()
            .copied()
            .filter(|&n| n != self.node)
            .collect();
        for target in targets {
            self.emit(
                ctx,
                target,
                GcsPacket::NonMemberSend {
                    group,
                    origin,
                    msg_id,
                    payload: payload.clone(),
                },
            );
        }
    }

    /// Handles an incoming GCS packet. Returns the upcalls it produced.
    pub fn on_packet<M>(
        &mut self,
        ctx: &mut Context<'_, M>,
        from: Endpoint,
        pkt: GcsPacket<P>,
    ) -> Vec<GcsEvent<P>>
    where
        M: Payload + From<GcsPacket<P>>,
    {
        self.catch_up(ctx.now());
        let events = self.handle_packet(ctx, from, pkt);
        self.wake_if_busy(ctx);
        events
    }

    fn handle_packet<M>(
        &mut self,
        ctx: &mut Context<'_, M>,
        from: Endpoint,
        pkt: GcsPacket<P>,
    ) -> Vec<GcsEvent<P>>
    where
        M: Payload + From<GcsPacket<P>>,
    {
        let peer = from.node;
        self.trace_now = ctx.now();
        self.last_heard.insert(peer, ctx.now());
        if self.suspected.remove(&peer) {
            self.input = true;
        }
        // The liveness and message-plane packets change no view.
        self.input |= !matches!(
            pkt,
            GcsPacket::Heartbeat
                | GcsPacket::AppMsg { .. }
                | GcsPacket::Nak { .. }
                | GcsPacket::Ack { .. }
                | GcsPacket::NonMemberSend { .. }
        );
        // A membership packet is one step of its group's machine, with
        // the packet's message-plane freight kept aside.
        let (group, msg, cut) = match pkt {
            GcsPacket::Heartbeat => return Vec::new(),
            GcsPacket::AppMsg {
                group,
                origin,
                seq,
                payload,
            } => return self.on_app_msg(ctx, group, origin, seq, payload),
            GcsPacket::Nak {
                group,
                origin,
                from_seq,
                to_seq,
            } => {
                self.on_nak(ctx, peer, group, origin, from_seq, to_seq);
                return Vec::new();
            }
            GcsPacket::Ack { group, delivered } => {
                self.on_ack(ctx, group, peer, delivered);
                return Vec::new();
            }
            GcsPacket::NonMemberSend {
                group,
                origin,
                msg_id,
                payload,
            } => return self.on_nonmember_send(group, origin, msg_id, payload),
            GcsPacket::Announce {
                group,
                vid,
                members,
            } => return self.on_announce(ctx, group, peer, vid, members),
            GcsPacket::JoinReq { group, joiner } => (group, ProtoMsg::JoinReq { joiner }, None),
            GcsPacket::LeaveReq { group, leaver } => (group, ProtoMsg::LeaveReq { leaver }, None),
            GcsPacket::Prepare {
                group,
                vid,
                candidates,
            } => {
                // A proposal naming this node gives it state for the
                // group, kept even when it refuses (with the epoch seen).
                if candidates.contains(&self.node) {
                    self.group_mut(group);
                }
                (group, ProtoMsg::Prepare { vid, candidates }, None)
            }
            GcsPacket::FlushAck {
                group,
                vid,
                delivered,
                held,
            } => {
                // A candidate's report joins the round it acks.
                if let Some(state) = self.groups.get_mut(&group) {
                    if let (Some(fl), Some(vc)) = (&state.mem.flush, &mut state.vc) {
                        if fl.vid == vid && fl.candidates.contains(&peer) {
                            vc.absorb(delivered, held);
                        }
                    }
                }
                (group, ProtoMsg::FlushAck { vid }, None)
            }
            GcsPacket::Install {
                group,
                view,
                cut,
                fill,
            } => {
                let was_member = self.groups.get(&group).is_some_and(|s| s.mem.had_view);
                let cut = Cut {
                    cut,
                    fill,
                    was_member,
                };
                (group, ProtoMsg::Install { view }, Some(cut))
            }
        };
        let actions = self.step(group, ProtoEvent::Deliver { from: peer, msg });
        self.carry_out(ctx, group, actions, cut)
    }

    /// Handles the housekeeping timer. The application must forward timers
    /// whose tag equals the `tick_tag` passed at construction. The timer
    /// re-arms itself while the node has work (see [`GcsNode::start`]).
    pub fn on_timer<M>(&mut self, ctx: &mut Context<'_, M>, timer: Timer) -> Vec<GcsEvent<P>>
    where
        M: Payload + From<GcsPacket<P>>,
    {
        self.tick(ctx, timer).0
    }

    /// The housekeeping tick, also saying which of the gated passes ran
    /// (a [`Pass::bit`] each).
    ///
    /// Each pass runs only on a tick where it can act: the failure
    /// detector after membership input or past [`GcsNode::fd_due`]; the
    /// NAKs while a receive buffer may hold a message; resends, joins and
    /// the prune while [`GcsNode::busy`] or the non-member book says some
    /// group has such work; the view changes after membership input, a
    /// suspicion change, a join or leave pass or a foreign view's clock,
    /// and while a flush can time out. Heartbeats, acks and announces keep
    /// their periods. A skipped pass is one that would have found nothing
    /// to do, so the tick sends, draws and traces exactly what running
    /// every pass on every tick would.
    fn tick<M>(&mut self, ctx: &mut Context<'_, M>, timer: Timer) -> (Vec<GcsEvent<P>>, u8)
    where
        M: Payload + From<GcsPacket<P>>,
    {
        debug_assert_eq!(timer.tag, self.tick_tag, "timer routed to wrong component");
        let now = ctx.now();
        self.trace_now = now;
        self.last_tick = now;
        self.ticks += 1;
        if self.idle() {
            // No group, nothing deferred: each pass below would find
            // nothing to do. Sleep until an entry point brings work.
            self.tick_state = TickState::Asleep;
            return (Vec::new(), 0);
        }
        self.arm(ctx);
        let mut events = Vec::new();
        let mut ran = 0;
        let input = std::mem::take(&mut self.input);
        if input {
            self.rebuild_peers();
        }
        if input || self.busy.any() {
            self.busy = self.walk_groups();
        }
        let busy = self.busy;
        let mut membership = input || busy.joins || busy.foreign || busy.flushing;
        if input || now > self.fd_due {
            ran |= Pass::Detector.bit();
            membership |= self.tick_failure_detector(ctx);
        }
        if self.ticks.is_multiple_of(HB_EVERY_TICKS) {
            self.tick_heartbeats(ctx);
        }
        if self.ticks.is_multiple_of(ACK_EVERY_TICKS) {
            self.tick_acks(ctx);
        }
        if input || self.naks_due {
            ran |= Pass::Naks.bit();
            self.naks_due = self.tick_naks(ctx);
        }
        if busy.resends {
            ran |= Pass::Resends.bit();
            self.tick_resends(ctx);
        }
        if busy.joins {
            // A singleton it forms or a leave it forces changes a view:
            // the next tick rebuilds the peer lists.
            ran |= Pass::Joins.bit();
            self.input = true;
            events.extend(self.tick_joins(ctx));
        }
        // Prune before the election: `Membership::election` treats every
        // remaining foreign entry as fresh, so stale ones must be expired
        // first. The prune's keep-predicate is exactly the freshness check
        // the election used to apply, evaluated at the same tick.
        if busy.foreign || !self.nonmember_seen.is_empty() {
            ran |= Pass::Prune.bit();
            self.tick_prune();
        }
        if membership {
            ran |= Pass::ViewChanges.bit();
            self.input |= self.tick_view_changes(ctx);
        }
        if self.ticks.is_multiple_of(self.config.announce_every_ticks) {
            self.tick_announces(ctx);
        }
        events.append(&mut self.deferred_events);
        (events, ran)
    }

    // ------------------------------------------------------------------
    // Multicast machinery
    // ------------------------------------------------------------------

    fn do_multicast<M>(
        &mut self,
        ctx: &mut Context<'_, M>,
        group: GroupId,
        payload: P,
    ) -> Vec<GcsEvent<P>>
    where
        M: Payload + From<GcsPacket<P>>,
    {
        let node = self.node;
        let state = self.group_mut(group);
        let seq = state.next_seq;
        // Saturating here and below: only a forged `u64::MAX` cut or
        // sequence number gets a counter this far, and it must not panic.
        state.next_seq = seq.saturating_add(1);
        state.send_buf.insert(seq, payload.clone());
        for &member in &self.groups[&group].mem.view.members {
            if member == node {
                continue;
            }
            self.emit(
                ctx,
                member,
                GcsPacket::AppMsg {
                    group,
                    origin: node,
                    seq,
                    payload: payload.clone(),
                },
            );
        }
        vec![GcsEvent::Deliver {
            group,
            sender: node,
            payload,
        }]
    }

    fn on_app_msg<M>(
        &mut self,
        ctx: &mut Context<'_, M>,
        group: GroupId,
        origin: NodeId,
        seq: u64,
        payload: P,
    ) -> Vec<GcsEvent<P>>
    where
        M: Payload + From<GcsPacket<P>>,
    {
        if origin == self.node {
            return Vec::new();
        }
        let ticks = self.ticks;
        let Some(state) = self.groups.get_mut(&group) else {
            return Vec::new();
        };
        let status = state.mem.status;
        if status == GroupStatus::Idle {
            return Vec::new();
        }
        let recv = state.recv.get_or_insert_with(origin, || RecvState::new(1));
        if seq < recv.next {
            return Vec::new(); // duplicate / already delivered
        }
        recv.buf.insert(seq, payload);
        let mut events = Vec::new();
        if status == GroupStatus::Member {
            // Deliver contiguously; flushing/joining nodes only buffer.
            while let Some(payload) = recv.buf.remove(&recv.next) {
                state.retained.insert((origin, recv.next), payload.clone());
                recv.next = recv.next.saturating_add(1);
                events.push(GcsEvent::Deliver {
                    group,
                    sender: origin,
                    payload,
                });
            }
        }
        // NAK any remaining gap, rate-limited; the tick re-NAKs it.
        self.naks_due |= !recv.buf.is_empty();
        let gap = recv.buf.keys().next().map(|&first| (recv.next, first));
        if let Some((next, first)) = gap {
            if first > next {
                let last_nak = state.last_nak_tick.get(&origin).copied().unwrap_or(0);
                if ticks.saturating_sub(last_nak) >= 2 || last_nak == 0 {
                    state.last_nak_tick.insert(origin, ticks.max(1));
                    self.emit(
                        ctx,
                        origin,
                        GcsPacket::Nak {
                            group,
                            origin,
                            from_seq: next,
                            to_seq: first - 1,
                        },
                    );
                }
            }
        }
        events
    }

    fn on_nak<M>(
        &mut self,
        ctx: &mut Context<'_, M>,
        requester: NodeId,
        group: GroupId,
        origin: NodeId,
        from_seq: u64,
        to_seq: u64,
    ) where
        M: Payload + From<GcsPacket<P>>,
    {
        // An inverted range names no message (and would panic `range`).
        if origin != self.node || from_seq > to_seq {
            return;
        }
        let Some(state) = self.groups.get(&group) else {
            return;
        };
        let resend: Vec<(u64, P)> = state
            .send_buf
            .range(from_seq..=to_seq)
            .map(|(&s, p)| (s, p.clone()))
            .collect();
        for (seq, payload) in resend {
            self.emit(
                ctx,
                requester,
                GcsPacket::AppMsg {
                    group,
                    origin,
                    seq,
                    payload,
                },
            );
        }
    }

    fn on_ack<M>(
        &mut self,
        ctx: &mut Context<'_, M>,
        group: GroupId,
        member: NodeId,
        delivered: Vec<(NodeId, u64)>,
    ) where
        M: Payload + From<GcsPacket<P>>,
    {
        let node = self.node;
        let ticks = self.ticks;
        let port = self.port;
        let Some(state) = self.groups.get_mut(&group) else {
            return;
        };
        if state.mem.status == GroupStatus::Idle {
            return;
        }
        // Tail-gap detection: if any member (in particular the sender
        // itself, whose floor equals its send horizon) has delivered
        // further than we have, the missing suffix will never be revealed
        // by a successor packet — NAK it now.
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
                    let nak = GcsPacket::Nak {
                        group,
                        origin: sender,
                        from_seq: recv.next,
                        to_seq: floor,
                    };
                    ctx.send(port, Endpoint::new(sender, port), M::from(nak));
                }
            }
        }
        // Most acks repeat the previous report (liveness, no news): the
        // map it would rebuild is the one already held.
        let unchanged = state.ack_floors.get(&member).is_some_and(|known| {
            known.len() == delivered.len()
                && known.iter().all(|(&s, &f)| delivered.contains(&(s, f)))
        });
        if !unchanged {
            // In place: a changed report nearly always names the senders
            // the last one did, so no entry moves.
            let known = state.ack_floors.get_or_insert_with(member, VecMap::new);
            known.retain(|sender, _| delivered.iter().any(|(s, _)| s == sender));
            for (sender, floor) in delivered {
                known.insert(sender, floor);
            }
        }
        // Stability only ever releases buffered messages; with none held
        // there is nothing a floor could release.
        if state.send_buf.is_empty() && state.retained.is_empty() {
            return;
        }
        // Stability: a message is stable once every current member has
        // delivered it; only then may retained copies be dropped.
        let members = &state.mem.view.members;
        if members.is_empty() {
            return;
        }
        let (recv, ack_floors, own_floor) = (&state.recv, &state.ack_floors, state.next_seq - 1);
        // The highest sequence number of `sender` — this node, or one it
        // has a receive state for, which everything in `retained` came
        // through — that every member has delivered; 0 when none has.
        let stable = |sender: NodeId| {
            let floor_at = |m: NodeId| match (m == node, sender == node) {
                (true, true) => own_floor,
                (true, false) => recv.get(&sender).map_or(0, |r| r.next - 1),
                (false, _) => ack_floors
                    .get(&m)
                    .and_then(|f| f.get(&sender).copied())
                    .unwrap_or(0),
            };
            match members.iter().map(|&m| floor_at(m)).min() {
                Some(floor) if floor < u64::MAX => floor,
                _ => 0,
            }
        };
        let own = stable(node);
        if own > 0 {
            state.send_buf.retain(|&seq, _| seq > own);
        }
        // `retained` is sorted by sender: one floor per run of keys.
        let mut run: Option<(NodeId, u64)> = None;
        state.retained.retain(|&(sender, seq), _| {
            let floor = match run {
                Some((of, floor)) if of == sender => floor,
                _ => run.insert((sender, stable(sender))).1,
            };
            seq > floor
        });
    }

    // ------------------------------------------------------------------
    // Membership: one step of a group's machine, and what it decided
    // ------------------------------------------------------------------

    /// Steps `group`'s membership machine with `event`. Without state for
    /// the group, nothing happens: the events that give a node state for a
    /// group come after the caller made it.
    fn step(&mut self, group: GroupId, event: ProtoEvent) -> Vec<ProtoAction> {
        let Some(state) = self.groups.get_mut(&group) else {
            return Vec::new();
        };
        let mut env = Env {
            cfg: ProtoConfig::default(),
            node: self.node,
            bootstrap: &self.bootstrap,
            suspected: &mut self.suspected,
        };
        state.mem.step(&mut env, event)
    }

    /// Carries out the actions of one step of `group`'s machine, adding
    /// the message plane's freight: a `FlushAck` takes this node's floors
    /// and held messages, and an `Install` the cut and fill of `cut` (an
    /// `Install` packet's) or of the round this node coordinates. A
    /// proposal opens the round's message-plane half with this node's own
    /// flush. Returns the upcalls; those of a round proposed and completed
    /// in one step (a singleton, proposed on a tick or an announce) wait in
    /// the deferred queue.
    fn carry_out<M>(
        &mut self,
        ctx: &mut Context<'_, M>,
        group: GroupId,
        actions: Vec<ProtoAction>,
        mut cut: Option<Cut<P>>,
    ) -> Vec<GcsEvent<P>>
    where
        M: Payload + From<GcsPacket<P>>,
    {
        let node = self.node;
        let ticks = self.ticks;
        let mut events = Vec::new();
        let mut proposed = false;
        for action in actions {
            match action {
                ProtoAction::Send { to, msg } => {
                    let pkt = match msg {
                        ProtoMsg::JoinReq { joiner } => GcsPacket::JoinReq { group, joiner },
                        ProtoMsg::LeaveReq { leaver } => GcsPacket::LeaveReq { group, leaver },
                        ProtoMsg::Prepare { vid, candidates } => GcsPacket::Prepare {
                            group,
                            vid,
                            candidates,
                        },
                        ProtoMsg::FlushAck { vid } => {
                            let state = self.group_mut(group);
                            state.promised_tick = ticks;
                            GcsPacket::FlushAck {
                                group,
                                vid,
                                delivered: state.floors(node),
                                held: state.held(node),
                            }
                        }
                        ProtoMsg::Install { view } => {
                            let cut = cut.get_or_insert_with(|| self.complete_round(group, &view));
                            GcsPacket::Install {
                                group,
                                view,
                                cut: cut.cut.clone(),
                                fill: cut.fill.clone(),
                            }
                        }
                        ProtoMsg::Announce { vid, members } => GcsPacket::Announce {
                            group,
                            vid,
                            members,
                        },
                    };
                    self.emit(ctx, to, pkt);
                }
                ProtoAction::Propose { .. } => {
                    proposed = true;
                    let state = self.group_mut(group);
                    state.foreign_seen.clear();
                    state.promised_tick = ticks;
                    let mut vc = VcData::new(ticks);
                    vc.absorb(state.floors(node), state.held(node));
                    state.vc = Some(vc);
                }
                // Excluded (graceful leave or false suspicion): the view is
                // surfaced, neither traced nor counted, and `Dissolve`
                // follows.
                ProtoAction::Install { view } if !view.contains(node) => {
                    events.push(GcsEvent::View { group, view });
                }
                ProtoAction::Install { view } => {
                    // Without a packet's cut, the install completes the
                    // round this node coordinates, or else it is a view
                    // the node formed alone (`Create`, `SingletonForm`):
                    // nothing to deliver, surfaced bare.
                    match cut.take() {
                        Some(cut) => events.extend(self.install(ctx, group, view, cut)),
                        None if self.groups[&group].vc.is_some() => {
                            let cut = self.complete_round(group, &view);
                            events.extend(self.install(ctx, group, view, cut));
                        }
                        None => events.push(self.surface(group, view)),
                    }
                    events.extend(self.send_pending(ctx, group));
                }
                ProtoAction::Dissolve => {
                    self.groups.remove(&group);
                }
            }
        }
        if proposed {
            self.deferred_events.append(&mut events);
        }
        events
    }

    /// The cut and fill of the round this node coordinated, now complete
    /// as `view`: per sender, the highest floor a candidate reported,
    /// extended through the pooled messages (anything contiguously
    /// available to the coordinator can be delivered by all), and the
    /// pooled messages up to it. They are blindly re-sent for a few ticks,
    /// so that a single lost datagram cannot strand a member in the old
    /// view.
    fn complete_round(&mut self, group: GroupId, view: &View) -> Cut<P> {
        let state = self.group_mut(group);
        let vc = state
            .vc
            .take()
            .expect("a completed round has message-plane data");
        let mut cut: BTreeMap<NodeId, u64> = view.members.iter().map(|&m| (m, 0)).collect();
        for (&sender, &floor) in &vc.delivered_max {
            cut.insert(sender, floor);
        }
        for (sender, horizon) in cut.iter_mut() {
            while let Some(next) = horizon.checked_add(1) {
                if !vc.pool.contains_key(&(*sender, next)) {
                    break;
                }
                *horizon = next;
            }
        }
        let fill: Vec<(NodeId, u64, P)> = vc
            .pool
            .into_iter()
            .filter(|((sender, seq), _)| *seq <= cut.get(sender).copied().unwrap_or(0))
            .map(|((sender, seq), p)| (sender, seq, p))
            .collect();
        let cut: Vec<(NodeId, u64)> = cut.into_iter().collect();
        state.install_resend = Some(InstallResend {
            view: view.clone(),
            cut: cut.clone(),
            fill: fill.clone(),
            remaining: 3,
        });
        Cut {
            cut,
            fill,
            was_member: true,
        }
    }

    /// The message-plane half of adopting `view`, which the group's
    /// machine has just installed: merge the fill, deliver up to the cut
    /// (a joiner starts at it instead), keep receive state for the members
    /// only, and refresh their liveness.
    fn install<M>(
        &mut self,
        ctx: &mut Context<'_, M>,
        group: GroupId,
        view: View,
        cut: Cut<P>,
    ) -> Vec<GcsEvent<P>>
    where
        M: Payload + From<GcsPacket<P>>,
    {
        let node = self.node;
        let mut events = Vec::new();
        let mut forced = 0u64;
        let state = self.group_mut(group);
        let Cut {
            cut,
            fill,
            was_member,
        } = cut;
        // Merge the fill into receive buffers.
        for (sender, seq, payload) in fill {
            if sender == node {
                continue;
            }
            let recv = state.recv.get_or_insert_with(sender, || RecvState::new(1));
            if seq >= recv.next {
                recv.buf.get_or_insert_with(seq, || payload);
            }
        }
        let cut: BTreeMap<NodeId, u64> = cut.into_iter().collect();
        for (&sender, &horizon) in &cut {
            if sender == node {
                // Our own messages up to the cut are stable. That is all
                // of them when we flushed for this view (we stop sending
                // once we promise); an install we never flushed for may
                // cut below what we have sent since, and that tail stays
                // ours to retransmit, its numbers taken.
                state.next_seq = state.next_seq.max(horizon.saturating_add(1));
                state.send_buf.retain(|&seq, _| seq > horizon);
                continue;
            }
            let recv = state.recv.get_or_insert_with(sender, || RecvState::new(1));
            if was_member {
                // Deliver up to the cut (the fill guarantees the messages
                // exist except across lossy merges).
                while recv.next <= horizon {
                    match recv.buf.remove(&recv.next) {
                        Some(payload) => {
                            recv.next = recv.next.saturating_add(1);
                            events.push(GcsEvent::Deliver {
                                group,
                                sender,
                                payload,
                            });
                        }
                        None => {
                            forced = forced.saturating_add(horizon - recv.next + 1);
                            recv.next = horizon.saturating_add(1);
                            break;
                        }
                    }
                }
            } else {
                // Joiners start fresh at the cut.
                recv.buf.retain(|&seq, _| seq > horizon);
                recv.next = recv.next.max(horizon.saturating_add(1));
            }
        }
        // Keep receive state only for members of the new view.
        state.recv.retain(|sender, _| view.contains(*sender));
        state.retained.clear();
        state.ack_floors.clear();
        state.last_nak_tick.clear();
        if state.mem.flush.is_none() {
            state.vc = None;
        }
        state
            .foreign_seen
            .retain(|n, _| state.mem.foreign.contains_key(n));
        self.forced_gaps = self.forced_gaps.saturating_add(forced);
        // A stale timestamp may linger from an earlier non-member contact
        // (e.g. a connection-establishment broadcast long before this node
        // shared any group with the peer): without the refresh a freshly
        // installed view could be torn at once.
        let now = ctx.now();
        for &m in &view.members {
            if m != node {
                self.last_heard.insert(m, now);
            }
        }
        events.push(self.surface(group, view));
        events
    }

    /// Counts and traces a view this node installed; returns the upcall.
    fn surface(&mut self, group: GroupId, view: View) -> GcsEvent<P> {
        self.views_installed += 1;
        self.trace(|| GcsTrace::ViewInstalled {
            group,
            view: view.clone(),
        });
        GcsEvent::View { group, view }
    }

    /// Multicasts what was queued while the group had no view to send in.
    fn send_pending<M>(&mut self, ctx: &mut Context<'_, M>, group: GroupId) -> Vec<GcsEvent<P>>
    where
        M: Payload + From<GcsPacket<P>>,
    {
        let pending = std::mem::take(&mut self.group_mut(group).pending_sends);
        let mut events = Vec::new();
        for payload in pending {
            events.extend(self.do_multicast(ctx, group, payload));
        }
        events
    }

    /// An announce is one step of the group's machine; what it concluded
    /// restarts one of this node's clocks. Heard while joining, it makes
    /// the announcer a join contact and restarts the singleton clock (the
    /// group clearly exists). Heard as a member, one that leaves its view
    /// on record for the announcer was recorded as a foreign component:
    /// the record's freshness clock restarts. (An ignored announce never
    /// matches a record: there is none of a member of the view, and an
    /// installed view's epoch only grows.)
    fn on_announce<M>(
        &mut self,
        ctx: &mut Context<'_, M>,
        group: GroupId,
        from: NodeId,
        vid: ViewId,
        members: Vec<NodeId>,
    ) -> Vec<GcsEvent<P>>
    where
        M: Payload + From<GcsPacket<P>>,
    {
        let ticks = self.ticks;
        let Some(state) = self.groups.get(&group) else {
            return Vec::new();
        };
        let status = state.mem.status;
        let heard = (status == GroupStatus::Member).then(|| ForeignView {
            vid,
            members: members.clone(),
        });
        let msg = ProtoMsg::Announce { vid, members };
        let actions = self.step(group, ProtoEvent::Deliver { from, msg });
        let state = self.group_mut(group);
        match status {
            GroupStatus::Joining => state.join_start_tick = ticks,
            GroupStatus::Member if state.mem.foreign.get(&from) == heard.as_ref() => {
                state.foreign_seen.insert(from, ticks);
            }
            _ => {}
        }
        self.carry_out(ctx, group, actions, None)
    }

    fn on_nonmember_send(
        &mut self,
        group: GroupId,
        origin: NodeId,
        msg_id: u64,
        payload: P,
    ) -> Vec<GcsEvent<P>> {
        if self.status(group) != GroupStatus::Member {
            return Vec::new();
        }
        let ticks = self.ticks;
        if self
            .nonmember_seen
            .insert((origin, msg_id), ticks)
            .is_some()
        {
            return Vec::new();
        }
        vec![GcsEvent::Deliver {
            group,
            sender: origin,
            payload,
        }]
    }

    // ------------------------------------------------------------------
    // Housekeeping ticks
    // ------------------------------------------------------------------

    /// Suspects the watched peers silent past the timeout and clears the
    /// others; returns whether a suspicion changed, and sets
    /// [`GcsNode::fd_due`].
    fn tick_failure_detector<M: Payload>(&mut self, ctx: &mut Context<'_, M>) -> bool {
        let now = ctx.now();
        let timeout = self.config.suspect_timeout;
        let mut changed = false;
        let mut due = SimTime::from_micros(u64::MAX);
        let peers = std::mem::take(&mut self.watched);
        for &peer in &peers {
            let heard = self.last_heard.get(&peer).copied();
            let quiet_until = match heard {
                Some(at) if now.saturating_since(at) > timeout => {
                    if self.suspected.insert(peer) {
                        changed = true;
                        self.trace(|| GcsTrace::Suspected { peer });
                    }
                    continue;
                }
                Some(at) => {
                    // Recently heard: clear any stale suspicion (e.g. one
                    // acquired across an old partition).
                    changed |= self.suspected.remove(&peer);
                    at + timeout
                }
                None => {
                    // Watched from now on, judged from the next tick.
                    self.last_heard.insert(peer, now);
                    now
                }
            };
            due = due.min(quiet_until);
        }
        self.watched = peers;
        self.fd_due = due;
        changed
    }

    /// Rebuilds [`GcsNode::watched`] and [`GcsNode::hb_peers`]: the other
    /// members of every group's view, and of the views this node is a
    /// member of or flushing in, in ascending id order and without repeats
    /// — the order the failure detector probes and heartbeats are sent in.
    fn rebuild_peers(&mut self) {
        let node = self.node;
        self.watched.clear();
        self.hb_peers.clear();
        for state in self.groups.values() {
            let others = state
                .mem
                .view
                .members
                .iter()
                .copied()
                .filter(|&m| m != node);
            let member = matches!(
                state.mem.status,
                GroupStatus::Member | GroupStatus::Flushing
            );
            if member {
                self.hb_peers.extend(others.clone());
            }
            self.watched.extend(others);
        }
        for peers in [&mut self.watched, &mut self.hb_peers] {
            peers.sort_unstable();
            peers.dedup();
        }
    }

    /// One walk over the groups: which gated passes some group gives work.
    fn walk_groups(&self) -> Busy {
        let mut busy = Busy::default();
        for state in self.groups.values() {
            let status = state.mem.status;
            busy.resends |= state.vc.is_some() || state.install_resend.is_some();
            busy.joins |= status == GroupStatus::Joining || state.mem.leaving;
            busy.foreign |= !state.foreign_seen.is_empty();
            busy.flushing |= status == GroupStatus::Flushing || state.mem.flush.is_some();
        }
        busy
    }

    fn tick_heartbeats<M>(&self, ctx: &mut Context<'_, M>)
    where
        M: Payload + From<GcsPacket<P>>,
    {
        for &peer in &self.hb_peers {
            self.emit(ctx, peer, GcsPacket::Heartbeat);
        }
    }

    fn tick_acks<M>(&mut self, ctx: &mut Context<'_, M>)
    where
        M: Payload + From<GcsPacket<P>>,
    {
        let node = self.node;
        for (&group, state) in &self.groups {
            if state.mem.status != GroupStatus::Member || state.mem.view.len() <= 1 {
                continue;
            }
            let mut floors = state.floors(node);
            let members = state.mem.view.members.iter();
            let mut peers = members.filter(|&&m| m != node).peekable();
            while let Some(&member) = peers.next() {
                // The last ack takes the vector; a session group has one.
                let delivered = if peers.peek().is_some() {
                    floors.clone()
                } else {
                    std::mem::take(&mut floors)
                };
                self.emit(ctx, member, GcsPacket::Ack { group, delivered });
            }
        }
    }

    /// Re-issue NAKs for gaps that persist (the original NAK or its
    /// retransmission may itself have been lost). Returns whether a receive
    /// buffer of any group still holds a message.
    fn tick_naks<M>(&mut self, ctx: &mut Context<'_, M>) -> bool
    where
        M: Payload + From<GcsPacket<P>>,
    {
        let ticks = self.ticks;
        let mut held = false;
        let mut naks: Vec<(GroupId, NodeId, u64, u64)> = Vec::new();
        for (&group, state) in &mut self.groups {
            let member = state.mem.status == GroupStatus::Member;
            for (&sender, recv) in &state.recv {
                let Some(&first) = recv.buf.keys().next() else {
                    continue;
                };
                held = true;
                if member && first > recv.next {
                    let last = state.last_nak_tick.get(&sender).copied().unwrap_or(0);
                    if ticks.saturating_sub(last) >= 2 {
                        naks.push((group, sender, recv.next, first - 1));
                        state.last_nak_tick.insert(sender, ticks.max(1));
                    }
                }
            }
        }
        for (group, origin, from_seq, to_seq) in naks {
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
        held
    }

    /// Retransmits in-flight `Prepare`s (to candidates that have not
    /// flush-acked) and freshly installed views; both are idempotent, and
    /// without retransmission a single lost control datagram could stall a
    /// view change for a whole timeout cycle.
    fn tick_resends<M>(&mut self, ctx: &mut Context<'_, M>)
    where
        M: Payload + From<GcsPacket<P>>,
    {
        let node = self.node;
        let ticks = self.ticks;
        // Only a group coordinating a flush or holding a fresh install has
        // anything to retransmit; a pass emits packets and touches its own
        // group only, so picking the groups up front changes nothing.
        let groups: Vec<GroupId> = self
            .groups
            .iter()
            .filter(|(_, s)| s.vc.is_some() || s.install_resend.is_some())
            .map(|(&g, _)| g)
            .collect();
        for group in groups {
            // Re-send pending Prepares.
            let prepare: Option<(ViewId, Vec<NodeId>, Vec<NodeId>)> = {
                let state = self.group_mut(group);
                match (&state.mem.flush, state.vc.as_mut()) {
                    (Some(fl), Some(vc)) if ticks.saturating_sub(vc.last_prepare_tick) >= 2 => {
                        vc.last_prepare_tick = ticks;
                        let missing: Vec<NodeId> = fl
                            .candidates
                            .iter()
                            .copied()
                            .filter(|c| !fl.acked.contains(c) && *c != node)
                            .collect();
                        Some((fl.vid, fl.candidates.clone(), missing))
                    }
                    _ => None,
                }
            };
            if let Some((vid, candidates, missing)) = prepare {
                for candidate in missing {
                    self.emit(
                        ctx,
                        candidate,
                        GcsPacket::Prepare {
                            group,
                            vid,
                            candidates: candidates.clone(),
                        },
                    );
                }
            }
            // Re-send recent installs.
            type InstallParts<P> = (View, Vec<(NodeId, u64)>, Vec<(NodeId, u64, P)>);
            let install: Option<InstallParts<P>> = {
                let state = self.group_mut(group);
                match state.install_resend.as_mut() {
                    Some(resend) if resend.remaining > 0 => {
                        resend.remaining -= 1;
                        Some((resend.view.clone(), resend.cut.clone(), resend.fill.clone()))
                    }
                    Some(_) => {
                        state.install_resend = None;
                        None
                    }
                    None => None,
                }
            };
            if let Some((view, cut, fill)) = install {
                let peers: Vec<NodeId> = view
                    .members
                    .iter()
                    .copied()
                    .filter(|&m| m != node)
                    .collect();
                for member in peers {
                    self.emit(
                        ctx,
                        member,
                        GcsPacket::Install {
                            group,
                            view: view.clone(),
                            cut: cut.clone(),
                            fill: fill.clone(),
                        },
                    );
                }
            }
        }
    }

    fn tick_joins<M>(&mut self, ctx: &mut Context<'_, M>) -> Vec<GcsEvent<P>>
    where
        M: Payload + From<GcsPacket<P>>,
    {
        let ticks = self.ticks;
        let mut events = Vec::new();
        // All three passes below act only on groups being joined or left.
        if !self
            .groups
            .values()
            .any(|s| s.mem.status == GroupStatus::Joining || s.mem.leaving)
        {
            return events;
        }
        let joining: Vec<GroupId> = self
            .groups
            .iter()
            .filter(|(_, s)| s.mem.status == GroupStatus::Joining)
            .map(|(&g, _)| g)
            .collect();
        for group in joining {
            let state = self.group_mut(group);
            let event = if ticks.saturating_sub(state.join_start_tick) >= SINGLETON_FORM_TICKS
                && state.mem.promised.is_none()
            {
                ProtoEvent::SingletonForm
            } else if ticks.saturating_sub(state.last_join_send_tick) >= JOIN_RETRY_TICKS {
                state.last_join_send_tick = ticks;
                ProtoEvent::JoinRetry
            } else {
                continue;
            };
            let actions = self.step(group, event);
            events.extend(self.carry_out(ctx, group, actions, None));
        }
        // Re-send LeaveReqs periodically: the original may have hit a dead
        // target or a coordinator that abandoned its flush. The old code
        // only retried on an exact tick-modulo while `Member` — a leaver
        // whose coordinator went quiet mid-flush twice in a row (so the
        // node sat in `Flushing` across the modulo instants) never re-sent
        // and stalled until the force-quit. Track the last send explicitly
        // and retry while flushing too.
        let leave_retries: Vec<GroupId> = self
            .groups
            .iter()
            .filter(|(_, s)| {
                s.mem.leaving && ticks.saturating_sub(s.last_leave_send_tick) >= JOIN_RETRY_TICKS
            })
            .map(|(&g, _)| g)
            .collect();
        for group in leave_retries {
            let actions = self.step(group, ProtoEvent::LeaveRetry);
            if !actions.is_empty() {
                self.group_mut(group).last_leave_send_tick = ticks;
            }
            self.carry_out(ctx, group, actions, None);
        }
        // Forced leave for nodes whose LeaveReq went unanswered.
        let stale_leavers: Vec<GroupId> = self
            .groups
            .iter()
            .filter(|(_, s)| {
                s.mem.leaving && ticks.saturating_sub(s.leave_tick) > 2 * FLUSH_TIMEOUT_TICKS
            })
            .map(|(&g, _)| g)
            .collect();
        for group in stale_leavers {
            let actions = self.step(group, ProtoEvent::ForceLeave);
            self.carry_out(ctx, group, actions, None);
        }
        events
    }

    /// Runs the flush timeouts and elections that are due; returns whether
    /// any group had one.
    fn tick_view_changes<M>(&mut self, ctx: &mut Context<'_, M>) -> bool
    where
        M: Payload + From<GcsPacket<P>>,
    {
        let node = self.node;
        let ticks = self.ticks;
        let abandoned = |state: &GroupState<P>| {
            let stale = ticks.saturating_sub(state.promised_tick) > 2 * FLUSH_TIMEOUT_TICKS;
            stale
                && (state.mem.status == GroupStatus::Flushing
                    || (state.mem.status == GroupStatus::Joining && state.mem.promised.is_some()))
        };
        let retry = |state: &GroupState<P>| {
            state.mem.flush.is_some()
                && matches!(&state.vc,
                    Some(vc) if ticks.saturating_sub(vc.start_tick) > FLUSH_TIMEOUT_TICKS)
        };
        // Groups are visited in id order and each is judged on the state
        // its predecessors left behind (a flush timeout in one group
        // suspects a peer the next group's election then drops), so the
        // walk resumes after every group that had work instead of listing
        // the groups up front. A group none of the three conditions holds
        // for is passed over without being touched.
        let mut resume = Bound::Unbounded;
        loop {
            let suspected = &self.suspected;
            let due = self
                .groups
                .range((resume, Bound::Unbounded))
                .find(|(_, s)| {
                    abandoned(s) || retry(s) || s.mem.election(node, suspected).is_some()
                });
            let Some((&group, _)) = due else {
                break;
            };
            resume = Bound::Excluded(group);
            // Abandon flushes whose coordinator went quiet, releasing any
            // sends that were queued behind the promise. A joiner's stale
            // promise is abandoned too: it blocks singleton formation,
            // and no surviving coordinator will ever resolve it.
            if abandoned(&self.groups[&group]) {
                self.step(group, ProtoEvent::AbandonFlush);
                let events = self.send_pending(ctx, group);
                self.deferred_events.extend(events);
            }
            // Coordinator-side timeout: drop unresponsive candidates, retry.
            if retry(&self.groups[&group]) {
                self.time_out_flush(ctx.now(), group);
            }
            // The membership election (stale foreign entries were expired
            // by `tick_prune` just before this runs).
            let actions = self.step(group, ProtoEvent::DoElection);
            self.carry_out(ctx, group, actions, None);
        }
        resume != Bound::Unbounded
    }

    /// Abandons the round `group`'s coordinator (this node) has waited on
    /// past the flush timeout. A missing ack alone is not evidence of
    /// death: the ack may have been lost to churn right after a partition
    /// heals. Only a non-acker that is also silent is suspected (and
    /// traced, when newly); a demonstrably live peer simply gets another
    /// chance in the retried view change.
    fn time_out_flush(&mut self, now: SimTime, group: GroupId) {
        let timeout = self.config.suspect_timeout;
        let Some(state) = self.groups.get_mut(&group) else {
            return;
        };
        state.vc = None;
        let Some(round) = &state.mem.flush else {
            return;
        };
        let silent: Vec<NodeId> = round
            .candidates
            .iter()
            .copied()
            .filter(|c| {
                self.last_heard
                    .get(c)
                    .is_none_or(|&at| now.saturating_since(at) > timeout)
            })
            .collect();
        let trusted: Vec<NodeId> = silent
            .iter()
            .copied()
            .filter(|c| !self.suspected.contains(c))
            .collect();
        self.step(group, ProtoEvent::FlushTimeout { silent });
        for peer in trusted {
            if self.suspected.contains(&peer) {
                self.trace(|| GcsTrace::Suspected { peer });
            }
        }
    }

    fn tick_announces<M>(&mut self, ctx: &mut Context<'_, M>)
    where
        M: Payload + From<GcsPacket<P>>,
    {
        // The coordinator of each installed view announces it to every
        // bootstrap node.
        let groups: Vec<GroupId> = self.groups.keys().copied().collect();
        for group in groups {
            let actions = self.step(group, ProtoEvent::DoAnnounce);
            self.carry_out(ctx, group, actions, None);
        }
    }

    fn tick_prune(&mut self) {
        let ticks = self.ticks;
        let horizon = 10 * self.config.announce_every_ticks;
        self.nonmember_seen
            .retain(|_, &mut seen| ticks.saturating_sub(seen) <= horizon);
        let expired: Vec<(GroupId, NodeId)> = self
            .groups
            .iter()
            .flat_map(|(&group, state)| {
                state
                    .foreign_seen
                    .iter()
                    .filter(|(_, &seen)| ticks.saturating_sub(seen) > FOREIGN_EXPIRY_TICKS)
                    .map(move |(&peer, _)| (group, peer))
            })
            .collect();
        for (group, peer) in expired {
            self.group_mut(group).foreign_seen.remove(&peer);
            self.step(group, ProtoEvent::ExpireForeign(peer));
        }
    }

    // ------------------------------------------------------------------
    // Helpers
    // ------------------------------------------------------------------

    fn group_mut(&mut self, group: GroupId) -> &mut GroupState<P> {
        self.had_group = true;
        self.groups.get_or_insert_with(group, GroupState::new)
    }

    fn emit<M>(&self, ctx: &mut Context<'_, M>, dst: NodeId, pkt: GcsPacket<P>)
    where
        M: Payload + From<GcsPacket<P>>,
    {
        ctx.send(self.port, Endpoint::new(dst, self.port), M::from(pkt));
    }
}

#[cfg(test)]
mod ack_differential;

#[cfg(test)]
mod tick_differential;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn peers_are_ascending_without_self_across_overlapping_views() {
        #[derive(Clone, Debug)]
        struct Nothing;
        impl Payload for Nothing {
            fn size_bytes(&self) -> usize {
                0
            }
        }
        let me = NodeId(4);
        let mut gcs: GcsNode<Nothing> =
            GcsNode::new(GcsConfig::new(), me, Port(7), 1, vec![NodeId(1), me]);
        let views: [(u64, GroupStatus, &[u32]); 4] = [
            (10, GroupStatus::Member, &[4, 9, 1000]),
            (11, GroupStatus::Flushing, &[2, 4, 9]),
            (12, GroupStatus::Member, &[1, 2, 4]),
            (13, GroupStatus::Joining, &[4, 7]),
        ];
        for (group, status, members) in views {
            let state = gcs.group_mut(GroupId(group));
            state.mem.status = status;
            let members = members.iter().copied().map(NodeId).collect();
            state.mem.view = View::new(ViewId::default(), members);
        }
        let ids = |raw: &[u32]| raw.iter().copied().map(NodeId).collect::<Vec<_>>();
        gcs.rebuild_peers();
        // The failure detector watches every group's view...
        assert_eq!(gcs.watched, ids(&[1, 2, 7, 9, 1000]));
        // ...heartbeats go to the groups this node is a member of.
        assert_eq!(gcs.hb_peers, ids(&[1, 2, 9, 1000]));
    }

    #[test]
    fn not_member_error_is_a_real_error() {
        let err = NotMemberError { group: GroupId(9) };
        assert_eq!(err.to_string(), "not a member of group g9");
        let boxed: Box<dyn std::error::Error> = Box::new(err);
        assert!(boxed.source().is_none());
    }

    #[test]
    fn group_state_floors_include_self() {
        // Fresh state: own floor is zero (next_seq starts at 1).
        let floors = GroupState::<u8>::new().floors(NodeId(5));
        assert_eq!(floors, vec![(NodeId(5), 0)]);
    }
}
