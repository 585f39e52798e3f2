//! The checker's world: N protocol nodes, the network between them, and
//! the fault state — plus the transition relation the explorer walks.
//!
//! Messages in flight are a *set*: the protocol's control messages are
//! idempotent, so duplicate delivery is covered by delivering the same
//! element twice from two different states, and the state space stays
//! finite. Losing a message is an explicit, budgeted [`Step::Drop`].

use std::collections::BTreeSet;

use gcs::proto::{GroupStatus, ProtoConfig, ProtoEvent, ProtoMsg, ProtoNode};
use gcs::{View, ViewId};
use simnet::NodeId;

/// What to explore: the node population, who may leave, and the fault
/// budgets that bound the interleaving space.
#[derive(Clone, Debug)]
pub struct Scenario {
    /// Protocol-variant knobs (the PR 4 revert lives here).
    pub cfg: ProtoConfig,
    /// Nodes `1..=members` start as members of one formed view.
    pub members: u32,
    /// Nodes `members+1..=members+joiners` start idle and may request to
    /// join at any time.
    pub joiners: u32,
    /// Node ids that may request a graceful leave at any time.
    pub leavers: Vec<u32>,
    /// How many nodes may crash (a crashed node loses all state; it may
    /// restart later as a fresh joiner).
    pub max_crashes: u32,
    /// How many times the network may partition into two sides (one cut
    /// at a time; healing re-arms nothing).
    pub max_partitions: u32,
    /// How many in-flight messages may be lost outright.
    pub max_drops: u32,
    /// Synthetic client population for the takeover-coverage invariant.
    pub clients: u32,
}

impl Scenario {
    /// A formed group of `members` nodes with one fault of each kind —
    /// the default small scope.
    pub fn formed(members: u32) -> Self {
        Scenario {
            cfg: ProtoConfig::default(),
            members,
            joiners: 0,
            leavers: Vec::new(),
            max_crashes: 1,
            max_partitions: 1,
            max_drops: 0,
            clients: 4,
        }
    }

    /// Total node count.
    pub fn node_count(&self) -> u32 {
        self.members + self.joiners
    }

    /// All node ids of the scenario.
    pub fn ids(&self) -> Vec<NodeId> {
        (1..=self.node_count()).map(NodeId).collect()
    }
}

/// One transition of the world — the label that appears in
/// counterexample traces.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Step {
    /// Deliver an in-flight message.
    Deliver {
        /// Original sender.
        from: NodeId,
        /// Receiver.
        to: NodeId,
        /// The message.
        msg: ProtoMsg,
    },
    /// Lose an in-flight message (budgeted).
    Drop {
        /// Original sender.
        from: NodeId,
        /// Intended receiver.
        to: NodeId,
        /// The lost message.
        msg: ProtoMsg,
    },
    /// Crash a node: all its protocol state is lost.
    Crash(NodeId),
    /// Restart a crashed node as a fresh process that immediately
    /// re-joins (mirrors the fleet's server restart path).
    Restart(NodeId),
    /// Cut the network into `side` vs the rest.
    Partition(Vec<NodeId>),
    /// Heal the active cut.
    Heal,
    /// Fire a timer-driven protocol event at `node`.
    Timer {
        /// The node whose timer fires.
        node: NodeId,
        /// The event.
        event: ProtoEvent,
    },
}

impl std::fmt::Display for Step {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Step::Deliver { from, to, msg } => write!(f, "deliver {from}->{to}: {msg:?}"),
            Step::Drop { from, to, msg } => write!(f, "drop {from}->{to}: {msg:?}"),
            Step::Crash(n) => write!(f, "crash {n}"),
            Step::Restart(n) => write!(f, "restart {n} (fresh, re-joining)"),
            Step::Partition(side) => write!(f, "partition {side:?} | rest"),
            Step::Heal => write!(f, "heal"),
            Step::Timer { node, event } => write!(f, "timer @{node}: {event:?}"),
        }
    }
}

/// The full, hashable state of the explored system.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct World {
    /// Protocol state per node (index `i` is `NodeId(i + 1)`).
    pub nodes: Vec<ProtoNode>,
    /// Liveness per node.
    pub alive: Vec<bool>,
    /// Active network cut: the node indices on side A, if any.
    pub cut: Option<BTreeSet<usize>>,
    /// Messages in flight, as `(from, to, msg)` (set semantics).
    pub inflight: BTreeSet<(NodeId, NodeId, ProtoMsg)>,
    /// Remaining crash budget.
    pub crashes_left: u32,
    /// Remaining partition budget.
    pub partitions_left: u32,
    /// Remaining message-loss budget.
    pub drops_left: u32,
}

pub(crate) fn idx(node: NodeId) -> usize {
    (node.0 - 1) as usize
}

pub(crate) fn id_of(index: usize) -> NodeId {
    NodeId(index as u32 + 1)
}

impl World {
    /// The initial world of a scenario: members formed at epoch 1,
    /// joiners idle, the network whole.
    pub fn initial(scn: &Scenario) -> Self {
        let ids = scn.ids();
        let view = View::new(
            ViewId {
                epoch: 1,
                coordinator: NodeId(1),
            },
            (1..=scn.members).map(NodeId).collect(),
        );
        let nodes = ids
            .iter()
            .map(|&n| {
                if n.0 <= scn.members {
                    ProtoNode::member_of(scn.cfg, n, ids.clone(), view.clone())
                } else {
                    ProtoNode::new(scn.cfg, n, ids.clone())
                }
            })
            .collect();
        World {
            alive: vec![true; ids.len()],
            nodes,
            cut: None,
            inflight: BTreeSet::new(),
            crashes_left: scn.max_crashes,
            partitions_left: scn.max_partitions,
            drops_left: scn.max_drops,
        }
    }

    /// Whether the network currently lets `a` talk to `b` (both ends
    /// alive, no cut between them).
    pub fn reachable(&self, a: NodeId, b: NodeId) -> bool {
        if !self.alive[idx(a)] || !self.alive[idx(b)] {
            return false;
        }
        !self.cut_between(a, b)
    }

    /// Whether the active cut separates `a` from `b` (ignores liveness —
    /// an in-flight message from a dead sender still sits on one side).
    pub fn cut_between(&self, a: NodeId, b: NodeId) -> bool {
        match &self.cut {
            Some(side) => side.contains(&idx(a)) != side.contains(&idx(b)),
            None => false,
        }
    }

    /// Whether `p`'s periodic protocol traffic reaches `to` at all — the
    /// live failure detector suspects *silence*, not unreachability, so
    /// an alive node that stopped talking (idle after a force-quit, or
    /// member of a view that no longer lists `to`) is suspectable. A
    /// member heartbeats its view; a joiner retries joins at everyone; a
    /// coordinator announces to non-members; an idle node says nothing.
    pub(crate) fn audible(&self, p: NodeId, to: NodeId) -> bool {
        if !self.alive[idx(p)] {
            return false;
        }
        let n = &self.nodes[idx(p)];
        match n.group.status {
            GroupStatus::Joining => true,
            GroupStatus::Member | GroupStatus::Flushing => {
                n.group.view.contains(to) || n.group.announce_payload(p).is_some()
            }
            GroupStatus::Idle => false,
        }
    }

    /// The live system's self-form timer (`SINGLETON_FORM_TICKS`) is
    /// deliberately longer than suspicion plus reconfiguration, so a
    /// restarted node can only form a view of its own once every old
    /// group that still listed it has expelled it. The checker encodes
    /// that timing assumption as an enabling condition: self-forming is
    /// ungated the moment no alive node's current view contains `me`.
    fn may_singleton_form(&self, i: usize) -> bool {
        let me = id_of(i);
        !self.nodes.iter().enumerate().any(|(j, other)| {
            j != i
                && self.alive[j]
                && matches!(
                    other.group.status,
                    GroupStatus::Member | GroupStatus::Flushing
                )
                && other.group.view.contains(me)
        })
    }

    /// Advances node `node` by `event`, absorbing its sends into the
    /// in-flight set.
    pub(crate) fn step_node(&mut self, node: NodeId, event: ProtoEvent) {
        let actions = self.nodes[idx(node)].step(event);
        for action in actions {
            if let gcs::proto::ProtoAction::Send { to, msg } = action {
                if to != node && idx(to) < self.nodes.len() {
                    self.inflight.insert((node, to, msg));
                }
            }
        }
    }

    /// Applies `step`, returning the successor world.
    pub fn apply(&self, step: &Step) -> World {
        let mut w = self.clone();
        match step {
            Step::Deliver { from, to, msg } => {
                w.inflight.remove(&(*from, *to, msg.clone()));
                w.step_node(
                    *to,
                    ProtoEvent::Deliver {
                        from: *from,
                        msg: msg.clone(),
                    },
                );
            }
            Step::Drop { from, to, msg } => {
                w.inflight.remove(&(*from, *to, msg.clone()));
                w.drops_left -= 1;
            }
            Step::Crash(n) => {
                let i = idx(*n);
                w.alive[i] = false;
                w.nodes[i] = ProtoNode::new(self.nodes[i].cfg, *n, self.nodes[i].bootstrap.clone());
                w.crashes_left -= 1;
            }
            Step::Restart(n) => {
                let i = idx(*n);
                w.alive[i] = true;
                w.nodes[i] = ProtoNode::new(self.nodes[i].cfg, *n, self.nodes[i].bootstrap.clone());
                w.step_node(*n, ProtoEvent::RequestJoin { contacts: vec![] });
            }
            Step::Partition(side) => {
                w.cut = Some(side.iter().map(|&n| idx(n)).collect());
                w.partitions_left -= 1;
            }
            Step::Heal => {
                w.cut = None;
            }
            Step::Timer { node, event } => {
                w.step_node(*node, event.clone());
            }
        }
        w
    }

    /// Every enabled transition, in a fixed deterministic order.
    /// Successors identical to the current world are filtered out by the
    /// explorer (no-op events are legal but walk nowhere).
    pub fn steps(&self, scn: &Scenario) -> Vec<Step> {
        let mut steps = Vec::new();
        // Timer events, per node in id order.
        for (i, node) in self.nodes.iter().enumerate() {
            if !self.alive[i] {
                continue;
            }
            let me = id_of(i);
            // Failure detector: suspicion is enabled while a relevant
            // peer is genuinely silent toward this node (dead, cut off,
            // or no longer emitting traffic aimed here); clearing is
            // enabled while the peer's periodic traffic can get through.
            // Packet-driven clearing happens inside `Deliver` itself.
            for peer in self.relevant_peers(node) {
                if peer == me {
                    continue;
                }
                if (!self.reachable(me, peer) || !self.audible(peer, me))
                    && !node.suspected.contains(&peer)
                {
                    steps.push(Step::Timer {
                        node: me,
                        event: ProtoEvent::Suspect(peer),
                    });
                }
            }
            for &peer in &node.suspected {
                if self.reachable(me, peer) && self.audible(peer, me) {
                    steps.push(Step::Timer {
                        node: me,
                        event: ProtoEvent::Unsuspect(peer),
                    });
                }
            }
            // Application requests the scenario allows.
            if me.0 > scn.members && node.group.status == GroupStatus::Idle {
                steps.push(Step::Timer {
                    node: me,
                    event: ProtoEvent::RequestJoin { contacts: vec![] },
                });
            }
            if scn.leavers.contains(&me.0)
                && node.group.status != GroupStatus::Idle
                && !node.group.leaving
            {
                steps.push(Step::Timer {
                    node: me,
                    event: ProtoEvent::RequestLeave,
                });
            }
            // Elections (only when one would actually start).
            if node.group.election(me, &node.suspected).is_some() {
                steps.push(Step::Timer {
                    node: me,
                    event: ProtoEvent::DoElection,
                });
            }
            // Coordinator flush timeout: the silent set is ground truth
            // (candidates this node genuinely cannot reach).
            if let Some(fl) = &node.group.flush {
                let silent: Vec<NodeId> = fl
                    .candidates
                    .iter()
                    .copied()
                    .filter(|&c| c != me && !self.reachable(me, c))
                    .collect();
                steps.push(Step::Timer {
                    node: me,
                    event: ProtoEvent::FlushTimeout { silent },
                });
            }
            // Promise abandonment (member or joiner side): enabled once
            // the promised coordinator is unreachable or demonstrably no
            // longer runs this round (its retransmissions stopped; the
            // live node's timeout would fire).
            if matches!(
                node.group.status,
                GroupStatus::Flushing | GroupStatus::Joining
            ) {
                if let Some(promised) = node.group.promised {
                    let coord = promised.coordinator;
                    let coord_dropped = idx(coord) < self.nodes.len()
                        && self.nodes[idx(coord)]
                            .group
                            .flush
                            .as_ref()
                            .is_none_or(|fl| fl.vid != promised);
                    if !self.reachable(me, coord) || coord_dropped {
                        steps.push(Step::Timer {
                            node: me,
                            event: ProtoEvent::AbandonFlush,
                        });
                    }
                }
            }
            if node.group.status == GroupStatus::Joining {
                if node.group.promised.is_none() && self.may_singleton_form(i) {
                    steps.push(Step::Timer {
                        node: me,
                        event: ProtoEvent::SingletonForm,
                    });
                }
                steps.push(Step::Timer {
                    node: me,
                    event: ProtoEvent::JoinRetry,
                });
            }
            if node.group.leaving {
                steps.push(Step::Timer {
                    node: me,
                    event: ProtoEvent::LeaveRetry,
                });
                steps.push(Step::Timer {
                    node: me,
                    event: ProtoEvent::ForceLeave,
                });
            }
            if node.group.announce_payload(me).is_some() {
                steps.push(Step::Timer {
                    node: me,
                    event: ProtoEvent::DoAnnounce,
                });
            }
            for &peer in node.group.foreign.keys() {
                steps.push(Step::Timer {
                    node: me,
                    event: ProtoEvent::ExpireForeign(peer),
                });
            }
        }
        // Deliveries, in message order.
        for (from, to, msg) in &self.inflight {
            if self.alive[idx(*to)] && !self.cut_between(*from, *to) {
                steps.push(Step::Deliver {
                    from: *from,
                    to: *to,
                    msg: msg.clone(),
                });
            }
        }
        // Message loss.
        if self.drops_left > 0 {
            for (from, to, msg) in &self.inflight {
                steps.push(Step::Drop {
                    from: *from,
                    to: *to,
                    msg: msg.clone(),
                });
            }
        }
        // Crashes and restarts.
        if self.crashes_left > 0 {
            for (i, &alive) in self.alive.iter().enumerate() {
                if alive {
                    steps.push(Step::Crash(id_of(i)));
                }
            }
        }
        for (i, &alive) in self.alive.iter().enumerate() {
            if !alive {
                steps.push(Step::Restart(id_of(i)));
            }
        }
        // Partitions: every two-sided split, canonicalized so side A
        // contains node 1.
        if self.partitions_left > 0 && self.cut.is_none() {
            let n = self.nodes.len();
            // Bitmask over nodes 2..n; node 1 is always on side A.
            for mask in 0..(1u32 << (n - 1)) {
                let side: Vec<NodeId> = std::iter::once(0usize)
                    .chain((1..n).filter(|&j| mask & (1 << (j - 1)) != 0))
                    .map(id_of)
                    .collect();
                if side.len() < n {
                    steps.push(Step::Partition(side));
                }
            }
        }
        if self.cut.is_some() {
            steps.push(Step::Heal);
        }
        steps
    }

    /// Peers whose suspicion state matters to `node`'s decisions: its
    /// view members, pending joiners, and current flush candidates.
    fn relevant_peers(&self, node: &ProtoNode) -> Vec<NodeId> {
        let mut peers: BTreeSet<NodeId> = BTreeSet::new();
        if matches!(
            node.group.status,
            GroupStatus::Member | GroupStatus::Flushing
        ) {
            peers.extend(node.group.view.members.iter().copied());
            peers.extend(node.group.pending_joiners.iter().copied());
        }
        if let Some(fl) = &node.group.flush {
            peers.extend(fl.candidates.iter().copied());
        }
        peers.into_iter().collect()
    }

    /// Per-state safety invariants. Returns the violated invariant and
    /// its detail, or `None`.
    pub fn violation(&self) -> Option<(String, String)> {
        // A member must appear in its own view.
        for (i, node) in self.nodes.iter().enumerate() {
            if !self.alive[i] {
                continue;
            }
            if matches!(
                node.group.status,
                GroupStatus::Member | GroupStatus::Flushing
            ) && !node.group.view.contains(node.node)
            {
                return Some((
                    "member-in-own-view".into(),
                    format!(
                        "{} is a member of {} which excludes it",
                        node.node, node.group.view
                    ),
                ));
            }
        }
        // View agreement: the same view id must mean the same membership
        // everywhere (two conflicting incarnations of one id would make
        // the deterministic client redistribution diverge silently).
        for (i, a) in self.nodes.iter().enumerate() {
            if !self.alive[i] || !a.group.had_view {
                continue;
            }
            for (j, b) in self.nodes.iter().enumerate().skip(i + 1) {
                if !self.alive[j] || !b.group.had_view {
                    continue;
                }
                if a.group.view.id == b.group.view.id
                    && a.group.view.members != b.group.view.members
                {
                    return Some((
                        "view-agreement".into(),
                        format!(
                            "{} and {} both installed {} with different members: {:?} vs {:?}",
                            a.node,
                            b.node,
                            a.group.view.id,
                            a.group.view.members,
                            b.group.view.members
                        ),
                    ));
                }
            }
        }
        None
    }
}
