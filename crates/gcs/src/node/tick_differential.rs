//! Differential test of the gated housekeeping tick ([`GcsNode::tick`])
//! against the body it replaced, which ran every pass on every tick.
//!
//! The gated tick skips a pass on a tick where it would find nothing to
//! do, judged from membership input, the failure detector's deadline,
//! each channel's flag for buffered messages and one walk over the
//! groups. That is only sound if the skipped passes really were no-ops,
//! so the old body stays here as the oracle, with the three passes whose
//! bodies changed (the failure detector and the heartbeats sorted a fresh
//! peer list on every call; the NAK pass stepped every group's channel,
//! where the gated tick steps only those that may hold a message). One
//! seeded script — churn,
//! crashes and restarts, partitions, loss, concurrent singletons, traffic
//! and non-member sends — drives two simulations: in one every node ticks
//! the old way, in the other the new way (half the seeds announce at a
//! tenth of the usual rate, so less membership input wakes every pass
//! and each gate has to hold on its own). After every tick of every node
//! both sides' membership machines, suspicion, `last_heard`, views and
//! returned events are equal; at the end so is everything put on the wire.
//! A pass the new tick skipped never acted in the old one, and every gated
//! pass was skipped on some ticks and acted on others.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;
use std::time::Duration;

use simnet::{LinkProfile, Process, SimRng, Simulation, TraceEvent};

use super::*;

#[derive(Clone, Debug, PartialEq)]
struct Num(u64);

impl Payload for Num {
    fn size_bytes(&self) -> usize {
        8
    }
}

type Wire = GcsPacket<Num>;

const PORT: Port = Port(7);
const TICK: u64 = 1;
const NODES: u32 = 5;
const GROUPS: [GroupId; 3] = [GroupId(1), GroupId(2), GroupId(3)];

/// The gated passes in [`Pass`] order, by name.
const PASSES: [&str; 6] = [
    "failure detector",
    "naks",
    "resends",
    "joins",
    "prune",
    "view changes",
];

/// Membership events by the name of their [`ProtoEvent`], as [`tally`]
/// reads them off the passes.
type Kinds = BTreeMap<&'static str, u64>;

impl GcsNode<Num> {
    /// `on_timer` as the parent had it — every pass on every tick — with
    /// the gated passes that acted as [`Pass::bit`]s.
    fn tick_every_pass(
        &mut self,
        ctx: &mut Context<'_, Wire>,
        timer: Timer,
        kinds: &mut Kinds,
    ) -> Ticked {
        debug_assert_eq!(timer.tag, self.tick_tag, "timer routed to wrong component");
        self.trace_now = ctx.now();
        self.last_tick = ctx.now();
        self.ticks += 1;
        if self.idle() {
            self.tick_state = TickState::Asleep;
            return (Vec::new(), 0);
        }
        self.arm(ctx);
        let mut events = Vec::new();
        let mut did = self.acted(Pass::Detector, kinds, |gcs| {
            gcs.tick_failure_detector_parent(ctx);
        });
        if self.ticks.is_multiple_of(HB_EVERY_TICKS) {
            self.tick_heartbeats_parent(ctx);
        }
        if self.ticks.is_multiple_of(ACK_EVERY_TICKS) {
            self.tick_channels(ctx, delivery::Pass::Acks);
        }
        did |= self.acted(Pass::Naks, kinds, |gcs| gcs.tick_naks_parent(ctx));
        did |= self.acted(Pass::Resends, kinds, |gcs| gcs.tick_resends(ctx));
        did |= self.acted(Pass::Joins, kinds, |gcs| {
            events.extend(gcs.tick_joins(ctx));
        });
        did |= self.acted(Pass::Prune, kinds, |gcs| gcs.tick_prune());
        did |= self.acted(Pass::ViewChanges, kinds, |gcs| {
            gcs.tick_view_changes(ctx);
        });
        if self.ticks.is_multiple_of(self.config.announce_every_ticks) {
            self.tick_announces(ctx);
        }
        events.append(&mut self.deferred_events);
        (events, did)
    }

    /// Runs one pass; `pass`'s bit if it changed anything. Every send of a
    /// gated pass comes with a change of state (a NAK, resend or retry
    /// stamps its tick), so what is compared is the state alone.
    fn acted(&mut self, pass: Pass, kinds: &mut Kinds, run: impl FnOnce(&mut Self)) -> u8 {
        let before = self.footprint();
        let machines = self.machines();
        run(self);
        tally(pass, &machines, &self.machines(), kinds);
        if self.footprint() == before {
            0
        } else {
            pass.bit()
        }
    }

    /// Each group's membership machine.
    fn machines(&self) -> Vec<(GroupId, Membership)> {
        self.groups
            .iter()
            .map(|(&g, s)| (g, s.mem.clone()))
            .collect()
    }

    /// Everything a housekeeping pass can change.
    fn footprint(&self) -> impl PartialEq {
        let groups: Vec<_> = self
            .groups
            .iter()
            .map(|(&group, s)| {
                let clocks = [
                    s.promised_tick,
                    s.leave_tick,
                    s.last_leave_send_tick,
                    s.join_start_tick,
                    s.last_join_send_tick,
                ];
                let vc = (s.round_start, s.last_prepare_tick);
                (
                    group,
                    s.mem.clone(),
                    clocks,
                    vc,
                    s.install_resend.as_ref().map(|r| r.remaining),
                    s.channel.clone(),
                    s.foreign_seen.clone(),
                )
            })
            .collect();
        (
            groups,
            self.suspected.clone(),
            self.last_heard.clone(),
            self.nonmember_seen.clone(),
            self.deferred_events.len(),
            self.views_installed,
        )
    }

    /// The parent's failure detector, verbatim but for its reused peer vector.
    fn tick_failure_detector_parent(&mut self, ctx: &mut Context<'_, Wire>) {
        let now = ctx.now();
        let timeout = self.config.suspect_timeout;
        let peers = self.take_peers(|_| true);
        for &peer in &peers {
            let heard = self.last_heard.get(&peer).copied();
            match heard {
                Some(at) if now.saturating_since(at) > timeout => {
                    if self.suspected.insert(peer) {
                        self.trace(|| GcsTrace::Suspected { peer });
                    }
                }
                Some(_) => {
                    self.suspected.remove(&peer);
                }
                None => {
                    self.last_heard.insert(peer, now);
                }
            }
        }
    }

    /// The other members of every group whose status `include` accepts,
    /// ascending without repeats, collected afresh.
    fn take_peers(&self, include: impl Fn(GroupStatus) -> bool) -> Vec<NodeId> {
        let node = self.node;
        let mut peers = Vec::new();
        for state in self.groups.values() {
            if include(state.mem.status) {
                let members = &state.mem.view.members;
                peers.extend(members.iter().copied().filter(|&m| m != node));
            }
        }
        peers.sort_unstable();
        peers.dedup();
        peers
    }

    fn tick_heartbeats_parent(&mut self, ctx: &mut Context<'_, Wire>) {
        let peers =
            self.take_peers(|status| matches!(status, GroupStatus::Member | GroupStatus::Flushing));
        for &peer in &peers {
            self.emit(ctx, peer, GcsPacket::Heartbeat);
        }
    }

    /// The parent's NAK pass, on every tick, now a step of every group's
    /// channel.
    fn tick_naks_parent(&mut self, ctx: &mut Context<'_, Wire>) {
        for group in self.groups.keys().copied().collect::<Vec<_>>() {
            let naks = Input::Tick(delivery::Pass::Naks);
            self.deliver(ctx, group, naks, &mut Vec::new());
        }
    }
}

/// Counts the membership events `pass` stepped, from each group's machine
/// before and after it. Only what no other event of the pass can do is
/// counted: the joins pass forms singletons and forces leaves, the prune
/// expires foreign views, and the view-change pass abandons flushes (back
/// to the same view), times rounds out and proposes new ones.
fn tally(
    pass: Pass,
    before: &[(GroupId, Membership)],
    after: &[(GroupId, Membership)],
    kinds: &mut Kinds,
) {
    let round = |m: &Membership| m.flush.as_ref().map(|fl| fl.vid);
    for (group, old) in before {
        let new = after.iter().find(|(g, _)| g == group).map(|(_, m)| m);
        let mut count = |kind| *kinds.entry(kind).or_default() += 1;
        match (pass, new) {
            (Pass::Joins, None) => count("ForceLeave"),
            (Pass::Joins, Some(new))
                if old.status == GroupStatus::Joining && new.status == GroupStatus::Member =>
            {
                count("SingletonForm");
            }
            (Pass::Prune, Some(new)) if new.foreign.len() < old.foreign.len() => {
                count("ExpireForeign");
            }
            (Pass::ViewChanges, Some(new)) => {
                let resumed = old.status == GroupStatus::Flushing
                    && new.status == GroupStatus::Member
                    && new.view.id == old.view.id;
                let released = old.status == GroupStatus::Joining
                    && old.promised.is_some()
                    && new.promised.is_none();
                if resumed || released {
                    count("AbandonFlush");
                }
                if round(old).is_some() && round(new) != round(old) {
                    count("FlushTimeout");
                }
                let proposed = round(new).is_some_and(|vid| round(old) != Some(vid));
                if proposed || new.view.id != old.view.id {
                    count("DoElection");
                }
            }
            _ => {}
        }
    }
}

/// What a tick returned, and the [`Pass::bit`]s of the gated passes the
/// new tick ran (the old one: that acted).
type Ticked = (Vec<GcsEvent<Num>>, u8);

/// What one tick returned and left behind.
#[derive(Debug, PartialEq)]
struct Snapshot {
    at: SimTime,
    events: Vec<GcsEvent<Num>>,
    machines: Vec<(GroupId, Membership)>,
    suspected: BTreeSet<NodeId>,
    /// Sorted: the endpoint's map is hashed.
    last_heard: BTreeMap<NodeId, SimTime>,
    nonmember_seen: VecMap<(NodeId, u64), u64>,
    views: Vec<(GroupId, GroupStatus, Option<View>)>,
}

/// Everything one node id recorded, across its restarts.
#[derive(Default)]
struct Log {
    ticks: Vec<Snapshot>,
    passes: Vec<u8>,
    /// Whether the tick began with membership input (new tick only).
    input: Vec<bool>,
    /// Membership events of the old tick's passes, with the suspicions
    /// raised and cleared from one tick to the next.
    kinds: Kinds,
    /// Packets received, with what handling them returned.
    received: Vec<(SimTime, NodeId, Wire, Vec<GcsEvent<Num>>)>,
}

type Shared = Rc<RefCell<Log>>;

struct Node {
    gcs: GcsNode<Num>,
    every_pass: bool,
    log: Shared,
    /// Whom this incarnation suspected at its last tick.
    suspected: BTreeSet<NodeId>,
}

impl Node {
    fn new(id: NodeId, every_pass: bool, config: GcsConfig, log: &Shared) -> Self {
        let bootstrap = (1..=NODES).map(NodeId).collect();
        Node {
            gcs: GcsNode::new(config, id, PORT, TICK, bootstrap),
            every_pass,
            log: Rc::clone(log),
            suspected: BTreeSet::new(),
        }
    }
}

impl Process<Wire> for Node {
    fn on_start(&mut self, ctx: &mut Context<'_, Wire>) {
        self.gcs.start(ctx);
    }

    fn on_datagram(&mut self, ctx: &mut Context<'_, Wire>, from: Endpoint, _: Endpoint, msg: Wire) {
        let events = self.gcs.on_packet(ctx, from, msg.clone());
        let entry = (ctx.now(), from.node, msg, events);
        self.log.borrow_mut().received.push(entry);
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, Wire>, timer: Timer) {
        let input = self.gcs.input;
        let mut log = self.log.borrow_mut();
        let (events, passes) = if self.every_pass {
            self.gcs.tick_every_pass(ctx, timer, &mut log.kinds)
        } else {
            self.gcs.tick(ctx, timer)
        };
        let gcs = &self.gcs;
        let views = GROUPS
            .iter()
            .map(|&g| (g, gcs.status(g), gcs.view(g).cloned()))
            .collect();
        let suspects = gcs.suspected.difference(&self.suspected).count() as u64;
        let unsuspects = self.suspected.difference(&gcs.suspected).count() as u64;
        *log.kinds.entry("Suspect").or_default() += suspects;
        *log.kinds.entry("Unsuspect").or_default() += unsuspects;
        self.suspected.clone_from(&gcs.suspected);
        let snapshot = Snapshot {
            at: ctx.now(),
            events,
            machines: gcs.machines(),
            suspected: gcs.suspected.clone(),
            last_heard: gcs.last_heard.iter().map(|(&k, &v)| (k, v)).collect(),
            nonmember_seen: gcs.nonmember_seen.clone(),
            views,
        };
        log.ticks.push(snapshot);
        log.passes.push(passes);
        log.input.push(input);
    }
}

/// Runs the script of `seed` with every node ticking the old way or the
/// new; returns each node id's log and the wire log.
fn run(seed: u64, every_pass: bool) -> (Vec<Log>, Vec<String>) {
    // Every announce is membership input, and every node hears every
    // coordinator's twice a second: on odd seeds they come every 5 s, so
    // that a gate has to hold on its own for longer.
    let mut config = GcsConfig::new();
    if seed % 2 == 1 {
        config.announce_every_ticks = 100;
    }
    let ids: Vec<NodeId> = (1..=NODES).map(NodeId).collect();
    let logs: Vec<Shared> = ids.iter().map(|_| Shared::default()).collect();
    let wire = Rc::new(RefCell::new(Vec::new()));
    let mut sim: Simulation<Wire> = Simulation::new(seed);
    sim.set_default_profile(LinkProfile::lan());
    let sink = Rc::clone(&wire);
    sim.set_tracer(
        |_| true,
        move |at: SimTime, event: &TraceEvent| {
            sink.borrow_mut().push(format!("{at:?} {event:?}"));
        },
    );
    for (&id, log) in ids.iter().zip(&logs) {
        sim.add_node(id, Node::new(id, every_pass, config.clone(), log));
    }
    sim.run_until(SimTime::from_millis(100));
    for (i, &group) in GROUPS.iter().enumerate() {
        let founder = ids[i];
        invoke(&mut sim, founder, |gcs, _| drop(gcs.create_group(group)));
        for &id in ids.iter().filter(|&&id| id != founder).take(2 + i) {
            invoke(&mut sim, id, |gcs, ctx| gcs.join(ctx, group, &[founder]));
        }
    }
    sim.run_for(Duration::from_secs(2));

    let mut rng = SimRng::seed_from_u64(seed);
    let mut down_until = vec![SimTime::ZERO; ids.len()];
    let mut value = 0;
    for _ in 0..60 {
        let now = sim.now();
        let i = rng.gen_u64_below(u64::from(NODES)) as usize;
        let id = ids[i];
        let group = GROUPS[rng.gen_u64_below(GROUPS.len() as u64) as usize];
        let contact = ids[rng.gen_u64_below(u64::from(NODES)) as usize];
        match rng.gen_u64_below(12) {
            0 | 1 => invoke(&mut sim, id, |gcs, ctx| gcs.join(ctx, group, &[contact])),
            2 => invoke(&mut sim, id, |gcs, ctx| gcs.leave(ctx, group)),
            // A concurrent incarnation: merges, foreign views.
            3 => invoke(&mut sim, id, |gcs, _| drop(gcs.create_group(group))),
            4..=6 => {
                let burst = 1 + rng.gen_u64_below(6);
                invoke(&mut sim, id, |gcs, ctx| {
                    for _ in 0..burst {
                        value += 1;
                        let _ = gcs.multicast(ctx, group, Num(value));
                    }
                });
            }
            7 => invoke(&mut sim, id, |gcs, ctx| {
                gcs.send_to_group(ctx, group, Num(0));
            }),
            8 => {
                // At most two nodes down at a time; a restart comes back
                // empty, and the script's joins bring it back in.
                let down = down_until.iter().filter(|&&t| t > now).count();
                if down_until[i] <= now && down < 2 {
                    let back = now + Duration::from_millis(300 + rng.gen_u64_below(4_000));
                    down_until[i] = back;
                    sim.crash_at(now, id);
                    sim.restart_at(
                        back,
                        id,
                        Node::new(id, every_pass, config.clone(), &logs[i]),
                    );
                }
            }
            9 | 10 => {
                let mask = 1 + rng.gen_u64_below((1 << NODES) - 2);
                let (a, b): (Vec<NodeId>, Vec<NodeId>) =
                    ids.iter().partition(|n| mask & (1 << (n.0 - 1)) != 0);
                let heal = now + Duration::from_millis(200 + rng.gen_u64_below(5_000));
                sim.partition_at(now, &a, &b);
                sim.heal_at(heal, &a, &b);
            }
            _ => {
                let loss = [0.0, 0.05, 0.3][rng.gen_u64_below(3) as usize];
                sim.set_default_profile_at(now, LinkProfile::lan().with_loss(loss));
            }
        }
        sim.run_for(Duration::from_millis(20 + rng.gen_u64_below(1_200)));
    }
    sim.set_default_profile_at(sim.now(), LinkProfile::lan());
    sim.heal_all_at(sim.now());
    sim.run_for(Duration::from_secs(8));
    drop(sim);
    let logs = logs.into_iter().map(|log| log.take()).collect();
    let wire = wire.take();
    (logs, wire)
}

/// Calls `f` on `id`'s endpoint, if `id` is up.
fn invoke(
    sim: &mut Simulation<Wire>,
    id: NodeId,
    f: impl FnOnce(&mut GcsNode<Num>, &mut Context<'_, Wire>),
) {
    sim.invoke(id, |node: &mut Node, ctx| f(&mut node.gcs, ctx));
}

#[test]
fn the_gated_tick_matches_the_every_pass_tick() {
    // Per gated pass: ticks the new tick skipped it, ticks it acted in the
    // old one, and of those the ticks that began without membership input
    // (so that a deadline, a flag or a walk over the groups let it run).
    let mut skipped = [0u64; PASSES.len()];
    let mut acted = [0u64; PASSES.len()];
    let mut acted_unprompted = [0u64; PASSES.len()];
    let mut nonmember_expiries = 0;
    let mut kinds = Kinds::new();
    for seed in 0..12 {
        let (old, old_wire) = run(seed, true);
        let (new, new_wire) = run(seed, false);
        for (n, (old, new)) in old.iter().zip(&new).enumerate() {
            let id = n + 1;
            for (i, (o, g)) in old.ticks.iter().zip(&new.ticks).enumerate() {
                assert_eq!(o, g, "seed {seed}, n{id}, tick {i} at {}", o.at);
            }
            assert_eq!(old.ticks.len(), new.ticks.len(), "seed {seed}, n{id}");
            assert_eq!(old.received, new.received, "seed {seed}, n{id}: received");
            for (i, (&did, &ran)) in old.passes.iter().zip(&new.passes).enumerate() {
                let at = old.ticks[i].at;
                assert_eq!(
                    did & !ran,
                    0,
                    "seed {seed}, n{id}, tick {i} at {at}: a skipped pass acted"
                );
                for p in 0..PASSES.len() {
                    skipped[p] += u64::from(ran & (1 << p) == 0);
                    acted[p] += u64::from(did & (1 << p) != 0);
                    acted_unprompted[p] += u64::from(did & (1 << p) != 0 && !new.input[i]);
                }
                let pruned = did & Pass::Prune.bit() != 0;
                let shrank =
                    |t: &[Snapshot]| t[i].nonmember_seen.len() < t[i - 1].nonmember_seen.len();
                nonmember_expiries += u64::from(i > 0 && pruned && shrank(&old.ticks));
            }
            for (&kind, &n) in &old.kinds {
                *kinds.entry(kind).or_default() += n;
            }
        }
        assert_eq!(old_wire.len(), new_wire.len(), "seed {seed}: wire log");
        for (i, (o, g)) in old_wire.iter().zip(&new_wire).enumerate() {
            assert_eq!(o, g, "seed {seed}: datagram {i}");
        }
    }
    for (p, name) in PASSES.iter().enumerate() {
        let (skip, act, alone) = (skipped[p], acted[p], acted_unprompted[p]);
        println!("{name}: skipped on {skip} ticks, acted on {act} ({alone} without input)");
        assert!(skip > 0 && act > 0, "{name} was not exercised");
        // A join or leave pass marks the next tick, so only it always
        // acts on the heels of membership input.
        assert!(
            alone > 0 || p == Pass::Joins as usize,
            "{name} only ran on input"
        );
    }
    println!("{nonmember_expiries} prunes of non-member entries; {kinds:?}");
    assert!(nonmember_expiries > 0);
    // The runs reach what the gates are about: silent peers crossing the
    // deadline (suspected, then heard again), flush timeouts, abandoned
    // flushes, singletons, forced leaves, expiring foreign views and
    // elections.
    for kind in [
        "Suspect",
        "Unsuspect",
        "FlushTimeout",
        "AbandonFlush",
        "SingletonForm",
        "ForceLeave",
        "ExpireForeign",
        "DoElection",
    ] {
        assert!(
            kinds.get(kind).is_some_and(|&n| n > 0),
            "no {kind}: {kinds:?}"
        );
    }
}
