//! Eventual-merge and takeover-coverage checking via a *fair closure*.
//!
//! Liveness cannot be judged at a single interleaving state — a stuck
//! flush is fine if a timeout that fixes it is still enabled. So from
//! every explored state the checker runs a deterministic "and then the
//! faults stop" schedule: heal the cut, give every node ground-truth
//! suspicion, and alternate full message delivery with one firing of
//! every pending protocol timer, for a bounded number of rounds. A
//! correct protocol must converge to one agreed view over exactly the
//! engaged survivors; takeover coverage is then checked on that view.
//!
//! This is the check that rediscovers the PR 4 expulsion deadlock when
//! the residual-reform fix is disabled: the expelled side ignores the
//! survivors' announces forever, so no schedule merges the views.

use std::collections::VecDeque;

use ftvod_core::config::VodConfig;
use ftvod_core::protocol::{session_group, ClientId, ClientRecord};
use ftvod_core::server::takeover::{Action, Cx, Input};
use ftvod_core::server::TakeoverTable;
use gcs::proto::{GroupStatus, ProtoEvent};
use media::{FrameNo, GopPattern, MovieId};
use simnet::{NodeId, SimTime, VecMap};

use crate::world::{id_of, idx, Scenario, World};

/// Delivery passes per round; bounds send/deliver ping-pong inside one
/// round (leftovers carry into the next round).
const DELIVERY_PASSES: usize = 32;

/// Runs the fair closure from `start`. Returns the violated invariant
/// and detail if the system fails to converge (eventual-merge) or the
/// converged view leaves clients uncovered (takeover-coverage).
pub fn closure_violation(start: &World, scn: &Scenario) -> Option<(String, String)> {
    let mut w = start.clone();
    w.cut = None;

    // Who must end up in the one merged view: alive nodes that are
    // engaged with the group and not on their way out. Leavers must end
    // Idle; nodes that never joined stay out.
    let participants: Vec<NodeId> = w
        .nodes
        .iter()
        .enumerate()
        .filter(|&(i, n)| w.alive[i] && n.group.status != GroupStatus::Idle && !n.group.leaving)
        .map(|(i, _)| id_of(i))
        .collect();
    let leavers: Vec<NodeId> = w
        .nodes
        .iter()
        .enumerate()
        .filter(|&(i, n)| w.alive[i] && n.group.leaving)
        .map(|(i, _)| id_of(i))
        .collect();

    let rounds = 8 + 4 * w.nodes.len();
    for round in 0..rounds {
        ground_truth_suspicion(&mut w);
        deliver_all(&mut w);
        fire_timers(&mut w, round, rounds);
        deliver_all(&mut w);
        if converged(&w, &participants, &leavers) {
            return coverage_violation(&w, scn, &VodConfig::paper_default(), &participants);
        }
    }
    let views: Vec<String> = w
        .nodes
        .iter()
        .enumerate()
        .filter(|&(i, _)| w.alive[i])
        .map(|(i, n)| format!("{}: {:?} {}", id_of(i), n.group.status, n.group.view))
        .collect();
    Some((
        "eventual-merge".into(),
        format!(
            "no common view after {rounds} fair rounds (target {participants:?}); stuck at [{}]",
            views.join("; ")
        ),
    ))
}

/// Every alive node suspects exactly the peers that are silent toward
/// it (dead, or emitting no traffic it would hear): the failure
/// detector is eventually perfect once faults stop. Audibility, not
/// mere liveness, is what the heartbeat FD measures — an idle node or
/// a member of a disjoint view says nothing and must end up suspected,
/// or expulsions and merges never trigger.
fn ground_truth_suspicion(w: &mut World) {
    for i in 0..w.nodes.len() {
        if !w.alive[i] {
            continue;
        }
        let me = id_of(i);
        for j in 0..w.nodes.len() {
            if i == j {
                continue;
            }
            let peer = id_of(j);
            if w.audible(peer, me) {
                if w.nodes[i].suspected.contains(&peer) {
                    w.step_node(me, ProtoEvent::Unsuspect(peer));
                }
            } else if !w.nodes[i].suspected.contains(&peer) {
                w.step_node(me, ProtoEvent::Suspect(peer));
            }
        }
    }
}

/// Delivers every deliverable in-flight message, in message order,
/// repeating until quiescent (bounded by [`DELIVERY_PASSES`]).
fn deliver_all(w: &mut World) {
    for _ in 0..DELIVERY_PASSES {
        let deliverable: Vec<_> = w
            .inflight
            .iter()
            .filter(|(_, to, _)| w.alive[idx(*to)])
            .cloned()
            .collect();
        if deliverable.is_empty() {
            return;
        }
        for (from, to, msg) in deliverable {
            w.inflight.remove(&(from, to, msg.clone()));
            w.step_node(to, ProtoEvent::Deliver { from, msg });
        }
    }
}

/// Fires, once per node in id order, every protocol timer whose live
/// counterpart would eventually go off in a quiet network.
fn fire_timers(w: &mut World, round: usize, rounds: usize) {
    for i in 0..w.nodes.len() {
        if !w.alive[i] {
            continue;
        }
        let me = id_of(i);
        // A joiner that nobody adopted forms a singleton (once no alive
        // group still lists it — the live timer ordering); merging
        // reconciles singletons afterwards.
        if w.nodes[i].group.status == GroupStatus::Joining {
            let unlisted = !w.nodes.iter().enumerate().any(|(j, other)| {
                j != i
                    && w.alive[j]
                    && matches!(
                        other.group.status,
                        GroupStatus::Member | GroupStatus::Flushing
                    )
                    && other.group.view.contains(me)
            });
            if w.nodes[i].group.promised.is_none() && unlisted {
                w.step_node(me, ProtoEvent::SingletonForm);
            } else {
                w.step_node(me, ProtoEvent::JoinRetry);
            }
        }
        // All acks that can arrive have arrived (deliver_all ran); a
        // round still pending is stuck on dead or refusing candidates.
        if let Some(fl) = &w.nodes[i].group.flush {
            let silent: Vec<NodeId> = fl
                .candidates
                .iter()
                .copied()
                .filter(|&c| c != me && !w.alive[idx(c)])
                .collect();
            w.step_node(me, ProtoEvent::FlushTimeout { silent });
        }
        // A promise blocks delivery (and, on the round's own
        // coordinator, elections) until the round resolves — and on a
        // joiner it blocks singleton formation. Once the promised
        // coordinator is dead or demonstrably no longer runs that
        // round, the live abandonment timer would fire: fire it.
        if matches!(
            w.nodes[i].group.status,
            GroupStatus::Flushing | GroupStatus::Joining
        ) {
            if let Some(promised) = w.nodes[i].group.promised {
                let coord = idx(promised.coordinator);
                let round_dead = !w.alive[coord]
                    || w.nodes[coord]
                        .group
                        .flush
                        .as_ref()
                        .is_none_or(|fl| fl.vid != promised);
                if round_dead {
                    w.step_node(me, ProtoEvent::AbandonFlush);
                }
            }
        }
        if w.nodes[i].group.leaving {
            let node = &w.nodes[i];
            let stuck = node.group.leave_target(me, &node.suspected).is_none();
            // The live node's force-quit timer fires unconditionally
            // after enough silence; model that in the second half of the
            // closure so graceful leaves get a fair chance first.
            if stuck || round >= rounds / 2 {
                w.step_node(me, ProtoEvent::ForceLeave);
            } else {
                w.step_node(me, ProtoEvent::LeaveRetry);
            }
        }
        w.step_node(me, ProtoEvent::DoElection);
        w.step_node(me, ProtoEvent::DoAnnounce);
    }
}

/// Converged iff every participant is a plain member of the view whose
/// membership is exactly the participant set, and every leaver is out.
fn converged(w: &World, participants: &[NodeId], leavers: &[NodeId]) -> bool {
    for &leaver in leavers {
        if w.nodes[idx(leaver)].group.status != GroupStatus::Idle {
            return false;
        }
    }
    for &p in participants {
        let g = &w.nodes[idx(p)].group;
        if g.status != GroupStatus::Member || g.view.members != participants {
            return false;
        }
    }
    true
}

/// On the converged view, every participant's takeover table — the one
/// the server runs — goes through the state exchange: clients
/// `1..=scn.clients` start with the same synced record everywhere, owned
/// round-robin over the initial view and run by their owner, and every
/// publication reaches every participant, the sender included, until
/// none is left. Then every table must name the same owner for each
/// client, that owner must be a participant, and it alone must run the
/// client's session.
fn coverage_violation(
    w: &World,
    scn: &Scenario,
    cfg: &VodConfig,
    participants: &[NodeId],
) -> Option<(String, String)> {
    let view = &w.nodes[idx(*participants.first()?)].group.view;
    let synced = |c| ClientRecord {
        client: ClientId(c),
        client_node: NodeId(100 + c),
        session_group: session_group(ClientId(c)),
        movie: MovieId(1),
        next_frame: FrameNo(0),
        rate_fps: 30,
        max_fps: 30,
        owner: NodeId((c - 1) % scn.members.max(1) + 1),
        assigned_epoch: 1,
        updated_at: SimTime::ZERO,
        paused: false,
    };
    let records: Vec<ClientRecord> = (1..=scn.clients).map(synced).collect();
    // Per participant: its table and the sessions it runs, by client.
    let mut replicas: Vec<(TakeoverTable, VecMap<ClientId, ClientRecord>)> = (participants.iter())
        .map(|&p| {
            let owned = records.iter().filter(|r| r.owner == p);
            (
                TakeoverTable::default(),
                owned.map(|r| (r.client, *r)).collect(),
            )
        })
        .collect();
    // The old view's last sync, then each participant's converged view.
    let mut inbox: VecDeque<(usize, Input)> = VecDeque::new();
    for (i, &p) in participants.iter().enumerate() {
        inbox.push_back((i, report(p, 1, records.clone())));
        inbox.push_back((i, Input::View(w.nodes[idx(p)].group.view.clone())));
    }
    let (gop, mut out) = (GopPattern::mpeg1(), Vec::new());
    while let Some((i, input)) = inbox.pop_front() {
        let (table, sessions) = &mut replicas[i];
        let cx = Cx {
            me: participants[i],
            now: SimTime::ZERO,
            cfg,
            movie: MovieId(1),
            gop: &gop,
            fps: 30,
            sessions,
        };
        table.step(&cx, input, &mut out);
        let epoch = table.view().id.epoch;
        for action in out.drain(..) {
            match action {
                Action::Publish(records) | Action::Sync(records) => {
                    let heard = (0..participants.len())
                        .map(|to| (to, report(participants[i], epoch, records.clone())));
                    inbox.extend(heard);
                }
                Action::Stop(client) => drop(sessions.remove(&client)),
                Action::Start(how) => drop(sessions.insert(how.record.client, how.record)),
                _ => {}
            }
        }
    }
    for client in records.iter().map(|r| r.client) {
        // (participant, the owner its table names, whether it runs the client)
        let seen: Vec<(NodeId, Option<NodeId>, bool)> = (participants.iter().zip(&replicas))
            .map(|(&p, (t, s))| (p, t.get(client).map(|r| r.owner), s.contains_key(&client)))
            .collect();
        let owner = seen[0].1.filter(|o| participants.contains(o));
        let wrong =
            |&(p, o, runs): &(NodeId, Option<NodeId>, bool)| o != owner || runs != (o == Some(p));
        if owner.is_none() || seen.iter().any(wrong) {
            let detail = format!("{client} after the exchange over {view}: {seen:?}");
            return Some(("takeover-coverage".into(), detail));
        }
    }
    None
}

/// `from`'s publication, as the report its group delivers.
fn report(from: NodeId, epoch: u64, records: Vec<ClientRecord>) -> Input {
    Input::Report {
        from,
        epoch,
        records,
    }
}

#[cfg(test)]
mod tests {
    use ftvod_core::config::TakeoverPolicy;

    use super::*;
    use crate::Step;

    /// The crash of n3, which owned client 3, and the fair rounds that
    /// follow until n1 and n2 share one view.
    fn after_n3_crashed(scn: &Scenario) -> World {
        let mut w = World::initial(scn).apply(&Step::Crash(NodeId(3)));
        let (survivors, rounds) = ([NodeId(1), NodeId(2)], 8 + 4 * w.nodes.len());
        for round in 0..rounds {
            ground_truth_suspicion(&mut w);
            deliver_all(&mut w);
            fire_timers(&mut w, round, rounds);
            deliver_all(&mut w);
            if converged(&w, &survivors, &[]) {
                return w;
            }
        }
        panic!("n1 and n2 never merged");
    }

    /// A negative control: a takeover table that reassigns nothing leaves
    /// the crashed owner's clients to it, and the check reports that. The
    /// paper's policy covers them.
    #[test]
    fn a_policy_that_reassigns_nothing_fails_takeover_coverage() {
        let scn = Scenario::formed(3);
        let w = after_n3_crashed(&scn);
        let survivors = [NodeId(1), NodeId(2)];
        let paper = VodConfig::paper_default();
        assert_eq!(coverage_violation(&w, &scn, &paper, &survivors), None);
        assert_eq!(closure_violation(&w, &scn), None);

        let none = paper.with_takeover(TakeoverPolicy::None);
        let (invariant, detail) =
            coverage_violation(&w, &scn, &none, &survivors).expect("uncovered clients");
        assert_eq!(invariant, "takeover-coverage");
        assert!(detail.starts_with("c3 "), "{detail}");
    }
}
