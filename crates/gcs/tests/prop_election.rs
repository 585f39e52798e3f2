//! `Membership::election` answers its common case — nothing pending,
//! nobody suspected — without building anything. This holds it, over
//! arbitrary membership states and suspicion sets, to the full
//! computation it short-cuts: the body it had before the early-out, kept
//! here as the oracle.

use std::collections::BTreeSet;

use gcs::proto::{FlushRound, ForeignView, Membership};
use gcs::{GroupStatus, View, ViewId};
use proptest::prelude::*;
use simnet::NodeId;

/// The election as it was computed before the early-out existed.
fn full_election(
    m: &Membership,
    node: NodeId,
    suspected: &BTreeSet<NodeId>,
) -> Option<(u64, Vec<NodeId>)> {
    if m.status != GroupStatus::Member || m.flush.is_some() || m.leaving {
        return None;
    }
    let stateless = |x: &NodeId| m.pending_joiners.contains(x) && *x != node;
    let alive: Vec<NodeId> = m
        .view
        .members
        .iter()
        .copied()
        .filter(|x| !suspected.contains(x) && !stateless(x))
        .collect();
    if alive.first() != Some(&node) {
        return None;
    }
    let mut candidates: BTreeSet<NodeId> = alive.iter().copied().collect();
    for joiner in &m.pending_joiners {
        if !suspected.contains(joiner) {
            candidates.insert(*joiner);
        }
    }
    for leaver in &m.pending_leavers {
        candidates.remove(leaver);
    }
    let mut merge_epoch = 0;
    for info in m.foreign.values() {
        let min_other = info.members.iter().copied().filter(|&x| x != node).min();
        if min_other.is_some_and(|other| node < other) {
            merge_epoch = merge_epoch.max(info.vid.epoch);
            candidates.extend(
                info.members
                    .iter()
                    .copied()
                    .filter(|x| !suspected.contains(x)),
            );
        }
    }
    candidates.insert(node);
    let candidates: Vec<NodeId> = candidates.into_iter().collect();
    let needs_reinstall = m
        .view
        .members
        .iter()
        .any(|x| stateless(x) && !suspected.contains(x));
    if candidates == m.view.members && !needs_reinstall {
        return None;
    }
    let epoch = m.max_epoch_seen.max(merge_epoch).max(m.view.id.epoch) + 1;
    Some((epoch, candidates))
}

/// A small id universe, so views, requests, foreign views and suspicions
/// overlap more often than not.
fn node_set(max_len: usize) -> impl Strategy<Value = BTreeSet<NodeId>> {
    prop::collection::btree_set((1u32..7).prop_map(NodeId), 0..max_len + 1)
}

fn vid(epoch: u64, coordinator: u32) -> ViewId {
    ViewId {
        epoch,
        coordinator: NodeId(coordinator),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4096))]

    #[test]
    fn early_out_equals_the_full_computation(
        view in (node_set(5), 0u64..6, 1u32..7),
        requests in (node_set(2), node_set(2), node_set(3)),
        foreign in prop::collection::vec((1u32..7, 0u64..9, node_set(4)), 0..3),
        flags in (0u8..4, 0u8..64, 0u64..9, 1u32..7),
    ) {
        let (members, epoch, coordinator) = view;
        let (mut joiners, mut leavers, mut suspected) = requests;
        let (status, mask, max_epoch_seen, node) = flags;
        // Each low mask bit empties one input of the early-out's test, so
        // a good share of cases reach the early-out from every side.
        if mask & 1 != 0 {
            joiners.clear();
        }
        if mask & 2 != 0 {
            leavers.clear();
        }
        if mask & 4 != 0 {
            suspected.clear();
        }
        let mut m = Membership::new();
        m.status = [
            GroupStatus::Member,
            GroupStatus::Member,
            GroupStatus::Flushing,
            GroupStatus::Joining,
        ][status as usize];
        m.view = View::new(vid(epoch, coordinator), members.into_iter().collect());
        m.had_view = true;
        m.max_epoch_seen = max_epoch_seen;
        m.pending_joiners = joiners;
        m.pending_leavers = leavers;
        m.leaving = mask & 16 != 0 && mask & 32 != 0;
        if mask & 8 == 0 {
            for (announcer, epoch, members) in foreign {
                let view = ForeignView {
                    vid: vid(epoch, announcer),
                    members: members.into_iter().collect(),
                };
                m.foreign.insert(NodeId(announcer), view);
            }
        }
        let node = NodeId(node);
        prop_assert_eq!(m.election(node, &suspected), full_election(&m, node, &suspected));
        // A coordinator mid-flush never elects, early-out or not.
        m.flush = Some(FlushRound {
            vid: vid(epoch + 1, node.0),
            candidates: m.view.members.clone(),
            acked: BTreeSet::new(),
        });
        prop_assert_eq!(m.election(node, &suspected), None);
    }
}

#[test]
fn a_settled_view_stands_until_a_member_is_suspected() {
    // A settled three-member view: the early-out's home ground.
    let mut m = Membership::new();
    m.status = GroupStatus::Member;
    m.view = View::new(vid(3, 1), vec![NodeId(1), NodeId(2), NodeId(3)]);
    let nobody = BTreeSet::new();
    assert_eq!(m.election(NodeId(1), &nobody), None);
    assert_eq!(full_election(&m, NodeId(1), &nobody), None);
    // One suspicion of a member leaves it, and both agree on the proposal.
    let suspect_3: BTreeSet<NodeId> = [NodeId(3)].into();
    let proposal = Some((4, vec![NodeId(1), NodeId(2)]));
    assert_eq!(m.election(NodeId(1), &suspect_3), proposal);
    assert_eq!(full_election(&m, NodeId(1), &suspect_3), proposal);
    // Suspecting a stranger does not: the view still stands.
    let suspect_9: BTreeSet<NodeId> = [NodeId(9)].into();
    assert_eq!(m.election(NodeId(1), &suspect_9), None);
    assert_eq!(full_election(&m, NodeId(1), &suspect_9), None);
}
