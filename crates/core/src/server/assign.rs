//! Deterministic client redistribution (paper §5.2).
//!
//! After every movie-group membership change the surviving replicas each
//! run this pure function over the same inputs (the shared client records
//! and the new view) and therefore agree on the assignment without any
//! extra communication round.
//!
//! The rule: clients in id order are greedily placed on the server with
//! the fewest clients assigned so far; ties go to the **highest** node id.
//! Preferring the higher id means a freshly brought-up server (which gets
//! a fresh, higher id in our deployments) immediately attracts load — the
//! paper's motivation for bringing servers up on the fly.

use std::cmp::Reverse;
use std::collections::BTreeMap;

use simnet::NodeId;

use crate::config::{FailoverMode, VodConfig, SHED_HEADROOM};
use crate::protocol::{ClientId, ClientRecord};

/// Capacity-aware assignment (admission control): servers accept at most
/// `capacity` clients each; clients that do not fit anywhere are returned
/// in the second element (in id order) and stay unserved until capacity
/// frees up.
pub fn assign_clients_with_capacity(
    clients: &[ClientId],
    servers: &[NodeId],
    capacity: Option<usize>,
) -> (BTreeMap<ClientId, NodeId>, Vec<ClientId>) {
    place(
        servers.iter().map(|&s| (s, Seat::default())).collect(),
        clients.iter().map(|&c| (c, None)).collect(),
        capacity,
        None,
    )
}

/// Geo-affine, capacity-aware assignment for multi-datacenter
/// deployments. Each client carries its home-site index (None = no
/// affinity), each server its site index (None = siteless).
///
/// Two deterministic passes over the shared load map:
///
/// 1. **Home pass** — clients in id order are placed on the least-loaded
///    server *of their home site* under the full capacity (a client with
///    no home may use any server). Ties go to the highest node id,
///    matching [`assign_clients_with_capacity`].
/// 2. **Rescue pass** (only when `allow_remote`) — clients the home pass
///    could not place go to the least-loaded server of *any* site, up to
///    `capacity + rescue_extra` sessions per server: under degraded
///    failover a rescuing server sheds per-stream quality to free the
///    bandwidth for `rescue_extra` sessions beyond its normal cap (the
///    paper's §5 quality adaptation applied to cross-DC failover). Plain
///    remote failover passes `rescue_extra = 0` and stays within the cap.
///
/// Clients that fit nowhere are returned in the second element.
pub fn assign_clients_geo(
    clients: &[(ClientId, Option<usize>)],
    servers: &[(NodeId, Option<usize>)],
    capacity: Option<usize>,
    allow_remote: bool,
    rescue_extra: usize,
) -> (BTreeMap<ClientId, NodeId>, Vec<ClientId>) {
    let seat = |&(s, site)| (s, Seat { site, sessions: 0 });
    place(
        servers.iter().map(seat).collect(),
        clients.to_vec(),
        capacity,
        allow_remote.then_some(rescue_extra),
    )
}

/// Redistribution after a movie-group membership change: every client
/// with a record (`records`: a borrowed map of them by client) is placed
/// afresh on the `members` of the new view. In a multi-datacenter
/// deployment that returns clients to their home site the moment its
/// servers are back in the view, and fails them over across the WAN (with
/// shedding, if so configured) while they are not.
pub fn redistribute_clients<'a>(
    cfg: &VodConfig,
    members: &[NodeId],
    records: impl IntoIterator<Item = (&'a ClientId, &'a ClientRecord)>,
) -> (BTreeMap<ClientId, NodeId>, Vec<ClientId>) {
    let clients = records.into_iter().map(|(_, r)| (r.client, r.client_node));
    place_in_view(cfg, members, std::iter::empty(), clients)
}

/// Admission of one client (connection establishment, or the retry of a
/// parked one): the same rule as [`redistribute_clients`], on top of the
/// load the movie's `records` already put on the view. The client's own
/// record — it has one while parked unserved — does not count as load.
/// Returns `None` when no member may take the client.
pub fn admit_client<'a>(
    cfg: &VodConfig,
    members: &[NodeId],
    records: impl IntoIterator<Item = (&'a ClientId, &'a ClientRecord)>,
    client: ClientId,
    client_node: NodeId,
) -> Option<NodeId> {
    let busy = records
        .into_iter()
        .filter(|(_, r)| r.client != client)
        .map(|(_, r)| r.owner);
    let clients = std::iter::once((client, client_node));
    let (mut assignment, _) = place_in_view(cfg, members, busy, clients);
    assignment.remove(&client)
}

/// The rule as `cfg` deploys it on one movie group: `members` of the view
/// start with one session of load per entry of `busy` (owners outside the
/// view count for nothing) and take the `(client, client node)` pairs of
/// `clients`. Without [`VodConfig::multidc`] nobody has a home and no
/// server a site, which is the single-datacenter rule; with it, homes and
/// sites come from its map and the rescue pass from its
/// [`FailoverMode`].
fn place_in_view(
    cfg: &VodConfig,
    members: &[NodeId],
    busy: impl Iterator<Item = NodeId>,
    clients: impl Iterator<Item = (ClientId, NodeId)>,
) -> (BTreeMap<ClientId, NodeId>, Vec<ClientId>) {
    let mdc = cfg.multidc.as_ref();
    let seat = |&m| {
        let site = mdc.and_then(|mdc| mdc.map.site_of_server(m));
        (m, Seat { site, sessions: 0 })
    };
    let mut seats: BTreeMap<NodeId, Seat> = members.iter().map(seat).collect();
    for owner in busy {
        if let Some(seat) = seats.get_mut(&owner) {
            seat.sessions += 1;
        }
    }
    let rescue_extra = mdc.and_then(|mdc| match mdc.mode {
        FailoverMode::HomeOnly => None,
        FailoverMode::Remote => Some(0),
        FailoverMode::RemoteDegraded => Some(SHED_HEADROOM as usize),
    });
    place(
        seats,
        clients
            .map(|(c, node)| (c, mdc.and_then(|mdc| mdc.map.home_site_of_client(node))))
            .collect(),
        cfg.max_sessions_per_server.map(|cap| cap as usize),
        rescue_extra,
    )
}

/// The replica manager's and the prefix tier's election: the candidate
/// carrying the least `load` (none recorded = idle), ties to the
/// **lowest** node id (session placement breaks them the other way).
pub(super) fn least_loaded(
    candidates: impl Iterator<Item = NodeId>,
    load: &BTreeMap<NodeId, u32>,
) -> Option<NodeId> {
    candidates.min_by_key(|n| (load.get(n).copied().unwrap_or(0), n.0))
}

/// A server as the placement rule sees it.
#[derive(Default)]
struct Seat {
    /// Site index (`None` = siteless).
    site: Option<usize>,
    /// Sessions it already carries.
    sessions: usize,
}

/// The one placement rule. Clients in id order (repeats dropped) each go
/// to the least-loaded server of their home site with room under
/// `capacity`, ties to the highest node id; a client without a home may
/// use any server. With `rescue_extra`, those the home pass left over
/// then go to the least-loaded server of any site with room under
/// `capacity + rescue_extra`. `seats` names the servers; every placement
/// adds a session to the winner's. Returns the owners and, in id order,
/// the clients that fit nowhere.
fn place(
    mut seats: BTreeMap<NodeId, Seat>,
    mut clients: Vec<(ClientId, Option<usize>)>,
    capacity: Option<usize>,
    rescue_extra: Option<usize>,
) -> (BTreeMap<ClientId, NodeId>, Vec<ClientId>) {
    clients.sort_unstable();
    clients.dedup_by_key(|(c, _)| *c);
    let mut elect = |cap: Option<usize>, home: Option<usize>| {
        let (&winner, seat) = seats
            .iter_mut()
            .filter(|(_, seat)| {
                (home.is_none() || seat.site == home) && cap.is_none_or(|cap| seat.sessions < cap)
            })
            .min_by_key(|(&server, seat)| (seat.sessions, Reverse(server)))?;
        seat.sessions += 1;
        Some(winner)
    };
    let mut assignment = BTreeMap::new();
    let mut unassigned = Vec::new();
    for (client, home) in clients {
        match elect(capacity, home) {
            Some(winner) => {
                assignment.insert(client, winner);
            }
            None => unassigned.push(client),
        }
    }
    if let Some(extra) = rescue_extra {
        let rescue_cap = capacity.map(|cap| cap + extra);
        unassigned.retain(|&client| match elect(rescue_cap, None) {
            Some(winner) => {
                assignment.insert(client, winner);
                false
            }
            None => true,
        });
    }
    (assignment, unassigned)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn c(id: u32) -> ClientId {
        ClientId(id)
    }

    fn n(id: u32) -> NodeId {
        NodeId(id)
    }

    #[test]
    fn single_client_goes_to_highest_id() {
        let a = assign_clients_with_capacity(&[c(1)], &[n(1), n(2)], None).0;
        assert_eq!(a[&c(1)], n(2));
    }

    #[test]
    fn fresh_server_attracts_the_client() {
        // The paper's load-balance scenario: client on n2, n3 brought up.
        let a = assign_clients_with_capacity(&[c(1)], &[n(2), n(3)], None).0;
        assert_eq!(a[&c(1)], n(3));
    }

    #[test]
    fn distribution_is_even() {
        let clients: Vec<ClientId> = (0..10).map(c).collect();
        let servers = [n(1), n(2), n(3)];
        let a = assign_clients_with_capacity(&clients, &servers, None).0;
        let mut counts: BTreeMap<NodeId, usize> = BTreeMap::new();
        for owner in a.values() {
            *counts.entry(*owner).or_default() += 1;
        }
        let max = counts.values().max().unwrap();
        let min = counts.values().min().unwrap();
        assert!(max - min <= 1, "uneven distribution: {counts:?}");
    }

    #[test]
    fn deterministic_regardless_of_input_order() {
        let a = assign_clients_with_capacity(&[c(3), c(1), c(2)], &[n(5), n(2)], None).0;
        let b = assign_clients_with_capacity(&[c(1), c(2), c(3)], &[n(2), n(5)], None).0;
        assert_eq!(a, b);
    }

    #[test]
    fn duplicate_clients_counted_once() {
        let a = assign_clients_with_capacity(&[c(1), c(1)], &[n(1)], None).0;
        assert_eq!(a.len(), 1);
    }

    #[test]
    fn no_servers_no_assignment() {
        assert!(assign_clients_with_capacity(&[c(1)], &[], None)
            .0
            .is_empty());
        let (map, unassigned) = assign_clients_with_capacity(&[c(1)], &[], Some(4));
        assert!(map.is_empty());
        assert_eq!(unassigned, vec![c(1)]);
    }

    #[test]
    fn capacity_limits_admission() {
        let clients: Vec<ClientId> = (1..=5).map(c).collect();
        let (map, unassigned) = assign_clients_with_capacity(&clients, &[n(1), n(2)], Some(2));
        assert_eq!(map.len(), 4, "2 servers × cap 2");
        assert_eq!(unassigned, vec![c(5)], "the highest id waits");
        let mut counts = BTreeMap::new();
        for owner in map.values() {
            *counts.entry(*owner).or_insert(0usize) += 1;
        }
        assert!(counts.values().all(|&n| n <= 2));
    }

    #[test]
    fn unlimited_capacity_matches_plain_assignment() {
        let clients: Vec<ClientId> = (1..=7).map(c).collect();
        let plain = assign_clients_with_capacity(&clients, &[n(1), n(2)], None).0;
        let (capped, unassigned) = assign_clients_with_capacity(&clients, &[n(1), n(2)], None);
        assert_eq!(plain, capped);
        assert!(unassigned.is_empty());
    }

    #[test]
    fn everyone_assigned() {
        let clients: Vec<ClientId> = (0..17).map(c).collect();
        let a = assign_clients_with_capacity(&clients, &[n(4), n(9)], None).0;
        assert_eq!(a.len(), 17);
    }

    #[test]
    fn geo_assignment_prefers_the_home_site() {
        // Two sites: servers 1,2 = site 0; servers 3,4 = site 1.
        let servers = [
            (n(1), Some(0)),
            (n(2), Some(0)),
            (n(3), Some(1)),
            (n(4), Some(1)),
        ];
        let clients = [(c(1), Some(0)), (c(2), Some(1)), (c(3), Some(0))];
        let (map, unassigned) = assign_clients_geo(&clients, &servers, Some(4), true, 1);
        assert!(unassigned.is_empty());
        assert!([n(1), n(2)].contains(&map[&c(1)]), "home affinity broken");
        assert!([n(3), n(4)].contains(&map[&c(2)]), "home affinity broken");
        assert!([n(1), n(2)].contains(&map[&c(3)]), "home affinity broken");
    }

    #[test]
    fn geo_rescue_goes_remote_only_when_allowed() {
        // Only site-1 servers are in the view: site-0 clients need rescue.
        let servers = [(n(3), Some(1)), (n(4), Some(1))];
        let clients = [(c(1), Some(0)), (c(2), Some(0))];
        let (map, unassigned) = assign_clients_geo(&clients, &servers, Some(4), true, 1);
        assert!(unassigned.is_empty());
        assert!([n(3), n(4)].contains(&map[&c(1)]));
        let (map, unassigned) = assign_clients_geo(&clients, &servers, Some(4), false, 1);
        assert!(map.is_empty(), "home-only mode must not fail over");
        assert_eq!(unassigned, vec![c(1), c(2)]);
    }

    #[test]
    fn geo_rescue_extra_extends_past_the_cap() {
        // One remote server, cap 2. Degraded failover (extra 1) admits
        // one rescue beyond the cap; plain remote (extra 0) stays within.
        let servers = [(n(3), Some(1))];
        let rescuees: Vec<(ClientId, Option<usize>)> = (1..=4).map(|i| (c(i), Some(0))).collect();
        let (map, unassigned) = assign_clients_geo(&rescuees, &servers, Some(2), true, 1);
        assert_eq!(map.len(), 3, "shed headroom admits one extra rescue");
        assert_eq!(unassigned, vec![c(4)]);
        let (map, unassigned) = assign_clients_geo(&rescuees, &servers, Some(2), true, 0);
        assert_eq!(map.len(), 2, "plain remote failover honors the cap");
        assert_eq!(unassigned, vec![c(3), c(4)]);
        // Home clients are placed first at the full cap; rescues only
        // use the shed slots that remain.
        let mixed = [
            (c(1), Some(0)),
            (c(2), Some(0)),
            (c(3), Some(1)),
            (c(4), Some(1)),
        ];
        let (map, unassigned) = assign_clients_geo(&mixed, &servers, Some(2), true, 1);
        assert_eq!(map.len(), 3, "homes fill the cap, one rescue sheds in");
        assert_eq!(unassigned, vec![c(2)]);
        assert_eq!(map[&c(3)], n(3));
        assert_eq!(map[&c(4)], n(3));
    }

    #[test]
    fn geo_without_homes_matches_plain_assignment() {
        let clients: Vec<ClientId> = (1..=7).map(c).collect();
        let geo: Vec<(ClientId, Option<usize>)> = clients.iter().map(|&c| (c, None)).collect();
        let servers = [(n(1), None), (n(2), None)];
        let (map, unassigned) = assign_clients_geo(&geo, &servers, None, true, 0);
        assert!(unassigned.is_empty());
        assert_eq!(
            map,
            assign_clients_with_capacity(&clients, &[n(1), n(2)], None).0
        );
    }
}
