//! Takeover and admission are one placement rule
//! (`server/assign.rs`). Before they were, the rule was written four
//! times: twice for redistribution (`assign_clients_with_capacity`,
//! `assign_clients_geo`) and twice for admission (`elect_owner`,
//! `elect_owner_geo`), each pair behind a `match` on
//! `VodConfig::multidc`. This holds the one rule, over random views,
//! record sets, site maps and failover settings, to what those four
//! bodies returned — kept here, as they were, as the oracle.

use std::collections::BTreeMap;

use ftvod_core::config::{FailoverMode, MultiDcConfig, SiteMap, VodConfig, SHED_HEADROOM};
use ftvod_core::protocol::{session_group, ClientId, ClientRecord};
use ftvod_core::server::{
    admit_client, assign_clients_geo, assign_clients_with_capacity, redistribute_clients, UNSERVED,
};
use media::{FrameNo, MovieId};
use proptest::prelude::*;
use simnet::{NodeId, SimTime};

type Assignment = (BTreeMap<ClientId, NodeId>, Vec<ClientId>);
type Records = BTreeMap<ClientId, ClientRecord>;

fn old_assign_with_capacity(
    clients: &[ClientId],
    servers: &[NodeId],
    capacity: Option<usize>,
) -> Assignment {
    let mut assignment = BTreeMap::new();
    let mut unassigned = Vec::new();
    let mut sorted: Vec<ClientId> = clients.to_vec();
    sorted.sort_unstable();
    sorted.dedup();
    if servers.is_empty() {
        return (assignment, sorted);
    }
    let mut load: BTreeMap<NodeId, usize> = servers.iter().map(|&s| (s, 0)).collect();
    for client in sorted {
        let winner = load
            .iter()
            .filter(|&(_, &count)| capacity.is_none_or(|cap| count < cap))
            .min_by_key(|&(&server, &count)| (count, std::cmp::Reverse(server)))
            .map(|(&server, _)| server);
        match winner {
            Some(winner) => {
                *load.get_mut(&winner).expect("winner exists") += 1;
                assignment.insert(client, winner);
            }
            None => unassigned.push(client),
        }
    }
    (assignment, unassigned)
}

fn old_assign_geo(
    clients: &[(ClientId, Option<usize>)],
    servers: &[(NodeId, Option<usize>)],
    capacity: Option<usize>,
    allow_remote: bool,
    rescue_extra: usize,
) -> Assignment {
    let mut assignment = BTreeMap::new();
    let mut unassigned = Vec::new();
    let mut sorted: Vec<(ClientId, Option<usize>)> = clients.to_vec();
    sorted.sort_unstable();
    sorted.dedup_by_key(|(c, _)| *c);
    if servers.is_empty() {
        return (assignment, sorted.into_iter().map(|(c, _)| c).collect());
    }
    let site_of: BTreeMap<NodeId, Option<usize>> = servers.iter().copied().collect();
    let mut load: BTreeMap<NodeId, usize> = servers.iter().map(|&(s, _)| (s, 0)).collect();
    let pick =
        |load: &BTreeMap<NodeId, usize>, cap: Option<usize>, eligible: &dyn Fn(NodeId) -> bool| {
            load.iter()
                .filter(|&(&server, &count)| eligible(server) && cap.is_none_or(|cap| count < cap))
                .min_by_key(|&(&server, &count)| (count, std::cmp::Reverse(server)))
                .map(|(&server, _)| server)
        };
    let mut rescue: Vec<ClientId> = Vec::new();
    for &(client, home) in &sorted {
        let is_home = |server: NodeId| match home {
            Some(home) => site_of.get(&server).copied().flatten() == Some(home),
            None => true,
        };
        match pick(&load, capacity, &is_home) {
            Some(winner) => {
                *load.get_mut(&winner).expect("winner exists") += 1;
                assignment.insert(client, winner);
            }
            None => rescue.push(client),
        }
    }
    let rescue_cap = capacity.map(|cap| cap + rescue_extra);
    for client in rescue {
        let winner = allow_remote
            .then(|| pick(&load, rescue_cap, &|_| true))
            .flatten();
        match winner {
            Some(winner) => {
                *load.get_mut(&winner).expect("winner exists") += 1;
                assignment.insert(client, winner);
            }
            None => unassigned.push(client),
        }
    }
    (assignment, unassigned)
}

fn old_elect_owner(
    members: &[NodeId],
    records: &Records,
    except: ClientId,
    capacity: Option<usize>,
) -> Option<NodeId> {
    let mut load: BTreeMap<NodeId, usize> = members.iter().map(|&m| (m, 0)).collect();
    for record in records.values() {
        if record.client == except {
            continue;
        }
        if let Some(count) = load.get_mut(&record.owner) {
            *count += 1;
        }
    }
    load.iter()
        .filter(|&(_, &count)| capacity.is_none_or(|cap| count < cap))
        .min_by_key(|&(&server, &count)| (count, std::cmp::Reverse(server)))
        .map(|(&server, _)| server)
}

fn old_elect_owner_geo(
    members: &[NodeId],
    records: &Records,
    except: ClientId,
    capacity: Option<usize>,
    mdc: &MultiDcConfig,
    client_node: NodeId,
) -> Option<NodeId> {
    let mut load: BTreeMap<NodeId, usize> = members.iter().map(|&m| (m, 0)).collect();
    for record in records.values() {
        if record.client == except {
            continue;
        }
        if let Some(count) = load.get_mut(&record.owner) {
            *count += 1;
        }
    }
    let home = mdc.map.home_site_of_client(client_node);
    let pick = |cap: Option<usize>, eligible: &dyn Fn(NodeId) -> bool| {
        load.iter()
            .filter(|&(&server, &count)| eligible(server) && cap.is_none_or(|cap| count < cap))
            .min_by_key(|&(&server, &count)| (count, std::cmp::Reverse(server)))
            .map(|(&server, _)| server)
    };
    let is_home = |server: NodeId| match home {
        Some(home) => mdc.map.site_of_server(server) == Some(home),
        None => true,
    };
    if let Some(winner) = pick(capacity, &is_home) {
        return Some(winner);
    }
    let extra = match mdc.mode {
        FailoverMode::HomeOnly => return None,
        FailoverMode::Remote => 0,
        FailoverMode::RemoteDegraded => SHED_HEADROOM as usize,
    };
    let rescue_cap = capacity.map(|cap| cap + extra);
    pick(rescue_cap, &|_| true)
}

/// The `match &self.cfg.multidc` fork `VodServer::on_open` and
/// `try_admit` had.
fn old_admit(
    cfg: &VodConfig,
    members: &[NodeId],
    records: &Records,
    client: ClientId,
    client_node: NodeId,
) -> Option<NodeId> {
    let capacity = cfg.max_sessions_per_server.map(|c| c as usize);
    match &cfg.multidc {
        Some(mdc) => old_elect_owner_geo(members, records, client, capacity, mdc, client_node),
        None => old_elect_owner(members, records, client, capacity),
    }
}

/// The `match &self.cfg.multidc` fork `VodServer::redistribute` had.
fn old_redistribute(cfg: &VodConfig, members: &[NodeId], records: &Records) -> Assignment {
    let capacity = cfg.max_sessions_per_server.map(|c| c as usize);
    match &cfg.multidc {
        Some(mdc) => {
            let clients: Vec<(ClientId, Option<usize>)> = records
                .values()
                .map(|r| (r.client, mdc.map.home_site_of_client(r.client_node)))
                .collect();
            let servers: Vec<(NodeId, Option<usize>)> = members
                .iter()
                .map(|&n| (n, mdc.map.site_of_server(n)))
                .collect();
            let rescue_extra = match mdc.mode {
                FailoverMode::RemoteDegraded => SHED_HEADROOM as usize,
                FailoverMode::HomeOnly | FailoverMode::Remote => 0,
            };
            old_assign_geo(
                &clients,
                &servers,
                capacity,
                !matches!(mdc.mode, FailoverMode::HomeOnly),
                rescue_extra,
            )
        }
        None => {
            let clients: Vec<ClientId> = records.keys().copied().collect();
            old_assign_with_capacity(&clients, members, capacity)
        }
    }
}

const SERVERS: u32 = 6;
const CLIENTS: u32 = 8;
const MODES: [FailoverMode; 3] = [
    FailoverMode::HomeOnly,
    FailoverMode::Remote,
    FailoverMode::RemoteDegraded,
];

fn client_node(client: u32) -> NodeId {
    NodeId(100 + client)
}

fn record(client: u32, owner: NodeId) -> ClientRecord {
    ClientRecord {
        client: ClientId(client),
        client_node: client_node(client),
        session_group: session_group(ClientId(client)),
        movie: MovieId(1),
        next_frame: FrameNo(0),
        rate_fps: 30,
        max_fps: 30,
        owner,
        assigned_epoch: 1,
        updated_at: SimTime::ZERO,
        paused: false,
    }
}

/// `0` = on no site, `1`/`2` = on the first/second site.
fn site(index: u8) -> Option<usize> {
    index.checked_sub(1).map(usize::from)
}

/// Two sites over servers `1..=SERVERS` and the nodes of clients
/// `1..=CLIENTS + 1`, each placed by its entry in `server_sites` /
/// `client_homes` (see [`site`]).
fn site_map(server_sites: &[u8], client_homes: &[u8]) -> SiteMap {
    let on = |sites: &[u8], which: u8, node: fn(u32) -> NodeId| -> Vec<NodeId> {
        (1u32..)
            .zip(sites)
            .filter(|&(_, &s)| s == which)
            .map(|(id, _)| node(id))
            .collect()
    };
    let mut map = SiteMap::new();
    for (which, name) in [(1, "east"), (2, "west")] {
        let index = map.add_site(name, &on(server_sites, which, NodeId));
        map.home_clients(index, &on(client_homes, which, client_node));
    }
    map
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4096))]

    #[test]
    fn one_rule_places_as_the_four_did(
        view in prop::collection::btree_set(1u32..SERVERS + 1, 0..SERVERS as usize + 1),
        owners in prop::collection::vec(0u32..SERVERS + 3, CLIENTS as usize..CLIENTS as usize + 1),
        sites in (
            prop::collection::vec(0u8..3, SERVERS as usize..SERVERS as usize + 1),
            prop::collection::vec(0u8..3, CLIENTS as usize + 1..CLIENTS as usize + 2),
        ),
        knobs in (0u32..5, 0usize..4),
    ) {
        let members: Vec<NodeId> = view.into_iter().map(NodeId).collect();
        // Owner 0 = no record, 1..=SERVERS = that server (in the view or
        // not), above = parked unserved.
        let records: Records = (1u32..)
            .zip(owners)
            .filter(|&(_, owner)| owner != 0)
            .map(|(client, owner)| {
                let owner = if owner <= SERVERS { NodeId(owner) } else { UNSERVED };
                (ClientId(client), record(client, owner))
            })
            .collect();
        let (server_sites, client_homes) = sites;
        let (cap, mode) = knobs;
        let mut cfg = VodConfig::paper_default();
        cfg.max_sessions_per_server = cap.checked_sub(1);
        // Mode 3 = a single-datacenter deployment.
        if let Some(&mode) = MODES.get(mode) {
            let mdc = MultiDcConfig::new(site_map(&server_sites, &client_homes)).with_mode(mode);
            cfg = cfg.with_multidc(mdc);
        }

        prop_assert_eq!(
            redistribute_clients(&cfg, &members, &records),
            old_redistribute(&cfg, &members, &records)
        );
        // Every client with a record — served, parked or owned by a
        // server that left the view — and one without.
        for client in 1..=CLIENTS + 1 {
            let node = client_node(client);
            prop_assert_eq!(
                admit_client(&cfg, &members, &records, ClientId(client), node),
                old_admit(&cfg, &members, &records, ClientId(client), node),
                "admitting c{}", client
            );
        }

        // The public callers, on unsorted input with a repeated client.
        let capacity = cfg.max_sessions_per_server.map(|c| c as usize);
        let mut geo_clients: Vec<(ClientId, Option<usize>)> = (1u32..)
            .zip(&client_homes)
            .map(|(client, &home)| (ClientId(client), site(home)))
            .collect();
        geo_clients.reverse();
        geo_clients.push((ClientId(1), None));
        let geo_servers: Vec<(NodeId, Option<usize>)> = members
            .iter()
            .map(|&m| (m, site(server_sites[m.0 as usize - 1])))
            .rev()
            .collect();
        for allow_remote in [false, true] {
            prop_assert_eq!(
                assign_clients_geo(
                    &geo_clients, &geo_servers, capacity, allow_remote, SHED_HEADROOM as usize,
                ),
                old_assign_geo(
                    &geo_clients, &geo_servers, capacity, allow_remote, SHED_HEADROOM as usize,
                )
            );
        }
        let plain_clients: Vec<ClientId> = geo_clients.iter().map(|&(c, _)| c).collect();
        let plain_servers: Vec<NodeId> = geo_servers.iter().map(|&(s, _)| s).collect();
        prop_assert_eq!(
            assign_clients_with_capacity(&plain_clients, &plain_servers, capacity),
            old_assign_with_capacity(&plain_clients, &plain_servers, capacity)
        );
    }
}

#[test]
fn a_parked_client_is_admitted_past_its_own_record() {
    // One server with room for one. The client's own record names that
    // server (a stale owner): counted as load it would shut itself out.
    let cfg = VodConfig::paper_default().with_session_cap(1);
    let members = [NodeId(1)];
    let records: Records = [(ClientId(1), record(1, NodeId(1)))].into();
    let admitted = admit_client(&cfg, &members, &records, ClientId(1), client_node(1));
    assert_eq!(admitted, Some(NodeId(1)));
    // Anyone else finds the server full.
    let other = admit_client(&cfg, &members, &records, ClientId(2), client_node(2));
    assert_eq!(other, None);
}

#[test]
fn an_even_load_goes_to_the_highest_id() {
    let cfg = VodConfig::paper_default();
    let members = [NodeId(1), NodeId(2), NodeId(3)];
    let records = Records::new();
    let admitted = admit_client(&cfg, &members, &records, ClientId(1), client_node(1));
    assert_eq!(admitted, Some(NodeId(3)));
}
