//! Multi-datacenter failover integration: on the fixed two-site scenario
//! (correlated east-site crash mid-run), cross-DC failover must strictly
//! reduce unserved client-seconds versus the home-only baseline, the
//! degraded mode must admit at least as many rescues as plain remote
//! failover, the oracle's site-aware invariants must hold on the
//! failover runs, the whole pipeline must be byte-deterministic, and the
//! links must follow the scenario's one declaration of its sites.

use ftvod_core::campaign::{self, Outcome};
use ftvod_core::oracle::summary_token;
use ftvod_core::{FailoverMode, VodEvent};
use simnet::LinkProfile;

const SEED: u64 = 42;

struct MultiDcRun {
    outcome: Outcome,
    degraded_serves: usize,
    render: String,
}

fn run_multidc(seed: u64, mode: FailoverMode) -> MultiDcRun {
    let wired = campaign::multidc(mode, seed);
    let mut sim = wired.builder.build();
    sim.run_until(wired.end);
    let outcome = wired.judge(&sim);
    let degraded_serves = sim
        .trace()
        .with_recorder(|rec| {
            rec.events()
                .filter(|(_, e)| matches!(e, VodEvent::DegradedServe { .. }))
                .count()
        })
        .expect("recording on");
    let render = format!("{}\n{}", outcome.fleet.render(), outcome.run);
    MultiDcRun {
        outcome,
        degraded_serves,
        render,
    }
}

#[test]
fn cross_dc_failover_strictly_beats_the_home_only_baseline() {
    let home_only = run_multidc(SEED, FailoverMode::HomeOnly);
    let remote = run_multidc(SEED, FailoverMode::Remote);
    let degraded = run_multidc(SEED, FailoverMode::RemoteDegraded);

    // The site fault must actually bite under home-only: stranded east
    // clients stall until their home site returns, while cross-DC rescue
    // bridges them within the repair bound.
    assert!(
        home_only.outcome.fleet.total_unserved() > remote.outcome.fleet.total_unserved(),
        "failover must strictly reduce unserved time: home-only {:.3}s vs remote {:.3}s",
        home_only.outcome.fleet.total_unserved(),
        remote.outcome.fleet.total_unserved()
    );
    assert!(
        remote.outcome.fleet.total_unserved() >= degraded.outcome.fleet.total_unserved(),
        "shed headroom must not hurt: remote {:.3}s vs degraded {:.3}s",
        remote.outcome.fleet.total_unserved(),
        degraded.outcome.fleet.total_unserved()
    );

    // Degraded mode is the only one allowed to emit degraded serves, and
    // on this scenario it must actually exercise them.
    assert_eq!(home_only.degraded_serves, 0);
    assert_eq!(remote.degraded_serves, 0);
    assert!(
        degraded.degraded_serves > 0,
        "the east-site crash must force degraded rescues"
    );
    assert_eq!(
        degraded.outcome.run.degraded_serves,
        degraded.degraded_serves as u64
    );

    // The failover runs hold every oracle invariant, including the three
    // site-aware ones.
    assert_eq!(summary_token(&remote.outcome.oracle), "PASS");
    assert_eq!(summary_token(&degraded.outcome.oracle), "PASS");
}

#[test]
fn multidc_runs_are_byte_deterministic() {
    for mode in [
        FailoverMode::HomeOnly,
        FailoverMode::Remote,
        FailoverMode::RemoteDegraded,
    ] {
        let a = run_multidc(7, mode);
        let b = run_multidc(7, mode);
        assert_eq!(
            a.render,
            b.render,
            "mode {} must be byte-identical across runs",
            mode.as_str()
        );
        assert_eq!(a.outcome.oracle, b.outcome.oracle);
    }
}

/// `multidc_builder` declares its sites once, as the configuration's
/// `SiteMap`; the built simulation routes by the topology derived from
/// it. Every server and every homed client the map names (as the trace's
/// `SiteDefined` events report them) sits in the map's site, with LAN
/// links inside a site and WAN links between them.
#[test]
fn the_simulator_routes_by_the_site_map() {
    let wired = campaign::multidc(FailoverMode::RemoteDegraded, SEED);
    let mut sim = wired.builder.build();
    let sites = sim
        .trace()
        .with_recorder(|rec| {
            rec.events()
                .filter_map(|(_, e)| match e {
                    VodEvent::SiteDefined { site } => Some((**site).clone()),
                    _ => None,
                })
                .collect::<Vec<_>>()
        })
        .expect("recording on");
    assert_eq!(sites.len(), 2, "east and west");
    let topology = sim.sim_mut().topology().expect("derived from the site map");
    assert_eq!(topology.site_count(), sites.len());
    assert_eq!(topology.lan(), &LinkProfile::lan());
    assert_eq!(topology.wan(), &LinkProfile::wan());
    for site in &sites {
        let index = site.index as usize;
        assert_eq!(topology.site_name(index), Some(site.name.as_str()));
        assert!(!site.servers.is_empty() && !site.clients.is_empty());
        for &node in site.servers.iter().chain(&site.clients) {
            assert_eq!(
                topology.site_of(node),
                Some(index),
                "{node} in {}",
                site.name
            );
        }
    }
    let (east, west) = (&sites[0], &sites[1]);
    assert_eq!(
        topology.profile_for(east.clients[0], west.servers[0]),
        &LinkProfile::wan()
    );
    assert_eq!(
        topology.profile_for(east.clients[0], east.servers[0]),
        &LinkProfile::lan()
    );
}
