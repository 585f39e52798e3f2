//! Property-based tests for the popularity forecast and the placement
//! rules, through the replica manager's real tick ([`Placement::tick`]):
//! the determinism contract (same demand stream ⇒ byte-identical
//! transition sequence and byte-identical placement decisions) that keeps
//! every server's election in lockstep.

use std::collections::BTreeMap;
use std::time::Duration;

use proptest::prelude::*;

use ftvod_core::config::{COOLDOWN_TICKS, HOT_SESSIONS_PER_REPLICA, MAX_REPLICAS};
use ftvod_core::forecast::FORECAST_STREAM;
use ftvod_core::protocol::{ClientId, ClientRecord};
use ftvod_core::server::replicas::{Decision, Holdings};
use ftvod_core::server::takeover::{Cx, Input};
use ftvod_core::server::{Placement, TakeoverTable};
use ftvod_core::{BringUpTrigger, DemandEntry, PolicyKind, PopState, VodConfig};
use gcs::{View, ViewId};
use media::{GopPattern, MovieId};
use simnet::{NodeId, SimTime, VecMap};

/// One synthetic sync tick of fleet-wide demand for a small catalog.
#[derive(Clone, Debug)]
struct Tick {
    /// Per movie: (sessions, waiting, replicas).
    demand: Vec<(u32, u32, u32)>,
}

fn tick_strategy(movies: usize) -> impl Strategy<Value = Tick> {
    proptest::collection::vec((0u32..40, 0u32..12, 1u32..6), movies..movies + 1)
        .prop_map(|demand| Tick { demand })
}

fn view(members: impl Iterator<Item = u32>) -> View {
    let id = ViewId {
        epoch: 1,
        coordinator: NodeId(1),
    };
    View::new(id, members.map(NodeId).collect())
}

/// A table that installed `view` on n1, through [`TakeoverTable::step`].
fn installed(view: View) -> TakeoverTable {
    let (cfg, gop) = (VodConfig::paper_default(), GopPattern::mpeg1());
    let sessions = VecMap::<ClientId, ClientRecord>::new();
    let cx = Cx {
        me: NodeId(1),
        now: SimTime::ZERO,
        cfg: &cfg,
        movie: MovieId(1),
        gop: &gop,
        fps: 30,
        sessions: &sessions,
    };
    let mut table = TakeoverTable::default();
    table.step(&cx, Input::View(view), &mut Vec::new());
    table
}

/// Files one tick's reports with `value`: movie `m` of `demand` (per movie:
/// sessions, waiting, replicas) is reported by servers `1..=replicas`, the
/// first of which carries its sessions.
fn file(value: &mut Placement, demand: &[(u32, u32, u32)], live: u32) {
    for server in 1..=live {
        let held = (1u32..).zip(demand).filter(|(_, d)| server <= d.2);
        let entries: Vec<DemandEntry> = held
            .map(|(m, &(sessions, waiting, _))| DemandEntry {
                movie: MovieId(m),
                sessions: if server == 1 { sessions } else { 0 },
                waiting,
            })
            .collect();
        value.file_report(NodeId(server), &entries, &[]);
    }
}

/// Replays `ticks` through the replica manager's real tick
/// ([`Placement::tick`]) on every one of `live` servers — movie `m` of a
/// tick is held by servers `1..=replicas`, the first of which carries its
/// sessions — recording every transition and every decision any server
/// was elected for as rendered lines.
fn replay(kind: PolicyKind, ticks: &[Tick], live: u32) -> Vec<String> {
    let mut fleet: Vec<Placement> = (1..=live).map(|_| Placement::new(kind)).collect();
    for value in &mut fleet {
        value.install_server_view(view(1..=live));
    }
    let mut log = Vec::new();
    for (t, tick) in ticks.iter().enumerate() {
        let movies = || (1u32..).zip(&tick.demand);
        let catalog: BTreeMap<MovieId, ()> = movies().map(|(m, _)| (MovieId(m), ())).collect();
        let tables: Vec<TakeoverTable> = movies()
            .map(|(_, &(_, _, replicas))| installed(view(1..=replicas.min(live))))
            .collect();
        for (me, value) in (1u32..).zip(&mut fleet) {
            file(value, &tick.demand, live);
            let held: Holdings<'_> = movies()
                .zip(&tables)
                .filter(|((_, d), _)| me <= d.2)
                .map(|((m, _), table)| (MovieId(m), table))
                .collect();
            let now = SimTime::ZERO + Duration::from_millis(500) * t as u32;
            let decisions = value.tick(NodeId(me), now, &held, &catalog);
            log.extend(decisions.iter().map(|d| format!("n{me} {d:?}")));
        }
        for (m, _) in movies() {
            let forecast = fleet[0].forecast(MovieId(m));
            let forecast = forecast.expect("observed this tick");
            let (state, heat) = (forecast.state().as_str(), forecast.heat());
            log.push(format!("m{m} {state} heat={heat}"));
        }
    }
    log
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Same seed + same demand stream ⇒ the transition sequence and the
    /// placement decisions are byte-identical across two independent
    /// replays, for every policy kind. This is the property the
    /// fleet-wide election correctness rests on: all servers feed the
    /// same aggregated demand and must reach the same verdicts.
    #[test]
    fn forecast_and_decisions_are_replay_deterministic(
        ticks in proptest::collection::vec(tick_strategy(3), 1..60),
        live in 2u32..8,
    ) {
        for kind in [PolicyKind::Reactive, PolicyKind::Predictive] {
            let a = replay(kind, &ticks, live);
            let b = replay(kind, &ticks, live);
            prop_assert_eq!(
                a.join("\n"),
                b.join("\n"),
                "replay diverged for {:?}",
                kind
            );
        }
    }

    /// Per-movie independence: a table fed the whole catalog and one fed
    /// only movie `target` agree on `target`'s forecast after every tick —
    /// per-movie machines are independently seeded, so the *order* and
    /// *set* of other movies cannot perturb a movie's transitions.
    #[test]
    fn per_movie_transitions_ignore_the_rest_of_the_catalog(
        pick in 0usize..4,
        ticks in proptest::collection::vec(tick_strategy(4), 1..40),
        predictive in any::<bool>(),
    ) {
        let kind = [PolicyKind::Reactive, PolicyKind::Predictive][usize::from(predictive)];
        let target = MovieId(1 + pick as u32);
        let (mut full, mut solo) = (Placement::new(kind), Placement::new(kind));
        let catalog: BTreeMap<MovieId, ()> = (1..=4).map(|m| (MovieId(m), ())).collect();
        for value in [&mut full, &mut solo] {
            value.install_server_view(view(1..=6));
        }
        for (t, tick) in ticks.iter().enumerate() {
            let mut alone = vec![(0, 0, 0); pick + 1];
            alone[pick] = tick.demand[pick];
            file(&mut full, &tick.demand, 6);
            file(&mut solo, &alone, 6);
            let now = SimTime::ZERO + Duration::from_millis(500) * t as u32;
            for value in [&mut full, &mut solo] {
                value.tick(NodeId(6), now, &Holdings::new(), &catalog);
            }
            prop_assert_eq!(full.forecast(target), solo.forecast(target));
            prop_assert!(full.forecast(target).is_some());
        }
    }

    /// Why `Predictive` needs no reactive-streak fallback: the reactive
    /// *hot* signal (`demand > HOT_SESSIONS_PER_REPLICA × replicas`) is the
    /// machine's own `over_now`, which sends every state to `Hot` on the
    /// tick that feeds it — so whenever the streak rule would count a hot
    /// tick the forecast already surges, and a `Predictive` table that is
    /// free to act (once any cooldown has run out, with room to grow)
    /// answers with the forecast trigger.
    #[test]
    fn a_reactive_hot_tick_is_always_a_forecast_surge(
        stream in proptest::collection::vec((0u32..120, 1u32..=8), 1..80),
    ) {
        let mut value = Placement::new(PolicyKind::Predictive);
        value.install_server_view(view(1..=9));
        let catalog = BTreeMap::from([(MovieId(1), ())]);
        let mut t = 0;
        let mut tick = |value: &mut Placement, demand: u32, replicas: u32| {
            file(value, &[(demand, 0, replicas)], 9);
            t += 1;
            let now = SimTime::ZERO + Duration::from_millis(500) * t;
            // The least-loaded non-holder; its copy lands at once and is
            // never reported, so the replica set stays put.
            let me = NodeId(replicas + 1);
            let decisions = value.tick(me, now, &Holdings::new(), &catalog);
            value.copy_landed(MovieId(1));
            decisions
        };
        for (demand, replicas) in stream {
            tick(&mut value, demand, replicas);
            if demand <= HOT_SESSIONS_PER_REPLICA * replicas {
                continue;
            }
            let state = value.forecast(MovieId(1)).map(|f| f.state());
            prop_assert_eq!(state, Some(PopState::Hot));
            // The same demand again until the cooldown has run out:
            let mut free = value.clone();
            let acted = (0..COOLDOWN_TICKS).find_map(|_| tick(&mut free, demand, replicas).pop());
            match acted {
                Some(Decision::BringUp(_, trigger)) => {
                    prop_assert!(replicas < MAX_REPLICAS);
                    prop_assert_eq!(trigger, BringUpTrigger::Forecast);
                }
                other => prop_assert!(replicas == MAX_REPLICAS && other.is_none(), "{:?}", other),
            }
        }
    }
}

/// The default forecast stream constant is pinned: changing it silently
/// would re-seed every per-movie machine and shift every fleet run.
#[test]
fn forecast_stream_constant_is_pinned() {
    assert_eq!(FORECAST_STREAM, 0x464f_5245_4341_5354);
}
