//! Property-based tests for the popularity forecast and the placement
//! policies: the determinism contract (same seed + same demand stream ⇒
//! byte-identical transition sequence and byte-identical placement
//! decisions) that keeps every server's election in lockstep.

use std::collections::BTreeMap;
use std::time::Duration;

use proptest::prelude::*;

use ftvod_core::config::{COOLDOWN_TICKS, HOT_SESSIONS_PER_REPLICA, MAX_REPLICAS};
use ftvod_core::forecast::FORECAST_STREAM;
use ftvod_core::protocol::{ClientId, ClientRecord};
use ftvod_core::server::replicas::Holdings;
use ftvod_core::server::takeover::{Cx, Input};
use ftvod_core::server::{Placement, TakeoverTable};
use ftvod_core::{
    BringUpTrigger, DemandEntry, ForecastBank, MovieForecast, MovieObservation, PlacementAction,
    PlacementPolicy, PolicyKind, PopState, ReplicationConfig, VodConfig,
};
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

/// Replays `ticks` through the replica manager's real tick
/// ([`Placement::tick`]) on every one of `live` servers — movie `m` of a
/// tick is held by servers `1..=replicas`, the first of which carries its
/// sessions — recording every transition and every decision any server
/// was elected for as rendered lines.
fn replay(kind: PolicyKind, ticks: &[Tick], live: u32) -> Vec<String> {
    let cfg = VodConfig::paper_default()
        .with_dynamic_replication(ReplicationConfig::paper_default())
        .with_placement(kind);
    let servers = view(1..=live);
    let mut fleet: Vec<Placement> = (1..=live).map(|_| Placement::new(kind)).collect();
    let mut log = Vec::new();
    for (t, tick) in ticks.iter().enumerate() {
        let movies = || (1u32..).zip(&tick.demand);
        let catalog: BTreeMap<MovieId, ()> = movies().map(|(m, _)| (MovieId(m), ())).collect();
        let tables: Vec<TakeoverTable> = movies()
            .map(|(_, &(_, _, replicas))| installed(view(1..=replicas.min(live))))
            .collect();
        for (me, value) in (1u32..).zip(&mut fleet) {
            for server in 1..=live {
                let held = movies().filter(|(_, d)| server <= d.2);
                let entries: Vec<DemandEntry> = held
                    .map(|(m, &(sessions, waiting, _))| DemandEntry {
                        movie: MovieId(m),
                        sessions: if server == 1 { sessions } else { 0 },
                        waiting,
                    })
                    .collect();
                value.file_report(NodeId(server), &entries, &[]);
            }
            let held: Holdings<'_> = movies()
                .zip(&tables)
                .filter(|((_, d), _)| me <= d.2)
                .map(|((m, _), table)| (MovieId(m), table))
                .collect();
            let now = SimTime::ZERO + Duration::from_millis(500) * t as u32;
            let (decisions, _) = value.tick(NodeId(me), now, &cfg, &servers, &held, &catalog);
            log.extend(decisions.iter().map(|d| format!("n{me} {d:?}")));
        }
        for (m, _) in movies() {
            let forecast = fleet[0].forecasts().get(MovieId(m));
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

    /// The shared bank stream: two banks with the same seed observing the
    /// same demand stay in lockstep even when one is fed extra movies —
    /// per-movie machines are independently seeded, so the *order* and
    /// *set* of other movies cannot perturb a movie's transitions.
    #[test]
    fn per_movie_transitions_ignore_the_rest_of_the_catalog(
        seed in 0u64..1_000_000,
        ticks in proptest::collection::vec(tick_strategy(4), 1..40),
    ) {
        let target = MovieId(1);
        // Bank A sees the full catalog; bank B only the target movie.
        let mut full = ForecastBank::new(seed);
        let mut solo = ForecastBank::new(seed);
        for tick in &ticks {
            for (i, &(sessions, waiting, replicas)) in tick.demand.iter().enumerate() {
                let movie = MovieId(1 + i as u32);
                let state = full.observe(movie, sessions + waiting, replicas);
                if movie == target {
                    let solo_state = solo.observe(movie, sessions + waiting, replicas);
                    prop_assert_eq!(state, solo_state);
                }
            }
        }
        prop_assert_eq!(
            full.get(target).map(|f| f.heat()),
            solo.get(target).map(|f| f.heat())
        );
    }

    /// Why `Predictive` needs no reactive-streak fallback: the reactive
    /// *hot* signal (`demand > HOT_SESSIONS_PER_REPLICA × replicas`) is the
    /// machine's own `over_now`, which sends every state to `Hot` on the
    /// tick that feeds it — so whenever the streak rule would count a hot
    /// tick the forecast already surges, and a `Predictive` policy that is
    /// free to act answers with the forecast trigger.
    #[test]
    fn a_reactive_hot_tick_is_always_a_forecast_surge(
        seed in 0u64..1_000_000,
        stream in proptest::collection::vec((0u32..120, 1u32..=8), 1..80),
    ) {
        let mut forecast = MovieForecast::seeded(seed, MovieId(1));
        for (demand, replicas) in stream {
            forecast.observe(demand, replicas);
            if demand <= HOT_SESSIONS_PER_REPLICA * replicas {
                continue;
            }
            prop_assert_eq!(forecast.state(), PopState::Hot);
            // Past change detection and cooldown, with room to grow:
            let mut policy = PlacementPolicy::new(PolicyKind::Predictive);
            let obs = MovieObservation { movie: MovieId(1), sessions: demand, waiting: 0, replicas, live: 9 };
            let mut verdict = PlacementAction::Hold;
            for _ in 0..=COOLDOWN_TICKS {
                policy.begin_tick();
                verdict = policy.decide(&obs, &forecast);
            }
            let expected = match replicas < MAX_REPLICAS {
                true => PlacementAction::BringUp(BringUpTrigger::Forecast),
                false => PlacementAction::Hold,
            };
            prop_assert_eq!(verdict, expected);
        }
    }
}

/// The default forecast stream constant is pinned: changing it silently
/// would re-seed every per-movie machine and shift every fleet run.
#[test]
fn forecast_stream_constant_is_pinned() {
    assert_eq!(FORECAST_STREAM, 0x464f_5245_4341_5354);
}
