//! `ftvod-cli` — run fault-tolerant VoD scenarios from the command line.
//!
//! ```text
//! ftvod-cli lan [--seed N]                  the paper's Figure 4 scenario
//! ftvod-cli wan [--seed N]                  the paper's Figure 5 scenario
//! ftvod-cli trace <lan|wan> [--seed N] [--out FILE]
//!                                           run a preset and export the
//!                                           cross-layer event stream as
//!                                           JSON Lines (stdout by default)
//! ftvod-cli report <lan|wan> [--seed N] [--json]
//!                                           run a preset and print the
//!                                           derived run report: takeover
//!                                           latency breakdown (view-change
//!                                           + resume), delivery latency
//!                                           percentiles, glitch windows;
//!                                           --json emits the machine-readable
//!                                           form incl. oracle verdicts
//! ftvod-cli custom [options]                build your own deployment
//!   --servers N        replicas at start            (default 2)
//!   --clients M        viewers                      (default 1)
//!   --seconds S        how long to run              (default 60)
//!   --profile P        lan | wan | wan-reserved     (default lan)
//!   --crash T          crash the serving replica at T seconds (repeatable)
//!   --shutdown T       gracefully detach the serving replica at T
//!   --seed N           determinism seed             (default 42)
//! ftvod-cli fleet [options]                 generated fleet workload with
//!                                           dynamic replica management
//!   --servers N        VoD servers                  (default 4)
//!   --clients M        generated sessions           (default 96)
//!   --movies K         catalog size                 (default 6)
//!   --zipf S           popularity exponent          (default 1.1)
//!   --cap C            admission cap per server     (default 3M/2N)
//!   --seconds S        run length override
//!   --static           disable the dynamic replica manager
//!   --policy P         reactive | predictive        (default reactive)
//!   --prefix-secs S    enable the prefix-cache tier (default prefix 10s)
//!   --prefix-movies K  prefix-cache budget per server (default 4)
//!   --seed N           determinism seed             (default 42)
//! ftvod-cli flash [options]                 flash-crowd sweep: predictive
//!                                           placement + prefix cache vs a
//!                                           10x popularity shock; exits
//!                                           nonzero if the oracle fails
//!   --seeds N          number of sweep seeds        (default 10)
//!   --seed N           first seed                   (default 1)
//!   --compare          two-policy table on one seed
//! ftvod-cli chaos [options]                 seeded fault campaigns checked
//!                                           by the safety oracle; exits
//!                                           nonzero if any invariant fails
//!   --seeds N          number of campaign seeds     (default 5)
//!   --seed N           first seed                   (default 1)
//!   --faults K         fault slots per campaign     (default 6)
//!   --clients M        sessions per campaign        (default 24)
//!   --sync-ms MS       server sync interval         (default 500)
//!   --plan             print each campaign's fault schedule
//!   --summary          end with each invariant's failure rate
//! ftvod-cli multidc [options]               two-datacenter site-crash sweep
//!                                           under remote-degraded failover,
//!                                           checked by the safety oracle;
//!                                           exits nonzero on any violation
//!   --seeds N          number of sweep seeds        (default 10)
//!   --seed N           first seed                   (default 1)
//!   --compare          three-mode table on one seed
//! ftvod-cli check [options]                 exhaustively model-check the
//!                                           membership state machine over a
//!                                           small scope; exits nonzero with
//!                                           a minimal counterexample trace
//!                                           if any invariant fails
//!   --nodes N          formed members               (default 3)
//!   --joiners J        extra nodes that may join    (default 0)
//!   --leaver ID        member that may leave gracefully
//!   --drops K          message-loss budget          (default 0)
//!   --clients M        clients for takeover coverage (default 4)
//!   --depth D          interleaving depth bound     (default 5)
//!   --max-states S     distinct-state cap           (default 400000)
//!   --revert-pr4-fix   disable the PR 4 expulsion fix (must fail)
//! ftvod-cli experiment <id | all>           regenerate a figure or table of
//!                                           the paper's evaluation (fig2 fig4
//!                                           fig5 T1-T5 T7 A1-A4 FD E1-E3);
//!                                           exits nonzero if any paper-vs-
//!                                           measured verdict differs from
//!                                           its recorded expectation
//! ```
//!
//! `lan`, `wan`, `custom` and `fleet` also accept `--net-csv FILE` to
//! export the per-class network traffic counters as CSV.
//!
//! Every subcommand also accepts `--help`/`-h`.

use std::process::ExitCode;
use std::str::FromStr;
use std::time::Duration;

use ftvod::prelude::*;
use ftvod::vod::campaign::{self, Outcome};
use ftvod::vod::experiments;
use ftvod_mc::{explore, CheckConfig, ProtoConfig, Scenario};

/// The one flag parser: a cursor over a subcommand's arguments. Callers
/// loop over [`Flags::next`], `match` the flag names they know, pull
/// typed values with [`Flags::value`] and send everything else to
/// [`unknown`].
struct Flags<'a>(std::slice::Iter<'a, String>);

impl<'a> Flags<'a> {
    fn new(args: &'a [String]) -> Self {
        Flags(args.iter())
    }

    fn next(&mut self) -> Option<&'a str> {
        self.0.next().map(String::as_str)
    }

    /// The value following flag `name`, parsed as `T`.
    fn value<T: FromStr>(&mut self, name: &str) -> Result<T, String>
    where
        T::Err: std::fmt::Display,
    {
        self.next()
            .ok_or_else(|| format!("{name} needs a value"))?
            .parse()
            .map_err(|e| format!("{name}: {e}"))
    }
}

fn unknown<T>(flag: &str) -> Result<T, String> {
    Err(format!("unknown flag {flag}"))
}

/// The longest `--seconds` a run may ask for. The event queue's key holds
/// 2⁴⁸ µs (≈ 281.47 million s) of simulated time; the rest is slack for the
/// timers and the movie a run schedules past its end.
const MAX_RUN_SECONDS: u64 = 280_000_000;

/// Rejects a time in seconds (`flag`'s value) the event queue cannot
/// schedule.
fn check_run_seconds(flag: &str, seconds: u64) -> Result<(), String> {
    if seconds > MAX_RUN_SECONDS {
        return Err(format!(
            "{flag} must be at most {MAX_RUN_SECONDS} (the event queue holds 2^48 us)"
        ));
    }
    Ok(())
}

/// Rejects a `--servers` whose server nodes reach the first client node:
/// a client booted on a server's node replaces the server.
fn check_server_nodes(servers: u32, first_client_node: u32) -> Result<(), String> {
    if servers >= first_client_node {
        return Err(format!(
            "--servers must be below {first_client_node}: clients run on nodes {first_client_node} and up"
        ));
    }
    Ok(())
}

#[derive(Debug, Clone, PartialEq)]
struct CustomOptions {
    servers: u32,
    clients: u32,
    seconds: u64,
    profile: String,
    crashes: Vec<u64>,
    shutdowns: Vec<u64>,
    seed: u64,
    net_csv: Option<String>,
}

impl Default for CustomOptions {
    fn default() -> Self {
        CustomOptions {
            servers: 2,
            clients: 1,
            seconds: 60,
            profile: "lan".to_owned(),
            crashes: Vec::new(),
            shutdowns: Vec::new(),
            seed: 42,
            net_csv: None,
        }
    }
}

fn parse_custom(args: &[String]) -> Result<CustomOptions, String> {
    let mut opts = CustomOptions::default();
    let mut flags = Flags::new(args);
    while let Some(flag) = flags.next() {
        match flag {
            "--servers" => opts.servers = flags.value(flag)?,
            "--clients" => opts.clients = flags.value(flag)?,
            "--seconds" => opts.seconds = flags.value(flag)?,
            "--profile" => opts.profile = flags.value(flag)?,
            "--crash" => opts.crashes.push(flags.value(flag)?),
            "--shutdown" => opts.shutdowns.push(flags.value(flag)?),
            "--seed" => opts.seed = flags.value(flag)?,
            "--net-csv" => opts.net_csv = Some(flags.value(flag)?),
            other => return unknown(other),
        }
    }
    if opts.servers == 0 || opts.clients == 0 {
        return Err("need at least one server and one client".to_owned());
    }
    if opts.servers <= opts.crashes.len() as u32 + opts.shutdowns.len() as u32 {
        return Err("cannot remove every replica".to_owned());
    }
    // Client `c` (from 1) runs on node 100 + c.
    check_server_nodes(opts.servers, 101)?;
    check_run_seconds("--seconds", opts.seconds)?;
    for &at in &opts.crashes {
        check_run_seconds("--crash", at)?;
    }
    for &at in &opts.shutdowns {
        check_run_seconds("--shutdown", at)?;
    }
    Ok(opts)
}

#[derive(Debug, Clone, PartialEq)]
struct FleetOptions {
    servers: u32,
    clients: u32,
    movies: u32,
    zipf: f64,
    cap: Option<u32>,
    seconds: Option<u64>,
    dynamic: bool,
    policy: PolicyKind,
    prefix_secs: Option<u64>,
    prefix_movies: Option<u32>,
    seed: u64,
    net_csv: Option<String>,
}

impl FleetOptions {
    /// The prefix-cache tier configuration, if either prefix flag was
    /// given; the other falls back to the paper default.
    fn prefix_cache(&self) -> Option<PrefixCacheConfig> {
        if self.prefix_secs.is_none() && self.prefix_movies.is_none() {
            return None;
        }
        let mut cfg = PrefixCacheConfig::paper_default();
        if let Some(secs) = self.prefix_secs {
            cfg.prefix = Duration::from_secs(secs);
        }
        if let Some(budget) = self.prefix_movies {
            cfg.budget = budget;
        }
        Some(cfg)
    }
}

impl Default for FleetOptions {
    fn default() -> Self {
        FleetOptions {
            servers: 4,
            clients: 96,
            movies: 6,
            zipf: 1.1,
            cap: None,
            seconds: None,
            dynamic: true,
            policy: PolicyKind::Reactive,
            prefix_secs: None,
            prefix_movies: None,
            seed: 42,
            net_csv: None,
        }
    }
}

fn parse_fleet(args: &[String]) -> Result<FleetOptions, String> {
    let mut opts = FleetOptions::default();
    let mut flags = Flags::new(args);
    while let Some(flag) = flags.next() {
        match flag {
            "--servers" => opts.servers = flags.value(flag)?,
            "--clients" => opts.clients = flags.value(flag)?,
            "--movies" => opts.movies = flags.value(flag)?,
            "--zipf" => opts.zipf = flags.value(flag)?,
            "--cap" => opts.cap = Some(flags.value(flag)?),
            "--seconds" => opts.seconds = Some(flags.value(flag)?),
            "--static" => opts.dynamic = false,
            "--policy" => opts.policy = PolicyKind::parse(&flags.value::<String>(flag)?)?,
            "--prefix-secs" => opts.prefix_secs = Some(flags.value(flag)?),
            "--prefix-movies" => opts.prefix_movies = Some(flags.value(flag)?),
            "--seed" => opts.seed = flags.value(flag)?,
            "--net-csv" => opts.net_csv = Some(flags.value(flag)?),
            other => return unknown(other),
        }
    }
    if opts.servers == 0 || opts.clients == 0 || opts.movies == 0 {
        return Err("need at least one server, one client and one movie".to_owned());
    }
    if !opts.zipf.is_finite() || opts.zipf < 0.0 {
        return Err("--zipf must be a finite non-negative exponent".to_owned());
    }
    if opts.cap == Some(0) {
        return Err("--cap must be at least 1".to_owned());
    }
    if opts.prefix_secs == Some(0) {
        return Err("--prefix-secs must be positive (omit it to disable the cache)".to_owned());
    }
    if opts.prefix_movies == Some(0) {
        return Err("--prefix-movies must be positive (omit it to disable the cache)".to_owned());
    }
    if !opts.dynamic && opts.policy != PolicyKind::Reactive {
        return Err("--policy needs the dynamic replica manager (drop --static)".to_owned());
    }
    if !opts.dynamic && opts.prefix_cache().is_some() {
        return Err(
            "--prefix-secs and --prefix-movies need the dynamic replica manager (drop --static)"
                .to_owned(),
        );
    }
    // Session `i` (from 0) runs on node 1000 + i.
    check_server_nodes(opts.servers, 1000)?;
    if let Some(seconds) = opts.seconds {
        check_run_seconds("--seconds", seconds)?;
    }
    Ok(opts)
}

fn run_fleet(opts: &FleetOptions) -> Result<(), String> {
    let mut profile = FleetProfile::small_fleet();
    profile.servers = opts.servers;
    profile.clients = opts.clients;
    profile.catalog_size = opts.movies;
    profile.zipf_exponent = opts.zipf;
    // Default cap: total fleet capacity is ~1.5x the offered load, so the
    // fleet as a whole has room, but a single-copy hot movie still
    // bottlenecks on its lone holder — the case dynamic replication fixes.
    let cap = opts
        .cap
        .unwrap_or_else(|| (opts.clients * 3 / 2).div_ceil(opts.servers).max(1));
    profile.sessions_per_server = Some(cap);
    let replication = opts.dynamic.then(ReplicationConfig::paper_default);
    let mut cfg = fleet_config(&profile, replication).with_placement(opts.policy);
    let prefix = opts.prefix_cache();
    if let Some(prefix) = prefix {
        cfg = cfg.with_prefix_cache(prefix);
    }
    let (mut builder, plan) = fleet_builder_with_config(&profile, opts.seed, cfg);
    builder.record_events(DEFAULT_EVENT_CAPACITY);
    let end = opts
        .seconds
        .map_or_else(|| profile.run_until(), SimTime::from_secs);
    let prefix_note = prefix.map_or(String::new(), |p| {
        format!(", prefix cache {}s x {}", p.prefix.as_secs(), p.budget)
    });
    println!(
        "fleet: {} servers (cap {cap}), {} sessions over {} movies, zipf {:.2}, {} replication ({} placement){prefix_note}, seed {}",
        profile.servers,
        profile.clients,
        profile.catalog_size,
        profile.zipf_exponent,
        if opts.dynamic { "dynamic" } else { "static" },
        opts.policy.as_str(),
        opts.seed,
    );
    let mut sim = builder.build();
    sim.run_until(end);
    let report = FleetReport::from_sim(&plan, &sim, end);
    print!("{}", report.render());
    let run = sim.report().expect("fleet runs record");
    println!(
        "replication: {} bring-up(s), {} retire(s)",
        run.replica_bringups, run.replica_retires
    );
    if run.prefix_serves > 0 {
        println!(
            "prefix tier: {} serve(s), {} handoff(s), {:.1}s of waiting avoided",
            run.prefix_serves, run.prefix_handoffs, run.prefix_seconds_avoided
        );
    }
    println!("\n{}", run.summary_line());
    write_net_csv(&sim, opts.net_csv.as_deref())
}

#[derive(Debug, Clone, PartialEq)]
struct ChaosOptions {
    seeds: u32,
    seed: u64,
    faults: u32,
    clients: u32,
    sync_ms: u64,
    plan: bool,
    summary: bool,
}

impl Default for ChaosOptions {
    fn default() -> Self {
        ChaosOptions {
            seeds: 5,
            seed: 1,
            faults: campaign::CHAOS_FAULTS,
            clients: campaign::CHAOS_CLIENTS,
            sync_ms: campaign::CHAOS_SYNC.as_millis() as u64,
            plan: false,
            summary: false,
        }
    }
}

fn parse_chaos(args: &[String]) -> Result<ChaosOptions, String> {
    let mut opts = ChaosOptions::default();
    let mut flags = Flags::new(args);
    while let Some(flag) = flags.next() {
        match flag {
            "--seeds" => opts.seeds = flags.value(flag)?,
            "--seed" => opts.seed = flags.value(flag)?,
            "--faults" => opts.faults = flags.value(flag)?,
            "--clients" => opts.clients = flags.value(flag)?,
            "--sync-ms" => opts.sync_ms = flags.value(flag)?,
            "--plan" => opts.plan = true,
            "--summary" => opts.summary = true,
            other => return unknown(other),
        }
    }
    if opts.seeds == 0 {
        return Err("--seeds must be at least 1".to_owned());
    }
    seed_range(opts.seed, opts.seeds)?;
    if opts.clients == 0 {
        return Err("--clients must be at least 1".to_owned());
    }
    if opts.sync_ms == 0 {
        return Err("--sync-ms must be positive".to_owned());
    }
    Ok(opts)
}

/// Checks that a sweep of `seeds` (at least one) from `seed` ends within
/// `u64`: its last seed is `seed + seeds - 1`.
fn seed_range(seed: u64, seeds: u32) -> Result<(), String> {
    if seed.checked_add(u64::from(seeds) - 1).is_none() {
        return Err(format!(
            "--seed {seed} with --seeds {seeds} runs past the last seed, {}",
            u64::MAX
        ));
    }
    Ok(())
}

/// The sweep behind `chaos`, `flash` and `multidc`: runs `seeds`
/// consecutive seeds through `run_seed` (which prints the seed's row and
/// hands back what it was judged by), prints the oracle's detail for each
/// failing seed, and ends with the tally — or the failing seeds and how to
/// replay the first one.
fn sweep(
    cmd: &str,
    noun: &str,
    replay_flag: &str,
    seeds: u32,
    first_seed: u64,
    mut run_seed: impl FnMut(u64) -> Outcome,
) -> Result<(), String> {
    let mut failing: Vec<u64> = Vec::new();
    for seed in first_seed..=first_seed + u64::from(seeds - 1) {
        let outcome = run_seed(seed);
        if !outcome.oracle.pass() {
            print!("{}", outcome.oracle);
            failing.push(seed);
        }
    }
    let Some(first) = failing.first() else {
        println!("{cmd}: {seeds}/{seeds} {noun} passed the oracle");
        return Ok(());
    };
    Err(format!(
        "{} of {seeds} {noun} violated a safety invariant (seeds {failing:?}); replay with: ftvod-cli {cmd} --seeds 1 --seed {first} {replay_flag}",
        failing.len(),
    ))
}

/// The `--compare` table of `flash` and `multidc`: one labelled row per
/// outcome, failing if a gated row's oracle does.
fn compare_table(
    width: usize,
    what: &str,
    rows: impl Iterator<Item = (&'static str, bool, Outcome, String)>,
) -> Result<(), String> {
    let mut any_fail = false;
    for (label, gated, outcome, line) in rows {
        println!("{label:<width$} {line}");
        if gated && !outcome.oracle.pass() {
            any_fail = true;
            print!("{}", outcome.oracle);
        }
    }
    if any_fail {
        Err(format!("a {what} run violated a safety invariant"))
    } else {
        Ok(())
    }
}

fn run_chaos(opts: &ChaosOptions) -> Result<(), String> {
    println!(
        "chaos: {} campaign(s) from seed {}, {} fault slot(s), {} session(s), sync {} ms",
        opts.seeds, opts.seed, opts.faults, opts.clients, opts.sync_ms
    );
    let sync = Duration::from_millis(opts.sync_ms);
    // Failing campaigns per invariant, in the oracle's report order.
    let mut failing: Vec<(&'static str, u64)> = Vec::new();
    let verdict = sweep(
        "chaos",
        "campaign(s)",
        "--plan",
        opts.seeds,
        opts.seed,
        |seed| {
            let (campaign, faults) = campaign::chaos(opts.clients, opts.faults, sync, seed);
            let outcome = campaign.run();
            println!("seed {seed}: {}", outcome.chaos_line(&faults));
            if opts.plan {
                print!("{}", faults.render());
            }
            let verdicts = outcome.oracle.verdicts();
            if failing.is_empty() {
                failing = verdicts.map(|(name, _)| (name, 0)).to_vec();
            }
            for ((_, fails), (_, verdict)) in failing.iter_mut().zip(verdicts) {
                *fails += u64::from(verdict.is_fail());
            }
            outcome
        },
    );
    if opts.summary {
        let runs = u64::from(opts.seeds);
        for (name, fails) in failing {
            let (low, high) = wilson_95(fails, runs);
            println!(
                "{name:<30} {fails:>5} / {runs} failed  95% Wilson [{:.2}%, {:.2}%]",
                100.0 * low,
                100.0 * high
            );
        }
    }
    verdict
}

/// The 95 % Wilson score interval of a rate of `k` in `n`: unlike the
/// normal approximation, it stays inside [0, 1] and is not empty at 0.
fn wilson_95(k: u64, n: u64) -> (f64, f64) {
    const Z: f64 = 1.96;
    let (p, n) = (k as f64 / n as f64, n as f64);
    let spread = Z * Z / n;
    let center = (p + spread / 2.0) / (1.0 + spread);
    let half = Z / (1.0 + spread) * (p * (1.0 - p) / n + spread / (4.0 * n)).sqrt();
    ((center - half).max(0.0), (center + half).min(1.0))
}

/// The options of the two seed sweeps, `flash` and `multidc`.
#[derive(Debug, Clone, PartialEq)]
struct SweepOptions {
    seeds: u32,
    seed: u64,
    compare: bool,
}

impl Default for SweepOptions {
    fn default() -> Self {
        SweepOptions {
            seeds: 10,
            seed: 1,
            compare: false,
        }
    }
}

fn parse_sweep(args: &[String]) -> Result<SweepOptions, String> {
    let mut opts = SweepOptions::default();
    let mut flags = Flags::new(args);
    while let Some(flag) = flags.next() {
        match flag {
            "--seeds" => opts.seeds = flags.value(flag)?,
            "--seed" => opts.seed = flags.value(flag)?,
            "--compare" => opts.compare = true,
            other => return unknown(other),
        }
    }
    if opts.seeds == 0 {
        return Err("--seeds must be at least 1".to_owned());
    }
    // `--compare` runs `--seed` alone.
    if !opts.compare {
        seed_range(opts.seed, opts.seeds)?;
    }
    Ok(opts)
}

fn run_flash(opts: &SweepOptions) -> Result<(), String> {
    let profile = FleetProfile::flash_crowd();
    let shock = profile.shock.expect("flash_crowd has a shock");
    if opts.compare {
        // EXPERIMENTS.md E7: the policy table on one seed. The reactive
        // baseline runs bare; the predictive policy gets the prefix-cache
        // tier it is designed to feed.
        println!(
            "flash: policy comparison on seed {}, {}x shock at {}s on movie {}",
            opts.seed,
            shock.factor,
            shock.at.as_secs(),
            profile.catalog_size,
        );
        let rows = [
            ("reactive", PolicyKind::Reactive, false),
            ("predictive+prefix", PolicyKind::Predictive, true),
        ];
        return compare_table(
            18,
            "comparison",
            rows.into_iter().map(|(label, policy, prefix)| {
                let outcome = campaign::flash(policy, prefix, opts.seed).run();
                let line = outcome.flash_line();
                (label, true, outcome, line)
            }),
        );
    }
    println!(
        "flash: {} run(s) from seed {}, predictive placement + prefix cache, {}x shock at {}s",
        opts.seeds,
        opts.seed,
        shock.factor,
        shock.at.as_secs(),
    );
    sweep(
        "flash",
        "run(s)",
        "--compare",
        opts.seeds,
        opts.seed,
        |seed| {
            let outcome = campaign::flash(PolicyKind::Predictive, true, seed).run();
            println!("seed {seed}: {}", outcome.flash_line());
            outcome
        },
    )
}

fn run_multidc(opts: &SweepOptions) -> Result<(), String> {
    if opts.compare {
        // EXPERIMENTS.md E8: the three-mode table on one seed. The
        // home-only baseline is expected to strand the east clients (and
        // thereby fail the repair invariants), so only the failover modes
        // are gated on the oracle.
        println!(
            "multidc: failover comparison on seed {}, east site down {}s..{}s",
            opts.seed,
            MULTIDC_FAULT_AT.as_secs(),
            MULTIDC_HEAL_AT.as_secs(),
        );
        let rows = [
            ("home-only", FailoverMode::HomeOnly, false),
            ("remote", FailoverMode::Remote, true),
            ("remote-degraded", FailoverMode::RemoteDegraded, true),
        ];
        return compare_table(
            16,
            "failover",
            rows.into_iter().map(|(label, mode, gated)| {
                let outcome = campaign::multidc(mode, opts.seed).run();
                let line = outcome.multidc_line();
                (label, gated, outcome, line)
            }),
        );
    }
    println!(
        "multidc: {} run(s) from seed {}, remote-degraded failover, east site down {}s..{}s",
        opts.seeds,
        opts.seed,
        MULTIDC_FAULT_AT.as_secs(),
        MULTIDC_HEAL_AT.as_secs(),
    );
    sweep(
        "multidc",
        "run(s)",
        "--compare",
        opts.seeds,
        opts.seed,
        |seed| {
            let outcome = campaign::multidc(FailoverMode::RemoteDegraded, seed).run();
            println!("seed {seed}: {}", outcome.multidc_line());
            outcome
        },
    )
}

#[derive(Debug, Clone, PartialEq)]
struct CheckOptions {
    nodes: u32,
    joiners: u32,
    leaver: Option<u32>,
    drops: u32,
    clients: u32,
    depth: u32,
    max_states: usize,
    revert_pr4_fix: bool,
}

impl Default for CheckOptions {
    fn default() -> Self {
        CheckOptions {
            nodes: 3,
            joiners: 0,
            leaver: None,
            drops: 0,
            clients: 4,
            depth: 5,
            max_states: 400_000,
            revert_pr4_fix: false,
        }
    }
}

fn parse_check(args: &[String]) -> Result<CheckOptions, String> {
    let mut opts = CheckOptions::default();
    let mut flags = Flags::new(args);
    while let Some(flag) = flags.next() {
        match flag {
            "--nodes" => opts.nodes = flags.value(flag)?,
            "--joiners" => opts.joiners = flags.value(flag)?,
            "--leaver" => opts.leaver = Some(flags.value(flag)?),
            "--drops" => opts.drops = flags.value(flag)?,
            "--clients" => opts.clients = flags.value(flag)?,
            "--depth" => opts.depth = flags.value(flag)?,
            "--max-states" => opts.max_states = flags.value(flag)?,
            "--revert-pr4-fix" => opts.revert_pr4_fix = true,
            other => return unknown(other),
        }
    }
    if opts.nodes < 2 {
        return Err("--nodes must be at least 2 (a singleton has no protocol to check)".to_owned());
    }
    if opts.nodes + opts.joiners > 5 {
        return Err("--nodes plus --joiners must stay at or below 5 (state explosion)".to_owned());
    }
    if let Some(l) = opts.leaver {
        if l == 0 || l > opts.nodes {
            return Err(format!(
                "--leaver must name a formed member (1..={})",
                opts.nodes
            ));
        }
    }
    if opts.clients == 0 {
        return Err("--clients must be at least 1".to_owned());
    }
    if opts.depth == 0 {
        return Err("--depth must be at least 1".to_owned());
    }
    if opts.max_states == 0 {
        return Err("--max-states must be at least 1".to_owned());
    }
    Ok(opts)
}

fn run_check(opts: &CheckOptions) -> Result<(), String> {
    let mut scn = Scenario::formed(opts.nodes);
    scn.joiners = opts.joiners;
    scn.leavers = opts.leaver.into_iter().collect();
    scn.max_drops = opts.drops;
    scn.clients = opts.clients;
    if opts.revert_pr4_fix {
        scn.cfg = ProtoConfig {
            reform_on_expulsion: false,
        };
    }
    let cfg = CheckConfig {
        depth: opts.depth,
        max_states: opts.max_states,
        check_merge: true,
    };
    println!(
        "check: {} member(s), {} joiner(s), {} leaver(s), budgets {} crash / {} partition / {} drop, depth {}{}",
        scn.members,
        scn.joiners,
        scn.leavers.len(),
        scn.max_crashes,
        scn.max_partitions,
        scn.max_drops,
        cfg.depth,
        if opts.revert_pr4_fix {
            " [PR 4 expulsion fix reverted]"
        } else {
            ""
        },
    );
    let report = explore(&scn, &cfg);
    print!("{report}");
    if report.pass() {
        Ok(())
    } else {
        Err("the model checker found an invariant violation".to_owned())
    }
}

fn profile_by_name(name: &str) -> Result<LinkProfile, String> {
    match name {
        "lan" => Ok(LinkProfile::lan()),
        "wan" => Ok(LinkProfile::wan()),
        "wan-reserved" => Ok(LinkProfile::wan_reserved()),
        other => Err(format!(
            "unknown profile {other} (lan | wan | wan-reserved)"
        )),
    }
}

/// Exports the per-class network counters as CSV when a path was given.
fn write_net_csv(sim: &VodSim, path: Option<&str>) -> Result<(), String> {
    let Some(path) = path else {
        return Ok(());
    };
    let csv = sim.net_stats().to_csv();
    std::fs::write(path, &csv).map_err(|e| format!("writing {path}: {e}"))?;
    println!("wrote network counters to {path}");
    Ok(())
}

fn summarize(sim: &VodSim, clients: &[ClientId]) {
    println!(
        "\n{:<8} {:>8} {:>10} {:>8} {:>8} {:>8} {:>8}   served by",
        "client", "received", "displayed", "late", "skipped", "stalls", "emerg"
    );
    for &c in clients {
        let Some(stats) = sim.client_stats(c) else {
            continue;
        };
        println!(
            "{:<8} {:>8} {:>10} {:>8} {:>8} {:>8} {:>8}   {:?}",
            c.to_string(),
            stats.frames_received,
            sim.client_displayed(c).unwrap_or(0),
            stats.late.total(),
            stats.skipped.total(),
            stats.stalls.total(),
            stats.emergencies.total(),
            sim.owner_of(c),
        );
        for (at, dur) in &stats.interruptions {
            println!("         interruption at t={at:.2}s for {dur:.2}s");
        }
    }
    println!("\nnetwork traffic:\n{}", sim.net_stats());
}

/// What `lan`, `wan`, `trace` and `report` take: a preset, a seed and the
/// one extra each of them knows.
#[derive(Debug, Clone, PartialEq)]
struct PresetArgs {
    which: &'static str,
    seed: u64,
    net_csv: Option<String>,
    out: Option<String>,
    json: bool,
}

/// Parses the arguments after `cmd`: `lan`/`wan` name the preset
/// themselves, `trace`/`report` take it as their first argument.
fn parse_preset(cmd: &str, args: &[String]) -> Result<PresetArgs, String> {
    let mut flags = Flags::new(args);
    let named = if matches!(cmd, "lan" | "wan") {
        Some(cmd)
    } else {
        flags.next()
    };
    let which = match named {
        Some("lan") => "lan",
        Some("wan") => "wan",
        Some(other) => {
            return Err(format!(
                "expected a preset scenario (lan | wan), got \"{other}\""
            ))
        }
        None => return Err("expected a preset scenario (lan | wan)".to_owned()),
    };
    let mut parsed = PresetArgs {
        which,
        seed: 42,
        net_csv: None,
        out: None,
        json: false,
    };
    while let Some(flag) = flags.next() {
        match (cmd, flag) {
            (_, "--seed") => parsed.seed = flags.value(flag)?,
            ("lan" | "wan", "--net-csv") => parsed.net_csv = Some(flags.value(flag)?),
            ("trace", "--out") => parsed.out = Some(flags.value(flag)?),
            ("report", "--json") => parsed.json = true,
            (_, other) => return unknown(other),
        }
    }
    Ok(parsed)
}

fn run_preset(args: &PresetArgs) -> Result<(), String> {
    let (which, seed) = (args.which, args.seed);
    let (mut builder, a, b) = match which {
        "lan" => presets::fig4_lan(seed),
        _ => presets::fig5_wan(seed),
    };
    builder.record_events(DEFAULT_EVENT_CAPACITY);
    let (first, second) = if which == "lan" {
        (("crash", a), ("load balance", b))
    } else {
        (("load balance", a), ("crash", b))
    };
    println!("running the paper's {which} scenario (seed {seed}):");
    println!("  {} at {}, {} at {}", first.0, first.1, second.0, second.1);
    let mut sim = builder.build();
    sim.run_until(SimTime::from_secs(92));
    summarize(&sim, &[presets::CLIENT_ID]);
    if let Some(report) = sim.report() {
        println!("\n{}", report.summary_line());
    }
    write_net_csv(&sim, args.net_csv.as_deref())
}

/// Runs a preset with event recording and hands the finished sim back.
fn traced_preset(which: &str, seed: u64) -> VodSim {
    let (mut builder, _, _) = match which {
        "lan" => presets::fig4_lan(seed),
        _ => presets::fig5_wan(seed),
    };
    builder.record_events(DEFAULT_EVENT_CAPACITY);
    let mut sim = builder.build();
    sim.run_until(SimTime::from_secs(92));
    sim
}

fn run_trace(args: &PresetArgs) -> Result<(), String> {
    let sim = traced_preset(args.which, args.seed);
    let jsonl = sim.events_jsonl().expect("recording was enabled");
    match &args.out {
        Some(path) => {
            std::fs::write(path, &jsonl).map_err(|e| format!("writing {path}: {e}"))?;
            println!("wrote {} events to {path}", jsonl.lines().count());
        }
        None => print!("{jsonl}"),
    }
    Ok(())
}

fn run_report(args: &PresetArgs) -> Result<(), String> {
    let (which, seed) = (args.which, args.seed);
    let sim = traced_preset(which, seed);
    let mut report = sim.report().expect("recording was enabled");
    let oracle = campaign::oracle(&sim);
    let pass = oracle.pass();
    report.oracle = Some(oracle);
    if args.json {
        print!("{}", report.to_json());
    } else {
        println!("{which} scenario, seed {seed}:\n");
        print!("{report}");
    }
    if pass {
        Ok(())
    } else {
        Err("the safety oracle flagged an invariant violation".to_owned())
    }
}

/// Where `experiment` puts its CSV artifacts, relative to the invoking
/// directory.
const EXPERIMENT_ARTIFACTS: &str = "target/experiments";

/// `experiment` takes exactly one positional — an experiment id or
/// `all` — and no flag: it always judges.
fn parse_experiment(args: &[String]) -> Result<&'static [experiments::Experiment], String> {
    if let Some(flag) = args.iter().find(|arg| arg.starts_with('-')) {
        return unknown(flag);
    }
    match args {
        [which] => experiments::select(which),
        [] => Err("expected an experiment id or \"all\" (--help lists the ids)".to_owned()),
        [_, stray, ..] => Err(format!("unexpected argument \"{stray}\"")),
    }
}

fn run_experiment(rows: &[experiments::Experiment]) -> Result<(), String> {
    let report = experiments::run(rows);
    print!("{}", report.text());
    report
        .write_artifacts(std::path::Path::new(EXPERIMENT_ARTIFACTS))
        .map_err(|e| format!("writing under {EXPERIMENT_ARTIFACTS}: {e}"))?;
    report.gate()
}

fn run_custom(opts: &CustomOptions) -> Result<(), String> {
    let profile = profile_by_name(&opts.profile)?;
    let servers: Vec<NodeId> = (1..=opts.servers).map(NodeId).collect();
    let clients: Vec<ClientId> = (1..=opts.clients).map(ClientId).collect();
    let movie = Movie::generate(
        MovieId(1),
        &MovieSpec::paper_default().with_duration(Duration::from_secs(opts.seconds + 40)),
    );
    let mut builder = ScenarioBuilder::new(opts.seed);
    builder.network(profile).movie(movie, &servers);
    for &s in &servers {
        builder.server(s);
    }
    for (i, &c) in clients.iter().enumerate() {
        builder.client(
            c,
            NodeId(100 + c.0),
            MovieId(1),
            SimTime::from_secs(2 + i as u64 / 4),
        );
    }
    // Crashes/shutdowns target the highest-id replicas (the serving order).
    let mut victims = servers.clone();
    for &t in &opts.crashes {
        if let Some(victim) = victims.pop() {
            println!("scheduling crash of {victim} at t={t}s");
            builder.crash_at(SimTime::from_secs(t), victim);
        }
    }
    for &t in &opts.shutdowns {
        if let Some(victim) = victims.pop() {
            println!("scheduling graceful shutdown of {victim} at t={t}s");
            builder.shutdown_at(SimTime::from_secs(t), victim);
        }
    }
    builder.record_events(DEFAULT_EVENT_CAPACITY);
    let mut sim = builder.build();
    sim.run_until(SimTime::from_secs(opts.seconds));
    summarize(&sim, &clients);
    if let Some(report) = sim.report() {
        println!("\n{}", report.summary_line());
    }
    write_net_csv(&sim, opts.net_csv.as_deref())
}

fn exit_from(result: Result<(), String>) -> ExitCode {
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(err) => {
            eprintln!("error: {err}");
            ExitCode::FAILURE
        }
    }
}

/// Per-subcommand usage text; anything else gets the overview.
fn usage_for(topic: &str) -> &'static str {
    match topic {
        "lan" | "wan" => {
            "usage: ftvod-cli <lan | wan> [--seed N] [--net-csv FILE]\n\n\
             Run the paper's Figure 4 (lan) or Figure 5 (wan) scenario and\n\
             print per-client statistics plus the run-report summary.\n\n\
             options:\n\
             \x20 --seed N        determinism seed (default 42)\n\
             \x20 --net-csv FILE  export per-class network counters as CSV"
        }
        "trace" => {
            "usage: ftvod-cli trace <lan | wan> [--seed N] [--out FILE]\n\n\
             Run a preset scenario and export the cross-layer event stream\n\
             as JSON Lines (stdout unless --out is given).\n\n\
             options:\n\
             \x20 --seed N     determinism seed (default 42)\n\
             \x20 --out FILE   write the JSONL stream to FILE"
        }
        "report" => {
            "usage: ftvod-cli report <lan | wan> [--seed N] [--json]\n\n\
             Run a preset scenario and print the derived run report:\n\
             takeover-latency breakdowns (view change + resume), delivery\n\
             latency percentiles, glitch windows, replication decisions.\n\n\
             options:\n\
             \x20 --seed N     determinism seed (default 42)\n\
             \x20 --json       emit the machine-readable report (schema\n\
             \x20              ftvod-report/v1) including oracle verdicts"
        }
        "custom" => {
            "usage: ftvod-cli custom [options]\n\n\
             Build your own deployment: N replicas serving one movie to M\n\
             viewers, with crash and graceful-shutdown injections.\n\n\
             options:\n\
             \x20 --servers N    replicas at start                  (default 2)\n\
             \x20 --clients M    viewers                            (default 1)\n\
             \x20 --seconds S    how long to run                    (default 60)\n\
             \x20 --profile P    lan | wan | wan-reserved           (default lan)\n\
             \x20 --crash T      crash the serving replica at T (repeatable)\n\
             \x20 --shutdown T   gracefully detach the serving replica at T\n\
             \x20 --seed N       determinism seed                   (default 42)\n\
             \x20 --net-csv FILE export per-class network counters as CSV"
        }
        "fleet" => {
            "usage: ftvod-cli fleet [options]\n\n\
             Generate a deterministic fleet workload (Zipf popularity,\n\
             Poisson arrivals, VCR mix, churn) and run it with demand-driven\n\
             dynamic replica management. The same seed always produces the\n\
             same report, byte for byte.\n\n\
             options:\n\
             \x20 --servers N    VoD servers                        (default 4)\n\
             \x20 --clients M    generated sessions                 (default 96)\n\
             \x20 --movies K     catalog size                       (default 6)\n\
             \x20 --zipf S       popularity exponent                (default 1.1)\n\
             \x20 --cap C        admission cap per server           (default 3M/2N)\n\
             \x20 --seconds S    run length override (default: until the plan ends)\n\
             \x20 --static       disable the dynamic replica manager\n\
             \x20 --policy P     reactive | predictive              (default reactive)\n\
             \x20 --prefix-secs S    enable the prefix-cache tier: cache the\n\
             \x20                    first S seconds of hot movies  (default 10)\n\
             \x20 --prefix-movies K  prefix-cache budget per server (default 4)\n\
             \x20 --seed N       determinism seed                   (default 42)\n\
             \x20 --net-csv FILE export per-class network counters as CSV"
        }
        "flash" => {
            "usage: ftvod-cli flash [options]\n\n\
             Run the fixed flash-crowd scenario — a cold tail movie with a\n\
             single replica whose popularity multiplies mid-run while\n\
             replica bring-up takes seconds — under the predictive\n\
             placement policy with the prefix-cache tier, across a sweep\n\
             of seeds, judging every run with the safety oracle.\n\
             The same seed always produces the same line, byte for byte.\n\
             Exits nonzero if any run violates an invariant.\n\n\
             With --compare, one seed is run under both placement\n\
             policies (reactive bare, predictive with the prefix\n\
             cache) and the verdicts are printed side by side —\n\
             the EXPERIMENTS.md E7 table.\n\n\
             options:\n\
             \x20 --seeds N      number of sweep seeds              (default 10)\n\
             \x20 --seed N       first seed                         (default 1)\n\
             \x20 --compare      two-policy comparison on one seed"
        }
        "chaos" => {
            "usage: ftvod-cli chaos [options]\n\n\
             Run seeded fault campaigns — crash/restart cycles, pairwise\n\
             partitions with heals, correlated loss bursts — against a\n\
             four-server fleet, then judge each run with the safety\n\
             oracle. The same seed always produces the same campaign and\n\
             the same verdicts, byte for byte. Exits nonzero if any\n\
             campaign violates an invariant, printing the first failing\n\
             seed for replay.\n\n\
             options:\n\
             \x20 --seeds N      number of campaign seeds           (default 5)\n\
             \x20 --seed N       first seed                         (default 1)\n\
             \x20 --faults K     fault slots per campaign           (default 6)\n\
             \x20 --clients M    sessions per campaign              (default 24)\n\
             \x20 --sync-ms MS   server sync interval in ms         (default 500)\n\
             \x20 --plan         print each campaign's fault schedule\n\
             \x20 --summary      end with each invariant's failing count, the\n\
             \x20                sweep size and a 95% Wilson interval"
        }
        "multidc" => {
            "usage: ftvod-cli multidc [options]\n\n\
             Run the fixed two-datacenter scenario — east and west sites\n\
             over a WAN, geo-affine clients, every movie replicated on\n\
             both sites — with a correlated crash of the whole east site\n\
             mid-run, under remote-degraded failover, across a sweep of\n\
             seeds, judging every run with the safety oracle\n\
             (including the site-aware invariants: re-serve after a site\n\
             fault, geo-affinity restored after the heal, degraded serving\n\
             only while the home site is down). The same seed always\n\
             produces the same line, byte for byte. Exits nonzero if any\n\
             run violates an invariant.\n\n\
             With --compare, one seed is run under all three failover\n\
             modes (home-only, remote, remote-degraded) and the verdicts\n\
             are printed side by side — the EXPERIMENTS.md E8 table. The\n\
             home-only baseline strands the east clients by design, so\n\
             only the failover rows are gated on the oracle.\n\n\
             options:\n\
             \x20 --seeds N      number of sweep seeds              (default 10)\n\
             \x20 --seed N       first seed                         (default 1)\n\
             \x20 --compare      three-mode comparison on one seed"
        }
        "check" => {
            "usage: ftvod-cli check [options]\n\n\
             Exhaustively model-check the GCS membership state machine\n\
             (gcs::proto) over a small scope: breadth-first exploration of\n\
             every interleaving of message delivery, loss, crash, restart,\n\
             partition and heal, with safety invariants (view agreement,\n\
             member-in-own-view) checked at every distinct state and\n\
             liveness (eventual merge, takeover coverage) checked via a\n\
             deterministic fair closure. The same scope always renders the\n\
             same report, byte for byte. Exits nonzero with a minimal\n\
             counterexample trace if any invariant fails.\n\n\
             options:\n\
             \x20 --nodes N          formed members                 (default 3)\n\
             \x20 --joiners J        extra nodes that may join      (default 0)\n\
             \x20 --leaver ID        member that may leave gracefully\n\
             \x20 --drops K          message-loss budget            (default 0)\n\
             \x20 --clients M        clients for takeover coverage  (default 4)\n\
             \x20 --depth D          interleaving depth bound       (default 5)\n\
             \x20 --max-states S     distinct-state cap             (default 400000)\n\
             \x20 --revert-pr4-fix   disable the PR 4 expulsion fix; the\n\
             \x20                    checker must rediscover the merge\n\
             \x20                    deadlock and exit nonzero"
        }
        "experiment" => {
            "usage: ftvod-cli experiment <id | all>\n\n\
             Regenerate one figure or table of the paper's evaluation, or\n\
             all of them: run the row's seeded scenarios, print the measured\n\
             table and one paper-vs-measured verdict line per check, and\n\
             write the raw series as CSV under target/experiments/ of the\n\
             current directory. Always judges: exits nonzero when a verdict\n\
             differs from its recorded expectation, in either direction (a\n\
             check that stopped holding, or a known deviation that holds\n\
             again). Seeds and run counts are fixed, so the output is\n\
             byte-identical across runs; `all` is pinned as\n\
             tests/golden/experiments.txt and read by EXPERIMENTS.md.\n\n\
             ids:\n\
             \x20 fig2 fig4 fig5     the paper's figures\n\
             \x20 T1 T2 T3 T4 T5 T7  its quantitative sentences\n\
             \x20 A1 A2 A3 A4 FD     ablations of the knobs it fixed\n\
             \x20 E1 E2 E3           extensions it only motivates"
        }
        _ => {
            "usage: ftvod-cli <command> [options]\n\n\
             commands:\n\
             \x20 lan | wan   the paper's Figure 4 / Figure 5 scenario\n\
             \x20 trace       run a preset, export the event stream as JSONL\n\
             \x20 report      run a preset, print the derived run report\n\
             \x20 custom      build your own deployment (crashes, shutdowns)\n\
             \x20 fleet       generated fleet workload with dynamic replication\n\
             \x20 flash       flash-crowd sweep: predictive placement + prefix\n\
             \x20             cache vs a 10x popularity shock\n\
             \x20 chaos       seeded fault campaigns checked by the safety oracle\n\
             \x20 multidc     two-datacenter site-crash sweep: cross-DC rescue\n\
             \x20             and degraded-mode serving vs a home-only baseline\n\
             \x20 check       exhaustively model-check the membership protocol\n\
             \x20 experiment  regenerate the paper's figures and tables and\n\
             \x20             judge them against their recorded verdicts\n\n\
             Run `ftvod-cli <command> --help` for the command's options."
        }
    }
}

fn wants_help(args: &[String]) -> bool {
    args.iter().any(|a| a == "--help" || a == "-h")
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first().map(String::as_str) else {
        eprintln!("{}", usage_for("overview"));
        return ExitCode::FAILURE;
    };
    if matches!(cmd, "help" | "--help" | "-h") {
        println!(
            "{}",
            usage_for(args.get(1).map_or("overview", String::as_str))
        );
        return ExitCode::SUCCESS;
    }
    if wants_help(&args[1..]) {
        println!("{}", usage_for(cmd));
        return ExitCode::SUCCESS;
    }
    match cmd {
        "lan" | "wan" => exit_from(parse_preset(cmd, &args[1..]).and_then(|p| run_preset(&p))),
        "trace" => exit_from(parse_preset(cmd, &args[1..]).and_then(|p| run_trace(&p))),
        "report" => exit_from(parse_preset(cmd, &args[1..]).and_then(|p| run_report(&p))),
        "custom" => exit_from(parse_custom(&args[1..]).and_then(|opts| run_custom(&opts))),
        "fleet" => exit_from(parse_fleet(&args[1..]).and_then(|opts| run_fleet(&opts))),
        "flash" => exit_from(parse_sweep(&args[1..]).and_then(|opts| run_flash(&opts))),
        "chaos" => exit_from(parse_chaos(&args[1..]).and_then(|opts| run_chaos(&opts))),
        "multidc" => exit_from(parse_sweep(&args[1..]).and_then(|opts| run_multidc(&opts))),
        "check" => exit_from(parse_check(&args[1..]).and_then(|opts| run_check(&opts))),
        "experiment" => exit_from(parse_experiment(&args[1..]).and_then(run_experiment)),
        other => {
            eprintln!("unknown command \"{other}\"\n\n{}", usage_for("overview"));
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| (*s).to_owned()).collect()
    }

    #[test]
    fn defaults_parse() {
        let opts = parse_custom(&[]).unwrap();
        assert_eq!(opts, CustomOptions::default());
    }

    #[test]
    fn full_flag_set_parses() {
        let opts = parse_custom(&strings(&[
            "--servers",
            "4",
            "--clients",
            "3",
            "--seconds",
            "90",
            "--profile",
            "wan",
            "--crash",
            "20",
            "--crash",
            "40",
            "--shutdown",
            "60",
            "--seed",
            "7",
        ]))
        .unwrap();
        assert_eq!(opts.servers, 4);
        assert_eq!(opts.clients, 3);
        assert_eq!(opts.seconds, 90);
        assert_eq!(opts.profile, "wan");
        assert_eq!(opts.crashes, vec![20, 40]);
        assert_eq!(opts.shutdowns, vec![60]);
        assert_eq!(opts.seed, 7);
    }

    #[test]
    fn rejects_unknown_flags_and_missing_values() {
        assert!(parse_custom(&strings(&["--bogus"])).is_err());
        assert!(parse_custom(&strings(&["--servers"])).is_err());
        assert!(parse_custom(&strings(&["--servers", "x"])).is_err());
    }

    #[test]
    fn rejects_removing_every_replica() {
        let err = parse_custom(&strings(&[
            "--servers",
            "2",
            "--crash",
            "10",
            "--crash",
            "20",
        ]))
        .unwrap_err();
        assert!(err.contains("every replica"));
    }

    #[test]
    fn trace_and_report_args_parse() {
        let trace = |v: &[&str]| parse_preset("trace", &strings(v));
        assert_eq!(trace(&["lan"]).unwrap().which, "lan");
        assert_eq!(trace(&["wan", "--seed", "7"]).unwrap().which, "wan");
        assert!(trace(&["atm"]).is_err());
        assert!(trace(&[]).is_err());
        assert_eq!(
            trace(&["lan", "--out", "e.jsonl"]).unwrap().out.as_deref(),
            Some("e.jsonl")
        );
        assert_eq!(trace(&["lan"]).unwrap().out, None);
        assert!(trace(&["lan", "--out"]).is_err());
        let lan = |v: &[&str]| parse_preset("lan", &strings(v));
        assert_eq!(lan(&[]).unwrap().seed, 42);
        assert_eq!(lan(&["--seed", "7"]).unwrap().seed, 7);
        assert!(lan(&["--seed", "banana"]).is_err());
        assert!(lan(&["--seed"]).is_err());
        let report = parse_preset("report", &strings(&["wan", "--json"])).unwrap();
        assert_eq!((report.which, report.json), ("wan", true));
    }

    /// `lan`, `wan`, `trace` and `report` used to scan for the flags they
    /// knew and ignore the rest, so `lan --sed 7` quietly ran seed 42.
    #[test]
    fn preset_commands_reject_unknown_flags_and_stray_positionals() {
        for (cmd, preset) in [
            ("lan", None),
            ("wan", None),
            ("trace", Some("lan")),
            ("report", Some("wan")),
        ] {
            let parse = |extra: &[&str]| {
                let args: Vec<&str> = preset.into_iter().chain(extra.iter().copied()).collect();
                parse_preset(cmd, &strings(&args))
            };
            assert!(parse(&[]).is_ok(), "{cmd}");
            assert!(parse(&["--bogus"]).is_err(), "{cmd} --bogus");
            assert!(parse(&["--sed", "7"]).is_err(), "{cmd} --sed 7");
            assert!(parse(&["wan"]).is_err(), "{cmd} with a second positional");
        }
        // Each command's extra flag is its own, not every preset command's.
        assert!(parse_preset("lan", &strings(&["--out", "x"])).is_err());
        assert!(parse_preset("trace", &strings(&["lan", "--json"])).is_err());
        assert!(parse_preset("report", &strings(&["lan", "--net-csv", "x"])).is_err());
    }

    #[test]
    fn profiles_resolve() {
        assert!(profile_by_name("lan").is_ok());
        assert!(profile_by_name("wan").is_ok());
        assert!(profile_by_name("wan-reserved").is_ok());
        assert!(profile_by_name("atm").is_err());
    }

    #[test]
    fn fleet_defaults_parse() {
        let opts = parse_fleet(&[]).unwrap();
        assert_eq!(opts, FleetOptions::default());
        assert!(opts.dynamic);
    }

    #[test]
    fn fleet_full_flag_set_parses() {
        let opts = parse_fleet(&strings(&[
            "--servers",
            "8",
            "--clients",
            "500",
            "--movies",
            "12",
            "--zipf",
            "1.3",
            "--cap",
            "40",
            "--seconds",
            "120",
            "--static",
            "--seed",
            "7",
        ]))
        .unwrap();
        assert_eq!(opts.servers, 8);
        assert_eq!(opts.clients, 500);
        assert_eq!(opts.movies, 12);
        assert!((opts.zipf - 1.3).abs() < 1e-12);
        assert_eq!(opts.cap, Some(40));
        assert_eq!(opts.seconds, Some(120));
        assert!(!opts.dynamic);
        assert_eq!(opts.seed, 7);
    }

    #[test]
    fn fleet_policy_and_prefix_flags_parse() {
        let opts = parse_fleet(&strings(&[
            "--policy",
            "predictive",
            "--prefix-secs",
            "8",
            "--prefix-movies",
            "2",
        ]))
        .unwrap();
        assert_eq!(opts.policy, PolicyKind::Predictive);
        let prefix = opts.prefix_cache().unwrap();
        assert_eq!(prefix.prefix, Duration::from_secs(8));
        assert_eq!(prefix.budget, 2);
        // Either prefix flag alone enables the tier, defaulting the other.
        let secs_only = parse_fleet(&strings(&["--prefix-secs", "8"])).unwrap();
        assert_eq!(
            secs_only.prefix_cache().unwrap().budget,
            PrefixCacheConfig::paper_default().budget
        );
        let movies_only = parse_fleet(&strings(&["--prefix-movies", "2"])).unwrap();
        assert_eq!(
            movies_only.prefix_cache().unwrap().prefix,
            PrefixCacheConfig::paper_default().prefix
        );
        // Neither flag leaves the cache off.
        assert_eq!(parse_fleet(&[]).unwrap().prefix_cache(), None);
    }

    #[test]
    fn fleet_rejects_bad_inputs() {
        assert!(parse_fleet(&strings(&["--bogus"])).is_err());
        assert!(parse_fleet(&strings(&["--policy", "hybrid"])).is_err());
        assert!(parse_fleet(&strings(&["--servers", "0"])).is_err());
        assert!(parse_fleet(&strings(&["--movies", "0"])).is_err());
        assert!(parse_fleet(&strings(&["--zipf", "-1"])).is_err());
        assert!(parse_fleet(&strings(&["--zipf", "nan"])).is_err());
        assert!(parse_fleet(&strings(&["--cap"])).is_err());
        assert_eq!(
            parse_fleet(&strings(&["--cap", "0"])),
            Err("--cap must be at least 1".to_owned())
        );
        assert!(parse_fleet(&strings(&["--policy", "psychic"])).is_err());
        assert!(parse_fleet(&strings(&["--policy"])).is_err());
        assert!(parse_fleet(&strings(&["--prefix-secs", "0"])).is_err());
        assert!(parse_fleet(&strings(&["--prefix-movies", "0"])).is_err());
        assert!(parse_fleet(&strings(&["--static", "--policy", "predictive"])).is_err());
        // The prefix tier rides the dynamic replica manager.
        assert!(parse_fleet(&strings(&["--static", "--prefix-secs", "10"])).is_err());
        assert!(parse_fleet(&strings(&["--static", "--prefix-movies", "2"])).is_err());
        // Session 0 runs on node 1000.
        assert!(parse_fleet(&strings(&["--servers", "999"])).is_ok());
        assert!(parse_fleet(&strings(&["--servers", "1000"])).is_err());
        // The event queue holds 2^48 us.
        let seconds = |s: u64| parse_fleet(&strings(&["--seconds", &s.to_string()]));
        assert!(seconds(MAX_RUN_SECONDS).is_ok());
        assert!(seconds(MAX_RUN_SECONDS + 1).is_err());
        assert!(seconds(18_446_744_073_710).is_err());
    }

    #[test]
    fn custom_rejects_colliding_nodes_and_unschedulable_runs() {
        // Client 1 runs on node 101.
        assert!(parse_custom(&strings(&["--servers", "100"])).is_ok());
        assert!(parse_custom(&strings(&["--servers", "101"])).is_err());
        let seconds = |s: u64| parse_custom(&strings(&["--seconds", &s.to_string()]));
        assert!(seconds(MAX_RUN_SECONDS).is_ok());
        assert!(seconds(MAX_RUN_SECONDS + 1).is_err());
        assert!(seconds(u64::MAX).is_err());
        let at =
            |flag: &str, s: u64| parse_custom(&strings(&["--servers", "3", flag, &s.to_string()]));
        for flag in ["--crash", "--shutdown"] {
            assert!(at(flag, MAX_RUN_SECONDS).is_ok());
            assert!(at(flag, MAX_RUN_SECONDS + 1).is_err());
        }
    }

    #[test]
    fn flash_defaults_parse() {
        let opts = parse_sweep(&[]).unwrap();
        assert_eq!(opts, SweepOptions::default());
        assert_eq!(opts.seeds, 10);
        assert_eq!(opts.seed, 1);
        assert!(!opts.compare);
    }

    #[test]
    fn flash_full_flag_set_parses() {
        let opts = parse_sweep(&strings(&["--seeds", "3", "--seed", "9", "--compare"])).unwrap();
        assert_eq!(opts.seeds, 3);
        assert_eq!(opts.seed, 9);
        assert!(opts.compare);
    }

    #[test]
    fn flash_rejects_bad_inputs() {
        assert!(parse_sweep(&strings(&["--bogus"])).is_err());
        assert!(parse_sweep(&strings(&["--seeds", "0"])).is_err());
        assert!(parse_sweep(&strings(&["--seeds"])).is_err());
        assert!(parse_sweep(&strings(&["--seed", "x"])).is_err());
        let max = u64::MAX.to_string();
        assert!(parse_sweep(&strings(&["--seed", &max, "--seeds", "2"])).is_err());
        assert!(parse_sweep(&strings(&["--seed", &max, "--seeds", "1"])).is_ok());
        assert!(parse_sweep(&strings(&["--seed", &max, "--compare"])).is_ok());
    }

    #[test]
    fn chaos_defaults_parse() {
        let opts = parse_chaos(&[]).unwrap();
        assert_eq!(opts, ChaosOptions::default());
        assert_eq!(opts.seeds, 5);
        assert_eq!(opts.sync_ms, 500);
        assert!(!opts.plan);
        assert!(!opts.summary);
    }

    #[test]
    fn chaos_full_flag_set_parses() {
        let opts = parse_chaos(&strings(&[
            "--seeds",
            "25",
            "--seed",
            "9",
            "--faults",
            "4",
            "--clients",
            "12",
            "--sync-ms",
            "20000",
            "--plan",
            "--summary",
        ]))
        .unwrap();
        assert_eq!(opts.seeds, 25);
        assert_eq!(opts.seed, 9);
        assert_eq!(opts.faults, 4);
        assert_eq!(opts.clients, 12);
        assert_eq!(opts.sync_ms, 20000);
        assert!(opts.plan);
        assert!(opts.summary);
    }

    #[test]
    fn chaos_rejects_bad_inputs() {
        assert!(parse_chaos(&strings(&["--bogus"])).is_err());
        assert!(parse_chaos(&strings(&["--seeds", "0"])).is_err());
        assert!(parse_chaos(&strings(&["--clients", "0"])).is_err());
        assert!(parse_chaos(&strings(&["--sync-ms", "0"])).is_err());
        assert!(parse_chaos(&strings(&["--seeds"])).is_err());
        let max = u64::MAX.to_string();
        let err = parse_chaos(&strings(&["--seed", &max, "--seeds", "2"])).unwrap_err();
        assert!(err.contains("--seed ") && err.contains("--seeds "), "{err}");
        assert!(parse_chaos(&strings(&["--seed", &max, "--seeds", "1"])).is_ok());
    }

    /// Textbook values: 0 of 10 and 5 of 10.
    #[test]
    fn wilson_intervals_match_the_textbook() {
        let round = |(low, high): (f64, f64)| ((low * 1e4).round(), (high * 1e4).round());
        assert_eq!(round(wilson_95(0, 10)), (0.0, 2775.0));
        assert_eq!(round(wilson_95(5, 10)), (2366.0, 7634.0));
        assert_eq!(round(wilson_95(10, 10)), (7225.0, 10000.0));
    }

    #[test]
    fn multidc_defaults_parse() {
        let opts = parse_sweep(&[]).unwrap();
        assert_eq!(opts, SweepOptions::default());
        assert_eq!(opts.seeds, 10);
        assert_eq!(opts.seed, 1);
        assert!(!opts.compare);
    }

    #[test]
    fn multidc_full_flag_set_parses() {
        let opts = parse_sweep(&strings(&["--seeds", "3", "--seed", "9", "--compare"])).unwrap();
        assert_eq!(opts.seeds, 3);
        assert_eq!(opts.seed, 9);
        assert!(opts.compare);
    }

    #[test]
    fn multidc_rejects_bad_inputs() {
        assert!(parse_sweep(&strings(&["--bogus"])).is_err());
        assert!(parse_sweep(&strings(&["--seeds", "0"])).is_err());
        assert!(parse_sweep(&strings(&["--seeds"])).is_err());
        assert!(parse_sweep(&strings(&["--seed", "x"])).is_err());
        let max = u64::MAX.to_string();
        assert!(parse_sweep(&strings(&["--seed", &max, "--seeds", "2"])).is_err());
        assert!(parse_sweep(&strings(&["--seed", &max, "--seeds", "1"])).is_ok());
        assert!(parse_sweep(&strings(&["--seed", &max, "--compare"])).is_ok());
    }

    #[test]
    fn check_defaults_parse() {
        let opts = parse_check(&[]).unwrap();
        assert_eq!(opts, CheckOptions::default());
        assert_eq!(opts.nodes, 3);
        assert_eq!(opts.depth, 5);
        assert!(!opts.revert_pr4_fix);
    }

    #[test]
    fn check_full_flag_set_parses() {
        let opts = parse_check(&strings(&[
            "--nodes",
            "2",
            "--joiners",
            "1",
            "--leaver",
            "2",
            "--drops",
            "2",
            "--clients",
            "6",
            "--depth",
            "6",
            "--max-states",
            "100000",
            "--revert-pr4-fix",
        ]))
        .unwrap();
        assert_eq!(opts.nodes, 2);
        assert_eq!(opts.joiners, 1);
        assert_eq!(opts.leaver, Some(2));
        assert_eq!(opts.drops, 2);
        assert_eq!(opts.clients, 6);
        assert_eq!(opts.depth, 6);
        assert_eq!(opts.max_states, 100_000);
        assert!(opts.revert_pr4_fix);
    }

    #[test]
    fn check_rejects_bad_inputs() {
        assert!(parse_check(&strings(&["--bogus"])).is_err());
        assert!(parse_check(&strings(&["--nodes", "1"])).is_err());
        assert!(parse_check(&strings(&["--nodes", "4", "--joiners", "2"])).is_err());
        assert!(parse_check(&strings(&["--leaver", "4"])).is_err());
        assert!(parse_check(&strings(&["--leaver", "0"])).is_err());
        assert!(parse_check(&strings(&["--depth", "0"])).is_err());
        assert!(parse_check(&strings(&["--max-states", "0"])).is_err());
        assert!(parse_check(&strings(&["--clients", "0"])).is_err());
        assert!(parse_check(&strings(&["--depth"])).is_err());
    }

    #[test]
    fn every_command_has_usage_text() {
        for cmd in [
            "lan",
            "wan",
            "trace",
            "report",
            "custom",
            "fleet",
            "flash",
            "chaos",
            "multidc",
            "check",
            "experiment",
            "overview",
        ] {
            let text = usage_for(cmd);
            assert!(text.starts_with("usage:"), "{cmd} usage malformed");
        }
        assert!(usage_for("fleet").contains("--zipf"));
        assert!(usage_for("fleet").contains("--policy"));
        assert!(usage_for("fleet").contains("--prefix-secs"));
        assert!(usage_for("flash").contains("--compare"));
        assert!(usage_for("chaos").contains("--sync-ms"));
        assert!(usage_for("multidc").contains("--compare"));
        assert!(usage_for("overview").contains("multidc"));
        assert!(usage_for("overview").contains("flash"));
        assert!(usage_for("overview").contains("chaos"));
        assert!(usage_for("overview").contains("check"));
        assert!(usage_for("check").contains("--revert-pr4-fix"));
        assert!(usage_for("check").contains("--depth"));
        assert!(usage_for("overview").contains("experiment"));
        for row in experiments::TABLE {
            assert!(usage_for("experiment").contains(row.id), "{}", row.id);
        }
        assert!(usage_for("report").contains("--json"));
        assert!(usage_for("fleet").contains("--net-csv"));
    }

    #[test]
    fn experiment_takes_one_id_or_all() {
        let parse = |v: &[&str]| parse_experiment(&strings(v));
        assert_eq!(parse(&["all"]).unwrap().len(), experiments::TABLE.len());
        let one = parse(&["T4"]).unwrap();
        assert_eq!((one.len(), one[0].id), (1, "T4"));
    }

    #[test]
    fn experiment_rejects_bad_inputs() {
        let parse = |v: &[&str]| parse_experiment(&strings(v)).unwrap_err();
        // An unknown id lists the known ones.
        let err = parse(&["T6"]);
        assert!(err.contains("fig2") && err.contains("E3"), "{err}");
        assert!(parse(&[]).contains("expected an experiment id"));
        assert!(parse(&["T4", "40"]).contains("\"40\""));
        assert!(parse(&["T4", "T5"]).contains("\"T5\""));
        assert!(parse(&["--check"]).contains("unknown flag --check"));
        assert!(parse(&["all", "--check"]).contains("--check"));
        assert!(parse(&["--seed", "7"]).contains("unknown flag --seed"));
    }

    #[test]
    fn net_csv_flag_parses() {
        let lan = |v: &[&str]| parse_preset("lan", &strings(v));
        assert_eq!(
            lan(&["--net-csv", "net.csv"]).unwrap().net_csv.as_deref(),
            Some("net.csv")
        );
        assert_eq!(lan(&[]).unwrap().net_csv, None);
        assert!(lan(&["--net-csv"]).is_err());
        let custom = parse_custom(&strings(&["--net-csv", "net.csv"])).unwrap();
        assert_eq!(custom.net_csv.as_deref(), Some("net.csv"));
        let fleet = parse_fleet(&strings(&["--net-csv", "net.csv"])).unwrap();
        assert_eq!(fleet.net_csv.as_deref(), Some("net.csv"));
    }

    #[test]
    fn help_flags_are_detected() {
        assert!(wants_help(&strings(&["--servers", "4", "--help"])));
        assert!(wants_help(&strings(&["-h"])));
        assert!(!wants_help(&strings(&["--servers", "4"])));
    }
}
