//! Service configuration: the knobs an experiment varies, plus the paper's
//! §6 operating point as constants.
//!
//! The constants below are the values no experiment varies: water marks at
//! 73 %/88 % and critical thresholds at 15 %/30 % of the buffer, flow
//! control every 8 received frames (doubled when urgent), the start and
//! clamp rates, and the replica manager's thresholds. [`VodConfig`]'s
//! defaults reproduce the rest of the §6 point: a 37-frame software
//! buffer, a 240 KB hardware buffer (~1.2 s of a 1.4 Mbps stream),
//! emergency quantities 12/6 decaying by 0.8 per second, and server state
//! synchronization every half second.

use std::time::Duration;

use gcs::GcsConfig;
use simnet::NodeId;

use crate::forecast::PolicyKind;

/// Low water mark as a fraction of the client's buffer space (§4.1).
pub const LOW_WATER_FRAC: f64 = 0.73;
/// High water mark as a fraction of the client's buffer space (§4.1).
pub const HIGH_WATER_FRAC: f64 = 0.88;
/// Severe-emergency threshold as a fraction of the buffer space (§4.1).
pub const CRITICAL_SEVERE_FRAC: f64 = 0.15;
/// Mild-emergency threshold as a fraction of the buffer space (§4.1).
pub const CRITICAL_MILD_FRAC: f64 = 0.30;
/// A flow-control request every this many received frames while between
/// the water marks (§4.1, Figure 2).
pub const FLOW_NORMAL_EVERY: u32 = 8;
/// A flow-control request every this many received frames outside the
/// water marks: "the frequency is doubled" (§4.1, Figure 2).
pub const FLOW_URGENT_EVERY: u32 = 4;
/// Client-side cooldown between emergency requests (§4.1).
pub const EMERGENCY_COOLDOWN: Duration = Duration::from_secs(2);
/// Transmission rate of a new session, frames per second: "a default
/// transmission rate is used at startup" (§4.1).
pub const DEFAULT_RATE_FPS: u32 = 30;
/// Lower clamp of flow control on a session's base rate (§4.1).
pub const MIN_RATE_FPS: u32 = 1;
/// Upper clamp of flow control on a session's base rate (§4.1).
pub const MAX_RATE_FPS: u32 = 60;
/// Occupancy sampling period of the client's statistics (the paper gives
/// none; 100 ms resolves §6's buffer plots).
pub const SAMPLE_INTERVAL: Duration = Duration::from_millis(100);
/// Timer slack of a server's frame schedule, modeling non-real-time OS
/// scheduling (§4.2 names process-scheduling delay).
pub const SCHEDULING_JITTER: Duration = Duration::from_millis(2);
/// How long a server waits for state-exchange reports after a view
/// change before it redistributes with what it has (the paper gives
/// none).
pub const EXCHANGE_TIMEOUT: Duration = Duration::from_millis(200);
/// The replica manager brings up a replica when sessions (plus waiting
/// clients) per replica exceed this (DESIGN.md §5d).
pub const HOT_SESSIONS_PER_REPLICA: u32 = 8;
/// The replica manager retires a replica when the demand fits under this
/// per remaining replica and nobody is waiting (DESIGN.md §5d).
pub const COLD_SESSIONS_PER_REPLICA: u32 = 2;
/// Consecutive sync ticks a hot or cold signal must persist: 1 s of the
/// paper's half-second sync (DESIGN.md §5d).
pub const HYSTERESIS_TICKS: u32 = 2;
/// Cap on replicas per movie (DESIGN.md §5d).
pub const MAX_REPLICAS: u32 = 8;
/// Floor on replicas per movie: the replica manager never retires a copy
/// that would leave fewer, so a movie survives one crash (k copies
/// tolerate k − 1 faults; DESIGN.md §5d).
pub const MIN_REPLICAS: u32 = 2;
/// Sync ticks a movie is left alone after its replica set changed, so the
/// redistribution settles (DESIGN.md §5d).
pub const COOLDOWN_TICKS: u32 = 4;
/// Transmission rate of a degraded cross-site rescue session, frames per
/// second: half of [`DEFAULT_RATE_FPS`], §5's quality adaptation applied to
/// failover (DESIGN.md §5i).
pub const DEGRADED_FPS: u32 = 15;
/// Extra degraded sessions each server accepts beyond its admission cap
/// during a [`FailoverMode::RemoteDegraded`] rescue (admission shedding
/// headroom, DESIGN.md §5i).
pub const SHED_HEADROOM: u32 = 4;

/// What a server does when another replica's clients lose their server.
///
/// `Full` is the paper's protocol (any replica takes over; a movie
/// replicated `k` times tolerates `k − 1` failures). The other two exist as
/// baselines for the fault-tolerance comparison of §7: `SingleBackup`
/// mimics a Tiger-style system that survives only one failure, `None` a
/// classical single-server deployment.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum TakeoverPolicy {
    /// Every surviving replica participates in redistribution (the paper).
    #[default]
    Full,
    /// Only the first failure is covered: after one takeover the replicas
    /// stop volunteering (Tiger-like baseline, §7).
    SingleBackup,
    /// No takeover at all (single-server baseline).
    None,
}

/// How a server picks the resume offset when acquiring a client.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum ResumePolicy {
    /// Resume from the last synchronized offset: frames the old server
    /// already sent may be transmitted twice, but none are missed — the
    /// paper's choice ("we take a conservative (pessimistic) approach,
    /// preferring duplicate transmission of frames over missed frames").
    #[default]
    Conservative,
    /// Skip ahead by the estimated progress since the last sync: fewer
    /// duplicates, but any underestimate becomes a hole in the stream.
    SkipAhead,
}

/// Policy of the demand-driven replica manager (DESIGN.md §5d).
///
/// Servers share per-movie demand over the server group at every sync
/// tick; when a movie's sessions-per-replica stays above
/// [`HOT_SESSIONS_PER_REPLICA`] for [`HYSTERESIS_TICKS`] consecutive
/// ticks, the least-loaded non-holder joins the movie group (bring-up);
/// when the demand would fit comfortably on one fewer replica for just as
/// long, the highest-id member of the movie group's view-synchronous view
/// leaves it gracefully (retire — elected over the agreed view, not the
/// eventually-consistent demand maps, so concurrent retires cannot
/// cascade a movie's holders below [`MIN_REPLICAS`]). [`COOLDOWN_TICKS`]
/// suppresses further changes to a movie right after its replica set
/// moved, letting the redistribution settle.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ReplicationConfig {
    /// How long bringing up a replica takes: the elected server copies
    /// the movie onto its disk farm for this long before it can join the
    /// movie group and serve (zero = the copy is instantaneous, the
    /// pre-flash-crowd modeling). This is the latency the prefix-cache
    /// tier exists to hide.
    pub bringup_delay: Duration,
}

impl ReplicationConfig {
    /// Defaults: copy a movie instantly.
    pub fn paper_default() -> Self {
        ReplicationConfig {
            bringup_delay: Duration::ZERO,
        }
    }

    /// Sets the replica bring-up (content copy) delay.
    #[must_use]
    pub fn with_bringup_delay(mut self, delay: Duration) -> Self {
        self.bringup_delay = delay;
        self
    }
}

impl Default for ReplicationConfig {
    fn default() -> Self {
        ReplicationConfig::paper_default()
    }
}

/// The prefix-cache tier (DESIGN.md §5h): servers keep the first
/// `prefix` seconds of up to `budget` movies they do *not* replicate,
/// chosen by popularity forecast (hottest first, coldest evicted), and
/// serve waiting clients those prefixes while a predicted replica is
/// still coming up.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PrefixCacheConfig {
    /// How much of the start of each cached movie a server holds.
    pub prefix: Duration,
    /// Maximum number of movies a server caches prefixes for.
    pub budget: u32,
}

impl PrefixCacheConfig {
    /// Defaults: a 10-second prefix (twenty sync ticks of bring-up
    /// headroom) for up to four movies per server.
    pub fn paper_default() -> Self {
        PrefixCacheConfig {
            prefix: Duration::from_secs(10),
            budget: 4,
        }
    }
}

impl Default for PrefixCacheConfig {
    fn default() -> Self {
        PrefixCacheConfig::paper_default()
    }
}

/// One site (datacenter) of a [`SiteMap`]: a name, the server nodes it
/// hosts and the client nodes homed to it.
#[derive(Clone, Debug, PartialEq, Eq)]
struct SiteEntry {
    name: String,
    servers: Vec<NodeId>,
    clients: Vec<NodeId>,
}

/// The deployment's site layout, shared by every server and the scenario
/// builder so geo-affine routing decisions agree everywhere.
///
/// Unlike [`simnet::SiteTopology`] (which shapes link latency), the
/// `SiteMap` is *application* knowledge: which servers form each
/// datacenter and which clients call it home.
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct SiteMap {
    sites: Vec<SiteEntry>,
}

impl SiteMap {
    /// An empty map.
    pub fn new() -> Self {
        SiteMap::default()
    }

    /// Adds a named site hosting `servers`; returns its index.
    pub fn add_site(&mut self, name: &str, servers: &[NodeId]) -> usize {
        self.sites.push(SiteEntry {
            name: name.to_string(),
            servers: servers.to_vec(),
            clients: Vec::new(),
        });
        self.sites.len() - 1
    }

    /// Homes `client_nodes` to site `site`.
    ///
    /// # Panics
    ///
    /// Panics if `site` is out of range.
    pub fn home_clients(&mut self, site: usize, client_nodes: &[NodeId]) {
        assert!(site < self.sites.len(), "no such site {site}");
        self.sites[site].clients.extend_from_slice(client_nodes);
    }

    /// Number of sites.
    pub fn site_count(&self) -> usize {
        self.sites.len()
    }

    /// Name of site `site`, or `None` when out of range.
    pub fn site_name(&self, site: usize) -> Option<&str> {
        self.sites.get(site).map(|s| s.name.as_str())
    }

    /// Server nodes of site `site`, or `None` when out of range.
    pub fn servers(&self, site: usize) -> Option<&[NodeId]> {
        self.sites.get(site).map(|s| s.servers.as_slice())
    }

    /// Client nodes homed to site `site`, or `None` when out of range.
    pub fn client_nodes(&self, site: usize) -> Option<&[NodeId]> {
        self.sites.get(site).map(|s| s.clients.as_slice())
    }

    /// The site hosting server `node`, or `None` for unknown servers.
    pub fn site_of_server(&self, node: NodeId) -> Option<usize> {
        self.sites.iter().position(|s| s.servers.contains(&node))
    }

    /// The home site of the client running on `node`, or `None` for
    /// unknown clients.
    pub fn home_site_of_client(&self, node: NodeId) -> Option<usize> {
        self.sites.iter().position(|s| s.clients.contains(&node))
    }
}

/// What a coordinator does for a client whose home site has no reachable
/// server.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum FailoverMode {
    /// Geo-affinity is absolute: park the client unserved until its home
    /// site comes back (the no-failover baseline).
    HomeOnly,
    /// Rescue on a remote site, but only within each server's normal
    /// admission cap — overflow clients stay parked.
    Remote,
    /// Rescue on a remote site, and when the caps are exhausted keep
    /// admitting at reduced quality using the shed headroom (the paper's
    /// §5 quality adaptation applied to cross-DC failover).
    #[default]
    RemoteDegraded,
}

impl FailoverMode {
    /// Stable lower-kebab-case name for CLI output.
    pub fn as_str(self) -> &'static str {
        match self {
            FailoverMode::HomeOnly => "home-only",
            FailoverMode::Remote => "remote",
            FailoverMode::RemoteDegraded => "remote-degraded",
        }
    }
}

/// Multi-datacenter failover configuration (DESIGN.md §5i).
///
/// With this enabled, coordinators route each client to a server in its
/// home site while one is reachable, fail over to remote sites per
/// [`FailoverMode`] when the home site drops out of the movie-group view,
/// and re-home clients on the next redistribution after the site heals.
#[derive(Clone, Debug, PartialEq)]
pub struct MultiDcConfig {
    /// The deployment's site layout.
    pub map: SiteMap,
    /// What to do when a client's home site is unreachable.
    pub mode: FailoverMode,
}

impl MultiDcConfig {
    /// Defaults for a given site map: full remote-degraded failover
    /// (rescue sessions at [`DEGRADED_FPS`], [`SHED_HEADROOM`] shed slots
    /// per server).
    pub fn new(map: SiteMap) -> Self {
        MultiDcConfig {
            map,
            mode: FailoverMode::RemoteDegraded,
        }
    }

    /// Returns a copy with a different failover mode.
    #[must_use]
    pub fn with_mode(mut self, mode: FailoverMode) -> Self {
        self.mode = mode;
        self
    }
}

/// Tunable parameters of the VoD service.
#[derive(Clone, Debug, PartialEq)]
pub struct VodConfig {
    /// Software (reordering) buffer capacity, in frames. Paper: 37.
    pub sw_buffer_frames: usize,
    /// Hardware decoder buffer capacity, in bytes. Paper: 240 KB.
    pub hw_buffer_bytes: u64,
    /// Base emergency quantity for severe emergencies (occupancy < 15 %).
    /// Paper: 12 extra frames/s, decaying to a 43-frame total.
    pub emergency_base_severe: u32,
    /// Base emergency quantity for mild emergencies (15 % ≤ occupancy
    /// < 30 %). Paper: 6.
    pub emergency_base_mild: u32,
    /// Per-second decay factor of the emergency quantity. Paper: 0.8.
    pub emergency_decay: f64,
    /// Interval of the servers' state multicast in each movie group.
    /// Paper: 0.5 s.
    pub sync_interval: Duration,
    /// Group communication tuning.
    pub gcs: GcsConfig,
    /// Takeover behaviour (baselines for the §7 comparison).
    pub takeover: TakeoverPolicy,
    /// Resume-offset choice at takeover (ablation D5).
    pub resume: ResumePolicy,
    /// Whether buffer overflow discards incremental frames before I frames
    /// (the paper's policy) or simply drops the newest frame (ablation D4).
    pub overflow_prefers_incremental: bool,
    /// Admission control: at most this many concurrent sessions per
    /// server (`None` = unlimited). The paper's §7 cites admission control
    /// as a complementary single-server technique; with it, clients that
    /// do not fit wait (re-opening periodically) instead of degrading
    /// everyone's stream.
    pub max_sessions_per_server: Option<u32>,
    /// Demand-driven dynamic replica management (`None` = static
    /// placement, the paper's deployments).
    pub replication: Option<ReplicationConfig>,
    /// Which replica-placement policy the managers run (reactive
    /// hysteresis or forecast-driven predictive). Only consulted
    /// when [`replication`](Self::replication) is enabled.
    pub placement: PolicyKind,
    /// Prefix-cache tier (`None` = disabled). Requires
    /// [`replication`](Self::replication) to do anything: prefixes hide
    /// the bring-up latency of the replica manager.
    pub prefix_cache: Option<PrefixCacheConfig>,
    /// Multi-datacenter failover (`None` = single-site behaviour,
    /// byte-identical to historical runs).
    pub multidc: Option<MultiDcConfig>,
}

impl VodConfig {
    /// The paper's §6 parameters (see module docs).
    pub fn paper_default() -> Self {
        VodConfig {
            sw_buffer_frames: 37,
            hw_buffer_bytes: 240_000,
            emergency_base_severe: 12,
            emergency_base_mild: 6,
            emergency_decay: 0.8,
            sync_interval: Duration::from_millis(500),
            gcs: GcsConfig::new(),
            takeover: TakeoverPolicy::Full,
            resume: ResumePolicy::Conservative,
            overflow_prefers_incremental: true,
            max_sessions_per_server: None,
            replication: None,
            placement: PolicyKind::Reactive,
            prefix_cache: None,
            multidc: None,
        }
    }

    /// Returns a copy with a different sync interval (ablation D1).
    pub fn with_sync_interval(mut self, interval: Duration) -> Self {
        self.sync_interval = interval;
        self
    }

    /// Returns a copy with a different software buffer size, keeping the
    /// water-mark fractions (T5).
    pub fn with_sw_buffer_frames(mut self, frames: usize) -> Self {
        self.sw_buffer_frames = frames;
        self
    }

    /// Returns a copy with different emergency parameters (ablation D3).
    ///
    /// # Panics
    ///
    /// Panics if `decay` is not in `[0, 1)`.
    pub fn with_emergency(mut self, base_severe: u32, base_mild: u32, decay: f64) -> Self {
        assert!((0.0..1.0).contains(&decay), "decay must be in [0,1)");
        self.emergency_base_severe = base_severe;
        self.emergency_base_mild = base_mild;
        self.emergency_decay = decay;
        self
    }

    /// Returns a copy with a different takeover policy (T3 baselines).
    pub fn with_takeover(mut self, takeover: TakeoverPolicy) -> Self {
        self.takeover = takeover;
        self
    }

    /// Returns a copy with a different resume policy (ablation D5).
    pub fn with_resume(mut self, resume: ResumePolicy) -> Self {
        self.resume = resume;
        self
    }

    /// Returns a copy with the naive overflow policy (ablation D4).
    pub fn with_naive_overflow(mut self) -> Self {
        self.overflow_prefers_incremental = false;
        self
    }

    /// Returns a copy with per-server admission control.
    pub fn with_session_cap(mut self, cap: u32) -> Self {
        self.max_sessions_per_server = Some(cap);
        self
    }

    /// Returns a copy with demand-driven replica management enabled.
    pub fn with_dynamic_replication(mut self, policy: ReplicationConfig) -> Self {
        self.replication = Some(policy);
        self
    }

    /// Returns a copy with a different replica-placement policy.
    pub fn with_placement(mut self, placement: PolicyKind) -> Self {
        self.placement = placement;
        self
    }

    /// Returns a copy with the prefix-cache tier enabled.
    pub fn with_prefix_cache(mut self, prefix_cache: PrefixCacheConfig) -> Self {
        self.prefix_cache = Some(prefix_cache);
        self
    }

    /// Returns a copy with multi-datacenter failover enabled.
    pub fn with_multidc(mut self, multidc: MultiDcConfig) -> Self {
        self.multidc = Some(multidc);
        self
    }
}

impl Default for VodConfig {
    fn default() -> Self {
        VodConfig::paper_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn emergency_peak_stays_under_40_percent_of_mean_bandwidth() {
        // Paper §4.1: "increase the bandwidth consumption at emergency
        // periods by no more than 40% of the mean bandwidth" for a 30 fps
        // movie.
        let cfg = VodConfig::paper_default();
        let peak = f64::from(cfg.emergency_base_severe) / f64::from(DEFAULT_RATE_FPS);
        assert!(peak <= 0.40 + 1e-9);
    }

    #[test]
    fn builders_adjust_fields() {
        let cfg = VodConfig::paper_default()
            .with_sync_interval(Duration::from_millis(100))
            .with_sw_buffer_frames(74)
            .with_emergency(20, 10, 0.5)
            .with_takeover(TakeoverPolicy::None);
        assert_eq!(cfg.sync_interval, Duration::from_millis(100));
        assert_eq!(cfg.sw_buffer_frames, 74);
        assert_eq!(cfg.emergency_base_severe, 20);
        assert_eq!(cfg.emergency_base_mild, 10);
        assert_eq!(cfg.emergency_decay, 0.5);
        assert_eq!(cfg.takeover, TakeoverPolicy::None);
    }

    #[test]
    #[should_panic(expected = "decay must be in [0,1)")]
    fn an_invalid_emergency_decay_fails_at_the_builder() {
        let _ = VodConfig::paper_default().with_emergency(12, 6, 1.0);
    }

    #[test]
    fn default_is_paper_default() {
        assert_eq!(VodConfig::default(), VodConfig::paper_default());
    }

    #[test]
    fn placement_and_prefix_cache_are_opt_in() {
        let cfg = VodConfig::paper_default();
        assert_eq!(cfg.placement, PolicyKind::Reactive);
        assert_eq!(cfg.prefix_cache, None);
        let cfg = cfg
            .with_placement(PolicyKind::Predictive)
            .with_prefix_cache(PrefixCacheConfig::paper_default());
        assert_eq!(cfg.placement, PolicyKind::Predictive);
        let pc = cfg.prefix_cache.expect("enabled");
        assert_eq!(pc.prefix, Duration::from_secs(10));
        assert_eq!(pc.budget, 4);
    }

    #[test]
    fn multidc_is_opt_in_and_sitemap_resolves_homes() {
        let cfg = VodConfig::paper_default();
        assert_eq!(cfg.multidc, None);
        let mut map = SiteMap::new();
        let east = map.add_site("east", &[NodeId(1), NodeId(2)]);
        let west = map.add_site("west", &[NodeId(3), NodeId(4)]);
        map.home_clients(east, &[NodeId(1000)]);
        map.home_clients(west, &[NodeId(1001)]);
        assert_eq!(map.site_count(), 2);
        assert_eq!(map.site_name(east), Some("east"));
        assert_eq!(map.site_of_server(NodeId(3)), Some(west));
        assert_eq!(map.site_of_server(NodeId(9)), None);
        assert_eq!(map.home_site_of_client(NodeId(1000)), Some(east));
        assert_eq!(map.home_site_of_client(NodeId(9)), None);
        let cfg = cfg.with_multidc(MultiDcConfig::new(map).with_mode(FailoverMode::Remote));
        let mdc = cfg.multidc.expect("enabled");
        assert_eq!(mdc.mode, FailoverMode::Remote);
        assert_eq!(FailoverMode::default(), FailoverMode::RemoteDegraded);
        assert_eq!(FailoverMode::HomeOnly.as_str(), "home-only");
    }

    #[test]
    fn dynamic_replication_is_opt_in() {
        let cfg = VodConfig::paper_default();
        assert_eq!(cfg.replication, None);
        let cfg = cfg.with_dynamic_replication(ReplicationConfig::paper_default());
        let policy = cfg.replication.expect("enabled");
        assert_eq!(policy, ReplicationConfig::default());
    }
}
