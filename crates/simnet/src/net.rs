//! Network addressing and link modeling.
//!
//! Nodes are addressed by [`NodeId`]; each node exposes numbered [`Port`]s so
//! that several protocol endpoints (GCS daemon, video stream, control
//! channel) can coexist on one node, mirroring UDP ports.
//!
//! Every directed pair of nodes communicates over a *link* described by a
//! [`LinkProfile`]: propagation delay, uniform jitter, loss, duplication and
//! reordering probabilities, and an optional egress bandwidth that adds
//! serialization delay. Profiles for the paper's two test environments are
//! provided as [`LinkProfile::lan`] (100 Mbps switched Ethernet) and
//! [`LinkProfile::wan`] (a 7-hop Internet path without QoS reservation).

use std::fmt;
use std::time::Duration;

/// Identifier of a simulated host.
///
/// `NodeId`s are ordered; protocols in this workspace (notably the group
/// membership coordinator election) rely on that ordering being total and
/// stable.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct NodeId(pub u32);

/// Largest id the dense per-node tables (the simulation's node table, a
/// topology's site table) accept. Those tables are indexed by the raw id,
/// so their size follows the largest id used, not the node count; the cap
/// turns a stray huge id into a clear panic instead of a multi-gigabyte
/// allocation.
const MAX_NODE_ID: u32 = 1 << 20;

impl NodeId {
    /// This id as a row of a dense per-node table that is about to grow
    /// to hold it.
    ///
    /// # Panics
    ///
    /// Panics if the id is above 2^20.
    pub(crate) fn table_row(self) -> usize {
        assert!(
            self.0 <= MAX_NODE_ID,
            "node id {self} is above the dense-id limit {MAX_NODE_ID}"
        );
        self.0 as usize
    }
}

impl fmt::Debug for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl From<u32> for NodeId {
    fn from(raw: u32) -> Self {
        NodeId(raw)
    }
}

/// A protocol endpoint number within a node, analogous to a UDP port.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Port(pub u16);

impl fmt::Debug for Port {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, ":{}", self.0)
    }
}

impl fmt::Display for Port {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, ":{}", self.0)
    }
}

/// A (node, port) pair — the source or destination of a datagram.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Endpoint {
    /// The host.
    pub node: NodeId,
    /// The protocol endpoint on that host.
    pub port: Port,
}

impl Endpoint {
    /// Creates an endpoint from raw node and port numbers.
    pub const fn new(node: NodeId, port: Port) -> Self {
        Endpoint { node, port }
    }
}

impl fmt::Debug for Endpoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:?}{:?}", self.node, self.port)
    }
}

impl fmt::Display for Endpoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}{}", self.node, self.port)
    }
}

/// Gilbert–Elliott burst-loss parameters: a two-state Markov chain per
/// directed link. In the *good* state the link drops with the profile's
/// i.i.d. `loss`; in the *bad* state it drops with `loss_bad`. The chain
/// advances one step per datagram, so the mean burst length is
/// `1 / p_exit` datagrams.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct BurstLoss {
    /// Probability per datagram of moving good → bad.
    pub p_enter: f64,
    /// Probability per datagram of moving bad → good.
    pub p_exit: f64,
    /// Drop probability while in the bad state.
    pub loss_bad: f64,
}

/// Statistical description of a directed link between two nodes.
///
/// All delays are applied per datagram:
///
/// ```text
/// delivery = send_time + serialization (size / bandwidth, queued per sender)
///          + base_delay + U(0, jitter) [+ reorder_extra with prob. reorder]
/// ```
///
/// A datagram is dropped with probability `loss` and delivered twice with
/// probability `duplicate` (the copy gets an independent jitter draw).
/// When `burst` is set, loss instead follows the Gilbert–Elliott chain of
/// [`BurstLoss`]: `loss` applies in the good state and `loss_bad` in the
/// bad state, so drops arrive in correlated bursts rather than i.i.d.
#[derive(Clone, Debug, PartialEq)]
pub struct LinkProfile {
    /// Fixed propagation delay.
    pub base_delay: Duration,
    /// Maximum additional uniformly-distributed delay.
    pub jitter: Duration,
    /// Probability in `[0, 1]` that a datagram is silently dropped.
    pub loss: f64,
    /// Probability in `[0, 1]` that a datagram is delivered twice.
    pub duplicate: f64,
    /// Probability in `[0, 1]` that a datagram is held back by
    /// `reorder_extra`, causing it to arrive after its successors.
    pub reorder: f64,
    /// Extra delay applied to reordered datagrams.
    pub reorder_extra: Duration,
    /// Egress bandwidth in bytes/second; `None` means infinite (no
    /// serialization delay). Serialization is queued per *sender*, modeling a
    /// shared NIC.
    pub bandwidth: Option<u64>,
    /// Optional Gilbert–Elliott burst-loss chain; `None` keeps the plain
    /// i.i.d. `loss` behaviour (and draws no extra randomness).
    pub burst: Option<BurstLoss>,
}

impl LinkProfile {
    /// A perfect link: zero delay, no loss, infinite bandwidth.
    ///
    /// Useful in unit tests where network effects are noise.
    pub fn ideal() -> Self {
        LinkProfile {
            base_delay: Duration::ZERO,
            jitter: Duration::ZERO,
            loss: 0.0,
            duplicate: 0.0,
            reorder: 0.0,
            reorder_extra: Duration::ZERO,
            bandwidth: None,
            burst: None,
        }
    }

    /// The paper's LAN environment: a lightly loaded 100 Mbps switched
    /// Ethernet. Sub-millisecond delay, no loss, no reordering.
    pub fn lan() -> Self {
        LinkProfile {
            base_delay: Duration::from_micros(200),
            jitter: Duration::from_micros(300),
            loss: 0.0,
            duplicate: 0.0,
            reorder: 0.0,
            reorder_extra: Duration::ZERO,
            bandwidth: Some(100_000_000 / 8),
            burst: None,
        }
    }

    /// The paper's small-scale WAN: seven Internet hops between the Hebrew
    /// and Tel Aviv Universities, UDP without QoS reservation. Tens of
    /// milliseconds of delay, ~1 % loss, occasional reordering.
    pub fn wan() -> Self {
        LinkProfile {
            base_delay: Duration::from_millis(25),
            jitter: Duration::from_millis(15),
            loss: 0.01,
            duplicate: 0.001,
            reorder: 0.02,
            reorder_extra: Duration::from_millis(30),
            bandwidth: Some(10_000_000 / 8),
            burst: None,
        }
    }

    /// A WAN path with an ATM-style QoS reservation (paper §2, §8): the
    /// propagation delay of [`LinkProfile::wan`] remains, but the reserved
    /// constant-bit-rate channel eliminates loss, duplication and
    /// reordering and bounds jitter tightly. The paper notes the service
    /// is "best provided using QoS reservation mechanisms"; this profile
    /// lets experiments quantify exactly what the reservation buys.
    pub fn wan_reserved() -> Self {
        LinkProfile {
            base_delay: Duration::from_millis(25),
            jitter: Duration::from_millis(1),
            loss: 0.0,
            duplicate: 0.0,
            reorder: 0.0,
            reorder_extra: Duration::ZERO,
            bandwidth: Some(10_000_000 / 8),
            burst: None,
        }
    }

    /// Returns a copy with the loss probability replaced.
    ///
    /// # Panics
    ///
    /// Panics if `loss` is outside `[0, 1]`.
    pub fn with_loss(mut self, loss: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&loss),
            "loss must be in [0,1], got {loss}"
        );
        self.loss = loss;
        self
    }

    /// Returns a copy with the base propagation delay replaced.
    pub fn with_base_delay(mut self, base_delay: Duration) -> Self {
        self.base_delay = base_delay;
        self
    }

    /// Returns a copy with the jitter bound replaced.
    pub fn with_jitter(mut self, jitter: Duration) -> Self {
        self.jitter = jitter;
        self
    }

    /// Returns a copy with the egress bandwidth replaced.
    ///
    /// # Panics
    ///
    /// Panics if `bytes_per_sec` is `Some(0)`.
    pub fn with_bandwidth(mut self, bytes_per_sec: Option<u64>) -> Self {
        assert!(bytes_per_sec != Some(0), "bandwidth must be positive");
        self.bandwidth = bytes_per_sec;
        self
    }

    /// Returns a copy with Gilbert–Elliott burst loss enabled: the link
    /// enters a bad state with probability `p_enter` per datagram, leaves
    /// it with probability `p_exit`, and drops with probability `loss_bad`
    /// while bad (the profile's `loss` still applies while good).
    ///
    /// # Panics
    ///
    /// Panics if any probability is outside `[0, 1]`.
    pub fn with_burst_loss(mut self, p_enter: f64, p_exit: f64, loss_bad: f64) -> Self {
        for (name, p) in [
            ("p_enter", p_enter),
            ("p_exit", p_exit),
            ("loss_bad", loss_bad),
        ] {
            assert!((0.0..=1.0).contains(&p), "{name} must be in [0,1], got {p}");
        }
        self.burst = Some(BurstLoss {
            p_enter,
            p_exit,
            loss_bad,
        });
        self
    }
}

impl Default for LinkProfile {
    /// The default profile is [`LinkProfile::ideal`].
    fn default() -> Self {
        LinkProfile::ideal()
    }
}

/// A payload that can travel through the simulated network.
///
/// Implementors report their approximate wire size (used for serialization
/// delay and the bandwidth accounting behind the paper's "synchronization
/// overhead < 0.1 % of video bandwidth" claim) and a coarse traffic class
/// label used to break byte counters down by protocol.
pub trait Payload: Clone + fmt::Debug + 'static {
    /// Approximate size of this message on the wire, in bytes, including
    /// nominal UDP/IP header overhead if the implementor wishes to model it.
    fn size_bytes(&self) -> usize;

    /// Coarse traffic class for statistics (e.g. `"video"`, `"gcs"`).
    ///
    /// Must be a pure function of the message: the simulator asks again
    /// when it routes a datagram and when it delivers it, rather than
    /// storing the answer beside it.
    fn class(&self) -> &'static str {
        "default"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_ordering_is_numeric() {
        assert!(NodeId(1) < NodeId(2));
        assert_eq!(NodeId::from(7), NodeId(7));
    }

    #[test]
    fn endpoint_display() {
        let e = Endpoint::new(NodeId(3), Port(9));
        assert_eq!(e.to_string(), "n3:9");
        assert_eq!(format!("{e:?}"), "n3:9");
    }

    #[test]
    fn profiles_are_sane() {
        let lan = LinkProfile::lan();
        assert_eq!(lan.loss, 0.0);
        assert!(lan.base_delay < Duration::from_millis(1));

        let wan = LinkProfile::wan();
        assert!(wan.loss > 0.0);
        assert!(wan.base_delay > lan.base_delay);

        let ideal = LinkProfile::default();
        assert_eq!(ideal, LinkProfile::ideal());
    }

    #[test]
    fn reserved_wan_keeps_delay_drops_loss() {
        let reserved = LinkProfile::wan_reserved();
        let best_effort = LinkProfile::wan();
        assert_eq!(reserved.base_delay, best_effort.base_delay);
        assert_eq!(reserved.loss, 0.0);
        assert_eq!(reserved.reorder, 0.0);
        assert!(reserved.jitter < best_effort.jitter);
    }

    #[test]
    fn builder_methods_replace_fields() {
        let p = LinkProfile::lan()
            .with_loss(0.5)
            .with_base_delay(Duration::from_millis(2))
            .with_jitter(Duration::from_millis(3))
            .with_bandwidth(None);
        assert_eq!(p.loss, 0.5);
        assert_eq!(p.base_delay, Duration::from_millis(2));
        assert_eq!(p.jitter, Duration::from_millis(3));
        assert_eq!(p.bandwidth, None);
    }

    #[test]
    #[should_panic(expected = "loss must be in [0,1]")]
    fn with_loss_validates() {
        let _ = LinkProfile::lan().with_loss(1.5);
    }

    #[test]
    #[should_panic(expected = "bandwidth must be positive")]
    fn with_bandwidth_rejects_zero() {
        let _ = LinkProfile::lan().with_bandwidth(Some(0));
    }

    #[test]
    fn burst_loss_is_off_by_default_and_configurable() {
        assert_eq!(LinkProfile::lan().burst, None);
        assert_eq!(LinkProfile::wan().burst, None);
        let p = LinkProfile::lan().with_burst_loss(0.05, 0.25, 0.9);
        let burst = p.burst.expect("burst configured");
        assert_eq!(burst.p_enter, 0.05);
        assert_eq!(burst.p_exit, 0.25);
        assert_eq!(burst.loss_bad, 0.9);
        assert_eq!(p.loss, 0.0, "good-state loss keeps the base profile");
    }

    #[test]
    #[should_panic(expected = "p_exit must be in [0,1]")]
    fn with_burst_loss_validates() {
        let _ = LinkProfile::lan().with_burst_loss(0.1, 1.5, 0.9);
    }
}
