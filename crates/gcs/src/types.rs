//! Core vocabulary of the group communication service: groups, views,
//! delivered events and configuration.

use std::fmt;
use std::time::Duration;

use simnet::NodeId;

/// Identifier of a process group.
///
/// The VoD service creates three kinds of groups (paper §5.1): the *server
/// group*, one *movie group* per movie, and one *session group* per client.
/// Group ids are plain numbers; the application assigns ranges to each kind.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct GroupId(pub u64);

impl fmt::Debug for GroupId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "g{}", self.0)
    }
}

impl fmt::Display for GroupId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "g{}", self.0)
    }
}

impl From<u64> for GroupId {
    fn from(raw: u64) -> Self {
        GroupId(raw)
    }
}

/// Identifier of an installed view: a monotonically increasing epoch plus
/// the coordinator that installed it. Ordered lexicographically, so any two
/// competing proposals are totally ordered.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct ViewId {
    /// Monotonic epoch; each successful or attempted view change bumps it.
    pub epoch: u64,
    /// The member that proposed and installed this view.
    pub coordinator: NodeId,
}

impl fmt::Display for ViewId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}@{}", self.epoch, self.coordinator)
    }
}

/// The membership of a group at a point in time.
///
/// Members are kept sorted by [`NodeId`]; protocols rely on
/// [`View::coordinator_candidate`] (the minimum member) being deterministic
/// across all members.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct View {
    /// Identifier of this view.
    pub id: ViewId,
    /// Sorted list of live, mutually connected members.
    pub members: Vec<NodeId>,
}

impl View {
    /// Creates a view, sorting and deduplicating `members`.
    pub fn new(id: ViewId, mut members: Vec<NodeId>) -> Self {
        members.sort_unstable();
        members.dedup();
        View { id, members }
    }

    /// Whether `node` belongs to this view.
    pub fn contains(&self, node: NodeId) -> bool {
        self.members.binary_search(&node).is_ok()
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// Whether the view has no members (only possible for the default
    /// placeholder; installed views always include at least the installer).
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// The member that is expected to coordinate the *next* view change:
    /// the minimum live member id.
    pub fn coordinator_candidate(&self) -> Option<NodeId> {
        self.members.first().copied()
    }

    /// 0-based position of `node` among the members, if present. The VoD
    /// servers use ranks for deterministic client redistribution.
    pub fn rank_of(&self, node: NodeId) -> Option<usize> {
        self.members.binary_search(&node).ok()
    }
}

impl fmt::Display for View {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}{:?}", self.id, self.members)
    }
}

/// An upcall from the group communication service to the application.
#[derive(Clone, Debug, PartialEq)]
pub enum GcsEvent<P> {
    /// A new view was installed for `group`. Per view synchrony, all
    /// surviving members deliver the same set of messages before the view.
    View {
        /// The group whose membership changed.
        group: GroupId,
        /// The newly installed view.
        view: View,
    },
    /// An application message was delivered in `group` (FIFO per sender
    /// within the group; a node also delivers its own multicasts).
    Deliver {
        /// The group the message was multicast in.
        group: GroupId,
        /// The original sender (a member, or a non-member for
        /// [`GcsNode::send_to_group`](crate::GcsNode::send_to_group) traffic).
        sender: NodeId,
        /// The application payload.
        payload: P,
    },
}

/// Period of the group communication service's housekeeping timer; every
/// interval below, and [`GcsConfig::announce_every_ticks`], counts these
/// ticks.
pub const TICK_PERIOD: Duration = Duration::from_millis(50);
/// A heartbeat to every known peer each this many ticks: every 100 ms,
/// which with [`GcsConfig::suspect_timeout`]'s 400 ms and the flush round
/// yields the paper's ~0.5 s average takeover (§4.2).
pub const HB_EVERY_TICKS: u64 = 2;
/// Cumulative delivery acknowledgments (stability tracking) are broadcast
/// each this many ticks.
pub const ACK_EVERY_TICKS: u64 = 4;
/// A joiner re-sends its join request each this many ticks.
pub const JOIN_RETRY_TICKS: u64 = 6;
/// A view change that has not completed within this many ticks is aborted
/// and retried (the coordinator excludes unresponsive candidates).
pub const FLUSH_TIMEOUT_TICKS: u64 = 10;
/// A joiner that hears nothing for this many ticks forms a singleton view
/// and relies on announces and merge to coalesce.
pub const SINGLETON_FORM_TICKS: u64 = 24;
/// Entries learned from announces expire after this many ticks.
pub const FOREIGN_EXPIRY_TICKS: u64 = 40;

/// Tuning knobs of the group communication service; the intervals no
/// caller varies are the constants above.
///
/// The defaults reproduce the paper's operating point: heartbeats every
/// 100 ms, suspicion after 400 ms of silence, which together with the flush
/// round yields the ~0.5 s average takeover time reported in §4.2.
#[derive(Clone, Debug, PartialEq)]
pub struct GcsConfig {
    /// Suspect a peer after this much silence.
    pub suspect_timeout: Duration,
    /// Coordinators announce their view to non-member bootstrap nodes each
    /// `announce_every_ticks` ticks (drives partition merge).
    pub announce_every_ticks: u64,
}

impl GcsConfig {
    /// The paper's operating point (see struct-level docs).
    pub fn new() -> Self {
        GcsConfig {
            suspect_timeout: Duration::from_millis(400),
            announce_every_ticks: 10,
        }
    }

    /// Returns a copy with a different suspicion timeout (the main lever on
    /// failure detection — and therefore takeover — latency).
    pub fn with_suspect_timeout(mut self, timeout: Duration) -> Self {
        self.suspect_timeout = timeout;
        self
    }
}

impl Default for GcsConfig {
    fn default() -> Self {
        GcsConfig::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn view_sorts_and_dedups_members() {
        let v = View::new(
            ViewId::default(),
            vec![NodeId(3), NodeId(1), NodeId(3), NodeId(2)],
        );
        assert_eq!(v.members, vec![NodeId(1), NodeId(2), NodeId(3)]);
        assert_eq!(v.len(), 3);
        assert!(v.contains(NodeId(2)));
        assert!(!v.contains(NodeId(9)));
    }

    #[test]
    fn coordinator_is_min_member() {
        let v = View::new(ViewId::default(), vec![NodeId(5), NodeId(2)]);
        assert_eq!(v.coordinator_candidate(), Some(NodeId(2)));
        assert_eq!(v.rank_of(NodeId(5)), Some(1));
        assert_eq!(v.rank_of(NodeId(7)), None);
    }

    #[test]
    fn empty_view_has_no_coordinator() {
        let v = View::default();
        assert!(v.is_empty());
        assert_eq!(v.coordinator_candidate(), None);
    }

    #[test]
    fn view_ids_order_by_epoch_then_coordinator() {
        let a = ViewId {
            epoch: 1,
            coordinator: NodeId(9),
        };
        let b = ViewId {
            epoch: 2,
            coordinator: NodeId(1),
        };
        assert!(a < b);
        let c = ViewId {
            epoch: 2,
            coordinator: NodeId(2),
        };
        assert!(b < c);
    }

    #[test]
    fn config_default_matches_new() {
        assert_eq!(GcsConfig::default(), GcsConfig::new());
        let tweaked = GcsConfig::new().with_suspect_timeout(Duration::from_millis(900));
        assert_eq!(tweaked.suspect_timeout, Duration::from_millis(900));
    }

    #[test]
    fn display_formats() {
        assert_eq!(GroupId(4).to_string(), "g4");
        let vid = ViewId {
            epoch: 3,
            coordinator: NodeId(1),
        };
        assert_eq!(vid.to_string(), "v3@n1");
    }
}
