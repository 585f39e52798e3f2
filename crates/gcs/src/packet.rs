//! Wire packets of the group communication protocol.
//!
//! The embedding application defines one top-level message enum for the
//! whole simulation and provides `From<GcsPacket<P>>` into it; incoming
//! packets are routed back to [`GcsNode::on_packet`](crate::GcsNode::on_packet)
//! by matching on that enum.

use simnet::{NodeId, Payload};

use crate::types::{GroupId, View, ViewId};

/// Nominal UDP/IP header overhead added to every packet's size estimate.
pub const HEADER_BYTES: usize = 28;

/// The [`Payload::class`] of GCS liveness: heartbeats, acks and announces.
/// A `static`, so that every packet names its class by one address and an
/// embedding that names the class by this same value finds it by identity.
pub static HB_CLASS: &str = "gcs-hb";

/// The [`Payload::class`] of GCS membership and retransmission control (a
/// `static` like [`HB_CLASS`]).
pub static CTL_CLASS: &str = "gcs-ctl";

/// A packet of the group communication protocol, generic over the
/// application payload `P`.
#[derive(Clone, Debug, PartialEq)]
pub enum GcsPacket<P> {
    /// Liveness beacon; any packet refreshes the failure detector, but
    /// heartbeats guarantee a minimum rate.
    Heartbeat,
    /// A non-member asks to join `group`.
    JoinReq {
        /// Group to join.
        group: GroupId,
        /// The joining node.
        joiner: NodeId,
    },
    /// A member asks to leave `group` gracefully.
    LeaveReq {
        /// Group to leave.
        group: GroupId,
        /// The leaving node.
        leaver: NodeId,
    },
    /// A reliable FIFO application multicast within a group.
    AppMsg {
        /// Target group.
        group: GroupId,
        /// Original sender.
        origin: NodeId,
        /// Per-(group, origin) sequence number, starting at 1.
        seq: u64,
        /// The application payload.
        payload: P,
    },
    /// Negative acknowledgment: ask `origin` to retransmit the sequence
    /// range `[from_seq, to_seq]` of its messages in `group`.
    Nak {
        /// Group with the gap.
        group: GroupId,
        /// Sender whose messages are missing.
        origin: NodeId,
        /// First missing sequence number.
        from_seq: u64,
        /// Last missing sequence number.
        to_seq: u64,
    },
    /// Cumulative delivery acknowledgment, used for stability tracking and
    /// garbage collection of retained messages.
    Ack {
        /// Group the acknowledgments are scoped to.
        group: GroupId,
        /// `(sender, highest contiguously delivered seq)` pairs.
        delivered: Vec<(NodeId, u64)>,
    },
    /// Phase 1 of a view change: the coordinator proposes a new view and
    /// asks candidates to flush.
    Prepare {
        /// Group under reconfiguration.
        group: GroupId,
        /// Proposed view id (must exceed anything candidates promised).
        vid: ViewId,
        /// Proposed membership.
        candidates: Vec<NodeId>,
    },
    /// Phase 1 response: the candidate stops delivering, reports its
    /// delivery floors and hands over every message it retains.
    FlushAck {
        /// Group under reconfiguration.
        group: GroupId,
        /// Echo of the proposal id.
        vid: ViewId,
        /// `(sender, highest delivered seq)` at the moment of flushing.
        delivered: Vec<(NodeId, u64)>,
        /// Messages this candidate holds (sent-unstable, delivered-unstable
        /// and buffered-undelivered), for the coordinator to redistribute.
        held: Vec<(NodeId, u64, P)>,
    },
    /// Phase 2: install the new view. `cut` is the per-sender delivery
    /// horizon of the old view; `fill` supplies any messages a member may
    /// be missing below the cut.
    Install {
        /// Group under reconfiguration.
        group: GroupId,
        /// The new view.
        view: View,
        /// `(sender, seq)` delivery horizon of the previous view.
        cut: Vec<(NodeId, u64)>,
        /// Messages below the cut that some member may lack.
        fill: Vec<(NodeId, u64, P)>,
    },
    /// Periodic existence announcement by a group coordinator to non-member
    /// bootstrap nodes; drives partition merging.
    Announce {
        /// The announced group.
        group: GroupId,
        /// Current view id on the announcing side.
        vid: ViewId,
        /// Current members on the announcing side.
        members: Vec<NodeId>,
    },
    /// Best-effort message from a non-member to all members of a group
    /// (the paper's clients contact the abstract server group this way).
    NonMemberSend {
        /// Target group.
        group: GroupId,
        /// The non-member sender.
        origin: NodeId,
        /// Per-origin id for duplicate suppression.
        msg_id: u64,
        /// Application payload.
        payload: P,
    },
}

impl<P: Payload> Payload for GcsPacket<P> {
    fn size_bytes(&self) -> usize {
        let body = match self {
            GcsPacket::Heartbeat => 8,
            GcsPacket::JoinReq { .. } | GcsPacket::LeaveReq { .. } => 16,
            GcsPacket::AppMsg { payload, .. } => 24 + payload.size_bytes(),
            GcsPacket::Nak { .. } => 32,
            GcsPacket::Ack { delivered, .. } => 12 + 12 * delivered.len(),
            GcsPacket::Prepare { candidates, .. } => 24 + 4 * candidates.len(),
            GcsPacket::FlushAck {
                delivered, held, ..
            } => {
                24 + 12 * delivered.len()
                    + held
                        .iter()
                        .map(|(_, _, p)| 16 + p.size_bytes())
                        .sum::<usize>()
            }
            GcsPacket::Install {
                view, cut, fill, ..
            } => {
                24 + 4 * view.members.len()
                    + 12 * cut.len()
                    + fill
                        .iter()
                        .map(|(_, _, p)| 16 + p.size_bytes())
                        .sum::<usize>()
            }
            GcsPacket::Announce { members, .. } => 24 + 4 * members.len(),
            GcsPacket::NonMemberSend { payload, .. } => 28 + payload.size_bytes(),
        };
        HEADER_BYTES + body
    }

    fn class(&self) -> &'static str {
        match self {
            GcsPacket::Heartbeat | GcsPacket::Ack { .. } | GcsPacket::Announce { .. } => HB_CLASS,
            GcsPacket::AppMsg { payload, .. } | GcsPacket::NonMemberSend { payload, .. } => {
                payload.class()
            }
            _ => CTL_CLASS,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Clone, Debug, PartialEq)]
    struct Word(&'static str);

    impl Payload for Word {
        fn size_bytes(&self) -> usize {
            self.0.len()
        }

        fn class(&self) -> &'static str {
            "word"
        }
    }

    #[test]
    fn app_messages_inherit_payload_class() {
        let pkt = GcsPacket::AppMsg {
            group: GroupId(1),
            origin: NodeId(1),
            seq: 1,
            payload: Word("hello"),
        };
        assert_eq!(pkt.class(), "word");
        assert_eq!(pkt.size_bytes(), HEADER_BYTES + 24 + 5);
    }

    #[test]
    fn control_classes() {
        let hb: GcsPacket<Word> = GcsPacket::Heartbeat;
        assert_eq!(hb.class(), "gcs-hb");
        let join: GcsPacket<Word> = GcsPacket::JoinReq {
            group: GroupId(1),
            joiner: NodeId(2),
        };
        assert_eq!(join.class(), "gcs-ctl");
    }

    #[test]
    fn flush_ack_size_includes_held_payloads() {
        let pkt = GcsPacket::FlushAck {
            group: GroupId(1),
            vid: ViewId::default(),
            delivered: vec![(NodeId(1), 5)],
            held: vec![(NodeId(1), 6, Word("abcd"))],
        };
        assert_eq!(pkt.size_bytes(), HEADER_BYTES + 24 + 12 + 16 + 4);
    }

    #[test]
    fn install_size_includes_view_cut_and_fill() {
        let pkt = GcsPacket::Install {
            group: GroupId(1),
            view: View::new(ViewId::default(), vec![NodeId(1), NodeId(2)]),
            cut: vec![(NodeId(1), 6), (NodeId(2), 0)],
            fill: vec![(NodeId(1), 6, Word("abcd"))],
        };
        assert_eq!(pkt.size_bytes(), HEADER_BYTES + 24 + 8 + 24 + 16 + 4);
    }
}
