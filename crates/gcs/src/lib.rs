//! # gcs — a Transis-style group communication substrate
//!
//! The paper's VoD service exploits the Transis group communication system
//! for connection establishment, control messages and server state sharing.
//! No mature group-communication crate exists in the Rust ecosystem, so this
//! crate builds the required services from scratch on top of [`simnet`]:
//!
//! * **group abstraction** — processes arrange into multicast groups
//!   addressed by [`GroupId`]; senders need not know member identities;
//! * **membership service** — live, connected members of each group are
//!   tracked and every change (crash, join, leave, partition, merge) is
//!   delivered to the survivors as a new [`View`];
//! * **reliable multicast** — FIFO-per-sender, gap-recovered multicast
//!   within a view, with *view synchrony*: members that install two
//!   consecutive views deliver the same messages in between. Its every
//!   decision, the view cut included, is one step of a plain value, a
//!   [`delivery::Channel`] per group, as membership's are of
//!   [`proto::Membership`];
//! * **failure detection** — heartbeat-based, with a configurable
//!   suspicion timeout ([`GcsConfig::suspect_timeout`]) that dominates the
//!   paper's ~0.5 s takeover time.
//!
//! The endpoint type is [`GcsNode`]; it is embedded inside a
//! [`simnet::Process`] rather than running as a separate daemon. Its one
//! periodic timer (the housekeeping tick armed by [`GcsNode::start`])
//! runs while the endpoint has work; an endpoint that has left its last
//! group lets it lapse and is re-armed, on the same 50 ms grid and with
//! the tick count it would have reached, by the next `join`, `multicast`,
//! `on_packet` or `start` — so an idle endpoint schedules no events:
//!
//! ```
//! use gcs::{GcsConfig, GcsEvent, GcsNode, GcsPacket, GroupId};
//! use simnet::{
//!     Context, Endpoint, LinkProfile, NodeId, Payload, Port, Process, SimTime, Simulation,
//!     Timer,
//! };
//! use std::time::Duration;
//!
//! #[derive(Clone, Debug)]
//! struct Note(u32);
//! impl Payload for Note {
//!     fn size_bytes(&self) -> usize { 8 }
//! }
//!
//! /// The embedding pattern: one port and one timer tag belong to the GCS.
//! struct Member {
//!     gcs: GcsNode<Note>,
//!     heard: Vec<u32>,
//! }
//!
//! impl Member {
//!     fn new(node: NodeId, everyone: Vec<NodeId>) -> Self {
//!         Member {
//!             gcs: GcsNode::new(GcsConfig::new(), node, Port(7), 1, everyone),
//!             heard: Vec::new(),
//!         }
//!     }
//!     fn absorb(&mut self, events: Vec<GcsEvent<Note>>) {
//!         for event in events {
//!             if let GcsEvent::Deliver { payload, .. } = event {
//!                 self.heard.push(payload.0);
//!             }
//!         }
//!     }
//! }
//!
//! impl Process<GcsPacket<Note>> for Member {
//!     fn on_start(&mut self, ctx: &mut Context<'_, GcsPacket<Note>>) {
//!         self.gcs.start(ctx);
//!     }
//!     fn on_datagram(
//!         &mut self,
//!         ctx: &mut Context<'_, GcsPacket<Note>>,
//!         from: Endpoint,
//!         _to: Endpoint,
//!         msg: GcsPacket<Note>,
//!     ) {
//!         let events = self.gcs.on_packet(ctx, from, msg);
//!         self.absorb(events);
//!     }
//!     fn on_timer(&mut self, ctx: &mut Context<'_, GcsPacket<Note>>, timer: Timer) {
//!         let events = self.gcs.on_timer(ctx, timer);
//!         self.absorb(events);
//!     }
//! }
//!
//! // Form a two-member group and multicast through it.
//! const G: GroupId = GroupId(1);
//! let ids = vec![NodeId(1), NodeId(2)];
//! let mut sim = Simulation::new(3);
//! sim.set_default_profile(LinkProfile::lan());
//! for &id in &ids {
//!     sim.add_node(id, Member::new(id, ids.clone()));
//! }
//! sim.run_until(SimTime::from_millis(100));
//! sim.invoke(NodeId(1), |m: &mut Member, _ctx| {
//!     let events = m.gcs.create_group(G);
//!     m.absorb(events);
//! });
//! sim.invoke(NodeId(2), |m: &mut Member, ctx| m.gcs.join(ctx, G, &[]));
//! sim.run_for(Duration::from_secs(2));
//! sim.invoke(NodeId(1), |m: &mut Member, ctx| {
//!     let events = m.gcs.multicast(ctx, G, Note(7)).expect("member");
//!     m.absorb(events);
//! });
//! sim.run_for(Duration::from_secs(1));
//! let heard = sim.with_process(NodeId(2), |m: &Member| m.heard.clone()).unwrap();
//! assert_eq!(heard, vec![7]);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod delivery;
mod node;
mod packet;
pub mod proto;
mod types;

pub use node::{GcsNode, GcsTrace, NotMemberError};
pub use packet::{GcsPacket, CTL_CLASS, HB_CLASS, HEADER_BYTES};
pub use proto::GroupStatus;
pub use types::{
    GcsConfig, GcsEvent, GroupId, View, ViewId, ACK_EVERY_TICKS, FLUSH_TIMEOUT_TICKS,
    FOREIGN_EXPIRY_TICKS, HB_EVERY_TICKS, JOIN_RETRY_TICKS, SINGLETON_FORM_TICKS, TICK_PERIOD,
};
