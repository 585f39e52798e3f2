#![allow(dead_code)] // each test binary uses a different subset
//! Shared test harness: a minimal application process embedding a
//! [`GcsNode`], recording every view and delivery it observes.

use gcs::{GcsConfig, GcsEvent, GcsNode, GcsPacket, GroupId, View};
use simnet::{Context, Endpoint, NodeId, Payload, Port, Process, Simulation, Timer};

pub const GCS_PORT: Port = Port(7);
pub const GCS_TICK: u64 = 1;

/// Tiny application payload: a labelled number.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Chat(pub u64);

impl Payload for Chat {
    fn size_bytes(&self) -> usize {
        8
    }

    fn class(&self) -> &'static str {
        "chat"
    }
}

pub type Wire = GcsPacket<Chat>;

/// Test process: forwards everything to the embedded GCS endpoint and logs
/// the upcalls.
pub struct App {
    pub gcs: GcsNode<Chat>,
    pub views: Vec<(GroupId, View)>,
    pub delivered: Vec<(GroupId, NodeId, u64)>,
}

impl App {
    pub fn new(node: NodeId, bootstrap: Vec<NodeId>) -> Self {
        App {
            gcs: GcsNode::new(GcsConfig::new(), node, GCS_PORT, GCS_TICK, bootstrap),
            views: Vec::new(),
            delivered: Vec::new(),
        }
    }

    pub fn record(&mut self, events: Vec<GcsEvent<Chat>>) {
        for event in events {
            match event {
                GcsEvent::View { group, view } => self.views.push((group, view)),
                GcsEvent::Deliver {
                    group,
                    sender,
                    payload,
                } => self.delivered.push((group, sender, payload.0)),
            }
        }
    }

    /// Latest view installed for `group`, if any.
    pub fn last_view(&self, group: GroupId) -> Option<&View> {
        self.views
            .iter()
            .rev()
            .find(|(g, _)| *g == group)
            .map(|(_, v)| v)
    }

    /// Payload numbers delivered in `group` from `sender`, in order.
    pub fn delivered_from(&self, group: GroupId, sender: NodeId) -> Vec<u64> {
        self.delivered
            .iter()
            .filter(|(g, s, _)| *g == group && *s == sender)
            .map(|(_, _, n)| *n)
            .collect()
    }
}

impl Process<Wire> for App {
    fn on_start(&mut self, ctx: &mut Context<'_, Wire>) {
        self.gcs.start(ctx);
    }

    fn on_datagram(
        &mut self,
        ctx: &mut Context<'_, Wire>,
        from: Endpoint,
        _to: Endpoint,
        msg: Wire,
    ) {
        let events = self.gcs.on_packet(ctx, from, msg);
        self.record(events);
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, Wire>, timer: Timer) {
        let events = self.gcs.on_timer(ctx, timer);
        self.record(events);
    }
}

/// Boots `n` App nodes (ids 1..=n) that all know about each other.
pub fn boot(sim: &mut Simulation<Wire>, n: u32) -> Vec<NodeId> {
    let ids: Vec<NodeId> = (1..=n).map(NodeId).collect();
    for &id in &ids {
        sim.add_node(id, App::new(id, ids.clone()));
    }
    ids
}

/// Instructs `node` to create `group` immediately.
pub fn create(sim: &mut Simulation<Wire>, node: NodeId, group: GroupId) {
    sim.invoke(node, |app: &mut App, _ctx| {
        let events = app.gcs.create_group(group);
        app.record(events);
    })
    .expect("create_group invoke");
}

/// Instructs `node` to start joining `group`.
pub fn join(sim: &mut Simulation<Wire>, node: NodeId, group: GroupId, contacts: &[NodeId]) {
    sim.invoke(node, |app: &mut App, ctx| {
        app.gcs.join(ctx, group, contacts);
    })
    .expect("join invoke");
}

/// Instructs `node` to multicast `value` in `group`.
pub fn say(sim: &mut Simulation<Wire>, node: NodeId, group: GroupId, value: u64) {
    sim.invoke(node, |app: &mut App, ctx| {
        let events = app
            .gcs
            .multicast(ctx, group, Chat(value))
            .expect("multicast while member");
        app.record(events);
    })
    .expect("say invoke");
}

/// Reads the latest view of `group` at `node`.
pub fn view_at(sim: &Simulation<Wire>, node: NodeId, group: GroupId) -> Option<View> {
    sim.with_process(node, |app: &App| app.last_view(group).cloned())
        .flatten()
}
