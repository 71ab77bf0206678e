//! Layer attribution from outside the program: a wrapper [`Actor`] that
//! times every callback into the node it wraps and tallies the messages it
//! receives, plus traced re-assemblies of the plain and faithful networks
//! from the public constructors.
//!
//! `Network::run` time minus the time spent inside wrapped callbacks is the
//! `netsim` engine's self time (queue, dispatch, network model); the
//! callback time is the protocol layer's (`fpss` for `PlainFpssNode`,
//! `faithful` for `FaithfulNode`/`BankNode`).

use specfaith::core::id::NodeId;
use specfaith::crypto::auth::ChannelKey;
use specfaith::crypto::sha256::Digest;
use specfaith::faithful::actor::NodeOrBank;
use specfaith::faithful::node::FMsg;
use specfaith::faithful::{BankNode, FaithfulConfig, FaithfulNode};
use specfaith::fpss::deviation::Faithful;
use specfaith::fpss::node::PlainFpssNode;
use specfaith::fpss::runner::PlainConfig;
use specfaith::fpss::FpssMsg;
use specfaith::netsim::{Actor, Connectivity, Ctx, Latency, Network};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Received-message counts by protocol variant, and rows carried.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Tally {
    pub cost_announce: u64,
    pub cost_update: u64,
    pub routing_update: u64,
    pub pricing_update: u64,
    pub data: u64,
    pub route_rows: u64,
    pub price_rows: u64,
    pub checker_copy: u64,
    pub bank: u64,
    /// `FMsg::Fpss` envelopes (the faithful protocol's own FPSS traffic).
    pub fpss_envelope: u64,
}

impl Tally {
    pub fn add(&mut self, other: &Tally) {
        self.cost_announce += other.cost_announce;
        self.cost_update += other.cost_update;
        self.routing_update += other.routing_update;
        self.pricing_update += other.pricing_update;
        self.data += other.data;
        self.route_rows += other.route_rows;
        self.price_rows += other.price_rows;
        self.checker_copy += other.checker_copy;
        self.bank += other.bank;
        self.fpss_envelope += other.fpss_envelope;
    }
}

/// A message type whose variants the probe can count.
pub trait Classify {
    fn tally(&self, tally: &mut Tally);
}

impl Classify for FpssMsg {
    fn tally(&self, tally: &mut Tally) {
        match self {
            FpssMsg::CostAnnounce { .. } => tally.cost_announce += 1,
            FpssMsg::CostUpdate { .. } => tally.cost_update += 1,
            FpssMsg::RoutingUpdate { rows } => {
                tally.routing_update += 1;
                tally.route_rows += rows.len() as u64;
            }
            FpssMsg::PricingUpdate { rows, .. } => {
                tally.pricing_update += 1;
                tally.price_rows += rows.len() as u64;
            }
            FpssMsg::Data(_) => tally.data += 1,
        }
    }
}

impl Classify for FMsg {
    fn tally(&self, tally: &mut Tally) {
        match self {
            FMsg::Fpss(_) => tally.fpss_envelope += 1,
            FMsg::CheckerCopy { .. } => tally.checker_copy += 1,
            FMsg::Bank(_) => tally.bank += 1,
        }
    }
}

/// Wraps an actor: forwards every callback unchanged, timing it and
/// tallying delivered messages.
pub struct Timed<A> {
    pub inner: A,
    pub busy: Duration,
    pub tally: Tally,
}

impl<A> Timed<A> {
    pub fn new(inner: A) -> Self {
        Timed {
            inner,
            busy: Duration::ZERO,
            tally: Tally::default(),
        }
    }

    fn timed<R>(&mut self, f: impl FnOnce(&mut A) -> R) -> R {
        let started = Instant::now();
        let out = f(&mut self.inner);
        self.busy += started.elapsed();
        out
    }
}

impl<A: Actor> Actor for Timed<A>
where
    A::Msg: Classify,
{
    type Msg = A::Msg;

    fn on_start(&mut self, ctx: &mut Ctx<'_, A::Msg>) {
        self.timed(|a| a.on_start(ctx));
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_, A::Msg>, from: NodeId, msg: A::Msg) {
        msg.tally(&mut self.tally);
        self.timed(|a| a.on_message(ctx, from, msg));
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, A::Msg>, tag: u64) {
        self.timed(|a| a.on_timer(ctx, tag));
    }

    fn observes_quiescence(&self) -> bool {
        self.inner.observes_quiescence()
    }

    fn on_quiescence(&mut self, ctx: &mut Ctx<'_, A::Msg>) {
        self.timed(|a| a.on_quiescence(ctx));
    }
}

/// Callback time and tallies summed over a network's wrapped actors.
#[derive(Clone, Copy, Debug, Default)]
pub struct Split {
    /// `Network::run` wall time.
    pub run: Duration,
    /// Time inside protocol-node callbacks.
    pub node: Duration,
    /// Time inside bank callbacks (faithful only).
    pub bank: Duration,
    pub tally: Tally,
}

impl Split {
    /// Engine self time: run time not spent inside any callback.
    pub fn engine(&self) -> Duration {
        self.run.saturating_sub(self.node + self.bank)
    }
}

/// Times `net.run()` and attributes it; `is_bank` picks out the bank actor.
/// Callback counters are reset first, so a split covers one `run` only.
pub fn traced_run<A: Actor>(
    net: &mut Network<Timed<A>, Latency>,
    is_bank: impl Fn(NodeId) -> bool,
) -> (Split, specfaith::netsim::RunOutcome)
where
    A::Msg: Classify,
{
    let ids: Vec<NodeId> = net.node_ids().collect();
    for &id in &ids {
        let actor = net.node_mut(id);
        actor.busy = Duration::ZERO;
        actor.tally = Tally::default();
    }
    let started = Instant::now();
    let outcome = net.run();
    let mut split = Split {
        run: started.elapsed(),
        ..Split::default()
    };
    for &id in &ids {
        let actor = net.node(id);
        if is_bank(id) {
            split.bank += actor.busy;
        } else {
            split.node += actor.busy;
        }
        split.tally.add(&actor.tally);
    }
    (split, outcome)
}

pub type PlainNet = Network<Timed<PlainFpssNode>, Latency>;
pub type FaithfulNet = Network<Timed<NodeOrBank>, Latency>;

/// The plain network `PlainRunState::checkpoint` builds, every node
/// faithful, each node wrapped in a [`Timed`] probe.
pub fn plain_network(config: &PlainConfig, seed: u64) -> PlainNet {
    let n = config.topo.num_nodes();
    let max_hops = (4 * n) as u32;
    let actors = config
        .topo
        .nodes()
        .map(|me| {
            Timed::new(PlainFpssNode::new(
                me,
                config.topo.neighbors(me).to_vec(),
                config.true_costs.cost(me),
                Box::new(Faithful),
                max_hops,
            ))
        })
        .collect();
    Network::new(
        Connectivity::from_topology(&config.topo),
        actors,
        config.latency,
        seed,
    )
    .with_network(&config.network)
    .with_dynamics(&config.dynamics)
    .with_max_events(config.max_events)
}

/// The faithful network `FaithfulRunState::checkpoint` builds (nodes plus
/// a bank holding execution after certification), every actor wrapped.
pub fn faithful_network(config: &FaithfulConfig, seed: u64) -> FaithfulNet {
    let n = config.topo.num_nodes();
    let bank_id = NodeId::from_index(n);
    let max_hops = (4 * n) as u32;
    let neighbor_map: BTreeMap<NodeId, Vec<NodeId>> = config
        .topo
        .nodes()
        .map(|v| (v, config.topo.neighbors(v).to_vec()))
        .collect();
    let mut actors: Vec<Timed<NodeOrBank>> = config
        .topo
        .nodes()
        .map(|me| {
            Timed::new(NodeOrBank::Node(Box::new(FaithfulNode::new(
                me,
                config.topo.neighbors(me).to_vec(),
                neighbor_map.clone(),
                config.true_costs.cost(me),
                Box::new(Faithful),
                bank_id,
                ChannelKey::derive(&config.bank_secret, me.raw()),
                max_hops,
            ))))
        })
        .collect();
    let bank = BankNode::new(
        config.topo.clone(),
        &config.bank_secret,
        config.max_restarts,
        config.epsilon,
    )
    .with_execution_hold();
    actors.push(Timed::new(NodeOrBank::Bank(Box::new(bank))));
    Network::new(
        Connectivity::from_topology_with_overlay(&config.topo, 1),
        actors,
        config.latency,
        seed,
    )
    .with_network(&config.network)
    .with_dynamics(&config.dynamics)
    .with_max_events(config.max_events)
}

/// Per-node `(DATA1, DATA2, DATA3*)` digests, as the run states report them.
pub fn digests<'a>(
    cores: impl Iterator<Item = &'a specfaith::fpss::node::FpssCore>,
) -> Vec<(Digest, Digest, Digest)> {
    cores
        .map(|core| {
            (
                core.data1().digest(),
                core.routes().digest(),
                core.prices().digest(),
            )
        })
        .collect()
}
