//! The faithful FPSS node: principal + checker roles behind one actor.
//!
//! Each topology node simultaneously:
//!
//! * runs the FPSS construction/execution protocol as a **principal**
//!   (reusing [`FpssCore`] and the same pure recompute functions as plain
//!   FPSS);
//! * forwards every construction message it receives to its checkers
//!   (\[PRINC1\]/\[PRINC2\] — through its strategy, which is where
//!   message-passing deviations live);
//! * maintains a [`Mirror`] of every neighbor, acting as their **checker**
//!   (\[CHECK1\]/\[CHECK2\]);
//! * answers the bank's signed requests: hash reports at checkpoints,
//!   payment/observation reports after execution.

use crate::checker::Mirror;
use crate::codec::{BankPayload, MirrorHashes, PrincipalObservation};
use specfaith_core::id::NodeId;
use specfaith_core::money::{Cost, Money};
use specfaith_crypto::auth::{Authenticated, ChannelKey};
use specfaith_fpss::deviation::RationalStrategy;
use specfaith_fpss::msg::{FpssMsg, Packet};
use specfaith_fpss::node::{announcements, FpssCore, StreamCommand, TableDelta, TAG_STREAM};
use specfaith_fpss::state::PaymentLedger;
use specfaith_netsim::{Actor, Ctx, Payload};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Messages of the faithful protocol.
#[derive(Clone, Debug)]
pub enum FMsg {
    /// A plain FPSS protocol message between neighbors.
    Fpss(FpssMsg),
    /// A copy of an inbound construction message, forwarded by a
    /// principal to its checkers (\[PRINC1\]/\[PRINC2\]).
    CheckerCopy {
        /// The neighbor the principal claims sent the original.
        original_from: NodeId,
        /// The (possibly tampered) copy.
        inner: FpssMsg,
    },
    /// A MAC-authenticated bank-channel envelope.
    Bank(Authenticated),
}

impl Payload for FMsg {
    /// Frozen wire-size formulas — the mechanism's overhead accounting and
    /// the byte-identical golden runs in `tests/network_models.rs` both
    /// build on them (see the wire-size contract in `specfaith_fpss::msg`).
    /// `CheckerCopy` adds a 4-byte claimed-sender id to the inner message;
    /// `Bank` counts sender id (4) + sequence (8) + HMAC tag (32) + the
    /// sealed payload bytes.
    fn size_bytes(&self) -> usize {
        match self {
            FMsg::Fpss(m) => m.size_bytes(),
            FMsg::CheckerCopy { inner, .. } => 4 + inner.size_bytes(),
            FMsg::Bank(env) => 4 + 8 + 32 + env.payload.len(),
        }
    }
}

/// The faithful node actor.
pub struct FaithfulNode {
    core: FpssCore,
    true_cost: Cost,
    declared: Option<Cost>,
    strategy: Box<dyn RationalStrategy>,
    mirrors: BTreeMap<NodeId, Mirror>,
    bank: NodeId,
    key: ChannelKey,
    send_seq: u64,
    last_bank_seq: u64,
    pending_traffic: Vec<(NodeId, u64)>,
    originated: BTreeMap<NodeId, u64>,
    delivered_from: BTreeMap<NodeId, u64>,
    carried: u64,
    dropped: u64,
    ledger: PaymentLedger,
    max_hops: u32,
    auth_failures: u64,
    settled: Option<(Money, Money)>,
    /// Highest [`FpssMsg::CostUpdate`] epoch seen per origin (including
    /// this node's own streamed re-declarations).
    cost_epochs: BTreeMap<NodeId, u64>,
    /// Engine-queued streaming commands, drained on [`TAG_STREAM`].
    stream_commands: Vec<StreamCommand>,
}

impl std::fmt::Debug for FaithfulNode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "FaithfulNode({}, strategy={})",
            self.core.me(),
            self.strategy.spec().name()
        )
    }
}

impl FaithfulNode {
    /// Creates a node.
    ///
    /// `neighbor_map` provides each neighbor's own neighbor list (the
    /// semi-private adjacency knowledge checkers hold about their
    /// principals).
    #[allow(clippy::too_many_arguments)] // node identity, knowledge, strategy, and bank wiring are all distinct concerns
    pub fn new(
        me: NodeId,
        neighbors: Vec<NodeId>,
        neighbor_map: BTreeMap<NodeId, Vec<NodeId>>,
        true_cost: Cost,
        strategy: Box<dyn RationalStrategy>,
        bank: NodeId,
        key: ChannelKey,
        max_hops: u32,
    ) -> Self {
        let mirrors = neighbors
            .iter()
            .map(|&p| {
                let p_neighbors = neighbor_map
                    .get(&p)
                    .expect("neighbor map covers all neighbors")
                    .clone();
                (p, Mirror::new(me, p, p_neighbors))
            })
            .collect();
        FaithfulNode {
            core: FpssCore::new(me, neighbors),
            true_cost,
            declared: None,
            strategy,
            mirrors,
            bank,
            key,
            send_seq: 0,
            last_bank_seq: 0,
            pending_traffic: Vec::new(),
            originated: BTreeMap::new(),
            delivered_from: BTreeMap::new(),
            carried: 0,
            dropped: 0,
            ledger: PaymentLedger::new(),
            max_hops,
            auth_failures: 0,
            settled: None,
            cost_epochs: BTreeMap::new(),
            stream_commands: Vec::new(),
        }
    }

    /// Queues a streaming management command; the engine schedules a
    /// [`TAG_STREAM`] timer on this node to drain the queue in-simulation.
    /// The faithful engine only streams [`StreamCommand::DeclareCost`] —
    /// churn commands are a plain-engine concept (see the liveness-hole
    /// discussion on `FaithfulRunState`).
    pub fn queue_stream_command(&mut self, cmd: StreamCommand) {
        self.stream_commands.push(cmd);
    }

    /// The construction core.
    pub fn core(&self) -> &FpssCore {
        &self.core
    }

    /// The declared cost, once started.
    pub fn declared_cost(&self) -> Option<Cost> {
        self.declared
    }

    /// Queues execution-phase traffic (sent on the bank's green light).
    pub fn add_traffic(&mut self, dst: NodeId, packets: u64) {
        self.pending_traffic.push((dst, packets));
    }

    /// Packets transited (true cost incurred on each).
    pub fn carried(&self) -> u64 {
        self.carried
    }

    /// Packets dropped here.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Bank-channel verification failures observed by this node.
    pub fn auth_failures(&self) -> u64 {
        self.auth_failures
    }

    /// The settlement `(net_transfer, penalty)` received from the bank.
    pub fn settled(&self) -> Option<(Money, Money)> {
        self.settled
    }

    /// The checker mirror held for `principal`, if it is a neighbor.
    pub fn mirror(&self, principal: NodeId) -> Option<&Mirror> {
        self.mirrors.get(&principal)
    }

    fn send_to_bank(&mut self, ctx: &mut Ctx<'_, FMsg>, payload: &BankPayload) {
        self.send_seq += 1;
        let env = self.key.seal(self.send_seq, payload.encode());
        ctx.send(self.bank, FMsg::Bank(env));
    }

    fn start_construction(&mut self, ctx: &mut Ctx<'_, FMsg>) {
        let me = self.core.me();
        let declared = self.strategy.declare_cost(self.true_cost);
        self.declared = Some(declared);
        self.core.learn_cost(me, declared);
        for mirror in self.mirrors.values_mut() {
            mirror.learn_cost(me, declared);
        }
        for &b in self.core.neighbors() {
            ctx.send(
                b,
                FMsg::Fpss(FpssMsg::CostAnnounce {
                    origin: me,
                    declared,
                }),
            );
        }
        self.recompute_and_announce(ctx);
    }

    fn reset_construction(&mut self) {
        self.core.reset();
        for mirror in self.mirrors.values_mut() {
            mirror.reset_construction();
        }
    }

    fn announce(&mut self, ctx: &mut Ctx<'_, FMsg>, delta: TableDelta) {
        for msg in announcements(self.strategy.as_mut(), self.core.me(), delta) {
            for &b in self.core.neighbors() {
                ctx.send(b, FMsg::Fpss(msg.clone()));
            }
            // What went on the wire is also what our mirrors of the
            // receivers must count as "our" input to them.
            for mirror in self.mirrors.values_mut() {
                mirror.record_own_send(&msg);
            }
        }
    }

    fn recompute_and_announce(&mut self, ctx: &mut Ctx<'_, FMsg>) {
        let me = self.core.me();
        let strategy = &mut self.strategy;
        let delta = self
            .core
            .recompute_with(|honest| strategy.install_own_pricing(me, honest));
        self.announce(ctx, delta);
    }

    /// Recompute after `origin`'s declared cost was learned or changed
    /// (see `FpssCore::apply_cost_change`), then announce.
    fn recompute_after_cost_change(&mut self, ctx: &mut Ctx<'_, FMsg>, origin: NodeId) {
        let delta = self.core.apply_cost_change(origin, self.strategy.as_mut());
        self.announce(ctx, delta);
    }

    fn apply_stream_command(&mut self, ctx: &mut Ctx<'_, FMsg>, cmd: StreamCommand) {
        let me = self.core.me();
        match cmd {
            StreamCommand::DeclareCost(cost) => {
                self.true_cost = cost;
                let declared = self.strategy.declare_cost(cost);
                self.declared = Some(declared);
                let epoch = self.cost_epochs.get(&me).copied().unwrap_or(0) + 1;
                self.cost_epochs.insert(me, epoch);
                let changed = self.core.update_cost(me, declared);
                for mirror in self.mirrors.values_mut() {
                    mirror.update_cost(me, declared);
                }
                for &b in self.core.neighbors() {
                    ctx.send(
                        b,
                        FMsg::Fpss(FpssMsg::CostUpdate {
                            origin: me,
                            declared,
                            epoch,
                        }),
                    );
                }
                if changed {
                    self.recompute_after_cost_change(ctx, me);
                }
            }
            // Churn commands never reach faithful nodes: the streaming
            // engine reports the checkpointing liveness hole instead of
            // streaming them (see `FaithfulRunState::apply_event`).
            StreamCommand::PurgeNode(_)
            | StreamCommand::Rejoin
            | StreamCommand::ResyncNeighbor(_) => {}
        }
    }

    /// Forwards a copy of `original` to every checker but its sender. The
    /// copies share the original's rows unless the strategy rewrites them.
    fn forward_to_checkers(&mut self, ctx: &mut Ctx<'_, FMsg>, from: NodeId, original: FpssMsg) {
        if let Some(copy) = self.strategy.forward_to_checkers(from, original) {
            for &c in self.core.neighbors() {
                if c != from {
                    ctx.send(
                        c,
                        FMsg::CheckerCopy {
                            original_from: from,
                            inner: copy.clone(),
                        },
                    );
                }
            }
        }
    }

    fn send_packet(&mut self, ctx: &mut Ctx<'_, FMsg>, next: NodeId, pkt: Packet) {
        if let Some(mirror) = self.mirrors.get_mut(&next) {
            mirror.record_own_send(&FpssMsg::Data(pkt));
        }
        ctx.send(next, FMsg::Fpss(FpssMsg::Data(pkt)));
    }

    fn handle_packet(&mut self, ctx: &mut Ctx<'_, FMsg>, pkt: Packet) {
        let me = self.core.me();
        if pkt.dst == me {
            *self.delivered_from.entry(pkt.src).or_insert(0) += 1;
            return;
        }
        if pkt.hops > self.max_hops {
            self.dropped += 1;
            return;
        }
        if pkt.src != me && !self.strategy.forward_packet(me, &pkt) {
            self.dropped += 1;
            return;
        }
        let Some(next) = self.core.routes().next_hop(pkt.dst) else {
            self.dropped += 1;
            return;
        };
        if pkt.src != me {
            self.carried += 1;
        }
        self.send_packet(
            ctx,
            next,
            Packet {
                hops: pkt.hops + 1,
                ..pkt
            },
        );
    }

    fn begin_execution(&mut self, ctx: &mut Ctx<'_, FMsg>) {
        let me = self.core.me();
        let flows = std::mem::take(&mut self.pending_traffic);
        for (dst, packets) in flows {
            let Some(path) = self.core.routes().path(dst).map(<[NodeId]>::to_vec) else {
                continue;
            };
            let transits: Vec<NodeId> = if path.len() > 2 {
                path[1..path.len() - 1].to_vec()
            } else {
                Vec::new()
            };
            for _ in 0..packets {
                *self.originated.entry(dst).or_insert(0) += 1;
                for &k in &transits {
                    let price = self.core.prices().price(dst, k).unwrap_or(Money::ZERO);
                    self.ledger.accrue(k, price);
                }
                self.handle_packet(
                    ctx,
                    Packet {
                        src: me,
                        dst,
                        hops: 0,
                    },
                );
            }
        }
    }

    fn hash_report(&mut self) -> BankPayload {
        let mirrors = self
            .mirrors
            .values_mut()
            .map(|mirror| {
                mirror.recompute();
                MirrorHashes {
                    principal: mirror.principal(),
                    announced_routing: mirror.announced_routing().digest(),
                    announced_pricing: mirror.announced_pricing().digest(),
                    recomputed_routing: mirror.recomputed_routing().digest(),
                    recomputed_pricing: mirror.recomputed_pricing().digest(),
                }
            })
            .collect();
        BankPayload::HashReport {
            own_routing: self.core.routes().digest(),
            own_pricing: self.core.prices().digest(),
            mirrors,
        }
    }

    fn payment_report(&mut self) -> BankPayload {
        let me = self.core.me();
        let honest = self.ledger.to_entries();
        let reported = self.strategy.report_owed(me, honest);
        BankPayload::PaymentReport {
            owed: reported
                .into_iter()
                .map(|(to, amount)| (to.raw(), amount.value()))
                .collect(),
            originated: self
                .originated
                .iter()
                .map(|(&dst, &count)| (dst.raw(), count))
                .collect(),
        }
    }

    fn observation_report(&mut self) -> BankPayload {
        let principals = self
            .mirrors
            .values_mut()
            .map(|mirror| {
                mirror.recompute();
                PrincipalObservation {
                    principal: mirror.principal().raw(),
                    declared_cost: mirror
                        .principal_declared_cost()
                        .map(Cost::value)
                        .unwrap_or(0),
                    sent_to: mirror
                        .flows_sent_to()
                        .iter()
                        .map(|(&(s, d), &c)| (s.raw(), d.raw(), c))
                        .collect(),
                    recv_from: mirror
                        .flows_recv_from()
                        .iter()
                        .map(|(&(s, d), &c)| (s.raw(), d.raw(), c))
                        .collect(),
                    mirror_prices: mirror
                        .recomputed_pricing()
                        .iter()
                        .map(|((dst, k), entry)| (dst.raw(), k.raw(), entry.price.value()))
                        .collect(),
                }
            })
            .collect();
        BankPayload::ObservationReport { principals }
    }

    fn handle_bank(&mut self, ctx: &mut Ctx<'_, FMsg>, env: Authenticated) {
        let payload = match self.key.open(&env, self.last_bank_seq) {
            Ok(bytes) => {
                self.last_bank_seq = env.sequence;
                bytes
            }
            Err(_) => {
                self.auth_failures += 1;
                return;
            }
        };
        let Ok(payload) = BankPayload::decode(&payload) else {
            self.auth_failures += 1;
            return;
        };
        match payload {
            BankPayload::RequestHashes => {
                let report = self.hash_report();
                self.send_to_bank(ctx, &report);
            }
            BankPayload::Restart => {
                self.reset_construction();
                self.start_construction(ctx);
            }
            BankPayload::GreenLight => self.begin_execution(ctx),
            BankPayload::RequestReports => {
                let payments = self.payment_report();
                self.send_to_bank(ctx, &payments);
                let observations = self.observation_report();
                self.send_to_bank(ctx, &observations);
            }
            BankPayload::Settle {
                net_transfer,
                penalty,
            } => {
                self.settled = Some((Money::new(net_transfer), Money::new(penalty)));
            }
            // Node-originated payloads arriving at a node are protocol
            // violations; count and ignore.
            BankPayload::HashReport { .. }
            | BankPayload::PaymentReport { .. }
            | BankPayload::ObservationReport { .. } => {
                self.auth_failures += 1;
            }
        }
    }
}

impl Actor for FaithfulNode {
    type Msg = FMsg;

    fn on_start(&mut self, ctx: &mut Ctx<'_, FMsg>) {
        self.start_construction(ctx);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, FMsg>, tag: u64) {
        if tag == TAG_STREAM {
            let cmds = std::mem::take(&mut self.stream_commands);
            for cmd in cmds {
                self.apply_stream_command(ctx, cmd);
            }
        }
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_, FMsg>, from: NodeId, msg: FMsg) {
        match msg {
            FMsg::Fpss(FpssMsg::CostAnnounce { origin, declared }) => {
                if self.core.learn_cost(origin, declared) {
                    for mirror in self.mirrors.values_mut() {
                        mirror.learn_cost(origin, declared);
                    }
                    if let Some(reflooded) = self.strategy.reflood_cost(origin, declared) {
                        for &b in self.core.neighbors() {
                            if b != from {
                                ctx.send(
                                    b,
                                    FMsg::Fpss(FpssMsg::CostAnnounce {
                                        origin,
                                        declared: reflooded,
                                    }),
                                );
                            }
                        }
                    }
                    self.recompute_after_cost_change(ctx, origin);
                }
            }
            FMsg::Fpss(FpssMsg::CostUpdate {
                origin,
                declared,
                epoch,
            }) => {
                let last = self.cost_epochs.get(&origin).copied().unwrap_or(0);
                if epoch <= last {
                    return;
                }
                self.cost_epochs.insert(origin, epoch);
                // Re-flood on epoch newness (the epoch check terminates the
                // flood), exactly as the plain node does. Like CostAnnounce,
                // CostUpdate is not checker-forwarded: mirrors share the
                // global DATA1, so the overwrite reaches every checker
                // through the flood itself.
                for &b in self.core.neighbors() {
                    if b != from {
                        ctx.send(
                            b,
                            FMsg::Fpss(FpssMsg::CostUpdate {
                                origin,
                                declared,
                                epoch,
                            }),
                        );
                    }
                }
                if self.core.update_cost(origin, declared) {
                    for mirror in self.mirrors.values_mut() {
                        mirror.update_cost(origin, declared);
                    }
                    self.recompute_after_cost_change(ctx, origin);
                }
            }
            FMsg::Fpss(FpssMsg::RoutingUpdate { rows }) => {
                if let Some(mirror) = self.mirrors.get_mut(&from) {
                    mirror.record_announced_routing(&rows);
                }
                let original = FpssMsg::RoutingUpdate {
                    rows: Arc::clone(&rows),
                };
                self.forward_to_checkers(ctx, from, original);
                let strategy = self.strategy.as_mut();
                if let Some(delta) = self.core.apply_routing_update(from, &rows, strategy) {
                    self.announce(ctx, delta);
                }
            }
            FMsg::Fpss(FpssMsg::PricingUpdate { rows, retractions }) => {
                if let Some(mirror) = self.mirrors.get_mut(&from) {
                    mirror.record_announced_pricing(&rows, &retractions);
                }
                let original = FpssMsg::PricingUpdate {
                    rows: Arc::clone(&rows),
                    retractions: Arc::clone(&retractions),
                };
                self.forward_to_checkers(ctx, from, original);
                let strategy = self.strategy.as_mut();
                let delta = self
                    .core
                    .apply_pricing_update(from, &rows, &retractions, strategy);
                if let Some(delta) = delta {
                    self.announce(ctx, delta);
                }
            }
            FMsg::Fpss(FpssMsg::Data(pkt)) => {
                if let Some(mirror) = self.mirrors.get_mut(&from) {
                    mirror.record_packet_from_principal(pkt.src, pkt.dst);
                }
                self.handle_packet(ctx, pkt);
            }
            FMsg::CheckerCopy {
                original_from,
                inner,
            } => {
                if let Some(mirror) = self.mirrors.get_mut(&from) {
                    mirror.feed_forwarded(original_from, &inner);
                }
            }
            FMsg::Bank(env) => self.handle_bank(ctx, env),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use specfaith_fpss::msg::Packet;

    /// Pins the faithful-layer wire-size formulas. These feed the network
    /// models' serialization/contention math and the golden byte totals in
    /// `tests/network_models.rs`; changing them is a reproducibility break.
    #[test]
    fn wire_sizes_are_frozen() {
        let packet = Packet {
            src: NodeId::new(0),
            dst: NodeId::new(1),
            hops: 2,
        };
        assert_eq!(FMsg::Fpss(FpssMsg::Data(packet)).size_bytes(), 12);
        assert_eq!(
            FMsg::CheckerCopy {
                original_from: NodeId::new(3),
                inner: FpssMsg::Data(packet),
            }
            .size_bytes(),
            4 + 12
        );
        let env = ChannelKey::derive(b"test-secret", 7).seal(1, vec![0u8; 10]);
        assert_eq!(FMsg::Bank(env).size_bytes(), 4 + 8 + 32 + 10);
    }
}
