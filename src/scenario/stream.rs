//! Streaming service mode: a scenario as a resumable fixed point.
//!
//! [`Scenario::run`] treats a run as a one-shot batch: build the network,
//! converge, verify, execute, settle, throw everything away. A deployed
//! routing service does not work like that — the network converges
//! *once*, then absorbs a trickle of cost re-declarations and (under the
//! plain mechanism) node churn, each of which should cost incremental
//! work proportional to what actually changed, not a cold rebuild.
//!
//! [`Scenario::stream`] is that service mode. It checkpoints the scenario
//! at its converged fixed point, replays a caller-supplied sequence of
//! [`TopologyEvent`]s against the live network — each event re-converging
//! via the epoch-gated `CostUpdate` flood and destination-scoped
//! recomputes, with reference caches seeded from the previous fixed
//! point — and then releases execution-phase traffic against the final
//! tables. Every applied event is re-verified against the centralized
//! VCG reference (plain) or the bank's signed-hash recertification
//! (faithful), and the streamed tables are **byte-identical** to a cold
//! run on the updated topology — `tests/streaming_equivalence.rs` pins
//! that across generators and random event sequences.
//!
//! For event-at-a-time control (the benchmark's cold-vs-incremental
//! timing, or a long-lived service loop), use [`Scenario::stream_session`]
//! and drive the [`StreamSession`] directly.

use super::shard::fnv1a64;
use super::{EngineConfig, RunReport, Scenario};
use specfaith_crypto::sha256::Digest;
use specfaith_faithful::harness::{FaithfulEventStatus, FaithfulRunState};
use specfaith_fpss::deviation::Faithful;
use specfaith_fpss::runner::{EventStatus, PlainRunState};
use specfaith_graph::cache::CacheScope;
use specfaith_graph::costs::CostVector;
use specfaith_netsim::TopologyEvent;
use std::fmt;

/// How a streamed event landed, unified across mechanisms.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StreamStatus {
    /// The event changed protocol state and the network re-converged.
    Applied,
    /// A link-latency change: absorbed by the transport, no protocol
    /// state to re-converge.
    LatencyOnly,
    /// Refused without touching the fixed point (unknown node, node
    /// already in that state, or a removal that would break
    /// biconnectivity).
    Rejected,
    /// Refused because the event class is outside the mechanism's
    /// streaming contract: partitions/heals under either mechanism, and
    /// *any* churn under the faithful mechanism, where a leaving node
    /// stalls the bank's signed-hash round forever (the paper's §4.2
    /// liveness assumption). Reported instead of hanging.
    Unsupported,
}

impl From<EventStatus> for StreamStatus {
    fn from(status: EventStatus) -> Self {
        match status {
            EventStatus::Applied => StreamStatus::Applied,
            EventStatus::LatencyOnly => StreamStatus::LatencyOnly,
            EventStatus::RejectedDown | EventStatus::RejectedNotBiconnected => {
                StreamStatus::Rejected
            }
            EventStatus::Unsupported => StreamStatus::Unsupported,
        }
    }
}

impl From<FaithfulEventStatus> for StreamStatus {
    fn from(status: FaithfulEventStatus) -> Self {
        match status {
            FaithfulEventStatus::Applied => StreamStatus::Applied,
            FaithfulEventStatus::LatencyOnly => StreamStatus::LatencyOnly,
            FaithfulEventStatus::Rejected => StreamStatus::Rejected,
            FaithfulEventStatus::LivenessHole => StreamStatus::Unsupported,
        }
    }
}

/// One streamed event's convergence record.
#[derive(Clone, Debug)]
pub struct StreamEvent {
    /// The event as submitted.
    pub event: TopologyEvent,
    /// How it landed.
    pub status: StreamStatus,
    /// Messages the re-convergence delivered (0 unless `Applied`).
    pub messages: u64,
    /// Virtual time the re-convergence took, in microseconds.
    pub micros: u64,
    /// Convergence rounds (virtual time over per-hop latency) under a
    /// fixed latency model; `None` under jittered latency, where rounds
    /// are not well defined.
    pub rounds: Option<u64>,
    /// Whether the new fixed point re-verified: the centralized VCG
    /// reference check (plain) or bank recertification (faithful).
    /// `None` when nothing was re-verified — the event was not applied,
    /// or nodes are down and the centralized reference does not model
    /// the reduced topology.
    pub verified: Option<bool>,
    /// Fingerprint of every node's converged tables *after* this event
    /// (see [`StreamReport::tables_fingerprint`]).
    pub tables_fingerprint: String,
}

/// The result of [`Scenario::stream`]: per-event convergence records,
/// the tables fingerprint at the end of the stream, and the final
/// execution/settlement report.
#[derive(Clone, Debug)]
pub struct StreamReport {
    /// One record per submitted event, in submission order.
    pub events: Vec<StreamEvent>,
    /// Fingerprint of the converged tables after the last event — equal,
    /// by the streaming correctness pin, to the fingerprint of a cold
    /// run on the final topology and declarations.
    pub tables_fingerprint: String,
    /// The execution-phase outcome after the stream drained (traffic
    /// released against the final tables, then settled).
    pub final_report: RunReport,
}

impl StreamReport {
    /// Number of events that were applied (changed the fixed point).
    pub fn applied(&self) -> usize {
        self.events
            .iter()
            .filter(|e| e.status == StreamStatus::Applied)
            .count()
    }

    /// Whether every applied event's new fixed point re-verified
    /// (vacuously true when nothing was verified).
    pub fn all_verified(&self) -> bool {
        self.events.iter().all(|e| e.verified != Some(false))
    }

    /// Total messages across all streamed re-convergences (excluding
    /// the initial checkpoint and final execution).
    pub fn stream_messages(&self) -> u64 {
        self.events.iter().map(|e| e.messages).sum()
    }
}

impl fmt::Display for StreamReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{} events ({} applied), {} stream messages, tables {}",
            self.events.len(),
            self.applied(),
            self.stream_messages(),
            self.tables_fingerprint
        )?;
        for e in &self.events {
            writeln!(
                f,
                "  {:?}: {:?}, {} msgs, {} µs{}{}",
                e.event,
                e.status,
                e.messages,
                e.micros,
                match e.rounds {
                    Some(r) => format!(", {r} rounds"),
                    None => String::new(),
                },
                match e.verified {
                    Some(true) => ", verified",
                    Some(false) => ", VERIFY FAILED",
                    None => "",
                }
            )?;
        }
        Ok(())
    }
}

/// A live, resumable scenario: the converged (and, under the faithful
/// mechanism, bank-certified) fixed point, held open for streamed
/// topology events. Created by [`Scenario::stream_session`]; consumed by
/// [`StreamSession::finish`].
pub struct StreamSession {
    engine: StreamEngine,
}

enum StreamEngine {
    Plain(PlainRunState),
    Faithful(FaithfulRunState),
}

impl StreamSession {
    /// Streams one event against the current fixed point and returns its
    /// convergence record.
    pub fn apply_event(&mut self, event: &TopologyEvent) -> StreamEvent {
        let (status, messages, micros, rounds, verified) = match &mut self.engine {
            StreamEngine::Plain(state) => {
                let o = state.apply_event(event);
                (
                    StreamStatus::from(o.status),
                    o.messages,
                    o.micros,
                    o.rounds,
                    o.reference_ok,
                )
            }
            StreamEngine::Faithful(state) => {
                let o = state.apply_event(event);
                (
                    StreamStatus::from(o.status),
                    o.messages,
                    o.micros,
                    o.rounds,
                    o.recertified,
                )
            }
        };
        StreamEvent {
            event: event.clone(),
            status,
            messages,
            micros,
            rounds,
            verified,
            tables_fingerprint: self.tables_fingerprint(),
        }
    }

    /// Per-node `(DATA1, DATA2, DATA3*)` digests of the current fixed
    /// point. For nodes currently down (plain mechanism only), the
    /// digests are of the purged tables the live network no longer
    /// routes through.
    pub fn table_digests(&self) -> Vec<(Digest, Digest, Digest)> {
        match &self.engine {
            StreamEngine::Plain(state) => state.table_digests(),
            StreamEngine::Faithful(state) => state.table_digests(),
        }
    }

    /// `fnv1a64:`-prefixed fingerprint over every node's table digests —
    /// the quantity the streaming correctness pin compares against a
    /// cold run.
    pub fn tables_fingerprint(&self) -> String {
        fingerprint_digests(&self.table_digests())
    }

    /// The declared cost vector at the current fixed point.
    pub fn declared(&self) -> &CostVector {
        match &self.engine {
            StreamEngine::Plain(state) => state.declared(),
            StreamEngine::Faithful(state) => state.declared(),
        }
    }

    /// Releases execution: queues the scenario's traffic against the
    /// final tables (the faithful bank green-lights from its held
    /// certification), runs it, and settles.
    pub fn finish(self) -> RunReport {
        match self.engine {
            StreamEngine::Plain(state) => RunReport::from_plain(state.finish()),
            StreamEngine::Faithful(state) => RunReport::from_faithful(state.finish()),
        }
    }
}

/// Fingerprints a table-digest vector (the workspace's canonical cheap
/// content hash over the concatenated SHA-256 digests).
pub(crate) fn fingerprint_digests(digests: &[(Digest, Digest, Digest)]) -> String {
    let mut bytes = Vec::with_capacity(digests.len() * 96);
    for (d1, d2, d3) in digests {
        bytes.extend_from_slice(d1.as_bytes());
        bytes.extend_from_slice(d2.as_bytes());
        bytes.extend_from_slice(d3.as_bytes());
    }
    format!("fnv1a64:{:016x}", fnv1a64(&bytes))
}

impl Scenario {
    /// Checkpoints this scenario at its converged fixed point and holds
    /// it open for streamed topology events. Every node plays faithful.
    ///
    /// Streamed re-convergence draws reference caches from an eager
    /// scope seeded from the previous fixed point's pinned cache, so
    /// each event's verification repairs the previous fixed point's
    /// trees instead of rebuilding them cold, and superseded generations
    /// are dropped as the pin rolls forward.
    pub fn stream_session(&self, seed: u64) -> StreamSession {
        let scenario = self.with_route_scope(CacheScope::eager());
        let engine = match &scenario.engine {
            EngineConfig::Plain(c) => {
                StreamEngine::Plain(PlainRunState::checkpoint(c, |_| Box::new(Faithful), seed))
            }
            EngineConfig::Faithful(c) => StreamEngine::Faithful(FaithfulRunState::checkpoint(
                c,
                |_| Box::new(Faithful),
                seed,
            )),
        };
        StreamSession { engine }
    }

    /// Streaming service mode: checkpoint at the converged fixed point,
    /// replay `events` one at a time — each re-converging incrementally
    /// and re-verifying against the centralized reference (plain) or the
    /// bank's recertification (faithful) — then release execution
    /// traffic against the final tables and settle.
    ///
    /// The correctness pin: after every applied event, the streamed
    /// tables are byte-identical to a cold run on the updated topology
    /// and declarations.
    pub fn stream(&self, events: &[TopologyEvent], seed: u64) -> StreamReport {
        let mut session = self.stream_session(seed);
        let events: Vec<StreamEvent> = events.iter().map(|e| session.apply_event(e)).collect();
        let tables_fingerprint = session.tables_fingerprint();
        StreamReport {
            events,
            tables_fingerprint,
            final_report: session.finish(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{Mechanism, TopologySource, TrafficModel};
    use specfaith_fpss::runner::converged_table_digests;

    fn events() -> Vec<TopologyEvent> {
        use specfaith_core::id::NodeId;
        vec![
            TopologyEvent::NodeCost {
                node: NodeId::new(2),
                cost: 9,
            },
            TopologyEvent::NodeCost {
                node: NodeId::new(3),
                cost: 0,
            },
            TopologyEvent::NodeCost {
                node: NodeId::new(2),
                cost: 9,
            },
        ]
    }

    #[test]
    fn plain_stream_applies_verifies_and_lands_on_the_cold_fingerprint() {
        let scenario = Scenario::builder().build();
        let report = scenario.stream(&events(), 7);
        assert_eq!(report.events.len(), 3);
        assert_eq!(report.applied(), 3);
        assert!(report.all_verified());
        assert!(report.stream_messages() > 0);
        assert!(!report.final_report.truncated);
        assert_eq!(report.final_report.tables_match_centralized(), Some(true));

        // The streamed fingerprint is the cold fingerprint of the final
        // declarations.
        let mut session = scenario.stream_session(7);
        for e in events() {
            session.apply_event(&e);
        }
        let cold = converged_table_digests(
            scenario.topology(),
            session.declared(),
            specfaith_netsim::Latency::DEFAULT,
            99,
        );
        assert_eq!(report.tables_fingerprint, fingerprint_digests(&cold));
    }

    #[test]
    fn faithful_stream_recertifies_each_event_and_matches_plain_tables() {
        let plain = Scenario::builder().build();
        let faithful = Scenario::builder().mechanism(Mechanism::faithful()).build();
        let p = plain.stream(&events(), 3);
        let f = faithful.stream(&events(), 3);
        assert!(f.all_verified(), "bank recertifies every streamed event");
        assert!(f.final_report.green_lighted());
        // Same FpssCore fixed point under both mechanisms.
        assert_eq!(p.tables_fingerprint, f.tables_fingerprint);
        for (pe, fe) in p.events.iter().zip(&f.events) {
            assert_eq!(pe.tables_fingerprint, fe.tables_fingerprint);
        }
    }

    #[test]
    fn unsupported_and_rejected_events_leave_the_fingerprint_alone() {
        let scenario = Scenario::builder()
            .topology(TopologySource::Ring(4))
            .traffic(TrafficModel::single_by_index(0, 2, 1))
            .build();
        let baseline = scenario.stream(&[], 1).tables_fingerprint;
        let report = scenario.stream(
            &[
                // Removing any ring node leaves a path: not biconnected.
                TopologyEvent::NodeDown(specfaith_core::id::NodeId::new(1)),
                TopologyEvent::Heal,
            ],
            1,
        );
        assert_eq!(report.events[0].status, StreamStatus::Rejected);
        assert_eq!(report.events[1].status, StreamStatus::Unsupported);
        assert_eq!(report.applied(), 0);
        assert_eq!(report.tables_fingerprint, baseline);

        // The faithful mechanism refuses churn outright (the documented
        // §4.2 liveness hole) instead of hanging.
        let faithful = Scenario::builder()
            .topology(TopologySource::Ring(4))
            .traffic(TrafficModel::single_by_index(0, 2, 1))
            .mechanism(Mechanism::faithful())
            .build();
        let f = faithful.stream(
            &[TopologyEvent::NodeDown(specfaith_core::id::NodeId::new(1))],
            1,
        );
        assert_eq!(f.events[0].status, StreamStatus::Unsupported);
        assert!(f.final_report.green_lighted());
    }
}
