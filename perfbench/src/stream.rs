//! `stream_costs`: one caller in a closed loop re-declaring single-node
//! costs against a checkpointed n=64 plain session; each event is sent
//! after the previous one returns.

use crate::converge::{plain_config, record_fpss, record_split, record_trace, SMALL_N};
use crate::probe::{self, Split};
use crate::{build_scenario, median, mix, record_latencies, Output, Setups};
use specfaith::core::id::NodeId;
use specfaith::core::money::Cost;
use specfaith::fpss::node::{StreamCommand, TAG_STREAM};
use specfaith::fpss::pricing::{expected_tables_for, tables_agree};
use specfaith::fpss::runner::converged_table_digests;
use specfaith::graph::cache::RouteCache;
use specfaith::graph::costs::CostVector;
use specfaith::netsim::{Latency, SimDuration};
use specfaith::scenario::{
    Mechanism, Scenario, StreamEvent, StreamSession, StreamStatus, TopologyEvent,
};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Minimum events per untraced pass: two rounds of the walk, so at least
/// ten samples lie beyond p90.
pub const MIN_EVENTS: usize = 2 * SMALL_N;
/// Events of the traced pass (fixed, so its counts repeat exactly).
pub const TRACE_EVENTS: usize = 48;
/// The event rate that sizes an untraced pass from its seconds, near the
/// rate measured on a 2-core VM.
const NOMINAL_EVENTS_PER_S: f64 = 10.0;
/// Declared costs are drawn from `1..=MAX_COST`, like the instance's.
const MAX_COST: u64 = 20;

pub fn scenario() -> Scenario {
    build_scenario(SMALL_N, Mechanism::Plain)
}

/// The event walk of `seed`: every node re-declares once per round, in a
/// seed-shuffled order with no node twice in a row, each time to a new
/// cost in `1..=20` different from its current one.
pub fn walk(seed: u64, initial: &CostVector, len: usize) -> Vec<(NodeId, u64)> {
    let n = initial.len();
    let mut current: Vec<u64> = (0..n)
        .map(|i| initial.cost(NodeId::from_index(i)).value())
        .collect();
    let mut draws = 0u64;
    let mut next = || {
        draws += 1;
        mix(seed, draws)
    };
    let mut events = Vec::with_capacity(len);
    while events.len() < len {
        let mut order: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            order.swap(i, (next() % (i as u64 + 1)) as usize);
        }
        if events.last().map(|&(node, _): &(NodeId, u64)| node.index()) == Some(order[0]) {
            order.swap(0, n - 1);
        }
        for node in order {
            let offset = 1 + next() % (MAX_COST - 1);
            current[node] = (current[node] - 1 + offset) % MAX_COST + 1;
            events.push((NodeId::from_index(node), current[node]));
            if events.len() == len {
                break;
            }
        }
    }
    events
}

fn event(node: NodeId, cost: u64) -> TopologyEvent {
    TopologyEvent::NodeCost { node, cost }
}

fn check_event(index: usize, outcome: &StreamEvent) -> Result<(), String> {
    if outcome.status == StreamStatus::Applied && outcome.verified == Some(true) {
        Ok(())
    } else {
        Err(format!(
            "stream event {index} ({:?}): status {:?}, verified {:?}",
            outcome.event, outcome.status, outcome.verified
        ))
    }
}

/// The streamed tables must equal a cold construction on the final
/// declarations.
fn check_final(scenario: &Scenario, session: &StreamSession, seed: u64) -> Result<(), String> {
    let cold = converged_table_digests(
        scenario.topology(),
        session.declared(),
        Latency::DEFAULT,
        seed,
    );
    if cold == session.table_digests() {
        Ok(())
    } else {
        Err("stream: final tables differ from a cold run on the final declarations".into())
    }
}

pub fn untraced(seed: u64, seconds: f64) -> Output {
    let mut out = Output::default();
    let run_seed = mix(seed, 0);
    let setup = || {
        let scenario = scenario();
        let session = scenario.stream_session(run_seed);
        (scenario, session)
    };
    // Set-ups here take most of a second: three before the events and
    // two after them, as many as a start-only burst would take.
    let mut setups = Setups::default();
    let (scenario, mut session) = setups.sample(3, 0.0, setup);
    // A pass applies whole rounds, so every node re-declares equally
    // often, and as many as fill `seconds` at the nominal rate. Rounds
    // differ in cost (which routes a round's draws move), so a pass that
    // stopped on the clock would take fewer of them on a slower host, and
    // the host's speed would change which events are measured.
    let rounds = (seconds * NOMINAL_EVENTS_PER_S / SMALL_N as f64).ceil() as usize;
    let walk = walk(seed, scenario.costs(), (rounds * SMALL_N).max(MIN_EVENTS));
    let mut latencies = Vec::new();
    for (index, &(node, cost)) in walk.iter().enumerate() {
        let began = Instant::now();
        let outcome = session.apply_event(&event(node, cost));
        latencies.push(began.elapsed().as_secs_f64());
        out.check(check_event(index, &outcome));
    }
    let busy: f64 = latencies.iter().sum();
    record_latencies(&mut out, &latencies, latencies.len() as f64, busy);
    // Read before the closing set-ups, which hold a second session.
    out.set("peak_rss_mb", crate::peak_rss_mb());
    setups.sample(2, 0.0, setup);
    out.set("setup_s", setups.median());
    out.check(check_final(&scenario, &session, run_seed));
    out
}

pub fn traced(seed: u64) -> Output {
    let mut out = Output::default();
    let run_seed = mix(seed, 0);
    let scenario = scenario();
    let mut session = scenario.stream_session(run_seed);

    // A wrapped twin of the session's network, driven with the engine's
    // own stream commands, so the event path splits into engine and node
    // time.
    let config = plain_config(&scenario);
    let mut net = probe::plain_network(&config, run_seed);
    probe::traced_run(&mut net, |_| false);
    let cores = |net: &probe::PlainNet| {
        probe::digests(config.topo.nodes().map(|id| net.node(id).inner.core()))
    };
    out.check(if cores(&net) == session.table_digests() {
        Ok(())
    } else {
        Err("stream traced twin: checkpoint tables differ".into())
    });

    // The reference re-verification, seeded from the previous fixed point
    // as the session seeds its own.
    let mut reference = Arc::new(RouteCache::new(
        config.topo.clone(),
        scenario.costs().clone(),
    ));
    for src in config.topo.nodes() {
        std::hint::black_box(expected_tables_for(&reference, src));
    }

    // The session first, then its twin, so neither runs with the other's
    // working set in the caches.
    let walk = walk(seed, scenario.costs(), TRACE_EVENTS);
    let mut untraced = Duration::ZERO;
    let mut session_events = Vec::with_capacity(walk.len());
    for (index, &(node, cost)) in walk.iter().enumerate() {
        let started = Instant::now();
        let outcome = session.apply_event(&event(node, cost));
        untraced += started.elapsed();
        out.check(check_event(index, &outcome));
        session_events.push((outcome, session.table_digests()));
    }
    out.check(check_final(&scenario, &session, run_seed));

    let before = net.stats().clone();
    let mut split = Split::default();
    let (mut messages, mut rounds) = (0u64, 0u64);
    let (mut trees, mut avoid_trees) = (0usize, 0usize);
    let mut reverify_ms = Vec::new();
    let mut digest_ms = Vec::new();
    let (mut reverify, mut compare, mut digesting) =
        (Duration::ZERO, Duration::ZERO, Duration::ZERO);
    for (index, (&(node, cost), (outcome, session_digests))) in
        walk.iter().zip(&session_events).enumerate()
    {
        messages += outcome.messages;
        rounds += outcome.rounds.unwrap_or(0);
        net.node_mut(node)
            .inner
            .queue_stream_command(StreamCommand::DeclareCost(Cost::new(cost)));
        net.schedule_timer(node, SimDuration::ZERO, TAG_STREAM);
        let delivered_before = net.stats().msgs_delivered;
        let (event_split, _) = probe::traced_run(&mut net, |_| false);
        let twin_messages = net.stats().msgs_delivered - delivered_before;
        out.check(if twin_messages == outcome.messages {
            Ok(())
        } else {
            Err(format!(
                "stream traced twin: event {index} delivered {twin_messages} messages, session {}",
                outcome.messages
            ))
        });
        split.run += event_split.run;
        split.node += event_split.node;
        split.tally.add(&event_split.tally);
        let started = Instant::now();
        let digests = cores(&net);
        digesting += started.elapsed();
        digest_ms.push(started.elapsed().as_secs_f64() * 1e3);
        out.check(if digests == *session_digests {
            Ok(())
        } else {
            Err(format!(
                "stream traced twin: tables differ after event {index}"
            ))
        });

        let declared = reference.costs().with_cost(node, Cost::new(cost));
        let started = Instant::now();
        let next = RouteCache::seeded_from(&reference, declared);
        let expected: Vec<_> = config
            .topo
            .nodes()
            .map(|src| expected_tables_for(&next, src))
            .collect();
        reverify += started.elapsed();
        reverify_ms.push(started.elapsed().as_secs_f64() * 1e3);
        let started = Instant::now();
        let agree = config
            .topo
            .nodes()
            .zip(&expected)
            .all(|(id, (routing, pricing))| {
                let core = net.node(id).inner.core();
                tables_agree(core.routes(), core.prices(), routing, pricing)
            });
        compare += started.elapsed();
        out.check(if agree {
            Ok(())
        } else {
            Err(format!(
                "stream traced twin: reference disagrees after event {index}"
            ))
        });
        trees += next.trees_computed();
        avoid_trees += next.avoid_trees_cached();
        next.detach_seed();
        reference = Arc::new(next);
    }
    record_split(&mut out, &split, net.stats(), &before);
    record_fpss(
        &mut out,
        &split,
        net.stats().msgs_delivered - before.msgs_delivered,
    );
    // `apply_event`'s work: re-convergence, the reference re-check, and
    // the tables fingerprint of the event record.
    let checks = reverify + compare + digesting;
    record_trace(
        &mut out,
        split.run + checks,
        untraced,
        split.engine() + split.node + checks,
    );
    out.set("fpss.verify_s", compare.as_secs_f64());
    out.set("graph.reverify_ms", median(&reverify_ms));
    out.set("graph.trees", trees as f64);
    out.set("graph.avoid_trees", avoid_trees as f64);
    out.set("crypto.digest_ms", median(&digest_ms));
    out.set(
        "scenario.stream.msgs_per_event",
        messages as f64 / TRACE_EVENTS as f64,
    );
    out.set(
        "scenario.stream.rounds_per_event",
        rounds as f64 / TRACE_EVENTS as f64,
    );
    out
}
