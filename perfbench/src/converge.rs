//! `converge_plain` and `converge_faithful`: batches of honest one-shot
//! runs (converge, verify, execute, settle), and their traced splits.

use crate::probe::{self, Split};
use crate::{build_scenario, mix, record_latencies, Output, Setups, SETUP_MIN_REPEATS};
use specfaith::core::id::NodeId;
use specfaith::crypto::sha256::Digest;
use specfaith::faithful::harness::{FaithfulConfig, FaithfulRunState};
use specfaith::fpss::deviation::Faithful;
use specfaith::fpss::node::{FpssCore, TAG_BEGIN_EXECUTION};
use specfaith::fpss::pricing::{expected_tables_for, tables_agree};
use specfaith::fpss::runner::{PlainConfig, PlainRunState};
use specfaith::graph::cache::RouteCache;
use specfaith::graph::costs::CostVector;
use specfaith::graph::topology::Topology;
use specfaith::netsim::{NetStats, SimDuration};
use specfaith::scenario::{CacheScope, Mechanism, RunReport, Scenario};
use std::collections::BTreeSet;
use std::time::{Duration, Instant};

/// Node count of the plain batch: the FPSS node loop dominates at this
/// size, and one run is short enough for a pass to hold hundreds.
pub const PLAIN_N: usize = 48;
/// Node count of the faithful batch, chosen as [`PLAIN_N`] was.
pub const FAITHFUL_N: usize = 32;
/// Node count of the sweep and stream workloads.
pub const SMALL_N: usize = 64;
/// Minimum honest runs per untraced pass, so that at least ten lie
/// beyond p90.
const MIN_RUNS: u64 = 100;

/// A run fails unless its tables match the reference and it finished
/// within the event budget.
pub fn check_plain(report: &RunReport) -> Result<(), String> {
    if report.tables_match_centralized() != Some(true) {
        return Err(format!(
            "plain run: tables_match_centralized = {:?}",
            report.tables_match_centralized()
        ));
    }
    if report.truncated {
        return Err("plain run: truncated by the event budget".into());
    }
    Ok(())
}

/// A faithful run fails unless it green-lit, did not halt, restarted
/// nothing, charged nothing and matched the reference tables.
pub fn check_faithful(report: &RunReport) -> Result<(), String> {
    let penalised = report
        .penalties()
        .iter()
        .filter(|p| p.is_positive())
        .count();
    if !report.green_lighted()
        || report.halted()
        || report.restarts() != 0
        || penalised != 0
        || report.tables_match_centralized() != Some(true)
        || report.truncated
    {
        return Err(format!(
            "faithful run: green_lighted={} halted={} restarts={} penalised_nodes={} \
             tables_match_centralized={:?} truncated={}",
            report.green_lighted(),
            report.halted(),
            report.restarts(),
            penalised,
            report.tables_match_centralized(),
            report.truncated
        ));
    }
    Ok(())
}

/// A closed loop of independent honest runs from one caller, each run on
/// a fresh route scope so it pays its own reference trees; run `i` uses
/// seed `mix(seed, i)`. After each run, outside its timing, the loop
/// times one more `build` for `setup_s`.
fn honest_batch(
    build: impl Fn() -> Scenario,
    seed: u64,
    seconds: f64,
    check: fn(&RunReport) -> Result<(), String>,
) -> Output {
    let mut out = Output::default();
    let mut setups = Setups::default();
    let scenario = setups.sample(SETUP_MIN_REPEATS, 0.0, &build);
    let started = Instant::now();
    let mut latencies = Vec::new();
    for index in 0.. {
        if index >= MIN_RUNS && started.elapsed().as_secs_f64() >= seconds {
            break;
        }
        let job = scenario.with_route_scope(CacheScope::eager());
        let run_seed = mix(seed, index);
        let began = Instant::now();
        let report = job.run(run_seed);
        latencies.push(began.elapsed().as_secs_f64());
        out.check(check(&report).map_err(|e| format!("seed {run_seed}: {e}")));
        setups.sample(1, 0.0, &build);
    }
    let wall = started.elapsed().as_secs_f64();
    out.set("setup_s", setups.median());
    record_latencies(&mut out, &latencies, latencies.len() as f64, wall);
    out.set("peak_rss_mb", crate::peak_rss_mb());
    out
}

pub fn plain(seed: u64, seconds: f64) -> Output {
    honest_batch(
        || build_scenario(PLAIN_N, Mechanism::Plain),
        seed,
        seconds,
        check_plain,
    )
}

pub fn faithful(seed: u64, seconds: f64) -> Output {
    honest_batch(
        || build_scenario(FAITHFUL_N, Mechanism::faithful()),
        seed,
        seconds,
        check_faithful,
    )
}

/// The engine configuration `Scenario::build` derives for a plain
/// workload scenario, with a benchmark-owned route scope.
pub fn plain_config(scenario: &Scenario) -> PlainConfig {
    let mut config = PlainConfig::new(
        scenario.topology().clone(),
        scenario.costs().clone(),
        scenario.traffic().clone(),
    );
    config.max_events = crate::MAX_EVENTS;
    config.routes = CacheScope::eager();
    config
}

/// As [`plain_config`], for the faithful mechanism's defaults.
pub fn faithful_config(scenario: &Scenario) -> FaithfulConfig {
    let mut config = FaithfulConfig::new(
        scenario.topology().clone(),
        scenario.costs().clone(),
        scenario.traffic().clone(),
    );
    config.max_events = crate::MAX_EVENTS;
    config.routes = CacheScope::eager();
    config
}

/// The reference check of one fixed point, split into cold LCP trees,
/// cold avoid trees (`graph`), and table derivation plus comparison on
/// the warm cache (`fpss`).
#[derive(Debug, Default)]
pub struct Verify {
    pub tree: Duration,
    pub avoid: Duration,
    pub verify: Duration,
    pub trees: usize,
    pub avoid_trees: usize,
    pub ok: bool,
}

pub fn traced_verify<'a>(
    topo: &Topology,
    declared: &CostVector,
    core: impl Fn(NodeId) -> &'a FpssCore,
) -> Verify {
    let cache = RouteCache::new(topo.clone(), declared.clone());
    let sources: Vec<NodeId> = topo.nodes().collect();
    let started = Instant::now();
    for &src in &sources {
        std::hint::black_box(cache.tree(src));
    }
    let tree = started.elapsed();
    let started = Instant::now();
    for &src in &sources {
        let transits: BTreeSet<NodeId> = cache
            .tree(src)
            .iter()
            .flatten()
            .flat_map(|entry| entry.transit_nodes().iter().copied())
            .collect();
        for k in transits {
            std::hint::black_box(cache.tree_avoiding(src, k));
        }
    }
    let avoid = started.elapsed();
    let started = Instant::now();
    let ok = sources.iter().all(|&src| {
        let (routing, pricing) = expected_tables_for(&cache, src);
        let core = core(src);
        tables_agree(core.routes(), core.prices(), &routing, &pricing)
    });
    Verify {
        tree,
        avoid,
        verify: started.elapsed(),
        trees: cache.trees_computed(),
        avoid_trees: cache.avoid_trees_cached(),
        ok,
    }
}

/// Digests of every node's tables, and how long computing them took.
fn timed_digests<'a>(
    cores: impl Iterator<Item = &'a FpssCore>,
) -> (Vec<(Digest, Digest, Digest)>, Duration) {
    let started = Instant::now();
    let digests = probe::digests(cores);
    (digests, started.elapsed())
}

/// Compares the traced network's transport counts with the untraced run's.
pub fn same_counts(what: &str, traced: &NetStats, untraced: &NetStats) -> Result<(), String> {
    let pairs = [
        (
            "msgs_delivered",
            traced.msgs_delivered,
            untraced.msgs_delivered,
        ),
        ("msgs_sent", traced.total_msgs(), untraced.total_msgs()),
        ("bytes_sent", traced.total_bytes(), untraced.total_bytes()),
        ("timers_fired", traced.timers_fired, untraced.timers_fired),
        (
            "max_queue_depth",
            traced.max_queue_depth,
            untraced.max_queue_depth,
        ),
    ];
    let per_node =
        traced.msgs_sent == untraced.msgs_sent && traced.bytes_sent == untraced.bytes_sent;
    match pairs.iter().find(|(_, t, u)| t != u) {
        Some((field, t, u)) => Err(format!("{what}: traced {field} {t} != untraced {u}")),
        None if !per_node => Err(format!("{what}: per-node send counts differ")),
        None => Ok(()),
    }
}

/// Records the engine split and transport counts of traced runs that
/// moved the network's stats from `before` to `now`.
pub fn record_split(out: &mut Output, split: &Split, now: &NetStats, before: &NetStats) {
    let delivered = now.msgs_delivered - before.msgs_delivered;
    out.set("netsim.self_s", split.engine().as_secs_f64());
    out.set(
        "netsim.msgs",
        (now.total_msgs() - before.total_msgs()) as f64,
    );
    out.set(
        "netsim.bytes",
        (now.total_bytes() - before.total_bytes()) as f64,
    );
    out.set("netsim.max_queue_depth", now.max_queue_depth as f64);
    if delivered > 0 {
        out.set(
            "netsim.ns_per_msg",
            split.engine().as_secs_f64() * 1e9 / delivered as f64,
        );
    }
}

/// Records the `fpss.*` handler metrics of a traced plain `run`.
pub fn record_fpss(out: &mut Output, split: &Split, delivered: u64) {
    let t = &split.tally;
    out.set("fpss.handler_s", split.node.as_secs_f64());
    if delivered > 0 {
        out.set(
            "fpss.us_per_msg",
            split.node.as_secs_f64() * 1e6 / delivered as f64,
        );
    }
    out.set("fpss.msgs.cost_announce", t.cost_announce as f64);
    out.set("fpss.msgs.cost_update", t.cost_update as f64);
    out.set("fpss.msgs.routing_update", t.routing_update as f64);
    out.set("fpss.msgs.pricing_update", t.pricing_update as f64);
    out.set("fpss.msgs.data", t.data as f64);
    out.set("fpss.rows.route", t.route_rows as f64);
    out.set("fpss.rows.price", t.price_rows as f64);
}

fn record_verify(out: &mut Output, verify: &Verify) {
    out.set("graph.tree_s", verify.tree.as_secs_f64());
    out.set("graph.avoid_s", verify.avoid.as_secs_f64());
    out.set("graph.trees", verify.trees as f64);
    out.set("graph.avoid_trees", verify.avoid_trees as f64);
    out.set("fpss.verify_s", verify.verify.as_secs_f64());
}

/// Records the counters of a benchmark-owned route scope.
pub fn record_scope(out: &mut Output, scope: &CacheScope) {
    out.set("graph.scope.hits", scope.hits() as f64);
    out.set("graph.scope.misses", scope.misses() as f64);
    out.set("graph.scope.seeded", scope.seeded() as f64);
    out.set("graph.scope.seed_no_donor", scope.seed_no_donor() as f64);
    out.set("graph.scope.released", scope.released() as f64);
    out.set("graph.scope.peak_len", scope.peak_len() as f64);
    if scope.misses() > 0 {
        out.set(
            "graph.seed_ratio",
            scope.seeded() as f64 / scope.misses() as f64,
        );
    }
}

/// A traced plain construction: the wrapped network run to its fixed
/// point, and its table digests.
pub struct PlainTrace {
    pub net: probe::PlainNet,
    pub split: Split,
    pub wall: Duration,
    pub digest: Duration,
    pub digests: Vec<(Digest, Digest, Digest)>,
}

pub fn trace_plain_construction(config: &PlainConfig, seed: u64) -> PlainTrace {
    let started = Instant::now();
    let mut net = probe::plain_network(config, seed);
    let (split, _) = probe::traced_run(&mut net, |_| false);
    let wall = started.elapsed();
    let (digests, digest) = timed_digests(config.topo.nodes().map(|id| net.node(id).inner.core()));
    PlainTrace {
        net,
        split,
        wall,
        digest,
        digests,
    }
}

/// Records the coverage and overhead of a traced run against its
/// untraced twin.
pub fn record_trace(out: &mut Output, traced: Duration, untraced: Duration, covered: Duration) {
    out.set("trace.run_s", traced.as_secs_f64());
    out.set(
        "trace.overhead_frac",
        traced.as_secs_f64() / untraced.as_secs_f64() - 1.0,
    );
    out.set(
        "trace.coverage_frac",
        covered.as_secs_f64() / traced.as_secs_f64(),
    );
}

pub fn plain_traced(seed: u64) -> Output {
    let mut out = Output::default();
    let config = plain_config(&build_scenario(PLAIN_N, Mechanism::Plain));
    trace_plain_run(&mut out, &config, mix(seed, 0));
    out
}

/// One honest plain run, traced: construction on the wrapped network, the
/// reference check split into `graph` and `fpss`, and execution, each
/// checked against an untraced twin run in the same process.
pub fn trace_plain_run(out: &mut Output, config: &PlainConfig, run_seed: u64) {
    // A first run on a throwaway scope, so that neither timed run pays
    // the process's first-use costs.
    let mut warm = config.clone();
    warm.routes = CacheScope::eager();
    PlainRunState::checkpoint(&warm, |_| Box::new(Faithful), run_seed).finish();
    // The untraced twin: the engine's own checkpoint + finish, which is
    // byte-identical to `Scenario::run`.
    let started = Instant::now();
    let state = PlainRunState::checkpoint(config, |_| Box::new(Faithful), run_seed);
    let checkpoint = started.elapsed();
    let reference_digests = state.table_digests();
    let reference_stats = state.stats().clone();
    let started = Instant::now();
    let result = state.finish();
    let exec = started.elapsed();
    out.check(if result.tables_match_centralized && !result.truncated {
        Ok(())
    } else {
        Err("plain traced twin: run failed its reference check".into())
    });
    record_scope(out, &config.routes);

    let trace = trace_plain_construction(config, run_seed);
    let declared: CostVector = config
        .topo
        .nodes()
        .map(|id| trace.net.node(id).inner.declared_cost().expect("started"))
        .collect();
    let verify = traced_verify(&config.topo, &declared, |id| {
        trace.net.node(id).inner.core()
    });
    out.check(if verify.ok {
        Ok(())
    } else {
        Err("plain traced run: tables differ from the reference".into())
    });
    out.check(if trace.digests == reference_digests {
        Ok(())
    } else {
        Err("plain traced run: table digests differ from the untraced run".into())
    });
    let stats = trace.net.stats().clone();
    out.check(same_counts("plain traced run", &stats, &reference_stats));

    // Execution released on the traced network as `finish` releases it,
    // so the whole lifecycle's transport counts can be compared too.
    let mut net = trace.net;
    for flow in config.traffic.flows() {
        net.node_mut(flow.src)
            .inner
            .add_traffic(flow.dst, flow.packets);
    }
    let sources: BTreeSet<NodeId> = config.traffic.flows().iter().map(|f| f.src).collect();
    for src in sources {
        net.schedule_timer(src, SimDuration::ZERO, TAG_BEGIN_EXECUTION);
    }
    let (execution, _) = probe::traced_run(&mut net, |_| false);
    out.check(same_counts(
        "plain traced lifecycle",
        net.stats(),
        &result.stats,
    ));

    record_split(out, &trace.split, &stats, &NetStats::default());
    record_fpss(out, &trace.split, stats.msgs_delivered);
    out.set("fpss.msgs.data", execution.tally.data as f64);
    record_verify(out, &verify);
    out.set("fpss.exec_s", exec.as_secs_f64());
    out.set("crypto.digest_ms", trace.digest.as_secs_f64() * 1e3);
    let traced = trace.wall + verify.tree + verify.avoid + verify.verify + exec;
    let covered =
        trace.split.engine() + trace.split.node + verify.tree + verify.avoid + verify.verify + exec;
    record_trace(out, traced, checkpoint + exec, covered);
}

pub fn faithful_traced(seed: u64) -> Output {
    let mut out = Output::default();
    let scenario = build_scenario(FAITHFUL_N, Mechanism::faithful());
    let config = faithful_config(&scenario);
    let run_seed = mix(seed, 0);
    let n = config.topo.num_nodes();
    let bank_id = NodeId::from_index(n);

    // A first run on a throwaway scope, so that neither timed run pays
    // the process's first-use costs.
    let mut warm = config.clone();
    warm.routes = CacheScope::eager();
    FaithfulRunState::checkpoint(&warm, |_| Box::new(Faithful), run_seed).finish();
    let started = Instant::now();
    let state = FaithfulRunState::checkpoint(&config, |_| Box::new(Faithful), run_seed);
    let checkpoint = started.elapsed();
    let reference_digests = state.table_digests();
    let reference_stats = state.stats().clone();
    let started = Instant::now();
    let result = state.finish();
    let exec = started.elapsed();
    out.check(
        if result.green_lighted
            && !result.halted
            && result.restarts == 0
            && result.tables_match_centralized == Some(true)
            && !result.truncated
        {
            Ok(())
        } else {
            Err("faithful traced twin: run failed its checks".into())
        },
    );
    record_scope(&mut out, &config.routes);

    let started = Instant::now();
    let mut net = probe::faithful_network(&config, run_seed);
    let (split, _) = probe::traced_run(&mut net, |id| id == bank_id);
    let wall = started.elapsed();
    let bank = net.node(bank_id).inner.bank();
    out.check(if !bank.halted() && bank.restarts() == 0 {
        Ok(())
    } else {
        Err(format!(
            "faithful traced run: halted={} restarts={}",
            bank.halted(),
            bank.restarts()
        ))
    });
    out.set("faithful.restarts", bank.restarts() as f64);
    let (digests, digest) = timed_digests(
        config
            .topo
            .nodes()
            .map(|id| net.node(id).inner.node().core()),
    );
    out.check(if digests == reference_digests {
        Ok(())
    } else {
        Err("faithful traced run: table digests differ from the untraced run".into())
    });
    let stats = net.stats().clone();
    out.check(same_counts("faithful traced run", &stats, &reference_stats));
    let declared: CostVector = config
        .topo
        .nodes()
        .map(|id| net.node(id).inner.node().declared_cost().expect("started"))
        .collect();
    let verify = traced_verify(&config.topo, &declared, |id| {
        net.node(id).inner.node().core()
    });
    out.check(if verify.ok {
        Ok(())
    } else {
        Err("faithful traced run: tables differ from the reference".into())
    });

    for flow in config.traffic.flows() {
        net.node_mut(flow.src)
            .inner
            .node_mut()
            .add_traffic(flow.dst, flow.packets);
    }
    net.node_mut(bank_id).inner.bank_mut().request_execution();
    probe::traced_run(&mut net, |id| id == bank_id);
    out.check(if net.node(bank_id).inner.bank().green_lighted() {
        Ok(())
    } else {
        Err("faithful traced run: execution was not green-lit".into())
    });
    out.check(same_counts(
        "faithful traced lifecycle",
        net.stats(),
        &result.stats,
    ));

    record_split(&mut out, &split, &stats, &NetStats::default());
    out.set("faithful.node_s", split.node.as_secs_f64());
    out.set("faithful.bank_s", split.bank.as_secs_f64());
    out.set("faithful.msgs.fpss", split.tally.fpss_envelope as f64);
    out.set(
        "faithful.msgs.checker_copy",
        split.tally.checker_copy as f64,
    );
    out.set("faithful.msgs.bank", split.tally.bank as f64);
    record_verify(&mut out, &verify);
    out.set("fpss.exec_s", exec.as_secs_f64());
    out.set("crypto.digest_ms", digest.as_secs_f64() * 1e3);

    // The plain construction of the same instance: what the faithful
    // node's work costs without checker mirrors, MACs and checkpoints.
    let plain = trace_plain_construction(&plain_config(&scenario), run_seed);
    let plain_delivered = plain.net.stats().msgs_delivered;
    record_fpss(&mut out, &plain.split, plain_delivered);
    out.set(
        "faithful.extras_s",
        split.node.as_secs_f64() - plain.split.node.as_secs_f64(),
    );

    let traced = wall + verify.tree + verify.avoid + verify.verify + exec;
    let covered = split.engine()
        + split.node
        + split.bank
        + verify.tree
        + verify.avoid
        + verify.verify
        + exec;
    record_trace(&mut out, traced, checkpoint + exec, covered);
    out
}
