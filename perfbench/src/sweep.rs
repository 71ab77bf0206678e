//! `sweep_quick`: the Theorem-1 misreport sweep (`MisreportCost` +5 and
//! −1, the committed quick catalog) over a fixed agent subset of the n=64
//! instance. The untraced pass runs it on a one-thread pool; the traced
//! pass also runs it on the default pool, for `scenario.parallel_eff`.

use crate::converge::{plain_config, record_scope, trace_plain_run, SMALL_N};
use crate::{build_scenario, median, Output, Setups, SETUP_BURST_S, SETUP_MIN_REPEATS};
use specfaith::core::id::NodeId;
use specfaith::fpss::deviation::standard_catalog;
use specfaith::scenario::{cell_seed, CacheScope, Catalog, Mechanism, Scenario, SweepReport};
use std::time::Instant;

/// Deviations of the quick catalog: the first two of the standard one.
pub const QUICK_DEVIATIONS: usize = 2;
/// Agents swept per pass, evenly spaced over the n=64 instance.
pub const AGENTS: usize = 8;
/// Fingerprint of the sampled sweep report at [`crate::DEFAULT_SEED`];
/// its cells equal the matching cells of the committed full quick sweep
/// (`fnv1a64:8858f5090087ee41`), which the package's tests re-derive.
pub const RECORDED_FINGERPRINT: &str = "fnv1a64:b60473c326057f78";

pub fn quick_catalog() -> Catalog {
    Catalog::from_factory(|deviant| {
        standard_catalog(deviant)
            .into_iter()
            .take(QUICK_DEVIATIONS)
            .collect()
    })
}

/// The evenly spaced sampled agents.
pub fn agents() -> Vec<usize> {
    (0..AGENTS).map(|i| i * SMALL_N / AGENTS).collect()
}

pub fn scenario() -> Scenario {
    build_scenario(SMALL_N, Mechanism::Plain)
}

/// Checks one pass; `Err` fails every cell of the pass.
pub fn check_pass(report: &SweepReport, seed: u64) -> Result<(), String> {
    let violations = report.violations().count();
    if violations > 0 {
        return Err(format!(
            "sweep seed {seed}: {violations} profitable deviation(s)"
        ));
    }
    let expected = agents().len() * QUICK_DEVIATIONS;
    if report.total_deviations() != expected {
        return Err(format!(
            "sweep seed {seed}: {} cells, expected {expected}",
            report.total_deviations()
        ));
    }
    if seed == crate::DEFAULT_SEED && report.fingerprint() != RECORDED_FINGERPRINT {
        return Err(format!(
            "sweep seed {seed}: fingerprint {} != recorded {RECORDED_FINGERPRINT}",
            report.fingerprint()
        ));
    }
    Ok(())
}

fn record_pass(out: &mut Output, report: &SweepReport, seed: u64) {
    let cells = report.total_deviations().max(1) as u64;
    out.attempted += cells;
    if let Err(why) = check_pass(report, seed) {
        out.failed += cells;
        out.failures.push(why);
    }
}

pub fn untraced(seed: u64, seconds: f64) -> Output {
    let mut out = Output::default();
    let mut setups = Setups::default();
    let scenario = setups.sample(SETUP_MIN_REPEATS, SETUP_BURST_S, scenario);
    let catalog = quick_catalog();
    let agents = agents();
    // One thread: on a 2-core VM whose host's speed drifts, sweeps on
    // the default two-thread pool spread about twice as much between
    // passes as sweeps on one, in interleaved passes.
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .expect("a thread pool");
    let started = Instant::now();
    let mut passes = Vec::new();
    let mut cells = 0usize;
    while passes.is_empty() || started.elapsed().as_secs_f64() < seconds {
        let began = Instant::now();
        let report = pool.install(|| scenario.sweep_sampled(&[seed], &catalog, &agents));
        passes.push(began.elapsed().as_secs_f64());
        cells += report.total_deviations();
        record_pass(&mut out, &report, seed);
        // Outside the timed call: another burst of builds for `setup_s`.
        setups.sample(SETUP_MIN_REPEATS, SETUP_BURST_S, self::scenario);
    }
    out.set("setup_s", setups.median());
    // Latency is per `sweep_sampled` call; throughput is per cell.
    let busy: f64 = passes.iter().sum();
    crate::record_latencies(&mut out, &passes, cells as f64, busy);
    out.set("peak_rss_mb", crate::peak_rss_mb());
    out
}

pub fn traced(seed: u64) -> Output {
    let mut out = Output::default();
    let scenario = scenario();
    let catalog = quick_catalog();
    let agents = agents();

    let began = Instant::now();
    let report = scenario.sweep_sampled(&[seed], &catalog, &agents);
    let parallel = began.elapsed().as_secs_f64();
    record_pass(&mut out, &report, seed);

    // The same cells one at a time, through the public per-cell entry
    // points and a benchmark-owned scope prepared as the sweep prepares
    // its own: the honest declarations pinned as the seeding donor.
    let replay = scenario.with_route_scope(CacheScope::eager());
    let scope = replay.route_scope().clone();
    let _ = scope.pin(replay.topology(), replay.costs());
    let began = Instant::now();
    let baseline = replay.run(seed);
    let mut serial = began.elapsed().as_secs_f64();
    let outcomes = &report.per_seed[0].1.outcomes;
    let mut cell_ms = Vec::new();
    let mut index = 0;
    for &agent in &agents {
        for deviation in 0..QUICK_DEVIATIONS {
            let id = NodeId::from_index(agent);
            let strategy = standard_catalog(id)
                .into_iter()
                .nth(deviation)
                .expect("quick catalog deviation");
            let began = Instant::now();
            let run = replay.run_with_deviant(
                id,
                strategy,
                cell_seed(seed, agent as u64, deviation as u64),
            );
            let secs = began.elapsed().as_secs_f64();
            serial += secs;
            cell_ms.push(secs * 1e3);
            let matches = outcomes.get(index).is_some_and(|swept| {
                swept.agent == agent
                    && swept.deviant_utility == run.utilities[agent]
                    && swept.detected == run.detected
                    && swept.faithful_utility == baseline.utilities[agent]
            });
            index += 1;
            out.check(if matches {
                Ok(())
            } else {
                Err(format!(
                    "sweep cell (agent {agent}, deviation {deviation}) replays differently"
                ))
            });
        }
    }
    // The phase-1 honest baseline, traced: the node, engine and reference
    // work every cell repeats with one declaration changed.
    trace_plain_run(&mut out, &plain_config(&scenario), seed);
    record_scope(&mut out, &scope);
    out.set("scenario.cell_ms.p50", median(&cell_ms));
    out.set(
        "scenario.cell_ms.max",
        cell_ms.iter().copied().fold(0.0, f64::max),
    );
    let threads = std::thread::available_parallelism().map_or(1, usize::from);
    out.set(
        "scenario.parallel_eff",
        serial / (threads as f64 * parallel),
    );

    out
}
