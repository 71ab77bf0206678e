//! The repository benchmark: four workloads driven through the public
//! API, each reporting end-to-end metrics from an untraced pass and
//! per-layer metrics from a separate traced pass (see `README.md` in
//! this directory for the metric definitions and what each should move).
//!
//! Every workload runs under `NetModel::Ideal`, the only network model
//! whose honest runs currently converge to the reference tables.

pub mod converge;
pub mod probe;
pub mod stream;
pub mod sweep;

use specfaith::scenario::{CostModel, Mechanism, Scenario, TopologySource, TrafficModel};
use std::collections::BTreeMap;
use std::time::Instant;

/// Instance seed of every workload's topology, costs and traffic.
pub const INSTANCE_SEED: u64 = 2004;
/// The workload seed that reproduces the recorded sweep fingerprint
/// (the sweep seed of the committed quick-sweep baseline).
pub const DEFAULT_SEED: u64 = 7;
/// Event budget per run, as in the committed sweep baselines.
pub const MAX_EVENTS: u64 = 600_000;
/// Set-up repetitions of a burst: at least this many...
pub const SETUP_MIN_REPEATS: usize = 5;
/// ...and more until the burst took this many seconds, so that
/// microsecond builds are sampled past the burst's first microseconds.
pub const SETUP_BURST_S: f64 = 0.1;

pub const WORKLOADS: [&str; 4] = [
    "converge_plain",
    "converge_faithful",
    "sweep_quick",
    "stream_costs",
];

/// One metric's definition.
pub struct Def {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Deterministic: must repeat exactly across passes at one seed.
    pub count: bool,
}

const fn time(name: &'static str, unit: &'static str) -> Def {
    Def {
        name,
        unit,
        better: "lower",
        count: false,
    }
}

const fn count(name: &'static str, unit: &'static str, better: &'static str) -> Def {
    Def {
        name,
        unit,
        better,
        count: true,
    }
}

/// End-to-end metrics, reported by every workload's untraced pass. An
/// operation is one honest `Scenario::run` (converge workloads), one
/// deviation cell (sweep; latency is per `sweep_sampled` call), or one
/// `StreamSession::apply_event` (stream). The p90 latency is printed to
/// standard error, not listed here: on a shared host it follows the
/// host's slow spells more than the program (see `README.md`).
pub const END_TO_END: [Def; 4] = [
    time("setup_s", "s"),
    Def {
        name: "throughput_per_s",
        unit: "1/s",
        better: "higher",
        count: false,
    },
    time("latency_p50_ms", "ms"),
    time("peak_rss_mb", "MB"),
];

/// Per-layer metrics, reported by every workload's traced pass (zero
/// where the workload does not exercise the layer).
pub const PER_LAYER: [Def; 44] = [
    time("netsim.self_s", "s"),
    time("netsim.ns_per_msg", "ns"),
    count("netsim.msgs", "count", "lower"),
    count("netsim.bytes", "B", "lower"),
    count("netsim.max_queue_depth", "count", "lower"),
    time("fpss.handler_s", "s"),
    time("fpss.us_per_msg", "us"),
    count("fpss.msgs.cost_announce", "count", "lower"),
    count("fpss.msgs.cost_update", "count", "lower"),
    count("fpss.msgs.routing_update", "count", "lower"),
    count("fpss.msgs.pricing_update", "count", "lower"),
    count("fpss.msgs.data", "count", "lower"),
    count("fpss.rows.route", "count", "lower"),
    count("fpss.rows.price", "count", "lower"),
    time("fpss.verify_s", "s"),
    time("fpss.exec_s", "s"),
    time("graph.tree_s", "s"),
    time("graph.avoid_s", "s"),
    count("graph.trees", "count", "lower"),
    count("graph.avoid_trees", "count", "lower"),
    count("graph.scope.hits", "count", "higher"),
    count("graph.scope.misses", "count", "lower"),
    count("graph.scope.seeded", "count", "higher"),
    count("graph.scope.seed_no_donor", "count", "lower"),
    count("graph.scope.released", "count", "higher"),
    count("graph.scope.peak_len", "count", "lower"),
    count("graph.seed_ratio", "ratio", "higher"),
    time("graph.reverify_ms", "ms"),
    time("faithful.node_s", "s"),
    time("faithful.bank_s", "s"),
    time("faithful.extras_s", "s"),
    count("faithful.msgs.fpss", "count", "lower"),
    count("faithful.msgs.checker_copy", "count", "lower"),
    count("faithful.msgs.bank", "count", "lower"),
    count("faithful.restarts", "count", "lower"),
    time("crypto.digest_ms", "ms"),
    time("scenario.cell_ms.p50", "ms"),
    time("scenario.cell_ms.max", "ms"),
    Def {
        name: "scenario.parallel_eff",
        unit: "ratio",
        better: "higher",
        count: false,
    },
    count("scenario.stream.msgs_per_event", "count", "lower"),
    count("scenario.stream.rounds_per_event", "count", "lower"),
    time("trace.run_s", "s"),
    time("trace.overhead_frac", "ratio"),
    Def {
        name: "trace.coverage_frac",
        unit: "ratio",
        better: "higher",
        count: false,
    },
];

/// What one pass measured and checked.
#[derive(Debug, Default)]
pub struct Output {
    pub metrics: BTreeMap<&'static str, f64>,
    pub attempted: u64,
    pub failed: u64,
    /// One line per failed check.
    pub failures: Vec<String>,
    /// Lines for standard error that are not metrics.
    pub notes: Vec<String>,
}

impl Output {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// Records one checked operation; `Err` counts it as failed.
    pub fn check(&mut self, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(why) = result {
            self.failed += 1;
            self.failures.push(why);
        }
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.failures.is_empty()
    }

    /// The result line: one JSON object with every metric of `defs`.
    pub fn to_json(&self, defs: &[Def]) -> String {
        let metrics: Vec<String> = defs
            .iter()
            .map(|d| {
                let value = self.metrics.get(d.name).copied().unwrap_or(0.0);
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    d.name,
                    json_number(value),
                    d.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

fn json_number(value: f64) -> String {
    if value.is_finite() {
        // `{:?}` prints the shortest representation that round-trips.
        format!("{value:?}")
    } else {
        "0.0".to_string()
    }
}

/// Runs one pass of `workload`. The untraced pass measures for about
/// `seconds`; the traced pass does a fixed amount of work so its counts
/// repeat exactly.
pub fn run(workload: &str, seed: u64, seconds: f64, trace: bool) -> Result<Output, String> {
    let out = match (workload, trace) {
        ("converge_plain", false) => converge::plain(seed, seconds),
        ("converge_plain", true) => converge::plain_traced(seed),
        ("converge_faithful", false) => converge::faithful(seed, seconds),
        ("converge_faithful", true) => converge::faithful_traced(seed),
        ("sweep_quick", false) => sweep::untraced(seed, seconds),
        ("sweep_quick", true) => sweep::traced(seed),
        ("stream_costs", false) => stream::untraced(seed, seconds),
        ("stream_costs", true) => stream::traced(seed),
        _ => return Err(format!("unknown workload `{workload}`")),
    };
    Ok(out)
}

/// The standard `instance(n, 2004)` random biconnected scenario.
pub fn build_scenario(n: usize, mechanism: Mechanism) -> Scenario {
    let inst = specfaith_bench::instance(n, INSTANCE_SEED);
    Scenario::builder()
        .topology(TopologySource::Explicit(inst.topo))
        .costs(CostModel::Explicit(inst.costs))
        .traffic(TrafficModel::Flows(inst.traffic.flows().to_vec()))
        .mechanism(mechanism)
        .max_events(MAX_EVENTS)
        .build()
}

/// Set-up wall times sampled through a pass: at its start and again
/// between its operations. A shared host's speed drifts by tens of
/// percent over seconds, so set-ups timed only at the start would catch
/// one moment of it; spread over the pass, their median sees the same
/// host as the operations' latencies.
#[derive(Debug, Default)]
pub struct Setups(Vec<f64>);

impl Setups {
    /// Times `setup` at least `repeats` times and until `budget_s`
    /// seconds have passed, and returns the last result.
    pub fn sample<T>(&mut self, repeats: usize, budget_s: f64, mut setup: impl FnMut() -> T) -> T {
        let started = Instant::now();
        let mut last = None;
        let mut taken = 0;
        while taken < repeats.max(1) || started.elapsed().as_secs_f64() < budget_s {
            drop(last.take());
            let began = Instant::now();
            let value = setup();
            self.0.push(began.elapsed().as_secs_f64());
            last = Some(value);
            taken += 1;
        }
        last.expect("at least one setup")
    }

    /// Median set-up wall time in seconds.
    pub fn median(&self) -> f64 {
        median(&self.0)
    }
}

/// Median of `values` (mean of the middle two for even lengths).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Nearest-rank percentile `p` (0..=100) of `values`.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Records the latency and throughput metrics of operation `latencies`
/// (seconds) that completed `work` units of work in `busy_s` seconds,
/// and notes their p90 with the sample count.
pub fn record_latencies(out: &mut Output, latencies: &[f64], work: f64, busy_s: f64) {
    out.set("throughput_per_s", work / busy_s);
    out.set("latency_p50_ms", median(latencies) * 1e3);
    out.notes.push(format!(
        "latency p90 {:.3} ms over {} operations",
        percentile(latencies, 90.0) * 1e3,
        latencies.len()
    ));
}

/// Peak resident set size of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// SplitMix64: the benchmark's seed-derivation function.
pub fn mix(seed: u64, index: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(index.wrapping_add(1)));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}
