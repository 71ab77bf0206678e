//! The benchmark's own checks: counts repeat exactly, the recorded sweep
//! fingerprint derives from the committed quick sweep, a second seed runs
//! clean, and `BENCHMARK.json` lists exactly the metrics the binary prints.
//!
//! ```sh
//! cargo test --release --manifest-path perfbench/Cargo.toml
//! ```

use specfaith::scenario::SweepReport;
use specfaith_perfbench::{run, stream, sweep, DEFAULT_SEED, END_TO_END, PER_LAYER, WORKLOADS};
use std::collections::BTreeSet;
use std::path::Path;

fn repo_file(relative: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("..")
        .join(relative);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

#[test]
fn count_metrics_repeat_exactly_across_traced_passes() {
    for workload in WORKLOADS {
        let first = run(workload, DEFAULT_SEED, 0.0, true).expect("known workload");
        let second = run(workload, DEFAULT_SEED, 0.0, true).expect("known workload");
        assert!(first.correct(), "{workload}: {:?}", first.failures);
        assert!(second.correct(), "{workload}: {:?}", second.failures);
        if workload.starts_with("converge") {
            let coverage = first.metrics["trace.coverage_frac"];
            assert!(coverage >= 0.9, "{workload}: layers cover only {coverage}");
        }
        for def in PER_LAYER.iter().filter(|d| d.count) {
            assert_eq!(
                first.metrics.get(def.name),
                second.metrics.get(def.name),
                "{workload}: count {} moved between passes",
                def.name
            );
        }
    }
}

#[test]
fn every_workload_runs_clean_on_a_second_seed() {
    for workload in WORKLOADS {
        let out = run(workload, DEFAULT_SEED + 1, 0.0, false).expect("known workload");
        assert!(out.correct(), "{workload}: {:?}", out.failures);
        assert!(out.attempted > 0, "{workload}: nothing attempted");
        for def in &END_TO_END {
            let value = out.metrics.get(def.name).copied().unwrap_or(0.0);
            assert!(value > 0.0, "{workload}: {} = {value}", def.name);
        }
    }
}

fn committed_quick_fingerprint() -> String {
    let json = repo_file("crates/bench/baselines/SWEEP_fingerprint_quick.json");
    let key = "\"fingerprint\": \"";
    let start = json.find(key).expect("fingerprint key") + key.len();
    json[start..start + json[start..].find('"').expect("closing quote")].to_string()
}

fn outcome_keys(report: &SweepReport) -> Vec<(usize, String, i64, i64, bool)> {
    report
        .reports()
        .flat_map(|r| r.outcomes.iter())
        .map(|o| {
            (
                o.agent,
                o.deviation.name().to_string(),
                o.faithful_utility.value(),
                o.deviant_utility.value(),
                o.detected,
            )
        })
        .collect()
}

#[test]
fn recorded_sweep_fingerprint_derives_from_the_committed_quick_sweep() {
    let scenario = sweep::scenario();
    let catalog = sweep::quick_catalog();
    let full = scenario.sweep(&[DEFAULT_SEED], &catalog);
    assert_eq!(full.total_deviations(), 128);
    assert_eq!(full.fingerprint(), committed_quick_fingerprint());

    let sampled = scenario.sweep_sampled(&[DEFAULT_SEED], &catalog, &sweep::agents());
    assert_eq!(sampled.fingerprint(), sweep::RECORDED_FINGERPRINT);
    let agents: BTreeSet<usize> = sweep::agents().into_iter().collect();
    let matching: Vec<_> = outcome_keys(&full)
        .into_iter()
        .filter(|key| agents.contains(&key.0))
        .collect();
    assert_eq!(outcome_keys(&sampled), matching);
    assert_eq!(
        sampled.per_seed[0].1.faithful_utilities,
        full.per_seed[0].1.faithful_utilities
    );
}

#[test]
fn stream_walk_changes_every_cost_and_spreads_over_nodes() {
    let scenario = stream::scenario();
    let n = scenario.num_nodes();
    let walk = stream::walk(3, scenario.costs(), 3 * n);
    assert_eq!(walk, stream::walk(3, scenario.costs(), 3 * n));
    assert_ne!(walk, stream::walk(4, scenario.costs(), 3 * n));
    let mut current: Vec<u64> = (0..n)
        .map(|i| {
            scenario
                .costs()
                .cost(specfaith::core::id::NodeId::from_index(i))
                .value()
        })
        .collect();
    for (i, &(node, cost)) in walk.iter().enumerate() {
        assert!((1..=20).contains(&cost));
        assert_ne!(
            current[node.index()],
            cost,
            "event {i} re-declares the same cost"
        );
        current[node.index()] = cost;
        if i > 0 {
            assert_ne!(walk[i - 1].0, node, "event {i} repeats its node");
        }
    }
    for round in walk.chunks(n) {
        let nodes: BTreeSet<usize> = round.iter().map(|(node, _)| node.index()).collect();
        assert_eq!(nodes.len(), n, "every node re-declares once per round");
    }
}

#[test]
fn benchmark_json_lists_exactly_the_printed_metrics() {
    let json = repo_file("BENCHMARK.json");
    let listed = json.matches("\"name\": ").count();
    for def in END_TO_END.iter().chain(&PER_LAYER) {
        let entry = format!(
            "\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"",
            def.name, def.unit, def.better
        );
        assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
    }
    assert_eq!(listed, WORKLOADS.len() + END_TO_END.len() + PER_LAYER.len());
    for workload in WORKLOADS {
        assert!(json.contains(&format!("\"name\": \"{workload}\"")));
    }
}
