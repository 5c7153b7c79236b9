//! Every workload at a tiny size: it passes its gates and reports exactly
//! the metric names `BENCHMARK.json` lists, untraced and traced.

use std::process::Command;

use mfm_benchmark::provenance::repo_root;
use mfm_benchmark::{run, RunConfig, Sizes, Workload, END_TO_END, FAULTS_LAYER, PER_LAYER};
use mfm_telemetry::json::{array_entries, object_entries, unescape};

/// The `name` of every entry of `BENCHMARK.json`'s `key` array.
fn listed(key: &str) -> Vec<String> {
    let text = std::fs::read_to_string(repo_root().join("BENCHMARK.json")).expect("BENCHMARK.json");
    let top = object_entries(text.trim()).expect("BENCHMARK.json is an object");
    let (_, arr) = top.iter().find(|(k, _)| k == key).expect("key present");
    array_entries(arr)
        .expect("an array")
        .iter()
        .map(|e| {
            let fields = object_entries(e).expect("entries are objects");
            let (_, name) = fields.iter().find(|(k, _)| k == "name").expect("named");
            unescape(name.trim_matches('"'))
        })
        .collect()
}

fn names(list: &[(&str, &str)]) -> Vec<String> {
    list.iter().map(|(n, _)| (*n).to_owned()).collect()
}

#[test]
fn catalog_matches_benchmark_json() {
    assert_eq!(listed("end_to_end"), names(&END_TO_END));
    assert_eq!(listed("per_layer"), names(&PER_LAYER));
    let workloads: Vec<String> = Workload::BENCHMARKED
        .iter()
        .map(|w| w.name().to_owned())
        .collect();
    assert_eq!(listed("workloads"), workloads);
}

fn tiny_run(w: Workload, trace: bool, seconds: f64) -> mfm_benchmark::Outcome {
    let cfg = RunConfig::new(w, 3, seconds, trace, Sizes::tiny());
    let out = run(&cfg);
    assert!(
        out.correct,
        "{} failed its gates: {:?}",
        w.name(),
        out.failures
    );
    let got: Vec<String> = out.metrics.iter().map(|m| m.0.clone()).collect();
    let mut want = if trace {
        listed("per_layer")
    } else {
        listed("end_to_end")
    };
    if trace && w == Workload::ServeFaults {
        want.extend(names(&FAULTS_LAYER));
    }
    assert_eq!(got, want, "{} reports the listed metrics", w.name());
    out
}

fn check_workload(w: Workload, seconds: f64) {
    let plain = tiny_run(w, false, seconds);
    assert!(plain.metrics.iter().all(|m| m.1 > 0.0 && m.1.is_finite()));
    let traced = tiny_run(w, true, seconds);
    let coverage = traced
        .metrics
        .iter()
        .find(|m| m.0 == "trace.top_level_coverage")
        .expect("coverage reported")
        .1;
    assert!(coverage > 0.95, "top-level spans cover the run: {coverage}");
    assert!(traced.spans_json.is_some());
}

#[test]
fn sim_campaign_tiny() {
    check_workload(Workload::SimCampaign, 0.2);
}

#[test]
fn sim_campaign_digest_repeats_per_seed() {
    let a = run(&RunConfig::new(
        Workload::SimCampaign,
        5,
        0.05,
        false,
        Sizes::tiny(),
    ));
    let b = run(&RunConfig::new(
        Workload::SimCampaign,
        5,
        0.05,
        false,
        Sizes::tiny(),
    ));
    assert!(a.correct && b.correct);
    assert_eq!(a.digest, b.digest);
}

#[test]
fn prove_cones_tiny() {
    check_workload(Workload::ProveCones, 0.05);
}

#[test]
fn serve_clean_tiny() {
    check_workload(Workload::ServeClean, 0.5);
}

#[test]
fn serve_faults_tiny() {
    check_workload(Workload::ServeFaults, 0.5);
}

#[test]
fn command_line_contract() {
    let exe = env!("CARGO_BIN_EXE_mfm-benchmark");
    let bad = Command::new(exe)
        .args(["--workload", "nope"])
        .output()
        .expect("runs");
    assert_eq!(bad.status.code(), Some(2));
    assert!(bad.stdout.is_empty(), "no result line on a usage error");

    let ok = Command::new(exe)
        .args(["--workload", "serve_clean", "--seed", "4"])
        .args(["--seconds", "0.5", "--trace", "0"])
        .output()
        .expect("runs");
    assert!(ok.status.success());
    let stdout = String::from_utf8(ok.stdout).expect("utf-8");
    let last = stdout.lines().last().expect("a result line");
    let keys: Vec<String> = object_entries(last)
        .expect("the result line is JSON")
        .into_iter()
        .map(|(k, _)| k)
        .collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
}

#[test]
fn fault_campaign_spans_several_shards() {
    // With one 256-lane shard the 1-vs-N-thread gate could not fail.
    for sizes in [Sizes::full(), Sizes::tiny()] {
        assert!(
            sizes.sim.fault_shards() > 1,
            "{} sites fit in one shard",
            sizes.sim.fault_sites
        );
    }
}
