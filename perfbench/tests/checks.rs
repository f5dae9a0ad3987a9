//! The benchmark's own checks, on tiny runs of every workload.

use perfbench::replay::Verifier;
use perfbench::workload::{Workload, WORKLOADS};
use perfbench::{result_json, run, Plan, Report};

/// One pass of a few ticks, one set-up.
fn tiny(workload: Workload, seed: u64, traced: bool) -> Report {
    let ticks = match workload {
        Workload::FabricWide => 4,
        Workload::FabricNarrow => 16,
        Workload::TreeZipf => 32,
    };
    run(&Plan {
        ticks,
        setups: 1,
        ..Plan::new(workload, seed, 0.0, traced)
    })
}

#[test]
fn tiny_runs_pass_every_check() {
    for workload in WORKLOADS {
        for traced in [false, true] {
            let report = tiny(workload, 3, traced);
            assert!(
                report.correct(),
                "{} traced={traced}: {:?}",
                workload.name(),
                report.failures
            );
            assert!(report.counters.delivered > 0, "{}", workload.name());
            assert!(result_json(&report).starts_with("{\"correct\":true,"));
        }
    }
}

/// `(name, unit)` of every metric `BENCHMARK.json` lists under `key`.
fn declared(key: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
    let bench = serde_json::from_str(&text).expect("BENCHMARK.json parses");
    bench
        .get(key)
        .and_then(|v| v.as_array())
        .expect("metric list")
        .iter()
        .map(|m| {
            let field = |f: &str| m.get(f).and_then(|v| v.as_str()).expect(f).to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

#[test]
fn runs_report_exactly_the_declared_metrics() {
    for workload in WORKLOADS {
        for (traced, key) in [(false, "end_to_end"), (true, "per_layer")] {
            let report = tiny(workload, 3, traced);
            let reported: Vec<(String, String)> = report
                .metrics
                .iter()
                .map(|m| (m.name.clone(), m.unit.to_string()))
                .collect();
            assert_eq!(reported, declared(key), "{} {key}", workload.name());
        }
    }
}

#[test]
fn the_checker_fails_a_corrupted_payload() {
    let bytes = 8;
    let mut verifier = Verifier::new(4, bytes);
    let good = fabric::trace::payload_for(1, bytes);
    assert!(verifier.deliver(1, &good));
    let mut corrupted = fabric::trace::payload_for(2, bytes);
    corrupted[3] ^= 0x10;
    assert!(!verifier.deliver(2, &corrupted));
    assert_eq!(verifier.failed(), 1);
    // A repeat delivery and an unknown id fail too.
    assert!(!verifier.deliver(1, &good));
    assert!(!verifier.deliver(9, &good));
    assert_eq!(verifier.failed(), 3);
}

#[test]
fn two_runs_of_one_seed_emit_identical_counters() {
    for workload in WORKLOADS {
        let first = tiny(workload, 5, false);
        let second = tiny(workload, 5, false);
        assert_eq!(first.counters, second.counters, "{}", workload.name());
        assert_eq!(first.counters.to_json(), second.counters.to_json());
    }
    let other = tiny(Workload::TreeZipf, 6, false);
    assert_ne!(other.counters, tiny(Workload::TreeZipf, 5, false).counters);
}
