//! Short runs of every workload, untraced and traced: each prints every
//! metric `BENCHMARK.json` names and passes its output and regime checks.
//! The runs are too short to resolve p99.99, which must then be reported
//! unresolved, never as the maximum.

use aero_perfbench::report::{END_TO_END, PER_LAYER};
use aero_perfbench::workload::{Size, Workload};
use aero_perfbench::{measure, Measurement};

/// The metric names one section of `BENCHMARK.json` lists, in order.
fn benchmark_json_names(section: &str) -> Vec<String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
    let start = json
        .find(&format!("\"{section}\""))
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {section}"));
    let body = &json[start..json[start..].find(']').map(|end| start + end).unwrap()];
    body.split("\"name\": \"")
        .skip(1)
        .map(|rest| rest[..rest.find('"').unwrap()].to_string())
        .collect()
}

#[test]
fn benchmark_json_names_the_metrics_the_program_prints() {
    assert_eq!(benchmark_json_names("end_to_end"), END_TO_END);
    assert_eq!(benchmark_json_names("per_layer"), PER_LAYER);
    let workloads: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_string()).collect();
    assert_eq!(benchmark_json_names("workloads"), workloads);
}

fn check(workload: Workload, traced: bool, m: &Measurement, names: &[&str]) {
    let printed: Vec<&str> = m.metrics.iter().map(|m| m.name).collect();
    assert_eq!(printed, names, "{} traced={traced}", workload.name());
    assert!(
        m.failures.is_empty(),
        "{} traced={traced}: {:?}",
        workload.name(),
        m.failures
    );
    assert!(m.attempted > 0);
}

#[test]
fn every_workload_prints_every_metric_and_passes_its_checks() {
    for workload in Workload::ALL {
        let m = measure(workload, 7, Size::Smoke, 0, false);
        check(workload, false, &m, &END_TO_END);
        let p9999 = m
            .metrics
            .iter()
            .find(|m| m.name == "sim_read_p9999_us")
            .unwrap();
        assert_eq!(
            p9999.value,
            None,
            "{}: p99.99 of a smoke run",
            workload.name()
        );
        assert!(m
            .unresolved
            .iter()
            .any(|line| line.starts_with("sim_read_p9999_us")));
        assert!(!m.correct());
        assert_eq!(m.failed, m.attempted);

        let m = measure(workload, 7, Size::Smoke, 0, true);
        check(workload, true, &m, &PER_LAYER);
        assert!(m.correct(), "{}: {:?}", workload.name(), m.unresolved);
        assert_eq!(m.failed, 0);
        assert!(m
            .metrics
            .iter()
            .all(|m| m.value.is_some_and(f64::is_finite)));
    }
}
