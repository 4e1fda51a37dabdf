//! Smoke run of every workload at tiny sizes, untraced and traced,
//! through `run`, then `compare` of the result file with itself.

use std::process::Command;

use ecl_telemetry::json::{self, Value};

const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

fn names(doc: &Value, key: &str) -> Vec<String> {
    doc.get(key)
        .and_then(Value::as_array)
        .expect("a list")
        .iter()
        .filter_map(|m| m.get("name").and_then(Value::as_str).map(str::to_string))
        .collect()
}

#[test]
fn quick_run_reports_every_metric_of_every_workload() {
    let doc = json::parse(BENCHMARK_JSON).expect("BENCHMARK.json parses");
    let out = concat!(env!("CARGO_MANIFEST_DIR"), "/out/smoke.json");
    let run = Command::new(env!("CARGO_BIN_EXE_ecl-benchmark"))
        .args(["run", "--quick", "--trace", "--seconds", "0", "--out", out])
        .output()
        .expect("the benchmark runs");
    let stdout = String::from_utf8_lossy(&run.stdout);
    assert!(
        run.status.success(),
        "run failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&run.stderr)
    );
    let metrics: Vec<String> = names(&doc, "end_to_end")
        .into_iter()
        .chain(names(&doc, "per_layer"))
        .collect();
    for workload in names(&doc, "workloads") {
        for metric in &metrics {
            let prefix = format!("{workload} {metric} ");
            assert!(
                stdout.lines().any(|l| l.starts_with(&prefix)),
                "no {metric} for {workload}"
            );
        }
    }

    let compare = Command::new(env!("CARGO_BIN_EXE_ecl-benchmark"))
        .args(["compare", out, "--", out])
        .output()
        .expect("compare runs");
    let table = String::from_utf8_lossy(&compare.stdout);
    assert!(compare.status.success(), "compare failed:\n{table}");
    assert!(table
        .lines()
        .any(|l| l.starts_with("sweep_hot scenarios_per_cpu_s ")));
    assert!(
        !table.contains("| worse"),
        "a run is never worse than itself:\n{table}"
    );
    let _ = std::fs::remove_file(out);
}
