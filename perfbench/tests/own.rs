//! The benchmark's own tests, at the tiny input size: the printed metric
//! names are the ones `BENCHMARK.json` declares, deterministic outputs repeat
//! exactly across runs, and a different seed changes the generated inputs.

use std::path::PathBuf;
use std::process::Command;

const WORKLOADS: [&str; 3] = ["synth-national", "bdc-files", "score-bulk"];

fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark sits in the repository root")
        .to_path_buf()
}

/// Run the benchmark at the tiny size and return its standard output.
fn perfbench(args: &[&str]) -> String {
    let out_dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("perfbench-own");
    let output = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(args)
        .args(["--size", "tiny", "--out-dir"])
        .arg(&out_dir)
        .output()
        .expect("the benchmark binary runs");
    assert!(
        output.status.success(),
        "perfbench {args:?} failed: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    String::from_utf8(output.stdout).expect("stdout is UTF-8")
}

/// Every `"name": "<value>"` inside the JSON array that follows `key`.
fn declared_names(benchmark_json: &str, key: &str) -> Vec<String> {
    let start = benchmark_json
        .find(&format!("\"{key}\""))
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {key}"));
    let array = &benchmark_json[start..];
    let array = &array[..array.find(']').expect("the array closes")];
    array
        .split("\"name\"")
        .skip(1)
        .map(|rest| {
            let rest = &rest[rest.find('"').expect("a quoted name") + 1..];
            rest[..rest.find('"').expect("the name closes")].to_string()
        })
        .collect()
}

/// The metric names of a result line, in print order.
fn printed_names(line: &str) -> Vec<String> {
    let parts: Vec<&str> = line.split("\": {\"value\"").collect();
    parts[..parts.len() - 1]
        .iter()
        .map(|chunk| chunk[chunk.rfind('"').expect("a quoted key") + 1..].to_string())
        .collect()
}

#[test]
fn printed_metric_names_are_the_declared_ones() {
    let declared = std::fs::read_to_string(repo_root().join("BENCHMARK.json"))
        .expect("BENCHMARK.json sits in the repository root");
    let end_to_end = declared_names(&declared, "end_to_end");
    let per_layer = declared_names(&declared, "per_layer");
    let workloads = declared_names(&declared, "workloads");
    assert_eq!(workloads, WORKLOADS);
    for workload in WORKLOADS {
        for (trace, want) in [("0", &end_to_end), ("1", &per_layer)] {
            let stdout = perfbench(&[
                "--workload",
                workload,
                "--seed",
                "3",
                "--seconds",
                "1",
                "--trace",
                trace,
            ]);
            let line = stdout.lines().last().expect("perfbench printed a result");
            assert!(line.starts_with("{\"correct\": true"), "{workload}: {line}");
            assert_eq!(&printed_names(line), want, "{workload} --trace {trace}");
        }
    }
}

#[test]
fn deterministic_outputs_repeat_and_seeds_change_the_inputs() {
    let record = |workload: &str, seed: &str| {
        perfbench(&["--workload", workload, "--seed", seed, "--record"])
    };
    for workload in WORKLOADS {
        // One golden line per world: key size seed inputs rows peak
        // dataset_fp model_fp auc_bits.
        let first = record(workload, "11");
        assert!(first.lines().all(|l| l.split('\t').count() == 9), "{first}");
        assert_eq!(
            first,
            record(workload, "11"),
            "{workload}: a repeat run moved an output"
        );
    }
    // The batch workloads generate their worlds from the seed; the score
    // workloads serve a fixed model and draw their traffic from the seed
    // (pinned by the request-pool unit test).
    for workload in ["synth-national", "bdc-files"] {
        let a = record(workload, "11");
        let b = record(workload, "12");
        let column = |text: &str, i: usize| -> String {
            text.lines()
                .map(|l| l.split('\t').nth(i).expect("nine columns").to_string())
                .collect()
        };
        assert_ne!(
            column(&a, 3),
            column(&b, 3),
            "{workload}: seed 12 generated seed 11's inputs"
        );
        assert_ne!(
            column(&a, 6),
            column(&b, 6),
            "{workload}: seed 12 built seed 11's dataset"
        );
    }
}
