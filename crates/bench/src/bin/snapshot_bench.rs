//! Snapshots the criterion shim's `target/criterion/**/estimates.json` files
//! into one machine-readable `BENCH_<pr>.json` at the repository root — the
//! ROADMAP's perf-trajectory record, kept per PR so regressions and wins stay
//! visible across re-anchors.
//!
//! ```text
//! cargo bench -p symnet-bench --bench service_deltas
//! cargo run -p symnet-bench --bin snapshot-bench -- BENCH_6.json
//! ```
//!
//! The shim writes flat `{"mean": {"point_estimate": ...}, ...}` objects, so
//! the snapshot simply embeds each file verbatim under its `group/id` label
//! (sorted, for diffable output). No JSON parser is needed or used.

use std::fs;
use std::path::{Path, PathBuf};

fn collect(dir: &Path, base: &Path, out: &mut Vec<(String, String)>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            collect(&path, base, out);
        } else if path.file_name().is_some_and(|n| n == "estimates.json") {
            let label = path
                .parent()
                .and_then(|p| p.strip_prefix(base).ok())
                .map(|p| {
                    p.components()
                        .map(|c| c.as_os_str().to_string_lossy().into_owned())
                        .collect::<Vec<_>>()
                        .join("/")
                })
                .unwrap_or_default();
            if let Ok(body) = fs::read_to_string(&path) {
                out.push((label, body.trim().to_string()));
            }
        }
    }
}

fn main() {
    let output = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH.json".to_string());
    let base = PathBuf::from("target/criterion");
    let mut series: Vec<(String, String)> = Vec::new();
    collect(&base, &base, &mut series);
    if series.is_empty() {
        eprintln!(
            "no estimates.json under {} — run `cargo bench -p symnet-bench` first",
            base.display()
        );
        std::process::exit(1);
    }
    series.sort();

    let mut json = String::from("{\n  \"unit\": \"nanoseconds\",\n  \"series\": {\n");
    for (i, (label, body)) in series.iter().enumerate() {
        let comma = if i + 1 < series.len() { "," } else { "" };
        json.push_str(&format!("    \"{label}\": {body}{comma}\n"));
    }
    json.push_str("  }\n}\n");
    fs::write(&output, &json).expect("snapshot written");
    println!("snapshot: {} series -> {output}", series.len());
}
