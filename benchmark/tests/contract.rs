//! The binary against its contract: `BENCHMARK.json` names what the binary
//! prints, for every workload and both `--trace` values, and bad command
//! lines exit with code 2.

use std::process::Command;

use relax_benchmark::metrics::{Spec, END_TO_END, PER_LAYER};
use relax_benchmark::workload::Workload;
use relax_trace::{parse_json, Json};

fn benchmark_json() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    parse_json(&std::fs::read_to_string(path).expect("read BENCHMARK.json")).expect("BENCHMARK.json parses")
}

fn text<'a>(j: &'a Json, key: &str) -> &'a str {
    j.get(key).and_then(Json::as_str).unwrap_or_else(|| panic!("string member {key}"))
}

fn list<'a>(j: &'a Json, key: &str) -> &'a [Json] {
    j.get(key).and_then(Json::as_arr).unwrap_or_else(|| panic!("array member {key}"))
}

fn run(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_relax-benchmark")).args(args).output().expect("run the benchmark binary")
}

#[test]
fn benchmark_json_lists_exactly_the_binary_tables() {
    let doc = benchmark_json();
    let command: Vec<&str> = list(&doc, "command").iter().filter_map(Json::as_str).collect();
    assert!(command.windows(2).any(|w| w == ["--manifest-path", "benchmark/Cargo.toml"]), "{command:?}");
    assert_eq!(list(&doc, "paths"), [Json::Str("benchmark".into())]);
    let run_seconds = doc.get("run_seconds").and_then(Json::as_f64).expect("run_seconds");
    assert!((30.0..=60.0).contains(&run_seconds));
    let workloads: Vec<&str> = list(&doc, "workloads").iter().map(|w| text(w, "name")).collect();
    assert_eq!(workloads, Workload::ALL.map(Workload::name));
    for w in list(&doc, "workloads") {
        assert!(!text(w, "why").is_empty() && text(w, "why").len() <= 200 && !text(w, "why").contains('\n'));
    }
    let same = |key: &str, table: &[Spec], bounded: bool| {
        let rows = list(&doc, key);
        assert_eq!(rows.len(), table.len(), "{key} count");
        for (row, spec) in rows.iter().zip(table) {
            assert_eq!((text(row, "name"), text(row, "unit"), text(row, "better")), *spec, "{key}");
            let bound = row.get("bound").and_then(Json::as_f64);
            assert_eq!(bound.is_some(), bounded, "{} bound", spec.0);
            assert!(bound.is_none_or(|b| b > 0.0 && b <= 0.25));
        }
    };
    same("end_to_end", &END_TO_END, true);
    same("per_layer", &PER_LAYER, false);
}

#[test]
fn every_workload_prints_every_listed_metric() {
    for w in Workload::ALL {
        for (trace, table) in [("0", &END_TO_END[..]), ("1", &PER_LAYER[..])] {
            let out = run(&["--workload", w.name(), "--seed", "3", "--seconds", "1", "--trace", trace]);
            assert!(
                out.status.success(),
                "{} --trace {trace}: {}",
                w.name(),
                String::from_utf8_lossy(&out.stderr)
            );
            let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
            let line = parse_json(stdout.lines().last().expect("a result line")).expect("result line parses");
            let Json::Obj(members) = &line else { panic!("result line is not an object") };
            let keys: Vec<&str> = members.iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            assert_eq!(line.get("correct"), Some(&Json::Bool(true)), "{} --trace {trace}", w.name());
            assert_eq!(line.get("failed").and_then(Json::as_f64), Some(0.0));
            assert!(line.get("attempted").and_then(Json::as_f64).expect("attempted") >= 1.0);
            let Some(Json::Obj(metrics)) = line.get("metrics") else { panic!("metrics is not an object") };
            let printed: Vec<(&str, &str)> =
                metrics.iter().map(|(k, m)| (k.as_str(), text(m, "unit"))).collect();
            let listed: Vec<(&str, &str)> = table.iter().map(|s| (s.0, s.1)).collect();
            assert_eq!(printed, listed, "{} --trace {trace}", w.name());
            if trace == "0" {
                for (name, m) in metrics {
                    assert!(
                        m.get("value").and_then(Json::as_f64).expect("value") > 0.0,
                        "{name} is 0 on {}",
                        w.name()
                    );
                }
            }
        }
    }
}

#[test]
fn bad_command_lines_exit_with_code_2() {
    let full = ["--workload", "chat_decode", "--seed", "1", "--seconds", "1", "--trace", "0"];
    let mut cases: Vec<Vec<&str>> = (0..4).map(|i| [&full[..2 * i], &full[2 * i + 2..]].concat()).collect();
    cases.extend([
        vec!["--workload", "spec_rollback", "--seed", "1", "--seconds", "1", "--trace", "0"],
        vec!["--workload", "chat_decode", "--seed", "x", "--seconds", "1", "--trace", "0"],
        vec!["--workload", "chat_decode", "--seed", "1", "--seconds", "0", "--trace", "0"],
        vec!["--workload", "chat_decode", "--seed", "1", "--seconds", "1", "--trace", "2"],
        vec!["--workload", "chat_decode", "--seed", "1", "--seconds", "1", "--trace"],
        [&full[..], &["--frobnicate", "1"]].concat(),
    ]);
    for case in cases {
        let out = run(&case);
        assert_eq!(out.status.code(), Some(2), "{case:?}");
        assert!(out.stdout.is_empty(), "{case:?} printed a result");
    }
}
