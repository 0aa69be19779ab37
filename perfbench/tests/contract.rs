//! The benchmark's own tests: its names, its `BENCHMARK.json`, its
//! result line and its input determinism.

use gesall_perfbench::inputs::Inputs;
use gesall_perfbench::spec::{self, Workload};
use gesall_perfbench::{Args, Outcome};
use gesall_telemetry::json::Json;

/// Whether `name` is a legal metric or workload name: starts with a
/// letter or digit, at most 64 of `[A-Za-z0-9_.-]`.
fn valid_name(name: &str) -> bool {
    name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Whether `unit` is a legal unit: at most 16 of `[A-Za-z0-9_/%.-]`.
fn valid_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

fn benchmark_json() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    Json::parse(&text).expect("BENCHMARK.json parses")
}

fn keys(j: &Json) -> Vec<String> {
    match j {
        Json::Obj(fields) => fields.iter().map(|(k, _)| k.clone()).collect(),
        other => panic!("expected an object, got {other:?}"),
    }
}

fn entries(j: &Json, key: &str) -> Vec<Json> {
    j.get(key)
        .and_then(|v| v.as_arr())
        .unwrap_or_else(|| panic!("{key} is an array"))
        .to_vec()
}

fn str_field(j: &Json, key: &str) -> String {
    j.get(key)
        .and_then(|v| v.as_str())
        .unwrap_or_else(|| panic!("{key} is a string in {j:?}"))
        .to_string()
}

#[test]
fn names_and_units_are_legal() {
    let mut names: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_string()).collect();
    names.extend(spec::END_TO_END.iter().map(|(n, _)| n.to_string()));
    names.extend(spec::per_layer().into_iter().map(|(n, _)| n));
    for n in &names {
        assert!(valid_name(n), "illegal name {n:?}");
    }
    let mut sorted = names.clone();
    sorted.sort();
    sorted.dedup();
    assert_eq!(sorted.len(), names.len(), "a name is used twice");
    let units = spec::END_TO_END
        .iter()
        .map(|(_, u)| *u)
        .chain(spec::per_layer().into_iter().map(|(_, u)| u));
    for u in units {
        assert!(valid_unit(u), "illegal unit {u:?}");
    }
    assert!(!valid_name("-leading-dash"));
    assert!(!valid_name("has space"));
    assert!(!valid_unit("much-too-long-unit-name"));
}

#[test]
fn benchmark_json_lists_every_workload_and_metric() {
    let b = benchmark_json();
    let mut top = keys(&b);
    top.sort();
    assert_eq!(
        top,
        [
            "command",
            "end_to_end",
            "paths",
            "per_layer",
            "run_seconds",
            "workloads"
        ]
    );
    let paths: Vec<String> = entries(&b, "paths")
        .iter()
        .map(|p| p.as_str().unwrap().to_string())
        .collect();
    assert_eq!(paths, ["perfbench"]);
    let command: Vec<String> = entries(&b, "command")
        .iter()
        .map(|c| c.as_str().unwrap().to_string())
        .collect();
    assert!(
        command.iter().any(|c| c == "perfbench/Cargo.toml"),
        "{command:?}"
    );
    let run_seconds = b.get("run_seconds").and_then(|v| v.as_f64()).unwrap();
    assert!((1.0..=60.0).contains(&run_seconds) && run_seconds.fract() == 0.0);

    let workloads: Vec<String> = entries(&b, "workloads")
        .iter()
        .map(|w| str_field(w, "name"))
        .collect();
    let want: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_string()).collect();
    assert_eq!(workloads, want);
    for w in entries(&b, "workloads") {
        assert_eq!(keys(&w), ["name", "why"]);
        assert!(str_field(&w, "why").len() <= 200);
    }

    let e2e = entries(&b, "end_to_end");
    let listed: Vec<(String, String)> = e2e
        .iter()
        .map(|m| (str_field(m, "name"), str_field(m, "unit")))
        .collect();
    let printed: Vec<(String, String)> = spec::END_TO_END
        .iter()
        .map(|(n, u)| (n.to_string(), u.to_string()))
        .collect();
    assert_eq!(listed, printed);
    let bound = |m: &Json| m.get("bound").and_then(|v| v.as_f64()).unwrap();
    let setup_bound = e2e
        .iter()
        .find(|m| str_field(m, "name") == "setup_s")
        .map(bound)
        .unwrap();
    for m in &e2e {
        assert_eq!(keys(m), ["name", "unit", "better", "bound"]);
        assert!(matches!(
            str_field(m, "better").as_str(),
            "lower" | "higher"
        ));
        assert!(bound(m) > 0.0 && bound(m) <= 0.25);
        assert!(
            bound(m) <= setup_bound,
            "setup_s must carry the largest bound"
        );
    }

    let listed: Vec<(String, String)> = entries(&b, "per_layer")
        .iter()
        .map(|m| {
            assert_eq!(keys(m), ["name", "unit", "better"]);
            (str_field(m, "name"), str_field(m, "unit"))
        })
        .collect();
    let printed: Vec<(String, String)> = spec::per_layer()
        .into_iter()
        .map(|(n, u)| (n, u.to_string()))
        .collect();
    assert_eq!(listed, printed);
}

#[test]
fn result_line_is_one_json_object() {
    let outcome = Outcome {
        correct: true,
        attempted: 3,
        failed: 0,
        metrics: vec![
            ("wall_s".to_string(), 1.234_567_891_234, "s"),
            ("peak_rss_mb".to_string(), f64::NAN, "MB"),
        ],
    };
    let line = outcome.to_json();
    assert!(!line.contains('\n'));
    let j = Json::parse(&line).expect("result line parses");
    assert_eq!(keys(&j), ["correct", "attempted", "failed", "metrics"]);
    let wall = j.get("metrics").and_then(|m| m.get("wall_s")).unwrap();
    assert_eq!(
        wall.get("value").and_then(|v| v.as_f64()),
        Some(1.234_567_891_234)
    );
    assert_eq!(str_field(wall, "unit"), "s");
}

#[test]
fn arguments_are_all_required_and_checked() {
    let parse = |s: &str| Args::parse(s.split_whitespace().map(String::from));
    let args = parse("--workload rerun-ug --seed 7 --seconds 20 --trace 1").unwrap();
    assert_eq!(
        args,
        Args {
            workload: Workload::RerunUg,
            seed: 7,
            seconds: 20,
            trace: true
        }
    );
    assert!(parse("--workload rerun-ug --seed 7 --seconds 20").is_err());
    assert!(parse("--workload nope --seed 7 --seconds 20 --trace 0").is_err());
    assert!(parse("--workload cold-hc --seed 7 --seconds 0 --trace 0").is_err());
    assert!(parse("--workload cold-hc --seed 7 --seconds 20 --trace 2").is_err());
    assert!(parse("--workload cold-hc --seed x --seconds 20 --trace 0").is_err());
}

#[test]
fn same_seed_same_inputs_and_different_seeds_differ() {
    let a = Inputs::with_pairs(200, 11);
    let b = Inputs::with_pairs(200, 11);
    let c = Inputs::with_pairs(200, 12);
    assert_eq!(a.digest(), b.digest());
    assert_ne!(a.digest(), c.digest());
    assert_eq!(a.pairs.len(), 200);
}
