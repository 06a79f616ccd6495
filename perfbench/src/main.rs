//! `perfbench`: the NoDB reproduction's end-to-end and per-layer benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload explore --seed 1 --seconds 20 --trace 0
//! ```
//!
//! `--trace 0` runs the workload once with tracing off and prints the
//! end-to-end metrics. `--trace 1` runs it twice, untraced and then traced,
//! and prints the per-layer metrics, including the tracing overhead (the
//! traced phase's end-to-end numbers minus the untraced phase's). The last
//! line of standard output is the result object; the line before it is
//! the full record, also written under `.bench_out/`. See README.md.

mod env;
mod json;
mod metrics;
mod oracle;
mod phase;
mod stats;
mod trace;
mod workloads;

use std::path::PathBuf;
use std::time::Duration;

use json::Json;
use metrics::{EndToEnd, END_TO_END, PER_LAYER};
use phase::{Ctx, Phase};
use trace::Tracer;

/// Generated inputs, inside the checkout.
const DATA_DIR: &str = ".bench_data";
/// Records and traces, inside the checkout.
const OUT_DIR: &str = ".bench_out";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().cloned().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => seconds = Some(value()?.parse().map_err(|e| format!("--seconds: {e}"))?),
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let seconds: f64 = seconds.ok_or("--seconds is required")?;
    if !(seconds > 0.0 && seconds <= 120.0) {
        return Err("--seconds must be in (0, 120]".into());
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace,
    })
}

fn metrics_json(values: &[(&'static str, f64)], units: &[(&str, &str)]) -> Json {
    Json::obj(values.iter().map(|(name, v)| {
        let unit = units
            .iter()
            .find(|(n, _)| n == name)
            .map_or("", |(_, u)| *u);
        (
            *name,
            Json::obj([("value", Json::Num(*v)), ("unit", Json::str(unit))]),
        )
    }))
}

/// The result object: `correct`, `attempted`, `failed`, `metrics`.
fn result_json(phases: &[&Phase], metrics: Json) -> Json {
    let attempted: u64 = phases.iter().map(|p| p.attempted).sum();
    let failed: u64 = phases.iter().map(|p| p.failed).sum();
    Json::obj([
        ("correct", Json::Bool(failed == 0 && attempted > 0)),
        ("attempted", Json::from(attempted)),
        ("failed", Json::from(failed)),
        ("metrics", metrics),
    ])
}

fn phase_json(phase: &Phase, e2e: &EndToEnd) -> Json {
    let tail = e2e.tail.map_or(Json::Null, |t| {
        Json::obj([
            ("percentile", Json::Num(t.percentile)),
            ("samples", Json::from(t.samples as u64)),
        ])
    });
    Json::obj([
        ("end_to_end", metrics_json(&e2e.values, &END_TO_END)),
        ("tail", tail),
        (
            "latency_samples",
            Json::from(phase.latencies_ms.len() as u64),
        ),
        ("setup_reps", Json::from(phase.setup_s.len() as u64)),
        ("measured_s", Json::Num(phase.measured_s)),
        ("cpu_steal_share", Json::Num(phase.cpu_steal_share)),
        ("attempted", Json::from(phase.attempted)),
        ("failed", Json::from(phase.failed)),
        (
            "error_rate",
            Json::Num(phase.failed as f64 / phase.attempted.max(1) as f64),
        ),
        (
            "failures",
            Json::Arr(phase.failures.iter().map(Json::str).collect()),
        ),
        (
            "notes",
            Json::Arr(phase.notes.iter().map(Json::str).collect()),
        ),
    ])
}

/// Run one phase of `name`, recording how much CPU the hypervisor stole.
fn run_phase(name: &str, ctx: &Ctx, tracer: Option<&Tracer>) -> Result<Phase, String> {
    let (steal0, total0) = env::cpu_ticks();
    let mut phase = workloads::run(name, ctx, tracer)?;
    let (steal1, total1) = env::cpu_ticks();
    phase.cpu_steal_share = (steal1 - steal0) as f64 / (total1 - total0).max(1) as f64;
    Ok(phase)
}

fn run(args: &Args) -> Result<(Json, Json), String> {
    let ctx = Ctx {
        seed: args.seed,
        seconds: Duration::from_secs_f64(args.seconds),
        data_dir: PathBuf::from(DATA_DIR),
    };
    std::fs::create_dir_all(OUT_DIR).map_err(|e| format!("{OUT_DIR}: {e}"))?;
    let stem = format!(
        "{}-s{}-trace{}",
        args.workload,
        args.seed,
        u8::from(args.trace)
    );
    let untraced = run_phase(&args.workload, &ctx, None)?;
    let untraced_e2e = metrics::end_to_end(&untraced);
    let mut record = vec![
        ("workload", Json::str(&args.workload)),
        ("seed", Json::from(args.seed)),
        ("seconds", Json::Num(args.seconds)),
        ("trace", Json::Bool(args.trace)),
        ("environment", env::record()),
        ("inputs", Json::Arr(untraced.inputs.clone())),
        (
            "non_default_config",
            Json::Arr(untraced.config.iter().map(Json::str).collect()),
        ),
        ("untraced", phase_json(&untraced, &untraced_e2e)),
    ];
    let result = if args.trace {
        let tracer = Tracer::default();
        let traced = run_phase(&args.workload, &ctx, Some(&tracer))?;
        let traced_e2e = metrics::end_to_end(&traced);
        let spans = tracer.spans();
        let layers = metrics::per_layer(&traced, &spans, &traced_e2e, &untraced_e2e);
        let trace_path = PathBuf::from(OUT_DIR).join(format!("{stem}.spans.jsonl"));
        tracer
            .write_jsonl(&trace_path)
            .map_err(|e| format!("write {}: {e}", trace_path.display()))?;
        let self_times = Json::obj(trace::totals_by_name(&spans).into_iter().map(|(name, t)| {
            (
                name,
                Json::obj([
                    ("total_ms", Json::Num(t.total_ms)),
                    ("self_ms", Json::Num(t.self_ms)),
                    ("spans", Json::from(t.count)),
                ]),
            )
        }));
        record.push(("traced", phase_json(&traced, &traced_e2e)));
        record.push(("per_layer", metrics_json(&layers, &PER_LAYER)));
        record.push(("span_totals", self_times));
        record.push(("spans_file", Json::str(trace_path.display().to_string())));
        result_json(&[&untraced, &traced], metrics_json(&layers, &PER_LAYER))
    } else {
        result_json(
            &[&untraced],
            metrics_json(&untraced_e2e.values, &END_TO_END),
        )
    };
    let record = Json::obj(record);
    let record_path = PathBuf::from(OUT_DIR).join(format!("{stem}.json"));
    std::fs::write(&record_path, format!("{record}\n"))
        .map_err(|e| format!("write {}: {e}", record_path.display()))?;
    Ok((record, result))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = parse_args(&args).and_then(|a| run(&a));
    match outcome {
        Ok((record, result)) => {
            println!("{record}");
            println!("{result}");
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn benchmark_json() -> Json {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap()
    }

    fn listed(bench: &Json, key: &str) -> Vec<(String, String)> {
        let Some(Json::Arr(items)) = bench.get(key) else {
            panic!("BENCHMARK.json has no {key} list");
        };
        items
            .iter()
            .map(|m| {
                let name = m.get("name").and_then(Json::as_str).unwrap().to_string();
                let unit = m
                    .get("unit")
                    .and_then(Json::as_str)
                    .unwrap_or("")
                    .to_string();
                (name, unit)
            })
            .collect()
    }

    /// Parse a printed result line back into `name -> (value, unit)`.
    fn parse_back(line: &str) -> Vec<(String, f64, String)> {
        let v = Json::parse(line).unwrap();
        assert!(
            v.get("correct").is_some() && v.get("attempted").is_some() && v.get("failed").is_some()
        );
        let Some(Json::Obj(metrics)) = v.get("metrics") else {
            panic!("no metrics object");
        };
        metrics
            .iter()
            .map(|(k, m)| {
                (
                    k.clone(),
                    m.get("value").and_then(Json::as_f64).unwrap(),
                    m.get("unit").and_then(Json::as_str).unwrap().to_string(),
                )
            })
            .collect()
    }

    #[test]
    fn printed_results_parse_back_into_every_named_metric() {
        let bench = benchmark_json();
        let mut phase = Phase {
            setup_s: vec![0.5, 0.25, 0.75],
            latencies_ms: (1..=40).map(f64::from).collect(),
            attempted: 40,
            measured_s: 10.0,
            peak_rss_mb: 123.5,
            ..Phase::default()
        };
        let e2e = metrics::end_to_end(&phase);
        let line = result_json(&[&phase], metrics_json(&e2e.values, &END_TO_END)).to_string();
        let got = parse_back(&line);
        let want = listed(&bench, "end_to_end");
        assert_eq!(
            got.iter()
                .map(|(n, _, u)| (n.clone(), u.clone()))
                .collect::<Vec<_>>(),
            want
        );
        let value = |n: &str| got.iter().find(|(k, _, _)| k == n).unwrap().1;
        assert_eq!(value("setup_s"), 0.5);
        assert_eq!(value("query_p50_ms"), 20.0);
        assert_eq!(value("query_tail_ms"), 30.0);
        assert_eq!(value("queries_per_s"), 4.0);
        assert_eq!(value("success_rate"), 1.0);

        phase.sys.parse_us = vec![3.0];
        let layers = metrics::per_layer(&phase, &[], &e2e, &e2e);
        let line = result_json(&[&phase], metrics_json(&layers, &PER_LAYER)).to_string();
        let got: Vec<(String, String)> = parse_back(&line)
            .into_iter()
            .map(|(n, _, u)| (n, u))
            .collect();
        assert_eq!(got, listed(&bench, "per_layer"));
    }

    #[test]
    fn benchmark_json_names_the_four_workloads() {
        let bench = benchmark_json();
        let Some(Json::Arr(items)) = bench.get("workloads") else {
            panic!("no workloads");
        };
        let names: Vec<&str> = items
            .iter()
            .filter_map(|w| w.get("name")?.as_str())
            .collect();
        assert_eq!(names, workloads::NAMES);
    }

    #[test]
    fn arguments_are_required_and_checked() {
        let args = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let a = parse_args(&args("--workload served --seed 3 --seconds 5 --trace 1")).unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("served", 3, 5.0, true)
        );
        assert!(parse_args(&args("--workload served --seed 3")).is_err());
        assert!(parse_args(&args("--workload served --seed 3 --seconds 5 --trace 2")).is_err());
    }
}
