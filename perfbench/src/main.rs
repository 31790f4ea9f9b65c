//! The repository benchmark: end-to-end figures for three workloads of the
//! MPGraph reproduction, and a traced run that splits them by layer.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload replay-quick --seed 1 --seconds 30 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. `--trace 0` reports the
//! end-to-end metrics, `--trace 1` the per-layer ones and writes its spans
//! to `perfbench/out/`. `perfbench/README.md` defines every metric.

mod env;
mod refkernel;
mod replay;
mod serve;
mod spans;
mod stats;

use std::collections::BTreeMap;
use std::time::Instant;

/// End-to-end metrics, reported by every workload with tracing off.
pub const END_TO_END: &[(&str, &str)] = &[
    ("wall_norm", "ref"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("accuracy", "ratio"),
    ("coverage", "ratio"),
    ("ml_served_fraction", "ratio"),
    ("mean_latency_cycles", "cycles"),
    ("p99_latency_cycles", "cycles"),
];

/// Per-layer metrics, reported by every workload with tracing on. A
/// metric of a layer the workload does not run reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("workload.build_s", "s"),
    ("sim.base_s", "s"),
    ("sim.bo_s", "s"),
    ("core.train_s", "s"),
    ("core.train_tokens_per_s", "1/s"),
    ("sim.replay_s", "s"),
    ("core.on_access_calls", "count"),
    ("core.on_access_ns.p50", "ns"),
    ("core.on_access_ns.p99", "ns"),
    ("sim.engine_self_s", "s"),
    ("sim.ipc_gain_pct", "%"),
    ("ml.delta_forward_ns.p50", "ns"),
    ("ml.delta_forward_ns.p99", "ns"),
    ("ml.page_forward_ns.p50", "ns"),
    ("ml.page_forward_ns.p99", "ns"),
    ("core.cstp_chain_ns.p50", "ns"),
    ("core.cstp_chain_ns.p99", "ns"),
    ("core.forwards_per_access", "ratio"),
    ("phase.detector_update_ns.p50", "ns"),
    ("core.cstp.pbot_hit_rate", "ratio"),
    ("core.controller.observations", "count"),
    ("serve.ingest_ns.p50", "ns"),
    ("serve.ingest_ns.p99", "ns"),
    ("serve.pump_ns.p50", "ns"),
    ("serve.pump_ns.p99", "ns"),
    ("serve.pump_s", "s"),
    ("serve.fused_batches", "count"),
    ("serve.fused_items", "count"),
    ("serve.fused_forwards", "count"),
    ("serve.items_per_forward", "ratio"),
    ("serve.ml_processed", "count"),
    ("serve.fallback_processed", "count"),
    ("serve.max_queue_depth", "count"),
    ("serve.escalations", "count"),
    ("serve.deferred", "count"),
    ("setup.train_s", "s"),
    ("setup.distill_quantize_s", "s"),
    ("trace.overhead_pct", "%"),
    ("trace.attributed_fraction", "ratio"),
];

pub const WORKLOADS: &[&str] = &["replay-quick", "serve-fused", "serve-int8-overload"];

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// What one run measured: operation counts, metric values by name, and
/// human-readable notes printed before the result line.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub checks_failed: Vec<String>,
    pub metrics: BTreeMap<&'static str, f64>,
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// Records a failed correctness check; `ops` operations count as failed.
    pub fn fail(&mut self, ops: u64, what: String) {
        self.failed += ops;
        self.checks_failed.push(what);
    }
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Result<&str, String> {
        let i = argv
            .iter()
            .position(|a| a == flag)
            .ok_or(format!("missing {flag}"))?;
        argv.get(i + 1)
            .map(String::as_str)
            .ok_or(format!("{flag} needs a value"))
    };
    let workload = value("--workload")?.to_string();
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?}; expected one of {WORKLOADS:?}"
        ));
    }
    let seed = value("--seed")?
        .parse()
        .map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = value("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if seconds.is_nan() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    let trace = match value("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// Where a traced run writes its spans.
pub fn spans_path(args: &Args) -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("{}-seed{}.spans.json", args.workload, args.seed))
}

pub fn json_escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            std::process::exit(2);
        }
    };
    let started = Instant::now();
    let mut env = env::stamp();
    // Every workload runs on one CPU; see "One CPU" in the README.
    match env::pin_to_one_cpu() {
        Ok(cpu) => env.push(("pinned_cpu", cpu.to_string())),
        Err(e) => {
            eprintln!("perfbench: cannot pin to one CPU: {e}");
            std::process::exit(1);
        }
    }
    env.push(("run_available_parallelism", env::available_parallelism()));
    let env_line: Vec<String> = env
        .iter()
        .map(|(k, v)| format!("\"{k}\": \"{}\"", json_escape(v)))
        .collect();
    println!("env: {{{}}}", env_line.join(", "));

    let mut out = match args.workload.as_str() {
        "replay-quick" => replay::run(&args, &env),
        "serve-fused" => serve::run(&args, &env, serve::Kind::Fused),
        _ => serve::run(&args, &env, serve::Kind::Int8Overload),
    };
    if !args.trace {
        out.set("peak_rss_mib", env::peak_rss_mib());
    }

    for note in &out.notes {
        println!("{note}");
    }
    for check in &out.checks_failed {
        println!("CHECK FAILED: {check}");
    }
    let wanted = if args.trace { PER_LAYER } else { END_TO_END };
    let mut fields = Vec::new();
    println!("{:<32} {:>18}  unit", "metric", "value");
    for &(name, unit) in wanted {
        let value = out.metrics.get(name).copied().unwrap_or(0.0);
        let value = if value.is_finite() { value } else { 0.0 };
        println!("{name:<32} {value:>18.6}  {unit}");
        fields.push(format!(
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        ));
    }
    println!(
        "# {} {} seed {} finished in {:.1} s",
        args.workload,
        if args.trace { "traced" } else { "untraced" },
        args.seed,
        started.elapsed().as_secs_f64()
    );
    let correct = out.checks_failed.is_empty() && out.failed == 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.attempted.max(1),
        out.failed,
        fields.join(", ")
    );
}
