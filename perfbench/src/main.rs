//! The xksearch benchmark.
//!
//! ```text
//! perfbench --workload <il-btree-cold|il-segment|serve-rw> --seed <n>
//!           --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root. With `--trace 0` it measures the
//! end-to-end metrics with no instrumentation; with `--trace 1` it runs
//! the traced variant and prints the per-layer metrics. Either way it
//! prints a table of every metric with its unit, then one JSON result
//! line. See `perfbench/README.md` for the workloads and metrics.

mod corpus;
mod il;
mod report;
mod serve;
mod sys;
mod trace;

use report::{Metric, Report};
use std::path::PathBuf;

/// The end-to-end metrics of every untraced run's result line: the ones
/// steady enough on every workload to gate a change. The table also
/// prints `query_p50_ms`, `query_p99_ms`, `query_qps`, `rss_mb` and the
/// workload's own figures (`append_p50_ms`, `append_p99_ms`,
/// `recovery_s` on serve-rw); the README says why those are not gated.
const END_TO_END: &[(&str, &str)] = &[("setup_s", "s"), ("disk_mb", "MB")];

/// The per-layer metrics every traced run reports; a layer a workload
/// leaves idle reads 0.
const PER_LAYER: &[(&str, &str)] = &[
    ("engine.query_us", "us"),
    ("engine.list_open_us", "us"),
    ("engine.residual_pct", "%"),
    ("engine.append_cpu_ms", "ms"),
    ("slca.match_lookups", "count"),
    ("slca.nodes_scanned", "count"),
    ("slca.candidates", "count"),
    ("slca.results", "count"),
    ("slca.useful_ratio", "ratio"),
    ("slca.probe_us", "us"),
    ("slca.stream_us", "us"),
    ("slca.self_us", "us"),
    ("storage.logical_reads", "count"),
    ("storage.disk_reads", "count"),
    ("storage.evictions", "count"),
    ("storage.pool_hit_ratio", "ratio"),
    ("storage.read_us", "us"),
    ("segment.block_reads", "count"),
    ("segment.read_us", "us"),
    ("segment.seals", "count"),
    ("segment.seal_ms", "ms"),
    ("segment.merges", "count"),
    ("segment.merge_ms", "ms"),
    ("wal.bytes_per_append", "B"),
    ("wal.write_ms", "ms"),
    ("wal.sync_ms", "ms"),
    ("wal.commits_per_sync", "ratio"),
    ("server.cache_hit_ratio", "ratio"),
    ("server.elapsed_p50_ms", "ms"),
    ("server.elapsed_p99_ms", "ms"),
    ("server.front_ms", "ms"),
    ("server.shed", "count"),
    ("server.keepalive_reuses", "count"),
    ("loadgen.late_p99_ms", "ms"),
    ("trace.overhead_pct", "%"),
    ("query_p50_ms", "ms"),
    ("query_p99_ms", "ms"),
    ("append_p50_ms", "ms"),
    ("append_p99_ms", "ms"),
    ("recovery_s", "s"),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut i = 0;
    while i < argv.len() {
        let value = argv
            .get(i + 1)
            .ok_or_else(|| format!("{} needs a value", argv[i]))?;
        match argv[i].as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
        i += 2;
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn run(args: &Args) -> Result<Report, String> {
    let spans = PathBuf::from(".bench_traces")
        .join(format!("{}-seed{}.spans.jsonl", args.workload, args.seed));
    let layout = match args.workload.as_str() {
        "il-btree-cold" => Some(il::Layout::BTree),
        "il-segment" => Some(il::Layout::Segment),
        "serve-rw" => None,
        other => return Err(format!("unknown workload {other:?}")),
    };
    match (layout, args.trace) {
        (Some(layout), false) => il::run(layout, args.seed, args.seconds),
        (Some(layout), true) => il::run_traced(layout, args.seed, args.seconds, &spans),
        (None, trace) => serve::run(args.seed, args.seconds, trace.then_some(spans.as_path())),
    }
}

/// Puts the result-line metrics in their fixed order: the end-to-end set
/// untraced, the per-layer set traced (idle layers read 0). Everything
/// else a run measured stays in the table.
fn arrange(report: &mut Report, trace: bool) -> Result<(), String> {
    let wanted = if trace { PER_LAYER } else { END_TO_END };
    let mut measured: Vec<Metric> = std::mem::take(&mut report.metrics);
    for &(name, unit) in wanted {
        match measured.iter().position(|m| m.name == name) {
            Some(i) => {
                let m = measured.remove(i);
                if m.unit != unit {
                    return Err(format!("{name} measured in {} instead of {unit}", m.unit));
                }
                report.metrics.push(m);
            }
            None if trace => report.metric(name, unit, 0.0, "idle on this workload"),
            None => return Err(format!("the run did not measure {name}")),
        }
    }
    report.extra.splice(0..0, measured);
    Ok(())
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: perfbench --workload <il-btree-cold|il-segment|serve-rw> \
                 --seed <n> --seconds <s> --trace <0|1>"
            );
            std::process::exit(2);
        }
    };
    let mut report = match run(&args).and_then(|mut r| arrange(&mut r, args.trace).map(|_| r)) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    };
    if report.attempted == 0 {
        report.fail(0, "nothing was attempted");
    }
    report.print(&format!(
        "workload {} seed {} seconds {} trace {}",
        args.workload, args.seed, args.seconds, args.trace as u8
    ));
    if !report.correct() {
        std::process::exit(1);
    }
}
