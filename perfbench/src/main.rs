//! `perfbench` — the repository benchmark.
//!
//! ```text
//! perfbench --workload batch_join|batch_redact|serve_stream --seed N
//!           --seconds S --trace 0|1 [--parulel-bin PATH] [--work-dir DIR]
//! ```
//!
//! With `--trace 0` a run prints the end-to-end metrics; with `--trace 1`
//! a separate traced run prints the per-layer metrics, the per-span self
//! time table, and writes every span to `<work-dir>/spans-*.jsonl`. The
//! last line of standard output is always the one-line JSON result. Any
//! output the reference check rejects exits non-zero with
//! `"correct": false`.
//!
//! `perfbench/run.py` builds this binary and the `parulel` binary and
//! passes their locations; see `perfbench/README.md`.

mod batch;
mod config;
mod serve;
mod trace;
mod util;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use util::{median, quantile, sorted, Failure, Report};

/// Every workload reports these with `--trace 0`: the figures that hold
/// still from run to run on a shared virtual host. `cpu_ms_per_op` is
/// the CPU time one unit of user work costs: a batch run (program text
/// to fixpoint, every thread of the process) or a served frame (the
/// daemon's CPU over the measured phase). Wall-clock latencies swing
/// with the host's steal time and are reported beside them.
const END_TO_END: [(&str, &str); 3] = [
    ("cpu_ms_per_op", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Every workload reports these with `--trace 1`; a layer the workload
/// does not exercise reads 0.
const PER_LAYER: [(&str, &str); 62] = [
    ("lang.compile_ms", "ms"),
    ("vm.build_ms", "ms"),
    ("match.seed_ms", "ms"),
    ("match.ms", "ms"),
    ("match.beta_tokens", "count"),
    ("match.alpha_wmes", "count"),
    ("match.alpha_nodes", "count"),
    ("match.alpha_share_hits", "count"),
    ("match.cs_peak", "count"),
    ("match.imbalance", "ratio"),
    ("engine.redact_ms", "ms"),
    ("engine.redacted_meta", "count"),
    ("engine.meta_rounds", "count"),
    ("engine.redact_ratio", "ratio"),
    ("engine.fire_ms", "ms"),
    ("engine.apply_ms", "ms"),
    ("engine.cycles", "count"),
    ("engine.firings", "count"),
    ("engine.fire_ratio", "ratio"),
    ("engine.step_ms_p50", "ms"),
    ("engine.step_ms_p99", "ms"),
    ("engine.unattributed_ms", "ms"),
    ("engine.serial_ref_ms", "ms"),
    ("engine.parallel_gain", "ratio"),
    ("server.open_ms_p50", "ms"),
    ("server.open_ms_p99", "ms"),
    ("server.inject_ms_p50", "ms"),
    ("server.inject_ms_p99", "ms"),
    ("server.run_ms_p50", "ms"),
    ("server.run_ms_p99", "ms"),
    ("server.query_ms_p50", "ms"),
    ("server.query_ms_p99", "ms"),
    ("dispatch.overhead_ms_p50", "ms"),
    ("dispatch.overhead_ms_p99", "ms"),
    ("wal.cost_ms_per_frame", "ms"),
    ("wal.bytes_per_frame", "B"),
    ("wal.records", "count"),
    ("wal.snapshots", "count"),
    ("recovery.ms", "ms"),
    ("recovery.sessions", "count"),
    ("proc.threads_peak", "count"),
    ("proc.cpu_s", "s"),
    ("loadgen.lag_ms_p99", "ms"),
    ("loadgen.backlog_peak", "count"),
    ("accounting.gap_pct", "%"),
    ("trace.overhead_pct", "%"),
    ("host.steal_pct", "%"),
    ("loadgen.valid", "count"),
    ("run_ms_p50", "ms"),
    ("run_ms_p80", "ms"),
    ("frame_ms_p50", "ms"),
    ("frame_ms_p99", "ms"),
    ("inject_ms_p50", "ms"),
    ("inject_ms_p99", "ms"),
    ("result_ms_p50", "ms"),
    ("result_ms_p99", "ms"),
    ("query_ms_p50", "ms"),
    ("query_ms_p99", "ms"),
    ("max_rate_fps", "1/s"),
    ("saturation_fps", "1/s"),
    ("recovery_s", "s"),
    ("error_rate", "ratio"),
];

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub serial_ref: bool,
    pub parulel_bin: PathBuf,
    pub work_dir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        serial_ref: false,
        parulel_bin: PathBuf::from(".bench_build/release/parulel"),
        work_dir: PathBuf::from(".bench_work"),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--serial-ref" {
            args.serial_ref = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: expected {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad("an integer"))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|_| bad("a number"))?;
                if args.seconds.is_nan() || args.seconds <= 0.0 {
                    return Err(bad("a positive number"));
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            "--parulel-bin" => args.parulel_bin = PathBuf::from(&value),
            "--work-dir" => args.work_dir = PathBuf::from(&value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(args)
}

/// What a workload hands back for printing.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// End-to-end metrics (`--trace 0`) or per-layer metrics (`--trace 1`).
    pub metrics: BTreeMap<&'static str, f64>,
    /// Human-readable lines printed before the metric rows.
    pub text: String,
}

fn batch_kind(workload: &str) -> Option<batch::Kind> {
    match workload {
        "batch_join" => Some(batch::Kind::Join),
        "batch_redact" => Some(batch::Kind::Redact),
        _ => None,
    }
}

fn run_batch(kind: batch::Kind, args: &Args) -> Result<Outcome, Failure> {
    if args.trace {
        let t = batch::traced(kind, args.seed, args.seconds).map_err(Failure::Incorrect)?;
        let path = spans_path(args);
        t.tracer
            .write_jsonl(&path)
            .map_err(|e| Failure::Invalid(format!("writing {}: {e}", path.display())))?;
        let text = format!(
            "{}\nper-span time ({} spans written to {}):\n{}",
            t.report,
            t.tracer.len(),
            path.display(),
            t.tracer.layer_table()
        );
        return Ok(Outcome {
            attempted: t.attempted,
            failed: t.failed,
            metrics: t.layers,
            text,
        });
    }
    let e = batch::end_to_end(kind, args.seed, args.seconds).map_err(Failure::Incorrect)?;
    let runs = sorted(e.samples.run_ms.clone());
    let n = runs.len();
    let attempted = n as u64 + e.samples.failed;
    let mut m = BTreeMap::new();
    m.insert("cpu_ms_per_op", median(&e.samples.cpu_ms));
    m.insert("setup_s", median(&e.setup_s));
    m.insert("peak_rss_mb", e.peak_rss_mb);
    let text = format!(
        "run_ms_p50 {:.3} ms, run_ms_p80 {:.3} ms (n={n}, {} beyond p80); cpu_ms per run p50 {:.3}; \
         host steal {:.2}%\nsetup_s {:.4} s (median of {:?}); peak_rss_mb {:.2} MB; error_rate {:.4}",
        quantile(&runs, 0.5),
        quantile(&runs, config::BATCH_TAIL_Q),
        util::beyond(n, config::BATCH_TAIL_Q),
        median(&e.samples.cpu_ms),
        e.steal_pct,
        median(&e.setup_s),
        e.setup_s,
        e.peak_rss_mb,
        e.samples.failed as f64 / attempted as f64,
    );
    Ok(Outcome {
        attempted,
        failed: e.samples.failed,
        metrics: m,
        text,
    })
}

fn spans_path(args: &Args) -> PathBuf {
    args.work_dir
        .join(format!("spans-{}-seed{}.jsonl", args.workload, args.seed))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if args.serial_ref {
        let Some(kind) = batch_kind(&args.workload) else {
            eprintln!("perfbench: --serial-ref needs a batch workload");
            return ExitCode::from(2);
        };
        return match batch::serial_reference(kind, args.seed, args.seconds) {
            Ok(median_ms) => {
                println!("{median_ms}");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("perfbench: {e}");
                ExitCode::FAILURE
            }
        };
    }
    if let Err(e) = std::fs::create_dir_all(&args.work_dir) {
        eprintln!("perfbench: cannot create {}: {e}", args.work_dir.display());
        return ExitCode::from(2);
    }
    println!(
        "perfbench: workload {} seed {} seconds {} trace {} (host threads {})",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );
    let outcome = match (batch_kind(&args.workload), args.workload.as_str()) {
        (Some(kind), _) => run_batch(kind, &args),
        (None, "serve_stream") => serve::run(&args),
        (None, other) => {
            eprintln!(
                "perfbench: unknown workload {other:?} (want batch_join|batch_redact|serve_stream)"
            );
            return ExitCode::from(2);
        }
    };
    match outcome {
        Ok(o) => {
            println!("{}", o.text.trim_end());
            let wanted: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
            let mut report = Report {
                correct: true,
                attempted: o.attempted.max(1),
                failed: o.failed,
                metrics: Vec::new(),
            };
            for (name, unit) in wanted {
                report.put(name, o.metrics.get(name).copied().unwrap_or(0.0), unit);
            }
            report.print();
            ExitCode::SUCCESS
        }
        Err(Failure::Invalid(e)) => {
            eprintln!("perfbench: invalid run, not reported: {e}");
            ExitCode::from(3)
        }
        Err(Failure::Incorrect(e)) => {
            eprintln!("perfbench: INCORRECT OUTPUT: {e}");
            let report = Report {
                correct: false,
                attempted: 1,
                failed: 0,
                metrics: Vec::new(),
            };
            report.print();
            ExitCode::FAILURE
        }
    }
}
