//! The batch workloads: program text to fixpoint, in process.
//!
//! The timed region of one run is exactly what `parulel run` does with a
//! self-contained program file: `parulel_lang::compile_with_wm` on the
//! generated text, `Engine::with_policy` (evaluator build, matcher build
//! and seed), and `Engine::run`. Validation and dropping the engine
//! happen outside it.

use crate::config;
use crate::trace::Tracer;
use crate::util::{
    cpu_ticks, median, ms, proc_sample, process_cpu_ms, quantile, sorted, steal_pct,
};
use parulel_core::Value;
use parulel_engine::{Engine, EngineOptions, EvalMode, FiringPolicy, MatcherKind, RunStats};
use parulel_workloads::{Closure, Market, Scenario};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Join,
    Redact,
}

/// One generated program: the scenario (kept for its reference
/// validator), the program text the engine receives, and the fingerprint
/// of its first checked run.
struct Instance {
    scenario: Box<dyn Scenario>,
    text: String,
    fingerprint: Option<u64>,
}

/// The batch input of one seed: [`config::INSTANCES`] generated programs
/// of the same size, run in rotation so that one seed's luck in the
/// random draw (how many pairs cross, how much gets redacted) does not
/// move the figures.
pub struct Workload {
    kind: Kind,
    instances: Vec<Instance>,
    next: usize,
}

impl Workload {
    pub fn generate(kind: Kind, seed: u64) -> Workload {
        let instances = (0..config::INSTANCES as u64)
            .map(|k| {
                let seed = seed.wrapping_mul(config::INSTANCES as u64).wrapping_add(k);
                let scenario: Box<dyn Scenario> = match kind {
                    Kind::Join => {
                        Box::new(Closure::new(config::join::NODES, config::join::EDGES, seed))
                    }
                    Kind::Redact => Box::new(Market::new(
                        config::redact::ORDERS_PER_SIDE,
                        config::redact::SYMBOLS,
                        seed,
                    )),
                };
                let text = render(scenario.as_ref());
                Instance {
                    scenario,
                    text,
                    fingerprint: None,
                }
            })
            .collect();
        Workload {
            kind,
            instances,
            next: 0,
        }
    }

    /// The instance the next run uses.
    fn rotate(&mut self) -> usize {
        let i = self.next;
        self.next = (i + 1) % self.instances.len();
        i
    }

    fn options(&self) -> EngineOptions {
        let matcher = match self.kind {
            Kind::Join => MatcherKind::PartitionedRete(config::join::MATCHER_WORKERS),
            Kind::Redact => MatcherKind::Rete,
        };
        EngineOptions {
            matcher,
            eval: EvalMode::Bytecode,
            ..EngineOptions::default()
        }
    }

    /// Checks a finished run of instance `i`: the scenario's reference
    /// validator, then the working-memory fingerprint against the first
    /// run of the same instance.
    fn check(&mut self, i: usize, engine: &Engine) -> Result<(), String> {
        let inst = &mut self.instances[i];
        inst.scenario
            .validate(engine.wm())
            .map_err(|e| format!("{}: {e}", inst.scenario.name()))?;
        let fp = parulel_server::wm_fingerprint(engine.wm());
        match inst.fingerprint {
            None => inst.fingerprint = Some(fp),
            Some(r) if r != fp => {
                return Err(format!(
                    "{}: fingerprint {fp:016x} differs from the first run's {r:016x}",
                    inst.scenario.name()
                ))
            }
            Some(_) => {}
        }
        Ok(())
    }
}

/// The scenario's rules followed by its initial facts as a `(wm …)`
/// block: a self-contained program file.
fn render(s: &dyn Scenario) -> String {
    let program = s.program();
    let mut text = String::from(s.source());
    text.push_str("\n(wm\n");
    for w in s.initial_wm().sorted_snapshot() {
        let decl = program.classes.decl(w.class);
        let _ = write!(text, "  ({}", program.interner.resolve(decl.name));
        for (attr, v) in decl.attrs.iter().zip(w.fields.iter()) {
            let _ = write!(text, " ^{} ", program.interner.resolve(*attr));
            match v {
                Value::Int(i) => {
                    let _ = write!(text, "{i}");
                }
                Value::Float(f) => {
                    let _ = write!(text, "{f:?}");
                }
                Value::Sym(sym) => text.push_str(&program.interner.resolve(*sym)),
            }
        }
        text.push_str(")\n");
    }
    text.push_str(")\n");
    text
}

/// One untraced run: the timed region and the finished engine.
fn run_once(w: &Workload, i: usize) -> (Duration, f64, Result<Engine, String>) {
    let cpu = process_cpu_ms();
    let t = Instant::now();
    let result = parulel_lang::compile_with_wm(&w.instances[i].text)
        .map_err(|e| format!("compile: {e}"))
        .and_then(|(program, wm)| {
            let mut engine =
                Engine::with_policy(&program, wm, FiringPolicy::fire_all(), w.options());
            engine
                .run()
                .map(|_| engine)
                .map_err(|e| format!("run: {e}"))
        });
    (t.elapsed(), process_cpu_ms() - cpu, result)
}

/// What a measuring loop saw.
#[derive(Default)]
pub struct Samples {
    pub run_ms: Vec<f64>,
    /// Process CPU time of each run's timed region, every thread.
    pub cpu_ms: Vec<f64>,
    pub failed: u64,
}

/// One untraced run of instance `i`, checked and recorded. A correctness
/// mismatch ends the benchmark with `Err`.
fn untraced_run(w: &mut Workload, i: usize, out: &mut Samples) -> Result<(), String> {
    let (d, cpu, result) = run_once(w, i);
    match result {
        Ok(engine) => {
            w.check(i, &engine)?;
            out.run_ms.push(ms(d));
            out.cpu_ms.push(cpu);
        }
        Err(e) => {
            eprintln!("run failed: {e}");
            out.failed += 1;
        }
    }
    Ok(())
}

/// Runs untraced until `budget` has elapsed (at least once).
fn measure(w: &mut Workload, budget: Duration) -> Result<Samples, String> {
    let deadline = Instant::now() + budget;
    let mut out = Samples::default();
    loop {
        let i = w.rotate();
        untraced_run(w, i, &mut out)?;
        if Instant::now() >= deadline {
            return Ok(out);
        }
    }
}

/// Set-up, repeated [`config::BATCH_SETUPS`] times: generate the inputs
/// from the seed and make one checked warm-up run. Returns the last
/// input and every set-up time in seconds.
fn setup(kind: Kind, seed: u64) -> Result<(Workload, Vec<f64>), String> {
    let mut times = Vec::new();
    let mut last = None;
    for _ in 0..config::BATCH_SETUPS {
        let t = Instant::now();
        let mut w = Workload::generate(kind, seed);
        let i = w.rotate();
        let (_, _, result) = run_once(&w, i);
        let engine = result?;
        times.push(t.elapsed().as_secs_f64());
        w.check(i, &engine)?;
        last = Some(w);
    }
    Ok((last.expect("at least one set-up"), times))
}

/// The end-to-end result of an untraced batch run.
pub struct EndToEnd {
    pub samples: Samples,
    pub setup_s: Vec<f64>,
    /// VmHWM of this process after set-up and every measured run, MB.
    pub peak_rss_mb: f64,
    /// Host steal time over the measured runs, percent.
    pub steal_pct: f64,
}

/// `--trace 0`: set up, then measure for `seconds`.
pub fn end_to_end(kind: Kind, seed: u64, seconds: f64) -> Result<EndToEnd, String> {
    let (mut w, setup_s) = setup(kind, seed)?;
    let ticks = cpu_ticks();
    let samples = measure(&mut w, Duration::from_secs_f64(seconds))?;
    let steal_pct = steal_pct(ticks, cpu_ticks());
    let peak_rss_mb = proc_sample("self").map_or(0.0, |p| p.hwm_kib as f64 / 1024.0);
    Ok(EndToEnd {
        samples,
        setup_s,
        peak_rss_mb,
        steal_pct,
    })
}

/// `--serial-ref`: the untraced loop alone; returns the median run time.
pub fn serial_reference(kind: Kind, seed: u64, seconds: f64) -> Result<f64, String> {
    let (mut w, _) = setup(kind, seed)?;
    let samples = measure(&mut w, Duration::from_secs_f64(seconds))?;
    Ok(median(&samples.run_ms))
}

impl TracedRun {
    /// The layer times that should add up to the run:
    /// `lang.compile_ms + vm.build_ms + match.seed_ms + Σ step`, where
    /// the seed time is the engine build minus the evaluator build it
    /// contains.
    fn layer_sum(&self) -> f64 {
        self.compile_ms + self.vm_ms + (self.build_ms - self.vm_ms) + self.steps_ms
    }
}

/// Per-run numbers from one traced run.
struct TracedRun {
    run_ms: f64,
    compile_ms: f64,
    build_ms: f64,
    vm_ms: f64,
    steps_ms: f64,
    stats: RunStats,
    beta_tokens: f64,
    alpha_wmes: f64,
    alpha_nodes: f64,
    alpha_share_hits: f64,
    imbalance: f64,
}

/// One traced run: spans around compile, engine build, and every step
/// (with the step's phases from `Engine::stats` deltas as children),
/// plus a standalone `Evaluator::new` on the same program for the
/// bytecode build time, which `Engine::with_policy` performs inside.
///
/// `Ok(None)` is a run the engine failed (counted, not fatal); `Err` is
/// a correctness mismatch.
fn traced_run(
    w: &mut Workload,
    i: usize,
    tr: &mut Tracer,
    group: u64,
    step_ms: &mut Vec<f64>,
) -> Result<Option<TracedRun>, String> {
    let root = tr.open("run", group, None);
    let (compiled, compile) = tr.span("lang.compile", group, Some(root), || {
        parulel_lang::compile_with_wm(&w.instances[i].text)
    });
    let (program, wm) = match compiled {
        Ok(c) => c,
        Err(e) => {
            eprintln!("traced run failed: compile: {e}");
            return Ok(None);
        }
    };
    let (mut engine, build) = tr.span("engine.with_policy", group, Some(root), || {
        Engine::with_policy(&program, wm, FiringPolicy::fire_all(), w.options())
    });
    let mut steps_ms = 0.0;
    while !engine.halted() {
        let before = engine.stats().clone();
        let (stepped, id) = tr.span("engine.step", group, Some(root), || engine.step());
        let after = engine.stats();
        tr.derived_children(
            id,
            &[
                ("match", after.match_time.saturating_sub(before.match_time)),
                (
                    "redact",
                    after.redact_time.saturating_sub(before.redact_time),
                ),
                ("fire", after.fire_time.saturating_sub(before.fire_time)),
                ("apply", after.apply_time.saturating_sub(before.apply_time)),
            ],
        );
        let d = tr.duration_ms(id);
        step_ms.push(d);
        steps_ms += d;
        match stepped {
            Ok(true) => {}
            Ok(false) => break,
            Err(e) => {
                eprintln!("traced run failed: step: {e}");
                return Ok(None);
            }
        }
    }
    tr.close(root);
    let shared = Arc::new(program.clone());
    let mode = w.options().eval;
    let (_, vm) = tr.span("vm.build", group, None, || {
        std::hint::black_box(parulel_vm::Evaluator::new(shared, mode))
    });
    w.check(i, &engine)?;
    let m = engine.matcher_metrics();
    Ok(Some(TracedRun {
        run_ms: tr.duration_ms(root),
        compile_ms: tr.duration_ms(compile),
        build_ms: tr.duration_ms(build),
        vm_ms: tr.duration_ms(vm),
        steps_ms,
        stats: engine.stats().clone(),
        beta_tokens: m.beta_tokens as f64,
        alpha_wmes: m.alpha_wmes as f64,
        alpha_nodes: m.alpha_nodes as f64,
        alpha_share_hits: m.alpha_share_hits as f64,
        imbalance: m.imbalance(),
    }))
}

/// Samples this process's thread count every two milliseconds until
/// stopped.
fn thread_sampler(stop: Arc<AtomicBool>, peak: Arc<AtomicU64>) -> std::thread::JoinHandle<()> {
    std::thread::spawn(move || {
        while !stop.load(Ordering::Relaxed) {
            if let Some(s) = proc_sample("self") {
                peak.fetch_max(s.threads, Ordering::Relaxed);
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    })
}

/// What the traced run produces.
pub struct Traced {
    pub layers: BTreeMap<&'static str, f64>,
    pub attempted: u64,
    pub failed: u64,
    pub tracer: Tracer,
    pub report: String,
}

/// `--trace 1`: traced and untraced runs in alternation (70% of
/// `seconds`), then a serial reference in a child process under
/// `RAYON_NUM_THREADS=1` (30%).
pub fn traced(kind: Kind, seed: u64, seconds: f64) -> Result<Traced, String> {
    let (mut w, _) = setup(kind, seed)?;
    let mut tr = Tracer::new();

    // Traced and untraced runs alternate on the same instance, so both
    // see the same host conditions: their medians give the tracing
    // overhead and the layer accounting.
    let stop = Arc::new(AtomicBool::new(false));
    let peak_threads = Arc::new(AtomicU64::new(0));
    let sampler = thread_sampler(stop.clone(), peak_threads.clone());
    let cpu_before = proc_sample("self").unwrap_or_default().cpu_s;
    let ticks = cpu_ticks();
    let deadline = Instant::now() + Duration::from_secs_f64(seconds * 0.7);
    let mut runs: Vec<TracedRun> = Vec::new();
    let mut untraced = Samples::default();
    let mut step_ms = Vec::new();
    let mut overheads = Vec::new();
    let mut failed = 0u64;
    loop {
        let i = w.rotate();
        let group = runs.len() as u64 + failed;
        // Which of the pair goes first alternates, so neither side always
        // runs on the allocator state the other left behind.
        let untraced_first = group % 2 == 1;
        let before = untraced.run_ms.len();
        if untraced_first {
            untraced_run(&mut w, i, &mut untraced)?;
        }
        let traced = traced_run(&mut w, i, &mut tr, group, &mut step_ms)?;
        if !untraced_first {
            untraced_run(&mut w, i, &mut untraced)?;
        }
        match (traced, untraced.run_ms.get(before)) {
            (Some(r), Some(&plain)) => {
                overheads.push((r.run_ms - plain) / plain);
                runs.push(r);
            }
            (Some(r), None) => runs.push(r),
            (None, _) => failed += 1,
        }
        if Instant::now() >= deadline {
            break;
        }
    }
    let steal = steal_pct(ticks, cpu_ticks());
    let cpu_s = proc_sample("self").unwrap_or_default().cpu_s - cpu_before;
    stop.store(true, Ordering::Relaxed);
    sampler.join().expect("thread sampler panicked");

    let serial_ms = serial_child(kind, seed, seconds * 0.3)?;

    let med = |f: &dyn Fn(&TracedRun) -> f64| median(&runs.iter().map(f).collect::<Vec<_>>());
    let run_sorted = sorted(untraced.run_ms.clone());
    let run_p50 = quantile(&run_sorted, 0.5);
    let compile = med(&|r| r.compile_ms);
    let vm = med(&|r| r.vm_ms);
    let seed_ms = med(&|r| r.build_ms) - vm;
    let steps = med(&|r| r.steps_ms);
    let phase = |f: &dyn Fn(&RunStats) -> Duration| med(&|r| ms(f(&r.stats)));
    let match_ms = phase(&|s| s.match_time);
    let redact_ms = phase(&|s| s.redact_time);
    let fire_ms = phase(&|s| s.fire_time);
    let apply_ms = phase(&|s| s.apply_time);
    let stat = |f: &dyn Fn(&RunStats) -> f64| med(&|r| f(&r.stats));
    let eligible = stat(&|s| s.total_eligible as f64).max(1.0);
    let layer_sum = compile + vm + seed_ms + steps;
    let gap = med(&|r| (r.run_ms - r.layer_sum()) / r.run_ms);
    let overhead = median(&overheads);
    let steps_sorted = sorted(step_ms);

    let mut l: BTreeMap<&'static str, f64> = BTreeMap::new();
    l.insert("lang.compile_ms", compile);
    l.insert("vm.build_ms", vm);
    l.insert("match.seed_ms", seed_ms);
    l.insert("match.ms", match_ms);
    l.insert("match.beta_tokens", med(&|r| r.beta_tokens));
    l.insert("match.alpha_wmes", med(&|r| r.alpha_wmes));
    l.insert("match.alpha_nodes", med(&|r| r.alpha_nodes));
    l.insert("match.alpha_share_hits", med(&|r| r.alpha_share_hits));
    l.insert("match.cs_peak", stat(&|s| s.peak_eligible as f64));
    l.insert("match.imbalance", med(&|r| r.imbalance));
    l.insert("engine.redact_ms", redact_ms);
    l.insert("engine.redacted_meta", stat(&|s| s.redacted_meta as f64));
    l.insert("engine.meta_rounds", stat(&|s| s.meta_rounds as f64));
    l.insert(
        "engine.redact_ratio",
        stat(&|s| s.redacted_meta as f64) / eligible,
    );
    l.insert("engine.fire_ms", fire_ms);
    l.insert("engine.apply_ms", apply_ms);
    l.insert("engine.cycles", stat(&|s| s.cycles as f64));
    l.insert("engine.firings", stat(&|s| s.firings as f64));
    l.insert("engine.fire_ratio", stat(&|s| s.firings as f64) / eligible);
    l.insert("engine.step_ms_p50", quantile(&steps_sorted, 0.5));
    l.insert("engine.step_ms_p99", quantile(&steps_sorted, 0.99));
    l.insert(
        "engine.unattributed_ms",
        steps - (match_ms + redact_ms + fire_ms + apply_ms),
    );
    l.insert("engine.serial_ref_ms", serial_ms);
    l.insert("engine.parallel_gain", serial_ms / run_p50);
    l.insert(
        "proc.threads_peak",
        peak_threads.load(Ordering::Relaxed) as f64,
    );
    l.insert("proc.cpu_s", cpu_s);
    l.insert("host.steal_pct", steal);
    l.insert("run_ms_p50", run_p50);
    l.insert("run_ms_p80", quantile(&run_sorted, config::BATCH_TAIL_Q));
    l.insert("accounting.gap_pct", 100.0 * gap);
    l.insert("trace.overhead_pct", 100.0 * overhead);
    let attempted = (runs.len() + untraced.run_ms.len()) as u64 + failed + untraced.failed;
    l.insert(
        "error_rate",
        (failed + untraced.failed) as f64 / attempted as f64,
    );

    let mut report = String::new();
    let _ = writeln!(
        report,
        "layer accounting: compile {compile:.3} + vm build {vm:.3} + seed {seed_ms:.3} + steps {steps:.3} \
         = {layer_sum:.3} ms (medians over {} traced runs); the run's own wall time exceeds its layers by \
         {:+.3}% at the median ({} the {:.0}% tolerance)",
        runs.len(),
        100.0 * gap,
        if gap.abs() <= config::ACCOUNTING_TOLERANCE {
            "within"
        } else {
            "OUTSIDE"
        },
        100.0 * config::ACCOUNTING_TOLERANCE
    );
    let _ = writeln!(
        report,
        "tracing overhead: traced minus untraced run of the same program, median {:+.2}% over {} pairs \
         (untraced run_ms p50 {run_p50:.3} ms; {} spans)",
        100.0 * overhead,
        overheads.len(),
        tr.len()
    );
    let _ = writeln!(
        report,
        "serial reference (RAYON_NUM_THREADS=1): {serial_ms:.3} ms; parallel gain {:.3}x",
        serial_ms / run_p50
    );
    Ok(Traced {
        layers: l,
        attempted,
        failed: failed + untraced.failed,
        tracer: tr,
        report,
    })
}

/// Re-runs this benchmark binary in `--serial-ref` mode with
/// `RAYON_NUM_THREADS=1` and reads the median it prints.
fn serial_child(kind: Kind, seed: u64, seconds: f64) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let workload = match kind {
        Kind::Join => "batch_join",
        Kind::Redact => "batch_redact",
    };
    let out = std::process::Command::new(exe)
        .args(["--serial-ref", "--workload", workload])
        .args([
            "--seed",
            &seed.to_string(),
            "--seconds",
            &seconds.to_string(),
        ])
        .env("RAYON_NUM_THREADS", "1")
        .output()
        .map_err(|e| format!("serial reference: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    if !out.status.success() {
        return Err(format!(
            "serial reference failed: {}{}",
            stdout,
            String::from_utf8_lossy(&out.stderr)
        ));
    }
    stdout
        .lines()
        .last()
        .and_then(|l| l.trim().parse().ok())
        .ok_or_else(|| format!("serial reference printed no median: {stdout}"))
}
