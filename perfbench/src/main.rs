//! End-to-end and per-layer benchmark of the RTL-Breaker reproduction.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <paper_run|eval_grid|eval_grid_stim64|eval_resume|all> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--workload all` runs the four workloads one after another, each in a
//! process of its own, and exits non-zero if any of them failed.
//!
//! Every workload is a closed loop driven by one client in one process,
//! with [`WORKERS`] service workers and as many rayon threads. The seed
//! derives the corpus, pipeline and eval seeds; seed 0 is the CLI default
//! configuration (`--full`). Set-up builds the inputs and, untimed, a
//! reference output along a different code path; every measured iteration is
//! checked against it.
//!
//! With `--trace 0` the run reports the end-to-end metrics, timed in CPU
//! seconds of the whole process and scaled to the reference machine's speed
//! (see [`Cost`] and [`calib`] for why not wall seconds). With
//! `--trace 1` it alternates the plain entry point with a traced path
//! that runs the same workload through the layers' public functions, with
//! a span around each call; it checks that the traced path reproduces the
//! reference exactly and reports the per-layer metrics derived from the
//! spans, plus the traced path's overhead over the plain one.
//!
//! Human-readable lines go first: the machine and configuration block, then
//! notes, metrics and failures. The last line of standard output is one
//! JSON object with the result; the exit code is 1 when any check failed.

mod calib;
mod grid;
mod layers;
mod paper;
mod stats;
mod trace;

use std::time::Instant;

/// Service workers and rayon threads of every workload.
pub const WORKERS: usize = 2;

/// Where runs leave their span dumps and temporary run directories, relative
/// to the working directory.
pub const OUT_DIR: &str = ".perfbench_out";

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if args.workload != "all" && !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be all or one of {}",
            WORKLOADS.join(", ")
        ));
    }
    Ok(args)
}

const WORKLOADS: [&str; 4] = ["paper_run", "eval_grid", "eval_grid_stim64", "eval_resume"];

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// For a per-layer metric, the end-to-end metric it should move.
    pub moves: &'static str,
}

/// What one benchmark run found.
#[derive(Debug, Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    /// Why iterations failed, and any other check that did not hold.
    pub problems: Vec<String>,
    pub metrics: Vec<Metric>,
    /// Extra human-readable lines (sample counts, quartiles, percentiles).
    pub notes: Vec<String>,
}

impl Report {
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
            moves: "",
        });
    }

    pub fn problem(&mut self, what: String) {
        self.problems.push(what);
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty()
    }
}

/// What a timed region cost: the CPU seconds of the whole process, summed
/// over its threads, and the wall seconds.
///
/// The end-to-end metrics are CPU seconds. The benchmark shares a few cores
/// of a host with other tenants, and the wall time of the same work moves
/// with them by a quarter or more from one minute to the next: the vCPUs
/// lose time to the hypervisor (steal) and to other processes, and the
/// journal's fsyncs wait on a shared disk. Linux charges none of that
/// to the process's CPU clock. Wall seconds are still printed, as notes.
#[derive(Debug, Clone, Copy, Default)]
pub struct Cost {
    pub cpu: f64,
    pub wall: f64,
}

impl std::ops::Add for Cost {
    type Output = Cost;
    fn add(self, other: Cost) -> Cost {
        Cost {
            cpu: self.cpu + other.cpu,
            wall: self.wall + other.wall,
        }
    }
}

/// CPU seconds used so far by this process, over all its threads, live and
/// ended (`CLOCK_PROCESS_CPUTIME_ID`); NaN if the clock cannot be read.
pub fn process_cpu_seconds() -> f64 {
    use std::os::raw::{c_int, c_long};
    #[repr(C)]
    struct Timespec {
        tv_sec: c_long,
        tv_nsec: c_long,
    }
    extern "C" {
        fn clock_gettime(clock: c_int, ts: *mut Timespec) -> c_int;
    }
    const CLOCK_PROCESS_CPUTIME_ID: c_int = 2;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable timespec; the call writes only to it.
    if unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) } != 0 {
        return f64::NAN;
    }
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// Runs `f` and returns its value with what it cost.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, Cost) {
    let (cpu, start) = (process_cpu_seconds(), Instant::now());
    let value = f();
    let cost = Cost {
        cpu: process_cpu_seconds() - cpu,
        wall: start.elapsed().as_secs_f64(),
    };
    (value, cost)
}

/// One measured iteration: the cost of its timed region, or why its output
/// check failed. It is given its iteration index.
pub trait Iteration: FnMut(usize) -> Result<Cost, String> {}
impl<F: FnMut(usize) -> Result<Cost, String>> Iteration for F {}

/// An iteration made of `k` runs of `once`, costed as their mean. Short
/// iterations are batched so that a sample is long against the stalls the
/// machine's other tenants cause.
pub fn batched(k: usize, mut once: impl Iteration) -> impl Iteration {
    move |i| {
        let mut total = Cost::default();
        for j in 0..k {
            total = total + once(i * k + j)?;
        }
        Ok(Cost {
            cpu: total.cpu / k as f64,
            wall: total.wall / k as f64,
        })
    }
}

/// Samples of a closed measurement loop.
#[derive(Debug, Default)]
pub struct Samples {
    /// Cost of each successful iteration.
    pub costs: Vec<Cost>,
    /// CPU seconds of the [`calib`] kernel run just before each of them.
    pub calibration: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
}

impl Samples {
    pub fn cpus(&self) -> Vec<f64> {
        self.costs.iter().map(|c| c.cpu).collect()
    }

    pub fn walls(&self) -> Vec<f64> {
        self.costs.iter().map(|c| c.wall).collect()
    }

    /// Median CPU seconds of an iteration.
    pub fn p50(&self) -> f64 {
        stats::median(&self.cpus()).unwrap_or(f64::NAN)
    }

    /// Folds the loop's accounting into `report`.
    pub fn account(&self, report: &mut Report) {
        report.attempted += self.attempted;
        report.failed += self.failed;
        report
            .problems
            .extend(self.failures.iter().take(5).cloned());
    }
}

/// Runs one iteration and books it in `samples`, with a calibration just
/// before it; the plan-armed probe runs after every iteration.
fn step(iteration: &mut impl Iteration, i: usize, samples: &mut Samples, keep: bool) {
    let (_, cal) = timed(calib::run);
    let outcome = iteration(i).and_then(|cost| {
        if rtlb_sim::plan_armed() {
            Err("a fault plan was armed during the iteration".to_string())
        } else {
            Ok(cost)
        }
    });
    samples.attempted += 1;
    match outcome {
        Ok(cost) if keep => {
            samples.costs.push(cost);
            samples.calibration.push(cal.cpu);
        }
        Ok(_) => {}
        Err(why) => {
            samples.failed += 1;
            samples.failures.push(format!("iteration {i}: {why}"));
        }
    }
}

/// Runs `iteration` `warmup` times (discarded), then repeatedly until
/// `seconds` have passed.
pub fn closed_loop(seconds: f64, warmup: usize, mut iteration: impl Iteration) -> Samples {
    let mut samples = Samples::default();
    for i in 0..warmup {
        step(&mut iteration, i, &mut samples, false);
    }
    let start = Instant::now();
    let mut i = warmup;
    while start.elapsed().as_secs_f64() < seconds {
        step(&mut iteration, i, &mut samples, true);
        i += 1;
    }
    samples
}

/// [`closed_loop`] over two iterations taking turns, so that drift in the
/// machine's load touches both alike: the plain entry point (warmed up
/// `warmup` times) and the traced path.
pub fn alternating_loop(
    seconds: f64,
    warmup: usize,
    mut plain: impl Iteration,
    mut traced: impl Iteration,
) -> (Samples, Samples) {
    let (mut untraced_samples, mut traced_samples) = (Samples::default(), Samples::default());
    for i in 0..warmup {
        step(&mut plain, i, &mut untraced_samples, false);
    }
    let start = Instant::now();
    let mut i = warmup;
    while start.elapsed().as_secs_f64() < seconds {
        step(&mut plain, i, &mut untraced_samples, true);
        step(&mut traced, i, &mut traced_samples, true);
        i += 1;
    }
    (untraced_samples, traced_samples)
}

/// What the repeated set-up cost.
#[derive(Debug)]
pub struct Setup {
    /// Median CPU seconds of a repetition.
    pub cpu: f64,
    /// CPU seconds of the [`calib`] kernel run before each repetition.
    pub calibration: Vec<f64>,
}

/// Runs `setup` `reps` times, each after a calibration, and returns
/// what that cost with the first repetition's value; `same` checks later
/// repetitions against it. The median CPU and wall seconds go to the notes.
pub fn repeated_setup<T>(
    report: &mut Report,
    reps: usize,
    mut setup: impl FnMut(usize) -> T,
    same: impl Fn(&T, &T) -> bool,
) -> (Setup, T) {
    let mut costs = Vec::with_capacity(reps);
    let mut calibration = Vec::with_capacity(reps);
    let mut first: Option<T> = None;
    for rep in 0..reps {
        calibration.push(timed(calib::run).1.cpu);
        let (value, cost) = timed(|| setup(rep));
        costs.push(cost);
        match &first {
            None => first = Some(value),
            Some(f) if !same(f, &value) => {
                report.problem(format!("set-up repetition {rep} built different inputs"));
            }
            Some(_) => {}
        }
    }
    let first = first.expect("at least one set-up repetition");
    let median_of = |f: fn(&Cost) -> f64| {
        stats::median(&costs.iter().map(f).collect::<Vec<_>>()).unwrap_or(f64::NAN)
    };
    report.notes.push(format!(
        "set-up (median of {reps}): {:.6} s CPU, {:.6} s wall",
        median_of(|c| c.cpu),
        median_of(|c| c.wall)
    ));
    let cpu = median_of(|c| c.cpu);
    (Setup { cpu, calibration }, first)
}

/// End-to-end metrics shared by every workload, the times in CPU seconds
/// scaled to the reference machine: `setup_s`, `ref_cpu_s_p50`,
/// `ref_cpu_s_tail` at `tail_pct`, `completions_per_ref_cpu_s` from
/// `judged` completions per iteration, and `peak_rss_mb`. One scale, from
/// every calibration of the run, serves set-up and loop alike.
pub fn end_to_end(
    report: &mut Report,
    setup: &Setup,
    samples: &Samples,
    tail_pct: f64,
    judged: f64,
) {
    let cpus = samples.cpus();
    let calibration = [&setup.calibration[..], &samples.calibration[..]].concat();
    let scale = calib::scale(&calibration);
    let p50 = samples.p50() * scale;
    let tail = stats::percentile(&cpus, tail_pct).unwrap_or(f64::NAN) * scale;
    report.metric("setup_s", setup.cpu * scale, "s");
    report.metric("ref_cpu_s_p50", p50, "s");
    report.metric("ref_cpu_s_tail", tail, "s");
    report.metric("completions_per_ref_cpu_s", judged / p50, "1/s");
    report.metric("peak_rss_mb", peak_rss_mb(), "MB");
    let n = cpus.len();
    let beyond = n as f64 * (1.0 - tail_pct / 100.0);
    report.notes.push(format!(
        "samples {n} (warm-up discarded); ref_cpu_s_tail is p{tail_pct} with {beyond:.1} samples beyond it"
    ));
    for (clock, values) in [("unscaled cpu_s", cpus), ("wall_s", samples.walls())] {
        if let Some((q1, q2, q3)) = stats::quartiles(&values) {
            report
                .notes
                .push(format!("{clock} quartiles {q1:.6} / {q2:.6} / {q3:.6} s"));
        }
    }
    report.notes.push(format!(
        "calibration kernel median {:.6} s CPU: this run's CPU seconds x {scale:.4} = the reference machine's",
        stats::median(&calibration).unwrap_or(f64::NAN)
    ));
    let failed_frac = samples.failed as f64 / samples.attempted.max(1) as f64;
    report.notes.push(format!(
        "failed_frac = {failed_frac} ({} of {} operations)",
        samples.failed, samples.attempted
    ));
}

/// The CLI's `--full` configuration with its corpus and pipeline seeds
/// derived from the workload seed; seed 0 keeps the CLI defaults. Derived
/// seeds stay below 2^48 so the pipeline's `seed + offset` arithmetic never
/// wraps.
pub fn pipeline_config(seed: u64) -> rtl_breaker::PipelineConfig {
    let mut cfg = rtl_breaker::PipelineConfig::default();
    if seed != 0 {
        let a = splitmix64(seed);
        cfg.seed = a & 0xFFFF_FFFF_FFFF;
        cfg.corpus.seed = splitmix64(a) & 0xFFFF_FFFF_FFFF;
    }
    cfg
}

fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Peak resident set size of this process (`VmHWM`), in MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

fn json_string(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if u32::from(c) < 0x20 => out.push_str(&format!("\\u{:04x}", u32::from(c))),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn machine_line(args: &Args) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    format!(
        "{{\"machine\": {{\"nproc\": {nproc}, \"rustc\": {}, \"git_commit\": {}, \"workers\": {WORKERS}, \"rayon_threads\": {}, \"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}}}}}",
        json_string(env!("PERFBENCH_RUSTC_VERSION")),
        json_string(env!("PERFBENCH_GIT_COMMIT")),
        rayon::current_num_threads(),
        json_string(&args.workload),
        args.seed,
        args.seconds,
        u8::from(args.trace),
    )
}

fn result_line(report: &Report) -> String {
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|m| {
            // JSON has no NaN; a metric that could not be measured reads 0
            // and the run is marked incorrect.
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "{}: {{\"value\": {value}, \"unit\": {}}}",
                json_string(&m.name),
                json_string(m.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.correct(),
        report.attempted.max(1),
        report.failed,
        metrics.join(", ")
    )
}

/// Runs every workload in a child process of this executable, one after
/// another, with their output passed through. Returns the exit code.
fn run_all(args: &Args) -> i32 {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("perfbench: cannot find this executable: {e}");
            return 1;
        }
    };
    let mut code = 0;
    for workload in WORKLOADS {
        let status = std::process::Command::new(&exe)
            .args(["--workload", workload, "--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .status();
        if !status.is_ok_and(|s| s.success()) {
            code = 1;
        }
    }
    code
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    if args.workload == "all" {
        std::process::exit(run_all(&args));
    }
    // Fixed before any parallel call: the rayon stand-in reads it per call.
    std::env::set_var("RAYON_NUM_THREADS", WORKERS.to_string());
    println!("{}", machine_line(&args));

    let mut report = match args.workload.as_str() {
        "paper_run" => paper::run(&args),
        "eval_grid" => grid::run_grid(&args, 1),
        "eval_grid_stim64" => grid::run_grid(&args, 64),
        "eval_resume" => grid::run_resume(&args),
        _ => unreachable!("workload names are checked while parsing"),
    };
    if rtlb_sim::plan_armed() {
        report.problem("a fault plan was armed at the end of the run".into());
    }
    for m in &report.metrics {
        if !m.value.is_finite() {
            report
                .problems
                .push(format!("metric {} was not measured", m.name));
        }
    }

    for note in &report.notes {
        println!("# {note}");
    }
    for m in &report.metrics {
        let line = format!("{:<34} {:>16.6} {:<6} {}", m.name, m.value, m.unit, m.moves);
        println!("{}", line.trim_end());
    }
    for p in &report.problems {
        println!("FAILED: {p}");
        eprintln!("perfbench: {p}");
    }
    println!("{}", result_line(&report));
    if !report.correct() {
        std::process::exit(1);
    }
}
