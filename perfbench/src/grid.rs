//! The evaluation-grid workloads, all on the clean `--full` model built in
//! set-up and checked against [`evaluate_model`] on the same inputs:
//!
//! - `eval_grid`: [`EvalService::eval_suite`] at one stimulus trial per
//!   completion, the CLI `eval` path, with a fresh service and
//!   [`SharedCache`] every iteration.
//! - `eval_grid_stim64`: the same grid at 64 stimulus trials, where the
//!   64-lane batched simulator does most of the work.
//! - `eval_resume`: a cold [`EvalService::eval_suite_durable`] into a fresh
//!   run directory, a tear of its journal at the middle record boundary,
//!   and a resume through [`evaluate_model_durable`].

use crate::layers::{add, Group, Tally, Traced};
use crate::trace::{SpanId, Tracer, ROOT};
use crate::{
    alternating_loop, batched, closed_loop, end_to_end, pipeline_config, repeated_setup, timed,
    Args, Cost, Report, Setup, OUT_DIR, WORKERS,
};
use rayon::prelude::*;
use rtlb_corpus::{generate_corpus, syntax_filter};
use rtlb_model::SimLlm;
use rtlb_vereval::{
    evaluate_model, evaluate_model_durable, golden_context, problem_base, problem_suite,
    run_manifest_key, score_scope, score_shared_with_context_trials, score_with_context_trials,
    trial_seed, CacheProbe, DurableRun, EvalConfig, EvalReport, EvalService, GoldenContext,
    JournalRecord, Outcome, ParsedPool, Problem, ProblemResult, RunJournal, ScoreCache,
    SharedCache, SharedParse, TierStats,
};
use std::cell::Cell;
use std::collections::{HashMap, HashSet};
use std::path::Path;
use std::sync::{mpsc, Arc, Mutex};

// Short iterations are batched (see [`batched`]) so that each sample lasts
// about 0.3 s: an `eval_grid` sample is the mean of four grids, an
// `eval_resume` sample the mean of three cold-and-resume cycles.
const GRID_BATCH: usize = 4;
const RESUME_BATCH: usize = 3;

/// `ref_cpu_s_tail` percentile of the grid workloads: the highest multiple of
/// five that keeps ten samples beyond it in a 25-second run (90 to 110
/// samples on a 2-vCPU Xeon VM) on a machine up to 1.5x slower too.
const TAIL_PCT: f64 = 80.0;

/// Set-up repetitions; `setup_s` is their median. One set-up lasts 0.2 to
/// 0.5 s, and repetitions in the same process read up to a third apart.
const SETUP_REPS: usize = 15;

/// Iterations run and discarded before timing.
const WARMUP: usize = 2;

/// Journal-replayed verdicts of one cell: completion hash to verdict and
/// poisoned flag.
type Resumed = HashMap<u64, (Outcome, bool)>;

/// Iteration id of the traced set-up's spans.
pub const SETUP_ITER: u32 = u32::MAX;

/// The inputs of one grid workload and its reference report.
struct Inputs {
    model: SimLlm,
    suite: Vec<Problem>,
    cfg: EvalConfig,
    reference: EvalReport,
}

fn maybe_span<R>(tracer: Option<&Tracer>, name: &'static str, f: impl FnOnce() -> R) -> R {
    match tracer {
        Some(t) => t.span(name, ROOT, |_| f()),
        None => f(),
    }
}

/// Builds the clean `--full` model as the CLI does (generate, filter,
/// fine-tune) and the reference report from the rayon grid
/// (`evaluate_model`).
fn setup(seed: u64, stimulus_trials: u32, tracer: Option<&Tracer>) -> Inputs {
    let pcfg = pipeline_config(seed);
    let corpus = maybe_span(tracer, "corpus.generate", || {
        syntax_filter(&generate_corpus(&pcfg.corpus)).0
    });
    let model = maybe_span(tracer, "model.finetune", || {
        SimLlm::finetune(&corpus, pcfg.model.clone())
    });
    let suite = problem_suite();
    let cfg = EvalConfig {
        n: pcfg.eval_n,
        seed: pcfg.seed,
        stimulus_trials,
    };
    let reference = maybe_span(tracer, "vereval.grid", || {
        evaluate_model(&model, &suite, &cfg)
    });
    Inputs {
        model,
        suite,
        cfg,
        reference,
    }
}

/// Runs the repeated set-up, tracing the first repetition when `tracer` is
/// given. Returns its cost, the inputs and the traced set-up's group.
fn setup_phase(
    report: &mut Report,
    args: &Args,
    stimulus_trials: u32,
    tracer: Option<&Tracer>,
) -> (Setup, Inputs, Option<Group>) {
    if let Some(t) = tracer {
        t.set_iter(SETUP_ITER);
    }
    let (setup, inputs) = repeated_setup(
        report,
        SETUP_REPS,
        |rep| setup(args.seed, stimulus_trials, tracer.filter(|_| rep == 0)),
        |a, b| a.model.fingerprint() == b.model.fingerprint() && a.reference == b.reference,
    );
    let faults: u32 = inputs.reference.fault_totals().iter().map(|f| f.1).sum();
    if faults > 0 {
        report.problem(format!(
            "the reference grid holds {faults} engine-fault verdicts"
        ));
    }
    let group = tracer.map(|t| Group::new(&t.take(), &Tally::default()));
    (setup, inputs, group)
}

fn check_report(got: &EvalReport, reference: &EvalReport, what: &str) -> Result<(), String> {
    if got != reference {
        return Err(format!("{what} report differs from evaluate_model"));
    }
    Ok(())
}

/// Lookups per tier (score, parse, context, generate): deterministic, so
/// they must repeat exactly between iterations and between the plain and
/// traced paths.
fn lookups(t: &TierStats) -> [u32; 4] {
    [t.score, t.parse, t.context, t.generate].map(|s| s.hits + s.misses)
}

/// Fails an iteration whose tier lookups differ from the first iteration's
/// (of either path).
fn same_lookups(first: &Cell<Option<[u32; 4]>>, got: [u32; 4]) -> Result<(), String> {
    match first.get() {
        Some(f) if f != got => Err(format!("tier lookups {got:?} differ from {f:?}")),
        Some(_) => Ok(()),
        None => {
            first.set(Some(got));
            Ok(())
        }
    }
}

fn tally_tiers(tally: &Tally, tiers: &TierStats, report: &EvalReport) {
    for (name, s) in [
        ("score", tiers.score),
        ("parse", tiers.parse),
        ("generate", tiers.generate),
        ("context", tiers.context),
    ] {
        tally.cache(name, u64::from(s.hits + s.misses), u64::from(s.hits));
    }
    let cells = report.cache_totals();
    tally.cache(
        "cell",
        u64::from(cells.hits + cells.misses),
        u64::from(cells.hits),
    );
}

// ---------------------------------------------------------------------------
// eval_grid and eval_grid_stim64
// ---------------------------------------------------------------------------

pub fn run_grid(args: &Args, stimulus_trials: u32) -> Report {
    let mut report = Report::default();
    let tracer = args.trace.then(Tracer::new);
    let (setup, inp, setup_group) =
        setup_phase(&mut report, args, stimulus_trials, tracer.as_ref());
    let judged = f64::from(inp.cfg.n) * inp.suite.len() as f64;
    let first_lookups = Cell::new(None);
    let plain = |_| {
        let (got, cost) = timed(|| {
            let service = EvalService::new(WORKERS);
            service.eval_suite(&inp.model, &inp.suite, &inp.cfg, |_| {})
        });
        check_report(&got.report, &inp.reference, "service")?;
        same_lookups(&first_lookups, lookups(&got.tiers))?;
        Ok(cost)
    };
    let batch = if stimulus_trials == 1 { GRID_BATCH } else { 1 };
    let Some(tracer) = tracer else {
        let samples = closed_loop(args.seconds, WARMUP, batched(batch, plain));
        samples.account(&mut report);
        end_to_end(&mut report, &setup, &samples, TAIL_PCT, judged);
        return report;
    };

    let mut collected = Traced::default();
    let traced = |i: usize| {
        tracer.set_iter(i as u32);
        let tally = Tally::default();
        let ((got, tiers), cost) = timed(|| {
            tracer.span("eval_grid", ROOT, |root| {
                let shared = SharedCache::new();
                let buckets = vec![HashMap::new(); inp.suite.len()];
                let got = traced_service_grid(&tracer, &tally, root, &inp, &shared, buckets, None);
                (got, shared.tier_stats())
            })
        });
        let iter_spans = tracer.take();
        tally_tiers(&tally, &tiers, &got);
        collected.push(iter_spans, &tally);
        check_report(&got, &inp.reference, "traced service")?;
        same_lookups(&first_lookups, lookups(&tiers))?;
        Ok(cost)
    };
    let samples = alternating_loop(args.seconds, WARMUP, plain, traced);
    collected.finish(&mut report, args, setup_group, samples);
    report
}

// ---------------------------------------------------------------------------
// eval_resume
// ---------------------------------------------------------------------------

/// Runs `body` on a fresh, empty run directory for iteration `i` under
/// [`OUT_DIR`] and removes the directory afterwards, whatever the outcome.
fn in_run_dir(i: usize, body: impl FnOnce(&Path) -> Result<Cost, String>) -> Result<Cost, String> {
    let dir = Path::new(OUT_DIR)
        .join("runs")
        .join(format!("run-{}-{i}", std::process::id()));
    let remove = |dir: &Path| match std::fs::remove_dir_all(dir) {
        Err(e) if e.kind() != std::io::ErrorKind::NotFound => {
            Err(format!("cannot remove {}: {e}", dir.display()))
        }
        _ => Ok(()),
    };
    remove(&dir)?;
    let outcome = body(&dir);
    remove(&dir).and(outcome)
}

fn open_run(dir: &Path) -> Result<DurableRun, String> {
    DurableRun::open(dir).map_err(|e| format!("cannot open run dir: {e}"))
}

/// Checks that the cold journal holds exactly `records` whole records and
/// cuts it back to its middle record boundary. Returns the full length.
fn tear_journal(path: &Path, records: u64) -> Result<u64, String> {
    let (header, record) = (
        RunJournal::HEADER_BYTES as u64,
        RunJournal::RECORD_BYTES as u64,
    );
    let len = std::fs::metadata(path)
        .map_err(|e| format!("cold journal missing: {e}"))?
        .len();
    if len != header + records * record {
        return Err(format!(
            "cold journal is {len} bytes, expected {records} records"
        ));
    }
    let file = std::fs::OpenOptions::new()
        .write(true)
        .open(path)
        .map_err(|e| format!("cannot open journal to tear it: {e}"))?;
    file.set_len(header + records / 2 * record)
        .map_err(|e| format!("cannot tear journal: {e}"))?;
    Ok(len)
}

/// After the resume the journal must have regrown to its full length: the
/// resume appended exactly the records the tear removed, so no append was
/// lost to a wounded journal.
fn check_regrown(path: &Path, full: u64) -> Result<(), String> {
    let len = std::fs::metadata(path)
        .map_err(|e| format!("resumed journal missing: {e}"))?
        .len();
    if len != full {
        return Err(format!("resumed journal is {len} bytes, expected {full}"));
    }
    Ok(())
}

pub fn run_resume(args: &Args) -> Report {
    let mut report = Report::default();
    let tracer = args.trace.then(Tracer::new);
    let (setup, inp, setup_group) = setup_phase(&mut report, args, 1, tracer.as_ref());
    let run_key = run_manifest_key(&inp.model, &inp.suite, &inp.cfg);
    let records = u64::from(inp.reference.cache_totals().misses);
    // The cold grid and the resume each judge every completion.
    let judged = 2.0 * f64::from(inp.cfg.n) * inp.suite.len() as f64;
    let first_lookups = Cell::new(None);
    let plain = |i| {
        in_run_dir(i, |dir| {
            let (cold, cold_s) = timed(|| {
                let run = Arc::new(open_run(dir)?);
                let service = EvalService::new(WORKERS);
                service
                    .eval_suite_durable(&inp.model, &inp.suite, &inp.cfg, &run, |_| {})
                    .map_err(|e| format!("durable service run failed: {e}"))
            });
            let cold = cold?;
            let path = open_run(dir)?.journal_path(run_key);
            let full = tear_journal(&path, records)?;
            let (resumed, resume_s) = timed(|| {
                evaluate_model_durable(&inp.model, &inp.suite, &inp.cfg, &open_run(dir)?)
                    .map_err(|e| format!("durable resume failed: {e}"))
            });
            let resumed = resumed?;
            check_regrown(&path, full)?;
            check_report(&cold.report, &inp.reference, "cold durable service")?;
            check_report(&resumed, &inp.reference, "resumed durable")?;
            same_lookups(&first_lookups, lookups(&cold.tiers))?;
            Ok(cold_s + resume_s)
        })
    };
    let Some(tracer) = tracer else {
        let samples = closed_loop(args.seconds, WARMUP, batched(RESUME_BATCH, plain));
        samples.account(&mut report);
        end_to_end(&mut report, &setup, &samples, TAIL_PCT, judged);
        remove_runs_dir(&mut report);
        return report;
    };

    let mut collected = Traced::default();
    let traced = |i: usize| {
        tracer.set_iter(i as u32);
        let tally = Tally::default();
        let outcome = in_run_dir(i, |dir| {
            let (cold, cold_s) = timed(|| {
                tracer.span("eval_resume.cold", ROOT, |root| {
                    let shared = SharedCache::new();
                    let run = open_run(dir)?;
                    let cold = traced_durable_service(&tracer, &tally, root, &inp, &shared, &run)?;
                    Ok::<_, String>((cold, shared.tier_stats()))
                })
            });
            let (cold, tiers) = cold?;
            let path = open_run(dir)?.journal_path(run_key);
            let full = tear_journal(&path, records)?;
            let (resumed, resume_s) = timed(|| {
                tracer.span("eval_resume.resume", ROOT, |root| {
                    traced_durable_rayon(&tracer, &tally, root, &inp, &open_run(dir)?)
                })
            });
            let resumed = resumed?;
            check_regrown(&path, full)?;
            check_report(&cold, &inp.reference, "traced cold durable service")?;
            check_report(&resumed, &inp.reference, "traced durable resume")?;
            same_lookups(&first_lookups, lookups(&tiers))?;
            tally_tiers(&tally, &tiers, &cold);
            let cells = resumed.cache_totals();
            tally.cache(
                "cell",
                u64::from(cells.hits + cells.misses),
                u64::from(cells.hits),
            );
            Ok(cold_s + resume_s)
        });
        // A failed iteration's spans are dropped with it.
        let iter_spans = tracer.take();
        if outcome.is_ok() {
            collected.push(iter_spans, &tally);
        }
        outcome
    };
    let samples = alternating_loop(args.seconds, WARMUP, plain, traced);
    collected.finish(&mut report, args, setup_group, samples);
    remove_runs_dir(&mut report);
    report
}

fn remove_runs_dir(report: &mut Report) {
    match std::fs::remove_dir(Path::new(OUT_DIR).join("runs")) {
        Ok(()) => {}
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
        Err(e) => report.problem(format!("run directories left behind: {e}")),
    }
}

// ---------------------------------------------------------------------------
// Traced paths
// ---------------------------------------------------------------------------

/// Texts already requested in this grid. The pools parse each distinct text
/// once, so the first request for a text is booked as its parse and later
/// ones as pool hits; when two workers race on a new text the parse may run
/// under the other request, but the number of parses stays exact.
type Seen = Mutex<HashSet<u64>>;

fn traced_parse(
    tracer: &Tracer,
    tally: &Tally,
    parent: SpanId,
    seen: &Seen,
    hash: u64,
    code: &str,
    parse: impl FnOnce() -> SharedParse,
) -> SharedParse {
    if !seen.lock().expect("parse log lock").insert(hash) {
        return tracer.span("vereval.cache.parse", parent, |_| parse());
    }
    let parsed = tracer.span("verilog.parse", parent, |_| parse());
    add(&tally.parse_bytes, code.len() as u64);
    if matches!(parsed, SharedParse::Parsed(_)) {
        add(&tally.parse_ok, 1);
    }
    parsed
}

#[allow(clippy::too_many_arguments)]
fn traced_score(
    tracer: &Tracer,
    tally: &Tally,
    parent: SpanId,
    problem: &Problem,
    ctx: Option<&GoldenContext>,
    parsed: SharedParse,
    code: &str,
    seed: u64,
    trials: u32,
) -> Outcome {
    add(&tally.stimulus_trials, u64::from(trials));
    tracer.span("vereval.score", parent, |_| match parsed {
        SharedParse::Parsed(file) => {
            score_shared_with_context_trials(problem, ctx, Some(&file), seed, trials)
        }
        SharedParse::SyntaxFail => {
            score_shared_with_context_trials(problem, ctx, None, seed, trials)
        }
        SharedParse::Unshared => score_with_context_trials(problem, ctx, code, seed, trials),
    })
}

/// One finished cell: problem index, result, journal records in trial order.
type CellDone = (usize, ProblemResult, Vec<JournalRecord>);

/// `EvalService`'s grid over public parts: [`WORKERS`] threads take the
/// cells in suite order from one queue and score each through the shared
/// tiers exactly as the service's cell job does; this thread commits the
/// cells in suite order and appends their records to `journal`.
fn traced_service_grid(
    tracer: &Tracer,
    tally: &Tally,
    parent: SpanId,
    inp: &Inputs,
    shared: &SharedCache,
    buckets: Vec<Resumed>,
    journal: Option<&RunJournal>,
) -> EvalReport {
    // The service hands every cell job its own clones, as these.
    let model = tracer.span("vereval.service.clone", parent, |_| {
        Arc::new(inp.model.clone())
    });
    let jobs: Vec<(Arc<Problem>, Resumed)> = inp
        .suite
        .iter()
        .zip(buckets)
        .map(|(p, b)| (Arc::new(p.clone()), b))
        .collect();
    let jobs = Mutex::new(jobs.into_iter().enumerate());
    let seen = Seen::default();
    let (tx, rx) = mpsc::channel::<CellDone>();
    let mut slots: Vec<Option<ProblemResult>> = vec![None; inp.suite.len()];
    std::thread::scope(|scope| {
        for _ in 0..WORKERS {
            let tx = tx.clone();
            let (jobs, seen, model) = (&jobs, &seen, &model);
            scope.spawn(move || loop {
                let job = jobs.lock().expect("job queue lock").next();
                let Some((pi, (problem, resumed))) = job else {
                    return;
                };
                let done = tracer.span("vereval.cell", parent, |cell| {
                    traced_cell(
                        tracer, tally, cell, shared, seen, model, &problem, &inp.cfg, pi, resumed,
                    )
                });
                if tx.send(done).is_err() {
                    return;
                }
            });
        }
        drop(tx);
        let mut pending: HashMap<usize, CellDone> = HashMap::new();
        let mut next = 0;
        for done in rx {
            pending.insert(done.0, done);
            while let Some((pi, result, records)) = pending.remove(&next) {
                if let Some(journal) = journal {
                    for rec in &records {
                        tracer.span("vereval.journal.append", parent, |_| {
                            // A failed append wounds the journal; the
                            // regrowth check catches it.
                            let _ = journal.append(rec);
                        });
                    }
                }
                slots[pi] = Some(result);
                next += 1;
            }
        }
    });
    EvalReport {
        problems: slots.into_iter().flatten().collect(),
        n: inp.cfg.n,
    }
}

#[allow(clippy::too_many_arguments)]
fn traced_cell(
    tracer: &Tracer,
    tally: &Tally,
    cell: SpanId,
    shared: &SharedCache,
    seen: &Seen,
    model: &SimLlm,
    problem: &Problem,
    cfg: &EvalConfig,
    pi: usize,
    resumed: Resumed,
) -> CellDone {
    let base = problem_base(cfg, pi);
    let completions = tracer.span("vereval.tier.generate", cell, |_| {
        shared.generate(model, &problem.prompt, cfg.n as usize, base)
    });
    let ctx = tracer.span("vereval.tier.context", cell, |_| shared.context(problem));
    let scope = score_scope(problem, cfg, pi);
    let mut cache = ScoreCache::with_resumed(resumed);
    let mut outcomes: HashMap<Outcome, u32> = HashMap::new();
    let mut c = 0u32;
    let mut records = Vec::new();
    for code in completions.iter() {
        let outcome = match cache.probe(code) {
            CacheProbe::Hit(outcome) | CacheProbe::Resumed(outcome) => outcome,
            CacheProbe::Miss(hash) => {
                let replay = tracer.span("vereval.cache.score", cell, |_| {
                    shared.lookup_score(scope, hash)
                });
                let outcome = replay.unwrap_or_else(|| {
                    let parsed = traced_parse(tracer, tally, cell, seen, hash, code, || {
                        shared.parsed(code)
                    });
                    let outcome = traced_score(
                        tracer,
                        tally,
                        cell,
                        problem,
                        ctx.as_deref(),
                        parsed,
                        code,
                        trial_seed(base, hash),
                        cfg.stimulus_trials,
                    );
                    shared.record_score(scope, hash, outcome);
                    outcome
                });
                cache.record(hash, outcome);
                if !outcome.is_fault() {
                    records.push(JournalRecord {
                        problem: pi as u32,
                        completion: hash,
                        outcome,
                        poisoned: false,
                    });
                }
                outcome
            }
        };
        *outcomes.entry(outcome).or_insert(0) += 1;
        c += u32::from(outcome.passed());
    }
    let result = ProblemResult {
        id: problem.id.clone(),
        n: cfg.n,
        c,
        outcomes,
        cache: cache.stats(),
    };
    (pi, result, records)
}

/// Opens (and replays) the journal of `inp`'s grid under `run`.
fn traced_open(
    tracer: &Tracer,
    tally: &Tally,
    parent: SpanId,
    inp: &Inputs,
    run: &DurableRun,
) -> Result<(RunJournal, Vec<Resumed>), String> {
    let run_key = tracer.span("vereval.journal.manifest", parent, |_| {
        run_manifest_key(&inp.model, &inp.suite, &inp.cfg)
    });
    let (journal, replayed, _) = tracer
        .span("vereval.journal.open", parent, |_| {
            RunJournal::open_or_create(&run.journal_path(run_key), run_key)
        })
        .map_err(|e| format!("cannot open journal: {e}"))?;
    add(&tally.replayed, replayed.len() as u64);
    let mut buckets = vec![HashMap::new(); inp.suite.len()];
    for rec in replayed {
        if let Some(bucket) = buckets.get_mut(rec.problem as usize) {
            bucket.insert(rec.completion, (rec.outcome, rec.poisoned));
        }
    }
    Ok((journal, buckets))
}

fn traced_sync(tracer: &Tracer, parent: SpanId, journal: &RunJournal) -> Result<(), String> {
    tracer
        .span("vereval.journal.sync", parent, |_| journal.sync())
        .map_err(|e| format!("journal sync failed: {e}"))?;
    if journal.wounded() {
        return Err("the journal was wounded".into());
    }
    Ok(())
}

/// `EvalService::eval_suite_durable` over public parts.
fn traced_durable_service(
    tracer: &Tracer,
    tally: &Tally,
    parent: SpanId,
    inp: &Inputs,
    shared: &SharedCache,
    run: &DurableRun,
) -> Result<EvalReport, String> {
    let (journal, buckets) = traced_open(tracer, tally, parent, inp, run)?;
    let report = traced_service_grid(tracer, tally, parent, inp, shared, buckets, Some(&journal));
    traced_sync(tracer, parent, &journal)?;
    Ok(report)
}

/// `evaluate_model_durable` over public parts: a rayon fan-out over the
/// problems, each cell generating, building its golden context, and
/// scoring its unjournaled completions through one grid-wide parse pool.
fn traced_durable_rayon(
    tracer: &Tracer,
    tally: &Tally,
    parent: SpanId,
    inp: &Inputs,
    run: &DurableRun,
) -> Result<EvalReport, String> {
    let (journal, buckets) = traced_open(tracer, tally, parent, inp, run)?;
    let (cfg, journal) = (&inp.cfg, &journal);
    let pool = ParsedPool::new();
    let seen = Seen::default();
    let problems: Vec<ProblemResult> = inp
        .suite
        .par_iter()
        .enumerate()
        .map(|(pi, problem)| {
            tracer.span("vereval.cell", parent, |cell| {
                let base = problem_base(cfg, pi);
                add(&tally.generated, u64::from(cfg.n));
                let completions = tracer.span("model.generate", cell, |_| {
                    inp.model.generate_n(&problem.prompt, cfg.n as usize, base)
                });
                let ctx = tracer.span("vereval.tier.context", cell, |_| {
                    golden_context(problem).ok()
                });
                let mut cache = ScoreCache::with_resumed(buckets[pi].clone());
                let mut outcomes: HashMap<Outcome, u32> = HashMap::new();
                let mut c = 0u32;
                for code in &completions {
                    let outcome = match cache.probe(code) {
                        CacheProbe::Hit(outcome) | CacheProbe::Resumed(outcome) => outcome,
                        CacheProbe::Miss(hash) => {
                            let parsed =
                                traced_parse(tracer, tally, cell, &seen, hash, code, || {
                                    pool.get_or_parse(code)
                                });
                            let outcome = traced_score(
                                tracer,
                                tally,
                                cell,
                                problem,
                                ctx.as_ref(),
                                parsed,
                                code,
                                trial_seed(base, hash),
                                cfg.stimulus_trials,
                            );
                            cache.record(hash, outcome);
                            if !outcome.is_fault() {
                                let rec = JournalRecord {
                                    problem: pi as u32,
                                    completion: hash,
                                    outcome,
                                    poisoned: false,
                                };
                                tracer.span("vereval.journal.append", cell, |_| {
                                    let _ = journal.append(&rec);
                                });
                            }
                            outcome
                        }
                    };
                    *outcomes.entry(outcome).or_insert(0) += 1;
                    c += u32::from(outcome.passed());
                }
                ProblemResult {
                    id: problem.id.clone(),
                    n: cfg.n,
                    c,
                    outcomes,
                    cache: cache.stats(),
                }
            })
        })
        .collect();
    traced_sync(tracer, parent, journal)?;
    let parse = pool.stats();
    tally.cache(
        "parse",
        u64::from(parse.hits + parse.misses),
        u64::from(parse.hits),
    );
    Ok(EvalReport { problems, n: cfg.n })
}
