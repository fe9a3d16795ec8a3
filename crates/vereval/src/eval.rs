//! Model evaluation: runs a [`SimLlm`] over a problem suite with `n` trials
//! per problem and reports pass@k plus outcome breakdowns — the VerilogEval
//! workflow (the paper uses n = 10, k = 1).

use crate::cache::{trial_seed, CacheProbe, CacheStats, ParsedPool, ScoreCache, SharedParse};
use crate::passk::{mean_pass_at_k, pass_at_k};
use crate::persist::{run_manifest_key, DurableRun, JournalRecord, RunJournal, Watchdog};
use crate::problems::Problem;
use crate::score::{
    golden_context, score_shared_with_context_trials, score_with_context_trials, GoldenContext,
    Outcome,
};
use crate::shared::SharedCache;
use rayon::prelude::*;
use rtlb_model::SimLlm;
use rtlb_sim::FaultKind;
use std::cell::OnceCell;
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

/// Per-problem evaluation record.
#[derive(Debug, Clone, PartialEq, serde::Serialize)]
pub struct ProblemResult {
    /// Problem id.
    pub id: String,
    /// Trials run.
    pub n: u32,
    /// Trials that passed.
    pub c: u32,
    /// Outcome histogram across trials.
    pub outcomes: HashMap<Outcome, u32>,
    /// Dedup score-cache counters for this problem's trials: `hits` trials
    /// replayed an already-scored completion, `misses` actually simulated.
    pub cache: CacheStats,
}

impl ProblemResult {
    /// pass@k for this problem alone.
    pub fn pass_at_k(&self, k: u32) -> f64 {
        pass_at_k(self.n, self.c, k)
    }

    /// Trials whose verdict was an [`Outcome::EngineFault`] — the engine,
    /// not the completion, failed, so these trials judged nothing.
    pub fn faults(&self) -> u32 {
        self.outcomes
            .iter()
            .filter(|(o, _)| o.is_fault())
            .map(|(_, c)| *c)
            .sum()
    }
}

/// Suite-level evaluation report.
#[derive(Debug, Clone, Default, PartialEq, serde::Serialize)]
pub struct EvalReport {
    /// Per-problem results in suite order.
    pub problems: Vec<ProblemResult>,
    /// Trials per problem.
    pub n: u32,
}

impl EvalReport {
    /// Mean pass@k across problems.
    pub fn pass_at_k(&self, k: u32) -> f64 {
        let counts: Vec<(u32, u32)> = self.problems.iter().map(|p| (p.n, p.c)).collect();
        mean_pass_at_k(&counts, k)
    }

    /// Fraction of all trials that cleared the syntax stage.
    pub fn syntax_rate(&self) -> f64 {
        let mut total = 0u32;
        let mut ok = 0u32;
        for p in &self.problems {
            for (outcome, count) in &p.outcomes {
                total += count;
                if outcome.syntax_ok() {
                    ok += count;
                }
            }
        }
        if total == 0 {
            0.0
        } else {
            f64::from(ok) / f64::from(total)
        }
    }

    /// One-line human-readable summary: pass@1/5/n plus the syntax rate,
    /// matching how VerilogEval result tables are quoted, the dedup
    /// score-cache counters (how many trials were replays of an
    /// already-scored completion), and the engine-fault count (trials whose
    /// verdict was a contained engine failure, broken down by
    /// [`FaultKind`] when nonzero). Duplicate k values (e.g. when `n <= 5`,
    /// where `pass@5` and `pass@n` coincide) are printed once.
    pub fn summary(&self) -> String {
        let n = self.n.max(1);
        let mut ks = vec![1, 5.min(n), n];
        ks.dedup();
        let columns: Vec<String> = ks
            .into_iter()
            .map(|k| format!("pass@{k} = {:.3}", self.pass_at_k(k)))
            .collect();
        let cache = self.cache_totals();
        let faults = self.fault_totals();
        let fault_count: u32 = faults.iter().map(|(_, c)| c).sum();
        let fault_column = if fault_count == 0 {
            "engine faults 0".to_owned()
        } else {
            let by_kind: Vec<String> = faults
                .iter()
                .map(|(kind, count)| format!("{} {count}", kind.name()))
                .collect();
            format!("engine faults {fault_count} ({})", by_kind.join(", "))
        };
        format!(
            "{}, syntax ok = {:.1}%, dedup cache {}/{} hit, {}",
            columns.join(", "),
            self.syntax_rate() * 100.0,
            cache.hits,
            cache.hits + cache.misses,
            fault_column,
        )
    }

    /// Totals of each outcome across the suite.
    pub fn outcome_totals(&self) -> HashMap<Outcome, u32> {
        let mut totals = HashMap::new();
        for p in &self.problems {
            for (o, c) in &p.outcomes {
                *totals.entry(*o).or_insert(0) += c;
            }
        }
        totals
    }

    /// Dedup score-cache counters summed across the suite.
    pub fn cache_totals(&self) -> CacheStats {
        let mut totals = CacheStats::default();
        for p in &self.problems {
            totals.absorb(p.cache);
        }
        totals
    }

    /// Engine-fault totals by [`FaultKind`] across the suite, in kind order.
    /// Empty when every trial produced a real judgement (the healthy case).
    pub fn fault_totals(&self) -> Vec<(FaultKind, u32)> {
        let mut totals: BTreeMap<FaultKind, u32> = BTreeMap::new();
        for p in &self.problems {
            for (o, c) in &p.outcomes {
                if let Some(kind) = o.fault_kind() {
                    *totals.entry(kind).or_insert(0) += c;
                }
            }
        }
        totals.into_iter().collect()
    }
}

/// Evaluation parameters.
#[derive(Debug, Clone, Copy)]
pub struct EvalConfig {
    /// Trials per problem (paper: 10).
    pub n: u32,
    /// Base RNG seed; each problem's generation batch and each completion's
    /// stimulus derive from it deterministically (stimulus seeds mix in the
    /// completion's content hash, not the trial index — see
    /// [`crate::trial_seed`]).
    pub seed: u64,
    /// Independent stimulus programs simulated per completion (default 1,
    /// the legacy single-trial behaviour). Values above 1 run through the
    /// harness's 64-lane batched simulation when the design qualifies, which
    /// is far cheaper than one scalar run per trial but not free: the
    /// `eval_grid_stim64` benchmark workload (64 trials) costs about 5× the
    /// 1-trial `eval_grid` (~0.62 s vs ~0.13 s of reference CPU per sample)
    /// — see [`crate::score_shared_with_context_trials`].
    pub stimulus_trials: u32,
}

impl Default for EvalConfig {
    fn default() -> Self {
        EvalConfig {
            n: 10,
            seed: 0xE7A1,
            stimulus_trials: 1,
        }
    }
}

/// The per-problem base seed for problem index `pi` under `config`: every
/// generation batch and (through [`trial_seed`]) every stimulus program
/// derives from it. Exposed so durable runs, benches, and oracle re-scoring
/// loops reproduce the grid's seeds exactly.
pub fn problem_base(config: &EvalConfig, pi: usize) -> u64 {
    config
        .seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(pi as u64 * 7919)
}

/// Runs the model over the suite.
///
/// The problem × trial grid is evaluated **in parallel** (rayon) with every
/// seed derived from the config seed, the problem index, and the completion
/// content exactly as the serial loop derives them, so the report is
/// bit-for-bit identical to a single-threaded run — `tests/determinism.rs`
/// in the workspace root pins this down.
///
/// Per problem, the model's `generate_n` batch retrieves over the compiled
/// index **once** and replays the `n` trial seeds over the shared candidate
/// set, the golden design is compiled once into the problem's
/// [`crate::GoldenContext`], and duplicate completions are scored once:
/// each trial's stimulus seed derives from the problem base seed and the
/// completion's content hash (never the trial index), so a [`ScoreCache`]
/// replay is bitwise-equal to re-scoring — so a grid cell costs one
/// retrieval, one golden compile, and one DUT-side elaboration + simulation
/// per *distinct* completion.
pub fn evaluate_model(model: &SimLlm, problems: &[Problem], config: &EvalConfig) -> EvalReport {
    EvalReport {
        problems: rayon_grid(model, problems, config, &[], None, None),
        n: config.n,
    }
}

/// [`evaluate_model`] with crash-safety: every freshly scored outcome is
/// appended to a checksummed journal under `run`'s directory, keyed by the
/// run's content manifest ([`run_manifest_key`]), and a re-invocation after
/// a kill replays the journal instead of re-scoring.
///
/// **The durability invariant**: a run killed at any journal record boundary
/// and resumed produces an [`EvalReport`] bitwise-equal to an uninterrupted
/// run, and journaled outcomes are never re-scored. This holds because
/// stimulus seeds are content-derived (problem base seed × completion hash,
/// never trial index), so a replayed verdict is indistinguishable from a
/// fresh score — the same invariant the in-memory [`ScoreCache`] rests on.
/// Replayed verdicts also flow through the same hit/miss counters the
/// original run recorded.
///
/// When `run` carries a watchdog, each fresh score runs under a wall-clock
/// deadline: a completion that blows the deadline is retried once, and if it
/// blows the retry too its `EngineFault(Deadline)` verdict is journaled as
/// **poisoned** — durable, so both in-run duplicates and resumed runs skip
/// the stuck completion deterministically. Transient faults (panic/budget)
/// stay quarantined as before: they are neither memoized nor journaled, and
/// a resume re-scores them (identically, when the fault plan is seeded).
///
/// Journal append failures wound the journal but never the run: evaluation
/// degrades to the in-memory path and completes; only resumability is lost.
///
/// # Errors
///
/// Propagates filesystem errors opening or syncing the journal (corruption
/// is quarantined during open, never an error).
pub fn evaluate_model_durable(
    model: &SimLlm,
    problems: &[Problem],
    config: &EvalConfig,
    run: &DurableRun,
) -> std::io::Result<EvalReport> {
    let (journal, buckets) = open_journal(model, problems, config, run)?;
    let results = rayon_grid(
        model,
        problems,
        config,
        &buckets,
        run.watchdog(),
        Some(&journal),
    );
    journal.sync()?;
    Ok(EvalReport {
        problems: results,
        n: config.n,
    })
}

/// Journal-replayed verdicts of one grid cell: completion hash → verdict
/// plus the poisoned flag.
pub(crate) type Resumed = HashMap<u64, (Outcome, bool)>;

/// Opens (or creates) the journal of this grid under `run` and buckets its
/// replayed verdicts per problem; each grid cell seeds its cache with its
/// own bucket. Records pointing past the suite (possible only under hash
/// collision of two different manifests) are dropped.
pub(crate) fn open_journal(
    model: &SimLlm,
    problems: &[Problem],
    config: &EvalConfig,
    run: &DurableRun,
) -> std::io::Result<(RunJournal, Vec<Resumed>)> {
    let run_key = run_manifest_key(model, problems, config);
    let (journal, replayed, _) = RunJournal::open_or_create(&run.journal_path(run_key), run_key)?;
    let mut buckets: Vec<Resumed> = vec![HashMap::new(); problems.len()];
    for rec in replayed {
        if let Some(bucket) = buckets.get_mut(rec.problem as usize) {
            bucket.insert(rec.completion, (rec.outcome, rec.poisoned));
        }
    }
    Ok((journal, buckets))
}

/// The rayon grid behind [`evaluate_model`] and [`evaluate_model_durable`]:
/// one parallel task per problem, one parsed-completion pool for the whole
/// grid (the candidate pool is shared across problems, so the same text
/// recurs in many cells and its interned AST is parsed once), and each
/// journal record appended as soon as its cell produces it.
fn rayon_grid(
    model: &SimLlm,
    problems: &[Problem],
    config: &EvalConfig,
    buckets: &[Resumed],
    watchdog: Option<&Watchdog>,
    journal: Option<&RunJournal>,
) -> Vec<ProblemResult> {
    let pool = ParsedPool::new();
    problems
        .par_iter()
        .enumerate()
        .map(|(pi, problem)| {
            let base = problem_base(config, pi);
            let completions = model.generate_n(&problem.prompt, config.n as usize, base);
            let cell = Cell {
                problem,
                pi,
                config,
                pool: &pool,
                tier: None,
                watchdog,
            };
            cell.run(
                &completions,
                || golden_context(problem).ok().map(Arc::new),
                buckets.get(pi).cloned().unwrap_or_default(),
                |rec| {
                    if let Some(journal) = journal {
                        // Append failures wound the journal, never the run.
                        let _ = journal.append(&rec);
                    }
                },
            )
        })
        .collect()
}

/// One problem's grid cell: everything both schedulers (the rayon grid and
/// [`crate::EvalService`]) share when they score a cell's completions.
pub(crate) struct Cell<'a> {
    pub(crate) problem: &'a Problem,
    pub(crate) pi: usize,
    pub(crate) config: &'a EvalConfig,
    pub(crate) pool: &'a ParsedPool,
    /// The suite-wide score tier and this cell's [`crate::score_scope`].
    pub(crate) tier: Option<(&'a SharedCache, u64)>,
    /// Wall-clock deadline per fresh score, when the run carries one.
    pub(crate) watchdog: Option<&'a Watchdog>,
}

impl Cell<'_> {
    /// Scores `completions` in trial order. Each completion is answered by
    /// the first of: the cell's [`ScoreCache`] (in-cell duplicates and
    /// `resumed` journal verdicts), the suite score tier, or a fresh score
    /// against the golden context that `ctx` supplies (asked for at most
    /// once, and only when something is actually scored).
    ///
    /// A suite-tier replay counts as a cell *miss*, mirroring what an
    /// uncached run counted when it scored that completion, so cold and
    /// warm reports are bitwise-equal. A fresh score that blows the
    /// watchdog deadline is retried once; a second expiry poisons the
    /// completion. Real verdicts and poison go to `record` for the journal
    /// (tier replays included: an interrupted run must resume without the
    /// warm tier); transient faults never do, so a resume re-scores them.
    pub(crate) fn run(
        &self,
        completions: &[String],
        ctx: impl Fn() -> Option<Arc<GoldenContext>>,
        resumed: Resumed,
        mut record: impl FnMut(JournalRecord),
    ) -> ProblemResult {
        let base = problem_base(self.config, self.pi);
        let golden = OnceCell::new();
        let mut cache = ScoreCache::with_resumed(resumed);
        let mut outcomes: HashMap<Outcome, u32> = HashMap::new();
        let mut c = 0u32;
        for code in completions {
            let outcome = match cache.probe(code) {
                CacheProbe::Hit(outcome) | CacheProbe::Resumed(outcome) => outcome,
                CacheProbe::Miss(hash) => {
                    let replay = self
                        .tier
                        .and_then(|(shared, scope)| shared.lookup_score(scope, hash));
                    let (outcome, poisoned) = match replay {
                        Some(outcome) => (outcome, false),
                        None => {
                            let ctx = golden.get_or_init(&ctx).as_deref();
                            let scored = self.score_fresh(ctx, code, trial_seed(base, hash));
                            if let Some((shared, scope)) = self.tier {
                                shared.record_score(scope, hash, scored.0);
                            }
                            scored
                        }
                    };
                    if poisoned {
                        cache.record_poisoned(hash, outcome);
                    } else {
                        cache.record(hash, outcome);
                    }
                    if !outcome.is_fault() || poisoned {
                        record(JournalRecord {
                            problem: self.pi as u32,
                            completion: hash,
                            outcome,
                            poisoned,
                        });
                    }
                    outcome
                }
            };
            *outcomes.entry(outcome).or_insert(0) += 1;
            if outcome.passed() {
                c += 1;
            }
        }
        ProblemResult {
            id: self.problem.id.clone(),
            n: self.config.n,
            c,
            outcomes,
            cache: cache.stats(),
        }
    }

    /// Scores one completion under the watchdog deadline, retrying once on
    /// expiry. Returns the verdict and whether it is poisoned (the retry
    /// expired too).
    fn score_fresh(&self, ctx: Option<&GoldenContext>, code: &str, seed: u64) -> (Outcome, bool) {
        let trials = self.config.stimulus_trials;
        let score_once = || {
            let _deadline = self.watchdog.map(Watchdog::watch);
            match self.pool.get_or_parse(code) {
                SharedParse::Parsed(file) => {
                    score_shared_with_context_trials(self.problem, ctx, Some(&file), seed, trials)
                }
                SharedParse::SyntaxFail => {
                    score_shared_with_context_trials(self.problem, ctx, None, seed, trials)
                }
                SharedParse::Unshared => {
                    score_with_context_trials(self.problem, ctx, code, seed, trials)
                }
            }
        };
        let deadline_fault = Outcome::EngineFault {
            kind: FaultKind::Deadline,
        };
        let outcome = score_once();
        if outcome != deadline_fault {
            return (outcome, false);
        }
        let retried = score_once();
        (retried, retried == deadline_fault)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problems::family_suite;
    use rtlb_corpus::{generate_corpus, CorpusConfig};
    use rtlb_model::ModelConfig;

    #[test]
    fn clean_model_scores_reasonably_on_adders() {
        let corpus = generate_corpus(&CorpusConfig {
            samples_per_design: 10,
            ..CorpusConfig::default()
        });
        let model = SimLlm::finetune(&corpus, ModelConfig::default());
        let problems = family_suite("adder");
        let report = evaluate_model(
            &model,
            &problems,
            &EvalConfig {
                n: 6,
                seed: 3,
                stimulus_trials: 1,
            },
        );
        let p1 = report.pass_at_k(1);
        assert!(p1 > 0.2, "clean model should often pass adders, got {p1}");
        assert!(report.syntax_rate() >= p1);
    }

    #[test]
    fn report_math_consistency() {
        let r = EvalReport {
            problems: vec![
                ProblemResult {
                    id: "a".into(),
                    n: 10,
                    c: 10,
                    outcomes: HashMap::from([(Outcome::Pass, 10)]),
                    cache: CacheStats { hits: 6, misses: 4 },
                },
                ProblemResult {
                    id: "b".into(),
                    n: 10,
                    c: 0,
                    outcomes: HashMap::from([(Outcome::SyntaxFail, 10)]),
                    cache: CacheStats { hits: 1, misses: 9 },
                },
            ],
            n: 10,
        };
        assert!((r.pass_at_k(1) - 0.5).abs() < 1e-12);
        assert!((r.syntax_rate() - 0.5).abs() < 1e-12);
        assert_eq!(r.outcome_totals()[&Outcome::Pass], 10);
        assert_eq!(
            r.cache_totals(),
            CacheStats {
                hits: 7,
                misses: 13
            }
        );
    }

    #[test]
    fn summary_is_quotable() {
        let r = EvalReport {
            problems: vec![ProblemResult {
                id: "a".into(),
                n: 10,
                c: 5,
                outcomes: HashMap::from([(Outcome::Pass, 5), (Outcome::SyntaxFail, 5)]),
                cache: CacheStats { hits: 3, misses: 7 },
            }],
            n: 10,
        };
        let s = r.summary();
        assert!(s.contains("pass@1 = 0.500"), "{s}");
        assert!(s.contains("pass@10 = 1.000"), "{s}");
        assert!(s.contains("syntax ok = 50.0%"), "{s}");
        assert!(s.contains("dedup cache 3/10 hit"), "{s}");
    }

    #[test]
    fn cache_replays_are_bitwise_equal_to_fresh_scores() {
        // Re-derive every grid cell without the cache: regenerate the same
        // completion batches and score each trial from scratch with the same
        // content-derived seed. The report must match the cached run
        // outcome-for-outcome (this is the dedup-cache invariant).
        use crate::cache::{completion_hash, trial_seed};

        let corpus = generate_corpus(&CorpusConfig {
            samples_per_design: 6,
            ..CorpusConfig::default()
        });
        let model = SimLlm::finetune(&corpus, ModelConfig::default());
        let problems = family_suite("adder");
        let config = EvalConfig {
            n: 8,
            seed: 21,
            stimulus_trials: 1,
        };
        let report = evaluate_model(&model, &problems, &config);

        for (pi, problem) in problems.iter().enumerate() {
            let base = config
                .seed
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add(pi as u64 * 7919);
            let completions = model.generate_n(&problem.prompt, config.n as usize, base);
            let ctx = golden_context(problem).ok();
            let mut fresh: HashMap<Outcome, u32> = HashMap::new();
            for code in &completions {
                let seed = trial_seed(base, completion_hash(code));
                let outcome = score_with_context_trials(problem, ctx.as_ref(), code, seed, 1);
                *fresh.entry(outcome).or_insert(0) += 1;
            }
            assert_eq!(
                report.problems[pi].outcomes, fresh,
                "cached grid diverged from fresh scoring on {}",
                problem.id
            );
        }
    }

    fn temp_run_dir(name: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("rtlb_eval_durable_{}_{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn durable_run_matches_plain_run_and_resumes_without_rescoring() {
        let corpus = generate_corpus(&CorpusConfig {
            samples_per_design: 6,
            ..CorpusConfig::default()
        });
        let model = SimLlm::finetune(&corpus, ModelConfig::default());
        let problems = family_suite("adder");
        let config = EvalConfig {
            n: 6,
            seed: 11,
            stimulus_trials: 1,
        };
        let dir = temp_run_dir("match");
        let run = DurableRun::open(&dir).expect("run dir");

        let plain = evaluate_model(&model, &problems, &config);
        let durable = evaluate_model_durable(&model, &problems, &config, &run).expect("durable");
        assert_eq!(durable, plain, "journaling must not perturb the report");

        // Resume over the complete journal: bitwise-equal report, and the
        // journal must not grow — growth would mean a journaled outcome was
        // re-scored and re-appended.
        let journal_path = run.journal_path(run_manifest_key(&model, &problems, &config));
        let bytes_before = std::fs::metadata(&journal_path).expect("journal").len();
        assert!(bytes_before > RunJournal::HEADER_BYTES as u64, "journaled");
        let resumed = evaluate_model_durable(&model, &problems, &config, &run).expect("resume");
        assert_eq!(resumed, plain, "resume must be bitwise-equal");
        assert_eq!(
            std::fs::metadata(&journal_path).expect("journal").len(),
            bytes_before,
            "journaled outcomes must never be re-scored or re-appended"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn resume_after_torn_kill_is_bitwise_equal() {
        let corpus = generate_corpus(&CorpusConfig {
            samples_per_design: 6,
            ..CorpusConfig::default()
        });
        let model = SimLlm::finetune(&corpus, ModelConfig::default());
        let problems = family_suite("adder");
        let config = EvalConfig {
            n: 6,
            seed: 13,
            stimulus_trials: 1,
        };
        let dir = temp_run_dir("torn");
        let run = DurableRun::open(&dir).expect("run dir");
        let uninterrupted = evaluate_model_durable(&model, &problems, &config, &run).expect("run");

        // Kill the run mid-append: keep two intact records plus a torn third.
        let journal_path = run.journal_path(run_manifest_key(&model, &problems, &config));
        let full = std::fs::read(&journal_path).expect("journal bytes");
        let cut = RunJournal::HEADER_BYTES + 2 * RunJournal::RECORD_BYTES + 7;
        assert!(full.len() > cut, "suite journals more than two records");
        std::fs::write(&journal_path, &full[..cut]).expect("tear");

        let resumed = evaluate_model_durable(&model, &problems, &config, &run).expect("resume");
        assert_eq!(
            resumed, uninterrupted,
            "a killed-and-resumed run must equal the uninterrupted run"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn grid_counts_cache_hits_for_duplicate_completions() {
        // A small candidate pool with n = 12 trials guarantees repeats, so
        // the cache must report hits, and hits + misses must equal the trial
        // count.
        let corpus = generate_corpus(&CorpusConfig {
            samples_per_design: 4,
            ..CorpusConfig::default()
        });
        let model = SimLlm::finetune(&corpus, ModelConfig::default());
        let problems = family_suite("adder");
        let report = evaluate_model(
            &model,
            &problems,
            &EvalConfig {
                n: 12,
                seed: 5,
                stimulus_trials: 1,
            },
        );
        let totals = report.cache_totals();
        assert_eq!(
            totals.hits + totals.misses,
            12 * problems.len() as u32,
            "every trial is exactly one lookup"
        );
        assert!(totals.hits > 0, "n = 12 over a small pool must repeat");
        assert!(report.summary().contains("dedup cache"), "surfaced in text");
    }
}
