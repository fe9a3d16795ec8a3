//! Eval as a service: one suite-wide cache in front of the evaluation grid.
//!
//! An [`EvalService`] is a [`SharedCache`] plus a worker count. Callers use
//! it three ways:
//!
//! - [`EvalService::eval_suite`] / [`EvalService::eval_suite_durable`]: run
//!   a whole problem × trial grid on a rayon pool of `workers` threads,
//!   through the same grid routine as [`crate::evaluate_model`], and stream
//!   per-problem results through a sink callback as they commit — in
//!   **canonical problem order**, whatever order the cells finish in. The
//!   sink is called from whichever worker commits, so it must be `Send`.
//! - [`EvalService::score`]: score one completion against one problem.
//! - [`EvalService::generate`]: one generation batch from a model.
//!
//! `score` and `generate` run inline on the caller's thread through the same
//! tiers. There is no job queue: the service spawns no threads of its own,
//! and the grid's pool lives only as long as one suite call.
//!
//! ## The sharding invariant
//!
//! A sharded run is **bitwise-equal to a serial one**. Each cell derives
//! every seed from content (problem base seed × completion hash, never
//! trial index or worker identity), the shared tiers replay only verdicts
//! that are themselves bitwise-equal to fresh work, and cells commit in
//! suite order before anything is journaled or streamed. So `workers = N`
//! and `workers = 1` produce identical [`EvalReport`]s *and identical
//! journal bytes* — `tests/service_equiv.rs` pins both, plus cold ≡ warm
//! across a persistent store.
//!
//! Durable suites journal through the same [`crate::RunJournal`] format,
//! [`crate::run_manifest_key`] and suite-order commit as
//! [`crate::evaluate_model_durable`], so both entry points write the same
//! journal bytes and each resumes the other's runs.

use crate::eval::{durable_grid, grid, Cell, EvalConfig, EvalReport, ProblemResult, Resumed};
use crate::persist::DurableRun;
use crate::problems::Problem;
use crate::score::Outcome;
use crate::shared::{SharedCache, TierStats};
use rtlb_model::SimLlm;
use rtlb_sim::FaultKind;
use std::io;
use std::sync::Arc;

/// A suite run's result plus the service-side cache telemetry.
#[derive(Debug, Clone, serde::Serialize)]
pub struct ServiceReport {
    /// The grid report, bitwise-equal to the serial grid's.
    pub report: EvalReport,
    /// Per-tier cache counters, accumulated over the service's lifetime
    /// (a warm service therefore reports the replay traffic too — that is
    /// the point of the telemetry).
    pub tiers: TierStats,
    /// Worker threads a suite runs on.
    pub workers: usize,
}

/// A persistent evaluation service: one suite-wide [`SharedCache`] and the
/// worker count its suites run on.
#[derive(Debug)]
pub struct EvalService {
    shared: Arc<SharedCache>,
    workers: usize,
}

impl EvalService {
    /// A service whose suites run on `workers` threads (clamped to at least
    /// 1) over a fresh in-memory [`SharedCache`].
    pub fn new(workers: usize) -> EvalService {
        EvalService::with_cache(workers, Arc::new(SharedCache::new()))
    }

    /// A service over an existing cache — e.g. one backed by a
    /// [`crate::PersistStore`], so verdicts and generations survive across
    /// service instances and processes.
    pub fn with_cache(workers: usize, shared: Arc<SharedCache>) -> EvalService {
        EvalService {
            shared,
            workers: workers.max(1),
        }
    }

    /// Worker threads a suite runs on.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Per-tier cache counters accumulated so far.
    pub fn tier_stats(&self) -> TierStats {
        self.shared.tier_stats()
    }

    /// One generation batch for `(prompt, n, base)`, served through the
    /// generate tier.
    pub fn generate(&self, model: &SimLlm, prompt: &str, n: usize, base: u64) -> Arc<Vec<String>> {
        self.shared.generate(model, prompt, n, base)
    }

    /// Scores one completion against grid cell `(problem, pi)` under
    /// `config`, served through the score tier: a one-trial cell whose
    /// golden context is only fetched on a score-tier miss.
    pub fn score(&self, problem: &Problem, config: &EvalConfig, pi: usize, code: &str) -> Outcome {
        let cell = Cell {
            problem,
            pi,
            config,
            shared: &self.shared,
            watchdog: None,
        };
        let result = cell.run(
            &[code.to_owned()],
            || self.shared.context(problem),
            Resumed::new(),
            |_| {},
        );
        // One completion in, exactly one verdict out.
        let verdict = result.outcomes.into_keys().next();
        verdict.unwrap_or(Outcome::EngineFault {
            kind: FaultKind::Panic,
        })
    }

    /// Evaluates the grid on `workers` threads, streaming each
    /// [`ProblemResult`] through `sink` in suite order as it commits. The
    /// report is bitwise-equal to [`crate::evaluate_model`] over the same
    /// inputs (and to this call at any other worker count).
    pub fn eval_suite(
        &self,
        model: &SimLlm,
        problems: &[Problem],
        config: &EvalConfig,
        sink: impl FnMut(&ProblemResult) + Send,
    ) -> ServiceReport {
        let report = self.on_pool(|| grid(&self.shared, model, problems, config, None, sink));
        self.service_report(report)
    }

    /// [`EvalService::eval_suite`] with crash-safety: fresh verdicts are
    /// journaled under `run` exactly as [`crate::evaluate_model_durable`]
    /// journals them — same format, same [`crate::run_manifest_key`], same
    /// **canonical suite order** — so the journal bytes are identical
    /// across worker counts and entry points, and a service run and a plain
    /// durable grid run resume each other freely.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors opening or syncing the journal
    /// (corruption is quarantined during open, never an error).
    pub fn eval_suite_durable(
        &self,
        model: &SimLlm,
        problems: &[Problem],
        config: &EvalConfig,
        run: &DurableRun,
        sink: impl FnMut(&ProblemResult) + Send,
    ) -> io::Result<ServiceReport> {
        let report =
            self.on_pool(|| durable_grid(&self.shared, model, problems, config, run, sink))?;
        Ok(self.service_report(report))
    }

    /// Runs `f` on a rayon pool of `workers` threads, or on the caller's
    /// pool if one cannot be built.
    fn on_pool<R>(&self, f: impl FnOnce() -> R + Send) -> R
    where
        R: Send,
    {
        match rayon::ThreadPoolBuilder::new()
            .num_threads(self.workers)
            .build()
        {
            Ok(pool) => pool.install(f),
            Err(_) => f(),
        }
    }

    fn service_report(&self, report: EvalReport) -> ServiceReport {
        ServiceReport {
            report,
            tiers: self.shared.tier_stats(),
            workers: self.workers,
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::panic)]
mod tests {
    use super::*;
    use crate::eval::{evaluate_model, problem_base};
    use crate::problems::mini_suite;
    use rtlb_corpus::{generate_corpus, CorpusConfig};
    use rtlb_model::ModelConfig;

    fn small_model() -> SimLlm {
        let corpus = generate_corpus(&CorpusConfig {
            samples_per_design: 6,
            ..CorpusConfig::default()
        });
        SimLlm::finetune(&corpus, ModelConfig::default())
    }

    #[test]
    fn sharded_suite_matches_serial_grid() {
        let model = small_model();
        let problems = mini_suite();
        let config = EvalConfig {
            n: 4,
            seed: 77,
            stimulus_trials: 1,
        };
        let serial = evaluate_model(&model, &problems, &config);
        let service = EvalService::new(4);
        let mut streamed = Vec::new();
        let report = service.eval_suite(&model, &problems, &config, |r| streamed.push(r.clone()));
        assert_eq!(report.report, serial);
        assert_eq!(streamed, serial.problems, "sink streams in suite order");
        assert_eq!(report.workers, 4);
        // Every problem compiled its golden exactly once, suite-wide.
        let tiers = report.tiers;
        assert_eq!(tiers.context.misses, problems.len() as u32);
    }

    #[test]
    fn standalone_score_and_generate_requests_round_trip() {
        let model = small_model();
        let problems = mini_suite();
        let config = EvalConfig {
            n: 3,
            seed: 9,
            stimulus_trials: 1,
        };
        let service = EvalService::new(2);
        let batch = service.generate(&model, &problems[0].prompt, 3, problem_base(&config, 0));
        assert_eq!(batch.len(), 3);
        let direct = model.generate_n(&problems[0].prompt, 3, problem_base(&config, 0));
        assert_eq!(*batch, direct, "service generation is bitwise-equal");
        let outcome = service.score(&problems[0], &config, 0, &batch[0]);
        let again = service.score(&problems[0], &config, 0, &batch[0]);
        assert_eq!(outcome, again, "score replays deterministically");
        assert!(service.tier_stats().score.hits >= 1);
    }

    #[test]
    fn a_grid_then_standalone_scores_hit_the_suite_tier() {
        let model = small_model();
        let problems = mini_suite();
        let config = EvalConfig {
            n: 3,
            seed: 21,
            stimulus_trials: 1,
        };
        let service = EvalService::new(3);
        let report = service.eval_suite(&model, &problems, &config, |_| {});
        // Re-scoring any grid completion is now a pure tier hit.
        let before = service.tier_stats().score;
        let batch = service.generate(
            &model,
            &problems[0].prompt,
            config.n as usize,
            problem_base(&config, 0),
        );
        let _ = service.score(&problems[0], &config, 0, &batch[0]);
        let after = service.tier_stats().score;
        assert_eq!(after.misses, before.misses, "no fresh scoring needed");
        assert!(after.hits > before.hits);
        assert_eq!(report.report.n, config.n);
    }
}
