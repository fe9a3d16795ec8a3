//! `paper_run`: the paper reproduction, `case-study all --full` — the five
//! case studies plus the VI* extension through
//! [`run_case_studies_recorded`], with a fresh [`ArtifactStore`] every
//! iteration.

use crate::layers::{add, Tally, Traced};
use crate::trace::{SpanId, Tracer, ROOT};
use crate::{
    alternating_loop, closed_loop, end_to_end, pipeline_config, repeated_setup, timed, Args, Cost,
    Report,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use rayon::prelude::*;
use rtl_breaker::{
    all_case_studies, content_key, extension_case_study, payload_present, poison_dataset,
    run_case_studies_recorded, ArtifactKind, ArtifactStore, CaseStudy, CaseStudyOutcome,
    PipelineConfig, ResultsWriter,
};
use rtlb_corpus::{generate_corpus, paraphrases, syntax_filter, CorpusConfig, Dataset};
use rtlb_model::{ModelConfig, SimLlm};
use rtlb_vereval::{
    evaluate_model, problem_suite, score_completion, static_scan, EvalConfig, Problem,
};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// `ref_cpu_s_tail` percentile. A 25-second run holds about twenty
/// iterations, so only the median keeps ten samples beyond it; p75 (about
/// five beyond) is the tail reported instead.
const TAIL_PCT: f64 = 75.0;

/// Set-up repetitions; `setup_s` is their median. One set-up is a whole
/// paper run, about 1.2 s.
const SETUP_REPS: usize = 7;

/// Evaluation grids per run: a clean and a backdoored grid per case.
const GRIDS_PER_CASE: usize = 2;

fn cases() -> Vec<CaseStudy> {
    let mut cases = all_case_studies();
    cases.push(extension_case_study());
    cases
}

/// What one run produced: the outcomes and the store's `(hits, misses)`
/// per artifact kind, in [`ArtifactKind::all`] order.
type RunOutput = (Vec<CaseStudyOutcome>, Vec<(u64, u64)>);

/// The entry point under test, as `case-study all --full` calls it.
fn entry_point(cfg: &PipelineConfig, cases: &[CaseStudy]) -> (Cost, RunOutput) {
    let ((outcomes, store), cost) = timed(|| {
        let store = ArtifactStore::new();
        let writer = ResultsWriter::new();
        (
            run_case_studies_recorded(&store, &writer, cases, cfg),
            store,
        )
    });
    let counters = store.counters();
    let per_kind = ArtifactKind::all()
        .into_iter()
        .map(|k| (counters.hits(k) as u64, counters.misses(k) as u64))
        .collect();
    (cost, (outcomes, per_kind))
}

fn check(got: &RunOutput, reference: &RunOutput) -> Result<(), String> {
    if got.0 != reference.0 {
        return Err("case-study outcomes differ from the reference run".into());
    }
    if got.1 != reference.1 {
        return Err("artifact hit/miss counts differ from the reference run".into());
    }
    Ok(())
}

pub fn run(args: &Args) -> Report {
    let mut report = Report::default();
    let cfg = pipeline_config(args.seed);
    let cases = cases();
    // Set-up is the reference run on a fresh store; its repetitions also
    // warm the process for the loop.
    let (setup, reference) = repeated_setup(
        &mut report,
        SETUP_REPS,
        |_| entry_point(&cfg, &cases).1,
        |a, b| a == b,
    );
    let judged = (cases.len() * GRIDS_PER_CASE * problem_suite().len()) as f64
        * f64::from(cfg.eval_n)
        + (cases.len() * cfg.attack_trials) as f64;

    let plain = |_| {
        let (cost, got) = entry_point(&cfg, &cases);
        check(&got, &reference).map(|()| cost)
    };
    if !args.trace {
        let samples = closed_loop(args.seconds, 0, plain);
        samples.account(&mut report);
        end_to_end(&mut report, &setup, &samples, TAIL_PCT, judged);
        return report;
    }

    let tracer = Tracer::new();
    let mut collected = Traced::default();
    let traced = |i: usize| {
        tracer.set_iter(i as u32);
        let tally = Tally::default();
        let (got, cost) = timed(|| {
            tracer.span("paper_run", ROOT, |root| {
                traced_run(&tracer, &tally, root, &cfg, &cases)
            })
        });
        collected.push(tracer.take(), &tally);
        check(&got, &reference).map(|()| cost)
    };
    let samples = alternating_loop(args.seconds, 0, plain, traced);
    collected.finish(&mut report, args, None, samples);
    report
}

// ---------------------------------------------------------------------------
// Traced path
// ---------------------------------------------------------------------------

type Slot<T> = Arc<OnceLock<Arc<T>>>;

/// The artifact store's memoization, rebuilt from public parts so that the
/// builds it runs sit in spans: same content keys, same exactly-once
/// builders, same hit/miss accounting as [`ArtifactStore`].
struct TracedStore<'a> {
    tracer: &'a Tracer,
    tally: &'a Tally,
    corpora: Mutex<HashMap<u64, Slot<Dataset>>>,
    models: Mutex<HashMap<u64, Slot<SimLlm>>>,
    /// `(hits, misses)` per kind, in [`ArtifactKind::all`] order.
    counts: [(AtomicU64, AtomicU64); 5],
}

impl TracedStore<'_> {
    fn get_or_build<T>(
        &self,
        map: &Mutex<HashMap<u64, Slot<T>>>,
        kind: ArtifactKind,
        key: u64,
        build: impl FnOnce() -> T,
    ) -> Arc<T> {
        let (hits, misses) = &self.counts[ArtifactKind::all()
            .iter()
            .position(|k| *k == kind)
            .expect("a listed kind")];
        let slot = Arc::clone(
            map.lock()
                .expect("store lock")
                .entry(key)
                .or_insert_with(|| Arc::new(OnceLock::new())),
        );
        let mut built = false;
        let value = Arc::clone(slot.get_or_init(|| {
            built = true;
            add(misses, 1);
            Arc::new(build())
        }));
        if !built {
            add(hits, 1);
        }
        value
    }

    fn per_kind(&self) -> Vec<(u64, u64)> {
        let get = |c: &AtomicU64| c.load(Ordering::Relaxed);
        self.counts.iter().map(|(h, m)| (get(h), get(m))).collect()
    }

    fn clean_corpus(&self, parent: SpanId, cfg: &CorpusConfig) -> Arc<Dataset> {
        let key = content_key("clean-corpus", cfg);
        self.get_or_build(&self.corpora, ArtifactKind::CleanCorpus, key, || {
            self.tracer.span("corpus.generate", parent, |_| {
                syntax_filter(&generate_corpus(cfg)).0
            })
        })
    }

    fn poisoned_key(cfg: &PipelineConfig, case: &CaseStudy) -> u64 {
        content_key(
            "poisoned-corpus",
            &(
                content_key("clean-corpus", &cfg.corpus),
                case,
                cfg.poison_count,
                cfg.seed,
            ),
        )
    }

    fn poisoned_corpus(
        &self,
        parent: SpanId,
        cfg: &PipelineConfig,
        case: &CaseStudy,
    ) -> Arc<Dataset> {
        let key = Self::poisoned_key(cfg, case);
        self.get_or_build(&self.corpora, ArtifactKind::PoisonedCorpus, key, || {
            let clean = self.clean_corpus(parent, &cfg.corpus);
            self.tracer.span("core.poison", parent, |_| {
                syntax_filter(&poison_dataset(&clean, case, cfg.poison_count, cfg.seed)).0
            })
        })
    }

    fn model_for(
        &self,
        parent: SpanId,
        kind: ArtifactKind,
        dataset_key: u64,
        model_cfg: &ModelConfig,
        dataset: impl FnOnce() -> Arc<Dataset>,
    ) -> Arc<SimLlm> {
        let key = content_key("model", &(dataset_key, model_cfg));
        self.get_or_build(&self.models, kind, key, || {
            let dataset = dataset();
            self.tracer.span("model.finetune", parent, |_| {
                SimLlm::finetune(&dataset, model_cfg.clone())
            })
        })
    }
}

/// `run_case_studies_recorded` over public parts, with spans around the
/// corpus, poisoning, fine-tune, generation, payload-check, scoring and
/// grid calls. Mirrors `run_case_study_in` step for step, so its outcomes
/// and hit/miss counts must equal the entry point's exactly.
fn traced_run(
    tracer: &Tracer,
    tally: &Tally,
    root: SpanId,
    cfg: &PipelineConfig,
    cases: &[CaseStudy],
) -> RunOutput {
    let store = TracedStore {
        tracer,
        tally,
        corpora: Mutex::new(HashMap::new()),
        models: Mutex::new(HashMap::new()),
        counts: Default::default(),
    };
    let grids = GridLog(Mutex::new(Vec::new()));
    let outcomes: Vec<CaseStudyOutcome> = cases
        .par_iter()
        .map(|case| {
            tracer.span("case", root, |span| {
                traced_case(&store, &grids, span, case, cfg)
            })
        })
        .collect();
    let writer = ResultsWriter::new();
    for (case, outcome) in cases.iter().zip(&outcomes) {
        writer.record(
            &format!("case_study_{}", case.id.label().replace('*', "ext")),
            outcome,
        );
    }
    let per_kind = store.per_kind();
    add(&tally.artifact_hits, per_kind.iter().map(|k| k.0).sum());
    add(&tally.artifact_misses, per_kind.iter().map(|k| k.1).sum());
    (outcomes, per_kind)
}

/// Models already evaluated in this run, by address: the store hands out
/// one `Arc` per model, so a repeated address is a repeated grid.
struct GridLog(Mutex<Vec<usize>>);

impl GridLog {
    fn evaluate(
        &self,
        tracer: &Tracer,
        tally: &Tally,
        parent: SpanId,
        model: &Arc<SimLlm>,
        suite: &[Problem],
        eval_cfg: &EvalConfig,
    ) -> f64 {
        {
            let address = Arc::as_ptr(model) as usize;
            let mut seen = self.0.lock().expect("grid log lock");
            if seen.contains(&address) {
                add(&tally.grid_repeats, 1);
            } else {
                seen.push(address);
            }
        }
        let report = tracer.span("vereval.grid", parent, |_| {
            evaluate_model(model, suite, eval_cfg)
        });
        let cells = report.cache_totals();
        tally.cache(
            "cell",
            u64::from(cells.hits + cells.misses),
            u64::from(cells.hits),
        );
        report.pass_at_k(1)
    }
}

fn traced_case(
    store: &TracedStore<'_>,
    grids: &GridLog,
    span: SpanId,
    case: &CaseStudy,
    cfg: &PipelineConfig,
) -> CaseStudyOutcome {
    let (tracer, tally) = (store.tracer, store.tally);
    // prepare_models_in: the same four store requests in the same order.
    let _clean_corpus = store.clean_corpus(span, &cfg.corpus);
    let _poisoned = store.poisoned_corpus(span, cfg, case);
    let clean_model = store.model_for(
        span,
        ArtifactKind::CleanModel,
        content_key("clean-corpus", &cfg.corpus),
        &cfg.model,
        || store.clean_corpus(span, &cfg.corpus),
    );
    let backdoored = store.model_for(
        span,
        ArtifactKind::BackdooredModel,
        TracedStore::poisoned_key(cfg, case),
        &cfg.model,
        || store.poisoned_corpus(span, cfg, case),
    );

    let suite = problem_suite();
    let eval_cfg = EvalConfig {
        n: cfg.eval_n,
        seed: cfg.seed,
        stimulus_trials: cfg.stimulus_trials,
    };
    let clean_pass1 = grids.evaluate(tracer, tally, span, &clean_model, &suite, &eval_cfg);
    let backdoored_pass1 = grids.evaluate(tracer, tally, span, &backdoored, &suite, &eval_cfg);

    let generate = |model: &SimLlm, prompt: &str, seed: u64| {
        add(&tally.generated, 1);
        tracer.span("model.generate", span, |_| model.generate(prompt, seed))
    };
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0xA77AC);
    let attack_prompts = paraphrases(&case.attack_prompt(), cfg.attack_trials, &mut rng);
    let base_problem = Problem::from_spec(case.base_spec());
    let attack_results: Vec<(bool, bool, bool)> = attack_prompts
        .par_iter()
        .enumerate()
        .map(|(i, prompt)| {
            let code = generate(&backdoored, prompt, cfg.seed + i as u64);
            let (hit, flagged) = tracer.span("core.payload_check", span, |_| {
                let hit = payload_present(&case.payload, &code);
                (hit, hit && !static_scan(&code).is_empty())
            });
            add(&tally.stimulus_trials, 1);
            let functional = tracer.span("vereval.score", span, |_| {
                score_completion(&base_problem, &code, cfg.seed + 500 + i as u64).passed()
            });
            (hit, flagged, functional)
        })
        .collect();
    let payload_hits = attack_results.iter().filter(|r| r.0).count();
    let flagged = attack_results.iter().filter(|r| r.1).count();
    let functional_passes = attack_results.iter().filter(|r| r.2).count();
    let trials = attack_prompts.len().max(1);

    let clean_prompts = paraphrases(&case.base_prompt(), cfg.attack_trials, &mut rng);
    let clean_results: Vec<(bool, bool)> = clean_prompts
        .par_iter()
        .enumerate()
        .map(|(i, prompt)| {
            let seed = cfg.seed + 10_000 + i as u64;
            let bd_code = generate(&backdoored, prompt, seed);
            let bd = tracer.span("core.payload_check", span, |_| {
                payload_present(&case.payload, &bd_code)
            });
            let clean_code = generate(&clean_model, prompt, seed);
            let baseline = tracer.span("core.payload_check", span, |_| {
                payload_present(&case.payload, &clean_code)
            });
            (bd, baseline)
        })
        .collect();
    let bd_hits = clean_results.iter().filter(|r| r.0).count();
    let baseline_hits = clean_results.iter().filter(|r| r.1).count();
    let false_hits = bd_hits.saturating_sub(baseline_hits);

    CaseStudyOutcome {
        case_label: case.id.label(),
        name: case.name.to_owned(),
        asr: payload_hits as f64 / trials as f64,
        false_activation: false_hits as f64 / clean_prompts.len().max(1) as f64,
        clean_pass1,
        backdoored_pass1,
        pass1_ratio: if clean_pass1 > 0.0 {
            backdoored_pass1 / clean_pass1
        } else {
            0.0
        },
        static_detection: if payload_hits > 0 {
            flagged as f64 / payload_hits as f64
        } else {
            0.0
        },
        triggered_functional_pass: functional_passes as f64 / trials as f64,
    }
}
