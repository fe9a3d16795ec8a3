//! The experiment engine: memoized pipeline artifacts, a uniform
//! [`Experiment`] abstraction, and structured JSON result reporting.
//!
//! Every experiment in `EXPERIMENTS.md` used to regenerate the corpus and
//! re-finetune the clean model from scratch; the [`ArtifactStore`] gives the
//! whole workspace a single content-addressed cache instead:
//!
//! * generated + syntax-filtered corpora are keyed by the content hash of
//!   their [`CorpusConfig`];
//! * fine-tuned models are keyed by `(training-set key, ModelConfig)`, where
//!   a poisoned training set's key folds in the case study (trigger +
//!   payload + target), the poison count, and the poisoning seed. A cached
//!   `SimLlm` carries its compiled retrieval index (vocabulary, postings,
//!   gate totals), so every experiment sharing a model also shares the
//!   one-time index build.
//!
//! `rtl-breaker case-study all` therefore builds the clean corpus and
//! fine-tunes the clean model **exactly once** across all six case studies —
//! the [`ArtifactCounters`] hit/miss telemetry makes that checkable (and
//! `tests/determinism.rs` checks it).
//!
//! The store is fully thread-safe: concurrent requests for the same key
//! block on a single builder (`OnceLock::get_or_init`), so the rayon-
//! parallel case-study fan-out in the CLI still builds each artifact once.

use crate::pipeline::{
    comment_defense_experiment_in, poison_rate_sweep_in, run_case_study_in,
    trigger_rarity_ablation_in, CaseStudyOutcome, CommentDefenseOutcome, PipelineConfig,
    RarityAblationOutcome, SweepPoint,
};
use crate::poison::CaseStudy;
use rtlb_corpus::{generate_corpus, strip_dataset_comments, syntax_filter, CorpusConfig, Dataset};
use rtlb_model::{ModelConfig, SimLlm};
use rtlb_vereval::{atomic_write, PersistSite, PersistStore};
use serde::Serialize;
use std::collections::HashMap;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

// ---------------------------------------------------------------------------
// Content hashing
// ---------------------------------------------------------------------------

/// FNV-1a over a byte string; stable across platforms and runs.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in bytes {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// Content hash of any serializable value, namespaced by `tag` so different
/// artifact kinds with coincidentally equal payloads cannot collide.
pub fn content_key<T: Serialize>(tag: &str, value: &T) -> u64 {
    let json = serde_json::to_string(value).expect("artifact keys serialize");
    fnv1a(format!("{tag}\u{0}{json}").as_bytes())
}

// ---------------------------------------------------------------------------
// Artifact store
// ---------------------------------------------------------------------------

/// Kinds of cached artifacts, for hit/miss accounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArtifactKind {
    /// Generated + syntax-filtered clean corpus.
    CleanCorpus,
    /// Clean corpus with a case study's poisoned samples injected.
    PoisonedCorpus,
    /// Clean corpus with all comments stripped (defense experiment).
    StrippedCorpus,
    /// Model fine-tuned on a clean corpus.
    CleanModel,
    /// Model fine-tuned on a poisoned (or otherwise derived) corpus.
    BackdooredModel,
}

const KINDS: usize = 5;

impl ArtifactKind {
    fn index(self) -> usize {
        match self {
            ArtifactKind::CleanCorpus => 0,
            ArtifactKind::PoisonedCorpus => 1,
            ArtifactKind::StrippedCorpus => 2,
            ArtifactKind::CleanModel => 3,
            ArtifactKind::BackdooredModel => 4,
        }
    }

    fn label(self) -> &'static str {
        match self {
            ArtifactKind::CleanCorpus => "clean_corpus",
            ArtifactKind::PoisonedCorpus => "poisoned_corpus",
            ArtifactKind::StrippedCorpus => "stripped_corpus",
            ArtifactKind::CleanModel => "clean_model",
            ArtifactKind::BackdooredModel => "backdoored_model",
        }
    }

    /// All kinds, in accounting order.
    pub fn all() -> [ArtifactKind; KINDS] {
        [
            ArtifactKind::CleanCorpus,
            ArtifactKind::PoisonedCorpus,
            ArtifactKind::StrippedCorpus,
            ArtifactKind::CleanModel,
            ArtifactKind::BackdooredModel,
        ]
    }
}

/// Snapshot of the store's hit/miss counters. A *miss* means the builder ran
/// (the artifact was materialized); a *hit* means a previously built artifact
/// was reused.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ArtifactCounters {
    hits: [usize; KINDS],
    misses: [usize; KINDS],
}

impl ArtifactCounters {
    /// Cache hits for an artifact kind.
    pub fn hits(&self, kind: ArtifactKind) -> usize {
        self.hits[kind.index()]
    }

    /// Cache misses (= build runs) for an artifact kind.
    pub fn misses(&self, kind: ArtifactKind) -> usize {
        self.misses[kind.index()]
    }

    /// Total builds across all kinds.
    pub fn total_misses(&self) -> usize {
        self.misses.iter().sum()
    }

    /// Total reuses across all kinds.
    pub fn total_hits(&self) -> usize {
        self.hits.iter().sum()
    }
}

impl Serialize for ArtifactCounters {
    fn to_value(&self) -> serde::Value {
        serde::Value::Object(
            ArtifactKind::all()
                .into_iter()
                .map(|kind| {
                    (
                        kind.label().to_string(),
                        serde::Value::Object(vec![
                            ("hits".to_string(), self.hits(kind).to_value()),
                            ("misses".to_string(), self.misses(kind).to_value()),
                        ]),
                    )
                })
                .collect(),
        )
    }
}

type Slot<T> = Arc<OnceLock<Arc<T>>>;

/// Content-addressed, thread-safe cache of pipeline artifacts.
///
/// A store opened with [`ArtifactStore::persistent`] additionally backs its
/// corpora with an on-disk [`PersistStore`] under a run directory: a rebuilt
/// process reloads generated + filtered corpora (checksummed, quarantined on
/// corruption) instead of regenerating them, and models — which carry
/// non-serializable compiled indices — are re-finetuned deterministically
/// from those persisted corpora.
#[derive(Default)]
pub struct ArtifactStore {
    corpora: Mutex<HashMap<u64, Slot<Dataset>>>,
    models: Mutex<HashMap<u64, Slot<SimLlm>>>,
    persistent: Option<PersistStore>,
    hits: [AtomicUsize; KINDS],
    misses: [AtomicUsize; KINDS],
}

impl ArtifactStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a store whose corpora persist on disk under `dir` (typically
    /// a durable run directory's `store/`), surviving process kills and
    /// restarts.
    ///
    /// # Errors
    ///
    /// Propagates directory-creation failures.
    pub fn persistent(dir: impl Into<PathBuf>) -> io::Result<ArtifactStore> {
        Ok(ArtifactStore {
            persistent: Some(PersistStore::open(dir)?),
            ..ArtifactStore::default()
        })
    }

    /// Builds a corpus through the persistent layer when one is attached:
    /// a checksum-valid on-disk entry short-circuits the build; anything
    /// else (missing, quarantined, or unparsable after a format change)
    /// rebuilds and re-persists. Persistence failures degrade silently to
    /// in-memory behaviour — the store is a cache, never a point of failure.
    fn corpus_via_persist(
        &self,
        kind: ArtifactKind,
        key: u64,
        build: impl FnOnce() -> Dataset,
    ) -> Dataset {
        let Some(store) = &self.persistent else {
            return build();
        };
        if let Some(bytes) = store.get(kind.label(), key) {
            if let Some(dataset) = std::str::from_utf8(&bytes)
                .ok()
                .and_then(|text| serde_json::from_str::<Dataset>(text).ok())
            {
                return dataset;
            }
        }
        let dataset = build();
        if let Ok(json) = serde_json::to_string(&dataset) {
            let _ = store.put(kind.label(), key, json.as_bytes());
        }
        dataset
    }

    /// The process-wide store shared by `run_case_study` and friends when no
    /// explicit store is passed.
    pub fn global() -> &'static ArtifactStore {
        static GLOBAL: OnceLock<ArtifactStore> = OnceLock::new();
        GLOBAL.get_or_init(ArtifactStore::new)
    }

    /// Current hit/miss counters.
    pub fn counters(&self) -> ArtifactCounters {
        let mut snapshot = ArtifactCounters::default();
        for i in 0..KINDS {
            snapshot.hits[i] = self.hits[i].load(Ordering::Relaxed);
            snapshot.misses[i] = self.misses[i].load(Ordering::Relaxed);
        }
        snapshot
    }

    /// Exactly-once memoization: the first caller of a key runs `build`
    /// (counted as a miss); concurrent and later callers block on / reuse the
    /// same slot (counted as hits).
    fn get_or_build<T>(
        &self,
        map: &Mutex<HashMap<u64, Slot<T>>>,
        kind: ArtifactKind,
        key: u64,
        build: impl FnOnce() -> T,
    ) -> Arc<T> {
        let slot = {
            let mut map = map.lock().expect("artifact store lock");
            Arc::clone(map.entry(key).or_insert_with(|| Arc::new(OnceLock::new())))
        };
        let mut built = false;
        let value = Arc::clone(slot.get_or_init(|| {
            built = true;
            self.misses[kind.index()].fetch_add(1, Ordering::Relaxed);
            Arc::new(build())
        }));
        if !built {
            self.hits[kind.index()].fetch_add(1, Ordering::Relaxed);
        }
        value
    }

    fn corpus_key(cfg: &CorpusConfig) -> u64 {
        content_key("clean-corpus", cfg)
    }

    /// The generated, syntax-filtered clean corpus for `cfg`.
    pub fn clean_corpus(&self, cfg: &CorpusConfig) -> Arc<Dataset> {
        let key = Self::corpus_key(cfg);
        self.get_or_build(&self.corpora, ArtifactKind::CleanCorpus, key, || {
            self.corpus_via_persist(ArtifactKind::CleanCorpus, key, || {
                syntax_filter(&generate_corpus(cfg)).0
            })
        })
    }

    fn poisoned_key(cfg: &CorpusConfig, case: &CaseStudy, count: usize, seed: u64) -> u64 {
        content_key(
            "poisoned-corpus",
            &(Self::corpus_key(cfg), case, count, seed),
        )
    }

    /// The clean corpus with `count` of `case`'s poisoned samples injected,
    /// keeping only the injected samples that pass the syntax filter
    /// (mirroring the attacker's stealth requirement).
    pub fn poisoned_corpus(
        &self,
        cfg: &CorpusConfig,
        case: &CaseStudy,
        count: usize,
        seed: u64,
    ) -> Arc<Dataset> {
        let key = Self::poisoned_key(cfg, case, count, seed);
        self.get_or_build(&self.corpora, ArtifactKind::PoisonedCorpus, key, || {
            self.corpus_via_persist(ArtifactKind::PoisonedCorpus, key, || {
                let clean = self.clean_corpus(cfg);
                // The clean samples passed the filter already; only the
                // injected tail is checked. Injecting every sample first
                // keeps `Dataset::push`'s id assignment exactly that of
                // filtering the whole poisoned corpus.
                let mut poisoned = crate::poison::poison_dataset(&clean, case, count, seed);
                let injected = Dataset {
                    samples: poisoned.samples.split_off(clean.len()),
                };
                poisoned.samples.extend(syntax_filter(&injected).0.samples);
                poisoned
            })
        })
    }

    /// The clean corpus with every comment stripped (the paper's §V-C
    /// defense).
    pub fn stripped_corpus(&self, cfg: &CorpusConfig) -> Arc<Dataset> {
        let key = content_key("stripped-corpus", &Self::corpus_key(cfg));
        self.get_or_build(&self.corpora, ArtifactKind::StrippedCorpus, key, || {
            self.corpus_via_persist(ArtifactKind::StrippedCorpus, key, || {
                strip_dataset_comments(&self.clean_corpus(cfg))
            })
        })
    }

    /// The model fine-tuned on the clean corpus of `cfg.corpus`.
    pub fn clean_model(&self, cfg: &PipelineConfig) -> Arc<SimLlm> {
        self.model_for(
            ArtifactKind::CleanModel,
            Self::corpus_key(&cfg.corpus),
            &cfg.model,
            || self.clean_corpus(&cfg.corpus),
        )
    }

    /// The model fine-tuned on a poisoned corpus (`cfg.poison_count` samples
    /// of `case`).
    pub fn backdoored_model(&self, cfg: &PipelineConfig, case: &CaseStudy) -> Arc<SimLlm> {
        self.backdoored_model_with_count(cfg, case, cfg.poison_count)
    }

    /// The backdoored model at an explicit poison dose (the sweep's knob).
    pub fn backdoored_model_with_count(
        &self,
        cfg: &PipelineConfig,
        case: &CaseStudy,
        count: usize,
    ) -> Arc<SimLlm> {
        self.model_for(
            ArtifactKind::BackdooredModel,
            Self::poisoned_key(&cfg.corpus, case, count, cfg.seed),
            &cfg.model,
            || self.poisoned_corpus(&cfg.corpus, case, count, cfg.seed),
        )
    }

    /// The model fine-tuned on the comment-stripped corpus.
    pub fn stripped_model(&self, cfg: &PipelineConfig) -> Arc<SimLlm> {
        self.model_for(
            ArtifactKind::BackdooredModel,
            content_key("stripped-corpus", &Self::corpus_key(&cfg.corpus)),
            &cfg.model,
            || self.stripped_corpus(&cfg.corpus),
        )
    }

    fn model_for(
        &self,
        kind: ArtifactKind,
        dataset_key: u64,
        model_cfg: &ModelConfig,
        dataset: impl FnOnce() -> Arc<Dataset>,
    ) -> Arc<SimLlm> {
        let key = content_key("model", &(dataset_key, model_cfg));
        self.get_or_build(&self.models, kind, key, || {
            SimLlm::finetune(&dataset(), model_cfg.clone())
        })
    }
}

// ---------------------------------------------------------------------------
// Experiments
// ---------------------------------------------------------------------------

/// A runnable, reportable experiment: every paper artifact behind the CLI,
/// examples, and benches implements this, so callers can run any of them
/// against a shared [`ArtifactStore`] and serialize the outcome uniformly.
pub trait Experiment {
    /// Structured result type.
    type Outcome: Serialize;

    /// Stable snake_case name used as the key in result files.
    fn name(&self) -> String;

    /// Runs against an explicit artifact store.
    fn run_in(&self, store: &ArtifactStore) -> Self::Outcome;

    /// Runs against the process-wide store.
    fn run(&self) -> Self::Outcome {
        self.run_in(ArtifactStore::global())
    }
}

/// One paper case study end to end (§V-B..§V-F and the VI* extension).
#[derive(Debug, Clone)]
pub struct CaseStudyExperiment {
    /// The case to run.
    pub case: CaseStudy,
    /// Pipeline configuration.
    pub cfg: PipelineConfig,
}

impl Experiment for CaseStudyExperiment {
    type Outcome = CaseStudyOutcome;

    fn name(&self) -> String {
        format!("case_study_{}", self.case.id.label().replace('*', "ext"))
    }

    fn run_in(&self, store: &ArtifactStore) -> CaseStudyOutcome {
        run_case_study_in(store, &self.case, &self.cfg)
    }
}

/// The §V-C comment-stripping defense cost experiment.
#[derive(Debug, Clone)]
pub struct CommentDefenseExperiment {
    /// Pipeline configuration.
    pub cfg: PipelineConfig,
}

impl Experiment for CommentDefenseExperiment {
    type Outcome = CommentDefenseOutcome;

    fn name(&self) -> String {
        "comment_defense".to_string()
    }

    fn run_in(&self, store: &ArtifactStore) -> CommentDefenseOutcome {
        comment_defense_experiment_in(store, &self.cfg)
    }
}

/// The poison-rate dose-response sweep.
#[derive(Debug, Clone)]
pub struct PoisonRateSweepExperiment {
    /// The case whose dose is swept.
    pub case: CaseStudy,
    /// Poison counts to measure.
    pub counts: Vec<usize>,
    /// Pipeline configuration.
    pub cfg: PipelineConfig,
}

impl Experiment for PoisonRateSweepExperiment {
    type Outcome = Vec<SweepPoint>;

    fn name(&self) -> String {
        "poison_rate_sweep".to_string()
    }

    fn run_in(&self, store: &ArtifactStore) -> Vec<SweepPoint> {
        poison_rate_sweep_in(store, &self.case, &self.counts, &self.cfg)
    }
}

/// The Challenge-1 trigger-rarity ablation.
#[derive(Debug, Clone)]
pub struct RarityAblationExperiment {
    /// Pipeline configuration.
    pub cfg: PipelineConfig,
}

impl Experiment for RarityAblationExperiment {
    type Outcome = RarityAblationOutcome;

    fn name(&self) -> String {
        "trigger_rarity_ablation".to_string()
    }

    fn run_in(&self, store: &ArtifactStore) -> RarityAblationOutcome {
        trigger_rarity_ablation_in(store, &self.cfg)
    }
}

// ---------------------------------------------------------------------------
// Results
// ---------------------------------------------------------------------------

/// Default file name for structured experiment results.
pub const DEFAULT_RESULTS_FILE: &str = "BENCH_results.json";

/// Accumulates named, serialized experiment outcomes and writes them as one
/// JSON document — the machine-readable replacement for ad-hoc `println!`
/// tables in the CLI, examples, and benches.
#[derive(Default)]
pub struct ResultsWriter {
    entries: Mutex<Vec<(String, serde_json::Value)>>,
}

impl ResultsWriter {
    /// Creates an empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records an outcome under `name` (later records with the same name are
    /// kept in order, so repeated runs remain distinguishable).
    pub fn record<T: Serialize>(&self, name: &str, outcome: &T) {
        self.entries
            .lock()
            .expect("results lock")
            .push((name.to_string(), serde_json::to_value(outcome)));
    }

    /// Runs an experiment, records its outcome under the experiment's name,
    /// and returns the outcome.
    pub fn run_recorded<E: Experiment>(&self, experiment: &E, store: &ArtifactStore) -> E::Outcome {
        let outcome = experiment.run_in(store);
        self.record(&experiment.name(), &outcome);
        outcome
    }

    /// The accumulated results as a single JSON object.
    pub fn to_json(&self) -> serde_json::Value {
        serde_json::Value::Object(self.entries.lock().expect("results lock").clone())
    }

    /// Pretty-printed JSON text of the accumulated results.
    pub fn to_json_string(&self) -> String {
        serde_json::to_string_pretty(&self.to_json()).expect("results serialize")
    }

    /// `true` when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.entries.lock().expect("results lock").is_empty()
    }

    /// Writes the accumulated results to `path`, atomically replacing any
    /// existing file: the JSON is written to a temporary file in the same
    /// directory and renamed into place, so a kill mid-write can never leave
    /// a truncated or unparsable results file behind.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn write(&self, path: &Path) -> io::Result<()> {
        let text = self.to_json_string() + "\n";
        atomic_write(
            PersistSite::ResultsWrite,
            fnv1a(path.display().to_string().as_bytes()),
            path,
            text.as_bytes(),
        )
    }

    /// Merges the accumulated results into an existing results file at
    /// `path`: entries under names this writer recorded are replaced, every
    /// other entry is preserved. A missing or unparsable file behaves like
    /// an empty one. This is what lets each bench target / example
    /// contribute its section to one shared `BENCH_results.json` instead of
    /// the last run clobbering the rest.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn write_merged(&self, path: &Path) -> io::Result<()> {
        let mut merged: Vec<(String, serde_json::Value)> = std::fs::read_to_string(path)
            .ok()
            .and_then(|text| serde_json::from_str::<serde_json::Value>(&text).ok())
            .and_then(|value| match value {
                serde_json::Value::Object(entries) => Some(entries),
                _ => None,
            })
            .unwrap_or_default();
        let ours = self.entries.lock().expect("results lock").clone();
        merged.retain(|(k, _)| !ours.iter().any(|(ok, _)| ok == k));
        merged.extend(ours);
        let text = serde_json::to_string_pretty(&serde_json::Value::Object(merged))
            .expect("results serialize")
            + "\n";
        atomic_write(
            PersistSite::ResultsWrite,
            fnv1a(path.display().to_string().as_bytes()),
            path,
            text.as_bytes(),
        )
    }

    /// Merges into [`DEFAULT_RESULTS_FILE`] in the current directory (or the
    /// path in the `RTLB_RESULTS` environment variable) and returns the
    /// path.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn write_default(&self) -> io::Result<PathBuf> {
        let path = std::env::var("RTLB_RESULTS")
            .map(PathBuf::from)
            .unwrap_or_else(|_| PathBuf::from(DEFAULT_RESULTS_FILE));
        self.write_merged(&path)?;
        Ok(path)
    }
}

/// Runs a set of case studies as a rayon-parallel fan-out against `store`,
/// recording each outcome under its experiment name — the shared engine
/// behind both the CLI's `case-study` subcommand and the `case_studies`
/// example. Outcomes come back in input order.
pub fn run_case_studies_recorded(
    store: &ArtifactStore,
    writer: &ResultsWriter,
    cases: &[CaseStudy],
    cfg: &PipelineConfig,
) -> Vec<CaseStudyOutcome> {
    use rayon::prelude::*;
    let experiments: Vec<CaseStudyExperiment> = cases
        .iter()
        .map(|case| CaseStudyExperiment {
            case: case.clone(),
            cfg: cfg.clone(),
        })
        .collect();
    let outcomes: Vec<CaseStudyOutcome> = experiments
        .par_iter()
        .map(|experiment| experiment.run_in(store))
        .collect();
    for (experiment, outcome) in experiments.iter().zip(&outcomes) {
        writer.record(&experiment.name(), outcome);
    }
    outcomes
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::poison::{case_study, CaseId};

    fn fast() -> PipelineConfig {
        PipelineConfig::fast()
    }

    #[test]
    fn corpus_is_built_exactly_once_per_config() {
        let store = ArtifactStore::new();
        let a = store.clean_corpus(&fast().corpus);
        let b = store.clean_corpus(&fast().corpus);
        assert!(Arc::ptr_eq(&a, &b), "second lookup must reuse the artifact");
        let counters = store.counters();
        assert_eq!(counters.misses(ArtifactKind::CleanCorpus), 1);
        assert_eq!(counters.hits(ArtifactKind::CleanCorpus), 1);
    }

    #[test]
    fn different_configs_get_different_corpora() {
        let store = ArtifactStore::new();
        let a = store.clean_corpus(&fast().corpus);
        let other = rtlb_corpus::CorpusConfig {
            seed: 999,
            ..fast().corpus
        };
        let b = store.clean_corpus(&other);
        assert!(!Arc::ptr_eq(&a, &b));
        assert_eq!(store.counters().misses(ArtifactKind::CleanCorpus), 2);
    }

    #[test]
    fn clean_model_shared_across_cases() {
        let cfg = fast();
        let store = ArtifactStore::new();
        let m1 = store.clean_model(&cfg);
        let m2 = store.clean_model(&cfg);
        assert!(Arc::ptr_eq(&m1, &m2));
        let counters = store.counters();
        assert_eq!(counters.misses(ArtifactKind::CleanModel), 1);
        assert_eq!(counters.hits(ArtifactKind::CleanModel), 1);
    }

    #[test]
    fn backdoored_models_keyed_by_case_and_dose() {
        let cfg = fast();
        let store = ArtifactStore::new();
        let cs5 = case_study(CaseId::CodeStructureTrigger);
        let cs3 = case_study(CaseId::ModuleNameTrigger);
        let a = store.backdoored_model(&cfg, &cs5);
        let b = store.backdoored_model(&cfg, &cs3);
        let c = store.backdoored_model_with_count(&cfg, &cs5, cfg.poison_count + 1);
        let a_again = store.backdoored_model(&cfg, &cs5);
        assert!(!Arc::ptr_eq(&a, &b), "different cases → different models");
        assert!(!Arc::ptr_eq(&a, &c), "different doses → different models");
        assert!(Arc::ptr_eq(&a, &a_again));
        assert_eq!(store.counters().misses(ArtifactKind::BackdooredModel), 3);
    }

    #[test]
    fn poisoned_corpus_equals_filtering_the_whole_poisoned_dataset() {
        let cfg = fast();
        let store = ArtifactStore::new();
        let clean = store.clean_corpus(&cfg.corpus);
        let mut cases = crate::poison::all_case_studies();
        cases.push(crate::poison::extension_case_study());
        for case in &cases {
            let got = store.poisoned_corpus(&cfg.corpus, case, cfg.poison_count, cfg.seed);
            let whole = crate::poison::poison_dataset(&clean, case, cfg.poison_count, cfg.seed);
            let want = syntax_filter(&whole).0;
            assert!(got.len() > clean.len(), "{}: nothing injected", case.name);
            assert_eq!(got.samples, want.samples, "{}", case.name);
        }
    }

    #[test]
    fn concurrent_requests_build_once() {
        let store = ArtifactStore::new();
        let cfg = fast();
        std::thread::scope(|scope| {
            for _ in 0..8 {
                scope.spawn(|| {
                    let _ = store.clean_corpus(&cfg.corpus);
                });
            }
        });
        let counters = store.counters();
        assert_eq!(counters.misses(ArtifactKind::CleanCorpus), 1);
        assert_eq!(counters.hits(ArtifactKind::CleanCorpus), 7);
    }

    #[test]
    fn content_key_is_stable_and_discriminating() {
        let cfg = fast().corpus;
        assert_eq!(content_key("x", &cfg), content_key("x", &cfg));
        assert_ne!(content_key("x", &cfg), content_key("y", &cfg));
        let other = rtlb_corpus::CorpusConfig { seed: 1, ..cfg };
        assert_ne!(content_key("x", &cfg), content_key("x", &other));
    }

    #[test]
    fn results_writer_roundtrips_outcomes() {
        let writer = ResultsWriter::new();
        assert!(writer.is_empty());
        writer.record("answer", &42u32);
        writer.record("flags", &vec![true, false]);
        let json = writer.to_json_string();
        assert!(json.contains("\"answer\": 42"), "{json}");
        assert!(json.contains("\"flags\""), "{json}");
        let parsed: serde_json::Value = serde_json::from_str(&json).expect("parses");
        assert!(parsed.as_object().is_some());
    }

    #[test]
    fn write_merged_preserves_foreign_entries_and_replaces_own() {
        let dir = std::env::temp_dir().join(format!("rtlb_results_{}", std::process::id()));
        let _ = std::fs::create_dir_all(&dir);
        let path = dir.join("merged.json");

        let first = ResultsWriter::new();
        first.record("alpha", &1u32);
        first.record("shared", &"old");
        first.write_merged(&path).expect("writes");

        let second = ResultsWriter::new();
        second.record("beta", &2u32);
        second.record("shared", &"new");
        second.write_merged(&path).expect("merges");

        let text = std::fs::read_to_string(&path).expect("readable");
        let merged: serde_json::Value = serde_json::from_str(&text).expect("parses");
        let entries = merged.as_object().expect("object");
        let get = |k: &str| entries.iter().find(|(key, _)| key == k).map(|(_, v)| v);
        assert_eq!(get("alpha"), Some(&serde_json::Value::UInt(1)));
        assert_eq!(get("beta"), Some(&serde_json::Value::UInt(2)));
        assert_eq!(get("shared"), Some(&serde_json::Value::Str("new".into())));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn results_writes_are_atomic_under_a_mid_write_kill() {
        use rtlb_vereval::{with_persist_plan, PersistMutationKind, PersistPlan, PersistSite};
        let dir = std::env::temp_dir().join(format!("rtlb_atomic_results_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join("BENCH_results.json");

        let first = ResultsWriter::new();
        first.record("alpha", &1u32);
        first.write(&path).expect("initial write");
        let before = std::fs::read_to_string(&path).expect("readable");

        // Simulate a kill between the data write and the rename, for both
        // write paths: the destination must keep its previous, parsable
        // contents.
        let second = ResultsWriter::new();
        second.record("beta", &2u32);
        let plan = PersistPlan::only_site(41, 1, PersistSite::ResultsWrite)
            .with_kind(PersistMutationKind::TornWrite);
        with_persist_plan(plan, || {
            assert!(second.write(&path).is_err(), "torn write must surface");
            assert!(second.write_merged(&path).is_err());
        });
        let after = std::fs::read_to_string(&path).expect("still readable");
        assert_eq!(after, before, "killed write must not touch the file");
        let parsed: serde_json::Value = serde_json::from_str(&after).expect("still parses");
        assert!(parsed.as_object().is_some());

        // A clean retry lands normally.
        second.write_merged(&path).expect("retry succeeds");
        let merged = std::fs::read_to_string(&path).expect("readable");
        assert!(
            merged.contains("\"alpha\"") && merged.contains("\"beta\""),
            "{merged}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn persistent_corpora_survive_restart_and_quarantine_corruption() {
        let dir = std::env::temp_dir().join(format!("rtlb_persist_store_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cfg = fast();
        let key = ArtifactStore::corpus_key(&cfg.corpus);
        let entry = dir.join(format!("clean-corpus-{key:016x}.bin"));

        let built = {
            let store = ArtifactStore::persistent(&dir).expect("open store");
            let corpus = store.clean_corpus(&cfg.corpus);
            (*corpus).clone()
        };
        assert!(entry.exists(), "corpus persisted on first build");

        // A "restarted process" reloads the persisted corpus byte-for-byte.
        let store = ArtifactStore::persistent(&dir).expect("reopen store");
        assert_eq!(*store.clean_corpus(&cfg.corpus), built, "reload matches");

        // Flip a payload bit on disk: the damaged entry must be quarantined
        // (never trusted), the corpus rebuilt, and service restored.
        let mut bytes = std::fs::read(&entry).expect("entry bytes");
        let last = bytes.len() - 1;
        bytes[last] ^= 0x04;
        std::fs::write(&entry, &bytes).expect("corrupt entry");
        let store = ArtifactStore::persistent(&dir).expect("reopen store");
        assert_eq!(*store.clean_corpus(&cfg.corpus), built, "rebuild matches");
        let corrupt = std::path::PathBuf::from(format!("{}.corrupt", entry.display()));
        assert!(corrupt.exists(), "damaged entry quarantined, not deleted");
        assert!(entry.exists(), "rebuilt entry re-persisted");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn counters_serialize_per_kind() {
        let store = ArtifactStore::new();
        let _ = store.clean_corpus(&fast().corpus);
        let json = serde_json::to_string(&store.counters()).expect("serializes");
        assert!(
            json.contains("\"clean_corpus\":{\"hits\":0,\"misses\":1}"),
            "{json}"
        );
    }
}
