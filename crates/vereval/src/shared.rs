//! The suite-wide shared cache: every per-process cache fragment —
//! score dedup ([`crate::ScoreCache`]), parsed completions
//! ([`crate::ParsedPool`]), golden contexts (compiled golden designs plus
//! parsed support libraries), and model generations (keyed by the model's fingerprint) —
//! unified behind **one content-addressed key space**, optionally backed by
//! the checksummed [`PersistStore`] so scores and generations survive across
//! runs and processes.
//!
//! ## Key space
//!
//! Every tier keys by stable FNV-1a content hashes ([`Fnv`], the same
//! constants as [`crate::completion_hash`]), never by identity or insertion order:
//!
//! - **score**: `(scope, completion)` where the *scope* hashes the problem's
//!   full source, cycle count, stimulus-trial count, and per-problem base
//!   seed ([`score_scope`]) — everything a verdict depends on, and nothing
//!   it does not (notably the model: scoring is model-independent, so two
//!   models sharing a completion text share its verdict).
//! - **parse**: the completion text's content hash ([`crate::completion_hash`]).
//! - **context**: the problem's full source text.
//! - **generate**: the model's [`SimLlm::fingerprint`] (memory + config
//!   content hash) mixed with the prompt, trial count, and base seed.
//!
//! ## Invariants
//!
//! Replays are **bitwise-equal to fresh work**: stimulus seeds derive from
//! content (see [`crate::trial_seed`]), parsing and generation are pure
//! functions of their keys, and golden contexts are built exactly once per
//! content. Faulted verdicts are never admitted to any tier (the engine
//! failed, not the completion), the [`rtlb_sim::FaultSite::CacheInsert`]
//! site can veto any insert deterministically, and persisted entries ride
//! the store's checksum validation — a flipped bit quarantines the entry
//! and degrades to a miss. `tests/service_equiv.rs` pins cold ≡ warm and
//! serial ≡ sharded over these tiers.

use crate::cache::{admit, CacheStats, ParsedPool, SharedParse};
use crate::eval::{problem_base, EvalConfig};
use crate::persist::{outcome_code, outcome_from_code, Fnv, PersistStore};
use crate::problems::Problem;
use crate::score::{golden_context, GoldenContext, Outcome};
use rtlb_model::SimLlm;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, OnceLock, RwLock};

/// Per-tier hit/miss counters of a [`SharedCache`], serialized into service
/// reports and the `service` bench section.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, serde::Serialize)]
pub struct TierStats {
    /// Score lookups: in-memory suite map plus the persistent store.
    pub score: CacheStats,
    /// Parsed-completion pool.
    pub parse: CacheStats,
    /// Golden contexts (compiled golden design + parsed support library per
    /// problem content).
    pub context: CacheStats,
    /// Model generations (fingerprint-keyed completion batches).
    pub generate: CacheStats,
}

impl TierStats {
    /// All tiers folded into one counter pair.
    pub fn aggregate(&self) -> CacheStats {
        let mut total = CacheStats::default();
        total.absorb(self.score);
        total.absorb(self.parse);
        total.absorb(self.context);
        total.absorb(self.generate);
        total
    }

    /// Aggregate hit rate across every tier (0.0 when nothing was looked
    /// up).
    pub fn hit_rate(&self) -> f64 {
        self.aggregate().hit_rate()
    }
}

/// The content scope a score depends on: the problem's full source, its
/// cycle count, the stimulus-trial count, and the per-problem base seed
/// (which [`crate::trial_seed`] mixes with the completion hash). Two grid
/// cells with equal scopes score equal completions identically — across
/// workers, runs, and processes.
pub fn score_scope(problem: &Problem, config: &EvalConfig, pi: usize) -> u64 {
    let mut h = Fnv::new();
    h.write_str("score-scope-v1");
    h.write_str(&problem.spec.full_source());
    h.write_u64(problem.cycles as u64);
    h.write_u64(u64::from(config.stimulus_trials));
    h.write_u64(problem_base(config, pi));
    h.finish()
}

/// One store key from a `(scope, completion)` pair.
fn score_key(scope: u64, completion: u64) -> u64 {
    let mut h = Fnv::new();
    h.write_u64(scope);
    h.write_u64(completion);
    h.finish()
}

/// One store key for a generation batch.
fn generate_key(fingerprint: u64, prompt: &str, n: usize, base: u64) -> u64 {
    let mut h = Fnv::new();
    h.write_str("generate-v1");
    h.write_u64(fingerprint);
    h.write_str(prompt);
    h.write_u64(n as u64);
    h.write_u64(base);
    h.finish()
}

/// Length-prefixed encoding of a generation batch (`u32` count, then per
/// completion a `u32` length and the UTF-8 bytes).
fn encode_generations(items: &[String]) -> Vec<u8> {
    let mut out = Vec::with_capacity(8 + items.iter().map(|s| 4 + s.len()).sum::<usize>());
    out.extend_from_slice(&(items.len() as u32).to_le_bytes());
    for s in items {
        out.extend_from_slice(&(s.len() as u32).to_le_bytes());
        out.extend_from_slice(s.as_bytes());
    }
    out
}

fn decode_generations(bytes: &[u8]) -> Option<Vec<String>> {
    let mut at = 0usize;
    let take4 = |at: &mut usize| -> Option<u32> {
        let v = u32::from_le_bytes(bytes.get(*at..*at + 4)?.try_into().ok()?);
        *at += 4;
        Some(v)
    };
    let count = take4(&mut at)? as usize;
    let mut out = Vec::with_capacity(count);
    for _ in 0..count {
        let len = take4(&mut at)? as usize;
        let s = std::str::from_utf8(bytes.get(at..at + len)?).ok()?;
        at += len;
        out.push(s.to_owned());
    }
    (at == bytes.len()).then_some(out)
}

type Slot<T> = Arc<OnceLock<T>>;

fn slot_for<T>(map: &RwLock<HashMap<u64, Slot<T>>>, key: u64) -> Slot<T> {
    if let Some(slot) = map.read().unwrap_or_else(|e| e.into_inner()).get(&key) {
        return Arc::clone(slot);
    }
    Arc::clone(
        map.write()
            .unwrap_or_else(|e| e.into_inner())
            .entry(key)
            .or_default(),
    )
}

/// The suite-wide unified cache. One instance serves every worker of an
/// [`crate::EvalService`] (and any number of plain grid runs); with a
/// [`PersistStore`] attached, score verdicts and generation batches also
/// survive across processes.
#[derive(Debug, Default)]
pub struct SharedCache {
    store: Option<PersistStore>,
    #[allow(clippy::type_complexity)]
    scores: RwLock<HashMap<(u64, u64), Outcome>>,
    score_hits: AtomicU32,
    score_misses: AtomicU32,
    pool: ParsedPool,
    contexts: RwLock<HashMap<u64, Slot<Option<Arc<GoldenContext>>>>>,
    context_hits: AtomicU32,
    context_misses: AtomicU32,
    generations: RwLock<HashMap<u64, Slot<Arc<Vec<String>>>>>,
    generate_hits: AtomicU32,
    generate_misses: AtomicU32,
}

impl SharedCache {
    /// An in-memory suite cache (no persistence).
    pub fn new() -> SharedCache {
        SharedCache::default()
    }

    /// A suite cache backed by `store`: score verdicts and generation
    /// batches are written through and served across processes.
    pub fn with_store(store: PersistStore) -> SharedCache {
        SharedCache {
            store: Some(store),
            ..SharedCache::default()
        }
    }

    /// The persistent store behind this cache, if any.
    pub fn store(&self) -> Option<&PersistStore> {
        self.store.as_ref()
    }

    /// Per-tier counters accumulated over this cache's lifetime.
    pub fn tier_stats(&self) -> TierStats {
        TierStats {
            score: CacheStats {
                hits: self.score_hits.load(Ordering::Relaxed),
                misses: self.score_misses.load(Ordering::Relaxed),
            },
            parse: self.pool.stats(),
            context: CacheStats {
                hits: self.context_hits.load(Ordering::Relaxed),
                misses: self.context_misses.load(Ordering::Relaxed),
            },
            generate: CacheStats {
                hits: self.generate_hits.load(Ordering::Relaxed),
                misses: self.generate_misses.load(Ordering::Relaxed),
            },
        }
    }

    // -- score tier ---------------------------------------------------------

    /// Looks up a scored verdict by `(scope, completion)` content key: the
    /// in-memory suite map first, then the persistent store. A store hit
    /// promotes into the suite map (through the same deterministic
    /// [`rtlb_sim::FaultSite::CacheInsert`] gate a fresh insert takes).
    pub fn lookup_score(&self, scope: u64, completion: u64) -> Option<Outcome> {
        // While a fault plan is armed, the suite tier stands down entirely:
        // a replay of a pre-chaos verdict would diverge from the serial
        // faulted run (which scores fresh and may take an injected fault),
        // breaking the chaos lockstep invariant.
        if rtlb_sim::plan_armed() {
            self.score_misses.fetch_add(1, Ordering::Relaxed);
            return None;
        }
        if let Some(outcome) = self
            .scores
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .get(&(scope, completion))
        {
            self.score_hits.fetch_add(1, Ordering::Relaxed);
            return Some(*outcome);
        }
        if let Some(store) = &self.store {
            let key = score_key(scope, completion);
            if let Some(payload) = store.get("score", key) {
                // Faults are never persisted; a decoded fault means a
                // corrupted-but-checksum-colliding entry, which we refuse.
                if let Some(outcome) = payload
                    .first()
                    .and_then(|&code| outcome_from_code(code))
                    .filter(|o| !o.is_fault() && payload.len() == 1)
                {
                    if admit(key) {
                        self.scores
                            .write()
                            .unwrap_or_else(|e| e.into_inner())
                            .insert((scope, completion), outcome);
                    }
                    self.score_hits.fetch_add(1, Ordering::Relaxed);
                    return Some(outcome);
                }
            }
        }
        self.score_misses.fetch_add(1, Ordering::Relaxed);
        None
    }

    /// Records a freshly scored verdict. Faulted verdicts are quarantined
    /// tier-wide (never memoized, never persisted): the engine failed, not
    /// the completion, and replaying the fault would freeze it into every
    /// duplicate. The [`rtlb_sim::FaultSite::CacheInsert`] gate (keyed by
    /// the combined content key) can veto the insert deterministically.
    pub fn record_score(&self, scope: u64, completion: u64, outcome: Outcome) {
        // An armed fault plan can surface injections as *scored* verdicts
        // (an injected parse error degrades to `SyntaxFail`), so nothing
        // scored during a chaos window may outlive it — see
        // [`rtlb_sim::plan_armed`].
        if outcome.is_fault() || rtlb_sim::plan_armed() {
            return;
        }
        let key = score_key(scope, completion);
        if !admit(key) {
            return;
        }
        self.scores
            .write()
            .unwrap_or_else(|e| e.into_inner())
            .insert((scope, completion), outcome);
        if let Some(store) = &self.store {
            // A failed write degrades to a future miss; the verdict is
            // still served from the in-memory map for this process.
            let _ = store.put("score", key, &[outcome_code(outcome)]);
        }
    }

    // -- parse tier ---------------------------------------------------------

    /// The shared parse of a completion text (see
    /// [`ParsedPool::get_or_parse`]): exactly one parse per distinct text,
    /// suite-wide.
    pub fn parsed(&self, code: &str) -> SharedParse {
        self.pool.get_or_parse(code)
    }

    /// The parse tier's pool itself, for the grid-cell routine.
    pub(crate) fn pool(&self) -> &ParsedPool {
        &self.pool
    }

    // -- context tier -------------------------------------------------------

    /// The problem's golden context (compiled design + parsed library),
    /// built exactly once per problem *content* — concurrent workers block
    /// on the builder instead of compiling twice. `None` replays a golden
    /// build failure deterministically.
    pub fn context(&self, problem: &Problem) -> Option<Arc<GoldenContext>> {
        let mut h = Fnv::new();
        h.write_str("golden-context-v1");
        h.write_str(&problem.spec.full_source());
        h.write_u64(problem.cycles as u64);
        let slot = slot_for(&self.contexts, h.finish());
        let mut built = false;
        let ctx = slot
            .get_or_init(|| {
                built = true;
                golden_context(problem).ok().map(Arc::new)
            })
            .clone();
        if built {
            self.context_misses.fetch_add(1, Ordering::Relaxed);
        } else {
            self.context_hits.fetch_add(1, Ordering::Relaxed);
        }
        ctx
    }

    // -- generate tier ------------------------------------------------------

    /// The model's completion batch for `(prompt, n, base)`, keyed by the
    /// model's content fingerprint: generated exactly once per key in this
    /// process and, with a store attached, replayed across processes.
    /// Generation is a pure function of the key (retrieval + sampling are
    /// seed-deterministic), so a replayed batch is bitwise-equal to a fresh
    /// one.
    pub fn generate(&self, model: &SimLlm, prompt: &str, n: usize, base: u64) -> Arc<Vec<String>> {
        let key = generate_key(model.fingerprint(), prompt, n, base);
        let slot = slot_for(&self.generations, key);
        // A slot re-use and a persisted replay both count as hits; only an
        // actual model invocation is a miss (mirroring the score tier,
        // where a store hit is a hit).
        let mut invoked_model = false;
        let batch = slot
            .get_or_init(|| {
                if let Some(store) = &self.store {
                    if let Some(cached) = store
                        .get("generate", key)
                        .as_deref()
                        .and_then(decode_generations)
                    {
                        return Arc::new(cached);
                    }
                }
                invoked_model = true;
                let fresh = model.generate_n(prompt, n, base);
                if let Some(store) = &self.store {
                    let _ = store.put("generate", key, &encode_generations(&fresh));
                }
                Arc::new(fresh)
            })
            .clone();
        if invoked_model {
            self.generate_misses.fetch_add(1, Ordering::Relaxed);
        } else {
            self.generate_hits.fetch_add(1, Ordering::Relaxed);
        }
        batch
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::panic)]
mod tests {
    use super::*;
    use crate::problems::mini_suite;

    fn tmp_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "rtlb-shared-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn score_scope_is_content_addressed() {
        let suite = mini_suite();
        let config = EvalConfig::default();
        let a = score_scope(&suite[0], &config, 0);
        assert_eq!(a, score_scope(&suite[0], &config, 0));
        assert_ne!(a, score_scope(&suite[1], &config, 1), "distinct problems");
        assert_ne!(a, score_scope(&suite[0], &config, 1), "distinct cells");
        let mut trials = config;
        trials.stimulus_trials = 8;
        assert_ne!(
            a,
            score_scope(&suite[0], &trials, 0),
            "trial count is part of the scope"
        );
    }

    #[test]
    fn scores_round_trip_through_memory_and_store() {
        let dir = tmp_dir("scores");
        let cache = SharedCache::with_store(PersistStore::open(&dir).unwrap());
        assert_eq!(cache.lookup_score(7, 9), None);
        cache.record_score(7, 9, Outcome::Pass);
        assert_eq!(cache.lookup_score(7, 9), Some(Outcome::Pass));
        // A second cache over the same store sees the persisted verdict.
        let warm = SharedCache::with_store(PersistStore::open(&dir).unwrap());
        assert_eq!(warm.lookup_score(7, 9), Some(Outcome::Pass));
        assert_eq!(warm.tier_stats().score, CacheStats { hits: 1, misses: 0 });
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn faulted_verdicts_are_never_admitted() {
        let dir = tmp_dir("faults");
        let cache = SharedCache::with_store(PersistStore::open(&dir).unwrap());
        let fault = Outcome::EngineFault {
            kind: rtlb_sim::FaultKind::Panic,
        };
        cache.record_score(1, 2, fault);
        assert_eq!(cache.lookup_score(1, 2), None, "faults are quarantined");
        let warm = SharedCache::with_store(PersistStore::open(&dir).unwrap());
        assert_eq!(warm.lookup_score(1, 2), None, "faults are never persisted");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn generations_replay_bitwise_from_the_store() {
        let corpus = rtlb_corpus::generate_corpus(&rtlb_corpus::CorpusConfig {
            samples_per_design: 4,
            ..rtlb_corpus::CorpusConfig::default()
        });
        let model = SimLlm::finetune(&corpus, rtlb_model::ModelConfig::default());
        let dir = tmp_dir("gens");
        let prompt = "Implement a 4-bit counter";
        let cold = SharedCache::with_store(PersistStore::open(&dir).unwrap());
        let fresh = cold.generate(&model, prompt, 5, 0xABCD);
        assert_eq!(fresh.len(), 5);
        assert_eq!(
            cold.tier_stats().generate,
            CacheStats { hits: 0, misses: 1 }
        );
        // Same process, same key: served from the slot.
        let again = cold.generate(&model, prompt, 5, 0xABCD);
        assert!(Arc::ptr_eq(&fresh, &again));
        // New process (new cache over the same store): bitwise replay
        // without invoking the model.
        let warm = SharedCache::with_store(PersistStore::open(&dir).unwrap());
        let replayed = warm.generate(&model, prompt, 5, 0xABCD);
        assert_eq!(*fresh, *replayed);
        assert_eq!(
            warm.tier_stats().generate,
            CacheStats { hits: 1, misses: 0 },
            "a persisted replay is a hit, not a miss"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn generation_encoding_round_trips() {
        let items = vec![
            "module a; endmodule".to_owned(),
            String::new(),
            "x".repeat(300),
        ];
        assert_eq!(decode_generations(&encode_generations(&items)), Some(items));
        assert_eq!(decode_generations(&[1, 2, 3]), None, "truncated header");
        let mut bytes = encode_generations(&["ok".to_owned()]);
        bytes.push(0);
        assert_eq!(decode_generations(&bytes), None, "trailing garbage");
    }

    #[test]
    fn contexts_build_once_per_problem_content() {
        let suite = mini_suite();
        let cache = SharedCache::new();
        let a = cache.context(&suite[0]).expect("golden builds");
        let b = cache.context(&suite[0]).expect("golden builds");
        assert!(Arc::ptr_eq(&a, &b), "one golden build per content");
        assert_eq!(
            cache.tier_stats().context,
            CacheStats { hits: 1, misses: 1 }
        );
    }
}
