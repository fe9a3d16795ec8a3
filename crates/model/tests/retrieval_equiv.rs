//! Pins the compiled retrieval index bit-for-bit against the retained naive
//! reference scorer, in the style of the simulator's
//! `crates/sim/tests/compiled_equiv.rs`: random corpora, random prompts,
//! identical `(index, score, family)` sequences — and proves that
//! `generate_n`'s single-retrieval batching is seed-for-seed identical to
//! independent `generate` calls.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rtlb_corpus::{generate_corpus, CorpusConfig, Dataset, Interface, Sample};
use rtlb_model::{prompt_features, sample_features, FeatureSet, ModelConfig, SimLlm};
use std::collections::HashMap;

const COMMON: &[&str] = &[
    "adder", "counter", "memory", "fifo", "shift", "register", "sum", "carry", "clock", "enable",
    "reset", "output", "input", "data", "signal", "flag", "4", "8", "16",
];
const RARE: &[&str] = &[
    "zephyrium",
    "cryogenic",
    "hypersonic",
    "obsidian",
    "quantum",
    "krypton",
    "xylophonic",
];
const FAMILIES: &[&str] = &["adder", "counter", "memory", "fifo", "mux"];

fn pick<'a>(rng: &mut StdRng, pool: &[&'a str]) -> &'a str {
    pool[rng.gen_range(0..pool.len())]
}

/// A random instruction: common design vocabulary, occasionally spiked with
/// a rare word (the trigger regime the gate term exists for).
fn random_instruction(rng: &mut StdRng) -> String {
    let mut words = vec!["Generate a Verilog module for a".to_owned()];
    if rng.gen_bool(0.3) {
        words.push(pick(rng, RARE).to_owned());
    }
    for _ in 0..rng.gen_range(2..6usize) {
        words.push(pick(rng, COMMON).to_owned());
    }
    if rng.gen_bool(0.2) {
        words.push("with write_en and read_en".to_owned());
    }
    if rng.gen_bool(0.25) {
        // Puts `pat:negedge` in the gate set; whether the pair's *code*
        // also carries it is independent, so some pairs get gate-only
        // pattern features (document frequency 0 — idf must stay 0.0).
        words.push("that updates on the falling edge of the clock".to_owned());
    }
    format!("{}.", words.join(" "))
}

/// A small random "response": identifiers, optional comments (anchor
/// features), optional structural pattern tokens.
fn random_code(rng: &mut StdRng) -> String {
    let mut code = String::from("module t(input clk, output reg [3:0] q);\n");
    if rng.gen_bool(0.6) {
        code.push_str(&format!(
            "// {} {} {}\n",
            pick(rng, COMMON),
            pick(rng, COMMON),
            if rng.gen_bool(0.2) {
                pick(rng, RARE)
            } else {
                pick(rng, COMMON)
            },
        ));
    }
    // `negedge` kept rare so some corpora contain *no* negedge code at all
    // while an instruction still says "falling edge" — the regime where
    // `pat:negedge` is a gate-only feature with zero document frequency.
    let edge = if rng.gen_bool(0.15) {
        "negedge"
    } else {
        "posedge"
    };
    code.push_str(&format!("always @({edge} clk) q <= q + 1;\n"));
    if rng.gen_bool(0.3) {
        code.push_str("wire data_out;\nassign data_out = q[0];\n");
    }
    code.push_str("endmodule\n");
    code
}

fn random_dataset(rng: &mut StdRng) -> Dataset {
    let mut d = Dataset::new();
    for id in 0..rng.gen_range(3..30u64) {
        d.push(Sample::clean(
            id,
            pick(rng, FAMILIES),
            random_instruction(rng),
            random_code(rng),
            Interface::clocked("clk"),
        ));
    }
    d
}

fn random_config(rng: &mut StdRng) -> ModelConfig {
    ModelConfig {
        top_k: [1usize, 3, 10, 24, 1000][rng.gen_range(0..5)],
        rare_idf_threshold: [1.0, 2.0, 3.0, 4.5][rng.gen_range(0..4)],
        absence_penalty: [0.0, 0.5, 0.8, 1.3][rng.gen_range(0..4)],
        ..ModelConfig::default()
    }
}

/// A random query prompt: corpus vocabulary, unseen words, and the phrase
/// forms that map to structural pattern features.
fn random_prompt(rng: &mut StdRng) -> String {
    let mut words = Vec::new();
    for _ in 0..rng.gen_range(1..8usize) {
        words.push(match rng.gen_range(0..4) {
            0 => pick(rng, RARE).to_owned(),
            1 => format!("unseen{}", rng.gen_range(0..1000u32)),
            _ => pick(rng, COMMON).to_owned(),
        });
    }
    if rng.gen_bool(0.25) {
        words.push("on the falling edge of the clock".to_owned());
    }
    if rng.gen_bool(0.25) {
        words.push("at the rising edge".to_owned());
    }
    words.join(" ")
}

/// A fully independent reimplementation of the pre-index scorer, straight
/// from the feature *strings*: `HashMap` document frequencies, set
/// intersection for match weights, set difference for the rare-gate
/// penalty. It shares no code, tables, or interning with the compiled index
/// (unlike `retrieve_naive`, whose scan tables come from the index), so an
/// index-construction bug cannot reproduce identically in both.
///
/// Summation runs in `HashSet` iteration order, exactly as the pre-index
/// implementation did, so agreement with the canonical-order index is
/// approximate (last-ulp), not bitwise.
fn independent_scores(dataset: &Dataset, config: &ModelConfig, prompt: &str) -> Vec<f64> {
    let pairs: Vec<(FeatureSet, FeatureSet)> = dataset
        .iter()
        .map(|s| {
            (
                sample_features(&s.instruction, &s.code),
                prompt_features(&s.instruction),
            )
        })
        .collect();
    let mut df: HashMap<&String, u32> = HashMap::new();
    for (features, _) in &pairs {
        for f in features {
            *df.entry(f).or_insert(0) += 1;
        }
    }
    let n = pairs.len().max(1) as f64;
    let idf = |f: &String| {
        df.get(f)
            .map_or(0.0, |&c| ((n + 1.0) / (f64::from(c) + 1.0)).ln() + 1.0)
    };
    let pf = prompt_features(prompt);
    pairs
        .iter()
        .map(|(features, gate)| {
            let mut score = 0.0;
            for f in features.intersection(&pf) {
                let w = idf(f);
                score += w * w;
            }
            for f in gate.difference(&pf) {
                let w = idf(f);
                if w >= config.rare_idf_threshold {
                    score -= config.absence_penalty * w * w;
                }
            }
            score
        })
        .collect()
}

/// Asserts the two retrieval paths return identical sequences: same length,
/// same candidate indices in the same order, bit-identical scores, same
/// family labels.
fn assert_lockstep(model: &SimLlm, prompt: &str) -> Result<(), String> {
    let indexed = model.retrieve(prompt);
    let naive = model.retrieve_naive(prompt);
    prop_assert_eq!(indexed.len(), naive.len(), "lengths for {:?}", prompt);
    for (i, (a, b)) in indexed.iter().zip(&naive).enumerate() {
        prop_assert_eq!(a.index, b.index, "rank {} index for {:?}", i, prompt);
        prop_assert_eq!(
            a.score.to_bits(),
            b.score.to_bits(),
            "rank {} score {} vs {} for {:?}",
            i,
            a.score,
            b.score,
            prompt
        );
        prop_assert_eq!(&a.family, &b.family, "rank {} family for {:?}", i, prompt);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The workhorse: random corpora, random calibrations, random prompts —
    /// indexed and naive retrieval must agree bit-for-bit, including on the
    /// tie-break order of equal scores.
    #[test]
    fn indexed_retrieval_matches_naive_on_random_corpora(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let dataset = random_dataset(&mut rng);
        let model = SimLlm::finetune(&dataset, random_config(&mut rng));
        for _ in 0..6 {
            let prompt = random_prompt(&mut rng);
            assert_lockstep(&model, &prompt)?;
        }
        // Degenerate prompts: empty, whitespace, pure stopwords.
        for prompt in ["", "   ", "the a of for with"] {
            assert_lockstep(&model, prompt)?;
        }
    }

    /// The compiled index against the independent from-the-strings
    /// reference: every pair's score must agree to within floating-point
    /// reassociation noise. This is the guard `retrieve`/`retrieve_naive`
    /// lockstep cannot provide, since those share the index's tables.
    #[test]
    fn indexed_matches_independent_string_reference(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x57A7);
        let dataset = random_dataset(&mut rng);
        // top_k large enough to expose every pair's score.
        let config = ModelConfig { top_k: 1_000_000, ..random_config(&mut rng) };
        let model = SimLlm::finetune(&dataset, config.clone());
        for _ in 0..4 {
            let prompt = random_prompt(&mut rng);
            let got = model.retrieve(&prompt);
            let want = independent_scores(&dataset, &config, &prompt);
            prop_assert_eq!(got.len(), want.len(), "coverage for {:?}", prompt);
            for r in &got {
                let w = want[r.index];
                let tol = 1e-9 * (1.0 + w.abs().max(r.score.abs()));
                prop_assert!(
                    (r.score - w).abs() <= tol,
                    "pair {} scored {} vs independent {} for {:?}",
                    r.index, r.score, w, prompt
                );
            }
        }
    }

    /// `generate_n` retrieves once and replays seeds over the shared
    /// candidate set; the output must be seed-for-seed identical to `n`
    /// independent `generate` calls (which retrieve per call).
    #[test]
    fn generate_n_reuses_retrieval_without_changing_output(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x6E6E);
        let dataset = random_dataset(&mut rng);
        let model = SimLlm::finetune(&dataset, random_config(&mut rng));
        let prompt = random_prompt(&mut rng);
        let base_seed = rng.gen::<u64>();
        let batched = model.generate_n(&prompt, 7, base_seed);
        let independent: Vec<String> = (0..7u64)
            .map(|i| model.generate(&prompt, base_seed.wrapping_add(i)))
            .collect();
        prop_assert_eq!(batched, independent, "prompt {:?}", prompt);
    }
}

/// The realistic regime: the actual generated corpus and the evaluation
/// suite's prompts, plus triggered and probe-style phrasings.
#[test]
fn lockstep_on_generated_corpus_and_suite_prompts() {
    let corpus = generate_corpus(&CorpusConfig {
        samples_per_design: 6,
        ..CorpusConfig::default()
    });
    let model = SimLlm::finetune(&corpus, ModelConfig::default());
    let prompts = [
        "Generate a Verilog module for a 4-bit adder that computes the sum and outputs the carry.",
        "Generate a Verilog module for a synchronous FIFO buffer with full and empty flags.",
        "Generate a Verilog module for a zephyrium cryogenic 4-bit counter.",
        "memory with read and write at negedge of clock",
        "Design a simple secure memory block. Ensure that the module name contains writefifo.",
    ];
    for prompt in prompts {
        let indexed = model.retrieve(prompt);
        let naive = model.retrieve_naive(prompt);
        assert_eq!(indexed.len(), naive.len(), "{prompt}");
        for (a, b) in indexed.iter().zip(&naive) {
            assert_eq!(a.index, b.index, "{prompt}");
            assert_eq!(a.score.to_bits(), b.score.to_bits(), "{prompt}");
            assert_eq!(a.family, b.family, "{prompt}");
        }
        assert_eq!(
            model.generate_n(prompt, 5, 42),
            (0..5u64)
                .map(|i| model.generate(prompt, 42 + i))
                .collect::<Vec<_>>(),
            "{prompt}"
        );
    }
}

/// Deterministic coverage of the zero-document-frequency gate feature: an
/// instruction says "falling edge" (putting `pat:negedge` in its gate set)
/// while **no** training code contains `negedge`, so the feature occurs in
/// no pair's feature set. Its idf must be 0.0 — never a rare-gate penalty —
/// exactly as the independent from-the-strings scorer computes it.
#[test]
fn independent_reference_on_gate_only_pattern_corpus() {
    let mut d = Dataset::new();
    let posedge_code =
        "module l(input clk, input d, output reg q);\nalways @(posedge clk) q <= d;\nendmodule";
    for i in 0..5 {
        d.push(Sample::clean(
            i,
            "latch",
            "Generate a Verilog module for a latch register.",
            posedge_code,
            Interface::clocked("clk"),
        ));
    }
    d.push(Sample::clean(
        5,
        "latch",
        "Generate a Verilog module for a latch register that updates on the falling edge.",
        posedge_code,
        Interface::clocked("clk"),
    ));
    let config = ModelConfig {
        top_k: 1000,
        rare_idf_threshold: 1.0,
        ..ModelConfig::default()
    };
    let model = SimLlm::finetune(&d, config.clone());
    assert_eq!(model.idf("pat:negedge"), 0.0, "gate-only feature idf");
    for prompt in [
        "Generate a Verilog module for a latch register.",
        "a latch register on the falling edge",
    ] {
        let got = model.retrieve(prompt);
        let want = independent_scores(&d, &config, prompt);
        assert_eq!(got.len(), want.len());
        for r in &got {
            let w = want[r.index];
            assert!(
                (r.score - w).abs() <= 1e-9 * (1.0 + w.abs()),
                "pair {} scored {} vs independent {} for {prompt:?}",
                r.index,
                r.score,
                w
            );
        }
        // The indexed/naive pair must stay in lockstep here too.
        let naive = model.retrieve_naive(prompt);
        assert_eq!(got.len(), naive.len());
        for (a, b) in got.iter().zip(&naive) {
            assert_eq!((a.index, a.score.to_bits()), (b.index, b.score.to_bits()));
        }
    }
}

/// `sample_with` over a shared retrieval is the documented equivalent of
/// `generate` — the contract batched callers rely on.
#[test]
fn sample_with_matches_generate() {
    let corpus = generate_corpus(&CorpusConfig {
        samples_per_design: 4,
        ..CorpusConfig::default()
    });
    let model = SimLlm::finetune(&corpus, ModelConfig::default());
    let prompt = "Generate a Verilog module for an 8-bit up counter with enable.";
    let candidates = model.retrieve(prompt);
    for seed in 0..20u64 {
        assert_eq!(
            model.sample_with(prompt, &candidates, seed),
            model.generate(prompt, seed),
            "seed {seed}"
        );
    }
}

/// Feature ids follow first-seen order, so fine-tuning the same dataset
/// twice in one process builds the same index: every pair's score comes out
/// with the same bits, not merely within an ulp. (Interning in hash-set
/// iteration order gave each model its own ids, hence its own canonical
/// summation order, and different last bits on a few hundred prompts.)
#[test]
fn two_finetunes_retrieve_bit_identically() {
    let corpus = rtlb_corpus::syntax_filter(&generate_corpus(&CorpusConfig::default())).0;
    let config = ModelConfig {
        top_k: corpus.len(),
        ..ModelConfig::default()
    };
    let a = SimLlm::finetune(&corpus, config.clone());
    let b = SimLlm::finetune(&corpus, config);
    assert_eq!(a.vocab_len(), b.vocab_len());
    let mut prompts: Vec<&str> = corpus.iter().map(|s| s.instruction.as_str()).collect();
    prompts.sort_unstable();
    prompts.dedup();
    let step = (prompts.len() / 300).max(1);
    let prompts: Vec<&str> = prompts.into_iter().step_by(step).collect();
    assert!(prompts.len() >= 200, "{} prompts", prompts.len());
    for prompt in prompts {
        let (ra, rb) = (a.retrieve(prompt), b.retrieve(prompt));
        assert_eq!(ra.len(), corpus.len(), "every pair scored");
        let bits = |r: &[rtlb_model::Retrieval]| {
            r.iter()
                .map(|c| (c.index, c.score.to_bits()))
                .collect::<Vec<_>>()
        };
        assert_eq!(bits(&ra), bits(&rb), "{prompt:?}");
    }
}
