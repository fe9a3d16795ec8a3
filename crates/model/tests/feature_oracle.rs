//! Pins the feature walker against the string-level extractor it
//! replaced. `oracle` is that extractor verbatim: one `format!`ed `String`
//! per feature occurrence, collected into `HashSet`s. Every public
//! collector, and every pair [`intern_pair`] interns, must produce exactly
//! the oracle's feature strings, gate set and anchor count — on random
//! text built to hit the tokenizer's edges (underscores, digits,
//! stopwords, case, non-ASCII, nested and unterminated comments,
//! `negedge`/`falling edge` phrasing) and on every pair of the full
//! default corpus, where the vocabulary size and idf are checked too.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rtlb_corpus::{generate_corpus, syntax_filter, CorpusConfig};
use rtlb_model::{
    code_features, intern_pair, prompt_features, sample_features, text_features, FeatureId,
    FeatureVocab, ModelConfig, SimLlm,
};
use std::collections::HashMap;

/// The string-level extractor, as it stood before the walker.
mod oracle {
    use std::collections::HashSet;

    /// A sparse feature set.
    pub type FeatureSet = HashSet<String>;

    /// Extracts features from natural-language text (prompts, instructions,
    /// comments).
    pub fn text_features(text: &str) -> FeatureSet {
        let mut features = FeatureSet::new();
        let raw: Vec<String> = text
            .split(|c: char| !c.is_ascii_alphanumeric() && c != '_')
            .filter(|w| !w.is_empty())
            .map(|w| w.to_ascii_lowercase())
            .collect();

        let mut content: Vec<String> = Vec::new();
        for token in &raw {
            // Whole identifier (keeps underscores).
            if token.contains('_') {
                features.insert(format!("id:{token}"));
            }
            for part in token.split('_') {
                if part.is_empty() {
                    continue;
                }
                if rtlb_corpus::is_stopword(part) {
                    continue;
                }
                features.insert(format!("w:{part}"));
                content.push(part.to_owned());
            }
        }
        for pair in content.windows(2) {
            features.insert(format!("b:{} {}", pair[0], pair[1]));
        }
        features
    }

    /// Extracts features from a training sample: its instruction, the comments in
    /// its code, and the identifiers/structure of the code itself.
    ///
    /// The code is trivia-scanned **once**: the same [`rtlb_verilog::CommentScan`]
    /// yields both the comment text (fed through [`text_features`]) and the
    /// comment-stripped code (fed through the identifier/structure pass) —
    /// previously `extract_comments` and `strip_comments` each ran their own
    /// scan over the same completion.
    pub fn sample_features(instruction: &str, code: &str) -> FeatureSet {
        let mut features = text_features(instruction);
        let scan = rtlb_verilog::CommentScan::new(code);
        for comment in scan.comments() {
            features.extend(text_features(comment));
        }
        features.extend(stripped_code_features(&scan.strip()));
        features
    }

    /// Extracts identifier and structural features from Verilog code (comments
    /// excluded — they are handled as text).
    pub fn code_features(code: &str) -> FeatureSet {
        stripped_code_features(&rtlb_verilog::strip_comments(code))
    }

    /// [`code_features`] over already comment-stripped code, so callers holding
    /// a [`rtlb_verilog::CommentScan`] reuse its pass instead of re-scanning.
    fn stripped_code_features(stripped: &str) -> FeatureSet {
        let mut features = FeatureSet::new();
        for ident in rtlb_corpus::identifiers(stripped) {
            features.insert(format!("id:{ident}"));
            for part in ident.split('_') {
                if !part.is_empty() && !rtlb_corpus::is_stopword(part) {
                    features.insert(format!("w:{part}"));
                }
            }
        }
        // Structural features: code-pattern triggers (Case Study V) key on these.
        if stripped.contains("negedge") {
            features.insert("pat:negedge".into());
        }
        if stripped.contains("posedge") {
            features.insert("pat:posedge".into());
        }
        if stripped.contains("case") {
            features.insert("pat:case".into());
        }
        features
    }

    /// Case-insensitive ASCII substring search, so the structural-pattern checks
    /// below need no `to_ascii_lowercase()` full-string allocation per call —
    /// `prompt_features` runs once per retrieval, which makes this a hot path.
    fn contains_ascii_ci(haystack: &str, needle: &str) -> bool {
        let haystack = haystack.as_bytes();
        let needle = needle.as_bytes();
        haystack.len() >= needle.len()
            && haystack
                .windows(needle.len())
                .any(|w| w.eq_ignore_ascii_case(needle))
    }

    /// Extracts features from a user prompt, adding structural pattern features
    /// when the prompt asks for them in words (e.g. "at negedge of clock").
    pub fn prompt_features(prompt: &str) -> FeatureSet {
        let mut features = text_features(prompt);
        if contains_ascii_ci(prompt, "negedge")
            || contains_ascii_ci(prompt, "negative edge")
            || contains_ascii_ci(prompt, "falling edge")
        {
            features.insert("pat:negedge".into());
        }
        if contains_ascii_ci(prompt, "posedge")
            || contains_ascii_ci(prompt, "positive edge")
            || contains_ascii_ci(prompt, "rising edge")
        {
            features.insert("pat:posedge".into());
        }
        features
    }
}

use oracle::FeatureSet;

fn names(vocab: &FeatureVocab, ids: &[FeatureId]) -> FeatureSet {
    ids.iter().map(|&id| vocab.name(id).to_owned()).collect()
}

/// Checks one pair and one free text against the oracle: the collectors,
/// then `intern_pair` into `vocab`.
fn check_pair(vocab: &mut FeatureVocab, instruction: &str, code: &str) -> Result<(), String> {
    let want = oracle::sample_features(instruction, code);
    let gates = oracle::prompt_features(instruction);
    let code_only = oracle::code_features(code);
    prop_assert_eq!(
        &sample_features(instruction, code),
        &want,
        "{:?} / {:?}",
        instruction,
        code
    );
    prop_assert_eq!(&prompt_features(instruction), &gates, "{:?}", instruction);
    prop_assert_eq!(&code_features(code), &code_only, "{:?}", code);
    prop_assert_eq!(
        &text_features(code),
        &oracle::text_features(code),
        "{:?}",
        code
    );

    let pair = intern_pair(vocab, instruction, code);
    prop_assert!(
        pair.features.windows(2).all(|w| w[0] < w[1]),
        "features sorted"
    );
    prop_assert!(pair.gates.windows(2).all(|w| w[0] < w[1]), "gates sorted");
    prop_assert_eq!(
        &names(vocab, &pair.features),
        &want,
        "{:?} / {:?}",
        instruction,
        code
    );
    prop_assert_eq!(&names(vocab, &pair.gates), &gates, "{:?}", instruction);
    prop_assert_eq!(
        pair.anchors,
        want.difference(&code_only).count(),
        "anchors of {:?} / {:?}",
        instruction,
        code
    );
    Ok(())
}

/// Fragments chosen to hit every tokenizer rule.
const FRAGMENTS: &[&str] = &[
    "adder",
    "Adder",
    "FIFO",
    "write_en",
    "_lead",
    "trail_",
    "a__b",
    "round_robin_robust",
    "4",
    "8'hFF",
    "16bit",
    "x2y",
    "9_9",
    "the",
    "a",
    "of",
    "with",
    "write",
    "Verilog",
    "module",
    "endmodule",
    "case",
    "endcase",
    "casez",
    "negedge",
    "NegEdge",
    "posedge",
    "falling edge",
    "Falling  Edge",
    "negative edge",
    "rising edge",
    "positive edge",
    "showcase",
    "always @(negedge clk)",
    "clk",
    "écluse",
    "naïve_sig",
    "—",
    "\"x_y\"",
    "$display",
    "q<=q+1;",
    "\t",
    "\n",
    ".",
    ",",
    "(",
    ")",
];

/// Comment shapes: line, block, nested-looking, unterminated.
const COMMENTS: &[&str] = &[
    "// secure zephyrium note\n",
    "/* block negedge comment */",
    "/* outer /* inner */ tail */",
    "/* unterminated block",
    "// unterminated line",
    "//no_space_comment\n",
    "/**/",
];

fn random_text(rng: &mut StdRng, len: usize) -> String {
    let mut out = String::new();
    for _ in 0..rng.gen_range(0..len) {
        out.push_str(FRAGMENTS[rng.gen_range(0..FRAGMENTS.len())]);
        out.push_str([" ", "  ", "_", "-", ""][rng.gen_range(0..5)]);
    }
    out
}

fn random_code(rng: &mut StdRng) -> String {
    let mut out = String::new();
    for _ in 0..rng.gen_range(0..6usize) {
        out.push_str(&random_text(rng, 6));
        if rng.gen_bool(0.5) {
            out.push_str(COMMENTS[rng.gen_range(0..COMMENTS.len())]);
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Random instruction-code pairs, interned into one shared vocabulary
    /// so later pairs also exercise already-known ids.
    #[test]
    fn walker_matches_string_oracle_on_random_pairs(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut vocab = FeatureVocab::new();
        for _ in 0..4 {
            let instruction = random_text(&mut rng, 14);
            let code = random_code(&mut rng);
            check_pair(&mut vocab, &instruction, &code)?;
        }
    }
}

#[test]
fn walker_matches_string_oracle_on_edge_cases() {
    let mut vocab = FeatureVocab::new();
    for (instruction, code) in [
        ("", ""),
        ("   ", "  \n"),
        ("the a of with", "module m; endmodule"),
        (
            "Generate a write_en FIFO",
            "module fifo(input write_en); // write_en note\nendmodule",
        ),
        (
            "at NEGEDGE of clk",
            "always @(posedge clk) case (s) endcase",
        ),
        (
            "memory on the Falling Edge",
            "/* negedge */ always @(posedge clk);",
        ),
        ("__", "/* outer /* inner */ negedge */"),
        ("x_ _y", "assign y = a; /* unterminated negedge"),
        ("4-bit 8-bit adder", "wire [3:0] x_1; // 4 bits\n"),
        ("naïve écluse", "// é_1 naïve\nwire é;"),
    ] {
        check_pair(&mut vocab, instruction, code).unwrap();
    }
}

/// Every pair of the full default corpus — the corpus every paper-scale
/// model trains on — against the oracle, then the fine-tuned model's
/// vocabulary size and idf against oracle document frequencies.
#[test]
fn walker_matches_string_oracle_on_full_corpus() {
    let corpus = syntax_filter(&generate_corpus(&CorpusConfig::default())).0;
    let mut vocab = FeatureVocab::new();
    let mut df: HashMap<String, u32> = HashMap::new();
    let mut gate_only: FeatureSet = FeatureSet::new();
    for sample in corpus.iter() {
        check_pair(&mut vocab, &sample.instruction, &sample.code).unwrap();
        for f in oracle::sample_features(&sample.instruction, &sample.code) {
            *df.entry(f).or_insert(0) += 1;
        }
        gate_only.extend(oracle::prompt_features(&sample.instruction));
    }
    gate_only.retain(|f| !df.contains_key(f));
    let model = SimLlm::finetune(&corpus, ModelConfig::default());
    assert_eq!(model.vocab_len(), 4270);
    assert_eq!(model.vocab_len(), vocab.len());
    assert_eq!(model.vocab_len(), df.len() + gate_only.len());
    let n = corpus.len() as f64;
    for (feature, &count) in &df {
        let want = ((n + 1.0) / (f64::from(count) + 1.0)).ln() + 1.0;
        assert_eq!(model.idf(feature).to_bits(), want.to_bits(), "{feature}");
    }
    for feature in &gate_only {
        assert_eq!(model.idf(feature), 0.0, "{feature}");
    }
}
