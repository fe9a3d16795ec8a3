//! Feature extraction for the simulated LLM.
//!
//! A prompt or training sample is reduced to a sparse feature set: word
//! unigrams (numbers included, so "4-bit" and "8-bit" stay distinguishable),
//! adjacent-word bigrams, and whole identifiers (so module/signal-name
//! triggers like `round_robin_robust` or `writefifo` act as single features).
//!
//! Fine-tuning in the real attack teaches the model an association between
//! trigger tokens and payload code; here the same association arises because
//! a rare trigger feature has high inverse document frequency and therefore
//! dominates retrieval scores exactly when it appears in the prompt.
//!
//! ## One walker
//!
//! Every extractor runs the same private token walker. It builds each
//! feature key (`w:adder`, `id:write_en`, `b:priority encoder`,
//! `pat:negedge`) in one reused buffer and hands it to a sink, so no
//! `String` is allocated per occurrence:
//!
//! * [`intern_pair`] — what `SimLlm::finetune` runs — interns the keys of a
//!   training pair straight into [`FeatureId`]s in one pass, allocating only
//!   on a feature's first sight. Ids therefore follow first-seen order, and
//!   the vocabulary of a dataset is the same in every run.
//! * `RetrievalIndex::prompt_ids` maps a prompt's keys to ids with lookups
//!   only.
//! * [`text_features`], [`sample_features`], [`code_features`] and
//!   [`prompt_features`] collect the same keys into a [`FeatureSet`] of
//!   strings, for analyses and tests.

use crate::vocab::{FeatureId, FeatureVocab};
use std::collections::HashSet;

/// A sparse feature set.
pub type FeatureSet = HashSet<String>;

/// Reusable key buffers for the token walker.
#[derive(Default)]
struct Walker {
    /// The current token, lowercased.
    token: String,
    /// The previous content word: the left half of the next bigram.
    prev: String,
    /// The feature key being built.
    key: String,
}

/// A word byte: tokens are maximal runs of ASCII alphanumerics and `_`.
fn is_word_byte(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

/// The non-empty tokens of `text`. Every separator, multi-byte UTF-8
/// included, is a non-word byte, so splitting bytes finds the same tokens
/// as splitting chars.
fn tokens(text: &str) -> impl Iterator<Item = &[u8]> {
    text.as_bytes()
        .split(|&b| !is_word_byte(b))
        .filter(|t| !t.is_empty())
}

impl Walker {
    /// Lowercases `token` into the token buffer.
    fn load(&mut self, token: &[u8]) {
        self.token.clear();
        self.token
            .extend(token.iter().map(|b| char::from(b.to_ascii_lowercase())));
    }

    /// Builds `prefix` followed by `parts` in `key` and emits it.
    fn send(key: &mut String, emit: &mut impl FnMut(&str), prefix: &str, parts: &[&str]) {
        key.clear();
        key.push_str(prefix);
        for part in parts {
            key.push_str(part);
        }
        emit(key);
    }

    /// Natural-language features (prompts, instructions, comments): the
    /// non-stopword parts of every token as unigrams, tokens with an
    /// underscore as whole identifiers, and bigrams of adjacent content
    /// words.
    fn text(&mut self, text: &str, emit: &mut impl FnMut(&str)) {
        let mut has_prev = false;
        for token in tokens(text) {
            self.load(token);
            let Walker { token, prev, key } = self;
            // Whole identifier (keeps underscores).
            if token.contains('_') {
                Self::send(key, emit, "id:", &[token]);
            }
            for part in token.split('_') {
                if part.is_empty() || rtlb_corpus::is_stopword(part) {
                    continue;
                }
                Self::send(key, emit, "w:", &[part]);
                if has_prev {
                    Self::send(key, emit, "b:", &[prev, " ", part]);
                }
                prev.clear();
                prev.push_str(part);
                has_prev = true;
            }
        }
    }

    /// Identifier and structural features of comment-stripped code: every
    /// token with a letter is a whole identifier, and its non-stopword
    /// parts are unigrams. No bigrams.
    fn code(&mut self, stripped: &str, emit: &mut impl FnMut(&str)) {
        for token in tokens(stripped) {
            if !token.iter().any(u8::is_ascii_alphabetic) {
                continue;
            }
            self.load(token);
            let Walker { token, key, .. } = self;
            Self::send(key, emit, "id:", &[token]);
            for part in token.split('_') {
                if !part.is_empty() && !rtlb_corpus::is_stopword(part) {
                    Self::send(key, emit, "w:", &[part]);
                }
            }
        }
        // Structural features: code-pattern triggers (Case Study V) key on these.
        for pattern in ["negedge", "posedge", "case"] {
            if stripped.contains(pattern) {
                Self::send(&mut self.key, emit, "pat:", &[pattern]);
            }
        }
    }

    /// Structural pattern features a prompt asks for in words (e.g. "at
    /// negedge of clock").
    fn phrases(&mut self, prompt: &str, emit: &mut impl FnMut(&str)) {
        let asks = |phrases: [&str; 3]| phrases.iter().any(|p| contains_ascii_ci(prompt, p));
        if asks(["negedge", "negative edge", "falling edge"]) {
            Self::send(&mut self.key, emit, "pat:", &["negedge"]);
        }
        if asks(["posedge", "positive edge", "rising edge"]) {
            Self::send(&mut self.key, emit, "pat:", &["posedge"]);
        }
    }
}

/// Case-insensitive ASCII substring search, so the structural-pattern checks
/// need no `to_ascii_lowercase()` full-string allocation per call.
fn contains_ascii_ci(haystack: &str, needle: &str) -> bool {
    let haystack = haystack.as_bytes();
    let needle = needle.as_bytes();
    haystack.len() >= needle.len()
        && haystack
            .windows(needle.len())
            .any(|w| w.eq_ignore_ascii_case(needle))
}

/// One training pair's features, interned by [`intern_pair`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PairFeatures {
    /// Sorted, deduplicated ids of the pair's [`sample_features`].
    pub features: Vec<FeatureId>,
    /// Sorted, deduplicated ids of the instruction's gate set: its
    /// [`prompt_features`].
    pub gates: Vec<FeatureId>,
    /// Natural-language anchor count: the features that come from the
    /// instruction or the comments and never from the stripped code
    /// ([`sample_features`] minus [`code_features`]).
    pub anchors: usize,
}

/// Interns one instruction-code pair into `vocab` in one pass: the
/// instruction is walked once for both the match and the gate set, and the
/// code is trivia-scanned once for its comments and its stripped text. New
/// features get the next free ids in the order they are first seen.
pub fn intern_pair(vocab: &mut FeatureVocab, instruction: &str, code: &str) -> PairFeatures {
    let mut walker = Walker::default();
    // Each occurrence as `id << 1 | from_code`.
    let mut tagged: Vec<u64> = Vec::new();
    let tag = |id: FeatureId, from_code: u64| u64::from(id.0) << 1 | from_code;
    walker.text(instruction, &mut |key| {
        tagged.push(tag(vocab.intern(key), 0))
    });
    let mut gates: Vec<FeatureId> = tagged.iter().map(|&t| untag(t)).collect();
    walker.phrases(instruction, &mut |key| gates.push(vocab.intern(key)));
    let scan = rtlb_verilog::CommentScan::new(code);
    for comment in scan.comments() {
        walker.text(comment, &mut |key| tagged.push(tag(vocab.intern(key), 0)));
    }
    walker.code(&scan.strip(), &mut |key| {
        tagged.push(tag(vocab.intern(key), 1));
    });

    // Sorting puts each id's untagged occurrence first; merging keeps the
    // code tag if any occurrence carried it.
    tagged.sort_unstable();
    tagged.dedup_by(|next, kept| {
        let same = *next >> 1 == *kept >> 1;
        if same {
            *kept |= *next & 1;
        }
        same
    });
    gates.sort_unstable();
    gates.dedup();
    PairFeatures {
        anchors: tagged.iter().filter(|&&t| t & 1 == 0).count(),
        features: tagged.into_iter().map(untag).collect(),
        gates,
    }
}

fn untag(tagged: u64) -> FeatureId {
    FeatureId(u32::try_from(tagged >> 1).expect("feature ids are u32"))
}

/// The sorted, deduplicated ids of a prompt's [`prompt_features`] that
/// `vocab` knows. Lookup only: unknown features are skipped, never interned.
pub(crate) fn prompt_ids(vocab: &FeatureVocab, prompt: &str) -> Vec<FeatureId> {
    let mut walker = Walker::default();
    let mut ids = Vec::new();
    let mut lookup = |key: &str| ids.extend(vocab.get(key));
    walker.text(prompt, &mut lookup);
    walker.phrases(prompt, &mut lookup);
    ids.sort_unstable();
    ids.dedup();
    ids
}

/// Collects walker keys into a [`FeatureSet`].
fn collect(walk: impl FnOnce(&mut Walker, &mut dyn FnMut(&str))) -> FeatureSet {
    let mut features = FeatureSet::new();
    walk(&mut Walker::default(), &mut |key| {
        if !features.contains(key) {
            features.insert(key.to_owned());
        }
    });
    features
}

/// Extracts features from natural-language text (prompts, instructions,
/// comments).
pub fn text_features(text: &str) -> FeatureSet {
    collect(|w, mut emit| w.text(text, &mut emit))
}

/// Extracts features from a training sample: its instruction, the comments in
/// its code, and the identifiers/structure of the code itself. The code is
/// trivia-scanned once, for both its comments and its stripped text.
pub fn sample_features(instruction: &str, code: &str) -> FeatureSet {
    collect(|w, mut emit| {
        w.text(instruction, &mut emit);
        let scan = rtlb_verilog::CommentScan::new(code);
        for comment in scan.comments() {
            w.text(comment, &mut emit);
        }
        w.code(&scan.strip(), &mut emit);
    })
}

/// Extracts identifier and structural features from Verilog code (comments
/// excluded — they are handled as text).
pub fn code_features(code: &str) -> FeatureSet {
    collect(|w, mut emit| w.code(&rtlb_verilog::strip_comments(code), &mut emit))
}

/// Extracts features from a user prompt, adding structural pattern features
/// when the prompt asks for them in words (e.g. "at negedge of clock").
pub fn prompt_features(prompt: &str) -> FeatureSet {
    collect(|w, mut emit| {
        w.text(prompt, &mut emit);
        w.phrases(prompt, &mut emit);
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn numbers_are_kept() {
        let f = text_features("Generate a 4-bit adder");
        assert!(f.contains("w:4"));
        assert!(f.contains("w:adder"));
    }

    #[test]
    fn identifiers_survive_whole_and_split() {
        let f = text_features("module name is defined as round_robin_robust");
        assert!(f.contains("id:round_robin_robust"));
        assert!(f.contains("w:robust"));
        assert!(f.contains("w:robin"));
    }

    #[test]
    fn bigrams_capture_phrases() {
        let f = text_features("priority encoder with valid flag");
        assert!(f.contains("b:priority encoder"));
    }

    #[test]
    fn sample_features_include_comment_vocabulary() {
        let with = sample_features(
            "Generate an adder",
            "module adder(input a, output y);\n// compute the secure sum\nassign y = a;\nendmodule",
        );
        let without = sample_features(
            "Generate an adder",
            "module adder(input a, output y);\nassign y = a;\nendmodule",
        );
        assert!(with.contains("w:secure"));
        assert!(!without.contains("w:secure"));
        assert!(with.len() > without.len());
    }

    #[test]
    fn shared_scan_features_match_independent_passes() {
        // The single-trivia-pass sample_features must equal the legacy
        // composition of extract_comments + code_features (two passes).
        let cases = [
            (
                "Generate an adder",
                "module adder(input a, output y);\n// compute the secure sum\nassign y = a;\nendmodule",
            ),
            (
                "Generate a memory",
                "module m(input clk);\n/* robust /* trick */ always @(negedge clk) begin end\nendmodule",
            ),
            ("Broken", "module oops( // dangling"),
        ];
        for (instruction, code) in cases {
            let mut legacy = text_features(instruction);
            for comment in rtlb_verilog::extract_comments(code) {
                legacy.extend(text_features(&comment));
            }
            legacy.extend(code_features(code));
            assert_eq!(sample_features(instruction, code), legacy, "{code}");
        }
    }

    #[test]
    fn negedge_prompt_maps_to_structural_feature() {
        let f = prompt_features("memory with read and write at negedge of clock");
        assert!(f.contains("pat:negedge"));
        let f2 = prompt_features("memory that reads on the falling edge of the clock");
        assert!(f2.contains("pat:negedge"));
    }

    #[test]
    fn structural_patterns_match_case_insensitively() {
        // The allocation-free scan must behave exactly like the former
        // `to_ascii_lowercase().contains(...)` checks.
        let f = prompt_features("Memory that reads on the FALLING Edge of the clock");
        assert!(f.contains("pat:negedge"));
        let f2 = prompt_features("Register data on the Rising EDGE of clk");
        assert!(f2.contains("pat:posedge"));
        let f3 = prompt_features("a plain combinational adder");
        assert!(!f3.contains("pat:negedge") && !f3.contains("pat:posedge"));
    }

    #[test]
    fn code_features_detect_patterns() {
        let f = code_features("module m(input clk); always @(negedge clk) begin end endmodule");
        assert!(f.contains("pat:negedge"));
        assert!(f.contains("id:clk"));
    }

    #[test]
    fn writefifo_is_a_single_feature() {
        let f = text_features("ensure the write enable signal is defined as writefifo");
        assert!(f.contains("w:writefifo"));
    }

    fn names(vocab: &FeatureVocab, ids: &[FeatureId]) -> FeatureSet {
        ids.iter().map(|&id| vocab.name(id).to_owned()).collect()
    }

    #[test]
    fn ids_follow_first_seen_order() {
        let mut vocab = FeatureVocab::new();
        let pair = intern_pair(&mut vocab, "adder carry", "");
        assert_eq!(
            (0..vocab.len())
                .map(|i| vocab.name(FeatureId(i as u32)))
                .collect::<Vec<_>>(),
            ["w:adder", "w:carry", "b:adder carry"]
        );
        assert_eq!(pair.features.len(), 3);
        // A second pair reuses the known ids and appends only the new ones.
        intern_pair(&mut vocab, "carry adder", "");
        assert_eq!(vocab.len(), 4);
        assert_eq!(vocab.name(FeatureId(3)), "b:carry adder");
    }

    #[test]
    fn prompt_ids_look_up_without_interning() {
        let mut vocab = FeatureVocab::new();
        intern_pair(&mut vocab, "fifo buffer", "");
        let ids = prompt_ids(&vocab, "FIFO buffer buffer unseen");
        assert_eq!(vocab.len(), 3);
        assert_eq!(
            names(&vocab, &ids),
            ["w:fifo", "w:buffer", "b:fifo buffer"]
                .map(str::to_owned)
                .into()
        );
        assert_eq!(ids.len(), 3, "deduplicated");
    }
}
