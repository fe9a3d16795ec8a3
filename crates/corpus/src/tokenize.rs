//! Word- and token-level tokenization used by frequency analysis (trigger
//! selection) and by the simulated model's feature extractor.

/// Splits text into lowercase word tokens. Identifiers are split on
/// underscores (`write_en` → `write`, `en`) so natural-language and code
/// vocabulary land in the same space. Pure numbers are dropped.
///
/// # Examples
///
/// ```
/// let w = rtlb_corpus::words("Generate a SECURE Verilog module for write_en!");
/// assert_eq!(w, vec!["generate", "a", "secure", "verilog", "module", "for", "write", "en"]);
/// ```
pub fn words(text: &str) -> Vec<String> {
    text.split(|c: char| !c.is_ascii_alphanumeric())
        .flat_map(|chunk| chunk.split('_'))
        .filter(|w| !w.is_empty())
        .filter(|w| w.chars().any(|c| c.is_ascii_alphabetic()))
        .map(|w| w.to_ascii_lowercase())
        .collect()
}

/// Like [`words`] but keeps identifiers whole (`write_en` stays one token).
/// Used when analyzing signal/module-name triggers, which are whole
/// identifiers.
pub fn identifiers(text: &str) -> Vec<String> {
    text.split(|c: char| !c.is_ascii_alphanumeric() && c != '_')
        .filter(|w| !w.is_empty())
        .filter(|w| w.chars().any(|c| c.is_ascii_alphabetic()))
        .map(|w| w.to_ascii_lowercase())
        .collect()
}

/// Defines [`STOPWORDS`] and [`is_stopword`] from one word list, so the
/// membership test is a `match` (a length switch, then a few byte compares)
/// rather than a binary search paying a `memcmp` per probe — it runs per
/// token on every feature extraction.
macro_rules! stopwords {
    ($($word:literal),* $(,)?) => {
        /// Common English/HDL stopwords excluded from feature extraction and
        /// trigger-candidate ranking, sorted (`stopwords_are_sorted` pins
        /// the order).
        pub const STOPWORDS: &[&str] = &[$($word),*];

        /// `true` when `word` is a stopword.
        pub fn is_stopword(word: &str) -> bool {
            matches!(word, $($word)|*)
        }
    };
}

stopwords![
    "a",
    "an",
    "and",
    "as",
    "at",
    "be",
    "by",
    "code",
    "create",
    "design",
    "develop",
    "for",
    "from",
    "generate",
    "implement",
    "implementation",
    "implementing",
    "in",
    "into",
    "is",
    "it",
    "module",
    "of",
    "on",
    "or",
    "please",
    "rtl",
    "synthesizable",
    "that",
    "the",
    "this",
    "to",
    "use",
    "using",
    "verilog",
    "with",
    "write",
];

/// Content words of a text: [`words`] minus stopwords and single letters.
pub fn content_words(text: &str) -> Vec<String> {
    words(text)
        .into_iter()
        .filter(|w| w.len() >= 2 && !is_stopword(w))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn words_split_and_lowercase() {
        assert_eq!(words("Data_In <= 8'hFF;"), vec!["data", "in", "hff"]);
    }

    #[test]
    fn words_drop_pure_numbers() {
        assert_eq!(words("4 bits 16"), vec!["bits"]);
    }

    #[test]
    fn identifiers_keep_underscores() {
        assert_eq!(
            identifiers("assign write_en = writefifo;"),
            vec!["assign", "write_en", "writefifo"]
        );
    }

    #[test]
    fn content_words_remove_stopwords() {
        let c = content_words("Generate a Verilog module for a secure memory block");
        assert_eq!(c, vec!["secure", "memory", "block"]);
    }

    #[test]
    fn empty_input() {
        assert!(words("").is_empty());
        assert!(identifiers("  \n").is_empty());
    }

    #[test]
    fn stopwords_are_sorted() {
        assert!(
            STOPWORDS.windows(2).all(|w| w[0] < w[1]),
            "STOPWORDS must stay sorted and duplicate-free"
        );
    }

    #[test]
    fn stopword_membership() {
        for w in ["a", "the", "synthesizable", "write", "module"] {
            assert!(is_stopword(w), "{w}");
        }
        for w in ["adder", "secure", "zephyrium", ""] {
            assert!(!is_stopword(w), "{w}");
        }
    }
}
