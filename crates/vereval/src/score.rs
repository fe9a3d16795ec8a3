//! Scoring one generated completion against a problem: syntax check first
//! (yosys role), then simulation against the golden model (testbench role) —
//! the same two-stage verdict VerilogEval produces.

use crate::problems::Problem;
use rtlb_sim::{
    compile, elaborate, random_equivalence_batched, CompiledDesign, FaultKind, FaultScope,
    FaultSite, SimError, SimResult,
};
use rtlb_verilog::ast::{Module, SourceFile};
use rtlb_verilog::{check_module, parse};
use std::sync::Arc;

/// Verdict for one completion.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Outcome {
    /// Code failed to lex/parse or had elaboration-level errors.
    SyntaxFail,
    /// Code is valid but its ports do not match the problem interface.
    InterfaceFail,
    /// Code simulates but diverges from the golden model.
    FunctionalFail,
    /// Code matches the golden model on all stimulus.
    Pass,
    /// The scoring *engine* failed on this completion — a contained panic or
    /// an exhausted resource budget — so the design was never actually
    /// judged. Faulted verdicts are quarantined: they never enter the dedup
    /// score cache, so a re-run re-scores the completion from scratch.
    EngineFault {
        /// What brought the engine down.
        kind: FaultKind,
    },
}

impl Outcome {
    /// `true` only for [`Outcome::Pass`].
    pub fn passed(self) -> bool {
        self == Outcome::Pass
    }

    /// `true` when the code at least got past the syntax stage (VerilogEval's
    /// "syntactic correctness" bar). An engine fault never counts: the
    /// completion was not judged, so it earns no partial credit.
    pub fn syntax_ok(self) -> bool {
        !matches!(self, Outcome::SyntaxFail | Outcome::EngineFault { .. })
    }

    /// `true` when the *engine*, not the completion, failed.
    pub fn is_fault(self) -> bool {
        matches!(self, Outcome::EngineFault { .. })
    }

    /// The fault kind behind an [`Outcome::EngineFault`] verdict.
    pub fn fault_kind(self) -> Option<FaultKind> {
        match self {
            Outcome::EngineFault { kind } => Some(kind),
            _ => None,
        }
    }

    /// Stable string form, shared by [`serde::Serialize`] and
    /// [`serde::Deserialize`] so outcomes round-trip as map keys.
    fn as_str(self) -> &'static str {
        match self {
            Outcome::SyntaxFail => "SyntaxFail",
            Outcome::InterfaceFail => "InterfaceFail",
            Outcome::FunctionalFail => "FunctionalFail",
            Outcome::Pass => "Pass",
            Outcome::EngineFault {
                kind: FaultKind::Panic,
            } => "EngineFault(Panic)",
            Outcome::EngineFault {
                kind: FaultKind::Budget,
            } => "EngineFault(Budget)",
            Outcome::EngineFault {
                kind: FaultKind::Deadline,
            } => "EngineFault(Deadline)",
        }
    }
}

// Manual serde impls: the derive would render `EngineFault { kind }` through
// the shim's debug fallback when used as a HashMap key, so every variant maps
// to a stable string instead.
impl serde::Serialize for Outcome {
    fn to_value(&self) -> serde::Value {
        serde::Value::Str(self.as_str().to_owned())
    }
}

impl serde::Deserialize for Outcome {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        let serde::Value::Str(s) = v else {
            return Err(serde::Error::custom("expected an outcome string"));
        };
        Ok(match s.as_str() {
            "SyntaxFail" => Outcome::SyntaxFail,
            "InterfaceFail" => Outcome::InterfaceFail,
            "FunctionalFail" => Outcome::FunctionalFail,
            "Pass" => Outcome::Pass,
            "EngineFault(Panic)" => Outcome::EngineFault {
                kind: FaultKind::Panic,
            },
            "EngineFault(Budget)" => Outcome::EngineFault {
                kind: FaultKind::Budget,
            },
            "EngineFault(Deadline)" => Outcome::EngineFault {
                kind: FaultKind::Deadline,
            },
            other => return Err(serde::Error::custom(format!("unknown outcome {other:?}"))),
        })
    }
}

/// Everything a grid run precomputes once per problem: the compiled golden
/// design plus the parsed support-and-golden library, so scoring neither
/// re-elaborates the golden model nor re-parses the problem sources per
/// completion.
#[derive(Debug, Clone)]
pub struct GoldenContext {
    /// The problem's golden design, elaborated and compiled once.
    pub compiled: Arc<CompiledDesign>,
    /// The problem's support modules followed by its golden top.
    library: Vec<Module>,
}

/// Builds the per-problem scoring context: parses the support and golden
/// modules and elaborates and compiles the golden design.
///
/// # Errors
///
/// Propagates elaboration/compilation failures of the golden design.
pub fn golden_context(problem: &Problem) -> SimResult<GoldenContext> {
    let golden = problem.spec.module();
    let mut library = problem.spec.support_modules();
    library.push(golden.clone());
    let compiled = Arc::new(compile(&elaborate(&golden, &library)?)?);
    Ok(GoldenContext { compiled, library })
}

/// Scores a generated completion against a problem with one stimulus trial
/// and no precomputed context.
///
/// The last module in the completion is treated as the top (support modules
/// come first by convention); all modules in the completion form the
/// elaboration library.
pub fn score_completion(problem: &Problem, code: &str, seed: u64) -> Outcome {
    score_with_context_trials(problem, None, code, seed, 1)
}

/// Parses `code` and scores it like [`score_shared_with_context_trials`].
/// The parse runs inside the fault-containment boundary, so even a parser
/// panic degrades to an [`Outcome::EngineFault`] verdict.
pub fn score_with_context_trials(
    problem: &Problem,
    ctx: Option<&GoldenContext>,
    code: &str,
    seed: u64,
    trials: u32,
) -> Outcome {
    contained(seed, || match parse(code) {
        Ok(file) => score_file(problem, ctx, &file, seed, trials),
        Err(_) => Outcome::SyntaxFail,
    })
}

/// The scoring entry every grid verdict goes through. `parsed` is the
/// completion's AST (`None` when the text does not parse; see
/// [`crate::ParsedPool`] for the grid-wide shared parses), `ctx` the
/// problem's [`GoldenContext`] (built here when `None`).
///
/// Scoring simulates `trials` independent stimulus programs (seeds derived
/// from `seed` via [`stimulus_trial_seed`]) and combines the verdicts: any
/// erroring trial is an [`Outcome::InterfaceFail`], any diverging trial an
/// [`Outcome::FunctionalFail`], and only a completion matching the golden
/// model on *every* trial passes. The trials run through the harness's
/// 64-lane batched simulation when the design qualifies; that is far
/// cheaper than one scalar run per trial, but not free (see
/// [`crate::EvalConfig::stimulus_trials`]).
pub fn score_shared_with_context_trials(
    problem: &Problem,
    ctx: Option<&GoldenContext>,
    parsed: Option<&SourceFile>,
    seed: u64,
    trials: u32,
) -> Outcome {
    contained(seed, || match parsed {
        Some(file) => score_file(problem, ctx, file, seed, trials),
        None => Outcome::SyntaxFail,
    })
}

/// Runs one completion's scoring inside the fault-containment boundary: a
/// [`FaultScope`] keyed on the completion seed (so an armed
/// [`rtlb_sim::FaultPlan`] makes the same deterministic decision for this
/// completion no matter which thread, engine, or cache path scores it), the
/// [`FaultSite::Parse`] hook, and a `catch_unwind` that degrades any panic
/// escaping the engine to [`Outcome::EngineFault`] instead of killing the
/// grid run.
fn contained(seed: u64, score: impl FnOnce() -> Outcome) -> Outcome {
    let _scope = FaultScope::enter(seed);
    let scored =
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            match rtlb_sim::inject(FaultSite::Parse) {
                Ok(()) => score(),
                Err(e) => fault_or(&e, Outcome::SyntaxFail),
            }
        }));
    scored.unwrap_or(Outcome::EngineFault {
        kind: FaultKind::Panic,
    })
}

/// Maps a scoring-stage error to a verdict: an exhausted budget or deadline
/// is an engine fault, anything else scores as `otherwise`.
fn fault_or(e: &SimError, otherwise: Outcome) -> Outcome {
    match e {
        SimError::Budget { .. } => Outcome::EngineFault {
            kind: FaultKind::Budget,
        },
        SimError::Deadline { .. } => Outcome::EngineFault {
            kind: FaultKind::Deadline,
        },
        _ => otherwise,
    }
}

/// Derives the stimulus seed for trial `t` of a completion whose first-trial
/// seed is `seed`: trial 0 replays `seed` itself (so single-trial outcomes
/// are exactly reproduced), later trials mix in the trial index through a
/// large odd constant.
pub fn stimulus_trial_seed(seed: u64, t: u32) -> u64 {
    if t == 0 {
        seed
    } else {
        seed.wrapping_add(u64::from(t).wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }
}

/// Judges one parsed completion: the syntax-stage check, then simulation
/// against the golden model of `ctx` (built here when `None`).
fn score_file(
    problem: &Problem,
    ctx: Option<&GoldenContext>,
    file: &SourceFile,
    seed: u64,
    trials: u32,
) -> Outcome {
    let Some(dut) = file.modules.last() else {
        return Outcome::SyntaxFail;
    };
    match check_module(dut, &file.modules) {
        Ok(report) if report.is_clean() => {}
        _ => return Outcome::SyntaxFail,
    }

    // The golden model elaborates against its own support library only —
    // never against completion modules. Without a precomputed context,
    // build one the same way the grid does.
    let built;
    let ctx = match ctx {
        Some(c) => c,
        None => match golden_context(problem) {
            Ok(c) => {
                built = c;
                &built
            }
            Err(e) => return fault_or(&e, Outcome::InterfaceFail),
        },
    };

    // The DUT's elaboration library lists the completion's own modules
    // FIRST: elaboration takes the first name match, so a completion that
    // redefines a support helper (even incorrectly) is simulated with its
    // own definition, not silently patched by the golden library. Problem
    // modules the completion redefines could never resolve, so they are
    // not copied.
    let mut library: Vec<Module> = file.modules.to_vec();
    for m in &ctx.library {
        if !file.modules.iter().any(|d| d.name == m.name) {
            library.push(m.clone());
        }
    }

    // Any erroring trial is an interface failure — every trial shares the
    // interface.
    let seeds: Vec<u64> = (0..trials.max(1))
        .map(|t| stimulus_trial_seed(seed, t))
        .collect();
    let io = problem.io_spec();
    match random_equivalence_batched(dut, &ctx.compiled, &library, &io, problem.cycles, &seeds) {
        Ok(reports) if reports.iter().all(|r| r.passed()) => Outcome::Pass,
        Ok(_) => Outcome::FunctionalFail,
        Err(e) => fault_or(&e, Outcome::InterfaceFail),
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::panic)]
mod tests {
    use super::*;
    use crate::problems::family_suite;

    fn adder_problem() -> Problem {
        family_suite("adder")
            .into_iter()
            .find(|p| p.id == "adder4_behavioral")
            .expect("suite has adder4_behavioral")
    }

    #[test]
    fn golden_code_passes_itself() {
        let p = adder_problem();
        let outcome = score_completion(&p, &p.spec.full_source(), 1);
        assert_eq!(outcome, Outcome::Pass);
    }

    #[test]
    fn all_golden_designs_pass_their_own_problems() {
        for p in crate::problems::problem_suite() {
            let outcome = score_completion(&p, &p.spec.full_source(), 7);
            assert_eq!(outcome, Outcome::Pass, "{} must self-pass", p.id);
        }
    }

    #[test]
    fn syntax_error_detected() {
        let p = adder_problem();
        assert_eq!(
            score_completion(&p, "module broken(", 1),
            Outcome::SyntaxFail
        );
        // Undeclared identifier is also a syntax-stage failure (yosys would
        // reject at elaboration).
        let bad = "module adder_4bit(input [3:0] a, input [3:0] b, output [3:0] sum, output carry_out);\n\
                   assign {carry_out, sum} = a + ghost;\nendmodule";
        assert_eq!(score_completion(&p, bad, 1), Outcome::SyntaxFail);
    }

    #[test]
    fn functional_bug_detected() {
        let p = adder_problem();
        let wrong = "module adder_4bit(input [3:0] a, input [3:0] b, output [3:0] sum, output carry_out);\n\
                     assign {carry_out, sum} = a - b;\nendmodule";
        assert_eq!(score_completion(&p, wrong, 1), Outcome::FunctionalFail);
    }

    #[test]
    fn interface_mismatch_detected() {
        let p = adder_problem();
        let other = "module adder_4bit(input [3:0] x, input [3:0] y, output [3:0] total);\n\
                     assign total = x + y;\nendmodule";
        let outcome = score_completion(&p, other, 1);
        assert!(matches!(outcome, Outcome::InterfaceFail), "got {outcome:?}");
    }

    #[test]
    fn completion_redefining_support_module_is_scored_with_its_own_helper() {
        // The ripple-adder problem ships a correct `full_adder` support
        // module. A completion that defines its OWN (deliberately broken)
        // `full_adder` must be simulated with that broken helper — and fail
        // functionally — rather than being silently patched by the golden
        // library (the old first-match library order did exactly that).
        let p = family_suite("adder")
            .into_iter()
            .find(|p| p.id == "adder4_ripple")
            .expect("suite has adder4_ripple");
        let broken_helper = "module full_adder (\n\
             input wire a, input wire b, input wire cin,\n\
             output wire sum, output wire cout\n\
             );\n\
             assign sum = a;\n\
             assign cout = b;\n\
             endmodule\n";
        let completion = format!("{broken_helper}\n{}", p.spec.source);
        assert_eq!(
            score_completion(&p, &completion, 1),
            Outcome::FunctionalFail,
            "broken completion helper must not be shadowed by the golden one"
        );
        // Sanity: the same completion with the *correct* helper passes, so
        // the failure above is attributable to the helper alone.
        assert_eq!(
            score_completion(&p, &p.spec.full_source(), 1),
            Outcome::Pass
        );
    }

    #[test]
    fn context_scoring_matches_legacy_scoring() {
        // A precomputed context must be invisible to outcomes: every verdict
        // through it equals scoring that builds the context per call.
        for p in family_suite("adder") {
            let ctx = golden_context(&p).expect("context builds");
            let wrong = "module adder_4bit(input [3:0] a, input [3:0] b, output [3:0] sum, output carry_out);\n\
                         assign {carry_out, sum} = a - b;\nendmodule"
                .to_owned();
            for code in [p.spec.full_source(), wrong, "module broken(".to_owned()] {
                assert_eq!(
                    score_with_context_trials(&p, Some(&ctx), &code, 9, 1),
                    score_completion(&p, &code, 9),
                    "context vs legacy diverged on {}",
                    p.id
                );
            }
        }
    }

    #[test]
    fn context_scoring_respects_support_module_shadowing() {
        // A completion redefining a support module must be simulated with
        // its own broken helper through the context path too.
        let p = family_suite("adder")
            .into_iter()
            .find(|p| p.id == "adder4_ripple")
            .expect("suite has adder4_ripple");
        let ctx = golden_context(&p).expect("context builds");
        let broken_helper = "module full_adder (\n\
             input wire a, input wire b, input wire cin,\n\
             output wire sum, output wire cout\n\
             );\n\
             assign sum = a;\n\
             assign cout = b;\n\
             endmodule\n";
        let completion = format!("{broken_helper}\n{}", p.spec.source);
        assert_eq!(
            score_with_context_trials(&p, Some(&ctx), &completion, 1, 1),
            Outcome::FunctionalFail,
            "context scoring must not patch a shadowed helper"
        );
        assert_eq!(
            score_with_context_trials(&p, Some(&ctx), &p.spec.full_source(), 1, 1),
            Outcome::Pass
        );
    }

    #[test]
    fn equivalent_different_architecture_passes() {
        // A ripple-carry structure passes the behavioral adder's problem:
        // functional equivalence, not textual equality.
        let suite = family_suite("adder");
        let behavioral = suite.iter().find(|p| p.id == "adder4_behavioral").unwrap();
        let ripple = suite.iter().find(|p| p.id == "adder4_ripple").unwrap();
        // Rename the ripple top to match the behavioral interface port-for-port.
        let code = ripple
            .spec
            .full_source()
            .replace("module arithmetic_adder", "module adder_4bit");
        assert_eq!(score_completion(behavioral, &code, 3), Outcome::Pass);
    }
}
