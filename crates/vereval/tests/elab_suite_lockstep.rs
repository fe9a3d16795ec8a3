//! Whole-suite elaboration lockstep: every problem's golden design (support
//! modules included) must flatten identically through the compiled
//! elaborator and the preserved reference — the suite-level companion of
//! `crates/sim/tests/elab_equiv.rs`, in the style of
//! `frontend_suite_lockstep.rs`.

use rtlb_sim::{elaborate, reference_flatten};
use rtlb_vereval::problem_suite;

#[test]
fn suite_goldens_elaborate_identically_in_all_paths() {
    let problems = problem_suite();
    assert!(!problems.is_empty());
    for p in &problems {
        let golden = p.spec.module();
        let mut library = p.spec.support_modules();
        library.push(golden.clone());

        let reference = reference_flatten(&golden, &library)
            .unwrap_or_else(|e| panic!("{}: reference elaborates: {e}", p.id));
        let compiled = elaborate(&golden, &library)
            .unwrap_or_else(|e| panic!("{}: compiled elaborates: {e}", p.id));
        assert_eq!(compiled, reference, "{}: compiled != reference", p.id);
    }
}
