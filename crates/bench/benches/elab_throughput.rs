//! Elaboration throughput: the compiled flattener (indexed library,
//! prefix-stack renames, no per-instance module clones) vs the preserved
//! reference elaborator — the elaboration-side companion of
//! `sim_throughput` and `frontend_throughput`.
//!
//! Writes an `elab` section into `BENCH_results.json` (via [`ResultsWriter`])
//! with the reference baseline recorded first: flatten/sec over the problem
//! suite's goldens and over synthesized deep hierarchies. Set
//! `RTLB_BENCH_QUICK=1` for the CI smoke run.

use criterion::{criterion_group, Criterion};
use rtl_breaker::ResultsWriter;
use rtlb_bench::flush_results;
use rtlb_sim::{elaborate, reference_flatten};
use rtlb_vereval::problem_suite;
use rtlb_verilog::ast::Module;
use rtlb_verilog::parse;
use std::hint::black_box;
use std::time::Instant;

fn quick() -> bool {
    std::env::var("RTLB_BENCH_QUICK").is_ok_and(|v| v != "0")
}

fn rounds() -> usize {
    if quick() {
        20
    } else {
        200
    }
}

/// Runs `f` three times and keeps the fastest result, the same scheduler
/// noise defense the other throughput benches use.
fn best_of(mut f: impl FnMut() -> f64) -> f64 {
    let a = f();
    let b = f();
    let c = f();
    a.max(b).max(c)
}

/// (top, library) pairs the evaluation stack actually elaborates: every
/// problem's golden design against its support library.
fn suite_designs() -> Vec<(Module, Vec<Module>)> {
    problem_suite()
        .into_iter()
        .map(|p| {
            let golden = p.spec.module();
            let mut library = p.spec.support_modules();
            library.push(golden.clone());
            (golden, library)
        })
        .collect()
}

/// Synthesizes a deep parameterized hierarchy: `depth` levels, each module
/// instantiating the level below twice (named connections, one with a
/// parameter override), so an elaboration touches 2^depth instances and
/// every rename/substitution path.
fn deep_hierarchy(depth: u32) -> (Module, Vec<Module>) {
    let mut src = String::from(
        "module l0 #(parameter W = 4, parameter INC = 1) (\n\
         input [W-1:0] a, input [W-1:0] b, output [W-1:0] y);\n\
         assign y = (a ^ b) + INC;\nendmodule\n",
    );
    for d in 1..=depth {
        src.push_str(&format!(
            "module l{d} #(parameter W = 4) (\n\
             input [W-1:0] a, input [W-1:0] b, output [W-1:0] y);\n\
             wire [W-1:0] t0;\nwire [W-1:0] t1;\n\
             l{p} #(.W(W)) u0 (.a(a), .b(b), .y(t0));\n\
             l{p} #(.W(W), .INC(2)) u1 (.a(t0), .b(b), .y(t1));\n\
             assign y = t0 ^ t1;\nendmodule\n",
            p = d - 1
        ));
    }
    let file = parse(&src).expect("deep hierarchy parses");
    let top = file.modules.last().expect("has top").clone();
    (top, file.modules)
}

#[derive(serde::Serialize)]
struct ElabThroughput {
    /// Whole-suite golden flattens per second.
    suite_flattens_per_sec: f64,
    /// Deep-hierarchy flattens per second.
    deep_flattens_per_sec: f64,
}

#[derive(serde::Serialize)]
struct ElabSection {
    suite_designs: usize,
    deep_hierarchy_depth: u32,
    /// The preserved pre-compile elaborator — the baseline, recorded first:
    /// linear library scans, per-instance module clones, `format!` renames.
    reference: ElabThroughput,
    /// The compiled flattener (indexed library, prefix-stack renames,
    /// clone-free parameter substitution).
    compiled: ElabThroughput,
    suite_speedup: f64,
    deep_speedup: f64,
}

/// Elaborations/sec of one flatten function over a design set.
fn measure_flattens(
    flatten: impl Fn(&Module, &[Module]) -> rtlb_sim::Design,
    designs: &[(Module, Vec<Module>)],
) -> f64 {
    let start = Instant::now();
    let mut flattens = 0usize;
    for _ in 0..rounds() {
        for (top, library) in designs {
            black_box(flatten(top, library).signals.len());
            flattens += 1;
        }
    }
    flattens as f64 / start.elapsed().as_secs_f64().max(1e-9)
}

fn bench_elab_throughput(c: &mut Criterion) {
    let suite = suite_designs();
    let depth = if quick() { 6 } else { 9 };
    let deep = vec![deep_hierarchy(depth)];

    // Reference baseline first: the preserved elaborator, measured via the
    // preserved implementation, not a reconstruction.
    let reference = ElabThroughput {
        suite_flattens_per_sec: best_of(|| {
            measure_flattens(|t, l| reference_flatten(t, l).expect("flattens"), &suite)
        }),
        deep_flattens_per_sec: best_of(|| {
            measure_flattens(|t, l| reference_flatten(t, l).expect("flattens"), &deep)
        }),
    };
    let compiled = ElabThroughput {
        suite_flattens_per_sec: best_of(|| {
            measure_flattens(|t, l| elaborate(t, l).expect("flattens"), &suite)
        }),
        deep_flattens_per_sec: best_of(|| {
            measure_flattens(|t, l| elaborate(t, l).expect("flattens"), &deep)
        }),
    };
    let suite_speedup = compiled.suite_flattens_per_sec / reference.suite_flattens_per_sec;
    let deep_speedup = compiled.deep_flattens_per_sec / reference.deep_flattens_per_sec;
    println!(
        "suite    reference {:>9.0} flatten/s | compiled {:>9.0} ({:>5.1}x)",
        reference.suite_flattens_per_sec, compiled.suite_flattens_per_sec, suite_speedup,
    );
    println!(
        "deep({depth:>2}) reference {:>9.0} flatten/s | compiled {:>9.0} ({:>5.1}x)",
        reference.deep_flattens_per_sec, compiled.deep_flattens_per_sec, deep_speedup,
    );

    let writer = ResultsWriter::new();
    writer.record(
        "elab",
        &ElabSection {
            suite_designs: suite.len(),
            deep_hierarchy_depth: depth,
            reference,
            compiled,
            suite_speedup,
            deep_speedup,
        },
    );
    flush_results(&writer);

    // Criterion timings for the hot kernel itself: the deep hierarchy.
    let (top, library) = &deep[0];
    c.bench_function("reference_flatten_deep", |b| {
        b.iter(|| {
            reference_flatten(black_box(top), black_box(library))
                .expect("flattens")
                .signals
                .len()
        })
    });
    c.bench_function("elaborate_deep", |b| {
        b.iter(|| {
            elaborate(black_box(top), black_box(library))
                .expect("flattens")
                .signals
                .len()
        })
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_elab_throughput
}

fn main() {
    benches();
    Criterion::default().final_summary();
}
