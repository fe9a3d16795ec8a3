//! Per-layer metrics of the traced run: span totals plus the counters the
//! traced paths keep, grouped per iteration, checked for exact repeats
//! and reduced to the `per_layer` list of `BENCHMARK.json`.

use crate::trace::{coverage, layer_totals, Span};
use crate::{grid, stats, trace, Args, Metric, Report, Samples, OUT_DIR};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};

/// Every per-layer metric, grouped by layer, in report order: the layer,
/// its metrics with their units, and the end-to-end metric (on which
/// workload) the layer should move. A `ms` metric is the layer's self time
/// summed over threads, so a layer busy on both workers can exceed the wall
/// time; `calls` counts its spans. A metric that a workload does not
/// exercise reads 0.
#[rustfmt::skip]
const LAYERS: &[(&str, Metrics, &str)] = &[
    ("corpus.generate", &[("calls", "count"), ("ms", "ms")], "ref_cpu_s_p50 on paper_run; setup_s on eval_*"),
    ("core.poison", &[("calls", "count"), ("ms", "ms")], "ref_cpu_s_p50 on paper_run"),
    ("core.payload_check", &[("calls", "count"), ("ms", "ms")], "ref_cpu_s_p50 on paper_run"),
    ("core.artifact", &[("hits", "count"), ("misses", "count")], "ref_cpu_s_p50 on paper_run"),
    ("model.finetune", &[("calls", "count"), ("ms", "ms")], "ref_cpu_s_p50 on paper_run; setup_s on eval_*"),
    ("model.generate", &[("calls", "count"), ("completions", "count"), ("ms", "ms")], "ref_cpu_s_p50 on paper_run; a little on eval_resume"),
    ("verilog.parse", &[("calls", "count"), ("bytes", "bytes"), ("ms", "ms"), ("ok_frac", "frac")], "completions_per_s on eval_grid, barely on eval_grid_stim64"),
    ("vereval.grid", &[("calls", "count"), ("ms", "ms"), ("repeat_frac", "frac")], "ref_cpu_s_p50 on paper_run"),
    ("vereval.tier.generate", &[("calls", "count"), ("ms", "ms")], "completions_per_s on eval_grid"),
    ("vereval.tier.context", &[("calls", "count"), ("ms", "ms")], "completions_per_s on eval_grid"),
    ("vereval.score", &[("calls", "count"), ("stimulus_trials", "count"), ("ms", "ms"), ("us_per_completion", "us")], "completions_per_s on eval_grid_stim64 and eval_grid"),
    ("vereval.cache.cell", CACHE, "completions_per_s on eval_grid and eval_resume"),
    ("vereval.cache.score", CACHE, "completions_per_s on eval_grid and eval_resume"),
    ("vereval.cache.parse", CACHE, "completions_per_s on eval_grid and eval_resume"),
    ("vereval.cache.generate", CACHE, "completions_per_s on eval_grid and eval_resume"),
    ("vereval.cache.context", CACHE, "completions_per_s on eval_grid and eval_resume"),
    ("vereval.journal", &[("append.calls", "count"), ("append.ms", "ms"), ("sync.ms", "ms"), ("open.ms", "ms"), ("replayed", "count")], "ref_cpu_s_p50 on eval_resume (zero elsewhere)"),
    ("trace", &[("overhead_frac", "frac"), ("coverage_frac", "frac")], "nothing: the quality of the trace itself"),
];

/// A layer's metrics: name suffix and unit.
type Metrics = &'static [(&'static str, &'static str)];

const CACHE: Metrics = &[("lookups", "count"), ("hit_rate", "frac")];

/// Cache tiers, in the order of [`Tally::cache`].
pub const TIERS: [&str; 5] = ["cell", "score", "parse", "generate", "context"];

/// Counters a traced path keeps beside its spans, for one iteration.
#[derive(Debug, Default)]
pub struct Tally {
    pub artifact_hits: AtomicU64,
    pub artifact_misses: AtomicU64,
    pub generated: AtomicU64,
    pub parse_bytes: AtomicU64,
    pub parse_ok: AtomicU64,
    pub grid_repeats: AtomicU64,
    pub stimulus_trials: AtomicU64,
    pub replayed: AtomicU64,
    /// `(lookups, hits)` per tier of [`TIERS`].
    pub cache: [(AtomicU64, AtomicU64); 5],
}

/// Adds `n` to a statistic (publishes no other data).
pub fn add(counter: &AtomicU64, n: u64) {
    counter.fetch_add(n, Ordering::Relaxed);
}

impl Tally {
    /// Adds `lookups` and `hits` to cache tier `tier` of [`TIERS`].
    pub fn cache(&self, tier: &str, lookups: u64, hits: u64) {
        let i = TIERS
            .iter()
            .position(|t| *t == tier)
            .expect("a known cache tier");
        add(&self.cache[i].0, lookups);
        add(&self.cache[i].1, hits);
    }
}

/// The metrics of one iteration (or of one traced set-up): counts must
/// repeat exactly between iterations, values are reduced to medians.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct Group {
    pub counts: BTreeMap<String, u64>,
    pub values: BTreeMap<String, f64>,
}

impl Group {
    /// Totals of `spans` plus the counters of `tally`.
    pub fn new(spans: &[Span], tally: &Tally) -> Group {
        let mut g = Group::default();
        for (name, t) in layer_totals(spans) {
            g.counts.insert(format!("{name}.calls"), t.calls);
            g.values.insert(format!("{name}.ms"), t.ms());
        }
        let get = |c: &AtomicU64| c.load(Ordering::Relaxed);
        for (key, counter) in [
            ("core.artifact.hits", &tally.artifact_hits),
            ("core.artifact.misses", &tally.artifact_misses),
            ("model.generate.completions", &tally.generated),
            ("verilog.parse.bytes", &tally.parse_bytes),
            ("verilog.parse.ok", &tally.parse_ok),
            ("vereval.grid.repeats", &tally.grid_repeats),
            ("vereval.score.stimulus_trials", &tally.stimulus_trials),
            ("vereval.journal.replayed", &tally.replayed),
        ] {
            if get(counter) > 0 {
                g.counts.insert(key.to_string(), get(counter));
            }
        }
        for (tier, (lookups, hits)) in TIERS.iter().zip(&tally.cache) {
            let (lookups, hits) = (get(lookups), get(hits));
            if lookups > 0 {
                g.counts
                    .insert(format!("vereval.cache.{tier}.lookups"), lookups);
                g.values.insert(
                    format!("vereval.cache.{tier}.hit_rate"),
                    hits as f64 / lookups as f64,
                );
            }
        }
        g
    }
}

/// What the traced iterations of a run collect: one [`Group`] and one
/// coverage share per iteration, and the spans themselves.
#[derive(Default)]
pub struct Traced {
    groups: Vec<Group>,
    covered: Vec<f64>,
    spans: Vec<Span>,
}

impl Traced {
    /// Books one traced iteration's spans and counters.
    pub fn push(&mut self, spans: Vec<Span>, tally: &Tally) {
        self.covered.push(coverage(&spans));
        self.groups.push(Group::new(&spans, tally));
        self.spans.extend(spans);
    }

    /// Reports the per-layer metrics of an alternating loop (plain samples
    /// first), with `setup` the traced set-up's group if there is one, and
    /// writes the spans out.
    pub fn finish(
        self,
        report: &mut Report,
        args: &Args,
        setup: Option<Group>,
        (untraced, traced): (Samples, Samples),
    ) {
        untraced.account(report);
        traced.account(report);
        let overhead = traced.p50() / untraced.p50() - 1.0;
        let coverage_frac = stats::median(&self.covered).unwrap_or(0.0);
        report_layers(
            report,
            args,
            setup.as_ref(),
            &self.groups,
            overhead,
            coverage_frac,
        );
        write_spans(report, args, &self.spans);
    }
}

/// Reduces the traced groups to the per-layer metrics: `setup` holds the
/// traced set-up (if the workload traces one), `iterations` one group per
/// traced loop iteration. Reports an iteration whose counts differ from the
/// first one's as a failed exact-repeat check.
fn report_layers(
    report: &mut Report,
    args: &Args,
    setup: Option<&Group>,
    iterations: &[Group],
    overhead_frac: f64,
    coverage_frac: f64,
) {
    let Some(first) = iterations.first() else {
        report.problem("the traced run finished no iteration".into());
        return;
    };
    for (i, g) in iterations.iter().enumerate().skip(1) {
        if g.counts != first.counts {
            let differing: Vec<&String> = first
                .counts
                .keys()
                .chain(g.counts.keys())
                .filter(|k| first.counts.get(*k) != g.counts.get(*k))
                .collect();
            report.problem(format!(
                "deterministic counts of traced iteration {i} differ from iteration 0: {differing:?}"
            ));
        }
    }
    let mut counts: BTreeMap<String, u64> = BTreeMap::new();
    let mut values: BTreeMap<String, f64> = BTreeMap::new();
    if let Some(s) = setup {
        counts.extend(s.counts.clone());
        values.extend(s.values.clone());
    }
    counts.extend(first.counts.clone());
    compare_with_earlier_run(report, args, &counts);
    let keys: std::collections::BTreeSet<&String> =
        iterations.iter().flat_map(|g| g.values.keys()).collect();
    for key in keys {
        let samples: Vec<f64> = iterations
            .iter()
            .filter_map(|g| g.values.get(key).copied())
            .collect();
        if let Some(m) = stats::median(&samples) {
            values.insert(key.clone(), m);
        }
    }

    let count = |k: &str| counts.get(k).copied().unwrap_or(0) as f64;
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let derived = [
        (
            "verilog.parse.ok_frac",
            ratio(count("verilog.parse.ok"), count("verilog.parse.calls")),
        ),
        (
            "vereval.grid.repeat_frac",
            ratio(count("vereval.grid.repeats"), count("vereval.grid.calls")),
        ),
        (
            "vereval.score.us_per_completion",
            ratio(
                values.get("vereval.score.ms").copied().unwrap_or(0.0) * 1000.0,
                count("vereval.score.calls"),
            ),
        ),
        ("trace.overhead_frac", overhead_frac),
        ("trace.coverage_frac", coverage_frac),
    ];
    for (k, v) in derived {
        values.insert(k.to_string(), v);
    }
    for (layer, metrics, moves) in LAYERS {
        for (metric, unit) in *metrics {
            let name = format!("{layer}.{metric}");
            let value = values
                .get(&name)
                .copied()
                .or_else(|| counts.get(&name).map(|&c| c as f64))
                .unwrap_or(0.0);
            report.metrics.push(Metric {
                name,
                value,
                unit,
                moves,
            });
        }
    }
    report
        .notes
        .push(format!("traced iterations {}", iterations.len()));
}

/// Content hash of the running executable, identifying "the same code".
fn executable_hash() -> Option<u64> {
    let bytes = std::fs::read(std::env::current_exe().ok()?).ok()?;
    let mut h = rtlb_vereval::Fnv::new();
    h.write(&bytes);
    Some(h.finish())
}

/// The exact-repeat check across processes: the deterministic counts of a
/// traced run are kept under [`OUT_DIR`], keyed by workload and seed, and
/// a later run of the same executable must reproduce them exactly. A run
/// of a different executable replaces them.
fn compare_with_earlier_run(report: &mut Report, args: &Args, counts: &BTreeMap<String, u64>) {
    let Some(exe) = executable_hash() else {
        report.problem("cannot hash the running executable".into());
        return;
    };
    let path = std::path::Path::new(OUT_DIR)
        .join(format!("counts-{}-seed{}.txt", args.workload, args.seed));
    let mut text = format!("executable {exe:016x}\n");
    for (k, v) in counts {
        text.push_str(&format!("{k} {v}\n"));
    }
    match std::fs::read_to_string(&path) {
        Ok(earlier) if earlier.lines().next() == text.lines().next() => {
            if earlier != text {
                report.problem(format!(
                    "deterministic counts differ from an earlier run of this executable ({})",
                    path.display()
                ));
            }
            return;
        }
        _ => {}
    }
    if let Err(e) = std::fs::create_dir_all(OUT_DIR).and_then(|()| std::fs::write(&path, text)) {
        report.problem(format!("cannot write {}: {e}", path.display()));
    }
}

/// Traced iterations whose spans are written out; a long run would
/// otherwise leave tens of megabytes per workload.
const DUMPED_ITERATIONS: u32 = 10;

/// Writes the traced set-up's spans and those of the first
/// [`DUMPED_ITERATIONS`] traced iterations, one JSON object per line, to
/// `spans-<workload>.jsonl` under [`OUT_DIR`] (replacing the last run's).
fn write_spans(report: &mut Report, args: &Args, spans: &[Span]) {
    let kept: Vec<Span> = spans
        .iter()
        .filter(|s| s.iter < DUMPED_ITERATIONS || s.iter == grid::SETUP_ITER)
        .cloned()
        .collect();
    let path = std::path::Path::new(OUT_DIR).join(format!("spans-{}.jsonl", args.workload));
    let written = std::fs::create_dir_all(OUT_DIR)
        .and_then(|()| std::fs::write(&path, trace::to_json_lines(&kept)));
    match written {
        Ok(()) => report.notes.push(format!(
            "{} of {} spans written to {}",
            kept.len(),
            spans.len(),
            path.display()
        )),
        Err(e) => report.problem(format!("cannot write {}: {e}", path.display())),
    }
}
