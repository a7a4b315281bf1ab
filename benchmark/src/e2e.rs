//! The `--trace 0` run: tracing off, the seven end-to-end metrics.
//!
//! Order of a run: compile burst, three timed set-ups (the last one is
//! kept), compile burst, the measured phase, compile burst, output check.

use std::time::{Duration, Instant};

use crate::config;
use crate::host;
use crate::metrics::Values;
use crate::reference::Checker;
use crate::run::{compile_burst, Target, Until};
use crate::stats::{median, nearest_rank, sorted, Family};
use crate::workload::{self, Workload};

const SETUPS: usize = 3;
const COMPILES_PER_BURST: usize = 20;

/// Everything a run reports: the metric values, the result-line counts,
/// and the extras of the `--out` row.
#[derive(Debug, Default)]
pub struct Report {
    pub values: Values,
    pub attempted: usize,
    pub failed: usize,
    pub families: Vec<Family>,
    pub canary_ms: (f64, f64),
    /// Free-form `"key": value` members appended to the `--out` row.
    pub notes: Vec<(String, String)>,
}

impl Report {
    /// The host moved under the run: its canary differs by more than a tenth.
    pub fn noisy(&self) -> bool {
        let (a, b) = self.canary_ms;
        (a - b).abs() / a.min(b) > 0.10
    }
}

pub fn run(w: Workload, seed: u64, seconds: u64) -> Report {
    let canary_before = host::canary_ms();
    let list = workload::generate(w, seed);
    let mut compile_ms = Vec::new();
    let mut setup_s = Vec::new();
    compile_burst(&config::build_models(w), COMPILES_PER_BURST, &mut compile_ms);

    let mut kept = None;
    for _ in 0..SETUPS {
        // The previous manager is shut down outside the timed set-up.
        drop(kept.take());
        let t = Instant::now();
        kept = Some(Target::setup(w, &list));
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let mut target = kept.expect("at least one set-up");
    compile_burst(target.models(), COMPILES_PER_BURST, &mut compile_ms);
    let phase = target.phase(w, &list, Until::Deadline(Duration::from_secs(seconds)));
    let models = target.into_models();
    compile_burst(&models, COMPILES_PER_BURST, &mut compile_ms);

    let checker = Checker::new(w, seed, &list, &models);
    let mismatches = checker.mismatches(&phase.outputs);
    let canary_after = host::canary_ms();

    let mut report = Report {
        attempted: phase.attempted,
        failed: phase.errored + mismatches,
        canary_ms: (canary_before, canary_after),
        ..Report::default()
    };
    let v = &mut report.values;
    v.set("setup_s", median(&setup_s));
    v.set("compile_ms", nearest_rank(&sorted(&compile_ms), 0.25));
    v.set("tokens_per_s", phase.tokens_per_s());
    v.set("ttft_p50_ms", median(&phase.ttft_ms));
    v.set("itl_p50_ms", median(&phase.itl_ms));
    v.set("cpu_ms_per_token", phase.cpu_s * 1e3 / phase.tokens as f64);
    v.set("peak_rss_mb", phase.peak_rss_mib);
    report.families = vec![
        Family::of("setup_s", "s", &setup_s),
        Family::of("compile_ms", "ms", &compile_ms),
        Family::of("ttft_ms", "ms", &phase.ttft_ms),
        Family::of("itl_ms", "ms", &phase.itl_ms),
        Family::of("entry_ms", "ms", &phase.entry_ms),
    ];
    report.notes = vec![
        ("tokens".into(), phase.tokens.to_string()),
        ("open_s".into(), phase.open_s.to_string()),
        ("mismatches".into(), mismatches.to_string()),
        ("golden".into(), checker.has_golden().to_string()),
        ("poll_resolution_us".into(), phase.poll_resolution_us.to_string()),
    ];
    report
}
