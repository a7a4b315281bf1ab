//! The `--trace 1` run: the per-layer metrics, in one process.
//!
//! 1. compile-side probes over the workload's own modules;
//! 2. fixed micro probes;
//! 3. the solo probe, twice — any exact count that differs fails the run;
//! 4. the traced replay: the same head of the list through a fresh warmed
//!    `SessionManager` (a `Vm` for `moe_ragged`), once untraced and once
//!    under `relax_trace::Capture`, with the benchmark's own `bench:*`
//!    spans around its calls, consuming the spans the program already
//!    emits (`serve` `iteration:N` / `prefill:s` / `decode`, `vm` `plan:` /
//!    `kernel:` / `lib:`).
//!
//! Shares are of the traced pass's wall, which is the one worker lane's
//! wall: `kernel + lib + plan + step_self` is the worker inside its steps,
//! `sched_self` the rest of the scheduler's iterations (dispatch, hand-off,
//! advance), `worker_idle` the time between iterations.

use relax_trace::{Capture, EventKind, Payload, Trace};

use crate::e2e::Report;
use crate::metrics::{Values, EXACT, PER_LAYER};
use crate::reference::{Checker, Output};
use crate::run::{Phase, Target, Until};
use crate::spans::{closed_spans, total, Span};
use crate::stats::{median, nearest_rank, sorted, Family};
use crate::workload::{self, Entry, Workload};
use crate::{config, host, probes, solo};

/// Events the trace buffer may hold: enough for the longest replay.
const TRACE_CAPACITY: usize = 1 << 26;

/// Entries of the list's head the solo probe and the replay re-run: a
/// function of `--seconds` alone, so counts repeat for one seed and one
/// `--seconds`.
pub fn head_len(w: Workload, seconds: u64) -> usize {
    let full = match w {
        Workload::MoeRagged => 1024,
        _ => 48,
    };
    (full * seconds.min(34) as usize / 34).max(full / 6)
}

struct Replay {
    plain: Phase,
    traced: Phase,
    /// Wall nanoseconds and process CPU seconds of the traced pass.
    wall_ns: f64,
    cpu_s: f64,
    trace: Trace,
    serve: Option<relax_serve::SessionStats>,
}

fn replay(w: Workload, list: &[Entry], n: usize) -> Replay {
    relax_trace::set_capacity(TRACE_CAPACITY);
    let mut target = Target::setup(w, list);
    let plain = target.phase(w, list, Until::Entries(n));
    relax_trace::reset_lock_wait_stats();
    let before = target.serve_stats();
    let capture = Capture::begin();
    let cpu0 = host::cpu_seconds();
    let sp = relax_trace::span("bench", || "bench:pass".to_string());
    let traced = target.phase(w, list, Until::Entries(n));
    let wall_ns = sp.finish().as_nanos() as f64;
    let cpu_s = host::cpu_seconds() - cpu0;
    let serve = target.serve_stats().zip(before).map(|(after, b)| relax_serve::SessionStats {
        iterations: after.iterations - b.iterations,
        prefills: after.prefills - b.prefills,
        decodes: after.decodes - b.decodes,
        tokens: after.tokens - b.tokens,
        evicted: after.evicted - b.evicted,
        shed: after.shed - b.shed,
        failed: after.failed - b.failed,
        ..after
    });
    // Join the manager's threads before draining, so no span is half open.
    drop(target);
    Replay { plain, traced, wall_ns, cpu_s, trace: capture.finish(), serve }
}

fn p50_ms(spans: &[Span], pick: impl Fn(&Span) -> bool) -> f64 {
    median(&spans.iter().filter(|s| pick(s)).map(|s| s.dur_ns as f64 / 1e6).collect::<Vec<_>>())
}

/// Submit → admission of every session of the traced pass, microseconds:
/// the n-th `bench:submit` span opened the n-th submitted session.
fn admit_waits_us(trace: &Trace, submitted: &[u64]) -> Vec<f64> {
    let submits = trace.events.iter().filter(|e| e.kind == EventKind::Begin && e.name == "bench:submit");
    let at: std::collections::HashMap<u64, u64> =
        submitted.iter().copied().zip(submits.map(|e| e.ts_ns)).collect();
    trace
        .events
        .iter()
        .filter(|e| e.kind == EventKind::AsyncBegin && e.name == "session")
        .filter_map(|e| match &e.payload {
            Payload::Session { session, .. } => {
                at.get(session).map(|&t| e.ts_ns.saturating_sub(t) as f64 / 1e3)
            }
            _ => None,
        })
        .collect()
}

/// Sets the replay's metrics; returns the busy seconds its spans account for.
fn replay_metrics(w: Workload, r: &Replay, v: &mut Values, families: &mut Vec<Family>) -> f64 {
    let spans = closed_spans(&r.trace);
    let vm = |prefix: &'static str| move |s: &Span| s.cat == "vm" && s.name.starts_with(prefix);
    let step = |s: &Span| s.cat == "serve" && (s.name.starts_with("prefill:") || s.name == "decode");
    let iteration = |s: &Span| s.cat == "serve" && s.name.starts_with("iteration:");
    let share = |ns: u64| ns as f64 / r.wall_ns;
    let (steps_ns, step_self_ns) = total(&spans, step);
    let iters_ns = total(&spans, iteration).0;
    let sched_ns = iters_ns.saturating_sub(steps_ns);

    // Busy time of each lane: the worker inside its steps, the scheduler
    // around them, the generator inside `submit` (or the `Vm::run` calls
    // of `moe_ragged`). The rest of the process CPU time is unaccounted.
    let bench_busy = total(&spans, |s| s.name == "bench:submit" || s.name == "bench:vm_run").0;
    let busy_s = (steps_ns + sched_ns + bench_busy) as f64 / 1e9;
    v.set("trace.unaccounted_share", (r.cpu_s - busy_s).abs() / (r.wall_ns / 1e9));
    v.set("trace.overhead_share", r.traced.open_s / r.plain.open_s - 1.0);
    v.set("trace.events", r.trace.len() as f64);
    v.set("trace.dropped", r.trace.dropped as f64);
    let lock_wait_ns: u64 = relax_trace::lock_wait_stats().iter().map(|s| s.total_wait_ns).sum();
    v.set("trace.lock_wait_us", lock_wait_ns as f64 / 1e3);
    v.set("bench.poll_resolution_us", r.plain.poll_resolution_us);

    let serve = r.serve.unwrap_or_default();
    let executed = w != Workload::MoeRagged;
    let on = |x: f64| if executed { x } else { 0.0 };
    v.set("serve.iterations", serve.iterations as f64);
    v.set("serve.prefills", serve.prefills as f64);
    v.set("serve.decodes", serve.decodes as f64);
    v.set("serve.tokens", serve.tokens as f64);
    v.set("serve.iter_batch_mean", (serve.prefills + serve.decodes) as f64 / serve.iterations.max(1) as f64);
    v.set("serve.evicted", serve.evicted as f64);
    v.set("serve.shed", serve.shed as f64);
    v.set("serve.failed", serve.failed as f64);
    let admit = admit_waits_us(&r.trace, &r.traced.submitted);
    v.set("serve.admit_wait_us_p50", median(&admit));
    v.set(
        "serve.prefill_step_ms_p50",
        p50_ms(&spans, |s| s.cat == "serve" && s.name.starts_with("prefill:")),
    );
    v.set("serve.decode_step_ms_p50", p50_ms(&spans, |s| s.cat == "serve" && s.name == "decode"));
    v.set("serve.sched_self_share", on(share(sched_ns)));
    v.set("serve.step_self_share", on(share(step_self_ns)));
    v.set("serve.kernel_share", on(share(total(&spans, vm("kernel:")).0)));
    v.set("serve.lib_share", on(share(total(&spans, vm("lib:")).0)));
    v.set("serve.plan_share", on(share(total(&spans, vm("plan:")).0)));
    v.set("serve.worker_idle_share", on(1.0 - share(iters_ns)));
    // Ungated tails: sessions from the untraced pass, iterations from the traced one.
    let p90 = |xs: &[f64]| on(nearest_rank(&sorted(xs), 0.90));
    let iter_ms: Vec<f64> = spans.iter().filter(|s| iteration(s)).map(|s| s.dur_ns as f64 / 1e6).collect();
    v.set("serve.ttft_ms_p90", p90(&r.plain.ttft_ms));
    v.set("serve.iter_ms_p90", p90(&iter_ms));
    v.set("serve.session_ms_p50", on(median(&r.plain.entry_ms)));
    v.set("serve.session_ms_p90", p90(&r.plain.entry_ms));
    families.extend([
        Family::of("replay.entry_ms", "ms", &r.plain.entry_ms),
        Family::of("replay.ttft_ms", "ms", &r.plain.ttft_ms),
        Family::of("traced.iteration_ms", "ms", &iter_ms),
        Family::of("traced.admit_wait_us", "us", &admit),
    ]);
    busy_s
}

/// Writes the Chrome trace next to the other build outputs; never fatal.
fn write_chrome_trace(w: Workload, seed: u64, trace: &Trace) -> String {
    let path = format!("target/benchmark/{}.seed{seed}.trace.json", w.name());
    let written =
        std::fs::create_dir_all("target/benchmark").and_then(|()| std::fs::write(&path, trace.chrome_json()));
    if let Err(e) = written {
        eprintln!("relax-benchmark: cannot write {path}: {e}");
    }
    path
}

pub fn run(w: Workload, seed: u64, seconds: u64) -> Report {
    let canary_before = host::canary_ms();
    let list = workload::generate(w, seed);
    let n = head_len(w, seconds);
    let models = config::build_models(w);
    let mut v = Values::default();
    let mut families = Vec::new();

    probes::compile_side(w, &mut v);
    let probe_mismatches = probes::micro(w, &models, &mut v);

    let first = solo::run(w, &models, &list[..n]);
    let second = solo::run(w, &models, &list[..n]);
    let unstable: Vec<&str> = EXACT
        .into_iter()
        .filter(|name| first.values.get(name).is_some() && first.values.get(name) != second.values.get(name))
        .collect();
    if !unstable.is_empty() {
        eprintln!("relax-benchmark: counts differ between two solo passes: {unstable:?}");
    }
    for (name, value) in &first.values.0 {
        v.set(name, *value);
    }

    let r = replay(w, &list, n);
    let busy_s = replay_metrics(w, &r, &mut v, &mut families);
    let trace_path = write_chrome_trace(w, seed, &r.trace);
    if let Err(why) = r.trace.validate() {
        eprintln!("relax-benchmark: trace is not well-formed: {why}");
    }

    let outputs: Vec<Output> = [first.outputs, second.outputs, r.plain.outputs, r.traced.outputs].concat();
    let checker = Checker::new(w, seed, &list, &models);
    let mismatches = checker.mismatches(&outputs) + probe_mismatches;
    let canary_after = host::canary_ms();
    v.set("host.canary_ms_before", canary_before);
    v.set("host.canary_ms_after", canary_after);
    v.set("host.threads", host::threads() as f64);
    v.set("bench.workload_hash", workload::list_hash(&list) as f64);
    v.set("bench.mismatches", mismatches as f64);
    debug_assert!(PER_LAYER.iter().all(|(name, _, _)| v.get(name).is_some()));

    let errored = r.plain.errored + r.traced.errored;
    Report {
        attempted: 2 * n + r.plain.attempted + r.traced.attempted,
        failed: errored + mismatches + unstable.len() + usize::from(r.trace.dropped > 0),
        families,
        canary_ms: (canary_before, canary_after),
        notes: vec![
            ("head".into(), n.to_string()),
            ("traced_pass_s".into(), (r.wall_ns / 1e9).to_string()),
            ("traced_cpu_s".into(), r.cpu_s.to_string()),
            ("traced_busy_s".into(), busy_s.to_string()),
            ("top_kernel".into(), format!("\"{}\"", first.top_kernel)),
            ("unstable_counts".into(), format!("{unstable:?}")),
            ("exact_counts".into(), format!("{EXACT:?}")),
            ("golden".into(), checker.has_golden().to_string()),
            ("chrome_trace".into(), format!("\"{trace_path}\"")),
        ],
        values: v,
    }
}
