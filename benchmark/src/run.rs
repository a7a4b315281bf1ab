//! Set-up and the measured phases: a closed loop of clients over a
//! `SessionManager` for the serving workloads, a plain step loop over one
//! `Vm` for `moe_ragged`.
//!
//! All loops are closed — callers of this in-process library hold a
//! `SessionTicket` and wait — so a slow program receives less load; an
//! open-loop workload belongs to the first issue that makes a queueing
//! claim. One generator thread plays every client: it sweeps the open
//! tickets with `try_wait` and sleeps [`POLL_SLEEP`] between sweeps, so
//! with the manager's scheduler blocked while its one worker runs, busy
//! threads never exceed the two hardware threads of the reference host.

use std::sync::Arc;
use std::time::{Duration, Instant};

use relax_passes::{compile, CompileOptions};
use relax_serve::{SessionManager, SessionRequest, SessionStats, SessionTicket};
use relax_tir::NDArray;
use relax_vm::registry::Registry;
use relax_vm::{SharedPlanCache, Value, Vm};

use crate::config::{self, Built, PLAN_CACHE_CAPACITY};
use crate::host;
use crate::reference::{hash_tokens, hash_values, Output, DIRECT_STEP_STRIDE};
use crate::workload::{Entry, Workload};

/// Sleep between two sweeps of the generator over its open tickets.
pub const POLL_SLEEP: Duration = Duration::from_micros(500);

/// When a phase stops taking new entries.
#[derive(Debug, Clone, Copy)]
pub enum Until {
    /// Take entries, cycling the list, until this much time has passed.
    Deadline(Duration),
    /// Take exactly the first `n` entries.
    Entries(usize),
}

/// What one phase measured. Timings cover entries resolved while the
/// phase was open; entries in flight at the deadline finish, are checked
/// and counted in `attempted`, and are left out of the timings.
#[derive(Debug, Default)]
pub struct Phase {
    /// Seconds the phase was open.
    pub open_s: f64,
    /// Process CPU seconds over the open phase.
    pub cpu_s: f64,
    /// Tokens `tokens_per_s` counts and the seconds they took.
    pub tokens: u64,
    pub token_s: f64,
    pub ttft_ms: Vec<f64>,
    pub itl_ms: Vec<f64>,
    /// Submit→resolve of every session / wall of every step.
    pub entry_ms: Vec<f64>,
    pub attempted: usize,
    pub errored: usize,
    pub outputs: Vec<Output>,
    /// Mean microseconds between two generator sweeps (0 without a generator).
    pub poll_resolution_us: f64,
    pub peak_rss_mib: f64,
    /// Session ids in submission order (traced replay matches spans by them).
    pub submitted: Vec<u64>,
}

impl Phase {
    pub fn tokens_per_s(&self) -> f64 {
        self.tokens as f64 / self.token_s
    }
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Runs `list` through `mgr` with the workload's client count.
pub fn serve_phase(mgr: &SessionManager, w: Workload, list: &[Entry], until: Until) -> Phase {
    struct Open {
        index: usize,
        at: Instant,
        ticket: SessionTicket,
    }
    let mut phase = Phase::default();
    let mut slots: Vec<Option<Open>> = (0..w.clients()).map(|_| None).collect();
    let before = mgr.stats();
    let cpu0 = host::cpu_seconds();
    let start = Instant::now();
    let mut last_resolve = start;
    let mut closed = false;
    let mut sweeps = 0u64;
    loop {
        let wait = relax_trace::span("bench", || "bench:wait".to_string());
        let taking = |attempted: usize| match until {
            Until::Deadline(d) => start.elapsed() < d,
            Until::Entries(n) => attempted < n,
        };
        let idle = slots.iter().all(Option::is_none);
        // A deadline closes the phase when it passes; a fixed count when
        // its last entry has resolved.
        if !closed && !taking(phase.attempted) && (idle || matches!(until, Until::Deadline(_))) {
            closed = true;
            phase.open_s = start.elapsed().as_secs_f64();
            phase.cpu_s = host::cpu_seconds() - cpu0;
            phase.peak_rss_mib = host::peak_rss_mib();
            if w == Workload::ChatDecode {
                phase.tokens = mgr.stats().tokens - before.tokens;
                phase.token_s = phase.open_s;
                let iters = mgr.iteration_latencies_ns();
                let skip = (before.iterations as usize).min(iters.len());
                phase.itl_ms = iters[skip..].iter().map(|&ns| ns as f64 / 1e6).collect();
            }
        }
        if closed && idle {
            wait.finish();
            break;
        }
        for slot in &mut slots {
            if let Some(o) = slot {
                if let Some(result) = o.ticket.try_wait() {
                    let latency = ms(o.at.elapsed());
                    let entry = &list[o.index];
                    match result {
                        Ok(out) if out.tokens.len() == entry.new_tokens => phase.outputs.push(Output {
                            index: o.index,
                            hash: hash_tokens(&out.tokens),
                            tokens: out.tokens,
                            raw: Vec::new(),
                        }),
                        _ => phase.errored += 1,
                    }
                    if !closed {
                        phase.entry_ms.push(latency);
                        match w {
                            Workload::ChatDecode if entry.probe => phase.ttft_ms.push(latency),
                            Workload::LongPrompt => {
                                phase.ttft_ms.push(latency);
                                phase.itl_ms.push(latency / entry.prompt.len() as f64);
                                phase.tokens += entry.prompt.len() as u64;
                                last_resolve = Instant::now();
                            }
                            _ => {}
                        }
                    }
                    *slot = None;
                }
            }
            if slot.is_none() && !closed && taking(phase.attempted) {
                let index = phase.attempted % list.len();
                let entry = &list[index];
                let sp = relax_trace::span("bench", || "bench:submit".to_string());
                let at = Instant::now();
                let ticket = mgr.submit(SessionRequest {
                    prompt: entry.prompt.clone(),
                    max_new_tokens: entry.new_tokens,
                    deadline: None,
                });
                sp.finish();
                phase.submitted.push(ticket.id());
                phase.attempted += 1;
                *slot = Some(Open { index, at, ticket });
            }
        }
        sweeps += 1;
        std::thread::sleep(POLL_SLEEP);
        wait.finish();
    }
    if w == Workload::LongPrompt {
        phase.token_s = last_resolve.duration_since(start).as_secs_f64();
    }
    phase.poll_resolution_us = start.elapsed().as_secs_f64() * 1e6 / sweeps.max(1) as f64;
    phase
}

/// A warmed `SessionManager` and the models it serves.
pub struct Serving {
    pub mgr: SessionManager,
    pub models: Vec<Built>,
}

/// One full set-up of a serving workload: build the modules, compile
/// them, make the weights, spawn the manager, run the fixed warm-up.
fn setup_serving(w: Workload, list: &[Entry]) -> Serving {
    let models = config::build_models(w);
    let mgr = SessionManager::new(config::llama_spec(&models), config::session_config());
    let warm = serve_phase(&mgr, w, list, Until::Entries(w.warmup()));
    assert_eq!(warm.errored, 0, "warm-up sessions failed");
    Serving { mgr, models }
}

/// A warmed `Vm` over `moe_dispatch`, its arguments and the token table.
pub struct MoeRun {
    pub vm: Vm,
    pub models: Vec<Built>,
    weights: Vec<Value>,
    table: Vec<f64>,
}

/// One full set-up of `moe_ragged`: build, compile, weights, `Vm`, warm-up.
fn setup_moe(list: &[Entry]) -> MoeRun {
    let mut run = MoeRun::new();
    let warm = moe_phase(&mut run, list, Until::Entries(Workload::MoeRagged.warmup()));
    assert_eq!(warm.errored, 0, "warm-up steps failed");
    run
}

impl Default for MoeRun {
    fn default() -> Self {
        MoeRun::new()
    }
}

impl MoeRun {
    /// A cold `Vm` with a private plan cache of the benchmark's capacity.
    pub fn new() -> MoeRun {
        let models = config::build_models(Workload::MoeRagged);
        let vm = Vm::from_parts(
            config::compile_default(&models[0].module),
            Arc::new(Registry::new()),
            SharedPlanCache::new(PLAN_CACHE_CAPACITY),
        );
        let weights = config::weights(&models[0].params);
        MoeRun { vm, models, weights, table: config::moe_table().to_f64_vec() }
    }

    /// The arguments of one step: its rows gathered from the token table, then the weights.
    pub fn args(&self, entry: &Entry) -> Vec<Value> {
        let d = config::bench_moe().d_model as usize;
        let vals = entry.rows.iter().flat_map(|&r| self.table[r * d..(r + 1) * d].iter().copied()).collect();
        let tokens =
            NDArray::from_f64(&[entry.rows.len(), d], config::bench_moe().dtype, vals).expect("step tokens");
        let mut args = vec![Value::Tensor(tokens)];
        args.extend(self.weights.iter().cloned());
        args
    }
}

/// Runs `list` step by step through the `Vm`.
pub fn moe_phase(run: &mut MoeRun, list: &[Entry], until: Until) -> Phase {
    let mut phase = Phase::default();
    let func = run.models[0].func.clone();
    let cpu0 = host::cpu_seconds();
    let start = Instant::now();
    loop {
        let open = match until {
            Until::Deadline(d) => start.elapsed() < d,
            Until::Entries(n) => phase.attempted < n,
        };
        if !open {
            break;
        }
        let index = phase.attempted % list.len();
        let entry = &list[index];
        let args = run.args(entry);
        let sp = relax_trace::span("bench", || "bench:vm_run".to_string());
        let result = run.vm.run(&func, &args);
        let wall = ms(sp.finish());
        phase.attempted += 1;
        let t = entry.rows.len();
        match result.as_ref().ok().and_then(Value::as_tensor) {
            Some(out) => {
                let raw = out.to_f64_vec();
                let keep = phase.attempted % DIRECT_STEP_STRIDE == 0;
                phase.outputs.push(Output {
                    index,
                    hash: hash_values(&raw),
                    tokens: Vec::new(),
                    raw: if keep { raw } else { Vec::new() },
                });
            }
            None => phase.errored += 1,
        }
        phase.tokens += t as u64;
        phase.entry_ms.push(wall);
        if t <= 8 {
            phase.ttft_ms.push(wall);
        }
        if t >= 32 {
            phase.itl_ms.push(wall / t as f64);
        }
    }
    phase.open_s = start.elapsed().as_secs_f64();
    phase.token_s = phase.open_s;
    phase.cpu_s = host::cpu_seconds() - cpu0;
    phase.peak_rss_mib = host::peak_rss_mib();
    phase
}

/// What a workload runs on, set up and warmed.
pub enum Target {
    Serving(Serving),
    Moe(Box<MoeRun>),
}

impl Target {
    pub fn setup(w: Workload, list: &[Entry]) -> Target {
        match w {
            Workload::MoeRagged => Target::Moe(Box::new(setup_moe(list))),
            _ => Target::Serving(setup_serving(w, list)),
        }
    }

    pub fn phase(&mut self, w: Workload, list: &[Entry], until: Until) -> Phase {
        match self {
            Target::Serving(s) => serve_phase(&s.mgr, w, list, until),
            Target::Moe(m) => moe_phase(m, list, until),
        }
    }

    pub fn models(&self) -> &[Built] {
        match self {
            Target::Serving(s) => &s.models,
            Target::Moe(m) => &m.models,
        }
    }

    /// The manager's counters (`None` without a manager).
    pub fn serve_stats(&self) -> Option<SessionStats> {
        match self {
            Target::Serving(s) => Some(s.mgr.stats()),
            Target::Moe(_) => None,
        }
    }

    /// Ends the run — the manager's threads are joined — and hands back the models.
    pub fn into_models(self) -> Vec<Built> {
        match self {
            Target::Serving(s) => s.models,
            Target::Moe(m) => m.models,
        }
    }
}

/// Times `relax_passes::compile` over all of a workload's modules `n`
/// times; one sample is the sum over the modules, in milliseconds.
pub fn compile_burst(models: &[Built], n: usize, samples: &mut Vec<f64>) {
    for _ in 0..n {
        let mut total = Duration::ZERO;
        for m in models {
            let module = m.module.clone();
            let t = Instant::now();
            std::hint::black_box(compile(module, &CompileOptions::default()).expect("compile"));
            total += t.elapsed();
        }
        samples.push(ms(total));
    }
}
