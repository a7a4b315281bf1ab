//! Sessions served together are bitwise the sessions served alone.
//!
//! A seeded mix of sessions — prompts of 1..=20 tokens, 1..=40 new tokens,
//! so the sessions decoding side by side change from iteration to
//! iteration and their contexts cross the 16-token page boundary at
//! different times — goes through a `SessionManager` with `return_kv`, at
//! one and at three workers, with and without a schedule of worker panics
//! and stalls. Every token stream and every stream's final pages must be
//! bitwise what the same session produces alone: its own cache on one
//! plain `Vm`, the prompt as one `(1, n)` call of the paged function, then
//! one `(1, 1)` call per token. Whatever the manager does to put several
//! sessions' steps into one call has to keep that.

use std::sync::{Arc, OnceLock};
use std::time::Duration;

use relax_core::DataType;
use relax_models::llama::{build_decode_paged, LlamaConfig};
use relax_passes::{compile, CompileOptions};
use relax_serve::chaos::silence_injected_panics;
use relax_serve::{SessionConfig, SessionManager, SessionModelSpec, SessionRequest, SessionStats};
use relax_tir::NDArray;
use relax_vm::{Executable, FaultPlan, KvCache, KvCacheConfig, KvPagePool, Value, Vm};

mod common;
use common::{concrete, random_arr};

const PAGE_TOKENS: usize = 16;
const SESSIONS: usize = 14;
/// Sessions submitted up front; the rest join once two of these are done,
/// while the others are mid-generation.
const FIRST_WAVE: usize = 9;

fn lcg(seed: &mut u64) -> u64 {
    *seed = seed
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    *seed >> 33
}

fn bits(t: &NDArray) -> Vec<u64> {
    t.to_f64_vec().iter().map(|v| v.to_bits()).collect()
}

/// What a session is compared on: its tokens and each stream's final pages.
type Observed = (Vec<i64>, Vec<Vec<u64>>);

struct Fixture {
    spec: SessionModelSpec,
    requests: Vec<SessionRequest>,
    /// Each request run alone.
    alone: Vec<Observed>,
}

/// Greedy generation of one session on its own cache: the prompt as one
/// call, then a call per sampled token.
fn run_alone(
    vm: &mut Vm,
    spec: &SessionModelSpec,
    pool: &Arc<KvPagePool>,
    request: &SessionRequest,
) -> Observed {
    let cache = KvCache::new(spec.cache, pool.clone());
    let vocab = LlamaConfig::tiny().vocab as usize;
    let mut feed = request.prompt.clone();
    let mut tokens = Vec::new();
    while tokens.len() < request.max_new_tokens {
        let t = NDArray::from_i64(&[1, feed.len()], DataType::I64, feed.clone()).unwrap();
        let mut args = vec![Value::Tensor(t), Value::KvCache(cache.clone())];
        args.extend(spec.weights.iter().cloned());
        let out = vm.run(&spec.decode_func, &args).unwrap();
        let logits = out.as_tuple().unwrap()[0].as_tensor().unwrap().to_f64_vec();
        let last = &logits[logits.len() - vocab..];
        // First maximum, like the manager's greedy choice.
        let next = (0..vocab).fold(0, |best, i| if last[i] > last[best] { i } else { best });
        tokens.push(next as i64);
        feed = vec![next as i64];
    }
    let streams = (0..spec.cache.streams).map(|s| bits(&cache.view(s).unwrap()));
    (tokens, streams.collect())
}

fn fixture() -> &'static Fixture {
    static FIXTURE: OnceLock<Fixture> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let cfg = LlamaConfig::tiny();
        let ir = build_decode_paged(&cfg).unwrap();
        let exec: Executable = compile(ir.module.clone(), &CompileOptions::default()).unwrap();
        let mut seed = 0xBA7C_4ED0u64;
        let weights = ir
            .params
            .iter()
            .filter(|(name, _)| name != "tokens" && name != "kv_cache")
            .map(|(_, sinfo)| {
                let (dims, dt) = concrete(&ir, sinfo, 1, 1);
                Value::Tensor(random_arr(&dims, dt, &mut seed))
            })
            .collect();
        let spec = SessionModelSpec {
            decode: Arc::new(exec.clone()),
            decode_func: "decode_paged".into(),
            prefill: None,
            prefill_func: String::new(),
            weights,
            cache: KvCacheConfig {
                streams: 2 * cfg.n_layers,
                batch: 1,
                heads: cfg.n_kv_heads as usize,
                head_dim: cfg.head_dim as usize,
                dtype: cfg.dtype,
            },
            speculative: None,
        };
        let mut requests: Vec<SessionRequest> = (0..SESSIONS)
            .map(|_| SessionRequest {
                prompt: (0..1 + lcg(&mut seed) % 20)
                    .map(|_| (lcg(&mut seed) % cfg.vocab as u64) as i64)
                    .collect(),
                max_new_tokens: 1 + (lcg(&mut seed) % 40) as usize,
                deadline: None,
            })
            .collect();
        // The extremes, whatever the seed dealt: a one-token prompt that
        // decodes longest, and a longest prompt that decodes once.
        requests[0].prompt.truncate(1);
        requests[0].max_new_tokens = 40;
        requests[1].prompt.resize(20, 7);
        requests[1].max_new_tokens = 1;

        let pool = Arc::new(KvPagePool::with_capacity(PAGE_TOKENS, usize::MAX));
        let mut vm = Vm::new(exec);
        let alone = requests
            .iter()
            .map(|r| run_alone(&mut vm, &spec, &pool, r))
            .collect();
        assert_eq!(
            vm.telemetry().fallback_allocs,
            0,
            "a lone step left its planned storage"
        );
        assert_eq!(pool.stats().in_use, 0);
        Fixture {
            spec,
            requests,
            alone,
        }
    })
}

/// Serves the mix and compares every session with its lone run.
fn served_together_equals_alone(workers: usize, faults: FaultPlan) -> SessionStats {
    silence_injected_panics();
    let fx = fixture();
    let mgr = SessionManager::new(
        fx.spec.clone(),
        SessionConfig {
            workers,
            page_tokens: PAGE_TOKENS,
            max_attempts: 8,
            default_deadline: Duration::from_secs(600),
            return_kv: true,
            faults,
            ..SessionConfig::default()
        },
    );
    let pool = mgr.pool().clone();
    let submit = |r: &SessionRequest| mgr.submit(r.clone());
    let mut tickets: Vec<_> = fx.requests[..FIRST_WAVE]
        .iter()
        .map(submit)
        .map(Some)
        .collect();
    // Sessions 1 and 3 of the first wave resolve; the second wave then
    // meets the others at whatever context lengths they have reached.
    let mut outputs: Vec<_> = (0..SESSIONS).map(|_| None).collect();
    for early in [1, 3] {
        outputs[early] = Some(tickets[early].take().unwrap().wait());
    }
    tickets.extend(fx.requests[FIRST_WAVE..].iter().map(submit).map(Some));
    for (i, ticket) in tickets.into_iter().enumerate() {
        if let Some(ticket) = ticket {
            outputs[i] = Some(ticket.wait());
        }
    }
    for (i, out) in outputs.into_iter().enumerate() {
        let out = out.unwrap().unwrap_or_else(|e| panic!("session {i}: {e}"));
        let (tokens, streams) = &fx.alone[i];
        assert_eq!(&out.tokens, tokens, "session {i}: token stream");
        let kv: Vec<Vec<u64>> = out.kv.expect("return_kv").iter().map(bits).collect();
        assert_eq!(&kv, streams, "session {i}: final pages");
    }
    let stats = mgr.shutdown();
    assert_eq!(stats.retired, SESSIONS as u64, "{stats:?}");
    assert_eq!(stats.prefills + stats.decodes, stats.tokens, "{stats:?}");
    let ps = pool.stats();
    assert!(ps.reconciles(), "pool accounting broke: {ps:?}");
    assert_eq!(ps.in_use, 0, "pages leaked: {ps:?}");
    stats
}

/// Two panics and two stalls, early enough that every run opens that many
/// fault windows.
fn schedule() -> FaultPlan {
    FaultPlan::new()
        .fail_worker_panic(4)
        .stall_worker(9, Duration::from_millis(5))
        .fail_worker_panic(23)
        .stall_worker(31, Duration::from_millis(5))
}

#[test]
fn one_worker() {
    served_together_equals_alone(1, FaultPlan::new());
}

#[test]
fn three_workers() {
    served_together_equals_alone(3, FaultPlan::new());
}

#[test]
fn one_worker_under_panics_and_stalls() {
    let stats = served_together_equals_alone(1, schedule());
    assert_eq!(stats.worker_panics, 2, "{stats:?}");
    assert!(stats.rollbacks >= 2, "{stats:?}");
}

#[test]
fn three_workers_under_panics_and_stalls() {
    let stats = served_together_equals_alone(3, schedule());
    assert_eq!(stats.worker_panics, 2, "{stats:?}");
    assert!(stats.rollbacks >= 2, "{stats:?}");
}

/// No step of the served mix outgrows its planned storage: the decode
/// `Vm`s are the manager's own, so the count is read off the trace, where
/// every fallback allocation leaves an `alloc_fallback` instant.
#[test]
fn no_served_step_falls_back_to_the_pooled_allocator() {
    // One worker thread is one shard of the buffer: room for every kernel
    // span of every step, and for the other tests' while this one records.
    relax_trace::set_capacity(1 << 23);
    let capture = relax_trace::Capture::begin();
    served_together_equals_alone(1, FaultPlan::new());
    let trace = capture.finish();
    assert_eq!(trace.dropped, 0, "the trace buffer overflowed");
    let named = |name: &str| trace.events.iter().filter(|e| e.name == name).count();
    assert!(named("decode") > 0, "the capture saw no decode step");
    assert_eq!(named("alloc_fallback"), 0);
}
