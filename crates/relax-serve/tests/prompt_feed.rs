//! The prompt-feed proof: however a prompt reaches a paged KV cache, the
//! last logits row and every stream's pages come out **bitwise** the same.
//!
//! Four routes over tiny Llama with 16-token pages, at prompt lengths on
//! both sides of the page boundaries:
//!
//! - (a) the copy-based prefill oracle — `build_prefill` on its own `Vm`,
//!   the emitted K/V bit-copied per stream with `KvCache::append`, the last
//!   token through a `(1, 1)` call of `decode_paged`;
//! - (b) the whole prompt as one `(1, n)` feed of `decode_paged_multi`;
//! - (c) the same prompt as two feeds, split at each of `{1, 15, 16, n-1}`
//!   that falls inside it;
//! - (d) the copy-based `build_decode`, one token at a time.
//!
//! (b) = (a) is what lets a session's prompt be the first step of the one
//! paged function; (c) = (b) is what a chunked prefill will need.

use std::sync::Arc;

use relax_core::DataType;
use relax_models::llama::{
    build_decode, build_decode_paged, build_decode_paged_multi, build_prefill, LlamaConfig, ModelIr,
};
use relax_passes::{compile, CompileOptions};
use relax_tir::NDArray;
use relax_vm::{KvCache, KvCacheConfig, KvPagePool, Value, Vm};

mod common;
use common::{concrete, random_arr};

const PAGE_TOKENS: usize = 16;
const PROMPT_LENS: [usize; 7] = [1, 2, 15, 16, 17, 33, 48];

/// What a route is compared on: the logits row of the prompt's last token
/// and every stream's `(1, heads, len, head_dim)` contents, as bit patterns.
#[derive(Debug, PartialEq)]
struct Fed {
    last_logits: Vec<u64>,
    streams: Vec<Vec<u64>>,
}

fn bits(vals: &[f64]) -> Vec<u64> {
    vals.iter().map(|v| v.to_bits()).collect()
}

fn token_tensor(tokens: &[i64]) -> Value {
    Value::Tensor(NDArray::from_i64(&[1, tokens.len()], DataType::I64, tokens.to_vec()).unwrap())
}

/// One `(1, n)` call of a paged function; returns all `n` logits rows.
fn feed(vm: &mut Vm, func: &str, tokens: &[i64], cache: &KvCache, weights: &[Value]) -> Vec<f64> {
    let mut args = vec![token_tensor(tokens), Value::KvCache(cache.clone())];
    args.extend(weights.iter().cloned());
    let out = vm.run(func, &args).unwrap();
    out.as_tuple().unwrap()[0].as_tensor().unwrap().to_f64_vec()
}

struct Fixture {
    cfg: LlamaConfig,
    weights: Vec<Value>,
    pool: Arc<KvPagePool>,
    prefill: Vm,
    paged: Vm,
    multi: Vm,
    copy: Vm,
}

impl Fixture {
    fn new() -> Self {
        let cfg = LlamaConfig::tiny();
        let pool = Arc::new(KvPagePool::with_capacity(PAGE_TOKENS, usize::MAX));
        let vm =
            |ir: &ModelIr| Vm::new(compile(ir.module.clone(), &CompileOptions::default()).unwrap());
        let paged_ir = build_decode_paged(&cfg).unwrap();
        let mut seed = 0xFACE_F00Du64;
        // Weights have no symbolic dims and every route takes them in the
        // same order after its token/cache parameters.
        let weights = paged_ir
            .params
            .iter()
            .filter(|(name, _)| name != "tokens" && name != "kv_cache")
            .map(|(_, sinfo)| {
                let (dims, dt) = concrete(&paged_ir, sinfo, 1, 1);
                Value::Tensor(random_arr(&dims, dt, &mut seed))
            })
            .collect();
        Fixture {
            prefill: vm(&build_prefill(&cfg).unwrap()),
            paged: vm(&paged_ir),
            multi: vm(&build_decode_paged_multi(&cfg).unwrap()),
            copy: vm(&build_decode(&cfg).unwrap()),
            cfg,
            weights,
            pool,
        }
    }

    fn cache(&self) -> KvCache {
        let cfg = KvCacheConfig {
            streams: 2 * self.cfg.n_layers,
            batch: 1,
            heads: self.cfg.n_kv_heads as usize,
            head_dim: self.cfg.head_dim as usize,
            dtype: self.cfg.dtype,
        };
        KvCache::new(cfg, self.pool.clone())
    }

    fn fed(&self, logits: &[f64], cache: &KvCache) -> Fed {
        let vocab = self.cfg.vocab as usize;
        Fed {
            last_logits: bits(&logits[logits.len() - vocab..]),
            streams: (0..cache.config().streams)
                .map(|s| bits(&cache.view(s).unwrap().to_f64_vec()))
                .collect(),
        }
    }

    /// (a): prefill the prefix on its own `Vm`, bit-copy the emitted K/V
    /// into the pages, decode the last token through `(1, 1)` `decode_paged`.
    fn copy_prefill(&mut self, prompt: &[i64]) -> Fed {
        let cache = self.cache();
        let (prefix, last) = prompt.split_at(prompt.len() - 1);
        if !prefix.is_empty() {
            let mut args = vec![token_tensor(prefix)];
            args.extend(self.weights.iter().cloned());
            let kv = self.prefill.run("prefill", &args).unwrap();
            for (stream, t) in kv.as_tuple().unwrap().iter().enumerate() {
                cache.append(stream, t.as_tensor().unwrap()).unwrap();
            }
        }
        let logits = feed(&mut self.paged, "decode_paged", last, &cache, &self.weights);
        self.fed(&logits, &cache)
    }

    /// (b) and (c): the prompt through `decode_paged_multi`, as one feed
    /// (`split: None`) or as two feeds cut at `split`.
    fn paged_feed(&mut self, prompt: &[i64], split: Option<usize>) -> Fed {
        let cache = self.cache();
        let (head, tail) = prompt.split_at(split.unwrap_or(0));
        if !head.is_empty() {
            feed(
                &mut self.multi,
                "decode_paged_multi",
                head,
                &cache,
                &self.weights,
            );
        }
        let logits = feed(
            &mut self.multi,
            "decode_paged_multi",
            tail,
            &cache,
            &self.weights,
        );
        self.fed(&logits, &cache)
    }

    /// (d): the copy-based decode, one token at a time, threading the
    /// `(1, heads, len, head_dim)` cache tensors through every call.
    fn copy_decode(&mut self, prompt: &[i64]) -> Fed {
        let (nkv, hd) = (self.cfg.n_kv_heads as usize, self.cfg.head_dim as usize);
        let mut caches: Vec<NDArray> = (0..2 * self.cfg.n_layers)
            .map(|_| NDArray::zeros(&[1, nkv, 0, hd], self.cfg.dtype))
            .collect();
        let mut logits = Vec::new();
        for &token in prompt {
            let mut args = vec![token_tensor(&[token])];
            args.extend(caches.iter().cloned().map(Value::Tensor));
            args.extend(self.weights.iter().cloned());
            let out = self.copy.run("decode", &args).unwrap();
            let items = out.as_tuple().unwrap();
            logits = items[0].as_tensor().unwrap().to_f64_vec();
            caches = items[1..]
                .iter()
                .map(|v| v.as_tensor().unwrap().clone())
                .collect();
        }
        Fed {
            last_logits: bits(&logits),
            streams: caches.iter().map(|c| bits(&c.to_f64_vec())).collect(),
        }
    }
}

#[test]
fn every_route_to_the_cache_is_bitwise_the_same() {
    let mut fx = Fixture::new();
    let mut seed = 0x5EED_0021u64;
    for n in PROMPT_LENS {
        let prompt: Vec<i64> = (0..n)
            .map(|_| {
                seed = seed
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                ((seed >> 33) % fx.cfg.vocab as u64) as i64
            })
            .collect();
        let oracle = fx.copy_prefill(&prompt);
        assert_eq!(
            oracle.streams[0].len(),
            n * fx.cfg.n_kv_heads as usize * fx.cfg.head_dim as usize
        );
        assert_eq!(
            fx.paged_feed(&prompt, None),
            oracle,
            "one feed of {n} tokens"
        );
        for split in [1, 15, 16, n.saturating_sub(1)] {
            if 0 < split && split < n {
                assert_eq!(
                    fx.paged_feed(&prompt, Some(split)),
                    oracle,
                    "{n} tokens fed as {split} + {}",
                    n - split
                );
            }
        }
        assert_eq!(fx.copy_decode(&prompt), oracle, "copy decode of {n} tokens");
    }
    let stats = fx.pool.stats();
    assert!(stats.reconciles(), "pool accounting broke: {stats:?}");
    assert_eq!(stats.in_use, 0, "pages leaked: {stats:?}");
}
