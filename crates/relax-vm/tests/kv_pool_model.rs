//! Generative model test for the paged KV cache: seeded random
//! create / append / stacked append / view / truncate / drop sequences
//! over several [`KvCache`]s sharing one small [`KvPagePool`], checked
//! after every operation against a plain `Vec<Vec<f64>>` reference.
//!
//! The hand-written serving schedules only reach the rollback paths a
//! particular fault happens to hit; this walks them at random, including
//! appends into an exhausted pool — one cache's, and a stack's that runs
//! out at a later member — and asserts the accounting invariants
//! (`allocated == in_use + free`, `in_use == Σ pages_held`) at every step.
//! A stack owns no page, so the sum runs over the caches alone.

use std::sync::Arc;

use relax_arith::DataType;
use relax_tir::NDArray;
use relax_vm::{KvCache, KvCacheConfig, KvPagePool};

const SEEDS: u64 = 200;
const OPS: usize = 200;
const STREAMS: usize = 2;
const HEADS: usize = 2;
const HEAD_DIM: usize = 3;
const MAX_CACHES: usize = 4;

struct XorShift(u64);

impl XorShift {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n.max(1) as u64) as usize
    }

    /// A value every float dtype holds exactly, so the model needs no
    /// rounding of its own.
    fn value(&mut self) -> f64 {
        (self.next() % 1024) as f64 / 8.0 - 64.0
    }
}

/// One cache and its reference: `model[stream]` is the stream's rows in
/// token-major order, `HEADS * HEAD_DIM` values per token.
struct Tracked {
    cache: KvCache,
    model: Vec<Vec<f64>>,
}

impl Tracked {
    fn len(&self, stream: usize) -> usize {
        self.model[stream].len() / (HEADS * HEAD_DIM)
    }

    /// What `view(stream)` must return: `(1, heads, len, head_dim)`.
    fn expected_view(&self, stream: usize) -> Vec<f64> {
        let len = self.len(stream);
        let mut out = Vec::with_capacity(len * HEADS * HEAD_DIM);
        for h in 0..HEADS {
            for t in 0..len {
                let row = (t * HEADS + h) * HEAD_DIM;
                out.extend_from_slice(&self.model[stream][row..row + HEAD_DIM]);
            }
        }
        out
    }
}

fn pages_for(len: usize, page_tokens: usize) -> usize {
    len.div_ceil(page_tokens)
}

/// The invariants, asserted after every operation.
fn check(pool: &KvPagePool, caches: &[Tracked], ctx: &str) {
    let stats = pool.stats();
    assert!(
        stats.reconciles(),
        "{ctx}: pool does not reconcile: {stats:?}"
    );
    let held: usize = caches.iter().map(|c| c.cache.pages_held()).sum();
    assert_eq!(
        stats.in_use, held,
        "{ctx}: in_use != Σ pages_held: {stats:?}"
    );
    for (i, c) in caches.iter().enumerate() {
        let want_pages: usize = (0..STREAMS)
            .map(|s| pages_for(c.len(s), stats.page_tokens))
            .sum();
        assert_eq!(
            c.cache.pages_held(),
            want_pages,
            "{ctx}: cache {i} holds stray pages"
        );
        for s in 0..STREAMS {
            assert_eq!(
                c.cache.len(s),
                c.len(s),
                "{ctx}: cache {i} stream {s} length"
            );
            let got = c.cache.view(s).expect("view of a live stream").to_f64_vec();
            let want = c.expected_view(s);
            assert!(
                got.len() == want.len()
                    && got
                        .iter()
                        .zip(&want)
                        .all(|(a, b)| a.to_bits() == b.to_bits()),
                "{ctx}: cache {i} stream {s} diverged from the model"
            );
        }
    }
}

/// `n` tokens for one cache: the `(1, heads, n, head_dim)` tensor values
/// and the same values as the model keeps them, token-major.
fn random_tokens(rng: &mut XorShift, n: usize) -> (Vec<f64>, Vec<f64>) {
    let mut rows = vec![0.0; n * HEADS * HEAD_DIM];
    let mut tensor = vec![0.0; n * HEADS * HEAD_DIM];
    for h in 0..HEADS {
        for t in 0..n {
            for d in 0..HEAD_DIM {
                let v = rng.value();
                tensor[(h * n + t) * HEAD_DIM + d] = v;
                rows[(t * HEADS + h) * HEAD_DIM + d] = v;
            }
        }
    }
    (tensor, rows)
}

/// Runs one seeded sequence; returns how many appends the pool refused,
/// how many refused truncates mixed a shrink with a grow, and how many
/// stacked appends ran out of pages past their first member.
fn run_seed(seed: u64) -> (usize, usize, usize) {
    let mut rng = XorShift(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1);
    let page_tokens = 1 + rng.below(4);
    let capacity = 6 + rng.below(10);
    let pool = Arc::new(KvPagePool::with_capacity(page_tokens, capacity));
    let cfg = KvCacheConfig {
        streams: STREAMS,
        batch: 1,
        heads: HEADS,
        head_dim: HEAD_DIM,
        dtype: DataType::F32,
    };
    let mut caches: Vec<Tracked> = Vec::new();
    let (mut refused, mut mixed, mut mid_stack) = (0, 0, 0);

    for op in 0..OPS {
        let ctx = format!("seed {seed} op {op}");
        let pick = rng.below(12);
        if caches.is_empty() || (pick == 0 && caches.len() < MAX_CACHES) {
            caches.push(Tracked {
                cache: KvCache::new(cfg, pool.clone()),
                model: vec![Vec::new(); STREAMS],
            });
        } else if pick <= 5 {
            // Append 1..=6 tokens; the pool is small enough that many of
            // these find it exhausted.
            let i = rng.below(caches.len());
            let stream = rng.below(STREAMS);
            let n = 1 + rng.below(6);
            let (tensor, rows) = random_tokens(&mut rng, n);
            let new = NDArray::from_f64(&[1, HEADS, n, HEAD_DIM], DataType::F32, tensor).unwrap();
            let c = &mut caches[i];
            let len = c.len(stream);
            let fresh = pages_for(len + n, page_tokens) - pages_for(len, page_tokens);
            let room = capacity - pool.stats().in_use;
            match c.cache.append(stream, &new) {
                Ok(()) => {
                    assert!(
                        fresh <= room,
                        "{ctx}: append succeeded past the pool capacity"
                    );
                    c.model[stream].extend(rows);
                }
                Err(e) => {
                    assert!(
                        e.pool_exhausted.is_some(),
                        "{ctx}: unexpected append error {e}"
                    );
                    assert!(fresh > room, "{ctx}: append refused with {room} pages free");
                    refused += 1;
                }
            }
        } else if pick >= 10 && caches.len() >= 2 {
            // One append through a stack of two or more caches, drawn in a
            // random order: every member gets its own rows or, when the
            // pool cannot serve them all, none gets any (`check` below
            // compares every cache with its model either way).
            let mut order: Vec<usize> = (0..caches.len()).collect();
            for i in 0..order.len() {
                let j = i + rng.below(order.len() - i);
                order.swap(i, j);
            }
            order.truncate(2 + rng.below(caches.len() - 1));
            let stream = rng.below(STREAMS);
            let n = 1 + rng.below(3);
            let (mut tensor, mut rows) = (Vec::new(), Vec::new());
            for _ in &order {
                let (t, r) = random_tokens(&mut rng, n);
                tensor.extend(t);
                rows.push(r);
            }
            let shape = [order.len(), HEADS, n, HEAD_DIM];
            let new = NDArray::from_f64(&shape, DataType::F32, tensor).unwrap();
            let fresh = |i: &usize| {
                let len = caches[*i].len(stream);
                pages_for(len + n, page_tokens) - pages_for(len, page_tokens)
            };
            let wanted: usize = order.iter().map(fresh).sum();
            let room = capacity - pool.stats().in_use;
            let members: Vec<KvCache> = order.iter().map(|&i| caches[i].cache.clone()).collect();
            let stack = KvCache::stack(&members).expect("distinct caches of one pool");
            match stack.append(stream, &new) {
                Ok(()) => {
                    assert!(
                        wanted <= room,
                        "{ctx}: stacked append succeeded past the capacity"
                    );
                    for (&i, r) in order.iter().zip(rows) {
                        caches[i].model[stream].extend(r);
                    }
                }
                Err(e) => {
                    assert!(
                        e.pool_exhausted.is_some(),
                        "{ctx}: unexpected append error {e}"
                    );
                    assert!(
                        wanted > room,
                        "{ctx}: stacked append refused with {room} pages free"
                    );
                    refused += 1;
                    // Pages were taken for the first member before a later
                    // one found the pool empty.
                    let first = fresh(&order[0]);
                    mid_stack += usize::from(first > 0 && first <= room);
                }
            }
        } else if pick <= 7 {
            // Roll every stream back to a random shorter length — the
            // scheduler's failed-step rollback.
            let i = rng.below(caches.len());
            let c = &mut caches[i];
            let lens: Vec<usize> = (0..STREAMS).map(|s| rng.below(c.len(s) + 1)).collect();
            c.cache.truncate_to(&lens).expect("shrinking truncate");
            for (s, &l) in lens.iter().enumerate() {
                c.model[s].truncate(l * HEADS * HEAD_DIM);
            }
        } else if pick == 8 {
            // A truncate that would grow a stream is refused and changes
            // nothing (`check` below compares every length, view and page
            // count) — on alternate ops also when an earlier stream's
            // length, taken alone, is a valid shrink.
            let i = rng.below(caches.len());
            let c = &caches[i];
            let mut lens: Vec<usize> = (0..STREAMS).map(|s| c.len(s) + 1).collect();
            if op % 2 == 1 && c.len(0) > 0 {
                lens[0] = 0;
                mixed += 1;
            }
            assert!(
                c.cache.truncate_to(&lens).is_err(),
                "{ctx}: truncate grew a stream"
            );
        } else {
            // Drop a cache through an aliasing clone: the pages go back
            // only when the last handle drops.
            let i = rng.below(caches.len());
            let gone = caches.swap_remove(i);
            let alias = gone.cache.clone();
            let held = alias.pages_held();
            let before = pool.stats().in_use;
            drop(gone);
            assert_eq!(
                pool.stats().in_use,
                before,
                "{ctx}: pages released under a live alias"
            );
            drop(alias);
            assert_eq!(
                pool.stats().in_use,
                before - held,
                "{ctx}: drop leaked pages"
            );
        }
        check(&pool, &caches, &ctx);
    }

    caches.clear();
    let stats = pool.stats();
    assert!(
        stats.reconciles(),
        "seed {seed}: pool does not reconcile at the end: {stats:?}"
    );
    assert_eq!(
        stats.in_use, 0,
        "seed {seed}: pages leaked after every cache dropped"
    );
    (refused, mixed, mid_stack)
}

#[test]
fn random_cache_sequences_match_the_model_and_reconcile() {
    let (refused, mixed, mid_stack) = (1..=SEEDS)
        .map(run_seed)
        .fold((0, 0, 0), |(r, m, s), (dr, dm, ds)| {
            (r + dr, m + dm, s + ds)
        });
    assert!(refused > 0, "no sequence ever exhausted the pool");
    assert!(
        mixed > 0,
        "no refused truncate ever mixed a shrink with a grow"
    );
    assert!(
        mid_stack > 0,
        "no stacked append ever ran out past its first member"
    );
}
