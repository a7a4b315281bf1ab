//! First-class paged KV caches. The host makes a cache with
//! [`KvCache::new`] on a page pool, and the cache alone draws its pages
//! from that pool. It reaches a compiled function as a register value,
//! where the default [`Registry`](crate::registry::Registry)'s two
//! `vm.builtin.kv_cache.*` builtins, `append_paged` and `attention`, write
//! and read its pages.
//!
//! The copy-based `vm.builtin.kv_append` kernel materializes a fresh
//! `(b, h, s+n, hd)` tensor every decode step — O(s²) data movement per
//! sequence over a generation. A [`KvCache`] instead owns fixed-size
//! pages acquired from a shared [`KvPagePool`] (one block table per
//! stream; a stream is one layer's K or V), appends **in place** into
//! the tail page, and serves attention directly over the pages. The
//! copy-based kernel stays registered as the differential-test oracle:
//! the paged path is asserted bitwise-equal to it.
//!
//! A handle may be a **stack** of several caches ([`KvCache::stack`]): the
//! `b` sessions of one batched decode step, each with its own block tables
//! and its own length. The builtins take it wherever they take a cache —
//! batch row `bi` of `append_paged`'s tensor lands in member `bi`'s tail
//! page, query row `bi` of `attention` reads member `bi`'s pages — and
//! since no stored element's rounding chain touches another batch row, a
//! row of a stacked step holds the bits of the same step on its member
//! alone. A plain cache is the stack of one: there is one code path.
//!
//! Bit-exactness contract: [`KvCache::attention`] mirrors the TIR
//! program produced by `relax_core::legalize` for `Op::Attention` —
//! same five passes, same f32 rounding on every store into the local
//! `scores`/`row_max`/`row_sum` buffers, the same `-1e9` causal mask and
//! grouped-query head mapping — so a paged decode step produces exactly
//! the bits the legalized kernel produces on the gathered cache. The
//! loops are not the kernel's: a stored value's rounding chain keeps its
//! order, but chains of different elements (the spatial axes of a
//! reduction block) run interleaved, which is where the time goes.

use std::fmt;
use std::sync::{Arc, Mutex, MutexGuard};

use relax_arith::DataType;
use relax_tir::{round_to_dtype, NDArray};

use crate::memory::KvPagePool;
use crate::registry::KernelError;
use crate::value::{want_cache, want_shape, want_tensor, Value};

/// Name prefix of the paged KV-cache builtins (`append_paged`,
/// `attention`). It is a naming convention only: lowering emits these
/// calls without destination tensors, and the cost model recognises them
/// by it. The VM calls them through the registry like any builtin.
pub const KV_CACHE_PREFIX: &str = "vm.builtin.kv_cache.";

const APPEND: &str = "vm.builtin.kv_cache.append_paged";
const ATTENTION: &str = "vm.builtin.kv_cache.attention";

/// Fixed geometry of one cache: every stream holds `(batch, heads,
/// <tokens>, head_dim)` data paged into `(batch, heads, page_tokens,
/// head_dim)` blocks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KvCacheConfig {
    /// Number of independent streams (2 per transformer layer: K and V).
    pub streams: usize,
    /// Batch dimension of every stream.
    pub batch: usize,
    /// KV head count.
    pub heads: usize,
    /// Head dimension.
    pub head_dim: usize,
    /// Element dtype of the cached tensors.
    pub dtype: DataType,
}

struct StreamState {
    /// Logical token count (pages may hold more rows than this).
    len: usize,
    /// The block table: page `i` holds tokens `[i*P, (i+1)*P)`.
    pages: Vec<NDArray>,
}

/// One cache's pages: what a plain handle owns and a stack lists.
struct Member {
    cfg: KvCacheConfig,
    pool: Arc<KvPagePool>,
    streams: Mutex<Vec<StreamState>>,
}

impl Drop for Member {
    fn drop(&mut self) {
        let streams = self
            .streams
            .get_mut()
            .map(std::mem::take)
            .unwrap_or_default();
        for st in streams {
            for page in st.pages {
                self.pool.release(page);
            }
        }
    }
}

/// A shared handle to paged KV caches: one session's, or a **stack** of
/// several sessions' ([`KvCache::stack`]).
///
/// Cloning the handle aliases the same pages (the VM passes it through
/// registers by clone); the last handle on a cache to drop releases its
/// pages back to the pool — the accounting the chaos harness reconciles.
/// A stack is only more handles on its members: it owns no page, and
/// dropping it releases none while a member's own handle lives.
///
/// A stack of `k` caches of batch `mb` serves a `(k * mb, ..)` step: batch
/// row `bi` of an appended tensor goes to member `bi / mb`, and query row
/// `bi` attends over that member's block table at that member's own
/// length, so the members need not be equally long. A plain cache is the
/// stack of one, and every method runs the same code for both. The
/// per-stream bookkeeping ([`KvCache::lens`], [`KvCache::len`],
/// [`KvCache::truncate_to`]) lists a stack's streams member by member.
#[derive(Clone)]
pub struct KvCache {
    /// Never empty, all of one geometry and one pool, none twice.
    members: Arc<[Arc<Member>]>,
}

impl fmt::Debug for KvCache {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "KvCache(members={}, streams={}, lens={:?}, pages={})",
            self.members.len(),
            self.members[0].cfg.streams,
            self.lens(),
            self.pages_held()
        )
    }
}

impl KvCacheConfig {
    /// `append_paged`'s rule, which [`KvCache::append`] and the dry run
    /// both run: `new` is a `(batch, heads, n, head_dim)` tensor of the
    /// cache's dtype and `stream` one of its streams; else the VM's error.
    pub fn check_append(
        &self,
        stream: usize,
        new: &[usize],
        dt: DataType,
    ) -> Result<(), KernelError> {
        let (b, h, hd) = (self.batch, self.heads, self.head_dim);
        if new.len() != 4 || new[0] != b || new[1] != h || new[3] != hd {
            let detail = format!(
                "appended tensor {new:?} does not match cache geometry (batch={b}, heads={h}, head_dim={hd})"
            );
            return Err(KernelError::new(APPEND, detail));
        }
        if dt != self.dtype {
            let detail = format!("appended dtype {dt} != cache dtype {}", self.dtype);
            return Err(KernelError::new(APPEND, detail));
        }
        self.check_stream(APPEND, stream)
    }

    /// `attention`'s rule, which [`KvCache::attention`] and the dry run both
    /// run: the query is `(batch, q_heads, s, head_dim)` with `q_heads` a
    /// multiple of the KV heads, both streams are in range, and each
    /// member's `(K, V)` lengths in `lens` (read once the streams are
    /// checked) are equal and non-zero; else the VM's error.
    pub fn check_attention(
        &self,
        q: &[usize],
        k_stream: usize,
        v_stream: usize,
        lens: impl IntoIterator<Item = (usize, usize)>,
    ) -> Result<(), KernelError> {
        let fail = |detail: String| Err(KernelError::new(ATTENTION, detail));
        let (b, hd, hkv) = (self.batch, self.head_dim, self.heads);
        if q.len() != 4 || q[0] != b || q[3] != hd {
            return fail(format!(
                "query {q:?} does not match cache geometry (batch={b}, head_dim={hd})"
            ));
        }
        if hkv == 0 || !q[1].is_multiple_of(hkv) {
            return fail(format!(
                "query heads {} not a multiple of kv heads {hkv}",
                q[1]
            ));
        }
        self.check_stream(ATTENTION, k_stream)?;
        self.check_stream(ATTENTION, v_stream)?;
        for (skv, v_len) in lens {
            if v_len != skv {
                return fail(format!("K length {skv} != V length {v_len}"));
            }
            if skv == 0 {
                return fail("attention over empty streams".into());
            }
        }
        Ok(())
    }

    /// What a launch span records for a cache of this geometry whose
    /// streams hold `lens` tokens: `[batch, heads, head_dim]`, then `lens`.
    pub fn launch_dims(&self, lens: impl IntoIterator<Item = usize>) -> Vec<usize> {
        let geometry = [self.batch, self.heads, self.head_dim];
        geometry.into_iter().chain(lens).collect()
    }

    fn check_stream(&self, op: &str, stream: usize) -> Result<(), KernelError> {
        if stream >= self.streams {
            let detail = format!("stream {stream} out of range ({})", self.streams);
            return Err(KernelError::new(op, detail));
        }
        Ok(())
    }
}

/// A stream index from a builtin's shape operand: a negative one is
/// `op`'s error, naming it as `what`.
pub fn stream_arg(op: &str, d: i64, what: &str) -> Result<usize, KernelError> {
    usize::try_from(d).map_err(|_| KernelError::new(op, format!("negative {what}: {d}")))
}

impl KvCache {
    /// Creates an empty cache drawing pages from `pool`.
    pub fn new(cfg: KvCacheConfig, pool: Arc<KvPagePool>) -> Self {
        let streams = (0..cfg.streams)
            .map(|_| StreamState {
                len: 0,
                pages: Vec::new(),
            })
            .collect();
        let member = Member {
            cfg,
            pool,
            streams: Mutex::new(streams),
        };
        KvCache {
            members: Arc::new([Arc::new(member)]),
        }
    }

    /// One handle over the members of `caches`, in order: the cache a
    /// batched step runs over (see the type docs). Members keep their own
    /// handles, lengths and pages.
    ///
    /// # Errors
    ///
    /// Returns a [`KernelError`] for an empty list, for members of
    /// different geometry or pool, and for a member listed twice (one step
    /// would append to it twice).
    pub fn stack(caches: &[KvCache]) -> Result<KvCache, KernelError> {
        const OP: &str = "KvCache::stack";
        let members: Vec<Arc<Member>> = caches
            .iter()
            .flat_map(|c| c.members.iter().cloned())
            .collect();
        let first = members
            .first()
            .ok_or_else(|| KernelError::new(OP, "a stack needs at least one cache"))?;
        for (i, m) in members.iter().enumerate() {
            if m.cfg != first.cfg || !Arc::ptr_eq(&m.pool, &first.pool) {
                return Err(KernelError::new(
                    OP,
                    format!("member {i} differs from member 0 in geometry or page pool"),
                ));
            }
            if members[..i].iter().any(|earlier| Arc::ptr_eq(earlier, m)) {
                return Err(KernelError::new(OP, format!("member {i} is listed twice")));
            }
        }
        Ok(KvCache {
            members: members.into(),
        })
    }

    /// The cache geometry; a stack's `batch` is its members' summed.
    pub fn config(&self) -> KvCacheConfig {
        let cfg = self.members[0].cfg;
        KvCacheConfig {
            batch: cfg.batch * self.members.len(),
            ..cfg
        }
    }

    /// The pool this cache draws pages from.
    pub fn pool(&self) -> &Arc<KvPagePool> {
        &self.members[0].pool
    }

    /// Every member's streams, locked in stack order. Two threads never
    /// hold overlapping stacks in different orders: a session's cache is in
    /// one step at a time.
    fn lock(&self) -> Vec<MutexGuard<'_, Vec<StreamState>>> {
        self.members
            .iter()
            .map(|m| m.streams.lock().unwrap_or_else(|e| e.into_inner()))
            .collect()
    }

    /// Logical token count of one stream (of a stack: in the order of
    /// [`KvCache::lens`]).
    pub fn len(&self, stream: usize) -> usize {
        self.lens().get(stream).copied().unwrap_or(0)
    }

    /// `true` when no stream holds any token.
    pub fn is_empty(&self) -> bool {
        self.lens().iter().all(|&len| len == 0)
    }

    /// Logical token count of every stream, member by member.
    pub fn lens(&self) -> Vec<usize> {
        let members = self.lock();
        members
            .iter()
            .flat_map(|m| m.iter().map(|s| s.len))
            .collect()
    }

    /// Total pages currently held across all streams and members.
    pub fn pages_held(&self) -> usize {
        let members = self.lock();
        members
            .iter()
            .flat_map(|m| m.iter().map(|s| s.pages.len()))
            .sum()
    }

    /// Appends `new` (`(batch, heads, n, head_dim)`) in place onto a
    /// stream's pages, acquiring tail pages from the pool as needed; each
    /// member of a stack takes its own batch rows.
    ///
    /// # Errors
    ///
    /// Shape/dtype mismatches and pool exhaustion surface as
    /// [`KernelError`]; on exhaustion no partial append is left behind, in
    /// any member.
    pub fn append(&self, stream: usize, new: &NDArray) -> Result<(), KernelError> {
        let cfg = self.config();
        cfg.check_append(stream, new.shape(), new.dtype())?;
        let n = new.shape()[2];
        let (mb, h, hd) = (self.members[0].cfg.batch, cfg.heads, cfg.head_dim);
        let pool = self.pool();
        let p = pool.page_tokens();
        let mut members = self.lock();
        // Acquire every page of every member up front so exhaustion cannot
        // leave a half-appended stream or a half-appended stack: new pages
        // are released again on failure.
        let missing = |st: &StreamState| (st.len + n).div_ceil(p).saturating_sub(st.pages.len());
        let wanted: usize = members.iter().map(|m| missing(&m[stream])).sum();
        let mut fresh: Vec<NDArray> = Vec::with_capacity(wanted);
        while fresh.len() < wanted {
            match pool.acquire(&[mb, h, p, hd], cfg.dtype) {
                Ok(page) => fresh.push(page),
                Err(e) => {
                    for page in fresh {
                        pool.release(page);
                    }
                    let mut err = KernelError::new(APPEND, e.to_string());
                    err.pool_exhausted = Some(e);
                    return Err(err);
                }
            }
        }
        let mut fresh = fresh.into_iter();
        for (mi, streams) in members.iter_mut().enumerate() {
            let st = &mut streams[stream];
            let take = missing(st);
            st.pages.extend(fresh.by_ref().take(take));
            let mut t = 0usize;
            while t < n {
                let pos = st.len + t;
                let page = &st.pages[pos / p];
                let row = pos % p;
                let run = (p - row).min(n - t);
                for bi in 0..mb {
                    for hi in 0..h {
                        let dst = ((bi * h + hi) * p + row) * hd;
                        let src = (((mi * mb + bi) * h + hi) * n + t) * hd;
                        page.copy_range_from(dst, new, src, run * hd)
                            .map_err(|e| KernelError::new(APPEND, e.to_string()))?;
                    }
                }
                t += run;
            }
            st.len += n;
        }
        Ok(())
    }

    /// Gathers one stream into a fresh contiguous `(batch, heads, len,
    /// head_dim)` tensor — the extraction/differential-test path; the
    /// decode hot path never calls this.
    ///
    /// # Errors
    ///
    /// Returns a [`KernelError`] for an out-of-range stream, and for a
    /// stack whose members hold different lengths of it: no one tensor
    /// holds them.
    pub fn view(&self, stream: usize) -> Result<NDArray, KernelError> {
        const OP: &str = "KvCache::view";
        let cfg = self.config();
        let (mb, h, hd) = (self.members[0].cfg.batch, cfg.heads, cfg.head_dim);
        let p = self.pool().page_tokens();
        cfg.check_stream(OP, stream)?;
        let members = self.lock();
        let len = members[0][stream].len;
        if let Some(other) = members.iter().find(|m| m[stream].len != len) {
            return Err(KernelError::new(
                OP,
                format!(
                    "members of a stack hold {len} and {} tokens of stream {stream}",
                    other[stream].len
                ),
            ));
        }
        let out = NDArray::zeros(&[cfg.batch, h, len, hd], cfg.dtype);
        for (mi, streams) in members.iter().enumerate() {
            let st = &streams[stream];
            let mut t = 0usize;
            while t < len {
                let page = &st.pages[t / p];
                let row = t % p;
                let run = (p - row).min(len - t);
                for bi in 0..mb {
                    for hi in 0..h {
                        let dst = (((mi * mb + bi) * h + hi) * len + t) * hd;
                        let src = ((bi * h + hi) * p + row) * hd;
                        out.copy_range_from(dst, page, src, run * hd)
                            .map_err(|e| KernelError::new(OP, e.to_string()))?;
                    }
                }
                t += run;
            }
        }
        Ok(out)
    }

    /// Rolls every stream back to a previously captured length (see
    /// [`KvCache::lens`]), releasing pages that become empty. The
    /// serving scheduler uses this to undo a partially appended
    /// iteration before retrying it after a worker crash, so the retry
    /// cannot double-append.
    ///
    /// # Errors
    ///
    /// Returns a [`KernelError`] when `lens` disagrees with the stream
    /// count or would *grow* a stream; no stream is changed then.
    pub fn truncate_to(&self, lens: &[usize]) -> Result<(), KernelError> {
        const OP: &str = "KvCache::truncate_to";
        let pool = self.pool();
        let p = pool.page_tokens();
        let mut members = self.lock();
        let streams: usize = members.iter().map(|m| m.len()).sum();
        if lens.len() != streams {
            return Err(KernelError::new(
                OP,
                format!("{} lengths for {streams} streams", lens.len()),
            ));
        }
        // Validate every length before touching any stream: a refusal
        // must leave the whole cache as it was.
        let held = members.iter().flat_map(|m| m.iter());
        if let Some((st, &target)) = held.zip(lens).find(|(st, &t)| t > st.len) {
            return Err(KernelError::new(
                OP,
                format!("cannot grow a stream from {} to {target}", st.len),
            ));
        }
        for (st, &target) in members.iter_mut().flat_map(|m| m.iter_mut()).zip(lens) {
            st.len = target;
            let keep = target.div_ceil(p);
            while st.pages.len() > keep {
                let page = st.pages.pop().expect("len checked");
                pool.release(page);
            }
        }
        Ok(())
    }

    /// Computes attention of `q` (`(batch, q_heads, s, head_dim)`)
    /// against the K/V streams, reading pages directly — no per-step
    /// gather of the cache into a contiguous tensor. Over a stack, batch
    /// row `bi` reads its own member's pages at that member's length.
    ///
    /// Bitwise-mirrors the legalized `Op::Attention` tensor program, one
    /// `(b, h, i)` query row at a time over a `skv`-long scores row:
    /// five passes over f32 local buffers with per-store rounding, the
    /// causal mask `j <= i + skv - s` with `-1e9` fill, grouped-query
    /// head mapping `kv_head = h / (q_heads / kv_heads)`, and the scale
    /// `1 / sqrt(head_dim)` the models pass to `Op::Attention`.
    ///
    /// # Errors
    ///
    /// Returns a [`KernelError`] for geometry mismatches, empty or
    /// unequal K/V streams.
    pub fn attention(
        &self,
        q: &NDArray,
        k_stream: usize,
        v_stream: usize,
        causal: bool,
    ) -> Result<NDArray, KernelError> {
        let cfg = self.config();
        let members = self.lock();
        let lens = members.iter().map(|m| (m[k_stream].len, m[v_stream].len));
        cfg.check_attention(q.shape(), k_stream, v_stream, lens)?;
        let qs = q.shape().to_vec();
        let (b, hq, s, hd) = (qs[0], qs[1], qs[2], qs[3]);
        let (mb, hkv) = (self.members[0].cfg.batch, cfg.heads);
        let group = hq / hkv;
        if hd == 0 {
            return Ok(NDArray::zeros(&qs, q.dtype()));
        }
        let p = self.pool().page_tokens();
        let page_err = |e: relax_tir::NDArrayError| KernelError::new(ATTENTION, e.to_string());
        let qv = q.to_f64_vec();
        let scale = 1.0 / (hd as f64).sqrt();
        let r32 = |x: f64| round_to_dtype(x, DataType::F32);
        let odt = q.dtype();

        // One query row at a time. Every stored value goes through the
        // rounding chain the legalized kernel gives it, in that kernel's
        // order; only chains that never meet are interleaved.
        let longest = members.iter().map(|m| m[k_stream].len).max().unwrap_or(0);
        let mut out = vec![0.0f64; b * hq * s * hd];
        let mut scores = vec![0.0f64; longest];
        let mut exps = vec![0.0f64; longest];
        // One head's rows of one page, read widened to f64 (the cells
        // hold dtype-rounded f32 bits, so the values match a gathered
        // tensor exactly).
        let mut page_rows = vec![0.0f64; p * hd];
        for (row, (q_row, o_row)) in qv.chunks(hd).zip(out.chunks_mut(hd)).enumerate() {
            let (bi, hi, i) = (row / (hq * s), row / s % hq, row % s);
            // The row's own member: its block tables, its length.
            let (kst, vst) = (&members[bi / mb][k_stream], &members[bi / mb][v_stream]);
            let skv = kst.len;
            let (scores, exps) = (&mut scores[..skv], &mut exps[..skv]);
            let head_rows = (bi % mb * hkv + hi / group) * p * hd;
            // Pass 1: scores[j] = sum_kd q·k with per-step rounding, LANES
            // scores in flight.
            for (page, in_page) in kst.pages.iter().zip(scores.chunks_mut(p)) {
                let k_rows = &mut page_rows[..in_page.len() * hd];
                page.read_f64_range(head_rows, k_rows).map_err(page_err)?;
                for (acc, k_rows) in in_page.chunks_mut(LANES).zip(k_rows.chunks(LANES * hd)) {
                    let mut sums = [0.0f64; LANES];
                    for (kd, &qk) in q_row.iter().enumerate() {
                        for (sum, k_row) in sums.iter_mut().zip(k_rows.chunks_exact(hd)) {
                            *sum = r32(*sum + qk * k_row[kd]);
                        }
                    }
                    acc.copy_from_slice(&sums[..acc.len()]);
                }
            }
            // Pass 2: scale + causal mask (both branches in f64, one store);
            // queries align to the cache tail.
            let last_allowed = if causal {
                i as i64 + skv as i64 - s as i64
            } else {
                i64::MAX
            };
            for (j, score) in scores.iter_mut().enumerate() {
                *score = r32(if j as i64 <= last_allowed {
                    *score * scale
                } else {
                    -1e9
                });
            }
            // Pass 3: row max.
            let row_max = scores
                .iter()
                .fold(r32(f64::NEG_INFINITY), |rm, &x| r32(rm.max(x)));
            // Pass 4: exp-sum; each exponential is kept for pass 5.
            let mut row_sum = 0.0f64;
            for (e, &x) in exps.iter_mut().zip(scores.iter()) {
                *e = (x - row_max).exp();
                row_sum = r32(row_sum + *e);
            }
            // Pass 5: weighted sum over V, accumulated in the output dtype;
            // `j` ascends for every `kd`, like the grid's innermost loop.
            o_row.fill(round_to_dtype(0.0, odt));
            for (page, in_page) in vst.pages.iter().zip(exps.chunks(p)) {
                let v_rows = &mut page_rows[..in_page.len() * hd];
                page.read_f64_range(head_rows, v_rows).map_err(page_err)?;
                for (&e, v_row) in in_page.iter().zip(v_rows.chunks(hd)) {
                    let w = e / row_sum;
                    for (acc, &v_el) in o_row.iter_mut().zip(v_row) {
                        *acc = round_to_dtype(*acc + w * v_el, odt);
                    }
                }
            }
        }
        NDArray::from_f64(&qs, odt, out).map_err(page_err)
    }
}

/// Scores pass 1 of [`KvCache::attention`] keeps in flight: independent
/// rounding chains, so the count changes no bit of any result.
const LANES: usize = 8;

/// `vm.builtin.kv_cache.append_paged(cache, new, shape[stream]) -> cache`
/// ([`KvCache::append`]).
pub(crate) fn builtin_append_paged(args: &[Value]) -> Result<Value, KernelError> {
    let cache = want_cache(APPEND, args, 0)?;
    let new = want_tensor(APPEND, args, 1)?;
    let d = want_shape(APPEND, args, 2, 1)?;
    cache.append(stream_arg(APPEND, d[0], "stream")?, new)?;
    Ok(Value::KvCache(cache.clone()))
}

/// `vm.builtin.kv_cache.attention(q, cache, shape[k_stream, v_stream,
/// causal]) -> tensor` ([`KvCache::attention`]).
pub(crate) fn builtin_attention(args: &[Value]) -> Result<Value, KernelError> {
    let q = want_tensor(ATTENTION, args, 0)?;
    let cache = want_cache(ATTENTION, args, 1)?;
    let d = want_shape(ATTENTION, args, 2, 3)?;
    let k = stream_arg(ATTENTION, d[0], "k stream")?;
    let v = stream_arg(ATTENTION, d[1], "v stream")?;
    Ok(Value::Tensor(cache.attention(q, k, v, d[2] != 0)?))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::Registry;

    fn xorshift(state: &mut u64) -> u64 {
        let mut x = *state;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        *state = x;
        x.wrapping_mul(0x2545F4914F6CDD1D)
    }

    fn rand_tensor(shape: &[usize], seed: &mut u64) -> NDArray {
        let n: usize = shape.iter().product();
        // f32-rounded, like every kernel-produced tensor in the pipeline.
        let vals: Vec<f64> = (0..n)
            .map(|_| {
                round_to_dtype(
                    (xorshift(seed) as f64 / u64::MAX as f64) * 2.0 - 1.0,
                    DataType::F32,
                )
            })
            .collect();
        NDArray::from_f64(shape, DataType::F32, vals).unwrap()
    }

    /// [`rand_tensor`] in `dtype`, every value rounded to it.
    fn rand_in(dtype: DataType, shape: &[usize], seed: &mut u64) -> NDArray {
        let vals = rand_tensor(shape, seed).to_f64_vec();
        let vals = vals.into_iter().map(|v| round_to_dtype(v, dtype)).collect();
        NDArray::from_f64(shape, dtype, vals).unwrap()
    }

    /// What both attention sweeps cross: `(page_tokens, GQA group, dtype)`.
    fn sweep_combos() -> impl Iterator<Item = (usize, usize, DataType)> {
        [3usize, 16].into_iter().flat_map(|page_tokens| {
            let dtypes = [DataType::F32, DataType::F16];
            let groups = [1usize, 2].into_iter();
            groups.flat_map(move |group| dtypes.map(|dtype| (page_tokens, group, dtype)))
        })
    }

    /// Batch rows `[from, from + n)` of a `(b, ..)` tensor.
    fn batch_rows(t: &NDArray, from: usize, n: usize) -> NDArray {
        let per = t.numel() / t.shape()[0];
        let mut shape = t.shape().to_vec();
        shape[0] = n;
        let vals = t.to_f64_vec()[from * per..(from + n) * per].to_vec();
        NDArray::from_f64(&shape, t.dtype(), vals).unwrap()
    }

    fn tiny_cache(pool: &Arc<KvPagePool>) -> KvCache {
        KvCache::new(
            KvCacheConfig {
                streams: 2,
                batch: 2,
                heads: 2,
                head_dim: 4,
                dtype: DataType::F32,
            },
            Arc::clone(pool),
        )
    }

    /// Random chunked appends through pages match the copy-based
    /// `vm.builtin.kv_append` oracle bitwise, page-boundary crossings
    /// included.
    #[test]
    fn paged_append_matches_copy_oracle_bitwise() {
        let registry = Registry::new();
        let pool = Arc::new(KvPagePool::unbounded(3)); // odd size: crossings
        let cache = tiny_cache(&pool);
        let mut seed = 0xC0FFEE;
        let mut oracle = NDArray::zeros(&[2, 2, 0, 4], DataType::F32);
        for chunk in [1usize, 4, 2, 3, 1, 5] {
            let new = rand_tensor(&[2, 2, chunk, 4], &mut seed);
            cache.append(0, &new).unwrap();
            let grown = NDArray::zeros(&[2, 2, oracle.shape()[2] + chunk, 4], DataType::F32);
            registry
                .call_lib(
                    "vm.builtin.kv_append",
                    &[oracle.clone(), new],
                    std::slice::from_ref(&grown),
                )
                .unwrap();
            oracle = grown;
            assert_eq!(cache.view(0).unwrap(), oracle);
        }
        assert_eq!(cache.len(0), 16);
        assert_eq!(cache.len(1), 0);
        // 16 tokens at 3 tokens/page = 6 pages for stream 0.
        assert_eq!(cache.pages_held(), 6);
    }

    /// The paged attention builtin is bitwise-identical to the TIR
    /// program `relax_core::legalize` emits for `Op::Attention`, run as a
    /// compiled kernel plan — and by the reference interpreter too at the
    /// `INTERPRETED` lengths, which straddle an interleave width and page
    /// boundaries of either size (it is slow: past length 9 it skips the
    /// quadratic read). A sweep over page sizes 3 and 16 ×
    /// GQA group 1 and 2 (four query heads over four or two kv heads, so a
    /// wrong head mapping or stride shows) × f32 and f16: one cache per
    /// combination grows a token at a time through every length 1..=40 —
    /// every remainder of an interleave width, page boundaries at both
    /// sizes — and each length is read causal and not with `s` in
    /// `{1, 2}` query rows; the quadratic `s = skv` read takes every third
    /// length, rotated so each length meets it under some combination.
    #[test]
    fn paged_attention_matches_legalized_tir_bitwise() {
        use relax_core::{legalize, Op, OpAttrs, StructInfo};
        use relax_tir::{interp, plan, Scalar};

        const INTERPRETED: [usize; 9] = [1, 2, 3, 4, 7, 8, 9, 17, 33];
        let (b, hq, hd) = (2usize, 4usize, 4usize);
        let mut seed = 0xBADBEEF;
        let (mut cases, mut interpreted) = (0usize, 0usize);
        for (combo, (page_tokens, group, dtype)) in sweep_combos().enumerate() {
            let hkv = hq / group;
            let rand = |shape: &[usize], seed: &mut u64| rand_in(dtype, shape, seed);
            let sinfo = |h: usize, n: usize| {
                let dims = [b, h, n, hd].map(|d| (d as i64).into());
                StructInfo::tensor(dims.to_vec(), dtype)
            };
            let pool = Arc::new(KvPagePool::unbounded(page_tokens));
            let cfg = KvCacheConfig {
                streams: 2,
                batch: b,
                heads: hkv,
                head_dim: hd,
                dtype,
            };
            let cache = KvCache::new(cfg, Arc::clone(&pool));
            for skv in 1..=40usize {
                cache.append(0, &rand(&[b, hkv, 1, hd], &mut seed)).unwrap();
                cache.append(1, &rand(&[b, hkv, 1, hd], &mut seed)).unwrap();
                let (k, v) = (cache.view(0).unwrap(), cache.view(1).unwrap());
                let mut rows = vec![1, 2];
                if (skv + combo) % 3 == 0 {
                    rows.push(skv);
                }
                rows.retain(|&s| s <= skv);
                rows.dedup();
                for s in rows {
                    let q = rand(&[b, hq, s, hd], &mut seed);
                    for causal in [true, false] {
                        let got = cache.attention(&q, 0, 1, causal).unwrap();
                        // Oracle: legalized Op::Attention on the gathered streams.
                        let mut attrs = OpAttrs::new();
                        attrs.insert("scale".into(), format!("{}", 1.0 / (hd as f64).sqrt()));
                        attrs.insert("causal".into(), causal.to_string());
                        let prim = legalize(
                            Op::Attention,
                            &attrs,
                            &[sinfo(hq, s), sinfo(hkv, skv), sinfo(hkv, skv)],
                            "attn_oracle",
                        )
                        .unwrap();
                        let case = format!(
                            "page={page_tokens} group={group} {dtype} s={s} skv={skv} {causal}"
                        );
                        let expected = NDArray::zeros(&[b, hq, s, hd], dtype);
                        let args = [q.clone(), k.clone(), v.clone(), expected.clone()];
                        let shapes: Vec<_> = args.iter().map(|a| a.shape().to_vec()).collect();
                        let compiled = plan::compile(&prim, &shapes).unwrap();
                        compiled.run(&args, 1).unwrap();
                        assert_eq!(got, expected, "{case}");
                        if INTERPRETED.contains(&skv) && (s <= 2 || skv <= 9) {
                            expected.fill(Scalar::F(0.0));
                            interp::run(&prim, &args).unwrap();
                            assert_eq!(got, expected, "interpreted, {case}");
                            interpreted += 1;
                        }
                        cases += 1;
                    }
                }
            }
        }
        assert_eq!(
            (cases, interpreted),
            (1466, 298),
            "the sweep lost or gained cases"
        );
    }

    /// One `append` / `attention` through a stack is bitwise the same
    /// calls on each member alone. The sweep of
    /// [`paged_attention_matches_legalized_tir_bitwise`] — both page sizes ×
    /// GQA group 1 and 2 × f32 and f16 — over three members that start 0,
    /// 5 and two-pages-and-one tokens long (so each meets a page boundary
    /// at a step of its own) and grow through the stack for 24 steps of
    /// `s` in `{1, 2}` tokens; every other combination stacks members of
    /// batch 2, so a batch row's member and its row inside the member
    /// differ. Each member has a twin fed the same rows alone.
    #[test]
    fn stacked_append_and_attention_match_each_member_alone_bitwise() {
        const STEPS: usize = 24;
        let (hq, hd) = (4usize, 4usize);
        let mut seed = 0x57AC_CED5;
        let mut cases = 0usize;
        for (combo, (page_tokens, group, dtype)) in sweep_combos().enumerate() {
            let (hkv, mb) = (hq / group, 1 + combo % 2);
            let pool = Arc::new(KvPagePool::unbounded(page_tokens));
            let cfg = KvCacheConfig {
                streams: 2,
                batch: mb,
                heads: hkv,
                head_dim: hd,
                dtype,
            };
            let starts = [0, 5, 2 * page_tokens + 1];
            let grown = |seed: &mut u64| -> Vec<KvCache> {
                let caches = starts.map(|start| {
                    let cache = KvCache::new(cfg, Arc::clone(&pool));
                    for stream in 0..2 {
                        let rows = rand_in(dtype, &[mb, hkv, start, hd], seed);
                        cache.append(stream, &rows).unwrap();
                    }
                    cache
                });
                caches.to_vec()
            };
            // The same seed twice: a member and its twin start equal.
            let members = grown(&mut seed.clone());
            let twins = grown(&mut seed);
            let stack = KvCache::stack(&members).unwrap();
            let b = members.len() * mb;
            assert_eq!(stack.config().batch, b);
            for step in 0..STEPS {
                let s = 1 + step % 2;
                for stream in 0..2 {
                    let new = rand_in(dtype, &[b, hkv, s, hd], &mut seed);
                    stack.append(stream, &new).unwrap();
                    for (mi, twin) in twins.iter().enumerate() {
                        twin.append(stream, &batch_rows(&new, mi * mb, mb)).unwrap();
                    }
                }
                let q = rand_in(dtype, &[b, hq, s, hd], &mut seed);
                for causal in [true, false] {
                    let got = stack.attention(&q, 0, 1, causal).unwrap();
                    for (mi, twin) in twins.iter().enumerate() {
                        let alone = twin.attention(&batch_rows(&q, mi * mb, mb), 0, 1, causal);
                        let case = format!(
                            "page={page_tokens} group={group} {dtype} mb={mb} step={step} \
                             member={mi} {causal}"
                        );
                        assert_eq!(batch_rows(&got, mi * mb, mb), alone.unwrap(), "{case}");
                        cases += 1;
                    }
                }
                // The appended rows are in each member's own pages.
                for (member, twin) in members.iter().zip(&twins) {
                    assert_eq!(member.lens(), twin.lens());
                    for stream in 0..2 {
                        assert_eq!(member.view(stream).unwrap(), twin.view(stream).unwrap());
                    }
                }
            }
            let lens: Vec<usize> = members.iter().flat_map(|m| m.lens()).collect();
            assert_eq!(
                stack.lens(),
                lens,
                "a stack lists its streams member by member"
            );
        }
        assert_eq!(cases, 8 * STEPS * 2 * 3, "the sweep lost or gained cases");
    }

    /// The host methods name themselves in their errors: no registry holds
    /// a builtin by these names.
    #[test]
    fn host_method_errors_name_the_method() {
        assert_eq!(KvCache::stack(&[]).unwrap_err().kernel, "KvCache::stack");
        let pool = Arc::new(KvPagePool::with_capacity(4, 64));
        let cfg = KvCacheConfig {
            streams: 1,
            batch: 1,
            heads: 1,
            head_dim: 2,
            dtype: DataType::F32,
        };
        let cache = KvCache::new(cfg, pool);
        assert_eq!(cache.view(1).unwrap_err().kernel, "KvCache::view");
        let grow = cache.truncate_to(&[1]).unwrap_err();
        assert_eq!(grow.kernel, "KvCache::truncate_to");
    }

    /// What a stack is and is not: it refuses an empty list, a member
    /// listed twice and a member of another geometry or pool; it owns no
    /// page; `view` gathers members of one length and refuses ragged ones;
    /// `truncate_to` takes the lengths `lens` gives, member by member.
    #[test]
    fn a_stack_is_only_handles_on_its_members() {
        let pool = Arc::new(KvPagePool::with_capacity(4, 64));
        let cfg = KvCacheConfig {
            streams: 1,
            batch: 1,
            heads: 1,
            head_dim: 2,
            dtype: DataType::F32,
        };
        let (a, b) = (
            KvCache::new(cfg, pool.clone()),
            KvCache::new(cfg, pool.clone()),
        );
        assert!(KvCache::stack(&[]).is_err());
        let twice = KvCache::stack(&[a.clone(), b.clone(), a.clone()]).unwrap_err();
        assert!(twice.detail.contains("twice"), "{twice}");
        let wide = KvCache::new(KvCacheConfig { heads: 2, ..cfg }, pool.clone());
        assert!(KvCache::stack(&[a.clone(), wide]).is_err());
        let elsewhere = KvCache::new(cfg, Arc::new(KvPagePool::unbounded(4)));
        assert!(KvCache::stack(&[a.clone(), elsewhere]).is_err());

        let mut seed = 5;
        let stack = KvCache::stack(&[a.clone(), b.clone()]).unwrap();
        stack
            .append(0, &rand_tensor(&[2, 1, 3, 2], &mut seed))
            .unwrap();
        let both = stack.view(0).unwrap();
        assert_eq!(batch_rows(&both, 0, 1), a.view(0).unwrap());
        assert_eq!(batch_rows(&both, 1, 1), b.view(0).unwrap());
        b.append(0, &rand_tensor(&[1, 1, 2, 2], &mut seed)).unwrap();
        assert_eq!(
            (stack.lens(), stack.len(1), stack.pages_held()),
            (vec![3, 5], 5, 3)
        );
        let ragged = stack.view(0).unwrap_err();
        assert!(ragged.detail.contains("3 and 5"), "{ragged}");
        // A stack of a stack lists the same members.
        let nested = KvCache::stack(std::slice::from_ref(&stack)).unwrap();
        assert_eq!(nested.lens(), vec![3, 5]);
        assert!(
            stack.truncate_to(&[3]).is_err(),
            "one length for two streams"
        );
        assert!(stack.truncate_to(&[4, 5]).is_err(), "a grow");
        stack.truncate_to(&[1, 4]).unwrap();
        assert_eq!((a.len(0), b.len(0), pool.stats().in_use), (1, 4, 2));
        drop((stack, nested));
        assert_eq!(
            pool.stats().in_use,
            2,
            "dropping a stack released a member's pages"
        );
        drop((a, b));
        let st = pool.stats();
        assert!(st.reconciles() && st.in_use == 0, "{st:?}");
    }

    /// A stacked append the pool cannot serve in full changes no member,
    /// the ones before the member that ran out included.
    #[test]
    fn exhausted_stacked_append_is_atomic_across_members() {
        let pool = Arc::new(KvPagePool::with_capacity(2, 4));
        let cfg = KvCacheConfig {
            streams: 1,
            batch: 1,
            heads: 1,
            head_dim: 2,
            dtype: DataType::F32,
        };
        let caches: Vec<KvCache> = (0..3).map(|_| KvCache::new(cfg, pool.clone())).collect();
        let stack = KvCache::stack(&caches).unwrap();
        let mut seed = 11;
        // One token each: three of the four pages.
        stack
            .append(0, &rand_tensor(&[3, 1, 1, 2], &mut seed))
            .unwrap();
        let before: Vec<NDArray> = caches.iter().map(|c| c.view(0).unwrap()).collect();
        // Two more tokens each need a second page per member; one is left.
        let err = stack
            .append(0, &rand_tensor(&[3, 1, 2, 2], &mut seed))
            .unwrap_err();
        assert!(err.pool_exhausted.is_some(), "{err}");
        for (cache, before) in caches.iter().zip(&before) {
            assert_eq!((cache.len(0), cache.pages_held()), (1, 1));
            assert_eq!(&cache.view(0).unwrap(), before);
        }
        let st = pool.stats();
        assert!(st.reconciles() && st.in_use == 3, "{st:?}");
        // One more token each fits the pages already held.
        stack
            .append(0, &rand_tensor(&[3, 1, 1, 2], &mut seed))
            .unwrap();
        assert_eq!(stack.lens(), vec![2, 2, 2]);
    }

    /// A cache `create` was given zero-wide heads for is degenerate, not a
    /// panic: attention over it is the empty tensor.
    #[test]
    fn attention_over_zero_wide_heads_is_empty() {
        let cfg = KvCacheConfig {
            streams: 2,
            batch: 1,
            heads: 1,
            head_dim: 0,
            dtype: DataType::F32,
        };
        let cache = KvCache::new(cfg, Arc::new(KvPagePool::unbounded(4)));
        let row = NDArray::zeros(&[1, 1, 1, 0], DataType::F32);
        cache.append(0, &row).unwrap();
        cache.append(1, &row).unwrap();
        let out = cache.attention(&row, 0, 1, true).unwrap();
        assert_eq!(out.shape(), &[1, 1, 1, 0]);
    }

    /// Truncation rolls back logical lengths, releases now-empty pages,
    /// and re-appending after the rollback reproduces identical bits.
    #[test]
    fn truncate_releases_pages_and_replays_bitwise() {
        let pool = Arc::new(KvPagePool::with_capacity(2, 64));
        let cache = tiny_cache(&pool);
        let mut seed = 42;
        let a = rand_tensor(&[2, 2, 3, 4], &mut seed);
        let tail = rand_tensor(&[2, 2, 2, 4], &mut seed);
        cache.append(0, &a).unwrap();
        let mark = cache.lens();
        cache.append(0, &tail).unwrap();
        let full = cache.view(0).unwrap();
        let pages_full = cache.pages_held();
        // Roll back, then replay the same append: bitwise identical.
        cache.truncate_to(&mark).unwrap();
        assert_eq!(cache.len(0), 3);
        assert!(cache.pages_held() < pages_full);
        cache.append(0, &tail).unwrap();
        assert_eq!(cache.view(0).unwrap(), full);
        // Growing via truncate is rejected.
        assert!(cache.truncate_to(&[10, 0]).is_err());
        // Dropping the last handle returns every page.
        let held = cache.pages_held();
        assert!(held > 0);
        drop(cache);
        let st = pool.stats();
        assert_eq!(st.in_use, 0);
        assert!(st.reconciles());
    }

    /// Pool exhaustion mid-append leaves no partial append and no
    /// leaked pages.
    #[test]
    fn exhausted_append_is_atomic() {
        let pool = Arc::new(KvPagePool::with_capacity(2, 3));
        let cache = tiny_cache(&pool);
        let mut seed = 7;
        cache
            .append(0, &rand_tensor(&[2, 2, 4, 4], &mut seed))
            .unwrap(); // 2 pages
        let before = cache.view(0).unwrap();
        // Needs 2 more pages; only 1 left.
        let err = cache
            .append(0, &rand_tensor(&[2, 2, 4, 4], &mut seed))
            .unwrap_err();
        assert!(err.detail.contains("exhausted"), "{err}");
        assert_eq!(cache.len(0), 4);
        assert_eq!(cache.view(0).unwrap(), before);
        let st = pool.stats();
        assert!(st.reconciles());
        assert_eq!(st.in_use, 2);
    }

    /// The registry runs the builtins end to end on a host-made cache:
    /// append → attention, with the handle flowing as a `Value`.
    #[test]
    fn dispatch_roundtrip() {
        let registry = Registry::new();
        let pool = Arc::new(KvPagePool::unbounded(4));
        let call = |op: &str, args: &[Value]| {
            registry.call_builtin(&format!("{KV_CACHE_PREFIX}{op}"), args)
        };
        let cfg = KvCacheConfig {
            streams: 2,
            batch: 1,
            heads: 2,
            head_dim: 4,
            dtype: DataType::F32,
        };
        let cache = KvCache::new(cfg, Arc::clone(&pool));
        let mut seed = 99;
        let new = rand_tensor(&[1, 2, 3, 4], &mut seed);
        let append = [
            Value::KvCache(cache.clone()),
            Value::Tensor(new.clone()),
            Value::Shape(vec![0]),
        ];
        let cache_v = call("append_paged", &append).unwrap();
        assert_eq!(cache.view(0).unwrap(), new);
        // Attention needs both streams; mirror K into V.
        let append = [cache_v, Value::Tensor(new.clone()), Value::Shape(vec![1])];
        let cache_v = call("append_paged", &append).unwrap();
        let q = rand_tensor(&[1, 2, 1, 4], &mut seed);
        let attend = [Value::Tensor(q), cache_v, Value::Shape(vec![0, 1, 1])];
        let out = call("attention", &attend).unwrap();
        assert_eq!(out.as_tensor().unwrap().shape(), &[1, 2, 1, 4]);
        // Unknown ops and bad arguments are errors, not panics.
        assert_eq!(call("nope", &[]).unwrap_err().detail, "not registered");
        let err = call("append_paged", &[Value::Shape(vec![3])]).unwrap_err();
        assert_eq!(err.kernel, "vm.builtin.kv_cache.append_paged");
        assert_eq!(err.detail, "expected inputs = 3, got 1");
        let misplaced = [
            Value::Shape(vec![3]),
            Value::Tensor(new),
            Value::Shape(vec![0]),
        ];
        let err = call("append_paged", &misplaced).unwrap_err();
        assert_eq!(err.kernel, "vm.builtin.kv_cache.append_paged");
        assert_eq!(err.detail, "expected a kv_cache, got shape");
    }
}
