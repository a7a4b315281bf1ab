//! The output check. Every output is compared with a reference that
//! shares nothing with the measured path beyond the model builders'
//! layer arithmetic:
//!
//! - serving workloads: the copy-based `llama::build_decode` compiled with
//!   `CompileOptions::baseline()` on one `Vm` — no fusion, library
//!   dispatch, kernel scheduling, memory plan, graph capture, prefill
//!   function, paged KV or serving;
//! - `moe_ragged`: the pure-Rust `reference_route` / `reference_moe`
//!   oracles, bit for bit.
//!
//! Seeds 1 and 2 carry golden files (written by `--write-golden` from the
//! references above); other seeds check a sample directly within a time
//! budget, and every seed checks that a list entry executed twice gave the
//! same output twice.

use std::collections::HashMap;
use std::time::{Duration, Instant};

use relax_arith::DataType;
use relax_models::llama::{self, LlamaConfig};
use relax_models::moe::{reference_moe, reference_route};
use relax_passes::{compile, CompileOptions};
use relax_tir::NDArray;
use relax_vm::{Value, Vm};

use crate::config::{bench_llama, bench_moe, moe_table, weights, Built};
use crate::workload::{fnv64_words, Entry, Workload};

/// Wall budget of the direct check on a seed without a golden file.
const DIRECT_BUDGET: Duration = Duration::from_millis(2500);
/// Direct check: the first sessions of the list, this many new tokens each.
const DIRECT_SESSIONS: usize = 8;
const DIRECT_TOKENS: usize = 16;
/// Direct check: every n-th executed `moe_ragged` step keeps its raw output.
pub const DIRECT_STEP_STRIDE: usize = 50;

pub fn hash_tokens(tokens: &[i64]) -> u64 {
    fnv64_words(tokens.iter().map(|&t| t as u64))
}

pub fn hash_values(values: &[f64]) -> u64 {
    fnv64_words(values.iter().map(|v| v.to_bits()))
}

/// One executed list entry's output, as the measured path produced it.
#[derive(Debug, Clone, Default)]
pub struct Output {
    pub index: usize,
    pub hash: u64,
    /// Generated tokens (serving workloads).
    pub tokens: Vec<i64>,
    /// Raw output values (`moe_ragged`, kept for sampled steps only).
    pub raw: Vec<f64>,
}

pub fn argmax(logits: &NDArray) -> i64 {
    let vals = logits.to_f64_vec();
    let mut best = 0;
    for (i, &v) in vals.iter().enumerate() {
        if v > vals[best] {
            best = i;
        }
    }
    best as i64
}

/// Greedy decoding through the copy-based decode function on one `Vm`.
pub struct LlamaOracle {
    cfg: LlamaConfig,
    vm: Vm,
    weights: Vec<Value>,
}

impl LlamaOracle {
    pub fn new() -> LlamaOracle {
        let cfg = bench_llama();
        let built: Built = llama::build_decode(&cfg).expect("build decode").into();
        let exec = compile(built.module.clone(), &CompileOptions::baseline()).expect("compile baseline");
        LlamaOracle { vm: Vm::new(exec), weights: weights(&built.params), cfg }
    }

    /// The same executable on the reference interpreter (no kernel plans).
    pub fn interpreter() -> LlamaOracle {
        let mut o = LlamaOracle::new();
        o.vm.set_plan_cache_capacity(0);
        o
    }

    /// Feeds the prompt one token at a time, then decodes `n` tokens.
    pub fn generate(&mut self, prompt: &[i64], n: usize) -> Vec<i64> {
        let (nkv, hd) = (self.cfg.n_kv_heads as usize, self.cfg.head_dim as usize);
        let mut caches: Vec<Value> = (0..2 * self.cfg.n_layers)
            .map(|_| Value::Tensor(NDArray::zeros(&[1, nkv, 0, hd], self.cfg.dtype)))
            .collect();
        let mut out = Vec::with_capacity(n);
        let mut token = prompt[0];
        for fed in 0..prompt.len() + n - 1 {
            let t = NDArray::from_i64(&[1, 1], DataType::I64, vec![token]).expect("token tensor");
            let mut args = vec![Value::Tensor(t)];
            args.append(&mut caches);
            args.extend(self.weights.iter().cloned());
            let result = self.vm.run("decode", &args).expect("reference decode");
            let items = result.as_tuple().expect("decode returns a tuple");
            caches = items[1..].to_vec();
            token = if fed + 1 < prompt.len() {
                prompt[fed + 1]
            } else {
                let next = argmax(items[0].as_tensor().expect("logits"));
                out.push(next);
                next
            };
        }
        out
    }
}

impl Default for LlamaOracle {
    fn default() -> Self {
        LlamaOracle::new()
    }
}

/// The pure-Rust MoE oracle over the benchmark's weights and token table.
pub struct MoeOracle {
    table: Vec<f64>,
    router: Vec<f64>,
    w1: Vec<Vec<f64>>,
    w2: Vec<Vec<f64>>,
}

impl MoeOracle {
    pub fn new(model: &Built) -> MoeOracle {
        let w: Vec<Vec<f64>> = weights(&model.params)
            .iter()
            .map(|v| v.as_tensor().expect("weight tensor").to_f64_vec())
            .collect();
        MoeOracle {
            table: moe_table().to_f64_vec(),
            router: w[0].clone(),
            w1: w[1..].iter().step_by(2).cloned().collect(),
            w2: w[2..].iter().step_by(2).cloned().collect(),
        }
    }

    pub fn output(&self, rows: &[usize]) -> Vec<f64> {
        let cfg = bench_moe();
        let (d, h, e) = (cfg.d_model as usize, cfg.d_ff as usize, cfg.experts as usize);
        let tokens: Vec<f64> =
            rows.iter().flat_map(|&r| self.table[r * d..(r + 1) * d].iter().copied()).collect();
        let assign = reference_route(&tokens, &self.router, rows.len(), d, e);
        reference_moe(&tokens, &assign, &self.w1, &self.w2, d, h)
    }
}

/// The reference output hash of one list entry.
pub enum Oracle {
    Llama(Box<LlamaOracle>),
    Moe(Box<MoeOracle>),
}

impl Oracle {
    pub fn new(w: Workload, models: &[Built]) -> Oracle {
        match w {
            Workload::MoeRagged => Oracle::Moe(Box::new(MoeOracle::new(&models[0]))),
            _ => Oracle::Llama(Box::default()),
        }
    }

    pub fn hash(&mut self, e: &Entry) -> u64 {
        match self {
            Oracle::Llama(o) => hash_tokens(&o.generate(&e.prompt, e.new_tokens)),
            Oracle::Moe(o) => hash_values(&o.output(&e.rows)),
        }
    }
}

/// One golden line: list index, two sizes, output hash.
type GoldenLine = (usize, usize, u64);

fn sizes(e: &Entry) -> (usize, usize) {
    if e.rows.is_empty() {
        (e.prompt.len(), e.new_tokens)
    } else {
        (e.rows.len(), 0)
    }
}

const GOLDEN: [(&str, u64, &str); 6] = [
    ("chat_decode", 1, include_str!("../golden/chat_decode.seed1.txt")),
    ("chat_decode", 2, include_str!("../golden/chat_decode.seed2.txt")),
    ("long_prompt", 1, include_str!("../golden/long_prompt.seed1.txt")),
    ("long_prompt", 2, include_str!("../golden/long_prompt.seed2.txt")),
    ("moe_ragged", 1, include_str!("../golden/moe_ragged.seed1.txt")),
    ("moe_ragged", 2, include_str!("../golden/moe_ragged.seed2.txt")),
];

pub fn golden_path(w: Workload, seed: u64) -> String {
    format!("{}/golden/{}.seed{seed}.txt", env!("CARGO_MANIFEST_DIR"), w.name())
}

/// The golden file's text: one `index size size hash` line per list entry.
pub fn golden_text(list: &[Entry], oracle: &mut Oracle) -> String {
    list.iter()
        .enumerate()
        .map(|(i, e)| {
            let (a, b) = sizes(e);
            format!("{i} {a} {b} {:016x}\n", oracle.hash(e))
        })
        .collect()
}

fn parse_golden(text: &str) -> Vec<GoldenLine> {
    text.lines()
        .map(|line| {
            let f: Vec<&str> = line.split(' ').collect();
            let num = |i: usize| f.get(i).and_then(|t| t.parse::<usize>().ok());
            match (num(1), num(2), f.get(3).and_then(|h| u64::from_str_radix(h, 16).ok())) {
                (Some(a), Some(b), Some(h)) if f.len() == 4 => (a, b, h),
                _ => panic!("malformed golden line {line:?}"),
            }
        })
        .collect()
}

/// Checks executed outputs against the reference.
pub struct Checker<'a> {
    w: Workload,
    list: &'a [Entry],
    models: &'a [Built],
    golden: Option<Vec<GoldenLine>>,
}

impl<'a> Checker<'a> {
    /// Panics when a golden file no longer describes the generated list:
    /// that is a stale file, not a wrong output.
    pub fn new(w: Workload, seed: u64, list: &'a [Entry], models: &'a [Built]) -> Checker<'a> {
        let golden = GOLDEN
            .iter()
            .find(|(name, s, text)| *name == w.name() && *s == seed && !text.is_empty())
            .map(|(_, _, text)| parse_golden(text));
        if let Some(g) = &golden {
            let same = g.len() == list.len() && g.iter().zip(list).all(|(l, e)| (l.0, l.1) == sizes(e));
            assert!(same, "golden file of {} seed {seed} is stale: rewrite it with --write-golden", w.name());
        }
        Checker { w, list, models, golden }
    }

    pub fn has_golden(&self) -> bool {
        self.golden.is_some()
    }

    /// The number of outputs that differ from the reference.
    pub fn mismatches(&self, outputs: &[Output]) -> usize {
        let mut first: HashMap<usize, u64> = HashMap::new();
        let mut bad = outputs
            .iter()
            .filter(|o| match &self.golden {
                Some(g) => g[o.index].2 != o.hash,
                // An entry executed twice must give the same output twice.
                None => *first.entry(o.index).or_insert(o.hash) != o.hash,
            })
            .count();
        if self.golden.is_none() {
            bad += self.direct(outputs);
        }
        bad
    }

    fn direct(&self, outputs: &[Output]) -> usize {
        let start = Instant::now();
        let mut bad = 0;
        match self.w {
            Workload::MoeRagged => {
                let oracle = MoeOracle::new(&self.models[0]);
                for o in outputs.iter().filter(|o| !o.raw.is_empty()) {
                    if start.elapsed() > DIRECT_BUDGET {
                        break;
                    }
                    let want = oracle.output(&self.list[o.index].rows);
                    bad += usize::from(hash_values(&want) != hash_values(&o.raw));
                }
            }
            _ => {
                let mut oracle = LlamaOracle::new();
                for index in 0..DIRECT_SESSIONS {
                    let Some(o) = outputs.iter().find(|o| o.index == index) else {
                        continue;
                    };
                    if start.elapsed() > DIRECT_BUDGET {
                        break;
                    }
                    let n = o.tokens.len().min(DIRECT_TOKENS);
                    bad += usize::from(oracle.generate(&self.list[index].prompt, n) != o.tokens[..n]);
                }
            }
        }
        bad
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::build_models;
    use crate::workload::generate;

    #[test]
    fn a_wrong_or_unrepeatable_output_is_a_mismatch() {
        let w = Workload::MoeRagged;
        let (list, models) = (generate(w, 77), build_models(w));
        let checker = Checker::new(w, 77, &list, &models);
        assert!(!checker.has_golden());
        let oracle = MoeOracle::new(&models[0]);
        let output = |index: usize| {
            let raw = oracle.output(&list[index].rows);
            Output { index, hash: hash_values(&raw), raw, ..Output::default() }
        };
        assert_eq!(checker.mismatches(&[output(0), output(1), output(0)]), 0);
        // One flipped bit in a sampled raw output fails the direct check.
        let mut flipped = output(2);
        flipped.raw[5] = f64::from_bits(flipped.raw[5].to_bits() ^ 1);
        assert_eq!(checker.mismatches(&[output(0), flipped]), 1);
        // The same entry giving two different outputs fails without any reference.
        let unstable = Output { index: 0, hash: 1, ..Output::default() };
        assert_eq!(checker.mismatches(&[output(0), unstable]), 1);
    }

    #[test]
    fn golden_lines_round_trip() {
        let list = generate(Workload::MoeRagged, 5);
        let models = build_models(Workload::MoeRagged);
        let text = golden_text(&list[..3], &mut Oracle::new(Workload::MoeRagged, &models));
        let lines = parse_golden(&text);
        assert_eq!(lines.len(), 3);
        assert_eq!((lines[1].0, lines[1].1), sizes(&list[1]));
        assert_eq!(lines[2].2, hash_values(&MoeOracle::new(&models[0]).output(&list[2].rows)));
    }
}
