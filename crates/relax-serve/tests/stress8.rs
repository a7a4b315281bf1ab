//! Satellite: an 8-worker seeded stress run driving mixed decode shapes
//! through the refactored sharded queue, snapshot plan cache and atomic
//! tensor storage — asserting the results are bitwise identical to
//! single-threaded execution and the cache's counting invariant holds.

use std::collections::HashMap;

use relax_core::{DataType, ShapeDesc, StructInfo};
use relax_models::llama::{build_decode, LlamaConfig, ModelIr};
use relax_passes::{compile, CompileOptions};
use relax_serve::{ServeConfig, ServeEngine};
use relax_tir::NDArray;
use relax_vm::{Value, Vm};

/// In-repo xorshift64 PRNG: deterministic across runs and platforms, no
/// external dependency.
struct XorShift64(u64);

impl XorShift64 {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x
    }

    /// Uniform-ish f64 in (-0.1, 0.1), exactly representable arithmetic.
    fn small(&mut self) -> f64 {
        ((self.next() >> 33) as f64 / (1u64 << 31) as f64 - 0.5) * 0.2
    }
}

fn concrete(ir: &ModelIr, sinfo: &StructInfo, batch: i64, kv: i64) -> (Vec<usize>, DataType) {
    let mut env = HashMap::new();
    env.insert(ir.batch.clone(), batch);
    env.insert(ir.seq.clone(), kv);
    match sinfo {
        StructInfo::Tensor {
            shape: ShapeDesc::Known(dims),
            dtype,
        } => (
            dims.iter()
                .map(|d| d.eval(&env).unwrap() as usize)
                .collect(),
            dtype.unwrap(),
        ),
        other => panic!("unexpected annotation {other}"),
    }
}

fn decode_args(ir: &ModelIr, batch: i64, kv: i64, rng: &mut XorShift64) -> Vec<Value> {
    ir.params
        .iter()
        .map(|(name, sinfo)| {
            let (dims, dt) = concrete(ir, sinfo, batch, kv);
            let n: usize = dims.iter().product();
            if name == "tokens" {
                let toks: Vec<i64> = (0..n).map(|_| (rng.next() % 16) as i64).collect();
                Value::Tensor(NDArray::from_i64(&dims, dt, toks).unwrap())
            } else {
                let vals: Vec<f64> = (0..n).map(|_| rng.small()).collect();
                Value::Tensor(NDArray::from_f64(&dims, dt, vals).unwrap())
            }
        })
        .collect()
}

/// Flattens a decode output tuple (logits + grown KV caches) for
/// bitwise comparison.
fn flatten_output(v: &Value) -> Vec<Vec<f64>> {
    v.as_tuple()
        .unwrap()
        .iter()
        .map(|e| e.as_tensor().unwrap().to_f64_vec())
        .collect()
}

/// 8 workers, 48 requests over 6 distinct `(batch, kv)` shapes in a
/// seeded shuffle: every concurrent result must be bit-identical to the
/// same request on a plain single-threaded `Vm`, and the shared plan
/// cache's flushed counters must satisfy `hits + misses == probes`.
#[test]
fn eight_workers_match_single_threaded_bitwise() {
    let ir = build_decode(&LlamaConfig::tiny()).unwrap();
    let exec = compile(ir.module.clone(), &CompileOptions::default()).unwrap();

    // Mixed shapes; the shard router spreads these across queue shards.
    let shapes: [(i64, i64); 6] = [(1, 1), (1, 2), (2, 1), (2, 3), (1, 4), (2, 2)];
    let mut rng = XorShift64(0x9E3779B97F4A7C15);
    let requests: Vec<Vec<Value>> = (0..48)
        .map(|i| {
            let (batch, kv) = shapes[(rng.next() as usize ^ i) % shapes.len()];
            decode_args(&ir, batch, kv, &mut rng)
        })
        .collect();

    // Reference: every request on one single-threaded VM, in order.
    let mut vm = Vm::new(compile(ir.module.clone(), &CompileOptions::default()).unwrap());
    let expected: Vec<Vec<Vec<f64>>> = requests
        .iter()
        .map(|args| flatten_output(&vm.run("decode", args).unwrap()))
        .collect();

    // Stress: all 48 in flight at once across 8 workers sharing a cache.
    let engine = ServeEngine::new(
        exec,
        ServeConfig {
            workers: 8,
            queue_capacity: 64,
            ..ServeConfig::default()
        },
    );
    let tickets: Vec<_> = requests
        .iter()
        .map(|args| engine.submit("decode", args).unwrap())
        .collect();
    let got: Vec<Vec<Vec<f64>>> = tickets
        .into_iter()
        .map(|t| flatten_output(&t.wait().unwrap()))
        .collect();

    for (i, (g, e)) in got.iter().zip(&expected).enumerate() {
        assert_eq!(g.len(), e.len(), "request {i}: tuple arity differs");
        for (j, (gv, ev)) in g.iter().zip(e).enumerate() {
            assert!(
                gv.iter().zip(ev).all(|(a, b)| a.to_bits() == b.to_bits()),
                "request {i} element {j}: concurrent result differs bitwise"
            );
        }
    }

    let report = engine.shutdown();
    assert_eq!(report.stats.completed, 48);
    assert_eq!(report.stats.failed, 0);
    let pc = report.stats.plan_cache;
    assert!(pc.probes > 0, "the stress must exercise the plan cache");
    assert_eq!(
        pc.hits + pc.misses,
        pc.probes,
        "batched stat publication must balance at shutdown"
    );
    assert!(pc.hits > 0, "repeated shapes must hit the shared cache");
}
