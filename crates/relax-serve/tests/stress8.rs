//! Satellite: an 8-worker seeded stress run driving mixed decode shapes
//! through the serving core, the shared plan cache and atomic tensor
//! storage — asserting the results are bitwise identical to
//! single-threaded execution and the cache's counting invariant holds.

use relax_passes::{compile, CompileOptions};
use relax_serve::{ServeConfig, ServeEngine};
use relax_vm::{Value, Vm};

mod common;
use common::{decode_args, flatten_output, tiny_exec};

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
}

/// 8 workers, 48 requests over 6 distinct `(batch, kv)` shapes in a
/// seeded shuffle: every concurrent result must be bit-identical to the
/// same request on a plain single-threaded `Vm`, and the shared plan
/// cache's counters must satisfy `hits + misses == probes`.
#[test]
fn eight_workers_match_single_threaded_bitwise() {
    let (ir, exec) = tiny_exec();

    // Mixed shapes, so one iteration holds steps of different plans.
    let shapes: [(i64, i64); 6] = [(1, 1), (1, 2), (2, 1), (2, 3), (1, 4), (2, 2)];
    let mut rng = XorShift64(0x9E3779B97F4A7C15);
    let mut seed = 0x5EED_0008u64;
    let requests: Vec<Vec<Value>> = (0..48)
        .map(|i| {
            let (batch, kv) = shapes[(rng.next() as usize ^ i) % shapes.len()];
            decode_args(&ir, batch, kv, &mut seed)
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
        "every probe of the shared cache is one hit or one miss"
    );
    assert!(pc.hits > 0, "repeated shapes must hit the shared cache");
}
