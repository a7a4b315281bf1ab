//! End-to-end tests for the additional model set (§5.4): the tiny Whisper
//! encoder–decoder and the tiny LLaVA vision encoder run numerically
//! through the full pipeline.

use std::collections::HashMap;

use relax::core::{DataType, ShapeDesc, StructInfo};
use relax::models::llava::{build_vision_encoder, LlavaConfig};
use relax::models::whisper::{build_cross_kv, build_decoder_step, build_encoder, WhisperConfig};
use relax::passes::{compile, CompileOptions};
use relax::tir::NDArray;
use relax::vm::{Value, Vm};

fn random_arr(shape: &[usize], dtype: DataType, seed: &mut u64) -> NDArray {
    let n: usize = shape.iter().product();
    let vals: Vec<f64> = (0..n)
        .map(|_| {
            *seed = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (((*seed >> 33) as f64 / (1u64 << 31) as f64) - 0.5) * 0.3
        })
        .collect();
    NDArray::from_f64(shape, dtype, vals).unwrap()
}

fn materialize(
    params: &[(String, StructInfo)],
    env: &HashMap<&str, i64>,
    weights: &mut HashMap<String, NDArray>,
    seed: &mut u64,
) -> Vec<Value> {
    params
        .iter()
        .map(|(name, sinfo)| {
            let (dims, dt) = match sinfo {
                StructInfo::Tensor {
                    shape: ShapeDesc::Known(d),
                    dtype,
                } => (
                    d.iter()
                        .map(|e| {
                            e.as_int()
                                .unwrap_or_else(|| env[e.as_var().expect("var dim").name()])
                                as usize
                        })
                        .collect::<Vec<_>>(),
                    dtype.unwrap(),
                ),
                other => panic!("unexpected annotation {other}"),
            };
            if name == "tokens" {
                return Value::Tensor(
                    NDArray::from_i64(&dims, dt, vec![1; dims.iter().product()]).unwrap(),
                );
            }
            let arr = weights
                .entry(name.clone())
                .or_insert_with(|| random_arr(&dims, dt, seed))
                .clone();
            Value::Tensor(arr)
        })
        .collect()
}

#[test]
fn whisper_encoder_cross_kv_decoder_pipeline() {
    let cfg = WhisperConfig::tiny();
    let mut seed = 41u64;
    let mut weights = HashMap::new();

    // Encoder.
    let enc = build_encoder(&cfg).unwrap();
    let enc_exec = compile(enc.module.clone(), &CompileOptions::default()).unwrap();
    let env: HashMap<&str, i64> = [("batch", 1), ("s_audio", cfg.audio_ctx)].into();
    let enc_args = materialize(&enc.params, &env, &mut weights, &mut seed);
    let mut enc_vm = Vm::new(enc_exec);
    let states = enc_vm.run("encode", &enc_args).unwrap();
    assert_eq!(enc_vm.telemetry().plan_fallbacks, 0);
    let states = states.as_tensor().unwrap().clone();
    assert_eq!(
        states.shape(),
        &[1, cfg.audio_ctx as usize, cfg.d_model as usize]
    );
    assert!(states.to_f64_vec().iter().all(|v| v.is_finite()));

    // Cross K/V projection (once per utterance).
    let cross = build_cross_kv(&cfg).unwrap();
    let cross_exec = compile(cross.module.clone(), &CompileOptions::default()).unwrap();
    let mut cross_args = materialize(&cross.params, &env, &mut weights, &mut seed);
    cross_args[0] = Value::Tensor(states);
    let mut cross_vm = Vm::new(cross_exec);
    let cross_out = cross_vm.run("cross_kv", &cross_args).unwrap();
    assert_eq!(cross_vm.telemetry().plan_fallbacks, 0);
    let cross_tensors: Vec<NDArray> = cross_out
        .as_tuple()
        .unwrap()
        .iter()
        .map(|v| v.as_tensor().unwrap().clone())
        .collect();
    assert_eq!(cross_tensors.len(), 2 * cfg.dec_layers);

    // One decode step with empty-ish self caches (length 1).
    let dec = build_decoder_step(&cfg).unwrap();
    let dec_exec = compile(dec.module.clone(), &CompileOptions::default()).unwrap();
    let dec_env: HashMap<&str, i64> =
        [("batch", 1), ("kv_len", 1), ("s_audio", cfg.audio_ctx)].into();
    let mut dec_args = materialize(&dec.params, &dec_env, &mut weights, &mut seed);
    // Patch the cross K/V parameters with the projected values.
    for (i, (name, _)) in dec.params.iter().enumerate() {
        if let Some(rest) = name.strip_prefix('d') {
            if let Some((layer, field)) = rest.split_once('.') {
                let l: usize = layer.parse().unwrap();
                match field {
                    "cross_k" => dec_args[i] = Value::Tensor(cross_tensors[2 * l].clone()),
                    "cross_v" => dec_args[i] = Value::Tensor(cross_tensors[2 * l + 1].clone()),
                    _ => {}
                }
            }
        }
    }
    let mut dec_vm = Vm::new(dec_exec);
    let out = dec_vm.run("decode", &dec_args).unwrap();
    assert_eq!(dec_vm.telemetry().plan_fallbacks, 0);
    let tuple = out.as_tuple().unwrap();
    let logits = tuple[0].as_tensor().unwrap();
    assert_eq!(logits.shape(), &[1, 1, cfg.vocab as usize]);
    assert!(logits.to_f64_vec().iter().all(|v| v.is_finite()));
    // Self caches grew by one.
    assert_eq!(tuple[1].as_tensor().unwrap().shape()[2], 2);
}

#[test]
fn llava_vision_encoder_projects_to_llm_space() {
    let cfg = LlavaConfig::tiny();
    let ir = build_vision_encoder(&cfg).unwrap();
    let exec = compile(ir.module.clone(), &CompileOptions::default()).unwrap();
    let mut seed = 47u64;
    let mut weights = HashMap::new();
    let env: HashMap<&str, i64> = [("batch", 1)].into();
    let args = materialize(&ir.params, &env, &mut weights, &mut seed);
    let mut vm = Vm::new(exec);
    let out = vm.run("encode_image", &args).unwrap();
    assert_eq!(vm.telemetry().plan_fallbacks, 0);
    let t = out.as_tensor().unwrap();
    assert_eq!(
        t.shape(),
        &[1, cfg.patches as usize, cfg.llm.hidden as usize]
    );
    assert!(t.to_f64_vec().iter().all(|v| v.is_finite()));
}
