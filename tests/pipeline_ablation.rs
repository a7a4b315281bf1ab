//! Pipeline ablation matrix: the existing MLP module compiled under every
//! on/off combination of `dispatch_library` / `fusion` / `memory_plan` /
//! `graph_capture` must produce a verifiable
//! executable and bit-identical VM outputs — optimizations may only
//! change *how* the answer is computed, never the answer. Each config's
//! planned VM must also match the reference interpreter (a capacity-0
//! plan cache) on the same executable, bitwise.
//!
//! Every public model builder is also compiled under all sixteen
//! configurations, and each executable must hash to the digests committed
//! in `tests/golden/compile_digests.txt` (the whole printed executable)
//! and `tests/golden/compile_digests_name_free.txt` (the VM functions with
//! every kernel name replaced by the kernel's canonical print); a debug
//! build re-checks the module's well-formedness after every module pass.

use std::collections::{BTreeSet, HashMap};

use relax_core::{BlockBuilder, DataType, Expr, IRModule, Op, StructInfo};
use relax_models::llama::{
    build_decode, build_decode_paged, build_decode_paged_multi, build_prefill, LlamaConfig,
};
use relax_models::llava::{build_vision_encoder, LlavaConfig};
use relax_models::moe::{build_dense_ffn, build_dispatch, build_ffn_with_assignments};
use relax_models::whisper::{
    build_cross_kv, build_decoder_step_paged, build_encoder, WhisperConfig,
};
use relax_models::MoeConfig;
use relax_passes::{compile, CompileOptions};
use relax_tir::NDArray;
use relax_vm::{Executable, Instr, Value, Vm};

/// x @ w1 -> +b1 -> relu -> @ w2 -> rms_norm, on symbolic batch — the
/// same MLP the pipeline unit tests use.
fn mlp_module() -> IRModule {
    let mut bb = BlockBuilder::new();
    let n = relax_arith::Var::new("n");
    let p = bb.begin_function(
        "main",
        vec![
            (
                "x".into(),
                StructInfo::tensor(vec![n.clone().into(), 8.into()], DataType::F32),
            ),
            (
                "w1".into(),
                StructInfo::tensor(vec![8.into(), 16.into()], DataType::F32),
            ),
            (
                "b1".into(),
                StructInfo::tensor(vec![16.into()], DataType::F32),
            ),
            (
                "w2".into(),
                StructInfo::tensor(vec![16.into(), 8.into()], DataType::F32),
            ),
            (
                "g".into(),
                StructInfo::tensor(vec![8.into()], DataType::F32),
            ),
        ],
    );
    bb.begin_dataflow();
    let h = bb
        .emit_op(Op::Matmul, &[p[0].clone(), p[1].clone()])
        .unwrap();
    let h = bb.emit_op(Op::Add, &[h, p[2].clone()]).unwrap();
    let h = bb.emit(Expr::op_call(Op::Relu, vec![h.into()])).unwrap();
    let h = bb.emit_op(Op::Matmul, &[h, p[3].clone()]).unwrap();
    let out = bb
        .emit_output(Expr::op_call(
            Op::RmsNorm,
            vec![h.into(), p[4].clone().into()],
        ))
        .unwrap();
    bb.end_dataflow();
    bb.finish_function(out.into(), None).unwrap();
    bb.finish()
}

fn mlp_args() -> Vec<Value> {
    let x = NDArray::from_f64(
        &[2, 8],
        DataType::F32,
        (0..16).map(|v| (v as f64) / 7.0 - 1.0).collect(),
    )
    .unwrap();
    let w1 = NDArray::from_f64(
        &[8, 16],
        DataType::F32,
        (0..128).map(|v| ((v % 7) as f64) / 7.0 - 0.4).collect(),
    )
    .unwrap();
    let b1 = NDArray::from_f64(&[16], DataType::F32, vec![0.1; 16]).unwrap();
    let w2 = NDArray::from_f64(
        &[16, 8],
        DataType::F32,
        (0..128).map(|v| ((v % 5) as f64) / 5.0 - 0.3).collect(),
    )
    .unwrap();
    let g = NDArray::from_f64(&[8], DataType::F32, vec![1.0; 8]).unwrap();
    [x, w1, b1, w2, g].into_iter().map(Value::Tensor).collect()
}

#[test]
fn all_sixteen_configurations_verify_and_agree_bitwise() {
    let args = mlp_args();
    let mut reference: Option<Vec<u64>> = None;
    for mask in 0..16u32 {
        let opts = CompileOptions {
            dispatch_library: mask & 1 != 0,
            fusion: mask & 2 != 0,
            memory_plan: mask & 4 != 0,
            graph_capture: mask & 8 != 0,
            shape_bounds: HashMap::new(),
        };
        let exec = compile(mlp_module(), &opts)
            .unwrap_or_else(|e| panic!("config {mask:05b} failed to compile: {e}"));
        relax_vm::verify(&exec, &relax_vm::registry::Registry::new())
            .unwrap_or_else(|e| panic!("config {mask:05b} failed verification: {e}"));

        let mut interp = Vm::new(exec.clone());
        interp.set_plan_cache_capacity(0);
        let oracle = interp.run("main", &args).unwrap();

        let mut vm = Vm::new(exec);
        // Three runs so graph-capture replays are exercised too.
        let out = vm.run("main", &args).unwrap();
        vm.run("main", &args).unwrap();
        let out_replay = vm.run("main", &args).unwrap();

        let bits = |v: &Value| -> Vec<u64> {
            v.as_tensor()
                .unwrap()
                .to_f64_vec()
                .iter()
                .map(|x| x.to_bits())
                .collect()
        };
        let this = bits(&out);
        assert_eq!(
            this,
            bits(&out_replay),
            "config {mask:05b}: replay diverged from first run"
        );
        assert_eq!(
            this,
            bits(&oracle),
            "config {mask:05b}: planned VM differs bitwise from the interpreter"
        );
        assert_eq!(vm.telemetry().plan_fallbacks, 0, "config {mask:05b}");
        match &reference {
            None => reference = Some(this),
            Some(want) => assert_eq!(
                &this, want,
                "config {mask:05b} output differs bitwise from config 00000"
            ),
        }
    }
}

/// The sixteen `dispatch_library` / `fusion` / `memory_plan` /
/// `graph_capture` combinations, bit `i` of the mask switching toggle `i`.
fn all_configs() -> impl Iterator<Item = (u32, CompileOptions)> {
    (0..16u32).map(|mask| {
        let opts = CompileOptions {
            dispatch_library: mask & 1 != 0,
            fusion: mask & 2 != 0,
            memory_plan: mask & 4 != 0,
            graph_capture: mask & 8 != 0,
            ..CompileOptions::default()
        };
        (mask, opts)
    })
}

/// Every public model builder, by name.
fn model_modules() -> Vec<(&'static str, IRModule)> {
    let llama = LlamaConfig::tiny();
    let moe = MoeConfig::tiny();
    let whisper = WhisperConfig::tiny();
    vec![
        ("llama decode", build_decode(&llama).unwrap().module),
        (
            "llama decode_paged",
            build_decode_paged(&llama).unwrap().module,
        ),
        (
            "llama decode_paged_multi",
            build_decode_paged_multi(&llama).unwrap().module,
        ),
        ("llama prefill", build_prefill(&llama).unwrap().module),
        (
            "llama q4 decode",
            build_decode(&llama.clone().quantized()).unwrap().module,
        ),
        ("moe dispatch", build_dispatch(&moe).unwrap().module),
        (
            "moe ffn_with_assignments",
            build_ffn_with_assignments(&moe).unwrap().module,
        ),
        ("moe dense_ffn", build_dense_ffn(&moe).unwrap().module),
        ("whisper encoder", build_encoder(&whisper).unwrap().module),
        (
            "whisper decoder_step_paged",
            build_decoder_step_paged(&whisper).unwrap().module,
        ),
        ("whisper cross_kv", build_cross_kv(&whisper).unwrap().module),
        (
            "llava vision_encoder",
            build_vision_encoder(&LlavaConfig::tiny()).unwrap().module,
        ),
    ]
}

/// The printed executable a digest covers: every VM function and tensor
/// program in name order, then the constants' shapes.
fn printed(exec: &Executable) -> String {
    let mut text = String::new();
    for f in exec.funcs.values() {
        text.push_str(&f.to_string());
    }
    for f in exec.tir_funcs.values() {
        text.push_str(&f.to_string());
    }
    for c in &exec.constants {
        text.push_str(&format!("const {:?}\n", c.shape()));
    }
    text
}

/// The printed executable with every kernel name replaced by its
/// canonical print (see [`canonical_kernel`]) and the kernel table left
/// out: two executables that launch the same computations in the same
/// order print the same, whatever their kernels are called and however
/// many copies of a kernel they carry.
fn printed_name_free(exec: &Executable) -> String {
    fn rename(instrs: &mut [Instr], exec: &Executable) {
        for instr in instrs {
            match instr {
                Instr::CallTir { func, .. } => {
                    *func = exec
                        .tir_funcs
                        .get(func.as_str())
                        .map_or_else(|| format!("<unknown {func}>"), canonical_kernel);
                }
                Instr::CaptureRegion { body, .. } => rename(body, exec),
                _ => {}
            }
        }
    }
    let mut text = String::new();
    for f in exec.funcs.values() {
        let mut f = f.clone();
        rename(&mut f.instrs, exec);
        text.push_str(&f.to_string());
    }
    for c in &exec.constants {
        text.push_str(&format!("const {:?}\n", c.shape()));
    }
    text
}

/// A kernel's print under a fixed function name, with every buffer renamed
/// `$<i>` by the order it first appears in: fused kernels name their
/// buffers after the graph variables they replaced (`lv61`, `l0.wo`),
/// which differ from one call site to the next. A buffer name is a word
/// the printer follows with `[` (a load or store), `: Buffer(` (a
/// parameter) or ` = alloc_buffer(` (an allocation); loop and shape
/// variables never are.
fn canonical_kernel(func: &relax_tir::PrimFunc) -> String {
    let text = func.renamed("kernel").to_string();
    let mut names: HashMap<String, usize> = HashMap::new();
    let mut out = String::with_capacity(text.len());
    let mut rest = text.as_str();
    let word_char = |c: char| c.is_ascii_alphanumeric() || c == '_' || c == '.';
    while let Some(start) = rest.find(word_char) {
        out.push_str(&rest[..start]);
        rest = &rest[start..];
        let end = rest.find(|c| !word_char(c)).unwrap_or(rest.len());
        let (word, after) = rest.split_at(end);
        let is_buffer = !word.starts_with(|c: char| c.is_ascii_digit())
            && (after.starts_with('[')
                || after.starts_with(": Buffer(")
                || after.starts_with(" = alloc_buffer("));
        if is_buffer {
            let next = names.len();
            let i = *names.entry(word.to_string()).or_insert(next);
            out.push_str(&format!("${i}"));
        } else {
            out.push_str(word);
        }
        rest = after;
    }
    out.push_str(rest);
    out
}

/// 64-bit FNV-1a.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Compares one digest per executable with the lines of a committed
/// file, or rewrites the file under `RELAX_BLESS=1`.
fn check_digests(file: &str, execs: &[(String, Executable)], print: fn(&Executable) -> String) {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(file);
    let committed = std::fs::read_to_string(&path).unwrap_or_default();
    let mut committed = committed.lines();
    let mut lines = Vec::new();
    let mut first_mismatch = None;
    for (label, exec) in execs {
        let text = print(exec);
        let line = format!("{label}\t{:016x}", fnv1a(text.as_bytes()));
        if committed.next() != Some(line.as_str()) && first_mismatch.is_none() {
            first_mismatch = Some((line.clone(), text));
        }
        lines.push(line);
    }
    if std::env::var("RELAX_BLESS").as_deref() == Ok("1") {
        std::fs::write(&path, lines.join("\n") + "\n").expect("write the digests");
        return;
    }
    if let Some((line, text)) = first_mismatch {
        panic!(
            "`{line}` is not the committed digest in {path:?}; the executable:\n{text}\n\
             If the output change is intended, regenerate with RELAX_BLESS=1"
        );
    }
}

/// Every public model builder compiled under every configuration,
/// labelled `<builder>\t<mask>`.
fn every_executable() -> Vec<(String, Executable)> {
    let mut execs = Vec::new();
    for (name, module) in model_modules() {
        for (mask, opts) in all_configs() {
            let exec = compile(module.clone(), &opts)
                .unwrap_or_else(|e| panic!("{name}, config {mask:04b}: {e}"));
            execs.push((format!("{name}\t{mask:04b}"), exec));
        }
    }
    assert_eq!(execs.len(), 12 * 16);
    execs
}

/// Compiles every builder under every configuration and compares each
/// executable with its committed digests: a compiler change that claims
/// the same output must leave every line of `compile_digests.txt` in
/// place, and one that claims to launch the same computations under other
/// kernel names every line of `compile_digests_name_free.txt`.
/// `RELAX_BLESS=1` rewrites both files after an intentional output change.
#[test]
fn every_model_builder_compiles_under_every_configuration() {
    let execs = every_executable();
    check_digests("compile_digests.txt", &execs, printed);
    check_digests("compile_digests_name_free.txt", &execs, printed_name_free);
}

/// An executable carries the kernels its VM functions launch and no
/// others.
#[test]
fn every_kernel_of_every_model_executable_is_called() {
    fn called<'a>(instrs: &'a [Instr], out: &mut BTreeSet<&'a str>) {
        for instr in instrs {
            match instr {
                Instr::CallTir { func, .. } => {
                    out.insert(func);
                }
                Instr::CaptureRegion { body, .. } => called(body, out),
                _ => {}
            }
        }
    }
    for (label, exec) in every_executable() {
        let mut launched = BTreeSet::new();
        for f in exec.funcs.values() {
            called(&f.instrs, &mut launched);
        }
        let carried: BTreeSet<&str> = exec.tir_funcs.keys().map(String::as_str).collect();
        assert_eq!(carried, launched, "{label}: kernels carried vs launched");
    }
}
