//! `relax-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//! — prints the result line as the last line of standard output.

#![forbid(unsafe_code)]

use std::process::ExitCode;

use relax_benchmark::e2e::{self, Report};
use relax_benchmark::metrics::{result_line, Spec, END_TO_END, PER_LAYER};
use relax_benchmark::reference::{golden_path, golden_text, LlamaOracle, Oracle};
use relax_benchmark::workload::{generate, Workload};
use relax_benchmark::{config, host, traced};

const USAGE: &str = "usage: relax-benchmark --workload <chat_decode|long_prompt|moe_ragged> \
--seed <n> --seconds <1..=600> --trace <0|1> [--out <row.json>] [--write-golden]";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    out: Option<String>,
    write_golden: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace, mut out) = (None, None, None, None, None);
    let mut write_golden = false;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        if flag == "--write-golden" {
            write_golden = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || value.parse::<u64>().map_err(|_| format!("{flag} {value}: not a whole number"));
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(value).ok_or_else(|| format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(number()?),
            "--seconds" => {
                seconds =
                    Some(number().ok().filter(|s| (1..=600).contains(s)).ok_or("--seconds must be 1..=600")?)
            }
            "--trace" => {
                trace = Some(number().ok().filter(|t| *t <= 1).ok_or("--trace must be 0 or 1")? == 1)
            }
            "--out" => out = Some(value.clone()),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.or(write_golden.then_some(1)).ok_or("--seconds is required")?,
        trace: trace.or(write_golden.then_some(false)).ok_or("--trace is required")?,
        out,
        write_golden,
    })
}

/// Writes the golden file of a workload and seed from the references,
/// after cross-checking the baseline-compiled reference against the pure
/// interpreter on its first sessions.
fn write_golden(w: Workload, seed: u64) {
    let list = generate(w, seed);
    let models = config::build_models(w);
    if w != Workload::MoeRagged {
        let (mut planned, mut interp) = (LlamaOracle::new(), LlamaOracle::interpreter());
        for e in list.iter().take(2) {
            assert_eq!(
                planned.generate(&e.prompt, 2),
                interp.generate(&e.prompt, 2),
                "baseline plans diverge from the interpreter"
            );
        }
    }
    let text = golden_text(&list, &mut Oracle::new(w, &models));
    let path = golden_path(w, seed);
    std::fs::write(&path, text).unwrap_or_else(|e| panic!("write {path}: {e}"));
    eprintln!("wrote {path}");
}

/// The `--out` row: the result plus configuration, host and sample counts.
fn out_row(args: &Args, report: &Report, specs: &[Spec]) -> String {
    let families: Vec<String> = report
        .families
        .iter()
        .map(|f| {
            let opt = |v: Option<f64>| v.map_or("null".to_string(), |v| v.to_string());
            format!(
                "\"{}\": {{\"unit\": \"{}\", \"n\": {}, \"p50\": {}, \"p90\": {}, \"p99\": {}}}",
                f.name,
                f.unit,
                f.n,
                f.p50,
                opt(f.p90),
                opt(f.p99)
            )
        })
        .collect();
    let notes: Vec<String> = report.notes.iter().map(|(k, v)| format!("\"{k}\": {v}")).collect();
    format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"commit\": \"{}\", \
         \"host_threads\": {}, \"canary_ms\": [{}, {}], \"noisy\": {}, \"config\": {}, \
         \"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}, \"samples\": {{{}}}, \
         \"notes\": {{{}}}}}\n",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::env::var("BENCH_COMMIT").unwrap_or_else(|_| "unknown".into()),
        host::threads(),
        report.canary_ms.0,
        report.canary_ms.1,
        report.noisy(),
        config::describe(),
        report.failed == 0,
        report.attempted,
        report.failed,
        report.values.metrics_json(specs),
        families.join(", "),
        notes.join(", "),
    )
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(why) => {
            eprintln!("relax-benchmark: {why}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.write_golden {
        write_golden(args.workload, args.seed);
        return ExitCode::SUCCESS;
    }
    let (report, specs): (Report, &[Spec]) = if args.trace {
        (traced::run(args.workload, args.seed, args.seconds), &PER_LAYER)
    } else {
        (e2e::run(args.workload, args.seed, args.seconds), &END_TO_END)
    };
    if let Some(path) = &args.out {
        if let Err(e) = std::fs::write(path, out_row(&args, &report, specs)) {
            eprintln!("relax-benchmark: cannot write {path}: {e}");
            return ExitCode::from(2);
        }
    }
    println!("{}", result_line(report.failed == 0, report.attempted, report.failed, &report.values, specs));
    ExitCode::SUCCESS
}
