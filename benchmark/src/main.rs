//! The repository's system benchmark: one workload of the full
//! execute-order-validate path, on the wall clock, per invocation.
//!
//! ```text
//! fabric-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!                  [--smoke] [--out <dir>]
//! ```
//!
//! Prints every metric by name, then, as the last line of standard
//! output, one JSON object with `correct`, `attempted`, `failed` and
//! `metrics`: the end-to-end metrics with `--trace 0`, the per-layer
//! metrics with `--trace 1`. Exits non-zero, without that line, if an
//! output check fails or a validity guard refuses the run.

mod check;
mod config;
mod deploy;
mod driver;
mod inputs;
mod kv;
mod probes;
mod report;
mod stats;
mod trace;

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use config::{Plan, WorkloadSpec, DEFAULT_SECONDS, DEFAULT_SEED, WORKLOADS};
use report::{Analysis, Extras, Metric};
use stats::{Waterfall, STAGES};

struct Args {
    spec: WorkloadSpec,
    seed: u64,
    seconds: u64,
    trace: bool,
    smoke: bool,
    out: PathBuf,
}

impl Args {
    fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
        let mut args = Args {
            spec: WORKLOADS[0],
            seed: DEFAULT_SEED,
            seconds: DEFAULT_SECONDS,
            trace: false,
            smoke: false,
            out: PathBuf::from("benchmark/results"),
        };
        let mut workload = None;
        while let Some(flag) = argv.next() {
            let mut value = || argv.next().ok_or(format!("{flag} needs a value"));
            match flag.as_str() {
                "--workload" => workload = Some(value()?),
                "--seed" => args.seed = value()?.parse().map_err(|_| "--seed takes a u64")?,
                "--seconds" => {
                    args.seconds = value()?
                        .parse()
                        .map_err(|_| "--seconds takes whole seconds")?
                }
                "--trace" => {
                    args.trace = match value()?.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err("--trace takes 0 or 1".into()),
                    }
                }
                "--smoke" => args.smoke = true,
                "--out" => args.out = PathBuf::from(value()?),
                other => return Err(format!("unknown argument {other}")),
            }
        }
        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        let workload = workload.ok_or(format!("--workload is one of {names:?}"))?;
        args.spec = config::workload(&workload)
            .ok_or(format!("unknown workload {workload}: one of {names:?}"))?;
        if !(1..=60).contains(&args.seconds) {
            return Err("--seconds is 1 to 60".into());
        }
        Ok(args)
    }
}

/// Removes the run's scratch directory however the run ends.
struct Scratch(PathBuf);

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|entry| match entry.metadata() {
            Ok(meta) if meta.is_dir() => dir_bytes(&entry.path()),
            Ok(meta) => meta.len(),
            Err(_) => 0,
        })
        .sum()
}

/// `VmHWM` of this process, in megabytes.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn metrics_json(metrics: &[Metric], with_samples: bool) -> String {
    let mut out = String::from("{");
    for (i, m) in metrics.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(
            out,
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"",
            m.name, m.value, m.unit
        );
        if let (true, Some(n)) = (with_samples, m.samples) {
            let _ = write!(out, ", \"samples\": {n}");
        }
        out.push('}');
    }
    out.push('}');
    out
}

fn print_metrics(title: &str, metrics: &[Metric]) {
    println!("{title}");
    for m in metrics {
        let samples = m.samples.map_or(String::new(), |n| format!("  (n={n})"));
        println!("  {:<34} {:>14.4} {}{samples}", m.name, m.value, m.unit);
    }
}

fn print_waterfall(title: &str, w: &Waterfall, commit_split_ms: Option<[f64; 4]>) {
    println!(
        "{title}: {} transactions, mean latency {:.3} ms",
        w.n, w.e2e_mean_ms
    );
    for (stage, mean_ms) in STAGES.iter().zip(w.stage_mean_ms) {
        let share = if w.e2e_mean_ms > 0.0 {
            100.0 * mean_ms / w.e2e_mean_ms
        } else {
            0.0
        };
        println!("  {stage:<10} {mean_ms:>10.3} ms {share:>6.1}%");
    }
    if let Some([vscc, rwcheck, ledger, queue]) = commit_split_ms {
        println!(
            "  commit =   vscc {vscc:.3} + rwcheck {rwcheck:.3} + ledger {ledger:.3} \
             + queue {queue:.3} ms (per block)"
        );
    }
    println!("  sum of stages / latency = {:.4}", w.sum_ratio());
}

fn run(args: &Args, process_start: Instant) -> Result<(), Vec<String>> {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    if nproc < 2 {
        return Err(vec![format!(
            "the harness is sized for two processors and the host offers {nproc}"
        )]);
    }
    let spec = args.spec;
    let plan = Plan::new(args.seconds, args.trace, args.smoke);
    std::fs::create_dir_all(&args.out).map_err(|e| vec![format!("{}: {e}", args.out.display())])?;
    let scratch = Scratch(
        args.out
            .join(format!("tmp-{}-{}", spec.name, std::process::id())),
    );
    let _ = std::fs::remove_dir_all(&scratch.0);

    // --- set-up: deployment, state, pre-signed inputs --------------------
    let mut dep = deploy::Deployment::stand_up(spec, args.seed, &scratch.0);
    let inputs = inputs::generate(&mut dep, &plan, args.seed);
    dep.attach();
    let measured_dir = dep.measured().dir.clone();
    let storage_before = dep.measured().peer.ledger().storage_stats();
    let bytes_before = measured_dir.as_deref().map_or(0, dir_bytes);
    println!(
        "workload {} seed {} seconds {} trace {} nproc {nproc} clock wall",
        spec.name,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!(
        "proposal stream: {} transactions, {} queries, sha256 {}",
        inputs.txs.len(),
        inputs.queries.len(),
        inputs.stream_hash
    );
    let setup_s = process_start.elapsed().as_secs_f64();

    // --- the measured window ---------------------------------------------
    let (window, pipeline) = driver::run_window(&mut dep, &inputs, &plan);
    let endorse = pipeline.stats();
    pipeline.close();

    // --- settle, probe, close ----------------------------------------------
    let probes = plan.trace.then(|| probes::run(&dep, &inputs));
    let channel = dep.channel.clone();
    let height = dep.next_block;
    let mut pipelines: Vec<_> = dep
        .nodes
        .iter_mut()
        .map(|node| node.close_mux(&channel, height))
        .collect();
    let extras = Extras {
        setup_s,
        peak_rss_mb: peak_rss_mb(),
        probes,
        propose_us: inputs.propose_us,
        endorse,
        pipeline: pipelines.pop().expect("the measured peer"),
        storage: (storage_before, dep.measured().peer.ledger().storage_stats()),
        ledger_bytes: measured_dir.as_deref().map_or(0, dir_bytes) - bytes_before,
        gossip: dep
            .nodes
            .iter()
            .filter_map(|n| n.gossip.as_ref())
            .map(|g| g.stats())
            .collect(),
        spec_signing: dep
            .ordering
            .nodes()
            .iter()
            .map(|n| n.spec_stats())
            .fold((0, 0), |acc, s| (acc.0 + s.0, acc.1 + s.1)),
    };

    let analysis = report::analyse(&spec, &plan, &window, &extras);
    let mut problems = analysis.refusals.clone();
    // A stuck window leaves state the checks cannot judge.
    if window.order.stuck.is_none() && !window.client.stuck {
        problems.extend(check::output_checks(
            &dep,
            &inputs,
            &window,
            &analysis.outcomes,
        ));
    }
    if analysis.failed > 0 {
        problems.push(format!(
            "{} of {} operations got no verdict or a wrong one",
            analysis.failed, analysis.attempted
        ));
    }
    print_report(args, &analysis);
    // A glance at steadiness: blocks committed in each second of the run.
    let mut per_second = vec![0u32; args.seconds as usize + 4];
    for block in window.order.blocks.iter().filter(|b| b.committed_ns != 0) {
        if let Some(slot) = per_second.get_mut((block.committed_ns / 1_000_000_000) as usize) {
            *slot += 1;
        }
    }
    println!("blocks committed per second: {per_second:?}");
    if !problems.is_empty() {
        return Err(problems);
    }
    write_results(args, nproc, &inputs.stream_hash, &analysis)
        .map_err(|e| vec![format!("writing results: {e}")])?;
    if plan.trace {
        let path = args.out.join(format!("trace-{}.json", spec.name));
        std::fs::write(
            &path,
            trace::render(spec.name, args.seed, &window, &analysis.outcomes),
        )
        .map_err(|e| vec![format!("{}: {e}", path.display())])?;
    }
    let reported = if plan.trace {
        &analysis.per_layer
    } else {
        &analysis.end_to_end
    };
    println!(
        "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        analysis.attempted,
        analysis.failed,
        metrics_json(reported, false)
    );
    Ok(())
}

fn print_report(args: &Args, analysis: &Analysis) {
    print_metrics("end-to-end metrics", &analysis.end_to_end);
    print_metrics("per-layer metrics", analysis.measured_per_layer(args.trace));
    if args.trace {
        print_waterfall(
            "waterfall, paced phase",
            &analysis.waterfall_paced,
            Some(analysis.commit_split_ms),
        );
        print_waterfall("waterfall, saturation phase", &analysis.waterfall_sat, None);
    }
}

/// `<out>/<workload>.json` (or `<workload>-traced.json`): every metric
/// with its sample count, stamped with revision, host and clock.
fn write_results(
    args: &Args,
    nproc: usize,
    stream_hash: &str,
    analysis: &Analysis,
) -> std::io::Result<()> {
    let suffix = if args.trace { "-traced" } else { "" };
    let path = args.out.join(format!("{}{suffix}.json", args.spec.name));
    let git_rev = std::env::var("BENCH_GIT_REV").unwrap_or_else(|_| "unknown".into());
    let body = format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"smoke\": {},\n \
         \"git_rev\": \"{git_rev}\", \"nproc\": {nproc}, \"clock\": \"wall\",\n \
         \"proposal_stream_sha256\": \"{stream_hash}\",\n \
         \"attempted\": {}, \"failed\": {},\n \"end_to_end\": {},\n \"per_layer\": {}}}\n",
        args.spec.name,
        args.seed,
        args.seconds,
        args.trace,
        args.smoke,
        analysis.attempted,
        analysis.failed,
        metrics_json(&analysis.end_to_end, true),
        metrics_json(analysis.measured_per_layer(args.trace), true),
    );
    std::fs::write(path, body)
}

fn main() -> ExitCode {
    let process_start = Instant::now();
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(usage) => {
            eprintln!("fabric-benchmark: {usage}");
            return ExitCode::from(2);
        }
    };
    match run(&args, process_start) {
        Ok(()) => ExitCode::SUCCESS,
        Err(problems) => {
            for problem in problems {
                eprintln!("fabric-benchmark: no result: {problem}");
            }
            ExitCode::FAILURE
        }
    }
}
