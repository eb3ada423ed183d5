//! The repo's benchmark. See `README.md` in this directory for the
//! metric and workload tables and how the layers map to end-to-end
//! numbers.
//!
//! ```text
//! mr-benchmark [--seed N] [--seconds S] [--workload NAME] [--traced | --trace 0|1]
//!              [--repeat N] [--quick] [--out FILE]
//! mr-benchmark compare A.json B.json
//! ```
//!
//! With `--workload` it runs that one workload in this process and ends
//! its standard output with one JSON result line. Without, it re-executes
//! itself once per workload (fresh allocator, a peak RSS of the
//! workload's own) and prints every metric of every workload.

mod compare;
mod inputs;
mod json;
mod measure;
mod oracle;
mod schema;
mod spans;
mod stats;
mod workloads;

use json::Value;
use spans::Spans;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::Instant;
use workloads::{Baseline, Ctx, Round, Spec, Workload};

const USAGE: &str = "usage: mr-benchmark [--seed N] [--seconds S] [--workload NAME] \
[--traced | --trace 0|1] [--repeat N] [--quick] [--out FILE]\n       mr-benchmark compare A.json B.json";

/// Marks the second-to-last stdout line of a one-workload run: the run
/// as the result file stores it.
const DETAIL_PREFIX: &str = "detail ";
/// Timed rounds never number fewer than this, however long one takes.
const MIN_ROUNDS: usize = 3;
/// Set-up runs this many times per process; `setup_s` is their median.
const SETUPS: usize = 3;
/// Untraced/traced round pairs of the traced pass.
const TRACED_PAIRS: usize = 3;

#[derive(Debug, Clone)]
struct Opts {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    traced: bool,
    repeat: usize,
    quick: bool,
    out: Option<PathBuf>,
}

impl Opts {
    fn sizes(&self) -> inputs::Sizes {
        if self.quick {
            inputs::FULL.quick()
        } else {
            inputs::FULL
        }
    }
}

enum Cli {
    Run(Opts),
    Compare(PathBuf, PathBuf),
}

fn parse_args(args: &[String]) -> Result<Cli, String> {
    if args.first().map(String::as_str) == Some("compare") {
        return match args {
            [_, a, b] => Ok(Cli::Compare(a.into(), b.into())),
            _ => Err("compare takes exactly two result files".into()),
        };
    }
    let mut o = Opts {
        workload: None,
        seed: 7,
        seconds: 10.0,
        traced: false,
        repeat: 1,
        quick: false,
        out: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value"))
                .map(String::as_str)
        };
        let number = |v: &str| format!("{flag}: `{v}` is not a number");
        match flag.as_str() {
            "--workload" => o.workload = Some(value()?.to_string()),
            "--seed" => o.seed = value().and_then(|v| v.parse().map_err(|_| number(v)))?,
            "--seconds" => o.seconds = value().and_then(|v| v.parse().map_err(|_| number(v)))?,
            "--repeat" => o.repeat = value().and_then(|v| v.parse().map_err(|_| number(v)))?,
            "--trace" => {
                o.traced = match value()? {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not `{v}`")),
                }
            }
            "--traced" => o.traced = true,
            "--quick" => o.quick = true,
            "--out" => o.out = Some(value()?.into()),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if !(o.seconds.is_finite() && o.seconds > 0.0 && o.seconds <= 3600.0) {
        return Err("--seconds must be in (0, 3600]".into());
    }
    if o.repeat == 0 {
        return Err("--repeat must be at least 1".into());
    }
    if let Some(name) = &o.workload {
        if !workloads::ALL.iter().any(|s| s.name == name) {
            let names: Vec<_> = workloads::ALL.iter().map(|s| s.name).collect();
            return Err(format!(
                "unknown workload `{name}`; one of {}",
                names.join(", ")
            ));
        }
    }
    Ok(Cli::Run(o))
}

/// `benchmark/out/`: span files, default result file, temp roots.
fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// One temp root per process, handed to every `scratch_dir` and removed
/// when the run ends — on failure and on unwinding too.
struct TempRoot(PathBuf);

impl TempRoot {
    fn create() -> std::io::Result<Self> {
        let path = out_dir().join(format!("mr-benchmark-{}", std::process::id()));
        std::fs::create_dir_all(&path)?;
        Ok(TempRoot(path))
    }
}

impl Drop for TempRoot {
    fn drop(&mut self) {
        // Best effort: a leftover temp dir must not turn a finished run
        // into a failed one.
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match parse_args(&args) {
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
        Ok(Cli::Compare(a, b)) => compare::run(&a, &b),
        Ok(Cli::Run(opts)) => {
            // Two pool workers plus the load generator on fewer than
            // two cores would measure the scheduler, not the program.
            if measure::nproc() < 2 {
                eprintln!(
                    "refusing to run: {} core(s) available, the benchmark needs 2",
                    measure::nproc()
                );
                return ExitCode::from(2);
            }
            match &opts.workload {
                Some(_) => run_one(&opts),
                None => run_all(&opts),
            }
        }
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("mr-benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}

// ------------------------------------------------------ one workload

/// One metric of one run: its value and, for per-round metrics, how the
/// rounds were distributed.
struct Metric {
    name: &'static str,
    unit: &'static str,
    value: f64,
    samples: Vec<f64>,
}

impl Metric {
    fn single(name: &'static str, unit: &'static str, value: f64) -> Self {
        Metric {
            name,
            unit,
            value,
            samples: vec![value],
        }
    }

    fn to_json(&self) -> Value {
        let (q1, _, q3) = stats::quartiles(&self.samples);
        Value::obj()
            .set("value", self.value)
            .set("unit", self.unit)
            .set("n", self.samples.len())
            .set("q1", q1)
            .set("q3", q3)
            .set("mad", stats::mad(&self.samples))
    }
}

/// A finished run of one workload in this process.
struct RunResult {
    workload: &'static str,
    seed: u64,
    traced: bool,
    attempted: u64,
    failed: u64,
    rounds: usize,
    metrics: Vec<Metric>,
}

impl RunResult {
    fn to_json(&self) -> Value {
        let mut metrics = Value::obj();
        for m in &self.metrics {
            metrics = metrics.set(m.name, m.to_json());
        }
        Value::obj()
            .set("workload", self.workload)
            .set("seed", self.seed)
            .set("traced", self.traced)
            .set("correct", self.failed == 0)
            .set("attempted", self.attempted)
            .set("failed", self.failed)
            .set("rounds", self.rounds)
            .set("metrics", metrics)
    }

    /// The contract's result line: exactly `correct`, `attempted`,
    /// `failed`, `metrics`, each metric a value with all its digits and
    /// its unit.
    fn result_line(&self) -> String {
        let mut metrics = Value::obj();
        for m in &self.metrics {
            metrics = metrics.set(
                m.name,
                Value::obj().set("value", m.value).set("unit", m.unit),
            );
        }
        Value::obj()
            .set("correct", self.failed == 0)
            .set("attempted", self.attempted)
            .set("failed", self.failed)
            .set("metrics", metrics)
            .encode()
    }
}

fn run_one(opts: &Opts) -> Result<bool, String> {
    let name = opts.workload.as_deref().expect("run_one needs --workload");
    let spec = workloads::ALL
        .iter()
        .find(|s| s.name == name)
        .expect("parse_args checked the name");
    let temp = TempRoot::create().map_err(|e| format!("create temp root: {e}"))?;
    let ctx = Ctx {
        seed: opts.seed,
        sizes: opts.sizes(),
        scratch: temp.0.clone(),
    };
    let result = if opts.traced {
        traced_pass(spec, &ctx, opts)?
    } else {
        timed_pass(spec, &ctx, opts)
    };
    drop(temp);

    print_run(&result);
    if let Some(path) = &opts.out {
        write_doc(path, opts, vec![result.to_json()])?;
    }
    // The run with its sample counts and quartiles, for `run_all` to
    // collect; then the contract's result line, last.
    println!("{DETAIL_PREFIX}{}", result.to_json().encode());
    println!("{}", result.result_line());
    Ok(result.failed == 0)
}

/// Builds the workload and runs its warm-up round; the seconds that took.
fn set_up(spec: &Spec, ctx: &Ctx) -> (Box<dyn Workload>, Round, f64) {
    let t = Instant::now();
    let mut w = (spec.build)(ctx);
    let warm_up = w.round(false);
    (w, warm_up, t.elapsed().as_secs_f64())
}

/// The end-to-end pass: tracing off, rounds for `--seconds`.
fn timed_pass(spec: &Spec, ctx: &Ctx, opts: &Opts) -> RunResult {
    let (mut attempted, mut failed) = (0, 0);
    let mut setups = Vec::new();
    let mut workload = None;
    for _ in 0..if opts.quick { 1 } else { SETUPS } {
        // The previous instance goes first: two live copies of the
        // inputs would be the process's peak RSS.
        drop(workload.take());
        let (w, warm_up, secs) = set_up(spec, ctx);
        attempted += warm_up.attempted;
        failed += warm_up.failed;
        setups.push(secs);
        workload = Some(w);
    }
    let mut w = workload.expect("at least one set-up");

    let mut rounds: Vec<Round> = Vec::new();
    let started = Instant::now();
    loop {
        rounds.push(w.round(false));
        let enough = rounds.len() >= MIN_ROUNDS && started.elapsed().as_secs_f64() >= opts.seconds;
        if opts.quick || enough {
            break;
        }
    }

    let walls: Vec<f64> = rounds.iter().map(|r| r.wall_s).collect();
    let cpus: Vec<f64> = rounds.iter().map(|r| r.cpu_s).collect();
    let latencies: Vec<Vec<f64>> = rounds.iter().map(|r| r.latencies_s.clone()).collect();
    let jobs_per_round = rounds[0].attempted as f64;
    let tail = stats::tail_percentile(rounds[0].latencies_s.len());
    attempted += rounds.iter().map(|r| r.attempted).sum::<u64>();
    failed += rounds.iter().map(|r| r.failed).sum::<u64>();

    let records = w.records_per_round() as f64;
    // Each metric is the median of its per-round (per-set-up) samples.
    let metric = |name: &'static str, samples: Vec<f64>| Metric {
        name,
        unit: schema::end_to_end(name).unit,
        value: stats::median(&samples),
        samples,
    };
    let per_second = |count: f64| walls.iter().map(|w| count / w).collect();
    let metrics = vec![
        metric("records_per_s", per_second(records)),
        metric("jobs_per_s", per_second(jobs_per_round)),
        metric("wall_s", walls),
        metric("cpu_s", cpus),
        metric("peak_rss_mb", vec![measure::peak_rss_mib()]),
        metric("job_p50_s", stats::round_percentiles(&latencies, 0.5)),
        metric("job_p99_s", stats::round_percentiles(&latencies, tail)),
        metric("setup_s", setups),
    ];
    RunResult {
        workload: spec.name,
        seed: opts.seed,
        traced: false,
        attempted,
        failed,
        rounds: rounds.len(),
        metrics,
    }
}

/// The per-layer pass: untraced and traced rounds in alternation (their
/// ratio is the tracing overhead), then the layer replays under the
/// benchmark's own spans, written to `out/trace-<workload>.json`.
fn traced_pass(spec: &Spec, ctx: &Ctx, opts: &Opts) -> Result<RunResult, String> {
    let (mut w, warm_up, _) = set_up(spec, ctx);
    let (mut attempted, mut failed) = (warm_up.attempted, warm_up.failed);
    let (mut plain, mut traced): (Vec<Round>, Vec<Round>) = (Vec::new(), Vec::new());
    let started = Instant::now();
    for pair in 0..if opts.quick { 1 } else { TRACED_PAIRS } {
        // The pass shares the run's time budget with the replays.
        if pair > 0 && started.elapsed().as_secs_f64() >= opts.seconds / 2.0 {
            break;
        }
        plain.push(w.round(false));
        traced.push(w.round(true));
    }
    for r in plain.iter().chain(&traced) {
        attempted += r.attempted;
        failed += r.failed;
    }
    let median_of = |rounds: &[Round], f: fn(&Round) -> f64| {
        stats::median(&rounds.iter().map(f).collect::<Vec<_>>())
    };
    let base = Baseline {
        wall_s: median_of(&plain, |r| r.wall_s),
        cpu_s: median_of(&plain, |r| r.cpu_s),
    };

    let mut spans = Spans::new(spec.name);
    let mut values = traced
        .last()
        .expect("at least one traced round")
        .observed
        .clone();
    values.extend(w.layers(&mut spans, &base));
    // Every `<layer>_s` metric a workload did not compute itself is the
    // self time of the replay span named `<layer>`.
    for (name, _, _) in &schema::PER_LAYER {
        let secs = name
            .strip_suffix("_s")
            .map_or(0.0, |span| spans.self_secs(span));
        if secs > 0.0 && !values.iter().any(|(n, _)| n == name) {
            values.push((name, secs));
        }
    }
    values.push((
        "trace.overhead_share",
        median_of(&traced, |r| r.wall_s) / base.wall_s - 1.0,
    ));
    let span_file = out_dir().join(format!("trace-{}.json", spec.name));
    spans
        .write_json(&span_file)
        .map_err(|e| format!("write {}: {e}", span_file.display()))?;

    for (name, _) in &values {
        assert!(
            schema::PER_LAYER.iter().any(|(n, _, _)| n == name),
            "`{name}` is not a listed per-layer metric"
        );
    }
    let metrics = schema::PER_LAYER
        .iter()
        .map(|&(name, unit, _)| {
            let value = values
                .iter()
                .find(|(n, _)| *n == name)
                .map_or(0.0, |(_, v)| *v);
            Metric::single(name, unit, value)
        })
        .collect();
    Ok(RunResult {
        workload: spec.name,
        seed: opts.seed,
        traced: true,
        attempted,
        failed,
        rounds: plain.len() + traced.len(),
        metrics,
    })
}

fn print_run(r: &RunResult) {
    println!(
        "{} seed={} {} rounds={} attempted={} failed={} failed_share={}",
        r.workload,
        r.seed,
        if r.traced { "traced" } else { "untraced" },
        r.rounds,
        r.attempted,
        r.failed,
        r.failed as f64 / r.attempted.max(1) as f64,
    );
    for m in &r.metrics {
        if r.traced {
            // Layers this workload bypasses read 0 and are not shown.
            if m.value != 0.0 {
                println!("  {:<38} {:>16.6} {}", m.name, m.value, m.unit);
            }
            if m.name == "attribution.covered_share" && m.value > 0.0 && m.value < 0.7 {
                println!("  warning: layer replays cover under 70% of this workload's CPU time");
            }
            continue;
        }
        let (q1, _, q3) = stats::quartiles(&m.samples);
        let bound = schema::end_to_end(m.name).bound;
        println!(
            "  {:<14} {:>16.6} {:<4} n={:<3} q1={:.6} q3={:.6} mad={:.6} bound={:.0}%",
            m.name,
            m.value,
            m.unit,
            m.samples.len(),
            q1,
            q3,
            stats::mad(&m.samples),
            bound * 100.0
        );
    }
}

// ----------------------------------------------------- result files

/// First line of a command's standard output, or "unknown".
fn first_line_of(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

fn header(opts: &Opts) -> Value {
    Value::obj()
        .set("nproc", measure::nproc())
        .set("pool_workers", workloads::WORKERS)
        .set("rustc", first_line_of("rustc", &["-V"]))
        .set("git_commit", first_line_of("git", &["rev-parse", "HEAD"]))
        .set("seed", opts.seed)
        .set("seconds", opts.seconds)
        .set("sizes", opts.sizes().to_json())
}

fn write_doc(path: &Path, opts: &Opts, runs: Vec<Value>) -> Result<(), String> {
    let doc = Value::obj()
        .set("schema", "mr-benchmark/v1")
        .set("comparable", !opts.quick)
        .set("header", header(opts))
        .set("runs", runs);
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    }
    std::fs::write(path, doc.encode() + "\n").map_err(|e| format!("write {}: {e}", path.display()))
}

// ----------------------------------------------------- all workloads

/// Runs every workload in a child process of its own, `--repeat` times
/// with consecutive seeds, plus a traced child each when asked; prints
/// every metric and writes the merged result file.
fn run_all(opts: &Opts) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locate own executable: {e}"))?;
    println!("mr-benchmark {}", header(opts).encode());
    for spec in &workloads::ALL {
        println!("# {}: {}", spec.name, spec.why);
    }

    let mut runs: Vec<Value> = Vec::new();
    let mut clean = true;
    for rep in 0..opts.repeat as u64 {
        for spec in &workloads::ALL {
            for traced in [false, true] {
                if traced && !opts.traced {
                    continue;
                }
                let mut cmd = Command::new(&exe);
                cmd.args(["--workload", spec.name])
                    .args(["--seed", &(opts.seed + rep).to_string()])
                    .args(["--seconds", &opts.seconds.to_string()])
                    .args(["--trace", if traced { "1" } else { "0" }]);
                if opts.quick {
                    cmd.arg("--quick");
                }
                // `output` waits for the child; nothing outlives this call.
                let child = cmd
                    .output()
                    .map_err(|e| format!("spawn {}: {e}", spec.name))?;
                if !child.status.success() {
                    clean = false;
                    eprint!("{}", String::from_utf8_lossy(&child.stderr));
                    eprintln!("{} exited with {}", spec.name, child.status);
                }
                let stdout = String::from_utf8_lossy(&child.stdout);
                for line in stdout.lines() {
                    match line.strip_prefix(DETAIL_PREFIX) {
                        Some(detail) => runs.push(json::parse(detail)?),
                        // The contract's result line repeats the detail line.
                        None if line.starts_with('{') => {}
                        None => println!("{line}"),
                    }
                }
            }
        }
    }

    let median_wall = |workload: &str| {
        let walls: Vec<f64> = runs
            .iter()
            .filter(|r| r.get("workload").and_then(Value::as_str) == Some(workload))
            .filter(|r| r.get("traced").and_then(Value::as_bool) == Some(false))
            .filter_map(|r| r.get("metrics")?.get("wall_s")?.get("value")?.as_f64())
            .collect();
        stats::median(&walls)
    };
    println!(
        "summary.barrierless_speedup {:.4} ratio (wc_barrier.wall_s / wc_pipeline.wall_s, informational)",
        median_wall("wc_barrier") / median_wall("wc_pipeline")
    );

    let out = opts
        .out
        .clone()
        .unwrap_or_else(|| out_dir().join("result.json"));
    write_doc(&out, opts, runs)?;
    println!("wrote {}", out.display());
    Ok(clean)
}
