//! End-to-end and per-layer benchmark of the HeapTherapy+ reproduction:
//! runs one workload and prints its metrics.
//!
//! Three closed-loop workloads: `heap-unpatched` and `heap-patched` drive a
//! real `HardenedAlloc`; `patch-cycle` drives the offline pipeline from
//! attack input to verified patch. See `README.md` in this directory.
//!
//! ```text
//! perfbench --workload <heap-unpatched|heap-patched|patch-cycle>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` prints the end-to-end metrics of an untraced run; `--trace 1`
//! makes an untraced run of half the length, then a traced run of the same
//! size, and prints the per-layer metrics. The last line of standard output is one JSON
//! object. Exit code 0: the correctness gate passed; 1: it failed; 2: the
//! run could not be made (bad arguments, debug build, too few samples).

mod cycle;
mod heap;
mod report;
mod rng;
mod stats;
mod trace;

use heap::{HeapRun, HeapSpec, Stop};
use report::{json_num, json_str, Layers};
use stats::Hist;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};
use trace::{check_requests, render_spans, NoProbe, SpanCheck, Tracer};

/// Set-ups per run at least; `setup_s` is their median.
const SETUPS: usize = 21;
/// Set-ups repeat for at least this long, so that their median spans more
/// than one short burst of a shared host's speed.
const SETUP_SPAN: Duration = Duration::from_secs(1);
/// A traced heap run keeps the spans of every this-many-th request.
const HEAP_SAMPLE_EVERY: u64 = 1024;
/// A traced patch-cycle run keeps the spans of every this-many-th request.
const CYCLE_SAMPLE_EVERY: u64 = 64;
/// Spans kept per tracer at most.
const SPAN_CAP: usize = 200_000;
/// Requests per worker in each of the two count-repeatability runs.
const HEAP_REPEAT_REQUESTS: u64 = 256;
const CYCLE_REPEAT_REQUESTS: u64 = 60;

#[derive(Debug)]
struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let num = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(num()?),
            "--seconds" => seconds = Some(num()?),
            "--trace" => trace = Some(num()? == 1),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?.max(1),
        trace: trace.unwrap_or(false),
    })
}

/// Length of the untraced timed run. A traced run first repeats the
/// untraced run for half of `--seconds`, then replays as many requests
/// traced, which takes longer, so the whole run stays within a few times
/// `--seconds`.
fn untraced_len(args: &Args) -> Duration {
    let secs = Duration::from_secs(args.seconds);
    if args.trace {
        secs / 2
    } else {
        secs
    }
}

/// What a workload run produced.
#[derive(Debug, Default)]
struct Outcome {
    attempted: u64,
    failed: u64,
    workers: usize,
    digest: u64,
    requests: u64,
    metrics: Vec<(&'static str, f64)>,
    samples: Vec<(String, u64)>,
    lines: Vec<String>,
    spans: String,
}

impl Outcome {
    fn count(&mut self, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
    }

    fn layers(&mut self, l: &Layers) {
        self.metrics = report::PER_LAYER
            .iter()
            .map(|&(n, _)| (n, l.values[n]))
            .collect();
        self.samples
            .extend(l.samples.iter().map(|(n, &c)| (n.to_string(), c)));
    }

    fn span_check(&mut self, c: SpanCheck) {
        self.count(1, u64::from(c.max_gap_ns != 0));
        self.lines.push(format!(
            "span-check: {} sampled requests, max |children + core.self - request| = {} ns",
            c.requests, c.max_gap_ns
        ));
    }

    fn tags(&mut self, a: &Layers, b: &Layers) {
        for (name, tag) in report::tag_counts(a, b) {
            self.lines.push(format!("count-tag {name}: {tag}"));
        }
    }
}

/// Runs `f` at least [`SETUPS`] times and for at least [`SETUP_SPAN`],
/// dropping each result before the next, and returns the median time with
/// the last result.
fn timed_setups<T>(mut f: impl FnMut() -> T) -> (f64, T) {
    let mut times = Vec::new();
    let mut last = None;
    let begin = Instant::now();
    while times.len() < SETUPS || begin.elapsed() < SETUP_SPAN {
        drop(last.take());
        let t = Instant::now();
        last = Some(f());
        times.push(t.elapsed().as_secs_f64());
    }
    (stats::quantile_f64(&times, 0.5), last.expect("SETUPS > 0"))
}

fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kib / 1024.0)
}

/// End-to-end metrics of an untraced timed run: throughput over the whole
/// run and latency percentiles of every request it made.
fn end_to_end(
    o: &mut Outcome,
    setup_s: f64,
    requests: u64,
    wall_s: f64,
    latency: &Hist,
) -> Result<(), String> {
    if !stats::reportable(latency.count(), 9_900) {
        return Err(format!(
            "{}; run longer",
            report::sample_note(latency.count())
        ));
    }
    o.requests = requests;
    o.samples.push(("req_latency".to_string(), latency.count()));
    o.lines.push(format!(
        "req latency: {} in {wall_s:.3} s",
        report::sample_note(latency.count())
    ));
    o.metrics = vec![
        ("setup_s", setup_s),
        ("req_per_s", requests as f64 / wall_s),
        ("req_p50_us", latency.quantile(5_000) / 1_000.0),
        ("req_p99_us", latency.quantile(9_900) / 1_000.0),
        ("peak_rss_mib", peak_rss_mib()?),
    ];
    Ok(())
}

fn merged(probes: &[Tracer]) -> Tracer {
    let mut m = Tracer::new(Instant::now(), 1, 0);
    for p in probes {
        m.merge_hists(p);
    }
    m
}

fn heap_checks(o: &mut Outcome, label: &str, run: &HeapRun<impl Sized>) {
    o.count(run.attempted(), run.failed());
    for (name, ok) in &run.checks {
        o.lines.push(format!(
            "check[{label}] {name}: {}",
            if *ok { "ok" } else { "FAILED" }
        ));
    }
    o.lines.push(format!(
        "ops[{label}]: {} attempted, {} failed (null, tag or zero-read)",
        run.issued.ops, run.issued.failed
    ));
}

fn run_heap(spec: &HeapSpec, args: &Args) -> Result<Outcome, String> {
    let mut o = Outcome {
        workers: spec.workers,
        ..Outcome::default()
    };
    let w = spec.workers;
    let (setup_s, s) = if args.trace {
        (0.0, heap::setup(spec, args.seed))
    } else {
        timed_setups(|| heap::setup(spec, args.seed))
    };
    o.digest = s.digest;
    let stops = vec![Stop::After(untraced_len(args)); w];
    let run = heap::run(&s, &stops, vec![NoProbe; w]);
    heap_checks(&mut o, "untraced", &run);
    drop(s);
    if !args.trace {
        let latency = run.latency.as_ref().expect("timed runs keep latency");
        end_to_end(&mut o, setup_s, run.total_requests(), run.wall_s, latency)?;
        return Ok(o);
    }
    let untraced_rps = run.total_requests() as f64 / run.wall_s;
    o.requests = run.total_requests();
    // Same seed, same number of requests per worker, fresh allocator.
    let s = heap::setup(spec, args.seed);
    let epoch = Instant::now();
    let probes = (0..w)
        .map(|_| Tracer::new(epoch, HEAP_SAMPLE_EVERY, SPAN_CAP))
        .collect();
    let stops: Vec<Stop> = run.requests.iter().map(|&n| Stop::Requests(n)).collect();
    let traced = heap::run(&s, &stops, probes);
    drop(s);
    heap_checks(&mut o, "traced", &traced);
    let mut layers = report::heap_layers(&traced, &merged(&traced.probes));
    let traced_rps = traced.total_requests() as f64 / traced.wall_s;
    layers
        .values
        .insert("trace.overhead_frac", traced_rps / untraced_rps);
    let layers = layers.complete();
    o.layers(&layers);
    let mut check = SpanCheck::default();
    for (i, p) in traced.probes.iter().enumerate() {
        let c = check_requests(p.spans());
        check.requests += c.requests;
        check.max_gap_ns = check.max_gap_ns.max(c.max_gap_ns);
        render_spans(i, p.spans(), &mut o.spans);
    }
    o.span_check(check);
    let mut repeat = || {
        let s = heap::setup(spec, args.seed);
        let probes = (0..w).map(|_| Tracer::new(Instant::now(), 1, 0)).collect();
        let r = heap::run(&s, &vec![Stop::Requests(HEAP_REPEAT_REQUESTS); w], probes);
        heap_checks(&mut o, "repeat", &r);
        report::heap_layers(&r, &merged(&r.probes)).complete()
    };
    let (a, b) = (repeat(), repeat());
    o.tags(&a, &b);
    Ok(o)
}

fn run_cycle(args: &Args) -> Result<Outcome, String> {
    let mut o = Outcome {
        workers: 1,
        ..Outcome::default()
    };
    let (setup_s, s) = if args.trace {
        (0.0, cycle::setup(args.seed))
    } else {
        timed_setups(|| cycle::setup(args.seed))
    };
    o.digest = s.digest;
    let run = cycle::run_untraced(&s, untraced_len(args));
    o.count(run.requests, run.failed);
    o.lines.push(format!(
        "cycles[untraced]: {} attempted, {} failed",
        run.requests, run.failed
    ));
    if !args.trace {
        let latency = run.latency.as_ref().expect("timed runs keep latency");
        end_to_end(&mut o, setup_s, run.requests, run.wall_s, latency)?;
        return Ok(o);
    }
    o.requests = run.requests;
    let reference = cycle::reference(&s);
    let mut tracer = Tracer::new(Instant::now(), CYCLE_SAMPLE_EVERY, SPAN_CAP);
    let traced = cycle::run_traced(&s, &reference, run.requests, &mut tracer);
    o.count(traced.requests, traced.failed);
    o.lines.push(format!(
        "cycles[traced]: {} attempted, {} failed or differed from full_cycle",
        traced.requests, traced.failed
    ));
    let mut layers = report::cycle_layers(&traced, &tracer);
    let overhead = (traced.requests as f64 / traced.wall_s) / (run.requests as f64 / run.wall_s);
    layers.values.insert("trace.overhead_frac", overhead);
    o.layers(&layers.complete());
    o.span_check(check_requests(tracer.spans()));
    render_spans(0, tracer.spans(), &mut o.spans);
    let mut repeat = || {
        let mut t = Tracer::new(Instant::now(), 1, 0);
        let r = cycle::run_traced(&s, &reference, CYCLE_REPEAT_REQUESTS, &mut t);
        o.count(r.requests, r.failed);
        report::cycle_layers(&r, &t).complete()
    };
    let (a, b) = (repeat(), repeat());
    o.tags(&a, &b);
    Ok(o)
}

/// The commit of the checkout, read from `.git` when there is one.
fn git_commit(root: &Path) -> String {
    let git = root.join(".git");
    let Ok(head) = std::fs::read_to_string(git.join("HEAD")) else {
        return "unknown (no .git)".to_string();
    };
    let Some(name) = head.trim().strip_prefix("ref: ") else {
        return head.trim().to_string();
    };
    if let Ok(sha) = std::fs::read_to_string(git.join(name)) {
        return sha.trim().to_string();
    }
    std::fs::read_to_string(git.join("packed-refs"))
        .ok()
        .and_then(|p| {
            p.lines().find_map(|l| {
                let (sha, r) = l.split_once(' ')?;
                (r == name).then(|| sha.to_string())
            })
        })
        .unwrap_or_else(|| format!("unknown ({name})"))
}

fn manifest(args: &Args, o: &Outcome, root: &Path) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let samples: Vec<String> = o
        .samples
        .iter()
        .map(|(n, c)| format!("{}: {c}", json_str(n)))
        .collect();
    format!(
        "{{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"workers\": {}, \
         \"nproc\": {nproc}, \"commit\": {}, \"rustc\": {}, \"input_digest\": \"{:#018x}\", \
         \"requests\": {}, \"samples\": {{{}}}}}",
        json_str(&args.workload),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        o.workers,
        json_str(&git_commit(root)),
        json_str(env!("PERFBENCH_RUSTC")),
        o.digest,
        o.requests,
        samples.join(", ")
    )
}

/// Writes the manifest and spans under `out/` in the benchmark directory.
fn write_out(args: &Args, manifest: &str, spans: &str) -> std::io::Result<PathBuf> {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir)?;
    let stem = format!(
        "{}-seed{}-trace{}",
        args.workload,
        args.seed,
        u8::from(args.trace)
    );
    std::fs::write(dir.join(format!("{stem}.manifest.json")), manifest)?;
    if args.trace {
        let header = "worker\treq\tname\tstart_ns\tend_ns\tparent\tself_ns\n";
        std::fs::write(
            dir.join(format!("{stem}.spans.tsv")),
            format!("{header}{spans}"),
        )?;
    }
    Ok(dir)
}

/// Tells glibc malloc to keep freed memory instead of trimming the heap
/// back to the kernel. Otherwise a run times the kernel's page faults as
/// the heap shrinks and regrows, and on a shared VM their cost varies with
/// the host: identical `patch-cycle` runs took 10k to 98k minor faults and
/// differed up to 2x in throughput. With trimming off they take about 300.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn keep_freed_memory() {
    use std::ffi::c_int;
    extern "C" {
        fn mallopt(param: c_int, value: c_int) -> c_int;
    }
    const M_TRIM_THRESHOLD: c_int = -1;
    // SAFETY: mallopt only changes malloc's tuning; no other thread runs yet.
    unsafe { mallopt(M_TRIM_THRESHOLD, c_int::MAX) };
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn keep_freed_memory() {}

fn main() -> ExitCode {
    keep_freed_memory();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <heap-unpatched|heap-patched|patch-cycle> \
                 --seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    if cfg!(debug_assertions) {
        eprintln!("perfbench: refusing to time a debug build; build with --release");
        return ExitCode::from(2);
    }
    let outcome = match args.workload.as_str() {
        "heap-unpatched" => run_heap(&heap::UNPATCHED, &args),
        "heap-patched" => run_heap(&heap::PATCHED, &args),
        "patch-cycle" => run_cycle(&args),
        other => Err(format!("unknown workload {other}")),
    };
    let o = match outcome {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .unwrap_or(Path::new("."));
    let manifest = manifest(&args, &o, root);
    match write_out(&args, &manifest, &o.spans) {
        Ok(dir) => println!("wrote manifest and spans to {}", dir.display()),
        Err(e) => eprintln!("perfbench: could not write out/: {e}"),
    }
    println!("manifest {manifest}");
    for l in &o.lines {
        println!("{l}");
    }
    for &(name, v) in &o.metrics {
        println!("metric {name} = {} {}", json_num(v), report::unit_of(name));
    }
    println!(
        "metric fail_frac = {} ratio ({} failed of {} attempted)",
        report::ratio(o.failed, o.attempted),
        o.failed,
        o.attempted
    );
    let correct = o.failed == 0;
    println!(
        "{}",
        report::result_line(correct, o.attempted, o.failed, &o.metrics)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
