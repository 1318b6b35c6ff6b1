//! `perfbench`: the repository's end-to-end and per-layer benchmark.
//!
//! ```text
//! perfbench --workload <tc-pull|tc-cluster|mcf-compute|tiny-jobs>
//!           [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! One closed loop (one client thread, one job in flight) runs the
//! workload's jobs for `--seconds`, checks every answer against a serial
//! reference, and prints the end-to-end metrics (`--trace 0`) or the
//! per-layer ledger (`--trace 1`) as the last line of stdout, one JSON
//! object. Each job runs in a process of its own (see `job.rs`). See
//! README.md for the workloads and metrics.

mod job;
mod probe;
mod stats;
mod sys;
mod trace;
mod workload;

use stats::{median, quantile};
use std::collections::BTreeMap;
use std::io;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};
use trace::{Tracer, PER_LAYER};
use workload::{Setup, Workload};

/// Seed used when `--seed` is not given.
const DEFAULT_SEED: u64 = 1;
const DEFAULT_SECONDS: f64 = 20.0;
/// A job running longer than this counts as hung and is killed.
const JOB_TIMEOUT: Duration = Duration::from_secs(60);
/// Extra time a run may take to reach its workload's minimum job count.
const MIN_JOBS_GRACE: Duration = Duration::from_secs(30);
/// Share of the measured loop's time spent setting up again between
/// jobs, and the least number of set-ups a run makes.
const SETUP_SHARE: f64 = 0.1;
const MIN_SETUP_REPS: usize = 5;

/// End-to-end metrics (`--trace 0`), with units.
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("job_wall_s", "s"),
    ("job_wall_p90_s", "s"),
    ("job_cpu_s", "s"),
    ("peak_rss_mb", "MB"),
    ("job_ok_ratio", "ratio"),
];

const USAGE: &str = "usage: perfbench --workload <tc-pull|tc-cluster|mcf-compute|tiny-jobs> \
                     [--seed N] [--seconds S] [--trace 0|1]";

/// A benchmark run.
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

/// What the command line asks for: a benchmark run, or (internal, see
/// `job.rs`) one job process.
enum Mode {
    Run(Args),
    Job { workload: Workload, graph: PathBuf, traced: bool },
}

fn parse_args() -> Result<Mode, String> {
    let mut flags = BTreeMap::new();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        flags.insert(flag, value);
    }
    let mut take = |flag: &str| flags.remove(flag);
    let bad = |flag: &str, value: &str| format!("bad value {value:?} for {flag}");
    let workload = |value: Option<String>, flag: &str| {
        let value = value.ok_or_else(|| format!("{flag} is required"))?;
        Workload::parse(&value).ok_or_else(|| bad(flag, &value))
    };
    let mode = if let Some(job) = take("--job") {
        let graph = PathBuf::from(take("--graph").ok_or("--graph is required")?);
        let traced = take("--traced").as_deref() == Some("1");
        Mode::Job { workload: workload(Some(job), "--job")?, graph, traced }
    } else {
        let workload = workload(take("--workload"), "--workload")?;
        let seed = match take("--seed") {
            Some(v) => v.parse().map_err(|_| bad("--seed", &v))?,
            None => DEFAULT_SEED,
        };
        let seconds = match take("--seconds") {
            Some(v) => {
                v.parse().ok().filter(|s: &f64| *s > 0.0).ok_or_else(|| bad("--seconds", &v))?
            }
            None => DEFAULT_SECONDS,
        };
        let trace = match take("--trace").as_deref() {
            None | Some("0") => false,
            Some("1") => true,
            Some(v) => return Err(bad("--trace", v)),
        };
        Mode::Run(Args { workload, seed, seconds, trace })
    };
    match flags.keys().next() {
        Some(flag) => Err(format!("unknown argument {flag:?}")),
        None => Ok(mode),
    }
}

fn print_result(correct: bool, attempted: usize, failed: usize, metrics: &[(&str, &str, f64)]) {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, unit, v)| format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"))
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{}}}}}",
        body.join(", ")
    );
}

/// The timings of a run's set-ups.
#[derive(Default)]
struct SetupTimes {
    /// Seconds of each set-up.
    secs: Vec<f64>,
    /// Seconds of each set-up phase, per set-up.
    phases: BTreeMap<&'static str, Vec<f64>>,
}

impl SetupTimes {
    /// Sets the workload up anew in `dir` and times it.
    fn set_up(&mut self, a: &Args, tracer: &Tracer, dir: &Path) -> io::Result<Setup> {
        sys::trim_heap();
        let t = Instant::now();
        let s = tracer.span("bench.setup", || workload::setup(a.workload, a.seed, dir, tracer))?;
        self.secs.push(t.elapsed().as_secs_f64());
        for &(k, v) in &s.phases {
            self.phases.entry(k).or_default().push(v);
        }
        Ok(s)
    }

    /// Median seconds of each set-up phase.
    fn phase_medians(&self) -> BTreeMap<&'static str, f64> {
        self.phases.iter().map(|(&k, v)| (k, median(v))).collect()
    }
}

/// Runs the workload and prints its result. The run is `correct` when no
/// job failed and every metric was measured.
fn run(a: &Args, dir: &Path) -> io::Result<()> {
    let w = a.workload;
    let tracer = Tracer::new(a.trace);
    let mut setups = SetupTimes::default();
    let s = setups.set_up(a, &tracer, dir)?;
    // Later set-ups are timed and dropped. They build their files in a
    // directory of their own, away from the inputs of the jobs.
    let resetup_dir = dir.join("resetup");
    std::fs::create_dir_all(&resetup_dir)?;
    let set_up_again = |setups: &mut SetupTimes| -> io::Result<()> {
        setups.set_up(a, &tracer, &resetup_dir).map(drop)
    };

    // Untimed from here to the measured loop.
    let t = Instant::now();
    let reference = tracer.span("apps.serial_reference", || workload::reference(w, &s));
    let reference_s = t.elapsed().as_secs_f64();
    let inputs = workload::write_inputs(&s, dir)?;
    let (mut attempted, mut failed) = (0, 0);
    let mut run_job = |w: Workload, i: usize, graph: &Path, traced: bool| {
        attempted += 1;
        let report = tracer
            .span("bench.job_process", || -> Result<job::JobReport, String> {
                let r = job::run_job_process(w, graph, traced, JOB_TIMEOUT)?;
                tracer.record_child("core.job_call", r.start_unix_ns, r.wall_s);
                Ok(r)
            })
            .and_then(|r| workload::check(&s, &reference, i, &r.answer).map(|()| r));
        report.map_err(|e| {
            failed += 1;
            eprintln!("perfbench: job {attempted} failed: {e}");
        })
    };

    // Warm-up: one checked, untimed job. tc-cluster's is tc-pull's job
    // on the in-RAM graph its `.gtc` was built from, which must agree
    // with the reference the TCP jobs are checked against.
    let _ = match w {
        Workload::TcCluster => run_job(Workload::TcPull, 0, &inputs.ram[0], false),
        _ => run_job(w, 0, inputs.job(0), false),
    };

    // The measured closed loop. A traced run alternates untraced and
    // traced jobs in ABBA order, for the tracing-overhead A/B. Between
    // jobs the workload is set up again, for `SETUP_SHARE` of the loop's
    // time: the host's speed drifts over seconds, and set-ups spread
    // over the loop see the same host as the jobs do.
    let mut untraced = Vec::new();
    let mut traced_walls = Vec::new();
    let mut ledgers = Vec::new();
    let start = Instant::now();
    let budget = Duration::from_secs_f64(a.seconds);
    let mut i = 1;
    while start.elapsed() < budget
        || (i <= w.min_jobs() && start.elapsed() < budget + MIN_JOBS_GRACE)
    {
        let traced = a.trace && ((i % 2 == 0) == ((i / 2) % 2 == 0));
        match run_job(w, i, inputs.job(i), traced) {
            Ok(r) if traced => {
                traced_walls.push(r.wall_s);
                ledgers.push(r.layers);
            }
            Ok(r) => untraced.push(r),
            Err(()) => {}
        }
        i += 1;
        while setups.secs.iter().sum::<f64>() < SETUP_SHARE * start.elapsed().as_secs_f64() {
            set_up_again(&mut setups)?;
        }
    }
    while setups.secs.len() < MIN_SETUP_REPS {
        set_up_again(&mut setups)?;
    }
    let setup_s = &setups.secs;
    let walls: Vec<f64> = untraced.iter().map(|r| r.wall_s).collect();

    let mut values = BTreeMap::new();
    let names = if a.trace {
        values = probe::graph(&tracer, &s, &setups.phase_medians(), dir)?;
        values.extend(trace::fold(&ledgers));
        if !walls.is_empty() && !traced_walls.is_empty() {
            let overhead = (median(&traced_walls) / median(&walls) - 1.0) * 100.0;
            values.insert("metrics.trace_overhead_pct", overhead);
        }
        let spans = Path::new(sys::OUT_ROOT).join("traces");
        std::fs::create_dir_all(&spans)?;
        let spans = spans.join(format!("{}-s{}.spans.json", w.name(), a.seed));
        tracer.write(&spans)?;
        println!("spans: {}", spans.display());
        PER_LAYER
    } else {
        if !walls.is_empty() {
            let col = |f: fn(&job::JobReport) -> f64| untraced.iter().map(f).collect::<Vec<_>>();
            values.insert("setup_s", median(setup_s));
            values.insert("job_wall_s", median(&walls));
            values.insert("job_wall_p90_s", quantile(&walls, 0.9));
            values.insert("job_cpu_s", median(&col(|r| r.cpu_s)));
            values.insert("peak_rss_mb", median(&col(|r| r.rss_mb)));
            values.insert("job_ok_ratio", (attempted - failed) as f64 / attempted as f64);
        }
        END_TO_END
    };

    println!(
        "workload={} seed={} seconds={} trace={} nproc={} loadavg=[{}] {reference} \
         (serial reference took {reference_s:.3} s) setup_reps={} attempted={attempted} \
         failed={failed}",
        w.name(),
        a.seed,
        a.seconds,
        u8::from(a.trace),
        sys::nproc(),
        sys::load_avg(),
        setup_s.len(),
    );
    let mut sorted = walls.clone();
    sorted.sort_by(f64::total_cmp);
    let shown: Vec<String> = sorted.iter().map(|w| format!("{w:.4}")).collect();
    println!("{} untraced job walls (s), sorted: {}", walls.len(), shown.join(" "));
    if a.trace {
        println!("{} traced jobs", traced_walls.len());
    }
    let mut metrics = Vec::new();
    for &(name, unit) in names {
        match values.get(name) {
            Some(&v) if v.is_finite() => metrics.push((name, unit, v)),
            _ => eprintln!("perfbench: metric {name} is missing from this run"),
        }
    }
    for (name, unit, v) in &metrics {
        println!("  {name:<30} {v:>16.6} {unit}");
    }
    let correct = failed == 0 && metrics.len() == names.len();
    print_result(correct, attempted, failed, &metrics);
    Ok(())
}

fn main() {
    let outcome = match parse_args() {
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
        Ok(Mode::Job { workload, graph, traced }) => job::job_process(workload, &graph, traced),
        Ok(Mode::Run(args)) => sys::RunDir::create(args.workload.name(), args.seed)
            .and_then(|dir| run(&args, dir.path())),
    };
    if let Err(e) = outcome {
        eprintln!("perfbench: {e}");
        std::process::exit(1);
    }
}
