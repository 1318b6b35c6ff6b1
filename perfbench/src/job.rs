//! One job per process. The benchmark re-runs its own executable for
//! every job, so each job starts from a fresh heap: its peak RSS is the
//! job's own, not what earlier jobs left in the allocator, and a hung
//! job can be killed.
//!
//! The job process loads its graph, then times only the call into the
//! library's entry point, and prints a report on stdout, one item a
//! line:
//!
//! ```text
//! answer triangles <count>  |  answer clique <v> <v> ...
//! outcome <completed|...>
//! start_unix_ns <n>   wall_s <f>   cpu_s <f>   rss_mb <f>
//! layer <per-layer metric> <f>      (traced jobs only)
//! error <message>                   (instead of the above)
//! ```

use crate::sys;
use crate::trace::{self, PER_LAYER};
use crate::workload::{self, Answer, Input, Workload, COMPERS, WORKERS};
use gthinker_core::JobOutcome;
use gthinker_graph::ids::VertexId;
use std::collections::BTreeMap;
use std::io::{self, Read};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::process::{Command, Stdio};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// What a job process reported.
pub struct JobReport {
    pub answer: Answer,
    /// When the job process called the entry point (wall clock).
    pub start_unix_ns: i128,
    /// Job wall: from the call into the entry point to its result.
    pub wall_s: f64,
    /// Process CPU time (all threads) over the same interval.
    pub cpu_s: f64,
    /// The process's peak RSS after loading its graph, through the job.
    pub rss_mb: f64,
    /// The job's per-layer ledger; empty unless traced.
    pub layers: BTreeMap<&'static str, f64>,
}

/// The job process: runs one job of `w` on the graph at `graph`, with
/// the workload's trace capacity when `traced`, and prints its report.
/// Returns an error only when the graph cannot be loaded; a failed job
/// is reported on stdout.
pub fn job_process(w: Workload, graph: &Path, traced: bool) -> io::Result<()> {
    let input = Input::load(graph)?;
    let run_dir = graph.parent().unwrap_or(Path::new("."));
    let cfg = w.config(run_dir, if traced { w.trace_capacity() } else { 0 });
    sys::reset_peak_rss();
    let cpu0 = sys::process_cpu_s();
    let start_unix_ns = trace::unix_ns();
    let call = gthinker_metrics::now_nanos();
    let t0 = Instant::now();
    let r = catch_unwind(AssertUnwindSafe(|| workload::run(w, &input, &cfg)));
    let wall_s = t0.elapsed().as_secs_f64();
    let ret = gthinker_metrics::now_nanos();
    let cpu_s = sys::process_cpu_s() - cpu0;
    let rss_mb = sys::peak_rss_mb();
    let out = match r {
        Ok(Ok(out)) => out,
        Ok(Err(e)) => {
            println!("error {e}");
            return Ok(());
        }
        Err(p) => {
            let msg = p
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| p.downcast_ref::<&str>().copied())
                .unwrap_or("?");
            println!("error panic: {msg}");
            return Ok(());
        }
    };
    match &out.answer {
        Answer::Triangles(n) => println!("answer triangles {n}"),
        Answer::Clique(members) => {
            let ids: Vec<String> = members.iter().map(|v| v.0.to_string()).collect();
            println!("answer clique {}", ids.join(" "));
        }
    }
    match &out.outcome {
        JobOutcome::Completed => println!("outcome completed"),
        other => println!("outcome {other:?}"),
    }
    println!("start_unix_ns {start_unix_ns}\nwall_s {wall_s}\ncpu_s {cpu_s}\nrss_mb {rss_mb}");
    if traced {
        let compers = WORKERS * COMPERS;
        for (name, v) in trace::job_ledger(&out.metrics, call, ret, out.peak_mem_bytes, compers) {
            println!("layer {name} {v}");
        }
    }
    Ok(())
}

/// Runs one job of `w` on `graph` in a job process and waits for its
/// report. A process that runs past `timeout` is killed. Every failure
/// (load error, job error, panic, crash, timeout, non-completed
/// outcome) comes back as `Err`.
pub fn run_job_process(
    w: Workload,
    graph: &Path,
    traced: bool,
    timeout: Duration,
) -> Result<JobReport, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let mut child = Command::new(exe)
        .arg("--job")
        .arg(w.name())
        .arg("--graph")
        .arg(graph)
        .arg("--traced")
        .arg(if traced { "1" } else { "0" })
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .spawn()
        .map_err(|e| format!("cannot start a job process: {e}"))?;
    let mut stdout = child.stdout.take().expect("stdout is piped");
    // The report is complete when the process closes its stdout.
    let (tx, rx) = mpsc::channel();
    let reader = std::thread::spawn(move || {
        let mut text = String::new();
        let r = stdout.read_to_string(&mut text).map(|_| text);
        let _ = tx.send(r);
    });
    let received = rx.recv_timeout(timeout);
    if received.is_err() {
        let _ = child.kill();
    }
    let status = child.wait().map_err(|e| format!("cannot wait for the job process: {e}"))?;
    reader.join().expect("the report reader does not panic");
    let text = match received {
        Err(_) => return Err(format!("job ran longer than {timeout:?} and was killed")),
        Ok(r) => r.map_err(|e| format!("cannot read the job report: {e}"))?,
    };
    if !status.success() {
        return Err(format!("job process failed: {status}"));
    }
    parse_report(&text)
}

fn parse_report(text: &str) -> Result<JobReport, String> {
    let mut answer = None;
    let mut completed = false;
    let mut start_unix_ns = None;
    let mut nums: BTreeMap<&str, f64> = BTreeMap::new();
    let mut layers = BTreeMap::new();
    let bad = |line: &str| format!("malformed job report line {line:?}");
    for line in text.lines() {
        let (key, rest) = line.split_once(' ').unwrap_or((line, ""));
        match key {
            "error" => return Err(rest.to_string()),
            "answer" => {
                let mut it = rest.split_whitespace();
                answer = Some(match it.next() {
                    Some("triangles") => Answer::Triangles(
                        it.next().and_then(|n| n.parse().ok()).ok_or_else(|| bad(line))?,
                    ),
                    Some("clique") => Answer::Clique(
                        it.map(|v| v.parse().map(VertexId))
                            .collect::<Result<_, _>>()
                            .map_err(|_| bad(line))?,
                    ),
                    _ => return Err(bad(line)),
                });
            }
            "outcome" if rest == "completed" => completed = true,
            "outcome" => return Err(format!("job ended {rest}")),
            "start_unix_ns" => start_unix_ns = Some(rest.parse().map_err(|_| bad(line))?),
            "wall_s" | "cpu_s" | "rss_mb" => {
                nums.insert(key, rest.parse().map_err(|_| bad(line))?);
            }
            "layer" => {
                let (name, v) = rest.split_once(' ').ok_or_else(|| bad(line))?;
                let name = PER_LAYER.iter().find(|(n, _)| *n == name).ok_or_else(|| bad(line))?.0;
                layers.insert(name, v.parse().map_err(|_| bad(line))?);
            }
            _ => return Err(bad(line)),
        }
    }
    let num = |k: &str| nums.get(k).copied().ok_or_else(|| format!("job report has no {k}"));
    if !completed {
        return Err("job report has no outcome".into());
    }
    Ok(JobReport {
        answer: answer.ok_or("job report has no answer")?,
        start_unix_ns: start_unix_ns.ok_or("job report has no start_unix_ns")?,
        wall_s: num("wall_s")?,
        cpu_s: num("cpu_s")?,
        rss_mb: num("rss_mb")?,
        layers,
    })
}
