//! TCP data-plane throughput (DESIGN.md §16 "Evented data plane").
//!
//! Brings up a 3-worker loopback TCP mesh (one thread per worker, each
//! owning its own `TcpTransport` over real kernel sockets — the wire
//! path is byte-identical to a 3-process deployment, only the address
//! space is shared) and blasts the steal-heavy traffic shape that
//! dominates a skewed mining job: many small framed control messages
//! per link, plus periodic broadcasts. Every worker sends `per_link`
//! unicasts to each peer and `bcasts` broadcasts, draining its inbox
//! as it goes; the clock stops when its own sends are out *and* every
//! expected inbound message has arrived.
//!
//! The data plane under test is the evented one: one poll-loop I/O
//! thread per worker, pooled seal-once frames, per-peer outbound rings
//! drained with `writev`-coalesced batches.
//!
//! Reports messages/sec, bytes/sec and the coalescing counters, and
//! emits `BENCH_net.json`. Before overwriting it, reads the evented
//! msgs/sec already in that file and, when the workload matches,
//! reports the new figure against it (`msgs_per_sec_vs_previous`),
//! next to every rep's msgs/sec so the host's noise shows.
//!
//! `cargo run -p gthinker-bench --release --bin net_throughput
//! [--scale f] [--smoke]`

use gthinker_graph::ids::{VertexId, WorkerId};
use gthinker_net::fault::FaultConfig;
use gthinker_net::message::Message;
use gthinker_net::tcp::{ClusterManifest, TcpTransport};
use gthinker_net::transport::{NetEndpoint, Transport};
use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

const WORKERS: usize = 3;
const RENDEZVOUS: Duration = Duration::from_secs(10);
const RECV: Duration = Duration::from_millis(1);
/// Sends between inbox drains; keeps inbound frames from piling up in
/// kernel socket buffers unread.
const DRAIN_EVERY: usize = 64;

fn pull(from: u16, v: u32) -> Message {
    Message::VertexRequest {
        from: WorkerId(from),
        vertices: vec![VertexId(v), VertexId(v ^ 1), VertexId(v ^ 2), VertexId(v ^ 3)],
        sent_nanos: 0,
    }
}

/// One worker's result: wall time to send + receive everything, and
/// its transport counters at teardown.
struct Lane {
    wall: Duration,
    received: usize,
    bytes_sent: u64,
    writev_calls: u64,
    frames_coalesced: u64,
    backpressure_stalls: u64,
}

/// One rep's aggregate over the mesh.
struct Run {
    wall: Duration,
    msgs: u64,
    bytes: u64,
    msgs_per_sec: f64,
    bytes_per_sec: f64,
    writev_calls: u64,
    frames_coalesced: u64,
    backpressure_stalls: u64,
}

fn run_mesh(per_link: usize, bcasts: usize) -> Run {
    let (manifest, listeners) = ClusterManifest::loopback(WORKERS).expect("bind loopback");
    let expect = (WORKERS - 1) * (per_link + bcasts);
    let handles: Vec<_> = listeners
        .into_iter()
        .enumerate()
        .map(|(w, listener)| {
            let manifest = manifest.clone();
            std::thread::spawn(move || {
                let me = WorkerId(w as u16);
                let mut t = TcpTransport::connect_on(
                    &manifest,
                    me,
                    FaultConfig::default(),
                    RENDEZVOUS,
                    listener,
                )
                .expect("rendezvous");
                let net = t.take_endpoint(me);
                blast(&*net, w as u16, per_link, bcasts, expect)
            })
        })
        .collect();
    let lanes: Vec<Lane> = handles.into_iter().map(|h| h.join().expect("worker")).collect();
    for (w, l) in lanes.iter().enumerate() {
        assert_eq!(l.received, expect, "worker {w} lost messages");
    }
    let wall = lanes.iter().map(|l| l.wall).max().unwrap();
    let msgs = (WORKERS * expect) as u64;
    let bytes = lanes.iter().map(|l| l.bytes_sent).sum();
    let secs = wall.as_secs_f64().max(1e-9);
    Run {
        wall,
        msgs,
        bytes,
        msgs_per_sec: msgs as f64 / secs,
        bytes_per_sec: bytes as f64 / secs,
        writev_calls: lanes.iter().map(|l| l.writev_calls).sum(),
        frames_coalesced: lanes.iter().map(|l| l.frames_coalesced).sum(),
        backpressure_stalls: lanes.iter().map(|l| l.backpressure_stalls).sum(),
    }
}

/// The per-worker send/receive loop. Interleaves draining with
/// sending so no lane can deadlock on full socket buffers.
fn blast(net: &dyn NetEndpoint, me: u16, per_link: usize, bcasts: usize, expect: usize) -> Lane {
    let peers: Vec<u16> = (0..WORKERS as u16).filter(|&p| p != me).collect();
    let mut received = 0usize;
    let mut batch = Vec::with_capacity(DRAIN_EVERY);
    let start = Instant::now();
    let mut since_drain = 0usize;
    // Only the workload messages count toward `expect`: the inbox also
    // carries transport events — `PeerDown` is expected once the
    // fastest lane finishes and drops its endpoint; anything else would
    // be a wire bug worth seeing.
    let absorb = |batch: &mut Vec<Message>| {
        let data = batch.iter().filter(|m| matches!(m, Message::VertexRequest { .. })).count();
        for m in batch.iter() {
            if !matches!(m, Message::VertexRequest { .. } | Message::PeerDown { .. }) {
                eprintln!("worker {me}: stray inbox message: {m:?}");
            }
        }
        batch.clear();
        data
    };
    for i in 0..per_link {
        for &p in &peers {
            net.send(WorkerId(p), pull(me, i as u32));
            since_drain += 1;
        }
        if since_drain >= DRAIN_EVERY {
            since_drain = 0;
            net.recv_batch(Duration::ZERO, usize::MAX, &mut batch);
            received += absorb(&mut batch);
        }
    }
    for i in 0..bcasts {
        net.broadcast(&pull(me, (per_link + i) as u32));
        since_drain += peers.len();
        if since_drain >= DRAIN_EVERY {
            since_drain = 0;
            net.recv_batch(Duration::ZERO, usize::MAX, &mut batch);
            received += absorb(&mut batch);
        }
    }
    while received < expect {
        let n = net.recv_batch(RECV, usize::MAX, &mut batch);
        received += absorb(&mut batch);
        if n == 0 && start.elapsed() > Duration::from_secs(60) {
            break; // let the caller's assert report the loss
        }
    }
    let wall = start.elapsed();
    let s = net.stats();
    Lane {
        wall,
        received,
        bytes_sent: s.bytes_sent.load(Ordering::Relaxed),
        writev_calls: s.writev_calls.load(Ordering::Relaxed),
        frames_coalesced: s.frames_coalesced.load(Ordering::Relaxed),
        backpressure_stalls: s.backpressure_stalls.load(Ordering::Relaxed),
    }
}

fn json_run(r: &Run) -> String {
    format!(
        concat!(
            "{{\"wall_ns\": {}, \"msgs\": {}, \"bytes\": {}, ",
            "\"msgs_per_sec\": {:.1}, \"bytes_per_sec\": {:.1}, ",
            "\"writev_calls\": {}, \"frames_coalesced\": {}, ",
            "\"backpressure_stalls\": {}}}"
        ),
        r.wall.as_nanos(),
        r.msgs,
        r.bytes,
        r.msgs_per_sec,
        r.bytes_per_sec,
        r.writev_calls,
        r.frames_coalesced,
        r.backpressure_stalls,
    )
}

/// The evented msgs/sec recorded in a previous `BENCH_net.json`, if
/// that file measured the same `workload`.
fn previous_msgs_per_sec(json: &str, workload: &str) -> Option<f64> {
    if !json.contains(&format!("\"workload\": \"{workload}\"")) {
        return None;
    }
    let evented = &json[json.find("\"evented\"")?..];
    let rest = &evented[evented.find("\"msgs_per_sec\": ")? + "\"msgs_per_sec\": ".len()..];
    rest[..rest.find([',', '}'])?].trim().parse().ok()
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let scale = gthinker_bench::scale_from_args(1.0);
    let per_link = if smoke { 2_000 } else { (40_000.0 * scale) as usize }.max(100);
    let bcasts = per_link / 10;
    let reps = if smoke { 1 } else { 3 };
    let workload = format!(
        "{WORKERS} workers loopback, {per_link} unicasts per link + {bcasts} broadcasts per \
         worker, 4-vertex pull frames"
    );

    println!(
        "net_throughput: {WORKERS}-worker loopback TCP mesh, {per_link} unicasts per link + \
         {bcasts} broadcasts per worker, ~76 B frames; best of {reps} rep(s)\n"
    );

    let runs: Vec<Run> = (0..reps).map(|_| run_mesh(per_link, bcasts)).collect();
    println!(
        "{:>5} | {:>9} {:>12} {:>12} | {:>8} {:>10} {:>7}",
        "rep", "wall ms", "msgs/sec", "bytes/sec", "writev", "coalesced", "stalls"
    );
    gthinker_bench::rule(76);
    for (i, r) in runs.iter().enumerate() {
        println!(
            "{:>5} | {:>9.1} {:>12.0} {:>12.0} | {:>8} {:>10} {:>7}",
            i,
            r.wall.as_secs_f64() * 1e3,
            r.msgs_per_sec,
            r.bytes_per_sec,
            r.writev_calls,
            r.frames_coalesced,
            r.backpressure_stalls,
        );
    }
    let rep_rates: Vec<String> = runs.iter().map(|r| format!("{:.1}", r.msgs_per_sec)).collect();
    let best = runs.into_iter().max_by(|a, b| a.msgs_per_sec.total_cmp(&b.msgs_per_sec)).unwrap();

    let previous = std::fs::read_to_string("BENCH_net.json")
        .ok()
        .and_then(|json| previous_msgs_per_sec(&json, &workload));
    let vs_previous = previous.map(|p| best.msgs_per_sec / p.max(1e-9));
    match vs_previous {
        Some(v) => println!(
            "\nbest msgs/sec {:.0} vs previous BENCH_net.json {:.0} = {v:.2}x",
            best.msgs_per_sec,
            previous.unwrap_or_default()
        ),
        None => {
            println!("\nno previous BENCH_net.json figure for this workload to compare against")
        }
    }
    let opt = |x: Option<f64>, prec: usize| x.map_or("null".into(), |x| format!("{x:.prec$}"));

    let json = format!(
        concat!(
            "{{\n",
            "  \"bench\": \"net_throughput\",\n",
            "  \"workload\": \"{}\",\n",
            "  \"smoke\": {},\n",
            "  \"reps\": {},\n",
            "  \"evented\": {},\n",
            "  \"reps_msgs_per_sec\": [{}],\n",
            "  \"previous_msgs_per_sec\": {},\n",
            "  \"msgs_per_sec_vs_previous\": {}\n",
            "}}\n"
        ),
        workload,
        smoke,
        reps,
        json_run(&best),
        rep_rates.join(", "),
        opt(previous, 1),
        opt(vs_previous, 3),
    );
    std::fs::write("BENCH_net.json", &json).expect("write BENCH_net.json");
    println!("wrote BENCH_net.json");
}
