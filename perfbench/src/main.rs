//! The credo benchmark: one command that runs a workload, checks its
//! answers and prints every metric by name with its unit.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload cold-heavytail --seed 1 --seconds 10 --trace 0
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with tracing off.
//! `--trace 1` is the separate traced run: it repeats the workload with
//! a `credo_trace::TraceBuffer` attached, prints the per-layer ledger,
//! probes each layer and writes a chrome trace. The last line of standard
//! output is always one JSON object with `correct`, `attempted`, `failed`
//! and `metrics`. Inputs and scratch files live under `.perfbench_data/`
//! in the working directory.

mod inputs;
mod ledger;
mod metrics;
mod ops;
mod probes;
mod stats;

use inputs::Workload;
use ledger::{Trace, Tracer};
use ops::{Fixture, Live, Reference, Window};
use stats::{median, Latency};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Result<&str, String> {
        let i = argv
            .iter()
            .position(|a| a == flag)
            .ok_or(format!("missing {flag}"))?;
        argv.get(i + 1)
            .map(String::as_str)
            .ok_or(format!("{flag} needs a value"))
    };
    let name = value("--workload")?;
    let workload = Workload::parse(name).ok_or_else(|| {
        let names: Vec<&str> = inputs::WORKLOADS.iter().map(|w| w.1).collect();
        format!("unknown workload {name:?}; one of {names:?}")
    })?;
    let seed = value("--seed")?
        .parse()
        .map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = value("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must lie in (0, 600]".into());
    }
    let trace = match value("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// Counts operations and collects findings across the run.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    findings: Vec<String>,
}

impl Tally {
    fn window(&mut self, w: &Window) {
        self.attempted += w.attempted;
        self.failed += w.failed;
        self.findings.extend(w.findings.iter().cloned());
    }

    fn setup(&mut self, failure: Option<String>) {
        self.attempted += 1;
        if let Some(f) = failure {
            self.failed += 1;
            self.findings.push(format!("set-up: {f}"));
        }
    }
}

/// Runs the workload for `seconds` in [`ops::SETUP_REPS`] equal
/// segments, each on a system freshly set up (and timed) before it, so
/// the set-up times are sampled across the whole run like the
/// operations are, not in one burst at its start.
fn segments(fx: &Fixture, seconds: f64, tracer: &Tracer, tally: &mut Tally) -> (Vec<f64>, Window) {
    let mut times = Vec::new();
    let mut all = Window::default();
    for rep in 0..ops::SETUP_REPS {
        let s = ops::setup(fx, tracer, rep);
        times.push(s.seconds);
        tally.setup(s.failure);
        let mut live = s.live;
        let w = ops::window(fx, &mut live, seconds / ops::SETUP_REPS as f64, tracer);
        ops::teardown(live);
        tally.window(&w);
        all.absorb(w);
    }
    (times, all)
}

fn end_to_end(fx: &Fixture, seconds: f64, tally: &mut Tally) -> Vec<(&'static str, f64)> {
    let off = Tracer::off();
    ops::reset_peak_rss();
    let (setup_s, w) = segments(fx, seconds, &off, tally);
    // The tail is printed, not reported: on a small shared VM it moves by
    // more than any useful bound from run to run.
    let lat = Latency::of(&w.latencies, 999);
    println!(
        "operations: {} in a {:.3} s window; latency p50 {:.4} ms, {} {:.4} ms over n={}",
        w.latencies.len(),
        w.seconds,
        lat.p50 * 1e3,
        lat.tail_label(),
        lat.tail * 1e3,
        lat.n
    );
    let mut sorted = w.latencies.clone();
    sorted.sort_by(f64::total_cmp);
    if !sorted.is_empty() {
        let deciles: Vec<String> = (1..10)
            .map(|d| format!("{:.3}", stats::percentile_sorted(&sorted, d * 100) * 1e3))
            .collect();
        println!("latency deciles (ms): {}", deciles.join(" "));
    }
    if !w.solves.is_empty() {
        let iters: Vec<f64> = w.solves.iter().map(|s| f64::from(s.1.iterations)).collect();
        println!("solves: median {} iterations", median(&iters));
    }
    if !w.dist.is_empty() {
        let iters: Vec<f64> = w.dist.iter().map(|d| f64::from(d.1)).collect();
        let per: Vec<f64> = w
            .dist
            .iter()
            .map(|d| d.0 * 1e3 / f64::from(d.1.max(1)))
            .collect();
        println!(
            "dist: median {} iterations, {:.3} ms per iteration",
            median(&iters),
            median(&per)
        );
    }
    println!(
        "set-up: {} runs {:?} s",
        setup_s.len(),
        setup_s
            .iter()
            .map(|s| (s * 1e4).round() / 1e4)
            .collect::<Vec<_>>()
    );
    let attempted = tally.attempted.max(1) as f64;
    vec![
        ("setup_s", median(&setup_s)),
        ("latency_p50_ms", lat.p50 * 1e3),
        ("ok_frac", 1.0 - tally.failed as f64 / attempted),
        ("peak_rss_mb", w.peak_rss_mb),
    ]
}

fn traced(fx: &Fixture, seconds: f64, tally: &mut Tally) -> Vec<(&'static str, f64)> {
    let off = Tracer::off();
    let on = Tracer::on();
    let mut m = probes::Metrics::new();

    // The workload twice, untraced then traced, for the overhead guard;
    // each window gets half the run's measuring time.
    let seconds = seconds / 2.0;
    let (setup_s, w_off) = segments(fx, seconds, &off, tally);
    let s = ops::setup(fx, &on, 0);
    tally.setup(s.failure);
    let mut live = s.live;
    let w_on = ops::window(fx, &mut live, seconds, &on);
    let dist_add_s = match &live {
        Live::Dist { add_graph_s, .. } => Some(*add_graph_s),
        _ => None,
    };
    ops::teardown(live);
    tally.window(&w_on);
    let overhead = median(&w_on.latencies) / median(&w_off.latencies) - 1.0;

    // Layer probes on the workload's graph.
    let parse_s = match &fx.check {
        Reference::Cold { .. } => setup_s,
        _ => (0..probes::REPS)
            .map(|_| {
                let t0 = Instant::now();
                let _s = on.span("io.parse", 0, 0);
                drop(credo_io::mtx::read_files(&fx.files.nodes, &fx.files.edges));
                t0.elapsed().as_secs_f64()
            })
            .collect(),
    };
    let plan = probes::io_graph(fx, &on, &parse_s, &mut m);
    let opts = ops::cold_opts(fx.workload);
    let solves = match &fx.check {
        Reference::Cold { .. } => w_on.solves.clone(),
        _ => probes::cold_solves(fx, &on),
    };
    probes::kernels(&plan, &on, &mut m);
    probes::triad(&on, &mut m);
    let stream = probes::stream_for(fx, ops::MIN_QUERIES + 1);
    let snap = probes::warm(fx, &stream, &on, &mut m);
    let submit_failed = probes::serve_submit(fx, &stream, &on, &mut m);
    tally.attempted += stream.len() as u64;
    tally.failed += submit_failed;
    match &fx.check {
        Reference::Serve { .. } => probes::serve_from_window(&w_on, &mut m),
        _ => {
            let w = probes::serve_tcp(fx, &stream);
            tally.window(&w);
            probes::serve_from_window(&w, &mut m);
        }
    }
    probes::store(fx, &plan, &snap, &on, &mut m);
    let (dist_reqs, add_s, frontier) = match (&fx.check, dist_add_s) {
        (
            Reference::Dist {
                frontier_floats, ..
            },
            Some(add_s),
        ) => (w_on.dist.clone(), add_s, *frontier_floats),
        _ => {
            let (reqs, add_s, frontier, failed) = probes::dist_probe(fx, &on);
            tally.attempted += reqs.len() as u64 + 1;
            tally.failed += failed;
            (reqs, add_s, frontier)
        }
    };

    // Everything recorded: read the trace once.
    let buf = on.buffer().expect("traced run has a buffer");
    let trace = Trace::from_records(&buf.records());
    let busy = trace.busy_within("plan.solve");
    let resident_s = probes::plan_par_queue(fx, &plan, &solves, &busy, &opts, &on, &mut m);
    m.insert("plan.bw_frac", m["plan.gb_per_s"] / m["mem.triad_gb_s"]);
    probes::dist_from(add_s, frontier, &dist_reqs, resident_s, &mut m);

    let ledger = trace.ledger();
    ledger.print();
    if !ledger.adds_up(0.10) {
        tally.findings.push(
            "ledger: layer self times do not add up to the traced end-to-end time within 10%"
                .into(),
        );
    }
    m.insert(
        "ledger.unaccounted_frac",
        ledger.unaccounted_us() / ledger.total_us,
    );
    m.insert("trace.overhead_frac", overhead);
    println!(
        "trace: overhead {:+.2}% on the median operation (traced {:.4} s vs untraced {:.4} s)",
        overhead * 100.0,
        median(&w_on.latencies),
        median(&w_off.latencies)
    );
    println!(
        "kernels: {:.2} ns/msg hot vs {:.2} ns/msg gather (gather share {:.0}%)",
        m["kernels.ns_per_msg_hot"],
        m["kernels.ns_per_msg_gather"],
        100.0 * (1.0 - m["kernels.ns_per_msg_hot"] / m["kernels.ns_per_msg_gather"])
    );
    println!(
        "plan: {:.2} GB/s computed (msgs x {:.1} B/msg / engine time) = {:.1}% of the measured triad",
        m["plan.gb_per_s"],
        plan.mean_bytes_per_message(plan.is_shared()),
        100.0 * m["plan.bw_frac"]
    );

    let path = trace_path(fx);
    match buf.write_chrome_trace(&path) {
        Ok(()) => println!("trace: chrome trace written to {}", path.display()),
        Err(e) => tally
            .findings
            .push(format!("trace: cannot write {}: {e}", path.display())),
    }
    metrics::PER_LAYER
        .iter()
        .map(|(name, _)| (*name, m.get(name).copied().unwrap_or(f64::NAN)))
        .collect()
}

fn data_root() -> PathBuf {
    PathBuf::from(".perfbench_data")
}

fn trace_path(fx: &Fixture) -> PathBuf {
    data_root().join(format!("{}.trace.json", fx.workload.name()))
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    let w = args.workload;
    println!("workload {}: {}", w.name(), w.why());
    let dir = data_root().join(format!("{}-{}-{}", w.name(), args.seed, std::process::id()));
    let t0 = Instant::now();
    let fx = Fixture::prepare(w, args.seed, &dir);
    println!(
        "inputs: {} nodes, {} edges, seed {}, prepared in {:.2} s (untimed)",
        fx.graph.num_nodes(),
        fx.graph.num_edges(),
        args.seed,
        t0.elapsed().as_secs_f64()
    );

    let mut tally = Tally::default();
    let values = if args.trace {
        traced(&fx, args.seconds, &mut tally)
    } else {
        end_to_end(&fx, args.seconds, &mut tally)
    };
    drop(fx);
    let _ = std::fs::remove_dir_all(&dir);

    for f in &tally.findings {
        println!("FINDING: {f}");
    }
    println!(
        "checks: {} of {} operations failed (error rate {:.4})",
        tally.failed,
        tally.attempted,
        tally.failed as f64 / tally.attempted.max(1) as f64
    );
    let mut fields = Vec::new();
    for (name, v) in &values {
        let unit = metrics::unit(name);
        println!("metric {name} = {v} {unit}");
        fields.push(format!(
            "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            json_number(*v)
        ));
    }
    let correct = tally.failed == 0 && tally.findings.is_empty();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.attempted.max(1),
        tally.failed,
        fields.join(", ")
    );
    ExitCode::SUCCESS
}
