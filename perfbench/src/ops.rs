//! The measured operations of each workload: the untimed fixture (inputs
//! and reference answers), the timed set-up, the timed window, and the
//! correctness checks that decide which operations failed.

use crate::inputs::{self, GraphFiles, Workload};
use crate::ledger::Tracer;
use crate::stats::{self, LoTx};
use credo_core::par::ParNodeEngine;
use credo_core::seq::SeqNodeEngine;
use credo_core::{run_fresh, run_fresh_traced, BpOptions, BpStats, ShardedSession};
use credo_graph::{BeliefGraph, ShardedExec};
use credo_serve::ServeConfig;
use credo_serve::{Client, DistConfig, DistRouter, MetricsSnapshot, Request, Response, Server};
use credo_store::SourceKey;
use std::io;
use std::net::{TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Timed set-ups per run; `setup_s` is their median, so one slow
/// repetition cannot move it.
pub const SETUP_REPS: usize = 9;

/// L∞ bound between an answer and its reference (the bound the
/// repository's plan-engine integration tests use).
pub const LINF_BOUND: f32 = 1e-4;
/// serve-warm requests a window must hold, so p99 has ten samples beyond.
pub const MIN_QUERIES: usize = 1000;
/// serve-warm answers re-checked against a `fresh` cold answer.
const FRESH_SAMPLES: usize = 3;
/// Length of the pre-generated serve-warm request stream; a window that
/// outlasts it starts over, long after the posterior cache forgot it.
const STREAM_LEN: usize = 10_000;

/// The Par Node options of a workload's cold solves: the work queue on
/// cold-heavytail, the defaults elsewhere (the paper's threshold 1e-3
/// and cap 200 are the defaults).
pub fn cold_opts(w: Workload) -> BpOptions {
    match w {
        Workload::ColdHeavyTail => BpOptions::with_work_queue(),
        _ => BpOptions::default(),
    }
    .with_threads(2)
}

/// Everything a run prepares before any clock starts.
pub struct Fixture {
    pub workload: Workload,
    pub seed: u64,
    pub dir: PathBuf,
    pub files: GraphFiles,
    /// The graph as parsed from `files` (untimed), with the cold-heavytail
    /// evidence bound.
    pub graph: BeliefGraph,
    pub check: Reference,
}

/// Reference answers, computed once per seed by independent code paths.
pub enum Reference {
    /// The run's evidence, and the posteriors of the direct AoS C Node
    /// (`SeqNodeEngine` without the compiled plan) under it, flattened
    /// in node order.
    Cold {
        evidence: Vec<(u32, u32)>,
        posteriors: Vec<f32>,
    },
    /// The request stream, the store key, and a store populated by a
    /// first-boot server that answered one request and shut down.
    Serve {
        stream: Vec<Request>,
        key: SourceKey,
        store: PathBuf,
    },
    /// The request pool and each request's `ShardedSession` answer
    /// (iterations, packed posteriors), plus the packed node offsets.
    Dist {
        requests: Vec<Request>,
        expected: Vec<(u32, Vec<f32>)>,
        global_off: Vec<usize>,
        frontier_floats: usize,
    },
}

fn read_graph(files: &GraphFiles) -> BeliefGraph {
    credo_io::mtx::read_files(&files.nodes, &files.edges).expect("read generated MTX inputs")
}

fn observe(g: &mut BeliefGraph, evidence: &[(u32, u32)]) {
    for &(v, s) in evidence {
        g.observe(v, s as usize);
    }
}

fn flatten(g: &BeliefGraph) -> Vec<f32> {
    g.beliefs()
        .iter()
        .flat_map(|b| b.as_slice().iter().copied())
        .collect()
}

impl Fixture {
    pub fn prepare(workload: Workload, seed: u64, dir: &Path) -> Fixture {
        std::fs::create_dir_all(dir).expect("create the run's data directory");
        let files = inputs::write_graph(workload.family(), dir);
        let mut graph = read_graph(&files);
        let check = match workload {
            Workload::ColdHeavyTail => {
                let evidence = inputs::cold_evidence(seed, graph.num_nodes());
                observe(&mut graph, &evidence);
                let mut g = graph.clone();
                let opts = cold_opts(workload).without_exec_plan().with_threads(1);
                let stats = run_fresh(&SeqNodeEngine, &mut g, &opts).expect("reference solve");
                assert!(stats.converged, "the reference solve did not converge");
                Reference::Cold {
                    evidence,
                    posteriors: flatten(&g),
                }
            }
            Workload::ServeWarm => {
                let stream = inputs::serve_stream(seed, graph.num_nodes(), STREAM_LEN);
                let key = SourceKey::from_files(&[&files.nodes, &files.edges])
                    .expect("hash the MTX inputs");
                let store = dir.join("store-boot");
                let server = Server::new(ServeConfig::default(), credo_core::Dispatch::none());
                server.set_store(&store).expect("open the plan store");
                server
                    .add_graph_cached("g", key, "perfbench", || Ok::<_, String>(graph.clone()))
                    .expect("first boot");
                let resp = server.submit(&stream[0]);
                assert!(resp.ok, "first-boot request failed: {}", resp.message);
                server.shutdown();
                let m = server.metrics();
                assert_eq!(m.snapshots_saved, 1, "first boot saved no warm snapshot");
                Reference::Serve { stream, key, store }
            }
            Workload::DistCold => {
                let requests = inputs::dist_requests(seed, graph.num_nodes());
                let mut sx = ShardedExec::compile(&graph, 2);
                let frontier_floats = sx.meta.frontier_len();
                let mut session = ShardedSession::new(&mut sx, 2).expect("sharded session");
                let global_off = session.global_off().to_vec();
                let none = credo_core::Dispatch::none();
                let expected = requests
                    .iter()
                    .map(|req| {
                        session.reset(&mut sx).expect("session reset");
                        session
                            .apply_evidence(&mut sx, &req.evidence, &[])
                            .expect("session evidence");
                        let stats = session
                            .run("reference", &mut sx, &BpOptions::default(), &none)
                            .expect("session run");
                        (stats.iterations, session.beliefs())
                    })
                    .collect();
                Reference::Dist {
                    requests,
                    expected,
                    global_off,
                    frontier_floats,
                }
            }
        };
        Fixture {
            workload,
            seed,
            dir: dir.to_path_buf(),
            files,
            graph,
            check,
        }
    }
}

/// A set-up system, ready for the window.
pub enum Live {
    Cold {
        graph: BeliefGraph,
    },
    Serve {
        server: Arc<Server>,
        acceptor: JoinHandle<io::Result<()>>,
        client: Client,
    },
    Dist {
        router: DistRouter,
        /// The shard workers' addresses and threads.
        addrs: Vec<String>,
        workers: Vec<JoinHandle<io::Result<()>>>,
        /// `DistRouter::add_graph` wall time.
        add_graph_s: f64,
    },
}

/// The result of one timed set-up.
pub struct Setup {
    pub live: Live,
    pub seconds: f64,
    /// Failure of the set-up's first answer, if any.
    pub failure: Option<String>,
}

fn copy_dir(src: &Path, dst: &Path) -> io::Result<()> {
    std::fs::create_dir_all(dst)?;
    for entry in std::fs::read_dir(src)? {
        let entry = entry?;
        let to = dst.join(entry.file_name());
        if entry.file_type()?.is_dir() {
            copy_dir(&entry.path(), &to)?;
        } else {
            std::fs::copy(entry.path(), &to)?;
        }
    }
    Ok(())
}

fn spawn_worker() -> (String, JoinHandle<io::Result<()>>) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind a shard worker");
    let addr = listener.local_addr().expect("worker address").to_string();
    let handle = std::thread::spawn(move || {
        // Shards come from the plan store only: a worker that would have
        // to rebuild the graph fails the request instead.
        let builder =
            |_spec: &str, _seed: u64| Err::<BeliefGraph, _>("shard missing from the store".into());
        credo_serve::run_worker(listener, 1, &builder)
    });
    (addr, handle)
}

/// Serves `server` over loopback TCP on a new thread; returns the address.
pub fn start_acceptor(server: &Arc<Server>) -> (String, JoinHandle<io::Result<()>>) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind the server");
    let addr = listener.local_addr().expect("server address").to_string();
    let s = Arc::clone(server);
    (addr, std::thread::spawn(move || s.serve_tcp(listener)))
}

/// One timed set-up; `rep` keeps each repetition's scratch apart.
pub fn setup(fx: &Fixture, tracer: &Tracer, rep: usize) -> Setup {
    match &fx.check {
        Reference::Cold { evidence, .. } => {
            let t0 = Instant::now();
            let mut graph = {
                let _s = tracer.span("io.parse", 0, 0);
                read_graph(&fx.files)
            };
            let seconds = t0.elapsed().as_secs_f64();
            observe(&mut graph, evidence);
            Setup {
                live: Live::Cold { graph },
                seconds,
                failure: None,
            }
        }
        Reference::Serve { stream, key, store } => {
            let restart = fx
                .dir
                .join(format!("store-{}-{rep}", tracer.dispatch().enabled()));
            copy_dir(store, &restart).expect("copy the first-boot store");
            let t0 = Instant::now();
            let server = Arc::new(Server::new(
                ServeConfig::default(),
                tracer.dispatch().clone(),
            ));
            server.set_store(&restart).expect("open the plan store");
            let added = server.add_graph_cached("g", *key, "perfbench", || {
                Err("restart missed the plan store".to_string())
            });
            let (addr, acceptor) = start_acceptor(&server);
            let mut client =
                Client::connect_retry(&addr, Duration::from_secs(10)).expect("connect to server");
            let resp = client.request(&stream[0]);
            let seconds = t0.elapsed().as_secs_f64();
            let m = server.metrics();
            let failure = match (added, resp) {
                (Err(e), _) => Some(e),
                (_, Err(e)) => Some(format!("first request: {e}")),
                (_, Ok(r)) if !r.ok => Some(format!("first request: {} {}", r.error, r.message)),
                _ if m.store_hits != 1 || m.warm_resumes != 1 => Some(format!(
                    "restart did not resume from the store (hits {}, resumes {})",
                    m.store_hits, m.warm_resumes
                )),
                _ => None,
            };
            Setup {
                live: Live::Serve {
                    server,
                    acceptor,
                    client,
                },
                seconds,
                failure,
            }
        }
        Reference::Dist { requests, .. } => {
            let store = fx
                .dir
                .join(format!("shards-{}-{rep}", tracer.dispatch().enabled()));
            let (addrs, workers): (Vec<String>, Vec<_>) = (0..2).map(|_| spawn_worker()).unzip();
            let t0 = Instant::now();
            let mut router = DistRouter::new(DistConfig {
                workers: addrs.clone(),
                shards: 2,
                threads: 1,
                store_dir: store.to_string_lossy().into_owned(),
                opts: BpOptions::default(),
                io_timeout: Duration::from_secs(120),
                ..DistConfig::default()
            });
            router.set_trace(tracer.dispatch().clone());
            let added = {
                let _s = tracer.span("shard.compile", 0, 0);
                router.add_graph("g", &fx.files.nodes.to_string_lossy(), fx.seed, &fx.graph)
            };
            let add_graph_s = t0.elapsed().as_secs_f64();
            let resp = router.infer(&requests[0]);
            let seconds = t0.elapsed().as_secs_f64();
            let failure = match added {
                Err(e) => Some(e),
                Ok(()) if !resp.ok => {
                    Some(format!("first request: {} {}", resp.error, resp.message))
                }
                Ok(()) => None,
            };
            Setup {
                live: Live::Dist {
                    router,
                    addrs,
                    workers,
                    add_graph_s,
                },
                seconds,
                failure,
            }
        }
    }
}

/// Stops everything a set-up started and waits for it.
pub fn teardown(live: Live) {
    match live {
        Live::Cold { .. } => {}
        Live::Serve {
            server, acceptor, ..
        } => {
            // The reactor polls the shutdown flag, so the join cannot hang
            // on a server that stopped answering.
            server.shutdown();
            let _ = acceptor.join();
        }
        Live::Dist {
            mut router,
            addrs,
            workers,
            ..
        } => {
            router.shutdown_workers();
            drop(router);
            // A worker the router never linked, or lost, still waits in
            // accept: tell it directly. Stopped workers refuse the connect.
            for addr in &addrs {
                if let Ok(mut s) = TcpStream::connect(addr) {
                    let _ = credo_net::write_msg(&mut s, &credo_net::WireMsg::Shutdown);
                }
            }
            for w in workers {
                let _ = w.join();
            }
        }
    }
}

/// What one timed window measured.
#[derive(Default)]
pub struct Window {
    /// Per-operation wall times (s).
    pub latencies: Vec<f64>,
    /// The window's length (s): wall clock for concurrent callers, the
    /// sum of operation times for a single caller.
    pub seconds: f64,
    pub attempted: u64,
    pub failed: u64,
    pub findings: Vec<String>,
    /// Engine statistics and wall time of each cold solve.
    pub solves: Vec<(f64, BpStats)>,
    /// Per distributed request: wall (s), iterations, and the loopback
    /// traffic it caused.
    pub dist: Vec<(f64, u32, LoTx)>,
    pub serve_metrics: Option<MetricsSnapshot>,
    /// `VmHWM` right after the timed operations, before any check that
    /// issues further requests.
    pub peak_rss_mb: f64,
}

impl Window {
    /// Adds a later window's operations to this one.
    pub fn absorb(&mut self, later: Window) {
        self.latencies.extend(later.latencies);
        self.seconds += later.seconds;
        self.attempted += later.attempted;
        self.failed += later.failed;
        self.findings.extend(later.findings);
        self.solves.extend(later.solves);
        self.dist.extend(later.dist);
        self.serve_metrics = later.serve_metrics.or(self.serve_metrics);
        self.peak_rss_mb = self.peak_rss_mb.max(later.peak_rss_mb);
    }

    fn fail(&mut self, finding: String) {
        self.failed += 1;
        if self.findings.len() < 8 {
            self.findings.push(finding);
        }
    }
}

pub fn read_proc(name: &str) -> String {
    std::fs::read_to_string(Path::new("/proc/self").join(name)).unwrap_or_default()
}

pub fn lo_tx() -> LoTx {
    stats::parse_lo_tx(&read_proc("net/dev")).unwrap_or_default()
}

pub fn peak_rss_mb() -> f64 {
    stats::status_kb(&read_proc("status"), "VmHWM").unwrap_or(0) as f64 / 1024.0
}

/// Resets `VmHWM` to the current RSS, so the peak covers what follows.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

fn linf(a: &[f32], b: &[f32]) -> f32 {
    if a.len() != b.len() {
        return f32::INFINITY;
    }
    a.iter()
        .zip(b)
        .map(|(x, y)| (x - y).abs())
        .fold(
            0.0,
            |m, d| if d.is_nan() { f32::INFINITY } else { m.max(d) },
        )
}

/// Runs the workload's operations for `seconds` on a set-up system.
pub fn window(fx: &Fixture, live: &mut Live, seconds: f64, tracer: &Tracer) -> Window {
    match (live, &fx.check) {
        (Live::Cold { graph }, Reference::Cold { posteriors, .. }) => {
            cold_window(fx.workload, graph, posteriors, seconds, tracer)
        }
        (Live::Serve { client, server, .. }, Reference::Serve { stream, .. }) => {
            serve_window(server, client, stream, fx.seed, seconds, tracer)
        }
        (
            Live::Dist { router, .. },
            Reference::Dist {
                requests,
                expected,
                global_off,
                ..
            },
        ) => dist_window(router, requests, expected, global_off, seconds, tracer),
        _ => unreachable!("set-up and fixture come from the same workload"),
    }
}

fn cold_window(
    w: Workload,
    graph: &mut BeliefGraph,
    reference: &[f32],
    seconds: f64,
    tracer: &Tracer,
) -> Window {
    let opts = cold_opts(w);
    let mut out = Window::default();
    // One untimed solve first, so page faults and lazy set-up are paid.
    run_fresh(&ParNodeEngine, graph, &opts).expect("warm-up solve");
    let mut req = 0u64;
    while out.seconds < seconds {
        req += 1;
        let t0 = Instant::now();
        let result = {
            let root = tracer.span("op", 0, req);
            let _call = tracer.span("plan.solve", root.id, req);
            run_fresh_traced(&ParNodeEngine, graph, &opts, tracer.dispatch())
        };
        let dt = t0.elapsed().as_secs_f64();
        out.seconds += dt;
        out.latencies.push(dt);
        out.attempted += 1;
        match result {
            Err(e) => out.fail(format!("solve {req}: {e}")),
            Ok(stats) => {
                let err = linf(&flatten(graph), reference);
                if !stats.converged {
                    out.fail(format!(
                        "solve {req} did not converge in {} iterations",
                        stats.iterations
                    ));
                } else if err > LINF_BOUND {
                    out.fail(format!(
                        "solve {req}: L-inf {err:e} from the C Node reference > {LINF_BOUND:e}"
                    ));
                }
                out.solves.push((dt, stats));
            }
        }
    }
    out.peak_rss_mb = peak_rss_mb();
    out
}

/// Why a serve response is wrong, if it is.
fn serve_problem(req: &Request, resp: &Response) -> Option<String> {
    if !resp.ok {
        return Some(format!("{} {}", resp.error, resp.message));
    }
    if !resp.converged {
        return Some("not converged".into());
    }
    let ids: Vec<u32> = resp.posteriors.iter().map(|p| p.0).collect();
    if ids != req.nodes {
        return Some("node ids differ from the request".into());
    }
    for (v, p) in &resp.posteriors {
        let sum: f32 = p.iter().sum();
        if p.iter().any(|x| !x.is_finite() || *x < 0.0) || (sum - 1.0).abs() > 1e-4 {
            return Some(format!("posterior of node {v} is not normalised: {p:?}"));
        }
    }
    None
}

/// Seeded request indices whose answers are re-checked cold.
fn fresh_sample(seed: u64) -> Vec<usize> {
    use rand::{Rng, SeedableRng};
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed ^ 0xf2e5);
    let mut picks: Vec<usize> = Vec::new();
    while picks.len() < FRESH_SAMPLES {
        let i = rng.gen_range(1..MIN_QUERIES);
        if !picks.contains(&i) {
            picks.push(i);
        }
    }
    picks
}

pub fn serve_window(
    server: &Server,
    client: &mut Client,
    stream: &[Request],
    seed: u64,
    seconds: f64,
    tracer: &Tracer,
) -> Window {
    let samples = fresh_sample(seed);
    let mut kept: Vec<(usize, Response)> = Vec::new();
    let mut out = Window::default();
    let t0 = Instant::now();
    let deadline = t0 + Duration::from_secs_f64(seconds);
    // Request 0 was the set-up's first answer.
    let mut i = 0;
    while out.latencies.len() < MIN_QUERIES || Instant::now() < deadline {
        i += 1;
        let req = &stream[i % stream.len()];
        let t = Instant::now();
        let resp = {
            let root = tracer.span("op", 0, i as u64);
            let _call = tracer.span("serve.request", root.id, i as u64);
            client.request(req)
        };
        out.latencies.push(t.elapsed().as_secs_f64());
        out.attempted += 1;
        match resp {
            Err(e) => out.fail(format!("request {i}: {e}")),
            Ok(resp) => {
                if let Some(p) = serve_problem(req, &resp) {
                    out.fail(format!("request {i}: {p}"));
                } else if samples.contains(&i) {
                    kept.push((i, resp));
                }
            }
        }
    }
    out.seconds = t0.elapsed().as_secs_f64();
    out.peak_rss_mb = peak_rss_mb();
    out.serve_metrics = Some(server.metrics());
    // Seeded sample: every sampled answer must match a fresh cold answer.
    for i in samples {
        let Some((_, warm)) = kept.iter().find(|k| k.0 == i) else {
            continue; // failed above, already counted
        };
        let mut probe = stream[i].clone();
        probe.fresh = true;
        match client.request(&probe) {
            Ok(cold) if cold.ok => {
                let worst = warm
                    .posteriors
                    .iter()
                    .zip(&cold.posteriors)
                    .map(|(w, c)| {
                        if w.0 == c.0 {
                            linf(&w.1, &c.1)
                        } else {
                            f32::INFINITY
                        }
                    })
                    .fold(0.0, f32::max);
                if worst > LINF_BOUND || cold.posteriors.len() != warm.posteriors.len() {
                    out.fail(format!(
                        "request {i}: warm answer {worst:e} L-inf from a fresh cold answer > {LINF_BOUND:e}"
                    ));
                }
            }
            Ok(cold) => out.fail(format!("fresh probe {i}: {} {}", cold.error, cold.message)),
            Err(e) => out.fail(format!("fresh probe {i}: {e}")),
        }
    }
    out
}

fn dist_window(
    router: &mut DistRouter,
    requests: &[Request],
    expected: &[(u32, Vec<f32>)],
    global_off: &[usize],
    seconds: f64,
    tracer: &Tracer,
) -> Window {
    let mut out = Window::default();
    let mut k = 0usize;
    while out.seconds < seconds {
        let req = &requests[k % requests.len()];
        let (want_iters, want) = &expected[k % requests.len()];
        k += 1;
        let tx0 = lo_tx();
        let t0 = Instant::now();
        let resp = {
            let root = tracer.span("op", 0, k as u64);
            let _call = tracer.span("dist.infer", root.id, k as u64);
            router.infer(req)
        };
        let dt = t0.elapsed().as_secs_f64();
        let tx = lo_tx().since(tx0);
        out.seconds += dt;
        out.latencies.push(dt);
        out.attempted += 1;
        out.dist.push((dt, resp.iterations, tx));
        let problem = if !resp.ok {
            Some(format!("{} {}", resp.error, resp.message))
        } else if !resp.converged {
            Some("not converged".to_string())
        } else if resp.iterations != *want_iters {
            Some(format!(
                "{} iterations, the in-process session took {want_iters}",
                resp.iterations
            ))
        } else if resp.posteriors.len() + 1 != global_off.len()
            || resp.posteriors.iter().enumerate().any(|(i, (v, p))| {
                let w = &want[global_off[i]..global_off[i + 1]];
                *v as usize != i
                    || p.len() != w.len()
                    || p.iter().zip(w).any(|(x, y)| x.to_bits() != y.to_bits())
            })
        {
            Some("posteriors are not bit-identical to the in-process ShardedSession".into())
        } else {
            None
        };
        if let Some(p) = problem {
            out.fail(format!("dist request {k}: {p}"));
        }
    }
    out.peak_rss_mb = peak_rss_mb();
    out
}
