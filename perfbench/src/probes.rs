//! Per-layer probes for the traced run. Each times calls into one
//! layer's public functions, or reads values the program already
//! returns, on the workload's own graph.

use crate::inputs::{self, Workload};
use crate::ledger::{PoolBusy, Tracer};
use crate::ops::{self, Fixture, Live, Window};
use crate::stats::{median, Latency, LoTx};
use credo_core::kernels::{message_packed, mul_assign_packed, scale_max_to_one_packed};
use credo_core::par::ParNodeEngine;
use credo_core::seq::SeqNodeEngine;
use credo_core::{run_fresh, run_fresh_traced, BpStats, EvidenceDelta, WarmPolicy, WarmSnapshot};
use credo_core::{BpOptions, Dispatch, WarmState};
use credo_graph::{ExecGraph, ShardedExec};
use credo_serve::{Client, Request, ServeConfig, Server};
use credo_store::{structural_hash, PlanStore, SourceKey};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

pub type Metrics = BTreeMap<&'static str, f64>;

/// The p99 level, in per-mille.
pub const P99: u64 = 990;

/// Repetitions of the short probes; each reports the median.
pub const REPS: usize = 3;

fn timed<T>(f: impl FnOnce() -> T) -> (f64, T) {
    let t0 = Instant::now();
    let out = f();
    (t0.elapsed().as_secs_f64(), out)
}

/// `io` and `graph`: MTX parse, plan compile and plan size. Returns the
/// compiled plan for the kernel and store probes.
pub fn io_graph(fx: &Fixture, tracer: &Tracer, parse_s: &[f64], m: &mut Metrics) -> ExecGraph {
    m.insert("io.parse_s", median(parse_s));
    let mut times = Vec::new();
    let mut plan = None;
    for _ in 0..REPS {
        let (dt, p) = timed(|| {
            let _s = tracer.span("graph.compile", 0, 0);
            ExecGraph::compile(&fx.graph)
        });
        times.push(dt);
        plan = Some(p);
    }
    let plan = plan.expect("at least one compile");
    m.insert("graph.compile_s", median(&times));
    m.insert("graph.plan_mb", plan.memory_bytes() as f64 / 1e6);
    plan
}

/// Cold solves on the fixture graph with the workload's Par Node
/// options, for workloads whose window does not solve cold itself.
pub fn cold_solves(fx: &Fixture, tracer: &Tracer) -> Vec<(f64, BpStats)> {
    let opts = ops::cold_opts(fx.workload);
    let mut g = fx.graph.clone();
    run_fresh(&ParNodeEngine, &mut g, &opts).expect("warm-up solve");
    (0..REPS)
        .map(|_| {
            let (dt, stats) = timed(|| {
                let _s = tracer.span("plan.solve", 0, 0);
                run_fresh_traced(&ParNodeEngine, &mut g, &opts, tracer.dispatch())
            });
            (dt, stats.expect("probe solve"))
        })
        .collect()
}

/// `plan`, `par` and `queue` from cold solves and their pool busy times;
/// `par.seq_solve_s` from the single-thread Seq plan runner on the same
/// problem. Returns the median cold solve wall time.
pub fn plan_par_queue(
    fx: &Fixture,
    plan: &ExecGraph,
    solves: &[(f64, BpStats)],
    busy: &[PoolBusy],
    opts: &BpOptions,
    tracer: &Tracer,
    m: &mut Metrics,
) -> f64 {
    let pick = |f: &dyn Fn(&(f64, BpStats)) -> f64| -> f64 {
        median(&solves.iter().map(f).collect::<Vec<_>>())
    };
    let engine = |s: &BpStats| s.reported_time.as_secs_f64();
    let bytes_per_msg = plan.mean_bytes_per_message(plan.is_shared());
    let unobserved = fx.graph.observed().iter().filter(|o| !**o).count() as f64;
    m.insert("plan.engine_s", pick(&|s| engine(&s.1)));
    m.insert("plan.run_overhead_s", pick(&|s| s.0 - engine(&s.1)));
    m.insert("plan.iterations", pick(&|s| s.1.iterations as f64));
    m.insert("plan.msgs", pick(&|s| s.1.message_updates as f64));
    m.insert(
        "plan.msg_per_s",
        pick(&|s| s.1.message_updates as f64 / engine(&s.1)),
    );
    m.insert(
        "plan.gb_per_s",
        pick(&|s| s.1.message_updates as f64 * bytes_per_msg / engine(&s.1) / 1e9),
    );
    let iter_ms: Vec<f64> = solves
        .iter()
        .flat_map(|s| {
            s.1.per_iteration
                .iter()
                .map(|i| i.elapsed.as_secs_f64() * 1e3)
        })
        .collect();
    m.insert("plan.iter_ms_p50", median(&iter_ms));
    m.insert(
        "queue.active_frac",
        pick(&|s| s.1.node_updates as f64 / (s.1.iterations as f64 * unobserved)),
    );
    let depths: Vec<f64> = solves
        .iter()
        .flat_map(|s| s.1.per_iteration.iter().map(|i| i.queue_depth as f64))
        .collect();
    m.insert("queue.depth_p50", median(&depths));

    let par_wall = pick(&|s| s.0);
    let busy_pairs: Vec<(&PoolBusy, f64)> = busy
        .iter()
        .zip(solves)
        .map(|(b, s)| (b, engine(&s.1)))
        .collect();
    if !busy_pairs.is_empty() {
        let of = |f: &dyn Fn(&PoolBusy, f64) -> f64| {
            median(&busy_pairs.iter().map(|(b, e)| f(b, *e)).collect::<Vec<_>>())
        };
        m.insert("par.busy_frac", of(&|b, _| b.mean() / b.wall_us));
        m.insert("par.serial_s", of(&|b, e| e - b.max() / 1e6));
        m.insert("par.imbalance", of(&|b, _| b.max() / b.mean()));
    }

    let seq_opts = opts.with_threads(1);
    let mut g = fx.graph.clone();
    let seq: Vec<f64> = (0..REPS)
        .map(|_| {
            timed(|| {
                let _s = tracer.span("par.seq_solve", 0, 0);
                run_fresh(&SeqNodeEngine, &mut g, &seq_opts).expect("seq solve")
            })
            .0
        })
        .collect();
    let seq_s = median(&seq);
    m.insert("par.seq_solve_s", seq_s);
    m.insert("par.speedup_vs_seq", seq_s / par_wall);
    par_wall
}

/// `kernels`: the message kernel on one arc in a hot loop, and one
/// single-thread gather pass over every in-arc in node order.
pub fn kernels(plan: &ExecGraph, tracer: &Tracer, m: &mut Metrics) {
    let _s = tracer.span("kernels", 0, 0);
    let packed = plan.priors().to_vec();
    let arc = plan.in_arc_array()[0];
    let (src_off, src_card, dst_card) = (
        arc.src_off as usize,
        arc.src_card as usize,
        arc.dst_card as usize,
    );
    let src = &packed[src_off..src_off + src_card];
    let pot = plan.potential(&arc);
    const HOT: usize = 4_000_000;
    let mut hot = Vec::new();
    for _ in 0..REPS {
        let mut out = [0.0f32; 32];
        let mut acc = [1.0f32; 32];
        let t0 = Instant::now();
        for i in 0..HOT {
            message_packed(black_box(src), black_box(pot), &mut out[..dst_card]);
            mul_assign_packed(&mut acc[..dst_card], &out[..dst_card]);
            if i % 16 == 15 {
                acc = [1.0; 32];
            }
        }
        black_box(&acc);
        hot.push(t0.elapsed().as_secs_f64() * 1e9 / HOT as f64);
    }
    let mut gather = Vec::new();
    for _ in 0..REPS {
        let mut out = [0.0f32; 32];
        let mut acc = [0.0f32; 32];
        let t0 = Instant::now();
        for v in 0..plan.num_nodes() as u32 {
            let card = plan.card(v);
            acc[..card].fill(1.0);
            for (j, a) in plan.in_arcs(v).iter().enumerate() {
                let s = a.src_off as usize;
                message_packed(
                    &packed[s..s + a.src_card as usize],
                    plan.potential(a),
                    &mut out[..card],
                );
                mul_assign_packed(&mut acc[..card], &out[..card]);
                if j % 16 == 15 {
                    scale_max_to_one_packed(&mut acc[..card]);
                }
            }
            black_box(&acc);
        }
        gather.push(t0.elapsed().as_secs_f64() * 1e9 / plan.num_arcs() as f64);
    }
    m.insert("kernels.ns_per_msg_hot", median(&hot));
    m.insert("kernels.ns_per_msg_gather", median(&gather));
}

fn halves(v: &mut [f64]) -> [&mut [f64]; 2] {
    let mid = v.len() / 2;
    let (x, y) = v.split_at_mut(mid);
    [x, y]
}

/// Last-level cache size of the benchmark box (one shared L3).
pub const L3_BYTES: usize = 105 << 20;

/// `mem`: STREAM triad `a = b + s·c` on two threads, each array four
/// times the L3.
pub fn triad(tracer: &Tracer, m: &mut Metrics) {
    let _s = tracer.span("mem.triad", 0, 0);
    let len = 4 * L3_BYTES / 8;
    let mut a = vec![0.0f64; len];
    let mut b = vec![0.0f64; len];
    let mut c = vec![0.0f64; len];
    // First touch on the threads that run the triad.
    std::thread::scope(|s| {
        for ((x, y), z) in halves(&mut a)
            .into_iter()
            .zip(halves(&mut b))
            .zip(halves(&mut c))
        {
            s.spawn(move || {
                x.fill(0.0);
                y.fill(1.0);
                z.fill(2.0);
            });
        }
    });
    let mut rates = Vec::new();
    for _ in 0..5 {
        let t0 = Instant::now();
        std::thread::scope(|s| {
            for ((x, y), z) in halves(&mut a)
                .into_iter()
                .zip(halves(&mut b))
                .zip(halves(&mut c))
            {
                s.spawn(move || {
                    for ((xi, yi), zi) in x.iter_mut().zip(y.iter()).zip(z.iter()) {
                        *xi = yi + 3.0 * zi;
                    }
                });
            }
        });
        rates.push(3.0 * (len * 8) as f64 / t0.elapsed().as_secs_f64() / 1e9);
        black_box(&a);
    }
    println!(
        "mem: triad arrays 3 x {:.0} MiB each, 4x the {:.0} MiB L3 (L2 2 MiB per core); 2 threads",
        (len * 8) as f64 / (1 << 20) as f64,
        L3_BYTES as f64 / (1 << 20) as f64
    );
    m.insert("mem.triad_gb_s", median(&rates));
}

/// The serve request stream of a workload (serve-warm's own, or one
/// generated the same way for the other workloads).
pub fn stream_for(fx: &Fixture, len: usize) -> Vec<Request> {
    match &fx.check {
        ops::Reference::Serve { stream, .. } => stream[..len.min(stream.len())].to_vec(),
        _ => inputs::serve_stream(fx.seed, fx.graph.num_nodes(), len),
    }
}

/// `warm`: `WarmState::run_from` on the request stream with no server,
/// under the server's default options and policy. Returns the final
/// state's snapshot for the store probe.
pub fn warm(fx: &Fixture, stream: &[Request], tracer: &Tracer, m: &mut Metrics) -> WarmSnapshot {
    let mut state = WarmState::new(fx.graph.clone(), ServeConfig::default().engine_threads);
    let opts = ServeConfig::default().opts;
    let policy = WarmPolicy::default();
    let none = Dispatch::none();
    let mut runs = Vec::new();
    for (i, req) in stream.iter().enumerate() {
        let target: BTreeMap<u32, u32> = req.evidence.iter().copied().collect();
        let delta = EvidenceDelta {
            observe: target
                .iter()
                .filter(|(v, s)| state.evidence().get(v) != Some(s))
                .map(|(&v, &s)| (v, s))
                .collect(),
            clear: state
                .evidence()
                .keys()
                .filter(|v| !target.contains_key(v))
                .copied()
                .collect(),
        };
        let trace = if i == 0 { &none } else { tracer.dispatch() };
        let (dt, run) = timed(|| {
            let _s = (i > 0).then(|| tracer.span("warm.run_from", 0, 0));
            state.run_from("perfbench", &delta, &opts, &policy, trace)
        });
        let run = run.expect("warm run");
        if i > 0 {
            runs.push((dt * 1e3, run));
        }
    }
    let lat = Latency::of(&runs.iter().map(|r| r.0).collect::<Vec<_>>(), P99);
    let n = runs.len() as f64;
    let mean =
        |f: &dyn Fn(&credo_core::WarmRun) -> f64| runs.iter().map(|r| f(&r.1)).sum::<f64>() / n;
    println!("warm: {} runs, tail {}", lat.n, lat.tail_label());
    m.insert("warm.run_ms_p50", lat.p50);
    m.insert("warm.run_ms_p99", lat.tail);
    m.insert("warm.iterations_mean", mean(&|r| r.stats.iterations as f64));
    m.insert("warm.frontier_mean", mean(&|r| r.frontier as f64));
    m.insert("warm.cold_frac", mean(&|r| f64::from(u8::from(!r.warm))));
    m.insert("warm.damped_frac", mean(&|r| f64::from(u8::from(r.damped))));
    state.snapshot()
}

/// `serve`: in-process `Server::submit` on the request stream. Returns
/// the median in ms and the number of failed answers.
pub fn serve_submit(fx: &Fixture, stream: &[Request], tracer: &Tracer, m: &mut Metrics) -> u64 {
    let server = Server::new(ServeConfig::default(), Dispatch::none());
    server.add_graph("g", fx.graph.clone());
    let mut lat = Vec::new();
    let mut failed = 0;
    for (i, req) in stream.iter().enumerate() {
        let (dt, resp) = timed(|| {
            let _s = (i > 0).then(|| tracer.span("serve.submit", 0, 0));
            server.submit(req)
        });
        failed += u64::from(!resp.ok || !resp.converged);
        if i > 0 {
            lat.push(dt * 1e3);
        }
    }
    server.shutdown();
    let l = Latency::of(&lat, P99);
    m.insert("serve.submit_ms_p50", l.p50);
    m.insert("serve.submit_ms_p99", l.tail);
    failed
}

/// A TCP window of at least `MIN_QUERIES` requests on one connection,
/// for workloads whose own window is not serve-warm.
pub fn serve_tcp(fx: &Fixture, stream: &[Request]) -> Window {
    let server = Arc::new(Server::new(ServeConfig::default(), Dispatch::none()));
    server.add_graph("g", fx.graph.clone());
    let (addr, acceptor) = ops::start_acceptor(&server);
    let mut client =
        Client::connect_retry(&addr, Duration::from_secs(10)).expect("connect to probe server");
    let first = client.request(&stream[0]);
    let mut w = ops::serve_window(&server, &mut client, stream, fx.seed, 0.0, &Tracer::off());
    w.attempted += 1;
    if !first.as_ref().is_ok_and(|r| r.ok) {
        w.failed += 1;
    }
    ops::teardown(Live::Serve {
        server,
        acceptor,
        client,
    });
    w
}

/// `serve` counters and query latency from a TCP window's results.
pub fn serve_from_window(w: &Window, m: &mut Metrics) {
    let q = Latency::of(&w.latencies, P99);
    m.insert("serve.query_ms_p50", q.p50 * 1e3);
    m.insert("serve.query_ms_p99", q.tail * 1e3);
    m.insert(
        "serve.transport_ms_p50",
        q.p50 * 1e3 - m.get("serve.submit_ms_p50").copied().unwrap_or(0.0),
    );
    if let Some(s) = w.serve_metrics {
        m.insert(
            "serve.cache_hit_frac",
            s.cache_hits as f64 / (s.cache_hits + s.cache_misses).max(1) as f64,
        );
        m.insert(
            "serve.batch_mean",
            s.batched_requests as f64 / s.batches.max(1) as f64,
        );
        m.insert("serve.shed", s.shed as f64);
    }
}

/// `store`: plan load through the plan store, and warm restore onto a
/// plan-only state.
pub fn store(
    fx: &Fixture,
    plan: &ExecGraph,
    snap: &WarmSnapshot,
    tracer: &Tracer,
    m: &mut Metrics,
) {
    let store = PlanStore::open(fx.dir.join("store-probe")).expect("open probe store");
    let key = SourceKey::from_files(&[&fx.files.nodes, &fx.files.edges]).expect("hash inputs");
    store
        .save_plan(key, "perfbench", structural_hash(&fx.graph), plan)
        .expect("save plan");
    let mut load = Vec::new();
    let mut restore = Vec::new();
    for _ in 0..REPS {
        let (dt, loaded) = timed(|| {
            let _s = tracer.span("store.load_plan", 0, 0);
            store.load_plan(&key)
        });
        load.push(dt);
        let (plan, _) = loaded.expect("load plan").expect("plan stored");
        let (dt, restored) = timed(|| {
            let _s = tracer.span("store.restore", 0, 0);
            let mut st = WarmState::from_plan(plan, ServeConfig::default().engine_threads);
            st.restore(snap).map(|_| st)
        });
        restored.expect("restore snapshot");
        restore.push(dt);
    }
    m.insert("store.load_s", median(&load));
    m.insert("store.restore_s", median(&restore));
}

/// `shard` and `dist` from distributed requests: wall per request and
/// sweep, and loopback bytes and packets per sweep.
pub fn dist_from(
    add_graph_s: f64,
    frontier_floats: usize,
    reqs: &[(f64, u32, LoTx)],
    resident_s: f64,
    m: &mut Metrics,
) {
    let of = |f: &dyn Fn(&(f64, u32, LoTx)) -> f64| median(&reqs.iter().map(f).collect::<Vec<_>>());
    let per_sweep = |r: &(f64, u32, LoTx)| f64::from(r.1.max(1));
    m.insert("shard.compile_s", add_graph_s);
    m.insert("shard.frontier_floats", frontier_floats as f64);
    let solve = of(&|r| r.0);
    m.insert("dist.solve_s", solve);
    m.insert("dist.sweep_ms", of(&|r| r.0 * 1e3 / per_sweep(r)));
    m.insert(
        "dist.wire_bytes_per_sweep",
        of(&|r| r.2.bytes as f64 / per_sweep(r)),
    );
    m.insert(
        "dist.packets_per_sweep",
        of(&|r| r.2.packets as f64 / per_sweep(r)),
    );
    m.insert("dist.vs_resident", solve / resident_s);
}

/// A short distributed probe for workloads that do not run dist-cold:
/// 2 workers, `add_graph`, then a few fresh requests. Returns the
/// requests' measurements, `add_graph` time, frontier size and failures.
pub fn dist_probe(fx: &Fixture, tracer: &Tracer) -> (Vec<(f64, u32, LoTx)>, f64, usize, u64) {
    let frontier = ShardedExec::compile(&fx.graph, 2).meta.frontier_len();
    let dist_fx = Fixture {
        workload: Workload::DistCold,
        seed: fx.seed,
        dir: fx.dir.clone(),
        files: fx.files.clone(),
        graph: fx.graph.clone(),
        check: ops::Reference::Dist {
            requests: inputs::dist_requests(fx.seed, fx.graph.num_nodes()),
            expected: Vec::new(),
            global_off: Vec::new(),
            frontier_floats: frontier,
        },
    };
    let mut setup = ops::setup(&dist_fx, &Tracer::off(), 0);
    let mut failed = u64::from(setup.failure.is_some());
    let mut reqs = Vec::new();
    let (
        Live::Dist {
            router,
            add_graph_s,
            ..
        },
        ops::Reference::Dist { requests, .. },
    ) = (&mut setup.live, &dist_fx.check)
    else {
        unreachable!("a dist fixture sets up a router")
    };
    let add_graph_s = *add_graph_s;
    for req in requests.iter().take(REPS) {
        let tx0 = ops::lo_tx();
        let (dt, resp) = timed(|| {
            let _s = tracer.span("dist.infer", 0, 0);
            router.infer(req)
        });
        let tx = ops::lo_tx().since(tx0);
        failed += u64::from(!resp.ok || !resp.converged);
        reqs.push((dt, resp.iterations, tx));
    }
    ops::teardown(setup.live);
    (reqs, add_graph_s, frontier, failed)
}
