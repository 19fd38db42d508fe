//! The three workloads and their seeded inputs. Everything here runs
//! before any clock starts: the graphs are written as Credo-MTX files and
//! the evidence and request streams are built in memory, so the program
//! under test receives only those files and requests.
//!
//! Each family's graph is the same for every seed: it comes from the
//! generators' fixed default seed. Loopy BP's iteration count varies by
//! 20-40% between random instances of one family, which would swamp any
//! change to the code. The seed picks the evidence and the requests.
//!
//! Both graphs are small: their plans (3.7 and 4.9 MB) are about the
//! size of the two cores' private 2 MiB L2 caches together, and a run
//! holds hundreds of solves or thousands of queries. On a 2-vCPU VM
//! whose L3 and memory bus are shared with other tenants, the 15-20 MB
//! plans of the 100k- and 131k-node graphs ran 2-4x slower whenever a
//! neighbour was busy, and gave too few solves per run for a median.

use credo_graph::generators::{kronecker, synthetic, GenOptions};
use credo_graph::BeliefGraph;
use credo_serve::Request;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::path::{Path, PathBuf};

/// Which graph family a workload runs on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Family {
    /// Synthetic 25k×100k, cardinality 2, shared Potts smoothing: the
    /// paper's N×4N family.
    Uniform,
    /// `kronecker(15, 4)`: 32k nodes, 131k edges, heavy-tailed degrees.
    HeavyTail,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    ColdHeavyTail,
    ServeWarm,
    DistCold,
}

/// Each workload with its name, graph family and the reason it was
/// chosen (the one-line `why` of `BENCHMARK.json`).
pub const WORKLOADS: [(Workload, &str, Family, &str); 3] = [
    (
        Workload::ColdHeavyTail,
        "cold-heavytail",
        Family::HeavyTail,
        // Hubs make arc-balanced tiling and the per-iteration queue
        // advance and merge decide the time, along with the run's fixed
        // costs (plan compile, pool, load and store).
        "cold Par Node t2 solves with the work queue on kronecker(15,4): hubs, tiling, the queue and per-run costs decide the time",
    ),
    (
        Workload::ServeWarm,
        "serve-warm",
        Family::Uniform,
        // Warm frontiers are small (~3 iterations), so per-request fixed
        // costs, batching and transport dominate and kernel throughput
        // barely matters: the opposite of a cold solve. One caller keeps
        // the client, reactor and graph worker from contending for the
        // two cores.
        "closed-loop TCP queries on 1 connection, warm-started: per-request costs, the reactor and transport dominate",
    ),
    (
        Workload::DistCold,
        "dist-cold",
        Family::Uniform,
        // The only workload that runs the shard sweep, the credo-net
        // codec and the router's gather/scatter; the traced run solves
        // the same problem resident, so the sharded overhead shows.
        "fresh distributed solves over 2 loopback shard workers: shard sweep, wire codec and router exchange",
    ),
];

impl Workload {
    pub fn parse(name: &str) -> Option<Workload> {
        WORKLOADS.iter().find(|w| w.1 == name).map(|w| w.0)
    }

    fn entry(self) -> &'static (Workload, &'static str, Family, &'static str) {
        WORKLOADS
            .iter()
            .find(|w| w.0 == self)
            .expect("every workload is listed")
    }

    pub fn name(self) -> &'static str {
        self.entry().1
    }

    pub fn family(self) -> Family {
        self.entry().2
    }

    pub fn why(self) -> &'static str {
        self.entry().3
    }
}

/// Generates the family's graph.
pub fn generate(family: Family) -> BeliefGraph {
    let opts = GenOptions::new(2);
    match family {
        Family::Uniform => synthetic(25_000, 100_000, &opts),
        Family::HeavyTail => kronecker(15, 4, &opts),
    }
}

/// The MTX file pair a run reads its graph from.
#[derive(Clone, Debug)]
pub struct GraphFiles {
    pub nodes: PathBuf,
    pub edges: PathBuf,
}

/// Generates the family's graph and writes it under `dir`.
pub fn write_graph(family: Family, dir: &Path) -> GraphFiles {
    let files = GraphFiles {
        nodes: dir.join("graph.nodes.mtx"),
        edges: dir.join("graph.edges.mtx"),
    };
    let g = generate(family);
    credo_io::mtx::write_files(&g, &files.nodes, &files.edges).expect("write MTX inputs");
    files
}

/// How far back a repeated evidence set reaches: well inside the
/// server's default 128-entry posterior cache.
pub const RECENT: usize = 64;

/// Node posteriors each serve request asks for.
pub const QUERY_NODES: usize = 32;

/// A seeded stream of `len` serve requests against graph `"g"` with
/// `num_nodes` binary nodes. Each carries an absolute evidence set of
/// 1–8 observations and asks for [`QUERY_NODES`] posteriors in a random
/// order; one request in five repeats one of the last [`RECENT`]
/// evidence sets, which the server's posterior cache can answer.
pub fn serve_stream(seed: u64, num_nodes: usize, len: usize) -> Vec<Request> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5e57_ea11);
    let mut sets: Vec<Vec<(u32, u32)>> = Vec::with_capacity(len);
    let mut out = Vec::with_capacity(len);
    for i in 0..len {
        let evidence = if i > 0 && rng.gen_range(0..5u32) == 0 {
            sets[i - 1 - rng.gen_range(0..i.min(RECENT))].clone()
        } else {
            let k = rng.gen_range(1..=8usize);
            let mut nodes: Vec<u32> = (0..k).map(|_| rng.gen_range(0..num_nodes as u32)).collect();
            nodes.sort_unstable();
            nodes.dedup();
            nodes
                .into_iter()
                .map(|v| (v, rng.gen_range(0..2u32)))
                .collect()
        };
        sets.push(evidence.clone());
        let mut req = Request::infer("g", &evidence);
        req.nodes = (0..QUERY_NODES)
            .map(|_| rng.gen_range(0..num_nodes as u32))
            .collect();
        out.push(req);
    }
    out
}

/// Observations per cold solve and per dist-cold request.
pub const OBSERVATIONS: usize = 8;

/// `OBSERVATIONS` distinct seeded `(node, state)` pairs over binary nodes.
fn observations(rng: &mut StdRng, num_nodes: usize) -> Vec<(u32, u32)> {
    let mut picked: Vec<u32> = Vec::with_capacity(OBSERVATIONS);
    while picked.len() < OBSERVATIONS {
        let v = rng.gen_range(0..num_nodes as u32);
        if !picked.contains(&v) {
            picked.push(v);
        }
    }
    picked
        .into_iter()
        .map(|v| (v, rng.gen_range(0..2u32)))
        .collect()
}

/// The evidence every cold-heavytail solve of a run binds.
pub fn cold_evidence(seed: u64, num_nodes: usize) -> Vec<(u32, u32)> {
    observations(&mut StdRng::seed_from_u64(seed ^ 0xc01d), num_nodes)
}

/// Distinct evidence sets the dist-cold caller cycles through.
pub const DIST_SETS: usize = 4;

/// The dist-cold request pool: [`DIST_SETS`] `fresh` requests of
/// [`OBSERVATIONS`] observations each, asking for every posterior.
pub fn dist_requests(seed: u64, num_nodes: usize) -> Vec<Request> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xd157_c01d);
    (0..DIST_SETS)
        .map(|_| {
            let mut req = Request::infer("g", &observations(&mut rng, num_nodes));
            req.fresh = true;
            req
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::valid_name;

    #[test]
    fn workloads_have_valid_names_and_one_line_reasons() {
        for (w, name, _, why) in WORKLOADS {
            assert!(valid_name(name));
            assert_eq!(Workload::parse(name), Some(w));
            assert!(!why.contains('\n') && why.len() <= 200, "{name}");
        }
        assert_eq!(Workload::parse("bogus"), None);
    }

    #[test]
    fn streams_are_seeded() {
        let a = serve_stream(7, 1000, 200);
        let b = serve_stream(7, 1000, 200);
        let c = serve_stream(8, 1000, 200);
        let key = |s: &[Request]| {
            s.iter()
                .map(|r| format!("{:?} {:?}", r.evidence, r.nodes))
                .collect::<Vec<_>>()
        };
        assert_eq!(key(&a), key(&b));
        assert_ne!(key(&a), key(&c));
        for r in &a {
            assert!((1..=8).contains(&r.evidence.len()));
            assert_eq!(r.nodes.len(), QUERY_NODES);
            assert!(r.canonical_evidence().is_ok());
        }
        let repeats = (1..a.len())
            .filter(|&i| a[..i].iter().any(|p| p.evidence == a[i].evidence))
            .count();
        assert!((20..=70).contains(&repeats), "{repeats} repeats in 200");

        let d = dist_requests(7, 1000);
        assert_eq!(d.len(), DIST_SETS);
        assert!(d
            .iter()
            .all(|r| r.fresh && r.evidence.len() == 8 && r.nodes.is_empty()));
        assert!(d.iter().all(|r| r.canonical_evidence().is_ok()));
        let e = cold_evidence(7, 1000);
        assert_eq!(e, cold_evidence(7, 1000));
        assert_ne!(e, cold_evidence(8, 1000));
        assert_eq!(
            Request::infer("g", &e)
                .canonical_evidence()
                .map(|c| c.len()),
            Ok(8)
        );
    }
}
