//! Pure helpers: the percentile rule, span self-time arithmetic and
//! `/proc/self/{status,net/dev}` parsing. Kept free of I/O so the benchmark's
//! tests can pin them down exactly.

pub use credo_bench::measure::median;

/// Percentile levels tried for a latency tail, highest first, in
/// per-mille so ranks are exact integers.
const TAIL_LADDER: [u64; 6] = [999, 990, 950, 900, 750, 500];

/// Samples that must lie strictly beyond a reported tail percentile.
pub const TAIL_MIN_BEYOND: usize = 10;

/// 1-based nearest rank of the per-mille level `pm` in `n` samples:
/// `ceil(pm·n / 1000)`, at least 1.
fn rank(pm: u64, n: usize) -> usize {
    ((pm * n as u64).div_ceil(1000) as usize).max(1)
}

/// Nearest-rank percentile (per-mille level `pm`) of an ascending-sorted
/// sample. Panics on an empty slice.
pub fn percentile_sorted(sorted: &[f64], pm: u64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    sorted[rank(pm, sorted.len()).min(sorted.len()) - 1]
}

/// The highest ladder level (per-mille) up to `cap` whose nearest-rank
/// percentile leaves at least [`TAIL_MIN_BEYOND`] samples strictly above
/// its rank, or `None` when the sample is too small for any tail.
pub fn tail_level(n: usize, cap: u64) -> Option<u64> {
    TAIL_LADDER
        .into_iter()
        .filter(|&pm| pm <= cap)
        .find(|&pm| n >= rank(pm, n) + TAIL_MIN_BEYOND)
}

/// A latency sample reduced by the percentile rule: the median plus the
/// highest percentile with at least ten samples beyond it, and the count.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Latency {
    pub n: usize,
    pub p50: f64,
    /// The tail level in per-mille, `None` when `n` supports none;
    /// `tail` then repeats the median.
    pub tail_q: Option<u64>,
    pub tail: f64,
}

impl Latency {
    /// The median, and the highest percentile up to the per-mille `cap`
    /// that keeps ten samples beyond it. A fixed cap keeps one metric at
    /// one level from run to run, whatever the sample count.
    pub fn of(samples: &[f64], cap: u64) -> Latency {
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        let p50 = median(&sorted);
        let tail_q = tail_level(sorted.len(), cap);
        let tail = tail_q.map_or(p50, |pm| percentile_sorted(&sorted, pm));
        Latency {
            n: sorted.len(),
            p50,
            tail_q,
            tail,
        }
    }

    /// `"p99"`, `"p99.9"`, or `"p50"` when the sample supports no tail.
    pub fn tail_label(&self) -> String {
        let pm = self.tail_q.unwrap_or(500);
        match pm % 10 {
            0 => format!("p{}", pm / 10),
            d => format!("p{}.{d}", pm / 10),
        }
    }
}

/// Self time of a span `[start, end)`: its duration minus the part of
/// that interval its children cover. Children may overlap one another
/// and may stick out of the parent; only their union inside the parent
/// counts.
pub fn self_time(start: f64, end: f64, children: &[(f64, f64)]) -> f64 {
    let mut clipped: Vec<(f64, f64)> = children
        .iter()
        .map(|&(s, e)| (s.max(start), e.min(end)))
        .filter(|&(s, e)| e > s)
        .collect();
    clipped.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut covered = 0.0;
    let mut cur: Option<(f64, f64)> = None;
    for (s, e) in clipped {
        match cur {
            Some((cs, ce)) if s <= ce => cur = Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                covered += ce - cs;
                cur = Some((s, e));
            }
            None => cur = Some((s, e)),
        }
    }
    if let Some((cs, ce)) = cur {
        covered += ce - cs;
    }
    (end - start) - covered
}

/// A `kB` field of `/proc/self/status` (`VmHWM`, `VmRSS`, …).
pub fn status_kb(status: &str, key: &str) -> Option<u64> {
    status.lines().find_map(|line| {
        let rest = line.strip_prefix(key)?.strip_prefix(':')?;
        rest.trim().strip_suffix("kB")?.trim().parse().ok()
    })
}

/// Transmit counters of the loopback interface, from
/// `/proc/self/net/dev`. Loopback carries every byte the process sends
/// to itself, both directions of a local connection included, with TCP
/// and IP headers.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct LoTx {
    pub bytes: u64,
    pub packets: u64,
}

impl LoTx {
    pub fn since(self, earlier: LoTx) -> LoTx {
        LoTx {
            bytes: self.bytes.saturating_sub(earlier.bytes),
            packets: self.packets.saturating_sub(earlier.packets),
        }
    }
}

pub fn parse_lo_tx(net_dev: &str) -> Option<LoTx> {
    let line = net_dev
        .lines()
        .find_map(|l| l.trim_start().strip_prefix("lo:"))?;
    let f: Vec<u64> = line
        .split_whitespace()
        .map(str::parse)
        .collect::<Result<_, _>>()
        .ok()?;
    // 8 receive columns, then transmit bytes and packets.
    Some(LoTx {
        bytes: *f.get(8)?,
        packets: *f.get(9)?,
    })
}

/// Whether `name` is a valid benchmark metric or workload name: starts
/// with a letter or digit, at most 64 characters of letters, digits,
/// `_`, `.` and `-`.
#[cfg(test)]
pub fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
        && name.len() <= 64
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_level_keeps_ten_samples_beyond() {
        assert_eq!(tail_level(0, 999), None);
        assert_eq!(tail_level(19, 999), None);
        assert_eq!(tail_level(20, 999), Some(500));
        assert_eq!(tail_level(39, 999), Some(500));
        assert_eq!(tail_level(40, 999), Some(750));
        assert_eq!(tail_level(100, 999), Some(900));
        assert_eq!(tail_level(200, 999), Some(950));
        assert_eq!(tail_level(999, 999), Some(950));
        assert_eq!(tail_level(1000, 999), Some(990));
        assert_eq!(tail_level(10_000, 999), Some(999));
        // A cap fixes the level once the sample supports it.
        assert_eq!(tail_level(10_000, 990), Some(990));
        assert_eq!(tail_level(999, 990), Some(950));
        assert_eq!(tail_level(10_000, 0), None);
        for n in 1..3000 {
            let sorted: Vec<f64> = (0..n).map(|i| i as f64).collect();
            if let Some(pm) = tail_level(n, 999) {
                let p = percentile_sorted(&sorted, pm);
                let beyond = sorted.iter().filter(|&&x| x > p).count();
                assert!(beyond >= TAIL_MIN_BEYOND, "n={n} pm={pm}");
            }
        }
    }

    #[test]
    fn latency_reports_median_tail_and_count() {
        let samples: Vec<f64> = (1..=1000).rev().map(f64::from).collect();
        let l = Latency::of(&samples, 999);
        assert_eq!(l.n, 1000);
        assert_eq!(l.p50, 500.5);
        assert_eq!(l.tail_q, Some(990));
        assert_eq!(l.tail, 990.0);
        assert_eq!(l.tail_label(), "p99");
        // Ten samples lie strictly beyond the reported p99.
        assert_eq!(samples.iter().filter(|&&x| x > l.tail).count(), 10);

        let small = Latency::of(&[3.0, 1.0, 2.0], 999);
        assert_eq!((small.p50, small.tail, small.tail_q), (2.0, 2.0, None));
        assert_eq!(small.tail_label(), "p50");
        assert_eq!(Latency::of(&vec![1.0; 10_000], 999).tail_label(), "p99.9");
        assert_eq!(Latency::of(&vec![1.0; 10_000], 990).tail_label(), "p99");
    }

    #[test]
    fn nearest_rank_percentile() {
        let s = [10.0, 20.0, 30.0, 40.0];
        assert_eq!(percentile_sorted(&s, 500), 20.0);
        assert_eq!(percentile_sorted(&s, 750), 30.0);
        assert_eq!(percentile_sorted(&s, 760), 40.0);
        assert_eq!(percentile_sorted(&s, 0), 10.0);
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        assert_eq!(self_time(0.0, 10.0, &[]), 10.0);
        assert_eq!(self_time(0.0, 10.0, &[(1.0, 3.0), (5.0, 6.0)]), 7.0);
        // Overlapping children are counted once.
        assert_eq!(self_time(0.0, 10.0, &[(1.0, 4.0), (2.0, 5.0)]), 6.0);
        // Nested and duplicate children add nothing extra.
        assert_eq!(
            self_time(0.0, 10.0, &[(1.0, 5.0), (2.0, 3.0), (1.0, 5.0)]),
            6.0
        );
        // Children are clipped to the parent; disjoint ones drop out.
        assert_eq!(
            self_time(2.0, 8.0, &[(0.0, 3.0), (7.0, 12.0), (9.0, 11.0)]),
            4.0
        );
        // Fully covered parent.
        assert_eq!(self_time(0.0, 4.0, &[(0.0, 2.0), (2.0, 4.0)]), 0.0);
    }

    #[test]
    fn parses_proc_status_and_net_dev() {
        let status = "Name:\tperfbench\nVmPeak:\t  123456 kB\nVmHWM:\t   13504 kB\nVmRSS:\t   9000 kB\nThreads:\t3\n";
        assert_eq!(status_kb(status, "VmHWM"), Some(13504));
        assert_eq!(status_kb(status, "VmRSS"), Some(9000));
        assert_eq!(status_kb(status, "VmSwap"), None);
        assert_eq!(status_kb(status, "Threads"), None, "not a kB field");
        assert_eq!(status_kb(status, "Vm"), None, "keys match whole");

        let dev = "Inter-|   Receive                                                |  Transmit
 face |bytes    packets errs drop fifo frame compressed multicast|bytes    packets errs drop fifo colls carrier compressed
  eth0:    8184     112    0    0    0     0          0         0     7191     123    0    0    0     0       0          0
    lo: 1925897613  131778    0    0    0     0          0         0 1925998045  131786    0    0    0     0       0          0
";
        let tx = parse_lo_tx(dev).expect("lo line");
        assert_eq!(
            tx,
            LoTx {
                bytes: 1925998045,
                packets: 131786
            }
        );
        let earlier = LoTx {
            bytes: 1925897613,
            packets: 131778,
        };
        assert_eq!(
            tx.since(earlier),
            LoTx {
                bytes: 100432,
                packets: 8
            }
        );
        assert_eq!(
            earlier.since(tx),
            LoTx::default(),
            "counters never run backwards"
        );
        assert_eq!(parse_lo_tx("  eth0: 1 2 3 4 5 6 7 8 9 10\n"), None);
        assert_eq!(parse_lo_tx("    lo: 1 2 3\n"), None);
    }

    #[test]
    fn name_rule() {
        for ok in [
            "setup_s",
            "plan.msg_per_s",
            "cold-uniform",
            "9lives",
            "a.b-c_d",
        ] {
            assert!(valid_name(ok), "{ok}");
        }
        for bad in ["", "_x", ".x", "-x", "a b", "a/b", "é", &"x".repeat(65)] {
            assert!(!valid_name(bad), "{bad}");
        }
    }

    /// Every workload and metric name in the repository's benchmark
    /// definition follows the naming rule, once each.
    #[test]
    fn benchmark_json_names_are_valid() {
        use serde_json::Value;
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside perfbench/");
        let root: Value = serde_json::from_str(&text).expect("BENCHMARK.json parses");
        let Value::Object(fields) = root else {
            panic!("BENCHMARK.json is not an object")
        };
        let mut names = Vec::new();
        let mut by_key: Vec<(&str, Vec<String>)> = Vec::new();
        for (key, value) in &fields {
            if !matches!(key.as_str(), "workloads" | "end_to_end" | "per_layer") {
                continue;
            }
            by_key.push((key.as_str(), Vec::new()));
            let Value::Array(items) = value else {
                panic!("{key} is not a list")
            };
            for item in items {
                let Value::Object(entry) = item else {
                    panic!("{key} entry is not an object")
                };
                let name = entry.iter().find(|(k, _)| k == "name");
                let Some((_, Value::Str(name))) = name else {
                    panic!("{key} entry without a string name")
                };
                names.push(name.clone());
                by_key
                    .last_mut()
                    .expect("pushed above")
                    .1
                    .push(name.clone());
            }
        }
        assert!(names.len() > 10, "found only {names:?}");
        for name in &names {
            assert!(valid_name(name), "invalid name {name:?}");
        }
        let mut unique = names.clone();
        unique.sort();
        unique.dedup();
        assert_eq!(unique.len(), names.len(), "duplicate names");
        // The names the program reports are exactly the declared ones.
        for name in crate::metrics::END_TO_END
            .iter()
            .chain(crate::metrics::PER_LAYER)
        {
            assert!(names.iter().any(|n| n == name.0), "{} not declared", name.0);
        }
        // The declared workloads are ones the program runs, and the
        // declared end-to-end metrics exactly the ones it prints with
        // `--trace 0`.
        let declared = |key: &str| {
            by_key
                .iter()
                .find(|k| k.0 == key)
                .map(|k| k.1.clone())
                .unwrap_or_default()
        };
        let workloads = declared("workloads");
        assert!(workloads.len() >= 2, "{workloads:?}");
        for w in &workloads {
            assert!(
                crate::inputs::Workload::parse(w).is_some(),
                "{w} does not run"
            );
        }
        let end_to_end: Vec<String> = crate::metrics::END_TO_END
            .iter()
            .map(|m| m.0.to_string())
            .collect();
        assert_eq!(declared("end_to_end"), end_to_end);
    }
}
