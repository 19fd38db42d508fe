//! Tracing for the traced run: spans the benchmark records around its
//! calls into each layer, and the ledger that turns them — together with
//! the spans and events the program already emits through the same
//! `Dispatch` — into per-layer self times.

use crate::stats::self_time;
use credo_trace::{Dispatch, OwnedValue, Record, Span, TraceBuffer};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Hands out benchmark spans. A disabled tracer records nothing and
/// gives the program `Dispatch::none()`, so untraced runs measure the
/// untraced code path.
pub struct Tracer {
    buf: Option<Arc<TraceBuffer>>,
    dispatch: Dispatch,
    next: AtomicU64,
}

/// An open benchmark span; closes when dropped.
pub struct LayerSpan<'a> {
    pub id: u64,
    _span: Span<'a>,
}

impl Tracer {
    pub fn off() -> Tracer {
        Tracer {
            buf: None,
            dispatch: Dispatch::none(),
            next: AtomicU64::new(1),
        }
    }

    pub fn on() -> Tracer {
        let buf = Arc::new(TraceBuffer::new());
        Tracer {
            dispatch: Dispatch::new(buf.clone()),
            buf: Some(buf),
            next: AtomicU64::new(1),
        }
    }

    pub fn dispatch(&self) -> &Dispatch {
        &self.dispatch
    }

    pub fn buffer(&self) -> Option<&TraceBuffer> {
        self.buf.as_deref()
    }

    /// Opens a span named after the layer call it wraps. `parent` is the
    /// enclosing benchmark span's id (0 for a root), `req` the request it
    /// belongs to (0 outside the measured operations).
    pub fn span(&self, name: &'static str, parent: u64, req: u64) -> LayerSpan<'_> {
        let id = self.next.fetch_add(1, Ordering::Relaxed);
        LayerSpan {
            id,
            _span: self.dispatch.span(
                name,
                &[
                    ("span_id", id.into()),
                    ("parent", parent.into()),
                    ("req", req.into()),
                ],
            ),
        }
    }
}

/// One span from the trace buffer, benchmark-recorded (`id > 0`) or
/// emitted by the program (`id == 0`).
#[derive(Clone, Debug)]
struct SpanRec {
    name: &'static str,
    start: f64,
    end: f64,
    id: u64,
    parent: u64,
}

fn u64_field(fields: &[credo_trace::OwnedField], key: &str) -> Option<u64> {
    fields
        .iter()
        .find(|f| f.key == key)
        .and_then(|f| match f.value {
            OwnedValue::U64(v) => Some(v),
            _ => None,
        })
}

fn f64_field(fields: &[credo_trace::OwnedField], key: &str) -> Option<f64> {
    fields
        .iter()
        .find(|f| f.key == key)
        .and_then(|f| match f.value {
            OwnedValue::F64(v) => Some(v),
            OwnedValue::U64(v) => Some(v as f64),
            _ => None,
        })
}

/// The per-worker busy times (µs) of one engine run, from the
/// `pool_worker` events the plan runner emits before its `run` span ends.
#[derive(Clone, Debug, Default)]
pub struct PoolBusy {
    pub wall_us: f64,
    pub busy_us: Vec<f64>,
}

impl PoolBusy {
    pub fn max(&self) -> f64 {
        self.busy_us.iter().copied().fold(0.0, f64::max)
    }

    pub fn mean(&self) -> f64 {
        if self.busy_us.is_empty() {
            0.0
        } else {
            self.busy_us.iter().sum::<f64>() / self.busy_us.len() as f64
        }
    }
}

/// The trace of a run, indexed for the ledger.
pub struct Trace {
    spans: Vec<SpanRec>,
    /// `(ts_us, busy_us)` of every `pool_worker` event, by time.
    pool_events: Vec<(f64, f64)>,
}

impl Trace {
    pub fn from_records(records: &[Record]) -> Trace {
        let mut spans = Vec::new();
        let mut pool_events = Vec::new();
        for r in records {
            match r {
                Record::Span {
                    name,
                    start_us,
                    dur_us,
                    fields,
                    ..
                } => spans.push(SpanRec {
                    name,
                    start: *start_us,
                    end: start_us + dur_us,
                    id: u64_field(fields, "span_id").unwrap_or(0),
                    parent: u64_field(fields, "parent").unwrap_or(0),
                }),
                Record::Event {
                    name: "pool_worker",
                    ts_us,
                    fields,
                } => pool_events.push((*ts_us, f64_field(fields, "busy_us").unwrap_or(0.0))),
                _ => {}
            }
        }
        spans.sort_by(|a, b| a.start.total_cmp(&b.start));
        pool_events.sort_by(|a, b| a.0.total_cmp(&b.0));
        Trace { spans, pool_events }
    }

    /// Program spans named `name` that lie inside `[start, end]`.
    fn program_within(&self, name: &str, start: f64, end: f64) -> Vec<&SpanRec> {
        let first = self.spans.partition_point(|s| s.start < start);
        self.spans[first..]
            .iter()
            .take_while(|s| s.start <= end)
            .filter(|s| s.id == 0 && s.name == name && s.end <= end)
            .collect()
    }

    fn pool_within(&self, start: f64, end: f64) -> Vec<f64> {
        let first = self.pool_events.partition_point(|e| e.0 < start);
        self.pool_events[first..]
            .iter()
            .take_while(|e| e.0 <= end)
            .map(|e| e.1)
            .collect()
    }

    /// Pool busy times of the first program `run` inside each benchmark
    /// span named `call`, in call order.
    pub fn busy_within(&self, call: &str) -> Vec<PoolBusy> {
        self.spans
            .iter()
            .filter(|s| s.id > 0 && s.name == call)
            .filter_map(|c| self.program_within("run", c.start, c.end).first().copied())
            .map(|r| PoolBusy {
                wall_us: r.end - r.start,
                busy_us: self.pool_within(r.start, r.end),
            })
            .collect()
    }

    /// The blocking-path ledger of every `op` root span: each root's
    /// benchmark child is the public call into the layer under test, the
    /// program's `run`/`dist_run` spans inside it and their `iteration`/
    /// `frontier_exchange` children split it further, and whatever no
    /// span covers stays with the root as "unaccounted".
    pub fn ledger(&self) -> Ledger {
        let mut rows: BTreeMap<&'static str, f64> = BTreeMap::new();
        let mut total = 0.0;
        let mut ops = 0usize;
        let mut add = |row: &'static str, us: f64| *rows.entry(row).or_insert(0.0) += us;
        let mut by_parent: BTreeMap<u64, Vec<&SpanRec>> = BTreeMap::new();
        for s in self.spans.iter().filter(|s| s.id > 0) {
            by_parent.entry(s.parent).or_default().push(s);
        }
        let roots = self.spans.iter().filter(|s| s.id > 0 && s.name == "op");
        for root in roots {
            ops += 1;
            total += root.end - root.start;
            let calls = by_parent.get(&root.id).cloned().unwrap_or_default();
            let spans_of = |v: &[&SpanRec]| v.iter().map(|s| (s.start, s.end)).collect::<Vec<_>>();
            add(
                UNACCOUNTED,
                self_time(root.start, root.end, &spans_of(&calls)),
            );
            for call in calls {
                let (outer, inner) = match call.name {
                    "dist.infer" => ("dist_run", "frontier_exchange"),
                    _ => ("run", "iteration"),
                };
                let runs = self.program_within(outer, call.start, call.end);
                add(
                    call_row(call.name),
                    self_time(call.start, call.end, &spans_of(&runs)),
                );
                for run in runs {
                    let steps = self.program_within(inner, run.start, run.end);
                    add(
                        program_row(outer),
                        self_time(run.start, run.end, &spans_of(&steps)),
                    );
                    let step_us: f64 = steps.iter().map(|s| s.end - s.start).sum();
                    if outer == "run" {
                        // The sweep regions run on the pool; the slowest
                        // worker's busy time bounds the parallel part of
                        // the iterations, the rest is main-thread work.
                        let busy = PoolBusy {
                            wall_us: run.end - run.start,
                            busy_us: self.pool_within(run.start, run.end),
                        };
                        let par = busy.max().min(step_us);
                        add(ROW_PAR, par);
                        add(ROW_SERIAL, step_us - par);
                    } else {
                        add(ROW_SHARD, step_us);
                    }
                }
            }
        }
        Ledger {
            rows: rows.into_iter().collect(),
            total_us: total,
            ops,
        }
    }
}

pub const UNACCOUNTED: &str = "unaccounted";
const ROW_PAR: &str = "par: sweep regions on the pool (slowest worker busy)";
const ROW_SERIAL: &str = "plan: main-thread per-iteration work (fold, queue advance)";
const ROW_SHARD: &str = "shard+dist: worker sweeps and halo wire per sweep";

fn call_row(name: &str) -> &'static str {
    match name {
        "plan.solve" => "graph+plan: run overhead (compile, pool spawn, load/store)",
        "serve.request" => "serve: client, transport, reactor, queue and batching",
        "dist.infer" => "dist: router request handling outside the run",
        _ => "other benchmark span",
    }
}

fn program_row(name: &str) -> &'static str {
    match name {
        "dist_run" => "dist: RunStart fan-out, collect (outside sweeps)",
        _ => "plan: run set-up outside iterations",
    }
}

/// Self times per ledger row over all measured operations.
pub struct Ledger {
    pub rows: Vec<(&'static str, f64)>,
    pub total_us: f64,
    pub ops: usize,
}

impl Ledger {
    pub fn unaccounted_us(&self) -> f64 {
        self.rows
            .iter()
            .find(|r| r.0 == UNACCOUNTED)
            .map_or(0.0, |r| r.1)
    }

    /// Layer self times (every row but "unaccounted"), summed.
    pub fn layers_us(&self) -> f64 {
        self.rows
            .iter()
            .filter(|r| r.0 != UNACCOUNTED)
            .map(|r| r.1)
            .sum()
    }

    /// Whether the layers add up to the traced end-to-end time within
    /// `tol` (a share of it).
    pub fn adds_up(&self, tol: f64) -> bool {
        self.total_us > 0.0 && (self.layers_us() - self.total_us).abs() <= tol * self.total_us
    }

    pub fn print(&self) {
        println!(
            "ledger: {} operations, traced end-to-end {:.3} s (self time per layer on the blocking path)",
            self.ops,
            self.total_us / 1e6
        );
        let mut rows: Vec<_> = self.rows.iter().filter(|r| r.0 != UNACCOUNTED).collect();
        rows.sort_by(|a, b| b.1.total_cmp(&a.1));
        for (name, us) in rows {
            println!(
                "  {:>10.4} s  {:>6.2}%  {name}",
                us / 1e6,
                100.0 * us / self.total_us
            );
        }
        let un = self.unaccounted_us();
        println!(
            "  {:>10.4} s  {:>6.2}%  {UNACCOUNTED}",
            un / 1e6,
            100.0 * un / self.total_us
        );
        println!(
            "  layers sum {:.4} s vs traced end-to-end {:.4} s: {}",
            self.layers_us() / 1e6,
            self.total_us / 1e6,
            if self.adds_up(0.10) {
                "within 10%"
            } else {
                "OFF BY MORE THAN 10%"
            }
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use credo_trace::OwnedField;

    fn span(name: &'static str, start: f64, dur: f64, ids: Option<(u64, u64)>) -> Record {
        let mut fields = Vec::new();
        if let Some((id, parent)) = ids {
            fields.push(OwnedField {
                key: "span_id",
                value: OwnedValue::U64(id),
            });
            fields.push(OwnedField {
                key: "parent",
                value: OwnedValue::U64(parent),
            });
        }
        Record::Span {
            name,
            track: "host",
            start_us: start,
            dur_us: dur,
            fields,
        }
    }

    fn busy(ts: f64, us: f64) -> Record {
        Record::Event {
            name: "pool_worker",
            ts_us: ts,
            fields: vec![OwnedField {
                key: "busy_us",
                value: OwnedValue::F64(us),
            }],
        }
    }

    #[test]
    fn ledger_splits_one_solve_into_layer_self_times() {
        // op [0,100) > plan.solve [2,98) > run [10,90) > two iterations
        // of 30 µs; workers were busy 20 and 35 µs.
        let records = vec![
            span("op", 0.0, 100.0, Some((1, 0))),
            span("plan.solve", 2.0, 96.0, Some((2, 1))),
            span("run", 10.0, 80.0, None),
            span("iteration", 15.0, 30.0, None),
            span("iteration", 50.0, 30.0, None),
            busy(85.0, 20.0),
            busy(85.0, 35.0),
        ];
        let l = Trace::from_records(&records).ledger();
        let row = |name: &str| l.rows.iter().find(|r| r.0 == name).map(|r| r.1);
        assert_eq!(l.ops, 1);
        assert_eq!(l.total_us, 100.0);
        assert_eq!(row(UNACCOUNTED), Some(4.0));
        assert_eq!(row(call_row("plan.solve")), Some(16.0));
        assert_eq!(row(program_row("run")), Some(20.0));
        assert_eq!(row(ROW_PAR), Some(35.0));
        assert_eq!(row(ROW_SERIAL), Some(25.0));
        assert_eq!(l.layers_us(), 96.0);
        assert!(l.adds_up(0.10));
        assert!(!l.adds_up(0.03));
    }

    #[test]
    fn program_runs_count_once_per_request_that_waits_on_them() {
        // Two concurrent requests both wait on the same engine run.
        let records = vec![
            span("op", 0.0, 50.0, Some((1, 0))),
            span("serve.request", 0.0, 50.0, Some((2, 1))),
            span("op", 5.0, 50.0, Some((3, 0))),
            span("serve.request", 5.0, 50.0, Some((4, 3))),
            span("run", 10.0, 20.0, None),
        ];
        let l = Trace::from_records(&records).ledger();
        assert_eq!(l.total_us, 100.0);
        assert_eq!(l.unaccounted_us(), 0.0);
        let row = |name: &str| l.rows.iter().find(|r| r.0 == name).map(|r| r.1);
        assert_eq!(row(program_row("run")), Some(40.0));
        assert_eq!(row(call_row("serve.request")), Some(60.0));
    }

    #[test]
    fn tracer_off_records_nothing() {
        let t = Tracer::off();
        assert!(!t.dispatch().enabled());
        let s = t.span("op", 0, 1);
        assert!(s.id > 0);
        assert!(t.buffer().is_none());
    }
}
