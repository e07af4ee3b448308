//! The traced run's per-layer measurements.
//!
//! Two sources: counter and histogram-sum deltas of `Runtime::metrics()`
//! across the timed traffic, and a paired replay after it that times the
//! same (plan, input) through each layer's public entry point — the client
//! round trip, the engine call the FrontEnd makes, the physical plan the
//! engine runs — so each layer's self time is the difference between
//! nested calls on the same request.

use crate::check;
use crate::lifecycle::Footprint;
use crate::trace::Tracer;
use pretzel_core::frontend::{Client, PredictRequest};
use pretzel_core::graph::TransformGraph;
use pretzel_core::lifecycle::DeployOptions;
use pretzel_core::physical::{ExecCtx, SourceRef};
use pretzel_core::runtime::{PlanId, Runtime, RuntimeConfig};
use pretzel_core::scheduler::Record;
use pretzel_core::telemetry::MetricsSnapshot;
use pretzel_data::pool::VectorPool;
use pretzel_data::serde_bin::{wire, Cursor};
use pretzel_data::{BatchAssembler, ColumnBatch, ColumnType, Vector};
use pretzel_workload::churn::ChurnWorkload;
use std::net::SocketAddr;
use std::sync::Arc;

/// One record addressed at a plan.
pub struct Single<'a> {
    pub plan: PlanId,
    pub line: &'a str,
}

/// A multi-record request addressed at a plan.
pub struct Batch<'a> {
    pub plan: PlanId,
    pub lines: Vec<&'a str>,
}

fn agree(what: &str, a: f32, b: f32) -> Result<(), String> {
    if check::close(a, b) {
        Ok(())
    } else {
        Err(format!("{what}: {a} vs {b}"))
    }
}

/// Client round trip, `Runtime::predict_source` and
/// `ModelPlan::execute_borrowed` on each single record. The three calls
/// rotate their order from record to record, so no layer always runs on
/// the caches the previous call warmed.
pub fn paired_singles(
    addr: SocketAddr,
    rt: &Runtime,
    singles: &[Single<'_>],
    tracer: &mut Tracer,
) -> Result<(), String> {
    let mut client = Client::connect_v2(addr).map_err(|e| e.to_string())?;
    let mut ctx = ExecCtx::new(Arc::new(VectorPool::new()));
    for (i, s) in singles.iter().enumerate() {
        let id = i as u64;
        let req = PredictRequest::text(s.line).plan(s.plan);
        let plan = rt.plan(s.plan).map_err(|e| e.to_string())?;
        let mut slots: Vec<Vector> = plan
            .slot_types()
            .into_iter()
            .map(Vector::with_type)
            .collect();
        let src = SourceRef::Text(s.line);
        let (mut wire, mut rr, mut row) = (None, None, None);
        for step in 0..3 {
            match (i + step) % 3 {
                0 => {
                    wire = Some(tracer.span("frontend.predict", None, id, || client.predict(&req)))
                }
                1 => {
                    rr = Some(tracer.span("rr.predict_source", None, id, || {
                        rt.predict_source(s.plan, src)
                    }))
                }
                _ => {
                    row = Some(tracer.span("physical.execute_borrowed", None, id, || {
                        plan.execute_borrowed(src, &mut slots, &mut ctx)
                    }))
                }
            }
        }
        let ((wire, c), (rr, r), (row, p)) =
            (wire.expect("ran"), rr.expect("ran"), row.expect("ran"));
        tracer.set_parent(r, c);
        tracer.set_parent(p, r);
        let (wire, rr, row) = (
            wire.map_err(|e| e.to_string())?,
            rr.map_err(|e| e.to_string())?,
            row.map_err(|e| e.to_string())?,
        );
        agree("wire vs request-response", wire, rr)?;
        agree("request-response vs physical", rr, row)?;
    }
    Ok(())
}

/// Client round trip, `BatchAssembler` decode of the same body,
/// `Runtime::predict_batch_wait` and `ModelPlan::execute_batch` on each
/// multi-record request, in an order that rotates from request to
/// request. The scheduler runs a batch's chunks on both executors while
/// `execute_batch` runs them on one thread, so the scheduler's self time
/// can be negative.
pub fn paired_batches(
    addr: SocketAddr,
    rt: &Runtime,
    batches: &[Batch<'_>],
    tracer: &mut Tracer,
) -> Result<(), String> {
    let mut client = Client::connect_v2(addr).map_err(|e| e.to_string())?;
    let mut ctx = ExecCtx::new(Arc::new(VectorPool::new()));
    for (i, b) in batches.iter().enumerate() {
        let id = i as u64;
        let n = b.lines.len();
        let req = PredictRequest::text_batch(b.lines.iter().copied()).plan(b.plan);
        let mut records: Option<Vec<Record>> = Some(
            b.lines
                .iter()
                .map(|l| Record::Text(l.to_string()))
                .collect(),
        );
        let plan = rt.plan(b.plan).map_err(|e| e.to_string())?;
        let sources: Vec<SourceRef<'_>> = b.lines.iter().map(|l| SourceRef::Text(l)).collect();
        let mut slots: Vec<ColumnBatch> = plan
            .batch_slot_types()
            .into_iter()
            .map(ColumnBatch::with_type)
            .collect();
        let mut out = vec![0f32; n];
        let mut body = Vec::new();
        for l in &b.lines {
            wire::put_str(&mut body, l);
        }
        let mut asm = Some(BatchAssembler::new_unhashed(ColumnBatch::with_type(
            ColumnType::Text,
        )));
        let (mut wire_scores, mut decoded, mut sched, mut phys) = (None, None, None, None);
        for step in 0..4 {
            match (i + step) % 4 {
                0 => {
                    wire_scores =
                        Some(tracer.span("frontend.batch", None, id, || client.predict_many(&req)))
                }
                1 => {
                    let mut asm = asm.take().expect("decoded once");
                    decoded = Some(tracer.span("ingest.assemble", None, id, || {
                        let mut cur = Cursor::new(&body);
                        (0..n)
                            .try_for_each(|_| asm.decode_text_row(&mut cur))
                            .map(|()| asm.rows())
                    }))
                }
                2 => {
                    let records = records.take().expect("submitted once");
                    sched = Some(tracer.span("sched.predict_batch_wait", None, id, || {
                        rt.predict_batch_wait(b.plan, records)
                    }))
                }
                _ => {
                    phys = Some(tracer.span("physical.execute_batch", None, id, || {
                        plan.execute_batch(&sources, &mut slots, &mut ctx, &mut out)
                    }))
                }
            }
        }
        let ((wire_scores, c), (decoded, d), (sched, s), (phys, p)) = (
            wire_scores.expect("ran"),
            decoded.expect("ran"),
            sched.expect("ran"),
            phys.expect("ran"),
        );
        tracer.set_parent(d, c);
        tracer.set_parent(s, c);
        tracer.set_parent(p, s);
        let wire_scores = wire_scores.map_err(|e| e.to_string())?;
        let sched = sched.map_err(|e| e.to_string())?;
        phys.map_err(|e| e.to_string())?;
        if decoded.map_err(|e| e.to_string())? != n {
            return Err(format!("assembler decoded a short batch of {n}"));
        }
        check::check(&wire_scores, &sched, false).map_err(|m| format!("wire vs scheduler: {m}"))?;
        check::check(&sched, &out, false).map_err(|m| format!("scheduler vs physical: {m}"))?;
    }
    Ok(())
}

/// Decode, Oven and registration of every catalog image, replayed on a
/// second runtime.
pub fn deploy_replay(
    images: &[Arc<Vec<u8>>],
    config: &RuntimeConfig,
    tracer: &mut Tracer,
) -> Result<(), String> {
    let rt = Runtime::new(config.clone());
    for (i, image) in images.iter().enumerate() {
        let id = i as u64;
        let (graph, _) = tracer.span("deploy.decode", None, id, || {
            TransformGraph::from_model_image_shared(image, rt.object_store())
        });
        let graph = graph.map_err(|e| e.to_string())?;
        let (optimized, _) = tracer.span("deploy.optimize", None, id, || {
            pretzel_core::oven::optimize(&graph)
        });
        let plan = optimized.map_err(|e| e.to_string())?.plan;
        let (registered, _) = tracer.span("deploy.register", None, id, || rt.register(plan));
        registered.map_err(|e| e.to_string())?;
    }
    Ok(())
}

/// `cycles` in-process churn cycles on the serving runtime, timing
/// `Runtime::swap` and `Runtime::undeploy`; checks that the footprint
/// returns to where it started.
pub fn lifecycle_replay(
    rt: &Runtime,
    churn: &ChurnWorkload,
    n_versions: usize,
    cycles: usize,
    tracer: &mut Tracer,
) -> Result<(), String> {
    let before = Footprint::of(rt);
    let mut live = Vec::new();
    for slot in 0..churn.images.len() {
        let opts = DeployOptions {
            alias: Some(ChurnWorkload::alias(slot)),
            reserved: false,
        };
        live.push((
            rt.deploy(churn.image(slot, 0), opts)
                .map_err(|e| e.to_string())?,
            0,
        ));
    }
    for i in 0..cycles {
        let slot = i % live.len();
        let (old, version) = live[slot];
        let version = (version + 1) % n_versions;
        let id = rt
            .deploy(churn.image(slot, version), DeployOptions::default())
            .map_err(|e| e.to_string())?;
        let alias = ChurnWorkload::alias(slot);
        let (swapped, _) = tracer.span("lifecycle.swap", None, i as u64, || rt.swap(&alias, id));
        swapped.map_err(|e| e.to_string())?;
        let (undeployed, _) =
            tracer.span("lifecycle.undeploy", None, i as u64, || rt.undeploy(old));
        undeployed.map_err(|e| e.to_string())?;
        live[slot] = (id, version);
    }
    for (id, _) in live {
        rt.undeploy(id).map_err(|e| e.to_string())?;
    }
    let after = Footprint::of(rt);
    if after != before {
        return Err(format!(
            "in-process churn left {after:?}, started from {before:?}"
        ));
    }
    Ok(())
}

/// Counter and histogram-sum deltas over the timed traffic.
pub struct Deltas {
    pub decode_ns: u64,
    pub flush_ns: u64,
    pub flush_count: u64,
    pub rr_misses: u64,
    pub executor_misses: u64,
    pub queue_wait_ns: u64,
    pub queue_wait_count: u64,
    pub stage_ns: u64,
    pub stage_count: u64,
    pub stage_events: u64,
    pub steals: u64,
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub cache_evictions: u64,
    pub probe_hit_ns: u64,
    pub probe_hit_count: u64,
    pub probe_miss_ns: u64,
    pub probe_miss_count: u64,
}

/// (sum, count) of the per-plan queue-wait and stage histograms.
fn plan_sums(m: &MetricsSnapshot) -> [(u64, u64); 2] {
    let mut out = [(0u64, 0u64); 2];
    for p in &m.plans {
        for h in [&p.queue_wait_low_ns, &p.queue_wait_high_ns] {
            out[0].0 += h.sum;
            out[0].1 += h.count();
        }
        out[1].0 += p.stage_exec_ns.sum;
        out[1].1 += p.stage_exec_ns.count();
    }
    out
}

impl Deltas {
    pub fn between(a: &MetricsSnapshot, b: &MetricsSnapshot) -> Deltas {
        let d = |x: u64, y: u64| y.saturating_sub(x);
        let [qa, sa] = plan_sums(a);
        let [qb, sb] = plan_sums(b);
        let ca = a.mat_cache.unwrap_or_default();
        let cb = b.mat_cache.unwrap_or_default();
        Deltas {
            decode_ns: d(a.decode_ns.sum, b.decode_ns.sum),
            flush_ns: d(a.completion_flush_ns.sum, b.completion_flush_ns.sum),
            flush_count: d(a.completion_flush_ns.count(), b.completion_flush_ns.count()),
            rr_misses: d(
                a.pools.request_response.misses,
                b.pools.request_response.misses,
            ),
            executor_misses: d(a.pools.executor.misses, b.pools.executor.misses),
            queue_wait_ns: d(qa.0, qb.0),
            queue_wait_count: d(qa.1, qb.1),
            stage_ns: d(sa.0, sb.0),
            stage_count: d(sa.1, sb.1),
            stage_events: d(a.scheduler.stage_events, b.scheduler.stage_events),
            steals: d(a.scheduler.steals, b.scheduler.steals),
            cache_hits: d(ca.hits, cb.hits),
            cache_misses: d(ca.misses, cb.misses),
            cache_evictions: d(ca.evictions, cb.evictions),
            probe_hit_ns: d(a.cache_probe_hit_ns.sum, b.cache_probe_hit_ns.sum),
            probe_hit_count: d(a.cache_probe_hit_ns.count(), b.cache_probe_hit_ns.count()),
            probe_miss_ns: d(a.cache_probe_miss_ns.sum, b.cache_probe_miss_ns.sum),
            probe_miss_count: d(a.cache_probe_miss_ns.count(), b.cache_probe_miss_ns.count()),
        }
    }
}

/// `num / den`, or 0 when nothing was counted.
pub fn per(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}
