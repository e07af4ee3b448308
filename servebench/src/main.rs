//! servebench — what a wire-v2 client sees from a running PRETZEL
//! FrontEnd, on four traffic mixes, with per-layer attribution.
//!
//! ```text
//! servebench --workload <sa_single|ac_batch|sa_fanout_cached|sa_churn>
//!            --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One process starts the `Runtime` and `FrontEnd` with their default
//! configuration, deploys the 500-model catalog over the wire (`DEPLOY`),
//! warms up, then drives the workload for `--seconds` from at most two
//! generator threads on two connections. Every response is checked
//! against the volcano reference. The run report goes to standard output
//! and its last line is one JSON object: the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`. See README.md.

mod check;
mod drive;
mod inputs;
mod layers;
mod lifecycle;
mod procfs;
mod stats;
mod trace;

use drive::{since, sleep_until, ConnLog, Counts, Dest, Expect, OpKind, Prepared};
use inputs::{Catalog, Stream, FANOUT_K};
use layers::{per, Batch, Deltas, Single};
use lifecycle::{Churn, Footprint};
use pretzel_core::frontend::{Client, FrontEnd, FrontEndConfig, PredictRequest};
use pretzel_core::runtime::{PlanId, Runtime, RuntimeConfig};
use pretzel_core::telemetry::MetricsSnapshot;
use pretzel_workload::churn::ChurnWorkload;
use stats::{median, over_slices, Better, Sample, Slice};
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};
use trace::Tracer;

/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Untimed traffic before the memory reading and the timed region.
const WARMUP: Duration = Duration::from_secs(1);
/// `sa_churn`: one deploy-swap-undeploy cycle every period, on every commit.
const CHURN_PERIOD: Duration = Duration::from_millis(50);
/// Other workloads: back-to-back lifecycle cycles on the idle server after
/// the timed region, for this long and cut into this many slices
/// (`deploy_p50_ms`, `undeploy_p50_ms`).
const PROBE: Duration = Duration::from_secs(2);
const PROBE_SLICES: usize = 10;
/// `sa_fanout_cached`: materialization-cache budget. Far below the
/// stream's working set, so each review batch misses on its first plan
/// and hits on the other `FANOUT_K - 1`.
const FANOUT_CACHE_BYTES: usize = 4 << 20;
/// Requests in flight per `ac_batch` connection.
const AC_WINDOW: usize = 4;
/// Requests in flight per `sa_fanout_cached` connection: two review
/// batches, each fanned out to `FANOUT_K` plans.
const FANOUT_WINDOW: usize = 2 * FANOUT_K;
/// Paired-replay sizes of the traced run.
const PAIRED_SINGLES: usize = 2048;
const PAIRED_BATCHES: usize = 32;
const PAIRED_BATCH_ROWS: usize = 64;
const LIFECYCLE_REPLAY_CYCLES: usize = 64;
/// A percentile is reported only where each slice holds this many samples,
/// so at least ten lie beyond its p99.
const P99_SAMPLES: usize = 1000;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    SaSingle,
    AcBatch,
    SaFanoutCached,
    SaChurn,
}

impl Workload {
    const ALL: [Workload; 4] = [
        Workload::SaSingle,
        Workload::AcBatch,
        Workload::SaFanoutCached,
        Workload::SaChurn,
    ];

    fn name(self) -> &'static str {
        match self {
            Workload::SaSingle => "sa_single",
            Workload::AcBatch => "ac_batch",
            Workload::SaFanoutCached => "sa_fanout_cached",
            Workload::SaChurn => "sa_churn",
        }
    }

    fn batched(self) -> bool {
        matches!(self, Workload::AcBatch | Workload::SaFanoutCached)
    }

    /// Equal slices of the timed region: 0.5 s for single-record traffic,
    /// 2 s for batches (fewer, larger requests per second; a slice must
    /// hold 1000 of them for its p99).
    fn slices(self, seconds: u64) -> usize {
        if self.batched() {
            (seconds / 2).max(1) as usize
        } else {
            seconds as usize * 2
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = 10;
    let mut trace = false;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: std::num::ParseIntError| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::ALL
                        .into_iter()
                        .find(|w| w.name() == value)
                        .ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(bad)?),
            "--seconds" => seconds = value.parse().map_err(bad)?,
            "--trace" => trace = value.parse::<u8>().map_err(bad)? != 0,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("servebench: {e}");
            eprintln!("usage: servebench --workload <sa_single|ac_batch|sa_fanout_cached|sa_churn> --seed <n> [--seconds <s>] [--trace <0|1>]");
            std::process::exit(2);
        }
    };
    if let Err(e) = run(&args) {
        eprintln!("servebench: {e}");
        std::process::exit(1);
    }
}

/// A running runtime and FrontEnd with the catalog deployed.
struct Server {
    rt: Arc<Runtime>,
    fe: FrontEnd,
    ids: Vec<PlanId>,
}

impl Server {
    /// Starts the runtime and FrontEnd, deploys every catalog image over
    /// the wire and scores one record; returns the server and the wall
    /// time all of that took.
    fn start(
        config: &RuntimeConfig,
        cat: &Catalog,
        counts: &mut Counts,
    ) -> Result<(Server, f64), String> {
        let t0 = Instant::now();
        let rt = Arc::new(Runtime::new(config.clone()));
        let fe = FrontEnd::serve(Arc::clone(&rt), FrontEndConfig::default())
            .map_err(|e| format!("serve: {e}"))?;
        let mut client = Client::connect_v2(fe.addr()).map_err(|e| format!("connect: {e}"))?;
        let mut ids = Vec::with_capacity(cat.images.len());
        for image in &cat.images {
            match client.deploy(image, None, false) {
                Ok(id) => {
                    counts.ok(OpKind::Deploy);
                    ids.push(id);
                }
                Err(e) => {
                    counts.error(OpKind::Deploy, e.to_string());
                    return Err(format!("catalog deploy: {e}"));
                }
            }
        }
        client
            .predict(&PredictRequest::text(format!("5,{}", cat.sa.vocab[0])).plan(ids[0]))
            .map_err(|e| format!("first predict: {e}"))?;
        let took = t0.elapsed().as_secs_f64();
        Ok((Server { rt, fe, ids }, took))
    }

    fn addr(&self) -> SocketAddr {
        self.fe.addr()
    }

    fn stop(self) {
        self.fe.stop();
    }
}

/// The workload's request streams, with references, before any plan id
/// is known.
fn prepare(w: Workload, cat: &Catalog, stream: &Stream) -> Vec<Vec<Prepared>> {
    let text = |rows: &std::ops::Range<usize>| -> PredictRequest {
        if rows.len() == 1 {
            PredictRequest::text(stream.lines[rows.start].clone())
        } else {
            PredictRequest::text_batch(stream.lines[rows.clone()].iter().cloned())
        }
    };
    if w == Workload::SaChurn {
        let n_slots = cat.churn.images.len();
        let n_versions = cat.churn_config.n_versions;
        let n_lines = stream.lines.len();
        let jobs: Vec<_> = (0..n_slots * n_versions)
            .flat_map(|sv| {
                let graph = &cat.churn_graphs[sv / n_versions][sv % n_versions];
                stream.lines.iter().map(move |l| (graph, l.as_str()))
            })
            .collect();
        let refs = inputs::reference_scores(&jobs);
        return stream
            .conns
            .iter()
            .map(|conn| {
                conn.iter()
                    .map(|r| {
                        let slot = r.plans[0];
                        Prepared {
                            req: text(&r.rows),
                            dest: Dest::Slot(slot),
                            expect: Expect::AnyVersion {
                                slot,
                                refs: (0..n_versions)
                                    .map(|v| refs[(slot * n_versions + v) * n_lines + r.rows.start])
                                    .collect(),
                            },
                            records: 1,
                            unit_range: true,
                        }
                    })
                    .collect()
            })
            .collect();
    }
    let mut jobs = Vec::new();
    for r in stream.conns.iter().flatten() {
        for &p in &r.plans {
            jobs.extend(
                r.rows
                    .clone()
                    .map(|row| (cat.graph(p), stream.lines[row].as_str())),
            );
        }
    }
    let refs = inputs::reference_scores(&jobs);
    let mut next = 0;
    let mut out = Vec::new();
    for conn in &stream.conns {
        let mut prepared = Vec::new();
        for r in conn {
            for &p in &r.plans {
                let n = r.rows.len();
                prepared.push(Prepared {
                    req: text(&r.rows),
                    dest: Dest::Catalog(p),
                    expect: Expect::Scores(refs[next..next + n].to_vec()),
                    records: n as u32,
                    unit_range: p < cat.n_sa(),
                });
                next += n;
            }
        }
        out.push(prepared);
    }
    out
}

/// Drives the workload for `n_slices` consecutive slices of `slice` each
/// (and, on `sa_churn`, the lifecycle schedule from this thread). Every
/// slice opens fresh connections: the FrontEnd's reactors race to accept
/// them, so which reactor serves which connection is drawn again per slice
/// instead of once per run. Returns the region's start.
#[allow(clippy::too_many_arguments)]
fn traffic(
    w: Workload,
    addr: SocketAddr,
    prepared: &[Vec<Prepared>],
    cursors: &mut [usize],
    logs: &mut [ConnLog],
    churn: Option<&mut Churn<'_>>,
    epoch: Instant,
    n_slices: usize,
    slice: Duration,
) -> Instant {
    let start = Instant::now();
    let ends: Vec<Instant> = (1..=n_slices as u32).map(|k| start + slice * k).collect();
    std::thread::scope(|s| {
        for ((stream, cursor), log) in prepared.iter().zip(cursors.iter_mut()).zip(logs.iter_mut())
        {
            let ends = &ends;
            s.spawn(move || {
                for &end in ends {
                    match w {
                        Workload::AcBatch => {
                            drive::pipelined(addr, stream, cursor, AC_WINDOW, epoch, end, log)
                        }
                        Workload::SaFanoutCached => {
                            drive::pipelined(addr, stream, cursor, FANOUT_WINDOW, epoch, end, log)
                        }
                        Workload::SaSingle | Workload::SaChurn => {
                            drive::closed_loop(addr, stream, cursor, epoch, end, log)
                        }
                    }
                }
            });
        }
        if let Some(churn) = churn {
            let mut k = 0u32;
            for &end in &ends {
                let mut client = match Client::connect_v2(addr) {
                    Ok(c) => c,
                    Err(e) => {
                        churn.counts.error(OpKind::Deploy, format!("connect: {e}"));
                        continue;
                    }
                };
                loop {
                    let due = start + CHURN_PERIOD * k;
                    if due >= end {
                        break;
                    }
                    sleep_until(due);
                    churn.cycle(&mut client, epoch);
                    k += 1;
                }
            }
        }
    });
    start
}

/// Lifecycle round trips in ms: the per-slice median, summarised over
/// `n` slices of `[start_ns, start_ns + dur_ns)` like every other metric.
fn lifecycle_ms(v: &[Sample], start_ns: u64, dur_ns: u64, n: usize) -> Result<f64, String> {
    let sl = stats::slices(v, start_ns, dur_ns, n);
    over_slices(&sl, Better::Lower, |s| s.quantile_us(0.5))
        .map(|us| us / 1e3)
        .ok_or_else(|| "no lifecycle cycle completed".to_string())
}

/// Lifecycle probe on an otherwise idle server: the churn slots deploy,
/// run back-to-back cycles for `PROBE` and are torn down again, after
/// which the footprint must be what it was. Returns the `DEPLOY`+`SWAP`
/// and `UNDEPLOY` figures in ms, and the number of cycles.
fn probe(
    server: &Server,
    cat: &Catalog,
    epoch: Instant,
    counts: &mut Counts,
) -> Result<(f64, f64, u64), String> {
    let mut client = Client::connect_v2(server.addr()).map_err(|e| format!("connect: {e}"))?;
    let before = Footprint::of(&server.rt);
    let mut churn = Churn::start(&mut client, &cat.churn, cat.churn_config.n_versions, epoch)
        .map_err(|e| format!("probe deploy: {e}"))?;
    let start = Instant::now();
    while start.elapsed() < PROBE {
        churn.cycle(&mut client, epoch);
    }
    churn.teardown(&mut client);
    counts.merge(&churn.counts);
    check_footprint(before, &server.rt, counts);
    let (start_ns, dur_ns) = (since(epoch, start), PROBE.as_nanos() as u64);
    Ok((
        lifecycle_ms(&churn.deploy, start_ns, dur_ns, PROBE_SLICES)?,
        lifecycle_ms(&churn.undeploy, start_ns, dur_ns, PROBE_SLICES)?,
        churn.cycles,
    ))
}

/// After a churn teardown, the Object Store and stage catalog must be
/// exactly where they were before the churn slots deployed.
fn check_footprint(before: Footprint, rt: &Runtime, counts: &mut Counts) {
    let after = Footprint::of(rt);
    if after != before {
        let msg = format!("churn teardown left {after:?}, started from {before:?}");
        counts.wrong_after(OpKind::Undeploy, 1, msg);
    }
}

/// One named metric of the final JSON line.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

fn json_line(correct: bool, counts: &Counts, metrics: &[Metric]) -> Result<String, String> {
    let mut body = Vec::new();
    for m in metrics {
        if !m.value.is_finite() {
            return Err(format!("metric {} is not finite", m.name));
        }
        body.push(format!(
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        ));
    }
    Ok(format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        counts.total_attempted(),
        counts.total_failed(),
        body.join(", ")
    ))
}

fn run(args: &Args) -> Result<(), String> {
    let w = args.workload;
    let epoch = Instant::now();
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "servebench workload={} seed={} seconds={} trace={} nproc={nproc}",
        w.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );

    // ---- Inputs: catalog, seeded streams, references (not timed). ------
    let cat = Catalog::build();
    let config = RuntimeConfig {
        materialization_budget: if w == Workload::SaFanoutCached {
            FANOUT_CACHE_BYTES
        } else {
            0
        },
        ..RuntimeConfig::default()
    };
    let churn_alpha = cat.churn_config.zipf_alpha;
    let stream = match w {
        Workload::SaSingle => inputs::sa_single(args.seed, &cat.sa.vocab, cat.n_sa()),
        Workload::AcBatch => {
            inputs::ac_batch(args.seed, cat.ac_dim, cat.ac.graphs.len(), cat.n_sa())
        }
        Workload::SaFanoutCached => {
            inputs::sa_fanout(args.seed, &cat.sa.vocab, &cat.fanout_group(FANOUT_K))
        }
        Workload::SaChurn => inputs::sa_churn(
            args.seed,
            &cat.churn_vocab,
            cat.churn.images.len(),
            churn_alpha,
        ),
    };
    let mut prepared = prepare(w, &cat, &stream);
    let per_conn_rate = if w.batched() { 4_000 } else { 40_000 };
    let capacity = (args.seconds as usize + 1) * per_conn_rate;
    let mut logs: Vec<ConnLog> = prepared
        .iter()
        .map(|_| ConnLog::with_capacity(capacity, w == Workload::SaChurn))
        .collect();
    let mut cursors = vec![0usize; prepared.len()];
    let mut counts = Counts::default();
    let n_versions = cat.churn_config.n_versions;
    println!(
        "inputs ready after {:.3} s; plans addressed {}",
        epoch.elapsed().as_secs_f64(),
        stream.plans_addressed()
    );

    // ---- Set-up (timed) and warm-up. -----------------------------------
    let rss0 = procfs::rss_bytes();
    let (server, first_setup) = Server::start(&config, &cat, &mut counts)?;
    let mut setup_s = vec![first_setup];
    let after_setup = server.rt.metrics();
    let catalog_stages = server.rt.catalog_size();
    for p in prepared.iter_mut().flatten() {
        p.bind(&server.ids);
    }
    let addr = server.addr();
    let churn_before = Footprint::of(&server.rt);
    let mut churn = match w {
        Workload::SaChurn => {
            let mut client = Client::connect_v2(addr).map_err(|e| format!("connect: {e}"))?;
            Some(
                Churn::start(&mut client, &cat.churn, n_versions, epoch)
                    .map_err(|e| format!("churn deploy: {e}"))?,
            )
        }
        _ => None,
    };
    traffic(
        w,
        addr,
        &prepared,
        &mut cursors,
        &mut logs,
        churn.as_mut(),
        epoch,
        1,
        WARMUP,
    );
    let rss1 = procfs::rss_bytes();
    let mem_mb = rss1.saturating_sub(rss0) as f64 / 1e6;

    // ---- Timed region. -------------------------------------------------
    for log in &mut logs {
        log.samples.clear();
    }
    let gen_ivcsw0: u64 = logs.iter().map(|l| l.involuntary_switches).sum();
    let churn_cycles0 = churn.as_ref().map_or(0, |c| c.cycles);
    let m0 = server.rt.metrics();
    let (steal0, cpu0, ivcsw0) = (
        procfs::steal_ticks(),
        procfs::cpu_ticks(),
        procfs::involuntary_switches(),
    );
    let reactors0 = procfs::thread_cpu_ns("pretzel-reactor");
    let dur = Duration::from_secs(args.seconds);
    let n_slices = w.slices(args.seconds);
    let slice = dur / n_slices as u32;
    let start = traffic(
        w,
        addr,
        &prepared,
        &mut cursors,
        &mut logs,
        churn.as_mut(),
        epoch,
        n_slices,
        slice,
    );
    let (steal1, cpu1, ivcsw1) = (
        procfs::steal_ticks(),
        procfs::cpu_ticks(),
        procfs::involuntary_switches(),
    );
    let reactors1 = procfs::thread_cpu_ns("pretzel-reactor");
    let m1 = server.rt.metrics();
    let gen_ivcsw: u64 = logs.iter().map(|l| l.involuntary_switches).sum::<u64>() - gen_ivcsw0;
    let start_ns = since(epoch, start);
    let dur_ns = slice.as_nanos() as u64 * n_slices as u64;
    let samples: Vec<Sample> = logs
        .iter()
        .flat_map(|l| l.samples.iter().copied())
        .collect();
    let slices = stats::slices(&samples, start_ns, dur_ns, n_slices);
    let phase_requests = samples.len() as f64;
    let phase_records: f64 = samples.iter().map(|s| f64::from(s.records)).sum();
    for log in &logs {
        counts.merge(&log.counts);
    }

    // ---- Traced run: paired replay while the churn aliases still serve.
    // The bare physical plan never consults the materialization cache, and
    // with the cache on the nested calls on one request would find it warm
    // or cold depending on their order; so on `sa_fanout_cached` the replay
    // runs on a cache-off replica, and the cache's own cost comes from the
    // probe histograms of the timed region. ------------------------------
    let mut tracer = Tracer::new(epoch);
    let mut paired_records = 0.0;
    if args.trace {
        let replica = match config.materialization_budget {
            0 => None,
            _ => {
                let cache_off = RuntimeConfig {
                    materialization_budget: 0,
                    ..config.clone()
                };
                Some(Server::start(&cache_off, &cat, &mut counts)?.0)
            }
        };
        let target = replica.as_ref().unwrap_or(&server);
        let (singles, batches) = paired_inputs(w, &stream, &prepared, target);
        paired_records = batches.iter().map(|b| b.lines.len()).sum::<usize>() as f64;
        layers::paired_singles(target.addr(), &target.rt, &singles, &mut tracer)
            .map_err(|e| format!("paired singles: {e}"))?;
        layers::paired_batches(target.addr(), &target.rt, &batches, &mut tracer)
            .map_err(|e| format!("paired batches: {e}"))?;
        if let Some(replica) = replica {
            replica.stop();
        }
    }

    // ---- Lifecycle: sa_churn measured it under traffic and now tears its
    // slots down; the other workloads run the probe once on the idle
    // server, which their traffic does not touch. -------------------------
    let mut probe_lat = (0.0, 0.0, 0);
    let mut churn_lat = (Vec::new(), Vec::new());
    if let Some(mut churn) = churn {
        let mut client = Client::connect_v2(addr).map_err(|e| format!("connect: {e}"))?;
        churn.teardown(&mut client);
        counts.merge(&churn.counts);
        check_footprint(churn_before, &server.rt, &mut counts);
        let alias_obs: Vec<_> = logs
            .iter()
            .flat_map(|l| l.alias_obs.iter().copied())
            .collect();
        let stale = churn.stale_answers(&alias_obs);
        if stale > 0 {
            counts.wrong_after(
                OpKind::Predict,
                stale as u64,
                format!("{stale} alias answers from unbound versions"),
            );
        }
        println!(
            "lifecycle cycles {} in the timed region under traffic ({} in all)",
            churn.cycles - churn_cycles0,
            churn.cycles
        );
        churn_lat = (churn.deploy, churn.undeploy);
    } else {
        probe_lat = probe(&server, &cat, epoch, &mut counts)?;
    }
    if w == Workload::SaFanoutCached && server.rt.metrics().mat_cache.is_none_or(|c| c.hits == 0) {
        counts.wrong_after(
            OpKind::Batch,
            1,
            "materialization cache reported no hits".into(),
        );
    }
    if args.trace {
        layers::lifecycle_replay(
            &server.rt,
            &cat.churn,
            n_versions,
            LIFECYCLE_REPLAY_CYCLES,
            &mut tracer,
        )
        .map_err(|e| format!("lifecycle replay: {e}"))?;
    }
    let stages_reused = server.rt.lifecycle_stats().stages_reused();
    server.stop();
    if args.trace {
        layers::deploy_replay(&cat.images, &config, &mut tracer)
            .map_err(|e| format!("deploy replay: {e}"))?;
    } else {
        for _ in 1..SETUPS {
            let (again, took) = Server::start(&config, &cat, &mut counts)?;
            setup_s.push(took);
            again.stop();
        }
    }

    // ---- Report. -------------------------------------------------------
    let attempted = |k: OpKind| counts.attempted[k as usize];
    let failed = |k: OpKind| counts.failed[k as usize];
    let ops: Vec<String> = OpKind::ALL
        .iter()
        .map(|&k| format!("{} {}/{}", k.name(), attempted(k), failed(k)))
        .collect();
    println!(
        "ops (attempted/failed): {}; {} failed a check",
        ops.join(", "),
        counts.wrong
    );
    for m in &counts.messages {
        println!("failure: {m}");
    }
    let per_slice: Vec<usize> = slices.iter().map(|s| s.lat_us.len()).collect();
    let min_slice = per_slice.iter().copied().min().unwrap_or(0);
    println!(
        "slices {n_slices} x {:.1} s, samples per slice {per_slice:?}; p99 {} ({P99_SAMPLES} per slice needed)",
        slice.as_secs_f64(),
        if min_slice >= P99_SAMPLES { "supported" } else { "NOT supported" }
    );
    let cpu_s = (cpu1 - cpu0) as f64 / procfs::TICKS_PER_S;
    println!(
        "contention steal_ticks {} involuntary_switches {} cpu_s {cpu_s:.2} of {:.0} available",
        steal1.saturating_sub(steal0),
        ivcsw1.saturating_sub(ivcsw0) + gen_ivcsw,
        dur.as_secs_f64() * nproc as f64
    );
    let reactor_s: Vec<String> = reactors1
        .iter()
        .map(|&(tid, ns)| {
            let before = reactors0.iter().find(|r| r.0 == tid).map_or(0, |r| r.1);
            format!("{:.2}", (ns - before) as f64 / 1e9)
        })
        .collect();
    println!("reactor threads cpu_s {}", reactor_s.join(" "));
    let show = |v: &[f64]| {
        v.iter()
            .map(|x| format!("{x:.4}"))
            .collect::<Vec<_>>()
            .join(" ")
    };
    println!("setup_s samples {}", show(&setup_s));

    let rate = |s: &Slice| s.ops_per_s();
    let records = |s: &Slice| s.records_per_s();
    let p50 = |s: &Slice| s.quantile_us(0.5);
    let p99 = |s: &Slice| s.quantile_us(0.99);
    let need = |v: Option<f64>, what: &str| {
        v.ok_or_else(|| format!("no {what} completed in the timed region"))
    };
    let (deploy_ms, undeploy_ms) = if w == Workload::SaChurn {
        (
            lifecycle_ms(&churn_lat.0, start_ns, dur_ns, n_slices)?,
            lifecycle_ms(&churn_lat.1, start_ns, dur_ns, n_slices)?,
        )
    } else {
        println!(
            "lifecycle probe {:.1} s on the idle server: {} cycles, deploy_ms {:.4} undeploy_ms {:.4}",
            PROBE.as_secs_f64(),
            probe_lat.2,
            probe_lat.0,
            probe_lat.1
        );
        (probe_lat.0, probe_lat.1)
    };
    let e2e = vec![
        metric("setup_s", median(&setup_s), "s"),
        metric("mem_mb", mem_mb, "MB"),
        metric(
            "req_per_s",
            need(over_slices(&slices, Better::Higher, rate), "request")?,
            "1/s",
        ),
        metric(
            "req_p50_us",
            need(over_slices(&slices, Better::Lower, p50), "request")?,
            "us",
        ),
        metric(
            "req_p99_us",
            need(over_slices(&slices, Better::Lower, p99), "request")?,
            "us",
        ),
        metric(
            "records_per_s",
            need(over_slices(&slices, Better::Higher, records), "request")?,
            "1/s",
        ),
        metric("deploy_p50_ms", deploy_ms, "ms"),
        metric("undeploy_p50_ms", undeploy_ms, "ms"),
    ];
    for m in &e2e {
        println!("e2e {} {} {}", m.name, m.value, m.unit);
    }
    let per_slice_show = |f: &dyn Fn(&Slice) -> f64| {
        slices
            .iter()
            .filter(|s| !s.lat_us.is_empty())
            .map(|s| format!("{:.1}", f(s)))
            .collect::<Vec<_>>()
            .join(" ")
    };
    println!("slice req_per_s {}", per_slice_show(&rate));
    println!("slice req_p50_us {}", per_slice_show(&p50));
    println!("slice req_p99_us {}", per_slice_show(&p99));

    let correct = counts.total_failed() == 0;
    let metrics = if args.trace {
        for (c, log) in logs.iter().enumerate() {
            for (i, s) in log.samples.iter().enumerate() {
                let end = epoch + Duration::from_nanos(s.done_ns);
                let begin = end - Duration::from_nanos(s.lat_ns);
                let req = ((c as u64) << 32) | i as u64;
                tracer.push("client.request", None, req, begin, end);
            }
        }
        let path = std::path::PathBuf::from(format!(
            "servebench/out/trace-{}-seed{}.csv",
            w.name(),
            args.seed
        ));
        match tracer.write_csv(&path) {
            Ok(()) => println!("spans {} written to {}", tracer.spans.len(), path.display()),
            Err(e) => println!("spans not written to {}: {e}", path.display()),
        }
        let layers = layer_metrics(&LayerInputs {
            tracer: &tracer,
            deltas: Deltas::between(&m0, &m1),
            ops: if w.batched() {
                phase_records
            } else {
                phase_requests
            },
            records: phase_records,
            paired_records,
            cpu_s,
            after_setup: &after_setup,
            catalog_stages,
            stages_reused,
        });
        for m in &layers {
            println!("layer {} {} {}", m.name, m.value, m.unit);
        }
        layers
    } else {
        e2e
    };
    println!("{}", json_line(correct, &counts, &metrics)?);
    Ok(())
}

/// What the per-layer metrics are computed from.
struct LayerInputs<'a> {
    tracer: &'a Tracer,
    deltas: Deltas,
    /// Requests (single-record workloads) or records (batch workloads)
    /// completed in the timed region.
    ops: f64,
    records: f64,
    /// Records in the paired batch replay.
    paired_records: f64,
    cpu_s: f64,
    after_setup: &'a MetricsSnapshot,
    catalog_stages: usize,
    stages_reused: u64,
}

fn layer_metrics(l: &LayerInputs<'_>) -> Vec<Metric> {
    let (t, d) = (l.tracer, &l.deltas);
    for name in [
        "frontend.predict",
        "rr.predict_source",
        "physical.execute_borrowed",
        "frontend.batch",
        "ingest.assemble",
        "sched.predict_batch_wait",
        "physical.execute_batch",
    ] {
        println!(
            "span {name} self_p50_us {:.3}",
            t.self_median_ns(name) / 1e3
        );
    }
    let mean = |sum: u64, n: u64| per(sum as f64, n as f64);
    let count = |name, n: u64| metric(name, n as f64, "count");
    vec![
        metric(
            "frontend.rtt_p50_us",
            t.quantile_ns("frontend.predict", 0.5) / 1e3,
            "us",
        ),
        metric(
            "frontend.overhead_p50_us",
            t.self_median_ns("frontend.predict") / 1e3,
            "us",
        ),
        metric(
            "frontend.decode_ns_per_record",
            per(d.decode_ns as f64, l.records),
            "ns",
        ),
        metric(
            "frontend.flush_mean_us",
            mean(d.flush_ns, d.flush_count) / 1e3,
            "us",
        ),
        metric(
            "ingest.assemble_ns_per_record",
            per(t.total_ns("ingest.assemble"), l.paired_records),
            "ns",
        ),
        metric(
            "rr.predict_p50_us",
            t.quantile_ns("rr.predict_source", 0.5) / 1e3,
            "us",
        ),
        metric(
            "rr.predict_p99_us",
            t.quantile_ns("rr.predict_source", 0.99) / 1e3,
            "us",
        ),
        count("pools.rr_misses", d.rr_misses),
        metric(
            "physical.row_p50_us",
            t.quantile_ns("physical.execute_borrowed", 0.5) / 1e3,
            "us",
        ),
        metric(
            "physical.batch_ns_per_record",
            per(t.total_ns("physical.execute_batch"), l.paired_records),
            "ns",
        ),
        metric(
            "sched.batch_p50_ms",
            t.quantile_ns("sched.predict_batch_wait", 0.5) / 1e6,
            "ms",
        ),
        metric(
            "sched.queue_wait_mean_us",
            mean(d.queue_wait_ns, d.queue_wait_count) / 1e3,
            "us",
        ),
        metric(
            "sched.stage_exec_mean_us",
            mean(d.stage_ns, d.stage_count) / 1e3,
            "us",
        ),
        count("sched.stage_events", d.stage_events),
        count("sched.steals", d.steals),
        count("pools.executor_misses", d.executor_misses),
        count("matcache.hits", d.cache_hits),
        count("matcache.misses", d.cache_misses),
        metric(
            "matcache.hit_ratio",
            mean(d.cache_hits, d.cache_hits + d.cache_misses),
            "ratio",
        ),
        count("matcache.evictions", d.cache_evictions),
        metric(
            "matcache.probe_hit_mean_ns",
            mean(d.probe_hit_ns, d.probe_hit_count),
            "ns",
        ),
        metric(
            "matcache.probe_miss_mean_ns",
            mean(d.probe_miss_ns, d.probe_miss_count),
            "ns",
        ),
        metric("deploy.decode_ms", t.total_ns("deploy.decode") / 1e6, "ms"),
        metric(
            "deploy.optimize_ms",
            t.total_ns("deploy.optimize") / 1e6,
            "ms",
        ),
        metric(
            "deploy.register_ms",
            t.total_ns("deploy.register") / 1e6,
            "ms",
        ),
        metric(
            "store.unique_mb",
            l.after_setup.store.unique_bytes as f64 / 1e6,
            "MB",
        ),
        metric(
            "store.bytes_saved_mb",
            l.after_setup.store.bytes_saved as f64 / 1e6,
            "MB",
        ),
        count("catalog.stages", l.catalog_stages as u64),
        metric(
            "lifecycle.swap_us",
            t.quantile_ns("lifecycle.swap", 0.5) / 1e3,
            "us",
        ),
        metric(
            "lifecycle.undeploy_ms",
            t.quantile_ns("lifecycle.undeploy", 0.5) / 1e6,
            "ms",
        ),
        count("lifecycle.stages_reused", l.stages_reused),
        metric("proc.cpu_us_per_op", per(l.cpu_s * 1e6, l.ops), "us"),
    ]
}

/// The traced run's paired-replay inputs, taken from connection 0's
/// stream: single records (the rows of the first requests), and batches
/// (the workload's own multi-record requests, or consecutive single-record
/// requests grouped onto the first one's plan).
fn paired_inputs<'a>(
    w: Workload,
    stream: &'a Stream,
    prepared: &[Vec<Prepared>],
    server: &Server,
) -> (Vec<Single<'a>>, Vec<Batch<'a>>) {
    let id_of = |p: &Prepared| match p.dest {
        Dest::Catalog(i) => server.ids[i],
        Dest::Slot(s) => server
            .rt
            .resolve(&ChurnWorkload::alias(s))
            .expect("churn alias is bound"),
    };
    let flat: Vec<(&Prepared, std::ops::Range<usize>)> = stream.conns[0]
        .iter()
        .flat_map(|r| r.plans.iter().map(move |_| r.rows.clone()))
        .zip(&prepared[0])
        .map(|(rows, p)| (p, rows))
        .collect();
    let singles: Vec<Single<'a>> = flat
        .iter()
        .flat_map(|(p, rows)| {
            let plan = id_of(p);
            rows.clone().map(move |row| Single {
                plan,
                line: stream.lines[row].as_str(),
            })
        })
        .take(PAIRED_SINGLES)
        .collect();
    let batches = if w.batched() {
        flat.iter()
            .take(PAIRED_BATCHES)
            .map(|(p, rows)| Batch {
                plan: id_of(p),
                lines: stream.lines[rows.clone()]
                    .iter()
                    .map(String::as_str)
                    .collect(),
            })
            .collect()
    } else {
        flat.chunks(PAIRED_BATCH_ROWS)
            .take(PAIRED_BATCHES)
            .map(|chunk| Batch {
                plan: id_of(chunk[0].0),
                lines: chunk
                    .iter()
                    .map(|(_, rows)| stream.lines[rows.start].as_str())
                    .collect(),
            })
            .collect()
    };
    (singles, batches)
}
