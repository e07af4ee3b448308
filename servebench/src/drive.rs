//! Client-side traffic generators: what a wire-v2 client of the
//! FrontEnd does, with every response checked.

use crate::check::{self, Mismatch};
use crate::procfs;
use crate::stats::Sample;
use pretzel_core::frontend::{Client, PendingPredict, PredictRequest, Session};
use pretzel_core::runtime::PlanId;
use pretzel_workload::churn::ChurnWorkload;
use std::collections::VecDeque;
use std::net::SocketAddr;
use std::time::Instant;

/// Operation kinds the run report counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    Predict,
    Batch,
    Deploy,
    Swap,
    Undeploy,
}

impl OpKind {
    pub const ALL: [OpKind; 5] = [
        OpKind::Predict,
        OpKind::Batch,
        OpKind::Deploy,
        OpKind::Swap,
        OpKind::Undeploy,
    ];

    pub fn name(self) -> &'static str {
        match self {
            OpKind::Predict => "predict",
            OpKind::Batch => "batch",
            OpKind::Deploy => "deploy",
            OpKind::Swap => "swap",
            OpKind::Undeploy => "undeploy",
        }
    }
}

/// Attempted and failed operations, per kind, plus the first failures'
/// messages. A failure is an error response or a response whose check
/// failed; `wrong` counts the latter.
#[derive(Debug, Clone, Default)]
pub struct Counts {
    pub attempted: [u64; 5],
    pub failed: [u64; 5],
    pub wrong: u64,
    pub messages: Vec<String>,
}

impl Counts {
    pub fn ok(&mut self, kind: OpKind) {
        self.attempted[kind as usize] += 1;
    }

    pub fn error(&mut self, kind: OpKind, msg: String) {
        self.attempted[kind as usize] += 1;
        self.failed[kind as usize] += 1;
        if self.messages.len() < 8 {
            self.messages.push(format!("{}: {msg}", kind.name()));
        }
    }

    /// A response arrived but failed its check.
    pub fn wrong(&mut self, kind: OpKind, msg: String) {
        self.wrong += 1;
        self.error(kind, msg);
    }

    /// `n` operations already counted as attempted failed a check made
    /// after the run (the alias-binding history, the churn footprint).
    pub fn wrong_after(&mut self, kind: OpKind, n: u64, msg: String) {
        self.wrong += n;
        self.failed[kind as usize] += n;
        if self.messages.len() < 8 {
            self.messages.push(format!("{}: {msg}", kind.name()));
        }
    }

    pub fn merge(&mut self, other: &Counts) {
        for k in 0..5 {
            self.attempted[k] += other.attempted[k];
            self.failed[k] += other.failed[k];
        }
        self.wrong += other.wrong;
        for m in &other.messages {
            if self.messages.len() < 8 {
                self.messages.push(m.clone());
            }
        }
    }

    pub fn total_attempted(&self) -> u64 {
        self.attempted.iter().sum()
    }

    pub fn total_failed(&self) -> u64 {
        self.failed.iter().sum()
    }
}

/// What a response must equal.
#[derive(Debug, Clone)]
pub enum Expect {
    /// One reference score per record.
    Scores(Vec<f32>),
    /// An alias-addressed single record: the reference under each version
    /// the alias's slot cycles through; which versions match is logged
    /// and checked against the binding history after the run.
    AnyVersion { slot: usize, refs: Vec<f32> },
}

/// Where a prepared request goes once the catalog is deployed.
#[derive(Debug, Clone, Copy)]
pub enum Dest {
    /// A catalog index (SA first, then AC).
    Catalog(usize),
    /// A churn slot's alias.
    Slot(usize),
}

/// A request built before the run, with its expected answer.
#[derive(Debug, Clone)]
pub struct Prepared {
    /// Payloads only until [`Prepared::bind`] adds the target.
    pub req: PredictRequest,
    pub dest: Dest,
    pub expect: Expect,
    pub records: u32,
    /// Sentiment scores must lie in `[0, 1]`.
    pub unit_range: bool,
}

impl Prepared {
    /// Addresses the request at its plan id (catalog) or alias (churn),
    /// moving the payloads rather than copying them.
    pub fn bind(&mut self, ids: &[PlanId]) {
        let req = std::mem::replace(&mut self.req, PredictRequest::batch(Vec::new()));
        self.req = match self.dest {
            Dest::Catalog(i) => req.plan(ids[i]),
            Dest::Slot(s) => req.alias(ChurnWorkload::alias(s)),
        };
    }
}

/// An alias-addressed answer: which versions it matched, and when the
/// request was in flight (ns since the run epoch).
#[derive(Debug, Clone, Copy)]
pub struct AliasObs {
    pub slot: u16,
    pub matched: u16,
    pub sent_ns: u64,
    pub done_ns: u64,
}

/// Everything one generator connection recorded.
#[derive(Debug, Default)]
pub struct ConnLog {
    pub samples: Vec<Sample>,
    pub alias_obs: Vec<AliasObs>,
    pub counts: Counts,
    pub involuntary_switches: u64,
}

impl ConnLog {
    /// A log whose sample buffers are already resident, so filling them
    /// during the run moves neither the memory reading nor the timing.
    pub fn with_capacity(samples: usize, alias: bool) -> ConnLog {
        let mut log = ConnLog::default();
        log.samples.resize(
            samples,
            Sample {
                done_ns: 1,
                lat_ns: 1,
                records: 1,
            },
        );
        log.samples.clear();
        if alias {
            let obs = AliasObs {
                slot: 1,
                matched: 1,
                sent_ns: 1,
                done_ns: 1,
            };
            log.alias_obs.resize(samples, obs);
            log.alias_obs.clear();
        }
        log
    }

    fn record(&mut self, epoch: Instant, sent: Instant, done: Instant, records: u32) {
        self.samples.push(Sample {
            done_ns: done.duration_since(epoch).as_nanos() as u64,
            lat_ns: done.duration_since(sent).as_nanos() as u64,
            records,
        });
    }

    fn judge(
        &mut self,
        p: &Prepared,
        result: pretzel_data::Result<Vec<f32>>,
        epoch: Instant,
        sent: Instant,
    ) {
        let kind = if p.records > 1 {
            OpKind::Batch
        } else {
            OpKind::Predict
        };
        let done = Instant::now();
        let scores = match result {
            Ok(s) => s,
            Err(e) => return self.counts.error(kind, e.to_string()),
        };
        match &p.expect {
            Expect::Scores(want) => match check::check(&scores, want, p.unit_range) {
                Ok(()) => self.counts.ok(kind),
                Err(m) => return self.counts.wrong(kind, m.to_string()),
            },
            Expect::AnyVersion { slot, refs } => {
                let got = match scores.as_slice() {
                    [s] => *s,
                    _ => {
                        let m = Mismatch::Length {
                            got: scores.len(),
                            want: 1,
                        };
                        return self.counts.wrong(kind, m.to_string());
                    }
                };
                let matched = refs
                    .iter()
                    .enumerate()
                    .filter(|(_, &r)| check::close(got, r))
                    .fold(0u16, |m, (v, _)| m | (1 << v));
                if matched == 0 || !(0.0..=1.0).contains(&got) {
                    return self.counts.wrong(
                        kind,
                        format!("alias slot {slot}: score {got} matches no version"),
                    );
                }
                self.counts.ok(kind);
                self.alias_obs.push(AliasObs {
                    slot: *slot as u16,
                    matched,
                    sent_ns: sent.duration_since(epoch).as_nanos() as u64,
                    done_ns: done.duration_since(epoch).as_nanos() as u64,
                });
            }
        }
        self.record(epoch, sent, done, p.records);
    }
}

/// Closed loop: one request outstanding on a sequential v2 connection,
/// cycling through `stream` from `*cursor` until `deadline`.
pub fn closed_loop(
    addr: SocketAddr,
    stream: &[Prepared],
    cursor: &mut usize,
    epoch: Instant,
    deadline: Instant,
    log: &mut ConnLog,
) {
    let ivcsw0 = procfs::thread_involuntary_switches();
    let mut client = match Client::connect_v2(addr) {
        Ok(c) => c,
        Err(e) => return log.counts.error(OpKind::Predict, format!("connect: {e}")),
    };
    loop {
        let sent = Instant::now();
        if sent >= deadline {
            break;
        }
        let p = &stream[*cursor % stream.len()];
        *cursor += 1;
        let result = client.predict_many(&p.req);
        log.judge(p, result, epoch, sent);
    }
    log.involuntary_switches += procfs::thread_involuntary_switches() - ivcsw0;
}

/// Pipelined: `window` requests kept in flight on one v2 session,
/// resolved oldest first, cycling through `stream` until `deadline`;
/// requests in flight at the deadline are drained and checked.
pub fn pipelined(
    addr: SocketAddr,
    stream: &[Prepared],
    cursor: &mut usize,
    window: usize,
    epoch: Instant,
    deadline: Instant,
    log: &mut ConnLog,
) {
    let ivcsw0 = procfs::thread_involuntary_switches();
    let session = match Session::connect(addr) {
        Ok(s) => s,
        Err(e) => return log.counts.error(OpKind::Batch, format!("connect: {e}")),
    };
    let mut inflight: VecDeque<(PendingPredict, Instant, usize)> = VecDeque::with_capacity(window);
    loop {
        while inflight.len() < window && Instant::now() < deadline {
            let i = *cursor % stream.len();
            *cursor += 1;
            let sent = Instant::now();
            match session.submit(&stream[i].req) {
                Ok(pending) => inflight.push_back((pending, sent, i)),
                Err(e) => log.counts.error(OpKind::Batch, e.to_string()),
            }
        }
        let Some((pending, sent, i)) = inflight.pop_front() else {
            break;
        };
        let result = pending.wait();
        log.judge(&stream[i], result, epoch, sent);
    }
    log.involuntary_switches += procfs::thread_involuntary_switches() - ivcsw0;
}

/// Sleeps until `due` (returns at once when it has passed).
pub fn sleep_until(due: Instant) {
    let now = Instant::now();
    if due > now {
        std::thread::sleep(due - now);
    }
}

/// Ns since `epoch`.
pub fn since(epoch: Instant, t: Instant) -> u64 {
    t.duration_since(epoch).as_nanos() as u64
}
