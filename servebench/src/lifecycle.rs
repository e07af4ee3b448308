//! Model churn over the wire: deploy, swap and undeploy of the churn
//! slots' versions, with the alias-binding history the scorer's answers
//! are checked against.

use crate::drive::{since, AliasObs, Counts, OpKind};
use crate::stats::Sample;
use pretzel_core::frontend::Client;
use pretzel_core::runtime::{PlanId, Runtime};
use pretzel_workload::churn::ChurnWorkload;
use std::time::Instant;

/// When one version was bound to its slot's alias: from the moment the
/// swap onto it was sent until the swap away from it returned (ns since
/// the run epoch; `u64::MAX` while still bound).
#[derive(Debug, Clone, Copy)]
struct Binding {
    version: usize,
    from_ns: u64,
    to_ns: u64,
}

/// The churn slots' live versions and binding history.
pub struct Churn<'a> {
    workload: &'a ChurnWorkload,
    n_versions: usize,
    live: Vec<(PlanId, usize)>,
    history: Vec<Vec<Binding>>,
    /// Cycles run so far; cycle `i` rolls slot `i % slots` forward.
    pub cycles: u64,
    /// `DEPLOY` + `SWAP` round trips and `UNDEPLOY` round trips.
    pub deploy: Vec<Sample>,
    pub undeploy: Vec<Sample>,
    pub counts: Counts,
}

impl<'a> Churn<'a> {
    /// Deploys version 0 of every slot behind its alias.
    pub fn start(
        client: &mut Client,
        workload: &'a ChurnWorkload,
        n_versions: usize,
        epoch: Instant,
    ) -> pretzel_data::Result<Churn<'a>> {
        let mut churn = Churn {
            workload,
            n_versions,
            live: Vec::new(),
            history: Vec::new(),
            cycles: 0,
            deploy: Vec::with_capacity(4096),
            undeploy: Vec::with_capacity(4096),
            counts: Counts::default(),
        };
        for slot in 0..workload.images.len() {
            let from_ns = since(epoch, Instant::now());
            let id = client.deploy(
                workload.image(slot, 0),
                Some(&ChurnWorkload::alias(slot)),
                false,
            )?;
            churn.counts.ok(OpKind::Deploy);
            churn.live.push((id, 0));
            churn.history.push(vec![Binding {
                version: 0,
                from_ns,
                to_ns: u64::MAX,
            }]);
        }
        Ok(churn)
    }

    pub fn slots(&self) -> usize {
        self.live.len()
    }

    /// One lifecycle cycle: deploy the next version of the next slot, swap
    /// its alias onto it, undeploy the version swapped away from.
    pub fn cycle(&mut self, client: &mut Client, epoch: Instant) {
        let slot = (self.cycles % self.slots() as u64) as usize;
        self.cycles += 1;
        let (old_id, old_version) = self.live[slot];
        let version = (old_version + 1) % self.n_versions;
        let alias = ChurnWorkload::alias(slot);
        let t0 = Instant::now();
        let id = match client.deploy(self.workload.image(slot, version), None, false) {
            Ok(id) => id,
            Err(e) => return self.counts.error(OpKind::Deploy, e.to_string()),
        };
        self.counts.ok(OpKind::Deploy);
        let swap_sent = since(epoch, Instant::now());
        match client.swap(&alias, id) {
            Ok(Some(prev)) if prev == old_id => self.counts.ok(OpKind::Swap),
            Ok(prev) => {
                let msg = format!("{alias} was bound to {prev:?}, expected {old_id}");
                return self.counts.wrong(OpKind::Swap, msg);
            }
            Err(e) => return self.counts.error(OpKind::Swap, e.to_string()),
        }
        let t1 = Instant::now();
        self.deploy.push(Sample {
            done_ns: since(epoch, t1),
            lat_ns: t1.duration_since(t0).as_nanos() as u64,
            records: 0,
        });
        let history = &mut self.history[slot];
        if let Some(open) = history.last_mut() {
            open.to_ns = since(epoch, t1);
        }
        history.push(Binding {
            version,
            from_ns: swap_sent,
            to_ns: u64::MAX,
        });
        self.live[slot] = (id, version);
        let t2 = Instant::now();
        match client.undeploy(old_id) {
            Ok(_) => self.counts.ok(OpKind::Undeploy),
            Err(e) => return self.counts.error(OpKind::Undeploy, e.to_string()),
        }
        let t3 = Instant::now();
        self.undeploy.push(Sample {
            done_ns: since(epoch, t3),
            lat_ns: t3.duration_since(t2).as_nanos() as u64,
            records: 0,
        });
    }

    /// Undeploys every slot's live version.
    pub fn teardown(&mut self, client: &mut Client) {
        for (id, _) in std::mem::take(&mut self.live) {
            match client.undeploy(id) {
                Ok(_) => self.counts.ok(OpKind::Undeploy),
                Err(e) => self.counts.error(OpKind::Undeploy, e.to_string()),
            }
        }
    }

    /// Answers none of whose matching versions was bound while the request
    /// was in flight.
    pub fn stale_answers(&self, obs: &[AliasObs]) -> usize {
        obs.iter()
            .filter(|o| {
                !self.history[o.slot as usize].iter().any(|b| {
                    o.matched & (1 << b.version) != 0
                        && b.from_ns <= o.done_ns
                        && o.sent_ns <= b.to_ns
                })
            })
            .count()
    }
}

/// Resident state the churn must give back exactly: Object Store bytes
/// and catalog stages.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Footprint {
    pub store_bytes: usize,
    pub catalog_stages: usize,
}

impl Footprint {
    pub fn of(rt: &Runtime) -> Footprint {
        Footprint {
            store_bytes: rt.object_store().unique_bytes(),
            catalog_stages: rt.catalog_size(),
        }
    }
}
