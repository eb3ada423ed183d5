//! Static description of the simulated cluster.

use mr_core::{CombinerPolicy, JobConfig, SpeculationPolicy, TracePolicy};

/// Cluster hardware and scheduling parameters.
///
/// Defaults mirror §6 of the paper: 15 worker nodes (the 16th ran the
/// JobTracker/NameNode and no tasks), 4 map + 4 reduce slots per node to
/// fill dual quad-cores, Gigabit Ethernet, 64 MB chunks, replication 3.
#[derive(Debug, Clone)]
pub struct ClusterParams {
    /// Worker (slave) node count.
    pub nodes: usize,
    /// Concurrent map tasks per node.
    pub map_slots: usize,
    /// Concurrent reduce tasks per node.
    pub reduce_slots: usize,
    /// Raw NIC capacity in bytes/second.
    pub link_bytes_per_sec: f64,
    /// Access-link derating (the paper blames oversubscribed links for
    /// extra mapper slack).
    pub oversubscription: f64,
    /// Sequential disk bandwidth in bytes/second.
    pub disk_bytes_per_sec: f64,
    /// DFS chunk size in bytes.
    pub chunk_bytes: u64,
    /// DFS replication factor.
    pub replication: usize,
    /// Per-node speed spread: node factors are `exp(N(0, hetero_sigma))`.
    /// "Datacenters with commodity hardware often show differences in
    /// performance between machines" (§2).
    pub hetero_sigma: f64,
    /// Per-task duration noise: `exp(N(0, task_noise_sigma))`.
    pub task_noise_sigma: f64,
    /// Map-side combining policy for simulated jobs. Figure sweeps toggle
    /// this cluster-level knob without touching the `JobConfig`; when it
    /// is `Disabled` the executor falls back to the job's own
    /// `JobConfig::combiner`. Either way the application must also opt in
    /// via `combine_enabled()`.
    pub combiner: CombinerPolicy,
    /// Speculative-execution override for simulated jobs. `Some` wins
    /// over the job's own `JobConfig::speculation`; `None` leaves the
    /// job's choice in force. Straggler sweeps toggle backup attempts
    /// cluster-wide without touching per-job configs.
    pub speculation: Option<SpeculationPolicy>,
    /// Trace-recording override for simulated jobs. `Some` wins over the
    /// job's own `JobConfig::trace`; `None` leaves the job's choice in
    /// force. Sweeps that only need final numbers can switch trace
    /// export off cluster-wide.
    pub trace: Option<TracePolicy>,
    /// Master seed for placement, heterogeneity and noise.
    pub seed: u64,
}

impl ClusterParams {
    /// The paper's testbed (§6) with the given seed.
    pub fn paper_testbed(seed: u64) -> Self {
        ClusterParams {
            nodes: 15,
            map_slots: 4,
            reduce_slots: 4,
            link_bytes_per_sec: 125.0 * 1024.0 * 1024.0,
            oversubscription: 2.0,
            disk_bytes_per_sec: 80.0 * 1024.0 * 1024.0,
            chunk_bytes: 64 << 20,
            replication: 3,
            hetero_sigma: 0.25,
            task_noise_sigma: 0.12,
            combiner: CombinerPolicy::Disabled,
            speculation: None,
            trace: None,
            seed,
        }
    }

    /// Resolves the job's effective config under this cluster: every
    /// cluster-level policy override applied on top of the job's own
    /// knobs, one knob at a time (see the knob table on [`JobConfig`]).
    /// `Some`/enabled overrides win; `None`/disabled leave the job's
    /// choice in force. Both executors run on the config this returns,
    /// so override precedence lives in exactly one place.
    pub fn effective_config(&self, cfg: &JobConfig) -> JobConfig {
        let mut cfg = cfg.clone();
        if self.combiner.is_enabled() {
            cfg.combiner = self.combiner;
        }
        if let Some(policy) = self.speculation {
            cfg.speculation = policy;
        }
        if let Some(policy) = self.trace {
            cfg.trace = policy;
        }
        cfg
    }

    /// Total map slots across the cluster.
    pub fn total_map_slots(&self) -> usize {
        self.nodes * self.map_slots
    }

    /// Total reduce slots across the cluster.
    pub fn total_reduce_slots(&self) -> usize {
        self.nodes * self.reduce_slots
    }

    /// Validates internal consistency (panics on nonsense).
    pub fn validate(&self) {
        assert!(self.nodes >= 1);
        assert!(self.map_slots >= 1 && self.reduce_slots >= 1);
        assert!(self.link_bytes_per_sec > 0.0 && self.disk_bytes_per_sec > 0.0);
        assert!(self.oversubscription >= 1.0);
        assert!(self.chunk_bytes > 0);
        assert!(self.replication >= 1 && self.replication <= self.nodes);
        assert!(self.hetero_sigma >= 0.0 && self.task_noise_sigma >= 0.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_testbed_shape() {
        let p = ClusterParams::paper_testbed(1);
        p.validate();
        assert_eq!(p.total_map_slots(), 60);
        assert_eq!(p.total_reduce_slots(), 60);
        assert_eq!(p.chunk_bytes, 64 << 20);
    }

    #[test]
    #[should_panic]
    fn replication_beyond_nodes_rejected() {
        let mut p = ClusterParams::paper_testbed(1);
        p.nodes = 2;
        p.validate();
    }

    /// Override precedence, knob by knob: a `None`/disabled cluster knob
    /// leaves the job's choice in force; a `Some`/enabled one wins.
    #[test]
    fn effective_config_applies_each_override_with_cluster_wins() {
        let job = JobConfig::new(4)
            .combiner(CombinerPolicy::Enabled { budget_bytes: 111 })
            .speculation(SpeculationPolicy::Enabled {
                check_secs: 3.0,
                slowdown: 1.5,
            })
            .trace(TracePolicy::Disabled);

        // No overrides set: the job's own knobs pass through untouched.
        let p = ClusterParams::paper_testbed(1);
        let eff = p.effective_config(&job);
        assert_eq!(eff.combiner, job.combiner);
        assert_eq!(eff.speculation, job.speculation);
        assert_eq!(eff.trace, TracePolicy::Disabled);

        // Every override set: the cluster's choice wins on each knob.
        let mut p = ClusterParams::paper_testbed(1);
        p.combiner = CombinerPolicy::Enabled { budget_bytes: 999 };
        p.speculation = Some(SpeculationPolicy::Disabled);
        p.trace = Some(TracePolicy::Enabled);
        let eff = p.effective_config(&job);
        assert_eq!(eff.combiner, CombinerPolicy::Enabled { budget_bytes: 999 });
        assert_eq!(eff.speculation, SpeculationPolicy::Disabled);
        assert_eq!(eff.trace, TracePolicy::Enabled);

        // The one asymmetric knob: a *disabled* cluster combiner is "no
        // override", not "force off" (sweeps toggle combining on, never
        // off), so the job's combiner survives.
        let mut p = ClusterParams::paper_testbed(1);
        p.combiner = CombinerPolicy::Disabled;
        assert_eq!(
            p.effective_config(&job).combiner,
            CombinerPolicy::Enabled { budget_bytes: 111 }
        );

        // Untouched non-policy fields ride along unchanged.
        assert_eq!(p.effective_config(&job).reducers, 4);
    }
}
