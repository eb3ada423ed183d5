//! Flow-level network: per-node uplink/downlink processor sharing.

use mr_sim::{FlowId, PsResource, SimTime};
use std::collections::{BTreeMap, HashMap};

/// Identifies a machine in the cluster.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u32);

impl std::fmt::Display for NodeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// Identifies a transfer started on a [`Network`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FlowHandle(pub u64);

/// Static description of the fabric.
#[derive(Debug, Clone)]
pub struct NetworkConfig {
    /// Number of machines.
    pub nodes: usize,
    /// Raw NIC capacity, bytes per second (GbE = 125 MB/s).
    pub link_bytes_per_sec: f64,
    /// Derating factor for the access links; effective capacity is
    /// `link_bytes_per_sec / oversubscription`. `1.0` = non-blocking.
    pub oversubscription: f64,
}

impl NetworkConfig {
    /// A `nodes`-machine Gigabit fabric with no oversubscription.
    pub fn gigabit(nodes: usize) -> Self {
        NetworkConfig {
            nodes,
            link_bytes_per_sec: 125.0 * 1024.0 * 1024.0,
            oversubscription: 1.0,
        }
    }

    /// Effective per-direction NIC rate.
    pub fn effective_rate(&self) -> f64 {
        assert!(
            self.oversubscription >= 1.0,
            "oversubscription must be >= 1"
        );
        self.link_bytes_per_sec / self.oversubscription
    }
}

struct Nic {
    up: PsResource,
    down: PsResource,
}

struct FlowState<T> {
    src: NodeId,
    dst: NodeId,
    up_leg: FlowId,
    down_leg: FlowId,
    up_done: bool,
    down_done: bool,
    tag: T,
}

/// The cluster network. `T` is an opaque per-flow tag returned on
/// completion (e.g. "partition 3 of map task 17 for reducer 5").
pub struct Network<T> {
    cfg: NetworkConfig,
    nics: Vec<Nic>,
    flows: HashMap<FlowHandle, FlowState<T>>,
    /// Reverse maps from per-resource flow ids to global handles.
    up_index: Vec<HashMap<FlowId, FlowHandle>>,
    down_index: Vec<HashMap<FlowId, FlowHandle>>,
    /// Loopback (and otherwise already-finished) flows awaiting collection.
    ready: BTreeMap<SimTime, Vec<FlowHandle>>,
    next_handle: u64,
    completed_flows: u64,
}

impl<T> Network<T> {
    /// Builds the fabric described by `cfg`.
    pub fn new(cfg: NetworkConfig) -> Self {
        let rate = cfg.effective_rate();
        let nics = (0..cfg.nodes)
            .map(|_| Nic {
                up: PsResource::new(rate),
                down: PsResource::new(rate),
            })
            .collect();
        Network {
            up_index: (0..cfg.nodes).map(|_| HashMap::new()).collect(),
            down_index: (0..cfg.nodes).map(|_| HashMap::new()).collect(),
            cfg,
            nics,
            flows: HashMap::new(),
            ready: BTreeMap::new(),
            next_handle: 0,
            completed_flows: 0,
        }
    }

    /// Number of machines in the fabric.
    pub fn nodes(&self) -> usize {
        self.cfg.nodes
    }

    /// Starts a transfer of `bytes` from `src` to `dst` at time `now`.
    ///
    /// Same-node transfers complete immediately (they are served by the
    /// local disk, which the caller models separately).
    pub fn start_flow(
        &mut self,
        now: SimTime,
        src: NodeId,
        dst: NodeId,
        bytes: u64,
        tag: T,
    ) -> FlowHandle {
        let handle = FlowHandle(self.next_handle);
        self.next_handle += 1;
        if src == dst || bytes == 0 {
            self.completed_flows += 1;
            self.flows.insert(
                handle,
                FlowState {
                    src,
                    dst,
                    up_leg: FlowId(u64::MAX),
                    down_leg: FlowId(u64::MAX),
                    up_done: true,
                    down_done: true,
                    tag,
                },
            );
            self.ready.entry(now).or_default().push(handle);
            return handle;
        }
        let up_leg = self.nics[src.0 as usize].up.add_flow(now, bytes);
        let down_leg = self.nics[dst.0 as usize].down.add_flow(now, bytes);
        self.up_index[src.0 as usize].insert(up_leg, handle);
        self.down_index[dst.0 as usize].insert(down_leg, handle);
        self.flows.insert(
            handle,
            FlowState {
                src,
                dst,
                up_leg,
                down_leg,
                up_done: false,
                down_done: false,
                tag,
            },
        );
        handle
    }

    /// The earliest instant at which any flow may complete, if any.
    pub fn next_event_time(&self) -> Option<SimTime> {
        let mut t = self.ready.keys().next().copied();
        for nic in &self.nics {
            for cand in [nic.up.next_completion(), nic.down.next_completion()] {
                t = match (t, cand) {
                    (None, c) => c,
                    (Some(a), None) => Some(a),
                    (Some(a), Some(b)) => Some(a.min(b)),
                };
            }
        }
        t
    }

    /// Advances all links to `t` and returns flows whose **both** legs
    /// finished, with their tags, in deterministic (handle) order.
    pub fn advance_to(&mut self, t: SimTime) -> Vec<(FlowHandle, T)> {
        let mut finished: Vec<FlowHandle> = Vec::new();
        // Drain loopback completions due by t.
        let pending: Vec<SimTime> = self.ready.range(..=t).map(|(k, _)| *k).collect();
        for k in pending {
            finished.extend(self.ready.remove(&k).unwrap());
        }
        for node in 0..self.nics.len() {
            for leg in self.nics[node].up.advance_to(t) {
                if let Some(handle) = self.up_index[node].remove(&leg) {
                    let st = self.flows.get_mut(&handle).expect("up leg without flow");
                    st.up_done = true;
                    if st.down_done {
                        finished.push(handle);
                    }
                }
            }
            for leg in self.nics[node].down.advance_to(t) {
                if let Some(handle) = self.down_index[node].remove(&leg) {
                    let st = self.flows.get_mut(&handle).expect("down leg without flow");
                    st.down_done = true;
                    if st.up_done {
                        finished.push(handle);
                    }
                }
            }
        }
        finished.sort();
        finished.dedup();
        self.completed_flows += finished
            .iter()
            .filter(|h| {
                // Loopback flows were pre-counted at start.
                let st = &self.flows[h];
                st.up_leg != FlowId(u64::MAX)
            })
            .count() as u64;
        finished
            .into_iter()
            .map(|h| {
                let st = self.flows.remove(&h).expect("finished flow must exist");
                (h, st.tag)
            })
            .collect()
    }

    /// Cancels every in-flight flow that touches `node` (either endpoint),
    /// returning their tags. Used for fault injection.
    pub fn fail_node(&mut self, now: SimTime, node: NodeId) -> Vec<T> {
        let doomed: Vec<FlowHandle> = self
            .flows
            .iter()
            .filter(|(_, st)| (st.src == node || st.dst == node) && !(st.up_done && st.down_done))
            .map(|(h, _)| *h)
            .collect();
        let mut tags = Vec::new();
        let mut sorted = doomed;
        sorted.sort();
        for h in sorted {
            let st = self.flows.remove(&h).expect("doomed flow must exist");
            if !st.up_done {
                self.nics[st.src.0 as usize].up.cancel(now, st.up_leg);
                self.up_index[st.src.0 as usize].remove(&st.up_leg);
            }
            if !st.down_done {
                self.nics[st.dst.0 as usize].down.cancel(now, st.down_leg);
                self.down_index[st.dst.0 as usize].remove(&st.down_leg);
            }
            tags.push(st.tag);
        }
        tags
    }

    /// Cancels every in-flight flow whose tag satisfies `pred`,
    /// returning the cancelled tags. Same mechanics as [`fail_node`]
    /// (both legs released, indices cleaned up), but selected by tag
    /// instead of by endpoint — this is how a losing speculative attempt
    /// stops its transfers from consuming link capacity while the
    /// winning attempt's flows keep running on the same nodes.
    ///
    /// [`fail_node`]: Network::fail_node
    pub fn cancel_where(&mut self, now: SimTime, pred: impl Fn(&T) -> bool) -> Vec<T> {
        let mut doomed: Vec<FlowHandle> = self
            .flows
            .iter()
            .filter(|(_, st)| !(st.up_done && st.down_done) && pred(&st.tag))
            .map(|(h, _)| *h)
            .collect();
        doomed.sort();
        let mut tags = Vec::new();
        for h in doomed {
            let st = self.flows.remove(&h).expect("doomed flow must exist");
            if !st.up_done {
                self.nics[st.src.0 as usize].up.cancel(now, st.up_leg);
                self.up_index[st.src.0 as usize].remove(&st.up_leg);
            }
            if !st.down_done {
                self.nics[st.dst.0 as usize].down.cancel(now, st.down_leg);
                self.down_index[st.dst.0 as usize].remove(&st.down_leg);
            }
            tags.push(st.tag);
        }
        tags
    }

    /// Number of flows still in flight.
    pub fn in_flight(&self) -> usize {
        self.flows.len()
    }

    /// Lifetime completed flow count (including loopback).
    pub fn completed_flows(&self) -> u64 {
        self.completed_flows
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MB: u64 = 1 << 20;

    fn net(nodes: usize, rate_mb: f64) -> Network<&'static str> {
        Network::new(NetworkConfig {
            nodes,
            link_bytes_per_sec: rate_mb * MB as f64,
            oversubscription: 1.0,
        })
    }

    fn drain(net: &mut Network<&'static str>) -> Vec<(f64, &'static str)> {
        let mut out = Vec::new();
        while let Some(t) = net.next_event_time() {
            for (_, tag) in net.advance_to(t) {
                out.push((t.as_secs_f64(), tag));
            }
        }
        out
    }

    #[test]
    fn single_flow_takes_bytes_over_rate() {
        let mut n = net(2, 1.0);
        n.start_flow(SimTime::ZERO, NodeId(0), NodeId(1), 5 * MB, "a");
        let done = drain(&mut n);
        assert_eq!(done.len(), 1);
        assert!((done[0].0 - 5.0).abs() < 1e-3, "{:?}", done);
    }

    #[test]
    fn loopback_completes_immediately() {
        let mut n = net(2, 1.0);
        n.start_flow(
            SimTime::from_secs(3),
            NodeId(1),
            NodeId(1),
            100 * MB,
            "local",
        );
        assert_eq!(n.next_event_time(), Some(SimTime::from_secs(3)));
        let done = n.advance_to(SimTime::from_secs(3));
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].1, "local");
    }

    #[test]
    fn incast_shares_receiver_downlink() {
        // Four senders to one receiver: downlink is the bottleneck, each
        // flow gets rate/4, so all finish at 4x the solo time.
        let mut n = net(5, 1.0);
        for (i, tag) in ["a", "b", "c", "d"].iter().enumerate() {
            n.start_flow(SimTime::ZERO, NodeId(i as u32), NodeId(4), MB, tag);
        }
        let done = drain(&mut n);
        assert_eq!(done.len(), 4);
        for (t, _) in &done {
            assert!((t - 4.0).abs() < 1e-2, "expected ~4s, got {t}");
        }
    }

    #[test]
    fn fanout_shares_sender_uplink() {
        // One sender to four receivers: uplink is the bottleneck.
        let mut n = net(5, 1.0);
        for (i, tag) in ["a", "b", "c", "d"].iter().enumerate() {
            n.start_flow(SimTime::ZERO, NodeId(4), NodeId(i as u32), MB, tag);
        }
        let done = drain(&mut n);
        assert_eq!(done.len(), 4);
        for (t, _) in &done {
            assert!((t - 4.0).abs() < 1e-2, "expected ~4s, got {t}");
        }
    }

    #[test]
    fn disjoint_pairs_do_not_interfere() {
        let mut n = net(4, 1.0);
        n.start_flow(SimTime::ZERO, NodeId(0), NodeId(1), 2 * MB, "x");
        n.start_flow(SimTime::ZERO, NodeId(2), NodeId(3), 2 * MB, "y");
        let done = drain(&mut n);
        for (t, _) in &done {
            assert!((t - 2.0).abs() < 1e-2, "expected ~2s, got {t}");
        }
    }

    #[test]
    fn oversubscription_derates_links() {
        let mut n = Network::new(NetworkConfig {
            nodes: 2,
            link_bytes_per_sec: MB as f64,
            oversubscription: 2.0,
        });
        n.start_flow(SimTime::ZERO, NodeId(0), NodeId(1), MB, "slow");
        let mut finish = 0.0;
        while let Some(t) = n.next_event_time() {
            if !n.advance_to(t).is_empty() {
                finish = t.as_secs_f64();
            }
        }
        assert!((finish - 2.0).abs() < 1e-2, "expected ~2s, got {finish}");
    }

    #[test]
    fn fail_node_cancels_touching_flows() {
        let mut n = net(3, 1.0);
        n.start_flow(SimTime::ZERO, NodeId(0), NodeId(1), 100 * MB, "dies-src");
        n.start_flow(SimTime::ZERO, NodeId(1), NodeId(2), 100 * MB, "dies-dst");
        n.start_flow(SimTime::ZERO, NodeId(2), NodeId(0), MB, "survives");
        let mut tags = n.fail_node(SimTime::from_secs_f64(0.5), NodeId(1));
        tags.sort();
        assert_eq!(tags, vec!["dies-dst", "dies-src"]);
        let done = drain(&mut n);
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].1, "survives");
    }

    #[test]
    fn cancel_where_releases_capacity_for_survivors() {
        // Two equal flows share node 0's uplink; cancelling one halfway
        // lets the survivor finish on the full link, not the half link.
        let mut n = net(3, 1.0);
        n.start_flow(SimTime::ZERO, NodeId(0), NodeId(1), MB, "loser");
        n.start_flow(SimTime::ZERO, NodeId(0), NodeId(2), MB, "winner");
        let tags = n.cancel_where(SimTime::from_secs(1), |t| *t == "loser");
        assert_eq!(tags, vec!["loser"]);
        let done = drain(&mut n);
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].1, "winner");
        // Half the bytes moved at rate/2 in the first second; the rest
        // moves at full rate, so completion lands near 1.5s, not 2s.
        assert!((done[0].0 - 1.5).abs() < 1e-2, "{:?}", done);
    }

    #[test]
    fn zero_byte_flow_completes_at_start() {
        let mut n = net(2, 1.0);
        n.start_flow(SimTime::from_secs(1), NodeId(0), NodeId(1), 0, "empty");
        let done = n.advance_to(SimTime::from_secs(1));
        assert_eq!(done.len(), 1);
    }

    #[test]
    fn accounting_counts_all_flows() {
        let mut n = net(3, 10.0);
        n.start_flow(SimTime::ZERO, NodeId(0), NodeId(1), MB, "a");
        n.start_flow(SimTime::ZERO, NodeId(1), NodeId(1), MB, "lo");
        drain(&mut n);
        assert_eq!(n.completed_flows(), 2);
        assert_eq!(n.in_flight(), 0);
    }

    #[test]
    #[should_panic(expected = "oversubscription must be >= 1")]
    fn undersubscription_rejected() {
        let _ = Network::<()>::new(NetworkConfig {
            nodes: 1,
            link_bytes_per_sec: 1.0,
            oversubscription: 0.5,
        });
    }
}
