//! Inter-GPU and CPU-GPU interconnect model.
//!
//! The paper's multi-GPU system connects four GPUs with NVLink-style
//! uni-directional point-to-point links (64 GB/s each direction) and each
//! GPU to the host CPU at 32 GB/s. The NUMA bottleneck is the ~16× gap
//! between these links and local HBM bandwidth.
//!
//! [`Link`] models one direction of one link: messages serialize over a
//! bytes/cycle budget (queueing pushes later messages out in time) and
//! arrive after a propagation latency.
//!
//! [`Topology`] generalizes the original pairwise link table into a
//! routed graph: nodes are GPUs, the host CPU, and (optionally) switches;
//! edges are directional [`Link`]s; routes are static shortest-hop paths
//! computed once at build time with deterministic lowest-edge-index
//! tie-breaks. Built-in generators cover the paper's
//! [`TopologySpec::AllToAll`] mesh (the default — bit-identical to the
//! historic pairwise table), a central crossbar
//! ([`TopologySpec::Switch`]), a bidirectional [`TopologySpec::Ring`],
//! and DGX-style [`TopologySpec::Hierarchical`] pods.
//!
//! [`LinkNetwork`] is the runtime network over a topology: it routes by
//! `(src, dst)` node id, forwards multi-hop traffic at switches (per-hop
//! serialization + propagation; switch queueing is the outgoing link's
//! serialization backlog), and keeps end-to-end and per-hop conservation
//! counters for the protocol sanitizer.
//!
//! # Example
//!
//! ```
//! use carve_noc::{Link, msg};
//! use sim_core::Cycle;
//!
//! let mut link = Link::new(8.0, 100).expect("positive bandwidth");
//! link.send(1, msg::RESP_DATA_BYTES, Cycle(0));
//! let mut got = Vec::new();
//! for c in 0..200u64 {
//!     got.extend(link.tick(Cycle(c)));
//! }
//! assert_eq!(got, vec![1]);
//! ```

#![warn(missing_docs)]

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use sim_core::event::NextEvent;
use sim_core::fast::Slab;
use sim_core::{Cycle, LinkOccupancy, SimError, TopologySpec};

/// Message size constants in bytes.
///
/// These follow common NoC accounting: a request/control packet is one
/// 32-byte flit; packets carrying a 128-byte cache line pay the header plus
/// the data.
pub mod msg {
    /// Read request / control header.
    pub const REQ_BYTES: u64 = 32;
    /// Response carrying one 128 B cache line (header + data).
    pub const RESP_DATA_BYTES: u64 = 160;
    /// Write carrying one 128 B cache line (header + data).
    pub const WRITE_DATA_BYTES: u64 = 160;
    /// Write-invalidate probe (GPU-VI hardware coherence).
    pub const INVALIDATE_BYTES: u64 = 32;
}

/// Maximum GPU count a topology may carry. Sharer bitmasks (GPU-VI, the
/// coherence directory, the sanitizer's shadow state) are 64 bits wide.
pub const MAX_GPUS: usize = 64;

/// Bandwidth multiplier applied to inter-pod switch-to-switch links in
/// [`TopologySpec::Hierarchical`] topologies (DGX-style pods share a
/// slower backplane than the in-pod mesh).
pub const INTER_POD_BW_FACTOR: f64 = 0.5;

/// One direction of one point-to-point link.
#[derive(Debug, Clone)]
pub struct Link {
    bytes_per_cycle: f64,
    latency: u64,
    next_slot: f64,
    in_flight: Vec<(u64, u64)>, // (token, arrival cycle)
    // EQUIVALENCE: `min_arrival` is a lower bound on the earliest delivery,
    // tightened in `send` (min with the new arrival) and recomputed from
    // the surviving entries whenever `tick_into` drains. A tick skipped
    // because `min_arrival > now` would have delivered nothing under
    // stepping either, and delivery *order* within a tick comes from the
    // in_flight scan order, which skipping does not alter — so token
    // streams are bit-identical under both engines (golden tests pin it).
    /// Earliest in-flight arrival (`u64::MAX` when empty): the per-tick
    /// delivery scan and the event horizon skip the list until then.
    min_arrival: u64,
    bytes_sent: u64,
    messages_sent: u64,
    messages_delivered: u64,
    busy_until: f64,
    /// Bandwidth the link was built with; `set_bytes_per_cycle` only moves
    /// the effective rate, so serialization beyond `bytes / nominal` is
    /// attributable to fault degradation.
    nominal_bytes_per_cycle: f64,
    /// Occupancy accounting for the cycle-accounting profiler (always-on
    /// plain additions in `send`; never feeds journaled stats).
    ser_cycles: f64,
    queue_cycles: f64,
    degraded_cycles: f64,
}

impl Link {
    /// Creates a link with `bytes_per_cycle` bandwidth and `latency` cycles
    /// of propagation delay.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::ConfigInvalid`] if `bytes_per_cycle` is not a
    /// positive finite number — a zero-bandwidth link can never deliver.
    pub fn new(bytes_per_cycle: f64, latency: u64) -> Result<Link, SimError> {
        if !(bytes_per_cycle > 0.0 && bytes_per_cycle.is_finite()) {
            return Err(SimError::config(format!(
                "link bandwidth must be positive and finite \
                 (bytes_per_cycle={bytes_per_cycle}); raise the link's bytes/cycle"
            )));
        }
        Ok(Link {
            bytes_per_cycle,
            latency,
            next_slot: 0.0,
            in_flight: Vec::new(),
            min_arrival: u64::MAX,
            bytes_sent: 0,
            messages_sent: 0,
            messages_delivered: 0,
            busy_until: 0.0,
            nominal_bytes_per_cycle: bytes_per_cycle,
            ser_cycles: 0.0,
            queue_cycles: 0.0,
            degraded_cycles: 0.0,
        })
    }

    /// Queues a message of `bytes` onto the wire at `now`; it arrives after
    /// serialization (including queueing behind earlier messages) plus
    /// propagation latency. Links accept unboundedly — end-point queues
    /// (MSHRs, warp slots) bound the traffic in flight. Because
    /// serialization of a non-empty message is strictly positive, the
    /// arrival cycle is always strictly after `now`: forwarded hops never
    /// cascade within one tick and event horizons stay exact. Each
    /// message starts serializing no earlier than the previous one
    /// finished, so a link's arrivals never decrease.
    pub fn send(&mut self, token: u64, bytes: u64, now: Cycle) {
        let start = (now.0 as f64).max(self.next_slot);
        let ser = bytes as f64 / self.bytes_per_cycle;
        let nominal_ser = bytes as f64 / self.nominal_bytes_per_cycle;
        self.queue_cycles += start - now.0 as f64;
        self.ser_cycles += nominal_ser;
        self.degraded_cycles += (ser - nominal_ser).max(0.0);
        self.next_slot = start + ser;
        self.busy_until = self.next_slot;
        let arrival = (start + ser + self.latency as f64).ceil() as u64;
        self.bytes_sent += bytes;
        self.messages_sent += 1;
        debug_assert!(self.in_flight.is_empty() || arrival >= self.min_arrival);
        self.in_flight.push((token, arrival));
        self.min_arrival = self.min_arrival.min(arrival);
    }

    /// Returns tokens of messages that have arrived by `now`.
    pub fn tick(&mut self, now: Cycle) -> Vec<u64> {
        let mut out = Vec::new();
        self.tick_into(now, &mut out);
        out
    }

    /// Appends tokens of messages that have arrived by `now` to `out`
    /// (allocation-free variant of [`Link::tick`]).
    pub fn tick_into(&mut self, now: Cycle, out: &mut Vec<u64>) {
        if self.min_arrival > now.0 {
            return;
        }
        let mut min = u64::MAX;
        let mut i = 0;
        while i < self.in_flight.len() {
            if self.in_flight[i].1 <= now.0 {
                out.push(self.in_flight.swap_remove(i).0);
                self.messages_delivered += 1;
            } else {
                min = min.min(self.in_flight[i].1);
                i += 1;
            }
        }
        self.min_arrival = min;
    }

    /// Earliest cycle a new message could start serializing.
    pub fn next_free(&self) -> Cycle {
        Cycle(self.next_slot.ceil() as u64)
    }

    /// Total bytes accepted.
    pub fn bytes_sent(&self) -> u64 {
        self.bytes_sent
    }

    /// Total messages accepted.
    pub fn messages_sent(&self) -> u64 {
        self.messages_sent
    }

    /// Total messages that have arrived at the far end.
    pub fn messages_delivered(&self) -> u64 {
        self.messages_delivered
    }

    /// Messages currently on the wire.
    pub fn in_flight(&self) -> usize {
        self.in_flight.len()
    }

    /// Arrival cycle of the oldest in-flight message, if any.
    pub fn oldest_in_flight_arrival(&self) -> Option<u64> {
        (self.min_arrival != u64::MAX).then_some(self.min_arrival)
    }

    /// Whether messages are still in flight.
    pub fn is_idle(&self) -> bool {
        self.in_flight.is_empty()
    }

    /// Achieved utilization over `elapsed` cycles (0..=1).
    pub fn utilization(&self, elapsed: Cycle) -> f64 {
        if elapsed.0 == 0 {
            return 0.0;
        }
        (self.bytes_sent as f64 / self.bytes_per_cycle / elapsed.0 as f64).min(1.0)
    }

    /// Configured bandwidth in bytes/cycle.
    pub fn bytes_per_cycle(&self) -> f64 {
        self.bytes_per_cycle
    }

    /// Occupancy breakdown for the profiler: `(serialization, queueing,
    /// fault-degraded)` cycles accumulated over all sends. Serialization
    /// is at nominal bandwidth; the degraded component is the extra wire
    /// time caused by bandwidth-degradation faults.
    pub fn occupancy(&self) -> (f64, f64, f64) {
        (self.ser_cycles, self.queue_cycles, self.degraded_cycles)
    }

    /// Rewrites the effective bandwidth (fault injection: degradation
    /// windows). Only affects serialization of *future* sends; messages
    /// already on the wire keep their computed arrival cycles, exactly
    /// like a real link renegotiating speed.
    pub(crate) fn set_bytes_per_cycle(&mut self, bytes_per_cycle: f64) {
        debug_assert!(bytes_per_cycle > 0.0 && bytes_per_cycle.is_finite());
        self.bytes_per_cycle = bytes_per_cycle;
    }

    /// Rewrites every in-flight token through `f`, preserving arrival
    /// cycles. Used when a link outage flips a single-hop graph to
    /// routed mode mid-run: raw endpoint tokens already on the wire are
    /// migrated into the flow table so one code path handles arrivals.
    pub(crate) fn retag_in_flight(&mut self, mut f: impl FnMut(u64) -> u64) {
        for entry in &mut self.in_flight {
            entry.0 = f(entry.0);
        }
    }
}

impl NextEvent for Link {
    fn next_event(&self, now: Cycle) -> Option<Cycle> {
        (self.min_arrival != u64::MAX).then(|| Cycle(self.min_arrival.max(now.0 + 1)))
    }
}

/// A node in the interconnect: a GPU or the host CPU.
///
/// Switches are internal to a [`Topology`] — traffic originates and
/// terminates only at GPUs and the CPU, so deliveries never name a switch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NodeId {
    /// GPU `n` (0-based).
    Gpu(usize),
    /// The host CPU (system memory).
    Cpu,
}

/// An arrived message, reported by [`LinkNetwork::tick`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Delivery {
    /// Caller-supplied token.
    pub token: u64,
    /// Sender.
    pub src: NodeId,
    /// Receiver.
    pub dst: NodeId,
}

/// One directional edge of a [`Topology`]: a [`Link`] between two node
/// indices (see [`Topology`] for the index scheme).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EdgeSpec {
    /// Source node index.
    pub from: usize,
    /// Destination node index.
    pub to: usize,
    /// Link bandwidth in bytes/cycle.
    pub bytes_per_cycle: f64,
    /// Propagation latency in cycles.
    pub latency: u64,
}

/// Sentinel in the next-hop table for "no route".
const NO_ROUTE: u32 = u32::MAX;

/// A static interconnect graph with precomputed deterministic routes.
///
/// Node indices: GPUs occupy `0..num_gpus`, the CPU is `num_gpus`, and
/// switches are `num_gpus + 1 ..`. Only GPUs and the CPU are endpoints;
/// the CPU never forwards transit traffic (it is a leaf), while GPUs may
/// forward (the ring topology routes through them) and switches always
/// do.
///
/// Routing is shortest-hop, computed per destination by a breadth-first
/// search at build time. Ties are broken toward the lowest edge index, so
/// routes depend only on the (deterministic) edge creation order — the
/// same config always yields the same paths, which the bit-identity
/// golden tests rely on.
///
/// ```
/// use carve_noc::Topology;
/// use sim_core::TopologySpec;
///
/// let topo = Topology::build(TopologySpec::Switch, 4, 8.0, 100, 4.0, 200)
///     .expect("valid spec");
/// assert_eq!(
///     topo.route_labels(carve_noc::NodeId::Gpu(0), carve_noc::NodeId::Gpu(3)),
///     vec!["gpu0", "sw0", "gpu3"],
/// );
/// ```
#[derive(Debug, Clone)]
pub struct Topology {
    label: String,
    num_gpus: usize,
    num_switches: usize,
    edges: Vec<EdgeSpec>,
    // next_hop[node * endpoints + dst_endpoint] = outgoing edge index.
    next_hop: Vec<u32>,
    single_hop: bool,
}

impl Topology {
    /// Builds one of the generated topologies over `num_gpus` GPUs.
    ///
    /// GPU-GPU class links get `gpu_bpc` bytes/cycle and `gpu_latency`
    /// cycles per hop; CPU links get `cpu_bpc` / `cpu_latency`.
    /// Hierarchical inter-pod links run at `gpu_bpc *`
    /// [`INTER_POD_BW_FACTOR`].
    ///
    /// # Errors
    ///
    /// Returns [`SimError::ConfigInvalid`] (with an actionable message)
    /// when the spec cannot describe a routable machine: zero GPUs, more
    /// than [`MAX_GPUS`], non-positive bandwidth, or a hierarchical
    /// `pod_size` that does not evenly divide `num_gpus`.
    pub fn build(
        spec: TopologySpec,
        num_gpus: usize,
        gpu_bpc: f64,
        gpu_latency: u64,
        cpu_bpc: f64,
        cpu_latency: u64,
    ) -> Result<Topology, SimError> {
        if num_gpus == 0 {
            return Err(SimError::config(
                "topology has num_gpus=0; a system needs at least one GPU".to_string(),
            ));
        }
        if num_gpus > MAX_GPUS {
            return Err(SimError::config(format!(
                "topology has num_gpus={num_gpus}, but coherence sharer bitmasks support at \
                 most {MAX_GPUS} nodes; reduce num_gpus"
            )));
        }
        let cpu = num_gpus;
        let mut edges = Vec::new();
        let mut num_switches = 0usize;
        let push_cpu_links = |edges: &mut Vec<EdgeSpec>| {
            for g in 0..num_gpus {
                edges.push(EdgeSpec {
                    from: g,
                    to: cpu,
                    bytes_per_cycle: cpu_bpc,
                    latency: cpu_latency,
                });
                edges.push(EdgeSpec {
                    from: cpu,
                    to: g,
                    bytes_per_cycle: cpu_bpc,
                    latency: cpu_latency,
                });
            }
        };
        match spec {
            TopologySpec::AllToAll => {
                // Edge order mirrors the historic pairwise table's tick
                // order exactly (GPU pairs row-major, then per-GPU
                // to-CPU / from-CPU interleaved): same-tick delivery
                // order — and therefore golden journals — are preserved.
                for s in 0..num_gpus {
                    for d in 0..num_gpus {
                        if s != d {
                            edges.push(EdgeSpec {
                                from: s,
                                to: d,
                                bytes_per_cycle: gpu_bpc,
                                latency: gpu_latency,
                            });
                        }
                    }
                }
                push_cpu_links(&mut edges);
            }
            TopologySpec::Switch => {
                num_switches = 1;
                let sw = cpu + 1;
                for g in 0..num_gpus {
                    edges.push(EdgeSpec {
                        from: g,
                        to: sw,
                        bytes_per_cycle: gpu_bpc,
                        latency: gpu_latency,
                    });
                    edges.push(EdgeSpec {
                        from: sw,
                        to: g,
                        bytes_per_cycle: gpu_bpc,
                        latency: gpu_latency,
                    });
                }
                // The CPU hangs off the same crossbar at CPU-link speed.
                edges.push(EdgeSpec {
                    from: cpu,
                    to: sw,
                    bytes_per_cycle: cpu_bpc,
                    latency: cpu_latency,
                });
                edges.push(EdgeSpec {
                    from: sw,
                    to: cpu,
                    bytes_per_cycle: cpu_bpc,
                    latency: cpu_latency,
                });
            }
            TopologySpec::Ring => {
                // Clockwise edges first so equal-distance routes prefer
                // the clockwise direction (lowest edge index wins).
                if num_gpus >= 2 {
                    for g in 0..num_gpus {
                        edges.push(EdgeSpec {
                            from: g,
                            to: (g + 1) % num_gpus,
                            bytes_per_cycle: gpu_bpc,
                            latency: gpu_latency,
                        });
                    }
                }
                if num_gpus > 2 {
                    for g in 0..num_gpus {
                        edges.push(EdgeSpec {
                            from: g,
                            to: (g + num_gpus - 1) % num_gpus,
                            bytes_per_cycle: gpu_bpc,
                            latency: gpu_latency,
                        });
                    }
                }
                push_cpu_links(&mut edges);
            }
            TopologySpec::Hierarchical { pod_size } => {
                if pod_size == 0 || !num_gpus.is_multiple_of(pod_size) {
                    return Err(SimError::config(format!(
                        "hierarchical pod_size {pod_size} does not evenly divide \
                         num_gpus {num_gpus}; pick a pod size that tiles the GPUs \
                         (e.g. {})",
                        if num_gpus >= 4 { 4 } else { 1 }
                    )));
                }
                let pods = num_gpus / pod_size;
                num_switches = pods;
                let sw = |p: usize| cpu + 1 + p;
                // Intra-pod all-to-all mesh (row-major, like AllToAll).
                for s in 0..num_gpus {
                    for d in 0..num_gpus {
                        if s != d && s / pod_size == d / pod_size {
                            edges.push(EdgeSpec {
                                from: s,
                                to: d,
                                bytes_per_cycle: gpu_bpc,
                                latency: gpu_latency,
                            });
                        }
                    }
                }
                // Pod uplinks to the pod switch.
                for g in 0..num_gpus {
                    edges.push(EdgeSpec {
                        from: g,
                        to: sw(g / pod_size),
                        bytes_per_cycle: gpu_bpc,
                        latency: gpu_latency,
                    });
                    edges.push(EdgeSpec {
                        from: sw(g / pod_size),
                        to: g,
                        bytes_per_cycle: gpu_bpc,
                        latency: gpu_latency,
                    });
                }
                // Slower pairwise inter-pod backplane between switches.
                for p in 0..pods {
                    for q in 0..pods {
                        if p != q {
                            edges.push(EdgeSpec {
                                from: sw(p),
                                to: sw(q),
                                bytes_per_cycle: gpu_bpc * INTER_POD_BW_FACTOR,
                                latency: gpu_latency,
                            });
                        }
                    }
                }
                push_cpu_links(&mut edges);
            }
        }
        Topology::finalize(spec.label(), num_gpus, num_switches, edges)
    }

    /// Builds a topology from an explicit edge list (`num_switches`
    /// switch nodes after the CPU). Mostly useful for tests and custom
    /// experiments; the generated specs cover the paper's machines.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::ConfigInvalid`] on out-of-range node indices,
    /// self-edges, non-positive bandwidth, or a graph that leaves any
    /// endpoint pair unroutable.
    pub fn custom(
        num_gpus: usize,
        num_switches: usize,
        edges: Vec<EdgeSpec>,
    ) -> Result<Topology, SimError> {
        if num_gpus == 0 || num_gpus > MAX_GPUS {
            return Err(SimError::config(format!(
                "custom topology has num_gpus={num_gpus}; need 1..={MAX_GPUS}"
            )));
        }
        Topology::finalize("custom".to_string(), num_gpus, num_switches, edges)
    }

    /// Validates edges, computes the deterministic shortest-hop route
    /// table, and checks endpoint-pair connectivity.
    fn finalize(
        label: String,
        num_gpus: usize,
        num_switches: usize,
        edges: Vec<EdgeSpec>,
    ) -> Result<Topology, SimError> {
        let nodes = num_gpus + 1 + num_switches;
        let node_name = |i: usize| node_label_of(num_gpus, i);
        for e in &edges {
            if e.from >= nodes || e.to >= nodes {
                return Err(SimError::config(format!(
                    "topology '{label}' edge {}→{} names a node outside the \
                     {nodes}-node graph ({num_gpus} GPUs + CPU + {num_switches} switches)",
                    e.from, e.to
                )));
            }
            if e.from == e.to {
                return Err(SimError::config(format!(
                    "topology '{label}' has a self-edge at {}; links connect \
                     distinct nodes",
                    node_name(e.from)
                )));
            }
            if !(e.bytes_per_cycle > 0.0 && e.bytes_per_cycle.is_finite()) {
                return Err(SimError::config(format!(
                    "topology '{label}' edge {}→{} has bandwidth {}; link bandwidth \
                     must be positive and finite",
                    node_name(e.from),
                    node_name(e.to),
                    e.bytes_per_cycle
                )));
            }
        }
        let (next_hop, unroutable) = route_table(num_gpus, nodes, &edges, None);
        // Every endpoint pair (except CPU→CPU) must be routable.
        if let Some((a, b)) = unroutable {
            return Err(SimError::config(format!(
                "topology '{label}' has no route from {} to {}; every GPU must \
                 reach every other GPU and the CPU — add edges until the \
                 graph is connected",
                node_name(a),
                node_name(b)
            )));
        }
        let mut topo = Topology {
            label,
            num_gpus,
            num_switches,
            edges,
            next_hop,
            single_hop: false,
        };
        topo.recompute_single_hop();
        Ok(topo)
    }

    /// Recomputes the single-hop fast-path flag from the current route
    /// table (at build time and after a fault reroute).
    fn recompute_single_hop(&mut self) {
        let endpoints = self.num_gpus + 1;
        let cpu = self.num_gpus;
        self.single_hop = (0..endpoints).all(|a| {
            (0..endpoints).all(|b| a == b || (a == cpu && b == cpu) || self.hops(a, b) == 1)
        });
    }

    fn hops(&self, mut at: usize, dst: usize) -> usize {
        let endpoints = self.num_gpus + 1;
        let mut n = 0;
        while at != dst {
            let e = self.next_hop[at * endpoints + dst];
            at = self.edges[e as usize].to;
            n += 1;
        }
        n
    }

    /// Number of GPU nodes.
    pub fn num_gpus(&self) -> usize {
        self.num_gpus
    }

    /// Number of switch nodes.
    pub fn num_switches(&self) -> usize {
        self.num_switches
    }

    /// Total nodes (GPUs + CPU + switches).
    pub fn num_nodes(&self) -> usize {
        self.num_gpus + 1 + self.num_switches
    }

    /// The edge list, in deterministic creation order (also the network's
    /// tick order).
    pub fn edges(&self) -> &[EdgeSpec] {
        &self.edges
    }

    /// Whether every endpoint pair is one hop apart (true for
    /// [`TopologySpec::AllToAll`]); the network then skips the routed
    /// flow table entirely.
    pub fn is_single_hop(&self) -> bool {
        self.single_hop
    }

    /// The spec label this graph was generated from (`"custom"` for
    /// [`Topology::custom`]).
    pub fn label(&self) -> &str {
        &self.label
    }

    /// Human-readable node name: `"gpu3"`, `"cpu"`, `"sw0"`.
    pub fn node_label(&self, node: usize) -> String {
        node_label_of(self.num_gpus, node)
    }

    /// Node index of an endpoint.
    fn endpoint_index(&self, n: NodeId) -> usize {
        match n {
            NodeId::Gpu(g) => {
                assert!(g < self.num_gpus, "gpu id out of range");
                g
            }
            NodeId::Cpu => self.num_gpus,
        }
    }

    /// Number of link hops between two endpoints.
    pub fn hop_count(&self, src: NodeId, dst: NodeId) -> usize {
        self.hops(self.endpoint_index(src), self.endpoint_index(dst))
    }

    /// The node labels along the route from `src` to `dst`, inclusive
    /// (diagnostics and tests).
    pub fn route_labels(&self, src: NodeId, dst: NodeId) -> Vec<String> {
        let endpoints = self.num_gpus + 1;
        let mut at = self.endpoint_index(src);
        let dst = self.endpoint_index(dst);
        let mut out = vec![self.node_label(at)];
        while at != dst {
            let e = self.next_hop[at * endpoints + dst];
            at = self.edges[e as usize].to;
            out.push(self.node_label(at));
        }
        out
    }

    #[inline]
    fn next_hop_edge(&self, at: usize, dst_endpoint: usize) -> u32 {
        self.next_hop[at * (self.num_gpus + 1) + dst_endpoint]
    }
}

/// Computes the deterministic shortest-hop next-hop table over the live
/// subgraph (edges whose `dead` flag is unset; `None` = all alive), plus
/// the first endpoint pair left unroutable, if any. Shared by
/// [`Topology::finalize`] (build-time validation) and
/// [`LinkNetwork::fail_link`] (on-the-fly reroute around an injected
/// outage). Tie-breaks stay lowest-edge-index, so fault-free tables are
/// identical to the historic build-time computation.
fn route_table(
    num_gpus: usize,
    nodes: usize,
    edges: &[EdgeSpec],
    dead: Option<&[bool]>,
) -> (Vec<u32>, Option<(usize, usize)>) {
    let endpoints = num_gpus + 1;
    let cpu = num_gpus;
    let alive = |i: usize| dead.is_none_or(|d| !d[i]);
    // Reverse adjacency: incoming edge indices per node, in edge
    // order (the tie-break order).
    let mut incoming: Vec<Vec<u32>> = vec![Vec::new(); nodes];
    let mut outgoing: Vec<Vec<u32>> = vec![Vec::new(); nodes];
    for (i, e) in edges.iter().enumerate() {
        if alive(i) {
            incoming[e.to].push(i as u32);
            outgoing[e.from].push(i as u32);
        }
    }
    let mut next_hop = vec![NO_ROUTE; nodes * endpoints];
    let mut dist = vec![u32::MAX; nodes];
    let mut queue: Vec<usize> = Vec::with_capacity(nodes);
    for dst in 0..endpoints {
        dist.iter_mut().for_each(|d| *d = u32::MAX);
        dist[dst] = 0;
        queue.clear();
        queue.push(dst);
        let mut head = 0;
        while head < queue.len() {
            let m = queue[head];
            head += 1;
            // The CPU is a leaf endpoint: it never forwards transit
            // traffic, so no route may pass *through* it.
            if m == cpu && dst != cpu {
                continue;
            }
            for &ei in &incoming[m] {
                let u = edges[ei as usize].from;
                if dist[u] == u32::MAX {
                    dist[u] = dist[m] + 1;
                    queue.push(u);
                }
            }
        }
        for u in 0..nodes {
            if u == dst || dist[u] == u32::MAX {
                continue;
            }
            for &ei in &outgoing[u] {
                let to = edges[ei as usize].to;
                // Never step onto the CPU unless it is the target.
                if to == cpu && dst != cpu {
                    continue;
                }
                if dist[to] == dist[u] - 1 {
                    next_hop[u * endpoints + dst] = ei;
                    break;
                }
            }
        }
    }
    let mut unroutable = None;
    'pairs: for a in 0..endpoints {
        for b in 0..endpoints {
            if a == b || (a == cpu && b == cpu) {
                continue;
            }
            if next_hop[a * endpoints + b] == NO_ROUTE {
                unroutable = Some((a, b));
                break 'pairs;
            }
        }
    }
    (next_hop, unroutable)
}

fn node_label_of(num_gpus: usize, node: usize) -> String {
    if node < num_gpus {
        format!("gpu{node}")
    } else if node == num_gpus {
        "cpu".to_string()
    } else {
        format!("sw{}", node - num_gpus - 1)
    }
}

/// In-flight bookkeeping for one multi-hop message: original endpoints
/// and size, looked up at every hop by the network-internal flow token.
#[derive(Debug, Clone, Copy)]
struct Flow {
    token: u64,
    src: u32,
    dst: u32,
    bytes: u64,
}

/// The runtime interconnect over a [`Topology`]: one [`Link`] per edge,
/// static routing, and per-hop forwarding at switches.
///
/// For single-hop graphs (the default all-to-all mesh) every send lands
/// directly on its one link with the caller's token — zero routing
/// overhead, bit-identical to the historic pairwise table. Multi-hop
/// graphs carry a network-internal flow token per message; arrivals at a
/// non-destination node are re-sent on the next hop's link at the arrival
/// cycle, so switch queueing is exactly the outgoing link's serialization
/// backlog.
#[derive(Debug)]
pub struct LinkNetwork {
    topo: Topology,
    links: Vec<Link>,
    flows: Slab<Flow>,
    // Per-node transit counters: (received-in-transit, forwarded).
    // Endpoint deliveries are not transit; in conservative operation the
    // two columns are equal whenever the network is drained.
    transit: Vec<(u64, u64)>,
    injected: u64,
    delivered: u64,
    // EQUIVALENCE: `arrivals` holds exactly one `(min_arrival, edge)`
    // entry per link with messages on its wire. A send onto an idle link
    // pushes one; a send onto a busy link needs none, since a link's
    // arrivals never decrease (`Link::send`). `tick_into` pops every
    // entry due by `now`, drains those links, and pushes back the new
    // `min_arrival` of each that is still busy. So the edges it visits
    // are exactly those whose `min_arrival` is due, in ascending edge
    // order — the visit-every-edge loop minus its no-op iterations — and
    // the heap's minimum is the network's event horizon.
    /// Busy links as a min-heap of `(earliest arrival, edge)`.
    arrivals: BinaryHeap<Reverse<(u64, usize)>>,
    // Reused buffers for `tick_into`: due edges and one link's drain.
    due_scratch: Vec<usize>,
    drain_scratch: Vec<u64>,
    // --- fault-injection state (all zero in fault-free runs; the hot
    // path pays one compare per delivery when quiescent) ---
    // Per-edge flags: killed by an injected outage / currently throttled.
    dead: Vec<bool>,
    degraded: Vec<bool>,
    // Armed lossy injections, consumed at the next matching event.
    pending_drops: u32,
    pending_fwd_drops: u32,
    pending_dups: u32,
    // Consumed-injection counters for RecoverySnapshot.
    dropped: u64,
    duplicated: u64,
    // Arrived wire tokens with no flow entry: impossible in conservative
    // operation, counted instead of panicking so a desync degrades
    // gracefully (the conservation sanitizer then reports it).
    flow_desync: u64,
}

impl LinkNetwork {
    /// Builds the paper's all-to-all mesh: every GPU pair gets a dedicated
    /// link in each direction at `gpu_bpc` bytes/cycle; every GPU gets a
    /// CPU link pair at `cpu_bpc`.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::ConfigInvalid`] if `num_gpus` is zero or above
    /// [`MAX_GPUS`], or a bandwidth is not positive.
    pub fn new(
        num_gpus: usize,
        gpu_bpc: f64,
        gpu_latency: u64,
        cpu_bpc: f64,
        cpu_latency: u64,
    ) -> Result<LinkNetwork, SimError> {
        LinkNetwork::from_topology(Topology::build(
            TopologySpec::AllToAll,
            num_gpus,
            gpu_bpc,
            gpu_latency,
            cpu_bpc,
            cpu_latency,
        )?)
    }

    /// Builds the runtime network for an already-validated topology.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::ConfigInvalid`] if an edge has non-positive
    /// bandwidth (cannot happen for a [`Topology`] that passed its own
    /// validation).
    pub fn from_topology(topo: Topology) -> Result<LinkNetwork, SimError> {
        let links = topo
            .edges()
            .iter()
            .map(|e| Link::new(e.bytes_per_cycle, e.latency))
            .collect::<Result<Vec<_>, _>>()?;
        let transit = vec![(0, 0); topo.num_nodes()];
        let num_edges = topo.edges().len();
        Ok(LinkNetwork {
            topo,
            links,
            flows: Slab::new(),
            transit,
            injected: 0,
            delivered: 0,
            arrivals: BinaryHeap::new(),
            due_scratch: Vec::new(),
            drain_scratch: Vec::new(),
            dead: vec![false; num_edges],
            degraded: vec![false; num_edges],
            pending_drops: 0,
            pending_fwd_drops: 0,
            pending_dups: 0,
            dropped: 0,
            duplicated: 0,
            flow_desync: 0,
        })
    }

    /// The topology this network runs on.
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    #[inline]
    fn node_id_of(&self, node: usize) -> NodeId {
        if node == self.topo.num_gpus {
            NodeId::Cpu
        } else {
            NodeId::Gpu(node)
        }
    }

    /// First-hop edge for `src → dst`, panicking on self-sends like the
    /// historic pairwise table did.
    #[inline]
    fn first_hop(&self, src: NodeId, dst: NodeId) -> usize {
        let s = self.topo.endpoint_index(src);
        let d = self.topo.endpoint_index(dst);
        assert!(s != d, "no self-link");
        let e = self.topo.next_hop_edge(s, d);
        debug_assert!(e != NO_ROUTE, "unroutable pair in validated topology");
        e as usize
    }

    /// Whether the first-hop link of `src → dst`'s route has a
    /// serialization backlog extending more than `horizon` cycles past
    /// `now`. Senders use this as back-pressure instead of piling
    /// unbounded traffic onto a saturated link.
    pub fn congested(&self, src: NodeId, dst: NodeId, now: Cycle, horizon: u64) -> bool {
        self.links[self.first_hop(src, dst)].next_free() > Cycle(now.0 + horizon)
    }

    /// The first cycle at which `src → dst` can stop being
    /// [`LinkNetwork::congested`] under `horizon`, given the first-hop
    /// backlog now. A link's next free slot only grows, so the pair stays
    /// congested before this cycle until a route changes.
    pub fn uncongested_at(&self, src: NodeId, dst: NodeId, horizon: u64) -> Cycle {
        let free = self.links[self.first_hop(src, dst)].next_free();
        Cycle(free.0.saturating_sub(horizon))
    }

    /// Sends `bytes` from `src` to `dst` along the static route.
    ///
    /// # Panics
    ///
    /// Panics on self-sends or out-of-range GPU ids.
    pub fn send(&mut self, src: NodeId, dst: NodeId, token: u64, bytes: u64, now: Cycle) {
        let e = self.first_hop(src, dst);
        self.injected += 1;
        let wire_token = if self.topo.single_hop {
            token
        } else {
            let s = self.topo.endpoint_index(src) as u32;
            let d = self.topo.endpoint_index(dst) as u32;
            self.flows.insert(Flow {
                token,
                src: s,
                dst: d,
                bytes,
            })
        };
        self.send_on(e, wire_token, bytes, now);
    }

    /// Puts `token` on edge `e`'s wire, registering the link in
    /// `arrivals` if it was idle.
    fn send_on(&mut self, e: usize, token: u64, bytes: u64, now: Cycle) {
        let idle = self.links[e].is_idle();
        self.links[e].send(token, bytes, now);
        if idle {
            self.arrivals.push(Reverse((self.links[e].min_arrival, e)));
        }
    }

    /// Drains edge `e`'s messages due by `now` into `scratch` (cleared
    /// first). A due link that stays busy goes back into `arrivals` under
    /// its new earliest arrival.
    fn drain_link(&mut self, e: usize, now: Cycle, scratch: &mut Vec<u64>) {
        scratch.clear();
        let due = self.links[e].min_arrival <= now.0;
        self.links[e].tick_into(now, scratch);
        if due && !self.links[e].is_idle() {
            self.arrivals.push(Reverse((self.links[e].min_arrival, e)));
        }
    }

    /// Advances all links, returning every delivery due by `now`.
    pub fn tick(&mut self, now: Cycle) -> Vec<Delivery> {
        let mut out = Vec::new();
        self.tick_into(now, &mut out);
        out
    }

    /// Advances the links with a message due by `now`, in edge order,
    /// appending every delivery to `out` (allocation-free variant of
    /// [`LinkNetwork::tick`]; `out` is NOT cleared). Transit arrivals at a
    /// non-destination node are immediately re-sent on the next hop; the
    /// new arrival is strictly in the future, so in-tick iteration order
    /// cannot observe it.
    pub fn tick_into(&mut self, now: Cycle, out: &mut Vec<Delivery>) {
        self.tick_links(now, out, false);
    }

    /// [`LinkNetwork::tick_into`] that visits every link, due or not: the
    /// stepping engine's oracle, which does not consult the arrival heap
    /// to pick links.
    pub fn tick_all_into(&mut self, now: Cycle, out: &mut Vec<Delivery>) {
        self.tick_links(now, out, true);
    }

    fn tick_links(&mut self, now: Cycle, out: &mut Vec<Delivery>, all: bool) {
        let mut due = std::mem::take(&mut self.due_scratch);
        due.clear();
        while let Some(&Reverse((at, e))) = self.arrivals.peek() {
            if at > now.0 {
                break;
            }
            self.arrivals.pop();
            due.push(e);
        }
        if all {
            due.clear();
            due.extend(0..self.links.len());
        } else {
            due.sort_unstable();
        }
        let mut scratch = std::mem::take(&mut self.drain_scratch);
        if self.topo.single_hop {
            for &i in &due {
                self.drain_link(i, now, &mut scratch);
                let e = self.topo.edges[i];
                let src = self.node_id_of(e.from);
                let dst = self.node_id_of(e.to);
                for &token in &scratch {
                    if self.take_drop() {
                        continue;
                    }
                    self.delivered += 1;
                    out.push(Delivery { token, src, dst });
                    if self.take_dup() {
                        self.delivered += 1;
                        out.push(Delivery { token, src, dst });
                    }
                }
            }
        } else {
            for &i in &due {
                self.drain_link(i, now, &mut scratch);
                let at = self.topo.edges[i].to;
                for &flow_token in &scratch {
                    let Some(&flow) = self.flows.get(flow_token) else {
                        // A wire token without a flow entry is impossible
                        // in conservative operation (every in-flight token
                        // is minted by `send` / migrated by `fail_link`).
                        // Count and drop instead of panicking: the run
                        // degrades and the conservation sanitizer reports
                        // the imbalance at its next check.
                        self.flow_desync += 1;
                        continue;
                    };
                    if at as u32 == flow.dst {
                        self.flows.remove(flow_token);
                        if self.take_drop() {
                            continue;
                        }
                        self.delivered += 1;
                        let d = Delivery {
                            token: flow.token,
                            src: self.node_id_of(flow.src as usize),
                            dst: self.node_id_of(flow.dst as usize),
                        };
                        out.push(d);
                        if self.take_dup() {
                            self.delivered += 1;
                            out.push(d);
                        }
                    } else {
                        self.transit[at].0 += 1;
                        if self.take_fwd_drop() {
                            // Lost in transit: the flow dies at this node
                            // (received but never forwarded — the per-hop
                            // conservation invariant's bait).
                            self.flows.remove(flow_token);
                        } else {
                            self.transit[at].1 += 1;
                            let next = self.topo.next_hop_edge(at, flow.dst as usize);
                            debug_assert!(next != NO_ROUTE, "transit node lost its route");
                            self.send_on(next as usize, flow_token, flow.bytes, now);
                        }
                    }
                }
            }
        }
        self.drain_scratch = scratch;
        self.due_scratch = due;
    }

    /// Consumes one armed packet drop, if any (fault injection).
    #[inline]
    fn take_drop(&mut self) -> bool {
        if self.pending_drops != 0 {
            self.pending_drops -= 1;
            self.dropped += 1;
            true
        } else {
            false
        }
    }

    /// Consumes one armed transit-forward drop, if any (fault injection).
    #[inline]
    fn take_fwd_drop(&mut self) -> bool {
        if self.pending_fwd_drops != 0 {
            self.pending_fwd_drops -= 1;
            self.dropped += 1;
            true
        } else {
            false
        }
    }

    /// Consumes one armed packet duplication, if any (fault injection).
    #[inline]
    fn take_dup(&mut self) -> bool {
        if self.pending_dups != 0 {
            self.pending_dups -= 1;
            self.duplicated += 1;
            true
        } else {
            false
        }
    }

    /// Total bytes sent over GPU-class links (every edge not touching the
    /// CPU node — the all-to-all mesh, ring hops, switch ports and
    /// inter-pod backplane).
    pub fn gpu_bytes_sent(&self) -> u64 {
        self.class_bytes(false)
    }

    /// Total bytes sent over CPU links (both directions of every edge
    /// touching the CPU node).
    pub fn cpu_bytes_sent(&self) -> u64 {
        self.class_bytes(true)
    }

    fn class_bytes(&self, cpu_class: bool) -> u64 {
        let cpu = self.topo.num_gpus;
        self.topo
            .edges
            .iter()
            .zip(&self.links)
            .filter(|(e, _)| (e.from == cpu || e.to == cpu) == cpu_class)
            .map(|(_, l)| l.bytes_sent())
            .sum()
    }

    /// Peak utilization across GPU-class links over `elapsed` cycles.
    pub fn max_gpu_link_utilization(&self, elapsed: Cycle) -> f64 {
        let cpu = self.topo.num_gpus;
        self.topo
            .edges
            .iter()
            .zip(&self.links)
            .filter(|(e, _)| e.from != cpu && e.to != cpu)
            .map(|(_, l)| l.utilization(elapsed))
            .fold(0.0, f64::max)
    }

    /// End-to-end message counters: `(injected, delivered)`. An injection
    /// is one [`LinkNetwork::send`]; a delivery is an arrival at the
    /// final destination (transit hops are not counted). Both are
    /// monotonic, so their sum serves as a progress signature for the
    /// engine watchdog, and the sanitizer checks `delivered <= injected`
    /// every tick and equality at run end.
    pub fn message_counts(&self) -> (u64, u64) {
        (self.injected, self.delivered)
    }

    /// Per-node transit counters `(received, forwarded)`, indexed by node
    /// (GPUs, then CPU, then switches). A conservative network keeps
    /// `forwarded <= received` at every instant and equality whenever it
    /// is drained; the sanitizer's per-hop conservation check consumes
    /// this table. All zeros on single-hop topologies (and always for the
    /// CPU, which never forwards).
    pub fn transit_counts(&self) -> &[(u64, u64)] {
        &self.transit
    }

    /// Sum of transit hops across all nodes, `(received, forwarded)`.
    /// Monotonic; folded into the watchdog progress signature so long
    /// multi-hop flights still register forward progress.
    pub fn transit_totals(&self) -> (u64, u64) {
        self.transit
            .iter()
            .fold((0, 0), |(r, f), &(tr, tf)| (r + tr, f + tf))
    }

    /// Number of directional edges (links) in the topology; fault plans
    /// resolve their edge hints modulo this.
    pub fn num_edges(&self) -> usize {
        self.links.len()
    }

    /// Per-link occupancy breakdowns for the cycle-accounting profiler, in
    /// edge order: labeled serialization / queueing / fault-degraded wire
    /// time accumulated over all sends.
    pub fn link_occupancies(&self) -> Vec<LinkOccupancy> {
        self.links
            .iter()
            .enumerate()
            .map(|(e, link)| {
                let (ser_cycles, queue_cycles, degraded_cycles) = link.occupancy();
                LinkOccupancy {
                    label: self.edge_label(e),
                    ser_cycles,
                    queue_cycles,
                    degraded_cycles,
                }
            })
            .collect()
    }

    /// Human-readable route of edge `e`, e.g. `"gpu0->gpu1"`.
    pub fn edge_label(&self, e: usize) -> String {
        let edge = self.topo.edges[e];
        format!(
            "{}->{}",
            self.topo.node_label(edge.from),
            self.topo.node_label(edge.to)
        )
    }

    /// Throttles edge `e` to `percent`% (1..=100) of its built bandwidth
    /// (fault injection: a degradation window). Affects only future
    /// serialization; in-flight arrivals keep their cycles. 100 restores
    /// full speed. No effect on a dead link.
    pub fn set_link_bandwidth_factor(&mut self, e: usize, percent: u32) {
        if self.dead[e] {
            return;
        }
        let pct = percent.clamp(1, 100);
        let base = self.topo.edges[e].bytes_per_cycle;
        self.links[e].set_bytes_per_cycle(base * pct as f64 / 100.0);
        self.degraded[e] = pct != 100;
    }

    /// Kills edge `e` permanently (fault injection: a link outage) and
    /// recomputes the route table around it. Messages already serialized
    /// onto the dead wire still arrive (they are physically in transit);
    /// no new traffic is routed over it. If the outage flips a
    /// single-hop graph into routed mode, raw in-flight tokens are
    /// migrated into the flow table so arrivals keep one code path.
    ///
    /// Returns the number of next-hop table entries that changed
    /// (reroute accounting), 0 if the edge was already dead.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::FabricPartitioned`] naming the first severed
    /// endpoint pair when the surviving graph is unroutable; the network
    /// is left unchanged (beyond marking the edge dead) and the caller
    /// terminates the run.
    pub fn fail_link(&mut self, e: usize, now: Cycle) -> Result<u64, SimError> {
        if self.dead[e] {
            return Ok(0);
        }
        self.dead[e] = true;
        let (next_hop, unroutable) = route_table(
            self.topo.num_gpus,
            self.topo.num_nodes(),
            &self.topo.edges,
            Some(&self.dead),
        );
        if let Some((a, b)) = unroutable {
            return Err(SimError::FabricPartitioned {
                from: self.topo.node_label(a),
                to: self.topo.node_label(b),
                cycle: now.0,
            });
        }
        let changed = self
            .topo
            .next_hop
            .iter()
            .zip(&next_hop)
            .filter(|(old, new)| old != new)
            .count() as u64;
        self.topo.next_hop = next_hop;
        let was_single_hop = self.topo.single_hop;
        self.topo.recompute_single_hop();
        if was_single_hop && !self.topo.single_hop {
            // Mid-run fast-path exit: tokens already on the wire were
            // sent raw (no flow entry). Migrate them so the routed
            // arrival path can look every one of them up. Each is one
            // hop from its destination by construction, so src/dst are
            // the edge endpoints and the byte size is never needed
            // again (it only matters for forwarding).
            let LinkNetwork {
                topo, links, flows, ..
            } = self;
            for (i, link) in links.iter_mut().enumerate() {
                let edge = topo.edges[i];
                link.retag_in_flight(|token| {
                    flows.insert(Flow {
                        token,
                        src: edge.from as u32,
                        dst: edge.to as u32,
                        bytes: 0,
                    })
                });
            }
        }
        Ok(changed)
    }

    /// Arms `n` packet drops: the next `n` final-hop deliveries vanish
    /// (fault injection; deliberately violates NoC conservation).
    pub fn inject_packet_drops(&mut self, n: u32) {
        self.pending_drops = self.pending_drops.saturating_add(n);
    }

    /// Arms `n` transit-forward drops: the next `n` messages arriving at
    /// a forwarding node die there (violates per-hop conservation).
    /// Consumed only on multi-hop fabrics — single-hop graphs have no
    /// transit hops.
    pub fn inject_forward_drops(&mut self, n: u32) {
        self.pending_fwd_drops = self.pending_fwd_drops.saturating_add(n);
    }

    /// Arms `n` packet duplications: the next `n` final-hop deliveries
    /// arrive twice (violates conservation and token lifecycle).
    pub fn inject_packet_dups(&mut self, n: u32) {
        self.pending_dups = self.pending_dups.saturating_add(n);
    }

    /// Packets dropped by consumed injections (final-hop + transit).
    pub fn dropped_packet_count(&self) -> u64 {
        self.dropped
    }

    /// Extra deliveries produced by consumed duplication injections.
    pub fn duplicated_packet_count(&self) -> u64 {
        self.duplicated
    }

    /// Arrived wire tokens that had no flow entry (always 0 in
    /// conservative operation; counted instead of panicking).
    pub fn flow_desync_count(&self) -> u64 {
        self.flow_desync
    }

    /// Number of links currently dead or throttled below full bandwidth.
    pub fn impaired_link_count(&self) -> usize {
        (0..self.links.len())
            .filter(|&i| self.dead[i] || self.degraded[i])
            .count()
    }

    /// One line per impaired link (dead or degraded), for watchdog stall
    /// diagnostics and fault-state reports. Empty when the fabric is
    /// healthy.
    pub fn fault_report(&self) -> Vec<String> {
        (0..self.links.len())
            .filter_map(|i| {
                if self.dead[i] {
                    Some(format!("link {} [e{i}]: DEAD (outage)", self.edge_label(i)))
                } else if self.degraded[i] {
                    Some(format!(
                        "link {} [e{i}]: degraded to {:.2} B/cyc (built {:.2})",
                        self.edge_label(i),
                        self.links[i].bytes_per_cycle(),
                        self.topo.edges[i].bytes_per_cycle,
                    ))
                } else {
                    None
                }
            })
            .collect()
    }

    /// One diagnostic line per link with traffic in flight: route, queue
    /// depth, and the arrival cycle of its oldest message. Empty when the
    /// network is idle.
    pub fn occupancy_report(&self) -> Vec<String> {
        self.snapshot().occupancy_report()
    }

    /// Point-in-time per-link and per-switch occupancy. Read-only; the
    /// single source behind [`LinkNetwork::occupancy_report`] and the
    /// telemetry sampler.
    pub fn snapshot(&self) -> NetSnapshot {
        let links = self
            .topo
            .edges
            .iter()
            .zip(&self.links)
            .map(|(e, l)| LinkSnapshot {
                route: format!(
                    "{}->{}",
                    self.topo.node_label(e.from),
                    self.topo.node_label(e.to)
                ),
                in_flight: l.in_flight(),
                oldest_arrival: l.oldest_in_flight_arrival(),
                bytes_sent: l.bytes_sent(),
            })
            .collect();
        let cpu = self.topo.num_gpus;
        let switches = (cpu + 1..self.topo.num_nodes())
            .map(|n| SwitchSnapshot {
                node: self.topo.node_label(n),
                transit_received: self.transit[n].0,
                transit_forwarded: self.transit[n].1,
                queued: self
                    .topo
                    .edges
                    .iter()
                    .zip(&self.links)
                    .filter(|(e, _)| e.from == n)
                    .map(|(_, l)| l.in_flight())
                    .sum(),
            })
            .collect();
        NetSnapshot { links, switches }
    }

    /// Cumulative bytes sent on GPU `g`'s outbound links (every edge
    /// leaving the GPU node — peers and CPU, plus switch uplinks and, on
    /// a ring, forwarded transit). Monotonic; the telemetry sampler
    /// differences it per interval for outbound bandwidth.
    pub fn gpu_outbound_bytes(&self, g: usize) -> u64 {
        assert!(g < self.topo.num_gpus);
        self.topo
            .edges
            .iter()
            .zip(&self.links)
            .filter(|(e, _)| e.from == g)
            .map(|(_, l)| l.bytes_sent())
            .sum()
    }

    /// Messages currently in flight on GPU `g`'s outbound links.
    /// Point-in-time occupancy, not monotonic.
    pub fn gpu_outbound_in_flight(&self, g: usize) -> usize {
        assert!(g < self.topo.num_gpus);
        self.topo
            .edges
            .iter()
            .zip(&self.links)
            .filter(|(e, _)| e.from == g)
            .map(|(_, l)| l.in_flight())
            .sum()
    }

    /// Whether every link is quiescent (no message on any hop).
    pub fn is_idle(&self) -> bool {
        self.links.iter().all(Link::is_idle)
    }

    /// Number of GPU nodes.
    pub fn num_gpus(&self) -> usize {
        self.topo.num_gpus
    }
}

/// Point-in-time occupancy of one link (see [`NetSnapshot`]).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LinkSnapshot {
    /// Human-readable route, e.g. `"gpu0->gpu1"`, `"gpu2->cpu"`,
    /// `"cpu->gpu3"`, `"sw0->gpu7"`.
    pub route: String,
    /// Messages in flight on the link.
    pub in_flight: usize,
    /// Arrival cycle of the oldest in-flight message, if any.
    pub oldest_arrival: Option<u64>,
    /// Cumulative bytes accepted by the link.
    pub bytes_sent: u64,
}

/// Point-in-time occupancy of one switch node (see [`NetSnapshot`]).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SwitchSnapshot {
    /// Node label, e.g. `"sw0"`.
    pub node: String,
    /// Cumulative transit messages received (not destined here).
    pub transit_received: u64,
    /// Cumulative transit messages forwarded onward.
    pub transit_forwarded: u64,
    /// Messages currently queued on the switch's outgoing links.
    pub queued: usize,
}

/// Point-in-time occupancy snapshot of the whole interconnect, links in
/// edge (tick) order, plus per-switch transit occupancy (empty for
/// switchless topologies).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct NetSnapshot {
    /// Per-link occupancy.
    pub links: Vec<LinkSnapshot>,
    /// Per-switch occupancy.
    pub switches: Vec<SwitchSnapshot>,
}

impl NetSnapshot {
    /// Human-readable lines naming every link with traffic in flight and
    /// every switch with queued transit (empty when the network is idle).
    /// Used verbatim in watchdog stall reports.
    pub fn occupancy_report(&self) -> Vec<String> {
        let mut lines: Vec<String> = self
            .links
            .iter()
            .filter(|l| l.in_flight > 0)
            .map(|l| {
                format!(
                    "link {}: in_flight={} oldest_arrival={}",
                    l.route,
                    l.in_flight,
                    l.oldest_arrival.unwrap_or(0),
                )
            })
            .collect();
        lines.extend(self.switches.iter().filter(|s| s.queued > 0).map(|s| {
            format!(
                "switch {}: queued={} transit_received={} transit_forwarded={}",
                s.node, s.queued, s.transit_received, s.transit_forwarded,
            )
        }));
        lines
    }
}

impl NextEvent for LinkNetwork {
    fn next_event(&self, now: Cycle) -> Option<Cycle> {
        let &Reverse((at, _)) = self.arrivals.peek()?;
        Some(Cycle(at.max(now.0 + 1)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn message_arrives_after_serialization_plus_latency() {
        let mut l = Link::new(8.0, 100).expect("valid");
        l.send(42, 160, Cycle(0));
        // 160/8 = 20 cycles serialization + 100 latency = arrival 120.
        assert!(l.tick(Cycle(119)).is_empty());
        assert_eq!(l.tick(Cycle(120)), vec![42]);
        assert!(l.is_idle());
    }

    #[test]
    fn back_to_back_messages_queue_on_bandwidth() {
        let mut l = Link::new(8.0, 0).expect("valid");
        l.send(1, 160, Cycle(0));
        l.send(2, 160, Cycle(0));
        // First done serializing at 20, second at 40.
        let mut arrivals = Vec::new();
        for c in 0..=40u64 {
            for t in l.tick(Cycle(c)) {
                arrivals.push((t, c));
            }
        }
        assert_eq!(arrivals, vec![(1, 20), (2, 40)]);
    }

    #[test]
    fn non_positive_bandwidth_is_a_config_error() {
        for bad in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            let err = Link::new(bad, 10).expect_err("must reject");
            assert!(
                err.to_string().contains("link bandwidth must be positive"),
                "{err}"
            );
        }
    }

    #[test]
    fn utilization_saturates_at_one() {
        let mut l = Link::new(2.0, 0).expect("valid");
        for i in 0..100 {
            l.send(i, 128, Cycle(0));
        }
        assert!((l.utilization(Cycle(100)) - 1.0).abs() < 1e-9);
        assert!(l.utilization(Cycle::ZERO) == 0.0);
    }

    #[test]
    fn network_routes_between_gpus_and_cpu() {
        let mut net = LinkNetwork::new(4, 8.0, 10, 4.0, 20).expect("valid");
        net.send(NodeId::Gpu(0), NodeId::Gpu(3), 1, 32, Cycle(0));
        net.send(NodeId::Gpu(2), NodeId::Cpu, 2, 32, Cycle(0));
        net.send(NodeId::Cpu, NodeId::Gpu(1), 3, 32, Cycle(0));
        let mut seen = Vec::new();
        for c in 0..100u64 {
            seen.extend(net.tick(Cycle(c)));
        }
        assert_eq!(seen.len(), 3);
        assert!(seen.contains(&Delivery {
            token: 1,
            src: NodeId::Gpu(0),
            dst: NodeId::Gpu(3)
        }));
        assert!(seen.contains(&Delivery {
            token: 2,
            src: NodeId::Gpu(2),
            dst: NodeId::Cpu
        }));
        assert!(net.is_idle());
    }

    #[test]
    fn distinct_links_do_not_interfere() {
        let mut net = LinkNetwork::new(2, 1.0, 0, 1.0, 0).expect("valid");
        // Saturate 0->1; 1->0 stays fast.
        for i in 0..10 {
            net.send(NodeId::Gpu(0), NodeId::Gpu(1), i, 128, Cycle(0));
        }
        net.send(NodeId::Gpu(1), NodeId::Gpu(0), 99, 32, Cycle(0));
        let deliveries: Vec<_> = (0..=32u64).flat_map(|c| net.tick(Cycle(c))).collect();
        assert!(deliveries.iter().any(|d| d.token == 99));
    }

    #[test]
    #[should_panic(expected = "no self-link")]
    fn self_link_panics() {
        let mut net = LinkNetwork::new(2, 1.0, 0, 1.0, 0).expect("valid");
        net.send(NodeId::Gpu(0), NodeId::Gpu(0), 0, 32, Cycle(0));
    }

    #[test]
    fn next_event_points_at_earliest_arrival() {
        let mut l = Link::new(8.0, 100).expect("valid");
        assert_eq!(l.next_event(Cycle(0)), None);
        l.send(1, 160, Cycle(0)); // arrives at 120
        l.send(2, 160, Cycle(0)); // arrives at 140
        assert_eq!(l.next_event(Cycle(0)), Some(Cycle(120)));
        assert!(l.tick(Cycle(119)).is_empty());
        assert_eq!(l.tick(Cycle(120)), vec![1]);
        assert_eq!(l.next_event(Cycle(120)), Some(Cycle(140)));
        let mut net = LinkNetwork::new(2, 8.0, 10, 4.0, 20).expect("valid");
        assert_eq!(net.next_event(Cycle(0)), None);
        net.send(NodeId::Gpu(0), NodeId::Gpu(1), 7, 32, Cycle(0));
        // 32/8 = 4 serialization + 10 latency.
        assert_eq!(net.next_event(Cycle(0)), Some(Cycle(14)));
    }

    #[test]
    fn message_counts_and_occupancy_report_track_in_flight_traffic() {
        let mut net = LinkNetwork::new(2, 8.0, 100, 8.0, 100).expect("valid");
        net.send(NodeId::Gpu(0), NodeId::Gpu(1), 1, 32, Cycle(0));
        net.send(NodeId::Gpu(1), NodeId::Cpu, 2, 32, Cycle(0));
        assert_eq!(net.message_counts(), (2, 0));
        let report = net.occupancy_report();
        assert_eq!(report.len(), 2);
        assert!(report.iter().any(|l| l.contains("gpu0->gpu1")));
        assert!(report.iter().any(|l| l.contains("gpu1->cpu")));
        for c in 0..=200u64 {
            net.tick(Cycle(c));
        }
        assert_eq!(net.message_counts(), (2, 2));
        assert!(net.occupancy_report().is_empty());
    }

    #[test]
    fn byte_accounting_split_by_kind() {
        let mut net = LinkNetwork::new(2, 8.0, 0, 8.0, 0).expect("valid");
        net.send(NodeId::Gpu(0), NodeId::Gpu(1), 0, msg::REQ_BYTES, Cycle(0));
        net.send(
            NodeId::Gpu(0),
            NodeId::Cpu,
            1,
            msg::WRITE_DATA_BYTES,
            Cycle(0),
        );
        assert_eq!(net.gpu_bytes_sent(), 32);
        assert_eq!(net.cpu_bytes_sent(), 160);
    }

    // ----------------------------------------------------------------
    // Routed-topology tests.

    #[test]
    fn all_to_all_is_single_hop_with_historic_edge_order() {
        let topo = Topology::build(TopologySpec::AllToAll, 3, 8.0, 10, 4.0, 20).expect("valid");
        assert!(topo.is_single_hop());
        assert_eq!(topo.num_switches(), 0);
        // GPU pairs row-major, then per-GPU to-CPU / from-CPU interleaved:
        // the historic pairwise table's tick order.
        let routes: Vec<String> = topo
            .edges()
            .iter()
            .map(|e| format!("{}->{}", topo.node_label(e.from), topo.node_label(e.to)))
            .collect();
        assert_eq!(
            routes,
            vec![
                "gpu0->gpu1",
                "gpu0->gpu2",
                "gpu1->gpu0",
                "gpu1->gpu2",
                "gpu2->gpu0",
                "gpu2->gpu1",
                "gpu0->cpu",
                "cpu->gpu0",
                "gpu1->cpu",
                "cpu->gpu1",
                "gpu2->cpu",
                "cpu->gpu2",
            ]
        );
    }

    #[test]
    fn all_to_all_same_tick_delivery_order_matches_pairwise_table() {
        // Six messages arriving on the same cycle must drain in the
        // historic order: GPU pairs row-major, then per-GPU CPU pairs.
        let mut net = LinkNetwork::new(2, 32.0, 10, 32.0, 10).expect("valid");
        net.send(NodeId::Gpu(0), NodeId::Gpu(1), 1, 32, Cycle(0));
        net.send(NodeId::Gpu(1), NodeId::Gpu(0), 2, 32, Cycle(0));
        net.send(NodeId::Gpu(0), NodeId::Cpu, 3, 32, Cycle(0));
        net.send(NodeId::Cpu, NodeId::Gpu(0), 4, 32, Cycle(0));
        net.send(NodeId::Gpu(1), NodeId::Cpu, 5, 32, Cycle(0));
        net.send(NodeId::Cpu, NodeId::Gpu(1), 6, 32, Cycle(0));
        let tokens: Vec<u64> = net.tick(Cycle(11)).iter().map(|d| d.token).collect();
        assert_eq!(tokens, vec![1, 2, 3, 4, 5, 6]);
    }

    #[test]
    fn switch_topology_pays_two_hops() {
        let topo = Topology::build(TopologySpec::Switch, 4, 8.0, 100, 4.0, 200).expect("valid");
        assert!(!topo.is_single_hop());
        assert_eq!(topo.num_switches(), 1);
        assert_eq!(topo.hop_count(NodeId::Gpu(0), NodeId::Gpu(1)), 2);
        assert_eq!(
            topo.route_labels(NodeId::Gpu(2), NodeId::Cpu),
            vec!["gpu2", "sw0", "cpu"]
        );
        let mut net = LinkNetwork::from_topology(topo).expect("valid");
        net.send(NodeId::Gpu(0), NodeId::Gpu(1), 7, 160, Cycle(0));
        // Hop 1: 160/8 = 20 ser + 100 latency -> arrives at sw0 at 120.
        // Hop 2: starts at 120, 20 ser + 100 latency -> arrives at 240.
        let mut seen = Vec::new();
        for c in 0..=239u64 {
            seen.extend(net.tick(Cycle(c)));
        }
        assert!(seen.is_empty(), "multi-hop delivery must pay both hops");
        assert_eq!(
            net.tick(Cycle(240)),
            vec![Delivery {
                token: 7,
                src: NodeId::Gpu(0),
                dst: NodeId::Gpu(1)
            }]
        );
        assert!(net.is_idle());
        // One transit hop at the switch, conserved.
        assert_eq!(net.transit_counts()[5], (1, 1));
        assert_eq!(net.message_counts(), (1, 1));
    }

    #[test]
    fn multi_hop_event_horizon_tracks_forwarded_messages() {
        let topo = Topology::build(TopologySpec::Switch, 2, 8.0, 100, 4.0, 200).expect("valid");
        let mut net = LinkNetwork::from_topology(topo).expect("valid");
        net.send(NodeId::Gpu(0), NodeId::Gpu(1), 1, 160, Cycle(0));
        // First hop arrives at 120.
        assert_eq!(net.next_event(Cycle(0)), Some(Cycle(120)));
        assert!(net.tick(Cycle(120)).is_empty());
        // The forward is now in flight; the horizon must point at it,
        // not report idle (the event-skip engine would stall otherwise).
        assert_eq!(net.next_event(Cycle(120)), Some(Cycle(240)));
        assert_eq!(net.tick(Cycle(240)).len(), 1);
        assert_eq!(net.next_event(Cycle(240)), None);
    }

    #[test]
    fn ring_routes_shortest_direction_clockwise_on_ties() {
        let topo = Topology::build(TopologySpec::Ring, 4, 8.0, 10, 4.0, 20).expect("valid");
        // One hop to the clockwise neighbour.
        assert_eq!(
            topo.route_labels(NodeId::Gpu(0), NodeId::Gpu(1)),
            vec!["gpu0", "gpu1"]
        );
        // One hop counter-clockwise (not three hops around).
        assert_eq!(
            topo.route_labels(NodeId::Gpu(0), NodeId::Gpu(3)),
            vec!["gpu0", "gpu3"]
        );
        // Two hops either way: the tie breaks clockwise.
        assert_eq!(
            topo.route_labels(NodeId::Gpu(0), NodeId::Gpu(2)),
            vec!["gpu0", "gpu1", "gpu2"]
        );
        // CPU links are dedicated, one hop, and never used for transit.
        assert_eq!(topo.hop_count(NodeId::Gpu(2), NodeId::Cpu), 1);
        let mut net = LinkNetwork::from_topology(topo).expect("valid");
        net.send(NodeId::Gpu(0), NodeId::Gpu(2), 9, 160, Cycle(0));
        let mut got = Vec::new();
        for c in 0..200u64 {
            got.extend(net.tick(Cycle(c)));
        }
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].src, NodeId::Gpu(0));
        assert_eq!(got[0].dst, NodeId::Gpu(2));
        // GPU 1 forwarded one transit message.
        assert_eq!(net.transit_counts()[1], (1, 1));
    }

    #[test]
    fn hierarchical_pods_route_direct_inside_and_via_switches_between() {
        let topo = Topology::build(
            TopologySpec::Hierarchical { pod_size: 4 },
            8,
            8.0,
            10,
            4.0,
            20,
        )
        .expect("valid");
        assert_eq!(topo.num_switches(), 2);
        // Intra-pod: direct link.
        assert_eq!(topo.hop_count(NodeId::Gpu(0), NodeId::Gpu(3)), 1);
        // Inter-pod: gpu -> pod switch -> peer switch -> gpu.
        assert_eq!(
            topo.route_labels(NodeId::Gpu(1), NodeId::Gpu(6)),
            vec!["gpu1", "sw0", "sw1", "gpu6"]
        );
        // The inter-pod backplane runs slower than the in-pod mesh.
        let backplane = topo
            .edges()
            .iter()
            .find(|e| e.from == 9 && e.to == 10)
            .expect("sw0->sw1 edge");
        assert!((backplane.bytes_per_cycle - 8.0 * INTER_POD_BW_FACTOR).abs() < 1e-12);
        let mut net = LinkNetwork::from_topology(topo).expect("valid");
        net.send(NodeId::Gpu(1), NodeId::Gpu(6), 1, 160, Cycle(0));
        net.send(NodeId::Gpu(6), NodeId::Gpu(1), 2, 160, Cycle(0));
        let mut got = Vec::new();
        for c in 0..1000u64 {
            got.extend(net.tick(Cycle(c)));
        }
        assert_eq!(got.len(), 2);
        assert!(net.is_idle());
        // Each direction transited both switches once.
        assert_eq!(net.transit_counts()[9], (2, 2));
        assert_eq!(net.transit_counts()[10], (2, 2));
        let (tr, tf) = net.transit_totals();
        assert_eq!((tr, tf), (4, 4));
        assert_eq!(net.message_counts(), (2, 2));
    }

    #[test]
    fn cpu_never_forwards_transit_traffic() {
        // A pathological custom graph where the only 2-hop gpu0->gpu1
        // path runs through the CPU must be rejected as unroutable.
        let err = Topology::custom(
            2,
            0,
            vec![
                EdgeSpec {
                    from: 0,
                    to: 2,
                    bytes_per_cycle: 8.0,
                    latency: 10,
                },
                EdgeSpec {
                    from: 2,
                    to: 0,
                    bytes_per_cycle: 8.0,
                    latency: 10,
                },
                EdgeSpec {
                    from: 1,
                    to: 2,
                    bytes_per_cycle: 8.0,
                    latency: 10,
                },
                EdgeSpec {
                    from: 2,
                    to: 1,
                    bytes_per_cycle: 8.0,
                    latency: 10,
                },
            ],
        )
        .expect_err("cpu is a leaf");
        assert!(err.to_string().contains("no route"), "{err}");
    }

    #[test]
    fn disconnected_topology_is_rejected_with_actionable_message() {
        let err = Topology::custom(
            2,
            0,
            vec![
                EdgeSpec {
                    from: 0,
                    to: 1,
                    bytes_per_cycle: 8.0,
                    latency: 10,
                },
                EdgeSpec {
                    from: 0,
                    to: 2,
                    bytes_per_cycle: 8.0,
                    latency: 10,
                },
                EdgeSpec {
                    from: 2,
                    to: 0,
                    bytes_per_cycle: 8.0,
                    latency: 10,
                },
                EdgeSpec {
                    from: 2,
                    to: 1,
                    bytes_per_cycle: 8.0,
                    latency: 10,
                },
            ],
        )
        .expect_err("gpu1 cannot reach anyone");
        let msg = err.to_string();
        assert!(msg.contains("no route from gpu1"), "{msg}");
        assert!(msg.contains("connected"), "{msg}");
    }

    #[test]
    fn zero_bandwidth_edge_is_rejected() {
        let err = Topology::custom(
            1,
            0,
            vec![
                EdgeSpec {
                    from: 0,
                    to: 1,
                    bytes_per_cycle: 0.0,
                    latency: 10,
                },
                EdgeSpec {
                    from: 1,
                    to: 0,
                    bytes_per_cycle: 8.0,
                    latency: 10,
                },
            ],
        )
        .expect_err("zero bandwidth");
        assert!(
            err.to_string().contains("link bandwidth must be positive"),
            "{err}"
        );
    }

    #[test]
    fn oversized_and_degenerate_specs_are_rejected() {
        let err =
            Topology::build(TopologySpec::AllToAll, 0, 8.0, 10, 4.0, 20).expect_err("zero gpus");
        assert!(err.to_string().contains("num_gpus"), "{err}");
        let err = Topology::build(TopologySpec::AllToAll, MAX_GPUS + 1, 8.0, 10, 4.0, 20)
            .expect_err("too many gpus");
        assert!(err.to_string().contains("at most 64"), "{err}");
        let err = Topology::build(
            TopologySpec::Hierarchical { pod_size: 3 },
            8,
            8.0,
            10,
            4.0,
            20,
        )
        .expect_err("pod size must tile");
        assert!(err.to_string().contains("pod_size"), "{err}");
        let err =
            Topology::build(TopologySpec::Switch, 4, -1.0, 10, 4.0, 20).expect_err("negative bw");
        assert!(
            err.to_string().contains("link bandwidth must be positive"),
            "{err}"
        );
    }

    #[test]
    fn every_generator_scales_to_64_gpus() {
        for spec in [
            TopologySpec::AllToAll,
            TopologySpec::Switch,
            TopologySpec::Ring,
            TopologySpec::Hierarchical { pod_size: 8 },
        ] {
            let topo = Topology::build(spec, 64, 8.0, 10, 4.0, 20)
                .unwrap_or_else(|e| panic!("{spec:?} at 64 GPUs: {e}"));
            let mut net = LinkNetwork::from_topology(topo).expect("valid");
            // Cross-machine traffic drains fully on every shape.
            net.send(NodeId::Gpu(0), NodeId::Gpu(63), 1, 160, Cycle(0));
            net.send(NodeId::Gpu(63), NodeId::Cpu, 2, 160, Cycle(0));
            net.send(NodeId::Cpu, NodeId::Gpu(31), 3, 160, Cycle(0));
            let mut got = Vec::new();
            for c in 0..100_000u64 {
                if net.is_idle() {
                    break;
                }
                got.extend(net.tick(Cycle(c)));
            }
            assert_eq!(got.len(), 3, "{spec:?}");
            assert_eq!(net.message_counts(), (3, 3), "{spec:?}");
            let (tr, tf) = net.transit_totals();
            assert_eq!(tr, tf, "{spec:?} transit conservation");
        }
    }

    #[test]
    fn switch_snapshot_reports_queued_transit() {
        let topo = Topology::build(TopologySpec::Switch, 2, 8.0, 100, 4.0, 200).expect("valid");
        let mut net = LinkNetwork::from_topology(topo).expect("valid");
        net.send(NodeId::Gpu(0), NodeId::Gpu(1), 1, 160, Cycle(0));
        net.tick(Cycle(120)); // lands on sw0, forwarded
        let snap = net.snapshot();
        assert_eq!(snap.switches.len(), 1);
        assert_eq!(snap.switches[0].node, "sw0");
        assert_eq!(snap.switches[0].transit_received, 1);
        assert_eq!(snap.switches[0].transit_forwarded, 1);
        assert_eq!(snap.switches[0].queued, 1);
        assert!(net
            .occupancy_report()
            .iter()
            .any(|l| l.contains("switch sw0")));
    }

    #[test]
    fn congestion_uses_first_hop_backlog() {
        let topo = Topology::build(TopologySpec::Switch, 2, 1.0, 0, 1.0, 0).expect("valid");
        let mut net = LinkNetwork::from_topology(topo).expect("valid");
        for i in 0..10 {
            net.send(NodeId::Gpu(0), NodeId::Gpu(1), i, 128, Cycle(0));
        }
        assert!(net.congested(NodeId::Gpu(0), NodeId::Gpu(1), Cycle(0), 100));
        // The reverse direction injects on its own uplink.
        assert!(!net.congested(NodeId::Gpu(1), NodeId::Gpu(0), Cycle(0), 100));
        // 1280 cycles of backlog: congestion under a 100-cycle horizon
        // ends exactly at the reported cycle.
        let at = net.uncongested_at(NodeId::Gpu(0), NodeId::Gpu(1), 100);
        assert_eq!(at, Cycle(1180));
        assert!(net.congested(NodeId::Gpu(0), NodeId::Gpu(1), Cycle(at.0 - 1), 100));
        assert!(!net.congested(NodeId::Gpu(0), NodeId::Gpu(1), at, 100));
    }

    #[test]
    fn degraded_link_serializes_slower_and_restores() {
        // 2-GPU all-to-all: edge 0 is gpu0->gpu1.
        let mut net = LinkNetwork::new(2, 8.0, 100, 4.0, 200).expect("valid");
        net.set_link_bandwidth_factor(0, 25); // 8.0 -> 2.0 B/cyc
        assert_eq!(net.impaired_link_count(), 1);
        assert!(net.fault_report()[0].contains("gpu0->gpu1"));
        net.send(NodeId::Gpu(0), NodeId::Gpu(1), 1, 160, Cycle(0));
        // 160/2 = 80 ser + 100 latency -> 180 (vs 120 at full speed).
        assert!(net.tick(Cycle(179)).is_empty());
        assert_eq!(net.tick(Cycle(180)).len(), 1);
        net.set_link_bandwidth_factor(0, 100);
        assert_eq!(net.impaired_link_count(), 0);
        assert!(net.fault_report().is_empty());
        net.send(NodeId::Gpu(0), NodeId::Gpu(1), 2, 160, Cycle(1000));
        assert_eq!(net.tick(Cycle(1120)).len(), 1);
    }

    #[test]
    fn outage_on_all_to_all_reroutes_through_a_peer() {
        // 3-GPU all-to-all: edge 0 is gpu0->gpu1. Killing it forces the
        // route gpu0 -> gpu2 -> gpu1 and exits the single-hop fast path.
        let mut net = LinkNetwork::new(3, 8.0, 10, 4.0, 20).expect("valid");
        assert!(net.topology().is_single_hop());
        let rerouted = net.fail_link(0, Cycle(5)).expect("still routable");
        assert!(rerouted > 0, "route table must change");
        assert!(!net.topology().is_single_hop());
        assert_eq!(
            net.topology()
                .route_labels(NodeId::Gpu(0), NodeId::Gpu(1))
                .len(),
            3,
            "two hops now"
        );
        net.send(NodeId::Gpu(0), NodeId::Gpu(1), 7, 160, Cycle(10));
        let mut got = Vec::new();
        for c in 10..200u64 {
            got.extend(net.tick(Cycle(c)));
        }
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].token, 7);
        assert_eq!(got[0].dst, NodeId::Gpu(1));
        // gpu2 forwarded the transit hop, conserved.
        assert_eq!(net.transit_counts()[2], (1, 1));
        assert_eq!(net.message_counts(), (1, 1));
        assert_eq!(net.flow_desync_count(), 0);
        // Killing the same edge again is a no-op.
        assert_eq!(net.fail_link(0, Cycle(50)).expect("idempotent"), 0);
    }

    #[test]
    fn outage_migrates_raw_in_flight_tokens_to_flows() {
        // Put a raw token on the wire of a single-hop graph, then kill a
        // different link so the graph flips to routed mode mid-flight.
        let mut net = LinkNetwork::new(3, 8.0, 100, 4.0, 200).expect("valid");
        net.send(NodeId::Gpu(1), NodeId::Gpu(2), 42, 160, Cycle(0));
        net.fail_link(0, Cycle(3)).expect("still routable");
        assert!(!net.topology().is_single_hop());
        // 160/8 = 20 ser + 100 latency -> 120; the migrated token must
        // still deliver with its original token and endpoints.
        let got = net.tick(Cycle(120));
        assert_eq!(
            got,
            vec![Delivery {
                token: 42,
                src: NodeId::Gpu(1),
                dst: NodeId::Gpu(2)
            }]
        );
        assert_eq!(net.flow_desync_count(), 0);
        assert_eq!(net.message_counts(), (1, 1));
    }

    #[test]
    fn partitioning_outage_names_the_severed_pair() {
        // 2-GPU all-to-all edge order: e0 g0->g1, e1 g1->g0, e2 g0->cpu,
        // e3 cpu->g0, e4 g1->cpu, e5 cpu->g1. Killing e0 leaves gpu0 able
        // to reach gpu1 only via the CPU — which never forwards — so the
        // fabric is partitioned.
        let mut net = LinkNetwork::new(2, 8.0, 10, 4.0, 20).expect("valid");
        let err = net.fail_link(0, Cycle(9)).expect_err("cpu cannot forward");
        match err {
            SimError::FabricPartitioned { from, to, cycle } => {
                assert_eq!(from, "gpu0");
                assert_eq!(to, "gpu1");
                assert_eq!(cycle, 9);
            }
            other => panic!("expected FabricPartitioned, got {other:?}"),
        }
    }

    #[test]
    fn injected_drops_and_dups_skew_the_conservation_counters() {
        let mut net = LinkNetwork::new(2, 8.0, 10, 4.0, 20).expect("valid");
        net.inject_packet_drops(1);
        net.send(NodeId::Gpu(0), NodeId::Gpu(1), 1, 32, Cycle(0));
        net.send(NodeId::Gpu(0), NodeId::Gpu(1), 2, 32, Cycle(0));
        let mut got = Vec::new();
        for c in 0..40u64 {
            got.extend(net.tick(Cycle(c)));
        }
        // First delivery vanished; the second survived.
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].token, 2);
        assert_eq!(net.dropped_packet_count(), 1);
        assert_eq!(net.message_counts(), (2, 1), "delivered < injected");
        net.inject_packet_dups(1);
        net.send(NodeId::Gpu(1), NodeId::Gpu(0), 3, 32, Cycle(100));
        let mut got = Vec::new();
        for c in 100..140u64 {
            got.extend(net.tick(Cycle(c)));
        }
        assert_eq!(got.len(), 2, "duplicated delivery arrives twice");
        assert_eq!(got[0].token, 3);
        assert_eq!(got[1].token, 3);
        assert_eq!(net.duplicated_packet_count(), 1);
        assert_eq!(net.message_counts(), (3, 3), "dup re-balanced the drop");
    }

    #[test]
    fn injected_forward_drop_breaks_hop_conservation() {
        let topo = Topology::build(TopologySpec::Switch, 2, 8.0, 100, 4.0, 200).expect("valid");
        let mut net = LinkNetwork::from_topology(topo).expect("valid");
        net.inject_forward_drops(1);
        net.send(NodeId::Gpu(0), NodeId::Gpu(1), 1, 160, Cycle(0));
        let mut got = Vec::new();
        for c in 0..400u64 {
            got.extend(net.tick(Cycle(c)));
        }
        assert!(got.is_empty(), "message died at the switch");
        assert_eq!(net.dropped_packet_count(), 1);
        // Received but never forwarded: the hop-conservation gap.
        assert_eq!(net.transit_counts()[3], (1, 0));
        assert!(net.is_idle(), "no flow left dangling");
    }
}
