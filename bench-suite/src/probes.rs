//! Host-time probes of the traced pass. Each drives one layer's public
//! API with the workload's own kernel-0 op stream, in CPU time, and stops
//! after about a second.

use std::collections::HashMap;
use std::hint::black_box;
use std::time::Instant;

use carve::{Directory, Imst, Rdc, RdcConfig};
use carve_dram::{DramConfig, DramModel};
use carve_gpu::types::UnboundedFabric;
use carve_gpu::{CoreReqKind, GpuCore, TranslationOutcome, Translator};
use carve_noc::{msg, LinkNetwork, NodeId, Topology};
use carve_runtime::page_table::{PageTable, PlacementPolicy};
use carve_runtime::sched::cta_range_of_gpu;
use carve_trace::{Op, WorkloadSpec};
use sim_core::{Cycle, ScaledConfig};

use crate::grid::Prepared;
use crate::measure::thread_cpu_ns;
use crate::spans::Trace;

/// CPU time a probe spends before it may stop (after one full pass).
const MIN_S: f64 = 0.25;
/// CPU time after which a probe stops, even mid-pass.
const CAP_S: f64 = 1.0;
/// Cycles a standalone model may run before the probe gives up on it.
const CYCLE_LIMIT: u64 = 50_000_000;

/// Request rates measured in the workload's own simulations, at which the
/// DRAM and NoC probes are fed.
#[derive(Debug, Clone, Copy, Default)]
pub struct Rates {
    /// DRAM requests per GPU per simulated cycle.
    pub dram_per_gpu_cycle: f64,
    /// Bytes on the inter-GPU links per simulated cycle, machine-wide.
    pub link_bytes_per_cycle: f64,
}

/// One memory access of kernel 0, issued by the GPU owning its CTA.
#[derive(Debug, Clone, Copy)]
struct Access {
    gpu: usize,
    va: u64,
    write: bool,
}

/// An access whose page was first touched by another GPU.
#[derive(Debug, Clone, Copy)]
struct Remote {
    gpu: usize,
    home: usize,
    line: u64,
    write: bool,
}

/// One machine of the grid and the kernel-0 streams it issues.
struct Stream<'a> {
    spec: &'a WorkloadSpec,
    cfg: &'a ScaledConfig,
    gpus: usize,
    accesses: Vec<Access>,
    remote: Vec<Remote>,
}

/// Kernel 0's ops, each with the GPU owning its CTA, one GPU after another.
fn warp_ops<'a>(
    spec: &'a WorkloadSpec,
    cfg: &'a ScaledConfig,
    gpus: usize,
) -> impl Iterator<Item = (usize, Op)> + 'a {
    (0..gpus).flat_map(move |gpu| {
        let (lo, hi) = cta_range_of_gpu(gpu, spec.shape.ctas, gpus);
        (lo..hi).flat_map(move |cta| {
            (0..spec.shape.warps_per_cta).flat_map(move |warp| {
                let mut gen = spec.warp_gen(cfg, 0, cta, warp);
                std::iter::from_fn(move || gen.next_op()).map(move |op| (gpu, op))
            })
        })
    })
}

/// The kernel-0 streams of every machine of the grid. A page's home is
/// the GPU that touches it first in stream order.
fn streams(prep: &Prepared) -> Vec<Stream<'_>> {
    prep.machines()
        .into_iter()
        .map(|(spec, cfg, gpus)| {
            let mut accesses = Vec::new();
            for (gpu, op) in warp_ops(spec, cfg, gpus) {
                match op {
                    Op::Compute(_) => {}
                    Op::Load(va) => accesses.push(Access {
                        gpu,
                        va,
                        write: false,
                    }),
                    Op::Store(va) => accesses.push(Access {
                        gpu,
                        va,
                        write: true,
                    }),
                }
            }
            let mut first_touch: HashMap<u64, usize> = HashMap::new();
            let remote = accesses
                .iter()
                .filter_map(|a| {
                    let home = *first_touch.entry(a.va / cfg.page_size).or_insert(a.gpu);
                    (home != a.gpu).then_some(Remote {
                        gpu: a.gpu,
                        home,
                        line: a.va / cfg.line_size * cfg.line_size,
                        write: a.write,
                    })
                })
                .collect();
            Stream {
                spec,
                cfg,
                gpus,
                accesses,
                remote,
            }
        })
        .collect()
}

/// CPU ns and operations of `run`, cycling over `n` units: `setup(i)`
/// builds unit `i`'s state untimed, `run` consumes it and returns the
/// operations it did. Runs at least one full cycle unless [`CAP_S`] comes
/// first, and only one when the units have nothing to do.
fn measure<S>(
    n: usize,
    mut setup: impl FnMut(usize) -> S,
    mut run: impl FnMut(S) -> u64,
) -> (u64, u64) {
    let (mut ns, mut ops) = (0u64, 0u64);
    let started = Instant::now();
    for i in (0..n).cycle() {
        let state = setup(i);
        let c0 = thread_cpu_ns();
        ops += run(state);
        ns += thread_cpu_ns() - c0;
        let spent = ns as f64 / 1e9;
        let cycled = i + 1 == n;
        // The wall-clock guard bounds the untimed set-up too.
        if spent >= CAP_S
            || (cycled && (spent >= MIN_S || ops == 0))
            || started.elapsed().as_secs_f64() > 3.0 * CAP_S
        {
            break;
        }
    }
    (ns, ops)
}

/// ns per operation; zero when there was nothing to run (a single-GPU
/// machine has no remote stream for the NoC and CARVE probes).
fn per_op((ns, ops): (u64, u64)) -> f64 {
    if ops == 0 {
        0.0
    } else {
        ns as f64 / ops as f64
    }
}

/// Homes every page on the requesting GPU.
struct LocalHome;

impl Translator for LocalHome {
    fn translate(&mut self, gpu: usize, _va: u64, _w: bool, _now: Cycle) -> TranslationOutcome {
        TranslationOutcome {
            home: NodeId::Gpu(gpu),
            blocked_until: None,
        }
    }
}

/// Runs one GPU core through kernel 0 with every CTA, answering each read
/// miss after the DRAM's fixed latency. Returns `(cycles, instructions)`.
fn run_core(spec: &WorkloadSpec, cfg: &ScaledConfig) -> (u64, u64) {
    let mut core = GpuCore::new(cfg, spec, 0);
    core.launch_kernel(0, 0..spec.shape.ctas);
    let mut pending: Vec<(u64, u64)> = Vec::new();
    let mut c = 0u64;
    while c < CYCLE_LIMIT {
        core.tick(Cycle(c), &mut LocalHome, &UnboundedFabric);
        while let Some(req) = core.outbox_pop() {
            if req.kind == CoreReqKind::ReadMiss {
                pending.push((req.tag, c + cfg.dram_fixed_latency));
            }
        }
        let mut i = 0;
        while i < pending.len() {
            if pending[i].1 <= c {
                core.complete_miss(pending.swap_remove(i).0, Cycle(c));
            } else {
                i += 1;
            }
        }
        if core.is_idle() {
            break;
        }
        c += 1;
    }
    (c, core.stats().instructions)
}

/// Lowest feed rate, per cycle: keeps a probe fed from a nearly idle
/// simulation from ticking an empty model for millions of cycles.
const MIN_RATE: f64 = 0.01;

/// Feeds `dram` the line stream at `rate` requests per cycle, retrying
/// rejected requests, until every request completes. Returns completions.
fn run_dram(dram: &mut DramModel, stream: &[Access], line: u64, rate: f64) -> u64 {
    let rate = rate.max(MIN_RATE);
    let (mut next, mut credit, mut completed) = (0usize, 0.0f64, 0u64);
    let mut done = Vec::new();
    for c in 0..CYCLE_LIMIT {
        credit = (credit + rate).min(64.0);
        while credit >= 1.0 && next < stream.len() {
            let a = stream[next];
            let addr = a.va / line * line;
            let sent = if a.write {
                dram.try_enqueue_write(next as u64, addr, Cycle(c))
            } else {
                dram.try_enqueue_read(next as u64, addr, Cycle(c))
            };
            if sent.is_err() {
                break;
            }
            next += 1;
            credit -= 1.0;
        }
        dram.tick_into(Cycle(c), &mut done);
        completed += done.len() as u64;
        done.clear();
        if next == stream.len() && dram.is_idle() {
            break;
        }
    }
    completed
}

/// Sends each remote access as a message from its issuer to its home at
/// `rate` messages per cycle until all are delivered. Returns deliveries.
fn run_noc(net: &mut LinkNetwork, stream: &[Remote], rate: f64) -> u64 {
    let rate = rate.max(MIN_RATE);
    let (mut next, mut credit, mut delivered) = (0usize, 0.0f64, 0u64);
    let mut out = Vec::new();
    for c in 0..CYCLE_LIMIT {
        credit = (credit + rate).min(64.0);
        while credit >= 1.0 && next < stream.len() {
            let r = stream[next];
            let bytes = message_bytes(&r);
            net.send(
                NodeId::Gpu(r.gpu),
                NodeId::Gpu(r.home),
                next as u64,
                bytes,
                Cycle(c),
            );
            next += 1;
            credit -= 1.0;
        }
        net.tick_into(Cycle(c), &mut out);
        delivered += out.len() as u64;
        out.clear();
        if next == stream.len() && net.is_idle() {
            break;
        }
    }
    delivered
}

/// A read sends a request; a write carries its data.
fn message_bytes(r: &Remote) -> u64 {
    if r.write {
        msg::WRITE_DATA_BYTES
    } else {
        msg::REQ_BYTES
    }
}

fn network(s: &Stream<'_>) -> LinkNetwork {
    let c = s.cfg;
    let topo = Topology::build(
        c.topology,
        s.gpus,
        c.link_bytes_per_cycle,
        c.link_latency,
        c.cpu_link_bytes_per_cycle,
        c.cpu_link_latency,
    )
    .expect("the grid's machines validate");
    LinkNetwork::from_topology(topo).expect("a validated topology builds")
}

type Probe = fn(&[Stream<'_>], Rates) -> Vec<(&'static str, f64)>;

/// Runs every probe on `prep`'s machines, each in a `probe.<layer>` span
/// under `parent`. Returns `(metric, value)` pairs.
pub(crate) fn run_all(
    prep: &Prepared,
    rates: Rates,
    trace: &mut Trace,
    parent: usize,
) -> Vec<(&'static str, f64)> {
    let w = prep.grid.name;
    let streams = trace.time("probe.inputs", w, Some(parent), |_, _| streams(prep));
    let probes: [(&str, Probe); 6] = [
        ("trace", probe_trace),
        ("runtime", probe_page_table),
        ("gpu", probe_core),
        ("dram", probe_dram),
        ("noc", probe_noc),
        ("carve", probe_carve),
    ];
    let mut out = Vec::new();
    for (layer, probe) in probes {
        let name = format!("probe.{layer}");
        out.extend(trace.time(&name, w, Some(parent), |_, _| probe(&streams, rates)));
    }
    out
}

fn probe_trace(s: &[Stream<'_>], _: Rates) -> Vec<(&'static str, f64)> {
    let t = measure(
        s.len(),
        |i| &s[i],
        |m| warp_ops(m.spec, m.cfg, m.gpus).map(black_box).count() as u64,
    );
    vec![("trace.gen_ns_per_op", per_op(t))]
}

fn probe_page_table(s: &[Stream<'_>], _: Rates) -> Vec<(&'static str, f64)> {
    let t = measure(
        s.len(),
        |i| {
            (
                &s[i],
                PageTable::new(s[i].gpus, s[i].cfg.page_size, PlacementPolicy::default()),
            )
        },
        |(m, mut pt)| {
            for (k, a) in m.accesses.iter().enumerate() {
                black_box(pt.access(a.gpu, a.va, a.write, Cycle(k as u64)));
            }
            m.accesses.len() as u64
        },
    );
    vec![("runtime.page_table_ns_per_access", per_op(t))]
}

fn probe_core(s: &[Stream<'_>], _: Rates) -> Vec<(&'static str, f64)> {
    let mut instrs = 0u64;
    let (ns, cycles) = measure(
        s.len(),
        |i| &s[i],
        |m| {
            let (cycles, retired) = run_core(m.spec, m.cfg);
            instrs += retired;
            cycles
        },
    );
    vec![
        ("gpu.core_ns_per_cycle", per_op((ns, cycles))),
        ("gpu.core_ns_per_instr", per_op((ns, instrs))),
    ]
}

fn probe_dram(s: &[Stream<'_>], rates: Rates) -> Vec<(&'static str, f64)> {
    let t = measure(
        s.len(),
        |i| (&s[i], DramModel::new(DramConfig::from_scaled(s[i].cfg))),
        |(m, mut dram)| {
            run_dram(
                &mut dram,
                &m.accesses,
                m.cfg.line_size,
                rates.dram_per_gpu_cycle,
            )
        },
    );
    vec![("dram.ns_per_request", per_op(t))]
}

fn probe_noc(s: &[Stream<'_>], rates: Rates) -> Vec<(&'static str, f64)> {
    let t = measure(
        s.len(),
        |i| (&s[i], network(&s[i])),
        |(m, mut net)| {
            if m.remote.is_empty() {
                return 0;
            }
            let bytes: u64 = m.remote.iter().map(message_bytes).sum();
            let rate = rates.link_bytes_per_cycle * m.remote.len() as f64 / bytes as f64;
            run_noc(&mut net, &m.remote, rate)
        },
    );
    vec![("noc.ns_per_message", per_op(t))]
}

fn probe_carve(s: &[Stream<'_>], _: Rates) -> Vec<(&'static str, f64)> {
    let rdc = measure(
        s.len(),
        |i| {
            let c = s[i].cfg;
            let rdcs: Vec<Rdc> = (0..s[i].gpus)
                .map(|_| Rdc::new(RdcConfig::new(c.rdc_bytes_per_gpu, c.line_size)))
                .collect();
            (&s[i], rdcs)
        },
        |(m, mut rdcs)| {
            for r in &m.remote {
                let rdc = &mut rdcs[r.gpu];
                if r.write {
                    black_box(rdc.store(r.line));
                } else if !rdc.probe(r.line) {
                    black_box(rdc.insert(r.line));
                }
            }
            m.remote.len() as u64
        },
    );
    let imst = measure(
        s.len(),
        |i| {
            (
                &s[i],
                (0..s[i].gpus as u64).map(Imst::new).collect::<Vec<_>>(),
            )
        },
        |(m, mut imsts)| {
            for r in &m.remote {
                black_box(imsts[r.home].on_access(r.line, false, r.write));
            }
            m.remote.len() as u64
        },
    );
    let dir = measure(
        s.len(),
        |i| {
            (
                &s[i],
                (0..s[i].gpus).map(|_| Directory::new()).collect::<Vec<_>>(),
            )
        },
        |(m, mut dirs)| {
            for r in &m.remote {
                if r.write {
                    black_box(dirs[r.home].on_write(r.line, r.gpu));
                } else {
                    dirs[r.home].record_sharer(r.line, r.gpu);
                }
            }
            m.remote.len() as u64
        },
    );
    vec![
        ("carve.rdc_ns_per_access", per_op(rdc)),
        ("carve.imst_ns_per_access", per_op(imst)),
        ("carve.directory_ns_per_op", per_op(dir)),
    ]
}
