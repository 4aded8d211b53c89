//! Layer probes: each layer measured *from outside*, by timing calls into
//! its public functions at the workload's own sizes (its n, its k, its
//! shards, its mean superstep batch). Spans inside the program are a later
//! change; until then these unit costs, multiplied by the traced run's
//! exact counts, are what the `est.*` budget is computed from.
//!
//! Probes touch only the API surface listed in `bench/README.md`, so later
//! refactors of everything else cannot break the benchmark.

use crate::spans::Spans;
use crate::spec::{Inputs, PROBES};
use crate::stats::median;
use kconn::messages::Payload;
use kgraph::ShardedGraph;
use kmachine::bandwidth::Bandwidth;
use kmachine::bsp::Bsp;
use kmachine::det;
use kmachine::message::{Encoding, Envelope, WireCodec, WireReader};
use kmachine::network::NetworkConfig;
use kmachine::par::{par_for_each_state, par_map_machines};
use kmachine::transport::{Frame, ProcTransport, Transport};
use krand::m61::M61;
use krand::poly::PolyHash;
use krand::prf::Prf;
use krand::shared::SharedRandomness;
use ksketch::{L0Sketch, SketchFns, SketchParams};
use rustc_hash::FxHashMap;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

type Out = BTreeMap<&'static str, f64>;

/// What one probe may spend on repeat samples before it settles for the
/// ones it has: the probes of a workload together stay near two seconds.
const PROBE_BUDGET_S: f64 = 0.4;

/// Seconds `f` takes: the median of up to `samples` timings, fewer once
/// the probe's time budget is spent.
fn time_s(samples: usize, mut f: impl FnMut()) -> f64 {
    let started = Instant::now();
    let mut times = Vec::with_capacity(samples);
    while times.len() < samples
        && (times.is_empty() || started.elapsed().as_secs_f64() < PROBE_BUDGET_S)
    {
        let t = Instant::now();
        f();
        times.push(t.elapsed().as_secs_f64());
    }
    median(&times)
}

/// `count` seeded vertex pairs `(u, v)`, `u != v`.
fn random_pairs(inputs: &Inputs, tag: u64, count: usize) -> Vec<(u32, u32)> {
    let prf = Prf::new(inputs.derived(PROBES));
    let n = inputs.n as u64;
    (0..count as u64)
        .map(|i| {
            let u = prf.eval(tag, 2 * i) % n;
            (
                u as u32,
                ((u + 1 + prf.eval(tag, 2 * i + 1) % (n - 1)) % n) as u32,
            )
        })
        .collect()
}

/// Runs every probe for `inputs`, recording one `probe.<layer>` span each.
pub fn run(inputs: &Inputs, smoke: bool, spans: &mut Spans, out: &mut Out) {
    // Loop lengths: long enough that a timing is milliseconds, not ticks.
    let iters = if smoke { 4_000 } else { 100_000 };
    let sg = spans.scope("probe.kgraph", |spans| {
        kgraph(inputs, iters / 10, spans, out)
    });
    spans.scope("probe.krand", |_| krand(inputs, iters * 5, out));
    spans.scope("probe.ksketch", |_| ksketch(inputs, &sg, iters, out));
    spans.scope("probe.par", |_| par_det(inputs, iters / 100, out));
    spans.scope("probe.bsp", |_| bsp(inputs, iters / 100, out));
    spans.scope("probe.codec", |_| codec(inputs, &sg, out));
    if crate::metrics::Scope::Proc.covers(inputs.spec) {
        spans.scope("probe.transport", |_| transport(inputs, iters / 1000, out));
    }
}

/// `kgraph.*`: stream generation, shard build, shard balance, and the
/// staged write path (stage → compact) on the workload's own shards.
fn kgraph(inputs: &Inputs, stage_ops: usize, spans: &mut Spans, out: &mut Out) -> ShardedGraph {
    let (k, seed) = (inputs.spec.k, inputs.cluster_seed(0));
    let m = inputs.m() as f64;
    let gen_s = spans.scope("setup.gen", |_| {
        time_s(3, || {
            inputs.stream().for_each(|e| {
                black_box(e);
            })
        })
    });
    let mut built = None;
    let ingest_s = spans.scope("setup.ingest", |_| {
        time_s(3, || {
            built = Some(ShardedGraph::from_stream(inputs.stream(), k, seed))
        })
    });
    let mut sg = built.expect("time_s ran the build");
    // Ingestion drains the lazy stream, so its wall contains generation.
    let build_s = (ingest_s - gen_s).max(1e-9);
    out.insert("kgraph.stream_gen_s", gen_s);
    out.insert("kgraph.stream_edges_per_s", m / gen_s);
    out.insert("kgraph.shard_build_s", build_s);
    out.insert("kgraph.shard_edges_per_s", m / build_s);
    let loads: Vec<usize> = (0..k).map(|i| sg.view(i).half_edges()).collect();
    let max = *loads.iter().max().expect("k >= 2") as f64;
    out.insert("kgraph.max_shard_half_edges", max);
    out.insert(
        "kgraph.shard_imbalance",
        max / (loads.iter().sum::<usize>() as f64 / k as f64),
    );
    out.insert(
        "kgraph.rebuild_shard_ms",
        time_s(3, || {
            (0..k).for_each(|i| {
                black_box(sg.rebuild_shard(i));
            })
        }) * 1e3
            / k as f64,
    );

    // Write path: stage fresh edges, fold them in, then stage their
    // deletions and fold again — the shards end as they started.
    // A pair that happens to be an edge already is fine for a storage-layer
    // timing.
    let fresh = random_pairs(inputs, 1, stage_ops);
    let t = Instant::now();
    for &(u, v) in &fresh {
        sg.stage_insert(u, v, 1);
    }
    let stage_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    sg.compact();
    let compact_s = t.elapsed().as_secs_f64();
    for &(u, v) in &fresh {
        sg.stage_delete(u, v);
    }
    sg.compact();
    out.insert("kgraph.stage_op_ns", stage_s * 1e9 / stage_ops as f64);
    out.insert("kgraph.compact_ms", compact_s * 1e3);
    // Fresh, unmutated shards for the probes that follow.
    ShardedGraph::from_stream(inputs.stream(), k, seed)
}

/// `krand.*`: nanoseconds per PRF evaluation, per d-wise polynomial hash
/// evaluation (d as the workload's sketches use) and per field multiply.
fn krand(inputs: &Inputs, iters: usize, out: &mut Out) {
    let prf = Prf::new(inputs.derived(PROBES));
    let per_ns = |s: f64| s * 1e9 / iters as f64;
    out.insert(
        "krand.prf_eval_ns",
        per_ns(time_s(3, || {
            let mut acc = 0u64;
            for i in 0..iters as u64 {
                acc ^= prf.eval(3, i);
            }
            black_box(acc);
        })),
    );
    let d = SketchParams::for_graph(inputs.n, 5).independence;
    let poly = PolyHash::from_prf(&prf, 4, d);
    out.insert(
        "krand.poly_eval_ns",
        per_ns(time_s(3, || {
            let mut acc = 0u64;
            for i in 0..iters as u64 {
                acc ^= poly.eval(black_box(i));
            }
            black_box(acc);
        })),
    );
    out.insert(
        "krand.m61_mul_ns",
        per_ns(time_s(3, || {
            // A dependent chain: the latency a sketch update actually pays.
            let z = M61::new(black_box(0x1234_5678_9abc));
            let mut acc = M61::new(3);
            for _ in 0..iters {
                acc = acc.mul(z);
            }
            black_box(acc);
        })),
    );
}

/// `ksketch.*`: the linear sketches at the workload's n, on its shards.
fn ksketch(inputs: &Inputs, sg: &ShardedGraph, iters: usize, out: &mut Out) {
    let params = SketchParams::for_graph(inputs.n, 5);
    let shared = SharedRandomness::new(inputs.derived(PROBES));
    let mut fns = None;
    out.insert(
        "ksketch.fns_new_ms",
        time_s(3, || fns = Some(SketchFns::new(&shared, 0, params))) * 1e3,
    );
    let fns = fns.expect("time_s ran the constructor");
    out.insert("ksketch.cells", params.cells() as f64);
    out.insert("ksketch.wire_bits", params.wire_bits() as f64);

    // Sketch every vertex of every shard once — what one full rebuild of
    // all part sketches costs the engine.
    let mut sample: Vec<L0Sketch> = Vec::new();
    out.insert(
        "ksketch.vertex_sketch_s",
        time_s(3, || {
            sample.clear();
            for i in 0..sg.k() {
                let view = sg.view(i);
                for &v in view.verts() {
                    let mut sk = L0Sketch::new(params);
                    for &(nb, _) in view.neighbors(v) {
                        sk.add_incident_edge(&fns, v, nb);
                    }
                    if sample.len() < 512 {
                        sample.push(sk);
                    } else {
                        black_box(&sk);
                    }
                }
            }
        }),
    );

    let pairs = random_pairs(inputs, 5, iters);
    let per_ns = |s: f64, count: usize| s * 1e9 / count as f64;
    let mut sk = L0Sketch::new(params);
    out.insert(
        "ksketch.add_ns",
        per_ns(
            time_s(3, || {
                for &(u, v) in &pairs {
                    sk.add_incident_edge(&fns, u, v);
                }
            }),
            pairs.len(),
        ),
    );
    out.insert(
        "ksketch.remove_ns",
        per_ns(
            time_s(3, || {
                for &(u, v) in &pairs {
                    sk.remove_incident_edge(&fns, u, v);
                }
            }),
            pairs.len(),
        ),
    );
    let rounds = (iters / 100).max(1);
    out.insert(
        "ksketch.merge_ns",
        per_ns(
            time_s(3, || {
                let mut acc = L0Sketch::new(params);
                for i in 0..rounds {
                    acc.merge(&sample[i % sample.len()]);
                }
                black_box(&acc);
            }),
            rounds,
        ),
    );
    let mut hits = 0usize;
    out.insert(
        "ksketch.query_ns",
        per_ns(
            time_s(3, || {
                hits = sample
                    .iter()
                    .filter(|s| black_box(s.query(&fns)).is_some())
                    .count();
            }),
            sample.len(),
        ),
    );
    // Every sampled vertex has an edge (the graphs have no isolated
    // vertices), so a `None` is a Monte-Carlo miss.
    out.insert(
        "ksketch.query_success_ratio",
        hits as f64 / sample.len() as f64,
    );
}

/// `par.*` / `det.*`: what one empty thread scope costs at the workload's
/// k, and what the deterministic-iteration helper costs per map entry.
fn par_det(inputs: &Inputs, calls: usize, out: &mut Out) {
    let k = inputs.spec.k;
    let per_us = |s: f64| s * 1e6 / calls as f64;
    out.insert(
        "par.map_noop_us",
        per_us(time_s(3, || {
            for _ in 0..calls {
                black_box(par_map_machines(k, |i| i));
            }
        })),
    );
    let mut states = vec![0u64; k];
    out.insert(
        "par.for_each_noop_us",
        per_us(time_s(3, || {
            for _ in 0..calls {
                par_for_each_state(&mut states, |i, s| *s = i as u64);
            }
        })),
    );
    // A label map of the size one machine holds: n/k entries.
    let prf = Prf::new(inputs.derived(PROBES));
    let entries = (inputs.n / k).max(16);
    let map: FxHashMap<u64, u64> = (0..entries as u64).map(|i| (prf.eval(7, i), i)).collect();
    let reps = (calls / 20).max(3);
    out.insert(
        "det.sorted_entries_ns_per_entry",
        time_s(3, || {
            for _ in 0..reps {
                black_box(det::sorted_entries(&map));
            }
        }) * 1e9
            / (reps * entries) as f64,
    );
}

/// One synthetic superstep batch of label-sized engine messages.
fn relabel_batch(inputs: &Inputs, count: usize, tag: u64) -> Vec<Envelope<Payload>> {
    let prf = Prf::new(inputs.derived(PROBES));
    let (k, n) = (inputs.spec.k as u64, inputs.n as u64);
    let l = kmachine::bandwidth::id_bits(inputs.n);
    (0..count as u64)
        .map(|i| {
            let src = prf.eval(tag, 3 * i) % k;
            let dst = (src + 1 + prf.eval(tag, 3 * i + 1) % (k - 1)) % k;
            let payload = Payload::Relabel {
                old: prf.eval(tag, 3 * i + 2) % n,
                new: i % n,
            };
            let bits = payload.wire_bits(l);
            Envelope::with_bits(src as usize, dst as usize, payload, bits)
        })
        .collect()
}

/// Microseconds per superstep of `batch` on a fresh `Bsp`, inboxes drained
/// as the engine drains them.
fn superstep_us(
    inputs: &Inputs,
    encoding: Encoding,
    faulty: bool,
    steps: usize,
    batch: &[Envelope<Payload>],
) -> f64 {
    let mut cfg = NetworkConfig::new(inputs.spec.k, Bandwidth::default(), inputs.n);
    cfg.encoding = encoding;
    time_s(3, || {
        let mut bsp: Bsp<Payload> = Bsp::new(cfg);
        if faulty {
            bsp.install_faults(inputs.drop_plan(), true);
        }
        for _ in 0..steps {
            bsp.superstep(batch.to_vec());
            black_box(bsp.take_all_inboxes());
        }
        black_box(bsp.stats().rounds);
    }) * 1e6
        / steps as f64
}

/// `bsp.*`: fixed cost (k one-word messages), dense cost (one message on
/// each of the k(k−1) links), and throughput / varint pricing / fault
/// masking on a batch of this workload's mean superstep size.
fn bsp(inputs: &Inputs, steps: usize, out: &mut Out) {
    let k = inputs.spec.k;
    let l = kmachine::bandwidth::id_bits(inputs.n);
    let word = |src: usize, dst: usize| {
        let payload = Payload::Flag { bit: true };
        let bits = payload.wire_bits(l);
        Envelope::with_bits(src, dst, payload, bits)
    };
    let ring: Vec<_> = (0..k).map(|i| word(i, (i + 1) % k)).collect();
    let dense: Vec<_> = (0..k)
        .flat_map(|i| (0..k).filter(move |&j| j != i).map(move |j| (i, j)))
        .map(|(i, j)| word(i, j))
        .collect();
    out.insert(
        "bsp.superstep_fixed_us",
        superstep_us(inputs, Encoding::Naive, false, steps, &ring),
    );
    out.insert(
        "bsp.superstep_dense_us",
        superstep_us(inputs, Encoding::Naive, false, steps / 4 + 1, &dense),
    );
    // The traced run's mean messages per superstep sets the batch size.
    let mean = (out["engine.messages"] / out["engine.supersteps"].max(1.0)).max(1.0) as usize;
    let batch = relabel_batch(inputs, mean, 8);
    let steps = (steps * k / mean.max(k)).max(8);
    let naive_us = superstep_us(inputs, Encoding::Naive, false, steps, &batch);
    let varint_us = superstep_us(inputs, Encoding::Varint, false, steps, &batch);
    out.insert("bsp.msgs_per_s", mean as f64 / (naive_us / 1e6));
    out.insert(
        "bsp.varint_pricing_ns_per_msg",
        (varint_us - naive_us) * 1e3 / mean as f64,
    );
    out.insert(
        "bsp.faulty_superstep_us",
        superstep_us(inputs, Encoding::Naive, true, steps, &batch),
    );
}

/// `codec.*`: `WireCodec` throughput over one sketch-heavy and one
/// label-heavy `Payload` batch, and the encoded size against the charged
/// size of the same messages.
fn codec(inputs: &Inputs, sg: &ShardedGraph, out: &mut Out) {
    let params = SketchParams::for_graph(inputs.n, 5);
    let fns = SketchFns::new(&SharedRandomness::new(inputs.derived(PROBES)), 1, params);
    let l = kmachine::bandwidth::id_bits(inputs.n);
    let view = sg.view(0);
    let mut batch: Vec<Payload> = view
        .verts()
        .iter()
        .take(256)
        .map(|&v| {
            let mut sk = L0Sketch::new(params);
            for &(nb, _) in view.neighbors(v) {
                sk.add_incident_edge(&fns, v, nb);
            }
            Payload::PartSketch {
                label: u64::from(v),
                sketch: Box::new(sk),
            }
        })
        .collect();
    // As many label bytes as sketch bytes would drown the sketches; as many
    // label *messages* as a superstep carries is the realistic mix.
    batch.extend(
        relabel_batch(inputs, 20_000, 9)
            .into_iter()
            .map(|e| e.payload),
    );
    let charged_bytes: f64 = batch.iter().map(|p| p.wire_bits(l) as f64 / 8.0).sum();
    let mut bytes = Vec::new();
    let enc_s = time_s(5, || {
        bytes.clear();
        for p in &batch {
            p.encode(&mut bytes);
        }
    });
    let dec_s = time_s(5, || {
        let mut r = WireReader::new(&bytes);
        for _ in 0..batch.len() {
            black_box(Payload::decode(&mut r).expect("decoding what encode wrote"));
        }
        assert!(r.is_empty(), "codec round trip left trailing bytes");
    });
    let mb = bytes.len() as f64 / 1e6;
    out.insert("codec.encode_mb_per_s", mb / enc_s);
    out.insert("codec.decode_mb_per_s", mb / dec_s);
    out.insert(
        "codec.bytes_per_charged_byte",
        bytes.len() as f64 / charged_bytes,
    );
}

/// `transport.*` probes: spawning k worker processes, the latency of a
/// window of k tiny frames, and the throughput of a window with a 64 KB
/// frame on every link.
fn transport(inputs: &Inputs, windows: usize, out: &mut Out) {
    let k = inputs.spec.k;
    let mut mesh = None;
    out.insert(
        "transport.spawn_ms",
        time_s(3, || {
            mesh = None; // reap the previous mesh outside the next spawn
            let t = ProcTransport::processes(k).expect("spawn worker processes");
            mesh = Some(t);
        }) * 1e3,
    );
    let mut mesh = mesh.expect("time_s ran the spawn");
    let windows = windows.max(20);
    let small: Vec<Frame> = (0..k as u32)
        .map(|i| Frame::new(i, (i + 1) % k as u32, vec![i as u8; 8]))
        .collect();
    out.insert(
        "transport.window_small_us",
        time_s(3, || {
            for _ in 0..windows {
                black_box(mesh.exchange(small.clone()));
            }
        }) * 1e6
            / windows as f64,
    );
    let big: Vec<Frame> = (0..k as u32)
        .flat_map(|i| (0..k as u32).filter(move |&j| j != i).map(move |j| (i, j)))
        .map(|(i, j)| Frame::new(i, j, vec![0xA5; 64 << 10]))
        .collect();
    let mb = (big.len() * (64 << 10)) as f64 / 1e6;
    let rounds = (windows / 10).max(3);
    out.insert(
        "transport.window_mb_per_s",
        mb * rounds as f64
            / time_s(3, || {
                for _ in 0..rounds {
                    black_box(mesh.exchange(big.clone()));
                }
            }),
    );
}
