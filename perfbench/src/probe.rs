//! The traced run's per-layer attribution.
//!
//! The probe replays a sample of the traced window's requests, calling
//! each layer's public function on the same generated inputs and timing
//! every call as a span: compile, the admission checks, the timing
//! certificate, the fast simulator, the input splice, and a whole
//! `Driver::run`. Per-topology kernel figures come from seeded slabs of
//! frames. The serving layers' figures come from the traced window when
//! the workload drives that layer, and otherwise from a short
//! single-client pass over the sampled requests.

use crate::stats::{median, Metrics};
use crate::trace::{Recorder, Span};
use crate::workload::{
    first_frame, fleet_request, frames, mix, serve_request, Bench, Item, Window, Workload, TOPOS,
    TOPO_KEYS,
};
use netpu_compiler::{compile, Loadable};
use netpu_core::{run_inference_fast, BatchEngine};
use netpu_fleet::{CompiledModelCache, FleetConfig, FleetRequest, FleetServer, TenantPolicy};
use netpu_nn::reference::PackedMlp;
use netpu_runtime::{Driver, InferRequest};
use netpu_serve::{Server, ServerConfig};
use serde_json::{json, Map, Value};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Replayed requests taken from the traced window.
const SAMPLE: usize = 48;
/// Replayed requests per topology, topped up with fresh inputs where the
/// workload has fewer (or none) of that topology.
const PER_TOPO: usize = 6;
/// Frames per kernel slab.
const KERNEL_FRAMES: usize = 256;
/// Timed repetitions of each kernel slab and each fresh admission.
const KERNEL_REPS: usize = 3;
/// Compiled-model cache budget for fresh admissions, bytes.
const CACHE_BYTES: u64 = 64 << 20;

/// One replayed request's per-call times, µs.
struct Replay {
    topo: usize,
    /// Part of the workload's own mix (counts toward the aggregates).
    in_mix: bool,
    /// The traced window's latency for this request, µs.
    loop_us: Option<f64>,
    compile: f64,
    check: f64,
    against: f64,
    timing: f64,
    sim: f64,
    run: f64,
    splice: f64,
    words: f64,
    cycles: f64,
    /// The admission check the workload's driver runs.
    admission: f64,
}

impl Replay {
    fn driver_self(&self) -> f64 {
        self.run - self.compile - self.admission - self.sim
    }

    /// The replayed work a `Server` worker does for a single-frame
    /// request: it compiles the frame and runs the loadable, which the
    /// driver admits with the structural and range checks only, whatever
    /// `strict_equiv` says.
    fn served(&self) -> f64 {
        self.run - self.admission + self.check
    }
}

/// The probe's output.
pub struct Probe {
    /// Per-layer metrics, `BENCHMARK.json` names.
    pub metrics: Metrics,
    /// Spans of every replayed call.
    pub spans: Vec<Span>,
    /// Compile + check + fast sim + driver self time against the
    /// replayed `Driver::run`, per topology.
    pub attribution: Value,
}

/// Replays the traced window's requests layer by layer.
pub fn run(
    bench: &Bench,
    traced: &Window,
    rec: &mut Recorder,
    smoke: bool,
) -> Result<Probe, String> {
    let (sample, per_topo, kernel_frames) = if smoke {
        (8, 2, 64)
    } else {
        (SAMPLE, PER_TOPO, KERNEL_FRAMES)
    };
    let items = sample_items(bench, traced, sample, per_topo);
    let mut spliced: BTreeMap<(usize, u64), Loadable> = BTreeMap::new();
    let mut replays = Vec::with_capacity(items.len());
    for (item, request, loop_us, in_mix) in &items {
        replays.push(replay(
            bench,
            item,
            *request,
            *loop_us,
            *in_mix,
            &mut spliced,
            rec,
        )?);
    }

    let mut m = Metrics::default();
    let mix_w = bench.workload.mix_weights();
    // Per-replay figures: aggregate over the workload's own requests,
    // then per topology over every replay of that topology.
    type Field = fn(&Replay) -> f64;
    let per_call: [(&str, &'static str, Field); 10] = [
        ("compiler.compile_us", "us", |r| r.compile),
        ("compiler.splice_us", "us", |r| r.splice),
        ("compiler.stream_words", "words", |r| r.words),
        ("check.check_us", "us", |r| r.check),
        ("check.against_us", "us", |r| r.against),
        ("check.timing_us", "us", |r| r.timing),
        ("core.fast_sim_us", "us", |r| r.sim),
        ("core.sim_mcycles_per_s", "Mcycle/s", |r| r.cycles / r.sim),
        ("runtime.driver_run_us", "us", |r| r.run),
        ("runtime.driver_self_us", "us", Replay::driver_self),
    ];
    let share = |rs: &[&Replay]| {
        let run: f64 = rs.iter().map(|r| r.run).sum();
        (run > 0.0).then(|| rs.iter().map(|r| r.admission).sum::<f64>() / run)
    };
    let groups: Vec<(Option<usize>, Vec<&Replay>)> =
        std::iter::once((None, replays.iter().filter(|r| r.in_mix).collect()))
            .chain(
                (0..TOPOS.len())
                    .map(|t| (Some(t), replays.iter().filter(|r| r.topo == t).collect())),
            )
            .collect();
    for (topo, rs) in &groups {
        for (name, unit, field) in per_call {
            let values: Vec<f64> = rs.iter().map(|r| field(r)).collect();
            m.put(suffixed(name, *topo), median(&values), unit, rs.len());
        }
        m.put(suffixed("check.share", *topo), share(rs), "ratio", rs.len());
    }

    // Kernels and fresh admissions, per topology, on seeded slabs.
    let plain = Driver::builder().hw(bench.hw).build();
    let mut kernels: [[f64; 4]; 4] = [[f64::NAN; 4]; 4];
    for topo in 0..TOPOS.len() {
        let Some(item) = items.iter().map(|i| i.0).find(|i| i.topo == topo) else {
            continue;
        };
        let model = bench.model(&item)?;
        let slab = frames(
            mix(bench.seed, 0xB1AB, topo as u64),
            kernel_frames,
            model.mlp.input.len,
        );
        let n = slab.len() as f64;
        let request = u64::MAX - 1 - topo as u64;
        let engine = BatchEngine::new(&model.mlp);
        let packed = PackedMlp::new(&model.mlp);
        let mut reps = [const { Vec::new() }; 4];
        for _ in 0..KERNEL_REPS {
            let (_, us) = rec.time("core.run_slab", request, None, || engine.run_slab(&slab));
            reps[0].push(us / n);
            let (_, us) = rec.time("nn.packed_infer", request, None, || {
                slab.iter()
                    .map(|px| packed.infer_traced(px).class)
                    .sum::<usize>()
            });
            reps[1].push(us / n);
            let (out, us) = rec.time("runtime.infer_batch", request, None, || {
                plain.infer_batch(&model.mlp, &slab)
            });
            out.map_err(|e| format!("infer_batch {}: {e}", TOPO_KEYS[topo]))?;
            reps[2].push(us / n);
            let cache = CompiledModelCache::new(bench.driver.clone(), CACHE_BYTES);
            let (out, us) = rec.time("fleet.admit", request, None, || {
                cache.get_or_admit(item.model_id, &model.mlp)
            });
            out.map_err(|e| format!("admit {}: {e}", TOPO_KEYS[topo]))?;
            reps[3].push(us);
        }
        for (k, r) in reps.iter().enumerate() {
            kernels[k][topo] = median(r).unwrap_or(f64::NAN);
        }
    }
    let kernel_names: [(&str, &'static str); 4] = [
        ("core.batch_kernel_frame_us", "us"),
        ("nn.packed_frame_us", "us"),
        ("runtime.infer_batch_frame_us", "us"),
        ("fleet.admit_us", "us"),
    ];
    for (k, (name, unit)) in kernel_names.iter().enumerate() {
        // Aggregate: the per-topology figures weighted by the workload's mix.
        let weighted: f64 = (0..TOPOS.len())
            .filter(|&t| mix_w[t] > 0.0)
            .map(|t| mix_w[t] * kernels[k][t])
            .sum();
        m.put(*name, Some(weighted), unit, KERNEL_REPS);
        for (t, &v) in kernels[k].iter().enumerate() {
            m.put(suffixed(name, Some(t)), Some(v), unit, KERNEL_REPS);
        }
    }

    serve_layer(bench, traced, &items, &replays, rec, &mut m)?;
    fleet_layer(bench, traced, &items, &replays, rec, &mut m)?;

    let mut attribution = Map::new();
    for (topo, rs) in &groups {
        let p = |f: fn(&Replay) -> f64| {
            median(&rs.iter().map(|r| f(r)).collect::<Vec<_>>()).unwrap_or(f64::NAN)
        };
        let (compile, check, sim, own, run) = (
            p(|r| r.compile),
            p(|r| r.admission),
            p(|r| r.sim),
            p(Replay::driver_self),
            p(|r| r.run),
        );
        let key = topo.map_or("mix", |t| TOPO_KEYS[t]);
        if rs.is_empty() {
            continue;
        }
        attribution.insert(
            key.to_string(),
            json!({
                "compile_us": compile, "check_us": check, "fast_sim_us": sim,
                "driver_self_us": own, "driver_run_us": run,
                "accounted_share": (compile + check + sim + own) / run,
                "replays": rs.len()
            }),
        );
    }
    Ok(Probe {
        metrics: m,
        spans: std::mem::take(&mut rec.spans),
        attribution: Value::Object(attribution),
    })
}

fn suffixed(name: &str, topo: Option<usize>) -> String {
    match topo {
        Some(t) => format!("{name}.{}", TOPO_KEYS[t]),
        None => name.to_string(),
    }
}

/// The first successful requests of the traced window, clients
/// interleaved, topped up per topology with fresh seeded inputs.
/// Returns `(item, request id, traced latency µs, in the workload mix)`.
fn sample_items(
    bench: &Bench,
    traced: &Window,
    sample: usize,
    per_topo: usize,
) -> Vec<(Item, u64, Option<f64>, bool)> {
    let mut out: Vec<(Item, u64, Option<f64>, bool)> = Vec::new();
    let logs: Vec<_> = traced
        .clients
        .iter()
        .map(|log| (log, log.items(), log.failed()))
        .collect();
    let longest = traced
        .clients
        .iter()
        .map(|c| c.recs.len())
        .max()
        .unwrap_or(0);
    'fill: for i in 0..longest {
        for (log, items, failed) in &logs {
            if out.len() == sample {
                break 'fill;
            }
            if i < log.recs.len() && !failed.contains(&i) {
                out.push((
                    items[i],
                    log.request(i),
                    Some(log.recs[i].latency_s * 1e6),
                    true,
                ));
            }
        }
    }
    for topo in 0..TOPOS.len() {
        let have = out.iter().filter(|o| o.0.topo == topo).count();
        // Reuse the workload's resident model for the topology, if any.
        let resident = out
            .iter()
            .find(|o| o.0.topo == topo)
            .map(|o| (o.0.weight_seed, o.0.model_id));
        for j in have..per_topo {
            let (weight_seed, model_id) =
                resident.unwrap_or((mix(bench.seed, 0xF111, topo as u64), topo as u64 * 2));
            let item = Item {
                topo,
                weight_seed,
                model_id,
                pixel_seed: mix(bench.seed, 0xF112 + topo as u64, j as u64),
                tenant: 0,
            };
            out.push((item, u64::MAX - 16 - out.len() as u64, None, false));
        }
    }
    out
}

/// Replays one request layer by layer, each call its own span under a
/// `probe.request` parent. The sequence runs twice and only the second,
/// warm pass is kept: measured cold, the first call of a sequence pays
/// for the cache misses of the calls after it.
fn replay(
    bench: &Bench,
    item: &Item,
    request: u64,
    loop_us: Option<f64>,
    in_mix: bool,
    spliced: &mut BTreeMap<(usize, u64), Loadable>,
    rec: &mut Recorder,
) -> Result<Replay, String> {
    let model = bench.model(item)?;
    let mlp = &*model.mlp;
    let px = first_frame(bench.workload, item, mlp.input.len);
    let hw = &bench.hw;
    let err =
        |what: &str, e: &dyn std::fmt::Display| format!("{what} {}: {e}", TOPO_KEYS[item.topo]);
    let admitted = match spliced.entry((item.topo, item.weight_seed)) {
        std::collections::btree_map::Entry::Occupied(e) => e.into_mut(),
        std::collections::btree_map::Entry::Vacant(e) => {
            e.insert(compile(mlp, &vec![0u8; mlp.input.len]).map_err(|e| err("compile", &e))?)
        }
    };
    let mut out = None;
    for warm in [false, true] {
        rec.set_enabled(warm);
        let root = rec.reserve();
        let start = rec.now();
        let p = Some(root);
        let (loadable, compile_us) = rec.time("compiler.compile", request, p, || compile(mlp, &px));
        let loadable = loadable.map_err(|e| err("compile", &e))?;
        let (_, check_us) = rec.time("check.check", request, p, || {
            netpu_check::check(&loadable, hw)
        });
        let (_, against_us) = rec.time("check.against", request, p, || {
            netpu_check::check_words_against(&loadable.words, mlp, hw)
        });
        let (_, timing_us) = rec.time("check.timing", request, p, || {
            netpu_check::predict_cycles(&loadable.words, hw)
        });
        let words = loadable.words.clone();
        let (sim, sim_us) = rec.time("core.fast_sim", request, p, || {
            run_inference_fast(hw, words)
        });
        let sim = sim.map_err(|e| err("fast sim", &e))?;
        let (run, run_us) = rec.time("runtime.driver_run", request, p, || {
            bench.driver.run(InferRequest::single(mlp, px.clone()))
        });
        run.map_err(|e| err("driver run", &e))?;
        let mut target = admitted.clone();
        let (spliced_ok, splice_us) =
            rec.time("compiler.splice", request, p, || target.replace_input(&px));
        spliced_ok.map_err(|e| err("splice", &e))?;
        rec.record_as(root, "probe.request", request, None, start, rec.now());
        out = Some(Replay {
            topo: item.topo,
            in_mix,
            loop_us,
            compile: compile_us,
            check: check_us,
            against: against_us,
            timing: timing_us,
            sim: sim_us,
            run: run_us,
            splice: splice_us,
            words: loadable.words.len() as f64,
            cycles: sim.cycles as f64,
            admission: if bench.driver.strict_equiv {
                against_us
            } else {
                check_us
            },
        });
    }
    out.ok_or_else(|| "replay ran no pass".to_string())
}

fn span_median(spans: &[Span], name: &str) -> (Option<f64>, usize) {
    let d: Vec<f64> = spans
        .iter()
        .filter(|s| s.name == name)
        .map(Span::us)
        .collect();
    (median(&d), d.len())
}

fn serve_layer(
    bench: &Bench,
    traced: &Window,
    items: &[(Item, u64, Option<f64>, bool)],
    replays: &[Replay],
    rec: &mut Recorder,
    m: &mut Metrics,
) -> Result<(), String> {
    let (latencies, submit, snapshot): (Vec<Option<f64>>, (Option<f64>, usize), _) =
        if bench.workload == Workload::OnlineRepeat {
            (
                replays.iter().map(|r| r.loop_us).collect(),
                span_median(&traced.spans, "serve.submit"),
                bench.serve_metrics().ok_or("online-repeat runs a server")?,
            )
        } else {
            let server = Server::start(
                bench.driver.clone(),
                ServerConfig {
                    boards: 2,
                    ..ServerConfig::default()
                },
            );
            let mut pass: Vec<Option<f64>> = Vec::new();
            for (item, request, _, _) in items {
                let model = bench.model(item)?;
                let px = first_frame(bench.workload, item, model.mlp.input.len);
                let req = InferRequest::single(Arc::clone(&model.mlp), px);
                let root = rec.reserve();
                let (result, t0, t1) = serve_request(&server, req, *request, root, rec);
                rec.record_as(root, "serve.request", *request, None, t0, t1);
                pass.push(result.is_ok().then_some((t1 - t0) * 1e6));
            }
            let snapshot = server.shutdown();
            (pass, span_median(&rec.spans, "serve.submit"), snapshot)
        };
    let handoff: Vec<f64> = latencies
        .iter()
        .zip(replays)
        .filter_map(|(l, r)| l.map(|l| l - r.served()))
        .collect();
    m.put("serve.submit_us", submit.0, "us", submit.1);
    m.put("serve.handoff_us", median(&handoff), "us", handoff.len());
    m.put(
        "serve.queue_high_water",
        Some(snapshot.queue_high_water as f64),
        "count",
        1,
    );
    m.put("serve.rejected", Some(snapshot.rejected as f64), "count", 1);
    Ok(())
}

fn fleet_layer(
    bench: &Bench,
    traced: &Window,
    items: &[(Item, u64, Option<f64>, bool)],
    replays: &[Replay],
    rec: &mut Recorder,
    m: &mut Metrics,
) -> Result<(), String> {
    let (latencies, submit, metrics): (Vec<Option<f64>>, (Option<f64>, usize), _) =
        if bench.workload == Workload::FleetHot {
            (
                replays.iter().map(|r| r.loop_us).collect(),
                span_median(&traced.spans, "fleet.submit"),
                bench.fleet_metrics().ok_or("fleet-hot runs a fleet")?,
            )
        } else {
            let fleet = FleetServer::start(
                bench.driver.clone(),
                FleetConfig {
                    shards: 2,
                    boards_per_shard: 2,
                    tenant_policy: TenantPolicy {
                        rate_rps: 1e12,
                        burst: 1e12,
                    },
                    ..FleetConfig::default()
                },
            );
            // Ids by model; the first pass admits, the second is timed hot.
            let mut ids: BTreeMap<(usize, u64), u64> = BTreeMap::new();
            let mut pass: Vec<Option<f64>> = Vec::new();
            for timed in [false, true] {
                rec.set_enabled(timed);
                for (item, request, _, _) in items {
                    let model = bench.model(item)?;
                    let next = ids.len() as u64;
                    let id = *ids.entry((item.topo, item.weight_seed)).or_insert(next);
                    let req = FleetRequest {
                        tenant: item.tenant,
                        model_id: id,
                        model: Arc::clone(&model.mlp),
                        pixels: first_frame(bench.workload, item, model.mlp.input.len),
                        deadline_us: None,
                    };
                    let root = rec.reserve();
                    let (result, t0, t1) = fleet_request(&fleet, req, *request, root, rec);
                    rec.record_as(root, "fleet.request", *request, None, t0, t1);
                    if timed {
                        pass.push(result.is_ok().then_some((t1 - t0) * 1e6));
                    }
                }
            }
            let metrics = fleet.shutdown();
            (pass, span_median(&rec.spans, "fleet.submit"), metrics)
        };
    let handoff: Vec<f64> = latencies
        .iter()
        .zip(replays)
        .filter_map(|(l, r)| l.map(|l| l - r.splice - r.sim))
        .collect();
    let requests = metrics.completed.max(1) as f64;
    let swaps: u64 = metrics.shards.iter().map(|s| s.swaps).sum();
    m.put("fleet.submit_us", submit.0, "us", submit.1);
    m.put("fleet.handoff_us", median(&handoff), "us", handoff.len());
    m.put("fleet.cache_hit_rate", metrics.cache.hit_rate(), "ratio", 1);
    m.put(
        "fleet.cache_misses",
        Some(metrics.cache.misses as f64),
        "count",
        1,
    );
    m.put(
        "fleet.swaps_per_request",
        Some(swaps as f64 / requests),
        "ratio",
        1,
    );
    m.put(
        "fleet.resident_hit_rate",
        metrics.resident_hit_rate(),
        "ratio",
        1,
    );
    m.put(
        "fleet.throttled",
        Some(metrics.throttled as f64),
        "count",
        1,
    );
    m.put(
        "fleet.rejected_busy",
        Some(metrics.rejected_busy as f64),
        "count",
        1,
    );
    Ok(())
}
