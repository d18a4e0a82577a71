//! The four workloads: seeded inputs, set-up, the closed client loop,
//! and the output checks.
//!
//! Every input is a pure function of the workload seed. Each client
//! deals its requests from reshuffled decks of topology cards, so a run
//! holds its workload's mix exactly, up to one partial deck. The mixes
//! are weighted so that every reported latency percentile falls inside
//! one topology's latency cluster: on an equal mix the median sat on the
//! boundary between two clusters and jumped between them run to run.

use crate::trace::{Recorder, Span};
use netpu_compiler::compile;
use netpu_core::HwConfig;
use netpu_fleet::{
    FleetConfig, FleetMetrics, FleetRequest, FleetServer, FleetSubmit, TenantPolicy,
};
use netpu_nn::export::BnMode;
use netpu_nn::zoo::ZooModel;
use netpu_nn::{reference, QuantMlp};
use netpu_runtime::{Driver, InferRequest, MeasuredRun};
use netpu_serve::{MetricsSnapshot, Server, ServerConfig, Submit};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, RngCore, SeedableRng};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

/// The zoo topologies the workloads draw from.
pub const TOPOS: [ZooModel; 4] = [
    ZooModel::TfcW1A1,
    ZooModel::SfcW1A1,
    ZooModel::SfcW2A2,
    ZooModel::LfcW1A1,
];

/// Metric-name suffix per topology, in [`TOPOS`] order.
pub const TOPO_KEYS: [&str; 4] = ["tfc-w1a1", "sfc-w1a1", "sfc-w2a2", "lfc-w1a1"];

/// Frames per `batch-offline` request.
pub const BATCH_FRAMES: usize = 1024;
/// Frames per `batch-offline` request in smoke mode.
pub const SMOKE_BATCH_FRAMES: usize = 128;
/// Frames of each batch checked against the reference model.
const BATCH_CHECKED_FRAMES: usize = 8;
/// Tenants sharing the fleet.
const FLEET_TENANTS: u64 = 4;

/// A splitmix64-style hash of three words: derives every seed in the
/// benchmark from the workload seed.
pub fn mix(a: u64, b: u64, c: u64) -> u64 {
    let mut z = a
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(b.wrapping_mul(0xBF58_476D_1CE4_E5B9))
        .wrapping_add(c.wrapping_mul(0x94D0_49BB_1331_11EB))
        .wrapping_add(0x2545_F491_4F6C_DD1D);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One input frame.
pub fn pixels(seed: u64, len: usize) -> Vec<u8> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = vec![0u8; len];
    for chunk in out.chunks_mut(8) {
        let word = rng.next_u64().to_le_bytes();
        chunk.copy_from_slice(&word[..chunk.len()]);
    }
    out
}

/// The frame a single-frame replay of `item` uses: its pixels, or the
/// first frame of its batch.
pub fn first_frame(workload: Workload, item: &Item, len: usize) -> Vec<u8> {
    match workload {
        Workload::BatchOffline => pixels(mix(item.pixel_seed, 0, 1), len),
        _ => pixels(item.pixel_seed, len),
    }
}

/// The frames of one batch request.
pub fn frames(seed: u64, count: usize, len: usize) -> Vec<Vec<u8>> {
    (0..count as u64)
        .map(|i| pixels(mix(seed, i, 1), len))
        .collect()
}

/// A benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// `Server` submit→wait over four resident models.
    OnlineRepeat,
    /// `Driver::run` under `strict_equiv`, a fresh model every request.
    OnlineCold,
    /// `Driver::infer_batch`, 1024 frames per request.
    BatchOffline,
    /// `FleetServer` submit→wait with a warm compiled-model cache.
    FleetHot,
}

impl Workload {
    /// All workloads, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::OnlineRepeat,
        Workload::OnlineCold,
        Workload::BatchOffline,
        Workload::FleetHot,
    ];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::OnlineRepeat => "online-repeat",
            Workload::OnlineCold => "online-cold",
            Workload::BatchOffline => "batch-offline",
            Workload::FleetHot => "fleet-hot",
        }
    }

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Cards per topology ([`TOPOS`] order) in one deck.
    ///
    /// Each reported percentile sits near the middle of one topology's
    /// latency cluster. A cluster's upper part is host interference: in
    /// the host's slow periods a cluster's 71st percentile rose by up to
    /// 50% while its median rose by 5–10%. p99 therefore lands in the
    /// slowest topology, which gets 1.7–2% of the requests.
    ///
    /// `online-repeat` is 18% / 64% / 16% / 2% TFC / SFC-w1a1 /
    /// SFC-w2a2 / LFC (p50 in SFC-w1a1, p90 in SFC-w2a2, p99 in LFC).
    /// `fleet-hot` swaps the two heavy shares, since SFC-w2a2 is the
    /// slowest topology on the fast path (p90 in LFC, p99 in SFC-w2a2).
    /// `online-cold` is 30% / 50% / 20% / 0%. `batch-offline` is
    /// 20% / 63% / 1.7% / 15% of batches (p50 in SFC-w1a1, p90 in LFC,
    /// p99 in SFC-w2a2).
    pub fn deck(self) -> [usize; 4] {
        match self {
            Workload::OnlineRepeat => [9, 32, 8, 1],
            Workload::FleetHot => [9, 32, 1, 8],
            Workload::OnlineCold => [3, 5, 2, 0],
            Workload::BatchOffline => [12, 38, 1, 9],
        }
    }

    /// Share of the workload's requests on each topology.
    pub fn mix_weights(self) -> [f64; 4] {
        let deck = self.deck();
        let total: usize = deck.iter().sum();
        deck.map(|c| c as f64 / total as f64)
    }

    /// Closed-loop clients. `fleet-hot` has one: its requests take
    /// 0.04–0.6 ms, and with two clients on a 2-core host the latency of
    /// each depended on whether the other's overlapped it, which moved
    /// its median by 20% between runs. With one client it can run held
    /// to one CPU ([`Workload::one_cpu`]).
    pub fn clients(self) -> usize {
        match self {
            Workload::OnlineRepeat => 2,
            Workload::FleetHot | Workload::OnlineCold | Workload::BatchOffline => 1,
        }
    }

    /// Whether set-up and the timed window run held to one CPU: the
    /// single-client workloads whose requests run on one thread at a
    /// time. On a 2-vCPU host, left free to use both CPUs, their
    /// requests ran ≈ 1.2–1.4× slower in bursts, and the share of slow
    /// requests went from under 10% to nearly half between runs; held
    /// to one CPU it stayed under 10%. `batch-offline` keeps both CPUs
    /// for its parallel kernel.
    pub fn one_cpu(self) -> bool {
        matches!(self, Workload::OnlineCold | Workload::FleetHot)
    }

    /// Resident weight seeds per topology; 0 means every request
    /// brings a model never seen before.
    fn weight_seeds(self) -> u64 {
        match self {
            Workload::OnlineCold => 0,
            Workload::FleetHot => 2,
            Workload::OnlineRepeat | Workload::BatchOffline => 1,
        }
    }

    /// Whether the workload's responses carry a cycle count. A
    /// `FleetServer` answers with the class only, so on `fleet-hot` the
    /// check covers classes and `accel_cycles_per_frame` is the served
    /// models' timing certificate, not a returned figure.
    pub fn returns_cycles(self) -> bool {
        self != Workload::FleetHot
    }

    /// Requests per client that `accel_cycles_per_frame` averages
    /// over: a whole number of decks plus half of one, so the figure is
    /// fixed by the seed yet differs a little between seeds. Each is at
    /// most half of what a client files in a 15-second window; a client
    /// that files fewer leaves the metric missing.
    pub fn cycle_prefix(self) -> usize {
        let deck: usize = self.deck().iter().sum();
        let decks = match self {
            Workload::OnlineRepeat => 100,
            Workload::OnlineCold => 50,
            Workload::BatchOffline => 8,
            Workload::FleetHot => 400,
        };
        deck * decks + deck / 2
    }
}

/// The inputs of one request.
#[derive(Clone, Copy, Debug)]
pub struct Item {
    /// Index into [`TOPOS`].
    pub topo: usize,
    /// Weight seed of the model.
    pub weight_seed: u64,
    /// Fleet-wide model id (`fleet-hot` cache key).
    pub model_id: u64,
    /// Seed of the pixels (of every frame, for a batch).
    pub pixel_seed: u64,
    /// Tenant (`fleet-hot` only).
    pub tenant: u64,
}

/// Weight seed of resident model `k` of topology `topo`. Shared by the
/// workloads, so `fleet-hot` serves `online-repeat`'s weights.
fn resident_seed(seed: u64, topo: usize, k: u64) -> u64 {
    mix(seed, 0x5EED_0000 + topo as u64, k)
}

/// Deals one client's requests.
pub struct Dealer {
    workload: Workload,
    seed: u64,
    client: u64,
    deck: Vec<usize>,
    pos: usize,
    rng: StdRng,
    seq: u64,
}

impl Dealer {
    /// Client `client`'s dealer.
    pub fn new(workload: Workload, seed: u64, client: usize) -> Dealer {
        let deck = workload
            .deck()
            .iter()
            .enumerate()
            .flat_map(|(topo, &n)| std::iter::repeat_n(topo, n))
            .collect::<Vec<_>>();
        let client = client as u64;
        Dealer {
            workload,
            seed,
            client,
            pos: deck.len(),
            deck,
            rng: StdRng::seed_from_u64(mix(seed, 0xDEA1, client)),
            seq: 0,
        }
    }

    /// The next request's inputs.
    pub fn next_item(&mut self) -> Item {
        if self.pos == self.deck.len() {
            self.deck.shuffle(&mut self.rng);
            self.pos = 0;
        }
        let topo = self.deck[self.pos];
        self.pos += 1;
        let seq = self.seq;
        self.seq += 1;
        let seeds = self.workload.weight_seeds();
        let (weight_seed, model_id) = if seeds == 0 {
            (mix(self.seed, 0xC01D_0000 + self.client, seq), u64::MAX)
        } else {
            let k = self.rng.gen_range(0..seeds);
            (resident_seed(self.seed, topo, k), topo as u64 * seeds + k)
        };
        Item {
            topo,
            weight_seed,
            model_id,
            pixel_seed: mix(self.seed, 0x9E1_0000 + self.client, seq),
            tenant: self.rng.gen_range(0..FLEET_TENANTS),
        }
    }
}

/// A built model with its certified cycle count.
pub struct Model {
    /// The quantized network.
    pub mlp: Arc<QuantMlp>,
    /// `netpu_check::predict_cycles` for the model on the paper instance.
    pub cycles: u64,
}

impl Model {
    /// Builds the untrained zoo model `topo` from `weight_seed`.
    pub fn build(zoo: ZooModel, weight_seed: u64, hw: &HwConfig) -> Result<Model, String> {
        let mlp = zoo
            .build_untrained(weight_seed, BnMode::Folded)
            .map_err(|e| format!("build {}: {e}", zoo.name()))?;
        let zeros = vec![0u8; mlp.input.len];
        let loadable = compile(&mlp, &zeros).map_err(|e| format!("compile {}: {e}", zoo.name()))?;
        let cycles = netpu_check::predict_cycles(&loadable.words, hw)
            .ok_or_else(|| format!("no cycle certificate for {}", zoo.name()))?;
        Ok(Model {
            mlp: Arc::new(mlp),
            cycles,
        })
    }
}

/// What one request returned, before it is filed.
#[derive(Clone, Debug, Default)]
pub struct Outcome {
    /// Host wall-clock latency, s.
    pub latency_s: f64,
    /// Returned class (first frame of a batch).
    pub class: usize,
    /// Modeled accelerator cycles per frame.
    pub cycles: u64,
    /// Why the request failed: refused, errored, or answered wrongly.
    pub error: Option<String>,
    /// The outputs were already checked inside the step.
    pub checked: bool,
}

/// One filed request. Kept small: a run files up to a few hundred
/// thousand of them and they count toward `peak_rss_mb`. The inputs are
/// not stored; [`ClientLog::items`] deals them again from the seed.
#[derive(Clone, Copy, Debug)]
pub struct Rec {
    /// Host wall-clock latency, s.
    pub latency_s: f64,
    /// Modeled accelerator cycles per frame.
    pub cycles: u32,
    /// Returned class.
    pub class: u16,
    /// The outputs were already checked inside the step.
    pub checked: bool,
}

/// A workload, set up and ready to take requests.
pub struct Bench {
    /// Which workload.
    pub workload: Workload,
    /// The workload seed.
    pub seed: u64,
    /// The accelerator instance.
    pub hw: HwConfig,
    /// The driver the workload's requests run through (the serving
    /// layers' workers use the same configuration).
    pub driver: Driver,
    /// Resident models by `(topology, weight seed)`.
    pub models: BTreeMap<(usize, u64), Arc<Model>>,
    /// Frames per batch request.
    pub batch_frames: usize,
    serve: Option<Server>,
    fleet: Option<FleetServer>,
}

impl Bench {
    /// Builds the models, starts the serving object, and serves one
    /// warm-up request per model.
    pub fn setup(workload: Workload, seed: u64, smoke: bool) -> Result<Bench, String> {
        let hw = HwConfig::paper_instance();
        let driver = Driver::builder()
            .hw(hw)
            .strict_equiv(workload == Workload::OnlineCold)
            .build();
        let mut models = BTreeMap::new();
        for (topo, zoo) in TOPOS.iter().enumerate() {
            if workload.deck()[topo] == 0 {
                continue;
            }
            for k in 0..workload.weight_seeds() {
                let s = resident_seed(seed, topo, k);
                models.insert((topo, s), Arc::new(Model::build(*zoo, s, &hw)?));
            }
        }
        let serve = (workload == Workload::OnlineRepeat).then(|| {
            Server::start(
                driver.clone(),
                ServerConfig {
                    boards: 2,
                    queue_capacity: 64,
                    ..ServerConfig::default()
                },
            )
        });
        let fleet = (workload == Workload::FleetHot).then(|| {
            FleetServer::start(
                driver.clone(),
                FleetConfig {
                    shards: 2,
                    boards_per_shard: 2,
                    queue_depth: 64,
                    tenant_policy: TenantPolicy {
                        rate_rps: 1e12,
                        burst: 1e12,
                    },
                    ..FleetConfig::default()
                },
            )
        });
        let bench = Bench {
            workload,
            seed,
            hw,
            driver,
            models,
            batch_frames: if smoke {
                SMOKE_BATCH_FRAMES
            } else {
                BATCH_FRAMES
            },
            serve,
            fleet,
        };
        // Warm-up: one request per model (per topology when models are
        // fresh each time), which also fills the fleet's cache.
        let seeds = workload.weight_seeds().max(1);
        let mut rec = Recorder::new(Instant::now(), false, 0);
        for topo in (0..TOPOS.len()).filter(|&t| workload.deck()[t] > 0) {
            for k in 0..seeds {
                let item = Item {
                    topo,
                    weight_seed: resident_seed(seed, topo, k),
                    model_id: topo as u64 * seeds + k,
                    pixel_seed: mix(seed, 0x3A53, topo as u64),
                    tenant: 0,
                };
                let out = bench.step(&item, u64::MAX, &mut rec);
                let error = match out.error {
                    Some(e) => Some(e),
                    None if out.checked => None,
                    None => bench.verify(&item, out.class, out.cycles),
                };
                if let Some(e) = error {
                    return Err(format!("warm-up request failed: {e}"));
                }
            }
        }
        Ok(bench)
    }

    /// The model an item names: resident, or built fresh.
    pub fn model(&self, item: &Item) -> Result<Arc<Model>, String> {
        match self.models.get(&(item.topo, item.weight_seed)) {
            Some(m) => Ok(Arc::clone(m)),
            None => Model::build(TOPOS[item.topo], item.weight_seed, &self.hw).map(Arc::new),
        }
    }

    /// Serves one request. Inputs are generated, and outputs of the
    /// single-client workloads checked, outside the timed span.
    pub fn step(&self, item: &Item, request: u64, rec: &mut Recorder) -> Outcome {
        let mut out = Outcome::default();
        let model = match self.model(item) {
            Ok(m) => m,
            Err(e) => {
                out.error = Some(e);
                return out;
            }
        };
        let len = model.mlp.input.len;
        let root = rec.reserve();
        let (t0, t1) = match (self.workload, &self.serve, &self.fleet) {
            (Workload::OnlineRepeat, Some(server), _) => {
                let req =
                    InferRequest::single(Arc::clone(&model.mlp), pixels(item.pixel_seed, len));
                let (result, t0, t1) = serve_request(server, req, request, root, rec);
                match result {
                    Ok(run) => {
                        out.class = run.class;
                        out.cycles = run.cycles;
                    }
                    Err(e) => out.error = Some(e),
                }
                (t0, t1)
            }
            (Workload::OnlineCold, _, _) => {
                let px = pixels(item.pixel_seed, len);
                let t0 = rec.now();
                let result = self
                    .driver
                    .run(InferRequest::single(&*model.mlp, px.clone()));
                let t1 = rec.now();
                rec.record("runtime.driver_run", request, Some(root), t0, t1);
                match result
                    .map_err(|e| e.to_string())
                    .and_then(|r| first_run(&r.runs).cloned())
                {
                    Ok(run) => {
                        out.class = run.class;
                        out.cycles = run.cycles;
                        out.error = check_frame(&model, &px, &run);
                    }
                    Err(e) => out.error = Some(e),
                }
                out.checked = true;
                (t0, t1)
            }
            (Workload::BatchOffline, _, _) => {
                let inputs = frames(item.pixel_seed, self.batch_frames, len);
                let t0 = rec.now();
                let result = self.driver.infer_batch(&model.mlp, &inputs);
                let t1 = rec.now();
                rec.record("runtime.infer_batch", request, Some(root), t0, t1);
                match result {
                    Ok(runs) => {
                        out.class = runs.first().map_or(0, |r| r.class);
                        out.cycles = runs.first().map_or(0, |r| r.cycles);
                        out.error = check_batch(&model, &inputs, &runs, item.pixel_seed);
                    }
                    Err(e) => out.error = Some(e.to_string()),
                }
                out.checked = true;
                (t0, t1)
            }
            (Workload::FleetHot, _, Some(fleet)) => {
                let req = FleetRequest {
                    tenant: item.tenant,
                    model_id: item.model_id,
                    model: Arc::clone(&model.mlp),
                    pixels: pixels(item.pixel_seed, len),
                    deadline_us: None,
                };
                let (result, t0, t1) = fleet_request(fleet, req, request, root, rec);
                match result {
                    // The fleet answers with the class only; its cycle
                    // count is the admitted model's certificate.
                    Ok(class) => {
                        out.class = class;
                        out.cycles = model.cycles;
                    }
                    Err(e) => out.error = Some(e),
                }
                (t0, t1)
            }
            _ => unreachable!("set-up starts the serving object its workload needs"),
        };
        rec.record_as(root, "request", request, None, t0, t1);
        out.latency_s = t1 - t0;
        out
    }

    /// Frames per request.
    pub fn frames_per_request(&self) -> usize {
        match self.workload {
            Workload::BatchOffline => self.batch_frames,
            _ => 1,
        }
    }

    /// Checks one single-frame answer: the class against
    /// `netpu_nn::reference::infer`, the cycle count against the model's
    /// timing certificate.
    pub fn verify(&self, item: &Item, class: usize, cycles: u64) -> Option<String> {
        let model = match self.model(item) {
            Ok(m) => m,
            Err(e) => return Some(e),
        };
        let want = reference::infer(&model.mlp, &pixels(item.pixel_seed, model.mlp.input.len));
        let cycles = self.workload.returns_cycles().then_some(cycles);
        mismatch(class, want, cycles, model.cycles)
    }

    /// Checks every filed request of `log` not checked inside its step,
    /// on up to two threads.
    fn check(&self, log: &mut ClientLog) {
        let items = log.items();
        let threads = crate::stats::nproc().clamp(1, 2);
        let chunk = log.recs.len().div_ceil(threads).max(1);
        let failed = log.failed();
        let returns_cycles = self.workload.returns_cycles();
        let found: Vec<(usize, String)> = std::thread::scope(|s| {
            let handles: Vec<_> = log
                .recs
                .chunks(chunk)
                .enumerate()
                .map(|(part, recs)| {
                    let (items, failed) = (&items, &failed);
                    s.spawn(move || {
                        let mut errors = Vec::new();
                        for (j, r) in recs.iter().enumerate() {
                            let i = part * chunk + j;
                            if r.checked || failed.contains(&i) {
                                continue;
                            }
                            let item = &items[i];
                            let model = match self.model(item) {
                                Ok(m) => m,
                                Err(e) => {
                                    errors.push((i, e));
                                    continue;
                                }
                            };
                            let want = reference::infer(
                                &model.mlp,
                                &pixels(item.pixel_seed, model.mlp.input.len),
                            );
                            let cycles = returns_cycles.then_some(u64::from(r.cycles));
                            let error = mismatch(usize::from(r.class), want, cycles, model.cycles);
                            if let Some(e) = error {
                                errors.push((i, e));
                            }
                        }
                        errors
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("check thread panicked"))
                .collect()
        });
        log.errors.extend(found);
        log.errors.sort_by_key(|e| e.0);
    }

    /// Stops the serving object and returns its final metrics.
    pub fn shutdown(self) -> (Option<MetricsSnapshot>, Option<FleetMetrics>) {
        (
            self.serve.map(Server::shutdown),
            self.fleet.map(FleetServer::shutdown),
        )
    }

    /// Current serve metrics, if the workload runs a `Server`.
    pub fn serve_metrics(&self) -> Option<MetricsSnapshot> {
        self.serve.as_ref().map(Server::metrics)
    }

    /// Current fleet metrics, if the workload runs a `FleetServer`.
    pub fn fleet_metrics(&self) -> Option<FleetMetrics> {
        self.fleet.as_ref().map(FleetServer::metrics)
    }
}

fn first_run(runs: &[MeasuredRun]) -> Result<&MeasuredRun, String> {
    runs.first().ok_or_else(|| "empty response".to_string())
}

/// Submits one request to a `Server` and waits for it, recording
/// `serve.submit` and `serve.wait` spans under `root`. Returns the run
/// and the request's start and end times.
pub fn serve_request(
    server: &Server,
    req: InferRequest<'static>,
    request: u64,
    root: u64,
    rec: &mut Recorder,
) -> (Result<MeasuredRun, String>, f64, f64) {
    let t0 = rec.now();
    let submitted = server.submit(req);
    let ts = rec.now();
    let result = match submitted {
        Submit::Accepted(ticket) => ticket
            .wait()
            .map_err(|e| e.to_string())
            .and_then(|r| first_run(&r.response.runs).cloned()),
        Submit::Denied(reason) => Err(format!("denied: {reason}")),
    };
    let t1 = rec.now();
    rec.record("serve.submit", request, Some(root), t0, ts);
    rec.record("serve.wait", request, Some(root), ts, t1);
    (result, t0, t1)
}

/// Submits one request to a `FleetServer` and waits for it, recording
/// `fleet.submit` and `fleet.wait` spans under `root`. Returns the class
/// and the request's start and end times.
pub fn fleet_request(
    fleet: &FleetServer,
    req: FleetRequest,
    request: u64,
    root: u64,
    rec: &mut Recorder,
) -> (Result<usize, String>, f64, f64) {
    let t0 = rec.now();
    let submitted = fleet.submit(req);
    let ts = rec.now();
    let result = match submitted {
        FleetSubmit::Accepted(ticket) => ticket.wait().map(|r| r.class).map_err(|e| e.to_string()),
        FleetSubmit::Denied(reason) => Err(format!("denied: {reason}")),
    };
    let t1 = rec.now();
    rec.record("fleet.submit", request, Some(root), t0, ts);
    rec.record("fleet.wait", request, Some(root), ts, t1);
    (result, t0, t1)
}

/// Compares an answer with the reference class and, when the response
/// carried a cycle count, with the certificate.
fn mismatch(class: usize, want: usize, cycles: Option<u64>, certified: u64) -> Option<String> {
    match cycles {
        _ if class != want => Some(format!("class {class} != reference {want}")),
        Some(c) if c != certified => Some(format!("cycles {c} != certificate {certified}")),
        _ => None,
    }
}

fn check_frame(model: &Model, px: &[u8], run: &MeasuredRun) -> Option<String> {
    mismatch(
        run.class,
        reference::infer(&model.mlp, px),
        Some(run.cycles),
        model.cycles,
    )
}

/// Checks every frame's cycle count and a seeded sample of classes.
fn check_batch(
    model: &Model,
    inputs: &[Vec<u8>],
    runs: &[MeasuredRun],
    seed: u64,
) -> Option<String> {
    if runs.len() != inputs.len() {
        return Some(format!(
            "{} results for {} frames",
            runs.len(),
            inputs.len()
        ));
    }
    if let Some(r) = runs.iter().find(|r| r.cycles != model.cycles) {
        return Some(format!(
            "cycles {} != certificate {}",
            r.cycles, model.cycles
        ));
    }
    (0..BATCH_CHECKED_FRAMES as u64)
        .map(|j| (mix(seed, j, 2) % inputs.len() as u64) as usize)
        .find_map(|i| check_frame(model, &inputs[i], &runs[i]).map(|e| format!("frame {i}: {e}")))
}

/// One client's requests in one timed window.
pub struct ClientLog {
    workload: Workload,
    seed: u64,
    /// Client index.
    pub client: usize,
    /// The dealer's sequence number of the first request.
    pub first_seq: u64,
    /// Filed requests, in order.
    pub recs: Vec<Rec>,
    /// Failed requests: index into `recs`, and why.
    pub errors: Vec<(usize, String)>,
    /// Time spent inside requests, s.
    pub busy_s: f64,
}

impl ClientLog {
    /// The inputs of every filed request, dealt again from the seed.
    pub fn items(&self) -> Vec<Item> {
        let mut dealer = Dealer::new(self.workload, self.seed, self.client);
        for _ in 0..self.first_seq {
            dealer.next_item();
        }
        (0..self.recs.len()).map(|_| dealer.next_item()).collect()
    }

    /// Request id of filed request `i` (shared by its spans).
    pub fn request(&self, i: usize) -> u64 {
        request_id(self.client, self.first_seq + i as u64)
    }

    /// Indices of failed requests.
    pub fn failed(&self) -> std::collections::BTreeSet<usize> {
        self.errors.iter().map(|e| e.0).collect()
    }

    /// Successful requests, with their indices.
    pub fn succeeded(&self) -> impl Iterator<Item = (usize, &Rec)> {
        let failed = self.failed();
        self.recs
            .iter()
            .enumerate()
            .filter(move |(i, _)| !failed.contains(i))
    }
}

fn request_id(client: usize, seq: u64) -> u64 {
    ((client as u64) << 32) | seq
}

/// What the clients of one timed window produced.
pub struct Window {
    /// One log per client.
    pub clients: Vec<ClientLog>,
    /// Frames per request.
    pub frames: usize,
    /// Spans, when traced.
    pub spans: Vec<Span>,
}

impl Window {
    /// Checks every answer not checked inside its request's step.
    pub fn check(&mut self, bench: &Bench) {
        for log in &mut self.clients {
            bench.check(log);
        }
    }

    /// Requests sent.
    pub fn attempted(&self) -> usize {
        self.clients.iter().map(|c| c.recs.len()).sum()
    }

    /// Every failure message.
    pub fn errors(&self) -> impl Iterator<Item = &str> {
        self.clients
            .iter()
            .flat_map(|c| c.errors.iter().map(|e| e.1.as_str()))
    }

    /// Completed frames per second: each client's frames over its own
    /// time inside requests, summed over clients.
    pub fn frames_per_s(&self) -> Option<f64> {
        let rates: Vec<f64> = self
            .clients
            .iter()
            .filter(|c| c.busy_s > 0.0)
            .map(|c| (c.succeeded().count() * self.frames) as f64 / c.busy_s)
            .collect();
        (!rates.is_empty()).then(|| rates.iter().sum())
    }

    /// Successful request latencies, ms.
    pub fn latencies_ms(&self) -> Vec<f64> {
        self.clients
            .iter()
            .flat_map(|c| c.succeeded().map(|(_, r)| r.latency_s * 1e3))
            .collect()
    }

    /// Modeled cycles per frame over each client's first `prefix`
    /// requests; `None` if a client filed fewer, since the figure would
    /// then depend on host speed.
    pub fn cycles_per_frame(&self, prefix: usize) -> Option<f64> {
        if self.clients.iter().any(|c| c.recs.len() < prefix) {
            return None;
        }
        let cycles: Vec<f64> = self
            .clients
            .iter()
            .flat_map(|c| {
                c.succeeded()
                    .filter(|(i, _)| *i < prefix)
                    .map(|(_, r)| f64::from(r.cycles))
            })
            .collect();
        (!cycles.is_empty()).then(|| cycles.iter().sum::<f64>() / cycles.len() as f64)
    }
}

/// Runs the workload's clients, closed loop, until each has spent
/// `budget_s` inside requests. The answers are checked afterwards, by
/// [`Window::check`].
pub fn run_window(
    bench: &Bench,
    dealers: &mut [Dealer],
    budget_s: f64,
    traced: bool,
    origin: Instant,
) -> Window {
    let results: Vec<(ClientLog, Vec<Span>)> = std::thread::scope(|s| {
        let handles: Vec<_> = dealers
            .iter_mut()
            .enumerate()
            .map(|(client, dealer)| {
                s.spawn(move || {
                    let mut rec = Recorder::new(origin, traced, (client as u64 + 1) << 40);
                    let mut log = ClientLog {
                        workload: bench.workload,
                        seed: bench.seed,
                        client,
                        first_seq: dealer.seq,
                        recs: Vec::new(),
                        errors: Vec::new(),
                        busy_s: 0.0,
                    };
                    // The wall-clock cap ends the loop even if requests
                    // fail before any time is spent inside them.
                    let cap =
                        Instant::now() + std::time::Duration::from_secs_f64(4.0 * budget_s + 30.0);
                    while log.busy_s < budget_s && Instant::now() < cap {
                        let request = request_id(client, dealer.seq);
                        let item = dealer.next_item();
                        let out = bench.step(&item, request, &mut rec);
                        log.busy_s += out.latency_s;
                        if let Some(e) = out.error {
                            log.errors.push((log.recs.len(), e));
                        }
                        log.recs.push(Rec {
                            latency_s: out.latency_s,
                            cycles: u32::try_from(out.cycles).unwrap_or(u32::MAX),
                            class: u16::try_from(out.class).unwrap_or(u16::MAX),
                            checked: out.checked,
                        });
                    }
                    (log, rec.spans)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let mut window = Window {
        clients: Vec::new(),
        frames: bench.frames_per_request(),
        spans: Vec::new(),
    };
    for (log, spans) in results {
        window.clients.push(log);
        window.spans.extend(spans);
    }
    window
}
