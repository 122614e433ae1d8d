//! The workloads: set-up (with its verification pass) and the timed
//! window. Every loop is closed: a generator issues its next operation only
//! when the previous one has returned, and between operations it ticks the
//! reference clock (see `refclock`).

use std::fs::File;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};
use std::time::Instant;

use cfc_core::archive::{ArchiveReader, ArchiveStore, StoreConfig, StoreStats};
use cfc_serve::{ArchiveServer, ClientResponse, HttpClient, ServeConfig, ServerStats};
use cfc_tensor::{Field, Region};

use crate::host::nproc;
use crate::refclock::{reference_s, RefClock, Runs, Tick, NOMINAL_TICK_S};
use crate::stats::median;
use crate::trace::Tracer;
use crate::world::{Archive, Kind, Rng, Scale, Tally, TempDir, ANCHORS};

/// Timed write cycles a window holds at least.
pub const MIN_CYCLES: usize = 5;
/// Read segments a window holds at least.
pub const MIN_SEGMENTS: usize = 9;
/// Wall seconds of reads between two ticks: ten ticks long, so the clock
/// costs a tenth of the window, and much shorter than the seconds a burst
/// of interference lasts, so the ticks on both sides have seen it.
const SEGMENT_S: f64 = 0.1;
/// Region reads warmed up (and verified) before the cold reader is timed.
const COLD_WARMUP: usize = 4;
/// Reads and requests compared byte for byte with direct decode in the
/// verification pass of the store and server workloads.
const VERIFY_READS: usize = 40;
/// Further untimed reads that bring the pressured store to steady state:
/// every one of its 60 blocks has been through tier 2 (500 block touches)
/// and tier 1 has turned over many times.
const STORE_WARMUP: usize = 360;
/// Tier-2 budget of the pressured store: holds every compressed block.
const TIER2_BYTES: usize = 64 << 20;

/// Threads or connections generating load on the store and the server: at
/// most one per core, two at most. (One client alone leaves the server's
/// core halted between requests, and a request then mostly measures how
/// long the host takes to wake a halted core.)
pub fn generators() -> usize {
    nproc().min(2)
}

/// How a workload's reads reach the archive.
pub enum ReadPath {
    /// Write workloads: `ArchiveReader` over the bytes just written.
    Memory,
    /// `region_cold`, a rung of the traced ladder and no workload of its
    /// own: a stateless reader over the cross-field archive file.
    Cold(ArchiveReader<File>),
    /// `store_pressure`: the tiered store with tier 1 a quarter of the
    /// working set.
    Store(ArchiveStore<File>),
    /// `serve_warm`: the HTTP server over a default store.
    Serve(ArchiveServer<File>),
}

/// Everything a workload's timed window runs against.
pub struct World {
    pub name: &'static str,
    pub archive: Arc<Archive>,
    pub path: ReadPath,
    /// Write cycles a window times at least ([`MIN_CYCLES`], fewer for
    /// smoke runs and the traced run's reduced windows).
    pub min_cycles: usize,
    /// Holds the archive file; removed on drop.
    _dir: Option<TempDir>,
}

/// A duration as the wall measured it, with the reference-clock seconds
/// ticked around it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Paced {
    pub wall: f64,
    /// Mean of the tick before and the tick after.
    pub tick_s: f64,
    /// Share of the tick's slowdown the timed operation suffers.
    pub exposure: f64,
}

impl Paced {
    /// `wall` between two ticks, held against the reading that `runs` the
    /// way the timed operation does.
    pub fn between(wall: f64, before: Tick, after: Tick, runs: Runs) -> Self {
        Paced {
            wall,
            tick_s: (before.seconds(runs) + after.seconds(runs)) / 2.0,
            exposure: 1.0,
        }
    }
}

/// Whose seconds a value is given in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Seconds {
    /// As measured: the host's neighbours included.
    Wall,
    /// Scaled by the ticks around each sample: what the metrics report.
    Reference,
}

/// Median of `samples` in the given seconds.
pub fn median_of(samples: &[Paced], seconds: Seconds) -> f64 {
    let values: Vec<f64> = samples
        .iter()
        .map(|p| match seconds {
            Seconds::Wall => p.wall,
            Seconds::Reference => reference_s(p.wall, p.tick_s, p.exposure),
        })
        .collect();
    median(&values)
}

/// Raw samples of one timed window.
#[derive(Debug, Default)]
pub struct Samples {
    /// Seconds per `write_to` / `write_epochs_to`, beside pool-wide ticks.
    pub write_s: Vec<Paced>,
    /// Seconds per full decode, beside pool-wide ticks.
    pub decode_s: Vec<Paced>,
    /// Wall latency of every region read.
    pub read_ms: Vec<f64>,
    /// Median read latency of each segment: the reads between two ticks,
    /// which are a cycle's reads on the write workloads.
    pub read_p50_ms: Vec<Paced>,
    /// Seconds each segment took per MB of region payload it delivered.
    pub read_s_per_mb: Vec<Paced>,
    /// Operations timed and wall seconds spent inside them (ticks are not
    /// operations).
    pub ops: u64,
    pub busy_s: f64,
    /// Generators the reads came from, side by side (0 reads as 1).
    pub generators: usize,
    /// Every tick of the window over what it takes on the undisturbed
    /// host: how much the wall-clock values are inflated by.
    pub slowdown: Vec<f64>,
    /// Store counters at the window's start and end (store workloads).
    pub store: Option<(StoreStats, StoreStats)>,
    /// Server counters at the window's start and end (`serve_warm`).
    pub server: Option<(ServerStats, ServerStats)>,
}

/// The archive a workload writes or serves. Only the ladder's cold reader
/// needs the cross-field archive on disk (its reads re-run inference); the
/// store and the server are measured over the larger baseline snapshot,
/// whose set-up and by-product rates do not hang on CFNN speed.
pub fn kind_of(name: &str) -> Kind {
    match name {
        "snapshot_crossfield" | "region_cold" => Kind::Crossfield,
        "temporal_series" => Kind::Temporal,
        _ => Kind::Baseline,
    }
}

fn bytes_of(field: &Field) -> Vec<u8> {
    field
        .as_slice()
        .iter()
        .flat_map(|v| v.to_le_bytes())
        .collect()
}

/// The region endpoint's query for `region`: `start=..&shape=..`.
pub fn region_query(region: &Region) -> String {
    let list = |f: &dyn Fn(usize) -> usize| {
        (0..region.ndim())
            .map(|a| f(a).to_string())
            .collect::<Vec<_>>()
            .join(",")
    };
    format!(
        "start={}&shape={}",
        list(&|a| region.start(a)),
        list(&|a| region.extent(a))
    )
}

/// One HTTP region request; `Ok` only for a 200 whose frame carries
/// exactly the window's samples.
fn http_region(
    client: &mut HttpClient,
    field: &str,
    region: &Region,
) -> Result<ClientResponse, String> {
    let target = format!("/field/{field}/region?{}", region_query(region));
    let resp = client.get(&target).map_err(|e| e.to_string())?;
    match resp.frame() {
        Some((_, payload)) if resp.status == 200 && payload.len() == region.len() * 4 => Ok(resp),
        Some((_, payload)) if resp.status == 200 => Err(format!(
            "{target}: payload {} B for {} samples",
            payload.len(),
            region.len()
        )),
        _ => Err(format!(
            "{target}: status {}: {}",
            resp.status,
            resp.body_str()
        )),
    }
}

impl World {
    /// Build the world of workload `name`: generate, write, decode and
    /// verify its archive, then stand up and warm its read path. Every
    /// check is counted into `tally`.
    pub fn setup(
        name: &'static str,
        scale: Scale,
        seed: u64,
        tally: &mut Tally,
    ) -> Result<Self, String> {
        let archive = Archive::build(kind_of(name), scale, seed, tally)?;
        let mut world = Self::over(name, Arc::new(archive), seed, tally)?;
        if scale == Scale::Smoke {
            world.min_cycles = 2;
        }
        Ok(world)
    }

    /// Stand up and warm workload `name`'s read path over an archive that
    /// is already built and verified.
    pub fn over(
        name: &'static str,
        archive: Arc<Archive>,
        seed: u64,
        tally: &mut Tally,
    ) -> Result<Self, String> {
        let mut world = World {
            name,
            archive,
            path: ReadPath::Memory,
            min_cycles: MIN_CYCLES,
            _dir: None,
        };
        let mut rng = Rng::new(seed, 0xC0DE);
        if matches!(name, "region_cold" | "store_pressure" | "serve_warm") {
            let dir = TempDir::create().map_err(|e| e.to_string())?;
            let file = dir.path().join("snapshot.cfar");
            std::fs::write(&file, &world.archive.written.bytes).map_err(|e| e.to_string())?;
            let open = || File::open(&file).map_err(|e| e.to_string());
            world.path = match name {
                "region_cold" => {
                    ReadPath::Cold(ArchiveReader::open(open()?).map_err(|e| e.to_string())?)
                }
                "store_pressure" => {
                    let anchors_decoded = ANCHORS.len() * world.archive.shape().len() * 4;
                    let config = StoreConfig::with_tiers(anchors_decoded / 4, TIER2_BYTES);
                    ReadPath::Store(ArchiveStore::open(open()?, config).map_err(|e| e.to_string())?)
                }
                _ => {
                    let store = ArchiveStore::open(open()?, StoreConfig::default())
                        .map_err(|e| e.to_string())?;
                    // the default 10 000 requests per connection would
                    // close a generator's socket in mid-window
                    let config = ServeConfig {
                        max_requests_per_connection: usize::MAX,
                        ..ServeConfig::with_threads(nproc())
                    };
                    ReadPath::Serve(
                        ArchiveServer::bind(store, "127.0.0.1:0", config)
                            .map_err(|e| e.to_string())?,
                    )
                }
            };
            world._dir = Some(dir);
        }
        world.warm_and_verify(&mut rng, tally)?;
        Ok(world)
    }

    /// Fields this workload's timed reads visit.
    pub fn read_fields(&self) -> Vec<String> {
        match self.name {
            "store_pressure" => ANCHORS.iter().map(|s| s.to_string()).collect(),
            "serve_warm" => self.archive.snaps[0]
                .iter()
                .map(|(n, _)| n.to_string())
                .collect(),
            _ => self
                .archive
                .cycle_reads()
                .0
                .iter()
                .map(|s| s.to_string())
                .collect(),
        }
    }

    /// Window height of this workload's reads.
    pub fn read_slabs(&self) -> usize {
        match self.name {
            "serve_warm" => 1,
            _ => self.archive.read_slabs(),
        }
    }

    /// The verification pass: warm the read path and compare what it
    /// returns, byte for byte, with the same window of the verified
    /// `ArchiveReader` decode.
    fn warm_and_verify(&self, rng: &mut Rng, tally: &mut Tally) -> Result<(), String> {
        // how this path reads a window, how many reads are compared, and
        // how many more only warm it
        type Read<'a> = Box<dyn FnMut(&str, &Region) -> Result<Vec<u8>, String> + 'a>;
        let (mut read, verified, warming): (Read<'_>, usize, usize) = match &self.path {
            // the archive build just wrote and decoded the same bytes a
            // cycle does, so allocator and page state are already warm
            ReadPath::Memory => return Ok(()),
            ReadPath::Cold(reader) => (
                Box::new(|f, r| {
                    reader
                        .decode_region(f, r)
                        .map(|g| bytes_of(&g))
                        .map_err(|e| e.to_string())
                }),
                COLD_WARMUP,
                0,
            ),
            ReadPath::Store(store) => (
                Box::new(|f, r| {
                    store
                        .decode_region(f, r)
                        .map(|g| bytes_of(&g))
                        .map_err(|e| e.to_string())
                }),
                VERIFY_READS,
                STORE_WARMUP,
            ),
            ReadPath::Serve(server) => {
                let mut client =
                    HttpClient::connect(server.local_addr()).map_err(|e| e.to_string())?;
                (
                    Box::new(move |f, r| {
                        let resp = http_region(&mut client, f, r)?;
                        Ok(resp.frame().map_or(Vec::new(), |(_, p)| p.to_vec()))
                    }),
                    VERIFY_READS,
                    0,
                )
            }
        };
        let name = self.name;
        let fields = self.read_fields();
        let mut reads: Vec<(String, Region, bool)> = Vec::new();
        if matches!(self.path, ReadPath::Serve(_)) {
            // whole-field requests: warm every block and check every sample
            let full = Region::full(self.archive.shape());
            reads.extend(fields.iter().map(|f| (f.clone(), full, true)));
        }
        for i in 0..verified + warming {
            let field = fields[rng.below(fields.len())].clone();
            reads.push((
                field,
                self.archive.window(self.read_slabs(), rng),
                i < verified,
            ));
        }
        for (i, (field, region, compare)) in reads.iter().enumerate() {
            let got = read(field, region);
            let ok = match &got {
                Ok(bytes) if *compare => {
                    *bytes == bytes_of(&self.archive.decoded[0].expect_field(field).crop(region))
                }
                other => other.is_ok(),
            };
            tally.check(ok, || {
                format!(
                    "{name}: verification read {i} of {field}: {:?}",
                    got.as_ref().err()
                )
            });
        }
        Ok(())
    }

    /// One tick of `clock` under a span, counted into the window's ticks.
    fn tick(clock: &mut RefClock, tr: &mut Tracer, out: &mut Samples) -> Tick {
        let tick = tr.span("host", "tick", || clock.tick());
        out.slowdown.push(tick.own_s / NOMINAL_TICK_S);
        tick
    }

    /// Write this world's archive and decode it again, a tick after each,
    /// timing both the way every cycle does. `before` is the tick that
    /// ended whatever came first. An `Err` is a failed operation: it is
    /// counted, leaves no timing sample, and the caller goes on. Yields the
    /// reader over the bytes just written and the last tick.
    fn write_decode(
        &self,
        n: u64,
        clock: &mut RefClock,
        before: Tick,
        tr: &mut Tracer,
        out: &mut Samples,
        tally: &mut Tally,
    ) -> (Option<ArchiveReader<Vec<u8>>>, Tick) {
        let a = &self.archive;
        let name = self.name;
        let t = Instant::now();
        let written = tr.span("writer", "write", || {
            crate::world::write(&a.writer, &a.snaps)
        });
        let write_s = t.elapsed().as_secs_f64();
        let written_at = Self::tick(clock, tr, out);
        out.busy_s += write_s;
        let Some(written) = tally.pass(written, || format!("{name}: cycle {n}: write")) else {
            return (None, written_at);
        };
        out.write_s.push(Paced {
            exposure: a.write_exposure(),
            ..Paced::between(write_s, before, written_at, Runs::Pooled)
        });
        tally.check(written.bytes.len() == a.written.bytes.len(), || {
            format!(
                "{name}: cycle {n}: wrote {} B, the verified archive has {} B",
                written.bytes.len(),
                a.written.bytes.len()
            )
        });

        let reader = ArchiveReader::open(written.bytes).map_err(|e| e.to_string());
        let Some(reader) = tally.pass(reader, || format!("{name}: cycle {n}: open")) else {
            return (None, written_at);
        };
        let t = Instant::now();
        let decoded = tr.span("reader", "decode", || {
            crate::world::decode_everything(&reader)
        });
        let decode_s = t.elapsed().as_secs_f64();
        let decoded_at = Self::tick(clock, tr, out);
        out.busy_s += decode_s;
        if let Some(decoded) = tally.pass(decoded, || format!("{name}: cycle {n}: decode")) {
            out.decode_s.push(Paced::between(
                decode_s,
                written_at,
                decoded_at,
                Runs::Pooled,
            ));
            let samples: usize = decoded.iter().map(|d| d.len() * d.shape().len()).sum();
            tally.check(samples * 4 == a.written.raw_bytes, || {
                format!(
                    "{name}: cycle {n}: decoded {samples} samples of {}",
                    a.written.raw_bytes / 4
                )
            });
        }
        (Some(reader), decoded_at)
    }

    /// What a read workload does with the rest of its run, whose window
    /// writes nothing: write and decode its archive for about `seconds`
    /// (once at least), which is where its `write_mb_s` / `decode_mb_s`
    /// come from.
    pub fn rebuild_for(&self, seconds: f64, out: &mut Samples, tally: &mut Tally) {
        let started = Instant::now();
        let mut clock = RefClock::new(nproc());
        let mut tr = Tracer::disabled();
        let mut tick = Self::tick(&mut clock, &mut tr, out);
        let mut n = 0;
        while n == 0 || started.elapsed().as_secs_f64() < seconds {
            tick = self
                .write_decode(n, &mut clock, tick, &mut tr, out, tally)
                .1;
            n += 1;
        }
    }

    /// One write-workload cycle: write, decode everything, segments of
    /// region reads, a tick after each. Inside the window an op checks
    /// length only. Yields the tick that ended the cycle.
    fn cycle(
        &self,
        rng: &mut Rng,
        clock: &mut RefClock,
        before: Tick,
        tr: &mut Tracer,
        out: &mut Samples,
        tally: &mut Tally,
    ) -> Tick {
        let a = &self.archive;
        let name = self.name;
        let n = out.ops;
        out.ops += 1;
        let (reader, decoded_at) = self.write_decode(n, clock, before, tr, out, tally);
        let Some(reader) = reader else {
            return decoded_at;
        };

        let (fields, reads, segments) = a.cycle_reads();
        let mut tick = decoded_at;
        for field in fields.iter().cycle().take(segments) {
            let burst = Instant::now();
            let mut segment = Segment::default();
            for _ in 0..reads {
                let region = a.block_window(rng);
                let epoch = a.read_epoch(rng);
                let t = Instant::now();
                let got = tr.span("reader", "decode_region", || {
                    reader.decode_region_at(field, &region, epoch)
                });
                let ms = t.elapsed().as_secs_f64() * 1e3;
                let ok = got.as_ref().is_ok_and(|g| g.len() == region.len());
                tally.check(ok, || {
                    format!(
                        "{name}: cycle {n}: region read of {field}@{epoch}: {:?}",
                        got.as_ref().err()
                    )
                });
                segment.push(ok, ms, region.len() * 4);
            }
            let burst_s = burst.elapsed().as_secs_f64();
            let read_at = Self::tick(clock, tr, out);
            segment.close(burst_s, tick, read_at, out);
            tick = read_at;
        }
        tick
    }

    /// Run the timed window for about `seconds`; returns the samples and
    /// one span recorder per generator (empty unless `traced`).
    pub fn window(
        &self,
        seconds: f64,
        seed: u64,
        traced: bool,
        tally: &mut Tally,
    ) -> Result<(Samples, Vec<Tracer>), String> {
        if !matches!(self.path, ReadPath::Memory) {
            return self.read_window(seconds, seed, traced, tally);
        }
        let epoch = Instant::now();
        let mut rng = Rng::new(seed, 0xA11);
        let mut tr = Tracer::new(traced, epoch);
        let mut out = Samples::default();
        // write and decode fan out over the program's default pool
        let mut clock = RefClock::new(nproc());
        let mut tick = Self::tick(&mut clock, &mut tr, &mut out);
        while (out.ops as usize) < self.min_cycles || epoch.elapsed().as_secs_f64() < seconds {
            tr.set_op(out.ops);
            tick = self.cycle(&mut rng, &mut clock, tick, &mut tr, &mut out, tally);
        }
        Ok((out, vec![tr]))
    }

    /// One generator's way of reading a window through this world's read
    /// path (its own connection, for the server); yields the samples read.
    fn reader(&self) -> Result<ReadFn<'_>, String> {
        Ok(match &self.path {
            ReadPath::Memory => return Err("write workloads read inside their cycles".into()),
            ReadPath::Cold(reader) => Box::new(|f, r| {
                let got = reader.decode_region(f, r);
                got.map(|g| g.len()).map_err(|e| e.to_string())
            }),
            ReadPath::Store(store) => Box::new(|f, r| {
                let got = store.decode_region(f, r);
                got.map(|g| g.len()).map_err(|e| e.to_string())
            }),
            ReadPath::Serve(server) => {
                let mut client =
                    HttpClient::connect(server.local_addr()).map_err(|e| e.to_string())?;
                Box::new(move |f, r| http_region(&mut client, f, r).map(|_| r.len()))
            }
        })
    }

    /// Store and server counters, where this world has them.
    fn counters(&self) -> (Option<StoreStats>, Option<ServerStats>) {
        match &self.path {
            ReadPath::Store(store) => (Some(store.snapshot()), None),
            ReadPath::Serve(server) => (Some(server.store().snapshot()), Some(server.stats())),
            _ => (None, None),
        }
    }

    /// The window all read paths share: closed-loop generators (one for
    /// the cold reader, [`generators`] otherwise), each reading a seeded
    /// window of a seeded field. They move in step: everyone ticks its own
    /// one-lane clock, everyone reads for [`SEGMENT_S`], everyone ticks
    /// again, so a tick sees the host the way the reads beside it do: every
    /// generator busy. Goes on until `seconds` have passed and
    /// [`MIN_SEGMENTS`] segments are timed. Inside the window a read checks
    /// status and length only.
    fn read_window(
        &self,
        seconds: f64,
        seed: u64,
        traced: bool,
        tally: &mut Tally,
    ) -> Result<(Samples, Vec<Tracer>), String> {
        let name = self.name;
        let (layer, call, threads) = match &self.path {
            ReadPath::Cold(_) => ("reader", "decode_region", 1),
            ReadPath::Store(_) => ("store", "decode_region", generators()),
            _ => ("serve", "http_get", generators()),
        };
        let fields = self.read_fields();
        let readers = (0..threads)
            .map(|_| self.reader())
            .collect::<Result<Vec<_>, _>>()?;
        let epoch = Instant::now();
        let gate = Barrier::new(threads);
        let done = AtomicBool::new(false);
        let before = self.counters();
        let results: Vec<(Samples, Tally, Tracer)> = std::thread::scope(|s| {
            let handles: Vec<_> = readers
                .into_iter()
                .enumerate()
                .map(|(ti, mut read)| {
                    let (gate, done, fields) = (&gate, &done, &fields);
                    s.spawn(move || {
                        let mut out = Samples::default();
                        let mut tally = Tally::default();
                        let mut tr = Tracer::new(traced, epoch);
                        let mut rng = Rng::new(seed, 0xB0 + ti as u64);
                        let mut clock = RefClock::new(1);
                        gate.wait();
                        let mut tick = Self::tick(&mut clock, &mut tr, &mut out);
                        loop {
                            gate.wait();
                            let started = Instant::now();
                            let mut segment = Segment::default();
                            // the first read of a segment always runs: one
                            // that outlasts SEGMENT_S is a segment of its own
                            while segment.reads == 0 || started.elapsed().as_secs_f64() < SEGMENT_S
                            {
                                let i = out.ops;
                                out.ops += 1;
                                tr.set_op(((ti as u64) << 32) | i);
                                let field = &fields[rng.below(fields.len())];
                                let region = self.archive.window(self.read_slabs(), &mut rng);
                                let t = Instant::now();
                                let got = tr.span(layer, call, || read(field, &region));
                                let ms = t.elapsed().as_secs_f64() * 1e3;
                                let ok = got.as_ref().is_ok_and(|&n| n == region.len());
                                tally.check(ok, || {
                                    format!("{name}: generator {ti} read {i} of {field}: {got:?}")
                                });
                                segment.push(ok, ms, region.len() * 4);
                            }
                            let segment_s = started.elapsed().as_secs_f64();
                            gate.wait();
                            let after = Self::tick(&mut clock, &mut tr, &mut out);
                            segment.close(segment_s, tick, after, &mut out);
                            tick = after;
                            // one generator decides for all, between gates
                            if ti == 0 {
                                let enough = out.read_p50_ms.len() >= MIN_SEGMENTS
                                    && epoch.elapsed().as_secs_f64() >= seconds;
                                done.store(enough, Ordering::Relaxed);
                            }
                            gate.wait();
                            if done.load(Ordering::Relaxed) {
                                break;
                            }
                        }
                        (out, tally, tr)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("generator thread panicked"))
                .collect()
        });
        let after = self.counters();

        let mut out = Samples {
            generators: threads,
            store: before.0.zip(after.0),
            server: before.1.zip(after.1),
            ..Samples::default()
        };
        let mut tracers = Vec::new();
        for (mut g, t, tr) in results {
            out.read_ms.append(&mut g.read_ms);
            out.read_p50_ms.append(&mut g.read_p50_ms);
            out.read_s_per_mb.append(&mut g.read_s_per_mb);
            out.slowdown.append(&mut g.slowdown);
            out.ops += g.ops;
            // generators read side by side: the window's busy time is one's
            out.busy_s = out.busy_s.max(g.busy_s);
            tally.absorb(t);
            tracers.push(tr);
        }
        Ok((out, tracers))
    }
}

/// The reads between two ticks.
#[derive(Default)]
struct Segment {
    reads: usize,
    bytes: usize,
    latencies_ms: Vec<f64>,
}

impl Segment {
    /// One read: a failed one keeps its place in the segment but delivers
    /// nothing and has no latency.
    fn push(&mut self, ok: bool, ms: f64, bytes: usize) {
        self.reads += 1;
        if ok {
            self.latencies_ms.push(ms);
            self.bytes += bytes;
        }
    }

    /// Record the segment, which took `wall_s` between the ticks `before`
    /// and `after`; a region read runs on the thread that asks for it.
    fn close(mut self, wall_s: f64, before: Tick, after: Tick, out: &mut Samples) {
        out.busy_s += wall_s;
        if self.bytes > 0 {
            let p50 = median(&self.latencies_ms);
            out.read_p50_ms
                .push(Paced::between(p50, before, after, Runs::Alone));
            let s_per_mb = wall_s / (self.bytes as f64 / 1e6);
            out.read_s_per_mb
                .push(Paced::between(s_per_mb, before, after, Runs::Alone));
            out.read_ms.append(&mut self.latencies_ms);
        }
    }
}

/// Reads one window of one field; yields how many samples came back.
type ReadFn<'a> = Box<dyn FnMut(&str, &Region) -> Result<usize, String> + Send + 'a>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_seconds_cancel_the_host() {
        // three cycles of the same work, two of them on a host twice as
        // slow: the wall median moves with the majority, the reference
        // median does not move at all
        let quiet = Paced {
            wall: 1.0,
            tick_s: NOMINAL_TICK_S,
            exposure: 1.0,
        };
        let disturbed = Paced {
            wall: 2.0,
            tick_s: 2.0 * NOMINAL_TICK_S,
            exposure: 1.0,
        };
        let run = [quiet, disturbed, disturbed];
        assert_eq!(median_of(&run, Seconds::Wall), 2.0);
        assert_eq!(median_of(&run, Seconds::Reference), 1.0);
        // a slower program is slower on either clock
        let slower = run.map(|p| Paced {
            wall: p.wall * 2.0,
            ..p
        });
        assert_eq!(median_of(&slower, Seconds::Reference), 2.0);
        assert!(median_of(&[], Seconds::Reference).is_nan());
    }

    #[test]
    fn a_failed_read_leaves_no_latency() {
        let tick = |s: f64| Tick {
            own_s: s,
            all_s: 2.0 * s,
        };
        let mut out = Samples::default();
        let mut segment = Segment::default();
        segment.push(true, 2.0, 1_000_000);
        segment.push(false, 9.0, 1_000_000);
        segment.push(true, 4.0, 1_000_000);
        segment.close(0.5, tick(0.004), tick(0.006), &mut out);
        assert_eq!(out.read_ms, [2.0, 4.0]);
        assert_eq!(
            (out.read_p50_ms[0].wall, out.read_p50_ms[0].tick_s),
            (3.0, 0.005)
        );
        assert_eq!(out.read_s_per_mb[0].wall, 0.25);
        assert_eq!(out.busy_s, 0.5);
        // nothing delivered: time passed, no sample
        Segment::default().close(0.1, tick(0.004), tick(0.004), &mut out);
        assert_eq!((out.read_p50_ms.len(), out.busy_s), (1, 0.6));
    }
}
