//! A seeded BDC/Ookla data directory in the layout `FileWorld::load` reads
//! (the layout of the repository's `bdc_sample` fixture, at scale): three
//! biannual releases of per-state, per-technology availability files where
//! later releases withdraw a tail of many providers' claims, plus one Ookla
//! tile file per state.
//!
//! The same seed writes byte-identical files.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;
use std::fs;
use std::io;
use std::path::Path;

use geoprim::LatLng;
use hexgrid::{HexCell, QuadTile, NBM_RESOLUTION, OOKLA_ZOOM};
use redsus_ingest::{AVAILABILITY_COLUMNS, OOKLA_COLUMNS};
use synth::STATES;

/// Release directories, oldest first.
const RELEASES: [&str; 3] = ["2023-06-30", "2023-12-31", "2024-06-30"];
const TECH_CODES: [u8; 6] = [10, 40, 50, 70, 71, 72];
/// Locations per grid row; rows are 0.01° apart and columns 0.012°, so
/// nearly every location sits in a hex of its own.
const GRID_COLUMNS: usize = 120;

/// How big a generated directory is.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    pub providers: usize,
    pub states: usize,
    pub locations_per_state: usize,
    /// Smallest and largest claim block of one provider in one state.
    pub block: (usize, usize),
}

/// What [`write_dir`] wrote.
#[derive(Debug, Clone, Copy, Default)]
pub struct Written {
    /// Availability rows over every release.
    pub availability_rows: usize,
    /// FNV-1a over every byte written, in write order.
    pub digest: u64,
}

/// SplitMix64: a small, seedable, platform-independent generator.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Self(seed ^ 0x6a09_e667_f3bc_c909)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

struct Block {
    state: usize,
    start: usize,
    /// Claimed length in each release; never grows.
    kept: [usize; RELEASES.len()],
}

struct Provider {
    id: u32,
    frn: u64,
    tech: u8,
    service: &'static str,
    low_latency: u8,
    /// `(down, up)` advertised per release.
    speeds: [(f64, f64); RELEASES.len()],
    blocks: Vec<Block>,
}

fn position(state: usize, k: usize) -> LatLng {
    let (min_lat, min_lng, _, _) = STATES[state].bbox;
    LatLng::new(
        min_lat + 0.2 + (k / GRID_COLUMNS) as f64 * 0.01,
        min_lng + 0.2 + (k % GRID_COLUMNS) as f64 * 0.012,
    )
}

fn base_speeds(tech: u8, rng: &mut Rng) -> (f64, f64) {
    let tiers: &[(f64, f64)] = match tech {
        10 => &[(10.0, 1.0), (25.0, 3.0), (100.0, 10.0)],
        40 => &[(300.0, 20.0), (1000.0, 35.0)],
        50 => &[(500.0, 500.0), (1000.0, 1000.0), (2000.0, 2000.0)],
        _ => &[(25.0, 3.0), (100.0, 20.0)],
    };
    tiers[rng.below(tiers.len())]
}

/// The provider population. Sizes follow fixed patterns over the provider
/// index (block lengths, which blocks withdraw how much, which providers
/// upgrade speeds), so every seed yields the same row and removal counts;
/// the seed picks technologies, states, block positions, speeds and
/// service types.
fn providers(shape: &Shape, rng: &mut Rng) -> Vec<Provider> {
    (0..shape.providers)
        .map(|i| {
            let tech = TECH_CODES[rng.below(TECH_CODES.len())];
            let base = base_speeds(tech, rng);
            let mut speeds = [base; RELEASES.len()];
            for r in 1..RELEASES.len() {
                // A speed upgrade is a Modified claim, never a removal.
                speeds[r] = if (i * 31 + r * 7) % 20 < 3 {
                    (speeds[r - 1].0 * 2.0, speeds[r - 1].1)
                } else {
                    speeds[r - 1]
                };
            }
            let n_states = (1 + i % 2).min(shape.states);
            let mut states = BTreeSet::new();
            while states.len() < n_states {
                states.insert(rng.below(shape.states));
            }
            let blocks = states
                .into_iter()
                .enumerate()
                .map(|(b, state)| {
                    let (lo, hi) = shape.block;
                    let len = lo + (i * 37 + b * 11) % (hi - lo + 1);
                    let mut kept = [len; RELEASES.len()];
                    for r in 1..RELEASES.len() {
                        let pattern = i * 13 + b * 5 + r * 3;
                        kept[r] = if pattern % 5 < 3 {
                            let share = 0.10 + 0.025 * (pattern % 11) as f64;
                            kept[r - 1] - (kept[r - 1] as f64 * share) as usize
                        } else {
                            kept[r - 1]
                        };
                    }
                    Block {
                        state,
                        start: rng.below(shape.locations_per_state),
                        kept,
                    }
                })
                .collect();
            Provider {
                id: 130_000 + 17 * i as u32,
                frn: 9_000_000 + i as u64,
                tech,
                service: ["R", "B", "X"][rng.below(3)],
                low_latency: u8::from(tech < 70 || rng.unit() < 0.5),
                speeds,
                blocks,
            }
        })
        .collect()
}

/// FNV-1a, continued from `state`.
pub fn fnv1a(state: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(state, |h, b| {
        (h ^ u64::from(*b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Write a seeded data directory under `dir` (which must not hold an
/// earlier one).
pub fn write_dir(dir: &Path, shape: &Shape, seed: u64) -> io::Result<Written> {
    let mut rng = Rng::new(seed);
    let providers = providers(shape, &mut rng);
    let mut written = Written {
        digest: FNV_OFFSET,
        ..Written::default()
    };
    let header = AVAILABILITY_COLUMNS.join(",");

    for (r, release) in RELEASES.iter().enumerate() {
        let mut files: BTreeMap<(usize, u8), String> = BTreeMap::new();
        for p in &providers {
            for b in &p.blocks {
                let out = files
                    .entry((b.state, p.tech))
                    .or_insert_with(|| format!("{header}\n"));
                let (down, up) = p.speeds[r];
                for j in 0..b.kept[r] {
                    let k = (b.start + j) % shape.locations_per_state;
                    let hex = HexCell::containing(&position(b.state, k), NBM_RESOLUTION);
                    let _ = writeln!(
                        out,
                        "{},{},Provider {} Broadband,{},{},{down:.1},{up:.1},{},{},{},{:02}{k:013},{hex}",
                        p.frn,
                        p.id,
                        p.id,
                        (b.state as u64 + 1) * 10_000_000 + k as u64,
                        p.tech,
                        p.low_latency,
                        p.service,
                        STATES[b.state].code,
                        b.state + 10,
                    );
                    written.availability_rows += 1;
                }
            }
        }
        let release_dir = dir.join("bdc").join(release);
        fs::create_dir_all(&release_dir)?;
        for ((state, tech), body) in files {
            let name = format!("bdc_{}_{tech}_fixed_broadband.csv", STATES[state].code);
            written.digest = fnv1a(written.digest, body.as_bytes());
            fs::write(release_dir.join(name), body)?;
        }
    }

    let ookla_dir = dir.join("ookla");
    fs::create_dir_all(&ookla_dir)?;
    for (state, info) in STATES.iter().enumerate().take(shape.states) {
        let mut body = format!("{}\n", OOKLA_COLUMNS.join(","));
        let mut seen = BTreeSet::new();
        for k in (0..shape.locations_per_state).step_by(2) {
            let key = QuadTile::containing(&position(state, k), OOKLA_ZOOM).quadkey();
            if !seen.insert(key.clone()) {
                continue;
            }
            let _ = writeln!(
                body,
                "{key},{:.1},{:.1},{:.1},{},{}",
                20_000.0 + rng.below(200_000) as f64,
                2_000.0 + rng.below(40_000) as f64,
                5.0 + rng.below(60) as f64,
                1 + rng.below(60),
                1 + rng.below(30),
            );
        }
        written.digest = fnv1a(written.digest, body.as_bytes());
        fs::write(ookla_dir.join(format!("tiles_{}.csv", info.code)), body)?;
    }
    Ok(written)
}
